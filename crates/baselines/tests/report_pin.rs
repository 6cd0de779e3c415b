//! Pins every field of every baseline report to the bit.
//!
//! The tracked artifacts hold only AT/PID summaries and never run MP's
//! elastic mode, so this digest is what holds a refactor of the baselines'
//! simulation frame to the bit: per-iteration times, busy seconds, network
//! bytes and counters of six runtimes on six scenarios.

use fela_baselines::{DpRuntime, HpRuntime, MpRuntime};
use fela_cluster::{ClusterSpec, FaultKind, FaultModel, Scenario, StragglerModel, TrainingRuntime};
use fela_model::zoo;
use fela_sim::SimDuration;

fn scenarios() -> Vec<Scenario> {
    let mut four_nodes = Scenario::paper(zoo::vgg19(), 256).with_iterations(6);
    four_nodes.cluster = ClusterSpec::k40c_cluster(4);
    vec![
        Scenario::paper(zoo::vgg19(), 128).with_iterations(6),
        Scenario::paper(zoo::googlenet(), 128)
            .with_iterations(6)
            .with_straggler(StragglerModel::RoundRobin {
                delay: SimDuration::from_secs(4),
            }),
        Scenario::paper(zoo::vgg19(), 128)
            .with_iterations(6)
            .with_straggler(StragglerModel::Probabilistic {
                p: 0.3,
                delay: SimDuration::from_secs(2),
                seed: 7,
            }),
        Scenario::paper(zoo::alexnet(), 128)
            .with_iterations(6)
            .with_fault(FaultModel::Scripted {
                worker: 3,
                iteration: 2,
                kind: FaultKind::CrashRestart {
                    down: SimDuration::from_secs(5),
                },
            }),
        Scenario::paper(zoo::vgg19(), 128)
            .with_iterations(6)
            .with_fault(FaultModel::Chaos {
                p: 0.1,
                down: SimDuration::from_secs(3),
                seed: 11,
            }),
        four_nodes,
    ]
}

fn runtimes() -> Vec<Box<dyn TrainingRuntime>> {
    vec![
        Box::new(DpRuntime::default()),
        Box::new(DpRuntime::parameter_server(1)),
        Box::new(DpRuntime::parameter_server(4)),
        Box::new(MpRuntime::default()),
        Box::new(MpRuntime::elastic(2)),
        Box::new(HpRuntime),
    ]
}

/// FNV-1a over the `Debug` rendering of every report, which prints each
/// `f64` in its shortest round-tripping form and so pins it to the bit.
#[test]
fn every_baseline_report_is_pinned_to_the_bit() {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for scenario in scenarios() {
        for runtime in runtimes() {
            let report = runtime.run(&scenario);
            for b in format!("{report:?}").bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(hash, 0xfeb7_ec6c_ee5e_f320);
}
