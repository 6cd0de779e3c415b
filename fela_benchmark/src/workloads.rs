//! The four workloads: how `--seed` becomes each one's `Scenario`, what its
//! set-up and its timed call are, and how every rep's output is checked.
//!
//! Every workload is a closed loop: a worker pulls its next tokens only
//! after it reports, with at most `pipeline` tokens outstanding. The live
//! workers are the program's own emulated cluster nodes (they sleep their
//! modelled spans), so the busy threads are the Token Server and this
//! benchmark's single main thread.

use std::path::{Path, PathBuf};

use fela_cluster::{
    ClusterSpec, FaultModel, ResizeAction, ResizeEvent, ResizeModel, Scenario, StragglerModel,
    TrainingRuntime,
};
use fela_core::{DurabilityOptions, FelaConfig, FelaRuntime};
use fela_elastic::{ElasticOptions, ElasticPlan, ElasticRuntime, EpochPlan};
use fela_live::{plan_for, run_real, run_real_durable, ChanTransport, RealOptions, TcpTransport};
use fela_model::zoo;
use fela_sim::{SimDuration, SimRng};
use fela_tuning::Tuner;

use crate::stats::digest;

/// The seed the pinned outputs below were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// Output digests of a full-size run at [`DEFAULT_SEED`]. The live params
/// were checked once against `fela_live::run_virtual` of the same scenario.
const PINNED: [(Kind, u64); 4] = [
    (Kind::Sim, 0x28fe_8cc4_85c3_7372),
    (Kind::LiveChan, 0x2278_3c60_70a0_abb7),
    (Kind::LiveTcpWal, 0xefa1_d82d_f542_575c),
    (Kind::Elastic, 0x2894_d964_0303_d8f5),
];

/// One workload of the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `fela run`: tune, then simulate VGG19 on 48 nodes under stragglers.
    Sim,
    /// Real-clock live run over in-process channels.
    LiveChan,
    /// Real-clock live run over TCP with a file WAL and one server crash.
    LiveTcpWal,
    /// Live elastic run over TCP through a join/leave cycle.
    Elastic,
}

impl Kind {
    /// Every workload, in round-robin order.
    pub const ALL: [Kind; 4] = [Kind::Sim, Kind::LiveChan, Kind::LiveTcpWal, Kind::Elastic];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sim => "sim-vgg19-w48",
            Kind::LiveChan => "live-chan-w16",
            Kind::LiveTcpWal => "live-tcp-wal-w16",
            Kind::Elastic => "elastic-tcp-churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The transport the workload's live layers run over.
    pub fn transport(self) -> &'static str {
        match self {
            Kind::Sim | Kind::LiveChan => "chan",
            Kind::LiveTcpWal | Kind::Elastic => "tcp",
        }
    }
}

/// Real-clock settings shared by both live workloads: at this time scale
/// tokens/s no longer follows 1/`time_scale`, so the server's poll loop, the
/// wire codec and the transport set the rate.
pub fn real_options() -> RealOptions {
    RealOptions {
        time_scale: 2e-4,
        pipeline: 16,
        ..RealOptions::default()
    }
}

/// SSP staleness of the live workloads: several iterations stay in flight,
/// so grants batch up to `pipeline`.
const LIVE_STALENESS: u64 = 8;

/// `config` with the Token Server's lock window turned off.
///
/// Conflict detection remembers each bucket's last grant time, and that
/// memory is not part of `ServerSnapshot`: a plane restored from a
/// checkpoint treats the next grant inside the window as conflict-free, so
/// `recover` rejects the log ("replayed op N produced a different outcome
/// than recorded"). At this time scale a 5 ms window is about 1 µs of wall
/// time, which back-to-back grants hit; with the in-memory log every
/// checkpointed crash of `live-tcp-wal-w16` failed, and about one in a
/// hundred with the file log. Without the window recovery is exact.
pub fn without_lock_window(config: FelaConfig) -> FelaConfig {
    FelaConfig {
        lock_window: SimDuration::ZERO,
        ..config
    }
}

/// A workload's inputs, made from the seed.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed the scenario was drawn from.
    pub seed: u64,
    /// Tiny sizes for smoke runs.
    pub quick: bool,
    /// The scenario the program receives.
    pub scenario: Scenario,
    /// Where the file WAL of `live-tcp-wal-w16` lives.
    wal_dir: PathBuf,
}

/// What a workload's set-up produces.
pub enum Prepared {
    /// The tuned configuration and how many cases the tuner profiled.
    Sim { config: FelaConfig, cases: usize },
    /// The live configuration and the tokens a run must accept.
    Live { config: FelaConfig, tokens: u64 },
    /// The elastic plan and the digest of the simulated elastic report the
    /// live run must reproduce byte for byte.
    Elastic { plan: ElasticPlan, reference: u64 },
}

impl Prepared {
    /// The configuration the timed call runs (epoch 0's for elastic).
    pub fn config(&self) -> &FelaConfig {
        match self {
            Prepared::Sim { config, .. } | Prepared::Live { config, .. } => config,
            Prepared::Elastic { plan, .. } => &plan.epochs[0].config,
        }
    }

    /// A digest of everything set-up decided; equal across set-ups.
    pub fn key(&self) -> u64 {
        let text = match self {
            Prepared::Sim { config, .. } | Prepared::Live { config, .. } => json(config),
            Prepared::Elastic { plan, .. } => json(
                &plan
                    .epochs
                    .iter()
                    .map(EpochPlan::summary)
                    .collect::<Vec<_>>(),
            ),
        };
        digest(text.as_bytes())
    }
}

/// The checked outcome of one timed rep.
pub struct Rep {
    /// Tokens the call completed (accepted reports).
    pub tokens: u64,
    /// Reports discarded as stale.
    pub stale: u64,
    /// Accepted tokens per second of the live protocol phase.
    pub protocol_tokens_per_s: Option<f64>,
    /// Digest of the output: equal across reps, and pinned at the default seed.
    pub digest: u64,
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("the serde shim serializes infallibly")
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Workload {
    /// Draws `kind`'s scenario from `seed`.
    pub fn new(kind: Kind, seed: u64, quick: bool, scratch: &Path) -> Self {
        let scenario = match kind {
            Kind::Sim => {
                let (nodes, iterations) = if quick { (4, 3) } else { (48, 40) };
                let mut sc = Scenario::paper(zoo::vgg19(), 256)
                    .with_iterations(iterations)
                    .with_straggler(StragglerModel::Probabilistic {
                        p: 0.1,
                        delay: SimDuration::from_secs(6),
                        seed,
                    });
                sc.cluster = ClusterSpec::k40c_cluster(nodes);
                sc
            }
            Kind::LiveChan => {
                let mut sc = live_scenario(quick, if quick { 20 } else { 1000 });
                sc.straggler = StragglerModel::Probabilistic {
                    p: 0.1,
                    delay: SimDuration::from_millis(500),
                    seed,
                };
                sc
            }
            Kind::LiveTcpWal => {
                let iterations = if quick { 20 } else { 100 };
                // The crash lands in the middle half of the run, so there is
                // always a checkpoint before it and an op suffix to replay.
                let crash = iterations / 4 + SimRng::seed_from_u64(seed).next_below(iterations / 2);
                live_scenario(quick, iterations).with_fault(FaultModel::ServerCrashRestart {
                    iteration: crash,
                    down: SimDuration::from_secs(10),
                })
            }
            Kind::Elastic => {
                let (iterations, every) = if quick { (20, 5) } else { (1000, 10) };
                Scenario::paper(zoo::googlenet(), 256)
                    .with_iterations(iterations)
                    .with_resize(join_leave_cycle(seed, iterations, every))
            }
        };
        Workload {
            kind,
            seed,
            quick,
            scenario,
            wal_dir: scratch.join(format!("{}-wal", kind.name())),
        }
    }

    /// The pinned output digest, where one applies.
    pub fn pinned(&self) -> Option<u64> {
        if self.quick || self.seed != DEFAULT_SEED {
            return None;
        }
        PINNED
            .iter()
            .find(|(k, _)| *k == self.kind)
            .map(|&(_, d)| d)
    }

    /// The set-up a user pays before the timed call: the tuner, the live
    /// token plan, or the elastic plan.
    pub fn setup(&self) -> Result<Prepared, String> {
        let sc = &self.scenario;
        Ok(match self.kind {
            Kind::Sim => {
                let outcome = Tuner::default().tune_with_jobs(sc, 1);
                Prepared::Sim {
                    cases: outcome.cases.len(),
                    config: outcome.best_config,
                }
            }
            Kind::LiveChan | Kind::LiveTcpWal => {
                let m = FelaRuntime::new(FelaConfig::new(1)).partition_for(sc).len();
                let mut config = FelaConfig::new(m).with_staleness(LIVE_STALENESS);
                if self.kind == Kind::LiveTcpWal {
                    config = without_lock_window(config);
                }
                let plan = plan_for(&config, sc).map_err(io_err)?;
                Prepared::Live {
                    config,
                    tokens: plan.tokens_per_iteration() * sc.iterations,
                }
            }
            Kind::Elastic => Prepared::Elastic {
                plan: ElasticRuntime::new(ElasticOptions::default())
                    .plan(sc)
                    .map_err(io_err)?,
                reference: 0,
            },
        })
    }

    /// Untimed work after set-up: the simulated elastic run whose report the
    /// live elastic run must equal.
    pub fn reference(&self, prepared: &mut Prepared) -> Result<(), String> {
        if let Prepared::Elastic { reference, .. } = prepared {
            let sim = ElasticRuntime::new(ElasticOptions::default())
                .run_elastic(&self.scenario)
                .map_err(io_err)?;
            *reference = digest(json(&sim.report).as_bytes());
        }
        Ok(())
    }

    /// One timed call, with the checks that need its full output.
    pub fn run(&self, prepared: &Prepared) -> Result<Rep, String> {
        let sc = &self.scenario;
        match (self.kind, prepared) {
            (Kind::Sim, Prepared::Sim { config, .. }) => {
                let report = FelaRuntime::new(config.clone()).run(sc);
                let text = format!("{:?}{:?}{}", config.weights, config.ctd, json(&report));
                Ok(Rep {
                    tokens: report.counter("grants"),
                    stale: report.counter("stale_reports"),
                    protocol_tokens_per_s: None,
                    digest: digest(text.as_bytes()),
                })
            }
            (Kind::LiveChan | Kind::LiveTcpWal, Prepared::Live { config, tokens }) => {
                let out = if self.kind == Kind::LiveChan {
                    run_real(config, sc, &mut ChanTransport, real_options())
                } else {
                    let durability = DurabilityOptions {
                        wal_dir: Some(self.wal_dir.clone()),
                        checkpoint_every: 8,
                    };
                    let mut tcp = TcpTransport::default();
                    run_real_durable(config, sc, &mut tcp, real_options(), &durability)
                }
                .map_err(io_err)?;
                if out.iterations != sc.iterations {
                    return Err(format!(
                        "{} of {} iterations completed",
                        out.iterations, sc.iterations
                    ));
                }
                if self.kind == Kind::LiveTcpWal
                    && (out.server_crashes, out.server_restarts) != (1, 1)
                {
                    return Err(format!(
                        "{} server crashes and {} restarts, expected one each",
                        out.server_crashes, out.server_restarts
                    ));
                }
                // A recovered server restarts its per-worker trained counts
                // from zero (`ServerSnapshot` does not carry them), so after a
                // crash `trained_per_worker` and `tokens_per_sec` count only
                // the reports since the restart. Every iteration completed,
                // so the run accepted exactly the plan's tokens.
                let trained: u64 = out.trained_per_worker.iter().sum();
                if self.kind == Kind::LiveChan && trained != *tokens {
                    return Err(format!("{trained} tokens accepted, the plan has {tokens}"));
                }
                Ok(Rep {
                    tokens: *tokens,
                    stale: out.stale_reports,
                    protocol_tokens_per_s: Some(*tokens as f64 / out.elapsed_secs),
                    digest: digest(&out.params),
                })
            }
            (Kind::Elastic, Prepared::Elastic { reference, .. }) => {
                let out = fela_elastic::run_live_elastic(ElasticOptions::default(), sc, "tcp")
                    .map_err(io_err)?;
                let got = digest(json(&out.report).as_bytes());
                if got != *reference {
                    return Err(
                        "live elastic report differs from ElasticRuntime::run_elastic".into(),
                    );
                }
                Ok(Rep {
                    tokens: out.report.counter("grants"),
                    stale: out.report.counter("stale_reports"),
                    protocol_tokens_per_s: None,
                    digest: got,
                })
            }
            _ => unreachable!("set-up always matches its workload"),
        }
    }

    /// Removes the workload's on-disk state.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// AlexNet at batch 256 on 16 K40c nodes (4 in quick mode).
fn live_scenario(quick: bool, iterations: u64) -> Scenario {
    let mut sc = Scenario::paper(zoo::alexnet(), 256).with_iterations(iterations);
    sc.cluster = ClusterSpec::k40c_cluster(if quick { 4 } else { 16 });
    sc
}

/// A resize every `every` iterations, alternating a join of 1–4 fresh workers
/// with the departure of as many seed-drawn ranks. The cluster swings between
/// 8 and at most 12 workers, so every seed exercises the same mechanisms
/// (fresh TCP sessions per epoch, incremental re-tuning with cache hits) at
/// nearly the same cost. `ResizeModel::Churn` is an unbounded random walk:
/// its worker count, and with it the run's cost, differs several-fold
/// between seeds.
fn join_leave_cycle(seed: u64, iterations: u64, every: u64) -> ResizeModel {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let base = ClusterSpec::paper_testbed().nodes;
    let mut events = Vec::new();
    let mut joined = 0;
    for iteration in (every..iterations).step_by(every as usize) {
        let action = if joined == 0 {
            joined = 1 + rng.next_below(4) as usize;
            ResizeAction::Join(joined)
        } else {
            let mut ranks: Vec<usize> = (0..base + joined).collect();
            let mut leaving = Vec::with_capacity(joined);
            for _ in 0..joined {
                leaving.push(ranks.swap_remove(rng.next_below(ranks.len() as u64) as usize));
            }
            leaving.sort_unstable();
            joined = 0;
            ResizeAction::Leave(leaving)
        };
        events.push(ResizeEvent { iteration, action });
    }
    ResizeModel::Scripted(events)
}
