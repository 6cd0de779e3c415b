//! Figure 9 — AT and PID in the round-robin straggler scenario: worker `k mod N`
//! is slowed by `d` seconds in iteration `k`. VGG19 sweeps d ∈ {2,4,6,8,10} s,
//! GoogLeNet d ∈ {1..5} s (§V-C2).

use fela_cluster::StragglerModel;
use fela_model::zoo;
use fela_sim::SimDuration;

use crate::{
    model_slug, perturbation_experiment, print_perturbation_tables, save_json, Perturbation,
};

/// Batch size for the straggler experiments (mid-sweep; the paper fixes one).
const BATCH: u64 = 256;

/// Runs the Figure 9 sweeps on `jobs` worker threads.
pub fn run(jobs: usize) {
    let mut all = Vec::new();
    for (model, delays) in [
        (zoo::vgg19(), vec![2u64, 4, 6, 8, 10]),
        (zoo::googlenet(), vec![1, 2, 3, 4, 5]),
    ] {
        let settings: Vec<(String, Perturbation)> = delays
            .iter()
            .map(|&d| {
                (
                    format!("d={d}s"),
                    Perturbation::Straggler(StragglerModel::RoundRobin {
                        delay: SimDuration::from_secs(d),
                    }),
                )
            })
            .collect();
        let (rows, _) = perturbation_experiment(
            &format!("fig9_round_robin_{}", model_slug(&model.name)),
            &model,
            BATCH,
            &settings,
            jobs,
        );
        print_perturbation_tables(
            &format!("Figure 9 — round-robin stragglers ({})", model.name),
            &rows,
        );
        all.extend(rows);
    }
    println!(
        "Paper shape checks: Fela's PID stays well below DP's and HP's (token\n\
         stealing absorbs the sleep); MP's PID can undercut Fela's because the\n\
         sleep overlaps its pipeline bubbles — but MP's AT remains the lowest."
    );
    save_json("fig9_round_robin", &all);
}
