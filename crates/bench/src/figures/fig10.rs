//! Figure 10 — AT and PID in the probability-based straggler scenario: each
//! worker independently becomes a straggler with probability `p` every iteration,
//! sleeping d = 6 s (VGG19) or 3 s (GoogLeNet); p ∈ {0.1..0.5} (§V-C2).

use fela_cluster::StragglerModel;
use fela_model::zoo;
use fela_sim::SimDuration;

use crate::{
    model_slug, perturbation_experiment, print_perturbation_tables, save_json, Perturbation,
};

const BATCH: u64 = 256;
/// All runtimes see the same straggler realisation (stateless hash), as on the
/// paper's testbed where the injection script is independent of the runtime.
const SEED: u64 = 20200417;

/// Runs the Figure 10 sweeps on `jobs` worker threads.
pub fn run(jobs: usize) {
    let mut all = Vec::new();
    for (model, d) in [(zoo::vgg19(), 6u64), (zoo::googlenet(), 3u64)] {
        let settings: Vec<(String, Perturbation)> = [0.1f64, 0.2, 0.3, 0.4, 0.5]
            .iter()
            .map(|&p| {
                (
                    format!("p={p:.1}"),
                    Perturbation::Straggler(StragglerModel::Probabilistic {
                        p,
                        delay: SimDuration::from_secs(d),
                        seed: SEED,
                    }),
                )
            })
            .collect();
        let (rows, _) = perturbation_experiment(
            &format!("fig10_probabilistic_{}", model_slug(&model.name)),
            &model,
            BATCH,
            &settings,
            jobs,
        );
        print_perturbation_tables(
            &format!(
                "Figure 10 — probability-based stragglers ({}, d={d}s)",
                model.name
            ),
            &rows,
        );
        all.extend(rows);
    }
    println!(
        "Paper shape checks: AT degrades with p for every runtime; Fela keeps the\n\
         highest AT and much lower PID than DP/HP across the sweep."
    );
    save_json("fig10_probabilistic", &all);
}
