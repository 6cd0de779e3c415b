//! Library implementations of every figure/table experiment.
//!
//! Each submodule exposes `run(jobs: usize)`: it declares its runs (as a
//! [`fela_harness::SweepSpec`] when the experiment executes training
//! runtimes), runs them on `jobs` worker threads, prints the paper-style
//! tables and writes artifacts under `results/`. The `regen_all` binary runs
//! the experiments [`select`] picks by name.

pub mod ablation;
pub mod fig1;
pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig_elastic;
pub mod fig_recovery;
pub mod fig_server_recovery;
pub mod table1;
pub mod table2;

/// An experiment entry point: takes the worker-thread count.
pub type Experiment = fn(usize);

/// Every experiment in DESIGN.md §4 order: `(name, entry point)`.
const ALL: [(&str, Experiment); 13] = [
    ("table1_model_zoo", table1::run),
    ("table2_comparison", table2::run),
    ("fig1_layer_throughput", fig1::run),
    ("fig5_bin_partition", fig5::run),
    ("fig6_tuning", fig6::run),
    ("fig7_ablation", fig7::run),
    ("fig8_non_straggler", fig8::run),
    ("fig9_round_robin", fig9::run),
    ("fig10_probabilistic", fig10::run),
    ("fig_recovery", fig_recovery::run),
    ("fig_elastic", fig_elastic::run),
    ("fig_server_recovery", fig_server_recovery::run),
    ("ablation_design", ablation::run),
];

/// The experiments that `names` lists, in DESIGN.md §4 order; all 13 when
/// `names` is empty. An unknown name is an error that lists the valid ones.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<(&'static str, Experiment)>, String> {
    let known = |name: &str| ALL.iter().any(|(n, _)| *n == name);
    if let Some(unknown) = names.iter().map(AsRef::as_ref).find(|n| !known(n)) {
        let valid: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown experiment '{unknown}' (valid: {})",
            valid.join(", ")
        ));
    }
    Ok(ALL
        .into_iter()
        .filter(|(n, _)| names.is_empty() || names.iter().any(|m| m.as_ref() == *n))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique() {
        let names: std::collections::BTreeSet<&str> = ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn select_keeps_all_order_and_rejects_unknown_names() {
        let names = |picked: Vec<(&'static str, Experiment)>| -> Vec<&str> {
            picked.into_iter().map(|(n, _)| n).collect()
        };
        assert_eq!(select::<&str>(&[]).unwrap().len(), ALL.len());
        let picked = select(&["fig_elastic", "fig_recovery"]).unwrap();
        assert_eq!(names(picked), ["fig_recovery", "fig_elastic"]);
        let e = select(&["fig_recovery", "fig11"]).unwrap_err();
        assert!(e.starts_with("unknown experiment 'fig11' (valid: table1_model_zoo, "));
        assert!(!e.contains('\n'), "one line: {e}");
    }
}
