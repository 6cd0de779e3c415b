//! # fela-tuning — runtime configuration tuning (§IV-B, Figure 6)
//!
//! Fela's elastic tuning runs in two phases at the start of training:
//!
//! * **Phase 1 — parallelism degrees.** With `w_1 = 1` as the base, the tuner
//!   profiles every nondecreasing power-of-two weight vector
//!   `{w_2, …, w_M} ⊆ {1, 2, …, 2^⌊log₂N⌋}` (10 cases for `M = 3`, `N = 8`) for a
//!   few iterations each and keeps the one with the lowest per-iteration time.
//! * **Phase 2 — conditional subset.** Holding the Phase-1 winner fixed, it halves
//!   the CTD subset (`N, N/2, …, 1`), adding `log₂N` further cases, of which the
//!   full-cluster case is the Phase-1 winner itself — hence the paper's
//!   `10 + 4 − 1 = 13` total cases on 8 nodes.
//!
//! Profiling reuses the full simulation stack, so every number the tuner sees is
//! the same per-iteration time an experiment would report. The paper's headline
//! (Figure 6(b)) is that the best case beats the worst by 8.51–66.78%, i.e. tuning
//! is not optional; [`TuningOutcome::overall_saving`] reproduces that quantity.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use fela_cluster::{Scenario, TrainingRuntime};
use fela_core::{FelaConfig, FelaRuntime, TokenPlan};
use fela_metrics::stats;
use serde::Serialize;

/// One configuration the tuner profiles.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct TuningCase {
    /// Case index as plotted on Figure 6's x-axis (0-based).
    pub id: usize,
    /// Tuning phase (1 or 2).
    pub phase: u8,
    /// Weight vector `w`.
    pub weights: Vec<u64>,
    /// CTD subset size (`None` = no conditional distribution, i.e. subset = N).
    pub subset: Option<usize>,
}

/// Result of profiling one case.
#[derive(Clone, Debug, Serialize)]
pub struct CaseResult {
    /// The configuration profiled.
    pub case: TuningCase,
    /// Mean per-iteration time over the profiling iterations, in seconds.
    /// `None` if the case is infeasible for this workload (e.g. a weight larger
    /// than the root token count).
    pub per_iteration_secs: Option<f64>,
}

/// Outcome of the two-phase search.
#[derive(Clone, Debug, Serialize)]
pub struct TuningOutcome {
    /// Every profiled case in x-axis order (Phase 1 then Phase 2).
    pub cases: Vec<CaseResult>,
    /// Index (into `cases`) of the Phase-1 winner.
    pub phase1_best: usize,
    /// Index (into `cases`) of the overall winner.
    pub best: usize,
    /// The winning configuration, ready to train with.
    pub best_config: FelaConfig,
    /// Iterations profiled per case.
    pub profile_iterations: u64,
}

impl TuningOutcome {
    /// Per-iteration times of the feasible cases, in case order.
    pub fn times(&self) -> Vec<f64> {
        self.cases
            .iter()
            .filter_map(|c| c.per_iteration_secs)
            .collect()
    }

    /// Figure 6(a) normalisation of the feasible cases' times to `[0, 1]`.
    pub fn normalized_times(&self) -> Vec<f64> {
        stats::normalize_unit(&self.times())
    }

    fn phase_times(&self, phase: u8) -> Vec<f64> {
        let mut times: Vec<f64> = self
            .cases
            .iter()
            .filter(|c| c.case.phase == phase)
            .filter_map(|c| c.per_iteration_secs)
            .collect();
        if phase == 2 {
            // The paper counts the Phase-1 winner among the Phase-2 cases (it is
            // the subset-size-N configuration).
            if let Some(t) = self.cases[self.phase1_best].per_iteration_secs {
                times.push(t);
            }
        }
        times
    }

    /// Figure 6(b): fraction of per-iteration time the best Phase-1 case saves
    /// over the worst Phase-1 case.
    pub fn phase1_saving(&self) -> f64 {
        stats::best_worst_saving(&self.phase_times(1))
    }

    /// Figure 6(b): saving among Phase-2 cases (including the Phase-1 winner).
    pub fn phase2_saving(&self) -> f64 {
        stats::best_worst_saving(&self.phase_times(2))
    }

    /// Figure 6(b): saving of the overall best over the overall worst case.
    pub fn overall_saving(&self) -> f64 {
        stats::best_worst_saving(&self.times())
    }
}

/// Enumerates Phase-1 weight vectors: `w_1 = 1`, nondecreasing powers of two up
/// to `2^⌊log₂ n_workers⌋`, for `m` sub-models.
pub fn phase1_candidates(m: usize, n_workers: usize) -> Vec<Vec<u64>> {
    assert!(m >= 1, "at least one sub-model");
    let cap_exp = usize::BITS - 1 - n_workers.leading_zeros();
    let values: Vec<u64> = (0..=cap_exp).map(|e| 1u64 << e).collect();

    fn rec(values: &[u64], current: &mut Vec<u64>, idx: usize, min: u64, out: &mut Vec<Vec<u64>>) {
        if idx == current.len() {
            out.push(current.clone());
            return;
        }
        for &v in values.iter().filter(|&&v| v >= min) {
            current[idx] = v;
            rec(values, current, idx + 1, v, out);
        }
    }

    let mut out = Vec::new();
    let mut current = vec![1u64; m];
    rec(&values, &mut current, 1, 1, &mut out);
    out
}

/// Enumerates Phase-2 subset sizes by halving: `N/2, N/4, …, 1` (the size-`N`
/// case is the Phase-1 winner itself).
fn phase2_candidates(n_workers: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut s = n_workers.next_power_of_two() / 2;
    while s >= 1 {
        out.push(s);
        if s == 1 {
            break;
        }
        s /= 2;
    }
    out
}

/// The two-phase configuration tuner.
#[derive(Clone, Debug)]
pub struct Tuner {
    /// Iterations profiled per case (the paper uses 5).
    pub profile_iterations: u64,
}

impl Default for Tuner {
    fn default() -> Self {
        Tuner {
            profile_iterations: 5,
        }
    }
}

impl Tuner {
    /// Profiles one candidate config for [`Tuner::profile_iterations`]
    /// iterations; `None` if the config is infeasible for this workload.
    ///
    /// The profiler [`Tuner::tune_with_jobs`] hands to [`Tuner::search`].
    /// Public so a caller that drives the search with its own profiler — the
    /// elastic re-tuner's profile cache — times its misses through this same
    /// code path.
    pub fn profile(&self, scenario: &Scenario, config: &FelaConfig) -> Option<f64> {
        let runtime = FelaRuntime::new(config.clone());
        let partition = runtime.partition_for(scenario);
        // Skip infeasible weight/batch combinations up front.
        TokenPlan::build(
            &partition,
            config,
            scenario.total_batch,
            scenario.cluster.nodes,
        )
        .ok()?;
        let probe = scenario.clone().with_iterations(self.profile_iterations);
        let report = runtime.run(&probe);
        Some(report.mean_iteration_secs())
    }

    /// Runs the two-phase search on `scenario` (its iteration count is ignored;
    /// each case runs for [`Tuner::profile_iterations`]).
    ///
    /// Profiling runs on the machine's available parallelism
    /// ([`fela_harness::default_jobs`]); results are identical for any job
    /// count (see [`Tuner::tune_with_jobs`]).
    pub fn tune(&self, scenario: &Scenario) -> TuningOutcome {
        self.tune_with_jobs(scenario, fela_harness::default_jobs())
    }

    /// [`Tuner::tune`] with an explicit worker-thread count.
    ///
    /// [`Tuner::search`] profiling each phase's candidates through the
    /// harness executor ([`fela_harness::run_indexed`]), which preserves
    /// candidate order, so the outcome is byte-identical for `jobs = 1` and
    /// `jobs = 32`.
    pub fn tune_with_jobs(&self, scenario: &Scenario, jobs: usize) -> TuningOutcome {
        self.search(scenario, |configs| {
            fela_harness::run_indexed(configs.len(), jobs, |i| self.profile(scenario, &configs[i]))
        })
    }

    /// The two-phase search on `scenario`, with the profiling left to
    /// `profile`: it receives one phase's candidate configs in x-axis order
    /// and returns their per-iteration times in the same order (`None` =
    /// infeasible). Phase 2 is enumerated only after Phase 1's times are in —
    /// its candidates depend on the Phase-1 winner. Ties go to the earlier
    /// case.
    ///
    /// # Panics
    /// Panics if no Phase-1 case is feasible, or if `profile` returns a
    /// different number of times than it was given configs. The all-ones
    /// weights are a Phase-1 case, so a caller rules out the first by
    /// checking that they admit a token plan
    /// ([`TrainingRuntime::check`] on
    /// `FelaRuntime::new(FelaConfig::new(m))`).
    pub fn search(
        &self,
        scenario: &Scenario,
        mut profile: impl FnMut(&[FelaConfig]) -> Vec<Option<f64>>,
    ) -> TuningOutcome {
        let n = scenario.cluster.nodes;
        let m = {
            let runtime = FelaRuntime::new(FelaConfig::new(1));
            runtime.partition_for(scenario).len()
        };
        let mut configs: Vec<FelaConfig> = phase1_candidates(m, n)
            .into_iter()
            .map(|weights| FelaConfig::new(m).with_weights(weights))
            .collect();
        let mut cases = Vec::new();
        push_cases(&mut cases, 1, &configs, profile(&configs));
        let phase1_best =
            fastest(&cases).expect("a feasible Phase-1 case: the caller checked all-ones weights");
        let phase2: Vec<FelaConfig> = phase2_candidates(n)
            .into_iter()
            .map(|subset| configs[phase1_best].clone().with_ctd(subset))
            .collect();
        push_cases(&mut cases, 2, &phase2, profile(&phase2));
        configs.extend(phase2);
        let best = fastest(&cases).expect("a best case exists");
        TuningOutcome {
            cases,
            phase1_best,
            best,
            best_config: configs.swap_remove(best),
            profile_iterations: self.profile_iterations,
        }
    }
}

/// Appends one phase's profiled `configs` to `cases`, numbering them on.
fn push_cases(
    cases: &mut Vec<CaseResult>,
    phase: u8,
    configs: &[FelaConfig],
    times: Vec<Option<f64>>,
) {
    assert_eq!(times.len(), configs.len(), "one time per profiled config");
    for (config, per_iteration_secs) in configs.iter().zip(times) {
        cases.push(CaseResult {
            case: TuningCase {
                id: cases.len(),
                phase,
                weights: config.weights.clone(),
                subset: config.ctd.map(|ctd| ctd.subset_size),
            },
            per_iteration_secs,
        });
    }
}

/// Index of the fastest feasible case; the earliest wins a tie.
fn fastest(cases: &[CaseResult]) -> Option<usize> {
    cases
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.per_iteration_secs.map(|t| (i, t)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_model::zoo;

    #[test]
    fn phase1_space_is_10_cases_for_m3_n8() {
        let c = phase1_candidates(3, 8);
        assert_eq!(c.len(), 10, "paper: 4+3+2+1 = 10 cases");
        assert!(c.iter().all(|w| w[0] == 1));
        assert!(c.iter().all(|w| w.windows(2).all(|p| p[0] <= p[1])));
        assert!(c.contains(&vec![1, 1, 4]), "paper's batch-64 winner");
        assert!(c.contains(&vec![1, 8, 8]), "paper's batch-1024 winner");
    }

    #[test]
    fn phase2_space_halves() {
        assert_eq!(phase2_candidates(8), vec![4, 2, 1]);
        assert_eq!(phase2_candidates(2), vec![1]);
    }

    #[test]
    fn total_search_is_13_cases() {
        // 10 Phase-1 + 3 Phase-2 = 13 profiled cases; the paper counts the same
        // 13 by including the Phase-1 winner among 4 Phase-2 cases.
        assert_eq!(
            phase1_candidates(3, 8).len() + phase2_candidates(8).len(),
            13
        );
    }

    #[test]
    fn tune_googlenet_quickly() {
        let scenario = Scenario::paper(zoo::googlenet(), 256);
        let tuner = Tuner {
            profile_iterations: 2,
        };
        let outcome = tuner.tune(&scenario);
        assert_eq!(outcome.cases.len(), 13);
        assert!(outcome.cases[outcome.best].per_iteration_secs.is_some());
        outcome
            .best_config
            .validate(8)
            .expect("tuned config is valid");
        // Normalised times span [0, 1].
        let norm = outcome.normalized_times();
        assert!(norm.iter().cloned().fold(f64::NAN, f64::min).abs() < 1e-12);
        assert!((norm.iter().cloned().fold(f64::NAN, f64::max) - 1.0).abs() < 1e-12);
        // Savings are consistent: overall ≥ each phase's.
        assert!(outcome.overall_saving() >= outcome.phase1_saving() - 1e-12);
        assert!(outcome.overall_saving() >= outcome.phase2_saving() - 1e-12);
        assert!(outcome.overall_saving() > 0.0, "tuning must matter");
    }

    #[test]
    fn outcome_is_identical_for_any_job_count() {
        let scenario = Scenario::paper(zoo::googlenet(), 256);
        let tuner = Tuner {
            profile_iterations: 1,
        };
        let json = |jobs| serde_json::to_string(&tuner.tune_with_jobs(&scenario, jobs)).unwrap();
        assert_eq!(json(1), json(4));
    }

    #[test]
    fn best_config_round_trips_to_a_run() {
        use fela_cluster::TrainingRuntime as _;
        let scenario = Scenario::paper(zoo::googlenet(), 128).with_iterations(2);
        let tuner = Tuner {
            profile_iterations: 1,
        };
        let outcome = tuner.tune(&scenario);
        let report = FelaRuntime::new(outcome.best_config.clone()).run(&scenario);
        assert_eq!(report.iterations, 2);
    }

    #[test]
    fn profile_returns_time_for_valid_config() {
        let tuner = Tuner {
            profile_iterations: 1,
        };
        let scenario = Scenario::paper(zoo::googlenet(), 16);
        let t = tuner.profile(&scenario, &FelaConfig::new(3).with_weights(vec![1, 1, 1]));
        assert!(t.is_some());
        assert!(t.unwrap() > 0.0);
    }
}
