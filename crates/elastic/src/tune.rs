//! Incremental two-phase re-tuning across resize boundaries.
//!
//! At every resize the controller must re-run Fela's two-phase configuration
//! search (§IV-B) for the new worker count and batch. Running the full
//! search from scratch at each boundary wastes most of its profiling budget:
//! churny clusters revisit worker counts they have already seen, and a
//! profiled case's per-iteration time is a **pure function** of
//! `(worker set, batch, weights, subset)` — the simulator is deterministic.
//!
//! [`IncrementalTuner`] is therefore a profile cache around
//! [`Tuner::search`], the one search [`Tuner::tune_with_jobs`] runs too: it
//! serves each candidate from the cache and sends misses to
//! [`Tuner::profile`], so its [`TuningOutcome`] is bit-identical to a fresh
//! full search while cache hits skip the profiling entirely. [`RetuneStats`]
//! reports how much simulated search time the cache saved.

use std::collections::BTreeMap;

use fela_cluster::Scenario;
use fela_core::FelaConfig;
use fela_tuning::{Tuner, TuningOutcome};
use serde::Serialize;

/// Everything a profiled case's time depends on, in hashable form. The
/// speed-factor bits matter: two epochs with equal worker counts but
/// different surviving stragglers must not share profiles.
type CacheKey = (usize, u64, Vec<u64>, Vec<u64>, Option<usize>);

/// Cost accounting for one incremental re-tune.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize)]
pub struct RetuneStats {
    /// Cases profiled from scratch (cache misses).
    pub profiled: usize,
    /// Cases answered from the cross-epoch cache.
    pub reused: usize,
    /// Simulated seconds spent profiling the missed cases
    /// (`profile_iterations × per-iteration time`, summed over feasible
    /// misses). This is the search cost an elastic run pays at the boundary.
    pub search_secs: f64,
}

/// A [`Tuner`] with a cross-epoch profile cache.
#[derive(Clone, Debug)]
pub struct IncrementalTuner {
    /// The underlying tuner (its `profile_iterations` sets the per-case
    /// budget, as in the paper's 5-iteration probes).
    pub tuner: Tuner,
    cache: BTreeMap<CacheKey, Option<u64>>,
}

impl IncrementalTuner {
    /// A fresh tuner profiling `profile_iterations` per case.
    pub fn new(profile_iterations: u64) -> Self {
        IncrementalTuner {
            tuner: Tuner { profile_iterations },
            cache: BTreeMap::new(),
        }
    }

    /// Runs [`Tuner::search`] for `scenario`, answering each candidate from
    /// the cache and profiling the misses with [`Tuner::profile`], in
    /// candidate order.
    ///
    /// The returned [`TuningOutcome`] is bit-identical to
    /// [`Tuner::tune_with_jobs`] on the same scenario: the search is the
    /// same, and determinism of the simulator makes a cached value equal to a
    /// fresh one.
    pub fn tune(&mut self, scenario: &Scenario) -> (TuningOutcome, RetuneStats) {
        let IncrementalTuner { tuner, cache } = self;
        let mut stats = RetuneStats::default();
        let speed_bits: Vec<u64> = scenario
            .cluster
            .speed_factors
            .iter()
            .map(|f| f.to_bits())
            .collect();
        let mut profile_cached = |config: &FelaConfig| {
            let key = (
                scenario.cluster.nodes,
                scenario.total_batch,
                speed_bits.clone(),
                config.weights.clone(),
                config.ctd.map(|ctd| ctd.subset_size),
            );
            if let Some(bits) = cache.get(&key) {
                stats.reused += 1;
                return bits.map(f64::from_bits);
            }
            let time = tuner.profile(scenario, config);
            stats.profiled += 1;
            if let Some(t) = time {
                stats.search_secs += t * tuner.profile_iterations as f64;
            }
            cache.insert(key, time.map(f64::to_bits));
            time
        };
        let outcome = tuner.search(scenario, |configs| {
            configs.iter().map(&mut profile_cached).collect()
        });
        (outcome, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_model::zoo;

    fn scenario(batch: u64) -> Scenario {
        Scenario::paper(zoo::googlenet(), batch).with_iterations(4)
    }

    fn assert_outcomes_bit_identical(a: &TuningOutcome, b: &TuningOutcome) {
        let ja = serde_json::to_string(a).expect("serializes");
        let jb = serde_json::to_string(b).expect("serializes");
        assert_eq!(ja, jb, "incremental and full search must agree to the bit");
    }

    #[test]
    fn cold_cache_matches_the_full_search_exactly() {
        let sc = scenario(256);
        let mut inc = IncrementalTuner::new(2);
        let (outcome, stats) = inc.tune(&sc);
        let oracle = Tuner {
            profile_iterations: 2,
        }
        .tune_with_jobs(&sc, 1);
        assert_outcomes_bit_identical(&outcome, &oracle);
        assert_eq!(stats.reused, 0);
        assert_eq!(stats.profiled, outcome.cases.len());
        assert!(stats.search_secs > 0.0);
    }

    #[test]
    fn warm_cache_reuses_and_still_matches_the_oracle() {
        let sc = scenario(256);
        let mut inc = IncrementalTuner::new(2);
        let (first, cold) = inc.tune(&sc);
        let (second, warm) = inc.tune(&sc);
        assert_outcomes_bit_identical(&first, &second);
        assert_eq!(warm.profiled, 0, "everything must come from the cache");
        assert_eq!(warm.reused, cold.profiled);
        assert!((warm.search_secs - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn cache_distinguishes_batches() {
        let mut inc = IncrementalTuner::new(1);
        let (_, s1) = inc.tune(&scenario(256));
        let (out2, s2) = inc.tune(&scenario(512));
        assert!(s2.profiled > 0, "a new batch must profile fresh cases");
        assert!(s1.profiled > 0);
        let oracle = Tuner {
            profile_iterations: 1,
        }
        .tune_with_jobs(&scenario(512), 1);
        assert_outcomes_bit_identical(&out2, &oracle);
    }

    #[test]
    fn cache_distinguishes_speed_factors() {
        let mut inc = IncrementalTuner::new(1);
        let sc = scenario(256);
        let mut slow = scenario(256);
        slow.cluster.speed_factors[3] = 2.0;
        inc.tune(&sc);
        let (out, stats) = inc.tune(&slow);
        assert!(stats.profiled > 0, "different hardware must re-profile");
        let oracle = Tuner {
            profile_iterations: 1,
        }
        .tune_with_jobs(&slow, 1);
        assert_outcomes_bit_identical(&out, &oracle);
    }
}
