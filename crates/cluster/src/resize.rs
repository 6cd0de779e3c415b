//! Deterministic planned-resize events.
//!
//! Where [`crate::FaultModel`] injects *unplanned* failures, a [`ResizeModel`]
//! declares *planned* elasticity: workers joining or leaving the cluster at a
//! BSP iteration boundary, announced ahead of time (an autoscaler decision, a
//! spot-instance reclaim notice, an operator scaling the job). Like the fault
//! and straggler scenarios it is a pure function of its coordinates — the
//! probabilistic `Churn` scenario derives its draws by hashing
//! `(seed, iteration)` — so every runtime under comparison sees the *same*
//! realisation of resizes, and a sweep is byte-identical regardless of
//! `--jobs`.
//!
//! A resize is *declared* against the iteration at whose **start** it takes
//! effect; the elastic controller (`fela-elastic`) splits the run into epochs
//! at those boundaries and re-tunes each epoch. `ResizeModel::None` declares
//! nothing at all, which is what keeps resize-free runs bit-identical to a
//! build without this module.

use fela_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Churn never shrinks the cluster below this many workers.
pub const MIN_CHURN_WORKERS: usize = 2;
/// Churn never grows the cluster beyond this many workers.
pub const MAX_CHURN_WORKERS: usize = 64;

/// What the cluster membership does at a resize boundary.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ResizeAction {
    /// `n` fresh workers join the cluster.
    Join(usize),
    /// The listed workers (current 0-based ranks) leave; survivors are
    /// re-ranked contiguously, preserving order.
    Leave(Vec<usize>),
}

/// One scripted resize: `action` takes effect at the start of `iteration`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ResizeEvent {
    /// Iteration (0-based) at whose start the membership changes. Must be
    /// ≥ 1: iteration 0's membership is the scenario's initial cluster.
    pub iteration: u64,
    /// The membership change.
    pub action: ResizeAction,
}

/// A deterministic planned-elasticity scenario.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub enum ResizeModel {
    /// No resizes — byte-identical behaviour to a build without elasticity.
    #[default]
    None,
    /// A scripted sequence of resizes (sorted by iteration, one per
    /// iteration; see [`ResizeModel::validate`]).
    Scripted(Vec<ResizeEvent>),
    /// Probabilistic churn: each iteration boundary independently resizes
    /// with probability `rate`; a second stateless draw picks join vs leave.
    /// Draws are stateless hashes of `(seed, iteration)`, exactly like
    /// [`crate::FaultModel::Chaos`]. Joins add one worker, leaves retire the
    /// highest-ranked worker, and the walk is clamped to
    /// [`MIN_CHURN_WORKERS`]..=[`MAX_CHURN_WORKERS`].
    Churn {
        /// Per-boundary resize probability.
        rate: f64,
        /// Seed defining the (shared) realisation.
        seed: u64,
    },
}

impl ResizeModel {
    /// The membership change (if any) taking effect at the start of
    /// `iteration`, given the `n_workers` in effect just before it.
    ///
    /// Pure in its arguments: for a fixed model the answer depends only on
    /// `(iteration, n_workers)`, never on call order — an epoch schedule
    /// computed once is therefore identical across `--jobs` and across
    /// runtimes. Iteration 0 never resizes (the initial membership is the
    /// scenario's cluster spec).
    pub fn action_for(&self, iteration: u64, n_workers: usize) -> Option<ResizeAction> {
        if iteration == 0 {
            return None;
        }
        match self {
            ResizeModel::None => None,
            ResizeModel::Scripted(events) => events
                .iter()
                .find(|e| e.iteration == iteration)
                .map(|e| e.action.clone()),
            ResizeModel::Churn { rate, seed } => {
                // Stateless hash of (seed, iteration) → one Bernoulli draw
                // plus one direction draw, mixed with an odd constant distinct
                // from the straggler and fault models so a same-seed `Churn`
                // realisation never correlates with either.
                let mix = seed ^ iteration.wrapping_mul(0xD6E8_FEB8_6659_FD93);
                let mut rng = SimRng::seed_from_u64(mix);
                if !rng.chance(*rate) {
                    return None;
                }
                let grow = rng.chance(0.5);
                if (grow && n_workers < MAX_CHURN_WORKERS) || n_workers <= MIN_CHURN_WORKERS {
                    Some(ResizeAction::Join(1))
                } else {
                    Some(ResizeAction::Leave(vec![n_workers - 1]))
                }
            }
        }
    }

    /// True if this scenario never resizes.
    pub fn is_none(&self) -> bool {
        matches!(self, ResizeModel::None)
    }

    /// The same scenario re-rooted on `seed` (the harness `--seed` override).
    /// Scripted resizes carry no randomness and are returned unchanged.
    #[must_use]
    pub fn with_seed(self, seed: u64) -> Self {
        match self {
            ResizeModel::Churn { rate, .. } => ResizeModel::Churn { rate, seed },
            other => other,
        }
    }

    /// Checks scenario parameters, returning a user-facing message on the
    /// first problem found. Mirrors [`crate::FaultModel::validate`]:
    /// scripted events must be sorted, unique per iteration, never at
    /// iteration 0, and individually well-formed; churn must have
    /// `rate ∈ [0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ResizeModel::None => Ok(()),
            ResizeModel::Scripted(events) => {
                if events.is_empty() {
                    return Err("scripted resize needs at least one event".into());
                }
                for pair in events.windows(2) {
                    if pair[1].iteration <= pair[0].iteration {
                        return Err(format!(
                            "resize events must be sorted with one event per iteration \
                             (iteration {} follows {})",
                            pair[1].iteration, pair[0].iteration
                        ));
                    }
                }
                for e in events {
                    if e.iteration == 0 {
                        return Err("a resize cannot strike iteration 0 \
                             (the initial membership is the cluster spec)"
                            .into());
                    }
                    match &e.action {
                        ResizeAction::Join(0) => {
                            return Err(format!(
                                "join at iteration {} adds no workers",
                                e.iteration
                            ))
                        }
                        ResizeAction::Leave(ranks) => {
                            if ranks.is_empty() {
                                return Err(format!(
                                    "leave at iteration {} names no workers",
                                    e.iteration
                                ));
                            }
                            let mut seen = ranks.clone();
                            seen.sort_unstable();
                            seen.dedup();
                            if seen.len() != ranks.len() {
                                return Err(format!(
                                    "leave at iteration {} repeats a worker rank",
                                    e.iteration
                                ));
                            }
                        }
                        ResizeAction::Join(_) => {}
                    }
                }
                Ok(())
            }
            ResizeModel::Churn { rate, .. } => {
                if !rate.is_finite() || !(0.0..=1.0).contains(rate) {
                    Err(format!("resize churn rate {rate} outside [0, 1]"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 8;

    fn join_at(it: u64, n: usize) -> ResizeEvent {
        ResizeEvent {
            iteration: it,
            action: ResizeAction::Join(n),
        }
    }

    fn leave_at(it: u64, ranks: Vec<usize>) -> ResizeEvent {
        ResizeEvent {
            iteration: it,
            action: ResizeAction::Leave(ranks),
        }
    }

    #[test]
    fn none_never_resizes() {
        let m = ResizeModel::None;
        for it in 0..50 {
            assert_eq!(m.action_for(it, N), None);
        }
        assert!(m.is_none());
        assert!(m.validate().is_ok());
    }

    #[test]
    fn scripted_hits_exactly_its_iterations() {
        let m = ResizeModel::Scripted(vec![join_at(3, 2), leave_at(7, vec![0, 4])]);
        assert!(m.validate().is_ok());
        assert!(!m.is_none());
        let mut hits = 0;
        for it in 0..20 {
            if let Some(action) = m.action_for(it, N) {
                match it {
                    3 => assert_eq!(action, ResizeAction::Join(2)),
                    7 => assert_eq!(action, ResizeAction::Leave(vec![0, 4])),
                    other => panic!("unexpected resize at iteration {other}"),
                }
                hits += 1;
            }
        }
        assert_eq!(hits, 2);
    }

    #[test]
    fn iteration_zero_never_resizes() {
        // Even a (invalid) scripted event at 0 is masked by the boundary rule;
        // validate() rejects it anyway.
        let m = ResizeModel::Scripted(vec![join_at(0, 1)]);
        assert_eq!(m.action_for(0, N), None);
        assert!(m.validate().is_err());
        let churn = ResizeModel::Churn { rate: 1.0, seed: 1 };
        assert_eq!(churn.action_for(0, N), None);
    }

    #[test]
    fn churn_is_deterministic_per_boundary() {
        let m = ResizeModel::Churn {
            rate: 0.3,
            seed: 11,
        };
        for it in 0..60 {
            for n in 2..12 {
                assert_eq!(m.action_for(it, n), m.action_for(it, n));
            }
        }
    }

    #[test]
    fn churn_rate_approximates_rate() {
        let m = ResizeModel::Churn {
            rate: 0.25,
            seed: 5,
        };
        let trials = 40_000u64;
        let hits = (1..=trials)
            .filter(|&it| m.action_for(it, N).is_some())
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn churn_respects_floor_and_ceiling() {
        let m = ResizeModel::Churn { rate: 1.0, seed: 3 };
        for it in 1..200 {
            match m.action_for(it, MIN_CHURN_WORKERS) {
                Some(ResizeAction::Join(1)) => {}
                other => panic!("at the floor churn must join, got {other:?}"),
            }
            match m.action_for(it, MAX_CHURN_WORKERS) {
                Some(ResizeAction::Leave(ranks)) => {
                    assert_eq!(ranks, vec![MAX_CHURN_WORKERS - 1]);
                }
                other => panic!("at the ceiling churn must leave, got {other:?}"),
            }
        }
    }

    #[test]
    fn churn_decorrelated_from_chaos_faults() {
        // Same seed must not produce the same hit pattern as the fault
        // model — the two draws use different mixing constants.
        let r = ResizeModel::Churn { rate: 0.5, seed: 9 };
        let f = crate::FaultModel::Chaos {
            p: 0.5,
            down: fela_sim::SimDuration::from_secs(1),
            seed: 9,
        };
        let differs =
            (1..100).any(|it| r.action_for(it, N).is_some() != f.fault_for(it, 0, N).is_some());
        assert!(differs);
    }

    #[test]
    fn with_seed_reroots_only_churn() {
        let c = ResizeModel::Churn { rate: 0.1, seed: 1 };
        assert!(matches!(
            c.with_seed(77),
            ResizeModel::Churn { seed: 77, .. }
        ));
        let s = ResizeModel::Scripted(vec![join_at(2, 1)]);
        assert_eq!(s.clone().with_seed(77), s);
        assert_eq!(ResizeModel::None.with_seed(77), ResizeModel::None);
    }

    #[test]
    fn validate_rejects_malformed_scripts() {
        for (label, m) in [
            ("empty script", ResizeModel::Scripted(vec![])),
            (
                "unsorted",
                ResizeModel::Scripted(vec![join_at(5, 1), join_at(3, 1)]),
            ),
            (
                "duplicate iteration",
                ResizeModel::Scripted(vec![join_at(3, 1), join_at(3, 2)]),
            ),
            ("join zero", ResizeModel::Scripted(vec![join_at(4, 0)])),
            (
                "empty leave",
                ResizeModel::Scripted(vec![leave_at(4, vec![])]),
            ),
            (
                "repeated rank",
                ResizeModel::Scripted(vec![leave_at(4, vec![1, 1])]),
            ),
        ] {
            assert!(m.validate().is_err(), "{label} should be rejected");
        }
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let m = ResizeModel::Churn { rate: bad, seed: 0 };
            assert!(m.validate().is_err(), "rate={bad} should be rejected");
        }
        assert!(ResizeModel::Churn { rate: 0.0, seed: 0 }.validate().is_ok());
    }

    #[test]
    fn serde_round_trips() {
        let m = ResizeModel::Scripted(vec![join_at(3, 2), leave_at(9, vec![1, 5])]);
        let json = serde_json::to_string(&m).expect("serializes");
        let back: ResizeModel = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, m);
    }

    // ---- determinism/range property tests (the FaultModel contract: a
    // resize model is a pure function of its declared coordinates) ---------

    use proptest::prelude::*;

    fn arb_model() -> impl Strategy<Value = ResizeModel> {
        prop_oneof![
            Just(ResizeModel::None),
            (1u64..64, 1usize..4).prop_map(|(it, n)| ResizeModel::Scripted(vec![join_at(it, n)])),
            (1u64..32, 0usize..8, 1usize..4).prop_map(|(it, rank, gap)| ResizeModel::Scripted(
                vec![leave_at(it, vec![rank]), join_at(it + gap as u64, 1)]
            )),
            (0.0f64..1.0, any::<u64>()).prop_map(|(rate, seed)| ResizeModel::Churn { rate, seed }),
        ]
    }

    proptest! {
        #[test]
        fn every_model_is_a_pure_function_of_its_cell(
            m in arb_model(),
            it in 0u64..64,
            n in 2usize..16
        ) {
            prop_assert_eq!(m.action_for(it, n), m.action_for(it, n));
        }

        #[test]
        fn valid_models_stay_valid_under_reseeding(m in arb_model(), seed in any::<u64>()) {
            prop_assert!(m.validate().is_ok());
            prop_assert!(m.clone().with_seed(seed).validate().is_ok());
            // Re-seeding never changes *whether* a scenario resizes.
            prop_assert_eq!(m.is_none(), m.with_seed(seed).is_none());
        }

        #[test]
        fn churn_walk_stays_within_bounds(
            rate in 0.0f64..1.0,
            seed in any::<u64>(),
            start in 2usize..16
        ) {
            // Applying churn's own actions step by step never escapes the
            // [MIN, MAX] clamp.
            let m = ResizeModel::Churn { rate, seed };
            let mut n = start;
            for it in 1..128u64 {
                match m.action_for(it, n) {
                    Some(ResizeAction::Join(j)) => n += j,
                    Some(ResizeAction::Leave(ranks)) => {
                        prop_assert!(ranks.iter().all(|&r| r < n));
                        n -= ranks.len();
                    }
                    None => {}
                }
                prop_assert!(n >= MIN_CHURN_WORKERS.min(start));
                prop_assert!(n <= MAX_CHURN_WORKERS);
            }
        }
    }
}
