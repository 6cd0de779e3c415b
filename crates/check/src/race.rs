//! Vector-clock happens-before race detection over scheduling traces.
//!
//! The simulator's trace ([`fela_sim::Trace`]) records the scheduling protocol in
//! structured form ([`EventKind`]): grants, completions and parameter syncs. This
//! module replays a trace and rebuilds the *causal* order those events justify —
//! deliberately **without** assuming the Token Server gated token release on
//! parameter commits. The happens-before edges are only:
//!
//! * worker program order (one GPU, sequential tokens);
//! * `Grant(t) → Complete(t)` — a token finishes after it is granted;
//! * `Complete(dep) → Grant(t)` for every dependency `dep` the grant names —
//!   a token starts after the outputs it consumes exist;
//! * `Complete(l, k, ·) → SyncStart(l, k)` — an all-reduce aggregates gradients
//!   that exist;
//! * `SyncStart(l, k) → SyncDone(l, k)` and per-level sync program order.
//!
//! The *barrier* edge — `SyncDone(l, k) → Grant(l, k + 1 + staleness, ·)` — is the
//! property under test, so it is only admitted when the trace itself witnesses the
//! commit before the grant. A scheduler bug that hands out an iteration-`k+1`
//! token while iteration `k`'s parameters are still in flight therefore surfaces
//! as a [`RaceViolation::StaleParameterRead`]: the grant reads the level's
//! parameter chunk concurrently (in happens-before terms) with the chunk's
//! mutation at commit.
//!
//! Vector clocks span `n_workers + n_levels` logical processes (each level's sync
//! pipeline is its own process), so the analysis also exposes true concurrency —
//! e.g. gradient computations of the same level on different workers are
//! concurrent, which tests assert to show the checker does not simply re-serialize
//! the trace.

use std::collections::BTreeMap;

use fela_sim::{EventKind, Trace};

/// A happens-before violation found in a trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RaceViolation {
    /// A token grant read a level's parameters concurrently with (or before) the
    /// commit that must precede it: `SyncDone(level, iteration − 1 − staleness)`
    /// does not happen-before the grant.
    StaleParameterRead {
        /// Level whose parameters were read.
        level: usize,
        /// Iteration of the granted token.
        iteration: u64,
        /// Worker that received the grant.
        worker: usize,
        /// Granted token id.
        token: u64,
    },
    /// A grant names a dependency whose completion the trace has not witnessed.
    UnorderedDependency {
        /// Granted token id.
        token: u64,
        /// The dependency with no happens-before completion.
        dep: u64,
    },
    /// A gradient completion for `(level, iteration)` appeared after that
    /// sync already committed — the all-reduce missed a contribution.
    LateGradient {
        /// Level of the late gradient.
        level: usize,
        /// Iteration whose sync already committed.
        iteration: u64,
        /// The late token.
        token: u64,
    },
    /// A level's parameter commits are out of iteration order.
    UnorderedCommit {
        /// Level with the misordered commits.
        level: usize,
        /// Iteration committed earlier.
        earlier: u64,
        /// Iteration committed at or before `earlier` despite being later.
        later: u64,
    },
    /// A completion was reported for a token the trace never granted.
    CompleteWithoutGrant {
        /// The unexplained token id.
        token: u64,
    },
    /// A sync committed without a matching start event.
    SyncDoneWithoutStart {
        /// Level of the orphan commit.
        level: usize,
        /// Iteration of the orphan commit.
        iteration: u64,
    },
    /// A token was granted a second time without a revocation in between: the
    /// re-grant does not happen-after any `Revoke` of the token, so two
    /// workers may compute the same gradient concurrently.
    RegrantWithoutRevocation {
        /// The twice-granted token.
        token: u64,
    },
}

impl std::fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceViolation::StaleParameterRead {
                level,
                iteration,
                worker,
                token,
            } => write!(
                f,
                "worker {worker} granted token {token} (level {level}, iter {iteration}) concurrently with the level's pending parameter commit"
            ),
            RaceViolation::UnorderedDependency { token, dep } => write!(
                f,
                "token {token} granted before its dependency {dep} completed"
            ),
            RaceViolation::LateGradient {
                level,
                iteration,
                token,
            } => write!(
                f,
                "token {token} completed after sync (level {level}, iter {iteration}) already committed"
            ),
            RaceViolation::UnorderedCommit {
                level,
                earlier,
                later,
            } => write!(
                f,
                "level {level} committed iteration {later} at or before iteration {earlier}"
            ),
            RaceViolation::CompleteWithoutGrant { token } => {
                write!(f, "token {token} completed without a grant")
            }
            RaceViolation::SyncDoneWithoutStart { level, iteration } => {
                write!(f, "sync (level {level}, iter {iteration}) committed without starting")
            }
            RaceViolation::RegrantWithoutRevocation { token } => {
                write!(f, "token {token} re-granted without an intervening revocation")
            }
        }
    }
}

/// Statistics of a clean trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct RaceSummary {
    /// Structured events analysed (generic events are skipped).
    pub events: usize,
    /// Token grants seen.
    pub grants: usize,
    /// Token completions seen.
    pub completions: usize,
    /// Parameter commits seen.
    pub commits: usize,
    /// Lease revocations seen (0 in fault-free traces).
    pub revocations: usize,
    /// Completions discarded because the TS rejected their report as stale
    /// (the gradient was never applied).
    pub discarded_completions: usize,
    /// Logical processes (workers + per-level sync pipelines).
    pub processes: usize,
}

/// The happens-before analysis of one trace: per-event vector clocks plus any
/// violations. Built by `HbAnalysis::analyze`; [`check_trace`] is the
/// pass/fail wrapper.
pub struct HbAnalysis {
    /// Indices into the trace's event list, in analysis order (structured
    /// events only).
    pub analyzed: Vec<usize>,
    /// Vector clock of each analysed event, parallel to `analyzed`.
    pub clocks: Vec<Vec<u64>>,
    /// Violations, in trace order.
    pub violations: Vec<RaceViolation>,
    /// Summary counters.
    pub summary: RaceSummary,
    n_workers: usize,
}

impl HbAnalysis {
    /// Replays `trace` and computes vector clocks and violations under the given
    /// SSP `staleness` bound (0 = BSP).
    fn analyze(trace: &Trace, staleness: u64) -> HbAnalysis {
        // Infer the process space from the events themselves.
        let mut n_workers = 0usize;
        let mut n_levels = 0usize;
        for e in trace.events() {
            match e.kind {
                EventKind::Grant { worker, level, .. }
                | EventKind::Complete { worker, level, .. } => {
                    n_workers = n_workers.max(worker + 1);
                    n_levels = n_levels.max(level + 1);
                }
                EventKind::SyncStart { level, .. } | EventKind::SyncDone { level, .. } => {
                    n_levels = n_levels.max(level + 1);
                }
                EventKind::Crash { worker }
                | EventKind::Restart { worker }
                | EventKind::Revoke { worker, .. }
                | EventKind::StaleReport { worker, .. } => {
                    n_workers = n_workers.max(worker + 1);
                }
                EventKind::Generic => {}
            }
        }
        let dim = n_workers + n_levels;
        let mut analysis = HbAnalysis {
            analyzed: Vec::new(),
            clocks: Vec::new(),
            violations: Vec::new(),
            summary: RaceSummary {
                processes: dim,
                ..RaceSummary::default()
            },
            n_workers,
        };
        // Current clock of each logical process.
        let mut proc_clock: Vec<Vec<u64>> = vec![vec![0; dim]; dim];
        // Clocks of the events later events join on.
        let mut grant_clock: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut complete_clock: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut sync_start_clock: BTreeMap<(usize, u64), Vec<u64>> = BTreeMap::new();
        let mut sync_done_clock: BTreeMap<(usize, u64), Vec<u64>> = BTreeMap::new();
        // Latest revocation clock per token: the edge a re-grant must join.
        let mut revoke_clock: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        // Highest committed iteration per level, for commit-order checking.
        let mut last_commit: Vec<Option<u64>> = vec![None; n_levels];
        // Completions whose report the TS rejected as stale: those gradients
        // were never applied, so they must not feed sync aggregation or the
        // late-gradient check. Reports arrive in completion order, so stale
        // rejections match the *earliest* unmatched completion of the pair.
        let mut stale_remaining: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        for e in trace.events() {
            if let EventKind::StaleReport { worker, token } = e.kind {
                *stale_remaining.entry((worker, token)).or_insert(0) += 1;
            }
        }

        fn join(into: &mut [u64], from: &[u64]) {
            for (a, b) in into.iter_mut().zip(from) {
                *a = (*a).max(*b);
            }
        }

        for (idx, e) in trace.events().iter().enumerate() {
            let kind = e.kind.clone();
            match kind {
                EventKind::Generic => continue,
                // Membership transitions and stale-report rejections carry no
                // happens-before obligations of their own: the causal content
                // of a crash is the `Revoke` events it emits, and stale
                // reports were folded into `stale_remaining` above.
                EventKind::Crash { .. }
                | EventKind::Restart { .. }
                | EventKind::StaleReport { .. } => continue,
                _ => {}
            }
            analysis.summary.events += 1;
            let clock = match kind {
                EventKind::Grant {
                    worker,
                    token,
                    level,
                    iteration,
                    ref deps,
                } => {
                    analysis.summary.grants += 1;
                    let mut c = proc_clock[worker].clone();
                    // Revocation edge: a re-granted token must happen-after
                    // the revocation that freed it. A second grant with no
                    // revocation in between is two live leases on one token.
                    if grant_clock.contains_key(&token) {
                        match revoke_clock.get(&token) {
                            Some(rc) => join(&mut c, rc),
                            None => analysis
                                .violations
                                .push(RaceViolation::RegrantWithoutRevocation { token }),
                        }
                    }
                    for &dep in deps {
                        match complete_clock.get(&dep) {
                            Some(dc) => join(&mut c, dc),
                            None => analysis
                                .violations
                                .push(RaceViolation::UnorderedDependency { token, dep }),
                        }
                    }
                    // The barrier edge exists only if the trace witnessed the
                    // commit first — this is the property under test.
                    if iteration > staleness {
                        let gate = (level, iteration - 1 - staleness);
                        match sync_done_clock.get(&gate) {
                            Some(sc) => join(&mut c, sc),
                            None => analysis.violations.push(RaceViolation::StaleParameterRead {
                                level,
                                iteration,
                                worker,
                                token,
                            }),
                        }
                    }
                    c[worker] += 1;
                    proc_clock[worker] = c.clone();
                    grant_clock.insert(token, c.clone());
                    c
                }
                EventKind::Complete {
                    worker,
                    token,
                    level,
                    iteration,
                } => {
                    analysis.summary.completions += 1;
                    let mut c = proc_clock[worker].clone();
                    match grant_clock.get(&token) {
                        Some(gc) => join(&mut c, gc),
                        None => analysis
                            .violations
                            .push(RaceViolation::CompleteWithoutGrant { token }),
                    }
                    let discarded = match stale_remaining.get_mut(&(worker, token)) {
                        Some(left) if *left > 0 => {
                            *left -= 1;
                            true
                        }
                        _ => false,
                    };
                    c[worker] += 1;
                    proc_clock[worker] = c.clone();
                    if discarded {
                        // The TS rejected this report: the gradient was never
                        // applied, so it neither feeds sync aggregation nor
                        // counts as late — only worker program order advances.
                        analysis.summary.discarded_completions += 1;
                    } else {
                        if sync_done_clock.contains_key(&(level, iteration)) {
                            analysis.violations.push(RaceViolation::LateGradient {
                                level,
                                iteration,
                                token,
                            });
                        }
                        complete_clock.insert(token, c.clone());
                    }
                    c
                }
                EventKind::SyncStart { level, iteration } => {
                    let proc = n_workers + level;
                    let mut c = proc_clock[proc].clone();
                    // Aggregate every gradient witnessed so far for this
                    // (level, iteration). Late ones are flagged above.
                    for ev in trace.events()[..idx].iter() {
                        if let EventKind::Complete {
                            token,
                            level: cl,
                            iteration: ck,
                            ..
                        } = ev.kind
                        {
                            if cl == level && ck == iteration {
                                if let Some(cc) = complete_clock.get(&token) {
                                    join(&mut c, cc);
                                }
                            }
                        }
                    }
                    c[proc] += 1;
                    proc_clock[proc] = c.clone();
                    sync_start_clock.insert((level, iteration), c.clone());
                    c
                }
                EventKind::SyncDone { level, iteration } => {
                    analysis.summary.commits += 1;
                    let proc = n_workers + level;
                    let mut c = proc_clock[proc].clone();
                    match sync_start_clock.get(&(level, iteration)) {
                        Some(sc) => join(&mut c, sc),
                        None => analysis
                            .violations
                            .push(RaceViolation::SyncDoneWithoutStart { level, iteration }),
                    }
                    if let Some(prev) = last_commit[level] {
                        if iteration <= prev {
                            analysis.violations.push(RaceViolation::UnorderedCommit {
                                level,
                                earlier: prev,
                                later: iteration,
                            });
                        }
                    }
                    last_commit[level] = Some(last_commit[level].unwrap_or(0).max(iteration));
                    c[proc] += 1;
                    proc_clock[proc] = c.clone();
                    sync_done_clock.insert((level, iteration), c.clone());
                    c
                }
                EventKind::Revoke { token, .. } => {
                    analysis.summary.revocations += 1;
                    // The revocation happens-after the grant it kills (and any
                    // earlier revocation of the same token). It lives on the
                    // TS, not on a worker timeline: joining the *victim*'s
                    // clock would fabricate an order between the revocation
                    // and whatever the (possibly hung) victim did after.
                    let mut c = vec![0; dim];
                    if let Some(gc) = grant_clock.get(&token) {
                        join(&mut c, gc);
                    }
                    if let Some(rc) = revoke_clock.get(&token) {
                        join(&mut c, rc);
                    }
                    revoke_clock.insert(token, c.clone());
                    c
                }
                EventKind::Generic
                | EventKind::Crash { .. }
                | EventKind::Restart { .. }
                | EventKind::StaleReport { .. } => unreachable!("filtered above"),
            };
            analysis.analyzed.push(idx);
            analysis.clocks.push(clock);
        }
        analysis
    }

    /// Number of worker processes inferred from the trace.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }
}

/// Checks a trace for happens-before violations. Returns the summary if the
/// trace is race-free, or every violation found.
pub fn check_trace(trace: &Trace, staleness: u64) -> Result<RaceSummary, Vec<RaceViolation>> {
    let analysis = HbAnalysis::analyze(trace, staleness);
    if analysis.violations.is_empty() {
        Ok(analysis.summary)
    } else {
        Err(analysis.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_cluster::Scenario;
    use fela_core::{FelaConfig, FelaRuntime};
    use fela_model::zoo;
    use fela_sim::SimTime;

    fn traced_run(cfg: FelaConfig) -> Trace {
        let scenario = Scenario::paper(zoo::vgg19(), 128).with_iterations(3);
        let (_, trace) = FelaRuntime::new(cfg).run_traced(&scenario);
        trace
    }

    #[test]
    fn real_bsp_run_is_race_free() {
        let trace = traced_run(FelaConfig::new(3).with_weights(vec![1, 2, 4]));
        let summary = check_trace(&trace, 0).unwrap();
        assert_eq!(summary.grants, 14 * 3);
        assert_eq!(summary.completions, 14 * 3);
        // Every (level, iteration) commits exactly once, degenerate or not.
        assert_eq!(summary.commits, 3 * 3);
        assert_eq!(summary.processes, 8 + 3);
    }

    #[test]
    fn ablated_policies_are_still_race_free() {
        for cfg in [
            FelaConfig::new(3)
                .with_weights(vec![1, 2, 4])
                .with_ads(false),
            FelaConfig::new(3)
                .with_weights(vec![1, 2, 4])
                .with_hf(false),
            FelaConfig::new(3).with_weights(vec![1, 2, 4]).with_ctd(4),
            FelaConfig::new(3)
                .with_weights(vec![1, 2, 4])
                .with_pipelining(false),
        ] {
            check_trace(&traced_run(cfg), 0).unwrap();
        }
    }

    #[test]
    fn ssp_run_checks_under_its_staleness_bound() {
        let trace = traced_run(
            FelaConfig::new(3)
                .with_weights(vec![1, 2, 4])
                .with_staleness(1),
        );
        check_trace(&trace, 1).unwrap();
    }

    #[test]
    fn gradient_computations_on_distinct_workers_are_concurrent() {
        let trace = traced_run(FelaConfig::new(3).with_weights(vec![1, 2, 4]));
        let analysis = HbAnalysis::analyze(&trace, 0);
        // Find two iteration-0 level-0 completes on different workers; the
        // checker must see them as causally unordered.
        let mut first: Option<(usize, usize)> = None;
        for (i, &idx) in analysis.analyzed.iter().enumerate() {
            if let EventKind::Complete {
                worker,
                level: 0,
                iteration: 0,
                ..
            } = trace.events()[idx].kind
            {
                match first {
                    None => first = Some((i, worker)),
                    Some((j, w)) if w != worker => {
                        // Neither vector clock dominates the other.
                        let (a, b) = (&analysis.clocks[i], &analysis.clocks[j]);
                        let le = |x: &[u64], y: &[u64]| x.iter().zip(y).all(|(p, q)| p <= q);
                        assert!(
                            !le(a, b) && !le(b, a),
                            "independent gradients must be concurrent"
                        );
                        return;
                    }
                    _ => {}
                }
            }
        }
        panic!("no pair of level-0 completes on distinct workers found");
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// A hand-built trace where iteration 1's grant precedes iteration 0's
    /// commit: the premature-release bug the checker exists to catch.
    #[test]
    fn premature_grant_is_a_stale_parameter_read() {
        let mut tr = Trace::enabled();
        let grant = |tr: &mut Trace, at, worker, token, iteration| {
            tr.record_kind(
                t(at),
                "ts",
                EventKind::Grant {
                    worker,
                    token,
                    level: 0,
                    iteration,
                    deps: vec![],
                },
                String::new,
            );
        };
        let complete = |tr: &mut Trace, at, worker, token, iteration| {
            tr.record_kind(
                t(at),
                &format!("worker{worker}"),
                EventKind::Complete {
                    worker,
                    token,
                    level: 0,
                    iteration,
                },
                String::new,
            );
        };
        grant(&mut tr, 0, 0, 0, 0);
        complete(&mut tr, 1, 0, 0, 0);
        tr.record_kind(
            t(2),
            "ts",
            EventKind::SyncStart {
                level: 0,
                iteration: 0,
            },
            String::new,
        );
        // BUG: iteration 1 granted before the iteration-0 commit.
        grant(&mut tr, 3, 0, 1, 1);
        tr.record_kind(
            t(4),
            "ts",
            EventKind::SyncDone {
                level: 0,
                iteration: 0,
            },
            String::new,
        );
        complete(&mut tr, 5, 0, 1, 1);
        tr.record_kind(
            t(6),
            "ts",
            EventKind::SyncStart {
                level: 0,
                iteration: 1,
            },
            String::new,
        );
        tr.record_kind(
            t(7),
            "ts",
            EventKind::SyncDone {
                level: 0,
                iteration: 1,
            },
            String::new,
        );

        let violations = check_trace(&tr, 0).unwrap_err();
        assert_eq!(
            violations,
            vec![RaceViolation::StaleParameterRead {
                level: 0,
                iteration: 1,
                worker: 0,
                token: 1,
            }]
        );
        // The same trace is legal under SSP with staleness 1.
        check_trace(&tr, 1).unwrap();
    }

    #[test]
    fn missing_dependency_and_orphan_complete_are_flagged() {
        let mut tr = Trace::enabled();
        tr.record_kind(
            t(0),
            "ts",
            EventKind::Grant {
                worker: 0,
                token: 5,
                level: 1,
                iteration: 0,
                deps: vec![3],
            },
            String::new,
        );
        tr.record_kind(
            t(1),
            "worker1",
            EventKind::Complete {
                worker: 1,
                token: 9,
                level: 0,
                iteration: 0,
            },
            String::new,
        );
        let violations = check_trace(&tr, 0).unwrap_err();
        assert!(violations.contains(&RaceViolation::UnorderedDependency { token: 5, dep: 3 }));
        assert!(violations.contains(&RaceViolation::CompleteWithoutGrant { token: 9 }));
    }

    #[test]
    fn late_gradient_and_unordered_commit_are_flagged() {
        let mut tr = Trace::enabled();
        tr.record_kind(
            t(0),
            "ts",
            EventKind::Grant {
                worker: 0,
                token: 0,
                level: 0,
                iteration: 0,
                deps: vec![],
            },
            String::new,
        );
        tr.record_kind(
            t(1),
            "ts",
            EventKind::SyncStart {
                level: 0,
                iteration: 0,
            },
            String::new,
        );
        tr.record_kind(
            t(2),
            "ts",
            EventKind::SyncDone {
                level: 0,
                iteration: 0,
            },
            String::new,
        );
        // Gradient lands after its sync committed.
        tr.record_kind(
            t(3),
            "worker0",
            EventKind::Complete {
                worker: 0,
                token: 0,
                level: 0,
                iteration: 0,
            },
            String::new,
        );
        // Same iteration commits again: out of order.
        tr.record_kind(
            t(4),
            "ts",
            EventKind::SyncDone {
                level: 0,
                iteration: 0,
            },
            String::new,
        );
        let violations = check_trace(&tr, 0).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, RaceViolation::LateGradient { token: 0, .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, RaceViolation::UnorderedCommit { level: 0, .. })));
    }
}
