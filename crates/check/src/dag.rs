//! Static token-dependency DAG construction and verification.
//!
//! Given a [`TokenPlan`] and a [`FelaConfig`], this module materialises the
//! *entire* dependency DAG of a run — every training token and every
//! weight-update commit for every iteration — without executing anything, and
//! checks the invariants Fela's correctness argument rests on:
//!
//! 1. **Acyclicity** — the schedule admits a topological order at all.
//! 2. **Coverage** — every `(sub-model, micro-batch)` pair of every iteration is
//!    trained by exactly one token: no sample trained twice, none dropped.
//! 3. **Dependency completeness** — every non-root token consumes exactly the
//!    `gen_ratio` outputs of the level below that cover its sample rows.
//! 4. **Gradient dominance** — every weight update is reachable from *all* of
//!    its level's gradient tokens (no update commits with a gradient missing).
//! 5. **BSP barrier closure** — no token of iteration `k + 1 + staleness` can be
//!    ordered before iteration `k`'s update of its own level commits.
//! 6. **No time travel** — no edge points from a later iteration into an earlier
//!    one.
//! 7. **CTD subset validity** — the conditional subset is a nonempty power of
//!    two no larger than the cluster.
//! 8. **HF bucket partition** — root tokens' sample affinities partition the
//!    root set across workers with no overlap and no gap.
//!
//! Each violated invariant yields a distinct [`DagViolation`] variant, so the
//! mutation tests can assert *which* diagnostic a seeded corruption triggers.

use std::collections::{BTreeMap, BTreeSet};

use fela_core::{FelaConfig, TokenPlan};

/// A node of the schedule DAG.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DagNode {
    /// Training token `seq` of `level` in `iteration`.
    Train {
        /// Sub-model level.
        level: usize,
        /// BSP iteration.
        iteration: u64,
        /// Token sequence number within the level and iteration.
        seq: u64,
    },
    /// The weight-update commit of `level` in `iteration` (the sync).
    Update {
        /// Sub-model level.
        level: usize,
        /// BSP iteration.
        iteration: u64,
    },
}

impl DagNode {
    /// The iteration the node belongs to.
    pub fn iteration(&self) -> u64 {
        match *self {
            DagNode::Train { iteration, .. } | DagNode::Update { iteration, .. } => iteration,
        }
    }
}

impl std::fmt::Display for DagNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DagNode::Train {
                level,
                iteration,
                seq,
            } => write!(f, "train(level {level}, iter {iteration}, seq {seq})"),
            DagNode::Update { level, iteration } => {
                write!(f, "update(level {level}, iter {iteration})")
            }
        }
    }
}

/// A violated schedule invariant. Every variant is a distinct diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DagViolation {
    /// The DAG contains a cycle through the named node.
    Cycle {
        /// A node on the cycle.
        node: DagNode,
    },
    /// A `(level, iteration, seq)` micro-batch has no training token.
    CoverageGap {
        /// Sub-model level.
        level: usize,
        /// Iteration.
        iteration: u64,
        /// Missing sequence number.
        seq: u64,
    },
    /// A `(level, iteration, seq)` micro-batch is trained by more than one token.
    DuplicateToken {
        /// Sub-model level.
        level: usize,
        /// Iteration.
        iteration: u64,
        /// Duplicated sequence number.
        seq: u64,
    },
    /// A non-root token lacks (or has extra) dependencies on the level below.
    MissingDependency {
        /// Sub-model level of the under-fed token.
        level: usize,
        /// Iteration.
        iteration: u64,
        /// Its sequence number.
        seq: u64,
        /// Dependencies the plan requires.
        expected: usize,
        /// Dependencies present in the DAG.
        found: usize,
    },
    /// A weight update is not reachable from every gradient token of its level.
    GradientDominance {
        /// Sub-model level of the update.
        level: usize,
        /// Iteration.
        iteration: u64,
        /// Gradient tokens with no path to the update.
        missing: usize,
    },
    /// A token of iteration `k + 1 + staleness` is orderable before iteration
    /// `k`'s update of its level commits.
    BarrierViolation {
        /// Sub-model level.
        level: usize,
        /// Iteration of the unprotected token.
        iteration: u64,
        /// Its sequence number.
        seq: u64,
    },
    /// An edge points from a later iteration into an earlier one.
    CrossIterationEdge {
        /// Edge source.
        from: DagNode,
        /// Edge target (earlier iteration).
        to: DagNode,
    },
    /// The CTD subset is invalid for the cluster.
    CtdInvalid {
        /// Configured subset size.
        subset: usize,
        /// Cluster size.
        n_workers: usize,
    },
    /// Root sample affinities do not partition the root tokens across STBs.
    HfPartitionViolation {
        /// Root sequence number with the wrong owner.
        seq: u64,
        /// Owner found.
        owner: usize,
        /// Owner the round-robin partition requires.
        expected: usize,
    },
}

impl std::fmt::Display for DagViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagViolation::Cycle { node } => write!(f, "dependency cycle through {node}"),
            DagViolation::CoverageGap {
                level,
                iteration,
                seq,
            } => write!(
                f,
                "no token trains micro-batch {seq} of level {level} in iteration {iteration}"
            ),
            DagViolation::DuplicateToken {
                level,
                iteration,
                seq,
            } => write!(
                f,
                "micro-batch {seq} of level {level} iteration {iteration} is trained by more than one token"
            ),
            DagViolation::MissingDependency {
                level,
                iteration,
                seq,
                expected,
                found,
            } => write!(
                f,
                "token (level {level}, iter {iteration}, seq {seq}) has {found} dependencies, plan requires {expected}"
            ),
            DagViolation::GradientDominance {
                level,
                iteration,
                missing,
            } => write!(
                f,
                "update (level {level}, iter {iteration}) misses {missing} gradient token(s)"
            ),
            DagViolation::BarrierViolation {
                level,
                iteration,
                seq,
            } => write!(
                f,
                "token (level {level}, iter {iteration}, seq {seq}) not gated on its level's prior update"
            ),
            DagViolation::CrossIterationEdge { from, to } => {
                write!(f, "edge from {from} back into {to}")
            }
            DagViolation::CtdInvalid { subset, n_workers } => {
                write!(f, "CTD subset {subset} invalid for {n_workers} workers")
            }
            DagViolation::HfPartitionViolation {
                seq,
                owner,
                expected,
            } => write!(
                f,
                "root token {seq} assigned to STB {owner}, round-robin partition requires {expected}"
            ),
        }
    }
}

/// A seeded corruption for mutation-testing the verifier.
#[derive(Clone, Copy, Debug)]
pub enum Mutation {
    /// Remove one inter-level dependency edge (→ [`DagViolation::MissingDependency`]).
    DropDependencyEdge {
        /// Picks which edge, deterministically.
        seed: u64,
    },
    /// Duplicate one training token (→ [`DagViolation::DuplicateToken`]).
    DuplicateToken {
        /// Picks which token, deterministically.
        seed: u64,
    },
    /// Add an edge from a later iteration into an earlier one
    /// (→ [`DagViolation::CrossIterationEdge`]).
    CrossIterationEdge {
        /// Picks which pair, deterministically.
        seed: u64,
    },
}

/// Statistics of a successfully verified DAG.
#[derive(Clone, Copy, Debug)]
pub struct DagSummary {
    /// Total nodes (training tokens + updates).
    pub nodes: usize,
    /// Total dependency edges.
    pub edges: usize,
    /// Training tokens.
    pub train_tokens: usize,
    /// Weight-update commits.
    pub updates: usize,
}

/// The materialised schedule DAG of a whole run.
pub struct ScheduleDag {
    plan: TokenPlan,
    cfg: FelaConfig,
    n_workers: usize,
    iterations: u64,
    nodes: Vec<DagNode>,
    /// Adjacency list: `edges[from]` → targets. Parallel to `nodes`.
    edges: Vec<Vec<usize>>,
    /// Root STB owners: `root_owner[seq]` for iteration-independent affinity.
    root_owner: Vec<usize>,
}

impl ScheduleDag {
    /// Builds the full dependency DAG for `iterations` BSP iterations of `plan`
    /// under `cfg`, as the Token Server would generate it:
    ///
    /// * train → train edges follow the generation grouping (each level-`l`
    ///   token `j` consumes level-`l−1` tokens `j·ratio .. (j+1)·ratio`);
    /// * every train token of a level feeds that level's update;
    /// * each level's update of iteration `k` gates the level's tokens of
    ///   iteration `k + 1 + staleness` (the BSP/SSP barrier).
    pub fn build(plan: &TokenPlan, cfg: &FelaConfig, n_workers: usize, iterations: u64) -> Self {
        let mut dag = ScheduleDag {
            plan: plan.clone(),
            cfg: cfg.clone(),
            n_workers,
            iterations,
            nodes: Vec::new(),
            edges: Vec::new(),
            root_owner: (0..plan.levels[0].tokens_per_iteration)
                .map(|seq| (seq % n_workers as u64) as usize)
                .collect(),
        };
        let mut index: BTreeMap<DagNode, usize> = BTreeMap::new();
        for k in 0..iterations {
            for lp in &plan.levels {
                for seq in 0..lp.tokens_per_iteration {
                    let node = DagNode::Train {
                        level: lp.level,
                        iteration: k,
                        seq,
                    };
                    index.insert(node, dag.push_node(node));
                }
                let node = DagNode::Update {
                    level: lp.level,
                    iteration: k,
                };
                index.insert(node, dag.push_node(node));
            }
        }
        for k in 0..iterations {
            for lp in &plan.levels {
                let update = index[&DagNode::Update {
                    level: lp.level,
                    iteration: k,
                }];
                for seq in 0..lp.tokens_per_iteration {
                    let me = index[&DagNode::Train {
                        level: lp.level,
                        iteration: k,
                        seq,
                    }];
                    // Generation-group dependencies on the level below.
                    if lp.level > 0 {
                        let ratio = lp.gen_ratio;
                        for r in 0..ratio {
                            let dep = index[&DagNode::Train {
                                level: lp.level - 1,
                                iteration: k,
                                seq: seq * ratio + r,
                            }];
                            dag.edges[dep].push(me);
                        }
                    }
                    // Gradient dominance: every token feeds its level's update.
                    dag.edges[me].push(update);
                    // Barrier: the level's earlier update gates this token.
                    if k > cfg.staleness {
                        let gate = index[&DagNode::Update {
                            level: lp.level,
                            iteration: k - 1 - cfg.staleness,
                        }];
                        dag.edges[gate].push(me);
                    }
                }
            }
        }
        dag
    }

    fn push_node(&mut self, node: DagNode) -> usize {
        self.nodes.push(node);
        self.edges.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Nodes of the DAG (includes duplicates after a
    /// [`Mutation::DuplicateToken`]).
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// Total edge count.
    fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Applies a seeded corruption (for mutation-testing the verifier).
    pub fn mutate(&mut self, mutation: Mutation) {
        match mutation {
            Mutation::DropDependencyEdge { seed } => {
                // Collect train→train edges and drop the seed-picked one.
                let mut candidates = Vec::new();
                for (from, outs) in self.edges.iter().enumerate() {
                    if !matches!(self.nodes[from], DagNode::Train { .. }) {
                        continue;
                    }
                    for (slot, &to) in outs.iter().enumerate() {
                        if matches!(self.nodes[to], DagNode::Train { .. }) {
                            candidates.push((from, slot));
                        }
                    }
                }
                if candidates.is_empty() {
                    return;
                }
                let (from, slot) = candidates[(seed as usize) % candidates.len()];
                self.edges[from].remove(slot);
            }
            Mutation::DuplicateToken { seed } => {
                let trains: Vec<usize> = (0..self.nodes.len())
                    .filter(|&i| matches!(self.nodes[i], DagNode::Train { .. }))
                    .collect();
                if trains.is_empty() {
                    return;
                }
                let victim = trains[(seed as usize) % trains.len()];
                let node = self.nodes[victim];
                let copy = self.push_node(node);
                // The double-trained micro-batch feeds the same update twice.
                if let DagNode::Train {
                    level, iteration, ..
                } = node
                {
                    if let Some(update) = self.find_node(DagNode::Update { level, iteration }) {
                        self.edges[copy].push(update);
                    }
                }
            }
            Mutation::CrossIterationEdge { seed } => {
                if self.iterations < 2 {
                    return;
                }
                // An edge from some iteration-(k+1) token back into iteration k.
                let late: Vec<usize> = (0..self.nodes.len())
                    .filter(|&i| {
                        matches!(self.nodes[i], DagNode::Train { iteration, .. } if iteration > 0)
                    })
                    .collect();
                if late.is_empty() {
                    return;
                }
                let from = late[(seed as usize) % late.len()];
                let k = self.nodes[from].iteration() - 1;
                let Some(to) = self.find_node(DagNode::Train {
                    level: 0,
                    iteration: k,
                    seq: 0,
                }) else {
                    return;
                };
                self.edges[from].push(to);
            }
        }
    }

    fn find_node(&self, node: DagNode) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// Checks every invariant; returns the summary or all violations found.
    pub fn verify(&self) -> Result<DagSummary, Vec<DagViolation>> {
        let mut violations = Vec::new();
        self.check_config(&mut violations);
        self.check_coverage(&mut violations);
        self.check_dependencies(&mut violations);
        self.check_cross_iteration(&mut violations);
        self.check_gradient_dominance(&mut violations);
        self.check_barrier(&mut violations);
        self.check_acyclic(&mut violations);
        self.check_hf_partition(&mut violations);
        if violations.is_empty() {
            Ok(DagSummary {
                nodes: self.nodes.len(),
                edges: self.edge_count(),
                train_tokens: self
                    .nodes
                    .iter()
                    .filter(|n| matches!(n, DagNode::Train { .. }))
                    .count(),
                updates: self
                    .nodes
                    .iter()
                    .filter(|n| matches!(n, DagNode::Update { .. }))
                    .count(),
            })
        } else {
            Err(violations)
        }
    }

    fn check_config(&self, out: &mut Vec<DagViolation>) {
        if let Some(ctd) = self.cfg.ctd {
            let s = ctd.subset_size;
            if s == 0 || s > self.n_workers || !s.is_power_of_two() {
                out.push(DagViolation::CtdInvalid {
                    subset: s,
                    n_workers: self.n_workers,
                });
            }
        }
    }

    fn check_coverage(&self, out: &mut Vec<DagViolation>) {
        let mut counts: BTreeMap<(usize, u64, u64), usize> = BTreeMap::new();
        for node in &self.nodes {
            if let DagNode::Train {
                level,
                iteration,
                seq,
            } = *node
            {
                *counts.entry((level, iteration, seq)).or_insert(0) += 1;
            }
        }
        for k in 0..self.iterations {
            for lp in &self.plan.levels {
                for seq in 0..lp.tokens_per_iteration {
                    match counts.get(&(lp.level, k, seq)).copied().unwrap_or(0) {
                        0 => out.push(DagViolation::CoverageGap {
                            level: lp.level,
                            iteration: k,
                            seq,
                        }),
                        1 => {}
                        _ => out.push(DagViolation::DuplicateToken {
                            level: lp.level,
                            iteration: k,
                            seq,
                        }),
                    }
                }
            }
        }
    }

    fn check_dependencies(&self, out: &mut Vec<DagViolation>) {
        // Count train→train in-edges per *first* occurrence of each token key
        // (duplicates are already reported by coverage).
        let mut indeg: BTreeMap<(usize, u64, u64), usize> = BTreeMap::new();
        for (from, outs) in self.edges.iter().enumerate() {
            if !matches!(self.nodes[from], DagNode::Train { .. }) {
                continue;
            }
            for &to in outs {
                if let DagNode::Train {
                    level,
                    iteration,
                    seq,
                } = self.nodes[to]
                {
                    *indeg.entry((level, iteration, seq)).or_insert(0) += 1;
                }
            }
        }
        for k in 0..self.iterations {
            for lp in &self.plan.levels {
                if lp.level == 0 {
                    continue;
                }
                let expected = lp.gen_ratio as usize;
                for seq in 0..lp.tokens_per_iteration {
                    let found = indeg.get(&(lp.level, k, seq)).copied().unwrap_or(0);
                    if found != expected {
                        out.push(DagViolation::MissingDependency {
                            level: lp.level,
                            iteration: k,
                            seq,
                            expected,
                            found,
                        });
                    }
                }
            }
        }
    }

    fn check_cross_iteration(&self, out: &mut Vec<DagViolation>) {
        for (from, outs) in self.edges.iter().enumerate() {
            for &to in outs {
                if self.nodes[from].iteration() > self.nodes[to].iteration() {
                    out.push(DagViolation::CrossIterationEdge {
                        from: self.nodes[from],
                        to: self.nodes[to],
                    });
                }
            }
        }
    }

    fn check_gradient_dominance(&self, out: &mut Vec<DagViolation>) {
        // Direct-edge check: every train token of (level, k) must have an edge to
        // Update(level, k). Reachability through longer paths does not count —
        // the commit consumes the gradient itself, not a derivative of it.
        let mut feeds: BTreeMap<(usize, u64), BTreeSet<u64>> = BTreeMap::new();
        for (from, outs) in self.edges.iter().enumerate() {
            let DagNode::Train {
                level,
                iteration,
                seq,
            } = self.nodes[from]
            else {
                continue;
            };
            for &to in outs {
                if self.nodes[to] == (DagNode::Update { level, iteration }) {
                    feeds.entry((level, iteration)).or_default().insert(seq);
                }
            }
        }
        for k in 0..self.iterations {
            for lp in &self.plan.levels {
                let have = feeds.get(&(lp.level, k)).map(BTreeSet::len).unwrap_or(0);
                let need = lp.tokens_per_iteration as usize;
                if have < need {
                    out.push(DagViolation::GradientDominance {
                        level: lp.level,
                        iteration: k,
                        missing: need - have,
                    });
                }
            }
        }
    }

    fn check_barrier(&self, out: &mut Vec<DagViolation>) {
        // Every token of iteration k ≥ 1 + staleness needs an incoming edge from
        // its level's iteration-(k − 1 − staleness) update.
        let mut gated: BTreeSet<(usize, u64, u64)> = BTreeSet::new();
        for (from, outs) in self.edges.iter().enumerate() {
            let DagNode::Update {
                level: ul,
                iteration: uk,
            } = self.nodes[from]
            else {
                continue;
            };
            for &to in outs {
                if let DagNode::Train {
                    level,
                    iteration,
                    seq,
                } = self.nodes[to]
                {
                    if level == ul && iteration == uk + 1 + self.cfg.staleness {
                        gated.insert((level, iteration, seq));
                    }
                }
            }
        }
        for k in (1 + self.cfg.staleness)..self.iterations {
            for lp in &self.plan.levels {
                for seq in 0..lp.tokens_per_iteration {
                    if !gated.contains(&(lp.level, k, seq)) {
                        out.push(DagViolation::BarrierViolation {
                            level: lp.level,
                            iteration: k,
                            seq,
                        });
                    }
                }
            }
        }
    }

    fn check_acyclic(&self, out: &mut Vec<DagViolation>) {
        // Kahn's algorithm; any node never drained sits on (or behind) a cycle.
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for outs in &self.edges {
            for &to in outs {
                indeg[to] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut drained = 0usize;
        while let Some(i) = queue.pop() {
            drained += 1;
            for &to in &self.edges[i] {
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    queue.push(to);
                }
            }
        }
        if drained < n {
            if let Some(i) = (0..n).find(|&i| indeg[i] > 0) {
                out.push(DagViolation::Cycle {
                    node: self.nodes[i],
                });
            }
        }
    }

    fn check_hf_partition(&self, out: &mut Vec<DagViolation>) {
        // Sample affinity must be the round-robin partition (every root token in
        // exactly one worker's STB, load spread evenly).
        for (seq, &owner) in self.root_owner.iter().enumerate() {
            let expected = seq % self.n_workers;
            if owner != expected {
                out.push(DagViolation::HfPartitionViolation {
                    seq: seq as u64,
                    owner,
                    expected,
                });
            }
        }
    }

    /// Checks that `order` — `(level, iteration, seq)` in observed completion
    /// order — is a linearization consistent with the DAG's train→train edges.
    /// Ties the state-space explorer's engine check back to the static DAG.
    pub fn accepts_linearization(&self, order: &[(usize, u64, u64)]) -> Result<(), DagViolation> {
        let pos: BTreeMap<(usize, u64, u64), usize> =
            order.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        for (from, outs) in self.edges.iter().enumerate() {
            let DagNode::Train {
                level: fl,
                iteration: fk,
                seq: fs,
            } = self.nodes[from]
            else {
                continue;
            };
            for &to in outs {
                let DagNode::Train {
                    level: tl,
                    iteration: tk,
                    seq: ts,
                } = self.nodes[to]
                else {
                    continue;
                };
                if let (Some(&pf), Some(&pt)) = (pos.get(&(fl, fk, fs)), pos.get(&(tl, tk, ts))) {
                    if pf >= pt {
                        return Err(DagViolation::CrossIterationEdge {
                            from: self.nodes[from],
                            to: self.nodes[to],
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};

    fn vgg_dag(iters: u64) -> ScheduleDag {
        let p = bin_partition(
            &zoo::vgg19(),
            &ThresholdProfile::k40c(),
            PartitionOptions::default(),
        );
        let cfg = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
        let plan = TokenPlan::build(&p, &cfg, 128, 8).unwrap();
        ScheduleDag::build(&plan, &cfg, 8, iters)
    }

    #[test]
    fn clean_dag_verifies() {
        let dag = vgg_dag(3);
        let summary = dag.verify().unwrap();
        // 14 train tokens + 3 updates per iteration × 3 iterations.
        assert_eq!(summary.train_tokens, 14 * 3);
        assert_eq!(summary.updates, 3 * 3);
        assert_eq!(summary.nodes, 17 * 3);
        assert!(summary.edges > 0);
    }

    #[test]
    fn dropped_dependency_is_diagnosed() {
        for seed in [0u64, 3, 17, 2024] {
            let mut dag = vgg_dag(2);
            dag.mutate(Mutation::DropDependencyEdge { seed });
            let violations = dag.verify().unwrap_err();
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, DagViolation::MissingDependency { .. })),
                "seed {seed}: {violations:?}"
            );
        }
    }

    #[test]
    fn duplicated_token_is_diagnosed() {
        for seed in [0u64, 5, 101] {
            let mut dag = vgg_dag(2);
            dag.mutate(Mutation::DuplicateToken { seed });
            let violations = dag.verify().unwrap_err();
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, DagViolation::DuplicateToken { .. })),
                "seed {seed}: {violations:?}"
            );
        }
    }

    #[test]
    fn cross_iteration_edge_is_diagnosed() {
        for seed in [0u64, 9, 77] {
            let mut dag = vgg_dag(2);
            dag.mutate(Mutation::CrossIterationEdge { seed });
            let violations = dag.verify().unwrap_err();
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, DagViolation::CrossIterationEdge { .. })),
                "seed {seed}: {violations:?}"
            );
        }
    }

    #[test]
    fn mutations_yield_distinct_diagnostics() {
        let kinds: Vec<&'static str> = [
            Mutation::DropDependencyEdge { seed: 1 },
            Mutation::DuplicateToken { seed: 1 },
            Mutation::CrossIterationEdge { seed: 1 },
        ]
        .into_iter()
        .map(|m| {
            let mut dag = vgg_dag(2);
            dag.mutate(m);
            let violations = dag.verify().unwrap_err();
            match violations.first() {
                Some(DagViolation::MissingDependency { .. }) => "missing-dep",
                Some(DagViolation::DuplicateToken { .. }) => "duplicate",
                Some(DagViolation::CrossIterationEdge { .. }) => "cross-iter",
                other => panic!("unexpected first violation {other:?}"),
            }
        })
        .collect();
        assert_eq!(kinds, vec!["missing-dep", "duplicate", "cross-iter"]);
    }

    #[test]
    fn invalid_ctd_is_diagnosed() {
        let p = bin_partition(
            &zoo::vgg19(),
            &ThresholdProfile::k40c(),
            PartitionOptions::default(),
        );
        let good = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
        let plan = TokenPlan::build(&p, &good, 128, 8).unwrap();
        // Bypass FelaConfig::validate (which would panic) by setting the field.
        let mut bad = good.clone();
        bad.ctd = Some(fela_core::CtdConfig { subset_size: 3 });
        let dag = ScheduleDag::build(&plan, &bad, 8, 1);
        let violations = dag.verify().unwrap_err();
        assert!(matches!(
            violations[0],
            DagViolation::CtdInvalid {
                subset: 3,
                n_workers: 8
            }
        ));
    }

    #[test]
    fn staleness_shifts_the_barrier() {
        let p = bin_partition(
            &zoo::vgg19(),
            &ThresholdProfile::k40c(),
            PartitionOptions::default(),
        );
        let cfg = FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_staleness(1);
        let plan = TokenPlan::build(&p, &cfg, 128, 8).unwrap();
        let dag = ScheduleDag::build(&plan, &cfg, 8, 4);
        dag.verify().unwrap();
    }

    #[test]
    fn linearization_checking() {
        let dag = vgg_dag(1);
        // Roots first, then generated levels in seq order — a valid order.
        let mut order = Vec::new();
        for level in 0..3usize {
            let n = dag.plan.levels[level].tokens_per_iteration;
            for seq in 0..n {
                order.push((level, 0u64, seq));
            }
        }
        dag.accepts_linearization(&order).unwrap();
        // Swap a dependent before its dependency.
        let bad: Vec<_> = order.iter().rev().copied().collect();
        assert!(dag.accepts_linearization(&bad).is_err());
    }
}
