//! Max–min fair bandwidth allocation (progressive filling / water-filling).
//!
//! The cluster is a star: every node has one egress link and one ingress link of
//! fixed capacity into a non-blocking switch (the paper's 8 nodes on a 40GE switch
//! with 10 Gbps NICs — the switch fabric is never the bottleneck, the NICs are).
//! A flow consumes its source's egress and its destination's ingress; rates are the
//! classic max–min fair allocation:
//!
//! 1. every unfrozen flow grows at the same rate;
//! 2. when a link fills, all flows through it freeze at their current rate;
//! 3. repeat until all flows are frozen.
//!
//! Two entry points share one arithmetic core ([`progressive_fill`]):
//!
//! * [`max_min_rates`] — the stateless oracle: the standard iterative
//!   bottleneck-link algorithm over the whole flow set, O(L·F) worst case, with
//!   deterministic tie-breaking (lowest link index first).
//! * [`IncrementalMaxMin`] — the incremental engine the [`crate::Network`] hot
//!   path uses: it keeps per-link flow sets, and on each change recomputes rates
//!   only for the *connected components* of the link-sharing graph the changed
//!   flows touch. Flows in other components keep their cached rates. Changes come
//!   in batches — [`IncrementalMaxMin::insert_batch`] for the flows that start at
//!   one instant (a ring round), [`IncrementalMaxMin::remove_batch`] for a
//!   completion wave — and one batch costs one recomputation, which solves each
//!   touched component on its own rather than their union.
//!
//! ## Why the incremental engine is bit-identical to the oracle
//!
//! Progressive filling decomposes over connected components of the link-sharing
//! graph (links are vertices, flows are edges): a round that freezes component
//! `C`'s bottleneck only subtracts rates from `C`'s links and only decrements
//! `C`'s active counters, so the share sequence observed inside `C` is exactly the
//! share sequence of running the algorithm on `C` alone. The oracle's global
//! bottleneck choice merely *interleaves* the per-component sequences; within a
//! component, both the bottleneck order (ascending link id among minimal shares)
//! and the freeze-loop subtraction order (ascending flow key) are identical. Since
//! every floating-point operation sees the same operands in the same order, the
//! computed rates are bit-identical — the property the simulator's byte-identical
//! artifact gate rests on, and which `tests/tests/properties.rs` property-tests
//! over random flow churn.

use std::collections::{BTreeMap, BTreeSet};

/// A flow's endpoints for allocation purposes, as link indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowLinks {
    /// Egress link index of the source node.
    pub egress: usize,
    /// Ingress link index of the destination node.
    pub ingress: usize,
}

/// Relative floor applied when a bottleneck's fair share degenerates to zero
/// (possible only through floating-point underflow — e.g. a subnormal capacity
/// whose halves round to 0.0, or an epsilon-negative residual clamped to zero).
/// Freezing a flow at rate 0 would surface upstream as an *infinite* transfer
/// time, deadlocking the simulation; a strictly positive floor keeps the
/// transfer astronomically slow but finite, and keeps the "every flow makes
/// progress" invariant assertable.
const RATE_FLOOR_REL: f64 = 1e-12;

fn positive_rate_floor(bottleneck_cap: f64) -> f64 {
    (bottleneck_cap * RATE_FLOOR_REL).max(f64::MIN_POSITIVE)
}

#[derive(Clone, Copy, Debug)]
struct LinkState {
    residual: f64,
    active: usize,
}

/// The shared water-filling core. `comp_links` are the participating link ids in
/// ascending order; `flows` are `(egress link id, ingress link id)` pairs in
/// canonical (ascending-key) order, both id spaces already unified. Returns one
/// strictly positive rate per flow, in input order.
///
/// Determinism contract: the bottleneck scan walks `comp_links` ascending and the
/// freeze loop walks `flows` in input order, so every caller that presents the
/// same component in the same canonical order gets bit-identical rates.
fn progressive_fill(
    link_cap: impl Fn(usize) -> f64,
    comp_links: &[usize],
    flows: &[(usize, usize)],
) -> Vec<f64> {
    // Dense state indexed by position in `comp_links`; since the slice is sorted
    // ascending, walking positions 0..L preserves the ascending-link-id scan the
    // determinism contract requires. Flow link ids are resolved to positions once
    // up front (binary search over the sorted slice).
    let mut state: Vec<LinkState> = comp_links
        .iter()
        .map(|&l| LinkState {
            residual: link_cap(l),
            active: 0,
        })
        .collect();
    // `comp_links` is usually contiguous (the oracle passes 0..n_links; dense
    // components too) — then position is a subtraction, no binary search.
    let first = comp_links.first().copied().unwrap_or(0);
    let contiguous = comp_links
        .last()
        .map_or(true, |&l| l - first + 1 == comp_links.len());
    let pos_of = |l: usize| -> usize {
        if contiguous {
            if l >= first && l - first < comp_links.len() {
                return l - first;
            }
        } else if let Ok(p) = comp_links.binary_search(&l) {
            return p;
        }
        panic!("flow references link {l} outside the component link set");
    };
    let flow_pos: Vec<(usize, usize)> =
        flows.iter().map(|&(e, g)| (pos_of(e), pos_of(g))).collect();
    for &(pe, pg) in &flow_pos {
        state[pe].active += 1;
        state[pg].active += 1;
    }

    let mut rates = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut remaining = flows.len();
    while remaining > 0 {
        // Find the bottleneck link: smallest fair share among links with active
        // flows; ties resolved by lowest link index for determinism.
        let mut bottleneck = None;
        let mut best_share = f64::INFINITY;
        for (p, st) in state.iter().enumerate() {
            if st.active > 0 {
                let share = st.residual / st.active as f64;
                if share < best_share {
                    best_share = share;
                    bottleneck = Some(p);
                }
            }
        }
        let Some(bottleneck) = bottleneck else {
            panic!("max-min fair share: {remaining} unfrozen flows but no active link");
        };
        let rate = if best_share > 0.0 {
            best_share
        } else {
            positive_rate_floor(link_cap(comp_links[bottleneck]))
        };
        // Freeze every flow through the bottleneck at the fair share.
        for (i, &(pe, pg)) in flow_pos.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            if pe == bottleneck || pg == bottleneck {
                rates[i] = rate;
                frozen[i] = true;
                remaining -= 1;
                // Release capacity on the flow's links.
                for p in [pe, pg] {
                    state[p].residual -= rate;
                    state[p].active -= 1;
                }
            }
        }
        // Numerical hygiene: residuals can dip epsilon-negative.
        for st in &mut state {
            if st.residual < 0.0 {
                st.residual = 0.0;
            }
        }
    }
    for (i, r) in rates.iter().enumerate() {
        assert!(*r > 0.0, "flow {i} froze at a non-positive rate {r}");
    }
    rates
}

/// Computes max–min fair rates (the stateless oracle).
///
/// `egress_cap[i]` / `ingress_cap[i]` are link capacities in bytes/second; each
/// flow `f` uses `egress_cap[f.egress]` and `ingress_cap[f.ingress]`. Returns one
/// rate per flow, in input order; every returned rate is strictly positive.
///
/// # Panics
/// Panics if any referenced link index is out of bounds or any capacity is
/// non-positive.
pub fn max_min_rates(egress_cap: &[f64], ingress_cap: &[f64], flows: &[FlowLinks]) -> Vec<f64> {
    assert!(
        egress_cap.iter().chain(ingress_cap).all(|&c| c > 0.0),
        "link capacities must be positive"
    );
    let ne = egress_cap.len();
    let n_links = ne + ingress_cap.len();
    // Link id space: [0, ne) egress, [ne, ne+ni) ingress.
    let link_cap = |l: usize| {
        if l < ne {
            egress_cap[l]
        } else {
            ingress_cap[l - ne]
        }
    };
    for f in flows {
        assert!(f.egress < ne, "egress link {} out of bounds", f.egress);
        assert!(
            f.ingress < ingress_cap.len(),
            "ingress link {} out of bounds",
            f.ingress
        );
    }
    let all_links: Vec<usize> = (0..n_links).collect();
    let pairs: Vec<(usize, usize)> = flows.iter().map(|f| (f.egress, ne + f.ingress)).collect();
    progressive_fill(link_cap, &all_links, &pairs)
}

/// The incremental max–min fair-share engine.
///
/// Holds the active flow set keyed by a caller-chosen `u64` (the simulator uses
/// the raw `FlowId`, whose ascending order is exactly the oracle's input order)
/// and keeps every flow's current rate cached. [`IncrementalMaxMin::insert_batch`]
/// and [`IncrementalMaxMin::remove_batch`] (with their one-flow wrappers
/// [`IncrementalMaxMin::insert`] and [`IncrementalMaxMin::remove`]) recompute
/// rates only for the affected connected components of the link-sharing graph,
/// one component at a time — O(component) instead of O(L·F) — while staying
/// bit-identical to [`max_min_rates`] over the full set (see the module docs for
/// the argument).
#[derive(Clone, Debug)]
pub struct IncrementalMaxMin {
    egress_cap: Vec<f64>,
    ingress_cap: Vec<f64>,
    /// Active flows by key; ascending key order is the canonical oracle order.
    flows: BTreeMap<u64, FlowLinks>,
    /// `link_flows[l]` — keys of the flows using link `l` (unified id space).
    link_flows: Vec<BTreeSet<u64>>,
    /// Cached rate per flow, maintained by the component recomputations.
    rates: BTreeMap<u64, f64>,
}

impl IncrementalMaxMin {
    /// Creates an engine over the given link capacities (bytes/second).
    ///
    /// # Panics
    /// Panics if any capacity is non-positive.
    pub fn new(egress_cap: Vec<f64>, ingress_cap: Vec<f64>) -> Self {
        assert!(
            egress_cap.iter().chain(&ingress_cap).all(|&c| c > 0.0),
            "link capacities must be positive"
        );
        let n_links = egress_cap.len() + ingress_cap.len();
        IncrementalMaxMin {
            egress_cap,
            ingress_cap,
            flows: BTreeMap::new(),
            link_flows: vec![BTreeSet::new(); n_links],
            rates: BTreeMap::new(),
        }
    }

    fn link_cap(&self, l: usize) -> f64 {
        let ne = self.egress_cap.len();
        if l < ne {
            self.egress_cap[l]
        } else {
            self.ingress_cap[l - ne]
        }
    }

    /// Unified link ids of a flow: `(egress, ne + ingress)`.
    fn link_ids(&self, f: FlowLinks) -> (usize, usize) {
        (f.egress, self.egress_cap.len() + f.ingress)
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if no flows are active.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The cached rate of an active flow.
    ///
    /// # Panics
    /// Panics if `key` is not an active flow.
    pub fn rate(&self, key: u64) -> f64 {
        match self.rates.get(&key) {
            Some(&r) => r,
            None => panic!("rate queried for unknown flow key {key}"),
        }
    }

    /// Active flow keys and rates in ascending key order (oracle order).
    pub fn rates(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.rates.iter().map(|(&k, &r)| (k, r))
    }

    /// Adds a flow and recomputes its connected component's rates.
    ///
    /// # Panics
    /// Panics if `key` is already active or a link index is out of bounds.
    pub fn insert(&mut self, key: u64, links: FlowLinks) {
        self.insert_batch(&[(key, links)]);
    }

    /// Adds several flows at once, then recomputes every component they touch
    /// in a single pass (a ring round starts all its flows at one instant — one
    /// recomputation covers them all). Inserts only merge components, so each
    /// flow ends with the rate of its final component whether the flows arrive
    /// one at a time or in one batch.
    ///
    /// # Panics
    /// Panics if any key is already active or a link index is out of bounds.
    pub fn insert_batch(&mut self, batch: &[(u64, FlowLinks)]) {
        let mut seeds = Vec::with_capacity(batch.len() * 2);
        for &(key, links) in batch {
            assert!(
                links.egress < self.egress_cap.len(),
                "egress link {} out of bounds",
                links.egress
            );
            assert!(
                links.ingress < self.ingress_cap.len(),
                "ingress link {} out of bounds",
                links.ingress
            );
            assert!(
                self.flows.insert(key, links).is_none(),
                "flow key {key} inserted twice"
            );
            let (e, g) = self.link_ids(links);
            self.link_flows[e].insert(key);
            self.link_flows[g].insert(key);
            seeds.push(e);
            seeds.push(g);
        }
        self.recompute_from(seeds);
    }

    /// Removes a flow and recomputes its former component's rates.
    ///
    /// # Panics
    /// Panics if `key` is not an active flow.
    pub fn remove(&mut self, key: u64) {
        self.remove_batch(std::slice::from_ref(&key));
    }

    /// Removes several flows at once, then recomputes every affected component in
    /// a single pass (a completion wave retracts many flows whose components
    /// overlap — one recomputation covers them all).
    ///
    /// # Panics
    /// Panics if any key is not an active flow.
    pub fn remove_batch(&mut self, keys: &[u64]) {
        let mut seeds = Vec::with_capacity(keys.len() * 2);
        for &key in keys {
            let Some(links) = self.flows.remove(&key) else {
                panic!("removal of unknown flow key {key}");
            };
            self.rates.remove(&key);
            let (e, g) = self.link_ids(links);
            self.link_flows[e].remove(&key);
            self.link_flows[g].remove(&key);
            seeds.push(e);
            seeds.push(g);
        }
        self.recompute_from(seeds);
    }

    /// Recomputes rates for the connected component(s) reachable from the seed
    /// links over the link-sharing graph (links are vertices; a flow connects its
    /// two links), running one water-filling pass per component. Solving each
    /// component alone is bit-identical to solving their union (the module-level
    /// decomposition argument) and costs O(Σ component²) instead of
    /// O((Σ component)²) — a ring round's K one-flow components are K trivial
    /// solves, not one K-bottleneck scan over 2K links.
    fn recompute_from(&mut self, seeds: impl IntoIterator<Item = usize>) {
        // Vec-based BFS over the link-sharing graph: a visited bitmap per link
        // and at-most-twice flow duplicates resolved by one sort+dedup — far
        // cheaper than set insertions when the component is large, and the final
        // ascending orders (links, then flow keys) are exactly what the
        // determinism contract of `progressive_fill` requires.
        let mut visited = vec![false; self.link_flows.len()];
        let mut links: Vec<usize> = Vec::new();
        let mut keys: Vec<u64> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for seed in seeds {
            if visited[seed] {
                continue;
            }
            links.clear();
            keys.clear();
            stack.push(seed);
            while let Some(l) = stack.pop() {
                if std::mem::replace(&mut visited[l], true) {
                    continue;
                }
                links.push(l);
                for &key in &self.link_flows[l] {
                    // Each flow is reached from at most its two links; the
                    // second visit is dropped by the dedup below.
                    keys.push(key);
                    let (e, g) = self.link_ids(self.flows[&key]);
                    stack.push(e);
                    stack.push(g);
                }
            }
            keys.sort_unstable();
            keys.dedup();
            if keys.is_empty() {
                continue;
            }
            // Links with no flows contribute nothing; keep only active ones plus
            // the seeds already collected (inactive links have active == 0 and
            // are never selected as bottleneck, exactly as in the oracle's full
            // scan).
            links.sort_unstable();
            let pairs: Vec<(usize, usize)> =
                keys.iter().map(|k| self.link_ids(self.flows[k])).collect();
            let rates = progressive_fill(|l| self.link_cap(l), &links, &pairs);
            for (&key, rate) in keys.iter().zip(rates) {
                self.rates.insert(key, rate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: f64 = 1e9;

    fn caps(n: usize) -> (Vec<f64>, Vec<f64>) {
        (vec![BW; n], vec![BW; n])
    }

    fn fl(e: usize, i: usize) -> FlowLinks {
        FlowLinks {
            egress: e,
            ingress: i,
        }
    }

    #[test]
    fn single_flow_gets_full_bandwidth() {
        let (e, i) = caps(2);
        let rates = max_min_rates(&e, &i, &[fl(0, 1)]);
        assert_eq!(rates, vec![BW]);
    }

    #[test]
    fn shared_egress_splits_evenly() {
        let (e, i) = caps(3);
        let rates = max_min_rates(&e, &i, &[fl(0, 1), fl(0, 2)]);
        assert!((rates[0] - BW / 2.0).abs() < 1.0);
        assert!((rates[1] - BW / 2.0).abs() < 1.0);
    }

    #[test]
    fn incast_splits_ingress() {
        // The HP baseline's FC hot-spot: 7 senders into 1 receiver.
        let (e, i) = caps(8);
        let flows: Vec<_> = (1..8).map(|s| fl(s, 0)).collect();
        let rates = max_min_rates(&e, &i, &flows);
        for r in rates {
            assert!((r - BW / 7.0).abs() < 1.0);
        }
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let (e, i) = caps(4);
        let rates = max_min_rates(&e, &i, &[fl(0, 1), fl(2, 3)]);
        assert_eq!(rates, vec![BW, BW]);
    }

    #[test]
    fn water_filling_respects_per_link_fairness() {
        // Flow A: 0→1 alone on egress 0. Flows B, C: 2→1 and 3→1. Ingress 1 carries
        // A, B, C → each gets BW/3; then egress 0, 2, 3 are slack.
        let (e, i) = caps(4);
        let rates = max_min_rates(&e, &i, &[fl(0, 1), fl(2, 1), fl(3, 1)]);
        for r in &rates {
            assert!((r - BW / 3.0).abs() < 1.0, "{rates:?}");
        }
    }

    #[test]
    fn unfrozen_flows_absorb_released_capacity() {
        // Two flows share egress 0; one of them is also squeezed at ingress 1 by
        // two other senders. Max-min: flow(0→1) frozen at BW/3 via ingress 1;
        // flow(0→2) then takes the rest of egress 0 = 2BW/3.
        let (e, i) = caps(4);
        let flows = [fl(0, 1), fl(0, 2), fl(2, 1), fl(3, 1)];
        let rates = max_min_rates(&e, &i, &flows);
        assert!((rates[0] - BW / 3.0).abs() < 1.0, "{rates:?}");
        assert!((rates[1] - 2.0 * BW / 3.0).abs() < 1.0, "{rates:?}");
        assert!((rates[2] - BW / 3.0).abs() < 1.0);
        assert!((rates[3] - BW / 3.0).abs() < 1.0);
    }

    #[test]
    fn total_link_load_never_exceeds_capacity() {
        let (e, i) = caps(5);
        // A messy pattern.
        let flows = [
            fl(0, 1),
            fl(0, 2),
            fl(0, 3),
            fl(1, 2),
            fl(2, 2),
            fl(3, 4),
            fl(4, 0),
            fl(1, 0),
        ];
        let rates = max_min_rates(&e, &i, &flows);
        let mut eg = [0.0; 5];
        let mut ing = [0.0; 5];
        for (f, r) in flows.iter().zip(&rates) {
            eg[f.egress] += r;
            ing[f.ingress] += r;
            assert!(*r > 0.0, "every flow gets a positive rate");
        }
        for l in 0..5 {
            assert!(eg[l] <= BW * 1.000001, "egress {l} over capacity");
            assert!(ing[l] <= BW * 1.000001, "ingress {l} over capacity");
        }
    }

    #[test]
    fn no_flows_no_rates() {
        let (e, i) = caps(2);
        assert!(max_min_rates(&e, &i, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacities must be positive")]
    fn zero_capacity_rejected() {
        max_min_rates(&[0.0], &[1.0], &[]);
    }

    #[test]
    fn asymmetric_capacities() {
        // Slow receiver bottlenecks the flow.
        let rates = max_min_rates(&[1e9, 1e9], &[1e8, 1e9], &[fl(1, 0)]);
        assert!((rates[0] - 1e8).abs() < 1.0);
    }

    /// Regression for the zero-rate freeze: a subnormal capacity shared by two
    /// flows produces a fair share of exactly 0.0 (5e-324 / 2 rounds to zero), so
    /// the old clamp-to-zero code froze both flows at rate 0 — an infinite
    /// transfer upstream. The relative-epsilon floor keeps every rate strictly
    /// positive (and `progressive_fill` now asserts it).
    #[test]
    fn subnormal_capacity_never_freezes_flows_at_zero() {
        let egress = vec![5e-324];
        let ingress = vec![1.0, 1.0];
        let flows = [fl(0, 0), fl(0, 1)];
        assert_eq!(
            5e-324f64 / 2.0,
            0.0,
            "the degenerate share this test forces"
        );
        let rates = max_min_rates(&egress, &ingress, &flows);
        for r in &rates {
            assert!(*r > 0.0, "zero-rate freeze regressed: {rates:?}");
            assert!(r.is_finite());
        }
    }

    // ---- IncrementalMaxMin ----

    fn oracle_of(engine: &IncrementalMaxMin) -> Vec<(u64, f64)> {
        let flows: Vec<FlowLinks> = engine.flows.values().copied().collect();
        let keys: Vec<u64> = engine.flows.keys().copied().collect();
        let rates = max_min_rates(&engine.egress_cap, &engine.ingress_cap, &flows);
        keys.into_iter().zip(rates).collect()
    }

    fn assert_matches_oracle(engine: &IncrementalMaxMin) {
        let expect = oracle_of(engine);
        let got: Vec<(u64, f64)> = engine.rates().collect();
        assert_eq!(got.len(), expect.len());
        for ((gk, gr), (ek, er)) in got.iter().zip(&expect) {
            assert_eq!(gk, ek);
            assert_eq!(
                gr.to_bits(),
                er.to_bits(),
                "rate mismatch for flow {gk}: incremental {gr} vs oracle {er}"
            );
        }
    }

    #[test]
    fn incremental_matches_oracle_over_messy_churn() {
        let (e, i) = caps(5);
        let mut engine = IncrementalMaxMin::new(e, i);
        let pattern = [
            fl(0, 1),
            fl(0, 2),
            fl(0, 3),
            fl(1, 2),
            fl(2, 2),
            fl(3, 4),
            fl(4, 0),
            fl(1, 0),
        ];
        for (k, f) in pattern.iter().enumerate() {
            engine.insert(k as u64, *f);
            assert_matches_oracle(&engine);
        }
        for k in [2u64, 0, 5, 7] {
            engine.remove_batch(&[k]);
            assert_matches_oracle(&engine);
        }
        engine.remove_batch(&[1, 3, 4, 6]);
        assert!(engine.is_empty());
        assert_matches_oracle(&engine);
    }

    #[test]
    fn disjoint_component_rates_are_untouched() {
        let (e, i) = caps(6);
        let mut engine = IncrementalMaxMin::new(e, i);
        engine.insert(0, fl(0, 1));
        engine.insert(1, fl(0, 2));
        let before_a: Vec<(u64, f64)> = engine.rates().collect();
        // A second, link-disjoint component: its churn must leave component A's
        // cached rates untouched (bit-identical, not merely approximately).
        engine.insert(2, fl(3, 4));
        engine.insert(3, fl(3, 5));
        engine.insert(4, fl(4, 5));
        engine.remove_batch(&[3]);
        let after_a: Vec<(u64, f64)> = engine.rates().take(2).collect();
        for ((k1, r1), (k2, r2)) in before_a.iter().zip(&after_a) {
            assert_eq!(k1, k2);
            assert_eq!(r1.to_bits(), r2.to_bits());
        }
        assert_matches_oracle(&engine);
    }

    #[test]
    fn bridging_flow_merges_components() {
        let (e, i) = caps(4);
        let mut engine = IncrementalMaxMin::new(e, i);
        engine.insert(0, fl(0, 1));
        engine.insert(1, fl(2, 3));
        assert_eq!(engine.rate(0), BW);
        assert_eq!(engine.rate(1), BW);
        // 0→3 shares egress 0 with flow 0 and ingress 3 with flow 1: one component.
        engine.insert(2, fl(0, 3));
        assert_matches_oracle(&engine);
        assert!((engine.rate(0) - BW / 2.0).abs() < 1.0);
        // Removing the bridge splits the component again; both sides recover.
        engine.remove_batch(&[2]);
        assert_eq!(engine.rate(0), BW);
        assert_eq!(engine.rate(1), BW);
        assert_matches_oracle(&engine);
    }

    #[test]
    fn incremental_applies_the_positive_rate_floor() {
        let mut engine = IncrementalMaxMin::new(vec![5e-324], vec![1.0, 1.0]);
        engine.insert(0, fl(0, 0));
        engine.insert(1, fl(0, 1));
        for (_, r) in engine.rates() {
            assert!(r > 0.0 && r.is_finite());
        }
        assert_matches_oracle(&engine);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_key_rejected() {
        let (e, i) = caps(2);
        let mut engine = IncrementalMaxMin::new(e, i);
        engine.insert(0, fl(0, 1));
        engine.insert(0, fl(1, 0));
    }

    #[test]
    #[should_panic(expected = "removal of unknown flow key")]
    fn unknown_removal_rejected() {
        let (e, i) = caps(2);
        let mut engine = IncrementalMaxMin::new(e, i);
        engine.remove_batch(&[9]);
    }
}
