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
//!   deterministic tie-breaking (lowest link index first). It allocates fresh
//!   buffers on every call and stays the simple reference.
//! * [`IncrementalMaxMin`] — the incremental engine the [`crate::Network`] hot
//!   path uses: it keeps its flows and their rates in one key-ordered vector and
//!   each link's flows in a per-link vector, and on each change recomputes rates
//!   only for the *connected components* of the link-sharing graph the changed
//!   flows touch. Flows in other components keep their cached rates. Changes come
//!   in batches — [`IncrementalMaxMin::insert_batch`] for the flows that start at
//!   one instant (a ring round), [`IncrementalMaxMin::remove_batch`] for a
//!   completion wave — and one batch costs one recomputation, which solves each
//!   touched component on its own rather than their union. The component search
//!   and the water-filling run over buffers the engine allocates once, so a
//!   steady-state batch allocates nothing.
//!
//! The simulator's ring all-reduce rounds mostly never reach the engine. A
//! round whose K flows carry equal bytes over 2K links that no other flow
//! uses would be K one-flow, two-link components here, each solved to the
//! same rate. [`crate::Network`] holds such a round as one flow group
//! instead, and gets that rate once from `lone_rate`, which presents
//! `progressive_fill` the operands `recompute` would present for any member.
//! When a later flow lands on one of the group's links, or an abort takes
//! some of its members but not all, the network splits the group, and
//! `insert_split` admits the members at their place in key order, each
//! solved as its own component. That is exactly the state inserting them at
//! the group's start would have left, since nothing touched their links in
//! between. So the engine carries the contended traffic: grant fetches,
//! incast, and rounds that share a NIC with other flows. Its cost there is
//! bookkeeping more than water-filling, which is why the tables are flat
//! vectors and the buffers are reused.
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
//! over random flow churn. Reusing buffers changes where the operands live, not
//! which operands meet or in what order.

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

/// Working storage of one [`progressive_fill`] pass. The oracle builds a
/// fresh one per call; the incremental engine keeps one and reuses it.
#[derive(Clone, Debug, Default)]
struct FillBuffers {
    state: Vec<LinkState>,
    flow_pos: Vec<(usize, usize)>,
    frozen: Vec<bool>,
    /// The pass's output: one rate per input flow, in input order.
    rates: Vec<f64>,
}

/// The shared water-filling core. `comp_links` are the participating link ids in
/// ascending order; `flows` are `(egress link id, ingress link id)` pairs in
/// canonical (ascending-key) order, both id spaces already unified. Leaves one
/// strictly positive rate per flow, in input order, in `buf.rates`.
///
/// Determinism contract: the bottleneck scan walks `comp_links` ascending and the
/// freeze loop walks `flows` in input order, so every caller that presents the
/// same component in the same canonical order gets bit-identical rates.
fn progressive_fill(
    buf: &mut FillBuffers,
    link_cap: impl Fn(usize) -> f64,
    comp_links: &[usize],
    flows: impl IntoIterator<Item = (usize, usize)>,
) {
    let FillBuffers {
        state,
        flow_pos,
        frozen,
        rates,
    } = buf;
    // Dense state indexed by position in `comp_links`; since the slice is sorted
    // ascending, walking positions 0..L preserves the ascending-link-id scan the
    // determinism contract requires. Flow link ids are resolved to positions once
    // up front (binary search over the sorted slice).
    state.clear();
    state.extend(comp_links.iter().map(|&l| LinkState {
        residual: link_cap(l),
        active: 0,
    }));
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
    flow_pos.clear();
    flow_pos.extend(flows.into_iter().map(|(e, g)| (pos_of(e), pos_of(g))));
    for &(pe, pg) in flow_pos.iter() {
        state[pe].active += 1;
        state[pg].active += 1;
    }

    let n_flows = flow_pos.len();
    rates.clear();
    rates.resize(n_flows, 0.0);
    frozen.clear();
    frozen.resize(n_flows, false);
    let mut remaining = n_flows;
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
        for st in state.iter_mut() {
            if st.residual < 0.0 {
                st.residual = 0.0;
            }
        }
    }
    for (i, r) in rates.iter().enumerate() {
        assert!(*r > 0.0, "flow {i} froze at a non-positive rate {r}");
    }
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
    for f in flows {
        assert!(f.egress < ne, "egress link {} out of bounds", f.egress);
        assert!(
            f.ingress < ingress_cap.len(),
            "ingress link {} out of bounds",
            f.ingress
        );
    }
    let all_links: Vec<usize> = (0..n_links).collect();
    let mut buf = FillBuffers::default();
    progressive_fill(
        &mut buf,
        |l| link_cap(egress_cap, ingress_cap, l),
        &all_links,
        flows.iter().map(|f| (f.egress, ne + f.ingress)),
    );
    buf.rates
}

/// Capacity of unified link `l`: `[0, ne)` are egress links, `[ne, ne+ni)`
/// ingress links.
fn link_cap(egress_cap: &[f64], ingress_cap: &[f64], l: usize) -> f64 {
    let ne = egress_cap.len();
    if l < ne {
        egress_cap[l]
    } else {
        ingress_cap[l - ne]
    }
}

/// One active flow of the engine: its key, its unified `(egress, ingress)`
/// link ids, and its cached rate.
#[derive(Clone, Copy, Debug)]
struct EngineFlow {
    key: u64,
    links: (usize, usize),
    rate: f64,
}

/// The engine's reusable working storage: sized by the first batches, then
/// only cleared, so a steady-state batch allocates nothing.
#[derive(Clone, Debug, Default)]
struct SolveBuffers {
    /// Links whose components a batch changed.
    seeds: Vec<usize>,
    /// Sorted keys of the flows a removal batch retracts.
    doomed: Vec<u64>,
    /// One flag per link; set while a recomputation visits the link.
    visited: Vec<bool>,
    /// The links `visited` is set for, so clearing it costs O(visited).
    touched: Vec<usize>,
    stack: Vec<usize>,
    /// The current component's links, then sorted ascending.
    links: Vec<usize>,
    /// The current component's flows as `(key, egress, ingress)`, then sorted
    /// by key.
    comp: Vec<(u64, usize, usize)>,
    fill: FillBuffers,
}

/// The incremental max–min fair-share engine.
///
/// Holds the active flow set keyed by a caller-chosen `u64` (the simulator uses
/// the raw `FlowId`, whose ascending order is exactly the oracle's input order).
/// Keys must ascend: each inserted key must exceed every key inserted before, as
/// the simulator's flow ids do. That keeps the tables flat — the flows with their
/// cached rates are one vector in ascending key order, so an insert appends —
/// and each link lists its flows as `(key, other link)`, so the component
/// search never looks a flow up.
/// [`IncrementalMaxMin::insert_batch`] and [`IncrementalMaxMin::remove_batch`]
/// (with their one-flow wrappers [`IncrementalMaxMin::insert`] and
/// [`IncrementalMaxMin::remove`]) recompute rates only for the affected connected
/// components of the link-sharing graph, one component at a time — O(component)
/// instead of O(L·F) — over reused buffers, while staying bit-identical to
/// [`max_min_rates`] over the full set (see the module docs for the argument).
#[derive(Clone, Debug)]
pub struct IncrementalMaxMin {
    egress_cap: Vec<f64>,
    ingress_cap: Vec<f64>,
    /// Active flows in ascending key order, the canonical oracle order.
    flows: Vec<EngineFlow>,
    /// `link_flows[l]` — `(key, other link)` of each flow using link `l`
    /// (unified id space).
    link_flows: Vec<Vec<(u64, usize)>>,
    /// The largest key ever inserted; the next key must exceed it.
    last_key: Option<u64>,
    buffers: SolveBuffers,
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
            flows: Vec::new(),
            link_flows: vec![Vec::new(); n_links],
            last_key: None,
            buffers: SolveBuffers {
                visited: vec![false; n_links],
                ..SolveBuffers::default()
            },
        }
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
        match self.flows.binary_search_by_key(&key, |f| f.key) {
            Ok(i) => self.flows[i].rate,
            Err(_) => panic!("rate queried for unknown flow key {key}"),
        }
    }

    /// Active flow keys and rates in ascending key order (oracle order).
    pub fn rates(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.flows.iter().map(|f| (f.key, f.rate))
    }

    /// Adds a flow and recomputes its connected component's rates.
    ///
    /// # Panics
    /// Panics if `key` does not exceed every key inserted before or a link index
    /// is out of bounds.
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
    /// Panics if a key does not exceed every key inserted before it (which
    /// rejects a key inserted twice) or a link index is out of bounds.
    pub fn insert_batch(&mut self, batch: &[(u64, FlowLinks)]) {
        let ne = self.egress_cap.len();
        for &(key, links) in batch {
            assert!(
                links.egress < ne,
                "egress link {} out of bounds",
                links.egress
            );
            assert!(
                links.ingress < self.ingress_cap.len(),
                "ingress link {} out of bounds",
                links.ingress
            );
            if let Some(last) = self.last_key {
                assert!(
                    key > last,
                    "flow key {key} inserted twice or out of order: keys must exceed \
                     every key inserted before (last {last})"
                );
            }
            self.last_key = Some(key);
            let flow = self.attach(key, links);
            self.flows.push(flow);
        }
        self.recompute();
    }

    /// Lists a new flow on its two links and seeds both for the next
    /// recomputation; returns its table entry for the caller to place.
    fn attach(&mut self, key: u64, links: FlowLinks) -> EngineFlow {
        let (e, g) = (links.egress, self.egress_cap.len() + links.ingress);
        self.link_flows[e].push((key, g));
        self.link_flows[g].push((key, e));
        self.buffers.seeds.push(e);
        self.buffers.seeds.push(g);
        EngineFlow {
            key,
            links: (e, g),
            rate: 0.0,
        }
    }

    /// Re-admits a split flow group's members: keys that were assigned before
    /// later inserts but never held by the engine, so they go in at their
    /// place in key order rather than at the end. Each member is solved in
    /// its own component, as if it had been inserted when its key was given.
    ///
    /// # Panics
    /// Panics if `members` is empty, its keys are not consecutive or one of
    /// them is active.
    pub(crate) fn insert_split(&mut self, members: &[(u64, FlowLinks)]) {
        let (first, last) = (members[0].0, members[members.len() - 1].0);
        assert_eq!(
            last - first + 1,
            members.len() as u64,
            "split keys not consecutive"
        );
        let at = self.flows.partition_point(|f| f.key < first);
        if let Some(next) = self.flows.get(at) {
            assert!(
                next.key > last,
                "split member key {} already active",
                next.key
            );
        }
        let flows: Vec<EngineFlow> = members
            .iter()
            .map(|&(key, links)| self.attach(key, links))
            .collect();
        self.flows.splice(at..at, flows);
        self.last_key = self.last_key.max(Some(last));
        self.recompute();
    }

    /// Whether no active flow uses `links.egress` or `links.ingress`.
    pub(crate) fn links_idle(&self, links: FlowLinks) -> bool {
        self.link_flows[links.egress].is_empty()
            && self.link_flows[self.egress_cap.len() + links.ingress].is_empty()
    }

    /// The rate one flow over `links` would get with no other flow on either
    /// link: the solve of a one-flow, two-link component, through the same
    /// [`progressive_fill`] operands `recompute` would present for it.
    pub(crate) fn lone_rate(&mut self, links: FlowLinks) -> f64 {
        let (e, g) = (links.egress, self.egress_cap.len() + links.ingress);
        let fill = &mut self.buffers.fill;
        progressive_fill(
            fill,
            |l| link_cap(&self.egress_cap, &self.ingress_cap, l),
            &[e, g],
            [(e, g)],
        );
        fill.rates[0]
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
    /// overlap — one recomputation covers them all). The flows leave the table
    /// in one ordered pass.
    ///
    /// # Panics
    /// Panics if any key is not an active flow.
    pub fn remove_batch(&mut self, keys: &[u64]) {
        let s = &mut self.buffers;
        s.doomed.clear();
        s.doomed.extend_from_slice(keys);
        s.doomed.sort_unstable();
        let mut next = 0;
        self.flows.retain(|f| {
            if s.doomed.get(next) != Some(&f.key) {
                return true;
            }
            next += 1;
            for l in [f.links.0, f.links.1] {
                self.link_flows[l].retain(|&(k, _)| k != f.key);
                s.seeds.push(l);
            }
            false
        });
        if let Some(key) = s.doomed.get(next) {
            panic!("removal of unknown flow key {key}");
        }
        self.recompute();
    }

    /// Recomputes rates for the connected component(s) reachable from the seed
    /// links over the link-sharing graph (links are vertices; a flow connects its
    /// two links), running one water-filling pass per component. Solving each
    /// component alone is bit-identical to solving their union (the module-level
    /// decomposition argument) and costs O(Σ component²) instead of
    /// O((Σ component)²) — a ring round's K one-flow components are K trivial
    /// solves, not one K-bottleneck scan over 2K links.
    fn recompute(&mut self) {
        let s = &mut self.buffers;
        let ne = self.egress_cap.len();
        for &seed in &s.seeds {
            if s.visited[seed] {
                continue;
            }
            s.links.clear();
            s.comp.clear();
            s.stack.push(seed);
            while let Some(l) = s.stack.pop() {
                if std::mem::replace(&mut s.visited[l], true) {
                    continue;
                }
                s.touched.push(l);
                s.links.push(l);
                for &(key, other) in &self.link_flows[l] {
                    // Both of a flow's links are in its component; record the
                    // flow once, from its egress side.
                    if l < ne {
                        s.comp.push((key, l, other));
                    }
                    s.stack.push(other);
                }
            }
            if s.comp.is_empty() {
                continue;
            }
            // The ascending orders (links, then flow keys) are exactly what the
            // determinism contract of `progressive_fill` requires. A link with
            // no flows has active == 0 and is never selected as bottleneck,
            // exactly as in the oracle's full scan.
            s.links.sort_unstable();
            s.comp.sort_unstable_by_key(|&(key, _, _)| key);
            progressive_fill(
                &mut s.fill,
                |l| link_cap(&self.egress_cap, &self.ingress_cap, l),
                &s.links,
                s.comp.iter().map(|&(_, e, g)| (e, g)),
            );
            for (&(key, _, _), &rate) in s.comp.iter().zip(&s.fill.rates) {
                let Ok(i) = self.flows.binary_search_by_key(&key, |f| f.key) else {
                    unreachable!("component flow {key} missing from the flow table");
                };
                self.flows[i].rate = rate;
            }
        }
        s.seeds.clear();
        for &l in &s.touched {
            s.visited[l] = false;
        }
        s.touched.clear();
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
        let flows: Vec<FlowLinks> = engine
            .flows
            .iter()
            .map(|f| FlowLinks {
                egress: f.links.0,
                ingress: f.links.1 - engine.egress_cap.len(),
            })
            .collect();
        let keys: Vec<u64> = engine.flows.iter().map(|f| f.key).collect();
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
    #[should_panic(expected = "keys must exceed every key inserted before")]
    fn out_of_order_key_rejected() {
        // A key below an earlier one is rejected even after that key is gone:
        // the flow table stays in ascending key order by appending.
        let (e, i) = caps(2);
        let mut engine = IncrementalMaxMin::new(e, i);
        engine.insert(5, fl(0, 1));
        engine.remove(5);
        engine.insert(3, fl(1, 0));
    }

    #[test]
    #[should_panic(expected = "removal of unknown flow key")]
    fn unknown_removal_rejected() {
        let (e, i) = caps(2);
        let mut engine = IncrementalMaxMin::new(e, i);
        engine.remove_batch(&[9]);
    }
}
