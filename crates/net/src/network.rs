//! The flow-level network state machine.
//!
//! [`Network`] tracks active transfers (flows) between cluster nodes. Rates are
//! recomputed by max–min fair sharing every time the flow set changes; between
//! changes, each flow drains linearly, so completion instants are exact. A ring
//! round on otherwise idle NICs is held as one flow group (see the flow table on
//! [`Network`]), at no cost in exactness. The owner
//! (a simulation [`fela_sim::World`]) drives it with three calls:
//!
//! 1. [`Network::start_flows`] whenever transfers begin — every transfer that
//!    starts at one instant in one call (a ring round, a grant's fetches), so
//!    the fair share is updated once for the group; [`Network::start_flow`] is
//!    its one-flow wrapper;
//! 2. [`Network::rearm_wake`] after any change, to (re)schedule a single
//!    "network completion" event at [`Network::next_completion`];
//! 3. [`Network::take_completions`] when that event fires, to learn which transfers
//!    finished.
//!
//! Latency is modelled as a fixed startup delay before a flow's bytes begin to
//! drain (it still occupies its fair share from the start, which slightly
//! overweights tiny control messages — conservative for Fela, whose token RPCs are
//! "at most hundreds of bytes").

use fela_sim::{EventId, Scheduler, SimDuration, SimTime};
use serde::Serialize;

use crate::fairshare::{FlowLinks, IncrementalMaxMin};

/// A cluster node index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct NodeId(pub usize);

/// Identifier of an active or completed flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct FlowId(pub(crate) u64);

/// A transfer request.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FlowSpec {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Caller-defined tag returned on completion (e.g. "params for token 12").
    pub tag: u64,
}

/// An entry's flows, and how their rate is found.
#[derive(Clone, Debug)]
enum Flows {
    /// A same-node transfer: it never touches a NIC and is delivered after
    /// the latency alone.
    Local(FlowSpec),
    /// One flow held by the fair-share engine, at the rate the engine solves.
    Shared(FlowSpec),
    /// A flow group: two or more flows, each alone on its own two links, at
    /// the one-flow rate found when the group started.
    Group(Vec<FlowSpec>),
}

impl Flows {
    /// The specs, in id order.
    fn specs(&self) -> &[FlowSpec] {
        match self {
            Flows::Local(spec) | Flows::Shared(spec) => std::slice::from_ref(spec),
            Flows::Group(specs) => specs,
        }
    }
}

/// One entry of the flow table: a single flow, or a group of flows that
/// drain in lockstep. Members hold the consecutive ids `first ..
/// first + K` and share every field but their specs.
#[derive(Clone, Debug)]
struct Entry {
    first: u64,
    flows: Flows,
    remaining: f64,
    rate: f64,
    /// Bytes start draining here (start + latency).
    ready_at: SimTime,
    /// Exact completion estimate under the current rates.
    est_done: SimTime,
}

/// Configuration of the star network.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct NetworkConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-NIC bandwidth in bytes/second (both directions).
    pub link_bandwidth: f64,
    /// One-way latency added before a flow's bytes drain.
    pub latency: SimDuration,
}

impl NetworkConfig {
    /// The paper's testbed: 10 Gbps NICs on a non-blocking 40GE switch, ~50 µs
    /// one-way software+fabric latency. Goodput is derated to 70% of line rate —
    /// what Gloo's TCP transport sustains after framing, kernel copies and
    /// congestion-control ramp-up.
    pub fn paper_testbed(nodes: usize) -> Self {
        NetworkConfig {
            nodes,
            link_bandwidth: 0.70 * 10.0e9 / 8.0,
            latency: SimDuration::from_micros(50),
        }
    }
}

/// The flow-level network simulator.
#[derive(Clone, Debug)]
pub struct Network {
    config: NetworkConfig,
    /// The flow table: active entries in ascending id order. Ids are
    /// assigned ascending and a group's are consecutive, so a start appends,
    /// walking the entries walks every flow in id order, and a completion
    /// wave or an abort leaves in one `retain` pass.
    ///
    /// **Group rule.** A batch of K ≥ 2 netted flows that carry the same
    /// bytes over 2K distinct links, none of them used by another flow, is a
    /// ring round and goes in as one [`Flows::Group`] entry. Any other flow
    /// is an entry with one member, so a network started one flow at a time
    /// never forms a group. The rule is exact because every member would be a
    /// one-flow, two-link component of the fair-share engine: each would get
    /// the same rate, drain the same bytes at the same instants and finish at
    /// the same `SimTime` through the same `f64` operations, which the entry
    /// performs once. Only the delivered-bytes sum tells members apart: it
    /// gets the entry's drain once per member.
    ///
    /// **Split rule.** A group splits into one [`Flows::Shared`] entry per
    /// member, all with the group's remaining bytes, the moment a later start
    /// touches one of its links (after the advance, before the new flows go
    /// in), or an abort matches some of its members but not all (see
    /// [`Network::split`]). The split is exact because until then no member's
    /// component changed, so each member holds the state it would hold as a
    /// flow of its own; from then on the engine solves it as one.
    entries: Vec<Entry>,
    /// Incremental fair-share engine holding every shared flow, keyed by the
    /// raw `FlowId` so its canonical order matches `self.entries`. On each
    /// batch of starts or finishes it recomputes only the affected connected
    /// components of the link-sharing graph, with rates bit-identical to a
    /// full `max_min_rates` pass (see `fairshare` module docs).
    shares: IncrementalMaxMin,
    /// `group_on[l]` is the first id of the group using link `l` (egress
    /// links `0..nodes`, ingress links `nodes..2·nodes`), if one does.
    group_on: Vec<Option<u64>>,
    /// Emptied spec buffers of removed groups, reused by the next groups, so
    /// a steady run of whole-fleet rounds neither allocates nor frees a
    /// buffer of K specs per round.
    spare_specs: Vec<Vec<FlowSpec>>,
    next_id: u64,
    last_update: SimTime,
    /// Total bytes delivered, for experiment reporting.
    bytes_delivered: f64,
}

/// The fair-share engine's view of a netted flow.
fn flow_links(spec: &FlowSpec) -> FlowLinks {
    FlowLinks {
        egress: spec.src.0,
        ingress: spec.dst.0,
    }
}

impl Network {
    /// Creates an idle network.
    ///
    /// # Panics
    /// Panics if the configuration has no nodes or non-positive bandwidth.
    pub fn new(config: NetworkConfig) -> Self {
        assert!(config.nodes > 0, "network needs at least one node");
        assert!(config.link_bandwidth > 0.0, "bandwidth must be positive");
        let caps = vec![config.link_bandwidth; config.nodes];
        Network {
            config,
            entries: Vec::new(),
            shares: IncrementalMaxMin::new(caps.clone(), caps),
            group_on: vec![None; 2 * config.nodes],
            spare_specs: Vec::new(),
            next_id: 0,
            last_update: SimTime::ZERO,
            bytes_delivered: 0.0,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.entries.iter().map(|e| e.flows.specs().len()).sum()
    }

    /// Total bytes delivered so far (for reporting).
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered as u64
    }

    /// Total bytes delivered so far, exactly as accumulated: one `f64` add
    /// per flow per drain, in id order. Bit-identity tests compare this;
    /// [`Network::bytes_delivered`] truncates it.
    pub fn bytes_delivered_exact(&self) -> f64 {
        self.bytes_delivered
    }

    /// Starts a transfer at `now`; returns its id.
    ///
    /// Same-node transfers (`src == dst`) never touch a NIC: they complete after
    /// the latency alone.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or `now` precedes the last update.
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        self.start_flows(now, &[spec])[0]
    }

    /// Starts every transfer in `specs` at `now` with one fair-share update;
    /// returns their ids, which are consecutive and assigned in input order.
    ///
    /// The result is bit-identical to calling [`Network::start_flow`] once per
    /// spec in order: advancing to a fixed instant is idempotent, every refresh
    /// re-derives all completion estimates at that same instant, and inserts
    /// only merge fair-share components, so each flow's final rate depends only
    /// on the final flow set. An empty `specs` is a no-op — not even an advance,
    /// which would split the active flows' drains into two floating-point steps.
    ///
    /// A ring round (see the flow table's docs) becomes one group entry whose
    /// rate is one one-flow solve; any other batch becomes one entry per
    /// flow. Before anything is inserted, and after the advance, every group
    /// a new flow's links touch is split, so the fair-share engine sees
    /// exactly the flows it would see had no group ever formed.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or `now` precedes the last update.
    pub fn start_flows(&mut self, now: SimTime, specs: &[FlowSpec]) -> Vec<FlowId> {
        if specs.is_empty() {
            return Vec::new();
        }
        for spec in specs {
            assert!(spec.src.0 < self.config.nodes, "src out of range");
            assert!(spec.dst.0 < self.config.nodes, "dst out of range");
        }
        self.advance(now);
        let first = self.next_id;
        self.next_id += specs.len() as u64;
        let mut touched = Vec::new();
        let grouped = self.claim_group(first, specs, &mut touched);
        touched.sort_unstable();
        touched.dedup();
        for group in touched {
            self.split(group);
        }
        let ready_at = now + self.config.latency;
        let entry = |first, flows: Flows| Entry {
            first,
            remaining: flows.specs()[0].bytes as f64,
            flows,
            rate: 0.0,
            ready_at,
            est_done: SimTime::MAX,
        };
        if grouped {
            // The caps are uniform (`new`), so the first member's one-flow
            // solve is every member's.
            let rate = self.shares.lone_rate(flow_links(&specs[0]));
            let mut members = self.spare_specs.pop().unwrap_or_default();
            members.extend_from_slice(specs);
            self.entries.push(Entry {
                rate,
                ..entry(first, Flows::Group(members))
            });
        } else {
            let mut netted = Vec::with_capacity(specs.len());
            for (id, &spec) in (first..).zip(specs) {
                let flows = if spec.src == spec.dst {
                    Flows::Local(spec)
                } else {
                    netted.push((id, flow_links(&spec)));
                    Flows::Shared(spec)
                };
                self.entries.push(entry(id, flows));
            }
            // One recomputation covers every component the new flows touch.
            self.shares.insert_batch(&netted);
        }
        self.refresh_rates_and_estimates(now);
        (first..self.next_id).map(FlowId).collect()
    }

    /// The unified link ids a netted flow uses: its source's egress and its
    /// destination's ingress.
    fn link_ids(&self, spec: &FlowSpec) -> [usize; 2] {
        [spec.src.0, self.config.nodes + spec.dst.0]
    }

    /// Marks the links of `specs` as held by the group `first` if the batch
    /// is a ring round: at least two netted flows of equal bytes whose 2K
    /// links are distinct and used by no other flow. Returns whether it is;
    /// if not, every mark is left as it was. In the same pass, pushes onto
    /// `touched` the first id of every group a new flow shares a link with.
    fn claim_group(&mut self, first: u64, specs: &[FlowSpec], touched: &mut Vec<u64>) -> bool {
        let mut grouped = specs.len() >= 2;
        // Specs `..claimed` hold marks: once `grouped` fails, none are added.
        let mut claimed = 0;
        for spec in specs {
            if spec.src == spec.dst {
                grouped = false;
                continue;
            }
            let links = self.link_ids(spec);
            for l in links {
                match self.group_on[l] {
                    None => {}
                    // Marked earlier in this pass: a link repeated in the batch.
                    Some(group) if group == first => grouped = false,
                    Some(group) => {
                        touched.push(group);
                        grouped = false;
                    }
                }
            }
            grouped =
                grouped && spec.bytes == specs[0].bytes && self.shares.links_idle(flow_links(spec));
            if grouped {
                for l in links {
                    self.group_on[l] = Some(first);
                }
                claimed += 1;
            }
        }
        if !grouped {
            for spec in &specs[..claimed] {
                for l in self.link_ids(spec) {
                    self.group_on[l] = None;
                }
            }
        }
        grouped
    }

    /// Splits the group whose first id is `first` into one shared entry per
    /// member. Each member keeps the group's remaining bytes, rate, ready
    /// instant and estimate, which are exactly what it would hold had it been
    /// a flow of its own all along; the engine then solves each member as its
    /// own one-flow component, as it would have at the group's start.
    fn split(&mut self, first: u64) {
        let Ok(at) = self.entries.binary_search_by_key(&first, |e| e.first) else {
            unreachable!("group {first} missing from the flow table");
        };
        let group = self.entries.remove(at);
        let Flows::Group(specs) = &group.flows else {
            unreachable!("entry {first} split but not a group");
        };
        for spec in specs {
            for l in self.link_ids(spec) {
                self.group_on[l] = None;
            }
        }
        let members: Vec<(u64, FlowLinks)> = (first..)
            .zip(specs)
            .map(|(id, spec)| (id, flow_links(spec)))
            .collect();
        self.entries.splice(
            at..at,
            (first..).zip(specs).map(|(id, &spec)| Entry {
                first: id,
                flows: Flows::Shared(spec),
                remaining: group.remaining,
                rate: group.rate,
                ready_at: group.ready_at,
                est_done: group.est_done,
            }),
        );
        self.shares.insert_split(&members);
    }

    /// Advances all flows' remaining bytes to `now`. Idempotent.
    fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "network driven backwards: {now} < {}",
            self.last_update
        );
        for entry in &mut self.entries {
            let from = if entry.ready_at > self.last_update {
                entry.ready_at
            } else {
                self.last_update
            };
            if now > from && entry.rate > 0.0 {
                let dt = now.since(from).as_secs_f64();
                let drained = (entry.rate * dt).min(entry.remaining);
                entry.remaining -= drained;
                // One add per member at the entry's place in id order, as
                // per-flow accounting makes: `K · drained` would round
                // differently.
                for _ in entry.flows.specs() {
                    self.bytes_delivered += drained;
                }
            }
        }
        self.last_update = now;
    }

    /// Pulls the engine's (possibly component-locally updated) rates into the
    /// flow table and recomputes completion estimates. Call after the flow set
    /// changes (start or completion).
    ///
    /// The shared entries here and the engine's flows are the same set in the
    /// same ascending id order, so one pass walks the engine's rates in
    /// lockstep with the flow table, with no per-flow lookup. Groups are not
    /// in the engine and keep the rate they started with.
    ///
    /// The estimate pass deliberately still covers *all* entries, groups
    /// too: `est_done` is a quantised `SimTime` derived from `remaining /
    /// rate` at the current instant, so re-deriving it lazily at a different
    /// instant could drift by a nanosecond of rounding and break byte-identity
    /// of the trace artifacts. It is one O(entries) walk of two flat vectors
    /// with no allocation; each estimate takes the same operands as it would
    /// one flow at a time.
    fn refresh_rates_and_estimates(&mut self, now: SimTime) {
        let mut rates = self.shares.rates();
        for entry in &mut self.entries {
            match entry.flows {
                Flows::Local(_) => {
                    // Latency-only local delivery.
                    entry.est_done = entry.ready_at;
                    entry.remaining = 0.0;
                    continue;
                }
                Flows::Shared(_) => {
                    let Some((key, rate)) = rates.next() else {
                        unreachable!(
                            "shared flow {} missing from the fair-share engine",
                            entry.first
                        );
                    };
                    debug_assert_eq!(key, entry.first, "flow table and engine out of step");
                    entry.rate = rate;
                }
                Flows::Group(_) => {}
            }
            let drain_start = if entry.ready_at > now {
                entry.ready_at
            } else {
                now
            };
            if entry.remaining <= 0.0 {
                entry.est_done = drain_start;
            } else if entry.rate > 0.0 {
                entry.est_done =
                    drain_start + SimDuration::from_secs_f64(entry.remaining / entry.rate);
            } else {
                entry.est_done = SimTime::MAX;
            }
        }
    }

    /// Earliest completion instant among active flows, if any. The owner should
    /// keep exactly one pending completion event at this time, cancelling and
    /// rescheduling whenever the value changes.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.entries.iter().map(|e| e.est_done).min()
    }

    /// Keeps the owner's one pending completion event at
    /// [`Network::next_completion`]: cancels the event in `slot`, if any, and
    /// schedules `wake` in its place while a flow is active. A flow can
    /// "complete" marginally in the past after float rounding, so the instant
    /// is clamped to now.
    pub fn rearm_wake<E>(&self, slot: &mut Option<EventId>, sched: &mut Scheduler<'_, E>, wake: E) {
        if let Some(ev) = slot.take() {
            sched.cancel(ev);
        }
        if let Some(t) = self.next_completion() {
            *slot = Some(sched.schedule_at(t.max(sched.now()), wake));
        }
    }

    /// Aborts every active flow matching `pred`, returning them in `FlowId`
    /// order (fault injection: a crashed node or dark link kills its
    /// transfers). Undelivered bytes are *not* counted as delivered; the
    /// surviving flows' rates are recomputed in one batched pass through the
    /// fair-share engine, exactly like a completion wave. A group that `pred`
    /// matches in part is split first, so its survivors go on as flows of
    /// their own.
    pub fn abort_matching(
        &mut self,
        now: SimTime,
        pred: impl Fn(&FlowSpec) -> bool,
    ) -> Vec<(FlowId, FlowSpec)> {
        self.advance(now);
        let partial: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| {
                let specs = e.flows.specs();
                let hits = specs.iter().filter(|s| pred(s)).count();
                hits > 0 && hits < specs.len()
            })
            .map(|e| e.first)
            .collect();
        for first in partial {
            self.split(first);
        }
        // Every entry now matches whole or not at all.
        self.remove_where(now, |e| pred(&e.flows.specs()[0]))
    }

    /// Aborts every flow touching `node` — its NIC went dark (crash or link
    /// failure). Returns the aborted flows so the owner can decide which
    /// transfers to retry elsewhere.
    pub fn fail_node(&mut self, now: SimTime, node: NodeId) -> Vec<(FlowId, FlowSpec)> {
        self.abort_matching(now, |s| s.src == node || s.dst == node)
    }

    /// Removes and returns all flows completing at or before `now`, in FlowId
    /// order. Recomputes the remaining flows' rates.
    pub fn take_completions(&mut self, now: SimTime) -> Vec<(FlowId, FlowSpec)> {
        self.advance(now);
        // Account each finished flow's residual rounding error as delivered,
        // one flow at a time in id order: a group adds its residual once per
        // member.
        for entry in &self.entries {
            if entry.est_done <= now {
                for _ in entry.flows.specs() {
                    self.bytes_delivered += entry.remaining.max(0.0);
                }
            }
        }
        self.remove_where(now, |e| e.est_done <= now)
    }

    /// Removes every entry matching `doomed` in one ordered pass, retracts
    /// the shared ones from the fair-share engine in one batch, frees the
    /// groups' links and refreshes the survivors. Returns the removed flows
    /// in id order.
    fn remove_where(
        &mut self,
        now: SimTime,
        doomed: impl Fn(&Entry) -> bool,
    ) -> Vec<(FlowId, FlowSpec)> {
        // Counted first so a wave of any size costs at most two allocations.
        let (mut members, mut shared) = (0, 0);
        for entry in self.entries.iter().filter(|e| doomed(e)) {
            members += entry.flows.specs().len();
            shared += usize::from(matches!(entry.flows, Flows::Shared(_)));
        }
        if members == 0 {
            return Vec::new();
        }
        let mut removed = Vec::with_capacity(members);
        let mut netted = Vec::with_capacity(shared);
        let (nodes, group_on) = (self.config.nodes, &mut self.group_on);
        let spare_specs = &mut self.spare_specs;
        self.entries.retain_mut(|e| {
            if !doomed(e) {
                return true;
            }
            removed.extend((e.first..).map(FlowId).zip(e.flows.specs().iter().copied()));
            match &mut e.flows {
                Flows::Local(_) => {}
                Flows::Shared(_) => netted.push(e.first),
                Flows::Group(specs) => {
                    for spec in specs.iter() {
                        group_on[spec.src.0] = None;
                        group_on[nodes + spec.dst.0] = None;
                    }
                    let mut specs = std::mem::take(specs);
                    specs.clear();
                    spare_specs.push(specs);
                }
            }
            false
        });
        // One component recomputation covers the whole wave.
        if !netted.is_empty() {
            self.shares.remove_batch(&netted);
        }
        self.refresh_rates_and_estimates(now);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize) -> Network {
        // 1 GB/s, 1 ms latency for round numbers.
        Network::new(NetworkConfig {
            nodes,
            link_bandwidth: 1e9,
            latency: SimDuration::from_millis(1),
        })
    }

    fn spec(src: usize, dst: usize, bytes: u64) -> FlowSpec {
        FlowSpec {
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            tag: 0,
        }
    }

    #[test]
    fn single_flow_timing() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000_000_000));
        // 1 GB at 1 GB/s + 1 ms latency.
        let done = n.next_completion().unwrap();
        assert_eq!(done, SimTime::from_secs(1) + SimDuration::from_millis(1));
        let finished = n.take_completions(done);
        assert_eq!(finished.len(), 1);
        assert_eq!(n.active_flows(), 0);
        assert_eq!(n.bytes_delivered(), 1_000_000_000);
    }

    #[test]
    fn local_flow_is_latency_only() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(1, 1, u64::MAX / 4));
        assert_eq!(n.next_completion(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(n.take_completions(SimTime::from_nanos(1_000_000)).len(), 1);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut n = net(3);
        // Both use node 0's egress: share 0.5 GB/s each.
        n.start_flow(SimTime::ZERO, spec(0, 1, 500_000_000));
        n.start_flow(SimTime::ZERO, spec(0, 2, 1_000_000_000));
        // Flow 1 finishes at 1ms + 0.5GB/0.5GBps = ~1.001 s.
        let t1 = n.next_completion().unwrap();
        assert!((t1.as_secs_f64() - 1.001).abs() < 1e-6);
        n.take_completions(t1);
        // Flow 2 drained 0.5 GB so far, then gets the full 1 GB/s: +0.5 s.
        let t2 = n.next_completion().unwrap();
        assert!((t2.as_secs_f64() - 1.501).abs() < 1e-6, "{t2}");
        assert_eq!(n.take_completions(t2).len(), 1);
    }

    #[test]
    fn incast_seven_to_one() {
        // The HP hot-spot: 7 equal flows into node 0 take 7× longer than one.
        let mut n = net(8);
        for s in 1..8 {
            n.start_flow(SimTime::ZERO, spec(s, 0, 100_000_000));
        }
        let done = n.next_completion().unwrap();
        assert!((done.as_secs_f64() - (0.7 + 0.001)).abs() < 1e-6);
        assert_eq!(n.take_completions(done).len(), 7);
    }

    #[test]
    fn later_arrival_slows_existing_flow() {
        let mut n = net(3);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000_000_000));
        // At t=0.501s the first flow has ~0.5 GB left; a competitor arrives.
        let t_mid = SimTime::from_nanos(501_000_000);
        n.start_flow(t_mid, spec(0, 2, 250_000_000));
        // First flow now drains at 0.5 GB/s: needs 1 more second.
        let next = n.next_completion().unwrap();
        // Competitor: ready at 0.502, 0.25GB at 0.5GB/s → done ≈ 1.002.
        assert!((next.as_secs_f64() - 1.002).abs() < 1e-6, "{next}");
        let first = n.take_completions(next);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].1.dst, NodeId(2));
    }

    #[test]
    fn completion_batches_simultaneous_flows() {
        let mut n = net(4);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000_000));
        n.start_flow(SimTime::ZERO, spec(2, 3, 1_000_000));
        let t = n.next_completion().unwrap();
        assert_eq!(n.take_completions(t).len(), 2);
        assert!(n.next_completion().is_none());
    }

    #[test]
    fn empty_start_flows_is_a_no_op() {
        let mut n = net(2);
        n.start_flow(SimTime::from_secs(1), spec(0, 1, 10));
        // Nothing is advanced, so not even the time check runs.
        assert!(n.start_flows(SimTime::ZERO, &[]).is_empty());
        assert_eq!(n.active_flows(), 1);
    }

    #[test]
    fn zero_byte_flow_completes_after_latency() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 0));
        assert_eq!(n.next_completion(), Some(SimTime::from_nanos(1_000_000)));
    }

    #[test]
    #[should_panic(expected = "driven backwards")]
    fn time_travel_rejected() {
        let mut n = net(2);
        n.start_flow(SimTime::from_secs(5), spec(0, 1, 10));
        n.take_completions(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_rejected() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 7, 10));
    }

    #[test]
    fn paper_testbed_profile() {
        let c = NetworkConfig::paper_testbed(8);
        assert_eq!(c.nodes, 8);
        assert!((c.link_bandwidth - 0.875e9).abs() < 1.0);
    }

    #[test]
    fn fail_node_aborts_both_directions_and_frees_bandwidth() {
        let mut n = net(4);
        // Node 1 sends, receives, and an unrelated pair shares node 0's egress.
        n.start_flow(SimTime::ZERO, spec(1, 2, 1_000_000_000));
        n.start_flow(SimTime::ZERO, spec(3, 1, 1_000_000_000));
        n.start_flow(SimTime::ZERO, spec(0, 2, 1_000_000_000));
        let aborted = n.fail_node(SimTime::from_nanos(1_000_000), NodeId(1));
        assert_eq!(aborted.len(), 2);
        assert!(aborted
            .iter()
            .all(|(_, s)| s.src == NodeId(1) || s.dst == NodeId(1)));
        assert_eq!(n.active_flows(), 1);
        // The survivor now owns node 2's full ingress: 1 GB at 1 GB/s from the
        // abort instant (it had drained ~0.5 GB/s × ~0 s of payload so far).
        let done = n.next_completion().unwrap();
        assert!(
            done < SimTime::from_secs(2),
            "survivor sped up, done {done}"
        );
        assert_eq!(n.take_completions(done).len(), 1);
    }

    #[test]
    fn aborted_bytes_are_not_delivered() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000_000_000));
        // Half way through, kill the receiver.
        let aborted = n.fail_node(SimTime::from_nanos(501_000_000), NodeId(1));
        assert_eq!(aborted.len(), 1);
        // Only the ~0.5 GB drained before the abort counts as delivered.
        let delivered = n.bytes_delivered();
        assert!(
            delivered < 510_000_000 && delivered > 490_000_000,
            "delivered {delivered}"
        );
        assert!(n.next_completion().is_none());
    }

    #[test]
    fn abort_matching_selects_by_tag() {
        let mut n = net(3);
        n.start_flow(
            SimTime::ZERO,
            FlowSpec {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1_000,
                tag: 7,
            },
        );
        n.start_flow(
            SimTime::ZERO,
            FlowSpec {
                src: NodeId(0),
                dst: NodeId(2),
                bytes: 1_000,
                tag: 8,
            },
        );
        let aborted = n.abort_matching(SimTime::ZERO, |s| s.tag == 7);
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].1.tag, 7);
        assert_eq!(n.active_flows(), 1);
    }

    #[test]
    fn abort_matching_nothing_is_noop() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000));
        let before = n.next_completion();
        assert!(n.abort_matching(SimTime::ZERO, |s| s.tag == 999).is_empty());
        assert_eq!(n.next_completion(), before);
    }

    /// One ring round over `nodes`, `bytes` per flow: node i sends to i+1.
    fn ring(nodes: usize, bytes: u64) -> Vec<FlowSpec> {
        (0..nodes)
            .map(|i| spec(i, (i + 1) % nodes, bytes))
            .collect()
    }

    #[test]
    fn a_ring_round_on_idle_nics_is_one_group_until_traffic_lands_on_it() {
        let mut n = net(5);
        n.start_flows(SimTime::ZERO, &ring(4, 1_000_000));
        assert_eq!((n.entries.len(), n.active_flows()), (1, 4));
        assert!(n.shares.is_empty(), "a group never enters the engine");
        // Node 4 is outside the ring: its flow to node 0 lands on node 0's
        // ingress, which the ring's last member uses, so the group splits.
        n.start_flow(SimTime::ZERO, spec(4, 0, 1_000_000));
        assert_eq!((n.entries.len(), n.shares.len()), (5, 5));
        assert!(n.group_on.iter().all(Option::is_none));
        // A round that reuses a busy NIC stays flow by flow.
        n.start_flows(SimTime::ZERO, &[spec(2, 4, 5), spec(4, 2, 5)]);
        assert_eq!(n.shares.len(), 7);
    }

    #[test]
    fn only_equal_bytes_over_distinct_links_form_a_group() {
        let mut n = net(8);
        // Unequal bytes, a repeated source, a repeated destination.
        n.start_flows(SimTime::ZERO, &[spec(0, 1, 5), spec(1, 0, 6)]);
        n.start_flows(SimTime::ZERO, &[spec(2, 3, 5), spec(2, 4, 5)]);
        n.start_flows(SimTime::ZERO, &[spec(5, 6, 5), spec(7, 6, 5)]);
        // Same-node transfers use no link at all.
        n.start_flows(SimTime::ZERO, &[spec(5, 5, 5), spec(7, 7, 5)]);
        assert_eq!((n.entries.len(), n.shares.len()), (8, 6));
        assert!(n.group_on.iter().all(Option::is_none));
    }

    #[test]
    fn an_abort_splits_a_group_it_takes_in_part_and_drops_one_it_takes_whole() {
        let mut n = net(6);
        n.start_flows(SimTime::ZERO, &ring(3, 1_000_000));
        let other: Vec<FlowSpec> = (3..6)
            .map(|i| FlowSpec {
                tag: 9,
                ..spec(i, 3 + (i + 1) % 3, 7)
            })
            .collect();
        n.start_flows(SimTime::ZERO, &other);
        assert_eq!(n.entries.len(), 2);
        // Node 1 fails: two of the first ring's flows go, the third goes on
        // as a flow of its own.
        assert_eq!(n.fail_node(SimTime::from_nanos(5), NodeId(1)).len(), 2);
        assert_eq!((n.entries.len(), n.shares.len()), (2, 1));
        // The second ring is taken whole and leaves no marks behind.
        assert_eq!(
            n.abort_matching(SimTime::from_nanos(5), |s| s.tag == 9)
                .len(),
            3
        );
        assert_eq!(n.active_flows(), 1);
        assert!(n.group_on.iter().all(Option::is_none));
    }

    #[test]
    fn tags_round_trip() {
        let mut n = net(2);
        n.start_flow(
            SimTime::ZERO,
            FlowSpec {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 8,
                tag: 0xDEAD,
            },
        );
        let t = n.next_completion().unwrap();
        assert_eq!(n.take_completions(t)[0].1.tag, 0xDEAD);
    }
}
