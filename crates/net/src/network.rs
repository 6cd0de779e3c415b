//! The flow-level network state machine.
//!
//! [`Network`] tracks active transfers ([`Flow`]s) between cluster nodes. Rates are
//! recomputed by max–min fair sharing every time the flow set changes; between
//! changes, each flow drains linearly, so completion instants are exact. The owner
//! (a simulation [`fela_sim::World`]) drives it with three calls:
//!
//! 1. [`Network::start_flows`] whenever transfers begin — every transfer that
//!    starts at one instant in one call (a ring round, a grant's fetches), so
//!    the fair share is updated once for the group; [`Network::start_flow`] is
//!    its one-flow wrapper;
//! 2. [`Network::next_completion`] after any change, to (re)schedule a single
//!    "network completion" event at the right virtual time;
//! 3. [`Network::take_completions`] when that event fires, to learn which transfers
//!    finished.
//!
//! Latency is modelled as a fixed startup delay before a flow's bytes begin to
//! drain (it still occupies its fair share from the start, which slightly
//! overweights tiny control messages — conservative for Fela, whose token RPCs are
//! "at most hundreds of bytes").

use fela_sim::{SimDuration, SimTime};
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

#[derive(Clone, Debug)]
struct Flow {
    id: FlowId,
    spec: FlowSpec,
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
    /// Active flows in ascending id order. Ids are assigned ascending, so a
    /// start appends, and a completion wave or an abort leaves in one
    /// `retain` pass.
    flows: Vec<Flow>,
    /// Incremental fair-share engine holding every netted (src ≠ dst) flow,
    /// keyed by the raw `FlowId` so its canonical order matches `self.flows`.
    /// On each batch of starts or finishes it recomputes only the affected
    /// connected components of the link-sharing graph, with rates bit-identical
    /// to a full `max_min_rates` pass (see `fairshare` module docs).
    shares: IncrementalMaxMin,
    next_id: u64,
    last_update: SimTime,
    /// Total bytes delivered, for experiment reporting.
    bytes_delivered: f64,
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
            flows: Vec::new(),
            shares: IncrementalMaxMin::new(caps.clone(), caps),
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
        self.flows.len()
    }

    /// Total bytes delivered so far (for reporting).
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered as u64
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
        let ready_at = now + self.config.latency;
        let mut ids = Vec::with_capacity(specs.len());
        let mut netted = Vec::with_capacity(specs.len());
        for &spec in specs {
            let id = FlowId(self.next_id);
            self.next_id += 1;
            self.flows.push(Flow {
                id,
                spec,
                remaining: spec.bytes as f64,
                rate: 0.0,
                ready_at,
                est_done: SimTime::MAX,
            });
            if spec.src != spec.dst {
                netted.push((
                    id.0,
                    FlowLinks {
                        egress: spec.src.0,
                        ingress: spec.dst.0,
                    },
                ));
            }
            ids.push(id);
        }
        // One recomputation covers every component the new flows touch.
        self.shares.insert_batch(&netted);
        self.refresh_rates_and_estimates(now);
        ids
    }

    /// Advances all flows' remaining bytes to `now`. Idempotent.
    fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "network driven backwards: {now} < {}",
            self.last_update
        );
        for flow in &mut self.flows {
            let from = if flow.ready_at > self.last_update {
                flow.ready_at
            } else {
                self.last_update
            };
            if now > from && flow.rate > 0.0 {
                let dt = now.since(from).as_secs_f64();
                let drained = (flow.rate * dt).min(flow.remaining);
                flow.remaining -= drained;
                self.bytes_delivered += drained;
            }
        }
        self.last_update = now;
    }

    /// Pulls the engine's (possibly component-locally updated) rates into the
    /// flow table and recomputes completion estimates. Call after the flow set
    /// changes (start or completion).
    ///
    /// The netted flows here and the engine's flows are the same set in the
    /// same ascending id order, so one pass walks the engine's rates in
    /// lockstep with the flow table, with no per-flow lookup.
    ///
    /// The estimate pass deliberately still covers *all* flows: `est_done` is a
    /// quantised `SimTime` derived from `remaining / rate` at the current
    /// instant, so re-deriving it lazily at a different instant could drift by
    /// a nanosecond of rounding and break byte-identity of the trace artifacts.
    /// It is one O(flows) walk of two flat vectors with no allocation; each
    /// flow's estimate takes the same operands as it would one flow at a time.
    fn refresh_rates_and_estimates(&mut self, now: SimTime) {
        let mut rates = self.shares.rates();
        for flow in &mut self.flows {
            if flow.spec.src == flow.spec.dst {
                // Latency-only local delivery.
                flow.est_done = flow.ready_at;
                flow.remaining = 0.0;
                continue;
            }
            let Some((key, rate)) = rates.next() else {
                unreachable!(
                    "netted flow {} missing from the fair-share engine",
                    flow.id.0
                );
            };
            debug_assert_eq!(key, flow.id.0, "flow table and engine out of step");
            flow.rate = rate;
            let drain_start = if flow.ready_at > now {
                flow.ready_at
            } else {
                now
            };
            if flow.remaining <= 0.0 {
                flow.est_done = drain_start;
            } else if flow.rate > 0.0 {
                flow.est_done =
                    drain_start + SimDuration::from_secs_f64(flow.remaining / flow.rate);
            } else {
                flow.est_done = SimTime::MAX;
            }
        }
    }

    /// Earliest completion instant among active flows, if any. The owner should
    /// keep exactly one pending completion event at this time, cancelling and
    /// rescheduling whenever the value changes.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.flows.iter().map(|f| f.est_done).min()
    }

    /// Aborts every active flow matching `pred`, returning them in `FlowId`
    /// order (fault injection: a crashed node or dark link kills its
    /// transfers). Undelivered bytes are *not* counted as delivered; the
    /// surviving flows' rates are recomputed in one batched pass through the
    /// fair-share engine, exactly like a completion wave.
    pub fn abort_matching(
        &mut self,
        now: SimTime,
        pred: impl Fn(&FlowSpec) -> bool,
    ) -> Vec<(FlowId, FlowSpec)> {
        self.advance(now);
        self.remove_where(now, |f| pred(&f.spec))
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
        // one flow at a time in id order.
        for flow in &self.flows {
            if flow.est_done <= now {
                self.bytes_delivered += flow.remaining.max(0.0);
            }
        }
        self.remove_where(now, |f| f.est_done <= now)
    }

    /// Removes every flow matching `doomed` in one ordered pass, retracts the
    /// netted ones from the fair-share engine in one batch and refreshes the
    /// survivors. Returns the removed flows in id order.
    fn remove_where(
        &mut self,
        now: SimTime,
        doomed: impl Fn(&Flow) -> bool,
    ) -> Vec<(FlowId, FlowSpec)> {
        // Counted first so a wave of any size costs two allocations.
        let n = self.flows.iter().filter(|f| doomed(f)).count();
        if n == 0 {
            return Vec::new();
        }
        let mut removed = Vec::with_capacity(n);
        let mut netted = Vec::with_capacity(n);
        self.flows.retain(|f| {
            if !doomed(f) {
                return true;
            }
            if f.spec.src != f.spec.dst {
                netted.push(f.id.0);
            }
            removed.push((f.id, f.spec));
            false
        });
        // One component recomputation covers the whole wave.
        self.shares.remove_batch(&netted);
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
