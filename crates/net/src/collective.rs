//! Ring all-reduce as a flow-level collective.
//!
//! Every runtime in the workspace synchronises parameters with the bandwidth-optimal
//! ring all-reduce (the algorithm Gloo uses, which the paper's prototypes run on):
//! `K` participants exchange `2·(K−1)` rounds of `bytes/K`-sized chunks with their
//! ring neighbours — a reduce-scatter phase followed by an all-gather phase. Each
//! round is a set of `K` concurrent flows started by one [`Network::start_flows`]
//! call, so the fair share is updated once per round, not once per flow; rounds
//! are serialised by the data dependency. Every round is the same `K` specs, so
//! they are built once.
//!
//! A round's flows carry equal bytes, and each participant is the source of one
//! and the destination of one. When no other flow uses the ring's NICs, the
//! network therefore holds the round as one flow group: one rate, one drain and
//! one completion estimate for all `K` flows. It splits the group into `K`
//! ordinary flows the moment other traffic lands on a ring NIC or an abort takes
//! some of its flows but not all. Both rules are exact: until the split every
//! member would have seen the same `f64` operations on its own, and after it
//! each carries on from the same state (see the flow table in `network.rs`).
//! Completions still arrive one `(FlowId, FlowSpec)` per flow, in id order.
//!
//! [`RingAllReduce`] is a passive state machine: the owning simulation world starts
//! it, forwards flow completions to it, and asks it to launch the next round when a
//! round drains. Because rounds become real [`Network`] flows, synchronisation
//! contends with everything else on the wire — the effect behind the paper's DP/HP
//! crossover in Figure 8.

use fela_sim::SimTime;
use serde::Serialize;

use crate::network::{FlowId, FlowSpec, Network, NodeId};

/// Progress report from [`RingAllReduce::on_flow_complete`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum CollectiveProgress {
    /// The flow did not belong to this collective.
    NotMine,
    /// The flow was absorbed; the current round is still draining.
    InProgress,
    /// A round finished and the next one was started.
    RoundStarted,
    /// All rounds finished — the collective is complete.
    Done,
}

/// A flow-level ring all-reduce.
#[derive(Clone, Debug)]
pub struct RingAllReduce {
    /// Every round's flows: each participant sends one chunk to its ring
    /// successor, the last wrapping to the first. All rounds are the same.
    round: Vec<FlowSpec>,
    rounds_total: usize,
    rounds_done: usize,
    /// The current round's flows are `round_first .. round_first + K`: one
    /// batched start assigns a round's ids consecutively.
    round_first: FlowId,
    /// Flows of the current round that have not completed yet.
    outstanding: usize,
    tag: u64,
    done: bool,
}

impl RingAllReduce {
    /// Creates the collective and launches its first round on `net`.
    ///
    /// `tag` is stamped on every flow the collective starts, so owners can route
    /// completions. A single participant (or zero bytes) completes immediately
    /// without touching the network.
    ///
    /// # Panics
    /// Panics if `participants` is empty or contains duplicates.
    pub fn start(
        net: &mut Network,
        now: SimTime,
        participants: Vec<NodeId>,
        total_bytes: u64,
        tag: u64,
    ) -> Self {
        assert!(!participants.is_empty(), "all-reduce needs participants");
        let mut sorted = participants.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            participants.len(),
            "duplicate participants in all-reduce"
        );
        let k = participants.len();
        let rounds_total = if k > 1 { 2 * (k - 1) } else { 0 };
        let chunk_bytes = if k > 1 { total_bytes / k as u64 } else { 0 };
        // Each participant sends to its successor; the last wraps to the first.
        let successors = participants[1..].iter().chain(&participants[..1]);
        let round = participants
            .iter()
            .zip(successors)
            .map(|(&src, &dst)| FlowSpec {
                src,
                dst,
                bytes: chunk_bytes,
                tag,
            })
            .collect();
        let mut ar = RingAllReduce {
            round,
            rounds_total,
            rounds_done: 0,
            round_first: FlowId(0),
            outstanding: 0,
            tag,
            done: rounds_total == 0 || total_bytes == 0,
        };
        if !ar.done {
            ar.launch_round(net, now);
        }
        ar
    }

    /// Whether the collective has finished all rounds.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The tag stamped on this collective's flows.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    fn launch_round(&mut self, net: &mut Network, now: SimTime) {
        debug_assert_eq!(self.outstanding, 0);
        let ids = net.start_flows(now, &self.round);
        self.round_first = ids[0];
        self.outstanding = ids.len();
    }

    /// Notifies the collective that `flow` completed at `now`. If that drains the
    /// current round, the next round is launched (or the collective completes).
    pub fn on_flow_complete(
        &mut self,
        net: &mut Network,
        now: SimTime,
        flow: FlowId,
    ) -> CollectiveProgress {
        let first = self.round_first.0;
        let in_round = (first..first + self.round.len() as u64).contains(&flow.0);
        if !in_round || self.outstanding == 0 {
            return CollectiveProgress::NotMine;
        }
        self.outstanding -= 1;
        if self.outstanding > 0 {
            return CollectiveProgress::InProgress;
        }
        self.rounds_done += 1;
        if self.rounds_done == self.rounds_total {
            self.done = true;
            CollectiveProgress::Done
        } else {
            self.launch_round(net, now);
            CollectiveProgress::RoundStarted
        }
    }
}

/// Completion-map helper: drives collectives to completion synchronously when the
/// network carries nothing else. Returns the finish time. Test/estimation utility —
/// real runtimes interleave collectives with other traffic through their own event
/// loops.
pub fn run_allreduce_alone(
    net: &mut Network,
    start: SimTime,
    participants: Vec<NodeId>,
    total_bytes: u64,
) -> SimTime {
    let mut ar = RingAllReduce::start(net, start, participants, total_bytes, 0);
    let mut now = start;
    while !ar.is_done() {
        let Some(t) = net.next_completion() else {
            panic!("active collective at {now} but the network has no pending flows");
        };
        now = t;
        net.take_completions(now);
        ar.reconcile(net, now);
    }
    now
}

impl RingAllReduce {
    /// Reconciles with the network after completions were consumed elsewhere:
    /// drops in-flight ids the network no longer tracks and advances rounds.
    /// Returns `true` if the collective finished. Prefer
    /// [`RingAllReduce::on_flow_complete`] when flow ids are routed explicitly.
    fn reconcile(&mut self, net: &mut Network, now: SimTime) -> bool {
        if self.done {
            return true;
        }
        // A round's flows all start together; the round ends when none remain.
        if net.active_flows() == 0 {
            self.outstanding = 0;
            self.rounds_done += 1;
            if self.rounds_done == self.rounds_total {
                self.done = true;
            } else {
                self.launch_round(net, now);
            }
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use fela_sim::SimDuration;

    fn net(nodes: usize) -> Network {
        Network::new(NetworkConfig {
            nodes,
            link_bandwidth: 1e9,
            latency: SimDuration::from_micros(10),
        })
    }

    #[test]
    fn single_participant_is_immediate() {
        let mut n = net(4);
        let ar = RingAllReduce::start(&mut n, SimTime::ZERO, vec![NodeId(0)], 1 << 30, 1);
        assert!(ar.is_done());
        assert_eq!(n.active_flows(), 0);
    }

    #[test]
    fn zero_bytes_is_immediate() {
        let mut n = net(4);
        let ar = RingAllReduce::start(&mut n, SimTime::ZERO, vec![NodeId(0), NodeId(1)], 0, 1);
        assert!(ar.is_done());
    }

    #[test]
    fn ring_duration_matches_ideal_without_contention() {
        let mut n = net(8);
        let participants: Vec<_> = (0..8).map(NodeId).collect();
        let bytes = 800_000_000u64; // 100 MB chunks
        let end = run_allreduce_alone(&mut n, SimTime::ZERO, participants, bytes);
        // 2·(K−1) rounds of one chunk at 1 GB/s plus 10 µs latency each.
        let ideal = 2.0 * 7.0 * (bytes as f64 / 8.0 / 1e9 + 10e-6);
        assert!(
            (end.as_secs_f64() - ideal).abs() / ideal < 1e-3,
            "simulated {end} vs ideal {ideal}"
        );
    }

    #[test]
    fn rounds_count_is_2k_minus_2() {
        let mut n = net(4);
        let participants: Vec<_> = (0..4).map(NodeId).collect();
        let mut ar = RingAllReduce::start(&mut n, SimTime::ZERO, participants, 4_000, 7);
        let mut rounds = 0;
        while !ar.is_done() {
            let t = n.next_completion().unwrap();
            n.take_completions(t);
            if ar.reconcile(&mut n, t) || ar.rounds_done > rounds {
                rounds = ar.rounds_done;
            }
        }
        assert_eq!(ar.rounds_done, 6);
    }

    #[test]
    #[should_panic(expected = "duplicate participants")]
    fn duplicates_rejected() {
        let mut n = net(4);
        let _ = RingAllReduce::start(&mut n, SimTime::ZERO, vec![NodeId(0), NodeId(0)], 10, 0);
    }

    #[test]
    fn earlier_round_and_foreign_flows_are_not_mine() {
        // Two link-disjoint rings; A's chunks are small, so its first round
        // drains while B's first round (started after it) is still in flight.
        let mut n = net(6);
        let mut a = RingAllReduce::start(
            &mut n,
            SimTime::ZERO,
            (0..3).map(NodeId).collect(),
            3_000,
            1,
        );
        let mut b = RingAllReduce::start(
            &mut n,
            SimTime::ZERO,
            (3..6).map(NodeId).collect(),
            3_000_000_000,
            2,
        );
        let t = n.next_completion().unwrap();
        let wave = n.take_completions(t);
        assert_eq!(wave.len(), 3);
        assert!(wave.iter().all(|(_, s)| s.tag == 1));
        let progress: Vec<_> = wave
            .iter()
            .map(|&(id, _)| a.on_flow_complete(&mut n, t, id))
            .collect();
        use CollectiveProgress as P;
        assert_eq!(progress, [P::InProgress, P::InProgress, P::RoundStarted]);
        // A's second round got ids after B's first round: B's flows sit between
        // A's rounds, and neither they nor A's finished round belong to A now.
        let b_flow = b.round_first;
        assert!(wave[0].0 < b_flow && b_flow < a.round_first);
        for (id, _) in &wave {
            assert_eq!(a.on_flow_complete(&mut n, t, *id), P::NotMine);
        }
        assert_eq!(a.on_flow_complete(&mut n, t, b_flow), P::NotMine);
        assert_eq!(b.on_flow_complete(&mut n, t, a.round_first), P::NotMine);
        // Rejections consumed nothing: both rings still run to completion when
        // every completion is routed by tag.
        while !(a.is_done() && b.is_done()) {
            let t = n.next_completion().unwrap();
            for (id, spec) in n.take_completions(t) {
                let ar = if spec.tag == 1 { &mut a } else { &mut b };
                assert_ne!(ar.on_flow_complete(&mut n, t, id), P::NotMine);
            }
        }
        assert_eq!((a.rounds_done, b.rounds_done), (4, 4));
        assert_eq!(n.active_flows(), 0);
        assert_eq!(a.on_flow_complete(&mut n, t, a.round_first), P::NotMine);
    }

    #[test]
    fn paper_testbed_ring_of_48_finishes_at_the_pinned_instant() {
        // 548 MB (VGG19's parameters) over 48 paper-testbed nodes. Pinned to the
        // nanosecond that starting each round's flows one at a time gave, so any
        // drift in the batched round start or the per-component solve shows.
        let mut n = Network::new(NetworkConfig::paper_testbed(48));
        let end = run_allreduce_alone(
            &mut n,
            SimTime::ZERO,
            (0..48).map(NodeId).collect(),
            548_000_000,
        );
        assert_eq!(end, SimTime::from_nanos(1_231_176_092));
    }

    #[test]
    fn ideal_duration_scales_with_participants() {
        // Ring all-reduce total traffic per node ≈ 2·bytes regardless of K, so
        // duration is nearly K-independent for large transfers (the DP property):
        // 2·(K−1)/K chunks of the payload, plus a per-round latency too small to
        // show at this size.
        let ring = |k: u64| {
            let participants = (0..k as usize).map(NodeId).collect();
            run_allreduce_alone(&mut net(8), SimTime::ZERO, participants, 1 << 30).as_secs_f64()
        };
        let (d4, d8) = (ring(4), ring(8));
        assert!((d4 / d8 - (2.0 * 3.0 / 4.0) / (2.0 * 7.0 / 8.0)).abs() < 1e-4);
    }
}
