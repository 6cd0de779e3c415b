//! Fair-share scaling: per-event rate updates from the full
//! progressive-filling oracle (`max_min_rates`) against the incremental
//! engine (`IncrementalMaxMin`) at 8–64 nodes, one ring all-reduce round
//! started flow by flow against one batched start at 8–96 nodes, and one
//! whole-fleet ring all-reduce at 256–2048 nodes.
//!
//! The fair-share churn uses rack-local traffic (groups of 8 nodes, 4 flows
//! per node), so the link-sharing graph splits into one connected component
//! per rack. That is the regime the incremental engine targets: a flow
//! start/finish re-runs water-filling only over its own rack's component,
//! while the full oracle re-walks every link and flow. At 8 nodes (a single
//! rack = a single component) the engine has no locality to exploit and pays
//! two component recomputes per churn event (one for the finish, one for the
//! start) versus the oracle's one full pass; it still wins there, because
//! its flat tables and reused solve buffers make a recompute cheaper than the
//! oracle's freshly allocated pass.
//!
//! The ring-round cases time one ring all-reduce round at 8–96 nodes on the
//! paper testbed: K flows (node i → node i+1) started at one instant and
//! drained to completion, once with K `start_flow` calls (one fair-share
//! update and estimate refresh per flow) and once with one `start_flows` call.
//! Started one at a time, each flow enters the fair-share engine as its own
//! one-flow component. Started together, the round's K flows carry equal
//! bytes over 2K links no other flow uses, so the network holds them as one
//! flow group: one one-flow solve, one entry to advance, re-estimate and
//! complete.
//!
//! The all-reduce cases run `run_allreduce_alone` over a 548 MB payload on
//! the paper testbed: 2(K−1) rounds, each one flow group, so 2K(K−1) flows
//! in all (8.4 M at 2048 nodes). What is left per flow is what the network's
//! interface hands out: an id at the start, an `f64` add of its drained
//! bytes and one of its residual, and a `(FlowId, FlowSpec)` completion.
//!
//! Run with `FELA_BENCH_DIR=<dir>` to emit `BENCH_fairshare_scaling.json`;
//! `FELA_BENCH_QUICK=1` shortens the measurement for CI smoke runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fela_net::fairshare::{max_min_rates, FlowLinks, IncrementalMaxMin};
use fela_net::{run_allreduce_alone, FlowSpec, Network, NetworkConfig, NodeId};
use fela_sim::SimTime;

/// Rack-local flow pattern: `nodes` must be a multiple of 8; each rack of 8
/// nodes carries 32 flows (4 per node) that never leave the rack.
fn rack_local_flows(nodes: usize) -> Vec<FlowLinks> {
    assert!(nodes % 8 == 0);
    let racks = nodes / 8;
    let mut flows = Vec::with_capacity(racks * 32);
    for rack in 0..racks {
        let base = rack * 8;
        for j in 0..32 {
            flows.push(FlowLinks {
                egress: base + j % 8,
                ingress: base + (j * 3 + 1) % 8,
            });
        }
    }
    flows
}

/// One churn schedule shared by both engines: event `e` finishes the flow at
/// slot `e * 7 % flows` and starts a replacement with the same endpoints.
const CHURN_EVENTS: usize = 64;

fn bench_fairshare_scaling(c: &mut Criterion) {
    for nodes in [8usize, 16, 32, 64] {
        let caps = vec![1.25e9f64; nodes];
        let flows = rack_local_flows(nodes);
        let n_flows = flows.len();

        // Baseline: the pre-existing behaviour — every flow start/finish
        // re-runs the full progressive-filling oracle over all links/flows.
        c.bench_function(&format!("net/fairshare_event_full_{nodes}nodes"), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for e in 0..CHURN_EVENTS {
                    // One churn event: a flow finishes and a replacement with
                    // the same endpoints starts, so the flow set is unchanged —
                    // but the full oracle recompute still runs from scratch.
                    let slot = e * 7 % n_flows;
                    let rates = max_min_rates(&caps, &caps, black_box(&flows));
                    acc += rates[slot];
                }
                black_box(acc)
            })
        });

        // Incremental engine: the same churn only recomputes the affected
        // rack's connected component.
        c.bench_function(
            &format!("net/fairshare_event_incremental_{nodes}nodes"),
            |b| {
                b.iter_batched(
                    || {
                        let mut eng = IncrementalMaxMin::new(caps.clone(), caps.clone());
                        for (i, &links) in flows.iter().enumerate() {
                            eng.insert(i as u64, links);
                        }
                        eng
                    },
                    |mut eng| {
                        let mut acc = 0.0f64;
                        let mut slot_keys: Vec<u64> = (0..n_flows as u64).collect();
                        for e in 0..CHURN_EVENTS {
                            let slot = e * 7 % n_flows;
                            let links = flows[slot];
                            let fresh = (n_flows + e) as u64;
                            eng.remove(slot_keys[slot]);
                            eng.insert(fresh, links);
                            slot_keys[slot] = fresh;
                            acc += eng.rate(fresh);
                        }
                        black_box(acc)
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
}

/// One ring round over `nodes` participants: every node sends one chunk of a
/// 548 MB all-reduce (VGG19's parameters) to its ring successor.
fn ring_round(nodes: usize) -> Vec<FlowSpec> {
    (0..nodes)
        .map(|i| FlowSpec {
            src: NodeId(i),
            dst: NodeId((i + 1) % nodes),
            bytes: 548_000_000 / nodes as u64,
            tag: 0,
        })
        .collect()
}

/// Drains every flow; returns the last completion instant.
fn drain(net: &mut Network) -> SimTime {
    let mut last = SimTime::ZERO;
    while let Some(t) = net.next_completion() {
        net.take_completions(t);
        last = t;
    }
    last
}

fn bench_ring_round(c: &mut Criterion) {
    for nodes in [8usize, 16, 48, 96] {
        let config = NetworkConfig::paper_testbed(nodes);
        let round = ring_round(nodes);
        c.bench_function(&format!("net/ring_round_per_flow_{nodes}nodes"), |b| {
            b.iter(|| {
                let mut net = Network::new(config);
                for &spec in black_box(&round) {
                    net.start_flow(SimTime::ZERO, spec);
                }
                black_box(drain(&mut net))
            })
        });
        c.bench_function(&format!("net/ring_round_batched_{nodes}nodes"), |b| {
            b.iter(|| {
                let mut net = Network::new(config);
                net.start_flows(SimTime::ZERO, black_box(&round));
                black_box(drain(&mut net))
            })
        });
    }
}

fn bench_ring_allreduce(c: &mut Criterion) {
    for nodes in [256usize, 1024, 2048] {
        let config = NetworkConfig::paper_testbed(nodes);
        c.bench_function(&format!("net/ring_allreduce_{nodes}nodes"), |b| {
            b.iter_batched(
                || (Network::new(config), (0..nodes).map(NodeId).collect()),
                |(mut net, participants)| {
                    run_allreduce_alone(&mut net, SimTime::ZERO, participants, 548_000_000)
                },
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(
    fairshare_scaling,
    bench_fairshare_scaling,
    bench_ring_round,
    bench_ring_allreduce
);
criterion_main!(fairshare_scaling);
