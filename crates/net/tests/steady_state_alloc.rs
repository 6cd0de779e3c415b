//! A steady-state ring round allocates nothing in the fair-share engine, and
//! the network's per-round allocations do not grow with the ring: after a
//! warm-up all-reduce has sized the engine's flat tables and solve buffers,
//! further rounds only clear and refill them. This file is its own test
//! binary so its counting allocator replaces the global one for these tests
//! alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fela_net::fairshare::{FlowLinks, IncrementalMaxMin};
use fela_net::{run_allreduce_alone, FlowSpec, Network, NetworkConfig, NodeId};
use fela_sim::SimTime;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations and reallocations.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// VGG19's parameters, the all-reduce the simulated workloads run.
const BYTES: u64 = 548_000_000;

/// One ring round's flows as engine inputs: node i sends to node i+1.
fn ring_batch(k: usize, first_key: u64) -> Vec<(u64, FlowLinks)> {
    (0..k)
        .map(|i| {
            let links = FlowLinks {
                egress: i,
                ingress: (i + 1) % k,
            };
            (first_key + i as u64, links)
        })
        .collect()
}

#[test]
fn steady_state_engine_round_allocates_nothing() {
    const K: usize = 48;
    let bw = NetworkConfig::paper_testbed(K).link_bandwidth;
    let mut engine = IncrementalMaxMin::new(vec![bw; K], vec![bw; K]);
    // Warm-up: one all-reduce's 2·(K−1) rounds, each started in one batch
    // and retracted in one completion wave.
    let rounds = 2 * (K - 1) as u64;
    let batches: Vec<_> = (0..=rounds).map(|r| ring_batch(K, r * K as u64)).collect();
    let keys: Vec<Vec<u64>> = batches
        .iter()
        .map(|b| b.iter().map(|&(key, _)| key).collect())
        .collect();
    for (batch, keys) in batches.iter().zip(&keys).take(rounds as usize) {
        engine.insert_batch(batch);
        engine.remove_batch(keys);
    }

    let before = allocs();
    engine.insert_batch(&batches[rounds as usize]);
    let inserted = allocs();
    engine.remove_batch(&keys[rounds as usize]);
    let removed = allocs();
    assert_eq!(inserted - before, 0, "insert_batch allocated");
    assert_eq!(removed - inserted, 0, "remove_batch allocated");
    assert!(engine.is_empty());
}

/// Allocations of one ring round on a warmed-up `k`-node network: one
/// batched start, then completion waves until the round has drained.
fn network_round_allocs(k: usize) -> usize {
    let mut net = Network::new(NetworkConfig::paper_testbed(k));
    let nodes: Vec<NodeId> = (0..k).map(NodeId).collect();
    let end = run_allreduce_alone(&mut net, SimTime::ZERO, nodes, BYTES);
    let round: Vec<FlowSpec> = (0..k)
        .map(|i| FlowSpec {
            src: NodeId(i),
            dst: NodeId((i + 1) % k),
            bytes: BYTES / k as u64,
            tag: 0,
        })
        .collect();

    let before = allocs();
    let ids = net.start_flows(end, &round);
    let mut finished = 0;
    while let Some(t) = net.next_completion() {
        finished += net.take_completions(t).len();
    }
    let spent = allocs() - before;
    assert_eq!((ids.len(), finished), (k, k));
    spent
}

#[test]
fn network_round_allocations_do_not_grow_with_the_ring() {
    let small = network_round_allocs(8);
    let large = network_round_allocs(48);
    assert!(
        large <= small,
        "a 48-node round allocated {large} times, an 8-node round {small}"
    );
}
