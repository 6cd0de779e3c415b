//! A steady-state `TokenExecutor::step` allocates nothing: the first step
//! sizes the executor's full-batch buffers, and every later step of the same
//! network and batch shape reuses them. This file is its own test binary so
//! its counting allocator replaces the global one for this test alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fela_engine::{seeded_schedule, EngineNet, SplitPlan, Tensor, TokenExecutor};

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

#[test]
fn steady_state_step_allocates_nothing() {
    // The live replica: MLP [6, 8, 8, 4], three levels of 16 tokens, batch 32.
    let plan = SplitPlan {
        levels: vec![(0, 2), (2, 4), (4, 5)],
        tokens: vec![16, 16, 16],
    };
    let mut net = EngineNet::mlp(&[6, 8, 8, 4], 17);
    let x = Tensor::seeded(&[32, 6], 100, 1.0);
    let t = Tensor::seeded(&[32, 4], 200, 1.0);
    let schedules: Vec<_> = (0..20).map(|s| seeded_schedule(&plan, s)).collect();
    let mut exec = TokenExecutor::new(plan, 0.05);

    let before = allocs();
    exec.step(&mut net, &x, &t, &schedules[0]);
    let sized = allocs();
    assert!(sized > before, "the first step sizes the buffers");
    let first = net.clone();
    let sized = allocs();
    for schedule in &schedules[1..] {
        exec.step(&mut net, &x, &t, schedule);
    }
    assert_eq!(allocs() - sized, 0, "steps 2..=20 allocated");
    assert_ne!(net, first, "the later steps trained");
}
