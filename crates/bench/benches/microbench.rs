//! Criterion micro-benchmarks for the components no end-to-end benchmark
//! metric isolates: the simulator's event queue and engine loop, the
//! bin-partition search the tuner runs once per model, and one replica replay
//! step (`engine/replay_step_live_chan`: `TokenExecutor::step` on the live
//! replica's shape, which every live worker and the server run once per
//! iteration in the epilogue).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fela_engine::{seeded_schedule, EngineNet, SplitPlan, Tensor, TokenExecutor};
use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
use fela_sim::{Engine, EventQueue, Scheduler, SimDuration, SimTime, World};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                // Scatter times to exercise heap reordering.
                q.schedule_at(
                    SimTime::from_nanos(i.wrapping_mul(2654435761) % 1_000_000),
                    i,
                );
            }
            let mut sum = 0u64;
            while let Some((_, _, v)) = q.pop_next() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

struct Chain(u32);
impl World for Chain {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<'_, ()>) {
        if self.0 > 0 {
            self.0 -= 1;
            sched.schedule_in(SimDuration::from_nanos(10), ());
        }
    }
}

fn bench_engine_steps(c: &mut Criterion) {
    c.bench_function("sim/engine_100k_events", |b| {
        b.iter(|| {
            let mut engine = Engine::new(Chain(100_000));
            engine.prime(());
            engine.run_to_completion();
            black_box(engine.steps())
        })
    });
}

fn bench_partition(c: &mut Criterion) {
    let profile = ThresholdProfile::k40c();
    let resnet = zoo::resnet152();
    c.bench_function("model/bin_partition_resnet152", |b| {
        b.iter(|| {
            black_box(bin_partition(
                &resnet,
                &profile,
                PartitionOptions::default(),
            ))
        })
    });
}

fn bench_replay_step(c: &mut Criterion) {
    // The `live-chan-w16` replica: MLP [6, 8, 8, 4] in three levels of 16
    // tokens of 2 rows each.
    let plan = SplitPlan {
        levels: vec![(0, 2), (2, 4), (4, 5)],
        tokens: vec![16, 16, 16],
    };
    let mut net = EngineNet::mlp(&[6, 8, 8, 4], 17);
    let x = Tensor::seeded(&[32, 6], 100, 1.0);
    let t = Tensor::seeded(&[32, 4], 200, 1.0);
    let schedule = seeded_schedule(&plan, 1);
    let mut exec = TokenExecutor::new(plan, 0.05);
    c.bench_function("engine/replay_step_live_chan", |b| {
        b.iter(|| exec.step(&mut net, &x, &t, black_box(&schedule)))
    });
}

criterion_group!(
    microbench,
    bench_event_queue,
    bench_engine_steps,
    bench_partition,
    bench_replay_step
);
criterion_main!(microbench);
