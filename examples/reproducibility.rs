//! Reproducibility: demonstrate that Fela's token scheduling is a pure
//! re-ordering of BSP training — the Table II "Algorithm Reproducibility ✓"
//! property — using the real CPU training engine.
//!
//! ```text
//! cargo run --release -p fela-examples --bin reproducibility
//! ```

use fela_engine::{
    mse_loss, seeded_schedule, serial_step, EngineNet, SplitPlan, Tensor, TokenExecutor,
};

fn main() {
    // A small MLP split into three sub-models with token counts 4/2/1 — the same
    // nondecreasing per-token-batch structure as the paper's Figure 3.
    let net0 = EngineNet::mlp(&[16, 32, 32, 8], 2024);
    let plan = SplitPlan {
        levels: vec![(0, 2), (2, 4), (4, 5)],
        tokens: vec![4, 2, 1],
    };
    let x = Tensor::seeded(&[16, 16], 1, 1.0);
    let target = Tensor::seeded(&[16, 8], 2, 1.0);
    let mut exec = TokenExecutor::new(plan.clone(), 0.1);

    // 1. Train under four different token schedules (different interleavings of
    //    the same token DAG — what different cluster timings would produce).
    println!("Training 10 iterations under 4 different token schedules…");
    let mut trained = Vec::new();
    for seed in [11u64, 222, 3333, 44444] {
        let mut net = net0.clone();
        for step in 0..10 {
            let schedule = seeded_schedule(&plan, seed.wrapping_mul(31).wrapping_add(step));
            exec.step(&mut net, &x, &target, &schedule);
        }
        trained.push(net);
    }
    let all_equal = trained.iter().all(|n| n == &trained[0]);
    println!("  → all four trained models bit-identical: {all_equal}");
    assert!(all_equal);

    // 2. A single-token plan IS serial BSP, bit for bit.
    let serial_plan = SplitPlan {
        levels: vec![(0, 5)],
        tokens: vec![1],
    };
    let mut serial_exec = TokenExecutor::new(serial_plan.clone(), 0.1);
    let mut serial = net0.clone();
    let mut single = net0.clone();
    for step in 0..10 {
        serial_step(&mut serial, &x, &target, 0.1);
        serial_exec.step(
            &mut single,
            &x,
            &target,
            &seeded_schedule(&serial_plan, step),
        );
    }
    println!(
        "  → single-token plan equals the serial reference exactly: {}",
        serial == single
    );
    assert_eq!(serial, single);

    // 3. And it all still learns.
    let loss = |net: &EngineNet| {
        let (_, y) = net.forward_range(0, net.len(), &x);
        mse_loss(&y, &target)
    };
    println!(
        "  → loss: initial {:.4}, token-scheduled {:.4}, serial {:.4}",
        loss(&net0),
        loss(&trained[0]),
        loss(&serial)
    );
    println!(
        "\nContrast with ASP/SSP (§II-C): there, the *timing* of workers changes\n\
         which parameter versions gradients see, so two runs of the same job can\n\
         diverge. Fela re-orders work without changing any data dependency."
    );
}
