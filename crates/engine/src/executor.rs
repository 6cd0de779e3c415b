//! Token-scheduled training vs. the serial reference — the reproducibility proof.
//!
//! The paper's Table II credits Fela with *algorithm reproducibility*: unlike
//! ASP/SSP systems, its token scheduling is a pure re-ordering of the same BSP
//! computation. This module makes that claim checkable:
//!
//! * [`TokenExecutor::step`] trains one iteration by splitting the model into
//!   sub-models and the batch into tokens per a [`SplitPlan`], executing tokens in
//!   an arbitrary caller-supplied schedule (any topological order of the token
//!   DAG), and reducing gradients in canonical token-sequence order;
//! * [`serial_step`] trains the same iteration conventionally (one full-batch
//!   pass).
//!
//! Two token schedules produce **bit-identical** parameters (asserted in tests and
//! property tests): per-sample forward independence plus canonical reduction order
//! make the result schedule-invariant. Against the serial reference, results are
//! identical in exact arithmetic and agree to floating-point regrouping tolerance
//! (the partial sums associate differently) — with one token the match is exact.
//!
//! **Row buffers.** The executor keeps one full-batch `[batch, row]` buffer
//! per unit boundary for activations and one for gradients, allocated by the
//! first step and reused by every later one. Token `(l, j)` of `n_l` owns rows
//! `j·batch/n_l .. (j+1)·batch/n_l` of every boundary in its level, and its
//! dependencies' outputs are exactly those rows of the boundary below, so a
//! token reads its input in place: nothing is sliced, concatenated or
//! reshaped (a conv output's rows are already its flattened layout).
//!
//! **Why the result stays bit-identical.** Every floating-point operation
//! happens in one fixed order whatever the schedule:
//! * the layer kernels (`layers.rs`) are the ones the [`crate::EngineLayer`]
//!   `forward`/`backward` methods and so [`serial_step`] run, and a sample's
//!   output depends on its own row alone;
//! * each token's weight and bias gradients are summed from zero in its own
//!   scratch, as one backward call over the token's rows would;
//! * a level's gradient is the first token's, then the others added in `j`
//!   order (never zero-then-add: `0.0 + -0.0` is `+0.0`);
//! * a level applies its update after its backward, before the levels below.

use std::ops::Range;

use crate::network::EngineNet;
use crate::tensor::Tensor;

/// How a model and batch decompose into tokens.
#[derive(Clone, Debug)]
pub struct SplitPlan {
    /// Sub-model boundaries: `levels[l] = (start_layer, end_layer)`.
    pub levels: Vec<(usize, usize)>,
    /// Tokens per level; `tokens[l]` must divide `tokens[0]` (nondecreasing
    /// per-token batches, as in the paper).
    pub tokens: Vec<usize>,
}

impl SplitPlan {
    /// Validates against a network and batch size.
    ///
    /// # Panics
    /// Panics if boundaries do not tile the network, token counts are invalid, or
    /// the batch does not divide evenly.
    pub fn validate(&self, net: &EngineNet, batch: usize) {
        assert_eq!(self.levels.len(), self.tokens.len());
        assert!(!self.levels.is_empty());
        assert_eq!(self.levels[0].0, 0, "first sub-model starts at layer 0");
        assert_eq!(
            self.levels.last().unwrap().1,
            net.len(),
            "last sub-model ends at the last layer"
        );
        for w in self.levels.windows(2) {
            assert_eq!(w[0].1, w[1].0, "sub-models must tile the network");
        }
        for (l, &t) in self.tokens.iter().enumerate() {
            assert!(t > 0, "level {l} has zero tokens");
            assert_eq!(
                self.tokens[0] % t,
                0,
                "level {l} token count must divide the root count"
            );
            assert_eq!(batch % t, 0, "batch must divide into level {l} tokens");
        }
    }

    /// All `(level, index)` pairs — the token DAG's nodes.
    pub fn all_tokens(&self) -> Vec<(usize, usize)> {
        self.tokens
            .iter()
            .enumerate()
            .flat_map(|(l, &n)| (0..n).map(move |j| (l, j)))
            .collect()
    }

    /// Dependencies of token `(level, j)`: the level-`(l−1)` tokens covering the
    /// same sample rows.
    pub fn deps(&self, level: usize, j: usize) -> Vec<(usize, usize)> {
        if level == 0 {
            return vec![];
        }
        let ratio = self.tokens[level - 1] / self.tokens[level];
        (0..ratio).map(|k| (level - 1, j * ratio + k)).collect()
    }
}

/// Mean-squared-error gradient: `d/dy ½·mean‖y − t‖²` per element, scaled by the
/// *full* batch size so token splitting keeps the same objective.
fn mse_grad_into(y: &[f32], target: &[f32], full_batch: usize, grad: &mut [f32]) {
    let scale = 1.0 / (full_batch as f32);
    for ((g, a), b) in grad.iter_mut().zip(y).zip(target) {
        *g = (a - b) * scale;
    }
}

/// MSE loss value (for convergence tests).
pub fn mse_loss(y: &Tensor, target: &Tensor) -> f32 {
    let n = y.shape()[0] as f32;
    y.data()
        .iter()
        .zip(target.data())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        / (2.0 * n)
}

/// One conventional full-batch SGD step (the reference).
pub fn serial_step(net: &mut EngineNet, x: &Tensor, target: &Tensor, lr: f32) {
    let (inputs, y) = net.forward_range(0, net.len(), x);
    assert_eq!(y.shape(), target.shape());
    let mut grad = Tensor::zeros(y.shape());
    mse_grad_into(y.data(), target.data(), x.shape()[0], grad.data_mut());
    let grads = net.backward_range(0, net.len(), &inputs, &grad);
    net.apply_range(0, &grads.per_layer, lr);
}

/// Full-batch buffers for one network and batch shape, reused by every step.
///
/// Boundary `u` is unit `u`'s input and boundary `u + 1` its output; each is
/// one `[batch, row]` buffer, so token `(l, j)` of `n_l` tokens owns rows
/// `j·batch/n_l .. (j+1)·batch/n_l` of every boundary in its level.
#[derive(Default)]
struct Buffers {
    /// Rows the buffers hold.
    batch: usize,
    /// Per-sample shape at every boundary; `row_shapes[0]` is the input's.
    row_shapes: Vec<Vec<usize>>,
    /// Elements per row at every boundary.
    row_elems: Vec<usize>,
    /// Activations at every boundary (`acts[0]` is a copy of the input).
    acts: Vec<Vec<f32>>,
    /// Loss gradients w.r.t. every boundary.
    grads: Vec<Vec<f32>>,
    /// Per unit: the level's `(weight, bias)` gradient, summed over tokens.
    acc: Vec<(Tensor, Tensor)>,
    /// Per unit: one token's `(weight, bias)` gradient.
    scratch: Vec<(Tensor, Tensor)>,
}

impl Buffers {
    fn new(net: &EngineNet, x: &Tensor) -> Self {
        let batch = x.shape()[0];
        let mut row_shapes = vec![x.shape()[1..].to_vec()];
        for layer in net.layers() {
            let next = layer.out_row(row_shapes.last().expect("input row"));
            row_shapes.push(next);
        }
        let row_elems: Vec<usize> = row_shapes.iter().map(|r| r.iter().product()).collect();
        let full = || row_elems.iter().map(|e| vec![0.0; batch * e]).collect();
        let zero_grads = || net.layers().iter().map(|l| l.zero_grads()).collect();
        Buffers {
            batch,
            acts: full(),
            grads: full(),
            row_shapes,
            row_elems,
            acc: zero_grads(),
            scratch: zero_grads(),
        }
    }

    /// Whether these buffers were sized for `net` and `x`'s shape.
    fn fits(&self, net: &EngineNet, x: &Tensor) -> bool {
        self.batch == x.shape()[0]
            && self.row_shapes.first().map(Vec::as_slice) == Some(&x.shape()[1..])
            && self.acc.len() == net.len()
            && (net.layers().iter().zip(&self.acc))
                .all(|(layer, (gw, _))| layer.param_shapes().0 == gw.shape())
    }
}

/// Rows `r` of a boundary buffer with `elems` elements per row.
fn rows(buf: &[f32], elems: usize, r: Range<usize>) -> &[f32] {
    &buf[r.start * elems..r.end * elems]
}

/// Mutable [`rows`].
fn rows_mut(buf: &mut [f32], elems: usize, r: Range<usize>) -> &mut [f32] {
    &mut buf[r.start * elems..r.end * elems]
}

/// Token-scheduled executor over one network.
///
/// It owns the full-batch buffers a step runs over: sized by the first
/// [`TokenExecutor::step`], re-sized only when the network's layer shapes or
/// the batch shape change, so a steady-state step allocates nothing.
pub struct TokenExecutor {
    plan: SplitPlan,
    lr: f32,
    /// Per level: which tokens this step has run.
    done: Vec<Vec<bool>>,
    bufs: Buffers,
}

impl TokenExecutor {
    /// An executor for `plan` with SGD learning rate `lr`.
    pub fn new(plan: SplitPlan, lr: f32) -> Self {
        let done = plan.tokens.iter().map(|&n| vec![false; n]).collect();
        TokenExecutor {
            plan,
            lr,
            done,
            bufs: Buffers::default(),
        }
    }

    /// The decomposition in force.
    pub fn plan(&self) -> &SplitPlan {
        &self.plan
    }

    /// Trains one iteration executing tokens in `schedule` order.
    ///
    /// `schedule` must be a permutation of [`SplitPlan::all_tokens`] that respects
    /// dependencies (checked).
    ///
    /// # Panics
    /// Panics if the plan does not fit the network and batch, or the schedule
    /// is not a valid topological order of the token DAG.
    pub fn step(
        &mut self,
        net: &mut EngineNet,
        x: &Tensor,
        target: &Tensor,
        schedule: &[(usize, usize)],
    ) {
        let batch = x.shape()[0];
        if !self.bufs.fits(net, x) {
            self.plan.validate(net, batch);
            self.bufs = Buffers::new(net, x);
        }
        let (plan, b) = (&self.plan, &mut self.bufs);
        let out = net.len();
        assert!(
            target.shape()[0] == batch && target.shape()[1..] == b.row_shapes[out],
            "target shape mismatch"
        );
        assert_eq!(
            schedule.len(),
            plan.tokens.iter().sum::<usize>(),
            "schedule must cover every token exactly once"
        );
        b.acts[0].copy_from_slice(x.data());
        for done in &mut self.done {
            done.fill(false);
        }

        // Forward phase, in schedule order. A token's input rows at its
        // level's first boundary are exactly its dependencies' output rows.
        for &(level, j) in schedule {
            assert!(!self.done[level][j], "token ({level},{j}) scheduled twice");
            if level > 0 {
                let ratio = plan.tokens[level - 1] / plan.tokens[level];
                assert!(
                    self.done[level - 1][j * ratio..(j + 1) * ratio]
                        .iter()
                        .all(|&d| d),
                    "schedule violates token dependencies"
                );
            }
            self.done[level][j] = true;
            let per = batch / plan.tokens[level];
            let r = j * per..(j + 1) * per;
            let (start, end) = plan.levels[level];
            for u in start..end {
                let (below, above) = b.acts.split_at_mut(u + 1);
                net.layers()[u].forward_rows(
                    &b.row_shapes[u],
                    rows(&below[u], b.row_elems[u], r.clone()),
                    rows_mut(&mut above[0], b.row_elems[u + 1], r.clone()),
                );
            }
        }

        // Backward phase: top level down, tokens in sequence order, so each
        // unit's gradient sums its tokens in one canonical order whatever the
        // schedule. The first token computes straight into the accumulator
        // (what copying it in would give); later ones into scratch, then add.
        // Each level applies its update before the levels below run.
        mse_grad_into(&b.acts[out], target.data(), batch, &mut b.grads[out]);
        for (level, &(start, end)) in plan.levels.iter().enumerate().rev() {
            let per = batch / plan.tokens[level];
            for j in 0..plan.tokens[level] {
                let r = j * per..(j + 1) * per;
                for u in (start..end).rev() {
                    let (below, above) = b.grads.split_at_mut(u + 1);
                    let (gw, gb) = if j == 0 {
                        &mut b.acc[u]
                    } else {
                        &mut b.scratch[u]
                    };
                    net.layers()[u].backward_rows(
                        &b.row_shapes[u],
                        rows(&b.acts[u], b.row_elems[u], r.clone()),
                        rows(&above[0], b.row_elems[u + 1], r.clone()),
                        rows_mut(&mut below[u], b.row_elems[u], r.clone()),
                        gw.data_mut(),
                        gb.data_mut(),
                    );
                    if j > 0 {
                        b.acc[u].0.add_assign(&b.scratch[u].0);
                        b.acc[u].1.add_assign(&b.scratch[u].1);
                    }
                }
            }
            net.apply_range(start, &b.acc[start..end], self.lr);
        }
    }
}

/// Builds a valid topological schedule from a permutation seed: repeatedly picks
/// the next ready token, choosing among ready ones pseudo-randomly.
pub fn seeded_schedule(plan: &SplitPlan, seed: u64) -> Vec<(usize, usize)> {
    let mut ready: Vec<(usize, usize)> = Vec::new();
    let mut done: Vec<Vec<bool>> = plan.tokens.iter().map(|&n| vec![false; n]).collect();
    let mut remaining: Vec<(usize, usize)> = plan.all_tokens();
    let mut out = Vec::with_capacity(remaining.len());
    let mut state = seed;
    let mut next_rand = |bound: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % bound
    };
    while !remaining.is_empty() || !ready.is_empty() {
        // Move newly ready tokens out of `remaining`.
        let mut i = 0;
        while i < remaining.len() {
            let (l, j) = remaining[i];
            if plan.deps(l, j).iter().all(|&(dl, dj)| done[dl][dj]) {
                ready.push(remaining.swap_remove(i));
            } else {
                i += 1;
            }
        }
        assert!(!ready.is_empty(), "token DAG has a cycle?!");
        let pick = next_rand(ready.len());
        let (l, j) = ready.swap_remove(pick);
        done[l][j] = true;
        out.push((l, j));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::EngineLayer;

    fn mlp_plan() -> (EngineNet, SplitPlan) {
        let net = EngineNet::mlp(&[6, 8, 8, 4], 17);
        // Layers: dense relu dense relu dense = 5 units; split 0..2, 2..4, 4..5.
        let plan = SplitPlan {
            levels: vec![(0, 2), (2, 4), (4, 5)],
            tokens: vec![4, 2, 1],
        };
        (net, plan)
    }

    fn data(batch: usize) -> (Tensor, Tensor) {
        (
            Tensor::seeded(&[batch, 6], 100, 1.0),
            Tensor::seeded(&[batch, 4], 200, 1.0),
        )
    }

    #[test]
    fn schedules_are_topological() {
        let (_, plan) = mlp_plan();
        for seed in 0..10 {
            let sched = seeded_schedule(&plan, seed);
            assert_eq!(sched.len(), 7);
            let mut seen = std::collections::HashSet::new();
            for (l, j) in sched {
                for dep in plan.deps(l, j) {
                    assert!(seen.contains(&dep), "dep {dep:?} after ({l},{j})");
                }
                seen.insert((l, j));
            }
        }
    }

    #[test]
    fn different_schedules_bit_identical() {
        let (net0, plan) = mlp_plan();
        let (x, t) = data(8);
        let mut exec = TokenExecutor::new(plan.clone(), 0.05);
        let mut results = Vec::new();
        for seed in [1u64, 7, 42, 1337] {
            let mut net = net0.clone();
            for _ in 0..3 {
                let sched = seeded_schedule(&plan, seed);
                exec.step(&mut net, &x, &t, &sched);
            }
            results.push(net);
        }
        for r in &results[1..] {
            assert_eq!(
                r, &results[0],
                "token scheduling must not change the trained model bit-for-bit"
            );
        }
    }

    #[test]
    fn single_token_plan_equals_serial_exactly() {
        let net0 = EngineNet::mlp(&[5, 7, 3], 3);
        let plan = SplitPlan {
            levels: vec![(0, 2), (2, 3)],
            tokens: vec![1, 1],
        };
        let (x, t) = (
            Tensor::seeded(&[4, 5], 300, 1.0),
            Tensor::seeded(&[4, 3], 301, 1.0),
        );
        let mut serial = net0.clone();
        let mut tokened = net0.clone();
        let mut exec = TokenExecutor::new(plan.clone(), 0.1);
        for _ in 0..5 {
            serial_step(&mut serial, &x, &t, 0.1);
            let sched = seeded_schedule(&plan, 9);
            exec.step(&mut tokened, &x, &t, &sched);
        }
        assert_eq!(
            serial, tokened,
            "one token per level is literally serial BSP"
        );
    }

    #[test]
    fn token_split_matches_serial_within_fp_regrouping() {
        let (net0, plan) = mlp_plan();
        let (x, t) = data(8);
        let mut serial = net0.clone();
        let mut tokened = net0.clone();
        let mut exec = TokenExecutor::new(plan.clone(), 0.05);
        for step in 0..3 {
            serial_step(&mut serial, &x, &t, 0.05);
            exec.step(&mut tokened, &x, &t, &seeded_schedule(&plan, step));
        }
        // Same computation up to floating-point re-association of the gradient
        // partial sums: agreement to ~1e-5 relative.
        for (a, b) in serial.layers().iter().zip(tokened.layers().iter()) {
            if let (EngineLayer::Dense { weight: wa, .. }, EngineLayer::Dense { weight: wb, .. }) =
                (a, b)
            {
                for (va, vb) in wa.data().iter().zip(wb.data()) {
                    assert!((va - vb).abs() <= 1e-4 * (1.0 + va.abs()), "{va} vs {vb}");
                }
            }
        }
    }

    #[test]
    fn training_converges() {
        let (net0, plan) = mlp_plan();
        let (x, t) = data(8);
        let mut exec = TokenExecutor::new(plan.clone(), 0.2);
        let mut net = net0;
        let initial = {
            let (_, y) = net.forward_range(0, net.len(), &x);
            mse_loss(&y, &t)
        };
        for step in 0..50 {
            exec.step(&mut net, &x, &t, &seeded_schedule(&plan, step));
        }
        let final_loss = {
            let (_, y) = net.forward_range(0, net.len(), &x);
            mse_loss(&y, &t)
        };
        assert!(
            final_loss < 0.5 * initial,
            "loss {initial} → {final_loss}: token-scheduled SGD must converge"
        );
    }

    #[test]
    fn cnn_token_training_is_schedule_invariant() {
        let net0 = EngineNet::small_cnn(1, 4, 4, 2, 51);
        let plan = SplitPlan {
            levels: vec![(0, 2), (2, 4), (4, 5)],
            tokens: vec![2, 2, 1],
        };
        let x = Tensor::seeded(&[4, 1, 4, 4], 400, 1.0);
        let t = Tensor::seeded(&[4, 2], 401, 1.0);
        let mut exec = TokenExecutor::new(plan.clone(), 0.05);
        let mut a = net0.clone();
        let mut b = net0.clone();
        exec.step(&mut a, &x, &t, &seeded_schedule(&plan, 1));
        exec.step(&mut b, &x, &t, &seeded_schedule(&plan, 99));
        assert_eq!(a, b);
    }

    /// FNV-1a over the bit pattern of every parameter, in network order.
    fn param_digest(net: &EngineNet) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for layer in net.layers() {
            let (EngineLayer::Dense { weight, bias } | EngineLayer::Conv2d { weight, bias }) =
                layer
            else {
                continue;
            };
            for v in weight.data().iter().chain(bias.data()) {
                for byte in v.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The parameters after 10 seeded-schedule steps, pinned bit for bit from
    /// the executor that sliced and concatenated per-token tensors: (a) the
    /// live replica's shape, (b) dependency ratio 2, (c) 4-D conv activations
    /// across a level boundary and the flatten into the dense layer.
    #[test]
    fn pinned_digests_across_plan_shapes() {
        let levels = vec![(0, 2), (2, 4), (4, 5)];
        let mlp = || EngineNet::mlp(&[6, 8, 8, 4], 17);
        let cases = [
            (
                mlp(),
                vec![16, 16, 16],
                vec![32, 6],
                vec![32, 4],
                0x3a88_54bd_50bf_25cf,
            ),
            (
                mlp(),
                vec![4, 2, 1],
                vec![8, 6],
                vec![8, 4],
                0xdfc4_8d5c_f98d_46a4,
            ),
            (
                EngineNet::small_cnn(1, 4, 4, 2, 51),
                vec![2, 2, 1],
                vec![4, 1, 4, 4],
                vec![4, 2],
                0xe3c8_11d9_3c76_450c,
            ),
        ];
        for (case, (mut net, tokens, x_shape, t_shape, pinned)) in cases.into_iter().enumerate() {
            let (data_x, data_t) = if x_shape.len() == 4 {
                (400, 401)
            } else {
                (100, 200)
            };
            let x = Tensor::seeded(&x_shape, data_x, 1.0);
            let t = Tensor::seeded(&t_shape, data_t, 1.0);
            let plan = SplitPlan {
                levels: levels.clone(),
                tokens,
            };
            let mut exec = TokenExecutor::new(plan.clone(), 0.05);
            for step in 0..10 {
                exec.step(&mut net, &x, &t, &seeded_schedule(&plan, step));
            }
            let digest = param_digest(&net);
            assert_eq!(digest, pinned, "case {case}: {digest:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "scheduled twice")]
    fn duplicate_schedule_rejected() {
        let (mut net, plan) = mlp_plan();
        let (x, t) = data(8);
        let mut exec = TokenExecutor::new(plan.clone(), 0.1);
        let mut sched = seeded_schedule(&plan, 0);
        let first = sched[0];
        sched[1] = first;
        exec.step(&mut net, &x, &t, &sched);
    }

    #[test]
    #[should_panic(expected = "violates token dependencies")]
    fn unmet_dependency_rejected() {
        let (mut net, plan) = mlp_plan();
        let (x, t) = data(8);
        let mut exec = TokenExecutor::new(plan.clone(), 0.1);
        // The top token first, before the tokens it depends on.
        let mut sched = seeded_schedule(&plan, 0);
        sched.rotate_right(1);
        exec.step(&mut net, &x, &t, &sched);
    }

    #[test]
    #[should_panic(expected = "must cover every token")]
    fn short_schedule_rejected() {
        let (mut net, plan) = mlp_plan();
        let (x, t) = data(8);
        let mut exec = TokenExecutor::new(plan.clone(), 0.1);
        let mut sched = seeded_schedule(&plan, 0);
        sched.pop();
        exec.step(&mut net, &x, &t, &sched);
    }

    #[test]
    #[should_panic(expected = "must tile")]
    fn plan_validation_catches_gaps() {
        let (net, _) = mlp_plan();
        let bad = SplitPlan {
            levels: vec![(0, 2), (3, 5)],
            tokens: vec![1, 1],
        };
        bad.validate(&net, 8);
    }
}
