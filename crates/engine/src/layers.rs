//! Differentiable layers: dense, ReLU, and a small 2-D convolution.
//!
//! Each layer implements explicit `forward` / `backward` with plain loops in a
//! fixed deterministic order. Per-sample mathematics is strictly independent
//! across the batch dimension — the property that makes Fela's token-splitting an
//! *exact* algebraic refactoring of full-batch training rather than an
//! approximation (no batch-norm-style cross-sample coupling here, matching the
//! paper's BSP-equivalence claim).

use crate::tensor::Tensor;

/// Gradients produced by one backward pass.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerGrads {
    /// Gradient w.r.t. the layer's weights (empty tensor for parameter-free
    /// layers).
    pub weight: Tensor,
    /// Gradient w.r.t. the bias.
    pub bias: Tensor,
    /// Gradient w.r.t. the layer input (propagated upstream).
    pub input: Tensor,
}

/// A trainable layer.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineLayer {
    /// Fully connected: `y = x·Wᵀ + b`, `x: [B, in]`, `W: [out, in]`.
    Dense {
        /// Weight matrix `[out, in]`.
        weight: Tensor,
        /// Bias `[out]`.
        bias: Tensor,
    },
    /// Element-wise `max(0, x)`.
    Relu,
    /// 2-D convolution, stride 1, same padding, square kernel.
    /// `x: [B, C_in, H, W]`, `weight: [C_out, C_in, K, K]`.
    Conv2d {
        /// Kernel tensor `[C_out, C_in, K, K]`.
        weight: Tensor,
        /// Bias `[C_out]`.
        bias: Tensor,
    },
}

impl EngineLayer {
    /// A seeded dense layer.
    pub fn dense(in_features: usize, out_features: usize, seed: u64) -> Self {
        let scale = (1.0 / in_features as f32).sqrt();
        EngineLayer::Dense {
            weight: Tensor::seeded(&[out_features, in_features], seed, scale),
            bias: Tensor::zeros(&[out_features]),
        }
    }

    /// A seeded convolution layer.
    pub fn conv2d(c_in: usize, c_out: usize, kernel: usize, seed: u64) -> Self {
        let scale = (1.0 / (c_in * kernel * kernel) as f32).sqrt();
        EngineLayer::Conv2d {
            weight: Tensor::seeded(&[c_out, c_in, kernel, kernel], seed, scale),
            bias: Tensor::zeros(&[c_out]),
        }
    }

    /// Whether the layer has trainable parameters.
    pub fn has_params(&self) -> bool {
        !matches!(self, EngineLayer::Relu)
    }

    /// Shapes of the `(weight, bias)` parameters; `[0]` each for ReLU, which
    /// has none.
    pub(crate) fn param_shapes(&self) -> (&[usize], &[usize]) {
        match self {
            EngineLayer::Dense { weight, bias } | EngineLayer::Conv2d { weight, bias } => {
                (weight.shape(), bias.shape())
            }
            EngineLayer::Relu => (&[0], &[0]),
        }
    }

    /// Zero `(weight, bias)` gradient tensors shaped like the parameters.
    pub(crate) fn zero_grads(&self) -> (Tensor, Tensor) {
        let (w, b) = self.param_shapes();
        (Tensor::zeros(w), Tensor::zeros(b))
    }

    /// The per-sample output shape for the per-sample input shape `row`.
    ///
    /// # Panics
    /// Panics if `row` does not fit the layer.
    pub(crate) fn out_row(&self, row: &[usize]) -> Vec<usize> {
        match self {
            EngineLayer::Dense { weight, .. } => {
                let n_in = row.iter().product::<usize>();
                assert_eq!(n_in, weight.shape()[1], "dense input width mismatch");
                vec![weight.shape()[0]]
            }
            EngineLayer::Relu => row.to_vec(),
            EngineLayer::Conv2d { weight, .. } => {
                assert!(
                    row.len() == 3 && row[0] == weight.shape()[1],
                    "conv channel mismatch"
                );
                vec![weight.shape()[0], row[1], row[2]]
            }
        }
    }

    /// Forward over a block of samples: `x` holds whole input rows of
    /// per-sample shape `row`, `y` receives the matching output rows.
    ///
    /// This and [`EngineLayer::backward_rows`] are the layer kernels. Each
    /// runs over whole sample rows in a fixed loop order, so a block of rows
    /// computes exactly what the same rows compute inside a larger batch:
    /// serial training and every token share this arithmetic.
    pub(crate) fn forward_rows(&self, row: &[usize], x: &[f32], y: &mut [f32]) {
        match self {
            // y[i, o] = bias[o] + Σ_k x[i, k]·w[o, k], accumulated in k order.
            EngineLayer::Dense { weight, bias } => {
                let (n_out, n_in) = (weight.shape()[0], weight.shape()[1]);
                let w_rows = || weight.data().chunks_exact(n_in).zip(bias.data());
                for (xr, yr) in x.chunks_exact(n_in).zip(y.chunks_exact_mut(n_out)) {
                    for (yv, (wr, &b)) in yr.iter_mut().zip(w_rows()) {
                        let mut acc = b;
                        for (xv, wv) in xr.iter().zip(wr) {
                            acc += xv * wv;
                        }
                        *yv = acc;
                    }
                }
            }
            // Negatives become zero; everything else (-0.0, NaN) passes.
            EngineLayer::Relu => {
                for (yv, &xv) in y.iter_mut().zip(x) {
                    *yv = if xv < 0.0 { 0.0 } else { xv };
                }
            }
            EngineLayer::Conv2d { weight, bias } => {
                let (c_out, c_in, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
                let (h, w, pad) = (row[1], row[2], k / 2);
                for i in 0..x.len() / (c_in * h * w) {
                    for co in 0..c_out {
                        for oy in 0..h {
                            for ox in 0..w {
                                let mut acc = bias.data()[co];
                                for ci in 0..c_in {
                                    for ky in 0..k {
                                        for kx in 0..k {
                                            let (iy, ix) = (oy + ky, ox + kx);
                                            if iy < pad
                                                || ix < pad
                                                || iy - pad >= h
                                                || ix - pad >= w
                                            {
                                                continue;
                                            }
                                            let (iy, ix) = (iy - pad, ix - pad);
                                            let xv = x[((i * c_in + ci) * h + iy) * w + ix];
                                            let wv =
                                                weight.data()[((co * c_in + ci) * k + ky) * k + kx];
                                            acc += xv * wv;
                                        }
                                    }
                                }
                                y[((i * c_out + co) * h + oy) * w + ox] = acc;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Backward over a block of samples: given the input rows `x` and the
    /// output gradient rows, overwrites `grad_in` with the input gradient
    /// rows and `(grad_w, grad_b)` with this block's parameter gradients
    /// (empty slices for ReLU), each summed from zero in the forward pass's
    /// loop order.
    pub(crate) fn backward_rows(
        &self,
        row: &[usize],
        x: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        grad_w: &mut [f32],
        grad_b: &mut [f32],
    ) {
        grad_in.fill(0.0);
        grad_w.fill(0.0);
        grad_b.fill(0.0);
        match self {
            EngineLayer::Dense { weight, .. } => {
                let (n_out, n_in) = (weight.shape()[0], weight.shape()[1]);
                let rows = x
                    .chunks_exact(n_in)
                    .zip(grad_out.chunks_exact(n_out))
                    .zip(grad_in.chunks_exact_mut(n_in));
                for ((xr, gor), gxr) in rows {
                    for (o, &go) in gor.iter().enumerate() {
                        grad_b[o] += go;
                        let wr = &weight.data()[o * n_in..(o + 1) * n_in];
                        let gwr = &mut grad_w[o * n_in..(o + 1) * n_in];
                        for k in 0..n_in {
                            gwr[k] += go * xr[k];
                            gxr[k] += go * wr[k];
                        }
                    }
                }
            }
            EngineLayer::Relu => {
                for ((g, &go), &xv) in grad_in.iter_mut().zip(grad_out).zip(x) {
                    *g = if xv <= 0.0 { 0.0 } else { go };
                }
            }
            EngineLayer::Conv2d { weight, .. } => {
                let (c_out, c_in, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
                let (h, w, pad) = (row[1], row[2], k / 2);
                for i in 0..x.len() / (c_in * h * w) {
                    for co in 0..c_out {
                        for oy in 0..h {
                            for ox in 0..w {
                                let go = grad_out[((i * c_out + co) * h + oy) * w + ox];
                                grad_b[co] += go;
                                for ci in 0..c_in {
                                    for ky in 0..k {
                                        for kx in 0..k {
                                            let (iy, ix) = (oy + ky, ox + kx);
                                            if iy < pad
                                                || ix < pad
                                                || iy - pad >= h
                                                || ix - pad >= w
                                            {
                                                continue;
                                            }
                                            let (iy, ix) = (iy - pad, ix - pad);
                                            let xi = ((i * c_in + ci) * h + iy) * w + ix;
                                            let wi = ((co * c_in + ci) * k + ky) * k + kx;
                                            grad_w[wi] += go * x[xi];
                                            grad_in[xi] += go * weight.data()[wi];
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Forward pass over a batch (first dimension). A dense layer reads each
    /// sample flattened, so it takes a 4-D conv output as is.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let row = &x.shape()[1..];
        let mut shape = vec![x.shape()[0]];
        shape.extend(self.out_row(row));
        let mut y = Tensor::zeros(&shape);
        self.forward_rows(row, x.data(), y.data_mut());
        y
    }

    /// Backward pass given the layer input and the gradient w.r.t. the output.
    ///
    /// # Panics
    /// Panics if `x` does not fit the layer or `grad_out` is not the size of
    /// its output.
    pub fn backward(&self, x: &Tensor, grad_out: &Tensor) -> LayerGrads {
        let row = &x.shape()[1..];
        let out_elems: usize = self.out_row(row).iter().product();
        assert_eq!(
            grad_out.len(),
            x.shape()[0] * out_elems,
            "output gradient size mismatch"
        );
        let (mut weight, mut bias) = self.zero_grads();
        let mut input = Tensor::zeros(x.shape());
        self.backward_rows(
            row,
            x.data(),
            grad_out.data(),
            input.data_mut(),
            weight.data_mut(),
            bias.data_mut(),
        );
        LayerGrads {
            weight,
            bias,
            input,
        }
    }

    /// Applies an SGD step with learning rate `lr`.
    ///
    /// # Panics
    /// Panics if called on a parameter-free layer with non-empty grads.
    pub fn apply(&mut self, grads_w: &Tensor, grads_b: &Tensor, lr: f32) {
        match self {
            EngineLayer::Dense { weight, bias } | EngineLayer::Conv2d { weight, bias } => {
                weight.saxpy_neg(lr, grads_w);
                bias.saxpy_neg(lr, grads_b);
            }
            EngineLayer::Relu => {
                assert!(grads_w.is_empty() && grads_b.is_empty());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(layer: &EngineLayer, x: &Tensor) {
        // Loss = sum of outputs; analytic input gradient vs central differences.
        let y = layer.forward(x);
        let grad_out = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let grads = layer.backward(x, &grad_out);
        let eps = 1e-3f32;
        for idx in 0..x.len().min(8) {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp: f32 = layer.forward(&xp).data().iter().sum();
            let fm: f32 = layer.forward(&xm).data().iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = grads.input.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn dense_gradient_matches_finite_differences() {
        let layer = EngineLayer::dense(5, 3, 7);
        let x = Tensor::seeded(&[2, 5], 11, 1.0);
        finite_diff_check(&layer, &x);
    }

    #[test]
    fn conv_gradient_matches_finite_differences() {
        let layer = EngineLayer::conv2d(2, 3, 3, 9);
        let x = Tensor::seeded(&[1, 2, 4, 4], 13, 1.0);
        finite_diff_check(&layer, &x);
    }

    #[test]
    fn relu_masks_negative_inputs() {
        let layer = EngineLayer::Relu;
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 0.5, 2.0]);
        let y = layer.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = layer.backward(&x, &Tensor::from_vec(&[1, 4], vec![1.0; 4]));
        assert_eq!(g.input.data(), &[0.0, 0.0, 1.0, 1.0]);
        assert!(!layer.has_params());
    }

    #[test]
    fn dense_weight_grad_shape_and_accumulation() {
        let layer = EngineLayer::dense(3, 2, 1);
        let x = Tensor::seeded(&[4, 3], 2, 1.0);
        let y = layer.forward(&x);
        let g = layer.backward(&x, &Tensor::from_vec(y.shape(), vec![1.0; y.len()]));
        assert_eq!(g.weight.shape(), &[2, 3]);
        // Bias grad = batch size (each sample contributes 1.0 per output).
        assert!(g.bias.data().iter().all(|&b| (b - 4.0).abs() < 1e-6));
    }

    #[test]
    fn conv_preserves_shape_with_same_padding() {
        let layer = EngineLayer::conv2d(1, 2, 3, 3);
        let x = Tensor::seeded(&[2, 1, 5, 5], 4, 1.0);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), &[2, 2, 5, 5]);
    }

    #[test]
    fn per_sample_independence() {
        // The algebraic foundation of token splitting: forward of a 2-batch equals
        // the concatenation of two 1-batch forwards, exactly, and so does the
        // input gradient of backward.
        for layer in [
            EngineLayer::dense(6, 4, 21),
            EngineLayer::Relu,
            EngineLayer::conv2d(2, 2, 3, 22),
        ] {
            let x = if matches!(layer, EngineLayer::Conv2d { .. }) {
                Tensor::seeded(&[2, 2, 4, 4], 23, 1.0)
            } else {
                Tensor::seeded(&[2, 6], 23, 1.0)
            };
            let mut row_shape = x.shape().to_vec();
            row_shape[0] = 1;
            let rows = x.data().split_at(x.len() / 2);
            let halves = [rows.0, rows.1].map(|r| Tensor::from_vec(&row_shape, r.to_vec()));
            let full = layer.forward(&x);
            let parts = [0, 1].map(|h| layer.forward(&halves[h]));
            assert_eq!(full.data(), [parts[0].data(), parts[1].data()].concat());
            let ones = |t: &Tensor| Tensor::from_vec(t.shape(), vec![1.0; t.len()]);
            let full = layer.backward(&x, &ones(&full)).input;
            let parts = [0, 1].map(|h| layer.backward(&halves[h], &ones(&parts[h])).input);
            assert_eq!(full.data(), [parts[0].data(), parts[1].data()].concat());
        }
    }

    #[test]
    fn sgd_apply_moves_weights() {
        let mut layer = EngineLayer::dense(2, 2, 5);
        let before = match &layer {
            EngineLayer::Dense { weight, .. } => weight.clone(),
            _ => unreachable!(),
        };
        let gw = Tensor::from_vec(&[2, 2], vec![1.0; 4]);
        let gb = Tensor::from_vec(&[2], vec![1.0; 2]);
        layer.apply(&gw, &gb, 0.5);
        match &layer {
            EngineLayer::Dense { weight, .. } => {
                for (a, b) in weight.data().iter().zip(before.data()) {
                    assert!((a - (b - 0.5)).abs() < 1e-6);
                }
            }
            _ => unreachable!(),
        }
    }
}
