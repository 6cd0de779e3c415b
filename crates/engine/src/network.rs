//! Layer stacks and sub-model splits for the reproducibility engine.

use crate::layers::{EngineLayer, LayerGrads};
use crate::tensor::Tensor;

/// A sequential network.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineNet {
    layers: Vec<EngineLayer>,
}

/// Per-layer parameter gradients for a (sub-)network pass.
#[derive(Clone, Debug, PartialEq)]
pub struct NetGrads {
    /// One entry per layer in the range (parameter-free layers carry empties).
    pub per_layer: Vec<(Tensor, Tensor)>,
    /// Gradient w.r.t. the range input.
    pub input: Tensor,
}

impl EngineNet {
    /// Builds a network from layers.
    ///
    /// # Panics
    /// Panics if empty.
    pub fn new(layers: Vec<EngineLayer>) -> Self {
        assert!(!layers.is_empty(), "network needs layers");
        EngineNet { layers }
    }

    /// A dense MLP with ReLU between layers: `dims = [in, h1, …, out]`.
    pub fn mlp(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "mlp needs at least in/out dims");
        let mut layers = Vec::new();
        for (i, w) in dims.windows(2).enumerate() {
            layers.push(EngineLayer::dense(w[0], w[1], seed.wrapping_add(i as u64)));
            if i + 2 < dims.len() {
                layers.push(EngineLayer::Relu);
            }
        }
        EngineNet::new(layers)
    }

    /// A small CNN: conv→relu→conv→relu→dense over `c×h×w` inputs, mirroring the
    /// CONV-then-FC structure whose heterogeneity motivates Fela.
    pub fn small_cnn(c: usize, h: usize, w: usize, classes: usize, seed: u64) -> Self {
        EngineNet::new(vec![
            EngineLayer::conv2d(c, 4, 3, seed),
            EngineLayer::Relu,
            EngineLayer::conv2d(4, 4, 3, seed + 1),
            EngineLayer::Relu,
            EngineLayer::dense(4 * h * w, classes, seed + 2),
        ])
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if there are no layers (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Read access to the layers.
    pub fn layers(&self) -> &[EngineLayer] {
        &self.layers
    }

    /// Forward through layers `[start, end)`. A dense layer after a conv
    /// reads each 4-D sample flattened.
    ///
    /// Returns the per-layer inputs (needed for backward) and the final output.
    pub fn forward_range(&self, start: usize, end: usize, x: &Tensor) -> (Vec<Tensor>, Tensor) {
        let mut inputs = Vec::with_capacity(end - start);
        let mut cur = x.clone();
        for layer in &self.layers[start..end] {
            let next = layer.forward(&cur);
            inputs.push(std::mem::replace(&mut cur, next));
        }
        (inputs, cur)
    }

    /// Backward through layers `[start, end)` given the stored inputs and the
    /// gradient w.r.t. the range output.
    pub fn backward_range(
        &self,
        start: usize,
        end: usize,
        inputs: &[Tensor],
        grad_out: &Tensor,
    ) -> NetGrads {
        assert_eq!(inputs.len(), end - start, "stored inputs mismatch");
        let mut per_layer = vec![(Tensor::zeros(&[0]), Tensor::zeros(&[0])); end - start];
        let mut grad = grad_out.clone();
        for (offset, layer) in self.layers[start..end].iter().enumerate().rev() {
            let LayerGrads {
                weight,
                bias,
                input,
            } = layer.backward(&inputs[offset], &grad);
            per_layer[offset] = (weight, bias);
            grad = input;
        }
        NetGrads {
            per_layer,
            input: grad,
        }
    }

    /// Applies accumulated gradients for layers `[start, end)`.
    pub fn apply_range(&mut self, start: usize, grads: &[(Tensor, Tensor)], lr: f32) {
        for (offset, (gw, gb)) in grads.iter().enumerate() {
            let layer = &mut self.layers[start + offset];
            if layer.has_params() {
                layer.apply(gw, gb, lr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_structure() {
        let net = EngineNet::mlp(&[4, 8, 3], 1);
        // dense, relu, dense.
        assert_eq!(net.len(), 3);
        assert!(net.layers()[0].has_params());
        assert!(!net.layers()[1].has_params());
    }

    #[test]
    fn forward_range_splits_consistently() {
        let net = EngineNet::mlp(&[4, 8, 8, 3], 2);
        let x = Tensor::seeded(&[5, 4], 3, 1.0);
        let (_, full) = net.forward_range(0, net.len(), &x);
        let (_, mid) = net.forward_range(0, 2, &x);
        let (_, out) = net.forward_range(2, net.len(), &mid);
        assert_eq!(full, out, "composing ranges equals the full pass");
    }

    #[test]
    fn cnn_flattens_before_dense() {
        let net = EngineNet::small_cnn(1, 4, 4, 3, 7);
        let x = Tensor::seeded(&[2, 1, 4, 4], 8, 1.0);
        let (_, y) = net.forward_range(0, net.len(), &x);
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn backward_range_produces_grads_for_every_param_layer() {
        let net = EngineNet::mlp(&[4, 6, 2], 5);
        let x = Tensor::seeded(&[3, 4], 6, 1.0);
        let (inputs, y) = net.forward_range(0, net.len(), &x);
        let g = net.backward_range(
            0,
            net.len(),
            &inputs,
            &Tensor::from_vec(y.shape(), vec![1.0; y.len()]),
        );
        assert_eq!(g.per_layer.len(), 3);
        assert!(!g.per_layer[0].0.is_empty());
        assert!(g.per_layer[1].0.is_empty(), "relu has no params");
        assert_eq!(g.input.shape(), &[3, 4]);
    }

    #[test]
    fn apply_changes_only_param_layers() {
        let mut net = EngineNet::mlp(&[2, 2], 9);
        let before = net.clone();
        let grads = vec![(
            Tensor::from_vec(&[2, 2], vec![1.0; 4]),
            Tensor::from_vec(&[2], vec![1.0; 2]),
        )];
        net.apply_range(0, &grads, 0.1);
        assert_ne!(net, before);
    }
}
