//! Whole-model container and aggregate accounting.

use serde::{Deserialize, Serialize};

use crate::layer::{Layer, SpatialShape, BYTES_PER_ELEM};

/// A neural network as an ordered sequence of layers.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Model {
    /// Model name, e.g. `"VGG19"`.
    pub name: String,
    /// Per-sample input shape fed to the first layer.
    pub input: SpatialShape,
    layers: Vec<Layer>,
}

impl Model {
    /// Builds a model from its layer sequence.
    ///
    /// # Panics
    /// Panics if `layers` is empty — every timing model divides by layer counts.
    pub fn new(name: impl Into<String>, input: SpatialShape, layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "a model must have at least one layer");
        Model {
            name: name.into(),
            input,
            layers,
        }
    }

    /// The layer sequence.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of schedulable units (pooling included).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Always false (construction rejects empty models); present for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Number of weighted layers, i.e. the "layer number" reported in Table I.
    pub fn weighted_depth(&self) -> u64 {
        self.layers.iter().map(|l| l.kind.weighted_depth()).sum()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(|l| l.kind.param_count()).sum()
    }

    /// Total trainable parameter bytes (fp32).
    pub fn param_bytes(&self) -> u64 {
        self.param_count() * BYTES_PER_ELEM
    }

    /// Total forward FLOPs per sample.
    pub fn forward_flops(&self) -> u64 {
        self.layers.iter().map(|l| l.kind.forward_flops()).sum()
    }

    /// Per-sample input bytes (fp32) — the size of one training sample as shipped
    /// over the network by data-parallel workload migration.
    pub fn input_bytes(&self) -> u64 {
        self.input.elems() * BYTES_PER_ELEM
    }

    /// Index of the first fully connected layer, if any. Used by the HP (Stanza)
    /// baseline to split the model into a CONV part and an FC part.
    pub fn first_fc_index(&self) -> Option<usize> {
        self.layers.iter().position(|l| l.kind.is_fc())
    }

    /// Parameter bytes of the sub-sequence `range` of layers.
    pub fn param_bytes_in(&self, range: std::ops::Range<usize>) -> u64 {
        self.layers[range].iter().map(|l| l.param_bytes()).sum()
    }

    /// Per-sample output activation bytes of layer `idx` — the boundary transfer
    /// volume between a partition ending at `idx` and the next one.
    pub fn boundary_bytes(&self, idx: usize) -> u64 {
        self.layers[idx].activation_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    fn tiny() -> Model {
        Model::new(
            "tiny",
            SpatialShape::new(3, 8, 8),
            vec![
                Layer::new(
                    "conv1",
                    LayerKind::Conv2d {
                        input: SpatialShape::new(3, 8, 8),
                        out_channels: 4,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                ),
                Layer::new(
                    "pool1",
                    LayerKind::Pool2d {
                        input: SpatialShape::new(4, 8, 8),
                        kernel: 2,
                        stride: 2,
                    },
                ),
                Layer::new(
                    "fc1",
                    LayerKind::Linear {
                        in_features: 4 * 4 * 4,
                        out_features: 10,
                    },
                ),
            ],
        )
    }

    #[test]
    fn aggregates_sum_over_layers() {
        let m = tiny();
        assert_eq!(m.len(), 3);
        assert_eq!(m.weighted_depth(), 2);
        assert_eq!(m.param_count(), (3 * 4 * 9 + 4) + (64 * 10 + 10));
        assert_eq!(m.param_bytes(), m.param_count() * 4);
        assert!(m.forward_flops() > 0);
        assert_eq!(m.input_bytes(), 3 * 8 * 8 * 4);
    }

    #[test]
    fn weighted_indices_skip_pooling() {
        let weighted: Vec<bool> = tiny()
            .layers()
            .iter()
            .map(|l| l.kind.weighted_depth() > 0)
            .collect();
        assert_eq!(weighted, [true, false, true]);
    }

    #[test]
    fn first_fc_found() {
        assert_eq!(tiny().first_fc_index(), Some(2));
    }

    #[test]
    fn range_and_boundary_accounting() {
        let m = tiny();
        assert_eq!(m.param_bytes_in(0..1), (3 * 4 * 9 + 4) * 4);
        // conv1 output: 4x8x8 fp32.
        assert_eq!(m.boundary_bytes(0), 4 * 8 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_model_rejected() {
        let _ = Model::new("empty", SpatialShape::new(1, 1, 1), vec![]);
    }
}
