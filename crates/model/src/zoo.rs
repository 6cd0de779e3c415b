//! The model zoo: builders for the networks the paper references.
//!
//! [`vgg19`] and [`googlenet`] are the two evaluation benchmarks (§V-A, with input
//! `(batch, 3, 224, 224)` and `(batch, 3, 32, 32)` respectively). The remaining
//! builders back Table I ("Growing Neural Network Layer Numbers"): each built model's
//! [`Model::weighted_depth`] must equal the layer number the paper lists, which the
//! tests at the bottom of this module assert. CUImage and SENet appear in Table I but
//! have no public layer-exact architecture, so they are metadata-only entries.

use serde::{Deserialize, Serialize};

use crate::layer::{InceptionBranch, Layer, LayerKind, SpatialShape};
use crate::model::Model;

/// One row of Table I.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Model name as printed in the paper.
    pub name: &'static str,
    /// Publication year.
    pub year: u32,
    /// Number of weighted layers.
    pub layer_number: u64,
    /// Whether this repository can build the full architecture.
    pub buildable: bool,
}

/// Table I of the paper, verbatim.
pub const TABLE_I: &[ModelInfo] = &[
    ModelInfo {
        name: "LeNet-5",
        year: 1998,
        layer_number: 5,
        buildable: true,
    },
    ModelInfo {
        name: "AlexNet",
        year: 2012,
        layer_number: 8,
        buildable: true,
    },
    ModelInfo {
        name: "ZF Net",
        year: 2013,
        layer_number: 8,
        buildable: true,
    },
    ModelInfo {
        name: "VGG16",
        year: 2014,
        layer_number: 16,
        buildable: true,
    },
    ModelInfo {
        name: "VGG19",
        year: 2014,
        layer_number: 19,
        buildable: true,
    },
    ModelInfo {
        name: "GoogleNet",
        year: 2014,
        layer_number: 22,
        buildable: true,
    },
    ModelInfo {
        name: "ResNet-152",
        year: 2015,
        layer_number: 152,
        buildable: true,
    },
    ModelInfo {
        name: "CUImage",
        year: 2016,
        layer_number: 1207,
        buildable: false,
    },
    ModelInfo {
        name: "SENet",
        year: 2017,
        layer_number: 154,
        buildable: false,
    },
];

/// Builds the Table I model with the given name, if it is buildable.
pub fn build_by_name(name: &str) -> Option<Model> {
    match name {
        "LeNet-5" => Some(lenet5()),
        "AlexNet" => Some(alexnet()),
        "ZF Net" => Some(zf_net()),
        "VGG16" => Some(vgg16()),
        "VGG19" => Some(vgg19()),
        "GoogleNet" => Some(googlenet()),
        "ResNet-152" => Some(resnet152()),
        _ => None,
    }
}

fn conv(
    name: &str,
    shape: &mut SpatialShape,
    out_channels: u64,
    kernel: u64,
    stride: u64,
    padding: u64,
) -> Layer {
    let kind = LayerKind::Conv2d {
        input: *shape,
        out_channels,
        kernel,
        stride,
        padding,
    };
    let extent = |e: u64| (e + 2 * padding).saturating_sub(kernel) / stride + 1;
    *shape = SpatialShape::new(out_channels, extent(shape.height), extent(shape.width));
    Layer::new(name, kind)
}

fn pool(name: &str, shape: &mut SpatialShape, kernel: u64, stride: u64) -> Layer {
    let kind = LayerKind::Pool2d {
        input: *shape,
        kernel,
        stride,
    };
    let extent = |e: u64| e.saturating_sub(kernel) / stride + 1;
    *shape = SpatialShape::new(shape.channels, extent(shape.height), extent(shape.width));
    Layer::new(name, kind)
}

fn linear(name: &str, in_features: u64, out_features: u64) -> Layer {
    Layer::new(
        name,
        LayerKind::Linear {
            in_features,
            out_features,
        },
    )
}

/// LeNet-5 (1998): 2 conv + 3 FC = 5 weighted layers, 1×32×32 input.
// The builders thread a mutable shape through each layer constructor, which
// cannot move into a single `vec![]` expression.
#[allow(clippy::vec_init_then_push)]
pub fn lenet5() -> Model {
    let mut s = SpatialShape::new(1, 32, 32);
    let input = s;
    let mut layers = Vec::new();
    layers.push(conv("conv1", &mut s, 6, 5, 1, 0));
    layers.push(pool("pool1", &mut s, 2, 2));
    layers.push(conv("conv2", &mut s, 16, 5, 1, 0));
    layers.push(pool("pool2", &mut s, 2, 2));
    layers.push(linear("fc3", s.elems(), 120));
    layers.push(linear("fc4", 120, 84));
    layers.push(linear("fc5", 84, 10));
    Model::new("LeNet-5", input, layers)
}

/// AlexNet (2012): 5 conv + 3 FC = 8 weighted layers, 3×227×227 input.
// The builders thread a mutable shape through each layer constructor, which
// cannot move into a single `vec![]` expression.
#[allow(clippy::vec_init_then_push)]
pub fn alexnet() -> Model {
    let mut s = SpatialShape::new(3, 227, 227);
    let input = s;
    let mut layers = Vec::new();
    layers.push(conv("conv1", &mut s, 96, 11, 4, 0));
    layers.push(pool("pool1", &mut s, 3, 2));
    layers.push(conv("conv2", &mut s, 256, 5, 1, 2));
    layers.push(pool("pool2", &mut s, 3, 2));
    layers.push(conv("conv3", &mut s, 384, 3, 1, 1));
    layers.push(conv("conv4", &mut s, 384, 3, 1, 1));
    layers.push(conv("conv5", &mut s, 256, 3, 1, 1));
    layers.push(pool("pool5", &mut s, 3, 2));
    layers.push(linear("fc6", s.elems(), 4096));
    layers.push(linear("fc7", 4096, 4096));
    layers.push(linear("fc8", 4096, 1000));
    Model::new("AlexNet", input, layers)
}

/// ZF Net (2013): AlexNet-shaped, 5 conv + 3 FC = 8 weighted layers.
// The builders thread a mutable shape through each layer constructor, which
// cannot move into a single `vec![]` expression.
#[allow(clippy::vec_init_then_push)]
fn zf_net() -> Model {
    let mut s = SpatialShape::new(3, 224, 224);
    let input = s;
    let mut layers = Vec::new();
    layers.push(conv("conv1", &mut s, 96, 7, 2, 1));
    layers.push(pool("pool1", &mut s, 3, 2));
    layers.push(conv("conv2", &mut s, 256, 5, 2, 0));
    layers.push(pool("pool2", &mut s, 3, 2));
    layers.push(conv("conv3", &mut s, 384, 3, 1, 1));
    layers.push(conv("conv4", &mut s, 384, 3, 1, 1));
    layers.push(conv("conv5", &mut s, 256, 3, 1, 1));
    layers.push(pool("pool5", &mut s, 3, 2));
    layers.push(linear("fc6", s.elems(), 4096));
    layers.push(linear("fc7", 4096, 4096));
    layers.push(linear("fc8", 4096, 1000));
    Model::new("ZF Net", input, layers)
}

fn vgg(name: &str, convs_per_stage: &[usize]) -> Model {
    let mut s = SpatialShape::new(3, 224, 224);
    let input = s;
    let mut layers = Vec::new();
    let widths = [64u64, 128, 256, 512, 512];
    for (stage, (&n, &width)) in convs_per_stage.iter().zip(widths.iter()).enumerate() {
        for i in 0..n {
            layers.push(conv(
                &format!("conv{}_{}", stage + 1, i + 1),
                &mut s,
                width,
                3,
                1,
                1,
            ));
        }
        layers.push(pool(&format!("pool{}", stage + 1), &mut s, 2, 2));
    }
    layers.push(linear("fc6", s.elems(), 4096));
    layers.push(linear("fc7", 4096, 4096));
    layers.push(linear("fc8", 4096, 1000));
    Model::new(name, input, layers)
}

/// VGG16 (2014): 13 conv + 3 FC = 16 weighted layers.
pub fn vgg16() -> Model {
    vgg("VGG16", &[2, 2, 3, 3, 3])
}

/// VGG19 (2014): 16 conv + 3 FC = 19 weighted layers — the paper's primary
/// benchmark, with input `(batch, 3, 224, 224)`.
pub fn vgg19() -> Model {
    vgg("VGG19", &[2, 2, 4, 4, 4])
}

const fn branch(reduce: u64, kernel: u64, out: u64) -> InceptionBranch {
    InceptionBranch {
        reduce,
        kernel,
        out,
    }
}

/// GoogLeNet inception configurations `(1x1, 3x3reduce/3x3, 5x5reduce/5x5, poolproj)`.
const INCEPTIONS: &[(&str, [InceptionBranch; 4])] = &[
    (
        "inception3a",
        [
            branch(0, 1, 64),
            branch(96, 3, 128),
            branch(16, 5, 32),
            branch(32, 1, 0),
        ],
    ),
    (
        "inception3b",
        [
            branch(0, 1, 128),
            branch(128, 3, 192),
            branch(32, 5, 96),
            branch(64, 1, 0),
        ],
    ),
    (
        "inception4a",
        [
            branch(0, 1, 192),
            branch(96, 3, 208),
            branch(16, 5, 48),
            branch(64, 1, 0),
        ],
    ),
    (
        "inception4b",
        [
            branch(0, 1, 160),
            branch(112, 3, 224),
            branch(24, 5, 64),
            branch(64, 1, 0),
        ],
    ),
    (
        "inception4c",
        [
            branch(0, 1, 128),
            branch(128, 3, 256),
            branch(24, 5, 64),
            branch(64, 1, 0),
        ],
    ),
    (
        "inception4d",
        [
            branch(0, 1, 112),
            branch(144, 3, 288),
            branch(32, 5, 64),
            branch(64, 1, 0),
        ],
    ),
    (
        "inception4e",
        [
            branch(0, 1, 256),
            branch(160, 3, 320),
            branch(32, 5, 128),
            branch(128, 1, 0),
        ],
    ),
    (
        "inception5a",
        [
            branch(0, 1, 256),
            branch(160, 3, 320),
            branch(32, 5, 128),
            branch(128, 1, 0),
        ],
    ),
    (
        "inception5b",
        [
            branch(0, 1, 384),
            branch(192, 3, 384),
            branch(48, 5, 128),
            branch(128, 1, 0),
        ],
    ),
];

fn inception_out_channels(branches: &[InceptionBranch; 4]) -> u64 {
    branches
        .iter()
        .map(|b| if b.out > 0 { b.out } else { b.reduce })
        .sum()
}

/// GoogLeNet with a configurable input extent. The paper trains it on 32×32 inputs
/// (§V-A footnote 17); [`googlenet`] uses that. Weighted depth is 22 regardless of
/// extent: 3 stem convs + 9 inception blocks (deepest path 2) + final FC.
#[allow(clippy::vec_init_then_push)]
fn googlenet_for(extent: u64) -> Model {
    let mut s = SpatialShape::new(3, extent, extent);
    let input = s;
    let mut layers = Vec::new();
    layers.push(conv("conv1", &mut s, 64, 7, 2, 3));
    layers.push(pool("pool1", &mut s, 3, 2));
    layers.push(conv("conv2_reduce", &mut s, 64, 1, 1, 0));
    layers.push(conv("conv2", &mut s, 192, 3, 1, 1));
    layers.push(pool("pool2", &mut s, 3, 2));
    for (i, (name, branches)) in INCEPTIONS.iter().enumerate() {
        layers.push(Layer::new(
            *name,
            LayerKind::Inception {
                input: s,
                branches: *branches,
            },
        ));
        s = SpatialShape::new(inception_out_channels(branches), s.height, s.width);
        // Max-pools after inception 3b (index 1) and 4e (index 6); global average
        // pool after 5b (index 8).
        if i == 1 || i == 6 {
            layers.push(pool(&format!("pool{}", i + 2), &mut s, 3, 2));
        } else if i == 8 {
            {
                let k = s.height.max(1);
                layers.push(pool("avgpool", &mut s, k, 1));
            }
        }
    }
    layers.push(linear("fc", s.elems(), 1000));
    Model::new("GoogleNet", input, layers)
}

/// GoogLeNet (2014) as evaluated in the paper: 32×32 input, 22 weighted layers.
pub fn googlenet() -> Model {
    googlenet_for(32)
}

/// ResNet-152 (2015): 1 stem conv + 50 bottleneck blocks × 3 convs + 1 FC = 152
/// weighted layers. Identity shortcuts contribute no weighted layers and negligible
/// FLOPs, so they are omitted from the cost model (documented substitution).
pub fn resnet152() -> Model {
    let mut s = SpatialShape::new(3, 224, 224);
    let input = s;
    let mut layers = Vec::new();
    layers.push(conv("conv1", &mut s, 64, 7, 2, 3));
    layers.push(pool("pool1", &mut s, 3, 2));
    // (blocks, bottleneck width, output width) per stage.
    let stages: [(usize, u64, u64); 4] =
        [(3, 64, 256), (8, 128, 512), (36, 256, 1024), (3, 512, 2048)];
    for (stage_idx, &(blocks, mid, out)) in stages.iter().enumerate() {
        for b in 0..blocks {
            // First block of stages 2..4 downsamples spatially via the 3x3 conv.
            let stride = if stage_idx > 0 && b == 0 { 2 } else { 1 };
            let tag = format!("res{}_{}", stage_idx + 2, b + 1);
            layers.push(conv(&format!("{tag}_a"), &mut s, mid, 1, 1, 0));
            layers.push(conv(&format!("{tag}_b"), &mut s, mid, 3, stride, 1));
            layers.push(conv(&format!("{tag}_c"), &mut s, out, 1, 1, 0));
        }
    }
    {
        let k = s.height.max(1);
        layers.push(pool("avgpool", &mut s, k, 1));
    }
    layers.push(linear("fc", s.elems(), 1000));
    Model::new("ResNet-152", input, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_buildable_table_i_row_matches_layer_number() {
        for info in TABLE_I.iter().filter(|i| i.buildable) {
            let model = build_by_name(info.name)
                .unwrap_or_else(|| panic!("{} should be buildable", info.name));
            assert_eq!(
                model.weighted_depth(),
                info.layer_number,
                "{} weighted depth mismatch",
                info.name
            );
        }
    }

    #[test]
    fn unbuildable_rows_return_none() {
        assert!(build_by_name("CUImage").is_none());
        assert!(build_by_name("SENet").is_none());
        assert!(build_by_name("no-such-model").is_none());
    }

    #[test]
    fn vgg19_structure() {
        let m = vgg19();
        // 16 conv + 5 pool + 3 fc = 24 schedulable units.
        assert_eq!(m.len(), 24);
        // ~143.6M parameters (the well-known figure ±1%).
        let params = m.param_count();
        assert!(
            (143_000_000..145_000_000).contains(&params),
            "VGG19 params {params}"
        );
        // FC layers dominate the parameter count (the §III-F premise).
        let fc_params: u64 = m
            .layers()
            .iter()
            .filter(|l| l.kind.is_fc())
            .map(|l| l.kind.param_count())
            .sum();
        assert!(fc_params * 10 > params * 8, "FC should hold >80% of params");
        // CONV layers dominate compute.
        let conv_flops: u64 = m
            .layers()
            .iter()
            .filter(|l| !l.kind.is_fc())
            .map(|l| l.kind.forward_flops())
            .sum();
        assert!(
            conv_flops * 10 > m.forward_flops() * 9,
            "CONV should hold >90% of FLOPs"
        );
    }

    #[test]
    fn vgg19_flops_magnitude() {
        // VGG19 forward pass is ~19.6 GFLOPs-MAC*2 ≈ 39 GFLOP with our 2-per-MAC
        // convention.
        let flops = vgg19().forward_flops() as f64;
        assert!(
            (3.5e10..4.5e10).contains(&flops),
            "VGG19 fwd FLOPs {flops:e}"
        );
    }

    #[test]
    fn vgg19_fc6_input_is_25088() {
        let m = vgg19();
        let fc6 = m
            .layers()
            .iter()
            .find(|l| l.name == "fc6")
            .expect("fc6 exists");
        match fc6.kind {
            LayerKind::Linear { in_features, .. } => assert_eq!(in_features, 25088),
            _ => panic!("fc6 must be linear"),
        }
    }

    #[test]
    fn googlenet_params_magnitude() {
        // GoogLeNet is famously small: ~6-8M params (weights are extent-independent).
        let params = googlenet().param_count();
        assert!(
            (5_000_000..9_000_000).contains(&params),
            "GoogLeNet params {params}"
        );
    }

    #[test]
    fn googlenet_input_is_32() {
        let m = googlenet();
        assert_eq!(m.input, SpatialShape::new(3, 32, 32));
        // Much cheaper than VGG19 per sample, as the paper's smaller straggler
        // delays for GoogLeNet imply.
        assert!(m.forward_flops() < vgg19().forward_flops() / 50);
    }

    #[test]
    fn googlenet_224_is_more_expensive_than_32() {
        assert!(googlenet_for(224).forward_flops() > googlenet().forward_flops() * 10);
    }

    #[test]
    fn resnet152_has_152_weighted_layers() {
        assert_eq!(resnet152().weighted_depth(), 152);
    }

    #[test]
    fn resnet152_params_magnitude() {
        // ~60.2M params; identity shortcuts omitted so allow a little slack
        // (projection shortcuts would add ~6M).
        let params = resnet152().param_count();
        assert!(
            (54_000_000..62_000_000).contains(&params),
            "ResNet-152 params {params}"
        );
    }

    #[test]
    fn lenet_fc_sizes_chain() {
        let m = lenet5();
        assert_eq!(m.first_fc_index(), Some(4));
        assert_eq!(m.layers()[4].kind.param_count(), 400 * 120 + 120);
    }

    #[test]
    fn alexnet_fc6_input_is_9216() {
        let m = alexnet();
        let fc6 = m.layers().iter().find(|l| l.name == "fc6").unwrap();
        match fc6.kind {
            LayerKind::Linear { in_features, .. } => assert_eq!(in_features, 9216),
            _ => panic!(),
        }
    }
}
