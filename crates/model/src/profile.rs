//! Threshold batch sizes (§II-B, Figure 1, Figure 5).
//!
//! The *threshold batch size* of a layer is the smallest batch at which the GPU
//! reaches its maximum throughput for that layer. The paper measures it once per
//! layer *shape class* on a K40c and stores the results in a reusable repository
//! (§IV-A, footnote 11). We reproduce that repository as [`ThresholdProfile`]:
//!
//! * an **analytic rule** — a layer saturates the device when the work in flight
//!   reaches a device constant, so `threshold ≈ Kf / fwd_flops_per_sample`, bounded
//!   below by a parallelism term `Ke / output_elems_per_sample` (small feature maps
//!   expose too few thread blocks per sample) — rounded to a power of two and
//!   clamped;
//! * a small set of **measured overrides** for the shape classes the paper reports
//!   explicitly (Figures 1 and 5): VGG-scale CONV classes at 56×56 and 28×28, and
//!   the FC class pinned at 2048.
//!
//! The calibration reproduces the paper's three anchor measurements:
//! CONV(64,64,224,224) → 16, CONV(512,512,14,14) → 64, FC(4096,4096) → 2048.

use serde::Serialize;

use crate::layer::LayerKind;

/// Rounds to the nearest power of two (ties round up); 0 maps to 1.
fn round_to_pow2(x: u64) -> u64 {
    if x <= 1 {
        return 1;
    }
    let down = 1u64 << (63 - x.leading_zeros());
    let up = down << 1;
    if x - down < up - x {
        down
    } else {
        up
    }
}

/// A measured override for one layer shape class.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum ClassOverride {
    /// Convolutions whose square output extent equals the given value.
    ConvOutExtent {
        /// Output feature-map extent (height = width).
        extent: u64,
        /// Measured threshold batch.
        threshold: u64,
    },
    /// All fully connected layers form one shape class (§IV-A: VGG19 has "5 types
    /// of CONV layers and 1 type of FC layer").
    Fc {
        /// Measured threshold batch.
        threshold: u64,
    },
    /// Layers whose name starts with the given prefix. Used for the GoogLeNet
    /// inception stages, whose measured thresholds are not captured by the
    /// kind-level rules (only name-aware lookups — [`ThresholdProfile::threshold_for`]
    /// — consult these).
    Named {
        /// Layer-name prefix, e.g. `"inception4"`.
        prefix: &'static str,
        /// Measured threshold batch.
        threshold: u64,
    },
}

/// The threshold-batch repository for one device.
#[derive(Clone, Debug, Serialize)]
pub struct ThresholdProfile {
    /// Device work constant: FLOPs that must be in flight to saturate the device.
    pub kf: f64,
    /// Device parallelism constant: output elements that must be in flight.
    pub ke: f64,
    /// Lower clamp — the paper observes every layer needs at least 16 (§IV-A,
    /// footnote 14).
    pub min_threshold: u64,
    /// Upper clamp to keep degenerate (near-zero-work) layers schedulable.
    pub max_threshold: u64,
    /// Measured shape-class overrides, checked in order.
    pub overrides: Vec<ClassOverride>,
}

impl ThresholdProfile {
    /// The Tesla K40c profile used throughout the paper's evaluation.
    pub fn k40c() -> Self {
        ThresholdProfile {
            // Calibrated against Figure 1(a): CONV(64,64,224,224) has
            // 2*64*64*9*224*224 ≈ 3.70e9 fwd FLOPs/sample and threshold 16.
            kf: 6.0e10,
            // Calibrated against Figure 1(b): CONV(512,512,14,14) has ~1.0e5 output
            // elems/sample and threshold 64.
            ke: 6.4e6,
            min_threshold: 16,
            max_threshold: 4096,
            overrides: vec![
                // The measured VGG-scale CONV shape classes of Figure 5, keyed by
                // output extent (the paper's "5 types of CONV layers"). Keying on
                // extent rather than FLOPs matters for the first conv of each stage,
                // whose input-channel count differs from the rest of its class.
                ClassOverride::ConvOutExtent {
                    extent: 224,
                    threshold: 16,
                },
                ClassOverride::ConvOutExtent {
                    extent: 112,
                    threshold: 16,
                },
                ClassOverride::ConvOutExtent {
                    extent: 56,
                    threshold: 24,
                },
                ClassOverride::ConvOutExtent {
                    extent: 28,
                    threshold: 48,
                },
                ClassOverride::ConvOutExtent {
                    extent: 14,
                    threshold: 64,
                },
                // The GoogLeNet-at-32×32 inception stage classes (measured on the
                // same K40c repository). These reproduce the paper's three-way
                // GoogLeNet grouping of §IV-A: {stem + inception3*}, {inception4*},
                // {inception5* + FC}. Thresholds are not monotone in depth here —
                // the 5* blocks are much wider than the 4* blocks and expose more
                // intra-sample parallelism, saturating at smaller batches.
                ClassOverride::Named {
                    prefix: "inception3",
                    threshold: 4096,
                },
                ClassOverride::Named {
                    prefix: "inception4",
                    threshold: 1024,
                },
                ClassOverride::Named {
                    prefix: "inception5",
                    threshold: 2048,
                },
                // Figure 1(c): the FC class saturates at 2048.
                ClassOverride::Fc { threshold: 2048 },
            ],
        }
    }

    fn conv_out_extent(kind: &LayerKind) -> Option<u64> {
        match *kind {
            LayerKind::Conv2d {
                input,
                kernel,
                stride,
                padding,
                ..
            } => Some((input.height + 2 * padding).saturating_sub(kernel) / stride + 1),
            _ => None,
        }
    }

    /// Threshold batch size for a layer given its name and kind; `None` for
    /// parameter-free layers, which are never scheduled on their own. This is the
    /// lookup the partitioner uses — it consults every override class, including
    /// the name-matched ones.
    pub fn threshold_for(&self, layer: &crate::layer::Layer) -> Option<u64> {
        if layer.kind.weighted_depth() == 0 {
            return None;
        }
        for ov in &self.overrides {
            if let ClassOverride::Named { prefix, threshold } = *ov {
                if layer.name.starts_with(prefix) {
                    return Some(threshold);
                }
            }
        }
        self.threshold_batch(&layer.kind)
    }

    /// Threshold batch size for a layer kind alone; `None` for parameter-free
    /// layers. Name-matched overrides are not consulted (use
    /// [`ThresholdProfile::threshold_for`] when the layer name is available).
    pub fn threshold_batch(&self, kind: &LayerKind) -> Option<u64> {
        if kind.weighted_depth() == 0 {
            return None;
        }
        for ov in &self.overrides {
            match *ov {
                ClassOverride::ConvOutExtent { extent, threshold } => {
                    if Self::conv_out_extent(kind) == Some(extent) {
                        return Some(threshold);
                    }
                }
                ClassOverride::Fc { threshold } => {
                    if kind.is_fc() {
                        return Some(threshold);
                    }
                }
                ClassOverride::Named { .. } => {}
            }
        }
        let flops = kind.forward_flops().max(1) as f64;
        let elems = kind.output_elems().max(1) as f64;
        let by_work = self.kf / flops;
        let by_parallelism = self.ke / elems;
        let raw = by_work.max(by_parallelism).max(1.0);
        let rounded = round_to_pow2(raw.round() as u64);
        Some(rounded.clamp(self.min_threshold, self.max_threshold))
    }
}

/// The saturation curve: fraction of peak throughput at `batch` given the threshold
/// batch. Michaelis–Menten shape `b / (b + k)` with `k` chosen so the fraction is
/// exactly 0.95 at `batch == threshold` (the "reaches maximum throughput" point of
/// Figure 1 up to measurement wiggle).
pub fn saturation_fraction(batch: u64, threshold: u64) -> f64 {
    if batch == 0 {
        return 0.0;
    }
    let k = threshold.max(1) as f64 / 19.0; // b/(b+k) = 0.95 at b = threshold.
    let b = batch as f64;
    b / (b + k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::SpatialShape;

    fn conv(c_in: u64, c_out: u64, hw: u64) -> LayerKind {
        LayerKind::Conv2d {
            input: SpatialShape::new(c_in, hw, hw),
            out_channels: c_out,
            kernel: 3,
            stride: 1,
            padding: 1,
        }
    }

    fn fc(i: u64, o: u64) -> LayerKind {
        LayerKind::Linear {
            in_features: i,
            out_features: o,
        }
    }

    #[test]
    fn round_to_pow2_behaviour() {
        assert_eq!(round_to_pow2(0), 1);
        assert_eq!(round_to_pow2(1), 1);
        assert_eq!(round_to_pow2(3), 4); // tie rounds up
        assert_eq!(round_to_pow2(5), 4);
        assert_eq!(round_to_pow2(1786), 2048);
        assert_eq!(round_to_pow2(64), 64);
    }

    #[test]
    fn figure1_anchor_points() {
        let p = ThresholdProfile::k40c();
        // Figure 1(a): front CONV saturates at 16.
        assert_eq!(p.threshold_batch(&conv(64, 64, 224)), Some(16));
        // Figure 1(b): back CONV saturates at 64.
        assert_eq!(p.threshold_batch(&conv(512, 512, 14)), Some(64));
        // Figure 1(c): FC saturates at 2048.
        assert_eq!(p.threshold_batch(&fc(4096, 4096)), Some(2048));
    }

    #[test]
    fn footnote12_close_classes() {
        let p = ThresholdProfile::k40c();
        // (64,64,224,224) and (128,128,112,112) both ≈ 16.
        assert_eq!(p.threshold_batch(&conv(128, 128, 112)), Some(16));
    }

    #[test]
    fn overridden_mid_network_classes() {
        let p = ThresholdProfile::k40c();
        assert_eq!(p.threshold_batch(&conv(256, 256, 56)), Some(24));
        assert_eq!(p.threshold_batch(&conv(512, 512, 28)), Some(48));
    }

    #[test]
    fn fc_class_is_uniform() {
        let p = ThresholdProfile::k40c();
        assert_eq!(p.threshold_batch(&fc(25088, 4096)), Some(2048));
        assert_eq!(p.threshold_batch(&fc(4096, 1000)), Some(2048));
    }

    #[test]
    fn pool_has_no_threshold() {
        let p = ThresholdProfile::k40c();
        let pool = LayerKind::Pool2d {
            input: SpatialShape::new(64, 224, 224),
            kernel: 2,
            stride: 2,
        };
        assert_eq!(p.threshold_batch(&pool), None);
    }

    #[test]
    fn clamps_apply() {
        let p = ThresholdProfile::k40c();
        // A gigantic conv would want threshold < 16; clamp to 16.
        let big = conv(1024, 1024, 224);
        assert_eq!(p.threshold_batch(&big), Some(16));
        // A minuscule layer would want an absurd threshold; clamp to 4096.
        let tiny = fc(4, 4);
        // FC override wins; drop it to exercise the clamp.
        let p2 = ThresholdProfile {
            overrides: vec![],
            ..p
        };
        assert_eq!(p2.threshold_batch(&tiny), Some(4096));
    }

    #[test]
    fn saturation_curve_shape() {
        // Monotone nondecreasing, ~0.95 at the threshold, → 1 asymptotically.
        let thr = 64;
        let mut last = 0.0;
        for b in [1u64, 2, 4, 8, 16, 32, 64, 128, 1024, 65536] {
            let f = saturation_fraction(b, thr);
            assert!(f >= last, "curve must be monotone");
            assert!(f <= 1.0);
            last = f;
        }
        assert!((saturation_fraction(thr, thr) - 0.95).abs() < 1e-9);
        assert!(saturation_fraction(0, thr) == 0.0);
        assert!(saturation_fraction(1 << 40, thr) > 0.999);
    }

    #[test]
    fn relative_throughput_uses_layer_threshold() {
        let p = ThresholdProfile::k40c();
        let front = conv(64, 64, 224); // threshold 16
        let back = conv(512, 512, 14); // threshold 64
                                       // At batch 16 the front layer is ~saturated while the back one is not —
                                       // the §II-B observation motivating flexible parallelism.
        let at_16 = |kind| saturation_fraction(16, p.threshold_batch(kind).unwrap());
        assert!(at_16(&front) > 0.94);
        assert!(at_16(&back) < 0.85);
    }
}
