//! The analytic compute-time model (reproduces Figure 1).
//!
//! A layer's training throughput at batch `b` is
//!
//! ```text
//! throughput(b) = max_throughput · saturation_fraction(b, threshold)
//! max_throughput = device.effective_flops() / train_flops_per_sample
//! ```
//!
//! where `train_flops_per_sample = 3 × forward_flops` (the backward pass costs about
//! twice the forward pass: one gradient-w.r.t.-input and one gradient-w.r.t.-weights
//! product per forward product) and `saturation_fraction` is the concave rise of
//! [`fela_model::saturation_fraction`], parameterised by the layer's threshold batch
//! from the device's [`ThresholdProfile`]. Small batches therefore under-utilise the
//! GPU exactly as §II-B describes, which is the effect flexible parallelism exploits.
//!
//! Times are returned as `f64` seconds; callers at the simulation boundary convert
//! to `SimDuration`.

use fela_model::{saturation_fraction, Layer, Model, ThresholdProfile};
use serde::Serialize;

use crate::device::DeviceProfile;

/// Ratio of training (fwd+bwd) FLOPs to forward FLOPs.
pub const TRAIN_TO_FORWARD_FLOPS: f64 = 3.0;

/// The compute-time model for one device.
#[derive(Clone, Debug, Serialize)]
pub struct ComputeModel {
    /// The device being modelled.
    pub device: DeviceProfile,
    /// The threshold-batch repository for the device.
    pub profile: ThresholdProfile,
    /// Fixed wall time per kernel launch, batch-independent: CUDA dispatch,
    /// framework (PyTorch-era) Python/C++ overhead and the paper's own
    /// *virtual-layer* hooks (§IV-C). Dominates tiny-feature-map models like
    /// GoogLeNet on 32×32 inputs; "trivial" (the paper's word) for VGG-scale
    /// layers. Charged per kernel, forward and backward alike.
    pub kernel_overhead_secs: f64,
}

impl ComputeModel {
    /// A K40c compute model with the paper's calibration (2 ms per kernel
    /// launch round-trip on the 2019-era PyTorch + hook stack).
    pub fn k40c() -> Self {
        ComputeModel {
            device: DeviceProfile::k40c(),
            profile: ThresholdProfile::k40c(),
            kernel_overhead_secs: 2.0e-3,
        }
    }

    /// Peak training throughput of `layer` in samples/second (the plateau of its
    /// Figure 1 curve).
    pub fn layer_max_throughput(&self, layer: &Layer) -> f64 {
        let train_flops = layer.kind.forward_flops().max(1) as f64 * TRAIN_TO_FORWARD_FLOPS;
        self.device.effective_flops() / train_flops
    }

    /// FLOP-limited training throughput of `layer` at `batch`, in samples/second
    /// (saturation curve only; the fixed launch overhead is added by
    /// [`ComputeModel::layer_time`]).
    fn layer_throughput(&self, layer: &Layer, batch: u64) -> f64 {
        let threshold = self.profile.threshold_for(layer).unwrap_or(1);
        self.layer_max_throughput(layer) * saturation_fraction(batch, threshold)
    }

    /// Wall time in seconds to train `layer` on a batch of `batch` samples:
    /// the saturation-curve FLOP time plus the fixed launch overhead (forward +
    /// backward ≈ 3 kernel rounds per forward kernel).
    pub fn layer_time(&self, layer: &Layer, batch: u64) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let flops_time = batch as f64 / self.layer_throughput(layer, batch);
        let overhead =
            TRAIN_TO_FORWARD_FLOPS * layer.kind.kernel_count() as f64 * self.kernel_overhead_secs;
        flops_time + overhead
    }

    /// Wall time in seconds to train the unit range `[start, end)` of `model` on a
    /// batch of `batch` samples. Layers execute sequentially on the device, so
    /// times add; each layer saturates (or fails to) independently.
    pub fn range_time(&self, model: &Model, start: usize, end: usize, batch: u64) -> f64 {
        model.layers()[start..end]
            .iter()
            .map(|l| self.layer_time(l, batch))
            .sum()
    }

    /// [`ComputeModel::range_time`] under a memory constraint: if `batch` does not
    /// fit on the device, the range is trained in the largest feasible
    /// power-of-two micro-batches with gradient accumulation (what a data-parallel
    /// PyTorch worker must do when its per-worker batch exceeds GPU memory —
    /// §II-B footnote 3). The utilisation penalty of the smaller chunks falls out
    /// of the saturation curves automatically.
    ///
    /// # Panics
    /// Panics if even a single sample does not fit.
    pub fn chunked_range_time(
        &self,
        memory: &crate::MemoryModel,
        model: &Model,
        start: usize,
        end: usize,
        batch: u64,
    ) -> f64 {
        let max_b = memory.max_pow2_batch_range(model, start, end);
        assert!(max_b > 0, "range does not fit on the device at batch 1");
        if batch <= max_b {
            return self.range_time(model, start, end, batch);
        }
        let full_chunks = batch / max_b;
        let rem = batch % max_b;
        let mut t = self.range_time(model, start, end, max_b) * full_chunks as f64;
        if rem > 0 {
            t += self.range_time(model, start, end, rem);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_model::zoo;

    fn model() -> Model {
        zoo::vgg19()
    }

    /// A full forward+backward pass of the whole model, in seconds.
    fn model_time(cm: &ComputeModel, m: &Model, batch: u64) -> f64 {
        cm.range_time(m, 0, m.len(), batch)
    }

    fn layer<'m>(m: &'m Model, name: &str) -> &'m Layer {
        m.layers().iter().find(|l| l.name == name).unwrap()
    }

    #[test]
    fn figure1a_front_conv_saturates_at_16() {
        let cm = ComputeModel::k40c();
        let m = model();
        let front = layer(&m, "conv1_2"); // (64,64,224,224)
        let t16 = cm.layer_throughput(front, 16);
        let t64 = cm.layer_throughput(front, 64);
        let max = cm.layer_max_throughput(front);
        // At the threshold the layer is near-saturated (launch overhead shaves a
        // few percent off the pure-FLOP asymptote); quadrupling the batch buys
        // little more throughput — the Figure 1(a) plateau.
        assert!(t16 >= 0.88 * max, "t16 {t16} max {max}");
        assert!(t64 / t16 < 1.08);
    }

    #[test]
    fn figure1b_back_conv_needs_64() {
        let cm = ComputeModel::k40c();
        let m = model();
        let back = layer(&m, "conv5_2"); // (512,512,14,14)
        let max = cm.layer_max_throughput(back);
        assert!(
            cm.layer_throughput(back, 16) < 0.85 * max,
            "16 must not saturate"
        );
        assert!(cm.layer_throughput(back, 64) >= 0.88 * max, "64 saturates");
    }

    #[test]
    fn figure1c_fc_needs_2048() {
        let cm = ComputeModel::k40c();
        let m = model();
        let fc = layer(&m, "fc7"); // (4096,4096)
        let max = cm.layer_max_throughput(fc);
        assert!(
            cm.layer_throughput(fc, 64) < 0.4 * max,
            "64 far from saturating FC"
        );
        assert!(cm.layer_throughput(fc, 2048) >= 0.88 * max);
    }

    #[test]
    fn throughput_is_monotone_in_batch() {
        let cm = ComputeModel::k40c();
        let m = model();
        for name in ["conv1_1", "conv3_2", "conv5_4", "fc6"] {
            let l = layer(&m, name);
            let mut last = 0.0;
            for b in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
                let t = cm.layer_throughput(l, b);
                assert!(t >= last, "{name} throughput dipped at batch {b}");
                last = t;
            }
        }
    }

    #[test]
    fn time_scales_superlinearly_below_threshold_only() {
        let cm = ComputeModel::k40c();
        let m = model();
        let back = layer(&m, "conv5_2");
        // Below the threshold, doubling the batch costs less than double the time
        // (better utilisation); above it, time is ~linear in batch.
        let t16 = cm.layer_time(back, 16);
        let t32 = cm.layer_time(back, 32);
        assert!(t32 < 2.0 * t16 * 0.99);
        let t256 = cm.layer_time(back, 256);
        let t512 = cm.layer_time(back, 512);
        assert!((t512 / t256 - 2.0).abs() < 0.06);
    }

    #[test]
    fn k40c_vgg19_magnitude_sane() {
        // VGG19 on a K40c trains around 20–60 samples/s at saturation; the model
        // should land in that regime rather than being off by orders of magnitude.
        let cm = ComputeModel::k40c();
        let thr = 64.0 / model_time(&cm, &model(), 64);
        assert!(
            (10.0..100.0).contains(&thr),
            "VGG19 throughput {thr} samples/s out of plausible range"
        );
    }

    #[test]
    fn range_time_adds_up() {
        let cm = ComputeModel::k40c();
        let m = model();
        let total = model_time(&cm, &m, 32);
        let split: f64 = cm.range_time(&m, 0, 10, 32) + cm.range_time(&m, 10, m.len(), 32);
        assert!((total - split).abs() < 1e-9 * total);
    }

    #[test]
    fn zero_batch_is_free() {
        let cm = ComputeModel::k40c();
        let m = model();
        assert_eq!(cm.layer_time(layer(&m, "fc6"), 0), 0.0);
        assert_eq!(model_time(&cm, &m, 0), 0.0);
    }

    #[test]
    fn sub_model_times_cover_model() {
        let cm = ComputeModel::k40c();
        let m = model();
        let p = fela_model::bin_partition(&m, &cm.profile, fela_model::PartitionOptions::default());
        let sum: f64 = p
            .sub_models()
            .iter()
            .map(|sm| cm.range_time(&m, sm.unit_start, sm.unit_end, 64))
            .sum();
        let total = model_time(&cm, &m, 64);
        assert!((sum - total).abs() < 1e-9 * total);
    }

    #[test]
    fn chunked_time_kicks_in_above_memory_limit() {
        let cm = ComputeModel::k40c();
        let mm = crate::MemoryModel::k40c();
        let m = model();
        // Below the 32-sample limit: identical to the plain range time.
        let plain = model_time(&cm, &m, 32);
        let chunked = cm.chunked_range_time(&mm, &m, 0, m.len(), 32);
        assert_eq!(plain, chunked);
        // Above it: 128 = 4 chunks of 32 — strictly slower than a hypothetical
        // unchunked 128 (which would saturate conv5/fc better).
        let c128 = cm.chunked_range_time(&mm, &m, 0, m.len(), 128);
        assert!((c128 - 4.0 * plain).abs() < 1e-9 * c128);
        assert!(c128 > model_time(&cm, &m, 128));
        // Non-multiple remainder handled.
        let c40 = cm.chunked_range_time(&mm, &m, 0, m.len(), 40);
        assert!((c40 - (plain + model_time(&cm, &m, 8))).abs() < 1e-9 * c40);
    }

    #[test]
    fn googlenet_much_faster_than_vgg19() {
        let cm = ComputeModel::k40c();
        let g = zoo::googlenet();
        // Per-sample cost difference shows up as time difference at equal batch.
        assert!(model_time(&cm, &g, 64) < model_time(&cm, &model(), 64) / 5.0);
    }
}
