//! GPU memory footprint model.
//!
//! Training a slice of a model with batch `b` must hold:
//!
//! * **parameter state** — weights + gradients + SGD momentum = 3 × parameter bytes;
//! * **activations** — every unit's output for the forward pass, the matching
//!   gradient buffers for the backward pass, and framework working copies
//!   (pre-activation outputs, cuDNN im2col workspace) = 3 × per-sample activation
//!   bytes × `b`;
//! * **framework overhead** — allocator slack, cuDNN workspaces, CUDA context;
//!   modelled as a constant reserve.
//!
//! Calibration target (§II-B footnote 3): full VGG19 on a 12 GB K40c fits at batch
//! 32 but not above. The memory model is what makes "just raise the data-parallel
//! batch size" impossible, forcing the multi-node regime the paper studies.

use fela_model::Model;
use serde::Serialize;

use crate::device::DeviceProfile;

/// Activation storage multiplier: forward outputs, backward gradient buffers and
/// framework working copies (see module docs).
pub const ACTIVATION_FACTOR: u64 = 3;

/// Memory-feasibility model for one device.
#[derive(Clone, Debug, Serialize)]
pub struct MemoryModel {
    /// Device whose memory bounds apply.
    pub device: DeviceProfile,
    /// Constant bytes reserved for CUDA context, cuDNN workspace and allocator
    /// slack (~1.5 GB on Kepler-era PyTorch).
    pub framework_reserve: u64,
}

impl MemoryModel {
    /// K40c memory model.
    pub fn k40c() -> Self {
        MemoryModel {
            device: DeviceProfile::k40c(),
            framework_reserve: 1_500_000_000,
        }
    }

    /// Bytes needed to train the unit range `[start, end)` at `batch`.
    fn range_bytes(&self, model: &Model, start: usize, end: usize, batch: u64) -> u64 {
        let param_bytes: u64 = model.param_bytes_in(start..end);
        let act_bytes_per_sample: u64 = model.layers()[start..end]
            .iter()
            .map(|l| l.activation_bytes())
            .sum();
        3 * param_bytes + ACTIVATION_FACTOR * act_bytes_per_sample * batch + self.framework_reserve
    }

    /// Largest power-of-two batch at which the unit range fits (0 if even batch 1
    /// does not fit).
    pub fn max_pow2_batch_range(&self, model: &Model, start: usize, end: usize) -> u64 {
        let mut best = 0;
        let mut b = 1u64;
        while b <= 1 << 20 {
            if self.range_bytes(model, start, end, b) <= self.device.mem_bytes {
                best = b;
            } else {
                break;
            }
            b <<= 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_model::zoo;

    #[test]
    fn footnote3_vgg19_fits_at_32_not_64() {
        let mm = MemoryModel::k40c();
        let vgg = zoo::vgg19();
        assert_eq!(
            mm.max_pow2_batch_range(&vgg, 0, vgg.len()),
            32,
            "paper: batch 32 still fits, batch >32 exceeds 12 GB"
        );
    }

    #[test]
    fn googlenet_at_32px_fits_large_batches() {
        let mm = MemoryModel::k40c();
        let g = zoo::googlenet();
        assert!(
            mm.max_pow2_batch_range(&g, 0, g.len()) >= 1024,
            "tiny inputs leave plenty of room"
        );
    }

    #[test]
    fn sub_models_fit_at_their_thresholds() {
        // The premise of flexible parallelism: each sub-model *can* run at its own
        // threshold batch even though the whole model cannot.
        let mm = MemoryModel::k40c();
        let cm = crate::ComputeModel::k40c();
        let vgg = zoo::vgg19();
        let p =
            fela_model::bin_partition(&vgg, &cm.profile, fela_model::PartitionOptions::default());
        for sm in p.sub_models() {
            assert!(
                mm.max_pow2_batch_range(&vgg, sm.unit_start, sm.unit_end) >= sm.threshold_batch,
                "sub-model {} must fit at its threshold batch {}",
                sm.index,
                sm.threshold_batch
            );
        }
    }

    #[test]
    fn memory_grows_linearly_with_batch() {
        let mm = MemoryModel::k40c();
        let vgg = zoo::vgg19();
        let [b8, b16, b24] = [8, 16, 24].map(|b| mm.range_bytes(&vgg, 0, vgg.len(), b));
        assert_eq!(b24 - b16, b16 - b8, "activation term is linear in batch");
    }

    #[test]
    fn range_bytes_dominated_by_activations_for_conv() {
        let mm = MemoryModel::k40c();
        let vgg = zoo::vgg19();
        // Front conv slice at batch 64: activations dwarf parameters.
        let with_acts = mm.range_bytes(&vgg, 0, 5, 64);
        let params_only = 3 * vgg.param_bytes_in(0..5) + mm.framework_reserve;
        assert!(with_acts > 4 * params_only);
    }
}
