//! Offline bin-partitioned model splitting (§IV-A, Figure 5).
//!
//! The model is cut into consecutive **sub-models**, each with approximately uniform
//! threshold batch size, in two steps:
//!
//! 1. **Binning.** Each weighted layer's threshold batch (from a
//!    [`ThresholdProfile`]) is mapped to a bin `floor(threshold / bin_width)`;
//!    consecutive layers in the same bin form one group. Parameter-free layers
//!    (pooling) attach to the group of the preceding weighted layer.
//! 2. **Coarsening.** While there are more groups than `target_max`, the adjacent
//!    pair with the smallest log-scale threshold distance is merged (leftmost on
//!    ties). This reproduces the paper's 3-way VGG19 split — the 48- and 64-threshold
//!    CONV classes merge into "layers 9–16" while the FC group stays separate — and
//!    caps the tuner's search-space size, which is the stated reason for
//!    coarse-grained partitioning.
//!
//! A sub-model whose parameters are dominated by FC layers is flagged
//! *communication-intensive* (the CTD policy's target, §III-F).

use serde::{Deserialize, Serialize};

use crate::model::Model;
use crate::profile::ThresholdProfile;

/// One contiguous slice of the model, scheduled as a unit ("SM-i" in the paper).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SubModel {
    /// Zero-based sub-model index (SM-1 has index 0).
    pub index: usize,
    /// Range of unit indices into [`Model::layers`].
    pub unit_start: usize,
    /// Exclusive end of the unit range.
    pub unit_end: usize,
    /// First weighted-layer ordinal (1-based, as the paper counts "Layer 1~8").
    pub first_weighted: u64,
    /// Last weighted-layer ordinal (inclusive).
    pub last_weighted: u64,
    /// Threshold batch size — the largest member threshold, i.e. the batch needed
    /// to saturate the GPU on every member layer.
    pub threshold_batch: u64,
    /// Trainable parameter bytes.
    pub param_bytes: u64,
    /// Forward FLOPs per sample.
    pub forward_flops: u64,
    /// Per-sample output activation bytes (the boundary shipped to the next
    /// sub-model; for the last sub-model, the network output).
    pub output_bytes_per_sample: u64,
    /// Per-sample input activation bytes (boundary received from the previous
    /// sub-model; for the first sub-model, the raw sample bytes).
    pub input_bytes_per_sample: u64,
    /// True if the sub-model contains any FC layer — the paper's criterion for
    /// communication-intensive sub-models (>90% of sync cost, <10% of compute).
    pub comm_intensive: bool,
}

/// A complete partitioning of a model.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Partition {
    /// Name of the partitioned model.
    pub model_name: String,
    /// The sub-models, in network order.
    pub sub_models: Vec<SubModel>,
}

impl Partition {
    /// Number of sub-models (M in the paper).
    pub fn len(&self) -> usize {
        self.sub_models.len()
    }

    /// True if there are no sub-models (never produced by [`bin_partition`]).
    pub fn is_empty(&self) -> bool {
        self.sub_models.is_empty()
    }

    /// The sub-models.
    pub fn sub_models(&self) -> &[SubModel] {
        &self.sub_models
    }

    /// Total parameter bytes across sub-models (= the model's).
    pub fn total_param_bytes(&self) -> u64 {
        self.sub_models.iter().map(|s| s.param_bytes).sum()
    }
}

/// Options for [`bin_partition`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PartitionOptions {
    /// Bin width for threshold batching; the paper uses 16 (§IV-A).
    pub bin_width: u64,
    /// Maximum number of sub-models after coarsening; `None` keeps the raw bins.
    pub target_max: Option<usize>,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            bin_width: 16,
            target_max: Some(3),
        }
    }
}

struct Group {
    unit_start: usize,
    unit_end: usize,
    first_weighted: u64,
    last_weighted: u64,
    bin: u64,
    threshold: u64,
    has_fc: bool,
}

/// Partitions `model` using `profile` thresholds.
///
/// # Panics
/// Panics if the model has no weighted layers or `bin_width` is zero.
pub fn bin_partition(
    model: &Model,
    profile: &ThresholdProfile,
    opts: PartitionOptions,
) -> Partition {
    assert!(opts.bin_width > 0, "bin width must be positive");

    // Step 1: group consecutive weighted layers by bin; attach pools.
    let mut groups: Vec<Group> = Vec::new();
    let mut weighted_ordinal = 0u64;
    for (idx, layer) in model.layers().iter().enumerate() {
        match profile.threshold_for(layer) {
            None => {
                // Parameter-free: attach to the current group if one exists;
                // otherwise it will be absorbed by the first group below.
                if let Some(last) = groups.last_mut() {
                    last.unit_end = idx + 1;
                }
            }
            Some(threshold) => {
                weighted_ordinal += layer.kind.weighted_depth();
                let bin = threshold / opts.bin_width;
                let start_ordinal = weighted_ordinal + 1 - layer.kind.weighted_depth();
                match groups.last_mut() {
                    Some(last) if last.bin == bin => {
                        last.unit_end = idx + 1;
                        last.last_weighted = weighted_ordinal;
                        last.threshold = last.threshold.max(threshold);
                        last.has_fc |= layer.kind.is_fc();
                    }
                    _ => groups.push(Group {
                        unit_start: if groups.is_empty() { 0 } else { idx },
                        unit_end: idx + 1,
                        first_weighted: start_ordinal,
                        last_weighted: weighted_ordinal,
                        bin,
                        threshold,
                        has_fc: layer.kind.is_fc(),
                    }),
                }
            }
        }
    }
    assert!(
        !groups.is_empty(),
        "model {} has no weighted layers to partition",
        model.name
    );
    // Leading pools (if any) belong to the first group.
    groups[0].unit_start = 0;
    // A new group must start where the previous ended (pools between groups were
    // attached to the earlier group, so close any gaps).
    for i in 1..groups.len() {
        groups[i].unit_start = groups[i - 1].unit_end;
    }
    if let Some(last) = groups.last_mut() {
        last.unit_end = model.len();
    }

    // Step 2: coarsen to `target_max` groups by merging the adjacent pair with the
    // smallest log-threshold distance.
    if let Some(target) = opts.target_max {
        assert!(target >= 1, "target_max must be at least 1");
        while groups.len() > target {
            let mut best = 0usize;
            let mut best_dist = f64::INFINITY;
            for i in 0..groups.len() - 1 {
                let a = groups[i].threshold.max(1) as f64;
                let b = groups[i + 1].threshold.max(1) as f64;
                let dist = (b.log2() - a.log2()).abs();
                if dist < best_dist {
                    best_dist = dist;
                    best = i;
                }
            }
            let right = groups.remove(best + 1);
            let left = &mut groups[best];
            left.unit_end = right.unit_end;
            left.last_weighted = right.last_weighted;
            left.threshold = left.threshold.max(right.threshold);
            left.bin = left.threshold / opts.bin_width;
            left.has_fc |= right.has_fc;
        }
    }

    // Materialise sub-models with cost accounting.
    let sub_models = groups
        .iter()
        .enumerate()
        .map(|(index, g)| {
            let range = g.unit_start..g.unit_end;
            let param_bytes = model.param_bytes_in(range.clone());
            let forward_flops = model.layers()[range.clone()]
                .iter()
                .map(|l| l.kind.forward_flops())
                .sum();
            let output_bytes_per_sample = model.boundary_bytes(g.unit_end - 1);
            let input_bytes_per_sample = if g.unit_start == 0 {
                model.input_bytes()
            } else {
                model.boundary_bytes(g.unit_start - 1)
            };
            SubModel {
                index,
                unit_start: g.unit_start,
                unit_end: g.unit_end,
                first_weighted: g.first_weighted,
                last_weighted: g.last_weighted,
                threshold_batch: g.threshold,
                param_bytes,
                forward_flops,
                output_bytes_per_sample,
                input_bytes_per_sample,
                comm_intensive: g.has_fc,
            }
        })
        .collect();

    Partition {
        model_name: model.name.clone(),
        sub_models,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn k40c() -> ThresholdProfile {
        ThresholdProfile::k40c()
    }

    #[test]
    fn vgg19_reproduces_figure5_three_way_split() {
        let model = zoo::vgg19();
        let p = bin_partition(&model, &k40c(), PartitionOptions::default());
        assert_eq!(p.len(), 3, "paper: VGG19 splits into 3 sub-models");
        let sm = p.sub_models();
        // Layer 1~8 (CONV), Layer 9~16 (CONV), Layer 17~19 (FC).
        assert_eq!((sm[0].first_weighted, sm[0].last_weighted), (1, 8));
        assert_eq!((sm[1].first_weighted, sm[1].last_weighted), (9, 16));
        assert_eq!((sm[2].first_weighted, sm[2].last_weighted), (17, 19));
        assert!(!sm[0].comm_intensive);
        assert!(!sm[1].comm_intensive);
        assert!(
            sm[2].comm_intensive,
            "FC sub-model is communication-intensive"
        );
        // Thresholds echo Figure 3's 16/32-ish/64/2048 progression.
        assert_eq!(sm[0].threshold_batch, 24);
        assert_eq!(sm[1].threshold_batch, 64);
        assert_eq!(sm[2].threshold_batch, 2048);
    }

    #[test]
    fn vgg19_cost_split_matches_conv_fc_folklore() {
        let model = zoo::vgg19();
        let p = bin_partition(&model, &k40c(), PartitionOptions::default());
        let sm = p.sub_models();
        // FC sub-model holds >80% of parameters but <10% of compute (§III-F).
        let total_params = p.total_param_bytes();
        assert!(sm[2].param_bytes * 10 > total_params * 8);
        let total_flops: u64 = sm.iter().map(|s| s.forward_flops).sum();
        assert!(sm[2].forward_flops * 10 < total_flops);
    }

    #[test]
    fn partition_covers_every_unit_exactly_once() {
        for model in [zoo::vgg19(), zoo::googlenet(), zoo::alexnet()] {
            let p = bin_partition(&model, &k40c(), PartitionOptions::default());
            let mut next = 0usize;
            for s in p.sub_models() {
                assert_eq!(s.unit_start, next, "gap or overlap in {}", model.name);
                assert!(s.unit_end > s.unit_start);
                next = s.unit_end;
            }
            assert_eq!(
                next,
                model.len(),
                "trailing units uncovered in {}",
                model.name
            );
            assert_eq!(p.total_param_bytes(), model.param_bytes());
        }
    }

    #[test]
    fn googlenet_splits_into_three() {
        let model = zoo::googlenet();
        let p = bin_partition(&model, &k40c(), PartitionOptions::default());
        assert_eq!(p.len(), 3, "paper: GoogLeNet also splits into 3 sub-models");
        let sm = p.sub_models();
        // Paper §IV-A: {stem + inception3*}, {inception4*}, {inception5* + FC}.
        let group_of = |name: &str| {
            let idx = model.layers().iter().position(|l| l.name == name).unwrap();
            sm.iter()
                .position(|s| (s.unit_start..s.unit_end).contains(&idx))
                .unwrap()
        };
        assert_eq!(group_of("conv1"), 0);
        assert_eq!(group_of("inception3b"), 0);
        assert_eq!(group_of("inception4a"), 1);
        assert_eq!(group_of("inception4e"), 1);
        assert_eq!(group_of("inception5a"), 2);
        assert_eq!(group_of("fc"), 2);
        // FC lands in the final sub-model ("Layer 10~12 (CONV+FC)").
        assert!(sm[2].comm_intensive);
        assert!(!sm[0].comm_intensive && !sm[1].comm_intensive);
    }

    #[test]
    fn no_target_keeps_raw_bins() {
        let model = zoo::vgg19();
        let raw = bin_partition(
            &model,
            &k40c(),
            PartitionOptions {
                bin_width: 16,
                target_max: None,
            },
        );
        // Raw bins: {conv@224,112,56}, {conv@28}, {conv@14}, {fc} = 4 groups.
        assert_eq!(raw.len(), 4);
    }

    #[test]
    fn target_one_merges_everything() {
        let model = zoo::vgg19();
        let p = bin_partition(
            &model,
            &k40c(),
            PartitionOptions {
                bin_width: 16,
                target_max: Some(1),
            },
        );
        assert_eq!(p.len(), 1);
        let s = &p.sub_models()[0];
        assert_eq!((s.unit_start, s.unit_end), (0, model.len()));
        assert_eq!((s.first_weighted, s.last_weighted), (1, 19));
    }

    #[test]
    fn boundary_bytes_chain() {
        let model = zoo::vgg19();
        let p = bin_partition(&model, &k40c(), PartitionOptions::default());
        let sm = p.sub_models();
        // Each sub-model's input boundary equals the previous one's output.
        for w in sm.windows(2) {
            assert_eq!(w[1].input_bytes_per_sample, w[0].output_bytes_per_sample);
        }
        assert_eq!(sm[0].input_bytes_per_sample, model.input_bytes());
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_rejected() {
        let model = zoo::lenet5();
        let _ = bin_partition(
            &model,
            &k40c(),
            PartitionOptions {
                bin_width: 0,
                target_max: None,
            },
        );
    }

    #[test]
    fn thresholds_nondecreasing_for_vgg() {
        let model = zoo::vgg19();
        let p = bin_partition(&model, &k40c(), PartitionOptions::default());
        let t: Vec<_> = p.sub_models().iter().map(|s| s.threshold_batch).collect();
        assert!(t.windows(2).all(|w| w[0] <= w[1]), "{t:?}");
    }
}
