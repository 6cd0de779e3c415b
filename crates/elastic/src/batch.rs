//! Adaptive per-epoch batch sizing.
//!
//! When the cluster grows, keeping the global batch fixed shrinks each
//! worker's share and starves the pipeline; when it shrinks, a fixed batch
//! overloads the survivors. The elastic controller therefore scales the
//! global batch with the worker count — linearly, then rounded to the
//! nearest power of two so token splitting by power-of-two weights stays
//! exact — and clamps the result to a bounded window around the operator's
//! baseline so statistical efficiency is never silently destroyed.

use serde::Serialize;

/// The per-epoch batch schedule: the baseline batch scaled linearly with
/// `n_workers / base_workers`, rounded to the nearest power of two (ties
/// toward the smaller batch) and clamped to `[base/4, base×4]`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct BatchSchedule {
    /// The operator's baseline global batch.
    pub base_batch: u64,
    /// Worker count the baseline batch was chosen for.
    pub base_workers: usize,
}

impl BatchSchedule {
    /// A schedule rooted at the scenario's batch and initial cluster size.
    pub fn new(base_batch: u64, base_workers: usize) -> Self {
        BatchSchedule {
            base_batch,
            base_workers,
        }
    }

    /// The global batch for an epoch running on `n_workers` workers.
    pub fn batch_for(&self, n_workers: usize) -> u64 {
        if self.base_workers == 0 || n_workers == self.base_workers {
            return self.base_batch;
        }
        let scaled = self.base_batch as f64 * n_workers as f64 / self.base_workers as f64;
        let lo = (self.base_batch / 4).max(1);
        let hi = self.base_batch.saturating_mul(4);
        round_pow2(scaled).clamp(lo, hi)
    }
}

/// Rounds a positive value to the nearest power of two, ties toward the
/// smaller power (so the schedule never inflates the batch on a knife-edge).
fn round_pow2(x: f64) -> u64 {
    if x <= 1.0 {
        return 1;
    }
    let hi = (x.ceil() as u64).next_power_of_two();
    let lo = hi / 2;
    if x - lo as f64 <= hi as f64 - x {
        lo.max(1)
    } else {
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_scales_and_rounds_to_powers_of_two() {
        let s = BatchSchedule::new(256, 8);
        assert_eq!(s.batch_for(8), 256);
        assert_eq!(s.batch_for(16), 512);
        assert_eq!(s.batch_for(4), 128);
        // 9/8 × 256 = 288 → nearest pow2 is 256.
        assert_eq!(s.batch_for(9), 256);
        // 12/8 × 256 = 384 → equidistant between 256 and 512 → ties low.
        assert_eq!(s.batch_for(12), 256);
        assert_eq!(s.batch_for(13), 512);
    }

    #[test]
    fn proportional_clamps_to_a_4x_window() {
        let s = BatchSchedule::new(256, 8);
        assert_eq!(s.batch_for(1), 64, "floor at base/4");
        assert_eq!(s.batch_for(64), 1024, "ceiling at base×4");
    }

    #[test]
    fn round_pow2_edges() {
        assert_eq!(round_pow2(0.4), 1);
        assert_eq!(round_pow2(1.0), 1);
        assert_eq!(round_pow2(3.0), 2, "ties toward the smaller power");
        assert_eq!(round_pow2(3.1), 4);
        assert_eq!(round_pow2(1024.0), 1024);
    }

    #[test]
    fn every_schedule_output_is_a_power_of_two_times_clamp() {
        let s = BatchSchedule::new(256, 8);
        for n in 1..=64 {
            let b = s.batch_for(n);
            assert!(b.is_power_of_two(), "batch_for({n}) = {b} not a power of 2");
            assert!((64..=1024).contains(&b));
        }
    }
}
