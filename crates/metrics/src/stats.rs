//! Small statistics helpers shared by the experiment harnesses.

/// Minimum; `None` for an empty slice (NaNs are ignored).
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).reduce(f64::min)
}

/// Maximum; `None` for an empty slice (NaNs are ignored).
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).reduce(f64::max)
}

/// The paper's Figure 6(a) normalisation: maps each value to
/// `(x − min) / (max − min)` so the best case reads 0 and the worst reads 1.
/// A constant series maps to all zeros.
pub fn normalize_unit(xs: &[f64]) -> Vec<f64> {
    let (Some(lo), Some(hi)) = (min(xs), max(xs)) else {
        return Vec::new();
    };
    let span = hi - lo;
    if span <= 0.0 {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|x| (x - lo) / span).collect()
}

/// Best-vs-worst saving, the Figure 6(b) quantity: `(max − min) / max`, i.e. the
/// fraction of per-iteration time the best configuration saves relative to the
/// worst. 0 for empty or constant input.
pub fn best_worst_saving(xs: &[f64]) -> f64 {
    match (min(xs), max(xs)) {
        (Some(lo), Some(hi)) if hi > 0.0 => (hi - lo) / hi,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max_basics() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(3.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn normalize_maps_to_unit_interval() {
        let n = normalize_unit(&[10.0, 20.0, 15.0]);
        assert_eq!(n, vec![0.0, 1.0, 0.5]);
    }

    #[test]
    fn normalize_constant_series() {
        assert_eq!(normalize_unit(&[5.0, 5.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn best_worst_saving_matches_paper_example() {
        // If the worst case takes 2.0 s and the best 1.0 s the best saves 50%.
        assert!((best_worst_saving(&[1.0, 1.5, 2.0]) - 0.5).abs() < 1e-12);
        assert_eq!(best_worst_saving(&[]), 0.0);
    }
}
