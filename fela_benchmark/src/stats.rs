//! Order statistics, output digests and peak-memory readings.

/// Linear-interpolation quantile of `samples` (`q` in `[0, 1]`); `NaN` when
/// empty. Same definition as NumPy's default and Python's
/// `statistics.quantiles(method="inclusive")`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// 64-bit FNV-1a: a stable digest for comparing outputs across reps and
/// against pinned values (not a cryptographic hash).
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Resets the process's peak resident set size (`VmHWM`) so the next reading
/// covers only what runs after this call. Best effort: without the Linux
/// `clear_refs` interface the next reading is the peak since process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in MiB since the last [`reset_peak_rss`], from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_separates_inputs() {
        assert_ne!(digest(b"ab"), digest(b"ba"));
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
    }
}
