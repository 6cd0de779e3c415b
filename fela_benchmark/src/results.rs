//! The results file, the end-to-end metric catalogue and `compare`.

use std::collections::BTreeMap;

use fela_metrics::Table;
use serde::{Deserialize, Serialize};

use crate::stats::{median, quantile};

/// One end-to-end metric and the bound by which it may worsen, as a share of
/// the parent's median, before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Every end-to-end metric, reported for every workload; the same names,
/// units and bounds as `BENCHMARK.json`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "tokens_per_s",
        unit: "tokens/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.15,
    },
];

/// The order statistics of one metric's samples.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Summary {
    pub unit: String,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    pub samples: Vec<f64>,
}

impl Summary {
    /// `None` when there are no samples.
    pub fn of(unit: &str, samples: &[f64]) -> Option<Summary> {
        (!samples.is_empty()).then(|| Summary {
            unit: unit.to_string(),
            median: median(samples),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            n: samples.len(),
            samples: samples.to_vec(),
        })
    }

    /// Quartile distance as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// One workload's outcome in one set.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Set-ups and reps run, and how many of them errored, panicked or
    /// failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// End-to-end metrics from the untraced reps.
    pub metrics: BTreeMap<String, Summary>,
    /// Per-layer metrics, when traced.
    pub layers: BTreeMap<String, f64>,
}

/// Everything one invocation measured.
#[derive(Debug, Serialize, Deserialize)]
pub struct Results {
    pub seed: u64,
    pub quick: bool,
    pub seconds: f64,
    pub cores: usize,
    pub os: String,
    pub arch: String,
    /// One map from workload name to result per set.
    pub sets: Vec<BTreeMap<String, WorkloadResult>>,
}

/// Prints the end-to-end metrics of one set.
pub fn print_set(title: &str, set: &BTreeMap<String, WorkloadResult>) {
    let mut table = Table::new(
        title,
        &["workload", "metric", "unit", "median", "q1", "q3", "n"],
    );
    for (name, result) in set {
        for e in &END_TO_END {
            if let Some(s) = result.metrics.get(e.name) {
                table.row(vec![
                    name.clone(),
                    e.name.into(),
                    e.unit.into(),
                    format!("{:.4}", s.median),
                    format!("{:.4}", s.q1),
                    format!("{:.4}", s.q3),
                    s.n.to_string(),
                ]);
            }
        }
        table.row(vec![
            name.clone(),
            "failed".into(),
            "count".into(),
            format!("{} of {}", result.failed, result.attempted),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    print!("{}", table.render());
}

/// The verdict on `b` against `a` for one metric.
pub fn verdict(e: &EndToEnd, a: &Summary, b: &Summary) -> &'static str {
    let signed = |x: f64| if e.lower_is_better { x } else { -x };
    let worse_by = signed((b.median - a.median) / a.median.abs());
    if a.spread().max(b.spread()) > e.bound {
        let all = |f: &dyn Fn(f64, f64) -> bool| {
            b.samples
                .iter()
                .all(|&y| a.samples.iter().all(|&x| f(x, y)))
        };
        return if all(&|x, y| signed(y - x) < 0.0) {
            "better"
        } else if all(&|x, y| signed(y - x) > 0.0) {
            "worse"
        } else {
            "unresolved"
        };
    }
    if worse_by > e.bound {
        "worse"
    } else if worse_by < -e.bound {
        "better"
    } else {
        "unchanged"
    }
}

/// Prints the comparison of set `b` against set `a`; returns how many
/// workload × metric pairs were not `unchanged`.
pub fn print_compare(
    a: &BTreeMap<String, WorkloadResult>,
    b: &BTreeMap<String, WorkloadResult>,
) -> usize {
    let mut table = Table::new(
        "compare (B against A)",
        &[
            "workload",
            "metric",
            "A median [q1, q3]",
            "B median [q1, q3]",
            "change",
            "bound",
            "verdict",
        ],
    );
    let mut changed = 0;
    for (name, ra) in a {
        let Some(rb) = b.get(name) else { continue };
        for e in &END_TO_END {
            let (Some(sa), Some(sb)) = (ra.metrics.get(e.name), rb.metrics.get(e.name)) else {
                continue;
            };
            let v = verdict(e, sa, sb);
            changed += usize::from(v != "unchanged");
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            table.row(vec![
                name.clone(),
                e.name.into(),
                cell(sa),
                cell(sb),
                format!("{:+.1}%", (sb.median / sa.median - 1.0) * 100.0),
                format!("{:.0}%", e.bound * 100.0),
                v.into(),
            ]);
        }
    }
    print!("{}", table.render());
    changed
}

/// `fela_benchmark compare A.json B.json`: the first set of each file.
pub fn compare_files(paths: &[String]) -> Result<usize, String> {
    let [a, b] = paths else {
        return Err("usage: fela_benchmark compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let results: Results = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        if results.sets.is_empty() {
            return Err(format!("{path}: no sets"));
        }
        Ok(results)
    };
    let (a, b) = (load(a)?, load(b)?);
    if a.quick != b.quick {
        return Err("a --quick run measures other sizes than a full run".into());
    }
    Ok(print_compare(&a.sets[0], &b.sets[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(samples: &[f64]) -> Summary {
        Summary::of("s", samples).expect("samples")
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let job = &END_TO_END[1];
        let tps = &END_TO_END[2];
        let a = summary(&[1.0, 1.01, 0.99]);
        assert_eq!(verdict(job, &a, &summary(&[1.02, 1.03, 1.01])), "unchanged");
        assert_eq!(verdict(job, &a, &summary(&[1.5, 1.51, 1.49])), "worse");
        assert_eq!(verdict(tps, &a, &summary(&[1.5, 1.51, 1.49])), "better");
        let wide = summary(&[0.5, 1.0, 1.5, 2.0]);
        assert_eq!(verdict(job, &a, &wide), "unresolved");
        assert_eq!(verdict(job, &wide, &summary(&[3.0, 3.1])), "worse");
    }
}
