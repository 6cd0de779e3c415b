//! Local shim for `criterion`: just enough API to compile and run the
//! workspace's micro-benchmarks (`Criterion::bench_function`, `Bencher::iter`,
//! `Bencher::iter_batched`, `criterion_group!`, `criterion_main!`).
//!
//! Each benchmark runs a fixed warm-up, then times every measured iteration
//! separately and reports the median with the p10–p90 spread. No plots or
//! baselines.
//!
//! Two environment variables extend the shim for the perf-trajectory tooling:
//!
//! * `FELA_BENCH_QUICK=1` — smoke mode: one warm-up and three measured
//!   iterations per benchmark, for CI jobs that record the trajectory without
//!   paying for stable numbers.
//! * `FELA_BENCH_DIR=<dir>` — when set, each benchmark group writes its results
//!   to `<dir>/BENCH_<group>.json` (created if missing) in addition to stdout,
//!   so runs leave machine-readable artifacts. Every entry carries its sample
//!   count, `median_ns`, `p10_ns` and `p90_ns`; the file records the host
//!   (`cpus`, `os`, `arch`) it ran on.

use std::time::{Duration, Instant};

/// Batch sizing hint; the shim ignores the distinction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Times closures handed to [`Criterion::bench_function`].
pub struct Bencher {
    samples: Vec<Duration>,
}

const WARMUP_ITERS: u64 = 3;
const MEASURE_ITERS: u64 = 20;
const QUICK_WARMUP_ITERS: u64 = 1;
const QUICK_MEASURE_ITERS: u64 = 3;

fn quick_mode() -> bool {
    std::env::var("FELA_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn iter_plan() -> (u64, u64) {
    if quick_mode() {
        (QUICK_WARMUP_ITERS, QUICK_MEASURE_ITERS)
    } else {
        (WARMUP_ITERS, MEASURE_ITERS)
    }
}

impl Bencher {
    /// Times `routine` over a fixed number of iterations, one sample each.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    /// Times `routine` with a fresh `setup` input per iteration. As in
    /// `criterion`, the measurement excludes the setup and dropping the
    /// routine's output: a routine that returns what it built is not timed
    /// tearing it down.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let (warmup, measure) = iter_plan();
        for _ in 0..warmup {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        self.samples.clear();
        for _ in 0..measure {
            let input = setup();
            // A benchmark runner's purpose is host time: its samples go to
            // the bench report, never into a run artifact.
            #[allow(clippy::disallowed_methods)]
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            self.samples.push(start.elapsed());
            drop(output);
        }
    }
}

/// The spread of one benchmark's per-iteration times.
#[derive(Debug)]
struct Summary {
    samples: usize,
    median_ns: f64,
    p10_ns: f64,
    p90_ns: f64,
}

impl Summary {
    fn of(samples: &[Duration]) -> Summary {
        let mut ns: Vec<f64> = samples.iter().map(|d| d.as_nanos() as f64).collect();
        ns.sort_by(f64::total_cmp);
        Summary {
            samples: ns.len(),
            median_ns: percentile(&ns, 0.5),
            p10_ns: percentile(&ns, 0.1),
            p90_ns: percentile(&ns, 0.9),
        }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted`, interpolating
/// linearly between the two nearest ranks; 0 for no samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    group: Option<String>,
    results: Vec<(String, Summary)>,
}

impl Criterion {
    /// A `Criterion` that records results under a group name; on drop the group
    /// writes `BENCH_<group>.json` when `FELA_BENCH_DIR` is set.
    pub fn with_group(name: &str) -> Self {
        Criterion {
            group: Some(name.to_owned()),
            results: Vec::new(),
        }
    }

    /// Runs and reports one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            samples: Vec::new(),
        };
        f(&mut b);
        let s = Summary::of(&b.samples);
        println!(
            "bench {id:<45} {:>12.0} ns/iter  (p10 {:.0} .. p90 {:.0}, n = {})",
            s.median_ns, s.p10_ns, s.p90_ns, s.samples
        );
        self.results.push((id.to_owned(), s));
        self
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        let (Some(group), Ok(dir)) = (self.group.as_deref(), std::env::var("FELA_BENCH_DIR"))
        else {
            return;
        };
        if dir.is_empty() {
            return;
        }
        if let Err(e) = write_group_json(&dir, group, &self.results) {
            eprintln!("warning: cannot write BENCH_{group}.json: {e}");
        }
    }
}

/// Minimal JSON escaping for benchmark ids (ASCII control chars, quotes,
/// backslashes — ids are plain identifiers in practice).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn write_group_json(dir: &str, group: &str, results: &[(String, Summary)]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"group\": \"{}\",\n", escape_json(group)));
    body.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    body.push_str(&format!(
        "  \"host\": {{ \"cpus\": {cpus}, \"os\": \"{}\", \"arch\": \"{}\" }},\n",
        std::env::consts::OS,
        std::env::consts::ARCH
    ));
    body.push_str("  \"benches\": [\n");
    for (i, (id, s)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        body.push_str(&format!(
            "    {{ \"id\": \"{}\", \"samples\": {}, \"median_ns\": {:.1}, \"p10_ns\": {:.1}, \"p90_ns\": {:.1} }}{comma}\n",
            escape_json(id),
            s.samples,
            s.median_ns,
            s.p10_ns,
            s.p90_ns
        ));
    }
    body.push_str("  ]\n}\n");
    let path = std::path::Path::new(dir).join(format!("BENCH_{group}.json"));
    std::fs::write(path, body)
}

/// Re-export so `use criterion::black_box` also works.
pub use std::hint::black_box;

/// Groups benchmark functions into one runner function. The group name becomes
/// the `BENCH_<group>.json` artifact name when `FELA_BENCH_DIR` is set.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::with_group(stringify!($group));
            $($target(&mut c);)+
        }
    };
}

/// Emits `main` invoking each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let at = |sorted: &[f64], q: f64, want: f64| {
            let got = percentile(sorted, q);
            assert!(
                (got - want).abs() < 1e-9,
                "q{q} of {sorted:?}: {got} != {want}"
            );
        };
        // Odd count: the median is the middle sample.
        let odd = [1.0, 2.0, 3.0, 4.0, 5.0];
        at(&odd, 0.5, 3.0);
        at(&odd, 0.1, 1.4);
        at(&odd, 0.9, 4.6);
        // Even count: the median is the mean of the middle two.
        let even = [10.0, 20.0, 30.0, 40.0];
        at(&even, 0.5, 25.0);
        at(&even, 0.0, 10.0);
        at(&even, 1.0, 40.0);
        // Quick mode's three samples.
        let quick = [7.0, 8.0, 12.0];
        at(&quick, 0.5, 8.0);
        at(&quick, 0.1, 7.2);
        at(&quick, 0.9, 11.2);
        // Degenerate inputs.
        at(&[5.0], 0.9, 5.0);
        at(&[], 0.5, 0.0);
    }

    #[test]
    fn summary_orders_its_percentiles() {
        for n in [1u64, 2, 3, 4, 19, 20] {
            // Unsorted input, with repeats once n > 7: `Summary::of` sorts.
            let samples: Vec<Duration> = (0..n)
                .map(|i| Duration::from_nanos(1 + (i * 5) % 7))
                .collect();
            let s = Summary::of(&samples);
            assert_eq!(s.samples, n as usize);
            assert!(s.p10_ns <= s.median_ns && s.median_ns <= s.p90_ns, "{s:?}");
            let min = samples.iter().min().unwrap().as_nanos() as f64;
            let max = samples.iter().max().unwrap().as_nanos() as f64;
            assert!(min <= s.p10_ns && s.p90_ns <= max, "{s:?}");
        }
    }

    #[test]
    fn dropping_the_output_is_not_timed() {
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let mut b = Bencher {
            samples: Vec::new(),
        };
        b.iter_batched(|| (), |()| SlowDrop, BatchSize::SmallInput);
        assert!(!b.samples.is_empty());
        assert!(
            b.samples.iter().all(|&d| d < Duration::from_millis(20)),
            "{:?}",
            b.samples
        );
    }

    #[test]
    fn group_json_carries_every_field_for_every_id() {
        let dir = std::env::temp_dir().join(format!("criterion-shim-{}", std::process::id()));
        std::env::set_var("FELA_BENCH_DIR", &dir);
        let ids = ["unit/first", "unit/second_\"quoted\""];
        {
            let mut c = Criterion::with_group("shim_selftest");
            for id in ids {
                c.bench_function(id, |b| b.iter(|| black_box(3u64.pow(4))));
            }
        }
        std::env::remove_var("FELA_BENCH_DIR");
        let text = std::fs::read_to_string(dir.join("BENCH_shim_selftest.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let json: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            json.get("group").and_then(|v| v.as_str()),
            Some("shim_selftest")
        );
        assert!(json.get("quick").is_some());
        let host = json.get("host").unwrap();
        for field in ["cpus", "os", "arch"] {
            assert!(host.get(field).is_some(), "host.{field} missing");
        }
        let benches = json.get("benches").and_then(|v| v.as_array()).unwrap();
        assert_eq!(benches.len(), ids.len());
        for (entry, id) in benches.iter().zip(ids) {
            assert_eq!(entry.get("id").and_then(|v| v.as_str()), Some(id));
            let num = |k: &str| match entry.get(k) {
                Some(serde_json::Value::U64(n)) => *n as f64,
                Some(serde_json::Value::F64(x)) => *x,
                other => panic!("{id}: {k} is {other:?}"),
            };
            assert!(num("samples") >= QUICK_MEASURE_ITERS as f64, "{id}");
            assert!(num("p10_ns") <= num("median_ns") && num("median_ns") <= num("p90_ns"));
        }
    }
}
