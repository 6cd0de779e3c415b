//! `fela_benchmark` — the end-to-end benchmark of the Fela workspace, with a
//! traced per-layer breakdown.
//!
//! ```text
//! fela_benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//!                [--sets N] [--quick] [--out PATH]
//! fela_benchmark compare A.json B.json
//! ```
//!
//! A set sets every selected workload up several times, runs one discarded
//! warm-up rep of each, then round-robins timed reps until every workload has
//! at least five and `S` seconds per workload have passed. Every rep's
//! output is checked. All load comes from this one main thread calling the
//! crates' public functions, with tracing off; `--trace` adds the per-layer
//! probes of `layers.rs` afterwards. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and the metrics (end-to-end
//! medians, or the per-layer metrics with `--trace`).

mod layers;
mod results;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fela_metrics::Table;

use crate::layers::{Traced, Untraced, PER_LAYER};
use crate::results::{Results, Summary, WorkloadResult, END_TO_END};
use crate::stats::{median, peak_rss_mb, reset_peak_rss};
use crate::workloads::{Kind, Prepared, Rep, Workload, DEFAULT_SEED};

/// Measured seconds per workload when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Timed reps every workload gets, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Set-ups per workload: at least this many, more while they total under
/// [`SETUP_SECONDS`], so a millisecond set-up still yields a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;
const SETUP_SECONDS: f64 = 2.0;

const USAGE: &str = "usage: fela_benchmark [--workload NAME|all] [--seed N] [--seconds S] \
[--trace [0|1]] [--sets N] [--quick] [--out PATH]\n       fela_benchmark compare A.json B.json";

struct Options {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        kinds: Kind::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.kinds = match name.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    _ => vec![Kind::parse(name).ok_or(format!("unknown workload {name:?}"))?],
                };
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(o.seconds >= 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                o.trace = true;
                if let Some(v @ ("0" | "1")) = it.peek().map(|s| s.as_str()) {
                    o.trace = v == "1";
                    it.next();
                }
            }
            "--sets" => {
                o.sets = value()?.parse().map_err(|_| "--sets needs an integer")?;
                if !(1..=10).contains(&o.sets) {
                    return Err("--sets must be within 1..=10".into());
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match results::compare_files(&args[1..]) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Build outputs sit next to the executable, inside the build directory:
    // the WAL of the durable workload and the default results file.
    let Some(build_dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
    else {
        eprintln!("cannot locate the executable's directory");
        return ExitCode::from(2);
    };
    let scratch = build_dir.join(format!("fela_benchmark-scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("{}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let mut sets = Vec::new();
    for index in 0..opts.sets {
        let set = run_set(&opts, &scratch);
        results::print_set(
            &format!("set {} of {}, seed {}", index + 1, opts.sets, opts.seed),
            &set,
        );
        sets.push(set);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let [a, b, ..] = sets.as_slice() {
        let changed = results::print_compare(a, b);
        println!("{changed} workload x metric pairs differ between set 1 and set 2");
    }

    let results = Results {
        seed: opts.seed,
        quick: opts.quick,
        seconds: opts.seconds,
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        os: std::env::consts::OS.into(),
        arch: std::env::consts::ARCH.into(),
        sets,
    };
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| build_dir.join("fela_benchmark-results.json"));
    let text =
        serde_json::to_string_pretty(&results).expect("the serde shim serializes infallibly");
    match std::fs::write(&out, text) {
        Ok(()) => eprintln!("results: {}", out.display()),
        Err(e) => eprintln!("cannot write {}: {e}", out.display()),
    }

    let last = results.sets.last().expect("at least one set");
    let (line, correct) = summary_line(last, opts.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The closing JSON line, and whether every operation succeeded and every
/// metric was measured.
fn summary_line(set: &BTreeMap<String, WorkloadResult>, trace: bool) -> (String, bool) {
    let attempted: u64 = set.values().map(|r| r.attempted).sum();
    let failed: u64 = set.values().map(|r| r.failed).sum();
    let mut complete = true;
    let mut objects = Vec::new();
    for (name, result) in set {
        let mut fields = Vec::new();
        let mut field = |metric: &str, unit: &str, value: Option<f64>| match value {
            Some(v) if v.is_finite() => fields.push(format!(
                "\"{metric}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            _ => complete = false,
        };
        if trace {
            for (metric, unit) in PER_LAYER {
                field(metric, unit, result.layers.get(metric).copied());
            }
        } else {
            for e in &END_TO_END {
                field(e.name, e.unit, result.metrics.get(e.name).map(|s| s.median));
            }
        }
        objects.push((name, fields.join(", ")));
    }
    // One workload gives the flat metric map; several nest it by workload.
    let metrics = match objects.as_slice() {
        [(_, fields)] => format!("{{{fields}}}"),
        _ => {
            let nested: Vec<String> = objects
                .iter()
                .map(|(name, fields)| format!("\"{name}\": {{{fields}}}"))
                .collect();
            format!("{{{}}}", nested.join(", "))
        }
    };
    let correct = failed == 0 && complete;
    (
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
        ),
        correct,
    )
}

/// One workload's state within a set.
struct Bench {
    w: Workload,
    prepared: Option<Prepared>,
    setup_key: Option<u64>,
    first_digest: Option<u64>,
    setup_s: Vec<f64>,
    job_s: Vec<f64>,
    tokens_per_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    tokens: Vec<f64>,
    wasted: Vec<f64>,
    result: WorkloadResult,
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        Err(format!("panicked: {msg}"))
    })
}

impl Bench {
    fn new(w: Workload) -> Self {
        Bench {
            w,
            prepared: None,
            setup_key: None,
            first_digest: None,
            setup_s: Vec::new(),
            job_s: Vec::new(),
            tokens_per_s: Vec::new(),
            peak_rss_mb: Vec::new(),
            tokens: Vec::new(),
            wasted: Vec::new(),
            result: WorkloadResult::default(),
        }
    }

    fn fail(&mut self, error: String) {
        eprintln!("{}: {error}", self.w.kind.name());
        self.result.failed += 1;
        self.result.errors.push(error);
    }

    /// Sets up repeatedly; every set-up must decide the same thing.
    fn setup(&mut self, quick: bool) {
        let (min, max) = if quick {
            (1, 1)
        } else {
            (MIN_SETUPS, MAX_SETUPS)
        };
        // Outcomes are checked only after the last set-up, so nothing runs
        // between two timed set-ups.
        let mut outcomes = Vec::new();
        let begin = Instant::now();
        while outcomes.len() < max
            && (outcomes.len() < min || begin.elapsed().as_secs_f64() < SETUP_SECONDS)
        {
            let start = Instant::now();
            let outcome = guarded(|| self.w.setup());
            outcomes.push((start.elapsed().as_secs_f64(), outcome));
        }
        for (secs, outcome) in outcomes {
            self.result.attempted += 1;
            match outcome {
                Ok(p) if *self.setup_key.get_or_insert(p.key()) != p.key() => {
                    self.fail("set-up decided differently from the first set-up".into());
                }
                Ok(p) => {
                    self.setup_s.push(secs);
                    self.prepared = Some(p);
                }
                Err(e) => self.fail(e),
            }
        }
        if let Some(mut p) = self.prepared.take() {
            match guarded(|| self.w.reference(&mut p)) {
                Ok(()) => self.prepared = Some(p),
                Err(e) => self.fail(e),
            }
        }
    }

    /// One checked rep; `timed` reps record their metrics.
    fn rep(&mut self, timed: bool) {
        let Some(prepared) = &self.prepared else {
            return;
        };
        self.result.attempted += 1;
        reset_peak_rss();
        let start = Instant::now();
        let outcome = guarded(|| self.w.run(prepared));
        let secs = start.elapsed().as_secs_f64();
        let rss = peak_rss_mb();
        match outcome.and_then(|rep| self.check(rep)) {
            Ok(rep) if timed => {
                self.job_s.push(secs);
                self.tokens_per_s.push(
                    rep.protocol_tokens_per_s
                        .unwrap_or(rep.tokens as f64 / secs),
                );
                self.peak_rss_mb.extend(rss);
                self.tokens.push(rep.tokens as f64);
                self.wasted
                    .push(rep.stale as f64 / (rep.tokens + rep.stale).max(1) as f64);
            }
            Ok(_) => {}
            Err(e) => self.fail(e),
        }
    }

    /// Outputs must equal the first rep's, and the pinned value if any.
    fn check(&mut self, rep: Rep) -> Result<Rep, String> {
        let first = *self.first_digest.get_or_insert(rep.digest);
        if rep.digest != first {
            return Err(format!(
                "output digest {:016x} differs from the first rep's {first:016x}",
                rep.digest
            ));
        }
        match self.w.pinned() {
            Some(pin) if pin != rep.digest => Err(format!(
                "output digest {:016x} differs from the pinned {pin:016x}",
                rep.digest
            )),
            _ => Ok(rep),
        }
    }

    fn finish(mut self) -> WorkloadResult {
        let series = [
            &self.setup_s,
            &self.job_s,
            &self.tokens_per_s,
            &self.peak_rss_mb,
        ];
        for (e, samples) in END_TO_END.iter().zip(series) {
            if let Some(s) = Summary::of(e.unit, samples) {
                self.result.metrics.insert(e.name.into(), s);
            }
        }
        self.w.cleanup();
        self.result
    }
}

fn run_set(opts: &Options, scratch: &Path) -> BTreeMap<String, WorkloadResult> {
    let mut benches: Vec<Bench> = opts
        .kinds
        .iter()
        .map(|&k| Bench::new(Workload::new(k, opts.seed, opts.quick, scratch)))
        .collect();
    for b in &mut benches {
        b.setup(opts.quick);
        eprintln!(
            "{}: {} set-ups, median {:.4} s",
            b.w.kind.name(),
            b.setup_s.len(),
            median(&b.setup_s)
        );
    }
    if !opts.quick {
        for b in &mut benches {
            b.rep(false);
        }
    }
    let budget = opts.seconds * benches.len() as f64;
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for b in &mut benches {
            b.rep(true);
        }
        rounds += 1;
        if opts.quick || (rounds >= MIN_REPS && start.elapsed().as_secs_f64() >= budget) {
            break;
        }
    }
    if opts.trace {
        for b in &mut benches {
            trace(b, opts, scratch);
        }
    }
    benches
        .into_iter()
        .map(|b| (b.w.kind.name().to_string(), b.finish()))
        .collect()
}

/// The traced probes of one workload: prints its per-layer metrics and
/// attribution table and stores the metrics.
fn trace(b: &mut Bench, opts: &Options, scratch: &Path) {
    let Some(prepared) = &b.prepared else {
        return;
    };
    let base = Untraced {
        setup_s: median(&b.setup_s),
        job_s: median(&b.job_s),
        tokens: median(&b.tokens),
        wasted_ratio: median(&b.wasted),
    };
    b.result.attempted += 1;
    let traced = match guarded(|| layers::trace(&b.w, prepared, &base, scratch)) {
        Ok(t) => t,
        Err(e) => return b.fail(format!("trace: {e}")),
    };
    let Traced { metrics, shares } = traced;
    let name = b.w.kind.name();
    let mut table = Table::new(
        format!("{name}: per-layer metrics"),
        &["metric", "unit", "value"],
    );
    for (metric, unit) in PER_LAYER {
        if let Some(v) = metrics.get(metric) {
            table.row(vec![metric.into(), unit.into(), format!("{v:.4}")]);
            b.result.layers.insert(metric.into(), *v);
        }
    }
    print!("{}", table.render());

    let mut table = Table::new(
        format!(
            "{name}: attribution (per-op cost x count, seed {})",
            opts.seed
        ),
        &["layer", "per op", "count", "total s", "share", "of"],
    );
    for (setup, base_s, of) in [
        (false, base.job_s, "job_s"),
        (true, base.setup_s, "setup_s"),
    ] {
        let rows: Vec<_> = shares.iter().filter(|s| s.setup == setup).collect();
        if rows.is_empty() {
            continue;
        }
        let mut explained = 0.0;
        for s in rows {
            let total = s.per_op_s * s.count;
            explained += total;
            table.row(vec![
                s.layer.into(),
                format!("{:.3} us", s.per_op_s * 1e6),
                format!("{:.0}", s.count),
                format!("{total:.4}"),
                format!("{:.1}%", total / base_s * 100.0),
                of.into(),
            ]);
        }
        table.row(vec![
            "unexplained remainder".into(),
            String::new(),
            String::new(),
            format!("{:.4}", base_s - explained),
            format!("{:.1}%", (base_s - explained) / base_s * 100.0),
            of.into(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "shares are CPU seconds over wall seconds: threads overlap, so shares can pass 100% \
         and the remainder can be negative"
    );
}
