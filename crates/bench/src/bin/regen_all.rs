//! Regenerates the figures and tables of the paper.
//!
//! `regen_all [NAME...]` runs the experiments named on the command line
//! ([`fela_bench::figures::select`]), or all 13 when none is named, in
//! DESIGN.md §4 order. Each experiment parallelises internally across `FELA_JOBS` worker
//! threads (default: available parallelism). Combine with `FELA_QUICK=1` for
//! a fast smoke regeneration. An unknown name or a malformed `FELA_JOBS` /
//! `FELA_ITERS` is a one-line error and exit status 1.

use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let setup = fela_bench::figures::select(&names).and_then(|experiments| {
        fela_bench::iterations()?;
        let jobs = fela_harness::env_count("FELA_JOBS")?;
        Ok((experiments, jobs.unwrap_or_else(fela_harness::default_jobs)))
    });
    let (experiments, jobs) = match setup {
        Ok(setup) => setup,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "regenerating {} experiments with {jobs} worker threads",
        experiments.len()
    );
    for (name, run) in experiments {
        println!("=== {name} ===");
        run(jobs);
        println!();
    }
    ExitCode::SUCCESS
}
