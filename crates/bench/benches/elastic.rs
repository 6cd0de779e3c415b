//! Incremental boundary re-tune versus full re-search over a churn sequence.
//!
//! At every resize boundary the elastic controller must produce a tuned
//! configuration for the new membership. Two ways to get it: re-run the full
//! two-phase search from scratch ([`fela_tuning::Tuner::tune_with_jobs`]),
//! or run the same search through [`IncrementalTuner`]'s cross-epoch
//! profile cache — bit-identical outcomes, but cache hits skip the profiling
//! simulation entirely. These benches walk the *same* epoch sequence (a
//! seeded churn plan) both ways; the committed `BENCH_elastic.json` is the
//! acceptance artifact showing the incremental path beats the full search.
//!
//! Run with `FELA_BENCH_DIR=<dir>` to emit `BENCH_elastic.json`;
//! `FELA_BENCH_QUICK=1` shortens the measurement for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fela_cluster::{ResizeModel, Scenario};
use fela_elastic::{ElasticOptions, ElasticRuntime, IncrementalTuner};
use fela_model::zoo;

const BATCH: u64 = 256;
const ITERATIONS: u64 = 24;
const SEED: u64 = 20200613;
/// Per-iteration resize probabilities benchmarked (both realise several
/// boundaries over [`ITERATIONS`] iterations).
const RATES: [f64; 2] = [0.25, 0.5];
/// Per-case profiling budget (the paper's 5-iteration probes).
const PROFILE_ITERATIONS: u64 = 5;

/// The constant-membership epoch scenarios a churn plan walks through.
fn epoch_scenarios(rate: f64) -> Vec<Scenario> {
    let sc = Scenario::paper(zoo::googlenet(), BATCH)
        .with_iterations(ITERATIONS)
        .with_resize(ResizeModel::Churn { rate, seed: SEED });
    let options = ElasticOptions {
        profile_iterations: PROFILE_ITERATIONS,
    };
    let plan = ElasticRuntime::new(options)
        .plan(&sc)
        .expect("elastic plan");
    assert!(
        plan.epochs.len() > 2,
        "churn rate {rate} must realise several boundaries"
    );
    plan.epochs.into_iter().map(|e| e.scenario).collect()
}

fn bench_elastic(c: &mut Criterion) {
    for rate in RATES {
        let scenarios = epoch_scenarios(rate);
        let boundaries = scenarios.len() - 1;
        c.bench_function(
            &format!("elastic/incremental_rate{rate}_{boundaries}boundaries"),
            |b| {
                b.iter(|| {
                    // One cache across the whole sequence — what the elastic
                    // controller actually does at successive boundaries.
                    let mut tuner = IncrementalTuner::new(PROFILE_ITERATIONS);
                    let mut reused = 0usize;
                    for sc in &scenarios {
                        let (outcome, stats) = tuner.tune(black_box(sc));
                        black_box(&outcome.best_config);
                        reused += stats.reused;
                    }
                    black_box(reused)
                })
            },
        );
        c.bench_function(
            &format!("elastic/full_search_rate{rate}_{boundaries}boundaries"),
            |b| {
                b.iter(|| {
                    // A cold tuner per boundary is exactly the full two-phase
                    // search: same enumeration, nothing cached.
                    let mut profiled = 0usize;
                    for sc in &scenarios {
                        let (outcome, stats) =
                            IncrementalTuner::new(PROFILE_ITERATIONS).tune(black_box(sc));
                        black_box(&outcome.best_config);
                        profiled += stats.profiled;
                    }
                    black_box(profiled)
                })
            },
        );
    }
}

criterion_group!(elastic, bench_elastic);
criterion_main!(elastic);
