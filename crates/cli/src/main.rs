//! `fela` — command-line front end to the Fela reproduction.
//!
//! ```text
//! fela run --model vgg19 --batch 256 --iters 100 --weights 1,2,4 --ctd 2
//! fela tune --model googlenet --batch 512
//! fela compare --model vgg19 --batch 256 --straggler round-robin:6
//! fela models
//! ```

mod args;

use args::{CheckArgs, Command, CommonArgs, LiveArgs, RunArgs, HELP};
use fela_baselines::{DpRuntime, HpRuntime, MpRuntime};
use fela_cluster::{ClusterSpec, Scenario, TrainingRuntime};
use fela_core::{FelaConfig, FelaRuntime};
use fela_harness::SweepSpec;
use fela_metrics::{f2, format_speedup, RunReport, Table};
use fela_model::zoo;
use fela_tuning::Tuner;
use std::process::ExitCode;

/// The worker-thread count for a command: `--jobs`, else `FELA_JOBS`/auto.
/// A malformed `FELA_JOBS` (e.g. `0`) is a user-facing error, not a clamp.
fn jobs_from(common: &CommonArgs) -> Result<usize, String> {
    args::resolve_env(
        common.jobs,
        "FELA_JOBS",
        |var, text| fela_harness::positive_count(var, text).map_err(args::ParseError),
        fela_harness::default_jobs,
    )
    .map_err(|e| e.to_string())
}

/// The artifact directory: `--results-dir`, else `FELA_RESULTS_DIR`, else
/// `results/` — a flag on the command line always beats ambient environment.
fn results_dir_from(common: &CommonArgs) -> Result<std::path::PathBuf, String> {
    args::resolve_env(
        common.results_dir.as_deref().map(std::path::PathBuf::from),
        "FELA_RESULTS_DIR",
        |_, dir| Ok(std::path::PathBuf::from(dir)),
        || std::path::PathBuf::from("results"),
    )
    .map_err(|e| e.to_string())
}

fn model_by_cli_name(name: &str) -> Option<fela_model::Model> {
    let canonical = match name.to_ascii_lowercase().as_str() {
        "vgg19" => "VGG19",
        "vgg16" => "VGG16",
        "googlenet" => "GoogleNet",
        "alexnet" => "AlexNet",
        "lenet-5" | "lenet5" | "lenet" => "LeNet-5",
        "zf-net" | "zfnet" => "ZF Net",
        "resnet-152" | "resnet152" => "ResNet-152",
        _ => return None,
    };
    zoo::build_by_name(canonical)
}

/// Control-plane durability options from the shared `--wal-dir` /
/// `--checkpoint-every` flags; `None` when neither was given (the runtimes
/// then attach an in-memory WAL only if a server fault demands one).
fn durability_from(common: &CommonArgs) -> Option<fela_core::DurabilityOptions> {
    if common.wal_dir.is_none() && common.checkpoint_every.is_none() {
        return None;
    }
    Some(fela_core::DurabilityOptions {
        wal_dir: common.wal_dir.as_ref().map(std::path::PathBuf::from),
        checkpoint_every: common.checkpoint_every.unwrap_or(1),
    })
}

fn scenario_from(common: &CommonArgs) -> Result<Scenario, String> {
    let model = model_by_cli_name(&common.model)
        .ok_or_else(|| format!("unknown model '{}' (try 'fela models')", common.model))?;
    let mut sc = Scenario::paper(model, common.batch).with_iterations(common.iters);
    if common.nodes != 8 {
        sc.cluster = ClusterSpec::k40c_cluster(common.nodes);
    }
    sc.straggler = common.straggler;
    sc.fault = common.fault;
    let resize_flag = (!common.resize.is_none()).then(|| common.resize.clone());
    sc.resize = args::resolve_env(resize_flag, "FELA_RESIZE", args::parse_resize_env, || {
        fela_cluster::ResizeModel::None
    })
    .map_err(|e| e.to_string())?;
    if let Some(seed) = common.seed {
        sc.straggler = sc.straggler.with_seed(seed);
        sc.fault = sc.fault.with_seed(seed);
        sc.resize = sc.resize.with_seed(seed);
    }
    Ok(sc)
}

fn cmd_models() {
    let mut table = Table::new(
        "Model zoo (Table I)",
        &["name", "year", "layers", "params", "fwd GFLOP/sample"],
    );
    for info in zoo::TABLE_I {
        let built = zoo::build_by_name(info.name);
        table.row(vec![
            info.name.to_owned(),
            info.year.to_string(),
            info.layer_number.to_string(),
            built
                .as_ref()
                .map(|m| m.param_count().to_string())
                .unwrap_or_else(|| "(metadata only)".into()),
            built
                .as_ref()
                .map(|m| format!("{:.2}", m.forward_flops() as f64 / 1e9))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    print!("{}", table.render());
}

/// Rejects the durability flags on a run that keeps no write-ahead log,
/// which `why` names and explains: they would be dropped silently.
fn reject_durability(common: &CommonArgs, why: &str) -> Result<(), String> {
    match durability_from(common) {
        Some(_) => Err(format!(
            "--wal-dir/--checkpoint-every cannot combine with {why}"
        )),
        None => Ok(()),
    }
}

/// A config holding `--weights` over the scenario's partition (probed with
/// one weight), all ones when none were given.
///
/// # Errors
/// `--weights` with other than one entry per unit of the partition.
fn weights_config(sc: &Scenario, weights: Option<&[u64]>) -> Result<FelaConfig, String> {
    let m = FelaRuntime::new(FelaConfig::new(1)).partition_for(sc).len();
    match weights {
        Some(w) if w.len() != m => Err(format!(
            "--weights needs {m} entries for this model's partition, got {}",
            w.len()
        )),
        Some(w) => Ok(FelaConfig::new(m).with_weights(w.to_vec())),
        None => Ok(FelaConfig::new(m)),
    }
}

/// Refuses, with the runtime's one-line reason, a scenario one of
/// `runtimes` cannot run. Called before any tuning or sweeping.
fn check_runnable(sc: &Scenario, runtimes: &[&dyn TrainingRuntime]) -> Result<(), String> {
    runtimes
        .iter()
        .try_for_each(|r| r.check(sc).map_err(|e| format!("{}: {e}", r.name())))
}

/// Elastic runs write no write-ahead log: each epoch is its own run, and no
/// log spans a resize boundary.
const RESIZE_KEEPS_NO_WAL: &str =
    "--resize: elastic runs keep no write-ahead log across resize boundaries";

/// `fela run --resize …`: the elastic path. The controller re-bins and
/// re-tunes at every boundary, so per-epoch weights are chosen online —
/// explicit `--weights`/`--ctd` would contradict that and are rejected.
fn cmd_run_elastic(run: &RunArgs, sc: &Scenario) -> Result<(), String> {
    if run.weights.is_some() || run.ctd.is_some() {
        return Err(
            "--weights/--ctd cannot combine with --resize: the elastic controller \
             re-tunes the configuration at every resize boundary"
                .into(),
        );
    }
    reject_durability(&run.common, RESIZE_KEEPS_NO_WAL)?;
    let runtime = fela_elastic::ElasticRuntime::new(fela_elastic::ElasticOptions::default());
    let outcome = runtime.run_elastic(sc).map_err(|e| e.to_string())?;
    if run.json {
        #[derive(serde::Serialize)]
        struct ElasticRunPayload {
            report: RunReport,
            epochs: Vec<fela_elastic::EpochSummary>,
        }
        let payload = ElasticRunPayload {
            report: outcome.report.clone(),
            epochs: outcome
                .plan
                .epochs
                .iter()
                .map(fela_elastic::EpochPlan::summary)
                .collect(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let mut epochs = Table::new(
        format!(
            "Fela elastic — {} @ batch {}, {} iterations, {} resize(s)",
            sc.model.name,
            sc.total_batch,
            sc.iterations,
            outcome.plan.resizes()
        ),
        &[
            "epoch",
            "from iter",
            "iters",
            "workers",
            "batch",
            "weights",
            "profiled",
            "reused",
            "transition (s)",
        ],
    );
    for e in &outcome.plan.epochs {
        let s = e.summary();
        epochs.row(vec![
            s.index.to_string(),
            s.start_iteration.to_string(),
            s.iterations.to_string(),
            s.n_workers.to_string(),
            s.total_batch.to_string(),
            format!("{:?}", s.weights),
            s.retune_profiled.to_string(),
            s.retune_reused.to_string(),
            f2(s.transition_secs),
        ]);
    }
    print!("{}", epochs.render());
    let report = &outcome.report;
    let mut table = Table::new("Stitched run", &["metric", "value"]);
    table.row(vec![
        "total time (s, incl. transitions)".into(),
        f2(report.total_time_secs),
    ]);
    table.row(vec![
        "transition overhead (s)".into(),
        f2(outcome.plan.total_transition_secs),
    ]);
    table.row(vec![
        "throughput (samples/s)".into(),
        f2(report.average_throughput()),
    ]);
    table.row(vec![
        "samples trained".into(),
        report.counter("elastic_samples").to_string(),
    ]);
    table.row(vec![
        "join / leave events".into(),
        format!(
            "{} / {}",
            report.counter("elastic_joins"),
            report.counter("elastic_leaves")
        ),
    ]);
    table.row(vec![
        "retune cases profiled / reused".into(),
        format!(
            "{} / {}",
            report.counter("elastic_retune_profiled"),
            report.counter("elastic_retune_reused")
        ),
    ]);
    print!("{}", table.render());
    Ok(())
}

fn cmd_run(run: &RunArgs) -> Result<(), String> {
    let sc = scenario_from(&run.common)?;
    if !sc.resize.is_none() {
        return cmd_run_elastic(run, &sc);
    }
    let mut config = weights_config(&sc, run.weights.as_deref())?;
    if run.weights.is_none() {
        // The tuner's Phase 1 profiles all-ones weights, so they must plan.
        check_runnable(&sc, &[&FelaRuntime::new(config)])?;
        eprintln!("no --weights given: running the two-phase tuner first…");
        config = Tuner::default()
            .tune_with_jobs(&sc, jobs_from(&run.common)?)
            .best_config;
    }
    if let Some(ctd) = run.ctd {
        config = config.with_ctd(ctd);
    }
    config = config
        .with_staleness(run.staleness)
        .with_pipelining(!run.no_pipelining);
    config.validate(sc.cluster.nodes)?;

    let mut runtime = FelaRuntime::new(config.clone());
    if let Some(d) = durability_from(&run.common) {
        runtime = runtime.with_durability(d);
    }
    check_runnable(&sc, &[&runtime])?;
    let report = runtime.run(&sc);
    if run.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let mut table = Table::new(
        format!(
            "Fela — {} @ batch {}, {} iterations, {} nodes",
            sc.model.name, sc.total_batch, sc.iterations, sc.cluster.nodes
        ),
        &["metric", "value"],
    );
    table.row(vec!["weights".into(), format!("{:?}", config.weights)]);
    table.row(vec![
        "CTD subset".into(),
        config
            .ctd
            .map(|c| c.subset_size.to_string())
            .unwrap_or_else(|| "off".into()),
    ]);
    table.row(vec![
        "throughput (samples/s)".into(),
        f2(report.average_throughput()),
    ]);
    table.row(vec!["total time (s)".into(), f2(report.total_time_secs)]);
    table.row(vec![
        "mean iteration (s)".into(),
        f2(report.mean_iteration_secs()),
    ]);
    table.row(vec![
        "GPU utilisation".into(),
        f2(report.mean_utilization()),
    ]);
    table.row(vec![
        "network traffic (GB)".into(),
        f2(report.network_bytes as f64 / 1e9),
    ]);
    table.row(vec![
        "tokens granted".into(),
        report.counter("grants").to_string(),
    ]);
    table.row(vec![
        "helper steals".into(),
        report.counter("steals").to_string(),
    ]);
    table.row(vec![
        "lock conflicts".into(),
        report.counter("conflicts").to_string(),
    ]);
    if !sc.fault.is_none() {
        for (label, key) in [
            ("crashes", "crashes"),
            ("restarts", "restarts"),
            ("leases revoked", "revocations"),
            ("stale reports", "stale_reports"),
            ("workers quarantined", "quarantined"),
            ("server crashes", "server_crashes"),
            ("server restarts", "server_restarts"),
        ] {
            table.row(vec![label.into(), report.counter(key).to_string()]);
        }
    }
    print!("{}", table.render());
    Ok(())
}

fn cmd_tune(common: &CommonArgs) -> Result<(), String> {
    let sc = scenario_from(common)?;
    if !sc.resize.is_none() {
        return Err("tune works on a fixed membership; for resized runs use \
             'fela run --resize …' (the elastic controller re-tunes per epoch)"
            .into());
    }
    let all_ones = weights_config(&sc, None)?;
    check_runnable(&sc, &[&FelaRuntime::new(all_ones)])?;
    let outcome = Tuner::default().tune_with_jobs(&sc, jobs_from(common)?);
    let mut table = Table::new(
        format!("Tuning {} @ batch {}", sc.model.name, sc.total_batch),
        &[
            "case",
            "phase",
            "weights",
            "CTD subset",
            "per-iteration (s)",
        ],
    );
    for c in &outcome.cases {
        table.row(vec![
            c.case.id.to_string(),
            c.case.phase.to_string(),
            format!("{:?}", c.case.weights),
            c.case
                .subset
                .map(|s| s.to_string())
                .unwrap_or_else(|| "off".into()),
            c.per_iteration_secs
                .map(|t| format!("{t:.3}"))
                .unwrap_or_else(|| "infeasible".into()),
        ]);
    }
    print!("{}", table.render());
    let best = &outcome.cases[outcome.best].case;
    println!(
        "winner: weights {:?}, CTD subset {} — rerun with:\n  fela run --model {} --batch {} --weights {}{}",
        best.weights,
        best.subset.map(|s| s.to_string()).unwrap_or_else(|| "off".into()),
        common.model,
        common.batch,
        best.weights
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
        best.subset
            .map(|s| format!(" --ctd {s}"))
            .unwrap_or_default()
    );
    Ok(())
}

fn cmd_compare(common: &CommonArgs) -> Result<(), String> {
    let sc = scenario_from(common)?;
    let jobs = jobs_from(common)?;
    let scenario_label = format!("{}/b{}", sc.model.name, sc.total_batch);
    let result = if sc.resize.is_none() {
        let all_ones = weights_config(&sc, None)?;
        let runtimes: [&dyn TrainingRuntime; 4] = [
            &FelaRuntime::new(all_ones),
            &DpRuntime::default(),
            &MpRuntime::default(),
            &HpRuntime,
        ];
        check_runnable(&sc, &runtimes)?;
        eprintln!("tuning Fela first…");
        let fela_config = Tuner::default().tune_with_jobs(&sc, jobs).best_config;

        // One harness sweep: four runtimes × this scenario. Labels come from
        // each runtime's own name() so reports and artifacts agree with the
        // runtimes.
        let fela = FelaRuntime::new(fela_config);
        SweepSpec::new("compare")
            .runtime_factory(fela.name(), fela_harness::sweep::share_runtime(fela))
            .runtime(DpRuntime::default().name(), |_| {
                Box::new(DpRuntime::default())
            })
            .runtime(MpRuntime::default().name(), |_| {
                Box::new(MpRuntime::default())
            })
            .runtime(HpRuntime.name(), |_| Box::new(HpRuntime))
            .scenario(scenario_label.clone(), sc.clone())
            .with_seed(common.seed)
            .run(jobs)
    } else {
        // Elastic comparison: Fela re-tunes and keeps training across each
        // boundary; the baselines stop the job and relaunch it at the new
        // membership. Each runtime tunes per epoch internally, so no
        // up-front tuning pass.
        use fela_elastic::{ElasticOptions, ElasticRuntime, StopRestartRuntime};
        ElasticRuntime::new(ElasticOptions::default())
            .plan(&sc)
            .map_err(|e| e.to_string())?;
        let dp_restart = || StopRestartRuntime::new(DpRuntime::default(), "dp-restart");
        let hp_restart = || StopRestartRuntime::new(HpRuntime, "hp-restart");
        check_runnable(&sc, &[&dp_restart(), &hp_restart()])?;
        SweepSpec::new("compare-elastic")
            .runtime("fela-elastic", |_| {
                Box::new(ElasticRuntime::new(ElasticOptions::default()))
            })
            .runtime("dp-restart", move |_| Box::new(dp_restart()))
            .runtime("hp-restart", move |_| Box::new(hp_restart()))
            .scenario(scenario_label.clone(), sc.clone())
            .with_seed(common.seed)
            .run(jobs)
    };
    let fela_label = if sc.resize.is_none() {
        FelaRuntime::new(FelaConfig::new(1)).name()
    } else {
        "fela-elastic"
    };
    let dir = results_dir_from(common)?;
    if let Err(e) = result.write_artifacts_to(&dir) {
        eprintln!("warning: cannot write compare artifacts: {e}");
    }

    let mut table = Table::new(
        format!(
            "{} @ batch {}, {} iterations{}",
            sc.model.name,
            sc.total_batch,
            sc.iterations,
            match (sc.straggler.is_none(), sc.fault.is_none()) {
                (true, true) => "",
                (false, true) => " (stragglers injected)",
                (true, false) => " (faults injected)",
                (false, false) => " (stragglers + faults injected)",
            }
        ),
        &[
            "runtime",
            "samples/s",
            "GPU util",
            "wire GB",
            "Fela speedup",
        ],
    );
    let fela_at = result
        .report(fela_label, &scenario_label)
        .average_throughput();
    for record in &result.records {
        let report = &record.report;
        table.row(vec![
            record.runtime.clone(),
            f2(report.average_throughput()),
            f2(report.mean_utilization()),
            f2(report.network_bytes as f64 / 1e9),
            if record.runtime == fela_label {
                "-".into()
            } else {
                format_speedup(fela_at / report.average_throughput())
            },
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

/// `fela live`: run the Token Server and workers as real OS threads over the
/// wire protocol, then record the outcome as a [`fela_harness::RunRecord`].
fn cmd_live(live: &LiveArgs) -> Result<(), String> {
    let mut common = live.common.clone();
    if let Some(workers) = live.workers {
        common.nodes = workers;
    }
    let sc = scenario_from(&common)?;
    if !sc.resize.is_none() {
        return cmd_live_elastic(live, &sc);
    }
    let config = weights_config(&sc, live.weights.as_deref())?;
    config.validate(sc.cluster.nodes)?;
    let mut transport = fela_live::transport_by_name(&live.transport)
        .ok_or_else(|| format!("unknown transport '{}'", live.transport))?;

    let durability = durability_from(&common);
    let mut extra_rows: Vec<(String, String)> = Vec::new();
    let (runtime_label, report) = if live.mode == "virtual" {
        reject_durability(
            &common,
            "--mode virtual: a virtual-clock run keeps no write-ahead log",
        )?;
        let (report, _, params) =
            fela_live::run_virtual_with(&config, &sc, transport.as_mut(), fela_live::pass())
                .map_err(|e| format!("live run failed: {e}"))?;
        extra_rows.push((
            "conformance".into(),
            "trace + report byte-identical to the simulator".into(),
        ));
        extra_rows.push((
            "replica params".into(),
            format!("{} bytes, all workers agree", params.len()),
        ));
        (format!("fela-live:virtual:{}", transport.name()), report)
    } else {
        let opts = fela_live::RealOptions {
            time_scale: live.time_scale,
            ..fela_live::RealOptions::default()
        };
        let outcome = match &durability {
            Some(d) => fela_live::run_real_durable(&config, &sc, transport.as_mut(), opts, d),
            None => fela_live::run_real(&config, &sc, transport.as_mut(), opts),
        }
        .map_err(|e| format!("live run failed: {e}"))?;
        let label = format!("fela-live:real:{}", outcome.transport);
        // Real-clock runs measure the wall clock, so the report carries real
        // seconds — unlike simulator records, which are virtual-time only.
        let mut report = RunReport::new(label.clone(), sc.model.name.clone(), sc.total_batch);
        report.iterations = outcome.iterations;
        report.total_time_secs = outcome.elapsed_secs;
        report.bump("grants", outcome.grants);
        report.bump("stale_reports", outcome.stale_reports);
        report.bump("crashes", outcome.crashes);
        report.bump("restarts", outcome.restarts);
        report.bump("revocations", outcome.revocations);
        report.bump("server_crashes", outcome.server_crashes);
        report.bump("server_restarts", outcome.server_restarts);
        if fela_core::DurabilityOptions::for_run(durability.as_ref(), &sc).is_some() {
            report.bump("wal_commits", outcome.wal_commits);
            extra_rows.push(("WAL commits".into(), outcome.wal_commits.to_string()));
        }
        for (w, trained) in outcome.trained_per_worker.iter().enumerate() {
            report.bump(&format!("trained_worker_{w}"), *trained);
        }
        extra_rows.push((
            "token throughput".into(),
            format!("{:.0} tokens/s (wall clock)", outcome.tokens_per_sec),
        ));
        extra_rows.push((
            "replica params".into(),
            format!("{} bytes, all workers agree", outcome.params.len()),
        ));
        (label, report)
    };

    if record_live(live, &sc, &runtime_label, &report)? {
        return Ok(());
    }
    let mut table = Table::new(
        format!(
            "fela live — {} @ batch {}, {} iterations, {} workers",
            sc.model.name, sc.total_batch, sc.iterations, sc.cluster.nodes
        ),
        &["metric", "value"],
    );
    table.row(vec!["runtime".into(), runtime_label]);
    table.row(vec!["transport".into(), live.transport.clone()]);
    table.row(vec!["mode".into(), live.mode.clone()]);
    table.row(vec!["weights".into(), format!("{:?}", config.weights)]);
    table.row(vec![
        if live.mode == "virtual" {
            "simulated time (s)".into()
        } else {
            "wall time (s)".into()
        },
        f2(report.total_time_secs),
    ]);
    table.row(vec![
        "tokens granted".into(),
        report.counter("grants").to_string(),
    ]);
    if !sc.fault.is_none() {
        for key in [
            "crashes",
            "restarts",
            "revocations",
            "stale_reports",
            "server_crashes",
            "server_restarts",
        ] {
            table.row(vec![key.into(), report.counter(key).to_string()]);
        }
    }
    for (k, v) in extra_rows {
        table.row(vec![k, v]);
    }
    print!("{}", table.render());
    Ok(())
}

/// Records one live run as a [`fela_harness::RunRecord`] in `live.jsonl`
/// and, under `--json`, prints it; returns whether it printed (the caller
/// then prints no table).
fn record_live(
    live: &LiveArgs,
    sc: &Scenario,
    runtime_label: &str,
    report: &RunReport,
) -> Result<bool, String> {
    let scenario_label = format!("{}/b{}", sc.model.name, sc.total_batch);
    let record = fela_harness::RunRecord::new(
        "live",
        runtime_label,
        &scenario_label,
        sc,
        live.common.seed,
        report.clone(),
    );
    let dir = results_dir_from(&live.common)?;
    match fela_harness::write_jsonl_to(&dir, "live", std::slice::from_ref(&record)) {
        Ok(path) => eprintln!("[live] 1 run -> {}", path.display()),
        Err(e) => eprintln!("warning: cannot write live artifacts: {e}"),
    }
    if live.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?
        );
    }
    Ok(live.json)
}

/// `fela live --resize …`: the simulated elastic run plus one replica
/// training per epoch over a fresh transport — joiners genuinely perform the
/// `Hello` handshake when their epoch begins, leavers drain through the
/// epoch's `End` epilogue. The stitched report is the simulated elastic
/// run's, so only virtual-clock mode is supported.
fn cmd_live_elastic(live: &LiveArgs, sc: &Scenario) -> Result<(), String> {
    if live.mode != "virtual" {
        return Err(
            "--resize with 'fela live' supports --mode virtual only (per-epoch \
             sessions conform to the simulator bytewise)"
                .into(),
        );
    }
    if live.weights.is_some() {
        return Err(
            "--weights cannot combine with --resize: the elastic controller \
             re-tunes the configuration at every resize boundary"
                .into(),
        );
    }
    reject_durability(&live.common, RESIZE_KEEPS_NO_WAL)?;
    let outcome = fela_elastic::run_live_elastic(
        fela_elastic::ElasticOptions::default(),
        sc,
        &live.transport,
    )
    .map_err(|e| format!("live elastic run failed: {e}"))?;
    let runtime_label = format!("fela-live-elastic:virtual:{}", live.transport);
    if record_live(live, sc, &runtime_label, &outcome.report)? {
        return Ok(());
    }
    let mut table = Table::new(
        format!(
            "fela live elastic — {} @ batch {}, {} iterations, {} epoch(s)",
            sc.model.name,
            sc.total_batch,
            sc.iterations,
            outcome.plan.epochs.len()
        ),
        &["metric", "value"],
    );
    table.row(vec!["runtime".into(), runtime_label]);
    table.row(vec!["transport".into(), live.transport.clone()]);
    table.row(vec![
        "simulated time (s, incl. transitions)".into(),
        f2(outcome.report.total_time_secs),
    ]);
    table.row(vec!["resizes".into(), outcome.plan.resizes().to_string()]);
    table.row(vec![
        "join / leave events".into(),
        format!(
            "{} / {}",
            outcome.report.counter("elastic_joins"),
            outcome.report.counter("elastic_leaves")
        ),
    ]);
    table.row(vec![
        "conformance".into(),
        "stitched report byte-identical to the simulated elastic run".into(),
    ]);
    print!("{}", table.render());
    Ok(())
}

/// Maps a `--policy` preset onto a configuration (weights applied separately).
fn policy_config(policy: &str, m: usize, nodes: usize, ctd: Option<usize>) -> FelaConfig {
    let base = FelaConfig::new(m);
    match policy {
        "none" => base.with_ads(false).with_hf(false),
        "ads" => base.with_hf(false),
        "hf" => base.with_ads(false),
        "ctd" => {
            // Default subset: the largest power of two ≤ half the cluster.
            let subset = ctd.unwrap_or_else(|| {
                let half = (nodes / 2).max(1);
                1 << (usize::BITS - 1 - half.leading_zeros())
            });
            base.with_ctd(subset)
        }
        _ => base,
    }
}

fn cmd_check(check: &CheckArgs) -> Result<(), String> {
    if check.elastic {
        return cmd_check_elastic();
    }
    if check.wal {
        return cmd_check_wal();
    }
    if check.mc || check.protocol {
        return cmd_check_mc(check);
    }
    if check.all {
        return cmd_check_all(check);
    }
    let sc = scenario_from(&check.common)?;
    let partition = FelaRuntime::new(FelaConfig::new(1)).partition_for(&sc);
    let given = weights_config(&sc, check.weights.as_deref())?;
    let m = partition.len();
    let nodes = sc.cluster.nodes;
    let weight_sets: Vec<Vec<u64>> = match check.weights {
        Some(_) => vec![given.weights],
        None => fela_tuning::phase1_candidates(m, nodes),
    };

    let mut table = Table::new(
        format!(
            "Schedule verification — {} @ batch {}, {} iterations, {} nodes, policy {}",
            sc.model.name, sc.total_batch, sc.iterations, nodes, check.policy
        ),
        &["weights", "tokens", "edges", "verdict"],
    );
    let mut failures = 0usize;
    let mut traced_cfg: Option<FelaConfig> = None;
    for w in &weight_sets {
        let cfg = policy_config(&check.policy, m, nodes, check.ctd)
            .with_weights(w.clone())
            .with_staleness(check.staleness);
        cfg.validate(nodes)?;
        match fela_check::verify_config(&partition, &cfg, sc.total_batch, nodes, sc.iterations) {
            Ok(summary) => {
                table.row(vec![
                    format!("{w:?}"),
                    summary.train_tokens.to_string(),
                    summary.edges.to_string(),
                    "ok".into(),
                ]);
                if traced_cfg.is_none() {
                    traced_cfg = Some(cfg);
                }
            }
            Err(fela_check::CheckError::Plan(e)) => {
                table.row(vec![
                    format!("{w:?}"),
                    "-".into(),
                    "-".into(),
                    format!("infeasible: {e}"),
                ]);
            }
            Err(fela_check::CheckError::Dag(violations)) => {
                failures += violations.len();
                table.row(vec![
                    format!("{w:?}"),
                    "-".into(),
                    "-".into(),
                    format!("{} violation(s)", violations.len()),
                ]);
                for v in &violations {
                    eprintln!("  {w:?}: {v}");
                }
            }
        }
    }
    print!("{}", table.render());

    // Dynamic half: trace a real run under the first feasible config, then
    // race-check its happens-before order and replay its lease protocol.
    if let Some(cfg) = traced_cfg {
        let (_, trace) = FelaRuntime::new(cfg).run_traced(&sc);
        match fela_check::check_trace(&trace, check.staleness) {
            Ok(s) => println!(
                "race check: {} events ({} grants, {} completions, {} commits, {} revocations) across {} processes — clean",
                s.events, s.grants, s.completions, s.commits, s.revocations, s.processes
            ),
            Err(violations) => {
                for v in &violations {
                    eprintln!("race: {v}");
                }
                return Err(format!(
                    "{} happens-before violation(s) in the traced run",
                    violations.len()
                ));
            }
        }
        match fela_check::check_recovery(&trace) {
            Ok(s) => println!(
                "recovery check: {} tokens, {} applied, {} discarded, {} revocations, {} crashes — exactly-once",
                s.tokens, s.applied, s.discarded, s.revocations, s.crashes
            ),
            Err(violations) => {
                for v in &violations {
                    eprintln!("recovery: {v}");
                }
                return Err(format!(
                    "{} lease-protocol violation(s) in the traced run",
                    violations.len()
                ));
            }
        }
    } else {
        println!("race and recovery checks skipped: no feasible configuration to trace");
    }
    if failures > 0 {
        return Err(format!("{failures} schedule invariant violation(s)"));
    }
    Ok(())
}

/// `fela check --mc [--protocol]`: the live-runtime model checker and frame
/// protocol verifier. `--mc` exhaustively explores every non-equivalent
/// message-delivery / lease-fire / sync-drain interleaving of small clusters
/// (with and without the lease-expiry adversary), checks every grant's
/// dependencies and staleness bound, deadlock-freedom, lost-wakeup-freedom
/// and exactly-once token application, runs the engine check on the terminal
/// report orders,
/// proves per-op linearizability against the reference `TokenServer` oracle,
/// and runs the seeded-mutation matrix expecting every mutation caught with a
/// distinct diagnostic. `--protocol` replays recorded executions — both the
/// model checker's deterministic schedule and a real threaded virtual-clock
/// run under `RecordingSched` — through the per-link frame-session verifier.
fn cmd_check_mc(check: &CheckArgs) -> Result<(), String> {
    let mut failures = 0usize;

    if check.mc {
        let sweep: Vec<(&str, fela_check::McConfig)> = vec![
            ("2w×2i", fela_check::McConfig::small()),
            (
                "2w×2i + lease adversary",
                fela_check::McConfig::small().with_recovery(),
            ),
            ("3w×1i", {
                let mut cfg = fela_check::McConfig::small();
                cfg.workers = 3;
                cfg.iterations = 1;
                cfg
            }),
        ];
        let mut table = Table::new(
            "Model checking — exhaustive interleaving exploration of the live runtime",
            &[
                "config",
                "states",
                "transitions",
                "terminals",
                "schedules",
                "deepest",
                "fires",
                "stale",
                "verdict",
            ],
        );
        for (name, cfg) in &sweep {
            let outcome = fela_check::model_check(cfg);
            table.row(vec![
                (*name).into(),
                outcome.states.to_string(),
                outcome.transitions.to_string(),
                outcome.terminals.to_string(),
                outcome.schedules.len().to_string(),
                outcome.deepest.to_string(),
                outcome.lease_fires.to_string(),
                outcome.stale_reports.to_string(),
                if outcome.ok() {
                    "ok".into()
                } else if outcome.truncated {
                    "truncated".into()
                } else {
                    format!("{} violation(s)", outcome.violations.len())
                },
            ]);
            if !outcome.ok() {
                failures += outcome.violations.len().max(1);
                for v in &outcome.violations {
                    eprintln!("mc: {name}: {v}");
                }
                if outcome.truncated {
                    eprintln!(
                        "mc: {name}: state space truncated at {} states",
                        cfg.max_states
                    );
                }
            }
        }
        print!("{}", table.render());

        failures += render_mutation_matrix(
            "mc",
            "Seeded-mutation matrix — every mutation must be caught, distinctly",
            &fela_check::run_mutation_matrix(),
        );
    }

    if check.protocol {
        let (events, ops) = fela_check::record_execution(&fela_check::McConfig::small());
        failures += verify_protocol("model", &events, Some(&ops));

        // A real threaded virtual-clock run, recorded via the scheduler seam
        // and replayed through the same session machine.
        let common = CommonArgs {
            model: "lenet-5".into(),
            batch: 32,
            iters: 2,
            nodes: 2,
            ..CommonArgs::default()
        };
        let sc = scenario_from(&common)?;
        let m = FelaRuntime::new(FelaConfig::new(1))
            .partition_for(&sc)
            .len();
        let config = FelaConfig::new(m);
        config.validate(sc.cluster.nodes)?;
        let rec = fela_live::RecordingSched::new();
        let sched: fela_live::SharedSched = rec.clone();
        fela_live::run_virtual_with(&config, &sc, &mut fela_live::ChanTransport, sched)
            .map_err(|e| format!("live run for protocol check failed: {e}"))?;
        let label = format!(
            "live {} @ batch {}, {} workers",
            sc.model.name, sc.total_batch, sc.cluster.nodes
        );
        failures += verify_protocol(&label, &rec.take(), None);

        // Real-clock runs, which reach the server through its inbox, under
        // a worker crash-restart and a server crash-restart.
        let down = fela_sim::SimDuration::from_millis(100);
        let crash = fela_cluster::FaultKind::CrashRestart { down };
        let faults = [
            (
                "worker crash-restart",
                fela_cluster::FaultModel::Scripted {
                    worker: 1,
                    iteration: 1,
                    kind: crash,
                },
            ),
            (
                "server crash-restart",
                fela_cluster::FaultModel::ServerCrashRestart { iteration: 3, down },
            ),
        ];
        let opts = fela_live::RealOptions {
            time_scale: 1e-3,
            min_down: std::time::Duration::from_millis(1),
            ..fela_live::RealOptions::default()
        };
        for (fault_name, fault) in faults {
            let faulted = Scenario {
                iterations: 8,
                fault,
                ..sc.clone()
            };
            let rec = fela_live::RecordingSched::new();
            let sched: fela_live::SharedSched = rec.clone();
            let mut chan = fela_live::ChanTransport;
            fela_live::run_real_with(&config, &faulted, &mut chan, opts, sched)
                .map_err(|e| format!("real-clock run for protocol check failed: {e}"))?;
            let label = format!("real chan, {fault_name}, {} workers", sc.cluster.nodes);
            failures += verify_protocol(&label, &rec.take(), None);
        }
    }

    if failures > 0 {
        return Err(format!(
            "check --mc/--protocol failed: {failures} problem(s)"
        ));
    }
    Ok(())
}

/// Replays one recorded event stream through the frame-session verifier
/// and prints its one-line verdict; returns the violation count.
fn verify_protocol(
    label: &str,
    events: &[fela_live::SyncEvent],
    ops: Option<&[fela_core::CoordOp]>,
) -> usize {
    let report = fela_check::verify_session(events, ops);
    println!(
        "protocol ({label}): {} links, {} frames — {}",
        report.links,
        report.frames,
        if report.ok() { "clean" } else { "VIOLATIONS" }
    );
    for v in &report.violations {
        eprintln!("protocol: {label}: {v}");
    }
    report.violations.len()
}

/// `fela check --wal`: the write-ahead-log replay verifier. Drives a
/// reference logged run to completion with and without checkpoints, replays
/// each log through the reference `TokenServer` (snapshot-equal recovery,
/// every token applied exactly once, every checkpoint verified), then applies
/// the seeded log-mutation matrix — a dropped, duplicated and reordered
/// record and a flipped byte must each be caught with a distinct diagnostic.
fn cmd_check_wal() -> Result<(), String> {
    let mut failures = 0usize;
    let mut table = Table::new(
        "WAL replay — checkpoint + log suffix must rebuild the exact server state",
        &["log", "records", "ops", "checkpoints", "applied", "verdict"],
    );
    for (name, checkpoint_every) in [("log-only", 0u64), ("checkpointed", 1)] {
        match fela_check::reference_wal_check(checkpoint_every) {
            Ok(s) => {
                table.row(vec![
                    name.into(),
                    s.records.to_string(),
                    s.ops.to_string(),
                    s.checkpoints.to_string(),
                    s.applied.to_string(),
                    "ok".into(),
                ]);
            }
            Err(violations) => {
                failures += violations.len();
                table.row(vec![
                    name.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{} violation(s)", violations.len()),
                ]);
                for v in &violations {
                    eprintln!("wal: {name}: {v}");
                }
            }
        }
    }
    print!("{}", table.render());

    failures += render_mutation_matrix(
        "wal",
        "Seeded log-mutation matrix — every corruption caught, distinctly",
        &fela_check::run_wal_mutation_matrix(),
    );
    if failures > 0 {
        return Err(format!("check --wal failed: {failures} problem(s)"));
    }
    Ok(())
}

/// Prints a seeded-mutation matrix under `title` and returns its failures: a
/// mutation the checker missed, or one whose diagnostic kind an earlier row
/// already produced. `tag` prefixes each failure line on stderr.
fn render_mutation_matrix(tag: &str, title: &str, matrix: &[fela_check::MutationRun]) -> usize {
    let mut table = Table::new(title, &["mutation", "caught", "diagnostic"]);
    let mut kinds = std::collections::BTreeSet::new();
    let mut failures = 0;
    for row in matrix {
        table.row(vec![
            row.name.into(),
            if row.caught {
                "yes".into()
            } else {
                "MISSED".into()
            },
            row.diagnostic.clone(),
        ]);
        if !row.caught {
            failures += 1;
            eprintln!("{tag}: mutation '{}' was not caught", row.name);
        }
        if !kinds.insert(row.kind) {
            failures += 1;
            eprintln!(
                "{tag}: mutation '{}' shares diagnostic kind '{}' with an earlier row",
                row.name, row.kind
            );
        }
    }
    print!("{}", table.render());
    failures
}

/// `fela check --elastic`: the elastic-run verifier. Traces real resized runs
/// (a scripted join+leave and a churn walk), replays every epoch against its
/// membership (no grant may reach a departed worker), re-runs the full
/// two-phase search as an oracle against the incremental boundary re-tune (no
/// re-bin divergence), and composes the race + lease-protocol checkers per
/// epoch. Then the seeded elastic mutation matrix must be caught, each kind
/// with its own diagnostic.
fn cmd_check_elastic() -> Result<(), String> {
    use fela_cluster::{ResizeAction, ResizeEvent, ResizeModel};
    use fela_elastic::{ElasticOptions, ElasticRuntime};

    let mut failures = 0usize;
    let options = ElasticOptions {
        profile_iterations: 1,
    };
    let base = |resize: ResizeModel| -> Result<Scenario, String> {
        let model = model_by_cli_name("googlenet").ok_or("zoo model missing")?;
        Ok(Scenario::paper(model, 256)
            .with_iterations(6)
            .with_resize(resize))
    };
    let scripted = base(ResizeModel::Scripted(vec![
        ResizeEvent {
            iteration: 2,
            action: ResizeAction::Join(2),
        },
        ResizeEvent {
            iteration: 4,
            action: ResizeAction::Leave(vec![9, 3]),
        },
    ]))?;
    let churn = base(ResizeModel::Churn {
        rate: 0.5,
        seed: 11,
    })?;

    let mut table = Table::new(
        "Elastic replay — every epoch against its membership and the full-search oracle",
        &[
            "scenario", "epochs", "resizes", "grants", "applied", "reused", "verdict",
        ],
    );
    for (name, sc) in [("scripted join+leave", &scripted), ("churn 0.5", &churn)] {
        let (outcome, traces) = ElasticRuntime::new(options)
            .run_elastic_traced(sc)
            .map_err(|e| format!("{name}: {e}"))?;
        match fela_check::check_elastic(&outcome.plan, &traces, options.profile_iterations) {
            Ok(s) => {
                table.row(vec![
                    name.into(),
                    s.epochs.to_string(),
                    s.resizes.to_string(),
                    s.grants.to_string(),
                    s.applied.to_string(),
                    s.retune_reused.to_string(),
                    "ok".into(),
                ]);
            }
            Err(violations) => {
                failures += violations.len();
                table.row(vec![
                    name.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{} violation(s)", violations.len()),
                ]);
                for v in &violations {
                    eprintln!("elastic: {name}: {v}");
                }
            }
        }
    }
    print!("{}", table.render());

    let matrix = fela_check::run_elastic_mutation_matrix(&scripted, options, &[0, 1, 2])
        .map_err(|e| e.to_string())?;
    let mut mutation_table = Table::new(
        "Seeded elastic-mutation matrix — every corruption caught, distinctly",
        &["mutation", "caught", "diagnostic"],
    );
    for run in &matrix {
        let (name, want_kind) = match run.mutation {
            fela_check::ElasticMutation::GrantToDeparted { seed } => (
                format!("grant-to-departed (seed {seed})"),
                "GrantToDepartedWorker",
            ),
            fela_check::ElasticMutation::RebinDiverge { seed } => {
                (format!("re-bin-diverge (seed {seed})"), "RebinDivergence")
            }
        };
        let caught = match run.mutation {
            fela_check::ElasticMutation::GrantToDeparted { .. } => run.violations.iter().any(|v| {
                matches!(
                    v,
                    fela_check::ElasticViolation::GrantToDepartedWorker { .. }
                )
            }),
            fela_check::ElasticMutation::RebinDiverge { .. } => run
                .violations
                .iter()
                .any(|v| matches!(v, fela_check::ElasticViolation::RebinDivergence { .. })),
        };
        mutation_table.row(vec![
            name.clone(),
            if caught {
                "yes".into()
            } else {
                "MISSED".into()
            },
            run.violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "(none)".into()),
        ]);
        if !caught {
            failures += 1;
            eprintln!("elastic: mutation '{name}' did not provoke its {want_kind} diagnostic");
        }
    }
    print!("{}", mutation_table.render());
    if failures > 0 {
        return Err(format!("check --elastic failed: {failures} problem(s)"));
    }
    Ok(())
}

/// `fela check --all`: the CI gate. Verifies every zoo model × policy preset ×
/// Phase-1 candidate weight vector statically, then model-checks the small
/// configuration at `--staleness` (2 workers × 2 iterations), engine check
/// included.
fn cmd_check_all(check: &CheckArgs) -> Result<(), String> {
    let nodes = check.common.nodes;
    let batch = check.common.batch;
    let policies = ["none", "ads", "hf", "full", "ctd"];
    let mut verified = 0usize;
    let mut infeasible = 0usize;
    let mut failures = 0usize;
    for info in zoo::TABLE_I {
        let Some(model) = zoo::build_by_name(info.name) else {
            continue;
        };
        let name = model.name.clone();
        let mut sc = Scenario::paper(model, batch).with_iterations(check.common.iters);
        if nodes != 8 {
            sc.cluster = ClusterSpec::k40c_cluster(nodes);
        }
        let partition = FelaRuntime::new(FelaConfig::new(1)).partition_for(&sc);
        let m = partition.len();
        for policy in policies {
            for w in fela_tuning::phase1_candidates(m, nodes) {
                let cfg = policy_config(policy, m, nodes, check.ctd)
                    .with_weights(w.clone())
                    .with_staleness(check.staleness);
                cfg.validate(nodes)?;
                match fela_check::verify_config(&partition, &cfg, batch, nodes, sc.iterations) {
                    Ok(_) => verified += 1,
                    Err(fela_check::CheckError::Plan(_)) => infeasible += 1,
                    Err(fela_check::CheckError::Dag(violations)) => {
                        failures += violations.len();
                        for v in &violations {
                            eprintln!("{name} / {policy} / {w:?}: {v}");
                        }
                    }
                }
            }
        }
    }
    println!(
        "static: {verified} configuration(s) verified, {infeasible} infeasible skipped, {failures} violation(s)"
    );

    let mut cfg = fela_check::McConfig::small();
    cfg.staleness = check.staleness;
    let outcome = fela_check::model_check(&cfg);
    println!(
        "dynamic: {} state(s), {} transition(s) explored{}, every grant checked; {} schedule(s) \
         (the first report order reaching each distinct terminal state) checked against the \
         DAG and serial BSP; {} violation(s)",
        outcome.states,
        outcome.transitions,
        if outcome.truncated {
            " (truncated)"
        } else {
            ""
        },
        outcome.schedules.len(),
        outcome.violations.len()
    );
    for v in &outcome.violations {
        eprintln!("mc: {v}");
    }
    if failures > 0 || !outcome.ok() {
        return Err(format!(
            "check --all failed: {} violation(s)",
            failures + outcome.violations.len()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv_refs: Vec<&str> = argv.iter().map(String::as_str).collect();
    let command = match args::parse(&argv_refs) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &command {
        Command::Help => {
            print!("{HELP}");
            Ok(())
        }
        Command::Models => {
            cmd_models();
            Ok(())
        }
        Command::Run(run) => cmd_run(run),
        Command::Check(check) => cmd_check(check),
        Command::Live(live) => cmd_live(live),
        Command::Tune(common) => cmd_tune(common),
        Command::Compare(common) => cmd_compare(common),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_flags_are_rejected_with_resize() {
        for argv in [
            "run --model googlenet --iters 4 --resize join:2:1 --wal-dir x",
            "run --model googlenet --iters 4 --resize join:2:1 --checkpoint-every 2",
            "live --model googlenet --iters 4 --resize join:2:1 --wal-dir x",
            "live --model googlenet --iters 4 --resize join:2:1 --checkpoint-every 3",
            "live --model alexnet --iters 1 --mode virtual --wal-dir x",
            "live --model alexnet --iters 1 --mode virtual --checkpoint-every 2",
        ] {
            let result = match args::parse(&argv.split(' ').collect::<Vec<_>>()) {
                Ok(Command::Run(run)) => cmd_run(&run),
                Ok(Command::Live(live)) => cmd_live(&live),
                other => panic!("{argv}: unexpected parse {other:?}"),
            };
            let err = result.expect_err("durability flags must not be dropped");
            assert!(
                err.contains("--wal-dir/--checkpoint-every"),
                "{argv}: {err}"
            );
        }
    }

    /// Runs `fela live <argv> --results-dir <dir>` and returns its record.
    fn live_record(argv: &str, dir: &std::path::Path) -> fela_harness::RunRecord {
        let mut argv: Vec<&str> = argv.split(' ').collect();
        let dir_arg = dir.to_str().expect("a UTF-8 temp path");
        argv.extend(["--results-dir", dir_arg]);
        let Ok(Command::Live(live)) = args::parse(&argv) else {
            panic!("{argv:?} parses as a live run");
        };
        cmd_live(&live).expect("the live run succeeds");
        let jsonl = std::fs::read_to_string(dir.join("live.jsonl")).expect("live.jsonl");
        serde_json::from_str(jsonl.trim_end()).expect("the record parses")
    }

    #[test]
    fn a_logged_real_clock_run_reports_its_wal_commits() {
        let dir = std::env::temp_dir().join(format!("fela-cli-wal-commits-{}", std::process::id()));
        let run = "live --model alexnet --batch 128 --workers 4 --iters 4 --mode real --time-scale 0.0002";
        let wal = dir.join("wal");
        let logged = live_record(
            &format!("{run} --wal-dir {}", wal.display()),
            &dir.join("logged"),
        );
        let (commits, grants) = (
            logged.report.counter("wal_commits"),
            logged.report.counter("grants"),
        );
        assert!(
            commits > 0 && commits < grants,
            "{commits} commits for {grants} grants"
        );
        // A run with no log has no commits to report.
        let unlogged = live_record(run, &dir.join("unlogged"));
        assert!(!unlogged.report.counters.contains_key("wal_commits"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_weights_and_ctd_are_errors_not_panics() {
        for (argv, reason) in [
            (
                "run --model vgg19 --batch 256 --iters 1 --weights 1,3,4",
                "weight 3 must be a power of two",
            ),
            (
                "run --model vgg19 --batch 256 --iters 1 --weights 1,2,4 --ctd 3",
                "CTD subset must be a power of two",
            ),
            (
                "live --model vgg19 --batch 256 --iters 1 --weights 1,3,4",
                "weight 3 must be a power of two",
            ),
            (
                "check --model vgg19 --batch 256 --weights 1,3,4",
                "weight 3 must be a power of two",
            ),
            (
                "compare --model lenet-5 --batch 64 --nodes 6",
                "dp: batch 64 must divide evenly by 6 nodes",
            ),
            (
                "compare --model lenet-5 --batch 64 --nodes 1",
                "hp: needs ≥ 2 workers",
            ),
            (
                "run --model vgg19 --batch 24",
                "fela: scenario must admit a token plan",
            ),
            (
                "tune --model vgg19 --batch 24",
                "fela: scenario must admit a token plan",
            ),
            (
                "compare --model vgg19 --batch 24",
                "fela: scenario must admit a token plan",
            ),
            (
                "compare --model lenet-5 --batch 64 --nodes 2 --resize leave:1:0",
                "hp-restart: needs ≥ 2 workers",
            ),
        ] {
            let result = match args::parse(&argv.split(' ').collect::<Vec<_>>()) {
                Ok(Command::Run(run)) => cmd_run(&run),
                Ok(Command::Live(live)) => cmd_live(&live),
                Ok(Command::Check(check)) => cmd_check(&check),
                Ok(Command::Tune(common)) => cmd_tune(&common),
                Ok(Command::Compare(common)) => cmd_compare(&common),
                other => panic!("{argv}: unexpected parse {other:?}"),
            };
            let err = result.expect_err("an invalid config must be rejected");
            assert!(err.contains(reason), "{argv}: {err}");
            assert!(!err.contains('\n'), "{argv}: one-line error, got {err}");
        }
    }
}
