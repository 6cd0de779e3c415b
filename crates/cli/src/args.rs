//! Hand-rolled argument parsing for the `fela` CLI (kept dependency-free).

use fela_cluster::{FaultKind, FaultModel, ResizeAction, ResizeEvent, ResizeModel, StragglerModel};
use fela_sim::SimDuration;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `fela run …` — one Fela training run.
    Run(RunArgs),
    /// `fela tune …` — the §IV-B two-phase search.
    Tune(CommonArgs),
    /// `fela compare …` — Fela vs DP/MP/HP on one scenario.
    Compare(CommonArgs),
    /// `fela check …` — static schedule verification + trace race detection.
    Check(CheckArgs),
    /// `fela live …` — a real threaded run over the wire protocol.
    Live(LiveArgs),
    /// `fela models` — the Table I zoo.
    Models,
    /// `fela help`.
    Help,
}

/// Options for `fela check`.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckArgs {
    /// Shared scenario options.
    pub common: CommonArgs,
    /// Policy preset: `full` (default), `ads`, `hf`, `ctd` or `none`.
    pub policy: String,
    /// Weight vector override (`--weights 1,2,4`); `None` = verify every
    /// Phase-1 candidate vector.
    pub weights: Option<Vec<u64>>,
    /// CTD subset size override (with `--policy ctd`; default `nodes/2`).
    pub ctd: Option<usize>,
    /// SSP staleness bound for the barrier invariants.
    pub staleness: u64,
    /// Verify the whole model zoo × all policies × all candidate weights.
    pub all: bool,
    /// Run the live-runtime concurrency model checker (`--mc`): exhaustive
    /// interleaving exploration of small clusters plus the seeded-mutation
    /// matrix.
    pub mc: bool,
    /// Run the frame-protocol session verifier (`--protocol`) over recorded
    /// executions.
    pub protocol: bool,
    /// Run the write-ahead-log replay verifier (`--wal`): replay a logged
    /// control-plane run through the oracle, prove snapshot equality and
    /// exactly-once token application, and run the seeded log-mutation matrix.
    pub wal: bool,
    /// Run the elastic-run verifier (`--elastic`): check traced resized runs
    /// against their per-epoch membership and the full-search re-tune oracle,
    /// then run the seeded elastic mutation matrix.
    pub elastic: bool,
}

/// Options for `fela live`.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveArgs {
    /// Shared scenario options.
    pub common: CommonArgs,
    /// Parallelism weight vector (`--weights 1,2,4`); `None` = uniform.
    pub weights: Option<Vec<u64>>,
    /// Worker-thread count override (`--workers`); `None` = `--nodes`.
    pub workers: Option<usize>,
    /// Transport name: `chan` (in-process channels) or `tcp` (loopback).
    pub transport: String,
    /// Clock mode: `virtual` (deterministic, sim-conformant) or `real`.
    pub mode: String,
    /// Real seconds slept per modeled second in real-clock mode.
    pub time_scale: f64,
    /// Emit the outcome as JSON instead of a table.
    pub json: bool,
}

/// Options shared by every scenario-running subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct CommonArgs {
    /// Zoo model name (`vgg19`, `googlenet`, …).
    pub model: String,
    /// Total batch size per iteration.
    pub batch: u64,
    /// Iteration count.
    pub iters: u64,
    /// Cluster size.
    pub nodes: usize,
    /// Straggler injection.
    pub straggler: StragglerModel,
    /// Fault injection.
    pub fault: FaultModel,
    /// Planned elasticity (`--resize`, repeatable; `FELA_RESIZE` fallback).
    pub resize: ResizeModel,
    /// Seed override re-rooting the straggler/fault/resize realisations
    /// (`--seed`).
    pub seed: Option<u64>,
    /// Harness worker threads (`--jobs`); `None` = `FELA_JOBS`/auto.
    pub jobs: Option<usize>,
    /// Artifact directory override (`--results-dir`); `None` =
    /// `FELA_RESULTS_DIR`/`results`.
    pub results_dir: Option<String>,
    /// Durable control plane: directory for the write-ahead log
    /// (`--wal-dir`); `None` = in-memory WAL when durability is needed.
    pub wal_dir: Option<String>,
    /// Checkpoint cadence in completed iterations (`--checkpoint-every`);
    /// `None` = the default cadence (1), `Some(0)` = log-only.
    pub checkpoint_every: Option<u64>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            model: "vgg19".into(),
            batch: 256,
            iters: 100,
            nodes: 8,
            straggler: StragglerModel::None,
            fault: FaultModel::None,
            resize: ResizeModel::None,
            seed: None,
            jobs: None,
            results_dir: None,
            wal_dir: None,
            checkpoint_every: None,
        }
    }
}

/// Options for `fela run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Shared scenario options.
    pub common: CommonArgs,
    /// Parallelism weight vector (`--weights 1,2,4`); `None` = run the tuner.
    pub weights: Option<Vec<u64>>,
    /// CTD subset size.
    pub ctd: Option<usize>,
    /// SSP staleness bound.
    pub staleness: u64,
    /// Disable cross-iteration pipelining.
    pub no_pipelining: bool,
    /// Emit the full report as JSON instead of a table.
    pub json: bool,
}

/// A parse failure with a user-facing message.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, ParseError> {
    it.next()
        .ok_or_else(|| ParseError(format!("{flag} expects a value")))
}

/// Parses a `--weights` list such as `1,2,4`.
fn parse_weights(spec: &str) -> Result<Vec<u64>, ParseError> {
    spec.split(',')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| ParseError(format!("bad weight list '{spec}' (use e.g. 1,2,4)")))
}

/// Parses a `--ctd` subset size.
fn parse_ctd(s: &str) -> Result<usize, ParseError> {
    s.parse()
        .map_err(|_| ParseError("--ctd expects an integer subset size".into()))
}

/// Parses a `--staleness` bound.
fn parse_staleness(s: &str) -> Result<u64, ParseError> {
    s.parse()
        .map_err(|_| ParseError("--staleness expects an integer".into()))
}

/// Parses a duration given as (possibly fractional) seconds, rejecting
/// non-finite and negative values at parse time rather than panicking deep in
/// the simulator.
fn parse_secs(what: &str, s: &str) -> Result<SimDuration, ParseError> {
    let secs: f64 = s
        .parse()
        .map_err(|_| ParseError(format!("bad {what} '{s}'")))?;
    if !secs.is_finite() || secs < 0.0 {
        return err(format!("{what} {secs} must be finite and non-negative"));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

/// Parses `--straggler` values: `none`, `round-robin:<d_secs>` or
/// `prob:<p>:<d_secs>[:<seed>]`. Delays may be fractional seconds; `p` must
/// lie in `[0, 1]` and delays must be finite and non-negative.
fn parse_straggler(spec: &str) -> Result<StragglerModel, ParseError> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["none"] => Ok(StragglerModel::None),
        ["round-robin", d] => Ok(StragglerModel::RoundRobin {
            delay: parse_secs("delay", d)?,
        }),
        ["prob", p, d] | ["prob", p, d, _] => {
            let p: f64 = p.parse().map_err(|_| ParseError(format!("bad probability '{p}'")))?;
            if !(0.0..=1.0).contains(&p) {
                return err(format!("probability {p} out of [0,1]"));
            }
            let delay = parse_secs("delay", d)?;
            let seed = parts
                .get(3)
                .map(|s| s.parse().map_err(|_| ParseError(format!("bad seed '{s}'"))))
                .transpose()?
                .unwrap_or(42);
            Ok(StragglerModel::Probabilistic { p, delay, seed })
        }
        _ => err(format!(
            "unknown straggler spec '{spec}' (use none, round-robin:<secs> or prob:<p>:<secs>[:<seed>])"
        )),
    }
}

/// Parses `--fault` values: `none`, `crash:<iter>:<worker>`,
/// `crash-restart:<iter>:<worker>:<down_secs>`, `hang:<iter>:<worker>:<secs>`,
/// `link-down:<iter>:<worker>:<secs>`, `chaos:<p>:<down_secs>[:<seed>]` or
/// `server-crash-restart:<iter>:<down_secs>` (kills the Token Server itself;
/// the run recovers from the write-ahead log).
fn parse_fault(spec: &str) -> Result<FaultModel, ParseError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let cell = |it: &str, w: &str| -> Result<(u64, usize), ParseError> {
        let iteration = it
            .parse()
            .map_err(|_| ParseError(format!("bad iteration '{it}'")))?;
        let worker = w
            .parse()
            .map_err(|_| ParseError(format!("bad worker '{w}'")))?;
        Ok((iteration, worker))
    };
    let scripted = |it: &str, w: &str, kind: FaultKind| -> Result<FaultModel, ParseError> {
        let (iteration, worker) = cell(it, w)?;
        Ok(FaultModel::Scripted {
            worker,
            iteration,
            kind,
        })
    };
    match parts.as_slice() {
        ["none"] => Ok(FaultModel::None),
        ["crash", it, w] => scripted(it, w, FaultKind::Crash),
        ["crash-restart", it, w, d] => scripted(
            it,
            w,
            FaultKind::CrashRestart {
                down: parse_secs("downtime", d)?,
            },
        ),
        ["hang", it, w, d] => scripted(
            it,
            w,
            FaultKind::Hang {
                stall: parse_secs("stall", d)?,
            },
        ),
        ["link-down", it, w, d] => scripted(
            it,
            w,
            FaultKind::LinkDown {
                down: parse_secs("outage", d)?,
            },
        ),
        ["server-crash-restart", it, d] => {
            let iteration = it
                .parse()
                .map_err(|_| ParseError(format!("bad iteration '{it}'")))?;
            let model = FaultModel::ServerCrashRestart {
                iteration,
                down: parse_secs("downtime", d)?,
            };
            model.validate().map_err(ParseError)?;
            Ok(model)
        }
        ["chaos", p, d] | ["chaos", p, d, _] => {
            let p: f64 = p
                .parse()
                .map_err(|_| ParseError(format!("bad probability '{p}'")))?;
            let down = parse_secs("downtime", d)?;
            let seed = parts
                .get(3)
                .map(|s| s.parse().map_err(|_| ParseError(format!("bad seed '{s}'"))))
                .transpose()?
                .unwrap_or(42);
            let model = FaultModel::Chaos { p, down, seed };
            model.validate().map_err(ParseError)?;
            Ok(model)
        }
        _ => err(format!(
            "unknown fault spec '{spec}' (use none, crash:<iter>:<worker>, \
             crash-restart:<iter>:<worker>:<down_secs>, hang:<iter>:<worker>:<secs>, \
             link-down:<iter>:<worker>:<secs>, chaos:<p>:<down_secs>[:<seed>] or \
             server-crash-restart:<iter>:<down_secs>)"
        )),
    }
}

/// Parses one `--resize` value: `none`, `join:<iter>:<n>`,
/// `leave:<iter>:<w,…>` or `churn:<rate>[:<seed>]`. Every spec is validated
/// at parse time through [`ResizeModel::validate`], so a bad script fails
/// before any run starts.
fn parse_resize(spec: &str) -> Result<ResizeModel, ParseError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let iter_of = |it: &str| -> Result<u64, ParseError> {
        it.parse()
            .map_err(|_| ParseError(format!("bad iteration '{it}'")))
    };
    let model = match parts.as_slice() {
        ["none"] => ResizeModel::None,
        ["join", it, n] => {
            let n: usize = n
                .parse()
                .map_err(|_| ParseError(format!("bad join count '{n}'")))?;
            ResizeModel::Scripted(vec![ResizeEvent {
                iteration: iter_of(it)?,
                action: ResizeAction::Join(n),
            }])
        }
        ["leave", it, ws] => {
            let ranks: Result<Vec<usize>, _> = ws.split(',').map(str::parse).collect();
            let ranks =
                ranks.map_err(|_| ParseError(format!("bad worker list '{ws}' (use e.g. 0,3)")))?;
            ResizeModel::Scripted(vec![ResizeEvent {
                iteration: iter_of(it)?,
                action: ResizeAction::Leave(ranks),
            }])
        }
        ["churn", rate] | ["churn", rate, _] => {
            let rate: f64 = rate
                .parse()
                .map_err(|_| ParseError(format!("bad churn rate '{rate}'")))?;
            let seed = parts
                .get(2)
                .map(|s| s.parse().map_err(|_| ParseError(format!("bad seed '{s}'"))))
                .transpose()?
                .unwrap_or(42);
            ResizeModel::Churn { rate, seed }
        }
        _ => {
            return err(format!(
                "unknown resize spec '{spec}' (use none, join:<iter>:<n>, \
                 leave:<iter>:<w,…> or churn:<rate>[:<seed>])"
            ))
        }
    };
    model.validate().map_err(ParseError)?;
    Ok(model)
}

/// Folds a freshly parsed `--resize` value into the model accumulated so far:
/// repeated scripted specs compose into one sorted script; `churn` stands
/// alone; `none` resets.
fn merge_resize(base: ResizeModel, next: ResizeModel) -> Result<ResizeModel, ParseError> {
    let merged = match (base, next) {
        (_, ResizeModel::None) => ResizeModel::None,
        (ResizeModel::None, next) => next,
        (ResizeModel::Scripted(mut events), ResizeModel::Scripted(more)) => {
            events.extend(more);
            events.sort_by_key(|e| e.iteration);
            ResizeModel::Scripted(events)
        }
        (ResizeModel::Churn { .. }, _) | (_, ResizeModel::Churn { .. }) => {
            return err("churn cannot combine with other resize specs");
        }
    };
    // Re-validate the composition: two scripted specs may collide on an
    // iteration, which a single parse cannot see.
    merged.validate().map_err(ParseError)?;
    Ok(merged)
}

/// Resolves one setting a flag and an environment variable can both give:
/// the flag wins (it was validated at parse time); otherwise `env`, the value
/// of the variable `var` if it is set, goes through `parse`; otherwise
/// `default()`. Every `FELA_*` fallback of the CLI goes through here.
fn resolve<T>(
    flag: Option<T>,
    var: &str,
    env: Option<&str>,
    parse: impl FnOnce(&str, &str) -> Result<T, ParseError>,
    default: impl FnOnce() -> T,
) -> Result<T, ParseError> {
    match (flag, env) {
        (Some(value), _) => Ok(value),
        (None, Some(text)) => parse(var, text),
        (None, None) => Ok(default()),
    }
}

/// [`resolve`] against the process environment.
pub fn resolve_env<T>(
    flag: Option<T>,
    var: &str,
    parse: impl FnOnce(&str, &str) -> Result<T, ParseError>,
    default: impl FnOnce() -> T,
) -> Result<T, ParseError> {
    resolve(
        flag,
        var,
        std::env::var(var).ok().as_deref(),
        parse,
        default,
    )
}

/// Parses `FELA_RESIZE`: whitespace-separated specs, composed exactly like
/// repeated `--resize` flags.
pub fn parse_resize_env(var: &str, specs: &str) -> Result<ResizeModel, ParseError> {
    let mut model = ResizeModel::None;
    for spec in specs.split_whitespace() {
        let next = parse_resize(spec).map_err(|e| ParseError(format!("{var}: {e}")))?;
        model = merge_resize(model, next).map_err(|e| ParseError(format!("{var}: {e}")))?;
    }
    Ok(model)
}

fn parse_common<'a>(
    common: &mut CommonArgs,
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<bool, ParseError> {
    match flag {
        "--model" => common.model = take_value(flag, it)?.to_owned(),
        "--batch" => {
            common.batch = take_value(flag, it)?
                .parse()
                .map_err(|_| ParseError("--batch expects an integer".into()))?
        }
        "--iters" => {
            common.iters = take_value(flag, it)?
                .parse()
                .map_err(|_| ParseError("--iters expects an integer".into()))?
        }
        "--nodes" => {
            common.nodes = take_value(flag, it)?
                .parse()
                .map_err(|_| ParseError("--nodes expects an integer".into()))?;
            if common.nodes == 0 {
                return err("--nodes must be at least 1");
            }
        }
        "--straggler" => common.straggler = parse_straggler(take_value(flag, it)?)?,
        "--fault" => common.fault = parse_fault(take_value(flag, it)?)?,
        "--resize" => {
            let next = parse_resize(take_value(flag, it)?)?;
            let base = std::mem::take(&mut common.resize);
            common.resize = merge_resize(base, next)?;
        }
        "--seed" => {
            common.seed = Some(
                take_value(flag, it)?
                    .parse()
                    .map_err(|_| ParseError("--seed expects an integer".into()))?,
            )
        }
        "--jobs" => {
            let jobs: usize = take_value(flag, it)?
                .parse()
                .map_err(|_| ParseError("--jobs expects a positive integer".into()))?;
            if jobs == 0 {
                return err("--jobs must be at least 1");
            }
            common.jobs = Some(jobs);
        }
        "--results-dir" => {
            let dir = take_value(flag, it)?;
            if dir.is_empty() {
                return err("--results-dir expects a non-empty path");
            }
            common.results_dir = Some(dir.to_owned());
        }
        "--wal-dir" => {
            let dir = take_value(flag, it)?;
            if dir.is_empty() {
                return err("--wal-dir expects a non-empty path");
            }
            common.wal_dir = Some(dir.to_owned());
        }
        "--checkpoint-every" => {
            common.checkpoint_every = Some(take_value(flag, it)?.parse().map_err(|_| {
                ParseError("--checkpoint-every expects a non-negative integer".into())
            })?);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses the full argument list (without the program name).
pub fn parse(args: &[&str]) -> Result<Command, ParseError> {
    let Some((&cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    // `--help` after a subcommand asks for the usage, not for a flag.
    if rest.iter().any(|a| matches!(*a, "--help" | "-h")) {
        return Ok(Command::Help);
    }
    let mut it = rest.iter().copied();
    match cmd {
        "models" => Ok(Command::Models),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "tune" | "compare" => {
            let mut common = CommonArgs::default();
            while let Some(flag) = it.next() {
                if !parse_common(&mut common, flag, &mut it)? {
                    return err(format!("unknown flag '{flag}' for '{cmd}'"));
                }
            }
            Ok(if cmd == "tune" {
                Command::Tune(common)
            } else {
                Command::Compare(common)
            })
        }
        "run" => {
            let mut run = RunArgs {
                common: CommonArgs::default(),
                weights: None,
                ctd: None,
                staleness: 0,
                no_pipelining: false,
                json: false,
            };
            while let Some(flag) = it.next() {
                if parse_common(&mut run.common, flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--weights" => run.weights = Some(parse_weights(take_value(flag, &mut it)?)?),
                    "--ctd" => run.ctd = Some(parse_ctd(take_value(flag, &mut it)?)?),
                    "--staleness" => run.staleness = parse_staleness(take_value(flag, &mut it)?)?,
                    "--no-pipelining" => run.no_pipelining = true,
                    "--json" => run.json = true,
                    other => return err(format!("unknown flag '{other}' for 'run'")),
                }
            }
            Ok(Command::Run(run))
        }
        "live" => {
            let mut live = LiveArgs {
                common: CommonArgs {
                    iters: 10,
                    nodes: 4,
                    ..CommonArgs::default()
                },
                weights: None,
                workers: None,
                transport: "chan".into(),
                mode: "virtual".into(),
                time_scale: 1e-3,
                json: false,
            };
            while let Some(flag) = it.next() {
                if parse_common(&mut live.common, flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--weights" => live.weights = Some(parse_weights(take_value(flag, &mut it)?)?),
                    "--workers" => {
                        let workers: usize = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--workers expects an integer".into()))?;
                        if workers == 0 {
                            return err("--workers must be at least 1");
                        }
                        live.workers = Some(workers);
                    }
                    "--transport" => {
                        let transport = take_value(flag, &mut it)?;
                        if !["chan", "tcp"].contains(&transport) {
                            return err(format!(
                                "unknown transport '{transport}' (use chan or tcp)"
                            ));
                        }
                        live.transport = transport.to_owned();
                    }
                    "--mode" => {
                        let mode = take_value(flag, &mut it)?;
                        if !["virtual", "real"].contains(&mode) {
                            return err(format!("unknown mode '{mode}' (use virtual or real)"));
                        }
                        live.mode = mode.to_owned();
                    }
                    "--time-scale" => {
                        let scale: f64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--time-scale expects a number".into()))?;
                        if !scale.is_finite() || scale <= 0.0 {
                            return err(format!(
                                "--time-scale {scale} must be finite and positive"
                            ));
                        }
                        live.time_scale = scale;
                    }
                    "--json" => live.json = true,
                    other => return err(format!("unknown flag '{other}' for 'live'")),
                }
            }
            Ok(Command::Live(live))
        }
        "check" => {
            let mut check = CheckArgs {
                common: CommonArgs {
                    iters: 3,
                    ..CommonArgs::default()
                },
                policy: "full".into(),
                weights: None,
                ctd: None,
                staleness: 0,
                all: false,
                mc: false,
                protocol: false,
                wal: false,
                elastic: false,
            };
            while let Some(flag) = it.next() {
                if parse_common(&mut check.common, flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--policy" => {
                        let policy = take_value(flag, &mut it)?;
                        if !["full", "ads", "hf", "ctd", "none"].contains(&policy) {
                            return err(format!(
                                "unknown policy '{policy}' (use full, ads, hf, ctd or none)"
                            ));
                        }
                        check.policy = policy.to_owned();
                    }
                    "--weights" => check.weights = Some(parse_weights(take_value(flag, &mut it)?)?),
                    "--ctd" => check.ctd = Some(parse_ctd(take_value(flag, &mut it)?)?),
                    "--staleness" => check.staleness = parse_staleness(take_value(flag, &mut it)?)?,
                    "--all" => check.all = true,
                    "--mc" => check.mc = true,
                    "--protocol" => check.protocol = true,
                    "--wal" => check.wal = true,
                    "--elastic" => check.elastic = true,
                    other => return err(format!("unknown flag '{other}' for 'check'")),
                }
            }
            // Each mode is its own check; `--protocol` extends `--mc`.
            let modes: Vec<&str> = [
                (check.elastic, "--elastic"),
                (check.wal, "--wal"),
                (check.mc || check.protocol, "--mc/--protocol"),
                (check.all, "--all"),
            ]
            .into_iter()
            .filter_map(|(on, flags)| on.then_some(flags))
            .collect();
            if modes.len() > 1 {
                return err(format!(
                    "{} cannot combine: 'check' runs one mode at a time",
                    modes.join(" with ")
                ));
            }
            Ok(Command::Check(check))
        }
        other => err(format!("unknown command '{other}' (try 'fela help')")),
    }
}

/// The help text.
pub const HELP: &str = "fela — token-scheduled hybrid-parallel DML training (simulated testbed)

USAGE:
  fela run     --model <name> --batch <n> [--iters <n>] [--nodes <n>]
               [--weights w1,w2,…] [--ctd <size>] [--staleness <s>]
               [--no-pipelining] [--straggler <spec>] [--fault <spec>]
               [--resize <spec>]… [--json]
               (omit --weights to auto-tune first; with --resize the elastic
                controller re-bins and re-tunes at every resize boundary)
  fela tune    --model <name> --batch <n> [--iters <n>] [--nodes <n>]
  fela compare --model <name> --batch <n> [--iters <n>] [--straggler <spec>]
               [--fault <spec>] [--resize <spec>]…
               (with --resize: elastic Fela vs stop-and-restart DP/HP)
  fela check   --model <name> [--policy full|ads|hf|ctd|none] [--batch <n>]
               [--weights w1,w2,…] [--ctd <size>] [--staleness <s>]
               (static DAG verification + race-checking a traced run;
                omit --weights to verify every Phase-1 candidate vector)
  fela check   --all [--staleness <s>]
               (verify the whole zoo × all policies × all candidates, then
                model-check the small configuration with the engine check)
  fela check   --mc [--protocol]
               (model-check the live runtime: explore every non-equivalent
                message-delivery/lease-fire/sync-drain interleaving of small
                clusters, check every grant, deadlock- and lost-wakeup-freedom
                plus linearizability against the reference oracle, and prove
                the seeded-mutation matrix is caught; --protocol additionally
                replays recorded executions through the frame-session verifier)
  fela check   --wal
               (replay a logged control-plane run through the oracle: the
                recovered state must be snapshot-equal with no token applied
                twice, and every seeded log mutation — dropped, duplicated,
                reordered record, flipped byte — must be caught with a
                distinct diagnostic)
  fela check   --elastic
               (verify traced resized runs: every grant within its epoch's
                membership, the incremental boundary re-tune bit-identical to
                the full two-phase search, the lease protocol clean across
                boundaries; the seeded elastic mutation matrix — a grant to a
                departed worker, a diverged re-bin — must be caught)
  fela live    --model <name> [--workers <n>] [--transport chan|tcp]
               [--mode virtual|real] [--time-scale <s>] [--weights w1,w2,…]
               [--straggler <spec>] [--fault <spec>] [--resize <spec>]…
               [--json]
               (run the Token Server and workers as real threads over the
                wire protocol; virtual mode is byte-identical to the
                simulator, real mode races the wall clock; with --resize each
                epoch is its own live session — joiners hot-join via the
                Hello handshake, leavers drain at the epoch boundary)
  fela models
  fela help

COMMON FLAGS:
  --seed <n>   re-root the straggler/fault realisations (recorded in run
               artifacts)
  --jobs <n>   worker threads for tuning/comparison sweeps
               (default: FELA_JOBS or available parallelism; results are
               identical for every value)
  --results-dir <dir>
               where run artifacts land (default: FELA_RESULTS_DIR or
               results/; the flag wins over the environment)
  --wal-dir <dir>
               durable control plane: write the Token Server's write-ahead
               log to <dir>/fela.wal (default: in-memory WAL, attached
               automatically when a server fault is declared)
  --checkpoint-every <n>
               checkpoint the control-plane state every <n> completed
               iterations (default 1; 0 = log-only, replay from Begin)

RESIZE SPECS (planned elasticity; takes effect at the start of <iter>):
  none | join:<iter>:<n> | leave:<iter>:<w,…> | churn:<rate>[:<seed>]
  --resize is repeatable: scripted join/leave specs compose into one script
  (one event per iteration); churn stands alone. FELA_RESIZE holds
  whitespace-separated specs as a fallback when no flag is given.
  e.g.  fela run --model googlenet --batch 256 --iters 10 \\
            --resize join:3:2 --resize leave:7:0,4

STRAGGLER SPECS:
  none | round-robin:<delay_secs> | prob:<p>:<delay_secs>[:<seed>]

FAULT SPECS (crashed workers lose their leases; Fela re-grants the tokens):
  none | crash:<iter>:<worker> | crash-restart:<iter>:<worker>:<down_secs>
       | hang:<iter>:<worker>:<secs> | link-down:<iter>:<worker>:<secs>
       | chaos:<p>:<down_secs>[:<seed>]
       | server-crash-restart:<iter>:<down_secs>
         (kills the Token Server itself mid-iteration; the run recovers
          from the write-ahead log and resumes where it left off)
  e.g.  fela run --model vgg19 --batch 128 --iters 10 \\
            --weights 1,2,4 --fault crash-restart:3:2:30

MODELS:
  vgg19 (default), vgg16, googlenet, alexnet, lenet-5, zf-net, resnet-152
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        for cmd in ["run", "live", "check", "compare", "tune", "models"] {
            for help in ["--help", "-h"] {
                assert_eq!(parse(&[cmd, help]).unwrap(), Command::Help, "{cmd} {help}");
                let late = [cmd, "--model", "vgg19", help];
                assert_eq!(parse(&late).unwrap(), Command::Help, "{cmd} ... {help}");
            }
        }
    }

    #[test]
    fn run_with_everything() {
        let cmd = parse(&[
            "run",
            "--model",
            "googlenet",
            "--batch",
            "512",
            "--iters",
            "20",
            "--nodes",
            "16",
            "--weights",
            "1,2,8",
            "--ctd",
            "2",
            "--staleness",
            "1",
            "--no-pipelining",
            "--straggler",
            "round-robin:4",
            "--json",
        ])
        .unwrap();
        let Command::Run(run) = cmd else { panic!() };
        assert_eq!(run.common.model, "googlenet");
        assert_eq!(run.common.batch, 512);
        assert_eq!(run.common.iters, 20);
        assert_eq!(run.common.nodes, 16);
        assert_eq!(run.weights, Some(vec![1, 2, 8]));
        assert_eq!(run.ctd, Some(2));
        assert_eq!(run.staleness, 1);
        assert!(run.no_pipelining);
        assert!(run.json);
        assert!(matches!(
            run.common.straggler,
            StragglerModel::RoundRobin { .. }
        ));
    }

    #[test]
    fn defaults_are_paper_defaults() {
        let Command::Run(run) = parse(&["run"]).unwrap() else {
            panic!()
        };
        assert_eq!(run.common.model, "vgg19");
        assert_eq!(run.common.batch, 256);
        assert_eq!(run.common.iters, 100);
        assert_eq!(run.common.nodes, 8);
        assert!(run.weights.is_none(), "no weights → tuner runs");
    }

    #[test]
    fn straggler_specs() {
        assert_eq!(parse_straggler("none").unwrap(), StragglerModel::None);
        assert!(matches!(
            parse_straggler("round-robin:6").unwrap(),
            StragglerModel::RoundRobin { .. }
        ));
        match parse_straggler("prob:0.3:6:7").unwrap() {
            StragglerModel::Probabilistic { p, seed, .. } => {
                assert_eq!(p, 0.3);
                assert_eq!(seed, 7);
            }
            _ => panic!(),
        }
        assert!(parse_straggler("prob:1.5:6").is_err());
        assert!(parse_straggler("sometimes").is_err());
    }

    #[test]
    fn straggler_delays_must_be_finite_and_non_negative() {
        for bad in ["inf", "NaN", "-1", "-0.5", "1e400"] {
            assert!(
                parse_straggler(&format!("round-robin:{bad}")).is_err(),
                "{bad}"
            );
            assert!(
                parse_straggler(&format!("prob:0.5:{bad}")).is_err(),
                "{bad}"
            );
        }
        // Fractional delays are fine.
        match parse_straggler("round-robin:0.5").unwrap() {
            StragglerModel::RoundRobin { delay } => {
                assert_eq!(delay, SimDuration::from_millis(500));
            }
            _ => panic!(),
        }
        assert!(parse_straggler("prob:nan:6").is_err(), "NaN probability");
    }

    #[test]
    fn fault_specs() {
        assert_eq!(parse_fault("none").unwrap(), FaultModel::None);
        assert_eq!(
            parse_fault("crash:3:2").unwrap(),
            FaultModel::Scripted {
                worker: 2,
                iteration: 3,
                kind: FaultKind::Crash,
            }
        );
        assert_eq!(
            parse_fault("crash-restart:1:0:30").unwrap(),
            FaultModel::Scripted {
                worker: 0,
                iteration: 1,
                kind: FaultKind::CrashRestart {
                    down: SimDuration::from_secs(30),
                },
            }
        );
        assert!(matches!(
            parse_fault("hang:0:4:2.5").unwrap(),
            FaultModel::Scripted {
                kind: FaultKind::Hang { .. },
                ..
            }
        ));
        assert!(matches!(
            parse_fault("link-down:2:1:10").unwrap(),
            FaultModel::Scripted {
                kind: FaultKind::LinkDown { .. },
                ..
            }
        ));
        match parse_fault("chaos:0.1:5:9").unwrap() {
            FaultModel::Chaos { p, down, seed } => {
                assert_eq!(p, 0.1);
                assert_eq!(down, SimDuration::from_secs(5));
                assert_eq!(seed, 9);
            }
            _ => panic!(),
        }
        match parse_fault("chaos:0.1:5").unwrap() {
            FaultModel::Chaos { seed, .. } => assert_eq!(seed, 42),
            _ => panic!(),
        }
        for bad in [
            "chaos:1.5:5",
            "chaos:nan:5",
            "chaos:0.1:inf",
            "crash:x:2",
            "crash:1:y",
            "crash-restart:1:0:-3",
            "hang:1",
            "explode:1:2",
        ] {
            assert!(parse_fault(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn server_crash_restart_fault_spec() {
        assert_eq!(
            parse_fault("server-crash-restart:2:30").unwrap(),
            FaultModel::ServerCrashRestart {
                iteration: 2,
                down: SimDuration::from_secs(30),
            }
        );
        // Fractional downtime is fine.
        assert_eq!(
            parse_fault("server-crash-restart:0:0.5").unwrap(),
            FaultModel::ServerCrashRestart {
                iteration: 0,
                down: SimDuration::from_millis(500),
            }
        );
        for bad in [
            "server-crash-restart:x:30",
            "server-crash-restart:1:-3",
            "server-crash-restart:1:inf",
            "server-crash-restart:1",
            "server-crash-restart:1:2:3",
        ] {
            assert!(parse_fault(bad).is_err(), "{bad} should be rejected");
        }
        // Reaches CommonArgs through --fault like every other spec.
        let Command::Run(r) = parse(&["run", "--fault", "server-crash-restart:3:10"]).unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            r.common.fault,
            FaultModel::ServerCrashRestart { iteration: 3, .. }
        ));
    }

    #[test]
    fn durability_flags_parse_on_every_scenario_command() {
        let Command::Run(r) =
            parse(&["run", "--wal-dir", "/tmp/wal", "--checkpoint-every", "5"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(r.common.wal_dir.as_deref(), Some("/tmp/wal"));
        assert_eq!(r.common.checkpoint_every, Some(5));
        let Command::Live(l) = parse(&["live", "--checkpoint-every", "0"]).unwrap() else {
            panic!()
        };
        assert_eq!(l.common.checkpoint_every, Some(0), "0 = log-only");
        assert!(l.common.wal_dir.is_none());
        assert!(parse(&["run", "--wal-dir", ""]).is_err());
        assert!(parse(&["run", "--checkpoint-every", "x"]).is_err());
        assert!(parse(&["run", "--checkpoint-every", "-1"]).is_err());
    }

    #[test]
    fn fault_flag_reaches_common_args() {
        let Command::Run(r) = parse(&["run", "--fault", "crash-restart:2:3:15"]).unwrap() else {
            panic!()
        };
        assert!(matches!(
            r.common.fault,
            FaultModel::Scripted {
                worker: 3,
                iteration: 2,
                kind: FaultKind::CrashRestart { .. },
            }
        ));
        let Command::Compare(c) = parse(&["compare", "--fault", "chaos:0.05:20"]).unwrap() else {
            panic!()
        };
        assert!(matches!(c.fault, FaultModel::Chaos { .. }));
        assert!(parse(&["run", "--fault", "explode"]).is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        let e = parse(&["run", "--batch"]).unwrap_err();
        assert!(e.0.contains("expects a value"));
        let e = parse(&["run", "--frobnicate"]).unwrap_err();
        assert!(e.0.contains("unknown flag"));
        let e = parse(&["destroy"]).unwrap_err();
        assert!(e.0.contains("unknown command"));
        let e = parse(&["run", "--weights", "1,x"]).unwrap_err();
        assert!(e.0.contains("bad weight list"));
        let e = parse(&["compare", "--nodes", "0"]).unwrap_err();
        assert!(e.0.contains("--nodes must be at least 1"));
        // The control plane has one layout; a shard count is not an option.
        for cmd in ["run", "live"] {
            let e = parse(&[cmd, "--shards", "2"]).unwrap_err();
            assert!(e.0.contains("unknown flag"), "{e}");
        }
    }

    #[test]
    fn seed_and_jobs_flags() {
        let Command::Compare(c) = parse(&["compare", "--seed", "99", "--jobs", "4"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(c.seed, Some(99));
        assert_eq!(c.jobs, Some(4));
        let Command::Run(r) = parse(&["run", "--jobs", "2"]).unwrap() else {
            panic!()
        };
        assert_eq!(r.common.jobs, Some(2));
        let e = parse(&["compare", "--jobs", "0"]).unwrap_err();
        assert!(e.0.contains("--jobs must be at least 1"), "{e}");
        assert!(parse(&["compare", "--jobs", "-1"]).is_err());
        assert!(parse(&["compare", "--seed", "x"]).is_err());
    }

    /// [`resolve`] as `jobs_from` in `main.rs` calls it.
    fn jobs(flag: Option<usize>, env: Option<&str>) -> Result<usize, ParseError> {
        resolve(
            flag,
            "FELA_JOBS",
            env,
            |var, text| fela_harness::positive_count(var, text).map_err(ParseError),
            fela_harness::default_jobs,
        )
    }

    #[test]
    fn fela_jobs_env_is_validated() {
        let e = jobs(None, Some("0")).unwrap_err();
        assert!(e.0.contains("FELA_JOBS"), "{e}");
        assert!(jobs(None, Some("abc")).is_err());
        assert!(jobs(None, Some("-2")).is_err());
        assert_eq!(jobs(None, Some("4")).unwrap(), 4);
        assert_eq!(jobs(None, Some(" 4 ")).unwrap(), 4);
        // An explicit --jobs wins and is already validated at parse time.
        assert_eq!(jobs(Some(3), Some("0")).unwrap(), 3);
        // Unset env falls back to the harness default, which is always ≥ 1.
        assert!(jobs(None, None).unwrap() >= 1);
    }

    #[test]
    fn check_parses_policy_and_scope() {
        let Command::Check(c) = parse(&["check", "--model", "vgg19", "--policy", "ads"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(c.common.model, "vgg19");
        assert_eq!(c.policy, "ads");
        assert_eq!(c.common.iters, 3, "check defaults to a short traced run");
        assert!(!c.all);
        assert!(c.weights.is_none());

        let Command::Check(c) = parse(&["check", "--all"]).unwrap() else {
            panic!()
        };
        assert!(c.all);

        let Command::Check(c) = parse(&[
            "check",
            "--policy",
            "ctd",
            "--ctd",
            "4",
            "--weights",
            "1,2,4",
            "--staleness",
            "1",
        ])
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.policy, "ctd");
        assert_eq!(c.ctd, Some(4));
        assert_eq!(c.weights, Some(vec![1, 2, 4]));
        assert_eq!(c.staleness, 1);

        assert!(parse(&["check", "--policy", "fast"]).is_err());
        assert!(parse(&["check", "--frobnicate"]).is_err());

        let Command::Check(c) = parse(&["check", "--wal"]).unwrap() else {
            panic!()
        };
        assert!(c.wal);
        assert!(!c.mc);
    }

    #[test]
    fn live_parses_its_flags_and_defaults() {
        let Command::Live(l) = parse(&["live"]).unwrap() else {
            panic!()
        };
        assert_eq!(l.transport, "chan");
        assert_eq!(l.mode, "virtual");
        assert_eq!(l.common.nodes, 4, "live defaults to a small cluster");
        assert!(l.workers.is_none());

        let Command::Live(l) = parse(&[
            "live",
            "--model",
            "alexnet",
            "--workers",
            "6",
            "--transport",
            "tcp",
            "--mode",
            "real",
            "--time-scale",
            "0.0001",
            "--weights",
            "1,2,4",
            "--fault",
            "crash-restart:2:1:5",
            "--json",
        ])
        .unwrap() else {
            panic!()
        };
        assert_eq!(l.common.model, "alexnet");
        assert_eq!(l.workers, Some(6));
        assert_eq!(l.transport, "tcp");
        assert_eq!(l.mode, "real");
        assert_eq!(l.time_scale, 0.0001);
        assert_eq!(l.weights, Some(vec![1, 2, 4]));
        assert!(l.json);
        assert!(matches!(l.common.fault, FaultModel::Scripted { .. }));

        assert!(parse(&["live", "--transport", "carrier-pigeon"]).is_err());
        assert!(parse(&["live", "--mode", "imaginary"]).is_err());
        assert!(parse(&["live", "--workers", "0"]).is_err());
        assert!(parse(&["live", "--time-scale", "-1"]).is_err());
        assert!(parse(&["live", "--time-scale", "inf"]).is_err());
    }

    #[test]
    fn results_dir_flag_wins_over_environment() {
        // Flag beats env beats default.
        let dir = |flag: Option<&str>, env: Option<&str>| {
            resolve(
                flag.map(std::path::PathBuf::from),
                "FELA_RESULTS_DIR",
                env,
                |_, d| Ok(std::path::PathBuf::from(d)),
                || std::path::PathBuf::from("results"),
            )
            .unwrap()
        };
        assert_eq!(
            dir(Some("/tmp/a"), Some("/tmp/b")),
            std::path::PathBuf::from("/tmp/a")
        );
        assert_eq!(
            dir(None, Some("/tmp/b")),
            std::path::PathBuf::from("/tmp/b")
        );
        assert_eq!(dir(None, None), std::path::PathBuf::from("results"));
        // The flag parses into CommonArgs and rejects empty paths.
        let Command::Live(l) = parse(&["live", "--results-dir", "out"]).unwrap() else {
            panic!()
        };
        assert_eq!(l.common.results_dir.as_deref(), Some("out"));
        assert!(parse(&["live", "--results-dir", ""]).is_err());
    }

    #[test]
    fn resize_specs() {
        assert_eq!(parse_resize("none").unwrap(), ResizeModel::None);
        assert_eq!(
            parse_resize("join:3:2").unwrap(),
            ResizeModel::Scripted(vec![ResizeEvent {
                iteration: 3,
                action: ResizeAction::Join(2),
            }])
        );
        assert_eq!(
            parse_resize("leave:7:0,4").unwrap(),
            ResizeModel::Scripted(vec![ResizeEvent {
                iteration: 7,
                action: ResizeAction::Leave(vec![0, 4]),
            }])
        );
        match parse_resize("churn:0.3:9").unwrap() {
            ResizeModel::Churn { rate, seed } => {
                assert_eq!(rate, 0.3);
                assert_eq!(seed, 9);
            }
            other => panic!("{other:?}"),
        }
        match parse_resize("churn:0.3").unwrap() {
            ResizeModel::Churn { seed, .. } => assert_eq!(seed, 42),
            other => panic!("{other:?}"),
        }
        for bad in [
            "join:0:2",    // iteration 0 is the initial membership
            "join:3:0",    // joins nobody
            "join:x:2",    // bad iteration
            "join:3",      // missing count
            "leave:4:",    // empty worker list
            "leave:4:1,1", // repeated rank
            "leave:4:1,x", // bad rank
            "churn:1.5",   // rate out of [0, 1]
            "churn:nan",   // non-finite rate
            "churn:0.3:z", // bad seed
            "shrink:3:1",  // unknown verb
        ] {
            assert!(parse_resize(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn repeated_resize_flags_compose_into_one_sorted_script() {
        let Command::Run(r) =
            parse(&["run", "--resize", "leave:7:0,4", "--resize", "join:3:2"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(
            r.common.resize,
            ResizeModel::Scripted(vec![
                ResizeEvent {
                    iteration: 3,
                    action: ResizeAction::Join(2),
                },
                ResizeEvent {
                    iteration: 7,
                    action: ResizeAction::Leave(vec![0, 4]),
                },
            ])
        );
        // Two events on the same boundary cannot compose.
        let e = parse(&["run", "--resize", "join:3:1", "--resize", "leave:3:0"]).unwrap_err();
        assert!(e.0.contains("one event per iteration"), "{e}");
        // Churn composes with nothing.
        assert!(parse(&["run", "--resize", "churn:0.2", "--resize", "join:3:1"]).is_err());
        assert!(parse(&["run", "--resize", "join:3:1", "--resize", "churn:0.2"]).is_err());
        // A trailing `none` resets the accumulated script.
        let Command::Run(r) = parse(&["run", "--resize", "join:3:1", "--resize", "none"]).unwrap()
        else {
            panic!()
        };
        assert!(r.common.resize.is_none());
        // The flag parses on every scenario command.
        let Command::Live(l) = parse(&["live", "--resize", "join:2:1"]).unwrap() else {
            panic!()
        };
        assert!(!l.common.resize.is_none());
        let Command::Compare(c) = parse(&["compare", "--resize", "churn:0.1"]).unwrap() else {
            panic!()
        };
        assert!(matches!(c.resize, ResizeModel::Churn { .. }));
    }

    #[test]
    fn fela_resize_env_is_a_fallback_only() {
        let resize = |flag: Option<ResizeModel>, env: Option<&str>| {
            resolve(flag, "FELA_RESIZE", env, parse_resize_env, || {
                ResizeModel::None
            })
        };
        // Explicit flag wins regardless of the environment.
        let flag = ResizeModel::Churn { rate: 0.1, seed: 1 };
        assert_eq!(resize(Some(flag.clone()), Some("join:2:1")).unwrap(), flag);
        // Unset env, no flag → no resizes.
        assert_eq!(resize(None, None).unwrap(), ResizeModel::None);
        // Whitespace-separated specs compose like repeated flags.
        let m = resize(None, Some("join:3:2  leave:7:0")).unwrap();
        assert_eq!(
            m,
            ResizeModel::Scripted(vec![
                ResizeEvent {
                    iteration: 3,
                    action: ResizeAction::Join(2),
                },
                ResizeEvent {
                    iteration: 7,
                    action: ResizeAction::Leave(vec![0]),
                },
            ])
        );
        // Malformed env is a named error, not a silent ignore.
        let e = resize(None, Some("join:0:2")).unwrap_err();
        assert!(e.0.contains("FELA_RESIZE"), "{e}");
        assert!(resize(None, Some("churn:0.1 join:2:1")).is_err());
    }

    #[test]
    fn check_elastic_flag_parses() {
        let Command::Check(c) = parse(&["check", "--elastic"]).unwrap() else {
            panic!()
        };
        assert!(c.elastic);
        assert!(!c.wal && !c.mc);
    }

    #[test]
    fn check_modes_do_not_combine() {
        for (a, b) in [
            ("--all", "--mc"),
            ("--all", "--protocol"),
            ("--all", "--wal"),
            ("--all", "--elastic"),
            ("--wal", "--elastic"),
            ("--wal", "--mc"),
            ("--elastic", "--protocol"),
        ] {
            let ParseError(msg) = parse(&["check", a, b]).expect_err("modes conflict");
            assert!(msg.contains(a) && msg.contains(b), "{a} {b}: {msg}");
        }
        let Command::Check(c) = parse(&["check", "--mc", "--protocol"]).unwrap() else {
            panic!()
        };
        assert!(c.mc && c.protocol);
        let Command::Check(c) = parse(&["check", "--all", "--staleness", "1"]).unwrap() else {
            panic!()
        };
        assert!(c.all);
        assert_eq!(c.staleness, 1);
    }

    #[test]
    fn tune_and_compare_share_common_flags() {
        let Command::Tune(c) = parse(&["tune", "--batch", "64"]).unwrap() else {
            panic!()
        };
        assert_eq!(c.batch, 64);
        let Command::Compare(c) = parse(&["compare", "--straggler", "prob:0.2:3"]).unwrap() else {
            panic!()
        };
        assert!(matches!(c.straggler, StragglerModel::Probabilistic { .. }));
    }

    // ---- resize-spec property tests --------------------------------------

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn well_formed_resize_specs_always_parse_valid(
            kind in 0usize..3,
            it in 1u64..1000,
            n in 1usize..64,
            raw_ranks in prop::collection::vec(0usize..64, 1..8),
            rate in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let mut ranks = raw_ranks;
            ranks.sort_unstable();
            ranks.dedup();
            let spec = match kind {
                0 => format!("join:{it}:{n}"),
                1 => {
                    let list: Vec<String> =
                        ranks.iter().map(usize::to_string).collect();
                    format!("leave:{it}:{}", list.join(","))
                }
                _ => format!("churn:{rate}:{seed}"),
            };
            let model = parse_resize(&spec).expect("well-formed spec");
            prop_assert!(model.validate().is_ok());
            prop_assert!(!model.is_none());
        }

        #[test]
        fn resize_parsing_never_panics(bytes in prop::collection::vec(0usize..16, 0..40)) {
            // Arbitrary input over the spec alphabet either parses to a
            // valid model or errors — never panics.
            const ALPHABET: &[u8; 16] = b"jolinecurh:,.059";
            let spec: String =
                bytes.iter().map(|&b| ALPHABET[b] as char).collect();
            if let Ok(model) = parse_resize(&spec) {
                prop_assert!(model.validate().is_ok());
            }
        }

        #[test]
        fn disjoint_scripted_specs_always_compose(
            raw_its in prop::collection::vec(1u64..1000, 1..6),
            n in 1usize..8,
        ) {
            // Any set of distinct boundaries composes, in any order, into
            // one valid sorted script.
            let mut its = raw_its;
            its.sort_unstable();
            its.dedup();
            let half = its.len() / 2;
            its.rotate_left(half); // not sorted when len > 1
            let mut model = ResizeModel::None;
            for it in &its {
                let next = parse_resize(&format!("join:{it}:{n}")).expect("parses");
                model = merge_resize(model, next).expect("disjoint specs compose");
            }
            let ResizeModel::Scripted(events) = model else {
                panic!("expected a script");
            };
            prop_assert_eq!(events.len(), its.len());
            prop_assert!(events.windows(2).all(|p| p[0].iteration < p[1].iteration));
        }
    }
}
