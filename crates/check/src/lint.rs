//! Workspace source lint: the rules the simulator's determinism and
//! crash-safety arguments depend on.
//!
//! The rules are deliberately narrow — this is not a general style checker but
//! a guard for the repository invariants below:
//!
//! * **`no-unwrap`** — runtime crates (`core`, `sim`, `net`, `cluster`) must not
//!   call `.unwrap()` / `.expect(...)` outside tests: scheduler faults must
//!   surface as typed [`fela_core::ScheduleError`]s or deliberate
//!   invariant-message panics, not anonymous option/result unwraps.
//! * **`no-wallclock`** — no workspace crate may read host time
//!   (`SystemTime`, `Instant::now`): simulations are virtual-time-only, and a
//!   wall-clock read silently breaks run-to-run reproducibility. Code whose
//!   purpose is real time (the live runtime's real-clock shell) is exempted
//!   by a path allowlist entry, or a crate-scoped `crate:no-wallclock <crate>`
//!   one.
//! * **`no-unseeded-rng`** — `sim` and `core` must not use ambient-entropy
//!   randomness (`thread_rng`, `rand::random`, `from_entropy`); all randomness
//!   flows from explicit seeds recorded in run artifacts.
//! * **`hashmap-order`** — iterating a `HashMap`/`HashSet` local feeds
//!   nondeterministic order into whatever consumes it; containers that are
//!   iterated must be `BTreeMap`/`BTreeSet` (or the iteration must be
//!   allowlisted with a justification).
//! * **`lock-order`** — mutex acquisitions in the concurrency crates
//!   (`live`, `core`) must follow the declared total order `LOCK_ORDER`
//!   while another guard is live, and every mutex must be *in* the table:
//!   an undeclared lock is itself a finding, so the order stays complete as
//!   code grows. This is the static half of the deadlock-freedom argument
//!   the `fela-mc` model checker makes dynamically.
//! * **`no-blocking-under-lock`** — no link receive or flush (`.recv(` /
//!   `.flush(`) and no `sleep` while a `MutexGuard` is live: a blocking wire
//!   read under a lock turns a slow peer into a stalled server. (`Condvar::wait`
//!   is fine — it releases the guard.)
//! * **`no-unflushed-wal`** — the group-commit rule, in two halves. Only the
//!   control plane and the log writer (`impl ControlPlane` / `impl
//!   WalWriter`) may leave a `WalWriter` append
//!   (`.append_op`/`.append_begin`/`.append_checkpoint`) staged; anywhere
//!   else in the durability crates an append must be followed by a
//!   `.commit(` before its enclosing block closes. And in a file of those
//!   crates that drives a `ControlPlane` or a `ServerCore`, every decision
//!   that leaves — a link write (`.flush(` / `.send(`), a call of the core's
//!   `deliver` callback, or a simulated `GrantArrive` scheduled — must
//!   follow a `.commit_wal(` on an earlier line of the same function body,
//!   or sit inside the closure passed to the core's `.dispatch(`, which
//!   commits first: no decision leaves the server before the ops behind it
//!   are durable.
//! * **`no-dead-pub`** — a `pub fn`, `pub const` or `pub static` under
//!   `crates/*/src` must be named by some other file: public surface nothing
//!   outside its file uses is deleted or made private. The caller roots are
//!   `crates/` (tests, benches and examples included), `tests/`, `examples/`
//!   and `fela_benchmark/src`, the benchmark's own workspace. This is the one
//!   rule that reads the whole workspace at once ([`lint_workspace`]); the
//!   others read one file ([`lint_source`]).
//!
//! The checker is line-based and intentionally simple: it strips `//` comments
//! and string literals, skips `#[cfg(test)]` modules by brace counting, and
//! matches fixed patterns. False positives are handled by `fela-lint.allow`
//! (see [`Allowlist`]), never by weakening a rule.

use std::collections::{BTreeMap, BTreeSet};

/// One lint finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LintFinding {
    /// Rule identifier (e.g. `no-unwrap`).
    pub rule: &'static str,
    /// Crate the finding belongs to (package name, e.g. `fela-live`) — the
    /// scope crate-scoped allowlist entries match against.
    pub krate: String,
    /// Path label the finding is reported under.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.snippet
        )
    }
}

/// Crates whose non-test code must be free of `.unwrap()` / `.expect(...)`.
/// `fela-check` is included because its verifiers (race, recovery, schedule)
/// gate CI: a malformed trace must surface as a reported violation, never as
/// an anonymous panic inside the checker itself. `fela-live` is included
/// because its server/worker threads run unsupervised: a panic there deadlocks
/// the peer ends of the wire protocol instead of failing loudly.
const NO_UNWRAP_CRATES: &[&str] = &[
    "fela-core",
    "fela-sim",
    "fela-net",
    "fela-cluster",
    "fela-check",
    "fela-live",
];
/// Crates that must not use ambient-entropy randomness. (`no-wallclock` is
/// enforced **workspace-wide**: a wall-clock read anywhere silently undermines
/// the reproducibility argument. Crates whose job *is* real time — the live
/// runtime's real-clock mode, the harness's stderr-only timing — opt out with
/// a crate-scoped allowlist entry, never by weakening the rule.)
const DETERMINISM_CRATES: &[&str] = &["fela-core", "fela-sim"];

/// Crates whose mutex usage is held to the lock discipline (`lock-order`,
/// `no-blocking-under-lock`). The live runtime is *mutex-free by design*
/// outside its scheduler seam (threads communicate through channels), so the
/// table below is tiny — these rules exist to keep it that way.
const LOCK_DISCIPLINE_CRATES: &[&str] = &["fela-live", "fela-core"];

/// Crates whose `WalWriter` usage is held to the fsync discipline
/// (`no-unflushed-wal`): only these touch the control plane's write-ahead
/// log. Outside the plane and the writer, every append they stage must be
/// committed before the staging scope ends, and a grant or frame the server
/// sends must follow a `commit_wal` — otherwise a grant can become
/// externally visible backed by a record that only exists in memory.
const WAL_DISCIPLINE_CRATES: &[&str] = &["fela-core", "fela-live"];

/// The types whose methods may stage log records and leave them for the
/// plane's group commit.
const WAL_STAGING_TYPES: &[&str] = &["ControlPlane", "WalWriter"];

/// Where a scrubbed line calls the core's outbound callback `deliver(..)` —
/// a bare call, not a method or a definition.
fn deliver_call(line: &str) -> Option<usize> {
    let at = line.find("deliver(")?;
    let before = line[..at].trim_end();
    let bare = !line[..at].ends_with(|c: char| c == '.' || c == '_' || c.is_alphanumeric());
    (bare && !before.ends_with("fn")).then_some(at)
}

/// Where scrubbed line `i` hands the simulator's grant delivery to its
/// scheduler: a `.schedule_in(` / `.schedule_at(` call whose statement,
/// through its `;` on this or a later line, builds an `Ev::GrantArrive`. A
/// match arm naming the variant schedules nothing, however it is wrapped.
fn sim_grant_delivery(lines: &[String], i: usize) -> Option<usize> {
    let at = lines[i]
        .find(".schedule_in(")
        .or_else(|| lines[i].find(".schedule_at("))?;
    let mut statement = lines[i][at..].to_owned();
    for line in &lines[i + 1..] {
        if statement.contains(';') {
            break;
        }
        statement.push_str(line);
    }
    let statement = statement.split(';').next().unwrap_or_default();
    statement.contains("GrantArrive").then_some(at)
}

/// Whether a scrubbed line opens a function item (`fn name`, any
/// visibility or qualifiers) rather than naming a `fn(..)` pointer type.
fn opens_fn(line: &str) -> bool {
    let trimmed = line.trim_start();
    trimmed.starts_with("fn ") || trimmed.contains(" fn ")
}

/// The self type of an `impl` header line (`impl Foo {`, `impl<T> Bar for
/// Foo {`), or `None` when the line opens no impl block.
fn impl_self_type(line: &str) -> Option<&str> {
    let header = line.trim_start().strip_prefix("impl")?;
    if !header.starts_with([' ', '<']) {
        return None;
    }
    let header = header.split('{').next()?;
    header.rsplit(" for ").next()?.split_whitespace().last()
}

/// The declared total acquisition order of every named mutex in the
/// lock-discipline crates, outermost first. A lock may only be taken while
/// guards strictly *earlier* in this table are held; taking one out of order
/// — or taking a mutex not listed here at all — is a `lock-order` finding.
///
/// Current table (all in `fela-live`'s scheduler seam):
/// `events` (RecordingSched buffer), then `seen` (GateSched observation log),
/// then `open` (GateSched gate flag, held across `Condvar::wait`).
const LOCK_ORDER: &[&str] = &["events", "seen", "open"];

/// Parsed `fela-lint.allow` file: lines of `<rule> <path-suffix> [substring]`,
/// `#`-comments and blanks ignored. A finding is suppressed when a rule+path
/// entry matches and (if given) the substring occurs in the offending line.
///
/// A rule written as `crate:<rule>` is **crate-scoped**: its second field is a
/// crate package name (matched exactly against [`LintFinding::krate`]) instead
/// of a path suffix, exempting a whole crate from one rule — e.g.
/// `crate:no-wallclock fela-harness Instant::now` lets the sweep harness time
/// itself while every unlisted crate still fails the gate.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String, Option<String>)>,
}

impl Allowlist {
    /// Parses the allowlist format.
    pub fn parse(content: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in content.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            if let (Some(rule), Some(path)) = (parts.next(), parts.next()) {
                entries.push((
                    rule.to_owned(),
                    path.to_owned(),
                    parts.next().map(|s| s.trim().to_owned()),
                ));
            }
        }
        Allowlist { entries }
    }

    /// Whether `finding` is suppressed.
    pub fn permits(&self, finding: &LintFinding) -> bool {
        self.entries.iter().any(|(rule, scope, needle)| {
            let scope_match = match rule.strip_prefix("crate:") {
                // Crate-scoped entry: the scope is a crate name, matched
                // exactly — `fela-live` must not also exempt `fela-live-x`.
                Some(rule) => rule == finding.rule && finding.krate == *scope,
                None => rule == finding.rule && finding.path.ends_with(scope.as_str()),
            };
            scope_match
                && needle
                    .as_ref()
                    .is_none_or(|n| finding.snippet.contains(n.as_str()))
        })
    }

    /// Number of entries (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Strips `//` comments, string-literal contents and char literals from a
/// line, so patterns never match inside them and brace counting is not
/// confused by `'{'`-style literals. Keeps the double quotes so syntax still
/// reads plausibly.
fn scrubbed(line: &str) -> String {
    let chars: Vec<char> = line.chars().collect();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '"' => {
                out.push('"');
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            out.push('"');
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            '/' if chars.get(i + 1) == Some(&'/') => break,
            '\'' => {
                // Char literal: `'x'` or `'\x'`. Lifetime markers (`'a`) have
                // no closing quote and pass through.
                if chars.get(i + 1) == Some(&'\\') && chars.get(i + 3) == Some(&'\'') {
                    i += 4;
                } else if chars.get(i + 1).is_some() && chars.get(i + 2) == Some(&'\'') {
                    i += 3;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Marks the scrubbed lines inside `#[cfg(test)]`-gated items, found by
/// brace counting.
fn test_regions(scrubbed_lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; scrubbed_lines.len()];
    let mut pending_cfg_test = false;
    let mut depth_stack: Vec<i64> = Vec::new(); // brace depth at which each test region opened
    let mut depth: i64 = 0;
    for (i, line) in scrubbed_lines.iter().enumerate() {
        if line.trim().contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        in_test[i] = !depth_stack.is_empty() || pending_cfg_test;
        for c in line.chars() {
            match c {
                '{' => {
                    if pending_cfg_test {
                        depth_stack.push(depth);
                        pending_cfg_test = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if depth_stack.last() == Some(&depth) {
                        depth_stack.pop();
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

/// One source file of the workspace, as [`lint_workspace`] reads it.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path label findings are reported under.
    pub path: String,
    /// Package name for a file under `crates/*/src`, whose public items the
    /// `no-dead-pub` rule checks; `None` for a file that only counts as a
    /// caller (a test, an example, a bench or the benchmark crate).
    pub krate: Option<String>,
    /// The file's text.
    pub content: String,
}

/// The name a scrubbed line declares public, for `no-dead-pub`: the item of
/// a `pub fn`, `pub const` or `pub static` (qualified as in `pub const fn` or
/// `pub static mut`). Restricted visibility (`pub(crate)`) is not public.
fn pub_item_name(line: &str) -> Option<&str> {
    let mut words = line
        .trim_start()
        .strip_prefix("pub ")?
        .split_whitespace()
        .peekable();
    loop {
        match words.next()? {
            "fn" => return words.next().map(ident_prefix),
            "async" | "unsafe" => {}
            "const" | "static" => match *words.peek()? {
                "fn" | "async" | "unsafe" => {}
                "mut" => {
                    words.next();
                    return words.next().map(ident_prefix);
                }
                name => return Some(ident_prefix(name)),
            },
            _ => return None,
        }
    }
}

/// The leading identifier of `s` (`name<T>(` → `name`).
fn ident_prefix(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// The workspace-level rule, which needs every file at once:
///
/// **`no-dead-pub`** — a `pub fn`, `pub const` or `pub static` outside the
/// test modules of a `crates/*/src` file (a [`SourceFile`] with a crate)
/// whose name no other file names. Names are matched on scrubbed text, so a
/// mention in a comment or a string is not a caller. The caller roots are
/// every file passed in: `fela-lint` passes `crates/`, `tests/`, `examples/`
/// and `fela_benchmark/src` (its own workspace, which the workspace build
/// never compiles).
pub fn lint_workspace(files: &[SourceFile]) -> Vec<LintFinding> {
    let scrubbed_files: Vec<Vec<String>> = files
        .iter()
        .map(|f| f.content.lines().map(scrubbed).collect())
        .collect();
    // Which files name each identifier.
    let mut named_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (i, lines) in scrubbed_files.iter().enumerate() {
        for line in lines {
            for word in line.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                named_in.entry(word).or_default().insert(i);
            }
        }
    }
    let mut findings = Vec::new();
    for (i, (file, lines)) in files.iter().zip(&scrubbed_files).enumerate() {
        let Some(krate) = &file.krate else {
            continue;
        };
        let in_test = test_regions(lines);
        for ((l, line), raw) in lines.iter().enumerate().zip(file.content.lines()) {
            let Some(name) = pub_item_name(line).filter(|n| !n.is_empty() && !in_test[l]) else {
                continue;
            };
            if named_in[name].iter().all(|&user| user == i) {
                findings.push(LintFinding {
                    rule: "no-dead-pub",
                    krate: krate.clone(),
                    path: file.path.clone(),
                    line: l + 1,
                    snippet: raw.trim().to_owned(),
                });
            }
        }
    }
    findings
}

/// Lints one source file. `crate_name` selects which rules apply; `path` only
/// labels findings.
pub fn lint_source(path: &str, crate_name: &str, content: &str) -> Vec<LintFinding> {
    let unwrap_rule = NO_UNWRAP_CRATES.contains(&crate_name);
    let determinism_rule = DETERMINISM_CRATES.contains(&crate_name);
    let mut findings = Vec::new();

    // Pass 1: find `#[cfg(test)]`-gated regions, and collect identifiers
    // bound to hash containers.
    let lines: Vec<&str> = content.lines().collect();
    let scrubbed_lines: Vec<String> = lines.iter().map(|l| scrubbed(l)).collect();
    let in_test = test_regions(&scrubbed_lines);

    let mut hash_idents: BTreeSet<String> = BTreeSet::new();
    for (i, line) in scrubbed_lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        // `let seen: HashMap<...>` / `let seen = HashMap::new()` / struct
        // fields `seen: HashMap<...>`; HashSet alike.
        for container in ["HashMap", "HashSet"] {
            if let Some(pos) = line.find(container) {
                let before = &line[..pos];
                if let Some(ident) = binding_ident(before) {
                    hash_idents.insert(ident);
                }
            }
        }
    }

    // Pass 2: per-line rules.
    for (i, line) in scrubbed_lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let mut push = |rule: &'static str| {
            findings.push(LintFinding {
                rule,
                krate: crate_name.to_owned(),
                path: path.to_owned(),
                line: i + 1,
                snippet: lines[i].trim().to_owned(),
            });
        };
        if unwrap_rule && (line.contains(".unwrap()") || line.contains(".expect(")) {
            push("no-unwrap");
        }
        // Workspace-global: any crate reading the wall clock needs a
        // crate-scoped allowlist entry (see [`Allowlist`]).
        if line.contains("SystemTime") || line.contains("Instant::now") {
            push("no-wallclock");
        }
        if determinism_rule
            && (line.contains("thread_rng(")
                || line.contains("rand::random")
                || line.contains("from_entropy"))
        {
            push("no-unseeded-rng");
        }
        // Ordered iteration over a hash container local.
        for method in [
            ".iter()",
            ".iter_mut()",
            ".keys()",
            ".values()",
            ".values_mut()",
            ".into_iter()",
        ] {
            if let Some(pos) = line.find(method) {
                let receiver = receiver_ident(&line[..pos]);
                if let Some(r) = receiver {
                    if hash_idents.contains(&r) {
                        push("hashmap-order");
                        break;
                    }
                }
            }
        }
    }

    // Pass 3 (lock-discipline crates only): track live `MutexGuard`s by brace
    // depth and check acquisition order plus blocking calls under a guard.
    if LOCK_DISCIPLINE_CRATES.contains(&crate_name) {
        // Live let-bound guards: (brace depth at binding, lock name, binding name).
        let mut guards: Vec<(i64, String, String)> = Vec::new();
        let mut depth: i64 = 0;
        for (i, line) in scrubbed_lines.iter().enumerate() {
            if !in_test[i] {
                let mut push = |rule: &'static str| {
                    findings.push(LintFinding {
                        rule,
                        krate: crate_name.to_owned(),
                        path: path.to_owned(),
                        line: i + 1,
                        snippet: lines[i].trim().to_owned(),
                    });
                };
                // `drop(guard)` releases a guard early.
                if let Some(pos) = line.find("drop(") {
                    let inner: String = line[pos + 5..]
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    guards.retain(|(_, _, binding)| *binding != inner);
                }
                if let Some(pos) = line.find(".lock()") {
                    match receiver_ident(&line[..pos]) {
                        Some(lock) => match LOCK_ORDER.iter().position(|l| *l == lock) {
                            None => push("lock-order"),
                            Some(idx) => {
                                let held_out_of_order = guards.iter().any(|(_, held, _)| {
                                    LOCK_ORDER
                                        .iter()
                                        .position(|l| l == held)
                                        .is_some_and(|h| h >= idx)
                                });
                                if held_out_of_order {
                                    push("lock-order");
                                }
                                // A `let`-bound guard lives to the end of its
                                // block; a temporary dies at the statement.
                                if line[..pos].contains("let ") {
                                    let binding = line[..pos]
                                        .rfind("let ")
                                        .map(|l| {
                                            line[l + 4..]
                                                .trim_start()
                                                .trim_start_matches("mut ")
                                                .chars()
                                                .take_while(|c| c.is_alphanumeric() || *c == '_')
                                                .collect::<String>()
                                        })
                                        .unwrap_or_default();
                                    guards.push((depth, lock, binding));
                                }
                            }
                        },
                        None => push("lock-order"),
                    }
                }
                if !guards.is_empty()
                    && [".recv(", ".flush(", "sleep("]
                        .iter()
                        .any(|p| line.contains(p))
                {
                    push("no-blocking-under-lock");
                }
            }
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        guards.retain(|(d, _, _)| *d <= depth);
                    }
                    _ => {}
                }
            }
        }
    }

    // Pass 4 (WAL-discipline crates only): the group-commit rule. Inside
    // `impl ControlPlane` / `impl WalWriter` an append may stay staged (the
    // plane commits the batch in `commit_wal`); anywhere else it must be
    // committed before its enclosing block closes — `.commit(` flushes the
    // whole staged batch, so one commit clears every pending append. In a
    // file that drives a `ControlPlane` or `ServerCore`, a decision leaving
    // (a link `.flush(` / `.send(`, a call of the core's `deliver` callback,
    // or a simulated `GrantArrive`) must follow a `.commit_wal(` in the same
    // function body, or sit inside the closure handed to the core's
    // `.dispatch(`, which commits before it calls that closure.
    if WAL_DISCIPLINE_CRATES.contains(&crate_name) {
        let server_file = scrubbed_lines
            .iter()
            .enumerate()
            .any(|(i, l)| !in_test[i] && (l.contains("ControlPlane") || l.contains("ServerCore")));
        // Depth outside the open `.dispatch(` call, if any.
        let mut dispatch_call: Option<i64> = None;
        // Uncommitted appends: (line idx, depth at append).
        let mut pending: Vec<(usize, i64)> = Vec::new();
        // Open function bodies: (depth outside the body, committed yet).
        let mut fns: Vec<(i64, bool)> = Vec::new();
        let mut awaiting_body = false;
        // Depth outside the open `impl ControlPlane` / `impl WalWriter`.
        let mut staging_impl: Option<i64> = None;
        let mut depth: i64 = 0;
        let push = |findings: &mut Vec<LintFinding>, l: usize| {
            findings.push(LintFinding {
                rule: "no-unflushed-wal",
                krate: crate_name.to_owned(),
                path: path.to_owned(),
                line: l + 1,
                snippet: lines[l].trim().to_owned(),
            });
        };
        for (i, line) in scrubbed_lines.iter().enumerate() {
            if !in_test[i] {
                if staging_impl.is_none()
                    && impl_self_type(line).is_some_and(|ty| WAL_STAGING_TYPES.contains(&ty))
                {
                    staging_impl = Some(depth);
                }
                if opens_fn(line) {
                    awaiting_body = true;
                }
                if awaiting_body && line.contains('{') {
                    fns.push((depth, false));
                    awaiting_body = false;
                } else if awaiting_body && line.trim_end().ends_with(';') {
                    awaiting_body = false; // a body-less trait method
                }
                let append_at = [".append_op(", ".append_begin(", ".append_checkpoint("]
                    .iter()
                    .filter_map(|p| line.find(p))
                    .min();
                let commit_at = line.find(".commit(");
                if commit_at.is_some() {
                    pending.clear();
                }
                if let Some(at) = append_at {
                    // `append(..); commit()` on one line is already flushed.
                    if staging_impl.is_none() && commit_at.is_none_or(|c| c <= at) {
                        pending.push((i, depth));
                    }
                }
                if server_file {
                    let dispatch_at = line.find(".dispatch(");
                    if dispatch_call.is_none() && dispatch_at.is_some() {
                        dispatch_call = Some(depth);
                    }
                    let write_at = [".flush(", ".send("]
                        .iter()
                        .filter_map(|p| line.find(p))
                        .chain(deliver_call(line))
                        .chain(sim_grant_delivery(&scrubbed_lines, i))
                        .min();
                    let commit_wal_at = line.find(".commit_wal(");
                    let in_dispatch = dispatch_call.is_some_and(|d| d < depth)
                        || dispatch_at.is_some_and(|d| write_at.is_some_and(|w| w > d));
                    if let Some((_, committed)) = fns.last_mut() {
                        if let Some(w) = write_at {
                            if !*committed && !in_dispatch && commit_wal_at.is_none_or(|c| c > w) {
                                push(&mut findings, i);
                            }
                        }
                        *committed |= commit_wal_at.is_some();
                    }
                }
            }
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        while let Some(pos) = pending.iter().position(|&(_, d)| d > depth) {
                            let (l, _) = pending.remove(pos);
                            push(&mut findings, l);
                        }
                        while fns.last().is_some_and(|&(d, _)| d >= depth) {
                            fns.pop();
                        }
                        if dispatch_call.is_some_and(|d| d >= depth) {
                            dispatch_call = None;
                        }
                        if staging_impl.is_some_and(|d| d >= depth) {
                            staging_impl = None;
                        }
                    }
                    _ => {}
                }
            }
        }
        for (l, _) in pending {
            push(&mut findings, l);
        }
    }
    findings
}

/// Extracts the identifier being bound before a container type mention:
/// `let foo: HashMap` / `foo = HashMap::new` / struct field `foo: HashMap<`.
fn binding_ident(before: &str) -> Option<String> {
    let before = before.trim_end();
    let before = before
        .strip_suffix(':')
        .or_else(|| before.strip_suffix('='))
        .unwrap_or(before)
        .trim_end();
    // Drop a type annotation between the name and `=`: `let x: Foo =`.
    let name_part = before.split(':').next()?.trim_end();
    let ident: String = name_part
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    let ident = ident
        .trim_start_matches(|c: char| c.is_numeric())
        .to_owned();
    if ident.is_empty() || ident == "mut" || ident == "let" {
        None
    } else {
        Some(ident)
    }
}

/// Extracts the receiver identifier of a method call: `self.seen.iter()` → `seen`.
fn receiver_ident(before: &str) -> Option<String> {
    let ident: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(findings: &[LintFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_flagged_in_runtime_crates_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules(&lint_source("a.rs", "fela-core", src)), ["no-unwrap"]);
        assert!(lint_source("a.rs", "fela-bench", src).is_empty());
    }

    #[test]
    fn expect_flagged() {
        let src = "let v = map.get(&k).expect(\"present\");\n";
        assert_eq!(rules(&lint_source("a.rs", "fela-sim", src)), ["no-unwrap"]);
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "\
fn ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
fn also_ok() {}
";
        assert!(lint_source("a.rs", "fela-core", src).is_empty());
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { Some(1).unwrap(); }
}
fn bad() { Some(1).unwrap(); }
";
        let findings = lint_source("a.rs", "fela-core", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn comments_and_strings_do_not_match() {
        let src = "\
// calling .unwrap() here would be bad
let msg = \"never .unwrap() in prod\";
";
        assert!(lint_source("a.rs", "fela-core", src).is_empty());
    }

    #[test]
    fn wallclock_flagged_in_every_crate() {
        // no-wallclock is workspace-global: exemptions go through crate-scoped
        // allowlist entries, not through the rule's crate list.
        let src = "let t = std::time::Instant::now();\n";
        for krate in ["fela-sim", "fela-net", "fela-live", "fela-bench"] {
            assert_eq!(
                rules(&lint_source("a.rs", krate, src)),
                ["no-wallclock"],
                "{krate}"
            );
        }
        let finding = &lint_source("a.rs", "fela-live", src)[0];
        assert_eq!(finding.krate, "fela-live");
    }

    #[test]
    fn crate_scoped_allowlist_exempts_only_the_listed_crate() {
        let allow = Allowlist::parse(
            "# real-clock mode is fela-live's whole point\ncrate:no-wallclock fela-live\n",
        );
        let src = "let t = std::time::Instant::now();\n";
        let live = &lint_source("a.rs", "fela-live", src)[0];
        assert!(allow.permits(live));
        // An unlisted crate with the identical finding still fails the gate.
        let net = &lint_source("a.rs", "fela-net", src)[0];
        assert!(!allow.permits(net));
        // Exact crate-name match: no prefix bleed.
        let lookalike = LintFinding {
            krate: "fela-live-extras".into(),
            ..live.clone()
        };
        assert!(!allow.permits(&lookalike));
        // A crate-scoped entry does not suppress other rules in that crate.
        let other_rule = LintFinding {
            rule: "no-unwrap",
            ..live.clone()
        };
        assert!(!allow.permits(&other_rule));
    }

    #[test]
    fn crate_scoped_entry_with_substring_narrows_the_exemption() {
        let allow = Allowlist::parse("crate:no-wallclock fela-harness Instant::now\n");
        let timing = &lint_source(
            "sweep.rs",
            "fela-harness",
            "let started = Instant::now();\n",
        )[0];
        assert!(allow.permits(timing));
        let systime = &lint_source("sweep.rs", "fela-harness", "let t = SystemTime::now();\n")[0];
        assert!(!allow.permits(systime), "substring must still gate");
    }

    #[test]
    fn unseeded_rng_flagged() {
        let src = "let mut rng = rand::thread_rng();\n";
        assert_eq!(
            rules(&lint_source("a.rs", "fela-core", src)),
            ["no-unseeded-rng"]
        );
    }

    #[test]
    fn hashmap_iteration_flagged() {
        let src = "\
use std::collections::HashMap;
let mut seen: HashMap<u64, u64> = HashMap::new();
for (k, v) in seen.iter() { out.push((k, v)); }
";
        let findings = lint_source("a.rs", "fela-metrics", src);
        assert_eq!(rules(&findings), ["hashmap-order"]);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn hashset_membership_without_iteration_is_fine() {
        let src = "\
let mut seen: HashSet<u64> = HashSet::new();
if seen.insert(x) { work(x); }
";
        assert!(lint_source("a.rs", "fela-metrics", src).is_empty());
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = "\
let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
for (k, v) in seen.iter() { out.push((k, v)); }
";
        assert!(lint_source("a.rs", "fela-core", src).is_empty());
    }

    #[test]
    fn allowlist_suppresses_by_rule_path_and_substring() {
        let finding = LintFinding {
            rule: "no-unwrap",
            krate: "fela-sim".into(),
            path: "crates/sim/src/time.rs".into(),
            line: 10,
            snippet: "self.nanos.checked_add(d.nanos).expect(\"overflow\")".into(),
        };
        let allow = Allowlist::parse(
            "# overflow guards are deliberate\nno-unwrap sim/src/time.rs checked_add\n",
        );
        assert_eq!(allow.len(), 1);
        assert!(allow.permits(&finding));
        // Different rule or non-matching substring: not suppressed.
        let other = LintFinding {
            rule: "no-wallclock",
            ..finding.clone()
        };
        assert!(!allow.permits(&other));
        let different_line = LintFinding {
            snippet: "x.expect(\"other\")".into(),
            ..finding
        };
        assert!(!allow.permits(&different_line));
    }

    #[test]
    fn lock_order_violation_is_flagged() {
        // `open` precedes `seen` in LOCK_ORDER — acquiring `seen` while the
        // `open` guard is live inverts the declared order.
        let src = "\
fn f(&self) {
    let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
    let mut seen = self.seen.lock().unwrap_or_else(|p| p.into_inner());
}
";
        let findings = lint_source("a.rs", "fela-live", src);
        assert_eq!(rules(&findings), ["lock-order"]);
        assert_eq!(findings[0].line, 3);
        // The correct order is clean.
        let src = "\
fn f(&self) {
    let mut seen = self.seen.lock().unwrap_or_else(|p| p.into_inner());
    let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
}
";
        assert!(lint_source("a.rs", "fela-live", src).is_empty());
    }

    #[test]
    fn undeclared_mutex_is_a_lock_order_finding() {
        let src = "let g = self.mystery.lock().unwrap_or_else(|p| p.into_inner());\n";
        assert_eq!(
            rules(&lint_source("a.rs", "fela-live", src)),
            ["lock-order"]
        );
        // Outside the discipline crates the rule does not apply.
        assert!(lint_source("a.rs", "fela-harness", src).is_empty());
    }

    #[test]
    fn scoped_guards_end_at_their_block() {
        // sched.rs's actual shape: the `seen` guard dies with its block, so
        // the later `open` acquisition is a fresh (ordered) one.
        let src = "\
fn reached(&self) {
    {
        let mut seen = self.seen.lock().unwrap_or_else(|p| p.into_inner());
        seen.push(1);
    }
    let mut open = self.open.lock().unwrap_or_else(|p| p.into_inner());
}
";
        assert!(lint_source("a.rs", "fela-live", src).is_empty());
    }

    #[test]
    fn dropping_a_guard_releases_it() {
        let src = "\
fn f(&self) {
    let g = self.open.lock().unwrap_or_else(|p| p.into_inner());
    drop(g);
    let s = self.seen.lock().unwrap_or_else(|p| p.into_inner());
}
";
        assert!(lint_source("a.rs", "fela-live", src).is_empty());
    }

    #[test]
    fn blocking_under_a_live_guard_is_flagged() {
        let src = "\
fn f(&self) {
    let g = self.events.lock().unwrap_or_else(|p| p.into_inner());
    let frame = link.recv();
}
";
        let findings = lint_source("a.rs", "fela-live", src);
        assert_eq!(rules(&findings), ["no-blocking-under-lock"]);
        let src = "\
fn f(&self) {
    let g = self.events.lock().unwrap_or_else(|p| p.into_inner());
    tx.flush()?;
}
";
        assert_eq!(
            rules(&lint_source("a.rs", "fela-live", src)),
            ["no-blocking-under-lock"]
        );
        let src = "\
fn f(&self) {
    let g = self.events.lock().unwrap_or_else(|p| p.into_inner());
    std::thread::sleep(d);
}
";
        assert_eq!(
            rules(&lint_source("a.rs", "fela-live", src)),
            ["no-blocking-under-lock"]
        );
        // A transient guard (temporary, dies at the statement) does not hold
        // anything across the next line.
        let src = "\
fn f(&self) {
    self.events.lock().unwrap_or_else(|p| p.into_inner()).push(e);
    std::thread::sleep(d);
}
";
        assert!(lint_source("a.rs", "fela-live", src).is_empty());
    }

    #[test]
    fn lock_rules_are_allowlistable() {
        let src = "let g = self.mystery.lock().unwrap_or_else(|p| p.into_inner());\n";
        let finding = &lint_source("src/x.rs", "fela-live", src)[0];
        let allow = Allowlist::parse("lock-order src/x.rs mystery\n");
        assert!(allow.permits(finding));
    }

    #[test]
    fn unflushed_wal_append_is_flagged() {
        let src = "\
fn record(&mut self) {
    if let Some(wal) = self.wal.as_mut() {
        wal.append_op(&op);
    }
}
";
        let findings = lint_source("a.rs", "fela-core", src);
        assert_eq!(rules(&findings), ["no-unflushed-wal"]);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn committed_wal_append_is_clean() {
        let src = "\
fn record(&mut self) {
    if let Some(wal) = self.wal.as_mut() {
        wal.append_op(&op);
        if let Err(e) = wal.commit() {
            panic!(\"WAL append failed: {e}\");
        }
    }
}
";
        assert!(lint_source("a.rs", "fela-core", src).is_empty());
        // Same-line append + commit is also flushed.
        let src = "fn f(w: &mut WalWriter) { w.append_op(&op); w.commit().ok(); }\n";
        assert!(lint_source("a.rs", "fela-live", src).is_empty());
    }

    #[test]
    fn a_commit_before_the_append_does_not_count() {
        let src = "\
fn f(w: &mut WalWriter) {
    w.commit().ok();
    w.append_checkpoint(payload, &tokens, &snapshot);
}
";
        assert_eq!(
            rules(&lint_source("a.rs", "fela-core", src)),
            ["no-unflushed-wal"]
        );
    }

    #[test]
    fn unflushed_wal_rule_scopes_to_the_durability_crates() {
        let src = "fn f(w: &mut WalWriter) { w.append_begin(1, 2, 3); }\n";
        assert_eq!(
            rules(&lint_source("a.rs", "fela-core", src)),
            ["no-unflushed-wal"]
        );
        assert!(lint_source("a.rs", "fela-bench", src).is_empty());
        // Definitions don't trip the receiver-dot patterns.
        let def = "pub fn append_op(&mut self, op: &CoordOp) {\n    self.staged.push(0);\n}\n";
        assert!(lint_source("a.rs", "fela-core", def).is_empty());
    }

    #[test]
    fn the_plane_and_the_writer_may_leave_appends_staged() {
        // The plane stages every op; its group commit is `commit_wal`.
        let src = "\
impl ControlPlane {
    fn record(&mut self, op: CoordOp) {
        if let Some(wal) = &mut self.wal {
            wal.writer.append_op(&op);
        }
    }
}
fn elsewhere(w: &mut WalWriter) {
    w.append_op(&op);
}
";
        let findings = lint_source("plane.rs", "fela-core", src);
        assert_eq!(rules(&findings), ["no-unflushed-wal"]);
        assert_eq!(findings[0].line, 9, "only the append outside the plane");
    }

    #[test]
    fn a_server_link_write_before_the_group_commit_is_flagged() {
        let src = "\
struct RealServer { server: ControlPlane }
impl RealServer {
    fn flush_grants(&mut self) -> io::Result<()> {
        if let Some(tx) = self.txs[0].as_mut() {
            tx.queue(&frame).and_then(|()| tx.flush())?;
        }
        self.server.commit_wal()?;
        Ok(())
    }
}
";
        let findings = lint_source("real.rs", "fela-live", src);
        assert_eq!(rules(&findings), ["no-unflushed-wal"]);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn a_server_link_write_after_the_group_commit_is_clean() {
        let src = "\
struct RealServer { server: ControlPlane }
impl RealServer {
    fn flush_grants(&mut self) -> io::Result<()> {
        self.server.commit_wal()?;
        if let Some(tx) = self.txs[0].as_mut() {
            tx.queue(&frame).and_then(|()| tx.flush())?;
        }
        Ok(())
    }
    fn hang(&mut self) -> io::Result<()> {
        self.server.commit_wal()?; let _ = tx.send(&Frame::Hang { nanos });
        Ok(())
    }
}
";
        assert!(lint_source("real.rs", "fela-live", src).is_empty());
        // The commit belongs to its own function body: a write in the next
        // function needs one of its own.
        let src = "\
struct RealServer { server: ControlPlane }
fn commits(s: &mut RealServer) -> io::Result<()> {
    s.server.commit_wal()
}
fn writes(tx: &mut LinkTx) {
    let _ = tx.send(&Frame::End);
}
";
        let findings = lint_source("real.rs", "fela-live", src);
        assert_eq!(rules(&findings), ["no-unflushed-wal"]);
        assert_eq!(findings[0].line, 6);
        // A file that drives no control plane (the worker side) writes freely.
        let worker =
            "fn run(link: &mut Link) {\n    link.send(&Frame::Request { worker: 0 });\n}\n";
        assert!(lint_source("worker.rs", "fela-live", worker).is_empty());
    }

    #[test]
    fn the_core_dispatch_commits_before_it_delivers() {
        let core = "\
struct ServerCore { plane: ControlPlane }
impl ServerCore {
    pub fn dispatch(&mut self, mut deliver: impl FnMut(Outbound<'_>)) -> io::Result<()> {
        self.plane.commit_wal()?;
        deliver(Outbound { worker: 0 });
        Ok(())
    }
}
";
        assert!(lint_source("server_core.rs", "fela-core", core).is_empty());
        // Without the commit, the callback call is the grant leaving early.
        let uncommitted = core.replace("        self.plane.commit_wal()?;\n", "");
        let findings = lint_source("server_core.rs", "fela-core", &uncommitted);
        assert_eq!(rules(&findings), ["no-unflushed-wal"]);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn the_simulator_schedules_grants_only_inside_the_dispatch() {
        let sim = "\
struct FelaWorld { core: ServerCore }
impl FelaWorld {
    fn ship(&mut self, sched: &mut Scheduler<'_, Ev>) {
        let shipped = self.core.dispatch(now, |out| {
            for grant in out.grants {
                sched.schedule_in(rpc, Ev::GrantArrive { worker, grant, epoch });
                sched.schedule_in(
                    rpc,
                    Ev::GrantArrive {
                        worker,
                        grant,
                        epoch,
                    },
                );
            }
        });
    }
    fn on_event(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        match event {
            Ev::GrantArrive {
                worker,
                grant,
                epoch,
            } => {
                sched.schedule_in(span, Ev::ComputeDone { worker });
            }
            Ev::GrantArrive { .. } | Ev::ComputeDone { .. } => {}
        }
    }
}
";
        assert!(lint_source("runtime.rs", "fela-core", sim).is_empty());
        // A grant scheduled outside the dispatch reaches a worker uncommitted,
        // whether its statement fits one line or rustfmt wraps it.
        for grant in [
            "Ev::GrantArrive { worker, grant, epoch });\n",
            "\n            Ev::GrantArrive {\n                worker,\n            },\n        );\n",
        ] {
            let early = sim.replace(
                "        match event {\n",
                &format!("        sched.schedule_at(at, {grant}        match event {{\n"),
            );
            let findings = lint_source("runtime.rs", "fela-core", &early);
            assert_eq!(rules(&findings), ["no-unflushed-wal"], "{early}");
            assert_eq!(findings[0].line, 19);
        }
    }

    #[test]
    fn a_link_write_inside_the_dispatch_closure_is_clean() {
        let src = "\
struct RealServer { core: ServerCore }
impl RealServer {
    fn dispatch(&mut self) -> io::Result<()> {
        self.core.dispatch(now, |out| {
            let Some(tx) = self.txs[out.worker].as_mut() else {
                return;
            };
            let _ = tx.flush();
        })
    }
    fn hang(&mut self) {
        let _ = self.txs[0].as_mut().map(|tx| tx.send(&Frame::Hang { nanos }));
    }
}
";
        let findings = lint_source("real.rs", "fela-live", src);
        assert_eq!(rules(&findings), ["no-unflushed-wal"]);
        assert_eq!(findings[0].line, 12, "only the write outside the dispatch");
    }

    #[test]
    fn a_link_write_after_the_core_s_serve_is_flagged() {
        // `serve` queues the waiters' grants and commits nothing, so it is
        // never a second way out: a write after it still needs the commit.
        let src = "\
struct RealServer { core: ServerCore }
impl RealServer {
    fn ship(&mut self, now: SimTime) -> io::Result<()> {
        self.core.serve(now).map_err(fatal)?;
        if let Some(tx) = self.txs[0].as_mut() {
            let _ = tx.send(&frame);
        }
        Ok(())
    }
}
";
        let findings = lint_source("real.rs", "fela-live", src);
        assert_eq!(rules(&findings), ["no-unflushed-wal"]);
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn unflushed_wal_findings_are_allowlistable() {
        let src = "fn f(w: &mut WalWriter) { w.append_op(&op); }\n";
        let finding = &lint_source("src/x.rs", "fela-core", src)[0];
        let allow = Allowlist::parse("no-unflushed-wal src/x.rs append_op\n");
        assert!(allow.permits(finding));
    }

    fn file(path: &str, krate: Option<&str>, content: &str) -> SourceFile {
        SourceFile {
            path: path.into(),
            krate: krate.map(str::to_owned),
            content: content.into(),
        }
    }

    const DEAD_PUB_LIB: &str = "\
pub fn orphan() {}
pub const LIMIT: u8 = 1;
pub static mut SLOT: u8 = 0;
pub const fn used_here() -> u8 { 1 }
fn private() -> u8 { used_here() }
pub(crate) fn scoped() {}
#[cfg(test)]
mod tests {
    pub fn helper() { super::orphan(); }
}
";

    #[test]
    fn dead_pub_flags_public_items_no_other_file_names() {
        // Comments and strings elsewhere are not callers.
        let other = "// orphan LIMIT SLOT used_here\nlet s = \"orphan\";\n";
        let findings = lint_workspace(&[
            file("crates/x/src/lib.rs", Some("fela-x"), DEAD_PUB_LIB),
            file("crates/x/src/other.rs", Some("fela-x"), other),
        ]);
        assert!(findings.iter().all(|f| f.rule == "no-dead-pub"));
        assert!(findings.iter().all(|f| f.krate == "fela-x"));
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 2, 3, 4], "{findings:?}");
    }

    #[test]
    fn dead_pub_counts_every_caller_root() {
        let lib = file("crates/x/src/lib.rs", Some("fela-x"), DEAD_PUB_LIB);
        // A sibling crate, a workspace test and the benchmark's own
        // workspace each name some of the items; none of them is linted.
        let sibling = file("crates/y/src/lib.rs", Some("fela-y"), "x::orphan();\n");
        let test = file("tests/tests/x.rs", None, "assert_eq!(x::LIMIT, 1);\n");
        let bench = file(
            "fela_benchmark/src/main.rs",
            None,
            "x::SLOT = x::used_here();\n",
        );
        assert!(lint_workspace(&[lib.clone(), sibling.clone(), test.clone(), bench]).is_empty());
        // Without the benchmark, the two items only it names are dead.
        let findings = lint_workspace(&[lib, sibling, test]);
        assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    fn dead_pub_findings_are_allowlistable() {
        let findings = lint_workspace(&[file("crates/x/src/lib.rs", Some("fela-x"), DEAD_PUB_LIB)]);
        let allow = Allowlist::parse("no-dead-pub x/src/lib.rs orphan\n");
        let kept: Vec<usize> = findings
            .iter()
            .filter(|f| !allow.permits(f))
            .map(|f| f.line)
            .collect();
        assert_eq!(kept, [2, 3, 4]);
    }

    #[test]
    fn nested_test_module_brace_counting() {
        let src = "\
mod outer {
    #[cfg(test)]
    mod tests {
        mod inner {
            fn t() { Some(1).unwrap(); }
        }
    }
    fn bad() { Some(1).unwrap(); }
}
";
        let findings = lint_source("a.rs", "fela-core", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 8);
    }
}
