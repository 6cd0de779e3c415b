//! `fela-lint` — the workspace lint gate.
//!
//! Walks every `crates/*/src` tree and applies the per-file rules in
//! [`fela_check::lint`], then runs the workspace rule (`no-dead-pub`) over
//! those files plus its other caller roots: the rest of `crates/`, `tests/`,
//! `examples/` and `fela_benchmark/src`. Findings go through
//! `fela-lint.allow` at the workspace root; the survivors are printed and
//! the exit code is non-zero if any remain.
//!
//! Usage: `fela-lint [workspace-root]` (default: the current directory, or its
//! nearest ancestor containing `crates/`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fela_check::lint::{lint_source, lint_workspace, Allowlist, LintFinding, SourceFile};

fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects `.rs` files under `dir`, sorted for deterministic output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(arg) => PathBuf::from(arg),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(cwd) => cwd,
                Err(e) => {
                    eprintln!("fela-lint: cannot read the current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!(
                        "fela-lint: no `crates/` directory found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let allow_path = root.join("fela-lint.allow");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(content) => Allowlist::parse(&content),
        Err(_) => Allowlist::default(),
    };

    // `crates/` is required; the other caller roots of `no-dead-pub` are
    // read when present.
    let mut files = Vec::new();
    for name in ["crates", "tests", "examples", "fela_benchmark/src"] {
        let dir = root.join(name);
        if name != "crates" && !dir.is_dir() {
            continue;
        }
        if let Err(e) = rust_files(&dir, &mut files) {
            eprintln!("fela-lint: cannot walk {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let content = match std::fs::read_to_string(&file) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("fela-lint: cannot read {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
        // Files under `crates/<dir>/src` are linted; package names are
        // `fela-<dir>` throughout the workspace. Every other file only
        // counts as a caller.
        let krate = match parts.as_slice() {
            [crates, dir, src, ..] if crates == "crates" && src == "src" => {
                Some(format!("fela-{dir}"))
            }
            _ => None,
        };
        sources.push(SourceFile {
            path: rel.to_string_lossy().into_owned(),
            krate,
            content,
        });
    }

    let files_scanned = sources.iter().filter(|s| s.krate.is_some()).count();
    let per_file = sources
        .iter()
        .filter_map(|s| Some(lint_source(&s.path, s.krate.as_deref()?, &s.content)))
        .flatten();
    let (suppressed, findings): (Vec<LintFinding>, Vec<LintFinding>) = per_file
        .chain(lint_workspace(&sources))
        .partition(|finding| allow.permits(finding));

    for finding in &findings {
        println!("{finding}");
    }
    eprintln!(
        "fela-lint: {} file(s), {} finding(s), {} allowlisted",
        files_scanned,
        findings.len(),
        suppressed.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
