//! Smoke test of the benchmark at `--quick` sizes: every workload runs and
//! passes its checks, every metric `BENCHMARK.json` names is printed with its
//! unit, and the results file parses.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

/// The `key` list of `BENCHMARK.json` as `(name, unit)` pairs; workloads
/// have no unit and get an empty one.
fn manifest(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its last stdout line, parsed.
fn run(extra: &[&str], out: &str) -> Value {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    let output = Command::new(env!("CARGO_BIN_EXE_fela_benchmark"))
        .args(["--quick", "--out"])
        .arg(&out)
        .args(extra)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let results = std::fs::read_to_string(&out).expect("results file written");
    let results: Value = serde_json::from_str(&results).expect("results file parses");
    assert!(results
        .get("sets")
        .and_then(Value::as_array)
        .is_some_and(|s| s.len() == 1));
    let last = stdout.lines().last().expect("output");
    serde_json::from_str(last).expect("last line is JSON")
}

fn check(line: &Value, metrics: &[(String, String)]) {
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{line:?}");
    assert_eq!(line.get("failed"), Some(&Value::U64(0)));
    let workloads = line
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let names: Vec<&str> = workloads.iter().map(|(name, _)| name.as_str()).collect();
    let mut expected: Vec<String> = manifest("workloads").into_iter().map(|(n, _)| n).collect();
    expected.sort();
    assert_eq!(names, expected);
    for (workload, got) in workloads {
        for (name, unit) in metrics {
            let unit_got = got
                .get(name)
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str);
            assert_eq!(unit_got, Some(unit.as_str()), "{workload} {name}");
        }
    }
}

#[test]
fn quick_run_reports_every_end_to_end_metric() {
    check(&run(&[], "quick.json"), &manifest("end_to_end"));
}

#[test]
fn quick_trace_reports_every_per_layer_metric() {
    check(
        &run(&["--trace"], "quick-trace.json"),
        &manifest("per_layer"),
    );
}
