//! Small-scale smoke test of the benchmark: every workload, untraced and
//! traced, end to end on small data. Each run must exit 0, report every
//! metric `BENCHMARK.json` names with its unit, and count no failure.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn object(v: &Value) -> &serde_json::Map<String, Value> {
    match v {
        Value::Object(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    object(v).get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn string(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Number(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one list of the benchmark file.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    match field(bench, list) {
        Value::Array(items) => items
            .iter()
            .map(|m| (string(field(m, "name")).to_string(), string(field(m, "unit")).to_string()))
            .collect(),
        other => panic!("{list} is not a list: {other:?}"),
    }
}

fn run(workload: &str, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_kvmatch-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2", "--trace"])
        .arg(trace.to_string())
        .args(["--scale", "smoke"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: expected a report and a result line");
    let report = serde_json::from_str(lines[lines.len() - 2]).expect("report line is JSON");
    let result = serde_json::from_str(lines[lines.len() - 1]).expect("result line is JSON");
    (report, result)
}

#[test]
fn every_workload_reports_every_metric_and_no_failure() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let bench = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = match field(&bench, "workloads") {
        Value::Array(items) => items.iter().map(|w| string(field(w, "name")).to_string()).collect(),
        other => panic!("workloads is not a list: {other:?}"),
    };
    assert_eq!(workloads, ["analyst_mix", "monitor_fanout", "ingest_query"]);
    for workload in &workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (report, result) = run(workload, trace);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}");
            assert_eq!(number(field(&result, "failed")), 0.0, "{workload}");
            assert!(number(field(&result, "attempted")) >= 1.0, "{workload}");
            assert_eq!(number(field(&report, "failed_frac")), 0.0, "{workload}");
            let metrics = object(field(&result, "metrics"));
            let wanted = declared(&bench, list);
            assert_eq!(metrics.len(), wanted.len(), "{workload} {list}: extra or missing metrics");
            for (name, unit) in wanted {
                let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert_eq!(string(field(m, "unit")), unit, "{workload}: unit of {name}");
                let value = number(field(m, "value"));
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if list == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} must never be 0");
                }
            }
        }
    }
}
