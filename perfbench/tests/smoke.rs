//! Smoke-sized run of every workload through the benchmark's own command
//! (`python3 perfbench/run.py`), untraced and traced: each result carries
//! every metric `BENCHMARK.json` names for that mode, with its unit, and
//! no operation failed.
//!
//! Run: `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use std::path::Path;
use std::process::Command;

use orap_bench::json::{parse, Json};

fn get<'a>(obj: &'a Json, key: &str) -> &'a Json {
    match obj {
        Json::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object where {key} was expected"),
    }
}

fn str_of(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        _ => panic!("expected a string, got {}", v.compact()),
    }
}

fn array(v: &Json) -> &[Json] {
    match v {
        Json::Array(a) => a,
        _ => panic!("expected an array"),
    }
}

fn number(v: &Json) -> f64 {
    match v {
        Json::UInt(n) => *n as f64,
        Json::Int(n) => *n as f64,
        Json::Float(f) => *f,
        _ => panic!("expected a number, got {}", v.compact()),
    }
}

/// (name, unit) of every metric in one list of `BENCHMARK.json`.
fn specs(bench: &Json, list: &str) -> Vec<(String, String)> {
    array(get(bench, list))
        .iter()
        .map(|m| {
            (
                str_of(get(m, "name")).to_string(),
                str_of(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_without_failures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = parse(text.trim()).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = array(get(&bench, "workloads"))
        .iter()
        .map(|w| str_of(get(w, "name")).to_string())
        .collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new("python3")
                .arg(root.join("perfbench/run.py"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .current_dir(root)
                .output()
                .expect("run python3 perfbench/run.py");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("the result line is JSON");
            let Json::Object(fields) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert!(
                matches!(get(&result, "correct"), Json::Bool(true)),
                "{workload}: {last}"
            );
            assert!(
                number(get(&result, "attempted")) >= 1.0,
                "{workload}: {last}"
            );
            assert_eq!(number(get(&result, "failed")), 0.0, "{workload}: {last}");
            let Json::Object(metrics) = get(&result, "metrics") else {
                panic!("metrics is not an object")
            };
            let want = specs(&bench, list);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload} trace {trace}: {last}"
            );
            for (name, unit) in &want {
                let m = get(get(&result, "metrics"), name);
                assert_eq!(str_of(get(m, "unit")), unit, "{workload}: unit of {name}");
                let v = number(get(m, "value"));
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if list == "end_to_end" {
                    assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
                }
            }
        }
    }
}
