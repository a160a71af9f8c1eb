//! The benchmark's own checks: the metrics it prints are the ones
//! `BENCHMARK.json` declares, short runs of every workload report no
//! failures, and a corrupted expected score is reported as a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use fairprep_perfbench::metrics::{declared, result_line};
use fairprep_perfbench::{run, Scale, Settings, END_TO_END, PER_LAYER, WORKLOADS};
use fairprep_trace::json::{parse, Value};

/// Small inputs so every workload finishes in about a second.
const SMALL: Scale = Scale {
    experiment_rows: 2_000,
    serve_train_rows: 1_000,
    serve_pool_rows: 512,
};

fn settings(workload: &str, trace: bool) -> Settings {
    Settings {
        workload: workload.to_string(),
        seed: 11,
        seconds: Duration::from_millis(300),
        trace,
        scale: SMALL,
        corrupt_expected: false,
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every metric in one `BENCHMARK.json` list.
fn declared_in_json(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{key} entry lacks `{k}`"))
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn declarations_match_benchmark_json() {
    let doc = benchmark_json();
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<(String, String, String)> = table
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(declared_in_json(&doc, key), ours, "{key}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// The metric names in a printed result line.
fn printed_metrics(line: &str) -> Vec<String> {
    let doc = parse(line).expect("result line is JSON");
    match doc.get("metrics") {
        Some(Value::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn short_runs_print_the_declared_metrics_and_fail_nothing() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = run(&settings(workload, trace))
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(outcome.attempted > 0, "{workload} trace={trace}");
            assert_eq!(outcome.failed_ratio(), 0.0, "{workload} trace={trace}");
            assert!(
                outcome.correct(),
                "{workload} trace={trace}: {:?}",
                outcome.notes
            );
            let line = result_line(&outcome, trace).expect("result line");
            let key = if trace { "per_layer" } else { "end_to_end" };
            let want: Vec<String> = declared_in_json(&doc, key)
                .into_iter()
                .map(|(name, _, _)| name)
                .collect();
            assert_eq!(printed_metrics(&line), want, "{workload} trace={trace}");
            assert_eq!(
                declared(trace).len(),
                want.len(),
                "{workload} trace={trace}"
            );
        }
    }
}

#[test]
fn a_corrupted_expected_score_counts_as_a_failure() {
    let mut s = settings("serve_mixed", false);
    s.corrupt_expected = true;
    let outcome = run(&s).expect("serve_mixed runs");
    assert!(outcome.failed > 0, "{:?}", outcome.notes);
    assert!(outcome.failed_ratio() > 0.0);
    assert!(!outcome.correct());
}
