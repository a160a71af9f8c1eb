//! Schema checks for the committed benchmarks: a fresh quick-mode
//! `bench_kernels` run and the committed full-scale
//! `results/BENCH_kernels.json`, a fresh quick-mode `bench_serve` run and
//! the committed `results/BENCH_serve.json`, a fresh quick-mode
//! `bench_telemetry` run and the committed `results/BENCH_telemetry.json`,
//! and the committed `results/BENCH_gridsearch.json`. A hand-edited
//! results file, a bench that stops timing a kernel against its
//! reference, or telemetry over its overhead budget fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

use fairprep_trace::json::{self, Value};

/// Every remaining kernel, each next to its bit-identical reference.
const REQUIRED_KERNELS: [&str; 8] = [
    "dot_ref",
    "dot",
    "matvec_ref",
    "matvec",
    "gather_ref",
    "gather",
    "take_rows_ref",
    "take_rows",
];

fn results_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn field<'a>(doc: &'a Value, key: &str, path: &Path) -> &'a Value {
    doc.get(key)
        .unwrap_or_else(|| panic!("{}: missing `{key}`", path.display()))
}

fn num(doc: &Value, key: &str, path: &Path) -> f64 {
    field(doc, key, path)
        .as_f64()
        .unwrap_or_else(|| panic!("{}: `{key}` must be a number", path.display()))
}

fn array<'a>(doc: &'a Value, key: &str, path: &Path) -> &'a [Value] {
    field(doc, key, path)
        .as_array()
        .unwrap_or_else(|| panic!("{}: `{key}` must be an array", path.display()))
}

/// `available_cores` must be a whole number; returns it.
fn cores(doc: &Value, path: &Path) -> u64 {
    field(doc, "available_cores", path)
        .as_u64()
        .unwrap_or_else(|| panic!("{}: available_cores must be an integer", path.display()))
}

/// Every bench records where it ran: at least one core, and a debug or
/// release build. Committed baselines must come from release builds.
fn check_provenance(doc: &Value, path: &Path, committed: bool) {
    let p = path.display();
    assert!(cores(doc, path) >= 1, "{p}: available_cores must be >= 1");
    let profile = field(doc, "build_profile", path).as_str();
    assert!(
        matches!(profile, Some("debug" | "release")),
        "{p}: build_profile {profile:?}"
    );
    if committed {
        assert_eq!(
            profile,
            Some("release"),
            "{p}: committed baselines must come from release builds"
        );
    }
}

fn check_kernels(path: &Path, committed: bool) {
    let doc = load(path);
    let p = path.display();
    assert_eq!(field(&doc, "bench", path).as_str(), Some("kernels"), "{p}");
    check_provenance(&doc, path, committed);
    let scales = array(&doc, "scales", path);
    assert!(!scales.is_empty(), "{p}: at least one scale required");
    for scale in scales {
        assert!(num(scale, "rows", path) >= 1.0, "{p}: rows must be >= 1");
        let kernels = array(scale, "kernels", path);
        let names: Vec<&str> = kernels
            .iter()
            .filter_map(|k| k.get("name").and_then(Value::as_str))
            .collect();
        for required in REQUIRED_KERNELS {
            assert!(names.contains(&required), "{p}: missing kernel {required}");
        }
        for k in kernels {
            assert!(
                num(k, "median_secs", path) > 0.0,
                "{p}: median_secs must be > 0"
            );
            assert!(num(k, "speedup", path) > 0.0, "{p}: speedup must be > 0");
        }
        let ingest = field(scale, "ingest", path);
        assert!(
            num(ingest, "materialized_peak_bytes", path) > 0.0,
            "{p}: materialized_peak_bytes must be > 0"
        );
        let chunks = array(ingest, "streaming", path);
        assert!(chunks.len() >= 2, "{p}: at least two streaming chunk sizes");
        // The bounded-memory claim: streaming peak is ordered by chunk
        // size, independent of row count.
        let peaks: Vec<f64> = chunks.iter().map(|c| num(c, "peak_bytes", path)).collect();
        assert!(
            peaks.windows(2).all(|w| w[0] <= w[1]),
            "{p}: streaming peak not monotone in chunk size: {peaks:?}"
        );
    }
}

#[test]
fn quick_bench_kernels_output_matches_schema() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_kernels_quick");
    let status = Command::new(env!("CARGO_BIN_EXE_bench_kernels"))
        .arg("--out")
        .arg(&out)
        .status()
        .expect("bench_kernels runs");
    assert!(status.success(), "bench_kernels exited with {status}");
    check_kernels(&out.join("BENCH_kernels.json"), false);
}

#[test]
fn committed_bench_kernels_matches_schema() {
    check_kernels(&results_path("BENCH_kernels.json"), true);
}

#[test]
fn committed_bench_gridsearch_matches_schema() {
    let path = results_path("BENCH_gridsearch.json");
    let doc = load(&path);
    let p = path.display();
    assert_eq!(
        field(&doc, "bench", &path).as_str(),
        Some("gridsearch"),
        "{p}"
    );
    check_provenance(&doc, &path, true);
    assert!(
        !array(&doc, "results", &path).is_empty(),
        "{p}: gridsearch results must be non-empty"
    );
}

/// `full` marks the committed baseline: a release build spanning 1..64
/// clients.
fn check_serve(path: &Path, full: bool) {
    let doc = load(path);
    let p = path.display();
    assert_eq!(field(&doc, "bench", path).as_str(), Some("serve"), "{p}");
    let pipeline = field(&doc, "pipeline", path).as_str();
    assert!(
        pipeline.is_some_and(|fp| fp.starts_with("fnv1a64:")),
        "{p}: pipeline {pipeline:?}"
    );
    check_provenance(&doc, path, full);
    let per_client = num(&doc, "requests_per_client", path);
    assert!(num(&doc, "server_threads", path) >= 1.0, "{p}");
    assert!(per_client >= 1.0, "{p}");
    let levels = array(&doc, "levels", path);
    let clients: Vec<f64> = levels.iter().map(|l| num(l, "clients", path)).collect();
    assert!(!clients.is_empty(), "{p}: at least one level required");
    assert!(
        clients.windows(2).all(|w| w[0] < w[1]),
        "{p}: client levels must be strictly increasing: {clients:?}"
    );
    if full {
        assert!(
            clients.first() == Some(&1.0) && clients.last() == Some(&64.0),
            "{p}: full run must span 1..64 clients: {clients:?}"
        );
    }
    for level in levels {
        assert_eq!(
            num(level, "requests", path),
            num(level, "clients", path) * per_client,
            "{p}: requests must be clients x requests_per_client"
        );
        assert!(num(level, "wall_secs", path) > 0.0, "{p}");
        assert!(num(level, "throughput_rps", path) > 0.0, "{p}");
        let (p50, p99) = (num(level, "p50_us", path), num(level, "p99_us", path));
        assert!(0.0 < p50 && p50 <= p99, "{p}: need 0 < p50 <= p99");
    }
}

#[test]
fn quick_bench_serve_output_matches_schema() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_serve_quick");
    let status = Command::new(env!("CARGO_BIN_EXE_bench_serve"))
        .arg("--out")
        .arg(&out)
        .status()
        .expect("bench_serve runs");
    assert!(status.success(), "bench_serve exited with {status}");
    check_serve(&out.join("BENCH_serve.json"), false);
}

#[test]
fn committed_bench_serve_matches_schema() {
    check_serve(&results_path("BENCH_serve.json"), true);
}

/// The telemetry overhead claims: one sharded-counter record costs
/// under 2x a bare atomic increment, and instrumented serving, with and
/// without alerts armed, stays within 5% of uninstrumented throughput.
/// `committed` marks the baseline: a full (not quick) release run.
fn check_telemetry(path: &Path, committed: bool) {
    let doc = load(path);
    let p = path.display();
    assert_eq!(
        field(&doc, "bench", path).as_str(),
        Some("telemetry"),
        "{p}"
    );
    check_provenance(&doc, path, committed);
    if committed {
        assert_eq!(
            field(&doc, "quick", path).as_bool(),
            Some(false),
            "{p}: committed baseline must be a full release run"
        );
    }
    let record = field(&doc, "record_path", path);
    assert!(num(record, "ops", path) >= 1_000_000.0, "{p}: ops");
    for key in [
        "bare_atomic_ns_per_op",
        "sharded_counter_ns_per_op",
        "sharded_histogram_ns_per_op",
        "ring_window_ns_per_op",
    ] {
        assert!(num(record, key, path) > 0.0, "{p}: {key} must be positive");
    }
    let budget_ratio = num(record, "budget_ratio", path);
    assert_eq!(budget_ratio, 2.0, "{p}: budget_ratio");
    let ratio = num(record, "counter_overhead_ratio", path);
    assert!(
        ratio < budget_ratio,
        "{p}: record overhead {ratio}x over budget"
    );
    let serve = field(&doc, "serve", path);
    for key in ["instrumented_rps", "uninstrumented_rps", "alerts_armed_rps"] {
        assert!(num(serve, key, path) > 0.0, "{p}: {key} must be positive");
    }
    let budget_pct = num(serve, "budget_pct", path);
    assert_eq!(budget_pct, 5.0, "{p}: budget_pct");
    for key in ["overhead_pct", "alerts_overhead_pct"] {
        let overhead = num(serve, key, path);
        assert!(overhead < budget_pct, "{p}: {key} {overhead}% over budget");
    }
}

#[test]
#[ignore = "5% gate is noise-dominated on ≤2 cores; CI runs it"]
fn quick_bench_telemetry_output_matches_schema() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_telemetry_quick");
    let status = Command::new(env!("CARGO_BIN_EXE_bench_telemetry"))
        .arg("--out")
        .arg(&out)
        .status()
        .expect("bench_telemetry runs");
    assert!(status.success(), "bench_telemetry exited with {status}");
    check_telemetry(&out.join("BENCH_telemetry.json"), false);
}

#[test]
fn committed_bench_telemetry_matches_schema() {
    check_telemetry(&results_path("BENCH_telemetry.json"), true);
}
