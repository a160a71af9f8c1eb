//! Fault tolerance through the real `fairprep` binary: a sweep with
//! deterministic fault injection exits cleanly (one poisoned run cannot
//! kill the sweep), records the failure in its manifest, and resumes
//! from its own journal to the same manifest.

use std::path::Path;
use std::process::Command;

use fairprep_trace::json::{parse, Value};

/// Runs the faulted german sweep against `journal`, tracing to
/// `manifest`; asserts it exits 0 and returns the parsed manifest.
fn faulted_sweep(journal: &Path, manifest: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_fairprep"))
        .args(["sweep", "--dataset", "german", "--rows", "150"])
        .args(["--learner", "dt", "--seeds", "6", "--threads", "4"])
        .args(["--inject-faults", "split:0.5:panic", "--resume"])
        .arg(journal)
        .arg("--trace")
        .arg(manifest)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "faulted sweep exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    parse(&std::fs::read_to_string(manifest).unwrap()).unwrap()
}

/// `manifest` without its top-level `timing` member, the one part that
/// legitimately differs between runs.
fn without_timing(manifest: Value) -> Value {
    match manifest {
        Value::Obj(members) => Value::Obj(
            members
                .into_iter()
                .filter(|(key, _)| key != "timing")
                .collect(),
        ),
        other => panic!("manifest is not an object: {other:?}"),
    }
}

#[test]
fn faulted_sweep_completes_and_resumes_to_the_same_manifest() {
    let dir = std::env::temp_dir().join(format!("fairprep_fault_injection_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("fault.journal.jsonl");

    let first = faulted_sweep(&journal, &dir.join("fault-manifest-1.json"));
    let jobs_failed = first
        .get("counters")
        .and_then(|counters| counters.get("jobs_failed"))
        .and_then(Value::as_u64_any);
    assert!(jobs_failed.is_some_and(|n| n >= 1), "{first:?}");
    let failures = first.get("failures").and_then(Value::as_array).unwrap();
    assert!(
        failures
            .iter()
            .any(|f| f.as_str().is_some_and(|f| f.contains("injected fault"))),
        "{failures:?}"
    );
    let journaled = std::fs::read(&journal).unwrap();

    // Every job is journaled, so the rerun reuses them all: the journal
    // is untouched and the manifest matches.
    let second = faulted_sweep(&journal, &dir.join("fault-manifest-2.json"));
    assert_eq!(std::fs::read(&journal).unwrap(), journaled);
    assert_eq!(
        without_timing(first),
        without_timing(second),
        "resumed manifest differs from the original"
    );
    std::fs::remove_dir_all(&dir).ok();
}
