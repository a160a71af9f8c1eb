//! Regenerates the golden-trace manifests.
//!
//! ```text
//! cargo run --release --example golden_trace -- --threads 8 --out target/golden-8
//! ```
//!
//! Writes the canonical manifest of every golden experiment (see
//! `fairprep::golden`) into `--out` (default `tests/golden/`). CI runs
//! this at two thread budgets and diffs the output directories against
//! the committed goldens — any byte of drift fails the build.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "examples are binaries; the library panic-hygiene lints do not apply"
)]

use fairprep::golden::{golden_canonical, golden_file, GOLDEN_CASES};

fn main() {
    let mut threads = 1usize;
    let mut out_dir = std::path::PathBuf::from("tests/golden");
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => {
                if let Some(t) = iter.next().and_then(|v| v.parse().ok()) {
                    threads = t;
                }
            }
            "--out" => {
                if let Some(dir) = iter.next() {
                    out_dir = std::path::PathBuf::from(dir);
                }
            }
            other => {
                eprintln!("usage: golden_trace [--threads N] [--out DIR] (got `{other}`)");
                std::process::exit(2);
            }
        }
    }

    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    for case in GOLDEN_CASES {
        let canonical = golden_canonical(case, threads)
            .unwrap_or_else(|e| panic!("golden case `{case}` failed: {e}"));
        let path = out_dir.join(golden_file(case));
        std::fs::write(&path, &canonical).expect("cannot write golden file");
        println!(
            "{} ({} bytes, {} threads)",
            path.display(),
            canonical.len(),
            threads
        );
    }
}
