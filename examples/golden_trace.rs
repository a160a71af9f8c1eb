//! Regenerates the golden-trace manifests.
//!
//! ```text
//! cargo run --release --example golden_trace
//! ```
//!
//! Writes the canonical manifest of every golden experiment (see
//! `fairprep::golden`) into `tests/golden/`, at 1 thread. The tier-1
//! test `golden_trace_manifests_are_byte_stable` in
//! `tests/reproducibility.rs` checks the 1- and 8-thread manifests
//! against these files; any byte of drift fails it.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "examples are binaries; the library panic-hygiene lints do not apply"
)]

use fairprep::golden::{golden_canonical, golden_file, GOLDEN_CASES};

fn main() {
    let out_dir = std::path::Path::new("tests/golden");
    std::fs::create_dir_all(out_dir).expect("cannot create output directory");
    for case in GOLDEN_CASES {
        let canonical = golden_canonical(case, 1)
            .unwrap_or_else(|e| panic!("golden case `{case}` failed: {e}"));
        let path = out_dir.join(golden_file(case));
        std::fs::write(&path, &canonical).expect("cannot write golden file");
        println!("{} ({} bytes)", path.display(), canonical.len());
    }
}
