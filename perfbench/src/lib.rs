//! The FairPrep benchmark: three workloads that each load one part of the
//! system, end-to-end metrics from untraced runs, and per-layer metrics from
//! a separate traced run whose spans wrap the calls into each crate's public
//! API from this package's own code.
//!
//! * `tune_adult` — the Fig. 2 setting: tuned logistic regression on the
//!   full adult data. Nearly all time is cross-validation.
//! * `clean_adult` — the Fig. 4 setting: model-based imputation with both
//!   fairness interventions and an untuned learner, as a two-seed sweep.
//!   Nearly all time is imputation.
//! * `serve_mixed` — a sealed pipeline behind the in-process scoring
//!   server, under a closed loop of single-row predicts, 256-row batches
//!   and periodic Prometheus scrapes.
//!
//! `README.md` beside this crate maps every metric to the layer it measures
//! and the end-to-end metric it should move.

pub mod lifecycle;
pub mod metrics;
pub mod serving;
pub mod spans;
pub mod stats;

use std::time::Duration;

pub use metrics::{Outcome, END_TO_END, PER_LAYER};

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tune_adult", "clean_adult", "serve_mixed"];

/// What one benchmark invocation runs.
#[derive(Debug, Clone)]
pub struct Settings {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// `false`: untraced run reporting end-to-end metrics. `true`: traced
    /// run reporting per-layer metrics.
    pub trace: bool,
    /// Input sizes; [`Scale::FULL`] outside the crate's own tests.
    pub scale: Scale,
    /// Flips one bit of one precomputed expected serve score, so the
    /// output check must report failures. Used by the crate's tests.
    pub corrupt_expected: bool,
}

/// Input sizes of the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the adult data for `tune_adult` and `clean_adult`.
    pub experiment_rows: usize,
    /// Training rows of the pipeline `serve_mixed` seals.
    pub serve_train_rows: usize,
    /// Rows in the seeded request pool of `serve_mixed`.
    pub serve_pool_rows: usize,
}

impl Scale {
    /// The documented sizes: the adult generator at its full size
    /// (32,561 rows) for the experiments.
    pub const FULL: Scale = Scale {
        experiment_rows: fairprep_datasets::ADULT_FULL_SIZE,
        serve_train_rows: 8_000,
        serve_pool_rows: 2_048,
    };
}

/// Runs one workload and returns its outcome.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    match settings.workload.as_str() {
        "tune_adult" => lifecycle::run(&lifecycle::TUNE_ADULT, settings),
        "clean_adult" => lifecycle::run(&lifecycle::CLEAN_ADULT, settings),
        "serve_mixed" => serving::run(settings),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Worker threads available to the process (`nproc`).
#[must_use]
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `release` or `debug`: the profile this benchmark was built with.
#[must_use]
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Derives a sub-seed of the workload seed for one named input.
#[must_use]
pub fn derive(seed: u64, label: &str) -> u64 {
    fairprep_data::rng::derive_seed(seed, &format!("perfbench/{label}"))
}

/// Where a traced run writes its spans: under the build directory
/// (`CARGO_TARGET_DIR`, default `.bench_build`), which git ignores.
#[must_use]
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| ".bench_build".into(), std::path::PathBuf::from)
        .join("perfbench-spans")
        .join(format!("{workload}-{seed}.jsonl"))
}
