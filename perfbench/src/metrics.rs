//! The metrics the benchmark declares, and the result line it prints.
//!
//! Every workload reports every metric. The end-to-end metrics are shared
//! names whose operation differs by workload (see `README.md`): for the
//! experiment workloads the operation is one lifecycle run, for
//! `serve_mixed` a single-row predict (latency) and the 256-row batch class
//! (rows per second). Failures are not a metric: they are the result's
//! `attempted` and `failed` counts, whose ratio is the `failed_ratio` the
//! provenance lines print. The serve p99 is printed but not declared: it
//! follows the host's vCPU wake-up delay (CPU steal) more than the code.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// For a per-layer metric: the end-to-end metric and workload it should
    /// move. Empty for end-to-end metrics.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower"),
    e2e("rows_per_s", "rows/s", "higher"),
    e2e("latency_p50_ms", "ms", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, reported by traced runs. A layer a workload never
/// calls reports 0.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "data.split_ms",
        "ms",
        "lower",
        "rows_per_s, small share on tune_adult and clean_adult",
    ),
    layer(
        "impute.fit_ms",
        "ms",
        "lower",
        "rows_per_s on clean_adult; not tune_adult",
    ),
    layer(
        "impute.apply_ms",
        "ms",
        "lower",
        "rows_per_s on clean_adult; not tune_adult",
    ),
    layer(
        "impute.cells_imputed",
        "count",
        "lower",
        "rows_per_s on clean_adult",
    ),
    layer(
        "fairness.pre_fit_ms",
        "ms",
        "lower",
        "rows_per_s on clean_adult",
    ),
    layer(
        "fairness.pre_apply_ms",
        "ms",
        "lower",
        "rows_per_s on clean_adult",
    ),
    layer(
        "fairness.post_fit_ms",
        "ms",
        "lower",
        "rows_per_s on clean_adult",
    ),
    layer(
        "fairness.post_apply_ms",
        "ms",
        "lower",
        "rows_per_s on clean_adult",
    ),
    layer(
        "fairness.report_ms",
        "ms",
        "lower",
        "rows_per_s on tune_adult and clean_adult",
    ),
    layer(
        "ml.featurize_fit_ms",
        "ms",
        "lower",
        "rows_per_s on tune_adult and clean_adult",
    ),
    layer(
        "ml.featurize_apply_ms",
        "ms",
        "lower",
        "rows_per_s on tune_adult and clean_adult",
    ),
    layer(
        "ml.fold_build_ms",
        "ms",
        "lower",
        "rows_per_s on tune_adult",
    ),
    layer("ml.fold_fit_ms", "ms", "lower", "rows_per_s on tune_adult"),
    layer(
        "ml.fold_fit_median_ms",
        "ms",
        "lower",
        "rows_per_s on tune_adult",
    ),
    layer("ml.fold_fits", "count", "lower", "rows_per_s on tune_adult"),
    layer(
        "ml.row_epochs_per_s",
        "row-epochs/s",
        "higher",
        "rows_per_s on tune_adult",
    ),
    layer(
        "ml.fold_predict_ms",
        "ms",
        "lower",
        "rows_per_s on tune_adult",
    ),
    layer("ml.refit_ms", "ms", "lower", "rows_per_s on tune_adult"),
    layer("ml.fit_ms", "ms", "lower", "rows_per_s on clean_adult"),
    layer(
        "ml.predict_ms",
        "ms",
        "lower",
        "rows_per_s on tune_adult and clean_adult",
    ),
    layer(
        "core.parallel_efficiency",
        "ratio",
        "higher",
        "rows_per_s on tune_adult and clean_adult",
    ),
    layer("core.seal_ms", "ms", "lower", "setup_s on serve_mixed"),
    layer(
        "core.score_row_us",
        "us",
        "lower",
        "latency_p50_ms on serve_mixed",
    ),
    layer(
        "core.score_batch_us",
        "us",
        "lower",
        "rows_per_s on serve_mixed",
    ),
    layer(
        "trace.parse_row_us",
        "us",
        "lower",
        "latency_p50_ms on serve_mixed",
    ),
    layer(
        "trace.parse_batch_us",
        "us",
        "lower",
        "rows_per_s on serve_mixed",
    ),
    layer(
        "trace.render_row_us",
        "us",
        "lower",
        "latency_p50_ms on serve_mixed",
    ),
    layer(
        "trace.render_batch_us",
        "us",
        "lower",
        "rows_per_s on serve_mixed",
    ),
    layer(
        "serve.frame_row_us",
        "us",
        "lower",
        "latency_p50_ms on serve_mixed",
    ),
    layer(
        "serve.frame_batch_us",
        "us",
        "lower",
        "rows_per_s on serve_mixed",
    ),
    layer(
        "serve.transport_us",
        "us",
        "lower",
        "latency_p50_ms on serve_mixed; the printed predict_p99_us",
    ),
    layer(
        "serve.connects_per_request",
        "ratio",
        "lower",
        "latency_p50_ms on serve_mixed",
    ),
    layer(
        "serve.scrape_us",
        "us",
        "lower",
        "the printed predict_p99_us on serve_mixed",
    ),
    layer(
        "bench.trace_overhead_ms",
        "ms",
        "lower",
        "none: traced minus untraced wall time of one operation",
    ),
];

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: lifecycle runs, or requests of every class.
    pub attempted: u64,
    /// Operations that errored or whose output failed its check.
    pub failed: u64,
    /// `false` when a check could not be made (e.g. a traced replay that
    /// does not reproduce the product path), even if nothing failed.
    pub checks_passed: bool,
    /// Metric values by declared name.
    pub values: BTreeMap<&'static str, f64>,
    /// Provenance lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a provenance line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every output checked out.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks_passed && self.failed == 0 && self.attempted > 0
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        ratio
    }
}

/// The declared metrics a run prints: end-to-end for untraced runs,
/// per-layer for traced ones.
#[must_use]
pub fn declared(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and every declared metric. An end-to-end metric the run did not
/// measure, or any non-finite value, is an error.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in declared(trace).iter().enumerate() {
        let value = match outcome.values.get(m.name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("metric `{}` was not measured", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite ({value})", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_needs_every_end_to_end_metric() {
        let mut o = Outcome {
            attempted: 3,
            checks_passed: true,
            ..Outcome::default()
        };
        assert!(result_line(&o, false).is_err());
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        let line = result_line(&o, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.set("setup_s", f64::NAN);
        assert!(result_line(&o, false).is_err());
    }
}
