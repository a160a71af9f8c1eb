//! Sweep aggregation: distributions of metrics across runs.
//!
//! §2.2 argues for evaluation techniques that "quantify the variability of
//! the estimated prediction error" rather than reporting single numbers.
//! [`SweepAggregator`] groups run results by a configuration key and
//! computes the mean / standard deviation / extrema of any test metric per
//! group — the machinery behind the per-panel summaries the figure
//! harnesses print.

use std::collections::BTreeMap;

use crate::results::RunResult;

/// Distribution summary of one metric within one configuration group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDistribution {
    /// Number of finite observations.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl MetricDistribution {
    pub(crate) fn from_values(values: &[f64]) -> MetricDistribution {
        let xs: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if xs.is_empty() {
            return MetricDistribution {
                n: 0,
                mean: f64::NAN,
                std: f64::NAN,
                min: f64::NAN,
                max: f64::NAN,
            };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        MetricDistribution {
            n: xs.len(),
            mean,
            std: var.sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Groups runs by a configuration key and aggregates chosen test metrics.
pub struct SweepAggregator {
    metrics: Vec<String>,
    groups: BTreeMap<String, Vec<BTreeMap<String, f64>>>,
}

impl SweepAggregator {
    /// Creates an aggregator tracking the given test metrics.
    #[must_use]
    pub fn new(metrics: &[&str]) -> Self {
        SweepAggregator {
            metrics: metrics.iter().map(ToString::to_string).collect(),
            groups: BTreeMap::new(),
        }
    }

    /// Adds a run under an explicit group key.
    pub fn add_with_key(&mut self, key: &str, result: &RunResult) {
        self.groups
            .entry(key.to_string())
            .or_default()
            .push(result.test_metrics());
    }

    /// Adds a run, keyed by its configuration metadata
    /// (`preprocessor|postprocessor|learner|missing_handler|scaler`) —
    /// runs differing only in seed land in the same group.
    pub fn add(&mut self, result: &RunResult) {
        let m = &result.metadata;
        let key = format!(
            "{}|{}|{}|{}|{}",
            m.preprocessor, m.postprocessor, m.candidates[m.selected], m.missing_handler, m.scaler
        );
        self.add_with_key(&key, result);
    }

    /// The group keys seen so far, in sorted order.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        self.groups.keys().map(String::as_str).collect()
    }

    /// Number of runs recorded under `key`.
    #[must_use]
    pub fn group_size(&self, key: &str) -> usize {
        self.groups.get(key).map_or(0, Vec::len)
    }

    /// Distribution of `metric` within `key`'s group, if both exist.
    #[must_use]
    pub fn distribution(&self, key: &str, metric: &str) -> Option<MetricDistribution> {
        let runs = self.groups.get(key)?;
        if !self.metrics.iter().any(|m| m == metric) {
            return None;
        }
        let values: Vec<f64> = runs
            .iter()
            .map(|m| m.get(metric).copied().unwrap_or(f64::NAN))
            .collect();
        Some(MetricDistribution::from_values(&values))
    }

    /// Full summary table: `(group key, metric, distribution)` for every
    /// tracked metric of every group.
    #[must_use]
    pub fn summary(&self) -> Vec<(String, String, MetricDistribution)> {
        let mut out = Vec::new();
        for key in self.groups.keys() {
            for metric in &self.metrics {
                if let Some(dist) = self.distribution(key, metric) {
                    out.push((key.clone(), metric.clone(), dist));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::learners::DecisionTreeLearner;
    use fairprep_datasets::generate_german;
    use fairprep_fairness::preprocess::Reweighing;

    fn run(seed: u64, reweigh: bool) -> RunResult {
        let builder = Experiment::builder("german", generate_german(150, 1).unwrap())
            .seed(seed)
            .learner(DecisionTreeLearner { tuned: false });
        let builder = if reweigh {
            builder.preprocessor(Reweighing)
        } else {
            builder
        };
        builder.build().unwrap().run().unwrap()
    }

    #[test]
    fn groups_by_configuration_not_seed() {
        let mut agg = SweepAggregator::new(&["overall_accuracy"]);
        agg.add(&run(1, false));
        agg.add(&run(2, false));
        agg.add(&run(1, true));
        assert_eq!(agg.keys().len(), 2);
        let keys = agg.keys();
        let baseline_key = keys.iter().find(|k| k.contains("no_intervention")).unwrap();
        assert_eq!(agg.group_size(baseline_key), 2);
    }

    #[test]
    fn distributions_are_sensible() {
        let mut agg = SweepAggregator::new(&["overall_accuracy", "disparate_impact"]);
        for seed in [1, 2, 3] {
            agg.add(&run(seed, false));
        }
        let key = agg.keys()[0].to_string();
        let d = agg.distribution(&key, "overall_accuracy").unwrap();
        assert_eq!(d.n, 3);
        assert!(d.min <= d.mean && d.mean <= d.max);
        assert!(d.std >= 0.0);
        // Untracked metric → None.
        assert!(agg.distribution(&key, "f1").is_none());
        // Unknown key → None.
        assert!(agg.distribution("nope", "overall_accuracy").is_none());
    }

    #[test]
    fn summary_covers_all_cells() {
        let mut agg = SweepAggregator::new(&["overall_accuracy", "disparate_impact"]);
        agg.add(&run(1, false));
        agg.add(&run(1, true));
        let summary = agg.summary();
        assert_eq!(summary.len(), 4); // 2 groups x 2 metrics
    }

    #[test]
    fn explicit_keys_override_metadata_grouping() {
        let mut agg = SweepAggregator::new(&["overall_accuracy"]);
        agg.add_with_key("custom", &run(1, false));
        agg.add_with_key("custom", &run(1, true));
        assert_eq!(agg.keys(), vec!["custom"]);
        assert_eq!(agg.group_size("custom"), 2);
    }
}
