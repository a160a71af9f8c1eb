//! Massaging [Kamiran & Calders, 2012] — relabeling-based preprocessing.
//!
//! One of the "additional fairness-enhancing interventions" the paper lists
//! as future work (§7). Massaging flips the labels of carefully-chosen
//! training instances until the training base rates of the two groups are
//! equal: the most promising unprivileged negatives are promoted and the
//! least promising privileged positives are demoted, where "promising" is
//! scored by an internal ranker trained on the training data.
//!
//! Only training labels change; evaluation data is never modified.

// audit: allow-file(float-eq, reason = "group counts are integral f64 casts and labels are exactly 0.0/1.0 by construction")
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_ml::model::{Classifier, LogisticRegressionSgd};
use fairprep_ml::sealing;
use fairprep_ml::transform::{FittedFeaturizer, ScalerSpec};
use fairprep_trace::json::{obj, Value};

use crate::preprocess::{FittedPreprocessor, Preprocessor};

pub(crate) const KIND: &str = "massaging";

/// The massaging intervention.
#[derive(Debug, Clone, Copy, Default)]
pub struct Massaging;

impl Preprocessor for Massaging {
    fn name(&self) -> String {
        "massaging".to_string()
    }

    fn fit(&self, train: &BinaryLabelDataset, seed: u64) -> Result<Box<dyn FittedPreprocessor>> {
        train.guard_fit("Massaging::fit");
        // The ranker is fitted here once; relabeling happens per
        // transform_train call (idempotent for the same input).
        let featurizer = FittedFeaturizer::fit(train, ScalerSpec::Standard)?;
        let x = featurizer.transform(train)?;
        let ranker = LogisticRegressionSgd::default().fit(
            &x,
            train.labels(),
            train.instance_weights(),
            seed,
        )?;
        let scores = ranker.predict_proba(&x)?;
        Ok(Box::new(FittedMassaging { featurizer, scores }))
    }
}

pub(crate) struct FittedMassaging {
    featurizer: FittedFeaturizer,
    /// Ranker scores of the training set the intervention was fitted on.
    scores: Vec<f64>,
}

/// Reconstructs a fitted massaging intervention from a sealed record.
pub(crate) fn unseal_massaging(v: &Value) -> Result<FittedMassaging> {
    let featurizer = FittedFeaturizer::unseal(sealing::req(v, "featurizer")?)?;
    let scores = sealing::req_f64_vec(v, "scores")?;
    if scores.is_empty() {
        return Err(sealing::seal_err("massaging record has no ranker scores"));
    }
    Ok(FittedMassaging { featurizer, scores })
}

impl FittedPreprocessor for FittedMassaging {
    fn transform_train(&self, train: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        // Recompute scores if the caller hands a different (e.g. resampled)
        // training set than the one fitted on.
        let scores = if train.n_rows() == self.scores.len() {
            self.scores.clone()
        } else {
            let x = self.featurizer.transform(train)?;
            // The featurizer is fixed; a fresh linear ranker on the fitted
            // features keeps determinism without re-fitting transforms.
            let ranker = LogisticRegressionSgd::default().fit(
                &x,
                train.labels(),
                train.instance_weights(),
                0,
            )?;
            ranker.predict_proba(&x)?
        };

        let mask = train.privileged_mask();
        let mut labels = train.labels().to_vec();

        // How many flips equalize the base rates?
        // After m promotions (unpriv 0→1) and m demotions (priv 1→0):
        //   (pos_u + m) / n_u = (pos_p − m) / n_p
        // → m = (pos_p · n_u − pos_u · n_p) / (n_u + n_p)
        let n_p = mask.iter().filter(|&&m| m).count() as f64;
        let n_u = mask.len() as f64 - n_p;
        if n_p == 0.0 || n_u == 0.0 {
            return Err(Error::EmptyGroup {
                privileged: n_p == 0.0,
            });
        }
        let pos_p: f64 = labels
            .iter()
            .zip(mask)
            .filter(|(_, &m)| m)
            .map(|(&y, _)| y)
            .sum();
        let pos_u: f64 = labels
            .iter()
            .zip(mask)
            .filter(|(_, &m)| !m)
            .map(|(&y, _)| y)
            .sum();
        let m = (((pos_p * n_u - pos_u * n_p) / (n_u + n_p)).round().max(0.0)) as usize;

        if m > 0 {
            // Candidate promotions: unprivileged negatives by descending score.
            let mut promotions: Vec<usize> = (0..labels.len())
                .filter(|&i| !mask[i] && labels[i] == 0.0)
                .collect();
            promotions.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
            // Candidate demotions: privileged positives by ascending score.
            let mut demotions: Vec<usize> = (0..labels.len())
                .filter(|&i| mask[i] && labels[i] == 1.0)
                .collect();
            demotions.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));

            let flips = m.min(promotions.len()).min(demotions.len());
            for &i in promotions.iter().take(flips) {
                labels[i] = 1.0;
            }
            for &i in demotions.iter().take(flips) {
                labels[i] = 0.0;
            }
        }

        let mut out = train.clone();
        out.set_labels(labels)?;
        Ok(out)
    }

    fn seal(&self) -> Result<Value> {
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("featurizer", self.featurizer.seal()),
            ("scores", Value::bits_vec(&self.scores)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::test_support::biased_dataset;

    #[test]
    fn base_rates_are_equalized() {
        let ds = biased_dataset(200);
        let before_gap = ds.base_rate(Some(true)) - ds.base_rate(Some(false));
        assert!(before_gap > 0.3);

        let out = Massaging.fit(&ds, 1).unwrap().transform_train(&ds).unwrap();
        let after_gap = out.base_rate(Some(true)) - out.base_rate(Some(false));
        assert!(after_gap.abs() < 0.03, "gap after massaging: {after_gap}");
    }

    #[test]
    fn total_positive_count_is_preserved() {
        let ds = biased_dataset(200);
        let out = Massaging.fit(&ds, 1).unwrap().transform_train(&ds).unwrap();
        let before: f64 = ds.labels().iter().sum();
        let after: f64 = out.labels().iter().sum();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn features_and_weights_are_untouched() {
        let ds = biased_dataset(100);
        let out = Massaging.fit(&ds, 1).unwrap().transform_train(&ds).unwrap();
        assert_eq!(
            out.frame().column("score").unwrap(),
            ds.frame().column("score").unwrap()
        );
        assert_eq!(out.instance_weights(), ds.instance_weights());
    }

    #[test]
    fn eval_split_is_untouched() {
        let ds = biased_dataset(100);
        let fitted = Massaging.fit(&ds, 1).unwrap();
        let eval = fitted.transform_eval(&ds).unwrap();
        assert_eq!(eval.labels(), ds.labels());
    }

    #[test]
    fn already_fair_data_is_unchanged() {
        use fairprep_data::column::{Column, ColumnKind};
        use fairprep_data::frame::DataFrame;
        use fairprep_data::schema::{ProtectedAttribute, Schema};
        let n = 40;
        let frame = DataFrame::new()
            .with_column("x", Column::from_f64((0..n).map(|i| f64::from(i % 7))))
            .unwrap()
            .with_column(
                "g",
                Column::from_strs((0..n).map(|i| if i % 2 == 0 { "a" } else { "b" })),
            )
            .unwrap()
            .with_column(
                "y",
                Column::from_strs((0..n).map(|i| if (i / 2) % 2 == 0 { "p" } else { "n" })),
            )
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("x")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let ds = BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "p",
        )
        .unwrap();
        let out = Massaging.fit(&ds, 0).unwrap().transform_train(&ds).unwrap();
        assert_eq!(out.labels(), ds.labels());
    }
}
