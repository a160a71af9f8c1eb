//! Preferential sampling [Kamiran & Calders, 2012] — the sampling-based
//! sibling of reweighing (an extension intervention, paper future work §7).
//!
//! Instead of attaching weights, the training set is *resampled* so that
//! group and label become independent: over-represented (group, label)
//! cells are shrunk and under-represented cells are grown to the expected
//! size `n · P(group) · P(label)`. Where Kamiran & Calders delete/duplicate
//! the examples closest to the decision boundary of an internal ranker,
//! this implementation ranks with a seeded logistic model — borderline
//! over-represented examples are dropped first, borderline
//! under-represented examples are duplicated first.
//!
//! Useful when the downstream learner ignores instance weights.

// audit: allow-file(index-literal, reason = "the 2x2 (group, label) contingency cells have compile-time size, indexed by bool casts")
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_ml::model::{Classifier, LogisticRegressionSgd};
use fairprep_ml::sealing;
use fairprep_ml::transform::{FittedFeaturizer, ScalerSpec};
use fairprep_trace::json::{obj, Value};

use crate::preprocess::{FittedPreprocessor, Preprocessor};

pub(crate) const KIND: &str = "preferential_sampling";

/// The preferential-sampling intervention.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreferentialSampling;

impl Preprocessor for PreferentialSampling {
    fn name(&self) -> String {
        "preferential_sampling".to_string()
    }

    fn fit(&self, train: &BinaryLabelDataset, seed: u64) -> Result<Box<dyn FittedPreprocessor>> {
        train.guard_fit("PreferentialSampling::fit");
        // Rank all training examples once with an internal model.
        let featurizer = FittedFeaturizer::fit(train, ScalerSpec::Standard)?;
        let x = featurizer.transform(train)?;
        let ranker = LogisticRegressionSgd::default().fit(
            &x,
            train.labels(),
            train.instance_weights(),
            seed,
        )?;
        let scores = ranker.predict_proba(&x)?;
        Ok(Box::new(FittedPreferentialSampling { scores }))
    }
}

pub(crate) struct FittedPreferentialSampling {
    /// Ranker scores for the training set the intervention was fitted on.
    scores: Vec<f64>,
}

/// Reconstructs a fitted preferential-sampling intervention from a sealed
/// record.
pub(crate) fn unseal_preferential_sampling(v: &Value) -> Result<FittedPreferentialSampling> {
    let scores = sealing::req_f64_vec(v, "scores")?;
    if scores.is_empty() {
        return Err(sealing::seal_err(
            "preferential_sampling record has no ranker scores",
        ));
    }
    Ok(FittedPreferentialSampling { scores })
}

impl FittedPreprocessor for FittedPreferentialSampling {
    fn transform_train(&self, train: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        let n = train.n_rows();
        if n != self.scores.len() {
            return Err(Error::LengthMismatch {
                expected: self.scores.len(),
                actual: n,
            });
        }
        let labels = train.labels();
        let mask = train.privileged_mask();

        // Expected (group, label) cell sizes under independence.
        let mut cells: [[Vec<usize>; 2]; 2] = Default::default();
        for i in 0..n {
            // audit: allow(float-eq, reason = "binary labels are exactly 0.0/1.0 by construction")
            cells[usize::from(mask[i])][usize::from(labels[i] == 1.0)].push(i);
        }
        let group_totals = [
            cells[0][0].len() + cells[0][1].len(),
            cells[1][0].len() + cells[1][1].len(),
        ];
        let label_totals = [
            cells[0][0].len() + cells[1][0].len(),
            cells[0][1].len() + cells[1][1].len(),
        ];
        if group_totals.contains(&0) || label_totals.contains(&0) {
            return Err(Error::EmptyData(
                "preferential sampling needs both groups and both labels".to_string(),
            ));
        }

        let mut keep: Vec<usize> = Vec::with_capacity(n);
        for g in 0..2 {
            for y in 0..2 {
                let expected = ((group_totals[g] as f64) * (label_totals[y] as f64) / n as f64)
                    .round() as usize;
                let mut members = cells[g][y].clone();
                if members.is_empty() {
                    continue;
                }
                // Sort by "confidence": positives descending (the most
                // clearly-positive first), negatives ascending — so the
                // borderline examples sit at the END and are dropped first /
                // duplicated first, following Kamiran & Calders.
                members.sort_by(|&a, &b| {
                    if y == 1 {
                        self.scores[b].total_cmp(&self.scores[a])
                    } else {
                        self.scores[a].total_cmp(&self.scores[b])
                    }
                });
                if expected <= members.len() {
                    keep.extend_from_slice(&members[..expected.max(1)]);
                } else {
                    keep.extend_from_slice(&members);
                    // Duplicate borderline examples (tail of the order).
                    let deficit = expected - members.len();
                    for k in 0..deficit {
                        keep.push(members[members.len() - 1 - (k % members.len())]);
                    }
                }
            }
        }
        keep.sort_unstable();
        Ok(train.take(&keep))
    }

    fn seal(&self) -> Result<Value> {
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("scores", Value::bits_vec(&self.scores)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::test_support::biased_dataset;

    #[test]
    fn resampled_training_set_has_equal_group_rates() {
        let ds = biased_dataset(400);
        let before = ds.base_rate(Some(true)) - ds.base_rate(Some(false));
        assert!(before > 0.3);
        let out = PreferentialSampling
            .fit(&ds, 3)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        let after = out.base_rate(Some(true)) - out.base_rate(Some(false));
        assert!(after.abs() < 0.05, "rate gap after sampling: {after}");
    }

    #[test]
    fn output_size_close_to_input() {
        let ds = biased_dataset(400);
        let out = PreferentialSampling
            .fit(&ds, 3)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        let ratio = out.n_rows() as f64 / 400.0;
        assert!((0.9..=1.1).contains(&ratio), "size ratio {ratio}");
    }

    #[test]
    fn weights_are_not_used_labels_are_not_flipped() {
        let ds = biased_dataset(200);
        let out = PreferentialSampling
            .fit(&ds, 1)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        assert!(out.instance_weights().iter().all(|&w| w == 1.0));
        // Every output row is a copy of some input row (sampling, not
        // editing): each (feature, label) pair must exist in the input.
        let in_scores: Vec<f64> = ds
            .frame()
            .column("score")
            .unwrap()
            .as_numeric()
            .unwrap()
            .iter()
            .map(|v| v.unwrap())
            .collect();
        let out_scores = out.frame().column("score").unwrap();
        for i in 0..out.n_rows() {
            let v = out_scores.get(i).as_numeric().unwrap();
            assert!(in_scores.contains(&v), "row {i} not from the input");
        }
    }

    #[test]
    fn eval_split_untouched() {
        let ds = biased_dataset(100);
        let fitted = PreferentialSampling.fit(&ds, 1).unwrap();
        let eval = fitted.transform_eval(&ds).unwrap();
        assert_eq!(eval.frame(), ds.frame());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = biased_dataset(200);
        let a = PreferentialSampling
            .fit(&ds, 5)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        let b = PreferentialSampling
            .fit(&ds, 5)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        assert_eq!(a.frame(), b.frame());
    }

    #[test]
    fn mismatched_input_rejected() {
        let ds = biased_dataset(100);
        let fitted = PreferentialSampling.fit(&ds, 1).unwrap();
        let other = biased_dataset(50);
        assert!(fitted.transform_train(&other).is_err());
    }
}
