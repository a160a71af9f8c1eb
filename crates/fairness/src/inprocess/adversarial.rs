//! Adversarial debiasing [Zhang, Lemoine & Mitchell, AIES 2018].
//!
//! "Learns a classifier to maximize prediction accuracy and simultaneously
//! reduce an adversary's ability to determine the protected attribute from
//! the predictions" (§4). The original uses two neural networks; this
//! implementation keeps the adversarial game but uses a logistic predictor
//! and a logistic adversary:
//!
//! * predictor: `ŷ = σ(w·x + b)`,
//! * adversary: predicts group membership from `(ŷ, ŷ·y, y)` as in Zhang
//!   et al.'s equalized-odds variant.
//!
//! Each SGD step updates the adversary to better recover the group, then
//! updates the predictor with `∇L_pred − α·∇L_adv` — descending its own
//! loss while *ascending* the adversary's, so group information is driven
//! out of the scores.

use rand::seq::SliceRandom;

use fairprep_data::error::{Error, Result};
use fairprep_data::rng::component_rng;
use fairprep_ml::matrix::{dot, sigmoid, Matrix};
use fairprep_ml::model::logistic::FittedLogisticRegression;
use fairprep_ml::model::FittedClassifier;

use crate::inprocess::InProcessor;

/// The adversarial-debiasing learner.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialDebiasing {
    /// Strength α of the adversarial term in the predictor update.
    pub debias_weight: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Initial learning rate.
    pub eta0: f64,
}

impl Default for AdversarialDebiasing {
    fn default() -> Self {
        AdversarialDebiasing {
            debias_weight: 1.0,
            epochs: 30,
            eta0: 0.05,
        }
    }
}

impl InProcessor for AdversarialDebiasing {
    fn name(&self) -> String {
        format!("adversarial_debiasing(alpha={})", self.debias_weight)
    }

    fn fit(
        &self,
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        privileged: &[bool],
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        fairprep_data::provenance::guard_fit(x.provenance(), "AdversarialDebiasing::fit");
        if x.n_rows() != y.len() || x.n_rows() != privileged.len() || x.n_rows() != weights.len() {
            return Err(Error::LengthMismatch {
                expected: x.n_rows(),
                actual: y.len(),
            });
        }
        if x.n_rows() == 0 {
            return Err(Error::EmptyData(
                "adversarial debiasing training set".to_string(),
            ));
        }
        if !(self.debias_weight.is_finite() && self.debias_weight >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "debias_weight",
                message: format!("{} must be finite and >= 0", self.debias_weight),
            });
        }

        let n = x.n_rows();
        let d = x.n_cols();
        let mut w = vec![0.0_f64; d]; // predictor weights
        let mut b = 0.0_f64;
        // Adversary inputs: [ŷ, ŷ·y, y] (Zhang et al.'s odds-aware adversary).
        let mut u = [0.0_f64; 3];
        let mut c = 0.0_f64;

        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = component_rng(seed, "learner/adversarial");
        let mut t: u64 = 0;
        let alpha = self.debias_weight;

        for _epoch in 0..self.epochs.max(1) {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let eta = self.eta0 / (t as f64).powf(0.25);
                let row = x.row(i);
                let z = dot(&w, row) + b;
                let p = sigmoid(z);
                let a = f64::from(u8::from(privileged[i])); // adversary target

                // --- adversary step (gradient descent on its own loss) ---
                let adv_in = [p, p * y[i], y[i]];
                let q = sigmoid(dot(&u, &adv_in) + c);
                let g_adv = q - a;
                for (uj, &vj) in u.iter_mut().zip(&adv_in) {
                    *uj -= eta * g_adv * vj;
                }
                c -= eta * g_adv;

                // --- predictor step ---
                // ∂L_pred/∂z = weight · (p − y).
                let g_pred = weights[i] * (p - y[i]);
                // ∂L_adv/∂z flows through p: dp/dz = p(1−p);
                // ∂L_adv/∂p = (q − a) · (u₀ + u₁·y).
                // audit: allow(index-literal, reason = "u is the adversary's fixed-size parameter array, indexed within its compile-time length")
                let g_through_p = g_adv * (u[0] + u[1] * y[i]) * p * (1.0 - p);
                // Predictor descends its loss and ascends the adversary's.
                let g_total = g_pred - alpha * g_through_p;
                for (wj, &xj) in w.iter_mut().zip(row) {
                    *wj -= eta * g_total * xj;
                }
                b -= eta * g_total;
            }
        }

        Ok(Box::new(FittedLogisticRegression {
            weights: w,
            intercept: b,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inprocess::test_support::{proxy_dataset, selection_gap};

    #[test]
    fn debiasing_shrinks_the_selection_gap() {
        let (x, y, w, mask) = proxy_dataset(2000, 1);

        let plain = AdversarialDebiasing {
            debias_weight: 0.0,
            ..Default::default()
        };
        let fair = AdversarialDebiasing {
            debias_weight: 4.0,
            ..Default::default()
        };

        let plain_preds = plain
            .fit(&x, &y, &w, &mask, 5)
            .unwrap()
            .predict(&x)
            .unwrap();
        let fair_preds = fair.fit(&x, &y, &w, &mask, 5).unwrap().predict(&x).unwrap();

        let gap_plain = selection_gap(&plain_preds, &mask).abs();
        let gap_fair = selection_gap(&fair_preds, &mask).abs();
        assert!(
            gap_fair < gap_plain,
            "debiasing did not reduce the gap: plain {gap_plain}, fair {gap_fair}"
        );
    }

    #[test]
    fn model_still_learns_the_task() {
        let (x, y, w, mask) = proxy_dataset(2000, 2);
        let model = AdversarialDebiasing::default()
            .fit(&x, &y, &w, &mask, 3)
            .unwrap();
        let preds = model.predict(&x).unwrap();
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        // Bayes-optimal fair accuracy is below 1.0 on this data, but the
        // genuine feature still carries signal.
        assert!(
            correct as f64 / y.len() as f64 > 0.6,
            "{correct}/{}",
            y.len()
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let (x, y, w, mask) = proxy_dataset(300, 4);
        let learner = AdversarialDebiasing::default();
        let a = learner
            .fit(&x, &y, &w, &mask, 9)
            .unwrap()
            .predict_proba(&x)
            .unwrap();
        let b = learner
            .fit(&x, &y, &w, &mask, 9)
            .unwrap()
            .predict_proba(&x)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (x, y, w, mask) = proxy_dataset(10, 0);
        let learner = AdversarialDebiasing::default();
        assert!(learner.fit(&x, &y[..5], &w, &mask, 0).is_err());
        let bad = AdversarialDebiasing {
            debias_weight: -1.0,
            ..Default::default()
        };
        assert!(bad.fit(&x, &y, &w, &mask, 0).is_err());
    }

    #[test]
    fn name_mentions_alpha() {
        assert!(AdversarialDebiasing::default().name().contains("alpha=1"));
    }
}
