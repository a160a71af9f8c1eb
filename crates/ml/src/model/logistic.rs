//! Logistic regression trained with stochastic gradient descent.
//!
//! This mirrors the paper's baseline "logistic regression
//! (`SGDClassifier` with logistic loss function)" (§4): per-example SGD on
//! the log loss with optional L1 / L2 / elastic-net regularization, an
//! inverse-scaling learning-rate schedule, per-instance sample weights, and
//! a seeded per-epoch shuffle.
//!
//! Like its scikit-learn counterpart, the optimizer is *deliberately* not
//! protected against unscaled features: gradient magnitudes grow with the
//! feature scale, and wildly-scaled inputs make training diverge. This is
//! exactly the failure mode §5.2 / Figure 3 of the paper studies.

use rand::seq::SliceRandom;

use fairprep_data::error::{Error, Result};
use fairprep_data::rng::component_rng;

use fairprep_trace::json::{obj, Value};

use crate::matrix::{dot, sigmoid, Matrix};
use crate::model::{validate_training_inputs, Classifier, FittedClassifier};
use crate::sealing;

/// Regularization penalty for [`LogisticRegressionSgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Penalty {
    /// No regularization.
    None,
    /// L2 (ridge) penalty.
    L2,
    /// L1 (lasso) penalty.
    L1,
    /// Elastic net: `l1_ratio * L1 + (1 - l1_ratio) * L2`.
    ElasticNet {
        /// Mixing parameter in `[0, 1]`.
        l1_ratio: f64,
    },
}

impl Penalty {
    /// Stable name for metadata / grid descriptions.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Penalty::None => "none",
            Penalty::L2 => "l2",
            Penalty::L1 => "l1",
            Penalty::ElasticNet { .. } => "elasticnet",
        }
    }
}

/// Hyperparameters of the SGD logistic regression.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionConfig {
    /// Regularization kind.
    pub penalty: Penalty,
    /// Regularization strength (scikit-learn's `alpha`).
    pub alpha: f64,
    /// Initial learning rate (scikit-learn's `eta0` for the `invscaling`
    /// schedule; the effective rate at step `t` is `eta0 / t^power_t`).
    pub eta0: f64,
    /// Learning-rate decay exponent.
    pub power_t: f64,
    /// Number of passes over the data.
    pub max_epochs: usize,
    /// Whether to learn an intercept term.
    pub fit_intercept: bool,
}

impl Default for LogisticRegressionConfig {
    /// scikit-learn-like defaults: L2, `alpha = 1e-4`, `eta0 = 0.1` with
    /// inverse scaling, 20 epochs.
    fn default() -> Self {
        LogisticRegressionConfig {
            penalty: Penalty::L2,
            alpha: 1e-4,
            eta0: 0.1,
            power_t: 0.25,
            max_epochs: 20,
            fit_intercept: true,
        }
    }
}

/// SGD logistic regression (the paper's baseline linear model).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LogisticRegressionSgd {
    /// Hyperparameter configuration.
    pub config: LogisticRegressionConfig,
}

impl LogisticRegressionSgd {
    /// Creates a learner with the given configuration.
    #[must_use]
    pub fn new(config: LogisticRegressionConfig) -> Self {
        LogisticRegressionSgd { config }
    }

    fn validate(&self) -> Result<()> {
        let c = &self.config;
        if !(c.alpha.is_finite() && c.alpha >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "alpha",
                message: format!("{} must be finite and >= 0", c.alpha),
            });
        }
        if !(c.eta0.is_finite() && c.eta0 > 0.0) {
            return Err(Error::InvalidParameter {
                name: "eta0",
                message: format!("{} must be finite and > 0", c.eta0),
            });
        }
        if c.max_epochs == 0 {
            return Err(Error::InvalidParameter {
                name: "max_epochs",
                message: "must be >= 1".to_string(),
            });
        }
        if let Penalty::ElasticNet { l1_ratio } = c.penalty {
            if !(0.0..=1.0).contains(&l1_ratio) {
                return Err(Error::InvalidParameter {
                    name: "l1_ratio",
                    message: format!("{l1_ratio} not in [0, 1]"),
                });
            }
        }
        Ok(())
    }
}

impl Classifier for LogisticRegressionSgd {
    fn name(&self) -> &'static str {
        "logistic_regression_sgd"
    }

    fn describe(&self) -> String {
        let c = &self.config;
        format!(
            "penalty={} alpha={} eta0={} epochs={}",
            c.penalty.name(),
            c.alpha,
            c.eta0,
            c.max_epochs
        )
    }

    fn fit(
        &self,
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        self.validate()?;
        validate_training_inputs(x, y, weights)?;
        let n = x.n_rows();
        let d = x.n_cols();
        let c = &self.config;

        let mut w = vec![0.0_f64; d];
        let mut b = 0.0_f64;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = component_rng(seed, "learner/logistic_sgd");
        let mut t: u64 = 0;

        let (l1, l2) = match c.penalty {
            Penalty::None => (0.0, 0.0),
            Penalty::L1 => (c.alpha, 0.0),
            Penalty::L2 => (0.0, c.alpha),
            Penalty::ElasticNet { l1_ratio } => (c.alpha * l1_ratio, c.alpha * (1.0 - l1_ratio)),
        };

        for _epoch in 0..c.max_epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let eta = c.eta0 / (t as f64).powf(c.power_t);
                let row = x.row(i);
                let z = dot(&w, row) + b;
                let p = sigmoid(z);
                // Gradient of the weighted log loss wrt z: weight * (p - y).
                let g = weights[i] * (p - y[i]);
                // Element-wise, so the compiler is free to vectorize it
                // without moving a bit.
                for (wj, &xj) in w.iter_mut().zip(row) {
                    let mut grad = g * xj + l2 * *wj;
                    if l1 > 0.0 {
                        grad += l1 * wj.signum();
                    }
                    *wj -= eta * grad;
                }
                if c.fit_intercept {
                    b -= eta * g;
                }
            }
        }

        Ok(Box::new(FittedLogisticRegression {
            weights: w,
            intercept: b,
        }))
    }
}

/// A trained logistic-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedLogisticRegression {
    /// Learned feature weights.
    pub weights: Vec<f64>,
    /// Learned intercept.
    pub intercept: f64,
}

/// Sealed-record kind tag for logistic regression.
pub(crate) const KIND: &str = "logistic";

impl FittedLogisticRegression {
    /// Reconstructs the model from a sealed component record.
    pub(crate) fn unseal(v: &Value) -> Result<FittedLogisticRegression> {
        sealing::expect_kind(v, KIND)?;
        Ok(FittedLogisticRegression {
            weights: sealing::req_f64_vec(v, "weights")?,
            intercept: sealing::req_f64(v, "intercept")?,
        })
    }
}

impl FittedClassifier for FittedLogisticRegression {
    fn seal(&self) -> Result<Value> {
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("weights", Value::bits_vec(&self.weights)),
            ("intercept", Value::bits(self.intercept)),
        ]))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        let mut scores = x.matvec(&self.weights)?;
        for z in &mut scores {
            *z += self.intercept;
            *z = if z.is_finite() {
                sigmoid(*z)
            } else {
                // A diverged model (unscaled features, §5.2) produces
                // non-finite scores; report an uninformative 0.5 rather
                // than poisoning downstream metrics with NaN.
                0.5
            };
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable toy problem: y = 1 iff x0 > 0.
    fn separable(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let v = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![v, 0.5]
            })
            .collect();
        let y: Vec<f64> = (0..n).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_separable_problem() {
        let (x, y) = separable(100);
        let model = LogisticRegressionSgd::default()
            .fit(&x, &y, &vec![1.0; 100], 7)
            .unwrap();
        let preds = model.predict(&x).unwrap();
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(correct >= 98, "only {correct}/100 correct");
    }

    #[test]
    fn training_is_seed_deterministic() {
        let (x, y) = separable(60);
        let w = vec![1.0; 60];
        let lr = LogisticRegressionSgd::default();
        let a = lr.fit(&x, &y, &w, 3).unwrap().predict_proba(&x).unwrap();
        let b = lr.fit(&x, &y, &w, 3).unwrap().predict_proba(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_weight_examples_are_ignored() {
        // Half the data is mislabeled but has zero weight: the model should
        // still learn the clean half.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![if i % 2 == 0 { 1.0 } else { -1.0 }])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut y: Vec<f64> = (0..100).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let mut w = vec![1.0; 100];
        for i in 50..100 {
            y[i] = 1.0 - y[i]; // flip labels
            w[i] = 0.0; // but remove influence
        }
        let model = LogisticRegressionSgd::default()
            .fit(&x, &y, &w, 11)
            .unwrap();
        let preds = model.predict(&x).unwrap();
        let clean_correct = (0..50).filter(|&i| preds[i] == y[i]).count();
        assert!(clean_correct >= 48, "{clean_correct}/50");
    }

    #[test]
    fn l1_produces_sparser_weights_than_none() {
        // Feature 1 is pure noise; L1 should shrink it harder.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                vec![
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                    ((i * 37) % 11) as f64 / 11.0,
                ]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..200).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let w = vec![1.0; 200];
        let dense = LogisticRegressionSgd::new(LogisticRegressionConfig {
            penalty: Penalty::None,
            ..Default::default()
        });
        let sparse = LogisticRegressionSgd::new(LogisticRegressionConfig {
            penalty: Penalty::L1,
            alpha: 0.01,
            ..Default::default()
        });
        let d = dense.fit(&x, &y, &w, 5).unwrap();
        let s = sparse.fit(&x, &y, &w, 5).unwrap();
        let d = d.predict_proba(&x).unwrap();
        let s = s.predict_proba(&x).unwrap();
        // Both should still classify well; this is a smoke test that the
        // penalty path runs and does not destroy the signal.
        let acc = |p: &Vec<f64>| {
            p.iter()
                .zip(&y)
                .filter(|(pi, yi)| (**pi > 0.5) == (**yi == 1.0))
                .count()
        };
        assert!(acc(&d) > 190);
        assert!(acc(&s) > 190);
    }

    #[test]
    fn diverged_model_reports_half_probability() {
        let model = FittedLogisticRegression {
            weights: vec![f64::INFINITY],
            intercept: 0.0,
        };
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert_eq!(model.predict_proba(&x).unwrap(), vec![0.5]);
    }

    #[test]
    fn predict_checks_dimensionality() {
        let model = FittedLogisticRegression {
            weights: vec![1.0, 2.0],
            intercept: 0.0,
        };
        let x = Matrix::zeros(1, 3);
        assert!(model.predict_proba(&x).is_err());
    }

    #[test]
    fn config_validation() {
        let w = vec![1.0; 4];
        let (x, y) = separable(4);
        let bad_alpha = LogisticRegressionSgd::new(LogisticRegressionConfig {
            alpha: -1.0,
            ..Default::default()
        });
        assert!(bad_alpha.fit(&x, &y, &w, 0).is_err());
        let bad_ratio = LogisticRegressionSgd::new(LogisticRegressionConfig {
            penalty: Penalty::ElasticNet { l1_ratio: 2.0 },
            ..Default::default()
        });
        assert!(bad_ratio.fit(&x, &y, &w, 0).is_err());
        let bad_epochs = LogisticRegressionSgd::new(LogisticRegressionConfig {
            max_epochs: 0,
            ..Default::default()
        });
        assert!(bad_epochs.fit(&x, &y, &w, 0).is_err());
    }

    /// Weight bits, then intercept bits, of one fit on a fixed 48×9
    /// problem. Nine columns span one eight-lane block plus a tail, so the
    /// pins would catch an unrolled update that drifts from the plain loop.
    fn fit_bits(penalty: Penalty, fit_intercept: bool) -> Vec<u64> {
        let rows: Vec<Vec<f64>> = (0..48)
            .map(|i| {
                (0..9)
                    .map(|j| {
                        (f64::from(i) * 0.618 + f64::from(j) * 0.414).sin()
                            * (1.0 + f64::from(j) * 0.1)
                    })
                    .collect()
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| f64::from(u8::from(r[0] + 0.5 * r[3] - r[7] > 0.0)))
            .collect();
        let weights: Vec<f64> = (0..48).map(|i| 0.5 + f64::from(i % 3) * 0.5).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let lr = LogisticRegressionSgd::new(LogisticRegressionConfig {
            penalty,
            alpha: 0.01,
            max_epochs: 5,
            fit_intercept,
            ..Default::default()
        });
        let sealed = lr.fit(&x, &y, &weights, 17).unwrap().seal().unwrap();
        let fitted = FittedLogisticRegression::unseal(&sealed).unwrap();
        let mut bits: Vec<u64> = fitted.weights.iter().map(|w| w.to_bits()).collect();
        bits.push(fitted.intercept.to_bits());
        bits
    }

    /// Bit patterns (nine weights, then the intercept) of `fit_bits` per
    /// penalty, without and with an intercept. L1 and elastic net take
    /// the `signum` branch of the update; none and L2 skip it.
    #[rustfmt::skip]
    const PINNED_BITS: [(Penalty, [[u64; 10]; 2]); 4] = [
        (Penalty::None, [
            [
                0x3fdfc3906b913ad1, 0x3fe1689989db9bb7, 0x3fdf6e34567dd762, 0x3fd532de313ad341,
                0x3fb487bb3e45cc86, 0xbfccc81fec57ccc2, 0xbfe0fc80da607af9, 0xbfe8e4483cd676d4,
                0xbfed262bfaecb1a1, 0x0000000000000000,
            ],
            [
                0x3fdfd2f95c949de6, 0x3fe16f8904d4c40c, 0x3fdf776b7038f270, 0x3fd534c12c14e381,
                0x3fb46b9ba28d24a9, 0xbfcce810aefa25d9, 0xbfe10814dc326727, 0xbfe8f1c1e64494d9,
                0xbfed33457db5bf83, 0xbfb20857fd1f3b79,
            ],
        ]),
        (Penalty::L1, [
            [
                0x3fdc628ca62fc206, 0x3fdfad6b47383886, 0x3fdc2b351f0a96e4, 0x3fd1864048492e8e,
                0x3fa8435e852919cf, 0xbfc3ed5a4c7c00b0, 0xbfdeb1f2c2ad11d9, 0xbfe7bd5e344fe805,
                0xbfec4a6da8508420, 0x0000000000000000,
            ],
            [
                0x3fdc7232a78fc8a3, 0x3fdfbb39896f7f71, 0x3fdc3401952ec59a, 0x3fd187637822d634,
                0x3fa88b2be4f35365, 0xbfc40f74364ba36b, 0xbfdeca14ebfbe386, 0xbfe7cb2e77a53a17,
                0xbfec57a25bba52a9, 0xbfb125e44a79f192,
            ],
        ]),
        (Penalty::L2, [
            [
                0x3fde9b41ae9775dc, 0x3fe0c7720910bd9a, 0x3fde4df69bfe9472, 0x3fd4740413ef4054,
                0x3fb3e7808cafc37d, 0xbfcbacde3598f6ce, 0xbfe05b4e460105bf, 0xbfe7faee915637db,
                0xbfec171cb32b3cf2, 0x0000000000000000,
            ],
            [
                0x3fdeaa505507613c, 0x3fe0ce2b33659654, 0x3fde56c11247cd10, 0x3fd4758ff0d63d45,
                0x3fb3caacc7fe60c1, 0xbfcbccb6a6de11b9, 0xbfe066bcab69a50d, 0xbfe80825f2c201f4,
                0xbfec23e00540dc2e, 0xbfb1a11bd13244b6,
            ],
        ]),
        (Penalty::ElasticNet { l1_ratio: 0.5 }, [
            [
                0x3fdd828847bdd803, 0x3fe050504c35e701, 0x3fdd3fd0f83ef6bb, 0x3fd302adfa17a9ed,
                0x3faef2d7c4169db6, 0xbfc7dee79c21cfdd, 0xbfdfb729e1a91e72, 0xbfe7db14ce93fa1a,
                0xbfec2e3bfa608510, 0x0000000000000000,
            ],
            [
                0x3fdd91e55398a23c, 0x3fe057d41cc6fdb4, 0x3fdd4b66f060c7e2, 0x3fd307e625ed31ed,
                0x3fae60816c3f30da, 0xbfc7f79a215f1a2f, 0xbfdfcb98b6525914, 0xbfe7e7f5a8bdb0f4,
                0xbfec3bb565419c09, 0xbfb16559333c4cbe,
            ],
        ]),
    ];

    fn assert_pinned(penalty: Penalty) {
        let (_, pins) = PINNED_BITS
            .iter()
            .find(|(p, _)| *p == penalty)
            .expect("penalty has pins");
        for (fit_intercept, expected) in [false, true].into_iter().zip(pins) {
            assert_eq!(
                &fit_bits(penalty, fit_intercept),
                expected,
                "penalty={penalty:?} fit_intercept={fit_intercept}"
            );
        }
    }

    #[test]
    fn training_bits_are_pinned_without_penalty() {
        assert_pinned(Penalty::None);
    }

    #[test]
    fn training_bits_are_pinned_for_l1() {
        assert_pinned(Penalty::L1);
    }

    #[test]
    fn training_bits_are_pinned_for_l2() {
        assert_pinned(Penalty::L2);
    }

    #[test]
    fn training_bits_are_pinned_for_elastic_net() {
        assert_pinned(Penalty::ElasticNet { l1_ratio: 0.5 });
    }

    #[test]
    fn describe_mentions_hyperparameters() {
        let lr = LogisticRegressionSgd::default();
        let d = lr.describe();
        assert!(d.contains("penalty=l2"));
        assert!(d.contains("alpha=0.0001"));
    }
}
