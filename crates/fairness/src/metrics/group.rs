//! Per-group classification metrics.
//!
//! FairPrep computes "25 different metrics for the overall train and test
//! set, as well as separately for the privileged and unprivileged groups"
//! (§4). [`GroupMetrics`] is that block of 25, computed for one population
//! (overall, privileged-only, or unprivileged-only).

use std::collections::BTreeMap;

use fairprep_data::error::{Error, Result};
use fairprep_ml::eval::{log_loss, roc_auc, safe_div, ConfusionMatrix};

/// The 25 per-population metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMetrics {
    /// Number of instances in the population.
    pub n_instances: usize,
    /// Number of actually-positive instances.
    pub n_positives: usize,
    /// Number of actually-negative instances.
    pub n_negatives: usize,
    /// Fraction of actually-positive instances.
    pub base_rate: f64,
    /// True positives.
    pub tp: f64,
    /// False positives.
    pub fp: f64,
    /// True negatives.
    pub tn: f64,
    /// False negatives.
    pub fn_: f64,
    /// True positive rate (recall).
    pub tpr: f64,
    /// False positive rate.
    pub fpr: f64,
    /// True negative rate.
    pub tnr: f64,
    /// False negative rate.
    pub fnr: f64,
    /// Positive predictive value (precision).
    pub precision: f64,
    /// Negative predictive value.
    pub npv: f64,
    /// False discovery rate.
    pub fdr: f64,
    /// False omission rate.
    pub for_: f64,
    /// Accuracy.
    pub accuracy: f64,
    /// Error rate.
    pub error_rate: f64,
    /// Balanced accuracy.
    pub balanced_accuracy: f64,
    /// F1 score.
    pub f1: f64,
    /// Fraction predicted positive.
    pub selection_rate: f64,
    /// Area under the ROC curve (`NaN` if scores were not provided or one
    /// class is absent).
    pub auc: f64,
    /// Log loss (`NaN` if scores were not provided).
    pub log_loss: f64,
    /// Mean predicted score (`NaN` if scores were not provided).
    pub mean_score: f64,
    /// Within-population generalized entropy index (α = 2) of the benefit
    /// vector `b_i = ŷ_i − y_i + 1` [Speicher et al.].
    pub generalized_entropy_index: f64,
}

impl GroupMetrics {
    /// Computes the metric block from labels, hard predictions, and
    /// (optionally) probabilistic scores.
    pub fn compute(y_true: &[f64], y_pred: &[f64], scores: Option<&[f64]>) -> Result<GroupMetrics> {
        if y_true.is_empty() {
            return Err(Error::EmptyData("metrics population".to_string()));
        }
        let cm = ConfusionMatrix::compute(y_true, y_pred, None)?;
        let (auc, ll, mean_score) = match scores {
            Some(s) => {
                if s.len() != y_true.len() {
                    return Err(Error::LengthMismatch {
                        expected: y_true.len(),
                        actual: s.len(),
                    });
                }
                (
                    roc_auc(y_true, s)?,
                    log_loss(y_true, s)?,
                    s.iter().sum::<f64>() / s.len() as f64,
                )
            }
            None => (f64::NAN, f64::NAN, f64::NAN),
        };
        // audit: allow(float-eq, reason = "binary labels are exactly 0.0/1.0 by construction")
        let n_positives = y_true.iter().filter(|&&y| y == 1.0).count();
        Ok(GroupMetrics {
            n_instances: y_true.len(),
            n_positives,
            n_negatives: y_true.len() - n_positives,
            base_rate: cm.base_rate(),
            tp: cm.tp,
            fp: cm.fp,
            tn: cm.tn,
            fn_: cm.fn_,
            tpr: cm.tpr(),
            fpr: cm.fpr(),
            tnr: cm.tnr(),
            fnr: cm.fnr(),
            precision: cm.precision(),
            npv: cm.npv(),
            fdr: cm.fdr(),
            for_: cm.for_(),
            accuracy: cm.accuracy(),
            error_rate: cm.error_rate(),
            balanced_accuracy: cm.balanced_accuracy(),
            f1: cm.f1(),
            selection_rate: cm.selection_rate(),
            auc,
            log_loss: ll,
            mean_score,
            generalized_entropy_index: generalized_entropy_index(y_true, y_pred, 2.0),
        })
    }

    /// All 25 metrics as a name → value map (stable iteration order),
    /// which is what the experiment output files serialize.
    #[must_use]
    pub fn to_map(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        {
            m.insert("n_instances".into(), self.n_instances as f64);
            m.insert("n_positives".into(), self.n_positives as f64);
            m.insert("n_negatives".into(), self.n_negatives as f64);
        }
        m.insert("base_rate".into(), self.base_rate);
        m.insert("tp".into(), self.tp);
        m.insert("fp".into(), self.fp);
        m.insert("tn".into(), self.tn);
        m.insert("fn".into(), self.fn_);
        m.insert("tpr".into(), self.tpr);
        m.insert("fpr".into(), self.fpr);
        m.insert("tnr".into(), self.tnr);
        m.insert("fnr".into(), self.fnr);
        m.insert("precision".into(), self.precision);
        m.insert("npv".into(), self.npv);
        m.insert("fdr".into(), self.fdr);
        m.insert("for".into(), self.for_);
        m.insert("accuracy".into(), self.accuracy);
        m.insert("error_rate".into(), self.error_rate);
        m.insert("balanced_accuracy".into(), self.balanced_accuracy);
        m.insert("f1".into(), self.f1);
        m.insert("selection_rate".into(), self.selection_rate);
        m.insert("auc".into(), self.auc);
        m.insert("log_loss".into(), self.log_loss);
        m.insert("mean_score".into(), self.mean_score);
        m.insert(
            "generalized_entropy_index".into(),
            self.generalized_entropy_index,
        );
        m
    }
}

/// Generalized entropy index of the benefit vector `b_i = ŷ_i − y_i + 1`
/// [Speicher et al., KDD'18]. `alpha = 1` yields the Theil index.
#[must_use]
pub fn generalized_entropy_index(y_true: &[f64], y_pred: &[f64], alpha: f64) -> f64 {
    let n = y_true.len();
    if n == 0 {
        return f64::NAN;
    }
    let benefits: Vec<f64> = y_pred
        .iter()
        .zip(y_true)
        .map(|(&p, &t)| p - t + 1.0)
        .collect();
    gei_of_benefits(&benefits, alpha)
}

/// GEI over an arbitrary benefit vector.
#[must_use]
pub fn gei_of_benefits(benefits: &[f64], alpha: f64) -> f64 {
    let n = benefits.len() as f64;
    if benefits.is_empty() {
        return f64::NAN;
    }
    let mu = benefits.iter().sum::<f64>() / n;
    // audit: allow(float-eq, reason = "a zero mean benefit is the exact degenerate case where the index is undefined")
    if mu == 0.0 {
        return f64::NAN;
    }
    if (alpha - 1.0).abs() < 1e-12 {
        // Theil index.
        benefits
            .iter()
            .map(|&b| {
                let r = b / mu;
                if r > 0.0 {
                    r * r.ln()
                } else {
                    0.0
                }
            })
            .sum::<f64>()
            / n
    } else if alpha.abs() < 1e-12 {
        // Mean log deviation.
        -benefits
            .iter()
            .map(|&b| {
                let r = b / mu;
                if r > 0.0 {
                    r.ln()
                } else {
                    0.0
                }
            })
            .sum::<f64>()
            / n
    } else if (alpha - 2.0).abs() < 1e-12 {
        // α = 2 (the common case, half the squared coefficient of
        // variation): square with a plain multiply. `powf(x, 2.0)` may
        // lower to either a libm call or `x * x` depending on the
        // optimization level, and the run-manifest metric digests require
        // output that is bit-stable across build profiles.
        let s: f64 = benefits
            .iter()
            .map(|&b| {
                let r = b / mu;
                r * r - 1.0
            })
            .sum();
        s / (n * 2.0)
    } else {
        let s: f64 = benefits.iter().map(|&b| (b / mu).powf(alpha) - 1.0).sum();
        s / (n * alpha * (alpha - 1.0))
    }
}

/// Theil index (GEI with α = 1) of the benefit vector.
#[must_use]
pub fn theil_index(y_true: &[f64], y_pred: &[f64]) -> f64 {
    generalized_entropy_index(y_true, y_pred, 1.0)
}

/// Coefficient of variation: `sqrt(2 * GEI(α = 2))`.
#[must_use]
pub fn coefficient_of_variation(y_true: &[f64], y_pred: &[f64]) -> f64 {
    (2.0 * generalized_entropy_index(y_true, y_pred, 2.0)).sqrt()
}

/// Helper used by tests and callers: select the entries of `values` where
/// `mask[i] == keep`.
#[must_use]
pub fn select_by_mask(values: &[f64], mask: &[bool], keep: bool) -> Vec<f64> {
    values
        .iter()
        .zip(mask)
        .filter(|(_, &m)| m == keep)
        .map(|(&v, _)| v)
        .collect()
}

/// Division helper re-exported for difference metrics.
pub(crate) fn ratio(unpriv: f64, priv_: f64) -> f64 {
    safe_div(unpriv, priv_)
}

#[cfg(test)]
mod tests {
    use super::*;

    const Y: [f64; 10] = [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
    const P: [f64; 10] = [1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0];

    #[test]
    fn block_is_consistent_with_confusion_matrix() {
        let g = GroupMetrics::compute(&Y, &P, None).unwrap();
        assert_eq!(g.n_instances, 10);
        assert_eq!(g.n_positives, 5);
        assert_eq!(g.n_negatives, 5);
        assert!((g.accuracy - 0.7).abs() < 1e-12);
        assert!((g.tpr - 0.6).abs() < 1e-12);
        assert!((g.fnr - 0.4).abs() < 1e-12);
        assert!((g.selection_rate - 0.4).abs() < 1e-12);
        assert!(g.auc.is_nan()); // no scores supplied
    }

    #[test]
    fn score_based_metrics_present_when_scores_given() {
        let scores = [0.9, 0.8, 0.7, 0.4, 0.3, 0.6, 0.2, 0.2, 0.1, 0.1];
        let g = GroupMetrics::compute(&Y, &P, Some(&scores)).unwrap();
        assert!(g.auc > 0.9);
        assert!(g.log_loss.is_finite());
        assert!((g.mean_score - scores.iter().sum::<f64>() / 10.0).abs() < 1e-12);
    }

    #[test]
    fn map_has_25_entries() {
        let g = GroupMetrics::compute(&Y, &P, None).unwrap();
        assert_eq!(g.to_map().len(), 25);
    }

    #[test]
    fn empty_population_is_error() {
        assert!(GroupMetrics::compute(&[], &[], None).is_err());
    }

    #[test]
    fn gei_zero_for_uniform_benefits() {
        // Perfect predictions → all benefits = 1 → zero inequality.
        let y = [1.0, 0.0, 1.0, 0.0];
        assert!(generalized_entropy_index(&y, &y, 2.0).abs() < 1e-12);
        assert!(theil_index(&y, &y).abs() < 1e-12);
    }

    #[test]
    fn gei_positive_for_unequal_benefits() {
        let y = [1.0, 1.0, 0.0, 0.0];
        let p = [1.0, 0.0, 1.0, 0.0]; // benefits: 1, 0, 2, 1
        assert!(generalized_entropy_index(&y, &p, 2.0) > 0.0);
        assert!(theil_index(&y, &p) > 0.0);
        assert!(coefficient_of_variation(&y, &p) > 0.0);
    }

    #[test]
    fn gei_alpha_family_is_consistent() {
        let benefits = [0.5, 1.0, 1.5, 2.0];
        let g0 = gei_of_benefits(&benefits, 0.0);
        let g1 = gei_of_benefits(&benefits, 1.0);
        let g2 = gei_of_benefits(&benefits, 2.0);
        assert!(g0 > 0.0 && g1 > 0.0 && g2 > 0.0);
    }

    #[test]
    fn select_by_mask_splits() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let m = [true, false, true, false];
        assert_eq!(select_by_mask(&v, &m, true), vec![1.0, 3.0]);
        assert_eq!(select_by_mask(&v, &m, false), vec![2.0, 4.0]);
    }
}
