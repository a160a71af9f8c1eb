//! Core prediction-quality metrics (accuracy and friends).
//!
//! These are the "standard accuracy metrics" of the §1.1 walkthrough. The
//! fairness-specific metrics (group differences, disparate impact, …) live
//! in `fairprep-fairness`; this module only knows about labels and
//! predictions.

// audit: allow-file(float-eq, reason = "labels and hard predictions are exactly 0.0 or 1.0 by construction; comparisons partition, they do not approximate")
use fairprep_data::error::{Error, Result};

/// A weighted binary confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConfusionMatrix {
    /// Weighted true positives.
    pub tp: f64,
    /// Weighted false positives.
    pub fp: f64,
    /// Weighted true negatives.
    pub tn: f64,
    /// Weighted false negatives.
    pub fn_: f64,
}

impl ConfusionMatrix {
    /// Computes the confusion matrix from labels, hard predictions, and
    /// optional weights (uniform when `None`).
    pub fn compute(y_true: &[f64], y_pred: &[f64], weights: Option<&[f64]>) -> Result<Self> {
        if y_true.len() != y_pred.len() {
            return Err(Error::LengthMismatch {
                expected: y_true.len(),
                actual: y_pred.len(),
            });
        }
        if let Some(w) = weights {
            if w.len() != y_true.len() {
                return Err(Error::LengthMismatch {
                    expected: y_true.len(),
                    actual: w.len(),
                });
            }
        }
        let mut cm = ConfusionMatrix::default();
        for i in 0..y_true.len() {
            let w = weights.map_or(1.0, |w| w[i]);
            let t = y_true[i] == 1.0;
            let p = y_pred[i] == 1.0;
            match (t, p) {
                (true, true) => cm.tp += w,
                (false, true) => cm.fp += w,
                (false, false) => cm.tn += w,
                (true, false) => cm.fn_ += w,
            }
        }
        Ok(cm)
    }

    /// Total weighted count.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Accuracy `(TP + TN) / total`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        safe_div(self.tp + self.tn, self.total())
    }

    /// Error rate `1 - accuracy`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        1.0 - self.accuracy()
    }

    /// True positive rate (recall, sensitivity) `TP / (TP + FN)`.
    #[must_use]
    pub fn tpr(&self) -> f64 {
        safe_div(self.tp, self.tp + self.fn_)
    }

    /// False negative rate `FN / (TP + FN)`.
    #[must_use]
    pub fn fnr(&self) -> f64 {
        safe_div(self.fn_, self.tp + self.fn_)
    }

    /// False positive rate `FP / (FP + TN)`.
    #[must_use]
    pub fn fpr(&self) -> f64 {
        safe_div(self.fp, self.fp + self.tn)
    }

    /// True negative rate (specificity) `TN / (FP + TN)`.
    #[must_use]
    pub fn tnr(&self) -> f64 {
        safe_div(self.tn, self.fp + self.tn)
    }

    /// Positive predictive value (precision) `TP / (TP + FP)`.
    #[must_use]
    pub fn precision(&self) -> f64 {
        safe_div(self.tp, self.tp + self.fp)
    }

    /// Negative predictive value `TN / (TN + FN)`.
    #[must_use]
    pub fn npv(&self) -> f64 {
        safe_div(self.tn, self.tn + self.fn_)
    }

    /// False discovery rate `FP / (TP + FP)`.
    #[must_use]
    pub fn fdr(&self) -> f64 {
        safe_div(self.fp, self.tp + self.fp)
    }

    /// False omission rate `FN / (TN + FN)`.
    #[must_use]
    pub fn for_(&self) -> f64 {
        safe_div(self.fn_, self.tn + self.fn_)
    }

    /// F1 score, the harmonic mean of precision and recall.
    #[must_use]
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.tpr();
        safe_div(2.0 * p * r, p + r)
    }

    /// Balanced accuracy `(TPR + TNR) / 2`.
    #[must_use]
    pub fn balanced_accuracy(&self) -> f64 {
        0.5 * (self.tpr() + self.tnr())
    }

    /// Selection rate `(TP + FP) / total` — the fraction predicted positive.
    #[must_use]
    pub fn selection_rate(&self) -> f64 {
        safe_div(self.tp + self.fp, self.total())
    }

    /// Base rate `(TP + FN) / total` — the fraction actually positive.
    #[must_use]
    pub fn base_rate(&self) -> f64 {
        safe_div(self.tp + self.fn_, self.total())
    }
}

/// Division returning `NaN` on an empty denominator (the AIF360 convention
/// for undefined metrics).
#[must_use]
pub fn safe_div(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// Unweighted accuracy convenience function.
pub fn accuracy(y_true: &[f64], y_pred: &[f64]) -> Result<f64> {
    Ok(ConfusionMatrix::compute(y_true, y_pred, None)?.accuracy())
}

/// Area under the ROC curve computed from scores via the rank statistic
/// (ties handled by midranks). Returns `NaN` when one class is absent.
pub fn roc_auc(y_true: &[f64], scores: &[f64]) -> Result<f64> {
    if y_true.len() != scores.len() {
        return Err(Error::LengthMismatch {
            expected: y_true.len(),
            actual: scores.len(),
        });
    }
    let n_pos = y_true.iter().filter(|&&y| y == 1.0).count();
    let n_neg = y_true.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return Ok(f64::NAN);
    }
    // Midrank computation.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0_f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[order[k]] = midrank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = y_true
        .iter()
        .zip(&ranks)
        .filter(|(&y, _)| y == 1.0)
        .map(|(_, &r)| r)
        .sum();
    let n_pos_f = n_pos as f64;
    let n_neg_f = n_neg as f64;
    Ok((rank_sum_pos - n_pos_f * (n_pos_f + 1.0) / 2.0) / (n_pos_f * n_neg_f))
}

/// Binary log loss (cross-entropy) with probability clipping.
pub fn log_loss(y_true: &[f64], probas: &[f64]) -> Result<f64> {
    if y_true.len() != probas.len() {
        return Err(Error::LengthMismatch {
            expected: y_true.len(),
            actual: probas.len(),
        });
    }
    if y_true.is_empty() {
        return Err(Error::EmptyData("log loss input".to_string()));
    }
    let eps = 1e-15;
    let sum: f64 = y_true
        .iter()
        .zip(probas)
        .map(|(&y, &p)| {
            let p = p.clamp(eps, 1.0 - eps);
            -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
        })
        .sum();
    Ok(sum / y_true.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> ConfusionMatrix {
        // tp=3, fp=1, tn=4, fn=2
        ConfusionMatrix::compute(
            &[1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            None,
        )
        .unwrap()
    }

    #[test]
    fn confusion_cells() {
        let c = cm();
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), (3.0, 1.0, 4.0, 2.0));
        assert_eq!(c.total(), 10.0);
    }

    #[test]
    fn derived_rates() {
        let c = cm();
        assert!((c.accuracy() - 0.7).abs() < 1e-12);
        assert!((c.error_rate() - 0.3).abs() < 1e-12);
        assert!((c.tpr() - 0.6).abs() < 1e-12);
        assert!((c.fnr() - 0.4).abs() < 1e-12);
        assert!((c.fpr() - 0.2).abs() < 1e-12);
        assert!((c.tnr() - 0.8).abs() < 1e-12);
        assert!((c.precision() - 0.75).abs() < 1e-12);
        assert!((c.selection_rate() - 0.4).abs() < 1e-12);
        assert!((c.base_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rate_identities() {
        let c = cm();
        assert!((c.tpr() + c.fnr() - 1.0).abs() < 1e-12);
        assert!((c.fpr() + c.tnr() - 1.0).abs() < 1e-12);
        assert!((c.precision() + c.fdr() - 1.0).abs() < 1e-12);
        assert!((c.npv() + c.for_() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_confusion() {
        let c = ConfusionMatrix::compute(&[1.0, 0.0], &[1.0, 1.0], Some(&[2.0, 3.0])).unwrap();
        assert_eq!(c.tp, 2.0);
        assert_eq!(c.fp, 3.0);
        assert!((c.accuracy() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_denominators_are_nan() {
        let all_neg = ConfusionMatrix::compute(&[0.0, 0.0], &[0.0, 0.0], None).unwrap();
        assert!(all_neg.tpr().is_nan());
        assert!(all_neg.precision().is_nan());
        assert!((all_neg.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let y = [0.0, 0.0, 1.0, 1.0];
        assert!((roc_auc(&y, &[0.1, 0.2, 0.8, 0.9]).unwrap() - 1.0).abs() < 1e-12);
        assert!((roc_auc(&y, &[0.9, 0.8, 0.2, 0.1]).unwrap() - 0.0).abs() < 1e-12);
        assert!((roc_auc(&y, &[0.5, 0.5, 0.5, 0.5]).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_nan() {
        assert!(roc_auc(&[1.0, 1.0], &[0.2, 0.8]).unwrap().is_nan());
    }

    #[test]
    fn log_loss_basics() {
        let perfect = log_loss(&[1.0, 0.0], &[1.0, 0.0]).unwrap();
        assert!(perfect < 1e-10);
        let coin = log_loss(&[1.0, 0.0], &[0.5, 0.5]).unwrap();
        assert!((coin - (2.0_f64).ln().abs()).abs() < 1e-9);
        assert!(log_loss(&[], &[]).is_err());
    }

    #[test]
    fn length_mismatches_rejected() {
        assert!(ConfusionMatrix::compute(&[1.0], &[1.0, 0.0], None).is_err());
        assert!(roc_auc(&[1.0], &[0.5, 0.5]).is_err());
        assert!(log_loss(&[1.0], &[0.5, 0.5]).is_err());
    }
}

/// Brier score: mean squared error of probabilistic predictions.
/// Lower is better; a perfectly calibrated, perfectly sharp predictor
/// scores 0.
pub fn brier_score(y_true: &[f64], probas: &[f64]) -> Result<f64> {
    if y_true.len() != probas.len() {
        return Err(Error::LengthMismatch {
            expected: y_true.len(),
            actual: probas.len(),
        });
    }
    if y_true.is_empty() {
        return Err(Error::EmptyData("brier score input".to_string()));
    }
    let sum: f64 = y_true
        .iter()
        .zip(probas)
        .map(|(&y, &p)| (p - y).powi(2))
        .sum();
    Ok(sum / y_true.len() as f64)
}

/// One bin of a reliability (calibration) curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationBin {
    /// Lower edge of the probability bin (inclusive).
    pub lower: f64,
    /// Upper edge (exclusive; the final bin includes 1.0).
    pub upper: f64,
    /// Number of predictions in the bin.
    pub count: usize,
    /// Mean predicted probability inside the bin.
    pub mean_predicted: f64,
    /// Observed positive rate inside the bin — equals `mean_predicted` for
    /// a perfectly calibrated model.
    pub observed_rate: f64,
}

/// Computes an equal-width reliability curve with `n_bins` bins. Empty bins
/// are omitted. Also returns the expected calibration error (ECE): the
/// count-weighted mean of `|observed − predicted|` over the bins.
pub fn calibration_curve(
    y_true: &[f64],
    probas: &[f64],
    n_bins: usize,
) -> Result<(Vec<CalibrationBin>, f64)> {
    if y_true.len() != probas.len() {
        return Err(Error::LengthMismatch {
            expected: y_true.len(),
            actual: probas.len(),
        });
    }
    if n_bins == 0 {
        return Err(Error::InvalidParameter {
            name: "n_bins",
            message: "need at least one bin".to_string(),
        });
    }
    if y_true.is_empty() {
        return Err(Error::EmptyData("calibration input".to_string()));
    }
    let mut counts = vec![0usize; n_bins];
    let mut pred_sums = vec![0.0_f64; n_bins];
    let mut pos_sums = vec![0.0_f64; n_bins];
    for (&y, &p) in y_true.iter().zip(probas) {
        let bin = ((p.clamp(0.0, 1.0) * n_bins as f64) as usize).min(n_bins - 1);
        counts[bin] += 1;
        pred_sums[bin] += p;
        pos_sums[bin] += y;
    }
    let mut bins = Vec::new();
    let mut ece = 0.0;
    let width = 1.0 / n_bins as f64;
    for b in 0..n_bins {
        if counts[b] == 0 {
            continue;
        }
        let mean_predicted = pred_sums[b] / counts[b] as f64;
        let observed_rate = pos_sums[b] / counts[b] as f64;
        ece += counts[b] as f64 / y_true.len() as f64 * (observed_rate - mean_predicted).abs();
        bins.push(CalibrationBin {
            lower: b as f64 * width,
            upper: if b == n_bins - 1 {
                1.0
            } else {
                (b + 1) as f64 * width
            },
            count: counts[b],
            mean_predicted,
            observed_rate,
        });
    }
    Ok((bins, ece))
}

#[cfg(test)]
mod calibration_tests {
    use super::*;

    #[test]
    fn brier_score_extremes() {
        assert!(brier_score(&[1.0, 0.0], &[1.0, 0.0]).unwrap() < 1e-12);
        assert!((brier_score(&[1.0, 0.0], &[0.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((brier_score(&[1.0, 0.0], &[0.5, 0.5]).unwrap() - 0.25).abs() < 1e-12);
        assert!(brier_score(&[], &[]).is_err());
        assert!(brier_score(&[1.0], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn perfectly_calibrated_has_zero_ece() {
        // 100 predictions at 0.3 with exactly 30 positives, and 100 at 0.8
        // with exactly 80 positives.
        let mut y = Vec::new();
        let mut p = Vec::new();
        for i in 0..100 {
            y.push(f64::from(u8::from(i < 30)));
            p.push(0.3);
        }
        for i in 0..100 {
            y.push(f64::from(u8::from(i < 80)));
            p.push(0.8);
        }
        let (bins, ece) = calibration_curve(&y, &p, 10).unwrap();
        assert_eq!(bins.len(), 2);
        assert!(ece < 1e-12, "ece {ece}");
        for bin in &bins {
            assert!((bin.observed_rate - bin.mean_predicted).abs() < 1e-12);
        }
    }

    #[test]
    fn miscalibration_is_measured() {
        // Predicts 0.9 but only half are positive.
        let y: Vec<f64> = (0..100).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let p = vec![0.9; 100];
        let (bins, ece) = calibration_curve(&y, &p, 10).unwrap();
        assert_eq!(bins.len(), 1);
        assert!((ece - 0.4).abs() < 1e-9, "ece {ece}");
    }

    #[test]
    fn bin_edges_cover_unit_interval() {
        let y = vec![1.0, 0.0, 1.0, 0.0];
        let p = vec![0.0, 0.49, 0.51, 1.0];
        let (bins, _) = calibration_curve(&y, &p, 4).unwrap();
        assert!(bins.iter().all(|b| b.lower >= 0.0 && b.upper <= 1.0));
        // Probability 1.0 lands in the final bin, not out of range.
        assert_eq!(bins.iter().map(|b| b.count).sum::<usize>(), 4);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(calibration_curve(&[1.0], &[0.5], 0).is_err());
        assert!(calibration_curve(&[], &[], 5).is_err());
        assert!(calibration_curve(&[1.0], &[0.5, 0.5], 5).is_err());
    }
}

/// One point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Score threshold; predictions are positive when `score >= threshold`.
    pub threshold: f64,
    /// False positive rate at this threshold.
    pub fpr: f64,
    /// True positive rate at this threshold.
    pub tpr: f64,
}

/// Computes the full ROC curve: one point per distinct score threshold,
/// from the all-negative corner `(0, 0)` to the all-positive corner
/// `(1, 1)`. Requires both classes to be present.
pub fn roc_curve(y_true: &[f64], scores: &[f64]) -> Result<Vec<RocPoint>> {
    if y_true.len() != scores.len() {
        return Err(Error::LengthMismatch {
            expected: y_true.len(),
            actual: scores.len(),
        });
    }
    let n_pos = y_true.iter().filter(|&&y| y == 1.0).count();
    let n_neg = y_true.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return Err(Error::EmptyData("ROC curve needs both classes".to_string()));
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a])); // descending

    let mut points = vec![RocPoint {
        threshold: f64::INFINITY,
        fpr: 0.0,
        tpr: 0.0,
    }];
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0;
    while i < order.len() {
        let threshold = scores[order[i]];
        // Consume the whole tie group.
        while i < order.len() && scores[order[i]] == threshold {
            if y_true[order[i]] == 1.0 {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            threshold,
            fpr: fp as f64 / n_neg as f64,
            tpr: tp as f64 / n_pos as f64,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod roc_curve_tests {
    use super::*;

    #[test]
    fn curve_endpoints_and_monotonicity() {
        let y = [1.0, 0.0, 1.0, 0.0, 1.0];
        let s = [0.9, 0.8, 0.7, 0.3, 0.2];
        let curve = roc_curve(&y, &s).unwrap();
        assert_eq!(curve.first().unwrap().tpr, 0.0);
        assert_eq!(curve.first().unwrap().fpr, 0.0);
        assert_eq!(curve.last().unwrap().tpr, 1.0);
        assert_eq!(curve.last().unwrap().fpr, 1.0);
        for w in curve.windows(2) {
            assert!(w[1].tpr >= w[0].tpr);
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].threshold <= w[0].threshold);
        }
    }

    #[test]
    fn curve_area_matches_roc_auc() {
        let y = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0];
        let s = [0.9, 0.8, 0.75, 0.4, 0.65, 0.2, 0.3, 0.85];
        let curve = roc_curve(&y, &s).unwrap();
        // Trapezoidal integration of the curve.
        let mut area = 0.0;
        for w in curve.windows(2) {
            area += (w[1].fpr - w[0].fpr) * (w[0].tpr + w[1].tpr) / 2.0;
        }
        let auc = roc_auc(&y, &s).unwrap();
        assert!((area - auc).abs() < 1e-12, "area {area} vs auc {auc}");
    }

    #[test]
    fn ties_are_grouped() {
        let y = [1.0, 0.0, 1.0, 0.0];
        let s = [0.5, 0.5, 0.5, 0.5];
        let curve = roc_curve(&y, &s).unwrap();
        // Single threshold group: (0,0) then (1,1).
        assert_eq!(curve.len(), 2);
    }

    #[test]
    fn single_class_rejected() {
        assert!(roc_curve(&[1.0, 1.0], &[0.5, 0.6]).is_err());
    }
}
