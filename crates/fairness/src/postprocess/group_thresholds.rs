//! Group-specific decision thresholds — an extension post-processor in the
//! spirit of Fairlearn's `ThresholdOptimizer`.
//!
//! Instead of the global 0.5 cut-off, the fit searches a per-group
//! threshold pair `(t_priv, t_unpriv)` on the validation predictions,
//! choosing the most accurate pair whose fairness constraint (statistical
//! parity or equal opportunity) is satisfied within a bound; when no pair
//! satisfies it, the pair with the smallest violation wins. Deterministic —
//! no randomization is involved.

use fairprep_data::error::Result;
use fairprep_ml::eval::ConfusionMatrix;
use fairprep_ml::sealing;
use fairprep_trace::json::{obj, Value};

use crate::postprocess::{validate_fit_inputs, FittedPostprocessor, Postprocessor};

pub(crate) const KIND: &str = "group_thresholds";

/// The fairness constraint the threshold pair must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdConstraint {
    /// Equal selection rates (`|SPD| <= bound`).
    StatisticalParity,
    /// Equal true positive rates (`|EOD| <= bound`).
    EqualOpportunity,
}

impl ThresholdConstraint {
    fn name(self) -> &'static str {
        match self {
            ThresholdConstraint::StatisticalParity => "statistical_parity",
            ThresholdConstraint::EqualOpportunity => "equal_opportunity",
        }
    }
}

/// The group-threshold-optimizer intervention.
#[derive(Debug, Clone, Copy)]
pub struct GroupThresholdOptimizer {
    /// The constraint to satisfy.
    pub constraint: ThresholdConstraint,
    /// Maximum tolerated constraint violation on the validation set.
    pub bound: f64,
    /// Threshold-grid resolution per group.
    pub steps: usize,
}

impl Default for GroupThresholdOptimizer {
    fn default() -> Self {
        GroupThresholdOptimizer {
            constraint: ThresholdConstraint::StatisticalParity,
            bound: 0.03,
            steps: 40,
        }
    }
}

fn metrics_at(
    scores: &[f64],
    labels: &[f64],
    privileged: &[bool],
    t_priv: f64,
    t_unpriv: f64,
) -> (f64, f64, f64) {
    let preds: Vec<f64> = scores
        .iter()
        .zip(privileged)
        .map(|(&s, &p)| {
            let t = if p { t_priv } else { t_unpriv };
            f64::from(u8::from(s >= t))
        })
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "preds is computed element-wise from scores whose length was validated against labels"
    )]
    let overall = ConfusionMatrix::compute(labels, &preds, None).expect("lengths");
    #[expect(
        clippy::expect_used,
        reason = "y and pr are zip-filtered from equal-length inputs, so their lengths match"
    )]
    let group_cm = |keep: bool| {
        let y: Vec<f64> = labels
            .iter()
            .zip(privileged)
            .filter(|(_, &p)| p == keep)
            .map(|(&v, _)| v)
            .collect();
        let pr: Vec<f64> = preds
            .iter()
            .zip(privileged)
            .filter(|(_, &p)| p == keep)
            .map(|(&v, _)| v)
            .collect();
        ConfusionMatrix::compute(&y, &pr, None).expect("lengths")
    };
    let cm_p = group_cm(true);
    let cm_u = group_cm(false);
    let spd = cm_u.selection_rate() - cm_p.selection_rate();
    let eod = cm_u.tpr() - cm_p.tpr();
    (overall.accuracy(), spd, eod)
}

impl Postprocessor for GroupThresholdOptimizer {
    fn name(&self) -> String {
        format!(
            "group_thresholds({},bound={})",
            self.constraint.name(),
            self.bound
        )
    }

    // audit: allow(missing-guard-fit, reason = "postprocessors deliberately fit on held-out validation predictions (tagged Derived) - the one documented provenance exception, see DESIGN.md")
    fn fit(
        &self,
        val_scores: &[f64],
        val_labels: &[f64],
        val_privileged: &[bool],
        _seed: u64,
    ) -> Result<Box<dyn FittedPostprocessor>> {
        validate_fit_inputs(val_scores, val_labels, val_privileged)?;
        let steps = self.steps.max(2);
        let grid: Vec<f64> = (0..=steps).map(|k| k as f64 / steps as f64).collect();

        let mut best_feasible: Option<(f64, f64, f64)> = None; // (tp, tu, acc)
        let mut best_fallback: Option<(f64, f64, f64)> = None; // (tp, tu, violation)
        for &tp in &grid {
            for &tu in &grid {
                let (acc, spd, eod) = metrics_at(val_scores, val_labels, val_privileged, tp, tu);
                let violation = match self.constraint {
                    ThresholdConstraint::StatisticalParity => spd.abs(),
                    ThresholdConstraint::EqualOpportunity => {
                        if eod.is_finite() {
                            eod.abs()
                        } else {
                            f64::INFINITY
                        }
                    }
                };
                if violation <= self.bound && best_feasible.is_none_or(|(_, _, a)| acc > a) {
                    best_feasible = Some((tp, tu, acc));
                }
                if best_fallback.is_none_or(|(_, _, v)| violation < v) {
                    best_fallback = Some((tp, tu, violation));
                }
            }
        }
        let (t_priv, t_unpriv) = best_feasible
            .map(|(tp, tu, _)| (tp, tu))
            .or(best_fallback.map(|(tp, tu, _)| (tp, tu)))
            .unwrap_or((0.5, 0.5));
        Ok(Box::new(FittedGroupThresholds { t_priv, t_unpriv }))
    }
}

/// The fitted per-group thresholds.
#[derive(Debug, Clone, Copy)]
pub struct FittedGroupThresholds {
    /// Decision threshold for the privileged group.
    pub t_priv: f64,
    /// Decision threshold for the unprivileged group.
    pub t_unpriv: f64,
}

impl FittedGroupThresholds {
    pub(crate) fn unseal(v: &Value) -> Result<FittedGroupThresholds> {
        let t_priv = sealing::req_f64(v, "t_priv")?;
        let t_unpriv = sealing::req_f64(v, "t_unpriv")?;
        if !t_priv.is_finite() || !t_unpriv.is_finite() {
            return Err(sealing::seal_err("group_thresholds must be finite"));
        }
        Ok(FittedGroupThresholds { t_priv, t_unpriv })
    }
}

impl FittedPostprocessor for FittedGroupThresholds {
    fn adjust(&self, scores: &[f64], privileged: &[bool]) -> Result<Vec<f64>> {
        Ok(scores
            .iter()
            .zip(privileged)
            .map(|(&s, &p)| {
                let t = if p { self.t_priv } else { self.t_unpriv };
                f64::from(u8::from(s >= t))
            })
            .collect())
    }

    fn seal(&self) -> Result<Value> {
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("t_priv", Value::bits(self.t_priv)),
            ("t_unpriv", Value::bits(self.t_unpriv)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postprocess::test_support::biased_scores;

    #[test]
    fn satisfies_statistical_parity_bound_on_validation() {
        let (scores, labels, mask) = biased_scores(1000, 41);
        let fitted = GroupThresholdOptimizer::default()
            .fit(&scores, &labels, &mask, 0)
            .unwrap();
        let preds = fitted.adjust(&scores, &mask).unwrap();
        let rate = |keep: bool| {
            let (s, n) = preds
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m == keep)
                .fold((0.0, 0usize), |(s, n), (&v, _)| (s + v, n + 1));
            s / n as f64
        };
        let spd = (rate(false) - rate(true)).abs();
        assert!(spd <= 0.05, "validation SPD after thresholds: {spd}");
    }

    /// Scores where privileged positives are confidently above 0.5 but
    /// unprivileged positives straddle it — a genuine TPR gap at the
    /// default threshold.
    fn tpr_gap_scores(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<bool>) {
        use rand::Rng;
        let mut rng = fairprep_data::rng::component_rng(seed, "test/tpr_gap");
        let mut scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        for i in 0..n {
            let privileged = i % 2 == 0;
            let y = f64::from(u8::from(rng.random::<f64>() < 0.5));
            let signal = if privileged { 0.35 * y } else { 0.12 * y };
            let s: f64 = (0.28 + signal + 0.3 * rng.random::<f64>()).clamp(0.01, 0.99);
            scores.push(s);
            labels.push(y);
            mask.push(privileged);
        }
        (scores, labels, mask)
    }

    #[test]
    fn equal_opportunity_variant_reduces_tpr_gap() {
        let (scores, labels, mask) = tpr_gap_scores(1500, 42);
        let tpr_gap = |preds: &[f64]| {
            let group = |keep: bool| {
                let y: Vec<f64> = labels
                    .iter()
                    .zip(&mask)
                    .filter(|(_, &m)| m == keep)
                    .map(|(&v, _)| v)
                    .collect();
                let p: Vec<f64> = preds
                    .iter()
                    .zip(&mask)
                    .filter(|(_, &m)| m == keep)
                    .map(|(&v, _)| v)
                    .collect();
                ConfusionMatrix::compute(&y, &p, None).unwrap().tpr()
            };
            (group(false) - group(true)).abs()
        };
        let plain: Vec<f64> = scores
            .iter()
            .map(|&s| f64::from(u8::from(s > 0.5)))
            .collect();
        let optimizer = GroupThresholdOptimizer {
            constraint: ThresholdConstraint::EqualOpportunity,
            ..Default::default()
        };
        let fitted = optimizer.fit(&scores, &labels, &mask, 0).unwrap();
        let adjusted = fitted.adjust(&scores, &mask).unwrap();
        assert!(
            tpr_gap(&adjusted) < tpr_gap(&plain),
            "plain gap {}, adjusted gap {}",
            tpr_gap(&plain),
            tpr_gap(&adjusted)
        );
    }

    #[test]
    fn thresholds_differ_between_groups_on_biased_data() {
        let (scores, labels, mask) = biased_scores(1000, 43);
        let optimizer = GroupThresholdOptimizer::default();
        let boxed = optimizer.fit(&scores, &labels, &mask, 0).unwrap();
        // On biased scores, a single shared threshold cannot reach parity:
        // adjusting must actually act group-specifically. Verify by checking
        // the adjusted selection rates come out closer than plain 0.5.
        let plain: Vec<f64> = scores
            .iter()
            .map(|&s| f64::from(u8::from(s > 0.5)))
            .collect();
        let adjusted = boxed.adjust(&scores, &mask).unwrap();
        let gap = |preds: &[f64]| {
            let rate = |keep: bool| {
                let (s, n) = preds
                    .iter()
                    .zip(&mask)
                    .filter(|(_, &m)| m == keep)
                    .fold((0.0, 0usize), |(s, n), (&v, _)| (s + v, n + 1));
                s / n as f64
            };
            (rate(false) - rate(true)).abs()
        };
        assert!(gap(&adjusted) < gap(&plain));
    }

    #[test]
    fn deterministic_and_seed_independent() {
        let (scores, labels, mask) = biased_scores(400, 44);
        let o = GroupThresholdOptimizer::default();
        let a = o
            .fit(&scores, &labels, &mask, 1)
            .unwrap()
            .adjust(&scores, &mask)
            .unwrap();
        let b = o
            .fit(&scores, &labels, &mask, 2)
            .unwrap()
            .adjust(&scores, &mask)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(GroupThresholdOptimizer::default()
            .fit(&[0.5], &[1.0, 0.0], &[true, false], 0)
            .is_err());
    }

    #[test]
    fn name_mentions_constraint() {
        assert!(GroupThresholdOptimizer::default()
            .name()
            .contains("statistical_parity"));
    }
}
