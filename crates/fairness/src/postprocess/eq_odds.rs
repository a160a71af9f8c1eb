//! Equalized-odds post-processing [Hardt, Price & Srebro, NeurIPS 2016] —
//! an extension intervention (paper future work, §7).
//!
//! A *derived predictor* per group randomly flips some predictions:
//! with probability `p2p` a predicted positive stays positive, and with
//! probability `n2p` a predicted negative becomes positive. The resulting
//! group TPR/FPR are linear in `(p2p, n2p)`, so the fit searches a grid of
//! mixing rates for both groups and picks the combination that minimizes
//! the equalized-odds violation `|ΔTPR| + |ΔFPR|`, breaking ties by
//! validation error. Randomization is seeded at fit time.

use rand::Rng;

use fairprep_data::error::Result;
use fairprep_data::rng::component_rng;
use fairprep_ml::eval::ConfusionMatrix;
use fairprep_ml::sealing;
use fairprep_trace::json::{obj, Value};

use crate::postprocess::{validate_fit_inputs, FittedPostprocessor, Postprocessor};

pub(crate) const KIND: &str = "eq_odds";

/// Equalized-odds post-processing with a configurable search resolution.
#[derive(Debug, Clone, Copy)]
pub struct EqOddsPostprocessing {
    /// Number of grid steps per mixing parameter (the grid has
    /// `(steps + 1)^4` points; the default 10 gives 14,641).
    pub steps: usize,
}

impl Default for EqOddsPostprocessing {
    fn default() -> Self {
        EqOddsPostprocessing { steps: 10 }
    }
}

#[derive(Debug, Clone, Copy)]
struct GroupRates {
    tpr: f64,
    fpr: f64,
    n_pos: f64,
    n_neg: f64,
}

fn measure(scores: &[f64], labels: &[f64]) -> GroupRates {
    let preds: Vec<f64> = scores
        .iter()
        .map(|&s| f64::from(u8::from(s > 0.5)))
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "preds is computed element-wise from scores whose length was validated against labels"
    )]
    let cm = ConfusionMatrix::compute(labels, &preds, None).expect("equal lengths");
    GroupRates {
        tpr: cm.tpr(),
        fpr: cm.fpr(),
        n_pos: cm.tp + cm.fn_,
        n_neg: cm.fp + cm.tn,
    }
}

/// Derived TPR/FPR after mixing with rates `(p2p, n2p)`.
fn derived(rates: GroupRates, p2p: f64, n2p: f64) -> (f64, f64) {
    let tpr = p2p * rates.tpr + n2p * (1.0 - rates.tpr);
    let fpr = p2p * rates.fpr + n2p * (1.0 - rates.fpr);
    (tpr, fpr)
}

impl Postprocessor for EqOddsPostprocessing {
    fn name(&self) -> String {
        "eq_odds".to_string()
    }

    // audit: allow(missing-guard-fit, reason = "postprocessors deliberately fit on held-out validation predictions (tagged Derived) - the one documented provenance exception, see DESIGN.md")
    fn fit(
        &self,
        val_scores: &[f64],
        val_labels: &[f64],
        val_privileged: &[bool],
        seed: u64,
    ) -> Result<Box<dyn FittedPostprocessor>> {
        validate_fit_inputs(val_scores, val_labels, val_privileged)?;
        let split = |keep: bool| -> (Vec<f64>, Vec<f64>) {
            let s = val_scores
                .iter()
                .zip(val_privileged)
                .filter(|(_, &p)| p == keep)
                .map(|(&v, _)| v)
                .collect();
            let y = val_labels
                .iter()
                .zip(val_privileged)
                .filter(|(_, &p)| p == keep)
                .map(|(&v, _)| v)
                .collect();
            (s, y)
        };
        let (sp, yp) = split(true);
        let (su, yu) = split(false);
        let rp = measure(&sp, &yp);
        let ru = measure(&su, &yu);

        let steps = self.steps.max(1);
        let grid: Vec<f64> = (0..=steps).map(|k| k as f64 / steps as f64).collect();
        let mut best: Option<([f64; 4], f64, f64)> = None; // params, violation, error
        for &pp in &grid {
            for &np in &grid {
                let (tp, fp) = derived(rp, pp, np);
                for &pu in &grid {
                    for &nu in &grid {
                        let (tu, fu) = derived(ru, pu, nu);
                        let violation = (tp - tu).abs() + (fp - fu).abs();
                        // Weighted validation error of the derived predictor.
                        let err = rp.n_pos * (1.0 - tp)
                            + rp.n_neg * fp
                            + ru.n_pos * (1.0 - tu)
                            + ru.n_neg * fu;
                        // Violations within TOL of each other are treated as
                        // tied and decided by error — otherwise only the
                        // trivial constant predictors (violation exactly 0)
                        // would ever win on grids where exact equality is
                        // unattainable.
                        const TOL: f64 = 0.02;
                        let better = match &best {
                            None => true,
                            Some((_, bv, be)) => {
                                violation < bv - TOL || ((violation - bv).abs() <= TOL && err < *be)
                            }
                        };
                        if better {
                            best = Some(([pp, np, pu, nu], violation, err));
                        }
                    }
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the mixing-rate grid is a compile-time constant with at least one candidate"
        )]
        let ([p2p_priv, n2p_priv, p2p_unpriv, n2p_unpriv], _, _) = best.expect("grid non-empty");
        Ok(Box::new(FittedEqOdds {
            p2p_priv,
            n2p_priv,
            p2p_unpriv,
            n2p_unpriv,
            seed,
        }))
    }
}

/// The fitted derived predictor.
#[derive(Debug, Clone, Copy)]
pub struct FittedEqOdds {
    /// P(keep positive | privileged, predicted positive).
    pub p2p_priv: f64,
    /// P(flip to positive | privileged, predicted negative).
    pub n2p_priv: f64,
    /// P(keep positive | unprivileged, predicted positive).
    pub p2p_unpriv: f64,
    /// P(flip to positive | unprivileged, predicted negative).
    pub n2p_unpriv: f64,
    seed: u64,
}

impl FittedEqOdds {
    pub(crate) fn unseal(v: &Value) -> Result<FittedEqOdds> {
        let rates = [
            sealing::req_f64(v, "p2p_priv")?,
            sealing::req_f64(v, "n2p_priv")?,
            sealing::req_f64(v, "p2p_unpriv")?,
            sealing::req_f64(v, "n2p_unpriv")?,
        ];
        if rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
            return Err(sealing::seal_err("eq_odds mixing rates not in [0, 1]"));
        }
        let [p2p_priv, n2p_priv, p2p_unpriv, n2p_unpriv] = rates;
        Ok(FittedEqOdds {
            p2p_priv,
            n2p_priv,
            p2p_unpriv,
            n2p_unpriv,
            seed: sealing::req_u64(v, "seed")?,
        })
    }
}

impl FittedPostprocessor for FittedEqOdds {
    fn adjust(&self, scores: &[f64], privileged: &[bool]) -> Result<Vec<f64>> {
        let mut rng = component_rng(self.seed, "eq_odds/adjust");
        Ok(scores
            .iter()
            .zip(privileged)
            .map(|(&s, &p)| {
                let positive = s > 0.5;
                let (p2p, n2p) = if p {
                    (self.p2p_priv, self.n2p_priv)
                } else {
                    (self.p2p_unpriv, self.n2p_unpriv)
                };
                let draw: f64 = rng.random();
                let keep = if positive { draw < p2p } else { draw < n2p };
                f64::from(u8::from(keep))
            })
            .collect())
    }

    fn seal(&self) -> Result<Value> {
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("p2p_priv", Value::bits(self.p2p_priv)),
            ("n2p_priv", Value::bits(self.n2p_priv)),
            ("p2p_unpriv", Value::bits(self.p2p_unpriv)),
            ("n2p_unpriv", Value::bits(self.n2p_unpriv)),
            ("seed", Value::from_u64(self.seed)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postprocess::test_support::biased_scores;

    fn odds_violation(preds: &[f64], labels: &[f64], mask: &[bool]) -> f64 {
        let rates = |keep: bool| {
            let p: Vec<f64> = preds
                .iter()
                .zip(mask)
                .filter(|(_, &m)| m == keep)
                .map(|(&v, _)| v)
                .collect();
            let y: Vec<f64> = labels
                .iter()
                .zip(mask)
                .filter(|(_, &m)| m == keep)
                .map(|(&v, _)| v)
                .collect();
            let cm = ConfusionMatrix::compute(&y, &p, None).unwrap();
            (cm.tpr(), cm.fpr())
        };
        let (tp, fp) = rates(true);
        let (tu, fu) = rates(false);
        (tp - tu).abs() + (fp - fu).abs()
    }

    #[test]
    fn reduces_odds_violation() {
        let (scores, labels, mask) = biased_scores(4000, 11);
        let plain: Vec<f64> = scores
            .iter()
            .map(|&s| f64::from(u8::from(s > 0.5)))
            .collect();
        let before = odds_violation(&plain, &labels, &mask);

        let fitted = EqOddsPostprocessing::default()
            .fit(&scores, &labels, &mask, 1)
            .unwrap();
        let adjusted = fitted.adjust(&scores, &mask).unwrap();
        let after = odds_violation(&adjusted, &labels, &mask);
        assert!(
            after < before + 0.05,
            "violation before {before}, after {after}"
        );
    }

    #[test]
    fn derived_rates_math() {
        let r = GroupRates {
            tpr: 0.8,
            fpr: 0.2,
            n_pos: 10.0,
            n_neg: 10.0,
        };
        // Identity mixing keeps the rates.
        assert_eq!(derived(r, 1.0, 0.0), (0.8, 0.2));
        // Always-positive mixing gives (1, 1).
        assert_eq!(derived(r, 1.0, 1.0), (1.0, 1.0));
        // Always-negative gives (0, 0).
        assert_eq!(derived(r, 0.0, 0.0), (0.0, 0.0));
    }

    #[test]
    fn adjustment_is_reproducible() {
        let (scores, labels, mask) = biased_scores(200, 13);
        let fitted = EqOddsPostprocessing { steps: 5 }
            .fit(&scores, &labels, &mask, 3)
            .unwrap();
        assert_eq!(
            fitted.adjust(&scores, &mask).unwrap(),
            fitted.adjust(&scores, &mask).unwrap()
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(EqOddsPostprocessing::default()
            .fit(&[0.5], &[1.0], &[true], 0)
            .is_err());
    }
}
