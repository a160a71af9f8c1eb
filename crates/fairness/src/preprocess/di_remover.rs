//! Disparate-impact removal [Feldman et al., KDD 2015].
//!
//! "Edits feature values to increase group fairness while preserving the
//! rank-ordering within groups. The repair level parameter represents the
//! repair amount." (§4)
//!
//! For each numeric feature, the repairer learns the per-group empirical
//! quantile functions on the training data. Repairing a value `v` from
//! group `g`: compute its quantile `q` within `g`'s training distribution,
//! look up the *median distribution* value at `q` (with two groups: the
//! mean of both group quantile functions), and blend:
//! `v' = (1 − λ) · v + λ · median(q)` with repair level `λ ∈ [0, 1]`.
//! Monotone per-group maps preserve within-group rank order.

// audit: allow-file(index-literal, reason = "per-group state is a [Vec; 2] pair indexed by bool; the single slice index is guarded by a length check")
use fairprep_data::column::Column;
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_ml::sealing;
use fairprep_trace::json::{obj, Value};

use crate::preprocess::{FittedPreprocessor, Preprocessor};

pub(crate) const KIND: &str = "di_remover";

/// The disparate-impact remover with a configurable repair level.
#[derive(Debug, Clone, Copy)]
pub struct DisparateImpactRemover {
    /// Repair amount λ: `0.0` = no change, `1.0` = full repair.
    pub repair_level: f64,
}

impl DisparateImpactRemover {
    /// Creates a remover with the given repair level.
    #[must_use]
    pub fn new(repair_level: f64) -> Self {
        DisparateImpactRemover { repair_level }
    }
}

impl Preprocessor for DisparateImpactRemover {
    fn name(&self) -> String {
        format!("di_remover({})", self.repair_level)
    }

    fn fit(&self, train: &BinaryLabelDataset, _seed: u64) -> Result<Box<dyn FittedPreprocessor>> {
        train.guard_fit("DisparateImpactRemover::fit");
        if !(0.0..=1.0).contains(&self.repair_level) || !self.repair_level.is_finite() {
            return Err(Error::InvalidParameter {
                name: "repair_level",
                message: format!("{} not in [0, 1]", self.repair_level),
            });
        }
        let mask = train.privileged_mask();
        let mut features = Vec::new();
        for name in train.schema().numeric_features() {
            let col = train.frame().column(name)?;
            let values = col.as_numeric()?;
            let mut sorted = [Vec::new(), Vec::new()];
            for (i, v) in values.iter().enumerate() {
                if let Some(v) = v {
                    sorted[usize::from(mask[i])].push(*v);
                }
            }
            for s in &mut sorted {
                s.sort_by(f64::total_cmp);
            }
            if sorted[0].is_empty() || sorted[1].is_empty() {
                return Err(Error::EmptyGroup {
                    privileged: sorted[1].is_empty(),
                });
            }
            features.push(FeatureRepair {
                name: (*name).to_string(),
                sorted,
            });
        }
        Ok(Box::new(FittedDiRemover {
            repair_level: self.repair_level,
            features,
        }))
    }
}

struct FeatureRepair {
    name: String,
    /// Sorted training values, `sorted[0]` = unprivileged, `sorted[1]` =
    /// privileged.
    sorted: [Vec<f64>; 2],
}

impl FeatureRepair {
    /// Empirical quantile of `v` within group `g` (mid-distribution
    /// convention, linear interpolation between order statistics).
    fn quantile_of(&self, g: usize, v: f64) -> f64 {
        let s = &self.sorted[g];
        // rank = (#(x < v) + #(x <= v)) / 2 — robust to ties.
        let below = s.partition_point(|x| *x < v);
        let at_or_below = s.partition_point(|x| *x <= v);
        let rank = (below + at_or_below) as f64 / 2.0;
        (rank / s.len() as f64).clamp(0.0, 1.0)
    }

    /// Value of group `g`'s training distribution at quantile `q` (linear
    /// interpolation).
    fn value_at(&self, g: usize, q: f64) -> f64 {
        let s = &self.sorted[g];
        if s.len() == 1 {
            return s[0];
        }
        let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(s.len() - 1);
        let frac = pos - lo as f64;
        s[lo] * (1.0 - frac) + s[hi] * frac
    }

    /// The median-distribution value at quantile `q`: with two groups, the
    /// mean of the two group quantile functions.
    fn median_value_at(&self, q: f64) -> f64 {
        0.5 * (self.value_at(0, q) + self.value_at(1, q))
    }

    fn repair(&self, g: usize, v: f64, lambda: f64) -> f64 {
        let q = self.quantile_of(g, v);
        (1.0 - lambda) * v + lambda * self.median_value_at(q)
    }
}

pub(crate) struct FittedDiRemover {
    repair_level: f64,
    features: Vec<FeatureRepair>,
}

/// Reconstructs a fitted disparate-impact remover from a sealed record,
/// validating everything the repair math relies on: the per-group training
/// values must be non-empty and sorted (quantile lookups binary-search them).
pub(crate) fn unseal_di_remover(v: &Value) -> Result<FittedDiRemover> {
    let repair_level = sealing::req_f64(v, "repair_level")?;
    if !repair_level.is_finite() || !(0.0..=1.0).contains(&repair_level) {
        return Err(sealing::seal_err("di_remover repair_level not in [0, 1]"));
    }
    let mut features = Vec::new();
    for feature in sealing::req_arr(v, "features")? {
        let name = sealing::req_str(feature, "name")?.to_string();
        let sorted = [
            sealing::req_f64_vec(feature, "unprivileged")?,
            sealing::req_f64_vec(feature, "privileged")?,
        ];
        for group in &sorted {
            if group.is_empty() {
                return Err(sealing::seal_err(
                    "di_remover feature has an empty group distribution",
                ));
            }
            if group.windows(2).any(|w| w[0].total_cmp(&w[1]).is_gt()) {
                return Err(sealing::seal_err(
                    "di_remover group distribution is not sorted",
                ));
            }
        }
        features.push(FeatureRepair { name, sorted });
    }
    Ok(FittedDiRemover {
        repair_level,
        features,
    })
}

impl FittedDiRemover {
    fn repair_dataset(&self, data: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        // audit: allow(float-eq, reason = "repair level 0.0 is the exact user-supplied no-op configuration")
        if self.repair_level == 0.0 {
            return Ok(data.clone());
        }
        let mask = data.privileged_mask().to_vec();
        let mut out = data.clone();
        for feature in &self.features {
            let col = data.frame().column(&feature.name)?;
            let values = col.as_numeric()?;
            let repaired: Vec<Option<f64>> = values
                .iter()
                .enumerate()
                .map(|(i, v)| v.map(|v| feature.repair(usize::from(mask[i]), v, self.repair_level)))
                .collect();
            out.replace_column(&feature.name, Column::from_optional_f64(repaired))?;
        }
        Ok(out)
    }
}

impl FittedPreprocessor for FittedDiRemover {
    fn transform_train(&self, train: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        self.repair_dataset(train)
    }

    fn transform_eval(&self, data: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        self.repair_dataset(data)
    }

    fn seal(&self) -> Result<Value> {
        let features: Vec<Value> = self
            .features
            .iter()
            .map(|f| {
                obj(vec![
                    ("name", Value::Str(f.name.clone())),
                    ("unprivileged", Value::bits_vec(&f.sorted[0])),
                    ("privileged", Value::bits_vec(&f.sorted[1])),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("repair_level", Value::bits(self.repair_level)),
            ("features", Value::Arr(features)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::test_support::biased_dataset;

    fn column_values(ds: &BinaryLabelDataset, name: &str) -> Vec<f64> {
        ds.frame()
            .column(name)
            .unwrap()
            .as_numeric()
            .unwrap()
            .iter()
            .map(|v| v.unwrap())
            .collect()
    }

    #[test]
    fn zero_repair_is_identity() {
        let ds = biased_dataset(60);
        let fitted = DisparateImpactRemover::new(0.0).fit(&ds, 0).unwrap();
        let out = fitted.transform_train(&ds).unwrap();
        assert_eq!(out.frame(), ds.frame());
    }

    #[test]
    fn full_repair_aligns_group_distributions() {
        let ds = biased_dataset(200);
        let fitted = DisparateImpactRemover::new(1.0).fit(&ds, 0).unwrap();
        let out = fitted.transform_train(&ds).unwrap();
        let values = column_values(&out, "score");
        let mask = out.privileged_mask();
        let mean = |privileged: bool| -> f64 {
            let xs: Vec<f64> = values
                .iter()
                .zip(mask)
                .filter(|(_, &m)| m == privileged)
                .map(|(&v, _)| v)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let gap_after = (mean(true) - mean(false)).abs();
        // Original gap is 30; full repair must nearly close it.
        assert!(gap_after < 2.0, "gap after full repair: {gap_after}");
    }

    #[test]
    fn partial_repair_is_between() {
        let ds = biased_dataset(200);
        let orig = column_values(&ds, "score");
        let half = DisparateImpactRemover::new(0.5)
            .fit(&ds, 0)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        let full = DisparateImpactRemover::new(1.0)
            .fit(&ds, 0)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        let half_v = column_values(&half, "score");
        let full_v = column_values(&full, "score");
        for i in 0..orig.len() {
            let expected = 0.5 * (orig[i] + full_v[i]);
            assert!((half_v[i] - expected).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn rank_order_within_groups_is_preserved() {
        let ds = biased_dataset(100);
        let orig = column_values(&ds, "score");
        let out = DisparateImpactRemover::new(1.0)
            .fit(&ds, 0)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        let repaired = column_values(&out, "score");
        let mask = ds.privileged_mask();
        for privileged in [true, false] {
            let idx: Vec<usize> = (0..100).filter(|&i| mask[i] == privileged).collect();
            for a in 0..idx.len() {
                for b in a + 1..idx.len() {
                    let (i, j) = (idx[a], idx[b]);
                    if orig[i] < orig[j] {
                        assert!(
                            repaired[i] <= repaired[j] + 1e-9,
                            "rank inversion at ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn labels_and_weights_are_untouched() {
        let ds = biased_dataset(60);
        let out = DisparateImpactRemover::new(1.0)
            .fit(&ds, 0)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        assert_eq!(out.labels(), ds.labels());
        assert_eq!(out.instance_weights(), ds.instance_weights());
    }

    #[test]
    fn eval_split_is_repaired_with_train_statistics() {
        let ds = biased_dataset(200);
        let train_idx: Vec<usize> = (0..150).collect();
        let test_idx: Vec<usize> = (150..200).collect();
        let train = ds.take(&train_idx);
        let test = ds.take(&test_idx);
        let fitted = DisparateImpactRemover::new(1.0).fit(&train, 0).unwrap();
        let out = fitted.transform_eval(&test).unwrap();
        // Test rows must change (they carry the group gap).
        assert_ne!(column_values(&out, "score"), column_values(&test, "score"));
        // And labels stay fixed.
        assert_eq!(out.labels(), test.labels());
    }

    #[test]
    fn invalid_repair_level_rejected() {
        let ds = biased_dataset(20);
        assert!(DisparateImpactRemover::new(1.5).fit(&ds, 0).is_err());
        assert!(DisparateImpactRemover::new(-0.1).fit(&ds, 0).is_err());
        assert!(DisparateImpactRemover::new(f64::NAN).fit(&ds, 0).is_err());
    }

    #[test]
    fn name_includes_repair_level() {
        assert_eq!(DisparateImpactRemover::new(0.5).name(), "di_remover(0.5)");
    }
}
