//! Training-set resampling — the first (optional) lifecycle step.
//!
//! "In the first (optional) step, we allow users to resample the training
//! data: to apply bootstrapping, to balance classes, or to generate
//! additional synthetic examples" (§3). Resamplers only ever see the
//! training partition; the framework never applies them to validation or
//! test data.

use rand::seq::IndexedRandom;
use rand::Rng;

use crate::dataset::BinaryLabelDataset;
use crate::error::{Error, Result};
use crate::rng::component_rng;

/// A training-set resampling strategy.
pub trait Resampler: Send + Sync {
    /// Human-readable name (for run metadata).
    fn name(&self) -> &'static str;

    /// Produces the resampled training set. Implementations must derive all
    /// randomness from `seed` for reproducibility.
    fn resample(&self, train: &BinaryLabelDataset, seed: u64) -> Result<BinaryLabelDataset>;
}

/// Identity resampler (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoResampling;

impl Resampler for NoResampling {
    fn name(&self) -> &'static str {
        "no_resampling"
    }

    fn resample(&self, train: &BinaryLabelDataset, _seed: u64) -> Result<BinaryLabelDataset> {
        Ok(train.clone())
    }
}

/// Bootstrap resampling: draws `fraction * n` rows with replacement.
#[derive(Debug, Clone, Copy)]
pub struct Bootstrap {
    /// Size of the bootstrap sample relative to the input (1.0 = same size).
    pub fraction: f64,
}

impl Default for Bootstrap {
    fn default() -> Self {
        Bootstrap { fraction: 1.0 }
    }
}

impl Resampler for Bootstrap {
    fn name(&self) -> &'static str {
        "bootstrap"
    }

    fn resample(&self, train: &BinaryLabelDataset, seed: u64) -> Result<BinaryLabelDataset> {
        if !(self.fraction.is_finite() && self.fraction > 0.0) {
            return Err(Error::InvalidParameter {
                name: "fraction",
                message: format!("{} is not a positive finite number", self.fraction),
            });
        }
        let n = train.n_rows();
        if n == 0 {
            return Err(Error::EmptyData("bootstrap input".to_string()));
        }
        let m = ((n as f64) * self.fraction).round().max(1.0) as usize;
        let mut rng = component_rng(seed, "resampler/bootstrap");
        let indices: Vec<usize> = (0..m).map(|_| rng.random_range(0..n)).collect();
        Ok(train.take(&indices))
    }
}

/// Class balancing by random oversampling of the minority label.
///
/// After resampling, the positive and negative classes have equal counts;
/// majority-class rows are kept as-is, minority-class rows are duplicated
/// uniformly at random.
#[derive(Debug, Clone, Copy, Default)]
pub struct OversampleMinorityClass;

impl Resampler for OversampleMinorityClass {
    fn name(&self) -> &'static str {
        "oversample_minority_class"
    }

    fn resample(&self, train: &BinaryLabelDataset, seed: u64) -> Result<BinaryLabelDataset> {
        let labels = train.labels();
        let pos: Vec<usize> = labels
            .iter()
            .enumerate()
            // audit: allow(float-eq, reason = "binary labels are exactly 0.0/1.0 by construction")
            .filter(|(_, &y)| y == 1.0)
            .map(|(i, _)| i)
            .collect();
        let neg: Vec<usize> = labels
            .iter()
            .enumerate()
            // audit: allow(float-eq, reason = "binary labels are exactly 0.0/1.0 by construction")
            .filter(|(_, &y)| y == 0.0)
            .map(|(i, _)| i)
            .collect();
        if pos.is_empty() || neg.is_empty() {
            return Err(Error::EmptyData(
                "one label class is empty; cannot balance".to_string(),
            ));
        }
        let (minority, majority) = if pos.len() < neg.len() {
            (&pos, &neg)
        } else {
            (&neg, &pos)
        };
        let deficit = majority.len() - minority.len();
        let mut rng = component_rng(seed, "resampler/oversample");
        let mut indices: Vec<usize> = (0..train.n_rows()).collect();
        indices.reserve(deficit);
        for _ in 0..deficit {
            #[expect(
                clippy::expect_used,
                reason = "the empty-class check above guarantees both classes are non-empty"
            )]
            indices.push(*minority.choose(&mut rng).expect("minority non-empty"));
        }
        Ok(train.take(&indices))
    }
}

/// Stratified subsampling to a target size, preserving the joint
/// (label × group) cell proportions. Listed as future work in the paper
/// ("preprocessing techniques such as stratified sampling", §7).
#[derive(Debug, Clone, Copy)]
pub struct StratifiedSubsample {
    /// Fraction of rows to keep in each (label × group) cell, in `(0, 1]`.
    pub fraction: f64,
}

impl Resampler for StratifiedSubsample {
    fn name(&self) -> &'static str {
        "stratified_subsample"
    }

    fn resample(&self, train: &BinaryLabelDataset, seed: u64) -> Result<BinaryLabelDataset> {
        if !(self.fraction.is_finite() && self.fraction > 0.0 && self.fraction <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "fraction",
                message: format!("{} not in (0, 1]", self.fraction),
            });
        }
        let mut rng = component_rng(seed, "resampler/stratified");
        let labels = train.labels();
        let mask = train.privileged_mask();
        let mut keep: Vec<usize> = Vec::new();
        for y in [0.0, 1.0] {
            for p in [false, true] {
                let mut cell: Vec<usize> = (0..train.n_rows())
                    .filter(|&i| labels[i] == y && mask[i] == p)
                    .collect();
                if cell.is_empty() {
                    continue;
                }
                use rand::seq::SliceRandom;
                cell.shuffle(&mut rng);
                let k = ((cell.len() as f64) * self.fraction).round().max(1.0) as usize;
                keep.extend_from_slice(&cell[..k.min(cell.len())]);
            }
        }
        keep.sort_unstable();
        if keep.is_empty() {
            return Err(Error::EmptyData(
                "stratified subsample produced no rows".to_string(),
            ));
        }
        Ok(train.take(&keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnKind};
    use crate::frame::DataFrame;
    use crate::schema::{ProtectedAttribute, Schema};

    fn dataset() -> BinaryLabelDataset {
        // 8 rows: 6 negatives, 2 positives; alternating groups.
        let n = 8;
        let frame = DataFrame::new()
            .with_column("x", Column::from_f64((0..n).map(f64::from)))
            .unwrap()
            .with_column(
                "g",
                Column::from_strs((0..n).map(|i| if i % 2 == 0 { "a" } else { "b" })),
            )
            .unwrap()
            .with_column(
                "y",
                Column::from_strs((0..n).map(|i| if i < 2 { "pos" } else { "neg" })),
            )
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("x")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "pos",
        )
        .unwrap()
    }

    #[test]
    fn no_resampling_is_identity() {
        let ds = dataset();
        let out = NoResampling.resample(&ds, 1).unwrap();
        assert_eq!(out.labels(), ds.labels());
        assert_eq!(out.n_rows(), ds.n_rows());
    }

    #[test]
    fn bootstrap_size_and_determinism() {
        let ds = dataset();
        let a = Bootstrap { fraction: 1.5 }.resample(&ds, 3).unwrap();
        assert_eq!(a.n_rows(), 12);
        let b = Bootstrap { fraction: 1.5 }.resample(&ds, 3).unwrap();
        assert_eq!(a.labels(), b.labels());
        let c = Bootstrap { fraction: 1.5 }.resample(&ds, 4).unwrap();
        assert_eq!(c.n_rows(), 12); // same size, very likely different rows
    }

    #[test]
    fn bootstrap_rejects_bad_fraction() {
        let ds = dataset();
        assert!(Bootstrap { fraction: 0.0 }.resample(&ds, 0).is_err());
        assert!(Bootstrap { fraction: f64::NAN }.resample(&ds, 0).is_err());
    }

    #[test]
    fn oversampling_balances_classes() {
        let ds = dataset();
        let out = OversampleMinorityClass.resample(&ds, 5).unwrap();
        let pos = out.labels().iter().filter(|&&y| y == 1.0).count();
        let neg = out.labels().iter().filter(|&&y| y == 0.0).count();
        assert_eq!(pos, neg);
        assert_eq!(out.n_rows(), 12); // 6 + 6
    }

    #[test]
    fn oversampling_requires_both_classes() {
        let ds = dataset();
        let only_neg_idx: Vec<usize> = (2..8).collect();
        let only_neg = ds.take(&only_neg_idx);
        assert!(OversampleMinorityClass.resample(&only_neg, 0).is_err());
    }

    #[test]
    fn stratified_preserves_cells() {
        let ds = dataset();
        let out = StratifiedSubsample { fraction: 0.5 }
            .resample(&ds, 11)
            .unwrap();
        // Each nonempty (label, group) cell keeps >= 1 row.
        assert!(out.n_rows() >= 4);
        assert!(out.n_rows() < ds.n_rows());
        assert!(out.labels().contains(&1.0));
        assert!(out.labels().contains(&0.0));
    }

    #[test]
    fn stratified_rejects_bad_fraction() {
        let ds = dataset();
        assert!(StratifiedSubsample { fraction: 1.5 }
            .resample(&ds, 0)
            .is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(NoResampling.name(), "no_resampling");
        assert_eq!(Bootstrap::default().name(), "bootstrap");
        assert_eq!(OversampleMinorityClass.name(), "oversample_minority_class");
        assert_eq!(
            StratifiedSubsample { fraction: 0.5 }.name(),
            "stratified_subsample"
        );
    }
}
