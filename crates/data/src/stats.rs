//! Exploratory statistics over frames and datasets.
//!
//! These are the operations Ann performs in the paper's §1.1 walkthrough:
//! value distributions, correlations, and — crucially for §2.4/§5.3 —
//! missingness statistics broken down by group, which is how the paper
//! documents that `native-country` is missing four times more often for
//! non-white than for white persons in the adult dataset.

use std::collections::BTreeMap;

use crate::column::Column;
use crate::dataset::BinaryLabelDataset;
use crate::error::{Error, Result};
use crate::frame::DataFrame;

/// Summary statistics for one numeric column (missing values excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct NumericSummary {
    /// Number of non-missing observations.
    pub count: usize,
    /// Number of missing observations.
    pub missing: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes [`NumericSummary`] for a numeric column.
pub fn numeric_summary(column: &Column) -> Result<NumericSummary> {
    let values = column.as_numeric()?;
    let missing = values.iter().filter(|v| v.is_none()).count();
    let xs: Vec<f64> = values.iter().flatten().copied().collect();
    if xs.is_empty() {
        return Err(Error::EmptyData(
            "numeric summary of all-missing column".to_string(),
        ));
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Ok(NumericSummary {
        count: xs.len(),
        missing,
        mean,
        std_dev: var.sqrt(),
        min,
        max,
    })
}

/// Frequency table of a categorical column (missing values counted under
/// the key returned separately).
pub fn value_counts(column: &Column) -> Result<(BTreeMap<String, usize>, usize)> {
    let cat = column.as_categorical()?;
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut missing = 0usize;
    for code in cat.codes() {
        match code {
            Some(c) => {
                #[expect(
                    clippy::expect_used,
                    reason = "codes come from the column's own dictionary, so reverse lookup cannot fail"
                )]
                let name = cat.category_of(*c).expect("valid code").to_string();
                *counts.entry(name).or_insert(0) += 1;
            }
            None => missing += 1,
        }
    }
    Ok((counts, missing))
}

/// Pearson correlation between two numeric columns over rows where both are
/// observed.
pub fn pearson_correlation(a: &Column, b: &Column) -> Result<f64> {
    let xs = a.as_numeric()?;
    let ys = b.as_numeric()?;
    if xs.len() != ys.len() {
        return Err(Error::LengthMismatch {
            expected: xs.len(),
            actual: ys.len(),
        });
    }
    let pairs: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter_map(|(x, y)| Some((((*x)?), ((*y)?))))
        .collect();
    if pairs.len() < 2 {
        return Err(Error::EmptyData("fewer than 2 complete pairs".to_string()));
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|(x, _)| x).sum::<f64>() / n;
    let my = pairs.iter().map(|(_, y)| y).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in &pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    // audit: allow(float-eq, reason = "zero variance is the exact degenerate case being rejected")
    if sxx == 0.0 || syy == 0.0 {
        return Err(Error::EmptyData(
            "zero-variance column in correlation".to_string(),
        ));
    }
    Ok(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Per-column missingness rates of a frame, in column order.
#[must_use]
pub fn missing_rates(frame: &DataFrame) -> Vec<(String, f64)> {
    let n = frame.n_rows().max(1) as f64;
    frame
        .column_names()
        .iter()
        .map(|name| {
            #[expect(
                clippy::expect_used,
                reason = "iterating the frame's own column names, so every lookup succeeds"
            )]
            let col = frame.column(name).expect("column exists");
            (name.clone(), col.missing_count() as f64 / n)
        })
        .collect()
}

/// Missingness of one attribute, separately for the privileged and
/// unprivileged groups.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMissingness {
    /// Fraction of privileged rows with the attribute missing.
    pub privileged_rate: f64,
    /// Fraction of unprivileged rows with the attribute missing.
    pub unprivileged_rate: f64,
}

impl GroupMissingness {
    /// Ratio `unprivileged_rate / privileged_rate` — the "four times higher
    /// chance" statistic from §2.4. `NaN` when the privileged rate is zero.
    #[must_use]
    pub fn disparity_ratio(&self) -> f64 {
        self.unprivileged_rate / self.privileged_rate
    }
}

/// Computes [`GroupMissingness`] for `column` in `dataset`.
pub fn group_missingness(dataset: &BinaryLabelDataset, column: &str) -> Result<GroupMissingness> {
    let col = dataset.frame().column(column)?;
    let mask = dataset.privileged_mask();
    let mut priv_missing = 0usize;
    let mut priv_total = 0usize;
    let mut unpriv_missing = 0usize;
    let mut unpriv_total = 0usize;
    for (i, &privileged) in mask.iter().enumerate() {
        if privileged {
            priv_total += 1;
            priv_missing += usize::from(col.is_missing(i));
        } else {
            unpriv_total += 1;
            unpriv_missing += usize::from(col.is_missing(i));
        }
    }
    if priv_total == 0 || unpriv_total == 0 {
        return Err(Error::EmptyGroup {
            privileged: priv_total == 0,
        });
    }
    Ok(GroupMissingness {
        privileged_rate: priv_missing as f64 / priv_total as f64,
        unprivileged_rate: unpriv_missing as f64 / unpriv_total as f64,
    })
}

/// Positive-label rate separately for complete and incomplete records —
/// the §5.3 statistic ("24% probability among the complete records, but only
/// 14% ... in the records with missing values").
#[derive(Debug, Clone, PartialEq)]
pub struct CompletenessLabelRates {
    /// Base rate among rows without missing values.
    pub complete_rate: f64,
    /// Base rate among rows with at least one missing value.
    pub incomplete_rate: f64,
    /// Number of complete rows.
    pub complete_count: usize,
    /// Number of incomplete rows.
    pub incomplete_count: usize,
}

/// Computes [`CompletenessLabelRates`] for a dataset.
#[must_use]
pub fn completeness_label_rates(dataset: &BinaryLabelDataset) -> CompletenessLabelRates {
    let labels = dataset.labels();
    let mut cp = (0.0, 0usize);
    let mut ip = (0.0, 0usize);
    for (i, &label) in labels.iter().enumerate() {
        if dataset.frame().row_has_missing(i) {
            ip = (ip.0 + label, ip.1 + 1);
        } else {
            cp = (cp.0 + label, cp.1 + 1);
        }
    }
    CompletenessLabelRates {
        complete_rate: if cp.1 == 0 {
            f64::NAN
        } else {
            cp.0 / cp.1 as f64
        },
        incomplete_rate: if ip.1 == 0 {
            f64::NAN
        } else {
            ip.0 / ip.1 as f64
        },
        complete_count: cp.1,
        incomplete_count: ip.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnKind;
    use crate::schema::{ProtectedAttribute, Schema};

    #[test]
    fn numeric_summary_basic() {
        let col = Column::from_optional_f64([Some(1.0), Some(2.0), Some(3.0), None]);
        let s = numeric_summary(&col).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.missing, 1);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std_dev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn numeric_summary_rejects_all_missing() {
        let col = Column::from_optional_f64([None, None]);
        assert!(numeric_summary(&col).is_err());
    }

    #[test]
    fn value_counts_with_missing() {
        let col = Column::from_optional_strs([Some("a"), Some("b"), Some("a"), None]);
        let (counts, missing) = value_counts(&col).unwrap();
        assert_eq!(counts.get("a"), Some(&2));
        assert_eq!(counts.get("b"), Some(&1));
        assert_eq!(missing, 1);
    }

    #[test]
    fn correlation_perfect_and_inverse() {
        let a = Column::from_f64([1.0, 2.0, 3.0, 4.0]);
        let b = Column::from_f64([2.0, 4.0, 6.0, 8.0]);
        assert!((pearson_correlation(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = Column::from_f64([4.0, 3.0, 2.0, 1.0]);
        assert!((pearson_correlation(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_skips_missing_pairs() {
        let a = Column::from_optional_f64([Some(1.0), None, Some(3.0), Some(4.0)]);
        let b = Column::from_optional_f64([Some(1.0), Some(2.0), Some(3.0), Some(4.0)]);
        let r = pearson_correlation(&a, &b).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_zero_variance_is_error() {
        let a = Column::from_f64([1.0, 1.0, 1.0]);
        let b = Column::from_f64([1.0, 2.0, 3.0]);
        assert!(pearson_correlation(&a, &b).is_err());
    }

    fn grouped_dataset() -> BinaryLabelDataset {
        // Privileged group "w": 4 rows, 1 missing country.
        // Unprivileged group "n": 2 rows, 2 missing country.
        let frame = DataFrame::new()
            .with_column(
                "country",
                Column::from_optional_strs([Some("US"), Some("US"), Some("US"), None, None, None]),
            )
            .unwrap()
            .with_column("race", Column::from_strs(["w", "w", "w", "w", "n", "n"]))
            .unwrap()
            .with_column("y", Column::from_strs(["hi", "lo", "lo", "lo", "hi", "lo"]))
            .unwrap();
        let schema = Schema::new()
            .categorical_feature("country")
            .metadata("race", ColumnKind::Categorical)
            .label("y");
        BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("race", &["w"]),
            "hi",
        )
        .unwrap()
    }

    #[test]
    fn group_missingness_disparity() {
        let ds = grouped_dataset();
        let gm = group_missingness(&ds, "country").unwrap();
        assert!((gm.privileged_rate - 0.25).abs() < 1e-12);
        assert!((gm.unprivileged_rate - 1.0).abs() < 1e-12);
        assert!((gm.disparity_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn completeness_label_rates_split() {
        let ds = grouped_dataset();
        let r = completeness_label_rates(&ds);
        assert_eq!(r.complete_count, 3);
        assert_eq!(r.incomplete_count, 3);
        assert!((r.complete_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.incomplete_rate - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missing_rates_per_column() {
        let ds = grouped_dataset();
        let rates = missing_rates(ds.frame());
        let country = rates.iter().find(|(n, _)| n == "country").unwrap();
        assert!((country.1 - 0.5).abs() < 1e-12);
    }
}

/// A two-way frequency table (cross-tabulation) of two categorical columns.
///
/// Rows/columns are sorted category names; `counts[i][j]` is the number of
/// records with `row_categories[i]` and `col_categories[j]`. Records with a
/// missing value in either column are counted in `missing_pairs`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossTab {
    /// Sorted distinct categories of the first column.
    pub row_categories: Vec<String>,
    /// Sorted distinct categories of the second column.
    pub col_categories: Vec<String>,
    /// Joint counts, indexed `[row][col]`.
    pub counts: Vec<Vec<usize>>,
    /// Records excluded because either value was missing.
    pub missing_pairs: usize,
}

impl CrossTab {
    /// Row-marginal totals.
    #[must_use]
    pub fn row_totals(&self) -> Vec<usize> {
        self.counts.iter().map(|r| r.iter().sum()).collect()
    }

    /// Column-marginal totals.
    #[must_use]
    pub fn col_totals(&self) -> Vec<usize> {
        (0..self.col_categories.len())
            .map(|j| self.counts.iter().map(|r| r[j]).sum())
            .collect()
    }

    /// Total counted records (excludes missing pairs).
    #[must_use]
    pub fn total(&self) -> usize {
        self.row_totals().iter().sum()
    }

    /// Cramér's V association statistic in `[0, 1]` (`NaN` for degenerate
    /// tables).
    #[must_use]
    pub fn cramers_v(&self) -> f64 {
        let n = self.total() as f64;
        let rows = self.row_categories.len();
        let cols = self.col_categories.len();
        // audit: allow(float-eq, reason = "n is an integral observation count; 0.0 is the exact empty-table case")
        if n == 0.0 || rows < 2 || cols < 2 {
            return f64::NAN;
        }
        let row_totals = self.row_totals();
        let col_totals = self.col_totals();
        let mut chi2 = 0.0;
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &observed) in row.iter().enumerate() {
                let expected = row_totals[i] as f64 * col_totals[j] as f64 / n;
                if expected > 0.0 {
                    chi2 += (observed as f64 - expected).powi(2) / expected;
                }
            }
        }
        let k = (rows - 1).min(cols - 1) as f64;
        (chi2 / (n * k)).sqrt()
    }
}

/// Computes the cross-tabulation of two categorical columns of a frame.
pub fn crosstab(frame: &DataFrame, a: &str, b: &str) -> Result<CrossTab> {
    let col_a = frame.column(a)?.as_categorical()?;
    let col_b = frame.column(b)?.as_categorical()?;

    let mut row_categories: Vec<String> = col_a.categories().to_vec();
    row_categories.sort();
    let mut col_categories: Vec<String> = col_b.categories().to_vec();
    col_categories.sort();
    let row_ix: BTreeMap<&str, usize> = row_categories
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_str(), i))
        .collect();
    let col_ix: BTreeMap<&str, usize> = col_categories
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_str(), i))
        .collect();

    let mut counts = vec![vec![0usize; col_categories.len()]; row_categories.len()];
    let mut missing_pairs = 0usize;
    for i in 0..frame.n_rows() {
        match (col_a.codes()[i], col_b.codes()[i]) {
            (Some(ca), Some(cb)) => {
                #[expect(
                    clippy::expect_used,
                    reason = "codes come from the column's own dictionary, so reverse lookup cannot fail"
                )]
                let ra = row_ix[col_a.category_of(ca).expect("valid code")];
                #[expect(
                    clippy::expect_used,
                    reason = "codes come from the column's own dictionary, so reverse lookup cannot fail"
                )]
                let cb = col_ix[col_b.category_of(cb).expect("valid code")];
                counts[ra][cb] += 1;
            }
            _ => missing_pairs += 1,
        }
    }
    Ok(CrossTab {
        row_categories,
        col_categories,
        counts,
        missing_pairs,
    })
}

#[cfg(test)]
mod crosstab_tests {
    use super::*;
    use crate::column::Column;

    fn frame() -> DataFrame {
        DataFrame::new()
            .with_column(
                "sex",
                Column::from_optional_strs([
                    Some("m"),
                    Some("m"),
                    Some("f"),
                    Some("f"),
                    Some("m"),
                    None,
                ]),
            )
            .unwrap()
            .with_column(
                "outcome",
                Column::from_optional_strs([
                    Some("hi"),
                    Some("lo"),
                    Some("lo"),
                    Some("lo"),
                    Some("hi"),
                    Some("hi"),
                ]),
            )
            .unwrap()
    }

    #[test]
    fn joint_counts_and_marginals() {
        let ct = crosstab(&frame(), "sex", "outcome").unwrap();
        assert_eq!(ct.row_categories, vec!["f", "m"]);
        assert_eq!(ct.col_categories, vec!["hi", "lo"]);
        assert_eq!(ct.counts, vec![vec![0, 2], vec![2, 1]]);
        assert_eq!(ct.row_totals(), vec![2, 3]);
        assert_eq!(ct.col_totals(), vec![2, 3]);
        assert_eq!(ct.total(), 5);
        assert_eq!(ct.missing_pairs, 1);
    }

    #[test]
    fn cramers_v_detects_association() {
        let ct = crosstab(&frame(), "sex", "outcome").unwrap();
        let v = ct.cramers_v();
        assert!(v > 0.5, "V = {v}"); // sex and outcome are strongly related here
    }

    #[test]
    fn cramers_v_zero_for_independence() {
        let df = DataFrame::new()
            .with_column(
                "a",
                Column::from_strs(["x", "x", "y", "y", "x", "x", "y", "y"]),
            )
            .unwrap()
            .with_column(
                "b",
                Column::from_strs(["p", "q", "p", "q", "p", "q", "p", "q"]),
            )
            .unwrap();
        let ct = crosstab(&df, "a", "b").unwrap();
        assert!(ct.cramers_v().abs() < 1e-12);
    }

    #[test]
    fn numeric_column_rejected() {
        let df = DataFrame::new()
            .with_column("n", Column::from_f64([1.0]))
            .unwrap()
            .with_column("c", Column::from_strs(["x"]))
            .unwrap();
        assert!(crosstab(&df, "n", "c").is_err());
    }
}
