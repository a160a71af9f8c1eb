//! Integration tests for the paper's core guarantee: **test-set isolation**.
//!
//! "User code should only interact with the training set, and never be able
//! to access the held-out test set" (§3). These tests demonstrate the
//! property behaviorally: everything that happens in phases 1–2 (component
//! fitting, candidate training, validation metrics, model selection) is
//! bit-identical whether or not the test partition's contents change.

#![allow(
    clippy::unwrap_used,
    reason = "integration tests fail by panicking; the library panic-hygiene lints do not apply"
)]

use fairprep::prelude::*;
use fairprep_data::column::OwnedValue;
use fairprep_data::split::train_val_test_split;

/// Builds the german dataset and a copy whose *test rows only* are
/// perturbed (feature values overwritten with constants).
fn original_and_test_perturbed(seed: u64) -> (BinaryLabelDataset, BinaryLabelDataset) {
    let original = generate_german(400, 3).unwrap();
    // Recover the exact test rows the lifecycle will use: the split is a
    // pure function of (dataset order, seed).
    let split = train_val_test_split(&original, SplitSpec::paper_default(), seed).unwrap();

    let mut perturbed = original.clone();
    for &row in &split.indices.test {
        perturbed
            .frame_mut()
            .set_value(row, "credit-amount", OwnedValue::Numeric(999_999.0))
            .unwrap();
        perturbed
            .frame_mut()
            .set_value(row, "duration", OwnedValue::Numeric(0.0))
            .unwrap();
    }
    perturbed.refresh_caches().unwrap();
    (original, perturbed)
}

fn run(dataset: BinaryLabelDataset, seed: u64) -> fairprep_core::results::RunResult {
    Experiment::builder("german", dataset)
        .seed(seed)
        .preprocessor(Reweighing)
        .learner(LogisticRegressionLearner { tuned: false })
        .learner(DecisionTreeLearner { tuned: false })
        .build()
        .unwrap()
        .run()
        .unwrap()
}

fn maps_equal(
    a: &std::collections::BTreeMap<String, f64>,
    b: &std::collections::BTreeMap<String, f64>,
) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && ((va.is_nan() && vb.is_nan()) || va == vb))
}

#[test]
fn perturbing_test_rows_does_not_change_validation_metrics_or_selection() {
    let seed = 46947;
    let (original, perturbed) = original_and_test_perturbed(seed);
    let a = run(original, seed);
    let b = run(perturbed, seed);

    // Phase 1–2 outputs are bit-identical: imputation statistics, scaler
    // statistics, trained models, and validation metrics never saw the
    // test rows.
    assert_eq!(a.candidates.len(), b.candidates.len());
    for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
        assert_eq!(ca.learner, cb.learner);
        assert!(
            maps_equal(
                &ca.validation_report.to_map(),
                &cb.validation_report.to_map()
            ),
            "validation metrics changed when only test rows changed"
        );
        assert!(
            maps_equal(&ca.train_report.to_map(), &cb.train_report.to_map()),
            "train metrics changed when only test rows changed"
        );
    }
    assert_eq!(a.metadata.selected, b.metadata.selected);

    // Phase 3, by contrast, MUST see the difference: the perturbed test
    // features flow into the final predictions.
    assert!(
        !maps_equal(&a.test_report.to_map(), &b.test_report.to_map()),
        "test metrics should differ once test features differ"
    );
}

#[test]
fn scaler_statistics_come_from_training_data_only() {
    // Direct check at the substrate level: featurizer fitted on train maps
    // an out-of-range test value beyond [0, 1] under min-max scaling.
    use fairprep_ml::transform::{FittedFeaturizer, ScalerSpec};
    let ds = generate_german(300, 5).unwrap();
    let split = train_val_test_split(&ds, SplitSpec::paper_default(), 1).unwrap();
    let featurizer = FittedFeaturizer::fit(&split.train, ScalerSpec::MinMax).unwrap();
    let x_test = featurizer.transform(&split.test).unwrap();
    // If the featurizer had peeked at the test set, every value would lie
    // inside [0, 1]. Values outside prove train-only statistics. (They are
    // not guaranteed for every seed, but for this fixed seed they exist.)
    let out_of_unit = x_test.data().iter().any(|&v| !(0.0..=1.0).contains(&v));
    assert!(
        out_of_unit,
        "expected at least one out-of-train-range test value"
    );
}

#[test]
fn vault_api_exposes_only_aggregates() {
    // Compile-time isolation: TestSetVault's data accessors are pub(crate).
    // From this external crate, only aggregate methods exist. (If this test
    // compiles, the API is closed; calling vault.data() here would not
    // build.) We verify the aggregate surface works.
    use fairprep_core::isolation::TestSetVault;
    // The only way to obtain a vault outside the crate would be through the
    // lifecycle, which never hands it out — so we just assert the type's
    // public surface via a trait-object-safe check of method existence.
    fn _surface(v: &TestSetVault) -> (usize, usize, usize) {
        (v.n_rows(), v.n_privileged(), v.n_incomplete())
    }
}

#[test]
fn postprocessor_is_fitted_on_validation_not_test() {
    // Same perturbation argument, now with a postprocessor in play: the
    // fitted reject-option band is a pure function of validation
    // predictions, so it must be identical under test perturbation.
    let seed = 71735;
    let (original, perturbed) = original_and_test_perturbed(seed);
    let run_with_post = |ds: BinaryLabelDataset| {
        Experiment::builder("german", ds)
            .seed(seed)
            .learner(LogisticRegressionLearner { tuned: false })
            .postprocessor(RejectOptionClassification::default())
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    let a = run_with_post(original);
    let b = run_with_post(perturbed);
    for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
        assert!(maps_equal(
            &ca.validation_report.to_map(),
            &cb.validation_report.to_map()
        ));
    }
}
