//! Lifecycle-level intervention behaviour: every intervention stage, run
//! through the full framework on a biased task, must move its target
//! fairness metric in the right direction (or at minimum not catastrophically
//! regress) relative to the uncorrected baseline.

#![allow(
    clippy::unwrap_used,
    reason = "integration tests fail by panicking; the library panic-hygiene lints do not apply"
)]

use fairprep::prelude::*;
use fairprep_core::results::RunResult;

/// COMPAS-like task with a strong group disparity; seeds fixed for
/// deterministic assertions.
fn run_with(
    configure: impl FnOnce(
        fairprep_core::experiment::ExperimentBuilder,
    ) -> fairprep_core::experiment::ExperimentBuilder,
) -> RunResult {
    let ds = generate_compas(3000, 1, CompasProtected::Race).unwrap();
    let builder = Experiment::builder("compas", ds)
        .seed(46947)
        .learner(LogisticRegressionLearner { tuned: true });
    configure(builder).build().unwrap().run().unwrap()
}

fn baseline() -> RunResult {
    run_with(|b| b)
}

#[test]
fn baseline_task_is_actually_biased() {
    let b = baseline();
    let di = b.test_report.differences.disparate_impact;
    assert!(di < 0.85, "baseline DI {di} — fixture lost its bias");
}

#[test]
fn di_remover_full_repair_moves_di_towards_one() {
    let b = baseline();
    let r = run_with(|b| b.preprocessor(DisparateImpactRemover::new(1.0)));
    let di_base = b.test_report.differences.disparate_impact;
    let di_repair = r.test_report.differences.disparate_impact;
    assert!(
        (di_repair - 1.0).abs() < (di_base - 1.0).abs(),
        "baseline {di_base}, repaired {di_repair}"
    );
}

#[test]
fn reject_option_reduces_statistical_parity_difference() {
    let b = baseline();
    let r = run_with(|b| b.postprocessor(RejectOptionClassification::default()));
    let spd_base = b
        .test_report
        .differences
        .statistical_parity_difference
        .abs();
    let spd_roc = r
        .test_report
        .differences
        .statistical_parity_difference
        .abs();
    assert!(
        spd_roc < spd_base,
        "baseline |SPD| {spd_base}, ROC |SPD| {spd_roc}"
    );
}

#[test]
fn eq_odds_reduces_odds_violation() {
    let b = baseline();
    let r = run_with(|b| b.postprocessor(EqOddsPostprocessing::default()));
    let violation = |res: &RunResult| res.test_report.differences.average_abs_odds_difference;
    assert!(
        violation(&r) < violation(&b) + 0.05,
        "baseline {}, eq-odds {}",
        violation(&b),
        violation(&r)
    );
}

#[test]
fn massaging_runs_in_the_lifecycle_and_equalizes_training_rates() {
    // Massaging only edits the training labels; verify it executes end to
    // end and training-side metrics reflect it.
    let r = run_with(|b| b.preprocessor(Massaging));
    assert_eq!(r.metadata.preprocessor, "massaging");
    let train = &r.selected_candidate().train_report;
    assert!(
        train.differences.base_rate_difference.abs() < 0.05,
        "training base-rate gap after massaging: {}",
        train.differences.base_rate_difference
    );
}

#[test]
fn prejudice_remover_reduces_di_deviation_vs_its_unregularized_self() {
    let plain = run_with(|b| {
        b.learner(InProcessLearner::new(PrejudiceRemover {
            eta: 0.0,
            ..Default::default()
        }))
        .model_selector(PickLast)
    });
    let fair = run_with(|b| {
        b.learner(InProcessLearner::new(PrejudiceRemover {
            eta: 25.0,
            ..Default::default()
        }))
        .model_selector(PickLast)
    });
    let dev = |r: &RunResult| (r.test_report.differences.disparate_impact - 1.0).abs();
    assert!(
        dev(&fair) < dev(&plain),
        "plain {} fair {}",
        dev(&plain),
        dev(&fair)
    );
}

/// Selector that always picks the last candidate (the in-processor added
/// after the tuned-LR default candidate in these tests).
struct PickLast;
impl fairprep_core::experiment::ModelSelector for PickLast {
    fn select(&self, candidates: &[fairprep_core::results::CandidateEvaluation]) -> usize {
        candidates.len() - 1
    }
}

#[test]
fn random_forest_learner_works_in_the_lifecycle() {
    let ds = generate_german(400, 5).unwrap();
    let result = Experiment::builder("german", ds)
        .seed(9)
        .learner(RandomForestLearner::default())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(result.metadata.candidates[0].starts_with("random_forest"));
    assert!(result.test_report.overall.accuracy > 0.6);
}

#[test]
fn sweep_aggregator_quantifies_cross_seed_variability() {
    use fairprep_core::aggregate::SweepAggregator;
    let mut agg = SweepAggregator::new(&["overall_accuracy", "disparate_impact"]);
    for seed in [1u64, 2, 3, 4] {
        let ds = generate_german(300, 2).unwrap();
        let r = Experiment::builder("german", ds)
            .seed(seed)
            .learner(DecisionTreeLearner { tuned: false })
            .build()
            .unwrap()
            .run()
            .unwrap();
        agg.add(&r);
    }
    let keys = agg.keys();
    assert_eq!(keys.len(), 1, "same config should group together");
    let d = agg.distribution(keys[0], "disparate_impact").unwrap();
    assert_eq!(d.n, 4);
    assert!(d.std > 0.0, "different seeds must produce variability");
}

#[test]
fn dataset_metrics_audit_matches_lifecycle_view() {
    use fairprep_fairness::metrics::DatasetMetrics;
    let ds = generate_compas(2000, 3, CompasProtected::Race).unwrap();
    let m = DatasetMetrics::compute(&ds).unwrap();
    assert!((m.base_rate - ds.base_rate(None)).abs() < 1e-12);
    assert!((m.privileged_base_rate - ds.base_rate(Some(true))).abs() < 1e-12);
    assert!((m.unprivileged_base_rate - ds.base_rate(Some(false))).abs() < 1e-12);
    // COMPAS favorable = no-recid; privileged group has the higher rate.
    assert!(m.disparate_impact < 1.0);
}

#[test]
fn consistency_of_featurized_benchmark_data_is_reasonable() {
    use fairprep_fairness::metrics::consistency;
    use fairprep_ml::transform::{FittedFeaturizer, ScalerSpec};
    let ds = generate_ricci(118, 4).unwrap();
    let f = FittedFeaturizer::fit(&ds, ScalerSpec::Standard).unwrap();
    let x = f.transform(&ds).unwrap();
    let c = consistency(&x, ds.labels(), 5).unwrap();
    // ricci labels are a deterministic threshold of the features, so nearby
    // candidates mostly share labels.
    assert!(c > 0.75, "consistency {c}");
}
