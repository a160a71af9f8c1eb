//! The three-phase data lifecycle (Figure 1).
//!
//! 1. **Model selection on training set and validation set** — for every
//!    candidate learner: (optionally) resample the training data, fit the
//!    missing-value handler on training data only, fit the pre-processing
//!    intervention, fit the featurizer (scaler statistics + one-hot
//!    dictionaries) on training data only, train the model, replay the
//!    fitted chain on the validation set, and (optionally) fit the
//!    post-processing intervention on validation predictions.
//! 2. **User-defined choice of best model** — a full metric report is
//!    computed for every candidate on train and validation; the user's
//!    [`ModelSelector`](crate::experiment::ModelSelector) picks one.
//! 3. **Application of the best model on the test set** — the framework
//!    replays the frozen chain of the selected candidate on the sealed
//!    test partition and reports the final metrics. User code never
//!    touches the test data (the [`crate::isolation::TestSetVault`] holds it).
//!
//! Per-component seeds are derived from the master seed with stable labels
//! (§2.5), so results are bit-reproducible and adding a component never
//! perturbs another component's random stream.

use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_data::rng::derive_seed;
use fairprep_data::split::{stratified_train_val_test_split, train_val_test_split};
use fairprep_fairness::metrics::{MetricsReport, ReportInputs};
use fairprep_fairness::postprocess::FittedPostprocessor;
use fairprep_fairness::preprocess::FittedPreprocessor;
use fairprep_impute::FittedMissingValueHandler;
use fairprep_ml::model::FittedClassifier;
use fairprep_ml::transform::FittedFeaturizer;
use fairprep_trace::{Counter, Gauge, ManifestConfig, RunManifest, Stage, Tracer};

use crate::experiment::Experiment;
use crate::isolation::TestSetVault;
use crate::profiling::ProfileBuilder;
use crate::results::{CandidateEvaluation, RunMetadata, RunResult};
use crate::seal::SealedPipeline;

/// One candidate's fully-fitted chain, frozen after phase 1.
struct FittedPipeline {
    missing_handler: Box<dyn FittedMissingValueHandler>,
    preprocessor: Box<dyn FittedPreprocessor>,
    featurizer: FittedFeaturizer,
    model: Box<dyn FittedClassifier>,
    postprocessor: Option<Box<dyn FittedPostprocessor>>,
}

/// Predictions plus the information needed for a metric report.
struct EvaluatedSplit {
    y_true: Vec<f64>,
    y_pred: Vec<f64>,
    scores: Vec<f64>,
    privileged: Vec<bool>,
    /// Pre-imputation incompleteness, when the handler keeps records.
    incomplete: Option<Vec<bool>>,
}

impl FittedPipeline {
    /// Replays the fitted chain on an evaluation split (validation or
    /// test): handle missing values with *training* statistics, apply the
    /// feature-repairing part of the intervention, featurize with
    /// *training* statistics, score, and (if fitted) post-process.
    fn evaluate(&self, data: &BinaryLabelDataset, tracer: &Tracer) -> Result<EvaluatedSplit> {
        let incomplete_before: Vec<bool> = (0..data.n_rows())
            .map(|i| data.frame().row_has_missing(i))
            .collect();
        let completed = self.missing_handler.handle_missing(data)?;
        let incomplete = if self.missing_handler.removes_records() {
            None
        } else {
            Some(incomplete_before)
        };
        let repaired = self.preprocessor.transform_eval(&completed)?;
        let x = self.featurizer.transform_traced(&repaired, tracer)?;
        let scores = self.model.predict_proba(&x)?;
        let privileged = repaired.privileged_mask().to_vec();
        let y_pred = match &self.postprocessor {
            Some(post) => post.adjust(&scores, &privileged)?,
            None => scores
                .iter()
                .map(|&s| f64::from(u8::from(s > 0.5)))
                .collect(),
        };
        Ok(EvaluatedSplit {
            y_true: repaired.labels().to_vec(),
            y_pred,
            scores,
            privileged,
            incomplete,
        })
    }
}

impl EvaluatedSplit {
    fn report(&self) -> Result<MetricsReport> {
        MetricsReport::compute(ReportInputs {
            y_true: &self.y_true,
            y_pred: &self.y_pred,
            scores: Some(&self.scores),
            privileged_mask: &self.privileged,
            incomplete_mask: self.incomplete.as_deref(),
        })
    }
}

/// Executes an experiment. Called via [`Experiment::run`].
pub(crate) fn run(exp: Experiment) -> Result<RunResult> {
    run_lifecycle(exp, false).map(|(result, _)| result)
}

/// Executes an experiment and additionally seals the selected candidate's
/// frozen chain. Called via [`Experiment::run_sealed`].
pub(crate) fn run_sealed(exp: Experiment) -> Result<(RunResult, SealedPipeline)> {
    let (result, sealed) = run_lifecycle(exp, true)?;
    sealed
        .map(|s| (result, s))
        .ok_or_else(|| Error::Seal("lifecycle produced no sealed pipeline".to_string()))
}

fn run_lifecycle(exp: Experiment, want_seal: bool) -> Result<(RunResult, Option<SealedPipeline>)> {
    if exp.learners.is_empty() {
        return Err(Error::InvalidParameter {
            name: "learners",
            message: "no candidate learners configured".to_string(),
        });
    }
    let seed = exp.seed;
    // Spans are only ever opened from this sequential function (parallel
    // fold jobs touch atomic counters alone), so the recorded tree
    // structure — and with it the canonical manifest — is identical at
    // every thread budget.
    let tracer = exp.tracer.clone();
    tracer.add(Counter::RowsSeen, exp.dataset.n_rows() as u64);

    // Data profiling rides on the tracer: snapshots are taken at each
    // boundary where a fitted component rewrites the data, and adjacent
    // snapshots are diffed into the manifest's `profile` section. All
    // snapshots happen in this sequential function, so the section is as
    // byte-stable as the rest of the canonical manifest.
    let mut profiler = (tracer.is_enabled() && exp.profile).then(ProfileBuilder::new);
    if let Some(p) = profiler.as_mut() {
        p.snapshot("raw", &exp.dataset, &tracer);
    }

    // The split is the first operation on the raw data; the test partition
    // is sealed immediately.
    let mut lineage: Vec<String> = Vec::new();
    let split = {
        let _span = tracer.span(Stage::Split);
        if exp.stratified {
            stratified_train_val_test_split(&exp.dataset, exp.split, seed)?
        } else {
            train_val_test_split(&exp.dataset, exp.split, seed)?
        }
    };
    lineage.push(format!(
        "phase1: {} split {}/{}/{} (seed {seed})",
        if exp.stratified {
            "stratified"
        } else {
            "random"
        },
        split.train.n_rows(),
        split.validation.n_rows(),
        split.test.n_rows(),
    ));
    let partition_sizes = (
        split.train.n_rows(),
        split.validation.n_rows(),
        split.test.n_rows(),
    );
    let vault = TestSetVault::seal(split.test);
    let raw_train = split.train;
    let raw_validation = split.validation;
    if let Some(p) = profiler.as_mut() {
        p.snapshot("train_split", &raw_train, &tracer);
    }

    // ---------------- Phase 1: fit every candidate ----------------
    let resampled = exp
        .resampler
        .resample(&raw_train, derive_seed(seed, "resampler"))?;
    lineage.push(format!(
        "phase1: resample with {} ({} -> {} rows)",
        exp.resampler.name(),
        raw_train.n_rows(),
        resampled.n_rows()
    ));
    if exp.resampler.name() != "no_resampling" {
        if let Some(p) = profiler.as_mut() {
            p.snapshot("resampled", &resampled, &tracer);
        }
    }

    let mut pipelines = Vec::with_capacity(exp.learners.len());
    let mut candidates = Vec::with_capacity(exp.learners.len());
    for (c_ix, learner) in exp.learners.iter().enumerate() {
        let candidate_seed = derive_seed(seed, &format!("candidate/{c_ix}"));
        let _candidate_span = tracer.span(Stage::Candidate);
        tracer.incr(Counter::CandidatesEvaluated);

        // Missing-value handling: fitted on training data only.
        let missing_handler = exp.missing_handler.fit_traced(
            &resampled,
            derive_seed(candidate_seed, "missing_handler"),
            &tracer,
        )?;
        let completed_train = missing_handler.handle_missing_traced(&resampled, &tracer)?;
        tracer.set_gauge(Gauge::TrainRows, completed_train.n_rows() as u64);
        if c_ix == 0 {
            lineage.push(format!(
                "phase1: fit {} on train only ({} -> {} rows)",
                exp.missing_handler.name(),
                resampled.n_rows(),
                completed_train.n_rows()
            ));
            // Every candidate shares the missing-value strategy, the
            // preprocessor, and the featurizer configuration, so the
            // per-boundary data snapshots are taken from the first
            // candidate's chain only.
            if let Some(p) = profiler.as_mut() {
                p.snapshot("train_imputed", &completed_train, &tracer);
            }
        }

        // Pre-processing intervention: fitted on training data only.
        // NOTE (documented deviation from Figure 1's box order): repairs are
        // applied on the completed *relational* data before featurization,
        // because repairs are defined on raw attribute domains; for affine
        // scalers the two orders are equivalent.
        let preprocessor = exp.preprocessor.fit_traced(
            &completed_train,
            derive_seed(candidate_seed, "preprocessor"),
            &tracer,
        )?;
        let train = preprocessor.transform_train(&completed_train)?;
        if c_ix == 0 {
            lineage.push(format!(
                "phase1: fit intervention {} on train only",
                exp.preprocessor.name()
            ));
            if let Some(p) = profiler.as_mut() {
                p.snapshot("train_preprocessed", &train, &tracer);
            }
        }

        // Featurizer: scaler statistics and one-hot dictionaries from the
        // training data only.
        let featurizer = {
            let _span = tracer.span(Stage::Scale);
            FittedFeaturizer::fit(&train, exp.scaler)?
        };
        tracer.set_gauge(Gauge::FeatureDims, featurizer.n_features() as u64);
        let x_train = featurizer.transform(&train)?;
        if c_ix == 0 {
            lineage.push(format!(
                "phase1: fit featurizer ({}, {} dims) on train only",
                exp.scaler.name(),
                featurizer.n_features()
            ));
            if let Some(p) = profiler.as_mut() {
                p.features(&x_train);
            }
        }

        // Model training, with the experiment's inner thread budget for
        // learners that cross-validate internally (their `tune` span
        // nests inside this `train` span).
        let model = {
            let _span = tracer.span(Stage::Train);
            learner.fit_model_traced(
                &x_train,
                &train,
                derive_seed(candidate_seed, "learner"),
                exp.threads,
                &tracer,
            )?
        };
        lineage.push(format!(
            "phase1: train candidate {c_ix} ({})",
            learner.name()
        ));

        // Replay the chain on the validation set.
        let mut pipeline = FittedPipeline {
            missing_handler,
            preprocessor,
            featurizer,
            model,
            postprocessor: None,
        };
        // Post-processing intervention: fitted on *validation* predictions.
        // The pre-adjustment validation replay feeds only this fit, so it
        // is computed inside the branch.
        if let Some(post) = &exp.postprocessor {
            let pre_post_val = pipeline.evaluate(&raw_validation, &tracer)?;
            pipeline.postprocessor = Some(post.fit_traced(
                &pre_post_val.scores,
                &pre_post_val.y_true,
                &pre_post_val.privileged,
                derive_seed(candidate_seed, "postprocessor"),
                &tracer,
            )?);
            if c_ix == 0 {
                lineage.push(format!(
                    "phase1: fit postprocessor {} on validation predictions only",
                    post.name()
                ));
            }
        }

        // Phase-2 inputs: reports on train and (post-processed) validation.
        let (train_report, validation_report) = {
            let _span = tracer.span(Stage::Evaluate);
            let train_eval = pipeline.evaluate_train_view(&train, &x_train)?;
            let val_eval = pipeline.evaluate(&raw_validation, &tracer)?;
            (train_eval.report()?, val_eval.report()?)
        };
        candidates.push(CandidateEvaluation {
            learner: learner.name(),
            train_report,
            validation_report,
        });
        pipelines.push(pipeline);
    }

    // ---------------- Phase 2: user-defined choice ----------------
    let selected = {
        let _span = tracer.span(Stage::Select);
        exp.selector.select(&candidates)
    };
    lineage.push(format!(
        "phase2: selector chose candidate {selected} from validation metrics"
    ));
    if selected >= pipelines.len() {
        return Err(Error::InvalidParameter {
            name: "model_selector",
            message: format!(
                "selector returned index {selected} but only {} candidates exist",
                pipelines.len()
            ),
        });
    }

    // ---------------- Phase 3: sealed test evaluation ----------------
    let chosen = &pipelines[selected];
    let test_report = {
        let _span = tracer.span(Stage::Evaluate);
        let test_eval = chosen.evaluate_sealed(&vault, &tracer)?;
        if let Some(p) = profiler.as_mut() {
            p.predictions(&test_eval.y_pred, &test_eval.y_true, &test_eval.privileged)?;
        }
        test_eval.report()?
    };
    lineage.push(format!(
        "phase3: replayed frozen chain of candidate {selected} on the sealed test set          ({} rows)",
        vault.n_rows()
    ));

    // Optional sealing: freeze the selected candidate's chain, together
    // with the raw-training-partition profile (the serving drift
    // baseline), into a content-addressed artifact. The fingerprint
    // covers everything that shaped the fitted parameters.
    let sealed = if want_seal {
        let learner = exp.learners[selected].name();
        let postprocessor_name = exp
            .postprocessor
            .as_ref()
            .map_or_else(|| "none".to_string(), |p| p.name());
        let descriptor = format!(
            "seal|experiment={}|seed={seed}|resampler={}|missing={}|scaler={}|\
             preprocessor={}|postprocessor={postprocessor_name}|learner={learner}",
            exp.name,
            exp.resampler.name(),
            exp.missing_handler.name(),
            exp.scaler.name(),
            exp.preprocessor.name(),
        );
        let FittedPipeline {
            missing_handler,
            preprocessor,
            featurizer,
            model,
            postprocessor,
        } = pipelines.swap_remove(selected);
        lineage.push(format!(
            "phase3: sealed frozen chain of candidate {selected} with the raw-train profile"
        ));
        Some(SealedPipeline {
            fingerprint: crate::journal::config_fingerprint(&descriptor),
            experiment: exp.name.clone(),
            seed,
            learner,
            train_profile: fairprep_data::profile::DatasetProfile::compute(&raw_train),
            schema: exp.dataset.schema().clone(),
            protected: exp.dataset.protected().clone(),
            favorable_label: exp.dataset.favorable_label().to_string(),
            missing_handler,
            preprocessor,
            featurizer,
            model,
            postprocessor,
        })
    } else {
        None
    };

    let metadata = RunMetadata {
        experiment: exp.name,
        seed,
        resampler: exp.resampler.name().to_string(),
        missing_handler: exp.missing_handler.name(),
        scaler: exp.scaler.name().to_string(),
        preprocessor: exp.preprocessor.name(),
        postprocessor: exp
            .postprocessor
            .as_ref()
            .map_or_else(|| "none".to_string(), |p| p.name()),
        candidates: exp.learners.iter().map(|l| l.name()).collect(),
        selected,
        partition_sizes,
        lineage,
    };

    // All spans are closed at this point, so the manifest sees a
    // complete, balanced event stream.
    let manifest = if tracer.is_enabled() {
        let metrics: Vec<(String, f64)> = test_report.to_map().into_iter().collect();
        let digest = fairprep_trace::manifest::metric_digest(&metrics);
        let config = ManifestConfig {
            experiment: metadata.experiment.clone(),
            seed,
            // A single run has no sweep; the seed list stays empty and the
            // canonical manifest omits it.
            seeds: Vec::new(),
            split: exp.split.describe(),
            stratified: exp.stratified,
            components: vec![
                ("resampler".to_string(), metadata.resampler.clone()),
                (
                    "missing_value_handler".to_string(),
                    metadata.missing_handler.clone(),
                ),
                ("scaler".to_string(), metadata.scaler.clone()),
                ("preprocessor".to_string(), metadata.preprocessor.clone()),
                ("postprocessor".to_string(), metadata.postprocessor.clone()),
            ],
            candidates: metadata.candidates.clone(),
            selected,
            partition_sizes,
            thread_budget: exp.threads,
        };
        let manifest = RunManifest::from_tracer(&tracer, config, digest);
        Some(match profiler.take() {
            Some(p) => manifest.with_profile(p.finish()),
            None => manifest,
        })
    } else {
        None
    };

    Ok((
        RunResult {
            metadata,
            candidates,
            test_report,
            manifest,
        },
        sealed,
    ))
}

impl FittedPipeline {
    /// Evaluation of the already-transformed training view (avoids
    /// re-running imputation/repair on data that was transformed during
    /// fitting).
    fn evaluate_train_view(
        &self,
        train: &BinaryLabelDataset,
        x_train: &fairprep_ml::matrix::Matrix,
    ) -> Result<EvaluatedSplit> {
        let scores = self.model.predict_proba(x_train)?;
        let privileged = train.privileged_mask().to_vec();
        let y_pred = match &self.postprocessor {
            Some(post) => post.adjust(&scores, &privileged)?,
            None => scores
                .iter()
                .map(|&s| f64::from(u8::from(s > 0.5)))
                .collect(),
        };
        Ok(EvaluatedSplit {
            y_true: train.labels().to_vec(),
            y_pred,
            scores,
            privileged,
            incomplete: None,
        })
    }

    /// Phase-3 evaluation against the sealed vault. This is the *only*
    /// place test data is read, and it happens inside the framework.
    fn evaluate_sealed(&self, vault: &TestSetVault, tracer: &Tracer) -> Result<EvaluatedSplit> {
        let mut eval = self.evaluate(vault.data(), tracer)?;
        // The vault recorded incompleteness before any processing; prefer
        // it over the recomputed mask (identical, but authoritative).
        if eval.incomplete.is_some() {
            eval.incomplete = Some(vault.incomplete_mask().to_vec());
        }
        Ok(eval)
    }
}

#[cfg(test)]
mod tests {

    use crate::experiment::Experiment;
    use crate::learners::{DecisionTreeLearner, LogisticRegressionLearner};
    use fairprep_datasets::{generate_german, generate_payment};
    use fairprep_fairness::postprocess::RejectOptionClassification;
    use fairprep_fairness::preprocess::Reweighing;
    use fairprep_impute::ModeImputer;

    #[test]
    fn end_to_end_run_on_german() {
        let ds = generate_german(300, 11).unwrap();
        let result = Experiment::builder("german", ds)
            .seed(46947)
            .learner(LogisticRegressionLearner { tuned: false })
            .learner(DecisionTreeLearner { tuned: false })
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.candidates.len(), 2);
        assert_eq!(result.metadata.partition_sizes, (210, 30, 60));
        let acc = result.test_report.overall.accuracy;
        assert!((0.0..=1.0).contains(&acc));
        assert!(acc > 0.5, "test accuracy {acc}");
    }

    #[test]
    fn runs_are_reproducible_for_fixed_seed() {
        let make = || {
            Experiment::builder("german", generate_german(200, 4).unwrap())
                .seed(123)
                .learner(DecisionTreeLearner { tuned: false })
                .preprocessor(Reweighing)
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let a = make();
        let b = make();
        assert_eq!(a.test_report, b.test_report);
        assert_eq!(a.metadata.selected, b.metadata.selected);
    }

    #[test]
    fn different_seeds_change_the_split() {
        let run = |seed| {
            Experiment::builder("german", generate_german(200, 4).unwrap())
                .seed(seed)
                .learner(DecisionTreeLearner { tuned: false })
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run(1);
        let b = run(2);
        // Metric equality across different splits would be a miracle.
        assert_ne!(
            a.test_report.overall.to_map(),
            b.test_report.overall.to_map()
        );
    }

    #[test]
    fn imputation_lifecycle_tracks_incomplete_records() {
        let ds = generate_payment(600, 9).unwrap();
        let result = Experiment::builder("payment", ds)
            .seed(5)
            .missing_value_handler(ModeImputer)
            .learner(DecisionTreeLearner { tuned: false })
            .build()
            .unwrap()
            .run()
            .unwrap();
        // The payment data has substantial missingness, so both blocks exist.
        assert!(result.test_report.complete_records.is_some());
        assert!(result.test_report.incomplete_records.is_some());
        let inc = result.test_report.incomplete_records.as_ref().unwrap();
        assert!(inc.n_instances > 0);
    }

    #[test]
    fn complete_case_lifecycle_drops_records_and_skips_tracking() {
        let ds = generate_payment(600, 9).unwrap();
        let result = Experiment::builder("payment", ds)
            .seed(5)
            .learner(DecisionTreeLearner { tuned: false })
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(result.test_report.incomplete_records.is_none());
        // Fewer test rows evaluated than held out (incomplete ones removed).
        assert!(result.test_report.overall.n_instances < result.metadata.partition_sizes.2);
    }

    #[test]
    fn postprocessor_is_fitted_and_applied() {
        let ds = generate_german(400, 2).unwrap();
        let result = Experiment::builder("german", ds)
            .seed(10)
            .learner(LogisticRegressionLearner { tuned: false })
            .postprocessor(RejectOptionClassification::default())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.metadata.postprocessor, "reject_option(bound=0.05)");
        assert!(result.test_report.overall.accuracy > 0.4);
    }

    #[test]
    fn profile_section_snapshots_every_boundary() {
        use fairprep_trace::Tracer;
        let make = || {
            Experiment::builder("payment", generate_payment(500, 7).unwrap())
                .seed(9)
                .missing_value_handler(ModeImputer)
                .preprocessor(Reweighing)
                .learner(DecisionTreeLearner { tuned: false })
                .tracer(Tracer::enabled())
                .profile(true)
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let result = make();
        let manifest = result.manifest.as_ref().unwrap();
        let profile = manifest.profile.as_ref().unwrap();
        let stages: Vec<&str> = profile
            .snapshots
            .iter()
            .map(|(stage, _)| stage.as_str())
            .collect();
        assert_eq!(
            stages,
            vec!["raw", "train_split", "train_imputed", "train_preprocessed"]
        );
        // Adjacent snapshots are diffed pairwise.
        assert_eq!(profile.diffs.len(), stages.len() - 1);
        assert!(profile.features.is_some());
        let pred = profile.predictions.as_ref().unwrap();
        assert_eq!(pred.rows as usize, result.metadata.partition_sizes.2);
        // The profile section is deterministic: a second identical run
        // produces byte-identical canonical manifests.
        let again = make();
        assert_eq!(
            manifest.canonical(),
            again.manifest.as_ref().unwrap().canonical()
        );
    }

    #[test]
    fn profiling_off_leaves_manifest_without_profile_section() {
        use fairprep_trace::Tracer;
        let result = Experiment::builder("german", generate_german(150, 3).unwrap())
            .seed(4)
            .learner(DecisionTreeLearner { tuned: false })
            .tracer(Tracer::enabled())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let manifest = result.manifest.as_ref().unwrap();
        assert!(manifest.profile.is_none());
        assert!(!manifest.canonical().contains("\"profile\""));
    }

    #[test]
    fn metadata_records_the_configuration() {
        let ds = generate_german(150, 8).unwrap();
        let result = Experiment::builder("german", ds)
            .seed(77)
            .preprocessor(Reweighing)
            .learner(DecisionTreeLearner { tuned: false })
            .build()
            .unwrap()
            .run()
            .unwrap();
        let m = &result.metadata;
        assert_eq!(m.experiment, "german");
        assert_eq!(m.seed, 77);
        assert_eq!(m.preprocessor, "reweighing");
        assert_eq!(m.missing_handler, "complete_case_analysis");
        assert_eq!(m.scaler, "standard_scaler");
        assert_eq!(m.candidates, vec!["decision_tree(default)".to_string()]);
    }
}

#[cfg(test)]
mod lineage_tests {
    use crate::experiment::Experiment;
    use crate::learners::{DecisionTreeLearner, LogisticRegressionLearner};
    use fairprep_datasets::generate_payment;
    use fairprep_fairness::postprocess::RejectOptionClassification;
    use fairprep_fairness::preprocess::Reweighing;
    use fairprep_impute::ModeImputer;

    #[test]
    fn lineage_records_every_phase_in_order() {
        let result = Experiment::builder("payment", generate_payment(500, 2).unwrap())
            .seed(3)
            .missing_value_handler(ModeImputer)
            .preprocessor(Reweighing)
            .learner(LogisticRegressionLearner { tuned: false })
            .learner(DecisionTreeLearner { tuned: false })
            .postprocessor(RejectOptionClassification::default())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let lineage = &result.metadata.lineage;
        let joined = lineage.join("\n");
        // The audit trail names every component and its isolation scope.
        assert!(joined.contains("random split"));
        assert!(joined.contains("mode_imputation"));
        assert!(joined.contains("on train only"));
        assert!(joined.contains("reweighing"));
        assert!(joined.contains("fit featurizer"));
        assert!(joined.contains("train candidate 0"));
        assert!(joined.contains("train candidate 1"));
        assert!(joined.contains("on validation predictions only"));
        assert!(joined.contains("sealed test set"));
        // Phases appear in order.
        let p2 = lineage
            .iter()
            .position(|s| s.starts_with("phase2"))
            .unwrap();
        let p3 = lineage
            .iter()
            .position(|s| s.starts_with("phase3"))
            .unwrap();
        assert!(lineage.iter().take(p2).all(|s| s.starts_with("phase1")));
        assert!(p2 < p3);
        assert_eq!(p3, lineage.len() - 1);
    }
}
