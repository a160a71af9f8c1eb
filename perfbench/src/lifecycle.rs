//! `tune_adult` and `clean_adult`: full lifecycle runs on the adult data.
//!
//! Untraced runs time the product path: `fairprep_core::sweep::run_sweep`
//! over `Experiment::run`, exactly as `fairprep sweep` drives it. Each
//! run's test-metric digest is checked against a reference digest computed
//! by [`replay`], which walks the same lifecycle through the layers' public
//! calls in the lifecycle's order with the same derived seeds. The traced
//! run records spans around those calls, so the replay is also where the
//! per-layer metrics come from; a replay that does not reproduce
//! `Experiment::run` marks the traced run invalid.

use std::time::Instant;

use fairprep_core::experiment::Experiment;
use fairprep_core::learners::LogisticRegressionLearner;
use fairprep_core::sweep::{run_sweep, SweepPlan};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::Result as FpResult;
use fairprep_data::parallel::{parallel_map, split_budget};
use fairprep_data::rng::derive_seed;
use fairprep_data::split::{k_fold_indices, train_val_test_split, SplitSpec};
use fairprep_datasets::{generate_adult, AdultProtected};
use fairprep_fairness::metrics::{MetricsReport, ReportInputs};
use fairprep_fairness::postprocess::{
    FittedPostprocessor, Postprocessor, RejectOptionClassification,
};
use fairprep_fairness::preprocess::{
    DisparateImpactRemover, FittedPreprocessor, NoIntervention, Preprocessor,
};
use fairprep_impute::inject::{Mechanism, MissingnessInjector};
use fairprep_impute::{
    CompleteCaseAnalysis, FittedMissingValueHandler, MissingValueHandler, ModelBasedImputer,
};
use fairprep_ml::eval::ConfusionMatrix;
use fairprep_ml::matrix::Matrix;
use fairprep_ml::model::{
    Classifier, FittedClassifier, LogisticRegressionConfig, LogisticRegressionSgd,
};
use fairprep_ml::selection::{logistic_regression_grid, GridSearchCv};
use fairprep_ml::transform::{FittedFeaturizer, ScalerSpec};
use fairprep_trace::manifest::metric_digest;

use crate::metrics::Outcome;
use crate::spans::{self, Ctx, Recorder, Span};
use crate::stats::{median, ms, CpuTimes};
use crate::{available_cores, derive, Settings};

/// Folds of the tuned learner's cross-validation (the paper's 5).
const CV_FOLDS: usize = 5;

/// Set-up is timed at least this often per untraced run; the median is
/// reported. One repeat follows each measured round, so the samples span
/// the run instead of one moment of the host's load.
const SETUP_REPEATS: usize = 9;

/// One experiment workload's lifecycle configuration.
#[derive(Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// `lr-tuned` (grid search with 5-fold CV) instead of `lr`.
    pub tuned: bool,
    /// MAR-by-group missingness injected into the first three
    /// non-protected features: unprivileged rows lose a cell at this rate,
    /// privileged rows at a quarter of it (the `--inject-missing` pattern).
    pub inject_missing: Option<f64>,
    /// `model-based` imputation instead of `complete-case`.
    pub model_based: bool,
    /// `di-remover-1.0` pre-processing.
    pub di_remover: bool,
    /// `reject-option` post-processing.
    pub reject_option: bool,
    /// Seeds run concurrently as one sweep; the thread budget is split
    /// between them and each run's cross-validation.
    pub runs_per_round: usize,
    /// The span whose self time should dominate a run.
    pub dominant_span: &'static str,
}

/// Fig. 2: tuned logistic regression, complete-case, no interventions; one
/// run at a time with the whole thread budget in cross-validation.
pub const TUNE_ADULT: Workload = Workload {
    name: "tune_adult",
    tuned: true,
    inject_missing: None,
    model_based: false,
    di_remover: false,
    reject_option: false,
    runs_per_round: 1,
    dominant_span: "ml.fold_fit",
};

/// Fig. 4: injected missingness, model-based imputation, both
/// interventions, untuned logistic regression; two seeds per sweep.
pub const CLEAN_ADULT: Workload = Workload {
    name: "clean_adult",
    tuned: false,
    inject_missing: Some(0.1),
    model_based: true,
    di_remover: true,
    reject_option: true,
    runs_per_round: 2,
    dominant_span: "impute.fit",
};

/// Span names whose total self time per run is reported as `<name>_ms`.
const TIMED_SPANS: [(&str, &str); 16] = [
    ("data.split", "data.split_ms"),
    ("impute.fit", "impute.fit_ms"),
    ("impute.apply", "impute.apply_ms"),
    ("fairness.pre_fit", "fairness.pre_fit_ms"),
    ("fairness.pre_apply", "fairness.pre_apply_ms"),
    ("fairness.post_fit", "fairness.post_fit_ms"),
    ("fairness.post_apply", "fairness.post_apply_ms"),
    ("fairness.report", "fairness.report_ms"),
    ("ml.featurize_fit", "ml.featurize_fit_ms"),
    ("ml.featurize_apply", "ml.featurize_apply_ms"),
    ("ml.fold_build", "ml.fold_build_ms"),
    ("ml.fold_fit", "ml.fold_fit_ms"),
    ("ml.fold_predict", "ml.fold_predict_ms"),
    ("ml.refit", "ml.refit_ms"),
    ("ml.fit", "ml.fit_ms"),
    ("ml.predict", "ml.predict_ms"),
];

/// Generates the workload's dataset: adult at `rows`, plus injected
/// missingness when the workload asks for it.
pub fn dataset(w: &Workload, rows: usize, gen_seed: u64) -> FpResult<BinaryLabelDataset> {
    let data = generate_adult(rows, gen_seed, AdultProtected::Race)?;
    let Some(rate) = w.inject_missing else {
        return Ok(data);
    };
    inject_missing(&data, rate, derive_seed(gen_seed, "inject"))
}

/// Blanks cells of the first three non-protected features, MAR by group:
/// unprivileged rows at `rate`, privileged rows at `rate / 4`.
pub fn inject_missing(
    data: &BinaryLabelDataset,
    rate: f64,
    seed: u64,
) -> FpResult<BinaryLabelDataset> {
    let protected = data.protected().name.clone();
    let targets: Vec<&str> = data
        .schema()
        .feature_names()
        .into_iter()
        .filter(|c| *c != protected)
        .take(3)
        .collect();
    MissingnessInjector::new(
        &targets,
        Mechanism::MarByGroup {
            privileged_rate: rate / 4.0,
            unprivileged_rate: rate,
        },
    )
    .inject(data, seed)
}

/// The product-path experiment for one seed.
pub fn experiment(
    w: &Workload,
    data: BinaryLabelDataset,
    seed: u64,
    threads: usize,
) -> FpResult<Experiment> {
    let mut b = Experiment::builder("adult", data)
        .seed(seed)
        .threads(threads)
        .learner(LogisticRegressionLearner { tuned: w.tuned });
    b = if w.model_based {
        b.missing_value_handler(ModelBasedImputer::default())
    } else {
        b.missing_value_handler(CompleteCaseAnalysis)
    };
    if w.di_remover {
        b = b.preprocessor(DisparateImpactRemover::new(1.0));
    }
    if w.reject_option {
        b = b.postprocessor(RejectOptionClassification::default());
    }
    b.build()
}

/// Digest of a test-metric map, as the run manifest computes it.
fn digest(metrics: impl IntoIterator<Item = (String, f64)>) -> String {
    metric_digest(&metrics.into_iter().collect::<Vec<_>>())
}

/// The grid search as the replay ran it, kept so the traced run can check
/// it against `GridSearchCv` on the same inputs.
pub struct GridReplay {
    /// Winning candidate index.
    pub best: usize,
    /// Fold accuracies per candidate.
    pub fold_scores: Vec<Vec<f64>>,
    x: Matrix,
    y: Vec<f64>,
    weights: Vec<f64>,
    seed: u64,
}

impl GridReplay {
    /// Whether `GridSearchCv` picks the same candidate from bit-identical
    /// fold scores.
    pub fn matches_grid_search(&self, threads: usize) -> FpResult<bool> {
        let outcome = GridSearchCv::new(CV_FOLDS).with_threads(threads).search(
            &logistic_regression_grid(),
            &self.x,
            &self.y,
            &self.weights,
            self.seed,
        )?;
        let same_scores = outcome.scores.len() == self.fold_scores.len()
            && outcome
                .scores
                .iter()
                .zip(&self.fold_scores)
                .all(|(s, mine)| {
                    s.fold_scores.len() == mine.len()
                        && s.fold_scores
                            .iter()
                            .zip(mine)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                });
        Ok(same_scores && outcome.best_candidate == self.best)
    }
}

/// What a replayed run produced.
pub struct Replay {
    /// Test-metric digest.
    pub digest: String,
    /// Cells the missing-value handler filled in, over every partition.
    pub cells_imputed: u64,
    /// Fold fits of the grid search (0 when untuned).
    pub fold_fits: u64,
    /// Σ rows × epochs over the fold fits.
    pub fold_row_epochs: f64,
    /// The grid search, when the learner is tuned.
    pub grid: Option<GridReplay>,
}

fn missing_handler(w: &Workload) -> Box<dyn MissingValueHandler> {
    if w.model_based {
        Box::new(ModelBasedImputer::default())
    } else {
        Box::new(CompleteCaseAnalysis)
    }
}

fn preprocessor(w: &Workload) -> Box<dyn Preprocessor> {
    if w.di_remover {
        Box::new(DisparateImpactRemover::new(1.0))
    } else {
        Box::new(NoIntervention)
    }
}

fn postprocessor(w: &Workload) -> Option<Box<dyn Postprocessor>> {
    w.reject_option
        .then(|| Box::new(RejectOptionClassification::default()) as Box<dyn Postprocessor>)
}

/// Predictions on one split plus what its metric report needs.
struct Eval {
    y_true: Vec<f64>,
    y_pred: Vec<f64>,
    scores: Vec<f64>,
    privileged: Vec<bool>,
    incomplete: Option<Vec<bool>>,
}

/// One candidate's fitted chain.
struct Chain {
    handler: Box<dyn FittedMissingValueHandler>,
    pre: Box<dyn FittedPreprocessor>,
    featurizer: FittedFeaturizer,
    model: Box<dyn FittedClassifier>,
    post: Option<Box<dyn FittedPostprocessor>>,
}

/// `handle_missing` in an `impute.apply` span, counting filled cells.
fn apply_missing(
    rec: &Recorder,
    run: Ctx,
    handler: &dyn FittedMissingValueHandler,
    data: &BinaryLabelDataset,
    cells: &mut u64,
) -> FpResult<BinaryLabelDataset> {
    let out = rec.span(run, "impute.apply", |_| handler.handle_missing(data))?;
    if !handler.removes_records() {
        let filled = data
            .frame()
            .missing_cells()
            .saturating_sub(out.frame().missing_cells());
        *cells += filled as u64;
    }
    Ok(out)
}

impl Chain {
    /// Hard decisions: the post-processor's, or a 0.5 threshold.
    fn decide(
        &self,
        rec: &Recorder,
        run: Ctx,
        scores: &[f64],
        privileged: &[bool],
    ) -> FpResult<Vec<f64>> {
        match &self.post {
            Some(post) => rec.span(run, "fairness.post_apply", |_| {
                post.adjust(scores, privileged)
            }),
            None => Ok(scores
                .iter()
                .map(|&s| f64::from(u8::from(s > 0.5)))
                .collect()),
        }
    }

    /// Replays the fitted chain on a validation or test split.
    fn evaluate(
        &self,
        rec: &Recorder,
        run: Ctx,
        data: &BinaryLabelDataset,
        cells: &mut u64,
    ) -> FpResult<Eval> {
        let incomplete_before: Vec<bool> = (0..data.n_rows())
            .map(|i| data.frame().row_has_missing(i))
            .collect();
        let completed = apply_missing(rec, run, self.handler.as_ref(), data, cells)?;
        let incomplete = (!self.handler.removes_records()).then_some(incomplete_before);
        let repaired = rec.span(run, "fairness.pre_apply", |_| {
            self.pre.transform_eval(&completed)
        })?;
        let x = rec.span(run, "ml.featurize_apply", |_| {
            self.featurizer.transform(&repaired)
        })?;
        let scores = rec.span(run, "ml.predict", |_| self.model.predict_proba(&x))?;
        let privileged = repaired.privileged_mask().to_vec();
        let y_pred = self.decide(rec, run, &scores, &privileged)?;
        Ok(Eval {
            y_true: repaired.labels().to_vec(),
            y_pred,
            scores,
            privileged,
            incomplete,
        })
    }

    /// The training view: the already-transformed training data.
    fn evaluate_train(
        &self,
        rec: &Recorder,
        run: Ctx,
        train: &BinaryLabelDataset,
        x_train: &Matrix,
    ) -> FpResult<Eval> {
        let scores = rec.span(run, "ml.predict", |_| self.model.predict_proba(x_train))?;
        let privileged = train.privileged_mask().to_vec();
        let y_pred = self.decide(rec, run, &scores, &privileged)?;
        Ok(Eval {
            y_true: train.labels().to_vec(),
            y_pred,
            scores,
            privileged,
            incomplete: None,
        })
    }
}

fn report(rec: &Recorder, run: Ctx, e: &Eval) -> FpResult<MetricsReport> {
    rec.span(run, "fairness.report", |_| {
        MetricsReport::compute(ReportInputs {
            y_true: &e.y_true,
            y_pred: &e.y_pred,
            scores: Some(&e.scores),
            privileged_mask: &e.privileged,
            incomplete_mask: e.incomplete.as_deref(),
        })
    })
}

/// One materialized cross-validation fold.
struct Fold {
    x_train: Matrix,
    y_train: Vec<f64>,
    w_train: Vec<f64>,
    x_val: Matrix,
    y_val: Vec<f64>,
}

/// Index of the best mean score: highest mean, NaN below every number,
/// earlier index on ties — `GridSearchCv`'s rule.
fn best_index(means: &[f64]) -> usize {
    let mut best = 0;
    for (i, &m) in means.iter().enumerate().skip(1) {
        let current = means[best];
        let better = match (m.is_nan(), current.is_nan()) {
            (true, _) => false,
            (false, true) => true,
            (false, false) => m > current,
        };
        if better {
            best = i;
        }
    }
    best
}

/// The refit winner, its index, the fold accuracies per candidate, and
/// Σ rows × epochs over the fold fits.
type GridSearched = (Box<dyn FittedClassifier>, usize, Vec<Vec<f64>>, f64);

/// Cross-validated grid search over the paper's logistic grid, fanned out
/// over candidate × fold jobs on `threads` workers, then the refit.
fn replay_grid_search(
    rec: &Recorder,
    run: Ctx,
    x: &Matrix,
    y: &[f64],
    weights: &[f64],
    seed: u64,
    threads: usize,
) -> FpResult<GridSearched> {
    let grid = logistic_regression_grid();
    rec.span(run, "ml.tune", |tune| {
        let folds = rec.span(tune, "ml.fold_build", |_| -> FpResult<Vec<Fold>> {
            Ok(k_fold_indices(x.n_rows(), CV_FOLDS, seed)?
                .iter()
                .map(|(train_ix, val_ix)| Fold {
                    x_train: x.take_rows(train_ix),
                    y_train: train_ix.iter().map(|&i| y[i]).collect(),
                    w_train: train_ix.iter().map(|&i| weights[i]).collect(),
                    x_val: x.take_rows(val_ix),
                    y_val: val_ix.iter().map(|&i| y[i]).collect(),
                })
                .collect())
        })?;
        let jobs: Vec<(usize, usize)> = (0..grid.len())
            .flat_map(|c| (0..folds.len()).map(move |f| (c, f)))
            .collect();
        let results = rec.span(tune, "core.fold_fanout", |fan| {
            parallel_map(jobs, threads, |(c, f)| -> FpResult<f64> {
                let fold = &folds[f];
                let model = rec.span(fan, "ml.fold_fit", |_| {
                    grid[c].fit(&fold.x_train, &fold.y_train, &fold.w_train, seed)
                })?;
                rec.span(fan, "ml.fold_predict", |_| {
                    let preds = model.predict(&fold.x_val)?;
                    Ok(ConfusionMatrix::compute(&fold.y_val, &preds, None)?.accuracy())
                })
            })
        });
        let mut results = results.into_iter();
        let mut fold_scores = Vec::with_capacity(grid.len());
        for _ in 0..grid.len() {
            fold_scores.push(
                (&mut results)
                    .take(folds.len())
                    .collect::<FpResult<Vec<f64>>>()?,
            );
        }
        #[allow(clippy::cast_precision_loss)]
        let means: Vec<f64> = fold_scores
            .iter()
            .map(|s| s.iter().sum::<f64>() / s.len() as f64)
            .collect();
        let best = best_index(&means);
        let model = rec.span(tune, "ml.refit", |_| grid[best].fit(x, y, weights, seed))?;
        #[allow(clippy::cast_precision_loss)]
        let row_epochs = grid.len() as f64
            * folds.iter().map(|f| f.x_train.n_rows() as f64).sum::<f64>()
            * LogisticRegressionConfig::default().max_epochs as f64;
        Ok((model, best, fold_scores, row_epochs))
    })
}

/// Replays one lifecycle run (one candidate, so the selector's choice is
/// candidate 0) through the layers' public calls, in the order and with
/// the derived seeds `Experiment::run` uses, recording spans under `run`.
pub fn replay(
    w: &Workload,
    data: &BinaryLabelDataset,
    seed: u64,
    threads: usize,
    rec: &Recorder,
    run: Ctx,
) -> FpResult<Replay> {
    let split = rec.span(run, "data.split", |_| {
        train_val_test_split(data, SplitSpec::paper_default(), seed)
    })?;
    let candidate_seed = derive_seed(seed, "candidate/0");
    let mut cells = 0u64;
    let handler = rec.span(run, "impute.fit", |_| {
        missing_handler(w).fit(&split.train, derive_seed(candidate_seed, "missing_handler"))
    })?;
    let completed = apply_missing(rec, run, handler.as_ref(), &split.train, &mut cells)?;
    let pre = rec.span(run, "fairness.pre_fit", |_| {
        preprocessor(w).fit(&completed, derive_seed(candidate_seed, "preprocessor"))
    })?;
    let train = rec.span(run, "fairness.pre_apply", |_| {
        pre.transform_train(&completed)
    })?;
    let featurizer = rec.span(run, "ml.featurize_fit", |_| {
        FittedFeaturizer::fit(&train, ScalerSpec::Standard)
    })?;
    let x_train = rec.span(run, "ml.featurize_apply", |_| featurizer.transform(&train))?;
    let learner_seed = derive_seed(candidate_seed, "learner");
    let (model, grid, fold_row_epochs) = if w.tuned {
        let (model, best, fold_scores, row_epochs) = replay_grid_search(
            rec,
            run,
            &x_train,
            train.labels(),
            train.instance_weights(),
            learner_seed,
            threads,
        )?;
        (model, Some((best, fold_scores)), row_epochs)
    } else {
        let model = rec.span(run, "ml.fit", |_| {
            LogisticRegressionSgd::default().fit(
                &x_train,
                train.labels(),
                train.instance_weights(),
                learner_seed,
            )
        })?;
        (model, None, 0.0)
    };
    let mut chain = Chain {
        handler,
        pre,
        featurizer,
        model,
        post: None,
    };
    if let Some(post) = postprocessor(w) {
        let val = chain.evaluate(rec, run, &split.validation, &mut cells)?;
        chain.post = Some(rec.span(run, "fairness.post_fit", |_| {
            post.fit(
                &val.scores,
                &val.y_true,
                &val.privileged,
                derive_seed(candidate_seed, "postprocessor"),
            )
        })?);
    }
    // Phase 2 reports every candidate on train and validation; with one
    // candidate the selection itself is trivial.
    report(rec, run, &chain.evaluate_train(rec, run, &train, &x_train)?)?;
    report(
        rec,
        run,
        &chain.evaluate(rec, run, &split.validation, &mut cells)?,
    )?;
    // Phase 3: the frozen chain on the test partition.
    let test = report(
        rec,
        run,
        &chain.evaluate(rec, run, &split.test, &mut cells)?,
    )?;
    let fold_fits =
        grid.as_ref()
            .map_or(0, |(_, scores)| scores.iter().map(Vec::len).sum::<usize>()) as u64;
    // The grid search's inputs move into the result, for the traced run's
    // check against `GridSearchCv`.
    let grid = grid.map(|(best, fold_scores)| GridReplay {
        best,
        fold_scores,
        y: train.labels().to_vec(),
        weights: train.instance_weights().to_vec(),
        x: x_train,
        seed: learner_seed,
    });
    Ok(Replay {
        digest: digest(test.to_map()),
        cells_imputed: cells,
        fold_fits,
        fold_row_epochs,
        grid,
    })
}

/// Runs one sweep round through the product path and returns each seed's
/// digest, or its failure.
fn sweep_round(
    w: &Workload,
    data: &BinaryLabelDataset,
    seeds: &[u64],
    cores: usize,
) -> Result<Vec<Result<String, String>>, String> {
    let (outer, inner) = split_budget(cores, seeds.len());
    let plan = SweepPlan {
        seeds,
        threads: outer,
        config: w.name.to_string(),
        journal: None,
        faults: None,
        max_retries: 0,
        progress: None,
    };
    let outcomes = run_sweep(
        |seed| experiment(w, data.clone(), seed, inner),
        &plan,
        &fairprep_trace::Tracer::disabled(),
    )
    .map_err(|e| e.to_string())?;
    Ok(outcomes
        .into_iter()
        .map(|o| {
            if o.ok {
                Ok(digest(o.metrics))
            } else {
                Err(o.error)
            }
        })
        .collect())
}

/// Replays every seed of a round concurrently, as the sweep runs them,
/// under one `core.seed_fanout` span. Returns the fan-out span's id.
fn replay_round(
    w: &Workload,
    data: &BinaryLabelDataset,
    seeds: &[u64],
    cores: usize,
    rec: &Recorder,
) -> (Vec<FpResult<Replay>>, u64) {
    let (outer, inner) = split_budget(cores, seeds.len());
    let root = rec.new_trace(Ctx::default());
    rec.span(root, "core.seed_fanout", |fan| {
        let replays = parallel_map(seeds.to_vec(), outer, |seed| {
            let run = rec.new_trace(fan);
            rec.span(run, "run", |run| replay(w, data, seed, inner, rec, run))
        });
        (replays, fan.id())
    })
}

/// Compares product-path digests with the reference digests, counting
/// every mismatch or error as a failure.
fn check_round(
    out: &mut Outcome,
    seeds: &[u64],
    got: &[Result<String, String>],
    reference: &[String],
) {
    for ((seed, got), want) in seeds.iter().zip(got).zip(reference) {
        out.attempted += 1;
        match got {
            Ok(d) if d == want => {}
            Ok(d) => {
                out.failed += 1;
                eprintln!("seed {seed}: digest {d} differs from reference {want}");
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("seed {seed}: run failed: {e}");
            }
        }
    }
}

/// Provenance line with the lifecycle runs checked so far.
fn note_runs(out: &mut Outcome) {
    out.note(format!(
        "class=run attempted={} succeeded={} failed={}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    ));
}

/// Runs an experiment workload.
pub fn run(w: &Workload, s: &Settings) -> Result<Outcome, String> {
    let cores = available_cores();
    let rows = s.scale.experiment_rows;
    let gen_seed = derive(s.seed, &format!("{}/data", w.name));
    let seeds: Vec<u64> = (0..w.runs_per_round)
        .map(|i| derive(s.seed, &format!("{}/run/{i}", w.name)))
        .collect();

    // Set-up: generating the workload's data (and injecting missingness).
    let setup = || -> Result<(BinaryLabelDataset, f64), String> {
        let t = Instant::now();
        let data = dataset(w, rows, gen_seed).map_err(|e| e.to_string())?;
        Ok((data, t.elapsed().as_secs_f64()))
    };
    let (data, first_setup_s) = setup()?;

    let mut out = Outcome {
        checks_passed: true,
        ..Outcome::default()
    };
    let (outer, inner) = split_budget(cores, seeds.len());
    out.note(format!(
        "rows={rows} runs_per_round={} threads={outer}x{inner} (runs x cv) run_seeds={seeds:?} data_seed={gen_seed}",
        seeds.len()
    ));
    if s.trace {
        traced(w, s, &data, &seeds, cores, &mut out)?;
    } else {
        let mut setup_s = vec![first_setup_s];
        untraced(w, s, &data, &seeds, cores, &mut out, || {
            setup().map(|(_, secs)| setup_s.push(secs))
        })?;
        while setup_s.len() < SETUP_REPEATS {
            setup_s.push(setup()?.1);
        }
        let median_setup = median(&setup_s).ok_or("no set-up timings")?;
        out.set("setup_s", median_setup);
        out.note(format!(
            "setup_s={median_setup} (median of {}: {setup_s:?})",
            setup_s.len()
        ));
    }
    Ok(out)
}

/// Measures sweep rounds for `s.seconds`, calling `between` after each
/// round, and checks every run's digest against the replay's.
fn untraced(
    w: &Workload,
    s: &Settings,
    data: &BinaryLabelDataset,
    seeds: &[u64],
    cores: usize,
    out: &mut Outcome,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    // The reference digests come from the replay. It does the same work as
    // a round, so running it first also warms the allocator and caches
    // before the timed rounds.
    let (replays, _) = replay_round(w, data, seeds, cores, &Recorder::new(false));
    let reference = replays
        .into_iter()
        .map(|r| r.map(|r| r.digest).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reference replay failed: {e}"))?;

    let mut round_ms = Vec::new();
    let cpu = CpuTimes::now();
    let started = Instant::now();
    while round_ms.is_empty() || started.elapsed() < s.seconds {
        let t = Instant::now();
        let digests = sweep_round(w, data, seeds, cores)?;
        round_ms.push(ms(t.elapsed()));
        check_round(out, seeds, &digests, &reference);
        between()?;
    }
    if let Some(cpu) = cpu {
        out.note(cpu.steal_note());
    }
    note_runs(out);
    let rss = crate::stats::peak_rss_mb().ok_or("cannot read peak RSS")?;

    let p50 = median(&round_ms).ok_or("no rounds")?;
    #[allow(clippy::cast_precision_loss)]
    let rows_per_s = (data.n_rows() * seeds.len()) as f64 / (p50 / 1e3);
    out.set("latency_p50_ms", p50);
    out.set("rows_per_s", rows_per_s);
    out.set("peak_rss_mb", rss);
    #[allow(clippy::cast_precision_loss)]
    let runs_per_min = seeds.len() as f64 * 60e3 / p50;
    out.note(format!(
        "runs_per_min={runs_per_min} (median round of {} runs, n={} rounds)",
        seeds.len(),
        round_ms.len()
    ));
    out.note(format!(
        "latency_p50_ms={p50} (median lifecycle round wall time, n={})",
        round_ms.len()
    ));
    out.note(format!("rows_per_s={rows_per_s} peak_rss_mb={rss}"));
    out.note(format!("round_ms {round_ms:?}"));
    out.note(format!("reference digests {reference:?}"));
    Ok(())
}

/// Per-run layer totals of one traced round.
fn round_layers(
    w: &Workload,
    round: &[Span],
    replays: &[Replay],
    cores: usize,
) -> Vec<(&'static str, f64)> {
    #[allow(clippy::cast_precision_loss)]
    let runs = replays.len().max(1) as f64;
    let own = spans::self_ms_by_name(round);
    let mut v: Vec<(&'static str, f64)> = TIMED_SPANS
        .iter()
        .map(|(span, metric)| (*metric, own.get(span).copied().unwrap_or(0.0) / runs))
        .collect();
    let fold_fits: Vec<f64> = round
        .iter()
        .filter(|s| s.name == "ml.fold_fit")
        .map(|s| {
            #[allow(clippy::cast_precision_loss)]
            let d = s.duration() as f64 / 1e6;
            d
        })
        .collect();
    v.push(("ml.fold_fit_median_ms", median(&fold_fits).unwrap_or(0.0)));
    #[allow(clippy::cast_precision_loss)]
    {
        v.push((
            "impute.cells_imputed",
            replays.iter().map(|r| r.cells_imputed as f64).sum::<f64>() / runs,
        ));
        v.push((
            "ml.fold_fits",
            replays.iter().map(|r| r.fold_fits as f64).sum::<f64>() / runs,
        ));
    }
    let fold_fit_s = own.get("ml.fold_fit").copied().unwrap_or(0.0) / 1e3;
    let row_epochs: f64 = replays.iter().map(|r| r.fold_row_epochs).sum();
    if fold_fit_s > 0.0 {
        v.push(("ml.row_epochs_per_s", row_epochs / fold_fit_s));
    }
    // Parallel efficiency over the fan-out the workload parallelises:
    // folds when tuned, seeds otherwise.
    let (fan_name, threads) = if w.tuned {
        ("core.fold_fanout", split_budget(cores, w.runs_per_round).1)
    } else {
        ("core.seed_fanout", split_budget(cores, w.runs_per_round).0)
    };
    let mut busy = 0u64;
    let mut wall = 0u64;
    for f in round.iter().filter(|s| s.name == fan_name) {
        wall += f.duration();
        busy += round
            .iter()
            .filter(|c| c.parent == f.id)
            .map(Span::duration)
            .sum::<u64>();
    }
    if wall > 0 {
        #[allow(clippy::cast_precision_loss)]
        let eff = busy as f64 / (threads as f64 * wall as f64);
        v.push(("core.parallel_efficiency", eff));
    }
    v
}

fn traced(
    w: &Workload,
    s: &Settings,
    data: &BinaryLabelDataset,
    seeds: &[u64],
    cores: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = Recorder::new(true);
    let mut per_round: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut product_ms = Vec::new();
    let mut replay_ms = Vec::new();
    let mut largest: Vec<&'static str> = Vec::new();
    let mut grid_checked = false;
    let started = Instant::now();
    while per_round.is_empty() || started.elapsed() < s.seconds {
        let t = Instant::now();
        let product = sweep_round(w, data, seeds, cores)?;
        product_ms.push(ms(t.elapsed()));

        // Tracing overhead: the same replay with the recorder off and on.
        let t = Instant::now();
        let (untraced, _) = replay_round(w, data, seeds, cores, &Recorder::new(false));
        let untraced_ms = ms(t.elapsed());
        let t = Instant::now();
        let (replays, fanout) = replay_round(w, data, seeds, cores, &rec);
        let traced_ms = ms(t.elapsed());
        overhead_ms.push(traced_ms - untraced_ms);
        replay_ms.push(traced_ms);
        let untraced = untraced
            .into_iter()
            .collect::<FpResult<Vec<Replay>>>()
            .map_err(|e| format!("untraced replay failed: {e}"))?;

        let replays = replays
            .into_iter()
            .collect::<FpResult<Vec<Replay>>>()
            .map_err(|e| format!("traced replay failed: {e}"))?;
        let reference: Vec<String> = replays.iter().map(|r| r.digest.clone()).collect();
        if untraced.iter().map(|r| &r.digest).ne(reference.iter()) {
            out.checks_passed = false;
            out.note("tracing changed the replay's digests");
        }
        let failed_before = out.failed;
        check_round(out, seeds, &product, &reference);
        if out.failed > failed_before {
            out.checks_passed = false;
            out.note("traced replay INVALID: its digests differ from Experiment::run");
        }
        if !grid_checked {
            if let Some(grid) = replays.first().and_then(|r| r.grid.as_ref()) {
                let (_, inner) = split_budget(cores, seeds.len());
                let same = grid.matches_grid_search(inner).map_err(|e| e.to_string())?;
                out.note(format!(
                    "grid replay picks candidate {} with fold scores {} GridSearchCv",
                    grid.best,
                    if same {
                        "bit-identical to"
                    } else {
                        "DIFFERENT from"
                    }
                ));
                if !same {
                    out.checks_passed = false;
                }
            }
            grid_checked = true;
        }

        let all = rec.spans();
        let round = spans::subtree(&all, fanout);
        let own = spans::self_ms_by_name(&round);
        if let Some((name, _)) = own.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
            largest.push(name);
        }
        per_round.push(round_layers(w, &round, &replays, cores));
    }

    let mut names: Vec<&'static str> = per_round.iter().flatten().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let values: Vec<f64> = per_round
            .iter()
            .filter_map(|r| r.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        if let Some(m) = median(&values) {
            out.set(name, m);
        }
    }
    note_runs(out);
    let overhead = median(&overhead_ms).ok_or("no traced rounds")?;
    out.set("bench.trace_overhead_ms", overhead);
    out.note(format!(
        "traced rounds={} overhead_ms={overhead} (traced minus untraced replay round); \
         round wall ms: Experiment::run sweep {product_ms:?}, traced replay {replay_ms:?}",
        per_round.len()
    ));
    let holds = largest.iter().all(|n| *n == w.dominant_span);
    out.note(format!(
        "largest self time per round: {largest:?}; layer map {} (expected {})",
        if holds { "holds" } else { "is WRONG" },
        w.dominant_span
    ));
    let all = rec.spans();
    let own_all = spans::self_ms_by_name(&all);
    let mut ranked: Vec<(&&str, &f64)> = own_all.iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, ms) in ranked {
        out.note(format!("self_ms {name} {ms}"));
    }
    crate::spans::write_jsonl(&crate::spans_path(w.name, s.seed), &all)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::best_index;

    #[test]
    fn best_index_ranks_nan_lowest_and_keeps_the_earlier_tie() {
        assert_eq!(best_index(&[0.5, 0.7, 0.7, 0.6]), 1);
        assert_eq!(best_index(&[f64::NAN, 0.1, f64::NAN]), 1);
        assert_eq!(best_index(&[0.2, f64::NAN, 0.2]), 0);
        assert_eq!(best_index(&[f64::NAN, f64::NAN]), 0);
    }
}
