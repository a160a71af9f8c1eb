//! # fairprep-core
//!
//! The FairPrep framework itself: a design and evaluation framework for
//! studies on fairness-enhancing interventions that makes **data a
//! first-class citizen**. It implements the paper's three design goals
//! (§3):
//!
//! * **Data isolation** — the held-out test set lives in a sealed
//!   [`isolation::TestSetVault`]; every data-dependent operation
//!   (imputation, scaling, one-hot dictionaries, interventions, model
//!   training, hyperparameter selection) is fitted on the training set
//!   (or, for post-processors, the validation set) and replayed by the
//!   framework on later splits. User code never touches test data.
//! * **Componentization** — each lifecycle slot is a small trait:
//!   `Resampler`, `MissingValueHandler`, `ScalerSpec`, `Preprocessor`,
//!   [`learners::Learner`], `Postprocessor`,
//!   [`experiment::ModelSelector`]. Components are exchangeable with a
//!   single builder call.
//! * **Explicit data lifecycle** — [`Experiment::run`](experiment::Experiment::run)
//!   executes the fixed three-phase sequence of Figure 1 and emits a
//!   [`results::RunResult`] with 25 per-group + 22 between-group metrics
//!   per evaluated split.
//!
//! ## Quickstart
//!
//! ```
//! use fairprep_core::experiment::Experiment;
//! use fairprep_core::learners::LogisticRegressionLearner;
//! use fairprep_datasets::generate_german;
//! use fairprep_fairness::preprocess::Reweighing;
//!
//! let dataset = generate_german(300, 7).unwrap();
//! let result = Experiment::builder("germancredit", dataset)
//!     .seed(46947)
//!     .preprocessor(Reweighing)
//!     .learner(LogisticRegressionLearner { tuned: false })
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! println!(
//!     "test accuracy = {:.3}, disparate impact = {:.3}",
//!     result.test_report.overall.accuracy,
//!     result.test_report.differences.disparate_impact,
//! );
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod experiment;
pub mod isolation;
pub mod journal;
pub mod learners;
pub mod lifecycle;
pub(crate) mod profiling;
pub mod results;
pub mod runner;
pub mod seal;
pub mod sweep;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::aggregate::{MetricDistribution, SweepAggregator};
    pub use crate::experiment::{
        AccuracyUnderDiBound, Experiment, ExperimentBuilder, MaxValidationAccuracy, ModelSelector,
    };
    pub use crate::isolation::TestSetVault;
    pub use crate::journal::{config_fingerprint, JournalEntry, SweepJournal};
    pub use crate::learners::{
        ClassifierLearner, DecisionTreeLearner, InProcessLearner, Learner,
        LogisticRegressionLearner, NaiveBayesLearner, RandomForestLearner,
        RandomizedDecisionTreeLearner,
    };
    pub use crate::results::{CandidateEvaluation, RunMetadata, RunResult, SweepWriter};
    pub use crate::runner::{count_ok, failure_messages, run_parallel, run_parallel_traced, Job};
    pub use crate::seal::{ScoredRow, SealedPipeline, SEAL_SCHEMA_VERSION};
    pub use crate::sweep::{
        count_completed, metric_across_outcomes, run_sweep, SeedOutcome, SweepPlan,
    };
    pub use fairprep_trace::{FaultKind, FaultPlan, RunManifest, Tracer};
}
