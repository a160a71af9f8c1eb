//! # fairprep-fairness
//!
//! The fairness substrate of the FairPrep workspace — the AIF360 substitute
//! providing:
//!
//! * **Metrics** ([`metrics`]): the 25 per-group metrics and 22
//!   between-group metrics FairPrep reports for every run (§4), assembled
//!   into a [`metrics::MetricsReport`].
//! * **Pre-processing interventions** ([`preprocess`]): reweighing
//!   [Kamiran & Calders '12], the disparate-impact remover with repair
//!   levels [Feldman et al. '15], and massaging (extension).
//! * **In-processing interventions** ([`inprocess`]): adversarial debiasing
//!   [Zhang et al. '18] and a prejudice-remover-style covariance penalty
//!   (extension).
//! * **Post-processing interventions** ([`postprocess`]): reject-option
//!   classification [Kamiran et al. '12], calibrated equalized odds
//!   [Pleiss et al. '17], and equalized odds [Hardt et al. '16]
//!   (extension).
//!
//! All components follow the FairPrep isolation discipline: interventions
//! are fitted on training (or validation, for postprocessors) data only and
//! then applied by the framework to later splits.

#![warn(missing_docs)]

pub mod inprocess;
pub mod metrics;
pub mod postprocess;
pub mod preprocess;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::inprocess::{
        AdversarialDebiasing, InProcessor, LearnedFairRepresentations, PrejudiceRemover,
    };
    pub use crate::metrics::{
        consistency, DatasetMetrics, DifferenceMetrics, GroupMetrics, MetricsReport, ReportInputs,
    };
    pub use crate::postprocess::{
        CalibratedEqOdds, CostConstraint, EqOddsPostprocessing, FittedPostprocessor,
        GroupThresholdOptimizer, NoPostprocessing, Postprocessor, RejectOptionClassification,
        ThresholdConstraint,
    };
    pub use crate::preprocess::{
        DisparateImpactRemover, FittedPreprocessor, Massaging, NoIntervention,
        PreferentialSampling, Preprocessor, Reweighing,
    };
}
