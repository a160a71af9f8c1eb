//! # fairprep-ml
//!
//! The learning substrate of the FairPrep workspace — a scikit-learn
//! substitute scoped to what the FairPrep lifecycle needs:
//!
//! * a dense [`matrix::Matrix`] (the "numpy view" of a dataset),
//! * feature transforms with fit-on-train-only semantics
//!   ([`transform::ScalerSpec`], [`transform::OneHotEncoder`],
//!   [`transform::FittedFeaturizer`]),
//! * weighted classifiers behind the [`model::Classifier`] trait
//!   (SGD logistic regression, CART decision tree, Gaussian naive Bayes),
//! * seeded k-fold cross-validation and grid search
//!   ([`selection::GridSearchCv`]) including the paper's exact §4/§5.1
//!   hyperparameter grids, and
//! * prediction-quality metrics ([`eval::ConfusionMatrix`], ROC-AUC,
//!   log loss).
//!
//! ## Example
//!
//! ```
//! use fairprep_ml::matrix::Matrix;
//! use fairprep_ml::model::{Classifier, DecisionTree};
//!
//! let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![0.0], vec![1.0]]).unwrap();
//! let y = vec![0.0, 1.0, 0.0, 1.0];
//! let model = DecisionTree::default().fit(&x, &y, &[1.0; 4], 42).unwrap();
//! assert_eq!(model.predict(&x).unwrap(), y);
//! ```

#![warn(missing_docs)]

pub mod eval;
pub mod kernels;
pub mod matrix;
pub mod model;
pub mod sealing;
pub mod selection;
pub mod transform;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::eval::{accuracy, roc_auc, ConfusionMatrix};
    pub use crate::matrix::Matrix;
    pub use crate::model::{
        Classifier, DecisionTree, DecisionTreeConfig, FittedClassifier, GaussianNaiveBayes,
        KNearestNeighbors, LogisticRegressionConfig, LogisticRegressionSgd, Penalty, RandomForest,
        RandomForestConfig, SplitCriterion,
    };
    pub use crate::selection::{
        decision_tree_grid, logistic_regression_grid, GridSearchCv, GridSearchOutcome,
    };
    pub use crate::transform::{FittedFeaturizer, OneHotEncoder, ScalerSpec};
}
