//! Shared definitions of the golden request/response suite.
//!
//! One fixed pipeline configuration per shipped dataset, plus the exact
//! predict requests the committed fixtures in `tests/golden_serve/`
//! replay. The fixture **generator** (`examples/golden_serve.rs`) and
//! the CI **replay test** (`tests/golden_serve.rs`) both build their
//! pipelines through this module, so a fixture mismatch always means
//! the serving path changed — never that the two sides disagreed about
//! the configuration.

use fairprep_core::seal::SealedPipeline;
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::schema::Role;
use fairprep_trace::json::{obj, Value};

use crate::build;

/// Datasets covered by the golden suite (every generator the repo
/// ships).
pub const GOLDEN_DATASETS: &[&str] = &["adult", "german", "compas", "ricci", "payment"];

/// Rows drawn from each generator: enough for a stable lifecycle,
/// small enough for CI.
const GOLDEN_ROWS: usize = 300;

/// Generator seed shared by both sides of the suite.
const GOLDEN_GEN_SEED: u64 = 20_19;

/// Experiment seed shared by both sides of the suite.
const GOLDEN_RUN_SEED: u64 = 46_947;

/// The fixed component configuration of one golden pipeline:
/// `(learner, missing, preprocessor, postprocessor)`. Chosen so the
/// suite spans imputation, a preprocessor, a post-processor, and a
/// plain chain.
fn golden_config(dataset: &str) -> (&'static str, &'static str, &'static str, &'static str) {
    match dataset {
        "adult" => ("lr", "complete-case", "reweighing", "none"),
        "german" => ("dt", "complete-case", "none", "reject-option"),
        "compas" => ("lr", "complete-case", "massaging", "none"),
        "ricci" => ("dt", "complete-case", "none", "none"),
        // Payment has real missingness: the imputer is on the hot path.
        _ => ("lr", "mode", "none", "none"),
    }
}

/// The golden dataset sample every request row is drawn from.
pub fn golden_dataset(dataset: &str) -> Result<BinaryLabelDataset, String> {
    build::load_dataset(dataset, GOLDEN_ROWS, GOLDEN_GEN_SEED)
}

/// Fits and seals the fixed golden pipeline for `dataset`.
pub fn golden_pipeline(dataset: &str) -> Result<SealedPipeline, String> {
    let data = golden_dataset(dataset)?;
    let (learner, missing, preprocessor, postprocessor) = golden_config(dataset);
    let builder = fairprep_core::experiment::Experiment::builder(dataset, data)
        .seed(GOLDEN_RUN_SEED)
        .threads(1);
    let experiment = build::configure(
        builder,
        learner,
        missing,
        preprocessor,
        postprocessor,
        "standard",
    )?;
    let (_, sealed) = experiment.run_sealed().map_err(|e| e.to_string())?;
    Ok(sealed)
}

/// Renders dataset row `i` as a predict-request row object: every
/// non-label column by name, numeric cells as JSON numbers, categorical
/// cells as strings, and missing cells (NaN or absent) as `null`.
///
/// The golden fixtures and the serve and alert integration tests all
/// build their `{"row": ...}` / `{"rows": [...]}` bodies from it.
#[must_use]
pub fn row_value(data: &BinaryLabelDataset, i: usize) -> Value {
    let members = data
        .schema()
        .fields()
        .iter()
        .filter(|f| f.role != Role::Label)
        .map(|f| {
            let cell = data
                .frame()
                .column(&f.name)
                .map_or(Value::Null, |col| match col.get(i) {
                    fairprep_data::column::Value::Numeric(x) if !x.is_nan() => Value::Num(x),
                    fairprep_data::column::Value::Categorical(s) => Value::Str(s.to_string()),
                    _ => Value::Null,
                });
            (f.name.as_str(), cell)
        })
        .collect();
    obj(members)
}

/// The golden request bodies for `dataset`: a single-row request, a
/// small batch, and — when the dataset has incomplete rows — a request
/// that routes missing cells through the sealed imputer.
pub fn golden_bodies(dataset: &str) -> Result<Vec<String>, String> {
    let data = golden_dataset(dataset)?;
    let mut bodies = vec![
        obj(vec![("row", row_value(&data, 0))]).to_json(),
        obj(vec![(
            "rows",
            Value::Arr((1..9).map(|i| row_value(&data, i)).collect()),
        )])
        .to_json(),
    ];
    if let Some(&incomplete) = data.frame().incomplete_rows().first() {
        bodies.push(obj(vec![("row", row_value(&data, incomplete))]).to_json());
    }
    Ok(bodies)
}

/// Path of the committed fixture file for `dataset`, relative to the
/// repository root.
#[must_use]
pub fn fixture_path(dataset: &str) -> String {
    format!("tests/golden_serve/{dataset}.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_value_renders_every_feature_and_nulls_missing_cells() {
        let data = golden_dataset("payment").unwrap();
        let label = data.schema().label_name().unwrap();
        let incomplete = data.frame().incomplete_rows()[0];
        let Value::Obj(members) = row_value(&data, incomplete) else {
            panic!("a row renders as an object");
        };
        let names: Vec<&str> = members.iter().map(|(name, _)| name.as_str()).collect();
        let features: Vec<&str> = data
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .filter(|name| *name != label)
            .collect();
        assert_eq!(names, features, "every non-label column, in schema order");
        for (name, cell) in &members {
            let missing = data.frame().column(name).unwrap().is_missing(incomplete);
            assert_eq!(*cell == Value::Null, missing, "{name}: {cell:?}");
        }
        assert!(
            members.iter().any(|(_, cell)| *cell == Value::Null),
            "an incomplete row renders its missing cell as null"
        );
    }
}
