//! Sealed-pipeline round-trip properties.
//!
//! * For **every** dataset the repo ships, `run_sealed → save → load →
//!   score` is byte-for-byte identical to scoring with the in-process
//!   pipeline, and re-saving the loaded artifact reproduces the original
//!   file byte-for-byte (the canonical-JSON invariant).
//! * The invariant holds for arbitrary row subsets and batch sizes
//!   (1, 7, 4096), including NaN-bearing rows routed through an imputer
//!   and rows a complete-case handler drops.
//! * Corrupted or truncated artifacts fail with a typed [`Error::Seal`]
//!   and never panic.

#![allow(
    clippy::unwrap_used,
    reason = "integration tests fail by panicking; the library panic-hygiene lints do not apply"
)]

use std::sync::OnceLock;

use fairprep_core::experiment::Experiment;
use fairprep_core::learners::{DecisionTreeLearner, LogisticRegressionLearner};
use fairprep_core::seal::{ScoredRow, SealedPipeline};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::Error;
use fairprep_datasets::{
    generate_adult, generate_compas, generate_german, generate_payment, generate_ricci,
    AdultProtected, CompasProtected,
};
use fairprep_fairness::postprocess::{EqOddsPostprocessing, RejectOptionClassification};
use fairprep_fairness::preprocess::{DisparateImpactRemover, Massaging, Reweighing};
use fairprep_impute::ModeImputer;
use proptest::prelude::*;

/// Collapses scored rows into comparable bit patterns: `f64` equality is
/// not enough for a byte-for-byte claim (it conflates 0.0/-0.0 and can
/// never confirm NaN).
fn bit_rows(rows: &[ScoredRow]) -> Vec<(bool, Option<u64>, Option<u64>)> {
    rows.iter()
        .map(|r| {
            (
                r.privileged,
                r.score.map(f64::to_bits),
                r.decision.map(f64::to_bits),
            )
        })
        .collect()
}

fn roundtrip(label: &str, pipeline: &SealedPipeline, request: &BinaryLabelDataset) {
    let dir = std::env::temp_dir().join(format!("fairprep_seal_roundtrip_{label}"));
    let path = pipeline.save(&dir).unwrap();
    assert_eq!(
        path.file_name().unwrap().to_str().unwrap(),
        SealedPipeline::file_name(&pipeline.fingerprint)
    );
    let loaded = SealedPipeline::load(&path).unwrap();
    assert_eq!(loaded.fingerprint, pipeline.fingerprint);

    // Scoring through the reloaded chain is bit-identical.
    let direct = pipeline.score_frame(request.frame().clone()).unwrap();
    let replayed = loaded.score_frame(request.frame().clone()).unwrap();
    assert_eq!(direct.len(), request.n_rows());
    assert_eq!(bit_rows(&direct), bit_rows(&replayed), "{label} drifted");

    // Re-sealing the loaded artifact reproduces the file byte-for-byte.
    let original = std::fs::read_to_string(&path).unwrap();
    let resealed = loaded.to_value().unwrap().to_json();
    assert_eq!(original, resealed, "{label} canonical form not stable");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_dataset_roundtrips_byte_identically() {
    let adult = generate_adult(500, 5, AdultProtected::Sex).unwrap();
    let (_, sealed) = Experiment::builder("adult", adult.clone())
        .seed(11)
        .preprocessor(Reweighing)
        .learner(LogisticRegressionLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("adult", &sealed, &adult);

    let german = generate_german(300, 6).unwrap();
    let (_, sealed) = Experiment::builder("germancredit", german.clone())
        .seed(12)
        .preprocessor(DisparateImpactRemover::new(0.5))
        .postprocessor(RejectOptionClassification::default())
        .learner(DecisionTreeLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("german", &sealed, &german);

    let compas = generate_compas(400, 7, CompasProtected::Race).unwrap();
    let (_, sealed) = Experiment::builder("propublica-recidivism", compas.clone())
        .seed(13)
        .preprocessor(Massaging)
        .learner(LogisticRegressionLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("compas", &sealed, &compas);

    let ricci = generate_ricci(150, 8).unwrap();
    let (_, sealed) = Experiment::builder("ricci", ricci.clone())
        .seed(14)
        .learner(DecisionTreeLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("ricci", &sealed, &ricci);

    // Payment has real missingness: one pipeline imputes (NaN rows flow
    // through the model), one drops (NaN rows come back `dropped`). The
    // eq-odds postprocessor is randomized — its RNG seed must survive
    // sealing for the replay to stay bit-identical.
    let payment = generate_payment(600, 9).unwrap();
    let (_, sealed) = Experiment::builder("givemesomecredit", payment.clone())
        .seed(15)
        .missing_value_handler(ModeImputer)
        .postprocessor(EqOddsPostprocessing::default())
        .learner(LogisticRegressionLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("payment_imputed", &sealed, &payment);

    let (_, sealed) = Experiment::builder("givemesomecredit", payment.clone())
        .seed(16)
        .learner(DecisionTreeLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    let scored = sealed.score_frame(payment.frame().clone()).unwrap();
    assert!(
        scored.iter().any(ScoredRow::dropped),
        "complete-case pipeline should drop incomplete payment rows"
    );
    assert!(scored.iter().any(|r| !r.dropped()));
    roundtrip("payment_complete_case", &sealed, &payment);
}

/// A fitted german pipeline, its save→load replica, the request pool, and
/// the sealed artifact text — built once and shared across proptest cases.
struct Fixture {
    original: SealedPipeline,
    reloaded: SealedPipeline,
    pool: BinaryLabelDataset,
    artifact: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        // Payment + ModeImputer: the pool has NaN-bearing rows that must
        // survive imputation inside score_frame.
        let pool = generate_payment(400, 21).unwrap();
        let (_, original) = Experiment::builder("givemesomecredit", pool.clone())
            .seed(31)
            .missing_value_handler(ModeImputer)
            .preprocessor(Reweighing)
            .postprocessor(RejectOptionClassification::default())
            .learner(LogisticRegressionLearner { tuned: false })
            .build()
            .unwrap()
            .run_sealed()
            .unwrap();
        let dir = std::env::temp_dir().join("fairprep_seal_proptest_fixture");
        let path = original.save(&dir).unwrap();
        let artifact = std::fs::read_to_string(&path).unwrap();
        let reloaded = SealedPipeline::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        Fixture {
            original,
            reloaded,
            pool,
            artifact,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Arbitrary row subsets (with repeats, any order) score identically
    /// through the original and the reloaded pipeline.
    #[test]
    fn arbitrary_subsets_score_identically(
        indices in proptest::collection::vec(0usize..400, 1..48)
    ) {
        let fx = fixture();
        let request = fx.pool.take(&indices);
        let direct = fx.original.score_frame(request.frame().clone()).unwrap();
        let replayed = fx.reloaded.score_frame(request.frame().clone()).unwrap();
        prop_assert_eq!(direct.len(), indices.len());
        prop_assert_eq!(bit_rows(&direct), bit_rows(&replayed));
    }

    /// Truncating the artifact anywhere yields a typed seal error — the
    /// loader never panics on torn files.
    #[test]
    fn truncated_artifacts_fail_typed(cut in 0usize..1000) {
        let fx = fixture();
        let cut = cut.min(fx.artifact.len().saturating_sub(1));
        let torn = &fx.artifact[..cut];
        let dir = std::env::temp_dir().join("fairprep_seal_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("torn_{cut}.json"));
        std::fs::write(&path, torn).unwrap();
        let outcome = SealedPipeline::load(&path);
        std::fs::remove_file(&path).ok();
        match outcome {
            Err(Error::Seal(_)) => {}
            Err(other) => prop_assert!(false, "expected Error::Seal, got {other:?}"),
            Ok(_) => prop_assert!(false, "truncated artifact unsealed"),
        }
    }

    /// Flipping any single byte never panics: the loader either rejects
    /// the artifact with a typed error or reads a still-wellformed value.
    #[test]
    fn corrupted_artifacts_never_panic(pos in 0usize..4096, flip in 1u8..255) {
        let fx = fixture();
        let bytes = fx.artifact.as_bytes();
        let pos = pos % bytes.len();
        let mut corrupted = bytes.to_vec();
        corrupted[pos] ^= flip;
        // Not all flips produce valid UTF-8; both paths must stay typed.
        if let Ok(text) = String::from_utf8(corrupted) {
            if let Ok(value) = fairprep_trace::json::parse(&text) {
                let _ = SealedPipeline::from_value(&value);
            }
        }
    }
}

/// The fixed batch sizes the serving layer exercises: single-row, an odd
/// small batch, and a batch larger than any training partition.
#[test]
fn batch_sizes_1_7_4096_score_identically() {
    let fx = fixture();
    for &size in &[1usize, 7] {
        let indices: Vec<usize> = (0..size).map(|i| (i * 53) % 400).collect();
        let request = fx.pool.take(&indices);
        let direct = fx.original.score_frame(request.frame().clone()).unwrap();
        let replayed = fx.reloaded.score_frame(request.frame().clone()).unwrap();
        assert_eq!(direct.len(), size);
        assert_eq!(bit_rows(&direct), bit_rows(&replayed), "batch size {size}");
    }
    // 4096 rows drawn fresh from the generator (different seed than the
    // training pool), so the batch is larger than anything seen at fit
    // time and includes unseen NaN patterns.
    let big = generate_payment(4096, 77).unwrap();
    let direct = fx.original.score_frame(big.frame().clone()).unwrap();
    let replayed = fx.reloaded.score_frame(big.frame().clone()).unwrap();
    assert_eq!(direct.len(), 4096);
    assert_eq!(bit_rows(&direct), bit_rows(&replayed), "batch size 4096");
}

/// Artifacts from a future schema version are refused up front.
#[test]
fn version_skew_is_refused() {
    let fx = fixture();
    let bumped = fx
        .artifact
        .replacen("\"schema_version\":\"1\"", "\"schema_version\":\"2\"", 1);
    assert_ne!(bumped, fx.artifact, "version field not found in artifact");
    let value = fairprep_trace::json::parse(&bumped).unwrap();
    match SealedPipeline::from_value(&value) {
        Err(Error::Seal(msg)) => assert!(msg.contains("version"), "{msg}"),
        Err(other) => panic!("expected a version refusal, got {other:?}"),
        Ok(_) => panic!("a future schema version unsealed"),
    }
}
