//! Property tests for the fault-tolerant sweep engine: seeded-fault
//! sweeps must produce byte-identical canonical manifests (failures
//! included) at every thread budget, and a sweep killed mid-run and
//! resumed from its journal must be indistinguishable from an
//! uninterrupted one.

#![allow(
    clippy::expect_used,
    reason = "integration tests fail by panicking; the library panic-hygiene lints do not apply"
)]

use fairprep_core::experiment::Experiment;
use fairprep_core::journal::{config_fingerprint, SweepJournal};
use fairprep_core::learners::DecisionTreeLearner;
use fairprep_core::sweep::{run_sweep, SeedOutcome, SweepPlan};
use fairprep_datasets::generate_german;
use fairprep_trace::manifest::metric_digest;
use fairprep_trace::{FaultKind, FaultPlan, ManifestConfig, RunManifest, Stage, Tracer};
use proptest::prelude::*;

fn build(seed: u64) -> fairprep_data::error::Result<Experiment> {
    Experiment::builder("german", generate_german(120, 3)?)
        .seed(seed)
        .learner(DecisionTreeLearner { tuned: false })
        .build()
}

fn fault_plan(plan_seed: u64, rate_tenths: u64, kind_ix: u8) -> FaultPlan {
    let kind = match kind_ix % 3 {
        0 => FaultKind::Panic,
        1 => FaultKind::Transient,
        _ => FaultKind::Mixed,
    };
    FaultPlan::new(plan_seed, Stage::Split, rate_tenths as f64 / 10.0, kind)
}

/// Runs a faulted sweep and renders its canonical manifest — the
/// byte-stable projection that must not observe threads or resumes.
fn sweep_manifest(
    seeds: &[u64],
    threads: usize,
    faults: FaultPlan,
    journal: Option<&SweepJournal>,
) -> (Vec<SeedOutcome>, String) {
    let tracer = Tracer::enabled();
    let plan = SweepPlan {
        seeds,
        threads,
        config: config_fingerprint("fault-tolerance-proptest"),
        journal,
        faults: Some(faults),
        max_retries: 2,
        progress: None,
    };
    let outcomes = run_sweep(build, &plan, &tracer).expect("journal I/O");
    let digest: Vec<(String, f64)> = outcomes
        .iter()
        .filter(|o| o.ok)
        .flat_map(|o| o.metrics.iter().cloned())
        .collect();
    let manifest = RunManifest::from_tracer(
        &tracer,
        ManifestConfig {
            experiment: "fault-tolerance-proptest".to_string(),
            seeds: seeds.to_vec(),
            thread_budget: threads,
            ..ManifestConfig::default()
        },
        metric_digest(&digest),
    );
    (outcomes, manifest.canonical())
}

fn assert_outcomes_bit_identical(a: &[SeedOutcome], b: &[SeedOutcome]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.ok, y.ok);
        assert_eq!(x.error, y.error);
        assert_eq!(x.retries, y.retries);
        assert_eq!(x.metrics.len(), y.metrics.len());
        for ((na, va), (nb, vb)) in x.metrics.iter().zip(&y.metrics) {
            assert_eq!(na, nb);
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{na} differs for seed {}",
                x.seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The canonical manifest of a seeded-fault sweep — counters,
    /// failures array, metric digest — is byte-identical at 1 and 8
    /// threads. The thread budget only appears in the explicit
    /// `thread_budget` config field, which we pin here to isolate the
    /// execution-dependent parts.
    #[test]
    fn faulted_sweeps_are_byte_identical_across_threads(
        plan_seed in 0u64..10_000,
        rate_tenths in 0u64..=9,
        kind_ix in 0u8..3,
    ) {
        let seeds: Vec<u64> = (0..5).map(|i| 1000 + i * 37).collect();
        let faults = fault_plan(plan_seed, rate_tenths, kind_ix);
        let (seq, seq_manifest) = sweep_manifest(&seeds, 1, faults.clone(), None);
        let (par, par_manifest) = sweep_manifest(&seeds, 8, faults, None);
        assert_outcomes_bit_identical(&seq, &par);
        // thread_budget is a config field; strip both renderings of it
        // before the byte comparison so only execution-dependent state is
        // compared.
        let strip = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.contains("\"thread_budget\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        prop_assert_eq!(strip(&seq_manifest), strip(&par_manifest));
    }

    /// Kill-resume equivalence: journal a faulted sweep, truncate the
    /// journal after `kept` entries and tear the next line (simulating a
    /// process killed mid-write), resume — outcomes and canonical
    /// manifest must equal the uninterrupted sweep's.
    #[test]
    fn resume_after_kill_equals_uninterrupted(
        plan_seed in 0u64..10_000,
        rate_tenths in 0u64..=9,
        kind_ix in 0u8..3,
        kept in 0usize..4,
    ) {
        let seeds: Vec<u64> = (0..4).map(|i| 2000 + i * 53).collect();
        let faults = fault_plan(plan_seed, rate_tenths, kind_ix);
        let (uninterrupted, baseline_manifest) =
            sweep_manifest(&seeds, 2, faults.clone(), None);

        let dir = std::env::temp_dir().join(format!(
            "fairprep-ft-{}-{plan_seed}-{rate_tenths}-{kind_ix}-{kept}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal.jsonl");
        let _ = std::fs::remove_file(&path);

        // Full journaled pass, then simulate the kill: keep `kept`
        // complete lines plus a torn fragment of the next.
        {
            let journal = SweepJournal::open(&path).unwrap();
            let (first, _) = sweep_manifest(&seeds, 2, faults.clone(), Some(&journal));
            assert_outcomes_bit_identical(&uninterrupted, &first);
        }
        let full = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        prop_assert_eq!(lines.len(), seeds.len());
        let mut torn: String = lines[..kept]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        torn.push_str(&lines[kept][..lines[kept].len() / 2]);
        std::fs::write(&path, torn).unwrap();

        let journal = SweepJournal::open(&path).unwrap();
        prop_assert_eq!(journal.len(), kept);
        prop_assert_eq!(journal.discarded_lines(), 1);
        let (resumed, resumed_manifest) = sweep_manifest(&seeds, 2, faults, Some(&journal));
        let reused = resumed.iter().filter(|o| o.reused).count();
        prop_assert_eq!(reused, kept);
        assert_outcomes_bit_identical(&uninterrupted, &resumed);
        prop_assert_eq!(baseline_manifest, resumed_manifest);

        std::fs::remove_dir_all(&dir).ok();
    }
}
