//! Ann's payment-options study — the paper's running example (§1.1, §4).
//!
//! Ann wants to know which payment options to offer customers. Her data has
//! `age` missing far more often for female customers, and age matters for
//! the label. She compares fairness-enhancing interventions under a learned
//! imputer (the §4 `DatawigImputer('age')` pattern), over a set of fixed
//! seeds — the exact sweep of the paper's §4 code listing:
//!
//! ```python
//! seeds = [46947, 71735, 94246, ...]
//! interventions = [NoIntervention(), Reweighing(), DiRemover(0.5)]
//! for seed in seeds:
//!     for intervention in interventions:
//!         exp = PaymentOptionGenderExperiment(
//!             random_seed=seed,
//!             missing_value_handler=DatawigImputer('age'),
//!             numeric_attribute_scaler=StandardScaler(),
//!             learner=LogisticRegression(),
//!             pre_processor=intervention)
//!         exp.run()
//! ```
//!
//! ```text
//! cargo run --release --example ann_payment_options
//! ```

#![allow(
    clippy::expect_used,
    reason = "examples are binaries; the library panic-hygiene lints do not apply"
)]

use fairprep::prelude::*;
use fairprep_core::runner::{run_parallel, Job};

fn main() -> Result<()> {
    // The paper's fixed seeds for reproducibility.
    let seeds: [u64; 4] = [46947, 71735, 94246, 31807];
    let interventions = ["no_intervention", "reweighing", "di_remover(0.5)"];

    let mut jobs: Vec<Job> = Vec::new();
    for &seed in &seeds {
        for &intervention in &interventions {
            jobs.push(Box::new(move || {
                let dataset = generate_payment(2000, 7)?;
                let builder = Experiment::builder("payment_options", dataset)
                    .seed(seed)
                    // Datawig-style learned imputation of the age attribute.
                    .missing_value_handler(ModelBasedImputer::for_columns(&["age"]))
                    .scaler(ScalerSpec::Standard)
                    .learner(LogisticRegressionLearner { tuned: true });
                let builder = match intervention {
                    "reweighing" => builder.preprocessor(Reweighing),
                    "di_remover(0.5)" => builder.preprocessor(DisparateImpactRemover::new(0.5)),
                    _ => builder,
                };
                builder.build()?.run()
            }));
        }
    }

    let n_jobs = jobs.len();
    println!("running {n_jobs} experiments (4 seeds x 3 interventions)...");
    let results = run_parallel(jobs, 4);

    // Collect into the sweep output file Ann would explore in a notebook.
    let mut sweep = SweepWriter::new(&[
        "overall_accuracy",
        "privileged_accuracy",
        "unprivileged_accuracy",
        "incomplete_records_accuracy",
        "disparate_impact",
        "statistical_parity_difference",
    ]);

    println!(
        "\n{:<18} {:>6} {:>9} {:>9} {:>9} {:>7}",
        "intervention", "seed", "acc", "acc_unpr", "acc_imp", "DI"
    );
    for result in &results {
        let r = result.as_ref().expect("run failed");
        sweep.add(r);
        let t = &r.test_report;
        println!(
            "{:<18} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>7.3}",
            r.metadata.preprocessor,
            r.metadata.seed,
            t.overall.accuracy,
            t.unprivileged.accuracy,
            t.incomplete_records
                .as_ref()
                .map_or(f64::NAN, |g| g.accuracy),
            t.differences.disparate_impact,
        );
    }

    std::fs::create_dir_all("results")?;
    let mut file = std::fs::File::create("results/ann_payment_options.csv")?;
    sweep.write(&mut file)?;
    println!("\nsweep written to results/ann_payment_options.csv ({n_jobs} runs)");
    Ok(())
}
