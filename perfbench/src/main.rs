//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload tune_adult|clean_adult|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints provenance lines, then one JSON result line. Exits non-zero
//! without a result line when a workload cannot run.

use std::time::Duration;

use fairprep_perfbench::{available_cores, build_profile, metrics, run, Scale, Settings};

fn parse_args() -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::FULL,
        corrupt_expected: false,
    })
}

fn main() {
    let settings = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} available_cores={} build_profile={}",
        settings.workload,
        settings.seed,
        settings.seconds.as_secs_f64(),
        u8::from(settings.trace),
        available_cores(),
        build_profile()
    );
    let outcome = match run(&settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", settings.workload);
            std::process::exit(1);
        }
    };
    for line in &outcome.notes {
        println!("# {line}");
    }
    println!(
        "# attempted={} failed={} failed_ratio={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed_ratio()
    );
    for m in metrics::declared(settings.trace) {
        let value = outcome.values.get(m.name).copied().unwrap_or(0.0);
        if m.moves.is_empty() {
            println!("# {} = {value} {}", m.name, m.unit);
        } else {
            println!("# {} = {value} {} (moves {})", m.name, m.unit, m.moves);
        }
    }
    match metrics::result_line(&outcome, settings.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
