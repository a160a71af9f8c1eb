//! The `profile_report` bin over a profiled run manifest written through
//! the same command path as `fairprep run --profile --trace`.

use std::path::Path;
use std::process::Command;

#[test]
fn profile_report_prints_drift_of_a_profiled_run() {
    let manifest = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sample-profile-manifest.json");
    let mut argv: Vec<String> = "run --dataset payment --rows 300 --learner dt --missing mode \
                                 --seed 11 --profile --trace"
        .split_whitespace()
        .map(str::to_string)
        .collect();
    argv.push(manifest.to_str().unwrap().to_string());
    fairprep_cli::app::execute(&argv).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_profile_report"))
        .arg(&manifest)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "profile_report exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    // One line per stage transition: `from->to  Δrows ...  max PSI ...`.
    assert!(
        stdout
            .lines()
            .any(|line| line.contains("->") && line.contains("max PSI")),
        "no drift line: {stdout}"
    );
}
