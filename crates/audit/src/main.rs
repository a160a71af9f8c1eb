//! Standalone entry point: `cargo run -p fairprep-audit -- --deny-all`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(fairprep_audit::run(&args) as u8)
}
