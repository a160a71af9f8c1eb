//! Helpers for the tests that drive the real `fairprep` binary: seal a
//! pipeline with `fairprep run --seal`, serve it with `fairprep serve
//! --port 0`, and kill the server when the test ends, pass or fail.

use std::io::{BufRead as _, BufReader, Lines};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use fairprep_cli::serve::http_request;

/// The `fairprep` binary under test.
pub const EXE: &str = env!("CARGO_BIN_EXE_fairprep");

/// Seals the german `dt` pipeline (150 rows, seed 7) into `registry`
/// through `fairprep run --seal` and returns its dashed fingerprint, the
/// form predict paths use.
pub fn seal_german(registry: &Path) -> String {
    let status = Command::new(EXE)
        .args(["run", "--dataset", "german", "--rows", "150"])
        .args(["--learner", "dt", "--seed", "7", "--seal"])
        .arg(registry)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "fairprep run --seal exited with {status}");
    let artifacts: Vec<_> = std::fs::read_dir(registry)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    assert_eq!(artifacts.len(), 1, "{artifacts:?}");
    artifacts[0]
        .file_stem()
        .unwrap()
        .to_str()
        .unwrap()
        .to_string()
}

/// A running `fairprep serve` child, killed when dropped.
pub struct Served {
    child: Child,
    /// Held to the end: the server prints its routes after the address
    /// line and must not meet a closed pipe.
    _stdout: Lines<BufReader<ChildStdout>>,
    /// The address the server printed.
    pub addr: SocketAddr,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `fairprep serve --port 0 --threads 2 --registry DIR` plus
/// `extra` arguments and returns once `/healthz` has answered 200
/// exactly once (failed probes never reach the server, so they leave
/// no access-log record).
pub fn serve(registry: &Path, extra: &[&str]) -> Served {
    let mut child = Command::new(EXE)
        .args(["serve", "--port", "0", "--threads", "2", "--registry"])
        .arg(registry)
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap()).lines();
    let addr: SocketAddr = stdout
        .by_ref()
        .find_map(|line| {
            let line = line.unwrap();
            line.split_once(" on http://")
                .map(|(_, addr)| addr.trim().parse().unwrap())
        })
        .expect("fairprep serve prints `serving ... on http://ADDR`");
    let served = Served {
        child,
        _stdout: stdout,
        addr,
    };
    let healthy = (0..100).any(|_| {
        let ok = matches!(http_request(addr, "GET", "/healthz", None), Ok((200, _)));
        if !ok {
            std::thread::sleep(Duration::from_millis(200));
        }
        ok
    });
    assert!(healthy, "server never became healthy");
    served
}

/// Runs `fairprep tail --file LOG --once`, asserts it exits 0, and
/// returns what it printed.
pub fn tail_once(log: &Path) -> String {
    let output = Command::new(EXE)
        .args(["tail", "--once", "--file"])
        .arg(log)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "fairprep tail exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}
