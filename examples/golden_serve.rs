//! Regenerates the golden request/response fixtures of the scoring
//! service.
//!
//! ```text
//! cargo run --release --example golden_serve [-- --out DIR]
//! ```
//!
//! For every shipped dataset this fits the fixed golden pipeline (see
//! `fairprep_cli::golden`), serves it on an ephemeral port, replays the
//! golden requests over real HTTP, and writes one fixture file per
//! dataset into `--out` (default `tests/golden_serve/`) holding the
//! requests together with their **byte-exact** response bodies. CI
//! replays the committed fixtures against an in-process server — any
//! byte of drift in the serving path fails the build.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "examples are binaries; the library panic-hygiene lints do not apply"
)]

use fairprep_cli::golden::{golden_bodies, golden_pipeline, GOLDEN_DATASETS};
use fairprep_cli::serve::{http_request, http_request_accept, Registry, ServerHandle};
use fairprep_trace::json::{obj, Value};

fn main() {
    let mut out_dir = std::path::PathBuf::from("tests/golden_serve");
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                if let Some(dir) = iter.next() {
                    out_dir = std::path::PathBuf::from(dir);
                }
            }
            other => {
                eprintln!("usage: golden_serve [--out DIR] (got `{other}`)");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");

    for dataset in GOLDEN_DATASETS {
        let sealed = golden_pipeline(dataset)
            .unwrap_or_else(|e| panic!("golden pipeline `{dataset}` failed: {e}"));
        let fingerprint = sealed.fingerprint.clone();
        let predict_path = format!("/predict/{}", fingerprint.replace(':', "-"));
        let bodies = golden_bodies(dataset).expect("golden requests");

        let mut registry = Registry::new();
        registry.insert(sealed);
        let server = ServerHandle::spawn(registry, 0, 2).expect("spawn server");

        let requests: Vec<Value> = bodies
            .iter()
            .map(|body| {
                let (status, response) =
                    http_request(server.addr(), "POST", &predict_path, Some(body))
                        .expect("request");
                assert_eq!(status, 200, "{dataset}: {response}");
                obj(vec![
                    ("path", Value::Str(predict_path.clone())),
                    ("body", Value::Str(body.clone())),
                    ("status", Value::from_u64(u64::from(status))),
                    ("response", Value::Str(response)),
                ])
            })
            .collect();
        server.stop();

        let fixture = obj(vec![
            ("dataset", Value::Str((*dataset).to_string())),
            ("fingerprint", Value::Str(fingerprint)),
            ("requests", Value::Arr(requests)),
        ])
        .to_json();
        let path = out_dir.join(format!("{dataset}.json"));
        std::fs::write(&path, &fixture).expect("cannot write fixture");
        println!("{} ({} bytes)", path.display(), fixture.len());
    }

    // Golden Prometheus exposition: replay the german golden requests
    // sequentially on one worker with a pinned fake latency, then scrape
    // `/metrics` as Prometheus text. Everything else in the exposition —
    // counters, rings, decision rates, PSI — is deterministic, so the
    // committed bytes replay exactly on any machine.
    let sealed = golden_pipeline("german").expect("golden pipeline");
    let predict_path = format!("/predict/{}", sealed.fingerprint.replace(':', "-"));
    let bodies = golden_bodies("german").expect("golden requests");
    let mut registry = Registry::new();
    registry.insert(sealed);
    let server = ServerHandle::spawn(registry, 0, 1).expect("spawn server");
    server.registry().set_fixed_latency_us(1000);
    for body in &bodies {
        let (status, _) =
            http_request(server.addr(), "POST", &predict_path, Some(body)).expect("request");
        assert_eq!(status, 200);
    }
    let (status, exposition) = http_request_accept(
        server.addr(),
        "GET",
        "/metrics",
        None,
        Some("text/plain; version=0.0.4"),
    )
    .expect("scrape");
    assert_eq!(status, 200);
    server.stop();
    let path = out_dir.join("german.metrics.prom");
    std::fs::write(&path, &exposition).expect("cannot write exposition fixture");
    println!("{} ({} bytes)", path.display(), exposition.len());
}
