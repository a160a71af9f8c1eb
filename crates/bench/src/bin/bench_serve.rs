//! **Scoring-service latency/throughput baseline** — measures the sealed
//! pipeline server end to end (TCP connect, HTTP parse, frame build,
//! imputation, featurization, batched matvec, response render) under
//! 1–64 concurrent clients.
//!
//! Each level spawns N client threads against a server running one
//! worker per available core; every client sends a fixed number of
//! single-row predict requests and records client-observed latencies.
//! The JSON reports per-level p50/p99 (µs) and aggregate throughput.
//!
//! Like the other harnesses, it is honest about its provenance: the
//! JSON records `available_cores` and `build_profile`, so a single-core
//! or debug-build run can never masquerade as the committed release
//! numbers.
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin bench_serve [-- --full --out DIR]
//! ```
//!
//! Quick mode (default, CI) runs levels 1/4/16 with 50 requests per
//! client; `--full` runs 1/2/4/8/16/32/64 with 200 requests per client
//! and is what `results/BENCH_serve.json` is generated from.

use std::fmt::Write as _;
use std::time::Instant;

use fairprep_bench::HarnessArgs;
use fairprep_cli::golden::{golden_bodies, golden_pipeline};
use fairprep_cli::serve::{http_request, Registry, ServerHandle};
use fairprep_data::parallel::available_threads;

struct Level {
    clients: usize,
    requests: usize,
    wall_secs: f64,
    p50_us: u64,
    p99_us: u64,
    throughput_rps: f64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn run_level(
    addr: std::net::SocketAddr,
    path: &str,
    body: &str,
    clients: usize,
    per_client: usize,
) -> Level {
    let started = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(clients * per_client);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let sent = Instant::now();
                        let (status, response) =
                            http_request(addr, "POST", path, Some(body)).expect("request failed");
                        assert_eq!(status, 200, "{response}");
                        local.push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client panicked"));
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let throughput_rps = latencies.len() as f64 / wall_secs.max(1e-9);
    Level {
        clients,
        requests: latencies.len(),
        wall_secs,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        throughput_rps,
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let cores = available_threads();
    let profile = fairprep_bench::build_profile();
    if cores < 2 {
        eprintln!("WARNING: only one core available; concurrency levels cannot scale here.");
        eprintln!("The JSON records available_cores for downstream readers to judge.");
    }

    let (levels, per_client): (&[usize], usize) = if args.full {
        (&[1, 2, 4, 8, 16, 32, 64], 200)
    } else {
        (&[1, 4, 16], 50)
    };

    eprintln!("fitting and sealing the german golden pipeline...");
    let sealed = golden_pipeline("german").expect("golden pipeline");
    let fingerprint = sealed.fingerprint.clone();
    let path = format!("/predict/{}", fingerprint.replace(':', "-"));
    // Single-row body: the latency of the smallest useful request.
    let body = golden_bodies("german").expect("golden bodies").remove(0);

    let mut registry = Registry::new();
    registry.insert(sealed);
    let server = ServerHandle::spawn(registry, 0, cores).expect("spawn server");
    let addr = server.addr();

    let mut measured = Vec::new();
    for &clients in levels {
        // Warm up connections and caches outside the measured region.
        let _ = http_request(addr, "POST", &path, Some(&body)).expect("warmup");
        let level = run_level(addr, &path, &body, clients, per_client);
        eprintln!(
            "clients {:>3}: {:>6} requests in {:.2}s  p50 {:>6} us  p99 {:>6} us  {:>8.0} req/s",
            level.clients,
            level.requests,
            level.wall_secs,
            level.p50_us,
            level.p99_us,
            level.throughput_rps
        );
        measured.push(level);
    }
    server.stop();

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"serve\",\n  \"pipeline\": \"{fingerprint}\",\n  \"available_cores\": {cores},\n  \"build_profile\": \"{profile}\",\n  \"server_threads\": {cores},\n  \"requests_per_client\": {per_client},\n  \"levels\": [\n"
    );
    for (i, level) in measured.iter().enumerate() {
        let comma = if i + 1 < measured.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"clients\": {}, \"requests\": {}, \"wall_secs\": {:.4}, \"p50_us\": {}, \"p99_us\": {}, \"throughput_rps\": {:.1}}}{comma}",
            level.clients, level.requests, level.wall_secs, level.p50_us, level.p99_us,
            level.throughput_rps
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all(&args.out_dir).expect("cannot create output directory");
    let out = args.out_dir.join("BENCH_serve.json");
    std::fs::write(&out, &json).expect("cannot write BENCH_serve.json");
    println!("{}", out.display());
}
