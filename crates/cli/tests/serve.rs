//! Integration tests of the scoring service: endpoint behavior, typed
//! errors, request-head caps, shutdown of idle and busy worker pools,
//! concurrency (N hammering clients reproduce the sequential replay
//! byte-for-byte), `/metrics` semantics — decision rates by protected
//! group and PSI drift against the sealed training profile — and the
//! `fairprep serve` binary end to end.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use fairprep_cli::golden::{golden_bodies, golden_pipeline, row_value};
use fairprep_cli::serve::{http_request, Registry, ServerHandle, MAX_HEADERS, MAX_HEAD_LINE_BYTES};
use fairprep_trace::json::{obj, parse, Value};

mod common;

/// One fitted german pipeline shared by every test in this file (the
/// lifecycle run dominates test time; the server itself is cheap).
fn german() -> &'static (fairprep_core::seal::SealedPipeline, Vec<String>) {
    static PIPELINE: OnceLock<(fairprep_core::seal::SealedPipeline, Vec<String>)> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let sealed = golden_pipeline("german").unwrap();
        let bodies = golden_bodies("german").unwrap();
        (sealed, bodies)
    })
}

/// A scratch directory no other test in this process uses.
fn scratch_dir(stem: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "fairprep_serve_test_{stem}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn spawn_german(threads: usize) -> (ServerHandle, String) {
    let (sealed, _) = german();
    let dir = scratch_dir("registry");
    let path = sealed.save(&dir).unwrap();
    let registry = Registry::open(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(registry.len(), 1);
    let fingerprint = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap()
        .to_string();
    let handle = ServerHandle::spawn(registry, 0, threads).unwrap();
    (handle, fingerprint)
}

#[test]
fn healthz_reports_pipeline_count() {
    let (server, _) = spawn_german(1);
    let (status, body) = http_request(server.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        doc.get("pipelines").and_then(Value::as_u64_any),
        Some(1),
        "{body}"
    );
    server.stop();
}

#[test]
fn unknown_paths_and_pipelines_get_typed_404s() {
    let (server, fingerprint) = spawn_german(1);
    let (status, body) = http_request(server.addr(), "GET", "/nope", None).unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) = http_request(
        server.addr(),
        "POST",
        "/predict/fnv1a64-0000000000000000",
        Some(r#"{"row":{}}"#),
    )
    .unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown pipeline"), "{body}");
    // GET on a predict path is a method error, not a routing error.
    let (status, _) = http_request(
        server.addr(),
        "GET",
        &format!("/predict/{fingerprint}"),
        None,
    )
    .unwrap();
    assert_eq!(status, 405);
    server.stop();
}

#[test]
fn malformed_bodies_are_400_and_counted() {
    let (server, fingerprint) = spawn_german(1);
    let path = format!("/predict/{fingerprint}");
    for bad in [
        "not json at all",
        r#"{"neither":"row nor rows"}"#,
        r#"{"rows":[]}"#,
        r#"{"row":{"checking_status":42}}"#,
    ] {
        let (status, body) = http_request(server.addr(), "POST", &path, Some(bad)).unwrap();
        assert_eq!(status, 400, "{bad} -> {body}");
        assert!(parse(&body).unwrap().get("error").is_some(), "{body}");
    }
    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    assert_eq!(pipe.get("errors").and_then(Value::as_u64_any), Some(4));
    server.stop();
}

/// The member `key` of a JSON object, for editing an artifact in place.
fn member_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Obj(members) = v else {
        panic!("not an object at {key:?}");
    };
    &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
}

/// A sealed artifact is untrusted input: one whose numeric training
/// profile lost a quantile must be refused at load with a typed error,
/// and a registry holding it must fail to open instead of panicking
/// while it sizes the column's drift bins.
#[test]
fn truncated_profile_quantiles_are_refused_at_load() {
    let (sealed, _) = german();
    let dir = scratch_dir("truncated");
    let path = sealed.save(&dir).unwrap();
    let mut artifact = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let Value::Arr(columns) = member_mut(member_mut(&mut artifact, "train_profile"), "columns")
    else {
        panic!("profile columns are not an array");
    };
    let numeric = columns
        .iter_mut()
        .map(|column| member_mut(column, "profile"))
        .find(|profile| profile.get("kind").and_then(Value::as_str) == Some("numeric"))
        .unwrap();
    let Value::Arr(quantiles) = member_mut(numeric, "quantiles") else {
        panic!("quantiles are not an array");
    };
    quantiles.pop().unwrap();
    std::fs::write(&path, artifact.to_json()).unwrap();

    let loaded = fairprep_core::seal::SealedPipeline::load(&path);
    let opened = std::panic::catch_unwind(|| Registry::open(&dir));
    std::fs::remove_dir_all(&dir).ok();
    let err = loaded
        .err()
        .expect("a truncated quantile summary must not load");
    assert!(err.to_string().contains("quantiles"), "{err}");
    let opened = opened.expect("Registry::open must not panic");
    assert!(opened.is_err(), "a registry with a damaged artifact opened");
}

/// Sends `request` verbatim on a fresh connection and returns every byte
/// the server answers before it closes. A server that refuses a request
/// it has not read to the end may reset the connection after its
/// response, so a read error ends the exchange like EOF does.
fn raw_exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).unwrap();
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    while let Ok(n) = stream.read(&mut chunk) {
        if n == 0 {
            break;
        }
        response.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8(response).unwrap()
}

/// A `GET /healthz` request head carrying `headers` verbatim.
fn healthz_with(headers: &str) -> String {
    format!("GET /healthz HTTP/1.1\r\nHost: test\r\n{headers}\r\n")
}

/// `count` distinct header lines.
fn header_lines(count: usize) -> String {
    (0..count).map(|i| format!("X-Filler-{i}: v\r\n")).collect()
}

/// A header line of exactly `len` bytes, CRLF included.
fn header_line_of(len: usize) -> String {
    let prefix = "X-Long: ";
    format!("{prefix}{}\r\n", "a".repeat(len - prefix.len() - 2))
}

/// Request heads are capped per line and per header count: one byte
/// past either cap is a typed JSON `431`, the caps themselves are
/// served, and the server keeps answering afterwards.
#[test]
fn oversized_request_heads_get_typed_431s() {
    let (server, _) = spawn_german(1);
    let addr = server.addr();
    // Host plus MAX_HEADERS - 1 fillers is exactly MAX_HEADERS headers.
    let at_limit = [
        healthz_with(&header_line_of(MAX_HEAD_LINE_BYTES)),
        healthz_with(&header_lines(MAX_HEADERS - 1)),
    ];
    for request in &at_limit {
        let response = raw_exchange(addr, request.as_bytes());
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    }
    let over_limit = [
        healthz_with(&header_line_of(MAX_HEAD_LINE_BYTES + 1)),
        healthz_with(&header_lines(MAX_HEADERS)),
        format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_LINE_BYTES)),
    ];
    for request in &over_limit {
        let response = raw_exchange(addr, request.as_bytes());
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(
            head.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{head}"
        );
        assert!(
            head.contains("\r\nContent-Type: application/json\r\n"),
            "{head}"
        );
        assert!(parse(body).unwrap().get("error").is_some(), "{body}");
    }
    let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    server.stop();
}

/// Runs `finish` (a stop or a drop) on a watchdog thread and fails the
/// test if it has not returned within 10 s, so a broken wake-up fails
/// instead of hanging the suite.
fn returns_promptly(what: &str, finish: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        finish();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what} did not return within 10 s"));
}

/// Once the server has shut down, its port refuses connections.
fn assert_closed(addr: SocketAddr) {
    assert!(
        TcpStream::connect(addr).is_err(),
        "{addr} still accepts connections after shutdown"
    );
}

#[test]
fn stop_wakes_every_worker_idle_in_accept() {
    for threads in [1, 2, 8] {
        let (server, _) = spawn_german(threads);
        let addr = server.addr();
        // Give every worker time to block in `accept`. No signal shows a
        // worker parked there; a worker that has not reached `accept` yet
        // takes the same exit, so the sleep only makes the idle case the
        // likely one.
        std::thread::sleep(Duration::from_millis(50));
        returns_promptly(
            &format!("stop() with {threads} idle worker(s)"),
            move || {
                server.stop();
            },
        );
        assert_closed(addr);
    }
}

#[test]
fn stop_returns_right_after_a_served_request() {
    let (server, _) = spawn_german(2);
    let addr = server.addr();
    let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    returns_promptly("stop() after a request", move || server.stop());
    assert_closed(addr);
}

#[test]
fn dropping_the_handle_shuts_the_server_down() {
    let (server, _) = spawn_german(2);
    let addr = server.addr();
    let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    returns_promptly("dropping the handle", move || drop(server));
    assert_closed(addr);
}

/// The core concurrency claim: many clients hammering `/predict` from
/// many threads receive, request for request, the exact bytes a
/// sequential replay of the same requests produces.
#[test]
fn concurrent_hammering_matches_sequential_replay() {
    let (sealed, bodies) = german();
    let (server, fingerprint) = spawn_german(4);
    let path = format!("/predict/{fingerprint}");
    let _ = sealed;

    // Sequential baseline, one response per request body.
    let expected: Vec<String> = bodies
        .iter()
        .map(|body| {
            let (status, response) =
                http_request(server.addr(), "POST", &path, Some(body)).unwrap();
            assert_eq!(status, 200, "{response}");
            response
        })
        .collect();

    // 8 client threads, each replaying every request 5 times against the
    // 4 server workers, all checking byte equality with the baseline.
    let addr = server.addr();
    std::thread::scope(|scope| {
        for client in 0..8 {
            let path = &path;
            let bodies = &bodies;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..5 {
                    for (i, body) in bodies.iter().enumerate() {
                        let (status, response) =
                            http_request(addr, "POST", path, Some(body)).unwrap();
                        assert_eq!(status, 200, "client {client} round {round}");
                        assert_eq!(
                            &response, &expected[i],
                            "client {client} round {round} request {i} drifted"
                        );
                    }
                }
            });
        }
    });

    // 1 sequential pass + 8 clients x 5 rounds, every request counted.
    let (_, metrics) = http_request(addr, "GET", "/metrics", None).unwrap();
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    let n_requests = (bodies.len() * (1 + 8 * 5)) as u64;
    assert_eq!(
        pipe.get("requests").and_then(Value::as_u64_any),
        Some(n_requests),
        "{metrics}"
    );
    let latency = pipe.get("latency").unwrap();
    assert_eq!(
        latency.get("count").and_then(Value::as_u64_any),
        Some(n_requests)
    );
    assert!(latency.get("p50_us").and_then(Value::as_u64_any).unwrap() > 0);
    assert!(
        latency.get("p99_us").and_then(Value::as_u64_any).unwrap()
            >= latency.get("p50_us").and_then(Value::as_u64_any).unwrap()
    );
    server.stop();
}

/// `/metrics` carries per-group decision rates and per-column PSI; a
/// traffic distribution matching training shows no drift warning, while
/// systematically shifted traffic must trip the PSI threshold.
#[test]
fn metrics_report_decision_rates_and_psi_drift() {
    let (server, fingerprint) = spawn_german(2);
    let path = format!("/predict/{fingerprint}");
    let data = fairprep_cli::golden::golden_dataset("german").unwrap();

    // Replay 120 training rows: in-distribution traffic.
    for i in 0..120 {
        let (status, _) =
            http_request(server.addr(), "POST", &path, Some(&row_body(&data, i))).unwrap();
        assert_eq!(status, 200);
    }

    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    let decisions = pipe.get("decisions").unwrap();
    // Both groups appear in 120 german rows, and some decisions must be
    // favorable: the decision-rate cells are live, not placeholders.
    let total: u64 = [
        "privileged_favorable",
        "privileged_unfavorable",
        "unprivileged_favorable",
        "unprivileged_unfavorable",
    ]
    .iter()
    .map(|k| decisions.get(k).and_then(Value::as_u64_any).unwrap())
    .sum();
    assert_eq!(total, 120, "{metrics}");
    assert!(
        decisions.get("privileged_rate").unwrap().as_f64().is_some(),
        "{metrics}"
    );
    assert!(
        decisions
            .get("unprivileged_rate")
            .unwrap()
            .as_f64()
            .is_some(),
        "{metrics}"
    );
    // In-distribution traffic: no column should warn yet.
    let drift = pipe.get("drift").and_then(Value::as_array).unwrap();
    assert!(!drift.is_empty(), "{metrics}");
    let warned = |doc: &Value| {
        doc.get("drift")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter(|d| d.get("warn") == Some(&Value::Bool(true)))
            .count()
    };
    assert_eq!(warned(&pipe), 0, "{metrics}");

    // Now skew the traffic hard: clamp every numeric feature to its row-0
    // value (collapsing the distribution to a point) for 200 requests.
    let body = row_body(&data, 0);
    for _ in 0..200 {
        let (status, _) = http_request(server.addr(), "POST", &path, Some(&body)).unwrap();
        assert_eq!(status, 200);
    }
    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    assert!(warned(&pipe) > 0, "skewed traffic must warn: {metrics}");
    server.stop();
}

/// E12: the rolling-window monitors catch a mid-stream traffic shift
/// that the cumulative metrics dilute into silence. After 7,600
/// in-distribution rows, 400 rows of collapsed (row-0-only) traffic are
/// 5% of lifetime — lifetime PSI stays under the warn threshold — but
/// 40% of the last-1k window, which must warn.
#[test]
fn rolling_windows_catch_shift_that_lifetime_metrics_dilute() {
    let (server, fingerprint) = spawn_german(2);
    let path = format!("/predict/{fingerprint}");
    let data = fairprep_cli::golden::golden_dataset("german").unwrap();
    let n = data.n_rows();

    // Phase 1: 76 batches x 100 in-distribution rows (cycling the
    // training rows).
    for batch in 0..76 {
        let indices: Vec<usize> = (0..100).map(|i| (batch * 100 + i) % n).collect();
        let (status, body) = http_request(
            server.addr(),
            "POST",
            &path,
            Some(&rows_body(&data, &indices)),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
    }
    // Phase 2: the shift — 4 batches of 100 copies of row 0.
    for _ in 0..4 {
        let indices = vec![0usize; 100];
        let (status, body) = http_request(
            server.addr(),
            "POST",
            &path,
            Some(&rows_body(&data, &indices)),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
    }

    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    let warn_count = |scope: &Value| {
        scope
            .get("drift")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter(|d| d.get("warn") == Some(&Value::Bool(true)))
            .count()
    };
    let max_psi = |scope: &Value| {
        scope
            .get("drift")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|d| d.get("psi").and_then(Value::as_f64))
            .fold(0.0f64, f64::max)
    };

    // Cumulative view: quiet. The 400 shifted rows are 5% of 8,000.
    assert_eq!(warn_count(&pipe), 0, "lifetime must stay quiet: {metrics}");

    // Rolling 1k window: 40% shifted traffic — the alarm fires.
    let window_1k = pipe.get("window_1k").unwrap();
    assert_eq!(
        window_1k.get("requests").and_then(Value::as_u64_any),
        Some(80),
        "{metrics}"
    );
    assert!(
        warn_count(window_1k) > 0,
        "window_1k must warn on the shift: {metrics}"
    );
    assert!(max_psi(window_1k) > max_psi(&pipe), "{metrics}");

    // Windowed latency and fairness numbers are live alongside.
    assert!(
        window_1k
            .get("latency")
            .and_then(|l| l.get("p50_us"))
            .and_then(Value::as_u64_any)
            .unwrap()
            > 0
    );
    let w_decisions = window_1k.get("decisions").unwrap();
    assert!(w_decisions.get("disparate_impact").is_some(), "{metrics}");
    println!(
        "E12 german: lifetime max PSI {:.4} ({} warns), window_1k max PSI {:.4} ({} warns)",
        max_psi(&pipe),
        warn_count(&pipe),
        max_psi(window_1k),
        warn_count(window_1k)
    );
    server.stop();
}

/// Renders dataset rows `indices` as one batched predict body.
fn rows_body(data: &fairprep_data::dataset::BinaryLabelDataset, indices: &[usize]) -> String {
    let rows = indices.iter().map(|&i| row_value(data, i)).collect();
    obj(vec![("rows", Value::Arr(rows))]).to_json()
}

/// Renders dataset row `i` as a single-row predict body.
fn row_body(data: &fairprep_data::dataset::BinaryLabelDataset, i: usize) -> String {
    obj(vec![("row", row_value(data, i))]).to_json()
}

/// The first (only) pipeline object of a `/metrics` JSON scrape.
fn scrape_pipe(addr: SocketAddr) -> Value {
    let (status, metrics) = http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200, "{metrics}");
    match parse(&metrics).unwrap().get("pipelines") {
        Some(Value::Obj(members)) if members.len() == 1 => members[0].1.clone(),
        other => panic!("expected exactly one pipeline: {other:?}"),
    }
}

fn count(doc: &Value, key: &str) -> u64 {
    doc.get(key)
        .and_then(Value::as_u64_any)
        .unwrap_or_else(|| panic!("`{key}` must be a count: {doc:?}"))
}

/// The `fairprep` binary end to end: a pipeline sealed by `fairprep run`
/// is served by `fairprep serve --port 0` with a full access log. Eight
/// concurrent clients replay every committed golden german request body
/// between two `/metrics` scrapes, whose lifetime counters must grow
/// and whose rolling window and decision rates must be live. The
/// Prometheus exposition must be typed and parseable, the access log
/// complete and well-formed, and `fairprep tail` must render it.
#[test]
fn cli_serves_a_sealed_pipeline_over_http() {
    let dir = scratch_dir("cli");
    std::fs::create_dir_all(&dir).unwrap();
    let registry = dir.join("registry");
    let log = dir.join("access.log.jsonl");
    let fingerprint = common::seal_german(&registry);
    let server = common::serve(
        &registry,
        &[
            "--access-log",
            log.to_str().unwrap(),
            "--sample-rate",
            "1.0",
        ],
    );
    let addr = server.addr;
    // Every request that reaches the server leaves one access record;
    // `common::serve` sent one health probe.
    let mut sent = 1;

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden_serve/german.json");
    let golden = parse(&std::fs::read_to_string(golden).unwrap()).unwrap();
    let bodies: Vec<&str> = golden
        .get("requests")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|request| request.get("body").and_then(Value::as_str).unwrap())
        .collect();
    let path = format!("/predict/{fingerprint}");
    // 8 concurrent clients, each replaying every body 5 times.
    let per_phase = (8 * 5 * bodies.len()) as u64;
    let hammer = || {
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        for body in &bodies {
                            let (status, response) =
                                http_request(addr, "POST", &path, Some(body)).unwrap();
                            assert_eq!(status, 200, "{response}");
                        }
                    }
                });
            }
        });
    };

    hammer();
    let first = scrape_pipe(addr);
    hammer();
    let second = scrape_pipe(addr);
    sent += 2 * per_phase + 2;
    for key in ["requests", "rows_scored"] {
        let (before, after) = (count(&first, key), count(&second, key));
        assert!(
            after > before && before > 0,
            "{key} not monotone: {before} -> {after}"
        );
    }
    assert_eq!(count(&first, "requests"), per_phase, "{first:?}");
    assert_eq!(count(&second, "requests"), 2 * per_phase, "{second:?}");
    assert_eq!(count(&second, "errors"), 0, "{second:?}");
    let window = second.get("window_1k").unwrap();
    assert!(count(window, "requests") > 0, "{window:?}");
    let window_drift = window.get("drift").and_then(Value::as_array).unwrap();
    assert!(!window_drift.is_empty(), "windowed drift must be tracked");
    let decisions = second.get("decisions").unwrap();
    for rate in ["privileged_rate", "unprivileged_rate"] {
        let value = decisions.get(rate).and_then(Value::as_f64);
        assert!(
            value.is_some_and(|v| v > 0.0),
            "{rate} must be nonzero: {second:?}"
        );
    }
    let drift = second.get("drift").and_then(Value::as_array).unwrap();
    assert!(
        !drift.is_empty(),
        "drift tracking must cover at least one column"
    );

    // The same endpoint content-negotiates to Prometheus text: every
    // sample is typed by an earlier `# TYPE` line and carries a numeric
    // value.
    let response = raw_exchange(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: test\r\nAccept: text/plain\r\nConnection: close\r\n\r\n",
    );
    sent += 1;
    let (head, text) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    let content_type = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-type")
                .then(|| value.trim())
        })
        .unwrap_or_else(|| panic!("no Content-Type: {head}"));
    assert!(content_type.starts_with("text/plain"), "{content_type}");
    let mut families = std::collections::BTreeSet::new();
    for line in text.lines() {
        if let Some(typed) = line.strip_prefix("# TYPE ") {
            families.insert(typed.split_whitespace().next().unwrap());
        } else if !line.is_empty() && !line.starts_with('#') {
            let (name, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("sample without a value: {line}"));
            let family = name.split('{').next().unwrap();
            assert!(families.contains(family), "untyped sample: {line}");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
    }
    for family in [
        "fairprep_requests_total",
        "fairprep_decisions_total",
        "fairprep_latency_us",
        "fairprep_drift_psi",
    ] {
        assert!(families.contains(family), "missing family {family}");
    }
    let requests_total: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("fairprep_requests_total{pipeline=\""))
        .and_then(|sample| sample.rsplit_once(' '))
        .and_then(|(_, value)| value.parse().ok())
        .unwrap_or_else(|| panic!("no integer fairprep_requests_total sample: {text}"));
    assert!(requests_total >= count(&second, "requests"), "{text}");

    // Records land after their response is written; wait for the last
    // one, then stop the server so the log is final.
    let complete_lines = || std::fs::read_to_string(&log).unwrap().matches('\n').count() as u64;
    for _ in 0..100 {
        if complete_lines() >= sent {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(server);

    // Every request has exactly one well-formed record with a unique id
    // and span timings that fit inside its total latency.
    let text = std::fs::read_to_string(&log).unwrap();
    let mut ids = std::collections::BTreeSet::new();
    for line in text.lines() {
        let record = parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(
            record.get("event").and_then(Value::as_str),
            Some("access"),
            "{line}"
        );
        assert!(matches!(count(&record, "status"), 200 | 404), "{line}");
        let spans: u64 = ["read_us", "handle_us", "write_us"]
            .iter()
            .map(|key| count(&record, key))
            .sum();
        assert!(
            spans <= count(&record, "latency_us"),
            "span timings exceed total: {line}"
        );
        assert!(ids.insert(count(&record, "id")), "duplicate id: {line}");
    }
    assert_eq!(ids.len() as u64, sent, "one record per request");
    assert!(text.ends_with('\n'), "torn last record");
    common::tail_once(&log);
    std::fs::remove_dir_all(&dir).ok();
}
