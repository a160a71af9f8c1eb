//! `serve_mixed`: a sealed adult pipeline behind the in-process scoring
//! server, under a closed loop of two client threads.
//!
//! One client sends single-row predicts; the other sends 256-row batches and
//! scrapes `/metrics` in Prometheus format about once a second. The loop is
//! closed because scoring callers wait for the decision, and on two cores an
//! open-loop sender would need a timer thread competing with the server.
//! Request rows come from a seeded pool in which about 10% of rows carry a
//! null cell, so the sealed imputer stays on the path. Every response's
//! `score_bits` is checked against `SealedPipeline::score_frame` run in
//! process on the same rows at set-up.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fairprep_cli::serve::{Registry, ServerHandle, WINDOW_LABELS};
use fairprep_core::experiment::Experiment;
use fairprep_core::learners::LogisticRegressionLearner;
use fairprep_core::seal::SealedPipeline;
use fairprep_data::column::{Column, ColumnKind};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::frame::DataFrame;
use fairprep_data::schema::Role;
use fairprep_datasets::{generate_adult, AdultProtected};
use fairprep_fairness::postprocess::RejectOptionClassification;
use fairprep_fairness::preprocess::Reweighing;
use fairprep_impute::inject::{Mechanism, MissingnessInjector};
use fairprep_impute::ModelBasedImputer;
use fairprep_trace::json::{obj, parse, Value};

use crate::metrics::Outcome;
use crate::spans::{Ctx, Recorder, Span};
use crate::stats::{median, ms, percentile, us, CpuTimes};
use crate::{available_cores, derive, Settings};

/// Rows per request of the batch class.
const BATCH_ROWS: usize = 256;

/// Set-up is repeated this often; the median is reported.
const SETUP_REPEATS: usize = 5;

/// The batch client scrapes `/metrics` when this much time has passed
/// since its last scrape.
const SCRAPE_EVERY: Duration = Duration::from_secs(1);

/// Upper bound of the single-row caller's think time between requests.
/// Each pause is drawn uniformly from `0..MAX_THINK_US` µs, so arrivals do
/// not lock onto the phase of the server's 2 ms accept poll; back to back,
/// whether the next connect beats the worker back to `accept` is a race
/// whose odds differ from run to run and move the median between ~0.15 and
/// ~1 ms.
const MAX_THINK_US: u64 = 2_000;

/// Per-cell null rate injected into three columns of the request pool.
/// About 7.5% of generated adult rows already miss a cell; this brings the
/// share of rows carrying a null to about 10%.
const POOL_CELL_NULL_RATE: f64 = 0.01;

/// Per-read socket timeout: a request slower than this is a failure.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A line that every Prometheus scrape of a serving registry contains.
const SCRAPE_MARKER: &str = "fairprep_requests_total";

/// splitmix64: a small seeded generator for request order and think times.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Deterministic permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Renders dataset row `i` as a predict-request row object: every
/// non-label column, missing cells as `null`.
fn row_value(data: &BinaryLabelDataset, i: usize) -> Value {
    let members = data
        .schema()
        .fields()
        .iter()
        .filter(|f| f.role != Role::Label)
        .map(|f| {
            let cell = data
                .frame()
                .column(&f.name)
                .map_or(Value::Null, |col| match col.get(i) {
                    fairprep_data::column::Value::Numeric(x) if !x.is_nan() => Value::Num(x),
                    fairprep_data::column::Value::Categorical(s) => Value::Str(s.to_string()),
                    _ => Value::Null,
                });
            (f.name.as_str(), cell)
        })
        .collect();
    obj(members)
}

/// Builds a scoring frame from request row objects the way the server
/// does: one `Column::from_optional_*` per schema feature, added with
/// `DataFrame::add_column`.
fn frame_of(sealed: &SealedPipeline, rows: &[&Value]) -> Result<DataFrame, String> {
    let mut frame = DataFrame::new();
    for field in sealed.schema().fields() {
        if field.role == Role::Label {
            continue;
        }
        let cells = rows.iter().map(|r| r.get(&field.name));
        let column = match field.kind {
            ColumnKind::Numeric => {
                Column::from_optional_f64(cells.map(|c| c.and_then(Value::as_f64)))
            }
            ColumnKind::Categorical => {
                Column::from_optional_strs(cells.map(|c| c.and_then(Value::as_str)))
            }
        };
        frame
            .add_column(&field.name, column)
            .map_err(|e| e.to_string())?;
    }
    Ok(frame)
}

/// A response-shaped document for scored rows, as the server renders it.
fn response_doc(fingerprint: &str, scored: &[fairprep_core::seal::ScoredRow]) -> Value {
    let predictions = scored
        .iter()
        .map(|row| {
            obj(vec![
                ("privileged", Value::Bool(row.privileged)),
                ("dropped", Value::Bool(row.dropped())),
                ("score", row.score.map_or(Value::Null, Value::Num)),
                ("score_bits", row.score.map_or(Value::Null, Value::bits)),
                ("decision", row.decision.map_or(Value::Null, Value::Num)),
            ])
        })
        .collect();
    obj(vec![
        ("model", Value::Str(fingerprint.to_string())),
        ("n", Value::from_u64(scored.len() as u64)),
        ("predictions", Value::Arr(predictions)),
    ])
}

/// Score bit patterns as the server renders them (`None` = dropped row).
fn score_bits(sealed: &SealedPipeline, rows: &[&Value]) -> Result<Vec<Option<String>>, String> {
    let scored = sealed
        .score_frame(frame_of(sealed, rows)?)
        .map_err(|e| e.to_string())?;
    Ok(scored
        .iter()
        .map(|r| r.score.map(|s| format!("{:016x}", s.to_bits())))
        .collect())
}

/// One request the clients send, with its expected score bits.
struct Request {
    body: String,
    expected: Vec<Option<String>>,
}

/// The seeded request pool: single-row and 256-row bodies.
struct Pool {
    singles: Vec<Request>,
    batches: Vec<Request>,
}

/// The pool's request rows in a seeded order, and how many carry a null.
fn build_pool(rows: usize, seed: u64) -> Result<(Vec<Value>, usize), String> {
    let data = generate_adult(rows, derive(seed, "serve_mixed/pool"), AdultProtected::Race)
        .map_err(|e| e.to_string())?;
    let protected = data.protected().name.clone();
    let targets: Vec<&str> = data
        .schema()
        .feature_names()
        .into_iter()
        .filter(|c| *c != protected)
        .take(3)
        .collect();
    let data = MissingnessInjector::new(
        &targets,
        Mechanism::Mcar {
            rate: POOL_CELL_NULL_RATE,
        },
    )
    .inject(&data, derive(seed, "serve_mixed/pool-nulls"))
    .map_err(|e| e.to_string())?;
    let with_nulls = data.frame().incomplete_rows().len();
    let order = permutation(data.n_rows(), derive(seed, "serve_mixed/order"));
    Ok((
        order.iter().map(|&i| row_value(&data, i)).collect(),
        with_nulls,
    ))
}

impl Pool {
    /// Renders the request bodies and scores every request in process.
    fn new(rows: &[Value], sealed: &SealedPipeline) -> Result<Pool, String> {
        let singles = rows
            .iter()
            .map(|r| {
                Ok(Request {
                    body: obj(vec![("row", r.clone())]).to_json(),
                    expected: score_bits(sealed, &[r])?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let batches = rows
            .chunks_exact(BATCH_ROWS)
            .map(|chunk| {
                let refs: Vec<&Value> = chunk.iter().collect();
                Ok(Request {
                    body: obj(vec![("rows", Value::Arr(chunk.to_vec()))]).to_json(),
                    expected: score_bits(sealed, &refs)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if batches.is_empty() {
            return Err(format!("the pool needs at least {BATCH_ROWS} rows"));
        }
        Ok(Pool { singles, batches })
    }
}

/// Seals the served pipeline: `lr`, `model-based`, `reweighing` and
/// `reject-option` on adult rows with injected missingness.
fn seal(train_rows: usize, seed: u64) -> Result<SealedPipeline, String> {
    let data = generate_adult(
        train_rows,
        derive(seed, "serve_mixed/train"),
        AdultProtected::Race,
    )
    .and_then(|d| crate::lifecycle::inject_missing(&d, 0.1, derive(seed, "serve_mixed/inject")))
    .map_err(|e| e.to_string())?;
    let (_, sealed) = Experiment::builder("adult", data)
        .seed(derive(seed, "serve_mixed/run"))
        .learner(LogisticRegressionLearner { tuned: false })
        .missing_value_handler(ModelBasedImputer::default())
        .preprocessor(Reweighing)
        .postprocessor(RejectOptionClassification::default())
        .build()
        .and_then(Experiment::run_sealed)
        .map_err(|e| e.to_string())?;
    Ok(sealed)
}

/// The registry with the four-alert set the telemetry bench arms.
fn registry(sealed: SealedPipeline) -> Result<Registry, String> {
    let mut registry = Registry::new();
    registry.insert(sealed);
    let psi_column = registry
        .drift_columns()
        .into_iter()
        .next()
        .ok_or("the sealed pipeline tracks no drift column")?;
    let specs = format!(
        r#"[{{"name": "di-floor", "metric": "disparate_impact", "window": "1k",
             "trip": 0.05, "clear": 0.1, "for": 1000000}},
           {{"name": "latency-p99", "metric": "p99_latency_us", "window": "1k",
             "trip": 1e12, "for": 1000000}},
           {{"name": "error-burst", "metric": "error_rate", "window": "1k",
             "trip": 0.5, "clear": 0.25, "for": 1000000}},
           {{"name": "drift", "metric": "psi", "column": "{psi_column}",
             "window": "1k", "trip": 1e12, "for": 1000000}}]"#
    );
    registry.arm_alerts(&fairprep_trace::alert::parse_specs(&specs, &WINDOW_LABELS)?)?;
    Ok(registry)
}

/// An HTTP/1.1 client that keeps its connection unless the server closes
/// it, and reads each response by `Content-Length`.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened.
    pub connects: u64,
}

impl Client {
    /// A client for `addr`; connects lazily.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Sends one request and returns `(status, body)`. A reused
    /// connection the server closed while idle is reopened once.
    pub fn request(
        &mut self,
        path: &str,
        body: Option<&str>,
        accept: Option<&str>,
        rec: &Recorder,
        ctx: Ctx,
    ) -> Result<(u16, String), String> {
        let reused = self.conn.is_some();
        match self.exchange(path, body, accept, rec, ctx) {
            Err(_) if reused => {
                self.conn = None;
                self.exchange(path, body, accept, rec, ctx)
            }
            other => other,
        }
    }

    fn exchange(
        &mut self,
        path: &str,
        body: Option<&str>,
        accept: Option<&str>,
        rec: &Recorder,
        ctx: Ctx,
    ) -> Result<(u16, String), String> {
        if self.conn.is_none() {
            let stream = rec
                .span(ctx, "client.connect", |_| TcpStream::connect(self.addr))
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(READ_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().ok_or("no connection")?;
        let result = rec.span(ctx, "client.exchange", |_| {
            exchange_on(conn, self.addr, path, body, accept)
        });
        match result {
            Ok((status, body, close)) => {
                if close {
                    self.conn = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Writes one request on `conn` and reads its response. Returns status,
/// body, and whether the server will close the connection.
fn exchange_on(
    conn: &mut BufReader<TcpStream>,
    addr: SocketAddr,
    path: &str,
    body: Option<&str>,
    accept: Option<&str>,
) -> Result<(u16, String, bool), String> {
    let method = if body.is_some() { "POST" } else { "GET" };
    let payload = body.unwrap_or("");
    let accept = accept.map_or(String::new(), |a| format!("Accept: {a}\r\n"));
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n{accept}Content-Length: {}\r\n\r\n",
        payload.len()
    );
    request.push_str(payload);
    conn.get_mut()
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;

    let mut line = String::new();
    if conn
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?
        == 0
    {
        return Err("connection closed before the response".to_string());
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut length = None;
    let mut close = line.starts_with("HTTP/1.0");
    loop {
        line.clear();
        if conn
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            return Err("connection closed inside the response head".to_string());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("bad length: {e}"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let mut raw = vec![0u8; length];
    conn.read_exact(&mut raw)
        .map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(raw).map_err(|_| "body is not UTF-8".to_string())?;
    Ok((status, body, close))
}

/// Whether a predict response carries exactly the expected score bits.
fn response_matches(body: &str, expected: &[Option<String>]) -> bool {
    let Ok(doc) = parse(body) else {
        return false;
    };
    let Some(predictions) = doc.get("predictions").and_then(Value::as_array) else {
        return false;
    };
    predictions.len() == expected.len()
        && predictions
            .iter()
            .zip(expected)
            .all(|(p, want)| match (p.get("score_bits"), want) {
                (Some(Value::Str(got)), Some(want)) => got == want,
                (Some(Value::Null), None) => true,
                _ => false,
            })
}

/// Tallies of one request class.
#[derive(Debug, Default)]
struct ClassStats {
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl ClassStats {
    /// Records one request: its round-trip time, taken before the
    /// response was checked, and the check's verdict.
    fn record(&mut self, class: &str, elapsed: Duration, ok: Result<bool, String>) {
        self.attempted += 1;
        match ok {
            Ok(true) => self.latencies_us.push(us(elapsed)),
            Ok(false) => {
                self.failed += 1;
                eprintln!("{class}: response differs from the in-process score");
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("{class}: {e}");
            }
        }
    }
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
struct LoadStats {
    single: ClassStats,
    batch: ClassStats,
    scrape: ClassStats,
    connects: u64,
    wall: Duration,
}

impl LoadStats {
    fn requests(&self) -> u64 {
        self.single.attempted + self.batch.attempted + self.scrape.attempted
    }
}

/// Checks a predict response: status 200 and the expected score bits.
fn predict_ok(
    resp: Result<(u16, String), String>,
    expected: &[Option<String>],
) -> Result<bool, String> {
    let (status, body) = resp?;
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    Ok(response_matches(&body, expected))
}

/// Runs both client threads for `length` against `addr`.
fn closed_loop(
    addr: SocketAddr,
    path: &str,
    pool: &Pool,
    length: Duration,
    think_seed: u64,
    rec: &Recorder,
) -> LoadStats {
    let started = Instant::now();
    let deadline = started + length;
    let (single, (batch, scrape, batch_connects), single_connects) = std::thread::scope(|scope| {
        let singles = scope.spawn(|| {
            let mut client = Client::new(addr);
            let mut stats = ClassStats::default();
            let mut think = SplitMix(think_seed);
            for request in pool.singles.iter().cycle() {
                std::thread::sleep(Duration::from_micros(think.below(MAX_THINK_US)));
                if Instant::now() >= deadline {
                    break;
                }
                let ctx = rec.new_trace(Ctx::default());
                let t = Instant::now();
                let resp = rec.span(ctx, "client.predict_row", |ctx| {
                    client.request(path, Some(&request.body), None, rec, ctx)
                });
                let elapsed = t.elapsed();
                stats.record(
                    "single-row predict",
                    elapsed,
                    predict_ok(resp, &request.expected),
                );
            }
            (stats, client.connects)
        });
        let batches = scope.spawn(|| {
            let mut client = Client::new(addr);
            let mut stats = ClassStats::default();
            let mut scrapes = ClassStats::default();
            let mut last_scrape = Instant::now();
            for request in pool.batches.iter().cycle() {
                if Instant::now() >= deadline {
                    break;
                }
                let ctx = rec.new_trace(Ctx::default());
                let t = Instant::now();
                let resp = rec.span(ctx, "client.predict_batch", |ctx| {
                    client.request(path, Some(&request.body), None, rec, ctx)
                });
                let elapsed = t.elapsed();
                stats.record(
                    "batch predict",
                    elapsed,
                    predict_ok(resp, &request.expected),
                );
                if last_scrape.elapsed() >= SCRAPE_EVERY {
                    last_scrape = Instant::now();
                    let ctx = rec.new_trace(Ctx::default());
                    let t = Instant::now();
                    let resp = rec.span(ctx, "client.scrape", |ctx| {
                        client.request("/metrics", None, Some("text/plain"), rec, ctx)
                    });
                    let elapsed = t.elapsed();
                    let ok = resp.and_then(|(status, body)| {
                        if status == 200 {
                            Ok(body.contains(SCRAPE_MARKER))
                        } else {
                            Err(format!("status {status}"))
                        }
                    });
                    scrapes.record("scrape", elapsed, ok);
                }
            }
            (stats, scrapes, client.connects)
        });
        let (single, single_connects) = singles.join().expect("single-row client panicked");
        let batch = batches.join().expect("batch client panicked");
        (single, batch, single_connects)
    });
    LoadStats {
        single,
        batch,
        scrape,
        connects: single_connects + batch_connects,
        wall: started.elapsed(),
    }
}

/// Median wall time in µs of the spans named `name`.
fn median_us(spans: &[Span], name: &str) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e3)
        .collect();
    median(&v).unwrap_or(0.0)
}

/// Times the server's in-process request steps on pool requests: JSON
/// parse, frame build, `score_frame`, and rendering the response.
fn in_process_steps(sealed: &SealedPipeline, pool: &Pool, rec: &Recorder) -> Result<(), String> {
    let rounds = [
        (
            &pool.singles,
            [
                "trace.parse_row",
                "serve.frame_row",
                "core.score_row",
                "trace.render_row",
            ],
        ),
        (
            &pool.batches,
            [
                "trace.parse_batch",
                "serve.frame_batch",
                "core.score_batch",
                "trace.render_batch",
            ],
        ),
    ];
    for (requests, names) in rounds {
        // Batches are few; repeat them so their medians rest on enough calls.
        let repeats = (pool.singles.len() / requests.len()).clamp(1, 32);
        for request in requests.iter().cycle().take(requests.len() * repeats) {
            let root = rec.new_trace(Ctx::default());
            rec.span(root, "serve.in_process", |ctx| {
                in_process_request(sealed, &request.body, rec, ctx, names)
            })?;
        }
    }
    Ok(())
}

/// One request's server-side steps, each in its own span.
fn in_process_request(
    sealed: &SealedPipeline,
    body: &str,
    rec: &Recorder,
    ctx: Ctx,
    [parse_name, frame_name, score_name, render_name]: [&'static str; 4],
) -> Result<(), String> {
    let doc = rec
        .span(ctx, parse_name, |_| parse(body))
        .map_err(|e| format!("bad request body: {e}"))?;
    let rows: Vec<&Value> = match (doc.get("row"), doc.get("rows").and_then(Value::as_array)) {
        (Some(row), _) => vec![row],
        (None, Some(rows)) => rows.iter().collect(),
        (None, None) => return Err("request without rows".to_string()),
    };
    let frame = rec.span(ctx, frame_name, |_| frame_of(sealed, &rows))?;
    let scored = rec
        .span(ctx, score_name, |_| sealed.score_frame(frame))
        .map_err(|e| e.to_string())?;
    let rendered = rec.span(ctx, render_name, |_| {
        response_doc(&sealed.fingerprint, &scored).to_json()
    });
    std::hint::black_box(rendered);
    Ok(())
}

/// A served pipeline and what its set-up cost.
struct SetUp {
    server: ServerHandle,
    path: String,
    /// Requests with expected scores, when asked for.
    pool: Option<Pool>,
    secs: f64,
    seal_ms: f64,
}

/// One set-up: seal the pipeline, arm the registry, spawn the server and
/// warm it up with pool rows. With `want_pool`, the request pool and its
/// expected scores (and, when tracing, the in-process step timings) are
/// computed from the sealed pipeline outside the timed part.
fn set_up(
    s: &Settings,
    cores: usize,
    rows: &[Value],
    want_pool: bool,
    rec: &Recorder,
) -> Result<SetUp, String> {
    let t = Instant::now();
    let sealed = seal(s.scale.serve_train_rows, s.seed)?;
    let mut elapsed = t.elapsed();
    let seal_ms = ms(elapsed);
    let pool = if want_pool {
        let pool = Pool::new(rows, &sealed)?;
        if rec.is_enabled() {
            in_process_steps(&sealed, &pool, rec)?;
        }
        Some(pool)
    } else {
        None
    };
    let path = format!("/predict/{}", sealed.fingerprint.replace(':', "-"));
    let t = Instant::now();
    let server = ServerHandle::spawn(registry(sealed)?, 0, cores)?;
    warm_up(server.addr(), &path, rows)?;
    elapsed += t.elapsed();
    Ok(SetUp {
        server,
        path,
        pool,
        secs: elapsed.as_secs_f64(),
        seal_ms,
    })
}

/// Runs `serve_mixed`.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let cores = available_cores();
    let rec = Recorder::new(s.trace);
    let (pool_rows, with_nulls) = build_pool(s.scale.serve_pool_rows, s.seed)?;
    let SetUp {
        server,
        path,
        pool,
        secs,
        seal_ms,
    } = set_up(s, cores, &pool_rows, true, &rec)?;
    let mut setup_s = vec![secs];
    let mut seals_ms = vec![seal_ms];
    let mut pool = pool.ok_or("no request pool")?;
    if s.corrupt_expected {
        if let Some(Some(bits)) = pool.singles[0].expected.first_mut() {
            let flipped = u64::from_str_radix(bits, 16).map_err(|e| e.to_string())? ^ 1;
            *bits = format!("{flipped:016x}");
        }
    }

    let mut out = Outcome {
        checks_passed: true,
        ..Outcome::default()
    };
    #[allow(clippy::cast_precision_loss)]
    let null_share = with_nulls as f64 / pool_rows.len() as f64;
    out.note(format!(
        "train_rows={} pool_rows={} rows_with_nulls={with_nulls} ({null_share:.3}) batch_rows={BATCH_ROWS} server_workers={cores} client_threads=2",
        s.scale.serve_train_rows,
        pool_rows.len(),
    ));

    let untraced_len = if s.trace { s.seconds / 2 } else { s.seconds };
    let think_seed = derive(s.seed, "serve_mixed/think");
    let cpu = CpuTimes::now();
    let load = closed_loop(
        server.addr(),
        &path,
        &pool,
        untraced_len,
        think_seed,
        &Recorder::new(false),
    );
    tally(&mut out, "untraced", &load);
    if let Some(cpu) = cpu {
        out.note(cpu.steal_note());
    }
    let single_p50 = median(&load.single.latencies_us).ok_or("no successful single-row predict")?;
    let single_p99 = percentile(&load.single.latencies_us, 0.99).ok_or("no single-row predicts")?;
    let batch_p50 = median(&load.batch.latencies_us).ok_or("no successful batch predict")?;
    #[allow(clippy::cast_precision_loss)]
    let batch_rows_per_s = BATCH_ROWS as f64 / (batch_p50 / 1e6);
    out.note(format!(
        "predict_p50_us={single_p50} predict_p99_us={single_p99} (single-row round trips, n={})",
        load.single.latencies_us.len()
    ));
    let quantiles: Vec<String> = [0.1, 0.25, 0.75, 0.9, 0.95]
        .iter()
        .filter_map(|&q| {
            percentile(&load.single.latencies_us, q).map(|v| format!("p{}={v:.1}", q * 100.0))
        })
        .collect();
    out.note(format!("single-row quantiles_us {}", quantiles.join(" ")));
    out.note(format!(
        "batch_rows_per_s={batch_rows_per_s} (256 rows / median batch round trip, n={})",
        load.batch.latencies_us.len()
    ));

    if s.trace {
        let traced = closed_loop(
            server.addr(),
            &path,
            &pool,
            s.seconds - untraced_len,
            think_seed,
            &rec,
        );
        tally(&mut out, "traced", &traced);
        let traced_p50 =
            median(&traced.single.latencies_us).ok_or("no traced single-row predict")?;
        out.set("bench.trace_overhead_ms", (traced_p50 - single_p50) / 1e3);
        let mut scrape_us = Vec::new();
        for _ in 0..20 {
            let t = Instant::now();
            std::hint::black_box(server.registry().metrics_prometheus());
            scrape_us.push(us(t.elapsed()));
        }
        server.stop();
        per_layer(
            &mut out,
            &rec.spans(),
            single_p50,
            &load,
            &seals_ms,
            &scrape_us,
        );
        crate::spans::write_jsonl(&crate::spans_path("serve_mixed", s.seed), &rec.spans())?;
        return Ok(out);
    }

    server.stop();
    let rss = crate::stats::peak_rss_mb().ok_or("cannot read peak RSS")?;
    // The remaining set-up repeats come after the load, so the samples
    // span the run instead of one moment of the host's load.
    while setup_s.len() < SETUP_REPEATS {
        let again = set_up(s, cores, &pool_rows, false, &Recorder::new(false))?;
        setup_s.push(again.secs);
        seals_ms.push(again.seal_ms);
        again.server.stop();
    }
    let median_setup = median(&setup_s).ok_or("no set-up timings")?;
    out.set("setup_s", median_setup);
    out.set("latency_p50_ms", single_p50 / 1e3);
    out.set("rows_per_s", batch_rows_per_s);
    out.set("peak_rss_mb", rss);
    out.note(format!(
        "setup_s={median_setup} (median of {}: {setup_s:?}) seal_ms={seals_ms:?}",
        setup_s.len()
    ));
    out.note(format!(
        "peak_rss_mb={rss} (after the load, before later set-ups)"
    ));
    Ok(out)
}

/// Sends a few predicts of each size and one scrape, so lazy paths are
/// warm before timing.
fn warm_up(addr: SocketAddr, path: &str, rows: &[Value]) -> Result<(), String> {
    let off = Recorder::new(false);
    let mut client = Client::new(addr);
    let mut bodies: Vec<String> = rows
        .iter()
        .take(8)
        .map(|r| obj(vec![("row", r.clone())]).to_json())
        .collect();
    bodies.push(
        obj(vec![(
            "rows",
            Value::Arr(rows.iter().take(BATCH_ROWS).cloned().collect()),
        )])
        .to_json(),
    );
    for body in &bodies {
        let (status, resp) = client.request(path, Some(body), None, &off, Ctx::default())?;
        if status != 200 {
            return Err(format!("warm-up predict: status {status}: {resp}"));
        }
    }
    let (status, _) = client.request("/metrics", None, Some("text/plain"), &off, Ctx::default())?;
    if status != 200 {
        return Err(format!("warm-up scrape: status {status}"));
    }
    Ok(())
}

/// Adds one load phase's counts to the outcome and its provenance.
fn tally(out: &mut Outcome, phase: &str, load: &LoadStats) {
    for (class, stats) in [
        ("single", &load.single),
        ("batch", &load.batch),
        ("scrape", &load.scrape),
    ] {
        out.attempted += stats.attempted;
        out.failed += stats.failed;
        out.note(format!(
            "phase={phase} class={class} attempted={} succeeded={} failed={}",
            stats.attempted,
            stats.attempted - stats.failed,
            stats.failed
        ));
    }
    #[allow(clippy::cast_precision_loss)]
    let per_request = load.connects as f64 / load.requests().max(1) as f64;
    out.note(format!(
        "phase={phase} connects={} requests={} connects_per_request={per_request} wall_s={}",
        load.connects,
        load.requests(),
        load.wall.as_secs_f64()
    ));
}

/// The per-layer metrics of a traced run.
fn per_layer(
    out: &mut Outcome,
    spans: &[Span],
    single_p50_us: f64,
    load: &LoadStats,
    seal_ms: &[f64],
    scrape_us: &[f64],
) {
    let steps = [
        ("trace.parse_row", "trace.parse_row_us"),
        ("serve.frame_row", "serve.frame_row_us"),
        ("core.score_row", "core.score_row_us"),
        ("trace.render_row", "trace.render_row_us"),
        ("trace.parse_batch", "trace.parse_batch_us"),
        ("serve.frame_batch", "serve.frame_batch_us"),
        ("core.score_batch", "core.score_batch_us"),
        ("trace.render_batch", "trace.render_batch_us"),
    ];
    let mut in_process_row_us = 0.0;
    for (i, (span, metric)) in steps.iter().enumerate() {
        let v = median_us(spans, span);
        if i < 4 {
            in_process_row_us += v;
        }
        out.set(metric, v);
    }
    let transport = single_p50_us - in_process_row_us;
    out.set("serve.transport_us", transport);
    #[allow(clippy::cast_precision_loss)]
    let connects = load.connects as f64 / load.requests().max(1) as f64;
    out.set("serve.connects_per_request", connects);
    out.set("serve.scrape_us", median(scrape_us).unwrap_or(0.0));
    out.set("core.seal_ms", median(seal_ms).unwrap_or(0.0));
    out.note(format!(
        "in-process single-row sum_us={in_process_row_us} transport_us={transport}; layer map {} (transport must exceed the in-process sum)",
        if transport > in_process_row_us { "holds" } else { "is WRONG" }
    ));
}
