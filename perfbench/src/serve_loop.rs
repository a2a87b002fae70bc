//! The `serve-loopback` workload: an in-process `multipath serve` with the
//! shipped configuration (`ServeConfig::default()`: 64 MiB result cache,
//! queue of 64) and `workers = nproc`, on an ephemeral loopback port,
//! driven as a closed loop by `nproc` clients.
//!
//! The traffic is the session the repository documents for the service,
//! repeated: a cold pass followed by a repeat of the same requests
//! (`crates/cli/tests/serve_smoke.rs`, whose repeat pass must hit the
//! cache; `examples/serve_client.rs`, which sends one six-cell sweep twice),
//! over the grid `docs/serving.md` sizes the cache for (every kernel under
//! the six feature sets). Each round takes fresh data seeds, so its cold
//! pass misses the cache and its repeat pass hits. Each client sends its
//! share of the round's 48 `/v1/run` cells, one `/v1/explain`, and the
//! example's six-cell `/v1/sweep`, at the example's 2k commits, twice.
//! Each client sends its next request only after the previous answer
//! arrives.

use crate::layers::{self, CellSpec, Probing};
use crate::report::{median, metric, percentile, ratio, secs, Checks, EndToEnd, Measured};
use crate::spans::Tracer;
use crate::{Options, Outcome, Scale};
use multipath_core::{SimConfig, StageProfile};
use multipath_serve::{Fetched, ResultCache, RunRequest, ServeConfig, Server, ServerHandle};
use multipath_testkit::{http, mix64, Json, TestRng};
use multipath_workload::{mix, Benchmark};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const FEATURES: [&str; 6] = ["smt", "tme", "rec", "rec-ru", "rec-rs", "rec-rs-ru"];

/// The six cells of `examples/serve_client.rs`'s sweep.
const SWEEP: [(&str, &str); 6] = [
    ("compress", "smt"),
    ("compress", "tme"),
    ("compress", "rec"),
    ("go", "rec"),
    ("go", "rec-rs"),
    ("go", "rec-rs-ru"),
];

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What the clients sent and got back, merged over clients.
#[derive(Default)]
struct LoopLog {
    checks: Checks,
    cold_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    /// Seconds per round (a cold pass and its repeat), every client's.
    round_s: Vec<f64>,
    completed: usize,
    runs: u64,
    explains: u64,
    sweep_cells: u64,
    /// Simulated committed instructions in documents the server computed.
    committed: u64,
    /// Cache-miss bodies and their documents, in client order.
    misses: Vec<(String, Vec<u8>)>,
    wall_s: f64,
}

impl LoopLog {
    fn merge(&mut self, o: LoopLog) {
        self.checks.merge(o.checks);
        self.cold_ms.extend(o.cold_ms);
        self.hit_ms.extend(o.hit_ms);
        self.round_s.extend(o.round_s);
        self.completed += o.completed;
        self.runs += o.runs;
        self.explains += o.explains;
        self.sweep_cells += o.sweep_cells;
        self.committed += o.committed;
        self.misses.extend(o.misses);
    }
}

/// A `/v1/run` or sweep-cell body.
fn cell_body(bench: &str, features: &str, commits: u64, seed: u64) -> String {
    format!(
        "{{\"benches\": [\"{bench}\"], \"features\": \"{features}\", \
         \"commits\": {commits}, \"seed\": {seed}}}"
    )
}

/// One request of a client's round.
#[derive(Debug, Clone)]
enum Request {
    Run(String),
    Explain(String),
    Sweep(String),
}

/// Client `id`'s requests in round `round`: its share of the grid (every
/// kernel under every feature set, in an order shuffled by the workload
/// seed and dealt round-robin to the clients), then one explain request
/// for the next cell of the grid, then the six-cell sweep. Data
/// seeds are unique per (workload seed, round, client) and below 2^53,
/// the JSON parser's exact-integer range.
fn round_requests(seed: u64, round: u64, id: u64, clients: u64, commits: u64) -> Vec<Request> {
    let base = (seed % 1_000_000) * 1_000_000_000 + round * 1_000;
    let mut rng = TestRng::new(mix64(base));
    let mut grid: Vec<(&str, &str)> = Benchmark::ALL
        .iter()
        .flat_map(|b| FEATURES.iter().map(move |&f| (b.name(), f)))
        .collect();
    for i in (1..grid.len()).rev() {
        grid.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut out: Vec<Request> = grid
        .iter()
        .skip(id as usize)
        .step_by(clients as usize)
        .map(|&(b, f)| Request::Run(cell_body(b, f, commits, base)))
        .collect();
    // Explain documents differ widely in size by kernel and feature set,
    // so every run walks the grid in the same order.
    let k = (round * clients + id) as usize;
    out.push(Request::Explain(format!(
        "/v1/explain/{}?commits={commits}&features={}&seed={}",
        Benchmark::ALL[k / FEATURES.len() % Benchmark::ALL.len()].name(),
        FEATURES[k % FEATURES.len()],
        base + 1 + 2 * id
    )));
    let cells: Vec<String> = SWEEP
        .iter()
        .map(|&(b, f)| cell_body(b, f, commits, base + 2 + 2 * id))
        .collect();
    out.push(Request::Sweep(format!(
        "{{\"cells\": [{}]}}",
        cells.join(", ")
    )));
    out
}

/// The committed-instruction counter of a `multipath-stats/v1` document.
fn committed_of(doc: &[u8]) -> u64 {
    let Ok(v) = Json::parse(&String::from_utf8_lossy(doc)) else {
        return 0;
    };
    let names = v.get("counter_names").and_then(Json::as_arr).unwrap_or(&[]);
    let counters = v.get("counters").and_then(Json::as_arr).unwrap_or(&[]);
    names
        .iter()
        .position(|n| n.as_str() == Some("committed"))
        .and_then(|i| counters.get(i))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Sends one request and records it; `first` is the cold pass's answer
/// when this is the repeat pass.
fn send(
    addr: SocketAddr,
    req: &Request,
    first: Option<&[u8]>,
    label: String,
    log: &mut LoopLog,
    tracer: &Tracer,
) -> Option<Vec<u8>> {
    let t = Instant::now();
    let (span, what) = match req {
        Request::Run(_) => ("serve::http POST /v1/run", "run"),
        Request::Explain(_) => ("serve::http GET /v1/explain", "explain"),
        Request::Sweep(_) => ("serve::http POST /v1/sweep", "sweep"),
    };
    let resp = tracer.span(
        span,
        None,
        || label,
        |_| match req {
            Request::Run(body) => http::post_json(addr, "/v1/run", body),
            Request::Explain(path) => http::get(addr, path),
            Request::Sweep(body) => http::post_json(addr, "/v1/sweep", body),
        },
    );
    let ms = secs(t) * 1e3;
    match req {
        Request::Run(_) => log.runs += 1,
        Request::Explain(_) => log.explains += 1,
        Request::Sweep(_) => log.sweep_cells += SWEEP.len() as u64,
    }
    let r = ok(&mut log.checks, resp, what)?;
    log.completed += 1;
    let want = if first.is_none() { "miss" } else { "hit" };
    if let Request::Sweep(_) = req {
        let lines: Vec<Json> = r
            .text()
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .collect();
        let cached = lines
            .iter()
            .filter(|l| l.get("cached") == Some(&Json::Bool(true)))
            .count();
        let want_cached = if first.is_none() { 0 } else { SWEEP.len() };
        log.checks
            .check(lines.len() == SWEEP.len() && cached == want_cached, || {
                format!(
                    "sweep ({want} pass) answered {} lines, {cached} cached",
                    lines.len()
                )
            });
        if first.is_none() {
            log.committed += lines
                .iter()
                .filter_map(|l| l.get("committed").and_then(Json::as_u64))
                .sum::<u64>();
        }
        return Some(r.body);
    }
    let outcome = r.header("x-multipath-cache").unwrap_or("none");
    log.checks.check(outcome == want, || {
        format!("{what} answered from cache {outcome:?}, expected {want:?}")
    });
    if let Some(doc) = first {
        log.checks.check(r.body == doc, || {
            format!("{what} repeated with different bytes: {req:?}")
        });
    }
    if let Request::Run(body) = req {
        match outcome {
            "miss" => {
                log.cold_ms.push(ms);
                log.committed += committed_of(&r.body);
                if log.misses.len() < KEEP_MISSES {
                    log.misses.push((body.clone(), r.body.clone()));
                }
            }
            "hit" => log.hit_ms.push(ms),
            _ => {}
        }
    }
    Some(r.body)
}

/// Cache misses a client keeps for the traced run's guard and replay.
const KEEP_MISSES: usize = 256;

/// One closed-loop client: whole rounds until `deadline`.
fn client(
    addr: SocketAddr,
    id: u64,
    seed: u64,
    commits: u64,
    deadline: Instant,
    tracer: &Tracer,
) -> LoopLog {
    let clients = workers() as u64;
    let mut log = LoopLog::default();
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        let t = Instant::now();
        let requests = round_requests(seed, round, id, clients, commits);
        let key = |pass: &str, k: usize| format!("c{id}-r{round}-{pass}{k}");
        let cold: Vec<Option<Vec<u8>>> = requests
            .iter()
            .enumerate()
            .map(|(k, req)| send(addr, req, None, key("cold", k), &mut log, tracer))
            .collect();
        for (k, (req, doc)) in requests.iter().zip(&cold).enumerate() {
            if let Some(doc) = doc {
                send(addr, req, Some(doc), key("hit", k), &mut log, tracer);
            }
        }
        log.round_s.push(secs(t));
        round += 1;
    }
    log
}

/// Counts a response as one check (status 200) and returns it if it passed.
fn ok(
    checks: &mut Checks,
    resp: Result<http::HttpResponse, String>,
    what: &str,
) -> Option<http::HttpResponse> {
    match resp {
        Ok(r) if r.status == 200 => {
            checks.check(true, String::new);
            Some(r)
        }
        Ok(r) => {
            checks.check(false, || {
                format!("{what}: status {}: {}", r.status, r.text())
            });
            None
        }
        Err(e) => {
            checks.check(false, || format!("{what}: {e}"));
            None
        }
    }
}

/// Runs `workers()` clients against `addr` for `seconds`.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    tracer: &Tracer,
) -> LoopLog {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs: Vec<LoopLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers() as u64)
            .map(|id| {
                s.spawn(move || client(addr, id, seed, scale.serve_commits, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut log = LoopLog::default();
    for l in logs {
        log.merge(l);
    }
    log.wall_s = secs(start);
    log
}

/// Set-up: bind and start a server, then warm it with one health probe
/// and one simulation. The warm-up run counts in `/metrics`.
fn setup(scale: &Scale, checks: &mut Checks, tracer: &Tracer) -> (ServerHandle, f64) {
    let t = Instant::now();
    let handle = tracer.span("serve::Server::bind", None, String::new, |_| {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: workers(),
            ..ServeConfig::default()
        };
        Server::bind(&config).expect("bind a loopback port").start()
    });
    let health = http::get(handle.addr(), "/healthz");
    ok(checks, health, "healthz");
    let warm = format!(
        "{{\"benches\": [\"compress\"], \"commits\": {}, \"seed\": 0}}",
        scale.serve_commits
    );
    ok(
        checks,
        http::post_json(handle.addr(), "/v1/run", &warm),
        "warm-up run",
    );
    (handle, secs(t))
}

/// Sets up `reps` servers, keeping the last; returns it and the median.
fn setup_median(scale: &Scale, checks: &mut Checks, tracer: &Tracer) -> (ServerHandle, f64) {
    let mut times = Vec::new();
    loop {
        let mut c = Checks::default();
        let (handle, s) = setup(scale, &mut c, tracer);
        times.push(s);
        if times.len() >= scale.setup_reps.max(1) {
            checks.merge(c);
            return (handle, median(&times));
        }
        handle.shutdown();
    }
}

/// A number in a `/metrics` section. A missing one fails a check (a
/// renamed or dropped field must not read as a quiet 0).
fn field(checks: &mut Checks, metrics: &Json, section: &str, key: &str) -> f64 {
    let v = metrics
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64);
    checks.check(v.is_some(), || format!("/metrics has no {section}.{key}"));
    v.unwrap_or(0.0)
}

/// Reads `/metrics` and checks that the cache counters reconcile with what
/// the clients sent (plus the warm-up run).
fn reconcile(addr: SocketAddr, log: &mut LoopLog) -> Option<Json> {
    let resp = http::get(addr, "/metrics");
    let r = ok(&mut log.checks, resp, "metrics")?;
    let Ok(m) = Json::parse(&r.text()) else {
        log.checks
            .check(false, || "metrics document does not parse".to_owned());
        return None;
    };
    let mut at = |a: &str, b: &str| field(&mut log.checks, &m, a, b) as u64;
    let counted_runs = at("requests", "run");
    let looked_up = at("cache", "hits") + at("cache", "misses") + at("cache", "coalesced");
    let runs = log.runs + 1;
    log.checks.check(counted_runs == runs, || {
        format!("metrics count {counted_runs} run requests, clients sent {runs}")
    });
    let sent = runs + log.explains + log.sweep_cells;
    log.checks.check(looked_up == sent, || {
        format!("cache hits+misses+coalesced = {looked_up}, requests looked up = {sent}")
    });
    Some(m)
}

/// Runs the `serve-loopback` workload.
pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        return traced(opts);
    }
    let quiet = Tracer::new(false);
    let mut checks = Checks::default();
    let (handle, setup_s) = setup_median(&opts.scale, &mut checks, &quiet);
    let mut log = closed_loop(handle.addr(), opts.seed, opts.seconds, &opts.scale, &quiet);
    let cache_note = reconcile(handle.addr(), &mut log).map(|m| {
        let mut at = |k: &str| field(&mut log.checks, &m, "cache", k);
        format!(
            "result cache: {} entries, {} bytes, {} evictions",
            at("entries"),
            at("bytes"),
            at("evictions")
        )
    });
    handle.shutdown();
    checks.merge(std::mem::take(&mut log.checks));
    let e2e = EndToEnd {
        setup_s,
        // A round's cold pass and repeat, on the uncontended host.
        wall_s: percentile(&log.round_s, 10.0),
        minst_per_s: ratio(log.committed as f64, log.wall_s) / 1e6,
        req_per_s: ratio(log.completed as f64, log.wall_s),
        cold_ms: log.cold_ms.clone(),
        hit_ms: log.hit_ms.clone(),
    };
    Outcome {
        notes: vec![
            format!(
                "closed loop: {} clients, {} rounds, {} requests in {:.2} s \
                 ({} run, {} explain, {} sweep cells)",
                workers(),
                log.round_s.len(),
                log.completed,
                log.wall_s,
                log.runs,
                log.explains,
                log.sweep_cells
            ),
            e2e.sample_note(),
        ]
        .into_iter()
        .chain(cache_note)
        .collect(),
        metrics: e2e.metrics(),
        checks,
        tracer: quiet,
    }
}

fn traced(opts: &Options) -> Outcome {
    let scale = &opts.scale;
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let mut checks = Checks::default();

    // Untraced reference loop on its own server.
    let (handle, _) = setup(scale, &mut checks, &quiet);
    let mut plain = closed_loop(handle.addr(), opts.seed, opts.seconds, scale, &quiet);
    handle.shutdown();
    checks.merge(std::mem::take(&mut plain.checks));

    // Traced loop: health-probe latency first, then the same stream.
    let (handle, _) = setup(scale, &mut checks, &tracer);
    let health_ms: Vec<f64> = (0..30)
        .map(|k| {
            let t = Instant::now();
            let resp = tracer.span(
                "serve::http GET /healthz",
                None,
                || format!("h{k}"),
                |_| http::get(handle.addr(), "/healthz"),
            );
            ok(&mut checks, resp, "healthz");
            secs(t) * 1e3
        })
        .collect();
    let mut log = closed_loop(handle.addr(), opts.seed, opts.seconds, scale, &tracer);
    let server_metrics = reconcile(handle.addr(), &mut log);
    handle.shutdown();
    checks.merge(std::mem::take(&mut log.checks));

    // Observation must not change what the server simulates.
    let plain_docs: HashMap<&str, &Vec<u8>> =
        plain.misses.iter().map(|(b, d)| (b.as_str(), d)).collect();
    for (body, doc) in &log.misses {
        if let Some(other) = plain_docs.get(body.as_str()) {
            checks.check(*other == doc, || {
                format!("tracing changed the document of {body}")
            });
        }
    }

    let mut produced = vec![metric("serve.healthz_p50_ms", percentile(&health_ms, 50.0))];
    if let Some(m) = &server_metrics {
        let mut at = |a: &str, b: &str| field(&mut checks, m, a, b);
        let looked_up = at("cache", "hits") + at("cache", "misses") + at("cache", "coalesced");
        produced.extend([
            metric("serve.hit_ratio", ratio(at("cache", "hits"), looked_up)),
            metric("serve.coalesced", at("cache", "coalesced")),
            metric("serve.rejected_429", at("rejected", "overloaded")),
            metric("serve.deadline_504", at("rejected", "deadline_exceeded")),
        ]);
        // The stage profile the server itself accumulated over every
        // simulation it ran: the shipped serving path.
        let mut d = |name: &str| Duration::from_secs_f64(at("host_profile", &format!("{name}_s")));
        let profile = StageProfile {
            commit: d("commit"),
            writeback: d("writeback"),
            issue: d("issue"),
            rename: d("rename"),
            fetch: d("fetch"),
            probes: d("probes"),
            steps: at("host_profile", "steps") as u64,
        };
        produced.extend(layers::stage_metrics(&profile));
    }
    produced.extend(replay(scale, &log, &mut checks, &tracer));
    // Closed-loop request rate, untraced over traced.
    let overhead = ratio(
        plain.completed as f64 / plain.wall_s,
        log.completed as f64 / log.wall_s,
    ) - 1.0;
    crate::traced_outcome(checks, tracer, produced, overhead)
}

/// Replays the first cache misses in-process: request parsing, cache
/// lookups on a hit, and the simulations behind them, timed call by call.
fn replay(scale: &Scale, log: &LoopLog, checks: &mut Checks, tracer: &Tracer) -> Vec<Measured> {
    if log.misses.is_empty() {
        checks.check(false, || "no cache miss to replay".to_owned());
        return Vec::new();
    }
    let reps = scale.micro.reps.max(1);
    let mut requests = Vec::new();
    let mut misses = Vec::new();
    let mut parse_us = Vec::new();
    for miss in log.misses.iter().take(scale.serve_replays) {
        let body = &miss.0;
        for rep in 0..reps {
            let t = Instant::now();
            let parsed = tracer.span(
                "serve::RunRequest::parse",
                None,
                || body.clone(),
                |_| RunRequest::parse(body),
            );
            parse_us.push(secs(t) * 1e6);
            if rep == 0 {
                checks.check(parsed.is_ok(), || {
                    format!("replayed body does not parse: {body}")
                });
                if let Ok(req) = parsed {
                    requests.push(req);
                    misses.push(miss);
                }
            }
        }
    }

    let cache = ResultCache::new(ServeConfig::default().cache_bytes);
    for (req, (_, doc)) in requests.iter().zip(&misses) {
        if let Fetched::Miss(guard) = cache.get_or_begin(req.cache_key()) {
            guard.fulfill(String::from_utf8_lossy(doc).into_owned());
        }
    }
    let mut lookup_us = Vec::new();
    for _ in 0..reps {
        for req in &requests {
            let t = Instant::now();
            let hit = tracer.span(
                "serve::ResultCache::get_or_begin",
                None,
                || req.label(),
                |_| matches!(cache.get_or_begin(req.cache_key()), Fetched::Hit(_)),
            );
            lookup_us.push(secs(t) * 1e6);
            checks.check(hit, || {
                format!("replayed key missed the cache: {}", req.label())
            });
        }
    }

    // Each miss's simulation under serve's stopping rule and probes; its
    // counts must match the document the server returned.
    let specs: Vec<CellSpec> = requests
        .iter()
        .map(|r| {
            let target = r.commits.saturating_mul(r.benches.len() as u64);
            CellSpec {
                label: format!("{}/{}/seed{}", r.features.label(), r.label(), r.seed),
                config: r.config.clone(),
                benches: r.benches.clone(),
                seed: r.seed,
                target,
                max_cycles: target.saturating_mul(100).max(1_000_000),
            }
        })
        .collect();
    let served = layers::run_pass(&specs, Probing::Serve, tracer);
    for ((spec, run), (_, doc)) in specs.iter().zip(&served.runs).zip(&misses) {
        checks.check(run.stats.committed == committed_of(doc), || {
            format!(
                "{}: in-process replay disagrees with the served document",
                spec.label
            )
        });
    }
    let plain = layers::run_pass(&specs, Probing::Off, &Tracer::new(false));
    layers::check_same(
        checks,
        "serve's probes",
        &specs,
        &plain.runs,
        &served.runs,
        false,
    );
    let (p, s) = (
        layers::CoreTotals::of(&specs, &plain.runs),
        layers::CoreTotals::of(&specs, &served.runs),
    );
    let cold_ms: Vec<f64> = served
        .runs
        .iter()
        .map(|r| (r.new_s + r.run_s) * 1e3)
        .collect();
    let mut out = layers::core_metrics(&p, &s);
    out.extend([
        metric("serve.parse_us", median(&parse_us)),
        metric("serve.cache_lookup_us", median(&lookup_us)),
        metric("serve.cold_sim_ms", median(&cold_ms)),
    ]);
    let programs: Vec<_> = specs
        .iter()
        .flat_map(|s| mix::programs(&s.benches, s.seed))
        .collect();
    out.extend(layers::substrates(
        &programs,
        &SimConfig::big_2_16(),
        scale.micro,
        tracer,
    ));
    out
}
