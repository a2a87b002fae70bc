#![deny(missing_docs)]
//! # multipath-serve
//!
//! A persistent batch-simulation service over the multipath simulator:
//! `multipath serve` binds a TCP port and answers simulation requests
//! over a hand-rolled HTTP/1.1 JSON API — no external crates, like the
//! rest of the workspace.
//!
//! The service exists because the simulator is *deterministic*: the same
//! canonical configuration, kernel list, seed, and commit budget always
//! produce byte-identical `multipath-stats/v1` documents. That turns
//! result caching from a heuristic into a content-addressed lookup
//! ([`cache::ResultCache`]), and lets a loopback test assert that the
//! served bytes equal what `multipath trace --stats-out` writes.
//!
//! Endpoints:
//!
//! | Route                    | Meaning                                            |
//! |--------------------------|----------------------------------------------------|
//! | `POST /v1/run`           | one workload → `multipath-stats/v1` document       |
//! | `POST /v1/sweep`         | many cells on idle pool workers, NDJSON stream     |
//! | `GET /v1/explain/:kernel`| reuse/recycle attribution (`multipath-explain/v1`) |
//! | `GET /healthz`           | liveness probe                                     |
//! | `GET /metrics`           | queue, cache, and host-stage-profile counters      |
//!
//! Load shedding is structural: requests dispatch onto a fixed
//! [`WorkerPool`] behind a bounded
//! queue, and overflow is answered `429` before any simulation state is
//! allocated. Deadlines propagate as a [`CancelToken`] checked every
//! simulated cycle. SIGINT/SIGTERM (see [`signal`]) stop the accept loop
//! and drain in-flight requests before exit.
//!
//! # Examples
//!
//! ```
//! use multipath_serve::{ServeConfig, Server};
//! use multipath_testkit::http;
//!
//! let config = ServeConfig {
//!     addr: "127.0.0.1:0".to_owned(), // ephemeral port
//!     ..ServeConfig::default()
//! };
//! let handle = Server::bind(&config).unwrap().start();
//! let health = http::get(handle.addr(), "/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! handle.shutdown();
//! ```

pub mod cache;
pub mod http;
pub mod metrics;
pub mod request;
pub mod signal;

pub use cache::{CacheCounters, Fetched, ResultCache};
pub use metrics::{QueueSnapshot, ServerMetrics};
pub use request::{ExplainRequest, RunRequest};

use multipath_bench::parallel::{self, WorkerPool};
use multipath_core::{stats_json, CancelToken, ProbeConfig, RunSpec};
use multipath_testkit::Json;
use std::io::{BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// Tunables for one server instance; `Default` is the `multipath serve`
/// default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:8273` by default; use port `0` in tests
    /// for an ephemeral port).
    pub addr: String,
    /// Worker threads; `0` means one per available core (the same rule
    /// as the sweep engine's `MULTIPATH_THREADS` fallback).
    pub workers: usize,
    /// Bounded request-queue capacity — the `429` threshold.
    pub queue: usize,
    /// Result-cache budget in body bytes.
    pub cache_bytes: usize,
    /// Maximum accepted request-body size in bytes (`413` beyond).
    pub max_body: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8273".to_owned(),
            workers: 0,
            queue: 64,
            cache_bytes: 64 << 20,
            max_body: 1 << 20,
        }
    }
}

/// State shared by the accept loop and every connection handler.
struct ServerState {
    cache: ResultCache,
    metrics: ServerMetrics,
    /// Weak so the pool can be consumed for shutdown while handlers can
    /// still sample queue depth for `/metrics` and submit sweep helpers.
    pool: Weak<WorkerPool>,
    /// Connections dispatched to the pool that no worker has picked up
    /// yet; sweep helpers yield to them.
    requests_queued: AtomicUsize,
    queue_capacity: usize,
    max_body: usize,
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: Arc<WorkerPool>,
}

impl Server {
    /// Binds the listen socket and spawns the worker pool.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let workers = if config.workers == 0 {
            parallel::thread_count()
        } else {
            config.workers
        };
        let pool = Arc::new(WorkerPool::new(workers, config.queue));
        let state = Arc::new(ServerState {
            cache: ResultCache::new(config.cache_bytes),
            metrics: ServerMetrics::default(),
            pool: Arc::downgrade(&pool),
            requests_queued: AtomicUsize::new(0),
            queue_capacity: config.queue.max(1),
            max_body: config.max_body,
        });
        Ok(Server {
            listener,
            state,
            pool,
        })
    }

    /// The bound address (resolves port `0` to the assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// The resolved worker-thread count (after `workers: 0` auto-sizing).
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// Serves until `shutdown` becomes true, then drains: the listener
    /// stops accepting, queued and in-flight requests finish, workers
    /// join. Connections always answer `Connection: close`, so drain
    /// time is bounded by the slowest in-flight simulation.
    pub fn run(self, shutdown: &AtomicBool) {
        while !shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // The listener is non-blocking so the loop can check
                    // `shutdown`; handlers want plain blocking sockets.
                    let _ = stream.set_nonblocking(false);
                    dispatch(&self.pool, &self.state, stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    wait_readable(&self.listener);
                }
                // A failed accept (out of descriptors, say) leaves the
                // connection queued and the listener readable: back off
                // rather than spin.
                Err(_) => std::thread::sleep(SHUTDOWN_CHECK),
            }
        }
        drop(self.listener);
        match Arc::try_unwrap(self.pool) {
            Ok(pool) => pool.shutdown(),
            Err(pool) => drop(pool), // another owner will drain on drop
        }
    }

    /// Spawns the accept loop on a background thread and returns a
    /// handle for tests and embedders.
    pub fn start(self) -> ServerHandle {
        let addr = self.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("mp-serve-accept".to_owned())
            .spawn(move || self.run(&flag))
            .expect("spawn accept thread");
        ServerHandle {
            addr,
            shutdown,
            thread,
        }
    }
}

/// The longest the accept loop waits for a connection before it checks
/// its shutdown flag again, so a drain starts within this long of being
/// requested.
pub const SHUTDOWN_CHECK: Duration = Duration::from_millis(50);

/// Blocks until `listener` has a connection to accept, [`SHUTDOWN_CHECK`]
/// passes, or a signal interrupts the wait, through a raw `extern "C"`
/// declaration of `poll(2)` (the workspace carries no libc crate; see
/// [`signal`]). The kernel never restarts an interrupted `poll`, so a
/// SIGINT/SIGTERM delivered to this thread ends the wait at once.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;
    const POLLIN: i16 = 1;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `poll` is the POSIX libc function the process is already
    // linked against; `fd` is one valid `pollfd` that outlives the call.
    // Every outcome (ready, timeout, EINTR) sends the caller back to
    // `accept`, so the result is not inspected.
    unsafe {
        poll(&mut fd, 1, SHUTDOWN_CHECK.as_millis() as i32);
    }
}

/// Without `poll(2)`, sleeps briefly and lets the caller retry `accept`.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener) {
    std::thread::sleep(Duration::from_millis(5));
}

/// A running server started with [`Server::start`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain and blocks until the server has fully
    /// stopped.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = self.thread.join();
    }
}

/// Hands the connection to a pool worker, or sheds it with `429` on the
/// accept thread if the queue is full or draining.
fn dispatch(pool: &WorkerPool, state: &Arc<ServerState>, stream: TcpStream) {
    // `try_execute` consumes its job even on rejection, so the stream
    // rides in a shared cell the accept loop can take back to write the
    // 429.
    let cell = Arc::new(Mutex::new(Some(stream)));
    let job_cell = Arc::clone(&cell);
    let job_state = Arc::clone(state);
    state.requests_queued.fetch_add(1, Ordering::Relaxed);
    let submitted = pool.try_execute(move || {
        job_state.requests_queued.fetch_sub(1, Ordering::Relaxed);
        if let Some(stream) = job_cell.lock().expect("stream cell poisoned").take() {
            handle_connection(stream, &job_state);
        }
    });
    if submitted.is_err() {
        state.requests_queued.fetch_sub(1, Ordering::Relaxed);
        state
            .metrics
            .rejected_overloaded
            .fetch_add(1, Ordering::Relaxed);
        if let Some(mut stream) = cell.lock().expect("stream cell poisoned").take() {
            let body = error_body("overloaded", "request queue is full; retry later");
            let _ = http::write_response(
                &mut stream,
                429,
                "Too Many Requests",
                "application/json",
                &[],
                body.as_bytes(),
            );
        }
    }
}

/// Reads one request, routes it, writes one response, closes.
fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let request = match http::read_request(&mut reader, state.max_body) {
        Ok(r) => r,
        Err(http::RequestError::BodyTooLarge(n)) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            let msg = format!(
                "request body of {n} bytes exceeds the {} limit",
                state.max_body
            );
            respond_error(
                &mut write_half,
                413,
                "Payload Too Large",
                "payload_too_large",
                &msg,
            );
            return;
        }
        Err(http::RequestError::Malformed(msg)) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond_error(&mut write_half, 400, "Bad Request", "bad_request", &msg);
            return;
        }
    };
    route(state, &mut write_half, &request);
}

fn route(state: &Arc<ServerState>, stream: &mut TcpStream, request: &http::Request) {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("POST", "/v1/run") => handle_run(state, stream, request),
        ("POST", "/v1/sweep") => handle_sweep(state, stream, request),
        ("GET", "/healthz") => {
            let body = "{\n  \"schema\": \"multipath-serve-health/v1\",\n  \"status\": \"ok\"\n}\n";
            let _ =
                http::write_response(stream, 200, "OK", "application/json", &[], body.as_bytes());
        }
        ("GET", "/metrics") => handle_metrics(state, stream),
        (_, _) if path.starts_with("/v1/explain/") => {
            if method == "GET" {
                handle_explain(state, stream, request);
            } else {
                method_not_allowed(state, stream, "GET");
            }
        }
        (_, "/v1/run" | "/v1/sweep") => method_not_allowed(state, stream, "POST"),
        (_, "/healthz" | "/metrics") => method_not_allowed(state, stream, "GET"),
        _ => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond_error(
                stream,
                404,
                "Not Found",
                "not_found",
                &format!("no route for {path:?}"),
            );
        }
    }
}

fn method_not_allowed(state: &ServerState, stream: &mut TcpStream, allowed: &str) {
    state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
    respond_error(
        stream,
        405,
        "Method Not Allowed",
        "method_not_allowed",
        &format!("this route only accepts {allowed}"),
    );
}

fn handle_run(state: &ServerState, stream: &mut TcpStream, request: &http::Request) {
    let body = String::from_utf8_lossy(&request.body);
    let run = match RunRequest::parse(&body) {
        Ok(r) => r,
        Err(msg) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, "Bad Request", "bad_request", &msg);
            return;
        }
    };
    state.metrics.run_requests.fetch_add(1, Ordering::Relaxed);
    let (doc, outcome) = match state.cache.get_or_begin(run.cache_key()) {
        Fetched::Hit(doc) => (doc, "hit"),
        Fetched::Coalesced(doc) => (doc, "coalesced"),
        Fetched::Miss(guard) => match run_document(&run, cancel_for(run.deadline_ms), state) {
            Ok(doc) => (guard.fulfill(doc), "miss"),
            Err(RunError::DeadlineExceeded) => {
                guard.abandon();
                state
                    .metrics
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                respond_error(
                    stream,
                    504,
                    "Gateway Timeout",
                    "deadline_exceeded",
                    &format!(
                        "simulation exceeded the {} ms deadline",
                        run.deadline_ms.unwrap_or(0)
                    ),
                );
                return;
            }
        },
    };
    let _ = http::write_response(
        stream,
        200,
        "OK",
        "application/json",
        &[("X-Multipath-Cache", outcome)],
        doc.as_bytes(),
    );
}

fn handle_sweep(state: &Arc<ServerState>, stream: &mut TcpStream, request: &http::Request) {
    let body = String::from_utf8_lossy(&request.body);
    let (cells, deadline_ms) = match parse_sweep_body(&body) {
        Ok(parsed) => parsed,
        Err(msg) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, "Bad Request", "bad_request", &msg);
            return;
        }
    };
    state.metrics.sweep_requests.fetch_add(1, Ordering::Relaxed);
    state
        .metrics
        .sweep_cells
        .fetch_add(cells.len() as u64, Ordering::Relaxed);

    let Ok(mut chunked) = http::ChunkedWriter::start(stream, 200, "OK", "application/x-ndjson")
    else {
        return;
    };
    // One deadline covers the whole sweep; every cell shares the clock.
    let finished = run_sweep(
        state,
        cells,
        cancel_for(deadline_ms),
        sweep_cell_line,
        |line| chunked.chunk(line.as_bytes()).is_ok(),
    );
    if finished {
        let _ = chunked.finish();
    }
}

/// Renders one sweep line for cell `index`: [`sweep_cell_line`] in
/// service, a cell that misbehaves in tests.
type CellFn = fn(&ServerState, usize, &RunRequest, &CancelToken) -> String;

/// One sweep in progress, shared by the worker handling it and its
/// helpers.
struct Sweep {
    cells: Vec<RunRequest>,
    token: CancelToken,
    run_cell: CellFn,
    /// The next cell to claim: claims go in request order.
    next: AtomicUsize,
    /// Each cell's line once it is done.
    lines: Mutex<Vec<Option<String>>>,
    /// Signalled whenever a line is done.
    done: Condvar,
}

impl Sweep {
    /// Claims the next cell and runs it; false once every cell is
    /// claimed. A panicking cell yields an error line.
    fn run_next(&self, state: &ServerState) -> bool {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = self.cells.get(index) else {
            return false;
        };
        let line = std::panic::catch_unwind(AssertUnwindSafe(|| {
            (self.run_cell)(state, index, cell, &self.token)
        }))
        .unwrap_or_else(|_| error_line(index, cell, "internal: cell panicked"));
        self.lines.lock().expect("sweep lines poisoned")[index] = Some(line);
        self.done.notify_all();
        true
    }

    /// A helper job: runs cells until none is left or a request is
    /// waiting for a worker, which then gets this one.
    fn help(&self, state: &ServerState) {
        while state.requests_queued.load(Ordering::Relaxed) == 0 && self.run_next(state) {}
    }
}

/// Runs a sweep's cells on the calling worker plus one helper job per
/// idle pool worker, so simulations in flight never exceed the pool's
/// workers, and passes each line to `emit` in request order as soon as
/// it and every earlier line are done. Returns false, with no further
/// cell claimed, once `emit` does (the client went away).
fn run_sweep(
    state: &Arc<ServerState>,
    cells: Vec<RunRequest>,
    token: CancelToken,
    run_cell: CellFn,
    mut emit: impl FnMut(&str) -> bool,
) -> bool {
    let n = cells.len();
    let sweep = Arc::new(Sweep {
        cells,
        token,
        run_cell,
        next: AtomicUsize::new(0),
        lines: Mutex::new(vec![None; n]),
        done: Condvar::new(),
    });
    if let Some(pool) = state.pool.upgrade() {
        let idle = pool
            .threads()
            .saturating_sub(pool.running() + pool.queue_depth());
        for _ in 0..idle.min(n - 1) {
            let (state, sweep) = (Arc::clone(state), Arc::clone(&sweep));
            if pool.try_execute(move || sweep.help(&state)).is_err() {
                break;
            }
        }
    }
    let mut sent = 0;
    while sent < n {
        let claimed = sweep.run_next(state);
        let mut lines = sweep.lines.lock().expect("sweep lines poisoned");
        // With every cell claimed, the rest are on helpers: wait for the
        // next line in order.
        while !claimed && lines[sent].is_none() {
            lines = sweep.done.wait(lines).expect("sweep lines poisoned");
        }
        let ready: Vec<String> = lines[sent..].iter_mut().map_while(Option::take).collect();
        drop(lines);
        for line in ready {
            if !emit(&line) {
                sweep.next.fetch_max(n, Ordering::Relaxed);
                return false;
            }
            sent += 1;
        }
    }
    true
}

/// Produces one NDJSON line (`multipath-serve-cell/v1`) for a sweep cell,
/// through the shared result cache.
fn sweep_cell_line(
    state: &ServerState,
    index: usize,
    cell: &RunRequest,
    token: &CancelToken,
) -> String {
    let effective = match cell.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => token.clone(),
    };
    match state.cache.get_or_begin(cell.cache_key()) {
        Fetched::Hit(doc) | Fetched::Coalesced(doc) => cell_line(index, cell, true, &doc),
        Fetched::Miss(guard) => match run_document(cell, effective, state) {
            Ok(doc) => {
                let doc = guard.fulfill(doc);
                cell_line(index, cell, false, &doc)
            }
            Err(RunError::DeadlineExceeded) => {
                guard.abandon();
                state
                    .metrics
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                error_line(index, cell, "deadline_exceeded")
            }
        },
    }
}

/// A sweep line that reports `error` in place of the cell's summary.
fn error_line(index: usize, cell: &RunRequest, error: &str) -> String {
    format!(
        "{{\"schema\":\"multipath-serve-cell/v1\",\"index\":{index},\
         \"label\":\"{}\",\"features\":\"{}\",\"error\":\"{}\"}}\n",
        cell.label(),
        cell.features.label(),
        escape_json(error)
    )
}

/// Summarises a full stats document into one sweep line. The document is
/// the server's own deterministic output, so a parse failure is a bug —
/// reported in-band rather than by panicking a worker.
fn cell_line(index: usize, cell: &RunRequest, cached: bool, doc: &str) -> String {
    let parsed = match Json::parse(doc) {
        Ok(v) => v,
        Err(e) => return error_line(index, cell, &format!("internal: {e}")),
    };
    let counter = |name: &str| -> u64 {
        let names = parsed.get("counter_names").and_then(Json::as_arr);
        let counters = parsed.get("counters").and_then(Json::as_arr);
        match (names, counters) {
            (Some(names), Some(counters)) => names
                .iter()
                .position(|n| n.as_str() == Some(name))
                .and_then(|i| counters.get(i))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            _ => 0,
        }
    };
    let derived = |name: &str| -> f64 {
        parsed
            .get("derived")
            .and_then(|d| d.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    format!(
        "{{\"schema\":\"multipath-serve-cell/v1\",\"index\":{index},\"label\":\"{}\",\
         \"features\":\"{}\",\"cached\":{cached},\"cycles\":{},\"committed\":{},\
         \"ipc\":{:.6},\"pct_recycled\":{:.6},\"pct_reused\":{:.6}}}\n",
        cell.label(),
        cell.features.label(),
        counter("cycles"),
        counter("committed"),
        derived("ipc"),
        derived("pct_recycled"),
        derived("pct_reused"),
    )
}

fn parse_sweep_body(body: &str) -> Result<(Vec<RunRequest>, Option<u64>), String> {
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(map) = &doc else {
        return Err("sweep body must be a JSON object".to_owned());
    };
    for key in map.keys() {
        if key != "cells" && key != "deadline_ms" {
            return Err(format!(
                "unknown field {key:?} (expected cells, deadline_ms)"
            ));
        }
    }
    let cells = doc
        .get("cells")
        .ok_or("missing required field \"cells\"")?
        .as_arr()
        .ok_or("\"cells\" must be an array of run requests")?
        .iter()
        .map(RunRequest::from_json)
        .collect::<Result<Vec<_>, String>>()?;
    if cells.is_empty() {
        return Err("\"cells\" must contain at least one run request".to_owned());
    }
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("\"deadline_ms\" must be a non-negative integer")?,
        ),
    };
    Ok((cells, deadline_ms))
}

fn handle_explain(state: &ServerState, stream: &mut TcpStream, request: &http::Request) {
    let kernel = request
        .path
        .strip_prefix("/v1/explain/")
        .expect("routed by prefix");
    let explain = match ExplainRequest::from_query(kernel, &request.query) {
        Ok(r) => r,
        Err(msg) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, "Bad Request", "bad_request", &msg);
            return;
        }
    };
    state
        .metrics
        .explain_requests
        .fetch_add(1, Ordering::Relaxed);
    let (doc, outcome) = match state.cache.get_or_begin(explain.cache_key()) {
        Fetched::Hit(doc) => (doc, "hit"),
        Fetched::Coalesced(doc) => (doc, "coalesced"),
        Fetched::Miss(guard) => (guard.fulfill(explain_document(&explain, state)), "miss"),
    };
    let _ = http::write_response(
        stream,
        200,
        "OK",
        "application/json",
        &[("X-Multipath-Cache", outcome)],
        doc.as_bytes(),
    );
}

fn handle_metrics(state: &ServerState, stream: &mut TcpStream) {
    let queue = match state.pool.upgrade() {
        Some(pool) => QueueSnapshot {
            depth: pool.queue_depth(),
            running: pool.running(),
            workers: pool.threads(),
            capacity: state.queue_capacity,
        },
        None => QueueSnapshot {
            capacity: state.queue_capacity,
            ..QueueSnapshot::default()
        },
    };
    let body = state
        .metrics
        .render(&state.cache.counters(), state.cache.capacity(), queue);
    let _ = http::write_response(stream, 200, "OK", "application/json", &[], body.as_bytes());
}

/// Why a simulation produced no document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The request's deadline expired before the commit target was
    /// reached; the partial simulation was discarded.
    DeadlineExceeded,
}

/// A cancel token for an optional millisecond deadline.
fn cancel_for(deadline_ms: Option<u64>) -> CancelToken {
    match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    }
}

/// Runs one workload and renders the `multipath-stats/v1` document —
/// the exact pipeline behind `multipath trace --stats-out`, so the bytes
/// match the CLI's output for the same request.
fn run_document(
    run: &RunRequest,
    cancel: CancelToken,
    state: &ServerState,
) -> Result<String, RunError> {
    let spec = RunSpec {
        probes: Some(ProbeConfig {
            interval: Some(run.interval.max(1)),
            ..ProbeConfig::default()
        }),
        host_profile: true,
        cancel: Some(cancel),
        ..run.spec()
    };
    let simulating = state.metrics.simulating();
    let mut sim = spec.run();
    drop(simulating);
    if sim.cancelled() {
        return Err(RunError::DeadlineExceeded);
    }
    if let Some(profile) = sim.host_profile() {
        state.metrics.record_profile(profile);
    }
    let probes = sim.take_probes().expect("probes were enabled");
    Ok(stats_json(
        &run.label(),
        run.features.label(),
        sim.stats(),
        probes.interval.as_ref(),
    ))
}

/// Runs one kernel with explain probes and renders the
/// `multipath-explain/v1` document — the pipeline behind
/// `multipath explain --json-out`.
fn explain_document(explain: &ExplainRequest, state: &ServerState) -> String {
    let spec = RunSpec {
        probes: Some(ProbeConfig::explain()),
        host_profile: true,
        ..explain.spec()
    };
    let simulating = state.metrics.simulating();
    let mut sim = spec.run();
    drop(simulating);
    if let Some(profile) = sim.host_profile() {
        state.metrics.record_profile(profile);
    }
    let probes = sim.take_probes().expect("probes were enabled");
    let attr = probes.attribution.as_ref().expect("attribution sink on");
    let tree = probes.tree.as_ref().expect("path-tree sink on");
    multipath_core::explain_json(
        explain.bench.name(),
        explain.features.label(),
        sim.stats(),
        attr,
        tree,
        explain.top,
    )
}

/// Renders a `multipath-serve-error/v1` body.
fn error_body(error: &str, message: &str) -> String {
    format!(
        "{{\n  \"schema\": \"multipath-serve-error/v1\",\n  \"error\": \"{error}\",\n  \
         \"message\": \"{}\"\n}}\n",
        escape_json(message)
    )
}

fn respond_error(stream: &mut TcpStream, status: u16, reason: &str, error: &str, message: &str) {
    let body = error_body(error, message);
    let _ = http::write_response(
        stream,
        status,
        reason,
        "application/json",
        &[],
        body.as_bytes(),
    );
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    /// The cell that panicked, once one has.
    static PANICKED_AT: AtomicUsize = AtomicUsize::new(usize::MAX);

    /// Panics on the first cell a pool worker (a helper) runs. The
    /// calling thread holds its first cell until then, so the panic
    /// lands on a helper whatever the interleaving.
    fn panics_on_a_helper(
        _: &ServerState,
        index: usize,
        _: &RunRequest,
        _: &CancelToken,
    ) -> String {
        let on_helper = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("mp-pool"));
        if on_helper {
            if PANICKED_AT
                .compare_exchange(usize::MAX, index, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                panic!("sweep cell {index} panics on purpose");
            }
        } else {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while PANICKED_AT.load(Ordering::SeqCst) == usize::MAX
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        format!("ok {index}\n")
    }

    #[test]
    fn a_cell_panicking_on_a_helper_yields_an_error_line() {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let cell = RunRequest::parse(r#"{"benches": ["compress"]}"#).unwrap();
        let mut lines = Vec::new();
        let finished = run_sweep(
            &server.state,
            vec![cell; 6],
            CancelToken::new(),
            panics_on_a_helper,
            |line| {
                lines.push(line.to_owned());
                true
            },
        );
        assert!(finished);
        let panicked = PANICKED_AT.load(Ordering::SeqCst);
        assert!(panicked < 6, "a helper ran a cell");
        assert_eq!(lines.len(), 6);
        for (i, line) in lines.iter().enumerate() {
            if i == panicked {
                let v = Json::parse(line).expect("the error line is JSON");
                assert_eq!(v.get("index").and_then(Json::as_u64), Some(i as u64));
                assert_eq!(
                    v.get("error").and_then(Json::as_str),
                    Some("internal: cell panicked")
                );
            } else {
                assert_eq!(line, &format!("ok {i}\n"));
            }
        }
    }

    #[test]
    fn error_body_is_valid_json() {
        let body = error_body("bad_request", "unknown field \"x\"");
        let v = Json::parse(&body).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("multipath-serve-error/v1")
        );
        assert_eq!(
            v.get("message").and_then(Json::as_str),
            Some("unknown field \"x\"")
        );
    }
}
