//! End-to-end tests of the serving layer over real loopback sockets:
//! every request here goes through TCP, the HTTP parser, the worker
//! pool, the cache, and a full simulation.

use multipath_serve::{ServeConfig, Server, ServerHandle};
use multipath_testkit::{http, Json};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn start(config: ServeConfig) -> ServerHandle {
    Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("bind loopback")
    .start()
}

fn small_run_body(bench: &str, commits: u64) -> String {
    format!("{{\"benches\": [\"{bench}\"], \"commits\": {commits}}}")
}

#[test]
fn healthz_and_unknown_routes() {
    let handle = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let health = http::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let doc = Json::parse(&health.text()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("multipath-serve-health/v1")
    );

    let missing = http::get(addr, "/v1/nope").unwrap();
    assert_eq!(missing.status, 404);
    let doc = Json::parse(&missing.text()).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("not_found"));

    // Wrong method on a known route.
    let wrong = http::get(addr, "/v1/run").unwrap();
    assert_eq!(wrong.status, 405);

    // Malformed request body.
    let bad = http::post_json(addr, "/v1/run", "{not json").unwrap();
    assert_eq!(bad.status, 400);
    let doc = Json::parse(&bad.text()).unwrap();
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_request"));
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("multipath-serve-error/v1")
    );

    handle.shutdown();
}

#[test]
fn accept_wakes_on_arrival() {
    // An accept loop that sleeps between checks for a connection adds
    // that sleep to every request; one that waits in `poll` does not.
    let handle = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let started = std::time::Instant::now();
    for _ in 0..50 {
        assert_eq!(http::get(addr, "/healthz").unwrap().status, 200);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(125),
        "50 /healthz round trips took {elapsed:?}"
    );
    handle.shutdown();
}

#[test]
fn run_endpoint_caches_and_labels_outcomes() {
    let handle = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let body = small_run_body("compress", 1500);

    let cold = http::post_json(addr, "/v1/run", &body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-multipath-cache"), Some("miss"));
    let doc = Json::parse(&cold.text()).expect("stats doc parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("multipath-stats/v1")
    );
    assert_eq!(doc.get("label").and_then(Json::as_str), Some("compress"));

    let warm = http::post_json(addr, "/v1/run", &body).unwrap();
    assert_eq!(warm.header("x-multipath-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "cache must return identical bytes");

    // A different seed is a different content address.
    let other = http::post_json(
        addr,
        "/v1/run",
        r#"{"benches": ["compress"], "commits": 1500, "seed": 2}"#,
    )
    .unwrap();
    assert_eq!(other.header("x-multipath-cache"), Some("miss"));
    assert_ne!(other.body, cold.body);

    handle.shutdown();
}

#[test]
fn deadline_expiry_returns_well_formed_504() {
    let handle = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    // A zero-millisecond deadline expires at the first stride poll, so
    // even a tiny machine cannot finish in time.
    let reply = http::post_json(
        addr,
        "/v1/run",
        r#"{"benches": ["compress"], "commits": 5000, "deadline_ms": 0}"#,
    )
    .unwrap();
    assert_eq!(reply.status, 504, "{}", reply.text());
    let doc = Json::parse(&reply.text()).expect("error body is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("multipath-serve-error/v1")
    );
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    assert!(doc
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("deadline"));

    // The slot was released: the same request without a deadline runs.
    let ok = http::post_json(
        addr,
        "/v1/run",
        r#"{"benches": ["compress"], "commits": 5000}"#,
    );
    assert_eq!(ok.unwrap().status, 200);

    // And the metrics recorded the outcome.
    let metrics = Json::parse(&http::get(addr, "/metrics").unwrap().text()).unwrap();
    assert_eq!(
        metrics
            .get("rejected")
            .and_then(|r| r.get("deadline_exceeded"))
            .and_then(Json::as_u64),
        Some(1)
    );

    handle.shutdown();
}

#[test]
fn concurrent_identical_requests_single_flight() {
    let handle = start(ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let body = Arc::new(small_run_body("gcc", 2000));

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let r = http::post_json(addr, "/v1/run", &body).unwrap();
                assert_eq!(r.status, 200);
                (r.header("x-multipath-cache").unwrap().to_owned(), r.body)
            })
        })
        .collect();
    let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    for (_, bytes) in &results {
        assert_eq!(bytes, &results[0].1, "all clients see identical bytes");
    }

    let metrics = Json::parse(&http::get(addr, "/metrics").unwrap().text()).unwrap();
    let cache = metrics.get("cache").unwrap();
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
    let misses = cache.get("misses").and_then(Json::as_u64).unwrap();
    let coalesced = cache.get("coalesced").and_then(Json::as_u64).unwrap();
    assert_eq!(misses, 1, "identical concurrent requests simulate once");
    assert_eq!(
        hits + misses + coalesced,
        4,
        "every request classified once"
    );
    assert_eq!(
        metrics
            .get("requests")
            .and_then(|r| r.get("run"))
            .and_then(Json::as_u64),
        Some(4)
    );

    handle.shutdown();
}

#[test]
fn sweep_streams_cells_in_order_and_shares_the_cache() {
    let handle = start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let sweep = r#"{"cells": [
        {"benches": ["compress"], "features": "tme", "commits": 1500},
        {"benches": ["compress"], "features": "rec", "commits": 1500},
        {"benches": ["go"], "features": "rec", "commits": 1500}
    ]}"#;

    let reply = http::post_json(addr, "/v1/sweep", sweep).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert_eq!(reply.header("transfer-encoding"), Some("chunked"));
    let text = reply.text();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    for (i, line) in lines.iter().enumerate() {
        let cell = Json::parse(line).expect("NDJSON line parses");
        assert_eq!(
            cell.get("schema").and_then(Json::as_str),
            Some("multipath-serve-cell/v1")
        );
        assert_eq!(cell.get("index").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(cell.get("cached"), Some(&Json::Bool(false)));
        assert!(cell.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        assert!(cell.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
    }
    assert!(
        lines[1].contains("\"features\":\"REC\""),
        "cell order follows request order: {}",
        lines[1]
    );

    // A /v1/run for one of the cells is a cache hit: the sweep and run
    // paths share one content-addressed cache.
    let run = http::post_json(
        addr,
        "/v1/run",
        r#"{"benches": ["compress"], "features": "rec", "commits": 1500}"#,
    )
    .unwrap();
    assert_eq!(run.header("x-multipath-cache"), Some("hit"));

    // Repeating the sweep is answered entirely from cache.
    let again = http::post_json(addr, "/v1/sweep", sweep).unwrap();
    for line in again.text().lines() {
        let cell = Json::parse(line).unwrap();
        assert_eq!(cell.get("cached"), Some(&Json::Bool(true)), "{line}");
    }

    handle.shutdown();
}

/// A cold six-cell sweep body; `seed` keeps sweeps from sharing cells.
fn six_cell_sweep(seed: u64) -> String {
    let cells: Vec<String> = ["compress", "go"]
        .iter()
        .flat_map(|bench| {
            ["tme", "rec", "rec-rs-ru"].map(|features| {
                format!(
                    "{{\"benches\": [\"{bench}\"], \"features\": \"{features}\", \
                     \"commits\": 4000, \"seed\": {seed}}}"
                )
            })
        })
        .collect();
    format!("{{\"cells\": [{}]}}", cells.join(", "))
}

/// `queue.<key>` from `/metrics`.
fn queue_field(addr: std::net::SocketAddr, key: &str) -> u64 {
    let metrics = Json::parse(&http::get(addr, "/metrics").unwrap().text()).unwrap();
    metrics
        .get("queue")
        .and_then(|q| q.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("queue.{key} in /metrics"))
}

#[test]
fn concurrent_sweeps_stay_inside_the_worker_bound() {
    let handle = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let clients: Vec<_> = (0..3u64)
        .flat_map(|i| {
            let sweep = std::thread::spawn(move || {
                let r = http::post_json(addr, "/v1/sweep", &six_cell_sweep(10 + i)).unwrap();
                assert_eq!(r.status, 200);
                assert_eq!(r.text().lines().count(), 6);
            });
            let run = std::thread::spawn(move || {
                let body = format!("{{\"benches\": [\"li\"], \"commits\": 4000, \"seed\": {i}}}");
                let r = http::post_json(addr, "/v1/run", &body).unwrap();
                assert_eq!(r.status, 200);
            });
            [sweep, run]
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let peak = queue_field(addr, "simulating_peak");
    assert!(
        (1..=2).contains(&peak),
        "{peak} simulations at once on 2 workers"
    );
    assert_eq!(queue_field(addr, "simulating"), 0);
    handle.shutdown();
}

#[test]
fn a_lone_sweep_fans_out_over_every_worker() {
    let handle = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let r = http::post_json(addr, "/v1/sweep", &six_cell_sweep(1)).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(queue_field(addr, "simulating_peak"), 2);
    handle.shutdown();
}

#[test]
fn oversize_documents_bypass_a_tiny_cache() {
    // A 1-byte budget stores nothing: every request misses and the
    // oversize counter records why.
    let handle = start(ServeConfig {
        workers: 1,
        cache_bytes: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let body = small_run_body("compress", 1000);
    for _ in 0..2 {
        let r = http::post_json(addr, "/v1/run", &body).unwrap();
        assert_eq!(r.header("x-multipath-cache"), Some("miss"));
    }
    let metrics = Json::parse(&http::get(addr, "/metrics").unwrap().text()).unwrap();
    let cache = metrics.get("cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("oversize").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(0));

    handle.shutdown();
}

#[test]
fn body_size_limit_is_enforced() {
    let handle = start(ServeConfig {
        workers: 1,
        max_body: 128,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let huge = format!(
        "{{\"benches\": [\"compress\"], \"commits\": 1000, \"seed\": {}}}",
        "1".repeat(200)
    );
    let reply = http::post_json(addr, "/v1/run", &huge).unwrap();
    assert_eq!(reply.status, 413);
    let doc = Json::parse(&reply.text()).unwrap();
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("payload_too_large")
    );
    handle.shutdown();
}

#[test]
fn explain_endpoint_serves_cached_attribution() {
    let handle = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let path = "/v1/explain/compress?commits=1500&top=3";

    let cold = http::get(addr, path).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-multipath-cache"), Some("miss"));
    let doc = Json::parse(&cold.text()).expect("explain doc parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("multipath-explain/v1")
    );

    let warm = http::get(addr, path).unwrap();
    assert_eq!(warm.header("x-multipath-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body);

    let bad = http::get(addr, "/v1/explain/nope").unwrap();
    assert_eq!(bad.status, 400);

    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_cleanly() {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let flag = Arc::new(AtomicBool::new(false));
    let run_flag = Arc::clone(&flag);
    let thread = std::thread::spawn(move || server.run(&run_flag));

    // A request completes, then shutdown stops the listener.
    let ok = http::post_json(addr, "/v1/run", &small_run_body("li", 1000)).unwrap();
    assert_eq!(ok.status, 200);
    flag.store(true, Ordering::Release);
    thread.join().expect("accept loop exits");
    assert!(
        http::get(addr, "/healthz").is_err(),
        "listener is closed after drain"
    );
}
