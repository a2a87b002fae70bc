//! The serving-layer smoke test: proves the HTTP service is a faithful,
//! faster front to the exact pipeline behind `multipath trace`.
//!
//! Eight concurrent clients each request a different kernel through
//! `POST /v1/run` (cold pass), then repeat the same requests (cached
//! pass). The test then runs the real `multipath` binary for every
//! kernel and asserts the served documents are **byte-identical** to
//! what `--stats-out` wrote — determinism is the contract that makes the
//! content-addressed cache sound. Finally it checks the cache paid for
//! itself (median latency ≥10x better on the repeat pass) and that the
//! `/metrics` counters reconcile exactly with the requests made.

use multipath_serve::{ServeConfig, Server};
use multipath_testkit::http;
use std::process::Command;
use std::time::Instant;

const KERNELS: [&str; 8] = [
    "compress", "gcc", "go", "li", "perl", "su2cor", "tomcatv", "vortex",
];
const COMMITS: u64 = 2000;

/// One timed pass: every kernel requested concurrently; returns
/// `(kernel, latency_seconds, body, cache_header)` in kernel order.
fn request_all(addr: std::net::SocketAddr) -> Vec<(&'static str, f64, Vec<u8>, String)> {
    let clients: Vec<_> = KERNELS
        .iter()
        .map(|&kernel| {
            std::thread::spawn(move || {
                let body = format!("{{\"benches\": [\"{kernel}\"], \"commits\": {COMMITS}}}");
                let started = Instant::now();
                let reply = http::post_json(addr, "/v1/run", &body).expect("POST /v1/run");
                let latency = started.elapsed().as_secs_f64();
                assert_eq!(reply.status, 200, "{kernel}: {}", reply.text());
                let outcome = reply
                    .header("x-multipath-cache")
                    .expect("cache outcome header")
                    .to_owned();
                (kernel, latency, reply.body, outcome)
            })
        })
        .collect();
    clients.into_iter().map(|c| c.join().unwrap()).collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

#[test]
fn served_results_are_byte_identical_to_the_cli_and_cached() {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 8,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.start();

    // Pass 1: all eight kernels, concurrently, cold.
    let cold = request_all(addr);
    for (kernel, _, _, outcome) in &cold {
        assert_eq!(outcome, "miss", "{kernel} must simulate on first sight");
    }

    // Pass 2: identical requests — answered from the cache.
    let cached = request_all(addr);
    for ((kernel, _, cold_body, _), (_, _, cached_body, outcome)) in cold.iter().zip(&cached) {
        assert_eq!(outcome, "hit", "{kernel} must be cached on repeat");
        assert_eq!(cold_body, cached_body, "{kernel}: cache altered the bytes");
    }

    // The cache must buy at least an order of magnitude on this workload:
    // a loopback round-trip versus a full simulation.
    let cold_median = median(cold.iter().map(|(_, l, _, _)| *l).collect());
    let cached_median = median(cached.iter().map(|(_, l, _, _)| *l).collect());
    assert!(
        cold_median >= 10.0 * cached_median,
        "expected ≥10x from cache hits: cold median {:.1} ms, cached median {:.3} ms",
        cold_median * 1e3,
        cached_median * 1e3,
    );

    // The served documents are byte-identical to what the CLI writes.
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_smoke");
    std::fs::create_dir_all(&tmp).expect("create tmp dir");
    for (i, (kernel, _, served, _)) in cold.iter().enumerate() {
        let stats_path = tmp.join(format!("{kernel}-stats.json"));
        let trace_path = tmp.join(format!("{kernel}-trace.json"));
        // Half the kernels also print a timeline: it steps the machine
        // past the run, which must not leak into the written document.
        let timeline: &[&str] = if i % 2 == 0 {
            &["--timeline", "64"]
        } else {
            &[]
        };
        let status = Command::new(env!("CARGO_BIN_EXE_multipath"))
            .args([
                "trace",
                kernel,
                "--commits",
                &COMMITS.to_string(),
                "--stats-out",
                stats_path.to_str().unwrap(),
                "--out",
                trace_path.to_str().unwrap(),
            ])
            .args(timeline)
            .output()
            .expect("run the multipath binary");
        assert!(status.status.success(), "{kernel}: multipath trace failed");
        let cli_bytes = std::fs::read(&stats_path).expect("read CLI stats doc");
        assert_eq!(
            served, &cli_bytes,
            "{kernel}: served document differs from `multipath trace --stats-out`"
        );
    }

    // The metrics reconcile exactly: 16 run requests = 8 misses (cold
    // pass) + 8 hits (cached pass), nothing coalesced, nothing lost.
    let metrics = http::get(addr, "/metrics").expect("GET /metrics");
    let doc = multipath_testkit::Json::parse(&metrics.text()).expect("metrics parse");
    let get = |path: [&str; 2]| {
        doc.get(path[0])
            .and_then(|s| s.get(path[1]))
            .and_then(multipath_testkit::Json::as_u64)
            .unwrap_or_else(|| panic!("missing {path:?} in {}", metrics.text()))
    };
    assert_eq!(get(["requests", "run"]), 16);
    assert_eq!(get(["cache", "misses"]), 8);
    assert_eq!(get(["cache", "hits"]), 8);
    assert_eq!(get(["cache", "coalesced"]), 0);
    assert_eq!(
        get(["cache", "hits"]) + get(["cache", "misses"]) + get(["cache", "coalesced"]),
        get(["requests", "run"]),
        "every request classified exactly once"
    );
    assert_eq!(get(["cache", "entries"]), 8);
    assert!(get(["host_profile", "steps"]) > 0, "profile aggregated");

    handle.shutdown();
}
