//! Stats-drift gate: the full machine-readable stats document
//! (`multipath-stats/v1`, counters + derived metrics + interval time
//! series) for every kernel under the quick budget, checked into
//! `tests/golden/stats_quick/<kernel>.json` byte-for-byte.
//!
//! Where `golden_trace.rs` pins *which instructions commit*, this suite
//! pins the *measured numbers* the paper reproduction reports — IPC,
//! recycle/reuse rates, fork coverage, occupancy histograms. Any change
//! that shifts a statistic shows up here as a JSON diff a reviewer can
//! read, instead of as an opaque digest mismatch.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! MP_UPDATE_GOLDEN=1 cargo test -p multipath-tests --test stats_drift
//! ```

use multipath_core::{stats_json, Features, ProbeConfig, RunSpec, SimConfig};
use multipath_testkit::Json;
use multipath_workload::Benchmark;

/// The quick budget (`Budget::quick()` in `multipath-bench`), restated
/// because the golden documents are only meaningful at this exact size.
const COMMITS: u64 = 4_000;
const MAX_CYCLES: u64 = 400_000;
const SEED: u64 = 1;

/// Interval width for the golden time series: wide enough to keep the
/// documents reviewable, narrow enough that drift localises to a phase.
const INTERVAL: u64 = 5_000;

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("stats_quick")
}

/// Runs one kernel under the pinned configuration and renders its stats
/// document exactly as `multipath trace` would.
fn stats_doc(bench: Benchmark) -> String {
    let features = Features::rec_rs_ru();
    let config = SimConfig::big_2_16().with_features(features);
    let mut sim = RunSpec {
        max_cycles: MAX_CYCLES,
        probes: Some(ProbeConfig {
            interval: Some(INTERVAL),
            ..ProbeConfig::default()
        }),
        ..RunSpec::new(config, vec![bench], SEED, COMMITS)
    }
    .run();
    let probes = sim.take_probes().expect("probes enabled");
    stats_json(
        bench.name(),
        features.label(),
        sim.stats(),
        probes.interval.as_ref(),
    )
}

#[test]
fn stats_documents_match_golden_for_every_kernel() {
    let dir = golden_dir();
    let update = std::env::var("MP_UPDATE_GOLDEN").is_ok();
    if update {
        std::fs::create_dir_all(&dir).expect("mkdir golden/stats_quick");
    }
    let mut drifted = Vec::new();
    for bench in Benchmark::ALL {
        let doc = stats_doc(bench);
        let path = dir.join(format!("{}.json", bench.name()));
        if update {
            std::fs::write(&path, &doc).expect("write golden stats");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {} ({e}); regenerate with MP_UPDATE_GOLDEN=1",
                path.display()
            )
        });
        if golden != doc {
            // Report the first differing line so the drift is readable in
            // CI logs without downloading artifacts.
            let diff = golden
                .lines()
                .zip(doc.lines())
                .enumerate()
                .find(|(_, (g, n))| g != n)
                .map(|(i, (g, n))| format!("line {}: golden `{g}` vs new `{n}`", i + 1))
                .unwrap_or_else(|| "documents differ in length".to_owned());
            drifted.push(format!("{}: {diff}", bench.name()));
        }
    }
    if update {
        eprintln!("golden stats regenerated under {}", dir.display());
        return;
    }
    assert!(
        drifted.is_empty(),
        "stats drift on {} kernel(s) — if intentional, regenerate with \
         MP_UPDATE_GOLDEN=1:\n  {}",
        drifted.len(),
        drifted.join("\n  ")
    );
}

#[test]
fn golden_stats_documents_are_valid_and_self_consistent() {
    // Independent of drift: every checked-in document must parse, carry
    // the versioned schema, and have interval sums equal to its own
    // aggregate counters (the exporter's core guarantee).
    for bench in Benchmark::ALL {
        let path = golden_dir().join(format!("{}.json", bench.name()));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {} ({e}); regenerate with MP_UPDATE_GOLDEN=1",
                path.display()
            )
        });
        let doc =
            Json::parse(&text).unwrap_or_else(|e| panic!("{}: invalid JSON: {e}", path.display()));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("multipath-stats/v1"),
            "{}: wrong schema tag",
            bench.name()
        );
        let counters: Vec<u64> = doc
            .get("counters")
            .and_then(Json::as_arr)
            .expect("counters array")
            .iter()
            .map(|v| v.as_u64().expect("integer counter"))
            .collect();
        let per_interval = doc
            .get("intervals")
            .and_then(|iv| iv.get("counters"))
            .and_then(Json::as_arr)
            .expect("interval counters");
        let mut sums = vec![0u64; counters.len()];
        for row in per_interval {
            for (s, v) in sums.iter_mut().zip(row.as_arr().expect("row").iter()) {
                *s += v.as_u64().expect("integer delta");
            }
        }
        assert_eq!(
            sums,
            counters,
            "{}: checked-in interval series does not reconstruct its own \
             aggregate counters",
            bench.name()
        );
    }
}
