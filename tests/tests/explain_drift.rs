//! Explain-drift gate: the full `multipath-explain/v1` document for two
//! representative kernels (one integer-heavy, one list-chasing) under the
//! quick budget, checked into `tests/golden/explain_quick/<kernel>.json`
//! byte-for-byte.
//!
//! Where `stats_drift.rs` pins the measured counters, this suite pins the
//! *attribution* of them — which denial causes, which branch PCs, which
//! squash sites. A pipeline change that shifts blame between causes shows
//! up here as a readable JSON diff even when the aggregate counters
//! happen to balance out.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! MP_UPDATE_GOLDEN=1 cargo test -p multipath-tests --test explain_drift
//! ```

use multipath_core::{explain_json, Features, ProbeConfig, RunSpec, SimConfig};
use multipath_testkit::Json;
use multipath_workload::Benchmark;

/// The quick budget (`Budget::quick()` in `multipath-bench`), restated
/// because the golden documents are only meaningful at this exact size.
const COMMITS: u64 = 4_000;
const MAX_CYCLES: u64 = 400_000;
const SEED: u64 = 1;

/// Attribution-table depth in the golden documents.
const TOP_N: usize = 10;

/// The pinned kernels: `compress` (arithmetic/branchy) and `li`
/// (pointer-chasing) exercise distinct denial-cause mixes.
const KERNELS: [Benchmark; 2] = [Benchmark::Compress, Benchmark::Li];

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("explain_quick")
}

/// Runs one kernel under the pinned configuration and renders its explain
/// document exactly as `multipath explain` would.
fn explain_doc(bench: Benchmark) -> String {
    let features = Features::rec_rs_ru();
    let config = SimConfig::big_2_16().with_features(features);
    let mut sim = RunSpec {
        max_cycles: MAX_CYCLES,
        probes: Some(ProbeConfig::explain()),
        ..RunSpec::new(config, vec![bench], SEED, COMMITS)
    }
    .run();
    let probes = sim.take_probes().expect("probes enabled");
    explain_json(
        bench.name(),
        features.label(),
        sim.stats(),
        probes.attribution.as_ref().expect("attribution sink on"),
        probes.tree.as_ref().expect("path-tree sink on"),
        TOP_N,
    )
}

#[test]
fn explain_documents_match_golden() {
    let dir = golden_dir();
    let update = std::env::var("MP_UPDATE_GOLDEN").is_ok();
    if update {
        std::fs::create_dir_all(&dir).expect("mkdir golden/explain_quick");
    }
    let mut drifted = Vec::new();
    for bench in KERNELS {
        let doc = explain_doc(bench);
        let path = dir.join(format!("{}.json", bench.name()));
        if update {
            std::fs::write(&path, &doc).expect("write golden explain doc");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {} ({e}); regenerate with MP_UPDATE_GOLDEN=1",
                path.display()
            )
        });
        if golden != doc {
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
        eprintln!(
            "golden explain documents regenerated under {}",
            dir.display()
        );
        return;
    }
    assert!(
        drifted.is_empty(),
        "explain drift on {} kernel(s) — if intentional, regenerate with \
         MP_UPDATE_GOLDEN=1:\n  {}",
        drifted.len(),
        drifted.join("\n  ")
    );
}

#[test]
fn golden_explain_documents_are_valid_and_exact() {
    // Independent of drift: every checked-in document must parse, carry
    // the versioned schema, have denial counts that sum to
    // `recycled - reused`, and declare every reconciliation identity
    // exact.
    for bench in KERNELS {
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
            Some("multipath-explain/v1"),
            "{}: wrong schema tag",
            bench.name()
        );

        let totals = doc.get("totals").expect("totals block");
        let total = |k: &str| -> u64 {
            totals
                .get(k)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("missing total `{k}`"))
        };
        let denied: u64 = doc
            .get("reuse_denied")
            .and_then(|d| d.get("counts"))
            .and_then(Json::as_arr)
            .expect("denial counts")
            .iter()
            .map(|v| v.as_u64().expect("integer count"))
            .sum();
        assert_eq!(
            denied,
            total("recycled_not_reused"),
            "{}: checked-in denial taxonomy does not cover recycled - reused",
            bench.name()
        );

        let recon = doc.get("reconciliation").expect("reconciliation block");
        let Json::Obj(entries) = recon else {
            panic!("{}: reconciliation is not an object", bench.name());
        };
        assert!(!entries.is_empty());
        for (name, entry) in entries {
            assert_eq!(
                entry.get("exact"),
                Some(&Json::Bool(true)),
                "{}: identity `{name}` not exact",
                bench.name()
            );
        }
    }
}
