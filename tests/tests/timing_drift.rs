//! Timing gate: the full `Stats::counters()` vector — cycles, renames,
//! squashes, forks, merges — for the shapes where the issue queues and
//! the ICOUNT order decide the cycle count, checked into
//! `tests/golden/timing_quick.txt`.
//!
//! `stats_drift.rs` pins single kernels on the big.2.16 preset, where the
//! 64-entry queues rarely fill. This suite adds the two regimes that
//! preset leaves loose:
//!
//! - every 4-program rotation under SMT on big.2.16 and small.1.8, where
//!   four threads share the queues and ICOUNT picks who fetches and
//!   renames;
//! - non-preset REC/RS/RU machines at or near `SimConfig::validate`'s
//!   minimums (8-entry queues, 8-entry active lists, 2-wide rename),
//!   where queue-full stalls and the occupancy of squashed entries that
//!   have not yet left the queue decide cycles.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! MP_UPDATE_GOLDEN=1 cargo test -p multipath-tests --test timing_drift
//! ```

use multipath_core::{Features, RunSpec, SimConfig, Stats};
use multipath_workload::{mix, Benchmark};
use std::fmt::Write as _;

/// Committed instructions per program: enough for forks, merges and
/// queue-full stalls to recur, small enough for debug builds.
const COMMITS: u64 = 2_000;
const SEED: u64 = 1;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("timing_quick.txt")
}

/// Non-preset REC/RS/RU machines at or near the `validate()` minimums.
fn tight_shapes() -> Vec<(&'static str, SimConfig)> {
    let mut q8 = SimConfig::big_2_16();
    q8.int_queue = 8;
    q8.fp_queue = 8;
    q8.active_list = 8;
    q8.rename_width = 2;

    let mut small = SimConfig::small_1_8();
    small.int_queue = 8;
    small.fp_queue = 8;
    small.active_list = 16;
    small.rename_width = 2;
    small.phys_int = 8 * 32 + 16;
    small.phys_fp = 8 * 32 + 16;

    let mut ctx4 = SimConfig::big_2_16();
    ctx4.contexts = 4;
    ctx4.phys_int = 4 * 32 + 16;
    ctx4.phys_fp = 4 * 32 + 16;
    ctx4.int_queue = 12;
    ctx4.fp_queue = 8;
    ctx4.active_list = 8;
    ctx4.rename_width = 2;

    [("q8", q8), ("small-q8", small), ("ctx4-q12", ctx4)]
        .into_iter()
        .map(|(name, c)| (name, c.with_features(Features::rec_rs_ru())))
        .collect()
}

/// Every pinned run: a row label and its spec.
fn cases() -> Vec<(String, RunSpec)> {
    let mut out = Vec::new();
    for machine in ["big.2.16", "small.1.8"] {
        for m in mix::rotations(4) {
            let config = SimConfig::from_machine_name(machine)
                .expect("preset machine")
                .with_features(Features::smt());
            let names: Vec<&str> = m.iter().map(|b| b.name()).collect();
            let label = format!("SMT {machine} {}", names.join("+"));
            out.push((label, RunSpec::new(config, m, SEED, COMMITS)));
        }
    }
    for (shape, config) in tight_shapes() {
        for bench in Benchmark::ALL {
            let label = format!("REC/RS/RU {shape} {}", bench.name());
            out.push((
                label,
                RunSpec::new(config.clone(), vec![bench], SEED, COMMITS),
            ));
        }
        let pair = vec![Benchmark::Go, Benchmark::Gcc];
        let label = format!("REC/RS/RU {shape} go+gcc");
        out.push((label, RunSpec::new(config, pair, SEED, COMMITS)));
    }
    out
}

fn row(label: &str, spec: &RunSpec) -> String {
    let sim = spec.run();
    let stats = sim.stats();
    let target = spec.commits * spec.benches.len() as u64;
    assert!(
        stats.committed >= target,
        "`{label}` stopped at {} of {target} commits after {} cycles",
        stats.committed,
        stats.cycles
    );
    let counters: Vec<String> = stats.counters().iter().map(u64::to_string).collect();
    format!("{label}: {}", counters.join(" "))
}

fn render() -> String {
    let mut out = String::from(
        "# label: Stats::counters() — regenerate with MP_UPDATE_GOLDEN=1 (see timing_drift.rs)\n",
    );
    let _ = writeln!(out, "# columns: {}", Stats::COUNTER_NAMES.join(" "));
    for (label, spec) in cases() {
        out.push_str(&row(&label, &spec));
        out.push('\n');
    }
    out
}

#[test]
fn timing_counters_match_golden() {
    let rendered = render();
    let path = golden_path();
    if std::env::var("MP_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden timing file");
        eprintln!("golden timing counters regenerated at {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} ({e}); regenerate with MP_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let drifted: Vec<String> = golden
        .lines()
        .zip(rendered.lines())
        .filter(|(g, n)| g != n)
        .map(|(g, n)| format!("checked-in `{g}`\n    recomputed `{n}`"))
        .collect();
    assert!(
        drifted.is_empty(),
        "timing drift on {} row(s) — if intentional, regenerate with MP_UPDATE_GOLDEN=1:\n  {}",
        drifted.len(),
        drifted.join("\n  ")
    );
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "golden timing file row count differs from the computed cases"
    );
}
