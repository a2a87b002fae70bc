//! The benchmark's own tests, at tiny sizes: every metric `BENCHMARK.json`
//! declares is emitted with its unit, every per-layer row measures
//! something on some workload, and a wrong output raises the error count
//! instead of panicking.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use multipath_perfbench::report::declared;
use multipath_perfbench::{figures, run, Options, Scale, Workload};

fn tiny(workload: Workload, trace: bool, expected: &[String]) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::tiny(),
        expected: Some(expected.to_vec()),
    }
}

/// Per-layer rows that legitimately read 0 on today's code: nothing
/// coalesces, is shed, or times out under the benchmark's closed loop, and
/// the tracing overhead may round to nothing.
const MAY_READ_ZERO: [&str; 4] = [
    "serve.coalesced",
    "serve.rejected_429",
    "serve.deadline_504",
    "trace.overhead",
];

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let expected = figures::suite_texts(&Scale::tiny().figures_budget);
    let mut layer_values: Vec<(String, Vec<f64>)> = Vec::new();
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(list);
        for w in Workload::ALL {
            let out = run(&tiny(w, trace, &expected));
            assert_eq!(
                out.checks.failed,
                0,
                "{} trace={trace}: {:?}",
                w.name(),
                out.checks.failures
            );
            assert!(out.checks.attempted > 0);
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{} {} reads 0", w.name(), m.name);
                }
            }
            if trace {
                assert!(!out.tracer.spans().is_empty(), "{}: no spans", w.name());
                layer_values.resize(out.metrics.len(), (String::new(), Vec::new()));
                for (slot, m) in layer_values.iter_mut().zip(&out.metrics) {
                    slot.0.clone_from(&m.name);
                    slot.1.push(m.value);
                }
            }
        }
    }
    // A row that reads 0 on every workload measures nothing: a renamed
    // call site or a dropped `/metrics` field shows up here.
    for (name, values) in &layer_values {
        if !MAY_READ_ZERO.contains(&name.as_str()) {
            assert!(
                values.iter().any(|&v| v != 0.0),
                "{name} reads 0 on every workload"
            );
        }
    }
}

#[test]
fn a_corrupted_expected_figure_counts_as_a_failed_check() {
    let mut expected = figures::suite_texts(&Scale::tiny().figures_budget);
    expected[1].push_str("corrupted\n");
    let out = run(&tiny(Workload::Figures, false, &expected));
    // One failure per pass, all of them fig4.
    assert!(out.checks.failed >= 1, "{:?}", out.checks);
    assert!(out.checks.attempted > out.checks.failed);
    assert!(out.checks.failures.iter().all(|f| f.starts_with("fig4")));
}

#[test]
fn cells_that_miss_their_target_count_as_failed_checks() {
    let mut opts = tiny(Workload::KernelsRec, false, &[]);
    opts.scale.max_cycles_per_commit = 0;
    let out = run(&opts);
    // Every lockstep cell and every cold cell misses its target.
    assert!(out.checks.failed >= 16, "{:?}", out.checks);
    assert!(out.checks.attempted > out.checks.failed);
}
