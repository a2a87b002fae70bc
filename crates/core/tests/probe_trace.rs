//! Integration tests for the observability layer: the Chrome-trace
//! (Perfetto) exporter, the bounded event ring, per-interval time series
//! on a real kernel, and the identity of probed and unprobed runs.
//!
//! The exported JSON is validated by actually parsing it with the
//! workspace's own `multipath_testkit::Json` parser — the same guarantee
//! an external viewer gets, with no external crates involved.

use multipath_core::{
    Event, EventFilter, EventKind, Features, ProbeConfig, ProbeSink, RingSink, SimConfig,
    Simulator, StageProfile, Stats,
};
use multipath_testkit::Json;
use multipath_workload::{kernels, Benchmark};
use std::collections::BTreeMap;

fn traced_run(bench: Benchmark, commits: u64) -> Simulator {
    let program = kernels::build(bench, 1);
    let mut sim = Simulator::new(
        SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
        vec![program],
    );
    sim.enable_probes(ProbeConfig {
        ring: Some(256),
        interval: Some(50),
        spans: true,
        explain: true,
        filter: EventFilter::all(),
    });
    sim.run(commits, commits * 200);
    sim.finish_probes();
    sim
}

#[test]
fn chrome_trace_parses_and_covers_every_context() {
    let mut sim = traced_run(Benchmark::Compress, 2_000);
    let contexts = sim.config().contexts;
    let probes = sim.take_probes().expect("probes enabled");
    let text = probes
        .spans
        .as_ref()
        .expect("span recorder on")
        .chrome_trace_json(contexts);

    let doc = Json::parse(&text).expect("exporter emits valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Track naming metadata: every context gets a role track and a
    // recycle-stream track, named up front.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
        .filter_map(Json::as_str)
        .collect();
    for ctx in 0..contexts {
        assert!(names.iter().any(|n| *n == format!("ctx{ctx} role")));
        assert!(names.iter().any(|n| *n == format!("ctx{ctx} stream")));
    }

    // A busy recycling run exercises both span tracks and instants.
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(Json::as_str))
        .collect();
    assert!(phases.contains(&"X"), "no complete spans emitted");
    assert!(phases.contains(&"i"), "no instant events emitted");
}

#[test]
fn chrome_trace_spans_are_monotone_and_disjoint_per_track() {
    let mut sim = traced_run(Benchmark::Go, 2_000);
    let contexts = sim.config().contexts;
    let probes = sim.take_probes().expect("probes enabled");
    let text = probes
        .spans
        .as_ref()
        .expect("span recorder on")
        .chrome_trace_json(contexts);
    let doc = Json::parse(&text).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

    // Group complete spans by track id; each track is one context's role
    // (or stream) lane, so its spans must tile time without overlapping.
    let mut tracks: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        let ts = e.get("ts").and_then(Json::as_u64).expect("ts");
        let dur = e.get("dur").and_then(Json::as_u64).expect("dur");
        assert!(dur > 0, "zero-length span on track {tid} at {ts}");
        tracks.entry(tid).or_default().push((ts, ts + dur));
    }
    assert!(!tracks.is_empty());
    for (tid, spans) in &tracks {
        for w in spans.windows(2) {
            let ((s0, e0), (s1, _)) = (w[0], w[1]);
            assert!(
                s0 <= s1,
                "track {tid}: span starts go backwards ({s0} after {s1})"
            );
            assert!(
                e0 <= s1,
                "track {tid}: spans overlap ([{s0},{e0}) and [{s1},..))"
            );
        }
    }

    // Instants carry the scope marker Perfetto expects and sit inside the
    // traced window.
    let horizon = tracks
        .values()
        .flat_map(|s| s.iter().map(|&(_, e)| e))
        .max()
        .unwrap();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("i") {
            continue;
        }
        assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
        let ts = e.get("ts").and_then(Json::as_u64).expect("ts");
        assert!(
            ts <= horizon,
            "instant at {ts} beyond span horizon {horizon}"
        );
    }
}

#[test]
fn ring_sink_is_bounded_and_respects_the_filter() {
    // Only commit events pass the filter; the ring keeps the newest 32.
    let filter = EventFilter::parse("commit").expect("valid spec");
    let mut ring = RingSink::new(32, filter);
    let stats = Stats::default();
    for cycle in 0..500u64 {
        let kind = if cycle % 2 == 0 {
            EventKind::Commit {
                class: multipath_core::InstClass::IntAlu,
            }
        } else {
            EventKind::PregStall
        };
        ring.event(&Event {
            cycle,
            ctx: 0,
            pc: 0x1000 + cycle,
            kind,
        });
        ring.cycle_end(cycle, &stats, &[]);
    }
    assert_eq!(ring.len(), 32);
    assert_eq!(ring.dropped, 250 - 32);
    for ev in ring.events() {
        assert!(matches!(ev.kind, EventKind::Commit { .. }));
        // Newest-32 window of the 250 accepted events.
        assert!(ev.cycle >= 436 && ev.cycle % 2 == 0);
    }
}

#[test]
fn interval_series_matches_final_stats_on_a_kernel() {
    let mut sim = traced_run(Benchmark::Vortex, 3_000);
    let finals = sim.stats().counters();
    let probes = sim.take_probes().expect("probes enabled");
    let series = probes.interval.as_ref().expect("interval sink on");
    assert!(series.intervals().len() > 2, "run too short to test tiling");
    assert_eq!(series.counter_sums(), finals);

    // The class histograms agree with the aggregate counters they split.
    let stats = sim.stats();
    let sum = |f: fn(&multipath_core::Interval) -> &[u64; 7]| -> u64 {
        series.intervals().iter().flat_map(|iv| f(iv).iter()).sum()
    };
    assert_eq!(sum(|iv| &iv.renamed_by_class), stats.renamed);
    assert_eq!(sum(|iv| &iv.recycled_by_class), stats.recycled);
    assert_eq!(sum(|iv| &iv.reused_by_class), stats.reused);
    assert_eq!(sum(|iv| &iv.committed_by_class), stats.committed);
}

#[test]
fn disabled_probes_change_nothing() {
    // Two identical runs, one with probes on: simulated behaviour must be
    // bit-for-bit identical (probes observe, never perturb).
    let run = |probed: bool| {
        let program = kernels::build(Benchmark::Li, 1);
        let mut sim = Simulator::new(
            SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
            vec![program],
        );
        if probed {
            sim.enable_probes(ProbeConfig::default());
        }
        sim.run(1_500, 150_000);
        sim.finish_probes();
        sim.stats().counters()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn host_profile_samples_one_cycle_in_the_period_and_changes_nothing() {
    let run = |profiled: bool| {
        let program = kernels::build(Benchmark::Go, 1);
        let mut sim = Simulator::new(
            SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
            vec![program],
        );
        if profiled {
            sim.enable_host_profile();
        }
        sim.run(1_500, 150_000);
        let steps = sim.host_profile().map(|p| p.steps);
        (sim.stats().counters(), sim.stats().cycles, steps)
    };
    let (plain, _, none) = run(false);
    let (profiled, cycles, steps) = run(true);
    assert_eq!(none, None);
    assert_eq!(plain, profiled, "the sampled clock perturbs nothing");
    let period = StageProfile::SAMPLE_PERIOD;
    assert_ne!(
        cycles % period,
        0,
        "a run whose length the period does not divide"
    );
    // Cycles 0, 16, 32, … below `cycles` are the timed ones.
    assert_eq!(
        steps,
        Some((0..cycles).filter(|c| c % period == 0).count() as u64)
    );
}
