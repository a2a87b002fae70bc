//! The `figures` workload: the paper's figures at the full budget on the
//! parallel sweep engine, each rendered and compared byte for byte against
//! `results/*.txt`.
//!
//! The timed run repeats fig4, fig3, and table1. fig4's cells are new, so
//! it is the cold operation; every cell of fig3 and table1 already ran
//! inside fig4, so they are repeats (hits) that today's sweep engine
//! simulates again. fig5 and fig6 (16 of the suite's 24 s on two cores)
//! run only in the traced run: with them one pass outlasts a run, and the
//! run-to-run spread then follows host drift. Each figure's latency is its
//! 10th percentile over the run (the uncontended host); p50 and p99 are
//! taken across figures.

use crate::layers::{self, CellSpec};
use crate::report::{self, metric, ratio, secs, Checks, EndToEnd};
use crate::spans::Tracer;
use crate::{Options, Outcome};
use multipath_bench::{self as bench, parallel, Budget};
use multipath_core::{AltPolicy, Features, SimConfig, Simulator};
use multipath_workload::{mix, Benchmark};
use std::hint::black_box;
use std::time::Instant;

/// The suite's figures, in `results/<name>.txt` naming.
pub const NAMES: [&str; 5] = ["fig3", "fig4", "fig5", "fig6", "table1"];

/// The full suite's order (indices into [`NAMES`]): new cells first, fig3
/// and table1 last.
const SUITE: [usize; 5] = [1, 2, 3, 0, 4];

/// The timed run's pass: fig4, then fig3 and table1.
const TIMED: [usize; 3] = [1, 0, 4];

/// Whether figure `i`'s cells all ran earlier in the suite.
fn is_repeat(i: usize) -> bool {
    matches!(NAMES[i], "fig3" | "table1")
}

/// Computes and renders figure `i` through the bench crate's public API.
pub fn render(i: usize, budget: &Budget, tracer: &Tracer, parent: Option<u32>) -> String {
    let key = || NAMES[i].to_owned();
    macro_rules! figure {
        ($run:ident, $render:ident) => {{
            let rows = tracer.span(concat!("bench::", stringify!($run)), parent, key, |_| {
                bench::$run(budget)
            });
            tracer.span(concat!("bench::", stringify!($render)), parent, key, |_| {
                bench::$render(&rows)
            })
        }};
    }
    match NAMES[i] {
        "fig3" => figure!(figure3, render_figure3),
        "fig4" => figure!(figure4, render_figure4),
        "fig5" => figure!(figure5, render_figure5),
        "fig6" => figure!(figure6, render_figure6),
        _ => figure!(table1, render_table1),
    }
}

/// Every figure's text at `budget`, in [`NAMES`] order.
pub fn suite_texts(budget: &Budget) -> Vec<String> {
    let quiet = Tracer::new(false);
    (0..NAMES.len())
        .map(|i| render(i, budget, &quiet, None))
        .collect()
}

/// Committed-instruction targets of the figures `which` (indices into
/// [`NAMES`]); each cell commits at least its target.
fn commit_targets(budget: &Budget, which: &[usize]) -> u64 {
    let mixes = |n: usize| (budget.mixes.min(mix::rotations(n).len()) * n) as u64;
    let across = mixes(1) + mixes(2) + mixes(4);
    let programs = |i: usize| match NAMES[i] {
        "fig3" => (Benchmark::ALL.len() * 6) as u64,
        "fig4" => 6 * across,
        "fig5" => AltPolicy::figure5_sweep().len() as u64 * across,
        "fig6" => (bench::figure6_machines().len() * 3) as u64 * across,
        _ => Benchmark::ALL.len() as u64 + mixes(2) + mixes(4),
    };
    which.iter().map(|&i| programs(i)).sum::<u64>() * budget.committed_per_program
}

/// Every distinct cell of the timed pass: fig4's grid (1, 2, and 4
/// programs under the six feature sets on big.2.16), which holds every
/// cell of fig3 and table1 as well.
fn timed_cells(budget: &Budget) -> Vec<(SimConfig, Vec<Benchmark>)> {
    let mut cells = Vec::new();
    for n in [1, 2, 4] {
        for features in Features::all_six() {
            let config = SimConfig::big_2_16().with_features(features);
            for m in mix::rotations(n).into_iter().take(budget.mixes) {
                cells.push((config.clone(), m));
            }
        }
    }
    cells
}

/// Set-up: load the expected texts, then build the inputs of every cell
/// the timed pass runs (`mix::programs` and `Simulator::new`), as the
/// sweep engine does before it simulates a cell.
fn setup(opts: &Options, checks: &mut Checks, tracer: &Tracer) -> (Vec<String>, f64) {
    let t = Instant::now();
    let expected = match &opts.expected {
        Some(texts) => texts.clone(),
        None => NAMES
            .iter()
            .map(|name| {
                let path = crate::repo_root()
                    .join("results")
                    .join(format!("{name}.txt"));
                let text = std::fs::read_to_string(&path);
                checks.check(text.is_ok(), || format!("cannot read {}", path.display()));
                text.unwrap_or_default()
            })
            .collect(),
    };
    let budget = &opts.scale.figures_budget;
    for (config, m) in timed_cells(budget) {
        let programs = tracer.span("workload::mix::programs", None, String::new, |_| {
            mix::programs(&m, budget.seed)
        });
        black_box(tracer.span("core::Simulator::new", None, String::new, |_| {
            Simulator::new(config, programs)
        }));
    }
    (expected, secs(t))
}

/// One pass over some figures: texts and per-figure seconds in [`NAMES`]
/// order (empty and 0 for figures the pass skipped), plus per-figure
/// process CPU seconds.
struct SuitePass {
    texts: Vec<String>,
    secs: Vec<f64>,
    cpu: Vec<f64>,
    wall: f64,
}

fn suite_pass(budget: &Budget, order: &[usize], tracer: &Tracer) -> SuitePass {
    let mut p = SuitePass {
        texts: vec![String::new(); NAMES.len()],
        secs: vec![0.0; NAMES.len()],
        cpu: vec![0.0; NAMES.len()],
        wall: 0.0,
    };
    let start = Instant::now();
    tracer.span("perfbench::suite", None, String::new, |suite| {
        for &i in order {
            let (t, cpu) = (Instant::now(), report::cpu_seconds());
            p.texts[i] = render(i, budget, tracer, suite);
            p.secs[i] = secs(t);
            p.cpu[i] = report::cpu_seconds() - cpu;
        }
    });
    p.wall = secs(start);
    p
}

fn check_texts(checks: &mut Checks, what: &str, order: &[usize], got: &[String], want: &[String]) {
    for &i in order {
        checks.check(got[i] == want[i], || {
            format!("{}: output differs from {what}", NAMES[i])
        });
    }
}

/// Runs the `figures` workload.
pub fn run(opts: &Options) -> Outcome {
    let budget = &opts.scale.figures_budget;
    let mut checks = Checks::default();
    if opts.trace {
        return traced(opts, budget, checks);
    }
    let quiet = Tracer::new(false);
    let mut setups = Vec::new();
    let mut expected = Vec::new();
    let start = Instant::now();
    // Seconds per figure, every request of the run.
    let mut by_figure = vec![Vec::new(); NAMES.len()];
    let (mut walls, mut minst, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    while walls.is_empty() || secs(start) < opts.seconds {
        // A few set-ups before every pass rather than all of them at the
        // start: a single-threaded set-up keeps one core, whose speed on a
        // shared host is a matter of the moment, so the samples are spread
        // over the run.
        for _ in 0..(opts.scale.setup_reps / 3).max(1) {
            let mut setup_checks = Checks::default();
            let (e, s) = setup(opts, &mut setup_checks, &quiet);
            setups.push(s);
            expected = e;
            if setups.len() == 1 {
                checks.merge(setup_checks);
            }
        }
        let pass = suite_pass(budget, &TIMED, &quiet);
        check_texts(
            &mut checks,
            "the expected text",
            &TIMED,
            &pass.texts,
            &expected,
        );
        for &i in &TIMED {
            by_figure[i].push(pass.secs[i]);
        }
        walls.push(pass.wall);
        minst.push(ratio(commit_targets(budget, &TIMED) as f64, pass.wall) / 1e6);
        rate.push(ratio(TIMED.len() as f64, pass.wall));
    }
    // Each figure's latency on the uncontended host: its 10th percentile
    // over the run's requests, as for `wall_s`.
    let fastest = |&i: &usize| report::percentile(&by_figure[i], 10.0) * 1e3;
    let e2e = EndToEnd {
        setup_s: report::median(&setups),
        wall_s: report::percentile(&walls, 10.0),
        minst_per_s: report::percentile(&minst, 90.0),
        req_per_s: report::percentile(&rate, 90.0),
        cold_ms: TIMED
            .iter()
            .filter(|&&i| !is_repeat(i))
            .map(fastest)
            .collect(),
        hit_ms: TIMED
            .iter()
            .filter(|&&i| is_repeat(i))
            .map(fastest)
            .collect(),
    };
    Outcome {
        notes: vec![
            format!(
                "passes of fig4, fig3, and table1: {} on {} sweep threads",
                walls.len(),
                parallel::thread_count()
            ),
            e2e.sample_note(),
        ],
        metrics: e2e.metrics(),
        checks,
        tracer: quiet,
    }
}

fn traced(opts: &Options, budget: &Budget, mut checks: Checks) -> Outcome {
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let (expected, _) = setup(opts, &mut checks, &tracer);
    let plain = suite_pass(budget, &SUITE, &quiet);
    let traced = suite_pass(budget, &SUITE, &tracer);
    check_texts(
        &mut checks,
        "the expected text",
        &SUITE,
        &plain.texts,
        &expected,
    );
    check_texts(
        &mut checks,
        "the untraced pass",
        &SUITE,
        &traced.texts,
        &plain.texts,
    );

    let threads = parallel::thread_count() as f64;
    let mut produced = vec![metric(
        "bench.cpu_util",
        ratio(
            traced.cpu.iter().sum(),
            threads * traced.secs.iter().sum::<f64>(),
        ),
    )];
    for (name, s) in NAMES.iter().zip(&traced.secs) {
        produced.push(metric(format!("bench.{name}_s"), *s));
    }

    // The core layer under the suite: fig3's 48 single-program cells,
    // serially, with and without observation.
    let specs: Vec<CellSpec> = bench::figure3_cells(budget)
        .into_iter()
        .map(|c| CellSpec {
            label: format!("{}/{}", c.config.features.label(), c.workload[0].name()),
            target: budget.committed_per_program * c.workload.len() as u64,
            max_cycles: budget.max_cycles,
            config: c.config,
            benches: c.workload,
            seed: c.seed,
        })
        .collect();
    produced.extend(layers::observe(&mut checks, &specs, &tracer).metrics);
    produced.extend(layers::substrates(
        &layers::distinct_programs(&specs),
        &SimConfig::big_2_16(),
        opts.scale.micro,
        &tracer,
    ));
    let overhead = ratio(traced.wall, plain.wall) - 1.0;
    crate::traced_outcome(checks, tracer, produced, overhead)
}
