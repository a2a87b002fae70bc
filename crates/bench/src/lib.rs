//! Experiment harness for the HPCA'99 instruction-recycling reproduction.
//!
//! Every table and figure of the paper's evaluation has a runner here and a
//! binary that prints it (`cargo run --release -p multipath-bench --bin
//! fig3`, `fig4`, `fig5`, `fig6`, `table1`). The bench target
//! (`cargo bench -p multipath-bench`) times representative simulations of
//! each experiment so regressions in simulator throughput are visible.
//!
//! Sweeps run on the [`parallel`] engine: each figure builds its full
//! cell list, shards it across `MULTIPATH_THREADS` workers (default: all
//! cores), and aggregates in cell-list order, so output is byte-identical
//! at any thread count. `MULTIPATH_BUDGET=quick` selects the smoke-sized
//! budget; `MP_BENCH_COMMITS`/`MP_BENCH_MIXES` fine-tune it.
//!
//! Absolute IPC is not expected to match the paper (its workloads were
//! SPEC95 Alpha binaries on the authors' simulator; ours are synthetic
//! proxies — see `DESIGN.md`). The *shape* is the reproduction target:
//! which configuration wins, how gains move with program count, and where
//! the recycling statistics land.

use multipath_core::{AltPolicy, EventFilter, Features, ProbeConfig, RunSpec, SimConfig, Stats};
use multipath_workload::{mix, Benchmark};

pub mod parallel;

/// How big each simulation is.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Committed instructions per co-scheduled program.
    pub committed_per_program: u64,
    /// Hard cycle cap (guards against pathological configurations).
    pub max_cycles: u64,
    /// Workload seed.
    pub seed: u64,
    /// How many of the eight benchmark permutations to average for
    /// multi-program points (the paper uses all eight).
    pub mixes: usize,
}

impl Budget {
    /// The default experiment size: 20k committed instructions per program
    /// over all eight permutations.
    pub fn full() -> Budget {
        Budget {
            committed_per_program: 20_000,
            max_cycles: 2_000_000,
            seed: 1,
            mixes: 8,
        }
    }

    /// A fast smoke-sized budget for tests and bench timing.
    pub fn quick() -> Budget {
        Budget {
            committed_per_program: 4_000,
            max_cycles: 400_000,
            seed: 1,
            mixes: 2,
        }
    }

    /// Reads the budget from the environment: `MULTIPATH_BUDGET=quick`
    /// selects [`Budget::quick`] (anything else means [`Budget::full`]),
    /// then `MP_BENCH_COMMITS` / `MP_BENCH_MIXES` override individual
    /// knobs.
    pub fn from_env() -> Budget {
        let mut b = match std::env::var("MULTIPATH_BUDGET").as_deref() {
            Ok("quick") => Budget::quick(),
            _ => Budget::full(),
        };
        if let Some(n) = std::env::var("MP_BENCH_COMMITS")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            b.committed_per_program = n;
        }
        if let Some(n) = std::env::var("MP_BENCH_MIXES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            b.mixes = n.clamp(1, 8);
        }
        b
    }
}

/// One experiment cell: machine + features + policy + workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Machine model.
    pub config: SimConfig,
    /// The benchmarks co-scheduled in this run.
    pub workload: Vec<Benchmark>,
    /// Workload seed.
    pub seed: u64,
}

impl Cell {
    /// This cell as a run under `budget`'s commit target and cycle cap.
    pub fn spec(&self, budget: &Budget) -> RunSpec {
        RunSpec {
            max_cycles: budget.max_cycles,
            ..RunSpec::new(
                self.config.clone(),
                self.workload.clone(),
                self.seed,
                budget.committed_per_program,
            )
        }
    }
}

/// Runs one cell to the budget and returns the statistics.
pub fn run_cell(cell: &Cell, budget: &Budget) -> Stats {
    cell.spec(budget).run().stats().clone()
}

/// Runs one cell with the full observability stack enabled — interval
/// time series, span recorder, and a bounded event ring — for the
/// probe-overhead A/B in the `hotpath` harness. Probes observe without
/// perturbing, so the returned statistics are bit-identical to
/// [`run_cell`]'s (the harness asserts this).
pub fn run_cell_probed(cell: &Cell, budget: &Budget) -> Stats {
    let spec = RunSpec {
        probes: Some(ProbeConfig {
            ring: Some(1024),
            interval: Some(100),
            spans: true,
            explain: true,
            filter: EventFilter::all(),
        }),
        ..cell.spec(budget)
    };
    spec.run().stats().clone()
}

/// The cell for `bench` running alone under `features` on the baseline
/// machine.
fn single_cell(bench: Benchmark, features: Features, budget: &Budget) -> Cell {
    Cell {
        config: SimConfig::big_2_16().with_features(features),
        workload: vec![bench],
        seed: budget.seed,
    }
}

/// Convenience: run `bench` alone under `features` on the baseline machine.
pub fn run_single(bench: Benchmark, features: Features, budget: &Budget) -> Stats {
    run_cell(&single_cell(bench, features, budget), budget)
}

/// The cells behind one multi-program average: the paper's evenly-weighted
/// permutations of `n` programs, limited to `budget.mixes` rotations.
fn mix_cells(config: &SimConfig, n_programs: usize, budget: &Budget) -> Vec<Cell> {
    let mixes = mix::rotations(n_programs);
    let take = budget.mixes.min(mixes.len());
    mixes
        .into_iter()
        .take(take)
        .map(|m| Cell {
            config: config.clone(),
            workload: m,
            seed: budget.seed,
        })
        .collect()
}

/// Mean IPC over per-cell statistics, summed in cell order (the order
/// matters: floating-point addition is not associative, and the CI
/// determinism gate compares serial and parallel output byte-for-byte).
fn mean_ipc(stats: &[Stats]) -> f64 {
    stats.iter().map(Stats::ipc).sum::<f64>() / stats.len() as f64
}

/// Average IPC over the paper's evenly-weighted permutations of `n`
/// programs (limited to `budget.mixes` rotations).
pub fn average_ipc(config: &SimConfig, n_programs: usize, budget: &Budget) -> f64 {
    mean_ipc(&parallel::run_cells(
        &mix_cells(config, n_programs, budget),
        budget,
    ))
}

// ---------------------------------------------------------------------
// Figure 3: per-program IPC under the six configurations.
// ---------------------------------------------------------------------

/// One Figure 3 row: a benchmark and its IPC under each configuration.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// The benchmark.
    pub bench: Benchmark,
    /// IPC per configuration, in [`Features::all_six`] order.
    pub ipc: [f64; 6],
}

/// The full Figure 3 cell list (8 benchmarks × 6 configurations), in the
/// order `figure3` aggregates them. Exposed so the `hotpath` throughput
/// harness times exactly the sweep the figure runs.
pub fn figure3_cells(budget: &Budget) -> Vec<Cell> {
    Benchmark::ALL
        .into_iter()
        .flat_map(|bench| {
            Features::all_six()
                .into_iter()
                .map(move |f| single_cell(bench, f, budget))
        })
        .collect()
}

/// Runs Figure 3 (single-program IPC for SMT/TME/REC/REC-RU/REC-RS/
/// REC-RS-RU on the baseline machine). All 48 cells run in parallel.
pub fn figure3(budget: &Budget) -> Vec<Fig3Row> {
    let cells = figure3_cells(budget);
    let stats = parallel::run_cells(&cells, budget);
    Benchmark::ALL
        .into_iter()
        .enumerate()
        .map(|(bi, bench)| {
            let mut ipc = [0.0; 6];
            for (fi, v) in ipc.iter_mut().enumerate() {
                *v = stats[bi * 6 + fi].ipc();
            }
            Fig3Row { bench, ipc }
        })
        .collect()
}

/// Renders Figure 3 as an aligned text table.
pub fn render_figure3(rows: &[Fig3Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:10}", "bench"));
    for f in Features::all_six() {
        out.push_str(&format!(" {:>9}", f.label()));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:10}", row.bench.name()));
        for v in row.ipc {
            out.push_str(&format!(" {v:>9.2}"));
        }
        out.push('\n');
    }
    let mut avg = [0.0; 6];
    for row in rows {
        for (a, v) in avg.iter_mut().zip(row.ipc) {
            *a += v / rows.len() as f64;
        }
    }
    out.push_str(&format!("{:10}", "average"));
    for v in avg {
        out.push_str(&format!(" {v:>9.2}"));
    }
    out.push('\n');
    out
}

// ---------------------------------------------------------------------
// Figure 4: average IPC for 1/2/4 programs under the six configurations.
// ---------------------------------------------------------------------

/// One Figure 4 row: program count and average IPC per configuration.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Number of co-scheduled programs.
    pub programs: usize,
    /// Average IPC per configuration, in [`Features::all_six`] order.
    pub ipc: [f64; 6],
}

/// Runs Figure 4. The whole grid (3 program counts × 6 configurations ×
/// up to 8 mixes) is flattened into one parallel sweep.
pub fn figure4(budget: &Budget) -> Vec<Fig4Row> {
    let mut cells = Vec::new();
    let mut spans = Vec::new();
    for n in [1usize, 2, 4] {
        for features in Features::all_six() {
            let config = SimConfig::big_2_16().with_features(features);
            let start = cells.len();
            cells.extend(mix_cells(&config, n, budget));
            spans.push(start..cells.len());
        }
    }
    let stats = parallel::run_cells(&cells, budget);
    [1usize, 2, 4]
        .into_iter()
        .enumerate()
        .map(|(ni, n)| {
            let mut ipc = [0.0; 6];
            for (fi, v) in ipc.iter_mut().enumerate() {
                *v = mean_ipc(&stats[spans[ni * 6 + fi].clone()]);
            }
            Fig4Row { programs: n, ipc }
        })
        .collect()
}

/// Renders Figure 4 as an aligned text table.
pub fn render_figure4(rows: &[Fig4Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:10}", "programs"));
    for f in Features::all_six() {
        out.push_str(&format!(" {:>9}", f.label()));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:10}", row.programs));
        for v in row.ipc {
            out.push_str(&format!(" {v:>9.2}"));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Figure 5: alternate-path fetch-limit policies.
// ---------------------------------------------------------------------

/// One Figure 5 row: a policy and its average IPC for 1/2/4 programs.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// The alternate-path policy.
    pub policy: AltPolicy,
    /// Average IPC at 1, 2, and 4 programs.
    pub ipc: [f64; 3],
}

/// Runs Figure 5 (nine policies under the full REC/RS/RU architecture),
/// flattened into one parallel sweep.
pub fn figure5(budget: &Budget) -> Vec<Fig5Row> {
    let policies = AltPolicy::figure5_sweep();
    let mut cells = Vec::new();
    let mut spans = Vec::new();
    for &policy in &policies {
        let config = SimConfig::big_2_16()
            .with_features(Features::rec_rs_ru())
            .with_alt_policy(policy);
        for n in [1usize, 2, 4] {
            let start = cells.len();
            cells.extend(mix_cells(&config, n, budget));
            spans.push(start..cells.len());
        }
    }
    let stats = parallel::run_cells(&cells, budget);
    policies
        .into_iter()
        .enumerate()
        .map(|(pi, policy)| {
            let mut ipc = [0.0; 3];
            for (ni, v) in ipc.iter_mut().enumerate() {
                *v = mean_ipc(&stats[spans[pi * 3 + ni].clone()]);
            }
            Fig5Row { policy, ipc }
        })
        .collect()
}

/// Renders Figure 5 as an aligned text table.
pub fn render_figure5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:12} {:>10} {:>10} {:>10}\n",
        "policy", "1 prog", "2 progs", "4 progs"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:12} {:>10.2} {:>10.2} {:>10.2}\n",
            row.policy.label(),
            row.ipc[0],
            row.ipc[1],
            row.ipc[2]
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Figure 6: limited-resource machine models.
// ---------------------------------------------------------------------

/// The four machine models of Section 5.3.
pub fn figure6_machines() -> [(&'static str, SimConfig); 4] {
    [
        ("small.1.8", SimConfig::small_1_8()),
        ("small.2.8", SimConfig::small_2_8()),
        ("big.1.8", SimConfig::big_1_8()),
        ("big.2.16", SimConfig::big_2_16()),
    ]
}

/// One Figure 6 row: machine × configuration × program count.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Machine model name.
    pub machine: &'static str,
    /// Configuration label (`SMT`, `TME`, `REC/RS/RU`).
    pub features: Features,
    /// Average IPC at 1, 2, and 4 programs.
    pub ipc: [f64; 3],
}

/// Runs Figure 6 (SMT vs TME vs REC/RS/RU on each machine model),
/// flattened into one parallel sweep.
pub fn figure6(budget: &Budget) -> Vec<Fig6Row> {
    let mut cells = Vec::new();
    let mut keys = Vec::new();
    let mut spans = Vec::new();
    for (machine, base) in figure6_machines() {
        for features in [Features::smt(), Features::tme(), Features::rec_rs_ru()] {
            let config = base.clone().with_features(features);
            let mut row_spans = [0..0, 0..0, 0..0];
            for (ni, n) in [1usize, 2, 4].into_iter().enumerate() {
                let start = cells.len();
                cells.extend(mix_cells(&config, n, budget));
                row_spans[ni] = start..cells.len();
            }
            keys.push((machine, features));
            spans.push(row_spans);
        }
    }
    let stats = parallel::run_cells(&cells, budget);
    keys.into_iter()
        .zip(spans)
        .map(|((machine, features), row_spans)| {
            let mut ipc = [0.0; 3];
            for (ni, v) in ipc.iter_mut().enumerate() {
                *v = mean_ipc(&stats[row_spans[ni].clone()]);
            }
            Fig6Row {
                machine,
                features,
                ipc,
            }
        })
        .collect()
}

/// Renders Figure 6 as an aligned text table.
pub fn render_figure6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:10} {:10} {:>10} {:>10} {:>10}\n",
        "machine", "config", "1 prog", "2 progs", "4 progs"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:10} {:10} {:>10.2} {:>10.2} {:>10.2}\n",
            row.machine,
            row.features.label(),
            row.ipc[0],
            row.ipc[1],
            row.ipc[2]
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Table 1: recycling statistics.
// ---------------------------------------------------------------------

/// One Table 1 row (per benchmark or a multi-program average).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Row label (benchmark name or `"N progs avg"`).
    pub label: String,
    /// % of renamed instructions recycled.
    pub pct_recycled: f64,
    /// % of renamed instructions reused.
    pub pct_reused: f64,
    /// % of mispredicted branches covered by a fork.
    pub pct_miss_cov: f64,
    /// % of forks used by TME.
    pub pct_forks_tme: f64,
    /// % of forks recycled at least once.
    pub pct_forks_recycled: f64,
    /// % of forks re-spawned at least once.
    pub pct_forks_respawned: f64,
    /// Average merges per recycled alternate path.
    pub merges_per_alt: f64,
    /// % of merges that were backward-branch merges.
    pub pct_back_merges: f64,
}

impl Table1Row {
    fn from_stats(label: String, s: &Stats) -> Table1Row {
        Table1Row {
            label,
            pct_recycled: s.pct_recycled(),
            pct_reused: s.pct_reused(),
            pct_miss_cov: s.pct_miss_covered(),
            pct_forks_tme: s.pct_forks_tme(),
            pct_forks_recycled: s.pct_forks_recycled(),
            pct_forks_respawned: s.pct_forks_respawned(),
            merges_per_alt: s.merges_per_alt_path(),
            pct_back_merges: s.pct_back_merges(),
        }
    }
}

/// Runs Table 1: per-benchmark recycling statistics under REC/RS/RU, plus
/// 2- and 4-program averages. Singles and mix cells share one parallel
/// sweep.
pub fn table1(budget: &Budget) -> Vec<Table1Row> {
    let singles = Benchmark::ALL.len();
    let mut cells: Vec<Cell> = Benchmark::ALL
        .into_iter()
        .map(|bench| single_cell(bench, Features::rec_rs_ru(), budget))
        .collect();
    let mut spans = Vec::new();
    for n in [2usize, 4] {
        let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        let start = cells.len();
        cells.extend(mix_cells(&config, n, budget));
        spans.push((n, start..cells.len()));
    }
    let stats = parallel::run_cells(&cells, budget);
    let mut rows = Vec::new();
    for (bench, s) in Benchmark::ALL.into_iter().zip(&stats) {
        rows.push(Table1Row::from_stats(bench.name().to_owned(), s));
    }
    rows.push(Table1Row::from_stats(
        "1 prog avg".to_owned(),
        &combine(&stats[..singles]),
    ));
    for (n, span) in spans {
        rows.push(Table1Row::from_stats(
            format!("{n} progs avg"),
            &combine(&stats[span]),
        ));
    }
    rows
}

/// Sums raw counters across runs so the averages are instruction-weighted,
/// as the paper's are.
fn combine(all: &[Stats]) -> Stats {
    let mut acc = Stats::new(1);
    for s in all {
        acc.cycles += s.cycles;
        acc.committed += s.committed;
        acc.renamed += s.renamed;
        acc.recycled += s.recycled;
        acc.reused += s.reused;
        acc.fetched += s.fetched;
        acc.squashed += s.squashed;
        acc.branches += s.branches;
        acc.mispredicts += s.mispredicts;
        acc.mispredicts_covered += s.mispredicts_covered;
        acc.forks += s.forks;
        acc.forks_used_tme += s.forks_used_tme;
        acc.forks_recycled += s.forks_recycled;
        acc.forks_respawned += s.forks_respawned;
        acc.respawns += s.respawns;
        acc.merges += s.merges;
        acc.back_merges += s.back_merges;
        acc.alt_path_merge_sum += s.alt_path_merge_sum;
        acc.recoveries += s.recoveries;
    }
    acc
}

/// Renders Table 1 as an aligned text table.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:12} {:>8} {:>7} {:>9} {:>6} {:>6} {:>8} {:>10} {:>7}\n",
        "program",
        "recyc%",
        "reuse%",
        "misscov%",
        "tme%",
        "recyc%",
        "respawn%",
        "merges/alt",
        "back%"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:12} {:>8.1} {:>7.1} {:>9.1} {:>6.1} {:>6.1} {:>8.1} {:>10.1} {:>7.1}\n",
            r.label,
            r.pct_recycled,
            r.pct_reused,
            r.pct_miss_cov,
            r.pct_forks_tme,
            r.pct_forks_recycled,
            r.pct_forks_respawned,
            r.merges_per_alt,
            r.pct_back_merges
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Explain: reuse/recycle attribution alongside the figures.
// ---------------------------------------------------------------------

/// One explain row: why recycled instructions were (not) reused for one
/// kernel under REC/RS/RU, plus the fork-refusal total — the harness-side
/// companion to `multipath explain`.
#[derive(Debug, Clone)]
pub struct ExplainRow {
    /// The benchmark.
    pub bench: Benchmark,
    /// Instructions renamed via the recycle datapath.
    pub recycled: u64,
    /// ... of which reused (no re-execution).
    pub reused: u64,
    /// Reuse denials by cause, in [`multipath_core::ReuseDeny::ALL`]
    /// order; sums to `recycled - reused`.
    pub denied: [u64; multipath_core::ReuseDeny::COUNT],
    /// Fork refusals across all causes.
    pub fork_refused: u64,
}

impl ExplainRow {
    /// Reuse yield: % of recycled instructions whose results were reused.
    pub fn yield_pct(&self) -> f64 {
        if self.recycled == 0 {
            0.0
        } else {
            100.0 * self.reused as f64 / self.recycled as f64
        }
    }
}

/// Runs the explain attribution for every kernel under REC/RS/RU. Serial
/// by design: the sinks carry per-run state that the parallel engine's
/// `Stats`-only aggregation cannot transport. With the quick budget this
/// is the cost of one extra Table 1 column pass.
pub fn explain_rows(budget: &Budget) -> Vec<ExplainRow> {
    Benchmark::ALL
        .into_iter()
        .map(|bench| {
            let spec = RunSpec {
                probes: Some(ProbeConfig::explain()),
                ..single_cell(bench, Features::rec_rs_ru(), budget).spec(budget)
            };
            let mut sim = spec.run();
            let probes = sim.take_probes().expect("probes enabled");
            let attr = probes.attribution.expect("attribution sink on");
            let stats = sim.stats();
            ExplainRow {
                bench,
                recycled: stats.recycled,
                reused: stats.reused,
                denied: attr.reuse_denied,
                fork_refused: stats.fork_refused(),
            }
        })
        .collect()
}

/// Renders the explain attribution as an aligned text table.
pub fn render_explain(rows: &[ExplainRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:10} {:>9} {:>8} {:>7}",
        "bench", "recycled", "reused", "yield%"
    ));
    for cause in multipath_core::ReuseDeny::ALL {
        out.push_str(&format!(" {:>12}", short_cause(cause.name())));
    }
    out.push_str(&format!(" {:>8}\n", "refused"));
    for r in rows {
        out.push_str(&format!(
            "{:10} {:>9} {:>8} {:>7.1}",
            r.bench.name(),
            r.recycled,
            r.reused,
            r.yield_pct()
        ));
        for v in r.denied {
            out.push_str(&format!(" {v:>12}"));
        }
        out.push_str(&format!(" {:>8}\n", r.fork_refused));
    }
    out
}

/// Abbreviates a `ReuseDeny` name so the text table stays narrow.
fn short_cause(name: &str) -> &str {
    match name {
        "reuse_disabled" => "disabled",
        "not_executed" => "not_exec",
        "chained_reuse" => "chained",
        "no_result" => "no_result",
        "regs_released" => "released",
        "source_overwritten" => "overwritten",
        "mem_invalidated" => "mem_inval",
        other => other,
    }
}

/// Explain attribution as CSV, cause columns in `ReuseDeny::ALL` order.
pub fn render_explain_csv(rows: &[ExplainRow]) -> String {
    let mut out = String::from("bench,recycled,reused,yield_pct");
    for cause in multipath_core::ReuseDeny::ALL {
        out.push(',');
        out.push_str(cause.name());
    }
    out.push_str(",fork_refused\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.2}",
            r.bench.name(),
            r.recycled,
            r.reused,
            r.yield_pct()
        ));
        for v in r.denied {
            out.push_str(&format!(",{v}"));
        }
        out.push_str(&format!(",{}\n", r.fork_refused));
    }
    out
}

// ---------------------------------------------------------------------
// CSV rendering (for plotting): set MP_FORMAT=csv on any figure binary.
// ---------------------------------------------------------------------

/// Whether the binaries should emit CSV instead of aligned text.
pub fn csv_requested() -> bool {
    std::env::var("MP_FORMAT").is_ok_and(|v| v == "csv")
}

/// Runs the figure `name` (`fig3`, `fig4`, `fig5`, `fig6`, `table1`, or
/// `explain`) and renders it as text, or as CSV when `csv` is set;
/// `None` for any other name.
pub fn render_named(name: &str, budget: &Budget, csv: bool) -> Option<String> {
    macro_rules! figure {
        ($run:ident, $text:ident, $csv:ident) => {{
            let rows = $run(budget);
            if csv {
                $csv(&rows)
            } else {
                $text(&rows)
            }
        }};
    }
    Some(match name {
        "fig3" => figure!(figure3, render_figure3, render_figure3_csv),
        "fig4" => figure!(figure4, render_figure4, render_figure4_csv),
        "fig5" => figure!(figure5, render_figure5, render_figure5_csv),
        "fig6" => figure!(figure6, render_figure6, render_figure6_csv),
        "table1" => figure!(table1, render_table1, render_table1_csv),
        "explain" => figure!(explain_rows, render_explain, render_explain_csv),
        _ => return None,
    })
}

/// The whole of a figure binary: prints the figure `name` under the
/// budget and format the environment selects.
pub fn print_named(name: &str) {
    let text = render_named(name, &Budget::from_env(), csv_requested());
    print!("{}", text.expect("a figure name render_named knows"));
}

/// Figure 3 as CSV (`bench,smt,tme,rec,rec_ru,rec_rs,rec_rs_ru`).
pub fn render_figure3_csv(rows: &[Fig3Row]) -> String {
    let mut out = String::from("bench,smt,tme,rec,rec_ru,rec_rs,rec_rs_ru\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            r.bench.name(),
            r.ipc[0],
            r.ipc[1],
            r.ipc[2],
            r.ipc[3],
            r.ipc[4],
            r.ipc[5]
        ));
    }
    out
}

/// Figure 4 as CSV (`programs,smt,...`).
pub fn render_figure4_csv(rows: &[Fig4Row]) -> String {
    let mut out = String::from("programs,smt,tme,rec,rec_ru,rec_rs,rec_rs_ru\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            r.programs, r.ipc[0], r.ipc[1], r.ipc[2], r.ipc[3], r.ipc[4], r.ipc[5]
        ));
    }
    out
}

/// Figure 5 as CSV (`policy,p1,p2,p4`).
pub fn render_figure5_csv(rows: &[Fig5Row]) -> String {
    let mut out = String::from("policy,p1,p2,p4\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4}\n",
            r.policy.label(),
            r.ipc[0],
            r.ipc[1],
            r.ipc[2]
        ));
    }
    out
}

/// Figure 6 as CSV (`machine,config,p1,p2,p4`).
pub fn render_figure6_csv(rows: &[Fig6Row]) -> String {
    let mut out = String::from("machine,config,p1,p2,p4\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{:.4}\n",
            r.machine,
            r.features.label(),
            r.ipc[0],
            r.ipc[1],
            r.ipc[2]
        ));
    }
    out
}

/// Table 1 as CSV.
pub fn render_table1_csv(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "program,recycled_pct,reused_pct,misscov_pct,forks_tme_pct,forks_recycled_pct,forks_respawned_pct,merges_per_alt,back_merges_pct\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}\n",
            r.label,
            r.pct_recycled,
            r.pct_reused,
            r.pct_miss_cov,
            r.pct_forks_tme,
            r.pct_forks_recycled,
            r.pct_forks_respawned,
            r.merges_per_alt,
            r.pct_back_merges
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_figure3_has_sane_shape() {
        let mut budget = Budget::quick();
        budget.committed_per_program = 2_000;
        let rows = figure3(&budget);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            for v in row.ipc {
                assert!(v > 0.05, "{}: degenerate IPC {v}", row.bench);
            }
        }
        let text = render_figure3(&rows);
        assert!(text.contains("compress"));
        assert!(text.contains("average"));
    }

    #[test]
    fn quick_explain_rows_reconcile() {
        let mut budget = Budget::quick();
        budget.committed_per_program = 2_000;
        let rows = explain_rows(&budget);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            let denied: u64 = r.denied.iter().sum();
            assert_eq!(
                denied,
                r.recycled - r.reused,
                "{}: denial taxonomy must cover every non-reused recycle",
                r.bench
            );
        }
        let text = render_explain(&rows);
        assert!(text.contains("compress"));
        assert!(text.contains("yield%"));
        let csv = render_explain_csv(&rows);
        assert!(csv.starts_with("bench,recycled,reused,yield_pct,reuse_disabled"));
    }

    #[test]
    fn quick_table1_reports_recycling() {
        let mut budget = Budget::quick();
        budget.committed_per_program = 2_000;
        let rows = table1(&budget);
        assert_eq!(rows.len(), 8 + 3);
        let avg = rows
            .iter()
            .find(|r| r.label == "1 prog avg")
            .expect("average row");
        assert!(
            avg.pct_recycled > 1.0,
            "recycling should be visible: {avg:?}"
        );
        let text = render_table1(&rows);
        assert!(text.contains("4 progs avg"));
    }
}
