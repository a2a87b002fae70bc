//! Experiment harness for the HPCA'99 instruction-recycling reproduction.
//!
//! Every figure of the paper's evaluation (Figures 3–6 and Table 1), the
//! `explain` attribution, and ten ablation studies beyond the paper are
//! declared [`Figure`]s: the grid of cells each runs — machine × features
//! × alternate-path policy × workload — plus one aggregation from the
//! cells' results to a [`Table`]. `multipath figures` prints them; each
//! ablation varies one knob of the machine or workload and reports IPC
//! plus the statistics that knob most directly controls. Every
//! `results/*.txt` file is the full-budget output of one command, the
//! ablations' of
//!
//! ```text
//! multipath figures spawn-latency predictor loop-body confidence active-list \
//!     registers forks-per-cycle contexts recycled-pred mdb > results/ablations.txt
//! ```
//!
//! [`tables`] runs the cells of any set of figures on the [`parallel`]
//! engine, simulating each distinct cell once (Figure 3 and Table 1 are
//! subsets of Figure 4, for instance) — with the explain probes if any
//! figure declaring it asks for them — and hands every figure its own
//! cells' results in its own order, so output is byte-identical at any
//! thread count and whether a figure runs alone or with the others.
//! Workers via `MULTIPATH_THREADS` (default: all cores);
//! `MULTIPATH_BUDGET=quick` selects the smoke-sized budget.
//!
//! Absolute IPC is not expected to match the paper (its workloads were
//! SPEC95 Alpha binaries on the authors' simulator; ours are synthetic
//! proxies — see `DESIGN.md`). The *shape* is the reproduction target:
//! which configuration wins, how gains move with program count, and where
//! the recycling statistics land.

use multipath_branch::DirectionScheme;
use multipath_core::{
    AltPolicy, Features, ProbeConfig, RecycledPrediction, ReuseDeny, RunSpec, SimConfig, Simulator,
    Stats,
};
use multipath_workload::micro::MicroParams;
use multipath_workload::{mix, Benchmark};
use std::collections::HashMap;

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

    /// A fast smoke-sized budget for tests.
    pub fn quick() -> Budget {
        Budget {
            committed_per_program: 4_000,
            max_cycles: 400_000,
            seed: 1,
            mixes: 2,
        }
    }

    /// Reads the budget from the environment: `MULTIPATH_BUDGET=quick`
    /// selects [`Budget::quick`]; anything else means [`Budget::full`].
    pub fn from_env() -> Budget {
        match std::env::var("MULTIPATH_BUDGET").as_deref() {
            Ok("quick") => Budget::quick(),
            _ => Budget::full(),
        }
    }
}

/// One experiment cell: machine + features + policy + workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Machine model.
    pub config: SimConfig,
    /// The benchmarks co-scheduled in this run.
    pub workload: Vec<Benchmark>,
    /// A microbenchmark co-scheduled after them, if any.
    pub micro: Option<MicroParams>,
    /// Workload seed.
    pub seed: u64,
    /// Whether the run carries the explain probes (they observe a run
    /// without changing its statistics).
    pub probed: bool,
}

impl Cell {
    /// `workload` on `config`, unprobed.
    pub fn new(config: SimConfig, workload: Vec<Benchmark>, seed: u64) -> Cell {
        Cell {
            config,
            workload,
            micro: None,
            seed,
            probed: false,
        }
    }

    /// This cell as a run under `budget`'s commit target and cycle cap.
    pub fn spec(&self, budget: &Budget) -> RunSpec {
        RunSpec {
            micro: self.micro,
            max_cycles: budget.max_cycles,
            probes: self.probed.then(ProbeConfig::explain),
            ..RunSpec::new(
                self.config.clone(),
                self.workload.clone(),
                self.seed,
                budget.committed_per_program,
            )
        }
    }
}

/// What a figure reads of one cell's run: its statistics and, if the
/// cell was probed, its reuse denials by cause.
#[derive(Debug, Clone)]
pub struct Run {
    /// The run's statistics.
    pub stats: Stats,
    /// Reuse denials by cause, in [`ReuseDeny::ALL`] order (probed runs).
    pub denied: Option<[u64; ReuseDeny::COUNT]>,
}

impl From<Simulator> for Run {
    fn from(mut sim: Simulator) -> Run {
        let denied = sim
            .take_probes()
            .and_then(|p| p.attribution)
            .map(|a| a.reuse_denied);
        Run {
            stats: sim.stats().clone(),
            denied,
        }
    }
}

/// Panics, naming the cell, if it stopped short of its commit target —
/// a cell that ran into `max_cycles` must not be averaged in silently.
fn check_target(cell: &Cell, stats: &Stats, budget: &Budget) {
    let spec = cell.spec(budget);
    assert!(
        stats.committed >= spec.target(),
        "cell missed its commit target ({} of {} committed in {} cycles): {}",
        stats.committed,
        spec.target(),
        stats.cycles,
        spec.canonical_string()
    );
}

/// The cell for `bench` running alone under `features` on the baseline
/// machine.
fn single_cell(bench: Benchmark, features: Features, budget: &Budget) -> Cell {
    Cell::new(
        SimConfig::big_2_16().with_features(features),
        vec![bench],
        budget.seed,
    )
}

/// The cells behind one multi-program average: the paper's evenly-weighted
/// permutations of `n` programs, limited to `budget.mixes` rotations.
fn mix_cells(config: &SimConfig, n_programs: usize, budget: &Budget) -> Vec<Cell> {
    let mixes = mix::rotations(n_programs);
    let take = budget.mixes.min(mixes.len());
    mixes
        .into_iter()
        .take(take)
        .map(|m| Cell::new(config.clone(), m, budget.seed))
        .collect()
}

/// Mean IPC over per-cell statistics, summed in cell order (the order
/// matters: floating-point addition is not associative, and the CI
/// determinism gate compares serial and parallel output byte-for-byte).
fn mean_ipc(stats: &[Stats]) -> f64 {
    stats.iter().map(Stats::ipc).sum::<f64>() / stats.len() as f64
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

// ---------------------------------------------------------------------
// Tables: one type renders every figure as aligned text or CSV.
// ---------------------------------------------------------------------

/// How one table column prints.
#[derive(Debug, Clone)]
struct Column {
    /// Header of the text form.
    header: String,
    /// Header of the CSV form.
    csv: String,
    /// Width of the text form.
    width: usize,
    /// Decimal places of a float: in the text form, then in the CSV form.
    precision: [usize; 2],
}

impl Column {
    /// A value column.
    fn new(header: &str, csv: &str, width: usize, precision: [usize; 2]) -> Column {
        Column {
            header: header.to_owned(),
            csv: csv.to_owned(),
            width,
            precision,
        }
    }

    /// A row-label column: its CSV header is its text header.
    fn key(header: &str, width: usize) -> Column {
        Column::new(header, header, width, [0, 0])
    }
}

/// One table entry.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// A label.
    Text(String),
    /// A count.
    Int(u64),
    /// A measurement, printed at its column's precision.
    Float(f64),
}

/// A rendered-to-be figure: columns, rows, and an optional summary row.
#[derive(Debug, Clone)]
pub struct Table {
    /// The columns, row labels first.
    columns: Vec<Column>,
    /// How many leading columns label the row.
    keys: usize,
    /// One value per column in each row.
    rows: Vec<Vec<Value>>,
    /// A summary row that the text form prints last and the CSV form
    /// leaves out (Figure 3's average).
    footer: Option<Vec<Value>>,
}

impl Table {
    fn new(columns: Vec<Column>, keys: usize, rows: Vec<Vec<Value>>) -> Table {
        Table {
            columns,
            keys,
            rows,
            footer: None,
        }
    }
}

/// A table as aligned text: columns separated by one space, each padded
/// to its width; row labels and their headers left-aligned, every other
/// entry right-aligned.
pub fn render_text(table: &Table) -> String {
    let headers = table.columns.iter().map(|c| Value::Text(c.header.clone()));
    let rows = [headers.collect()];
    let rows = rows.iter().chain(&table.rows).chain(&table.footer);
    render(table, rows, " ", |i, c, v| {
        let (w, p) = (c.width, c.precision[0]);
        match v {
            Value::Text(s) if i < table.keys => format!("{s:<w$}"),
            Value::Text(s) => format!("{s:>w$}"),
            Value::Int(n) => format!("{n:>w$}"),
            Value::Float(x) => format!("{x:>w$.p$}"),
        }
    })
}

/// A table as CSV (for plotting): the CSV headers, then the rows.
pub fn render_csv(table: &Table) -> String {
    let headers = table.columns.iter().map(|c| Value::Text(c.csv.clone()));
    let rows = [headers.collect()];
    render(
        table,
        rows.iter().chain(&table.rows),
        ",",
        |_, c, v| match v {
            Value::Text(s) => s.clone(),
            Value::Int(n) => n.to_string(),
            Value::Float(x) => format!("{x:.p$}", p = c.precision[1]),
        },
    )
}

/// One line per row: the row's entries, each formatted by `entry` (given
/// its column index and column), joined by `sep`.
fn render<'a>(
    table: &Table,
    rows: impl Iterator<Item = &'a Vec<Value>>,
    sep: &str,
    entry: impl Fn(usize, &Column, &Value) -> String,
) -> String {
    let mut out = String::new();
    for row in rows {
        let entries: Vec<String> = (table.columns.iter().zip(row).enumerate())
            .map(|(i, (c, v))| entry(i, c, v))
            .collect();
        out.push_str(&entries.join(sep));
        out.push('\n');
    }
    out
}

// The per-figure names of the text renderer, kept for existing callers.
pub use render_text as render_figure3;
pub use render_text as render_figure4;
pub use render_text as render_figure5;
pub use render_text as render_figure6;
pub use render_text as render_table1;

// ---------------------------------------------------------------------
// Figures: declared cell grids.
// ---------------------------------------------------------------------

/// Every name `multipath figures` renders, in its default order: the
/// paper's figures, the explain attribution, then the ablations.
pub const FIGURES: [&str; 16] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "explain",
    "spawn-latency",
    "predictor",
    "loop-body",
    "confidence",
    "active-list",
    "registers",
    "forks-per-cycle",
    "contexts",
    "recycled-pred",
    "mdb",
];

/// A declared figure: the cells it runs and how their results become its
/// table.
pub struct Figure {
    /// The name `multipath figures` knows it by.
    pub name: &'static str,
    /// Every cell, in the order the aggregation reads their results.
    pub cells: Vec<Cell>,
    aggregate: Aggregate,
}

/// A figure's aggregation: its cells' runs, in cell order, to its table.
type Aggregate = Box<dyn Fn(&[Run]) -> Table>;

impl Figure {
    /// A figure that reads only its cells' statistics.
    fn new(
        name: &'static str,
        cells: Vec<Cell>,
        aggregate: impl Fn(&[Stats]) -> Table + 'static,
    ) -> Figure {
        Figure {
            name,
            cells,
            aggregate: Box::new(move |runs: &[Run]| {
                let stats: Vec<Stats> = runs.iter().map(|r| r.stats.clone()).collect();
                aggregate(&stats)
            }),
        }
    }

    /// The figure's table from `runs[i]`, the run of `cells[i]`.
    pub fn table(&self, runs: &[Run]) -> Table {
        (self.aggregate)(runs)
    }
}

/// The figure `name` (any of [`FIGURES`]) declared at `budget`; `None`
/// for any other name.
pub fn figure(name: &str, budget: &Budget) -> Option<Figure> {
    Some(match name {
        "fig3" => fig3(budget),
        "fig4" => fig4(budget),
        "fig5" => fig5(budget),
        "fig6" => fig6(budget),
        "table1" => fig_table1(budget),
        "explain" => explain(budget),
        _ => return ablation_study(name, budget),
    })
}

/// Mean-IPC rows: each row is its labels followed by the mean IPC of
/// each of its cell groups. Returns the flattened cells and the
/// aggregation from their statistics to the rows.
fn ipc_rows(
    rows: Vec<(Vec<Value>, Vec<Vec<Cell>>)>,
) -> (Vec<Cell>, impl Fn(&[Stats]) -> Vec<Vec<Value>>) {
    let mut cells = Vec::new();
    let mut shape = Vec::new();
    for (labels, groups) in rows {
        shape.push((labels, groups.iter().map(Vec::len).collect::<Vec<_>>()));
        cells.extend(groups.into_iter().flatten());
    }
    let aggregate = move |stats: &[Stats]| {
        let mut rest = stats;
        shape
            .iter()
            .map(|(labels, sizes)| {
                let mut row = labels.clone();
                for &n in sizes {
                    let (group, tail) = rest.split_at(n);
                    row.push(Value::Float(mean_ipc(group)));
                    rest = tail;
                }
                row
            })
            .collect()
    };
    (cells, aggregate)
}

/// One IPC column per feature set, in [`Features::all_six`] order, after
/// the row label `key` (Figures 3 and 4).
fn feature_columns(key: &str) -> Vec<Column> {
    let mut columns = vec![Column::key(key, 10)];
    for f in Features::all_six() {
        let csv = f.label().to_lowercase().replace('/', "_");
        columns.push(Column::new(f.label(), &csv, 9, [2, 4]));
    }
    columns
}

/// One IPC column per program count (Figures 5 and 6).
fn program_columns() -> [Column; 3] {
    [
        Column::new("1 prog", "p1", 10, [2, 4]),
        Column::new("2 progs", "p2", 10, [2, 4]),
        Column::new("4 progs", "p4", 10, [2, 4]),
    ]
}

/// Mix cells of `config` at 1, 2, and 4 programs: one group each.
fn program_groups(config: &SimConfig, budget: &Budget) -> Vec<Vec<Cell>> {
    [1, 2, 4]
        .into_iter()
        .map(|n| mix_cells(config, n, budget))
        .collect()
}

/// The full Figure 3 cell list (8 benchmarks × 6 configurations), in the
/// order `figure3` aggregates them.
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

/// Figure 3: single-program IPC per benchmark under the six
/// configurations, with an average row in the text form.
fn fig3(budget: &Budget) -> Figure {
    Figure::new("fig3", figure3_cells(budget), |stats| {
        let n = Benchmark::ALL.len() as f64;
        let mut average = [0.0; 6];
        let mut rows = Vec::new();
        for (bench, chunk) in Benchmark::ALL.into_iter().zip(stats.chunks(6)) {
            let mut row = vec![Value::Text(bench.name().to_owned())];
            for (a, s) in average.iter_mut().zip(chunk) {
                *a += s.ipc() / n;
                row.push(Value::Float(s.ipc()));
            }
            rows.push(row);
        }
        let mut footer = vec![Value::Text("average".to_owned())];
        footer.extend(average.map(Value::Float));
        Table {
            footer: Some(footer),
            ..Table::new(feature_columns("bench"), 1, rows)
        }
    })
}

/// Figure 4: average IPC for 1, 2, and 4 programs under the six
/// configurations on big.2.16.
fn fig4(budget: &Budget) -> Figure {
    let (cells, rows) = ipc_rows(
        [1usize, 2, 4]
            .into_iter()
            .map(|n| {
                let groups = Features::all_six()
                    .into_iter()
                    .map(|f| mix_cells(&SimConfig::big_2_16().with_features(f), n, budget))
                    .collect();
                (vec![Value::Int(n as u64)], groups)
            })
            .collect(),
    );
    Figure::new("fig4", cells, move |stats| {
        Table::new(feature_columns("programs"), 1, rows(stats))
    })
}

/// Figure 5: the nine alternate-path fetch-limit policies under REC/RS/RU.
fn fig5(budget: &Budget) -> Figure {
    let (cells, rows) = ipc_rows(
        AltPolicy::figure5_sweep()
            .into_iter()
            .map(|policy| {
                let config = SimConfig::big_2_16()
                    .with_features(Features::rec_rs_ru())
                    .with_alt_policy(policy);
                (
                    vec![Value::Text(policy.label())],
                    program_groups(&config, budget),
                )
            })
            .collect(),
    );
    Figure::new("fig5", cells, move |stats| {
        let mut columns = vec![Column::key("policy", 12)];
        columns.extend(program_columns());
        Table::new(columns, 1, rows(stats))
    })
}

/// The four machine models of Section 5.3.
pub fn figure6_machines() -> [(&'static str, SimConfig); 4] {
    [
        ("small.1.8", SimConfig::small_1_8()),
        ("small.2.8", SimConfig::small_2_8()),
        ("big.1.8", SimConfig::big_1_8()),
        ("big.2.16", SimConfig::big_2_16()),
    ]
}

/// Figure 6: SMT vs TME vs REC/RS/RU on each machine model.
fn fig6(budget: &Budget) -> Figure {
    let mut rows = Vec::new();
    for (machine, base) in figure6_machines() {
        for features in [Features::smt(), Features::tme(), Features::rec_rs_ru()] {
            let labels = vec![
                Value::Text(machine.to_owned()),
                Value::Text(features.label().to_owned()),
            ];
            let config = base.clone().with_features(features);
            rows.push((labels, program_groups(&config, budget)));
        }
    }
    let (cells, rows) = ipc_rows(rows);
    Figure::new("fig6", cells, move |stats| {
        let mut columns = vec![Column::key("machine", 10), Column::key("config", 10)];
        columns.extend(program_columns());
        Table::new(columns, 2, rows(stats))
    })
}

/// A statistic of one run (or of several, combined).
type Metric = fn(&Stats) -> f64;

/// A statistic's column: text header, CSV header, width, decimal places
/// (text, CSV), and its value.
type Stat = (&'static str, &'static str, usize, [usize; 2], Metric);

/// The column of `stat`.
fn column(stat: &Stat) -> Column {
    Column::new(stat.0, stat.1, stat.2, stat.3)
}

/// Table 1's value columns.
const TABLE1: [Stat; 8] = [
    ("recyc%", "recycled_pct", 8, [1, 2], Stats::pct_recycled),
    ("reuse%", "reused_pct", 7, [1, 2], Stats::pct_reused),
    (
        "misscov%",
        "misscov_pct",
        9,
        [1, 2],
        Stats::pct_miss_covered,
    ),
    ("tme%", "forks_tme_pct", 6, [1, 2], Stats::pct_forks_tme),
    (
        "recyc%",
        "forks_recycled_pct",
        6,
        [1, 2],
        Stats::pct_forks_recycled,
    ),
    (
        "respawn%",
        "forks_respawned_pct",
        8,
        [1, 2],
        Stats::pct_forks_respawned,
    ),
    (
        "merges/alt",
        "merges_per_alt",
        10,
        [1, 2],
        Stats::merges_per_alt_path,
    ),
    (
        "back%",
        "back_merges_pct",
        7,
        [1, 2],
        Stats::pct_back_merges,
    ),
];

/// Table 1: per-benchmark recycling statistics under REC/RS/RU, then
/// instruction-weighted 1-, 2-, and 4-program averages.
fn fig_table1(budget: &Budget) -> Figure {
    let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
    let mut cells: Vec<Cell> = Benchmark::ALL
        .into_iter()
        .map(|bench| single_cell(bench, Features::rec_rs_ru(), budget))
        .collect();
    let mut averages = vec![("1 prog avg".to_owned(), 0..cells.len())];
    for n in [2usize, 4] {
        let start = cells.len();
        cells.extend(mix_cells(&config, n, budget));
        averages.push((format!("{n} progs avg"), start..cells.len()));
    }
    Figure::new("table1", cells, move |stats| {
        let row = |label: &str, s: &Stats| {
            let mut row = vec![Value::Text(label.to_owned())];
            row.extend(TABLE1.iter().map(|c| Value::Float((c.4)(s))));
            row
        };
        let mut rows: Vec<_> = Benchmark::ALL
            .iter()
            .zip(stats)
            .map(|(bench, s)| row(bench.name(), s))
            .collect();
        for (label, span) in &averages {
            rows.push(row(label, &combine(&stats[span.clone()])));
        }
        let mut columns = vec![Column::key("program", 12)];
        columns.extend(TABLE1.iter().map(column));
        Table::new(columns, 1, rows)
    })
}

// ---------------------------------------------------------------------
// Ablations: one design knob at a time, beyond the paper.
// ---------------------------------------------------------------------

const IPC: Stat = ("IPC", "ipc", 8, [2, 4], Stats::ipc);
const COVERAGE: Stat = (
    "coverage%",
    "coverage_pct",
    10,
    [1, 2],
    Stats::pct_miss_covered,
);
const RECYCLED: Stat = ("recycled%", "recycled_pct", 10, [1, 2], Stats::pct_recycled);
const ACCURACY: Stat = ("acc%", "accuracy_pct", 8, [1, 2], Stats::branch_accuracy);
const FORKS: Stat = ("forks", "forks", 8, [0, 0], |s| s.forks as f64);

/// An ablation: one row per cell, its labels under the row-label columns
/// `keys`, then `stats` of its run.
fn ablation(
    name: &'static str,
    keys: &[&str],
    rows: Vec<(Vec<Value>, Cell)>,
    stats: &'static [Stat],
) -> Figure {
    let (labels, cells): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    let mut columns: Vec<Column> = keys.iter().map(|k| Column::key(k, 10)).collect();
    columns.extend(stats.iter().map(column));
    let keys = keys.len();
    Figure::new(name, cells, move |all| {
        let rows = labels
            .iter()
            .zip(all)
            .map(|(labels, s)| {
                let values = stats.iter().map(|stat| Value::Float((stat.4)(s)));
                labels.iter().cloned().chain(values).collect()
            })
            .collect();
        Table::new(columns.clone(), keys, rows)
    })
}

/// One row per setting of a knob, labelled by the setting: `cell` with
/// `set` applying the setting.
fn settings(values: &[u64], cell: Cell, set: fn(&mut Cell, u64)) -> Vec<(Vec<Value>, Cell)> {
    values
        .iter()
        .map(|&n| {
            let mut cell = cell.clone();
            set(&mut cell, n);
            (vec![Value::Int(n)], cell)
        })
        .collect()
}

/// The ablation study `name` declared at `budget`; `None` if there is
/// none of that name.
fn ablation_study(name: &str, budget: &Budget) -> Option<Figure> {
    use Benchmark::{Compress, Gcc, Go, Perl, Tomcatv, Vortex};
    let name = FIGURES.into_iter().find(|&n| n == name)?;
    let (tme, rec) = (Features::tme(), Features::rec_rs_ru());
    // `workload` on the baseline machine under `features`.
    let on = |features, workload: &[Benchmark]| {
        let config = SimConfig::big_2_16().with_features(features);
        Cell::new(config, workload.to_vec(), budget.seed)
    };
    Some(match name {
        // MSB spawn latency: the cost of slow duplication of register
        // state into a spare context.
        "spawn-latency" => ablation(
            name,
            &["cycles"],
            settings(&[1, 4, 8, 16], on(tme, &[Go]), |c, n| {
                c.config.spawn_latency = n as u32;
            }),
            &[IPC, COVERAGE],
        ),
        // Direction-prediction scheme per kernel: the paper's gshare
        // against bimodal and McFarling combining.
        "predictor" => {
            let schemes = [
                ("gshare", DirectionScheme::Gshare),
                ("bimodal", DirectionScheme::Bimodal),
                ("combining", DirectionScheme::Combining),
            ];
            let rows = [Gcc, Go, Perl, Vortex].into_iter().flat_map(|bench| {
                schemes.map(|(label, scheme)| {
                    let mut cell = on(rec, &[bench]);
                    cell.config.predictor.scheme = scheme;
                    let labels = [bench.name(), label].map(|l| Value::Text(l.to_owned()));
                    (labels.to_vec(), cell)
                })
            });
            ablation(name, &["bench", "scheme"], rows.collect(), &[ACCURACY, IPC])
        }
        // Loop-body size vs backward-branch recycling in a
        // microbenchmark, with 64-slot active lists: the paper's "only
        // loops smaller than the current active lists are able to
        // benefit".
        "loop-body" => ablation(
            name,
            &["body"],
            settings(&[16, 32, 48, 64, 96, 160], on(rec, &[]), |c, n| {
                c.micro = Some(MicroParams {
                    loop_body: n as usize,
                    ..MicroParams::default()
                });
            }),
            &[
                IPC,
                RECYCLED,
                ("back", "back_merges", 8, [0, 0], |s| s.back_merges as f64),
            ],
        ),
        // Confidence threshold: how eagerly TME forks. Waste is renamed
        // but squashed instructions per committed one.
        "confidence" => ablation(
            name,
            &["threshold"],
            settings(&[4, 8, 12, 15], on(tme, &[Go]), |c, n| {
                c.config.predictor.conf_threshold = n as u8;
            }),
            &[
                IPC,
                FORKS,
                COVERAGE,
                ("waste", "waste", 10, [2, 4], |s| {
                    (s.renamed - s.committed) as f64 / s.committed as f64
                }),
            ],
        ),
        // Active-list slots: the recycle trace capacity.
        "active-list" => ablation(
            name,
            &["slots"],
            settings(&[32, 64, 128, 256], on(rec, &[Tomcatv]), |c, n| {
                c.config.active_list = n as usize;
            }),
            &[
                IPC,
                RECYCLED,
                ("merges", "merges", 8, [0, 0], |s| s.merges as f64),
            ],
        ),
        // Physical registers per file under a 4-program mix: the renaming
        // headroom under recycling.
        "registers" => ablation(
            name,
            &["registers"],
            settings(&[288, 356, 452], on(rec, &mix::rotations(4)[0]), |c, n| {
                c.config.phys_int = n as usize;
                c.config.phys_fp = n as usize;
            }),
            &[
                IPC,
                ("preg stalls", "preg_stall_cycles", 12, [0, 0], |s| {
                    s.preg_stall_cycles as f64
                }),
            ],
        ),
        // Forks per cycle: the spawn bandwidth.
        "forks-per-cycle" => ablation(
            name,
            &["forks/cyc"],
            settings(&[1, 2, 4], on(rec, &[Gcc]), |c, n| {
                c.config.forks_per_cycle = n as usize;
            }),
            &[
                IPC,
                FORKS,
                ("refused", "fork_refused_cap", 10, [0, 0], |s| {
                    s.fork_refused_cap as f64
                }),
            ],
        ),
        // Hardware contexts: how many spares the one program gets.
        "contexts" => ablation(
            name,
            &["contexts"],
            settings(&[2, 4, 8], on(tme, &[Go]), |c, n| {
                c.config.contexts = n as usize
            }),
            &[IPC, FORKS, COVERAGE],
        ),
        // The paper's two recycled-branch prediction methods (Section 3.4).
        "recycled-pred" => {
            let methods = [
                ("repredict", RecycledPrediction::Repredict),
                ("trace", RecycledPrediction::Trace),
            ];
            let rows = methods.map(|(label, method)| {
                let mut cell = on(rec, &[Perl]);
                cell.config.recycled_prediction = method;
                (vec![Value::Text(label.to_owned())], cell)
            });
            ablation(name, &["method"], rows.to_vec(), &[IPC, RECYCLED, ACCURACY])
        }
        // MDB entries: the reach of load reuse.
        "mdb" => ablation(
            name,
            &["entries"],
            settings(&[16, 64, 256], on(rec, &[Compress]), |c, n| {
                c.config.mdb_entries = n as usize;
            }),
            &[IPC, ("reused", "reused", 8, [0, 0], |s| s.reused as f64)],
        ),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------

/// The distinct cells of `figures` under `budget`, in first-seen order,
/// and for each figure the index of each of its cells in that list. Two
/// cells are one when their runs' canonical strings are equal; the one is
/// probed if any of them is.
pub fn distinct_cells(figures: &[Figure], budget: &Budget) -> (Vec<Cell>, Vec<Vec<usize>>) {
    let mut index = HashMap::new();
    let mut distinct: Vec<Cell> = Vec::new();
    let slots = figures
        .iter()
        .map(|f| {
            f.cells
                .iter()
                .map(|cell| {
                    let i = *index
                        .entry(cell.spec(budget).canonical_string())
                        .or_insert_with(|| {
                            distinct.push(cell.clone());
                            distinct.len() - 1
                        });
                    distinct[i].probed |= cell.probed;
                    i
                })
                .collect()
        })
        .collect();
    (distinct, slots)
}

/// Runs the cells of `figures` in one parallel sweep — each distinct cell
/// once, however many figures declare it — and returns each figure's
/// table, in order. Nothing is kept past the call. Panics naming the cell
/// if any cell misses its commit target.
fn sweep(figures: &[Figure], budget: &Budget) -> Vec<Table> {
    let (cells, slots) = distinct_cells(figures, budget);
    let runs = parallel::map(&cells, |cell| Run::from(cell.spec(budget).run()));
    for (cell, r) in cells.iter().zip(&runs) {
        check_target(cell, &r.stats, budget);
    }
    figures
        .iter()
        .zip(slots)
        .map(|(f, slots)| {
            let own: Vec<Run> = slots.iter().map(|&i| runs[i].clone()).collect();
            f.table(&own)
        })
        .collect()
}

/// The tables of the figures `names` (any of [`FIGURES`]), in order, from
/// one sweep.
pub fn tables(names: &[&str], budget: &Budget) -> Vec<Table> {
    let figures: Vec<Figure> = names
        .iter()
        .map(|n| figure(n, budget).unwrap_or_else(|| panic!("unknown figure '{n}'")))
        .collect();
    sweep(&figures, budget)
}

/// Runs Figure 3 (single-program IPC for SMT/TME/REC/REC-RU/REC-RS/
/// REC-RS-RU on the baseline machine).
pub fn figure3(budget: &Budget) -> Table {
    sweep(&[fig3(budget)], budget).remove(0)
}

/// Runs Figure 4 (average IPC for 1/2/4 programs under the six
/// configurations).
pub fn figure4(budget: &Budget) -> Table {
    sweep(&[fig4(budget)], budget).remove(0)
}

/// Runs Figure 5 (nine alternate-path policies under REC/RS/RU).
pub fn figure5(budget: &Budget) -> Table {
    sweep(&[fig5(budget)], budget).remove(0)
}

/// Runs Figure 6 (SMT vs TME vs REC/RS/RU on each machine model).
pub fn figure6(budget: &Budget) -> Table {
    sweep(&[fig6(budget)], budget).remove(0)
}

/// Runs Table 1 (recycling statistics under REC/RS/RU).
pub fn table1(budget: &Budget) -> Table {
    sweep(&[fig_table1(budget)], budget).remove(0)
}

// ---------------------------------------------------------------------
// Explain: reuse/recycle attribution alongside the figures.
// ---------------------------------------------------------------------

/// Abbreviates a `ReuseDeny` name so the text table stays narrow.
fn short_cause(name: &str) -> &str {
    match name {
        "reuse_disabled" => "disabled",
        "not_executed" => "not_exec",
        "chained_reuse" => "chained",
        "regs_released" => "released",
        "source_overwritten" => "overwritten",
        "mem_invalidated" => "mem_inval",
        other => other,
    }
}

/// The explain attribution — the harness-side companion to `multipath
/// explain`: for every kernel alone under REC/RS/RU, the recycled and
/// reused counts, the reuse yield, the reuse denials by cause (in
/// [`ReuseDeny::ALL`] order; they sum to `recycled - reused`), and the
/// fork refusals. Its cells carry the explain probes.
fn explain(budget: &Budget) -> Figure {
    let cells = Benchmark::ALL
        .into_iter()
        .map(|bench| Cell {
            probed: true,
            ..single_cell(bench, Features::rec_rs_ru(), budget)
        })
        .collect();
    Figure {
        name: "explain",
        cells,
        aggregate: Box::new(explain_table),
    }
}

/// The explain table from the probed runs of its cells.
fn explain_table(runs: &[Run]) -> Table {
    let rows = Benchmark::ALL
        .iter()
        .zip(runs)
        .map(|(bench, run)| {
            let s = &run.stats;
            let yield_pct = if s.recycled == 0 {
                0.0
            } else {
                100.0 * s.reused as f64 / s.recycled as f64
            };
            let mut row = vec![
                Value::Text(bench.name().to_owned()),
                Value::Int(s.recycled),
                Value::Int(s.reused),
                Value::Float(yield_pct),
            ];
            row.extend(run.denied.expect("explain runs are probed").map(Value::Int));
            row.push(Value::Int(s.fork_refused()));
            row
        })
        .collect();
    let mut columns = vec![
        Column::key("bench", 10),
        Column::new("recycled", "recycled", 9, [0, 0]),
        Column::new("reused", "reused", 8, [0, 0]),
        Column::new("yield%", "yield_pct", 7, [1, 2]),
    ];
    for cause in ReuseDeny::ALL {
        columns.push(Column::new(
            short_cause(cause.name()),
            cause.name(),
            12,
            [0, 0],
        ));
    }
    columns.push(Column::new("refused", "fork_refused", 8, [0, 0]));
    Table::new(columns, 1, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_budget() -> Budget {
        Budget {
            committed_per_program: 2_000,
            ..Budget::quick()
        }
    }

    fn float(v: &Value) -> f64 {
        match v {
            Value::Float(x) => *x,
            Value::Int(n) => *n as f64,
            Value::Text(s) => panic!("not a number: {s}"),
        }
    }

    #[test]
    fn quick_figure3_has_sane_shape() {
        let table = figure3(&tiny_budget());
        assert_eq!(table.rows.len(), 8);
        for row in &table.rows {
            for v in &row[1..] {
                assert!(float(v) > 0.05, "{:?}: degenerate IPC {v:?}", row[0]);
            }
        }
        let text = render_figure3(&table);
        assert!(text.contains("compress"));
        assert!(text.contains("average"));
    }

    #[test]
    fn quick_explain_rows_reconcile() {
        let table = tables(&["explain"], &tiny_budget()).remove(0);
        assert_eq!(table.rows.len(), 8);
        for row in &table.rows {
            let (recycled, reused) = (float(&row[1]), float(&row[2]));
            let denied: f64 = row[4..4 + ReuseDeny::COUNT].iter().map(float).sum();
            assert_eq!(
                denied,
                recycled - reused,
                "{:?}: denial taxonomy must cover every non-reused recycle",
                row[0]
            );
        }
        let text = render_text(&table);
        assert!(text.contains("compress"));
        assert!(text.contains("yield%"));
        let csv = render_csv(&table);
        assert!(csv.starts_with("bench,recycled,reused,yield_pct,reuse_disabled"));
    }

    #[test]
    fn quick_table1_reports_recycling() {
        let table = table1(&tiny_budget());
        assert_eq!(table.rows.len(), 8 + 3);
        let avg = table
            .rows
            .iter()
            .find(|r| r[0] == Value::Text("1 prog avg".to_owned()))
            .expect("average row");
        assert!(float(&avg[1]) > 1.0, "recycling should be visible: {avg:?}");
        let text = render_table1(&table);
        assert!(text.contains("4 progs avg"));
    }

    #[test]
    #[should_panic(expected = "cell missed its commit target")]
    fn a_cell_that_misses_its_target_fails_loudly() {
        let budget = Budget {
            committed_per_program: 1_000,
            max_cycles: 50,
            seed: 1,
            mixes: 1,
        };
        sweep(&[fig4(&budget)], &budget);
    }
}
