//! Host-cost benchmark of the multipath reproduction.
//!
//! Four workloads, each stressing different layers (`README.md` in this
//! directory explains why each was chosen):
//!
//! - `figures`: the full-budget figure suite on the parallel sweep engine,
//!   byte-compared against `results/*.txt`;
//! - `kernels-rec`: every kernel alone under REC/RS/RU, serial;
//! - `smt-mix4`: 4-program rotations under plain SMT on two machines;
//! - `serve-loopback`: an in-process `multipath serve` driven by a closed
//!   loop of HTTP clients.
//!
//! An untraced run reports the end-to-end metrics. A traced run repeats
//! the workload with a span around every call into a layer and the host
//! stage profile switched on, checks that observation changed no
//! simulated count, and reports the per-layer metrics.

pub mod cells;
pub mod figures;
pub mod layers;
pub mod report;
pub mod serve_loop;
pub mod spans;

use multipath_bench::Budget;
use report::{Checks, Measured, Metric};
use std::path::PathBuf;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full-budget figure suite.
    Figures,
    /// Each kernel alone on big.2.16 under REC/RS/RU.
    KernelsRec,
    /// 4-program rotations under SMT on big.2.16 and small.1.8.
    SmtMix4,
    /// A loopback `multipath serve` under a closed loop of clients.
    ServeLoopback,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::KernelsRec,
        Workload::SmtMix4,
        Workload::ServeLoopback,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::KernelsRec => "kernels-rec",
            Workload::SmtMix4 => "smt-mix4",
            Workload::ServeLoopback => "serve-loopback",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Work sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] is what its own tests run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Budget of the figure suite (full: the paper's, matching `results/`).
    pub figures_budget: Budget,
    /// Rounds (data seeds) a traced `kernels-rec` or `smt-mix4` run
    /// observes.
    pub trace_rounds: u64,
    /// Commits per kernel cell in `kernels-rec`.
    pub kernel_commits: u64,
    /// Commits per program in `smt-mix4`.
    pub smt_commits: u64,
    /// Commits per program of each serve request.
    pub serve_commits: u64,
    /// Commits per program of the lockstep reference pre-pass.
    pub lockstep_commits: u64,
    /// Cycle cap per committed instruction of a cell's target.
    pub max_cycles_per_commit: u64,
    /// Minimum set-up repetitions per run.
    pub setup_reps: usize,
    /// Miss requests the serve workload replays in-process when traced.
    pub serve_replays: usize,
    /// Substrate micro-row size.
    pub micro: layers::MicroSize,
}

impl Scale {
    /// The measured sizes.
    pub fn full() -> Scale {
        Scale {
            figures_budget: Budget::full(),
            trace_rounds: 4,
            kernel_commits: 20_000,
            smt_commits: 5_000,
            serve_commits: 2_000,
            lockstep_commits: 20_000,
            max_cycles_per_commit: 20,
            setup_reps: 9,
            serve_replays: 16,
            micro: layers::MicroSize {
                stream_len: 200_000,
                ops: 1 << 20,
                reps: 5,
            },
        }
    }

    /// Smoke sizes for the benchmark's own tests.
    pub fn tiny() -> Scale {
        Scale {
            figures_budget: Budget {
                committed_per_program: 300,
                max_cycles: 100_000,
                seed: 1,
                mixes: 1,
            },
            trace_rounds: 1,
            kernel_commits: 1_500,
            smt_commits: 400,
            serve_commits: 300,
            lockstep_commits: 500,
            max_cycles_per_commit: 50,
            setup_reps: 2,
            serve_replays: 2,
            micro: layers::MicroSize {
                stream_len: 3_000,
                ops: 4_096,
                reps: 1,
            },
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: kernel data seeds and the serve request stream.
    pub seed: u64,
    /// How long the timed region runs (at least one unit of work).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Work sizes.
    pub scale: Scale,
    /// Expected figure texts in [`figures::NAMES`] order; `None` reads
    /// `results/*.txt`.
    pub expected: Option<Vec<String>>,
}

/// What one run measured.
pub struct Outcome {
    /// Every output check made.
    pub checks: Checks,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// declared order.
    pub metrics: Vec<Metric>,
    /// Human-readable context: sample counts, tracing overhead, spans.
    pub notes: Vec<String>,
    /// The span log (empty in an untraced run).
    pub tracer: spans::Tracer,
}

/// Runs one workload.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload {
        Workload::Figures => figures::run(opts),
        Workload::KernelsRec | Workload::SmtMix4 => cells::run(opts),
        Workload::ServeLoopback => serve_loop::run(opts),
    }
}

/// The repository this benchmark measures (the parent of its directory).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Finishes a traced run: adds the tracing overhead (traced over
/// untraced wall time, minus 1) and the span count to the `produced`
/// per-layer metrics, lays them out in declared order, and notes the
/// overhead and each span name's call count, total, and self time.
fn traced_outcome(
    checks: Checks,
    tracer: spans::Tracer,
    mut produced: Vec<Measured>,
    overhead: f64,
) -> Outcome {
    produced.push(report::metric("trace.overhead", overhead));
    produced.push(report::metric("trace.spans", tracer.spans().len() as f64));
    let mut notes = vec![format!(
        "tracing overhead: {:+.2}% wall time vs the untraced pass",
        overhead * 100.0
    )];
    for (name, count, total, own) in tracer.summary() {
        notes.push(format!(
            "span {name}: {count} calls, {total:.4} s total, {own:.4} s self"
        ));
    }
    Outcome {
        checks,
        metrics: report::per_layer(produced),
        notes,
        tracer,
    }
}
