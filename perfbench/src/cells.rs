//! The `kernels-rec` and `smt-mix4` workloads: serial passes over a fixed
//! cell list on the NullSink path.
//!
//! A pass builds every cell's programs and machine (set-up), then runs
//! every cell (the timed region). The run is a sequence of rounds; round
//! `r` takes a fresh data seed derived from the workload seed, runs one
//! pass over it (cold: new inputs), then repeats that pass (hit: inputs
//! already answered). Nothing caches a simulation on this path, so a
//! repeat costs what the first run did; alternating the two spreads host
//! noise evenly over both.
//!
//! Cell latencies form one cluster per cell kind (kernel, or rotation and
//! machine), so percentiles over the pooled cells sit on the edge of a
//! cluster and follow its slowest outlier, and host speed drifting within
//! a run moves every cluster. The latency samples are instead each kind's
//! 10th-percentile latency over the run's rounds (the uncontended host,
//! as for `wall_s`); p50 and p99 are taken across kinds.

use crate::layers::{self, CellSpec, Probing};
use crate::report::{median, percentile, ratio, secs, Checks, EndToEnd};
use crate::spans::Tracer;
use crate::{Options, Outcome, Scale, Workload};
use multipath_core::{Features, SimConfig};
use multipath_workload::{mix, Benchmark};
use std::time::Instant;

/// Data seed of the lockstep reference pre-pass: the seed of the paper's
/// figures, whose commit streams the golden digests pin.
const LOCKSTEP_SEED: u64 = 1;

fn spec(
    machine: &str,
    config: SimConfig,
    benches: Vec<Benchmark>,
    seed: u64,
    per_program: u64,
    scale: &Scale,
) -> CellSpec {
    let target = per_program * benches.len() as u64;
    CellSpec {
        label: format!(
            "{}/{}/{}/seed{seed}",
            machine,
            config.features.label(),
            benches
                .iter()
                .map(|b| b.name())
                .collect::<Vec<_>>()
                .join("+")
        ),
        config,
        benches,
        seed,
        target,
        max_cycles: target * scale.max_cycles_per_commit,
    }
}

/// The data seed of round `round` of a run with workload seed `seed`.
pub fn data_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(round)
}

/// The cells of one pass at data seed `seed`: each kernel alone under
/// REC/RS/RU on big.2.16, or each 4-program rotation under SMT on
/// big.2.16 and small.1.8.
pub fn specs(workload: Workload, scale: &Scale, seed: u64) -> Vec<CellSpec> {
    match workload {
        Workload::KernelsRec => Benchmark::ALL
            .into_iter()
            .map(|b| {
                let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
                spec(
                    "big.2.16",
                    config,
                    vec![b],
                    seed,
                    scale.kernel_commits,
                    scale,
                )
            })
            .collect(),
        Workload::SmtMix4 => ["big.2.16", "small.1.8"]
            .into_iter()
            .flat_map(|machine| {
                mix::rotations(4).into_iter().map(move |m| {
                    let config = SimConfig::from_machine_name(machine)
                        .expect("preset machine name")
                        .with_features(Features::smt());
                    spec(machine, config, m, seed, scale.smt_commits, scale)
                })
            })
            .collect(),
        _ => unreachable!("cells::specs serves kernels-rec and smt-mix4"),
    }
}

/// One lockstep cell per kernel, whose first program it is: the kernel
/// alone under REC/RS/RU, or the 4-program rotation it leads under SMT on
/// big.2.16.
fn lockstep_specs(workload: Workload, scale: &Scale) -> Vec<CellSpec> {
    let mut one = scale.clone();
    one.kernel_commits = scale.lockstep_commits;
    one.smt_commits = scale.lockstep_commits;
    let mut all = specs(workload, &one, LOCKSTEP_SEED);
    all.truncate(Benchmark::ALL.len());
    all
}

/// The machine the substrate rows replay on: small.1.8 for the SMT mixes
/// (its halved caches are where the hierarchy matters), else big.2.16.
fn substrate_config(workload: Workload) -> SimConfig {
    match workload {
        Workload::SmtMix4 => SimConfig::small_1_8(),
        _ => SimConfig::big_2_16(),
    }
}

/// Runs `kernels-rec` or `smt-mix4`.
pub fn run(opts: &Options) -> Outcome {
    let mut checks = Checks::default();
    for s in lockstep_specs(opts.workload, &opts.scale) {
        layers::lockstep(&mut checks, &s);
    }
    if opts.trace {
        traced(opts, checks)
    } else {
        untraced(opts, checks)
    }
}

fn untraced(opts: &Options, mut checks: Checks) -> Outcome {
    let quiet = Tracer::new(false);
    let start = Instant::now();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let (mut minst, mut rate) = (Vec::new(), Vec::new());
    let mut e2e = EndToEnd::default();
    // Per cell kind (position in the pass): cold and repeat latencies.
    let (mut cold_by_kind, mut hit_by_kind) = (Vec::new(), Vec::new());
    let mut cells = 0usize;
    let mut rounds = 0u64;
    while rounds == 0 || secs(start) < opts.seconds {
        let specs = specs(opts.workload, &opts.scale, data_seed(opts.seed, rounds));
        let cold = layers::run_pass(&specs, Probing::Off, &quiet);
        let hit = layers::run_pass(&specs, Probing::Off, &quiet);
        layers::check_targets(&mut checks, &specs, &cold.runs);
        layers::check_same(
            &mut checks,
            "repetition",
            &specs,
            &cold.runs,
            &hit.runs,
            true,
        );
        for (pass, by_kind) in [(&cold, &mut cold_by_kind), (&hit, &mut hit_by_kind)] {
            by_kind.resize(pass.runs.len(), Vec::new());
            for (lat, r) in by_kind.iter_mut().zip(&pass.runs) {
                lat.push(r.run_s * 1e3);
            }
            let committed: u64 = pass.runs.iter().map(|r| r.stats.committed).sum();
            minst.push(ratio(committed as f64, pass.wall_s) / 1e6);
            rate.push(ratio(pass.runs.len() as f64, pass.wall_s));
            cells += pass.runs.len();
            setups.push(pass.setup_s);
            walls.push(pass.wall_s);
        }
        rounds += 1;
    }
    e2e.cold_ms = cold_by_kind.iter().map(|l| percentile(l, 10.0)).collect();
    e2e.hit_ms = hit_by_kind.iter().map(|l| percentile(l, 10.0)).collect();
    e2e.setup_s = median(&setups);
    e2e.wall_s = percentile(&walls, 10.0);
    e2e.minst_per_s = percentile(&minst, 90.0);
    e2e.req_per_s = percentile(&rate, 90.0);
    Outcome {
        notes: vec![
            format!("rounds: {rounds} (a cold pass and its repeat, {cells} cells in all)"),
            e2e.sample_note(),
        ],
        metrics: e2e.metrics(),
        checks,
        tracer: quiet,
    }
}

fn traced(opts: &Options, mut checks: Checks) -> Outcome {
    let tracer = Tracer::new(true);
    let specs: Vec<CellSpec> = (0..opts.scale.trace_rounds)
        .flat_map(|r| specs(opts.workload, &opts.scale, data_seed(opts.seed, r)))
        .collect();
    let observed = layers::observe(&mut checks, &specs, &tracer);
    let mut produced = observed.metrics;
    produced.extend(layers::substrates(
        &layers::distinct_programs(&specs),
        &substrate_config(opts.workload),
        opts.scale.micro,
        &tracer,
    ));
    let overhead = ratio(observed.traced.wall_s, observed.plain.wall_s) - 1.0;
    crate::traced_outcome(checks, tracer, produced, overhead)
}
