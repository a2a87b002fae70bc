//! Per-layer measurement shared by every workload: the cell runner that
//! times `mix::programs`, `Simulator::new`, and `Simulator::run`; the
//! `core.*` and `mem.*` aggregates; the lockstep and identity checks; and
//! the substrate micro-rows (register file, active list, predictor,
//! memory hierarchy) replayed over the workload's own programs.

use crate::report::{median, metric, ratio, secs, Checks, Measured};
use crate::spans::Tracer;
use multipath_branch::{BranchPredictor, GlobalHistory};
use multipath_core::active_list::{ActiveList, AlEntry, EntryState};
use multipath_core::emulator::Emulator;
use multipath_core::regfile::RegFiles;
use multipath_core::{
    EventFilter, InstTag, ProbeConfig, ProgId, SimConfig, Simulator, StageProfile, Stats,
};
use multipath_isa::{Inst, OperandClass, Reg, INST_BYTES};
use multipath_mem::{Asid, HierarchyStats, MemoryHierarchy};
use multipath_workload::{mix, Benchmark, Program};
use std::hint::black_box;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// One simulation: machine, co-scheduled kernels, seed, and stopping rule.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Identifies the cell in spans and failure messages.
    pub label: String,
    /// The configured machine.
    pub config: SimConfig,
    /// Co-scheduled kernels.
    pub benches: Vec<Benchmark>,
    /// Workload seed handed to `mix::programs`.
    pub seed: u64,
    /// Committed instructions, all programs together.
    pub target: u64,
    /// Cycle cap.
    pub max_cycles: u64,
}

/// What the simulator observes while a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probing {
    /// No sinks: the path every batch run takes.
    Off,
    /// The host stage profile (the traced run).
    HostProfile,
    /// `multipath serve`'s configuration: interval series (at serve's
    /// default width of 100 cycles) plus host profile.
    Serve,
}

/// One finished cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Final statistics.
    pub stats: Stats,
    /// Seconds in `mix::programs`.
    pub build_s: f64,
    /// Seconds in `Simulator::new`.
    pub new_s: f64,
    /// Seconds in `Simulator::run`.
    pub run_s: f64,
    /// Cache-hierarchy counters.
    pub hier: HierarchyStats,
    /// Host stage profile, when it was on.
    pub profile: Option<StageProfile>,
}

/// One pass over a cell list: every machine is built first (set-up), then
/// every cell runs (the timed region).
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per-cell results, in spec order.
    pub runs: Vec<CellRun>,
    /// Seconds building inputs and machines.
    pub setup_s: f64,
    /// Seconds running the cells.
    pub wall_s: f64,
}

/// Runs every spec once under `probing`.
pub fn run_pass(specs: &[CellSpec], probing: Probing, tracer: &Tracer) -> Pass {
    tracer.span("perfbench::pass", None, String::new, |pass| {
        let t0 = Instant::now();
        let built: Vec<(Simulator, f64, f64)> = specs
            .iter()
            .map(|spec| {
                let t = Instant::now();
                let programs = tracer.span(
                    "workload::mix::programs",
                    pass,
                    || spec.label.clone(),
                    |_| mix::programs(&spec.benches, spec.seed),
                );
                let build_s = secs(t);
                let t = Instant::now();
                let mut sim = tracer.span(
                    "core::Simulator::new",
                    pass,
                    || spec.label.clone(),
                    |_| Simulator::new(spec.config.clone(), programs),
                );
                let new_s = secs(t);
                match probing {
                    Probing::Off => {}
                    Probing::HostProfile => sim.enable_host_profile(),
                    Probing::Serve => {
                        sim.enable_probes(ProbeConfig {
                            ring: None,
                            interval: Some(100),
                            spans: false,
                            explain: false,
                            filter: EventFilter::all(),
                        });
                        sim.enable_host_profile();
                    }
                }
                (sim, build_s, new_s)
            })
            .collect();
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let runs = built
            .into_iter()
            .zip(specs)
            .map(|((mut sim, build_s, new_s), spec)| {
                let t = Instant::now();
                tracer.span(
                    "core::Simulator::run",
                    pass,
                    || spec.label.clone(),
                    |_| {
                        sim.run(spec.target, spec.max_cycles);
                    },
                );
                let run_s = secs(t);
                if probing == Probing::Serve {
                    sim.finish_probes();
                }
                CellRun {
                    stats: sim.stats().clone(),
                    build_s,
                    new_s,
                    run_s,
                    hier: sim.hierarchy_stats(),
                    profile: sim.host_profile().cloned(),
                }
            })
            .collect();
        Pass {
            runs,
            setup_s,
            wall_s: secs(t1),
        }
    })
}

/// Checks that every cell reached its commit target below its cycle cap.
pub fn check_targets(checks: &mut Checks, specs: &[CellSpec], runs: &[CellRun]) {
    for (spec, run) in specs.iter().zip(runs) {
        checks.check(
            run.stats.committed >= spec.target && run.stats.cycles < spec.max_cycles,
            || {
                format!(
                    "{}: {} of {} commits in {} cycles (cap {})",
                    spec.label, run.stats.committed, spec.target, run.stats.cycles, spec.max_cycles
                )
            },
        );
    }
}

/// Checks that two passes over the same cells simulated exactly the same
/// thing: every counter when `all_counters`, else cycles and commits.
pub fn check_same(
    checks: &mut Checks,
    what: &str,
    specs: &[CellSpec],
    a: &[CellRun],
    b: &[CellRun],
    all_counters: bool,
) {
    for ((spec, x), y) in specs.iter().zip(a).zip(b) {
        let same = if all_counters {
            x.stats.counters() == y.stats.counters()
        } else {
            (x.stats.cycles, x.stats.committed) == (y.stats.cycles, y.stats.committed)
        };
        checks.check(same, || {
            format!("{what} changed the simulation of {}", spec.label)
        });
    }
}

/// Runs `spec` with the reference emulator in lockstep on its first
/// program: any architectural divergence panics inside the simulator,
/// which is caught here and counted as a failed check.
pub fn lockstep(checks: &mut Checks, spec: &CellSpec) {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulator::new(spec.config.clone(), mix::programs(&spec.benches, spec.seed));
        sim.attach_reference(ProgId(0));
        sim.run(spec.target, spec.max_cycles).committed
    }));
    checks.check(matches!(outcome, Ok(c) if c >= spec.target), || {
        format!("lockstep reference check failed on {}", spec.label)
    });
}

/// Sums over the cells of one pass.
#[derive(Debug, Clone, Default)]
pub struct CoreTotals {
    cells: usize,
    build_s: f64,
    new_s: f64,
    run_s: f64,
    stats: Stats,
    hier: HierarchyStats,
    profile: StageProfile,
    /// Per kernel (in `Benchmark::ALL` order): committed instructions and
    /// run seconds of the cells it took part in.
    per_kernel: [(u64, f64); 8],
}

impl CoreTotals {
    /// Totals of `runs` (one per spec).
    pub fn of(specs: &[CellSpec], runs: &[CellRun]) -> CoreTotals {
        let mut t = CoreTotals::default();
        for (spec, r) in specs.iter().zip(runs) {
            t.cells += 1;
            t.build_s += r.build_s;
            t.new_s += r.new_s;
            t.run_s += r.run_s;
            let (s, acc) = (&r.stats, &mut t.stats);
            acc.cycles += s.cycles;
            acc.committed += s.committed;
            acc.fetched += s.fetched;
            acc.renamed += s.renamed;
            acc.recycled += s.recycled;
            acc.reused += s.reused;
            acc.mispredicts += s.mispredicts;
            acc.mispredicts_covered += s.mispredicts_covered;
            t.hier.inst_accesses += r.hier.inst_accesses;
            t.hier.inst_misses += r.hier.inst_misses;
            t.hier.data_accesses += r.hier.data_accesses;
            t.hier.data_misses += r.hier.data_misses;
            t.hier.memory_accesses += r.hier.memory_accesses;
            if let Some(p) = &r.profile {
                let acc = &mut t.profile;
                acc.commit += p.commit;
                acc.writeback += p.writeback;
                acc.issue += p.issue;
                acc.rename += p.rename;
                acc.fetch += p.fetch;
                acc.probes += p.probes;
                acc.steps += p.steps;
            }
            for (i, b) in Benchmark::ALL.iter().enumerate() {
                if spec.benches.contains(b) {
                    t.per_kernel[i].0 += s.committed;
                    t.per_kernel[i].1 += r.run_s;
                }
            }
        }
        t
    }
}

/// `workload.build_ms`, `core.*`, and `mem.*` metrics from a NullSink pass
/// (`plain`) and a pass under serve's probe configuration over the same
/// cells (`probed`).
pub fn core_metrics(plain: &CoreTotals, probed: &CoreTotals) -> Vec<Measured> {
    let s = &plain.stats;
    let h = &plain.hier;
    let mut out = vec![
        metric(
            "workload.build_ms",
            ratio(plain.build_s, plain.cells as f64) * 1e3,
        ),
        metric("core.new_ms", ratio(plain.new_s, plain.cells as f64) * 1e3),
        metric("core.run_s", plain.run_s),
        metric(
            "core.ns_per_cycle",
            ratio(plain.run_s * 1e9, s.cycles as f64),
        ),
        metric(
            "core.ns_per_commit",
            ratio(plain.run_s * 1e9, s.committed as f64),
        ),
        metric("core.cycles", s.cycles as f64),
        metric("core.committed", s.committed as f64),
        metric("core.ipc", ratio(s.committed as f64, s.cycles as f64)),
        metric(
            "core.fetch_yield",
            ratio(s.committed as f64, s.fetched as f64),
        ),
        metric(
            "core.recycle_share",
            ratio(s.recycled as f64, s.renamed as f64),
        ),
        metric(
            "core.reuse_yield",
            ratio(s.reused as f64, s.recycled as f64),
        ),
        metric(
            "core.fork_cover",
            ratio(s.mispredicts_covered as f64, s.mispredicts as f64),
        ),
        metric("core.probed_ratio", ratio(probed.run_s, plain.run_s)),
        metric(
            "mem.l1i_miss_rate",
            ratio(h.inst_misses as f64, h.inst_accesses as f64),
        ),
        metric(
            "mem.l1d_miss_rate",
            ratio(h.data_misses as f64, h.data_accesses as f64),
        ),
        metric(
            "mem.dram_per_kinst",
            ratio(h.memory_accesses as f64 * 1e3, s.committed as f64),
        ),
    ];
    for (b, &(committed, run_s)) in Benchmark::ALL.iter().zip(&plain.per_kernel) {
        out.push(metric(
            format!("core.{}.minst_per_s", b.name()),
            ratio(committed as f64, run_s) / 1e6,
        ));
    }
    out
}

/// `core.stage.*_ns`: host nanoseconds per simulated cycle in each stage.
pub fn stage_metrics(p: &StageProfile) -> Vec<Measured> {
    p.rows()
        .iter()
        .map(|(name, d)| {
            let name = format!("core.stage.{name}_ns");
            metric(name, ratio(d.as_secs_f64() * 1e9, p.steps as f64))
        })
        .collect()
}

/// The three passes a traced run makes over one cell list, with the
/// identity checks between them: NullSink, traced (spans plus host
/// profile), and serve's probe configuration.
pub struct Observed {
    /// The NullSink pass.
    pub plain: Pass,
    /// The traced pass.
    pub traced: Pass,
    /// Metrics from all three.
    pub metrics: Vec<Measured>,
}

/// Runs the three passes of [`Observed`] and checks that observation
/// changed nothing.
pub fn observe(checks: &mut Checks, specs: &[CellSpec], tracer: &Tracer) -> Observed {
    let quiet = Tracer::new(false);
    let plain = run_pass(specs, Probing::Off, &quiet);
    let traced = run_pass(specs, Probing::HostProfile, tracer);
    let probed = run_pass(specs, Probing::Serve, &quiet);
    check_targets(checks, specs, &plain.runs);
    check_same(checks, "tracing", specs, &plain.runs, &traced.runs, false);
    check_same(
        checks,
        "serve's probes",
        specs,
        &plain.runs,
        &probed.runs,
        false,
    );
    let (p, t, q) = (
        CoreTotals::of(specs, &plain.runs),
        CoreTotals::of(specs, &traced.runs),
        CoreTotals::of(specs, &probed.runs),
    );
    let mut metrics = core_metrics(&p, &q);
    metrics.extend(stage_metrics(&t.profile));
    Observed {
        plain,
        traced,
        metrics,
    }
}

/// How big the substrate micro-rows are.
#[derive(Debug, Clone, Copy)]
pub struct MicroSize {
    /// Instructions replayed per program from the reference emulator.
    pub stream_len: usize,
    /// Operations per timed repetition of the register-file and
    /// active-list rows.
    pub ops: usize,
    /// Timed repetitions; each row reports the median.
    pub reps: usize,
}

#[derive(Debug, Clone, Copy)]
enum AccessKind {
    Inst,
    Load,
    Store,
}

/// The architectural streams of a set of programs, as the reference
/// emulator executes them.
struct Replay {
    branches: Vec<(u64, bool)>,
    accesses: Vec<(u16, u64, AccessKind)>,
}

fn replay(programs: &[Program], len: usize, line_bytes: u64) -> Replay {
    let mut r = Replay {
        branches: Vec::new(),
        accesses: Vec::new(),
    };
    for (asid, program) in programs.iter().enumerate() {
        let asid = asid as u16;
        let mut emu = Emulator::new(program);
        let mut line = u64::MAX;
        for _ in 0..len {
            let pc = emu.pc();
            if pc / line_bytes != line {
                line = pc / line_bytes;
                r.accesses.push((asid, pc, AccessKind::Inst));
            }
            let inst = Inst::decode(emu.memory().read_u32(pc));
            if let Some(i) = inst.filter(|i| i.op.is_load() || i.op.is_store()) {
                if let Some(Reg::Int(base)) = i.src1 {
                    let addr = multipath_core::exec::effective_address(
                        &i,
                        emu.int_reg(base.number() as usize),
                    );
                    let kind = if i.op.is_store() {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    r.accesses.push((asid, addr, kind));
                }
            }
            if emu.step().halted {
                break;
            }
            if inst.is_some_and(|i| matches!(i.op.operand_class(), OperandClass::CondBr)) {
                r.branches.push((pc, emu.pc() != pc + INST_BYTES));
            }
        }
    }
    r
}

/// Median over `reps` of `f`'s nanoseconds per operation (`f` returns its
/// operation count).
fn ns_per_op(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let ops = f();
            ratio(secs(t) * 1e9, ops as f64)
        })
        .collect();
    median(&samples)
}

/// The substrate rows over `programs` on `config`'s structures.
pub fn substrates(
    programs: &[Program],
    config: &SimConfig,
    size: MicroSize,
    tracer: &Tracer,
) -> Vec<Measured> {
    let line = config.hierarchy.l1i.line_bytes as u64;
    let stream = tracer.span("core::emulator::Emulator::step", None, String::new, |_| {
        replay(programs, size.stream_len, line)
    });

    let mut accuracy = 0.0;
    let predict_ns = tracer.span("branch::BranchPredictor", None, String::new, |_| {
        ns_per_op(size.reps, || {
            let mut bp = BranchPredictor::new(config.predictor.clone());
            let mut history = GlobalHistory::new(bp.history_bits());
            let mut correct = 0u64;
            for &(pc, taken) in &stream.branches {
                let p = bp.predict(pc, &history);
                black_box(bp.confidence_level(pc, history.bits()));
                bp.update(pc, history.bits(), taken, p.taken);
                history.push(taken);
                correct += u64::from(p.taken == taken);
            }
            accuracy = ratio(correct as f64, stream.branches.len() as f64);
            stream.branches.len()
        })
    });

    let access_ns = tracer.span("mem::MemoryHierarchy::access", None, String::new, |_| {
        ns_per_op(size.reps, || {
            let mut h = MemoryHierarchy::new(config.hierarchy.clone());
            for (now, &(asid, addr, kind)) in stream.accesses.iter().enumerate() {
                let now = now as u64;
                black_box(match kind {
                    AccessKind::Inst => h.inst_access(Asid(asid), addr, now),
                    AccessKind::Load => h.data_access(Asid(asid), addr, false, now),
                    AccessKind::Store => h.data_access(Asid(asid), addr, true, now),
                });
            }
            stream.accesses.len()
        })
    });

    let regfile_ns = tracer.span("core::regfile::RegFiles", None, String::new, |_| {
        let batch = (config.phys_int.min(config.phys_fp) / 2).max(1);
        let rounds = (size.ops / batch).max(1);
        let mut held = Vec::with_capacity(batch);
        ns_per_op(size.reps, || {
            let mut regs = RegFiles::new(config.phys_int, config.phys_fp);
            for _ in 0..rounds {
                for i in 0..batch {
                    held.extend(regs.alloc(i % 4 == 3));
                }
                for r in held.drain(..) {
                    regs.release(black_box(r));
                }
            }
            rounds * batch
        })
    });

    let entry = template_entry(&programs[0]);
    let half = (config.active_list / 2).max(1);
    let rounds = (size.ops / half).max(1);
    let commit_ns = tracer.span(
        "core::active_list::ActiveList",
        None,
        || "commit".to_owned(),
        |_| {
            ns_per_op(size.reps, || {
                let mut al = ActiveList::new(config.active_list);
                for round in 0..rounds {
                    for k in 0..half {
                        let mut e = entry;
                        e.tag = InstTag((round * half + k) as u64);
                        black_box(al.insert(e));
                    }
                    for _ in 0..half {
                        black_box(al.commit_front());
                    }
                }
                rounds * half
            })
        },
    );
    let squash_ns = tracer.span(
        "core::active_list::ActiveList",
        None,
        || "squash".to_owned(),
        |_| {
            ns_per_op(size.reps, || {
                let mut al = ActiveList::new(config.active_list);
                for round in 0..rounds {
                    let first = al.next_seq();
                    for k in 0..half {
                        let mut e = entry;
                        e.tag = InstTag((round * half + k) as u64);
                        black_box(al.insert(e));
                    }
                    black_box(al.squash_from(first));
                }
                rounds * half
            })
        },
    );

    vec![
        metric("core.regfile.alloc_release_ns", regfile_ns),
        metric("core.active_list.insert_commit_ns", commit_ns),
        metric("core.active_list.squash_ns", squash_ns),
        metric("branch.predict_update_ns", predict_ns),
        metric("branch.accuracy", accuracy),
        metric("mem.access_ns", access_ns),
    ]
}

/// An active-list entry shaped like the program's first instruction.
fn template_entry(program: &Program) -> AlEntry {
    let inst = Inst::decode(Emulator::new(program).memory().read_u32(program.entry))
        .unwrap_or_else(Inst::halt);
    AlEntry {
        seq: 0,
        tag: InstTag(0),
        pc: program.entry,
        inst,
        dest: inst.dest,
        new_preg: None,
        old_preg: None,
        srcs: [None, None],
        state: EntryState::Done,
        executed: true,
        recycled: false,
        reused: false,
        fetched_only: false,
        branch: None,
        mem: None,
        taken_path: None,
        regs_held: false,
    }
}

/// One program per kernel in `benches` (first occurrence order), as the
/// workload's seed generates them.
pub fn distinct_programs(specs: &[CellSpec]) -> Vec<Program> {
    let mut seen: Vec<(Benchmark, u64)> = Vec::new();
    for s in specs {
        for &b in &s.benches {
            if !seen.iter().any(|&(x, _)| x == b) {
                seen.push((b, s.seed));
            }
        }
    }
    seen.iter()
        .map(|&(b, seed)| mix::programs(&[b], seed).remove(0))
        .collect()
}
