//! The simulator: construction, the cycle loop, and the public API.
//!
//! Pipeline stages live in sibling modules as `impl Simulator` blocks:
//! [`crate::frontend`] (fetch + merge detection), [`crate::rename_stage`]
//! (rename, recycling, reuse, forking), [`crate::issue_stage`],
//! [`crate::writeback`] (completion + branch resolution + recovery),
//! [`crate::commit_stage`], and [`crate::tme`] (fork/swap/respawn/reclaim
//! mechanics).

use crate::active_list::AlEntry;
use crate::arena::{Scratch, Slab};
use crate::config::SimConfig;
use crate::context::Context;
use crate::ids::{CtxId, InstTag, PhysReg, ProgId};
use crate::iq::{IssueQueues, FP, INT};
use crate::map::MapTable;
use crate::probe::StageProfile;
use crate::regfile::RegFiles;
use crate::reuse::{Mdb, WrittenBits};
use crate::stats::Stats;
use multipath_branch::BranchPredictor;
use multipath_isa::{IntReg, Reg};
use multipath_mem::{Asid, Memory, MemoryHierarchy};
use multipath_workload::Program;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// One running program: its image, address space, and progress.
#[derive(Debug)]
pub struct ProgramInstance {
    /// The loaded program.
    pub program: Program,
    /// Its private address space.
    pub memory: Memory,
    /// Cache address-space identifier.
    pub asid: Asid,
    /// Whether a `halt` has committed.
    pub finished: bool,
}

/// A context partition: the contexts serving one program, and which of
/// them currently runs the primary path.
#[derive(Debug, Clone)]
pub struct Group {
    /// The program this group runs.
    pub prog: ProgId,
    /// Member contexts (fixed at construction).
    pub members: Vec<CtxId>,
    /// The context currently executing the primary path.
    pub primary: CtxId,
}

/// A group's member contexts as a `Copy` range — members are contiguous
/// by construction (`Simulator::new` assigns `p*size..(p+1)*size`), so
/// stages iterate this instead of cloning the `members` vector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupSpan {
    start: u8,
    len: u8,
}

impl GroupSpan {
    /// Iterates the member context ids, in group order.
    pub(crate) fn iter(self) -> impl Iterator<Item = CtxId> {
        (self.start..self.start + self.len).map(CtxId)
    }
}

/// A scheduled completion (result broadcast / branch resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompletionEvent {
    pub at: u64,
    pub ctx: CtxId,
    pub seq: u64,
    pub tag: InstTag,
    pub result: Option<u64>,
}

impl Ord for CompletionEvent {
    fn cmp(&self, other: &CompletionEvent) -> std::cmp::Ordering {
        (self.at, self.tag.0).cmp(&(other.at, other.tag.0))
    }
}

impl PartialOrd for CompletionEvent {
    fn partial_cmp(&self, other: &CompletionEvent) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Charges host time to the pipeline stages of one
/// [`Simulator::step_with`] call. The default lap measures nothing, so
/// with `()`, the production clock, every lap compiles away.
trait StageClock {
    /// Charges the time since the previous lap to the stage `slot` picks.
    #[inline(always)]
    fn lap(&mut self, _slot: fn(&mut StageProfile) -> &mut Duration) {}
}

impl StageClock for () {}

/// The host-profile clock: the profile and the time of the last lap.
impl StageClock for (&mut StageProfile, Instant) {
    #[inline(always)]
    fn lap(&mut self, slot: fn(&mut StageProfile) -> &mut Duration) {
        let now = Instant::now();
        *slot(self.0) += now - self.1;
        self.1 = now;
    }
}

/// The execution-driven SMT/TME/Recycle simulator.
///
/// # Examples
///
/// ```
/// use multipath_core::{SimConfig, Simulator, Features};
/// use multipath_workload::{kernels, Benchmark};
///
/// let program = kernels::build(Benchmark::Compress, 1);
/// let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
/// let mut sim = Simulator::new(config, vec![program]);
/// let stats = sim.run(5_000, 200_000);
/// assert!(stats.committed >= 5_000);
/// assert!(stats.ipc() > 0.0);
/// ```
#[derive(Debug)]
pub struct Simulator {
    pub(crate) config: SimConfig,
    pub(crate) cycle: u64,
    pub(crate) contexts: Vec<Context>,
    pub(crate) regs: RegFiles,
    pub(crate) map: MapTable,
    pub(crate) written: WrittenBits,
    pub(crate) mdb: Mdb,
    pub(crate) predictor: BranchPredictor,
    pub(crate) hierarchy: MemoryHierarchy,
    pub(crate) programs: Vec<ProgramInstance>,
    pub(crate) groups: Vec<Group>,
    pub(crate) iq: IssueQueues,
    pub(crate) events: BinaryHeap<Reverse<CompletionEvent>>,
    pub(crate) next_tag: u64,
    pub(crate) stats: Stats,
    pub(crate) forks_this_cycle: usize,
    /// Reusable per-cycle working buffers (no steady-state allocation).
    pub(crate) scratch: Scratch,
    /// Pool holding respawn replay-buffer entries; streams carry 8-byte
    /// handles into this slab instead of owning cloned entries.
    pub(crate) replay_pool: Slab<AlEntry>,
    /// When enabled, every committed instruction is appended as
    /// `(pc, destination value)` — a debugging aid for comparing
    /// architectural execution across configurations.
    pub(crate) commit_log: Option<Vec<(u64, Option<u64>)>>,
    /// Lock-step reference emulator: each commit of the given program is
    /// validated against it (testing aid).
    pub(crate) reference: Option<(ProgId, crate::emulator::Emulator)>,
    /// Cooperative cancellation handle, polled between cycles by `run`
    /// (`None` in batch runs: the loop pays one `Option` check per cycle).
    pub(crate) cancel: Option<crate::cancel::CancelToken>,
    /// Attached observability sinks (`None` in production runs: the hot
    /// path pays one branch per probe site and nothing else).
    pub(crate) probes: Option<Box<crate::probe::Probes>>,
    /// Host-side per-stage wall-clock profile, when enabled.
    pub(crate) host_prof: Option<Box<StageProfile>>,
}

impl Simulator {
    /// Builds a simulator running `programs` on the configured machine.
    ///
    /// Each program gets its own address space and an even share of the
    /// hardware contexts (its *group*); the first context of each group
    /// starts as the primary thread at the program's entry point.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or there are more programs
    /// than contexts (or zero programs).
    pub fn new(config: SimConfig, programs: Vec<Program>) -> Simulator {
        config.validate();
        let group_size = config.group_size(programs.len());
        let predictor = BranchPredictor::new(config.predictor.clone());
        let mut contexts: Vec<Context> = (0..config.contexts)
            .map(|i| {
                Context::new(
                    CtxId(i as u8),
                    config.active_list,
                    predictor.history_bits(),
                    predictor.ras_depth(),
                )
            })
            .collect();
        let mut regs = RegFiles::new(config.phys_int, config.phys_fp);
        let mut map = MapTable::new(config.contexts);
        let mut groups = Vec::with_capacity(programs.len());
        let instances: Vec<ProgramInstance> = programs
            .into_iter()
            .enumerate()
            .map(|(p, program)| {
                let mut memory = Memory::new();
                program.load_into(&mut memory);
                ProgramInstance {
                    program,
                    memory,
                    asid: Asid(p as u16),
                    finished: false,
                }
            })
            .collect();

        for (p, inst) in instances.iter().enumerate() {
            let members: Vec<CtxId> = (p * group_size..(p + 1) * group_size)
                .map(|i| CtxId(i as u8))
                .collect();
            let primary = members[0];
            // Seed the primary context's architectural state.
            for idx in 0..multipath_isa::NUM_LOGICAL_REGS {
                let reg = Reg::from_index(idx);
                let preg = regs
                    .alloc(!reg.is_int())
                    .expect("physical files sized for all contexts");
                let value = if reg == Reg::Int(IntReg::SP) {
                    inst.program.initial_sp
                } else {
                    0
                };
                regs.write(preg, value);
                map.set(primary, reg, preg);
            }
            for &c in &members {
                let ctx = &mut contexts[c.index()];
                ctx.prog = Some(ProgId(p as u16));
                ctx.group = p as u8;
                if c != primary {
                    // Spare regions take their own references: a register
                    // named by any map region must stay alive (see
                    // `copy_region_with_refs`).
                    for (_, preg) in map.region(primary) {
                        regs.add_ref(preg);
                    }
                    map.copy_region(primary, c);
                }
            }
            let prim = &mut contexts[primary.index()];
            prim.state = crate::context::CtxState::Primary;
            prim.fetch_pc = inst.program.entry;
            prim.al_next_pc = inst.program.entry;
            groups.push(Group {
                prog: ProgId(p as u16),
                members,
                primary,
            });
        }

        let stats = Stats::new(instances.len());
        Simulator {
            mdb: Mdb::new(config.mdb_entries),
            written: WrittenBits::new(config.contexts),
            hierarchy: MemoryHierarchy::new(config.hierarchy.clone()),
            predictor,
            regs,
            map,
            contexts,
            programs: instances,
            groups,
            iq: IssueQueues::new(
                config.int_queue,
                config.fp_queue,
                config.phys_int,
                config.phys_fp,
                config.contexts,
            ),
            events: BinaryHeap::new(),
            next_tag: 0,
            stats,
            forks_this_cycle: 0,
            scratch: Scratch::default(),
            replay_pool: Slab::new(),
            cycle: 0,
            config,
            commit_log: None,
            reference: None,
            cancel: None,
            probes: None,
            host_prof: None,
        }
    }

    /// Attaches a lock-step reference emulator for `prog`: every commit is
    /// checked against architectural execution and any divergence panics
    /// with machine state. Testing aid.
    pub fn attach_reference(&mut self, prog: ProgId) {
        let emu = crate::emulator::Emulator::new(&self.programs[prog.index()].program);
        self.reference = Some((prog, emu));
    }

    /// Enables the per-commit architectural log (diagnostics).
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// The committed `(pc, destination value)` log, if enabled.
    pub fn commit_log(&self) -> Option<&[(u64, Option<u64>)]> {
        self.commit_log.as_deref()
    }

    /// Attaches the observability sinks described by `config`. Until this
    /// is called, every probe site is a single predictable branch.
    pub fn enable_probes(&mut self, config: crate::probe::ProbeConfig) {
        self.probes = Some(Box::new(crate::probe::Probes::new(config)));
    }

    /// Enables host-side per-stage wall-clock profiling.
    pub fn enable_host_profile(&mut self) {
        self.host_prof = Some(Box::default());
    }

    /// The attached probes, if any.
    pub fn probes(&self) -> Option<&crate::probe::Probes> {
        self.probes.as_deref()
    }

    /// Detaches and returns the probes (export after a run).
    pub fn take_probes(&mut self) -> Option<Box<crate::probe::Probes>> {
        self.probes.take()
    }

    /// The accumulated host stage profile, if enabled.
    pub fn host_profile(&self) -> Option<&StageProfile> {
        self.host_prof.as_deref()
    }

    /// Finalizes statistics and closes the probe sinks (trailing partial
    /// interval, open Perfetto spans). Call once after the last `step`/
    /// `run` and before exporting; idempotent.
    pub fn finish_probes(&mut self) {
        self.finalize_stats();
        if let Some(mut probes) = self.probes.take() {
            probes.finish(self.cycle, &self.stats);
            self.probes = Some(probes);
        }
    }

    /// Advances the machine one cycle. With the host profile on, one
    /// cycle in [`StageProfile::SAMPLE_PERIOD`] (those whose number is a
    /// multiple of it) runs the stopwatch clock; the rest run the no-op
    /// one.
    pub fn step(&mut self) {
        if self.host_prof.is_none() || !self.cycle.is_multiple_of(StageProfile::SAMPLE_PERIOD) {
            self.step_with(&mut ());
            return;
        }
        let mut profile = self.host_prof.take().expect("checked above");
        self.step_with(&mut (&mut *profile, Instant::now()));
        profile.steps += 1;
        self.host_prof = Some(profile);
    }

    /// The one stage body: each stage runs once, then `clock` charges
    /// the time since the previous lap to it. Production and the host
    /// profile share this loop; only the clock differs.
    #[inline(always)]
    fn step_with<C: StageClock>(&mut self, clock: &mut C) {
        self.forks_this_cycle = 0;
        self.commit_stage();
        clock.lap(|p| &mut p.commit);
        self.writeback_stage();
        clock.lap(|p| &mut p.writeback);
        self.issue_stage();
        clock.lap(|p| &mut p.issue);
        self.rename_stage();
        clock.lap(|p| &mut p.rename);
        self.fetch_stage();
        clock.lap(|p| &mut p.fetch);
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        #[cfg(debug_assertions)]
        if self.cycle.is_multiple_of(4096) {
            self.regs.check_conservation();
        }
        if self.probes.is_some() {
            self.probe_cycle_end();
        }
        clock.lap(|p| &mut p.probes);
    }

    /// Feeds end-of-cycle state (cumulative stats + per-context views) to
    /// the attached sinks.
    fn probe_cycle_end(&mut self) {
        let mut probes = self.probes.take().expect("caller checked");
        probes.views.clear();
        probes.views.extend(self.ctx_views());
        let views = std::mem::take(&mut probes.views);
        crate::probe::ProbeSink::cycle_end(&mut *probes, self.cycle, &self.stats, &views);
        probes.views = views;
        self.probes = Some(probes);
    }

    /// Emits one pipeline event to the attached sinks. Cheap no-op when
    /// probes are disabled; emission sites that compute event arguments
    /// should guard on [`Simulator::probing`] first.
    #[inline]
    pub(crate) fn probe(&mut self, ctx: CtxId, pc: u64, kind: crate::probe::EventKind) {
        if let Some(p) = self.probes.as_mut() {
            crate::probe::ProbeSink::event(
                &mut **p,
                &crate::probe::Event {
                    cycle: self.cycle,
                    ctx: ctx.0,
                    pc,
                    kind,
                },
            );
        }
    }

    /// Whether probes are attached (guard for emission sites whose event
    /// arguments cost anything to compute).
    #[inline]
    pub(crate) fn probing(&self) -> bool {
        self.probes.is_some()
    }

    /// Whether the attached cancel token (if any) has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(crate::cancel::CancelToken::is_cancelled)
    }

    /// Runs until `total_committed` instructions have committed across all
    /// programs, every program has halted, `max_cycles` elapse, or the
    /// attached cancel token (see [`RunSpec::cancel`](crate::RunSpec))
    /// fires.
    /// Returns the accumulated statistics.
    pub fn run(&mut self, total_committed: u64, max_cycles: u64) -> &Stats {
        while self.stats.committed < total_committed
            && self.cycle < max_cycles
            && !self.programs.iter().all(|p| p.finished)
        {
            if let Some(token) = &self.cancel {
                if token.should_stop(self.cycle) {
                    break;
                }
            }
            self.step();
        }
        self.finalize_stats();
        &self.stats
    }

    /// Flushes per-path statistics still held by live contexts into the
    /// aggregate counters (call once, at end of run; `run` does this).
    pub fn finalize_stats(&mut self) {
        for i in 0..self.contexts.len() {
            let path = self.contexts[i].path;
            if path.live {
                self.flush_path_record(CtxId(i as u8));
            }
        }
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The context partition groups.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Read access to a program's memory (inspection in tests/examples).
    pub fn program_memory(&self, prog: ProgId) -> &Memory {
        &self.programs[prog.index()].memory
    }

    /// Whether the given program has executed its `halt`.
    pub fn program_finished(&self, prog: ProgId) -> bool {
        self.programs[prog.index()].finished
    }

    /// Memory-hierarchy statistics.
    pub fn hierarchy_stats(&self) -> multipath_mem::HierarchyStats {
        self.hierarchy.stats()
    }

    /// Each context's view at this point, in context order: what the
    /// probe sinks see at cycle end and what [`crate::trace`] samples.
    pub(crate) fn ctx_views(&self) -> impl Iterator<Item = crate::probe::CtxView> + '_ {
        self.contexts.iter().map(|c| crate::probe::CtxView {
            role: crate::trace::CtxStateKind::of(c.state),
            live: c.al.live() as u32,
            stream: c
                .recycle_stream
                .as_ref()
                .map(|s| s.remaining())
                .unwrap_or(0),
        })
    }

    /// One-line-per-context debug summary (diagnostics).
    pub fn debug_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.contexts {
            let front =
                c.al.front()
                    .map(|e| format!("{}@{:#x}[{:?}]", e.inst, e.pc, e.state));
            let _ = writeln!(
                out,
                "  {} {:?} pc={:#x} live={} pipe={} stream={} inflight={} gate={:?} stall={} stopped={} front={:?}",
                c.id,
                c.state,
                c.fetch_pc,
                c.al.live(),
                c.decode_pipe.len(),
                c.recycle_stream.as_ref().map(|s| s.remaining()).unwrap_or(0),
                c.in_flight,
                c.commit_gate,
                c.fetch_stall_until,
                c.fetch_stopped,
                front,
            );
        }
        let _ = writeln!(
            out,
            "  iq_int={} iq_fp={} events={} free_int={} free_fp={}",
            self.iq.len(INT),
            self.iq.len(FP),
            self.events.len(),
            self.regs.free_count(false),
            self.regs.free_count(true)
        );
        out
    }

    /// Dumps the instruction queues with per-source readiness (diagnostics).
    pub fn debug_iq(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, q) in [("int", INT), ("fp", FP)] {
            for e in self.iq.entries(q).iter().take(12) {
                let entry = self.contexts[e.ctx.index()].al.at_seq(e.seq);
                let srcs: Vec<String> = e
                    .srcs
                    .iter()
                    .flatten()
                    .map(|&p| format!("{}{}", p, if self.regs.is_ready(p) { "+" } else { "-" }))
                    .collect();
                let _ = writeln!(
                    out,
                    "  {name} ctx{} seq{} tag{} {:?} srcs={srcs:?} live={} state={:?}",
                    e.ctx.0,
                    e.seq,
                    e.tag.0,
                    entry.map(|a| a.inst.to_string()),
                    self.contexts[e.ctx.index()].al.is_live(e.seq),
                    entry.map(|a| a.state),
                );
            }
        }
        out
    }

    /// Copies `from`'s map region over `to`'s, with reference accounting:
    /// every physical register is kept alive by each map region that names
    /// it, so an alternate context's copied state can never be freed out
    /// from under it by the parent's commits (the constraint behind the
    /// paper's register-reclaim protocol, Section 3.5).
    pub(crate) fn copy_region_with_refs(&mut self, from: CtxId, to: CtxId) {
        // References on the incoming region must be taken before the old
        // region's are dropped: if a register appears in both, releasing
        // first could free it out from under the copy.
        for (_, p) in self.map.region(from) {
            self.regs.add_ref(p);
        }
        for (_, p) in self.map.region(to) {
            self.regs.release(p);
        }
        self.map.copy_region(from, to);
    }

    // ------------------------------------------------------------------
    // Shared helpers used by the stage modules.
    // ------------------------------------------------------------------

    /// Allocates the next global dynamic-instruction tag.
    pub(crate) fn alloc_tag(&mut self) -> InstTag {
        let t = InstTag(self.next_tag);
        self.next_tag += 1;
        t
    }

    /// The group a context belongs to.
    pub(crate) fn group_of(&self, ctx: CtxId) -> &Group {
        &self.groups[self.contexts[ctx.index()].group as usize]
    }

    /// Whether `ctx` currently runs its group's primary path.
    pub(crate) fn is_primary(&self, ctx: CtxId) -> bool {
        self.group_of(ctx).primary == ctx
    }

    /// The member contexts of `ctx`'s group as a `Copy` span, for
    /// iteration that must not hold a borrow of `self`.
    pub(crate) fn group_span(&self, ctx: CtxId) -> GroupSpan {
        let g = self.group_of(ctx);
        GroupSpan {
            start: g.members[0].0,
            len: g.members.len() as u8,
        }
    }

    /// Tears down `ctx`'s recycle stream, if any, returning replay-buffer
    /// entries to [`Simulator::replay_pool`] and the emptied queue to the
    /// scratch spares. Every site that ends a stream must go through here
    /// (not `recycle_stream = None`) or pool slots leak until reset.
    pub(crate) fn drop_stream(&mut self, ctx: CtxId) {
        if let Some(stream) = self.contexts[ctx.index()].recycle_stream.take() {
            if let crate::context::StreamSource::Buffer(mut buf) = stream.source {
                for h in buf.drain(..) {
                    self.replay_pool.free(h);
                }
                self.scratch.spare_replay_queues.push(buf);
            }
        }
    }

    /// The address-space id of the program a context runs.
    pub(crate) fn asid_of(&self, ctx: CtxId) -> Asid {
        let prog = self.contexts[ctx.index()]
            .prog
            .expect("context has no program");
        self.programs[prog.index()].asid
    }

    /// Front-end + queue occupancy per context (the ICOUNT heuristic),
    /// written into a caller-owned scratch buffer.
    pub(crate) fn fill_icounts(&self, counts: &mut Vec<u64>) {
        counts.clear();
        counts.extend(self.contexts.iter().map(|ctx| {
            // Recycled instructions count immediately (Section 3.3).
            let stream = ctx.recycle_stream.as_ref().map_or(0, |s| s.remaining());
            ctx.decode_pipe.len() as u64 + stream + u64::from(self.iq.held_by(ctx.id))
        }));
    }

    /// Writes a result register and wakes the queue entries waiting on
    /// it. Every write after construction goes through here.
    pub(crate) fn write_reg(&mut self, reg: PhysReg, value: u64) {
        self.regs.write(reg, value);
        self.iq.wake(reg);
    }

    /// Reads the value a load would see: own store queue, then ancestor
    /// queues bounded by fork tags, then committed memory.
    pub(crate) fn read_visible(&self, ctx: CtxId, tag: InstTag, addr: u64, width: u8) -> u64 {
        // The fork chain visits each context at most once plus a defensive
        // extra slot, and `SimConfig::validate` caps contexts at 8 — so
        // the store-queue chain fits a stack array; loads allocate nothing.
        const MAX_CHAIN: usize = 9;
        let prog = self.contexts[ctx.index()]
            .prog
            .expect("load on unbound context");
        let memory = &self.programs[prog.index()].memory;
        let mut chain: [(&crate::lsq::StoreQueue, InstTag); MAX_CHAIN] =
            [(&self.contexts[ctx.index()].sq, tag); MAX_CHAIN];
        let mut n = 0;
        let mut cur = ctx;
        let mut bound = tag;
        loop {
            let c = &self.contexts[cur.index()];
            chain[n] = (&c.sq, bound);
            n += 1;
            match c.fork_link {
                Some(link) if self.contexts[link.parent.index()].prog == c.prog => {
                    bound = InstTag(link.fork_tag.0.min(bound.0));
                    cur = link.parent;
                    if n > self.contexts.len() {
                        break; // defensive: cycles cannot happen, but cap anyway
                    }
                }
                _ => break,
            }
        }
        crate::lsq::load_value(memory, &chain[..n], addr, width)
    }

    /// Whether a load at `tag` in `ctx` reading `[addr, addr+width)` must
    /// wait for an older store.
    ///
    /// Stores compute their addresses as soon as their base register is
    /// ready (see the address pre-probe in the issue stage); a load is
    /// blocked only by an older unexecuted store whose address is still
    /// unknown or overlaps the load — standard conservative memory
    /// disambiguation without misspeculation/replay.
    pub(crate) fn older_store_blocks(
        &self,
        ctx: CtxId,
        tag: InstTag,
        addr: u64,
        width: u8,
    ) -> bool {
        let mut cur = ctx;
        let mut bound = tag;
        for _ in 0..self.contexts.len() {
            let c = &self.contexts[cur.index()];
            for &(store_tag, seq) in &c.pending_stores {
                if store_tag >= bound {
                    break;
                }
                match c.al.at_seq(seq).filter(|e| e.tag == store_tag) {
                    Some(e) => match e.mem.and_then(|m| m.addr) {
                        Some(st_addr) => {
                            let w = e.inst.op.mem_width().map(|w| w.bytes()).unwrap_or(8);
                            if crate::lsq::ranges_overlap(st_addr, w, addr, width as u64) {
                                return true; // overlapping, data not ready
                            }
                        }
                        None => return true, // address unknown
                    },
                    None => continue, // squashed remnant; harmless
                }
            }
            match c.fork_link {
                Some(link) if self.contexts[link.parent.index()].prog == c.prog => {
                    bound = InstTag(link.fork_tag.0.min(bound.0));
                    cur = link.parent;
                }
                _ => return false,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Features;
    use multipath_isa::Inst;
    use multipath_workload::Program;

    fn trivial_program(words: Vec<u32>) -> Program {
        Program {
            name: "trivial".to_owned(),
            text_base: 0x1_0000,
            text: words,
            data: Vec::new(),
            entry: 0x1_0000,
            initial_sp: 0x7f_0000,
        }
    }

    #[test]
    fn construction_partitions_contexts() {
        let p = trivial_program(vec![Inst::halt().encode()]);
        let sim = Simulator::new(SimConfig::big_2_16(), vec![p.clone(), p]);
        assert_eq!(sim.groups().len(), 2);
        assert_eq!(sim.groups()[0].members.len(), 4);
        assert_eq!(sim.groups()[1].members[0], CtxId(4));
        assert!(sim.is_primary(CtxId(0)));
        assert!(sim.is_primary(CtxId(4)));
        assert!(!sim.is_primary(CtxId(1)));
    }

    #[test]
    fn seeding_reserves_logical_registers() {
        let p = trivial_program(vec![Inst::halt().encode()]);
        let sim = Simulator::new(SimConfig::big_2_16(), vec![p]);
        // 32 int registers seeded; the rest free for renaming.
        assert_eq!(sim.regs.free_count(false), 356 - 32);
        assert_eq!(sim.regs.free_count(true), 356 - 32);
    }

    #[test]
    fn halt_program_finishes() {
        let p = trivial_program(vec![Inst::halt().encode()]);
        let mut sim = Simulator::new(
            SimConfig::big_2_16().with_features(Features::smt()),
            vec![p],
        );
        sim.run(1_000, 10_000);
        assert!(sim.program_finished(ProgId(0)));
        assert!(sim.cycle() < 1_000, "a single halt should finish quickly");
    }
}
