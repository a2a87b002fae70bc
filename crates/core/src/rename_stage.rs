//! The rename stage: register renaming, recycled-instruction merging,
//! reuse, and TME fork decisions.
//!
//! Fetched-path instructions get priority for rename slots; recycled
//! instructions fill the remainder. Within one thread program order is
//! absolute: while a recycle stream is active, the thread's own decode
//! pipe is blocked behind it (Section 3.3).

use crate::active_list::{AlEntry, BranchState, EntryState, MemState};
use crate::context::{CtxState, FetchPrediction, StreamSource};
use crate::ids::CtxId;
use crate::iq::queue_for;
use crate::sim::Simulator;
use multipath_branch::GlobalHistory;
use multipath_isa::{Inst, Opcode, OperandClass, INST_BYTES};

/// Why rename had to stop for this thread this cycle.
enum Stall {
    /// No free physical register / active-list slot / queue slot.
    Resources,
}

impl Simulator {
    /// Runs one rename cycle.
    pub(crate) fn rename_stage(&mut self) {
        let mut budget = self.config.rename_width;
        let mut icounts = std::mem::take(&mut self.scratch.icounts);
        let mut order = std::mem::take(&mut self.scratch.order);
        self.fill_icounts(&mut icounts);
        order.clear();
        order.extend((0..self.contexts.len()).map(|i| CtxId(i as u8)));
        order.sort_by_key(|c| icounts[c.index()]);

        'stage: {
            // Phase A: fetched-path instructions. A thread with an active
            // stream still renames its *pre-stream* decode items here —
            // they are older than the trace.
            for &ctx in &order {
                if budget == 0 {
                    break 'stage;
                }
                budget = self.rename_from_decode(ctx, budget);
            }
            // Phase B: recycled instructions fill the remaining slots, once
            // the pre-stream fetched instructions have cleared.
            for &ctx in &order {
                if budget == 0 {
                    break 'stage;
                }
                let gated = match &self.contexts[ctx.index()].recycle_stream {
                    None => true,
                    Some(s) => s.pre_items > 0,
                };
                if gated {
                    continue;
                }
                budget = self.rename_from_stream(ctx, budget);
                if budget > 0 && self.contexts[ctx.index()].recycle_stream.is_none() {
                    // Stream drained this cycle; the decode pipe may follow.
                    budget = self.rename_from_decode(ctx, budget);
                }
            }
        }
        self.scratch.icounts = icounts;
        self.scratch.order = order;
    }

    /// Enforces the alternate-path instruction cap (Section 5.2) at the
    /// rename stage: fetch already respects it, but recycle streams and
    /// respawn replays insert without fetching. Returns true when the cap
    /// is hit (the path simply ends there).
    fn alternate_cap_hit(&mut self, ctx: CtxId) -> bool {
        if !matches!(self.contexts[ctx.index()].state, CtxState::Alternate { .. }) {
            return false;
        }
        let limit = self.config.alt_policy.limit() as u64;
        if self.contexts[ctx.index()].al.total_inserted() < limit {
            return false;
        }
        let c = &mut self.contexts[ctx.index()];
        c.fetch_stopped = true;
        // Rewind fetch to the next-to-rename point (everything fetched or
        // streamed beyond it is discarded): if this path is later promoted
        // to primary, it must resume exactly after its last renamed
        // instruction — a stale fetch PC would leave a hole in the
        // committed instruction stream.
        c.fetch_pc = c.al_next_pc;
        if let Some(s) = &c.recycle_stream {
            if s.pre_items == 0 {
                let bits = s.ghr.bits();
                c.ghr.set(bits);
            }
        }
        c.decode_pipe.clear();
        self.drop_stream(ctx);
        #[cfg(debug_assertions)]
        {
            let cyc = self.cycle;
            let fpc = self.contexts[ctx.index()].fetch_pc;
            self.contexts[ctx.index()].log_fe(cyc, || format!("cap-hit -> {fpc:#x}"));
        }
        true
    }

    /// Renames instructions from `ctx`'s decode pipe. Returns remaining
    /// budget.
    fn rename_from_decode(&mut self, ctx: CtxId, mut budget: usize) -> usize {
        while budget > 0 {
            if self.alternate_cap_hit(ctx) {
                break;
            }
            // Behind an active stream, only pre-stream (older) items flow.
            if self.contexts[ctx.index()]
                .recycle_stream
                .as_ref()
                .is_some_and(|s| s.pre_items == 0)
            {
                break;
            }
            let Some(item) = self.contexts[ctx.index()].decode_pipe.front() else {
                break;
            };
            if item.ready_cycle > self.cycle {
                break;
            }
            let item = self.contexts[ctx.index()]
                .decode_pipe
                .pop_front()
                .expect("peeked");
            match self.rename_one(ctx, item.pc, &item.inst, item.pred, false) {
                Ok(()) => {
                    budget -= 1;
                    if let Some(s) = &mut self.contexts[ctx.index()].recycle_stream {
                        s.pre_items -= 1;
                    }
                }
                Err(Stall::Resources) => {
                    self.contexts[ctx.index()].decode_pipe.push_front(item);
                    break;
                }
            }
        }
        budget
    }

    /// Renames instructions from `ctx`'s recycle stream. Returns remaining
    /// budget.
    fn rename_from_stream(&mut self, ctx: CtxId, mut budget: usize) -> usize {
        while budget > 0 {
            if self.alternate_cap_hit(ctx) {
                break;
            }
            let Some(stream) = &self.contexts[ctx.index()].recycle_stream else {
                break;
            };
            let expected_pc = stream.expected_pc;
            let reuse_allowed = stream.reuse_allowed;

            // Pull the next trace entry. Buffer sources are *peeked* here
            // and only popped (and their pool slot freed) once the entry
            // actually renames, so stalls need no restore step.
            let (entry, source_ctx, buf_handle) = match &stream.source {
                StreamSource::Context(src) => {
                    let src = *src;
                    if stream.next_seq >= stream.end_seq {
                        self.drop_stream(ctx);
                        break;
                    }
                    match self.contexts[src.index()].al.at_seq(stream.next_seq) {
                        Some(e) if e.pc == expected_pc => (*e, Some(src), None),
                        _ => {
                            // Trace overwritten or rewritten under us: the
                            // remainder must be fetched instead.
                            self.cancel_stream(ctx, expected_pc);
                            break;
                        }
                    }
                }
                StreamSource::Buffer(buf) => match buf.front().copied() {
                    Some(h) => {
                        let e = *self.replay_pool.get(h).expect("live replay handle");
                        if e.pc == expected_pc {
                            (e, None, Some(h))
                        } else {
                            // Replay discontinuity: refetch from here.
                            self.cancel_stream(ctx, expected_pc);
                            break;
                        }
                    }
                    None => {
                        self.drop_stream(ctx);
                        break;
                    }
                },
            };

            // Resource precheck before predicting: predict_next mutates
            // the GHR/RAS, which must happen exactly once per consumed
            // entry.
            if !self.can_rename(ctx, &entry.inst) {
                break;
            }
            // Re-check control-flow predictions against the stream's own
            // history view (the context GHR already contains the whole
            // trace plus post-trace fetch; see stream creation).
            let trace_next = crate::frontend::entry_next_pc(&entry);
            let stream_ghr = self.contexts[ctx.index()]
                .recycle_stream
                .as_ref()
                .expect("stream present")
                .ghr;
            let (pred, next_pc, pushed) = match entry.inst.op.operand_class() {
                OperandClass::CondBr => {
                    let target = entry.inst.direct_target(entry.pc);
                    let (taken, confident) = match self.config.recycled_prediction {
                        crate::config::RecycledPrediction::Repredict => {
                            let p = self.predictor.predict(entry.pc, &stream_ghr);
                            (p.taken, p.confident)
                        }
                        crate::config::RecycledPrediction::Trace => {
                            // Keep the trace's prediction; still consult
                            // the confidence estimator so TME can fork.
                            let p = self.predictor.predict(entry.pc, &stream_ghr);
                            let dir = entry
                                .taken_path
                                .or(entry.branch.as_ref().map(|b| b.predicted_taken))
                                .unwrap_or(p.taken);
                            (dir, p.confident)
                        }
                    };
                    let next = if taken { target } else { entry.pc + INST_BYTES };
                    (
                        Some(FetchPrediction {
                            taken,
                            target,
                            history: stream_ghr.bits(),
                            confident,
                        }),
                        next,
                        Some(taken),
                    )
                }
                OperandClass::Br => {
                    let target = entry.inst.direct_target(entry.pc);
                    (
                        Some(FetchPrediction {
                            taken: true,
                            target,
                            history: stream_ghr.bits(),
                            confident: true,
                        }),
                        target,
                        None,
                    )
                }
                OperandClass::Jump => (
                    // Trust the trace's followed target; execution verifies.
                    Some(FetchPrediction {
                        taken: true,
                        target: trace_next,
                        history: stream_ghr.bits(),
                        confident: true,
                    }),
                    trace_next,
                    None,
                ),
                _ => (None, entry.pc + INST_BYTES, None),
            };
            let diverges = entry.inst.op.is_control() && next_pc != trace_next;

            // Attempt reuse, then fall back to re-renaming for execution;
            // the fallback cause feeds the explain taxonomy. A stream that
            // is not reuse-capable (RU off, self/backward merge, respawn
            // replay) denies everything with `Disabled`.
            let fresh = self.contexts[ctx.index()]
                .recycle_stream
                .as_ref()
                .expect("stream present")
                .fresh;
            let (reuse_from, deny) = match source_ctx {
                Some(src) if reuse_allowed => match self.reuse_check(src, &entry, &fresh) {
                    Ok(()) => (Some(src), None),
                    Err(cause) => (None, Some(cause)),
                },
                _ => (None, Some(crate::probe::ReuseDeny::Disabled)),
            };
            let outcome = match reuse_from {
                Some(src) => self.rename_reused(ctx, src, &entry),
                None => self.rename_one(ctx, entry.pc, &entry.inst, pred, true),
            };
            if outcome.is_ok() {
                if let Some(stream) = &mut self.contexts[ctx.index()].recycle_stream {
                    if let Some(d) = entry.dest {
                        stream.fresh[d.index()] = reuse_from.is_some();
                    }
                }
                // Exactly one ReuseDenied per recycled-but-not-reused
                // rename, so the taxonomy sums to `recycled − reused`.
                if self.probing() {
                    if let Some(cause) = deny {
                        let class = crate::probe::InstClass::of(entry.inst.op);
                        self.probe(
                            ctx,
                            entry.pc,
                            crate::probe::EventKind::ReuseDenied { class, cause },
                        );
                    }
                }
            }
            match outcome {
                Ok(()) => {
                    budget -= 1;
                    // The peeked buffer entry is consumed: pop its handle
                    // and recycle the pool slot.
                    if let Some(h) = buf_handle {
                        if let Some(stream) = &mut self.contexts[ctx.index()].recycle_stream {
                            if let StreamSource::Buffer(buf) = &mut stream.source {
                                let popped = buf.pop_front();
                                debug_assert_eq!(popped, Some(h));
                            }
                        }
                        self.replay_pool.free(h);
                    }
                }
                Err(Stall::Resources) => break,
            }

            // Advance the stream.
            if let Some(stream) = &mut self.contexts[ctx.index()].recycle_stream {
                if matches!(stream.source, StreamSource::Context(_)) {
                    stream.next_seq += 1;
                }
                stream.expected_pc = next_pc;
                if let Some(taken) = pushed {
                    stream.ghr.push(taken);
                }
                if stream.remaining() == 0 {
                    // Completed. If the walked trace ended somewhere other
                    // than where fetch resumed at creation (a trace branch
                    // was re-resolved underneath us), the post-trace fetch
                    // is wrong-path: discard and refetch.
                    let (expected, resume) = (stream.expected_pc, stream.resume_pc);
                    self.drop_stream(ctx);
                    if !diverges && expected != resume {
                        self.cancel_stream(ctx, expected);
                        break;
                    }
                }
            }
            if diverges {
                // The new prediction leaves the trace: stop recycling and
                // fetch the newly predicted path (Section 3.4).
                self.cancel_stream(ctx, next_pc);
                break;
            }
        }
        budget
    }

    /// Whether `ctx` has the resources to rename `inst` right now (active
    /// list slot, queue slot, free destination register).
    fn can_rename(&self, ctx: CtxId, inst: &Inst) -> bool {
        if !self.contexts[ctx.index()].al.has_space() {
            return false;
        }
        if let Some(d) = inst.dest {
            if self.regs.free_count(!d.is_int()) == 0 {
                return false;
            }
        }
        !self.iq.is_full(queue_for(inst.op.fu_class()))
    }

    /// Abandons `ctx`'s recycle stream and redirects fetch to `pc`.
    fn cancel_stream(&mut self, ctx: CtxId, pc: u64) {
        let cycle = self.cycle;
        // Repair the GHR to the mid-trace view: the trace's remaining
        // directions and the (now discarded) post-trace fetch are gone.
        if let Some(stream) = &self.contexts[ctx.index()].recycle_stream {
            let bits = stream.ghr.bits();
            self.contexts[ctx.index()].ghr.set(bits);
        }
        self.drop_stream(ctx);
        let c = &mut self.contexts[ctx.index()];
        // Anything fetched past the trace is younger than `pc`; discard it.
        c.decode_pipe.clear();
        c.fetch_pc = pc;
        c.al_next_pc = pc;
        // A halt fetched on the discarded path must not keep the thread
        // muted on the new one.
        c.fetch_stopped = false;
        c.log_fe(cycle, || format!("cancel -> {pc:#x}"));
        c.fetch_stall_until = cycle + 1;
    }

    /// Whether `entry` from `source`'s trace can be reused, and if not,
    /// why — the explain layer's [`crate::probe::ReuseDeny`] taxonomy.
    ///
    /// `fresh` is the active stream's freshness set: registers whose
    /// current mapping was itself installed by a reuse from this stream,
    /// for which value identity holds by construction even though the
    /// written-bit array conservatively marks them changed.
    ///
    /// Checks run in a fixed priority order so an entry failing several
    /// lands in one deterministic bucket; `Ok(())` means every check
    /// passed (the acceptance set is order-independent).
    fn reuse_check(
        &self,
        source: CtxId,
        entry: &AlEntry,
        fresh: &[bool; multipath_isa::NUM_LOGICAL_REGS],
    ) -> Result<(), crate::probe::ReuseDeny> {
        use crate::probe::ReuseDeny;
        if !entry.executed || entry.fetched_only {
            return Err(ReuseDeny::NotExecuted);
        }
        if entry.reused {
            return Err(ReuseDeny::ChainedReuse);
        }
        let op = entry.inst.op;
        if entry.dest.is_none() || op.is_control() || op.is_store() {
            return Err(ReuseDeny::NoResult);
        }
        if !entry.regs_held || entry.new_preg.is_none() {
            return Err(ReuseDeny::RegsReleased);
        }
        for src in [entry.inst.src1, entry.inst.src2].into_iter().flatten() {
            if !src.is_zero() && !self.written.unchanged(source, src) && !fresh[src.index()] {
                return Err(ReuseDeny::SourceOverwritten);
            }
        }
        if op.is_load() {
            let addr = entry.mem.and_then(|m| m.addr);
            match addr {
                Some(addr) if self.mdb.reusable(self.asid_of(source), entry.pc, addr) => {}
                _ => return Err(ReuseDeny::MemInvalidated),
            }
        }
        Ok(())
    }

    /// Installs a reused instruction: the old physical register becomes
    /// the new mapping and the instruction bypasses issue and execution.
    fn rename_reused(&mut self, ctx: CtxId, _source: CtxId, entry: &AlEntry) -> Result<(), Stall> {
        if !self.contexts[ctx.index()].al.has_space() {
            return Err(Stall::Resources);
        }
        let dest = entry.dest.expect("reuse_legal checked dest");
        let preg = entry.new_preg.expect("reuse_legal checked preg");
        debug_assert!(self.regs.is_ready(preg), "reused value must be ready");
        self.regs.add_ref(preg);
        let old = self.map.set(ctx, dest, preg);
        // Even a reused mapping counts as a new register instance (the
        // paper's written-bit rule): exempting the source context would
        // let a *second* merge of the same path reuse values that are one
        // iteration stale.
        let span = self.group_span(ctx);
        self.written.set_row(dest, span.iter());

        let tag = self.alloc_tag();
        let new = AlEntry {
            seq: 0,
            tag,
            pc: entry.pc,
            inst: entry.inst,
            dest: Some(dest),
            new_preg: Some(preg),
            old_preg: old,
            srcs: [None; 2],
            state: EntryState::Done,
            executed: true,
            recycled: true,
            reused: true,
            fetched_only: false,
            branch: None,
            mem: entry.mem,
            taken_path: None,
            regs_held: true,
        };
        #[cfg(debug_assertions)]
        {
            let cyc = self.cycle;
            let pc = entry.pc;
            let val = self.regs.read(preg);
            let sseq = entry.seq;
            let inst = entry.inst;
            self.contexts[ctx.index()].log_fe(cyc, || {
                format!(
                    "reuse {inst} pc={pc:#x} src ctx{} seq{sseq} val={val}",
                    _source.0
                )
            });
        }
        debug_assert_eq!(entry.pc, self.contexts[ctx.index()].al_next_pc);
        self.contexts[ctx.index()].al.insert(new);
        self.contexts[ctx.index()].al_next_pc = entry.pc + INST_BYTES;
        self.stats.renamed += 1;
        self.stats.recycled += 1;
        self.stats.reused += 1;
        if self.probing() {
            let class = crate::probe::InstClass::of(entry.inst.op);
            self.probe(ctx, entry.pc, crate::probe::EventKind::Reuse { class });
        }
        Ok(())
    }

    /// Renames one instruction into `ctx` (fetched or recycled path).
    fn rename_one(
        &mut self,
        ctx: CtxId,
        pc: u64,
        inst: &Inst,
        pred: Option<FetchPrediction>,
        recycled: bool,
    ) -> Result<(), Stall> {
        if !self.contexts[ctx.index()].al.has_space() {
            return Err(Stall::Resources);
        }
        // Rename continuity: every instruction must follow the previous
        // one's predicted successor. Any violation is a front-end hole.
        #[cfg(debug_assertions)]
        if pc != self.contexts[ctx.index()].al_next_pc {
            panic!(
                "rename discontinuity in ctx{} at cycle {} ({} pc={pc:#x}, expected {:#x}, recycled={recycled})\n{}\nfe log:\n{}",
                ctx.0,
                self.cycle,
                inst,
                self.contexts[ctx.index()].al_next_pc,
                self.debug_state(),
                self.contexts[ctx.index()]
                    .fe_log
                    .iter()
                    .map(|s| format!("  {s}"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            );
        }
        let op = inst.op;
        let fu = op.fu_class();
        let queue = queue_for(fu);
        // Instructions that never enter the queue: nop/halt (no work),
        // br (resolved at fetch), jsr (link value computed at rename).
        let skips_queue = matches!(op, Opcode::Nop | Opcode::Halt | Opcode::Br | Opcode::Jsr);
        let fetched_only = matches!(
            self.contexts[ctx.index()].state,
            CtxState::Alternate { resolved: true, .. }
        ) && !self.config.alt_policy.execute_after_resolve();
        let needs_queue = !skips_queue && !fetched_only;
        if needs_queue && self.iq.is_full(queue) {
            return Err(Stall::Resources);
        }
        // Allocate the destination register before taking reader refs so a
        // failed allocation has nothing to unwind.
        let new_preg = match inst.dest {
            Some(d) => match self.regs.alloc(!d.is_int()) {
                Some(p) => Some(p),
                None => {
                    self.stats.preg_stall_cycles += 1;
                    self.probe(ctx, pc, crate::probe::EventKind::PregStall);
                    // Pressure valve: the primary thread must always be
                    // able to make progress, so spare contexts give their
                    // registers back rather than starve it (the paper's
                    // inactive contexts are "quickly reclaimed" when not
                    // beneficial).
                    if self.is_primary(ctx) {
                        self.relieve_register_pressure(ctx);
                    }
                    return Err(Stall::Resources);
                }
            },
            None => None,
        };

        let tag = self.alloc_tag();
        let mut srcs = [None; 2];
        if !fetched_only {
            for (i, src) in [inst.src1, inst.src2].into_iter().enumerate() {
                if let Some(r) = src {
                    let p = self.map.get(ctx, r);
                    self.regs.add_ref(p);
                    srcs[i] = Some(p);
                }
            }
        }
        let old_preg = match (inst.dest, new_preg) {
            (Some(d), Some(p)) => {
                let old = self.map.set(ctx, d, p);
                if self.is_primary(ctx) {
                    let span = self.group_span(ctx);
                    self.written.set_row(d, span.iter());
                }
                old
            }
            _ => None,
        };

        // Control bookkeeping.
        let fallthrough = pc + INST_BYTES;
        let mut taken_path = None;
        let branch = match op.operand_class() {
            OperandClass::CondBr => {
                let p = pred.expect("conditional branches carry predictions");
                taken_path = Some(p.taken);
                Some(BranchState {
                    predicted_taken: p.taken,
                    predicted_target: p.target,
                    history: p.history,
                    fork: None,
                    resolved: false,
                    actual_taken: None,
                    actual_target: None,
                })
            }
            OperandClass::Br => {
                let target = inst.direct_target(pc);
                taken_path = Some(true);
                Some(BranchState {
                    predicted_taken: true,
                    predicted_target: target,
                    history: pred.map(|p| p.history).unwrap_or(0),
                    fork: None,
                    resolved: true,
                    actual_taken: Some(true),
                    actual_target: Some(target),
                })
            }
            OperandClass::Jump => {
                let p = pred.expect("indirect jumps carry predictions");
                taken_path = Some(true);
                Some(BranchState {
                    predicted_taken: true,
                    predicted_target: p.target,
                    history: p.history,
                    fork: None,
                    resolved: false,
                    actual_taken: None,
                    actual_target: None,
                })
            }
            _ => None,
        };

        let mem = (op.is_load() || op.is_store()).then(MemState::default);
        let done_at_rename = skips_queue || fetched_only;
        let entry = AlEntry {
            seq: 0,
            tag,
            pc,
            inst: *inst,
            dest: inst.dest,
            new_preg,
            old_preg,
            srcs,
            state: if done_at_rename && !fetched_only {
                EntryState::Done
            } else {
                EntryState::Pending
            },
            executed: skips_queue && !fetched_only,
            recycled,
            reused: false,
            fetched_only,
            branch,
            mem,
            taken_path,
            regs_held: true,
        };
        let seq = self.contexts[ctx.index()].al.insert(entry);

        // The link register value is known at rename.
        if op == Opcode::Jsr && !fetched_only {
            if let Some(p) = new_preg {
                self.write_reg(p, fallthrough);
            }
        }
        if op.is_store() && !fetched_only {
            self.contexts[ctx.index()].push_pending_store(tag, seq);
        }

        // Track where fetch would resume after this trace.
        let next_pc = match (&pred, op.is_control()) {
            (Some(p), true) if p.taken => p.target,
            _ => fallthrough,
        };
        self.contexts[ctx.index()].al_next_pc = next_pc;
        #[cfg(debug_assertions)]
        {
            let cyc = self.cycle;
            self.contexts[ctx.index()].log_fe(cyc, || {
                format!("rename {inst} pc={pc:#x} next={next_pc:#x} seq={seq} rec={recycled}")
            });
        }

        // Backward-branch merge point (Section 3.2): a taken backward
        // branch whose target's previous instance is still in our list.
        if self.config.features.recycle {
            let backward_taken = match (op.operand_class(), &pred) {
                (OperandClass::CondBr, Some(p)) => p.taken && p.target < pc,
                (OperandClass::Br, _) if op == Opcode::Br => inst.direct_target(pc) < pc,
                _ => false,
            };
            if backward_taken {
                let target = inst.direct_target(pc);
                self.record_back_merge(ctx, seq, target);
            }
        }

        // Dispatch.
        if needs_queue {
            let regs = &self.regs;
            self.iq
                .dispatch(ctx, seq, tag, srcs, fu, |p| regs.is_ready(p));
        }

        self.stats.renamed += 1;
        if recycled {
            self.stats.recycled += 1;
        }
        if self.probing() {
            let class = crate::probe::InstClass::of(op);
            let kind = if recycled {
                crate::probe::EventKind::Recycle { class }
            } else {
                crate::probe::EventKind::Rename { class }
            };
            self.probe(ctx, pc, kind);
        }

        // TME fork decision.
        if op.operand_class() == OperandClass::CondBr {
            if let Some(p) = pred {
                self.maybe_fork(ctx, seq, pc, inst, p);
            }
        }
        Ok(())
    }

    /// Records a backward-branch merge point if the loop head's previous
    /// instance is still present in the context's active list.
    fn record_back_merge(&mut self, ctx: CtxId, branch_seq: u64, target: u64) {
        let al = &self.contexts[ctx.index()].al;
        let cap = al.capacity() as u64;
        let newest = branch_seq;
        let oldest = newest.saturating_sub(cap - 1);
        let mut found = None;
        let mut seq = newest;
        loop {
            if let Some(e) = al.at_seq(seq) {
                if e.pc == target {
                    found = Some(seq);
                    break;
                }
            }
            if seq == oldest {
                break;
            }
            seq -= 1;
        }
        if let Some(seq) = found {
            self.contexts[ctx.index()].back_merge =
                Some(crate::context::MergePoint { seq, pc: target });
        }
    }

    /// Decides whether to fork an alternate path off a just-renamed
    /// conditional branch (Section 2's confidence-gated spawning, plus the
    /// recycle architecture's duplicate suppression and re-spawning).
    fn maybe_fork(
        &mut self,
        ctx: CtxId,
        branch_seq: u64,
        pc: u64,
        inst: &Inst,
        pred: FetchPrediction,
    ) {
        let f = self.config.features;
        if !f.tme || pred.confident || !self.is_primary(ctx) {
            return;
        }
        self.stats.fork_candidates += 1;
        if self.forks_this_cycle >= self.config.forks_per_cycle {
            self.stats.fork_refused_cap += 1;
            self.probe(
                ctx,
                pc,
                crate::probe::EventKind::ForkRefused {
                    reason: crate::probe::RefuseReason::CycleCap,
                },
            );
            return;
        }
        let alt_pc = if pred.taken {
            pc + INST_BYTES
        } else {
            inst.direct_target(pc)
        };
        let tag = self.contexts[ctx.index()]
            .al
            .at_seq(branch_seq)
            .expect("just inserted")
            .tag;
        let mut history = GlobalHistory::new(self.predictor.history_bits());
        history.set(pred.history);
        history.push(!pred.taken);

        // Duplicate handling: if a *stopped* path (inactive, or a resolved
        // alternate finishing its tail) already starts at the fork target,
        // re-spawn it through the recycle datapath (RS) or — without RS —
        // suppress the fork to preserve the unique merge point (the REC
        // design decision of Section 5.1). A still-running alternate with
        // the same start does not block a new fork: the new branch instance
        // needs cover from *its own* register snapshot (see DESIGN.md).
        if f.recycle {
            let span = self.group_span(ctx);
            let stopped_same_start = span.iter().find(|&c| {
                c != ctx
                    && self.contexts[c.index()].in_flight == 0
                    && matches!(
                        self.contexts[c.index()].state,
                        CtxState::Inactive | CtxState::Alternate { resolved: true, .. }
                    )
                    && self.contexts[c.index()]
                        .al
                        .at_seq(0)
                        .is_some_and(|e| e.pc == alt_pc)
            });
            if let Some(c) = stopped_same_start {
                if f.respawn {
                    if matches!(self.contexts[c.index()].state, CtxState::Alternate { .. }) {
                        self.drop_stream(c);
                        let cc = &mut self.contexts[c.index()];
                        cc.decode_pipe.clear();
                        cc.fetch_stopped = true;
                        cc.state = CtxState::Inactive;
                    }
                    self.undispatch(c);
                    self.respawn(c, ctx, tag, history);
                    if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(branch_seq) {
                        if let Some(b) = &mut e.branch {
                            b.fork = Some(c);
                        }
                    }
                    self.forks_this_cycle += 1;
                    self.probe(ctx, pc, crate::probe::EventKind::Respawn { alt: c.0 });
                } else {
                    self.stats.forks_suppressed += 1;
                    self.probe(
                        ctx,
                        pc,
                        crate::probe::EventKind::ForkRefused {
                            reason: crate::probe::RefuseReason::DuplicatePath,
                        },
                    );
                }
                return;
            }
        }
        let Some(spare) = self.pick_spare(ctx) else {
            self.stats.fork_refused_nospare += 1;
            self.probe(
                ctx,
                pc,
                crate::probe::EventKind::ForkRefused {
                    reason: crate::probe::RefuseReason::NoSpare,
                },
            );
            return;
        };
        self.fork_into(spare, ctx, tag, alt_pc, history);
        if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(branch_seq) {
            if let Some(b) = &mut e.branch {
                b.fork = Some(spare);
            }
        }
        self.forks_this_cycle += 1;
        self.probe(ctx, pc, crate::probe::EventKind::Fork { alt: spare.0 });
    }
}
