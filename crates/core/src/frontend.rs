//! The fetch stage: ICOUNT thread selection, instruction-cache access,
//! branch prediction, merge-point detection, and recycle-stream creation.

use crate::context::{CtxState, FetchPrediction, FetchedInst, RecycleStream, StreamSource};
use crate::ids::CtxId;
use crate::sim::Simulator;
use multipath_isa::{Inst, Opcode, OperandClass, INST_BYTES};

/// Cache-line size assumed by the fetch unit (matches the hierarchy).
const LINE_BYTES: u64 = 64;

impl Simulator {
    /// Runs one fetch cycle.
    pub(crate) fn fetch_stage(&mut self) {
        self.finalize_alternates();
        // Selection runs on reusable scratch buffers: no per-cycle Vecs.
        let mut icounts = std::mem::take(&mut self.scratch.icounts);
        self.fill_icounts(&mut icounts);
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        candidates.clear();
        candidates.extend(
            (0..self.contexts.len())
                .map(|i| CtxId(i as u8))
                .filter(|&c| self.can_fetch(c)),
        );
        candidates.sort_by_key(|c| icounts[c.index()]);

        let mut budget = self.config.fetch_total;
        for &ctx in candidates.iter().take(self.config.fetch_threads) {
            if budget == 0 {
                break;
            }
            let max = budget.min(self.config.fetch_per_thread);
            budget -= self.fetch_block(ctx, max);
        }
        self.scratch.icounts = icounts;
        self.scratch.candidates = candidates;
    }

    /// Whether a context may fetch this cycle.
    fn can_fetch(&self, ctx: CtxId) -> bool {
        let c = &self.contexts[ctx.index()];
        if c.fetch_stopped || c.fetch_stall_until > self.cycle {
            return false;
        }
        if c.decode_pipe.len() >= 2 * self.config.fetch_per_thread {
            return false;
        }
        match c.state {
            CtxState::Primary => {
                let prog = c.prog.expect("primary context bound to program");
                !self.programs[prog.index()].finished
            }
            CtxState::Alternate { resolved, .. } => {
                let policy = self.config.alt_policy;
                if resolved && !policy.fetch_after_resolve() {
                    return false;
                }
                c.fetched_total < policy.limit() as u64
            }
            _ => false,
        }
    }

    /// Fetches up to `max` sequential instructions for `ctx`. Returns the
    /// number fetched (bandwidth consumed).
    fn fetch_block(&mut self, ctx: CtxId, max: usize) -> usize {
        let asid = self.asid_of(ctx);
        let pc0 = self.contexts[ctx.index()].fetch_pc;
        let access = self.hierarchy.inst_access(asid, pc0, self.cycle);
        if access.bounced {
            // Bank conflict: retry when the bank frees.
            self.contexts[ctx.index()].fetch_stall_until = access.ready_at;
            return 0;
        }
        if access.latency() > 0 {
            // I-cache miss: the fill is in flight. The block is captured
            // now (fill-and-forward) but its instructions only become
            // decodable once the line arrives, and the thread fetches
            // nothing else until then. Delivering at fill time (instead of
            // re-probing) is essential: with a direct-mapped L1I, two
            // threads aliasing one set could otherwise evict each other's
            // lines forever without either making progress.
            self.contexts[ctx.index()].fetch_stall_until = access.ready_at;
        }

        let prog = self.contexts[ctx.index()]
            .prog
            .expect("fetching context bound");
        let line_end = (pc0 | (LINE_BYTES - 1)) + 1;
        let ready_cycle = self.cycle.max(access.ready_at) + 1 + self.config.decode_latency as u64;
        let is_alt = matches!(self.contexts[ctx.index()].state, CtxState::Alternate { .. });
        let alt_limit = self.config.alt_policy.limit() as u64;

        let mut pc = pc0;
        let mut fetched = 0;
        while fetched < max && pc < line_end {
            if is_alt && self.contexts[ctx.index()].fetched_total >= alt_limit {
                break;
            }
            // Merge-point check: a hit redirects this thread into the
            // recycle datapath; fetch of this block stops at the match.
            if self.try_start_recycle(ctx, pc) {
                // `try_start_recycle` set the new fetch PC.
                return fetched;
            }
            let word = self.programs[prog.index()].memory.read_u32(pc);
            let inst = Inst::decode(word).unwrap_or_else(Inst::halt);
            let (pred, next_pc, ends_block) = self.predict_next(ctx, &inst, pc);
            self.contexts[ctx.index()]
                .decode_pipe
                .push_back(FetchedInst {
                    ready_cycle,
                    pc,
                    inst,
                    pred,
                });
            self.contexts[ctx.index()].fetched_total += 1;
            self.stats.fetched += 1;
            fetched += 1;
            pc = next_pc;
            if inst.op == Opcode::Halt {
                self.contexts[ctx.index()].fetch_stopped = true;
                break;
            }
            if ends_block {
                break;
            }
        }
        #[cfg(debug_assertions)]
        if fetched > 0 {
            let cyc = self.cycle;
            self.contexts[ctx.index()]
                .log_fe(cyc, || format!("fetch {fetched} [{pc0:#x}..) next {pc:#x}"));
        }
        if fetched > 0 {
            self.probe(
                ctx,
                pc0,
                crate::probe::EventKind::Fetch {
                    count: fetched as u32,
                },
            );
        }
        self.contexts[ctx.index()].fetch_pc = pc;
        fetched
    }

    /// Predicts the next PC for a fetched instruction, updating the
    /// context's speculative history and return stack.
    pub(crate) fn predict_next(
        &mut self,
        ctx: CtxId,
        inst: &Inst,
        pc: u64,
    ) -> (Option<FetchPrediction>, u64, bool) {
        let fallthrough = pc + INST_BYTES;
        match inst.op.operand_class() {
            OperandClass::CondBr => {
                let c = &self.contexts[ctx.index()];
                let p = self.predictor.predict(pc, &c.ghr);
                let history = c.ghr.bits();
                let target = inst.direct_target(pc);
                self.contexts[ctx.index()].ghr.push(p.taken);
                let next = if p.taken { target } else { fallthrough };
                let pred = FetchPrediction {
                    taken: p.taken,
                    target,
                    history,
                    confident: p.confident,
                };
                (Some(pred), next, p.taken)
            }
            OperandClass::Br => {
                let target = inst.direct_target(pc);
                if inst.op == Opcode::Jsr {
                    self.contexts[ctx.index()].ras.push(fallthrough);
                }
                let history = self.contexts[ctx.index()].ghr.bits();
                let pred = FetchPrediction {
                    taken: true,
                    target,
                    history,
                    confident: true,
                };
                (Some(pred), target, true)
            }
            OperandClass::Jump => {
                let predicted = if inst.op == Opcode::Ret {
                    self.contexts[ctx.index()]
                        .ras
                        .pop()
                        .or_else(|| self.predictor.predict_target(pc))
                        .unwrap_or(fallthrough)
                } else {
                    self.predictor.predict_target(pc).unwrap_or(fallthrough)
                };
                let history = self.contexts[ctx.index()].ghr.bits();
                let pred = FetchPrediction {
                    taken: true,
                    target: predicted,
                    history,
                    confident: true,
                };
                (Some(pred), predicted, true)
            }
            _ => (None, fallthrough, false),
        }
    }

    /// Moves resolved alternates whose policy work is complete into the
    /// inactive (recyclable) state.
    fn finalize_alternates(&mut self) {
        let policy = self.config.alt_policy;
        for i in 0..self.contexts.len() {
            let c = &self.contexts[i];
            let CtxState::Alternate { resolved: true, .. } = c.state else {
                continue;
            };
            let fetch_done = c.fetch_stopped
                || !policy.fetch_after_resolve()
                || c.fetched_total >= policy.limit() as u64;
            if fetch_done && c.decode_pipe.is_empty() && c.recycle_stream.is_none() {
                let cycle = self.cycle;
                let c = &mut self.contexts[i];
                c.state = CtxState::Inactive;
                c.last_used = cycle;
            }
        }
    }

    /// Checks the merge points visible to `ctx` at `pc`; on a hit, creates
    /// a recycle stream and redirects fetch past the trace. Returns whether
    /// a stream was started.
    pub(crate) fn try_start_recycle(&mut self, ctx: CtxId, pc: u64) -> bool {
        if !self.config.features.recycle {
            return false;
        }
        if self.contexts[ctx.index()].recycle_stream.is_some() {
            return false;
        }
        let is_primary = self.is_primary(ctx);

        if is_primary {
            // 1. First-instruction merge with a spare context's trace
            //    (alternate, inactive, or draining) — the reuse-capable case.
            let span = self.group_span(ctx);
            for c in span.iter() {
                if c == ctx {
                    continue;
                }
                let source_ok = matches!(
                    self.contexts[c.index()].state,
                    CtxState::Alternate { .. } | CtxState::Inactive | CtxState::Draining
                );
                if !source_ok {
                    continue;
                }
                if let Some(e0) = self.contexts[c.index()].al.at_seq(0) {
                    if e0.pc == pc {
                        if self.start_context_stream(ctx, c, 0, pc, false) {
                            return true;
                        }
                        continue;
                    }
                }
                // A spare's retained squashed tail is also a valid trace.
                if let Some(mp) = self.contexts[c.index()].squash_merge {
                    if mp.pc == pc
                        && self.contexts[c.index()]
                            .al
                            .at_seq(mp.seq)
                            .is_some_and(|e| e.pc == pc)
                    {
                        if self.start_context_stream(ctx, c, mp.seq, pc, false) {
                            return true;
                        }
                        continue;
                    }
                }
            }
            // 2. The primary's own retained squashed path.
            if let Some(mp) = self.contexts[ctx.index()].squash_merge {
                if mp.pc == pc
                    && self.contexts[ctx.index()]
                        .al
                        .at_seq(mp.seq)
                        .is_some_and(|e| e.pc == pc)
                    && self.start_context_stream(ctx, ctx, mp.seq, pc, false)
                {
                    return true;
                }
            }
        }
        // 3. The thread's own backward-branch merge point (any thread).
        if let Some(mp) = self.contexts[ctx.index()].back_merge {
            if mp.pc == pc
                && self.contexts[ctx.index()]
                    .al
                    .at_seq(mp.seq)
                    .is_some_and(|e| e.pc == pc)
            {
                return self.start_context_stream(ctx, ctx, mp.seq, pc, true);
            }
        }
        false
    }

    /// Creates a recycle stream for `target` reading `source`'s trace from
    /// `start_seq`, and repoints `target`'s fetch past the trace.
    fn start_context_stream(
        &mut self,
        target: CtxId,
        source: CtxId,
        start_seq: u64,
        pc: u64,
        back_merge: bool,
    ) -> bool {
        // Scan the contiguous valid range.
        let src = &self.contexts[source.index()];
        let mut end = start_seq;
        let cap = src.al.capacity() as u64;
        while end - start_seq < cap && src.al.at_seq(end).is_some() {
            end += 1;
        }
        if source == target {
            // Self-streams write into the same circular buffer they read:
            // each recycled copy takes the *next* sequence number and so
            // replaces the retained entry with that number. Reads must
            // therefore stay strictly below the first write (`w0`), and the
            // stream must be short enough that writes never wrap onto
            // still-unread slots.
            let w0 = src.al.next_seq();
            if start_seq < w0 {
                // Reading live/retired entries: stop before the writer's
                // first sequence (those entries get replaced one by one),
                // and never let writes wrap onto unread slots.
                end = end
                    .min(w0)
                    .min(start_seq + cap.saturating_sub(w0 - start_seq));
            } else {
                // Reading the retained squashed region: the writer reuses
                // exactly these sequence numbers but each slot is read
                // before it is rewritten; only wrap-around can clobber.
                end = end.min(start_seq + cap.saturating_sub(start_seq - w0));
            }
            if end <= start_seq {
                return false;
            }
        }
        debug_assert!(end > start_seq, "merge point validated before call");
        let resume_pc = if end == src.al.next_seq() {
            src.al_next_pc
        } else {
            let last = src.al.at_seq(end - 1).expect("scanned valid");
            entry_next_pc(last)
        };
        let reuse_allowed = self.config.features.reuse && source != target;

        // Snapshot the history view for per-entry re-prediction, then prime
        // the context's own GHR/RAS with the whole trace so instructions
        // fetched *after* the trace are predicted with consistent state
        // (Section 3.4: "the global history register is then updated with
        // that prediction").
        let stream_ghr = self.contexts[target.index()].ghr;
        for seq in start_seq..end {
            let Some(e) = self.contexts[source.index()].al.at_seq(seq) else {
                break;
            };
            let (op, pc, taken) = (
                e.inst.op,
                e.pc,
                e.taken_path
                    .or(e.branch.as_ref().map(|b| b.predicted_taken)),
            );
            match op {
                Opcode::Jsr => self.contexts[target.index()].ras.push(pc + INST_BYTES),
                Opcode::Ret => {
                    self.contexts[target.index()].ras.pop();
                }
                _ if op.is_cond_branch() => {
                    self.contexts[target.index()]
                        .ghr
                        .push(taken.unwrap_or(false));
                }
                _ => {}
            }
        }

        let pre_items = self.contexts[target.index()].decode_pipe.len();
        self.contexts[target.index()].recycle_stream = Some(RecycleStream {
            source: StreamSource::Context(source),
            next_seq: start_seq,
            end_seq: end,
            reuse_allowed,
            back_merge,
            expected_pc: pc,
            ghr: stream_ghr,
            pre_items,
            resume_pc,
            fresh: [false; multipath_isa::NUM_LOGICAL_REGS],
        });
        {
            let cyc = self.cycle;
            let pre = self.contexts[target.index()].decode_pipe.len();
            self.contexts[target.index()].log_fe(cyc, || {
                format!(
                    "stream src ctx{} [{start_seq}..{end}) pc {pc:#x} resume {resume_pc:#x} pre {pre}",
                    source.0
                )
            });
        }
        self.contexts[target.index()].fetch_pc = resume_pc;

        self.stats.merges += 1;
        if back_merge {
            self.stats.back_merges += 1;
        } else if source != target && self.contexts[source.index()].path.live {
            self.contexts[source.index()].path.merges += 1;
        }
        if self.probing() {
            let len = end - start_seq;
            let kind = if back_merge {
                crate::probe::EventKind::BackMerge { len }
            } else {
                crate::probe::EventKind::Merge {
                    source: source.0,
                    len,
                    reuse: reuse_allowed,
                }
            };
            self.probe(target, pc, kind);
        }
        self.contexts[source.index()].last_used = self.cycle;
        true
    }
}

/// The PC that follows a trace entry (its fall-through, or the direction
/// the trace followed for control instructions).
pub(crate) fn entry_next_pc(e: &crate::active_list::AlEntry) -> u64 {
    let fallthrough = e.pc + INST_BYTES;
    let Some(b) = &e.branch else {
        return fallthrough;
    };
    let taken = e.taken_path.unwrap_or(b.predicted_taken);
    if taken {
        b.actual_target
            .filter(|_| b.resolved)
            .unwrap_or(b.predicted_target)
    } else {
        fallthrough
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active_list::{AlEntry, BranchState, EntryState};
    use crate::ids::InstTag;
    use multipath_isa::IntReg;

    fn entry_with_branch(pc: u64, taken: bool, target: u64) -> AlEntry {
        AlEntry {
            seq: 0,
            tag: InstTag(0),
            pc,
            inst: Inst::cond_branch(Opcode::Beq, IntReg::R1, 1),
            dest: None,
            new_preg: None,
            old_preg: None,
            srcs: [None; 2],
            state: EntryState::Done,
            executed: true,
            recycled: false,
            reused: false,
            fetched_only: false,
            branch: Some(BranchState {
                predicted_taken: taken,
                predicted_target: target,
                history: 0,
                fork: None,
                resolved: false,
                actual_taken: None,
                actual_target: None,
            }),
            mem: None,
            taken_path: Some(taken),
            regs_held: false,
        }
    }

    #[test]
    fn entry_next_pc_follows_trace_direction() {
        let taken = entry_with_branch(0x1000, true, 0x2000);
        assert_eq!(entry_next_pc(&taken), 0x2000);
        let not_taken = entry_with_branch(0x1000, false, 0x2000);
        assert_eq!(entry_next_pc(&not_taken), 0x1004);
        let mut resolved = entry_with_branch(0x1000, true, 0x2000);
        if let Some(b) = &mut resolved.branch {
            b.resolved = true;
            b.actual_target = Some(0x3000);
        }
        assert_eq!(entry_next_pc(&resolved), 0x3000, "resolved target wins");
    }

    #[test]
    fn entry_next_pc_plain_instruction() {
        let mut e = entry_with_branch(0x1000, true, 0x2000);
        e.branch = None;
        assert_eq!(entry_next_pc(&e), 0x1004);
    }
}
