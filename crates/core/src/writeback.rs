//! The writeback stage: completion events, branch resolution, recovery,
//! and the alternate-path consequences of resolution (stop / swap).

use crate::active_list::EntryState;
use crate::config::AltPolicy;
use crate::context::CtxState;
use crate::ids::CtxId;
use crate::issue_stage::queued_valid;
use crate::sim::Simulator;
use multipath_isa::OperandClass;

impl Simulator {
    /// Processes all completions due this cycle.
    pub(crate) fn writeback_stage(&mut self) {
        loop {
            let due = matches!(self.events.peek(), Some(ev) if ev.0.at <= self.cycle);
            if !due {
                break;
            }
            let ev = self.events.pop().expect("peeked").0;
            self.contexts[ev.ctx.index()].in_flight =
                self.contexts[ev.ctx.index()].in_flight.saturating_sub(1);
            let al = &self.contexts[ev.ctx.index()].al;
            let valid = al.is_live(ev.seq) && al.at_seq(ev.seq).is_some_and(|e| e.tag == ev.tag);
            if !valid {
                // The instruction was squashed in flight; its registers
                // were already reclaimed.
                continue;
            }
            let new_preg = {
                let e = self.contexts[ev.ctx.index()]
                    .al
                    .at_seq_mut(ev.seq)
                    .expect("validated");
                e.state = EntryState::Done;
                e.executed = true;
                e.new_preg
            };
            if let (Some(result), Some(p)) = (ev.result, new_preg) {
                self.write_reg(p, result);
            }
            // Correctly predicted branches resolve immediately (their
            // effects are side-effect-free for older instructions);
            // mispredictions are applied in program order below.
            let correct = self.contexts[ev.ctx.index()]
                .al
                .at_seq(ev.seq)
                .and_then(|e| e.branch.as_ref())
                .is_some_and(|b| {
                    !b.resolved
                        && b.actual_taken == Some(b.predicted_taken)
                        && b.actual_target
                            .is_none_or(|t| !b.predicted_taken || t == b.predicted_target)
                });
            if correct {
                self.resolve_branch(ev.ctx, ev.seq);
            }
        }
        self.resolve_branches_in_order();
    }

    /// Applies branch-resolution side effects in program order per context.
    ///
    /// Branches *execute* out of order (their outcome is computed at issue),
    /// but squash/swap effects are applied only when a branch is the oldest
    /// unresolved control instruction in its context. This keeps nested
    /// speculation sound: a younger forked branch can never promote its
    /// alternate while an older branch on its own path might still turn the
    /// whole region into a wrong path.
    fn resolve_branches_in_order(&mut self) {
        for i in 0..self.contexts.len() {
            let ctx = CtxId(i as u8);
            loop {
                // Find the oldest unresolved control entry. Entries below
                // the active list's resolve hint were already scanned past
                // (resolved or branchless), so each cycle picks up where
                // the previous scan stopped instead of rescanning the
                // whole live window.
                let mut found = None;
                let mut scanned_to;
                {
                    let al = &self.contexts[i].al;
                    let start = al.resolve_scan_start();
                    scanned_to = start;
                    for seq in start..al.next_seq() {
                        let Some(e) = al.at_seq(seq) else { break };
                        if let Some(b) = &e.branch {
                            if !b.resolved {
                                found = Some((seq, b.actual_taken.is_some()));
                                break;
                            }
                        }
                        scanned_to = seq + 1;
                    }
                }
                self.contexts[i].al.set_resolve_hint(scanned_to);
                match found {
                    Some((seq, true)) => {
                        self.resolve_branch(ctx, seq);
                        // Resolution may have squashed or swapped; rescan.
                    }
                    _ => break,
                }
            }
        }
    }

    /// Resolves a control instruction: trains the predictor, and on a
    /// misprediction either swaps in the covering alternate path or
    /// squashes and redirects this context.
    fn resolve_branch(&mut self, ctx: CtxId, seq: u64) {
        let (
            pc,
            class,
            predicted_taken,
            predicted_target,
            history,
            fork,
            actual_taken,
            actual_target,
            tag,
        ) = {
            let e = self.contexts[ctx.index()]
                .al
                .at_seq_mut(seq)
                .expect("resolving live entry");
            let b = e.branch.as_mut().expect("control entry");
            b.resolved = true;
            let actual_taken = b.actual_taken.expect("set at execute");
            e.taken_path = Some(actual_taken);
            (
                e.pc,
                e.inst.op.operand_class(),
                b.predicted_taken,
                b.predicted_target,
                b.history,
                b.fork,
                actual_taken,
                b.actual_target.expect("set at execute"),
                e.tag,
            )
        };

        // Train at resolve time from every resolved branch. Alternate
        // paths re-execute instructions the program genuinely runs when
        // paths merge, so their outcomes are valid training samples; the
        // timeliness of resolve-time training matters more than the small
        // wrong-path pollution (measured).
        let was_recycled = self.contexts[ctx.index()]
            .al
            .at_seq(seq)
            .is_some_and(|e| e.recycled);
        // The JRS confidence counter as the fork decision saw it — read
        // before the update below trains it (observation only).
        let conf = if self.probing() {
            self.predictor.confidence_level(pc, history)
        } else {
            0
        };
        let mispredicted = match class {
            OperandClass::CondBr => {
                self.stats.branches += 1;
                if was_recycled {
                    self.stats.branches_recycled += 1;
                }
                self.predictor
                    .update(pc, history, actual_taken, predicted_taken);
                if actual_taken {
                    self.predictor.update_target(pc, actual_target);
                }
                actual_taken != predicted_taken
                    || (actual_taken && actual_target != predicted_target)
            }
            OperandClass::Jump => {
                self.predictor.update_target(pc, actual_target);
                actual_target != predicted_target
            }
            _ => false,
        };

        // Locate a still-attached alternate for this branch.
        let alt = fork.filter(|&a| {
            matches!(
                self.contexts[a.index()].state,
                CtxState::Alternate { parent, fork_tag, .. }
                    if parent == ctx && fork_tag == tag
            )
        });

        if self.probing() && matches!(class, OperandClass::CondBr | OperandClass::Jump) {
            self.probe(
                ctx,
                pc,
                crate::probe::EventKind::Resolve {
                    mispredicted,
                    covered: mispredicted && alt.is_some(),
                    cond: class == OperandClass::CondBr,
                    conf,
                },
            );
        }

        if !mispredicted {
            if let Some(a) = alt {
                self.alternate_resolved_correct(a);
            }
            return;
        }

        self.stats.mispredicts += 1;
        if was_recycled && class == OperandClass::CondBr {
            self.stats.mispredicts_recycled += 1;
        }
        if class == OperandClass::CondBr {
            self.contexts[ctx.index()].ghr.repair(history, actual_taken);
        } else {
            self.contexts[ctx.index()].ghr.set(history);
        }

        if let Some(a) = alt {
            // Covered: the alternate already runs the correct path.
            self.swap_primary(ctx, seq, a);
        } else {
            self.stats.recoveries += 1;
            self.recover_same_context(ctx, seq, actual_target);
        }
    }

    /// Same-context misprediction recovery: squash younger instructions,
    /// remember the retained wrong path as a merge source, and refetch.
    pub(crate) fn recover_same_context(&mut self, ctx: CtxId, branch_seq: u64, redirect: u64) {
        self.squash_ctx_from(ctx, branch_seq + 1);
        self.drop_stream(ctx);
        let recycle = self.config.features.recycle;
        let cycle = self.cycle;
        let c = &mut self.contexts[ctx.index()];
        c.decode_pipe.clear();
        c.log_fe(cycle, || format!("recover -> {redirect:#x}"));
        c.fetch_pc = redirect;
        c.al_next_pc = redirect;
        c.fetch_stall_until = cycle + 1;
        c.fetch_stopped = false;
        c.squash_merge = if recycle {
            c.al.at_seq(branch_seq + 1)
                .map(|e| crate::context::MergePoint {
                    seq: branch_seq + 1,
                    pc: e.pc,
                })
        } else {
            None
        };
    }

    /// The forking branch resolved correctly: apply the alternate-path
    /// policy (Section 5.2) to the alternate.
    fn alternate_resolved_correct(&mut self, alt: CtxId) {
        if !self.config.features.recycle {
            // Plain TME discards the alternate immediately.
            self.release_alternate(alt);
            return;
        }
        if let CtxState::Alternate {
            parent, fork_tag, ..
        } = self.contexts[alt.index()].state
        {
            self.contexts[alt.index()].state = CtxState::Alternate {
                parent,
                fork_tag,
                resolved: true,
            };
        }
        match self.config.alt_policy {
            AltPolicy::Stop(_) => {
                self.undispatch(alt);
                self.drop_stream(alt);
                let cycle = self.cycle;
                let c = &mut self.contexts[alt.index()];
                c.decode_pipe.clear();
                c.fetch_stopped = true;
                c.state = CtxState::Inactive;
                c.last_used = cycle;
            }
            AltPolicy::FetchOnly(_) => {
                // Keep fetching (building the trace) but execute no more.
                self.undispatch(alt);
            }
            AltPolicy::NoStop(_) => {}
        }
    }

    /// Removes `ctx`'s pending instructions from the queues without
    /// squashing them: they stay in the trace as fetched-only entries.
    pub(crate) fn undispatch(&mut self, ctx: CtxId) {
        if self.iq.held_by(ctx) == 0 {
            return;
        }
        // Oldest first per queue: the order registers reach the free list
        // decides which ones later allocations get.
        let mut taken = std::mem::take(&mut self.scratch.undispatched);
        self.iq.take_ctx(ctx, &mut taken);
        for e in taken.drain(..) {
            // Only valid entries hold reader references; squashed ones
            // awaiting the purge must not release them a second time.
            if !queued_valid(&self.contexts, &e) {
                continue;
            }
            for src in e.srcs.into_iter().flatten() {
                self.regs.release(src);
            }
            let is_store = {
                let a = self.contexts[ctx.index()]
                    .al
                    .at_seq_mut(e.seq)
                    .expect("validated");
                a.fetched_only = true;
                a.srcs = [None; 2];
                a.inst.op.is_store()
            };
            if is_store {
                self.contexts[ctx.index()].clear_pending_store(e.tag);
            }
        }
        self.scratch.undispatched = taken;
    }
}
