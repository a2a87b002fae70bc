//! Threaded multipath execution mechanics: forking, swapping on covered
//! mispredictions, re-spawning, context reclaim, and squash/recovery.

use crate::active_list::EntryState;
use crate::context::{CtxState, RecycleStream, StreamSource};
use crate::ids::{CtxId, InstTag};
use crate::sim::Simulator;
use multipath_branch::GlobalHistory;
use std::collections::VecDeque;

impl Simulator {
    /// Squashes all live entries of `ctx` with `seq >= from_seq`: releases
    /// their registers and reader references, restores the map region, and
    /// drops their speculative stores. Entries remain retained in their
    /// slots for possible primary-path recycling.
    ///
    /// Returns the number of entries squashed.
    pub(crate) fn squash_ctx_from(&mut self, ctx: CtxId, from_seq: u64) -> usize {
        let seqs = self.contexts[ctx.index()].al.squash_from(from_seq);
        let count = seqs.end.saturating_sub(seqs.start) as usize;
        if count > 0 && self.iq.held_by(ctx) > 0 {
            // Squashed entries keep their queue slots until the next
            // issue stage purges them.
            self.iq.mark_stale(ctx);
        }
        if count > 0 && self.probing() {
            let pc = self.contexts[ctx.index()]
                .al
                .at_seq(seqs.start)
                .map(|e| e.pc)
                .unwrap_or(0);
            self.probe(
                ctx,
                pc,
                crate::probe::EventKind::Squash {
                    count: count as u64,
                },
            );
        }
        // Youngest first: recovery must unwind the map in reverse rename
        // order so each restored `old_preg` lands before it is re-displaced.
        for seq in seqs.rev() {
            // Clone the small bits we need, then mutate freely.
            let (dest, new_preg, old_preg, state, srcs, tag, is_store, fork) = {
                let e = self.contexts[ctx.index()]
                    .al
                    .at_seq(seq)
                    .expect("squashed entry must be retained");
                let srcs = e.srcs;
                (
                    e.dest,
                    e.new_preg,
                    e.old_preg,
                    e.state,
                    srcs,
                    e.tag,
                    e.inst.op.is_store(),
                    e.branch.as_ref().and_then(|b| b.fork),
                )
            };
            if state == EntryState::Pending {
                // Reader references held since rename are still out.
                for src in srcs.into_iter().flatten() {
                    self.regs.release(src);
                }
                if is_store {
                    self.contexts[ctx.index()].clear_pending_store(tag);
                }
            }
            if let (Some(d), Some(np)) = (dest, new_preg) {
                // Restore the previous mapping, then drop the allocation.
                self.map.set(
                    ctx,
                    d,
                    old_preg.expect("seeded registers always have a prior mapping"),
                );
                self.regs.release(np);
            }
            if is_store {
                self.contexts[ctx.index()].sq.remove(tag);
            }
            if let Some(alt) = fork {
                // A squashed forked branch invalidates its alternate path:
                // the path's register snapshot came from a region that is
                // now wrong-path.
                let attached = matches!(
                    self.contexts[alt.index()].state,
                    CtxState::Alternate { parent, fork_tag, .. }
                        if parent == ctx && fork_tag == tag
                );
                let linked_inactive = self.contexts[alt.index()].state == CtxState::Inactive
                    && self.contexts[alt.index()].fork_link
                        == Some(crate::lsq::ForkLink {
                            parent: ctx,
                            fork_tag: tag,
                        });
                if attached {
                    self.release_alternate(alt);
                } else if linked_inactive {
                    // The path already finished and went inactive. Its trace
                    // is still fine to *recycle* (re-rename + re-execute),
                    // but its values must never be reused: they were
                    // computed from a squashed snapshot.
                    self.poison_reuse(alt);
                }
            }
            if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(seq) {
                e.regs_held = false;
            }
            self.stats.squashed += 1;
        }
        count
    }

    /// Marks every retained entry of `ctx` as non-reusable (its register
    /// snapshot has been invalidated by a squash in the parent).
    pub(crate) fn poison_reuse(&mut self, ctx: CtxId) {
        let al = &mut self.contexts[ctx.index()].al;
        for seq in 0..al.next_seq() {
            if let Some(e) = al.at_seq_mut(seq) {
                e.executed = false;
            }
        }
    }

    /// Flushes the per-path statistics of `ctx` into the aggregate
    /// counters and marks the record dead.
    pub(crate) fn flush_path_record(&mut self, ctx: CtxId) {
        let path = &mut self.contexts[ctx.index()].path;
        if !path.live {
            return;
        }
        let (merges, respawned, used) = (path.merges, path.respawned, path.used_tme);
        path.live = false;
        if merges > 0 {
            self.stats.forks_recycled += 1;
            self.stats.alt_path_merge_sum += merges;
        }
        if respawned {
            self.stats.forks_respawned += 1;
        }
        if used {
            self.stats.forks_used_tme += 1;
        }
    }

    /// Fully releases an alternate (or inactive) context: squashes its
    /// trace, frees its registers, drops front-end state, and returns it
    /// to the idle pool.
    /// Clears any commit gates waiting on `ctx` — its older program-order
    /// work is finished (or discarded), so waiters may proceed. Without
    /// this, a stale gate could chain onto a *new* path that later
    /// occupies the same context, forming a deadlock cycle.
    pub(crate) fn clear_gates_to(&mut self, ctx: CtxId) {
        for c in &mut self.contexts {
            if c.commit_gate == Some(ctx) {
                c.commit_gate = None;
            }
        }
    }

    pub(crate) fn release_alternate(&mut self, ctx: CtxId) {
        self.flush_path_record(ctx);
        self.clear_gates_to(ctx);
        // Pull any still-queued instructions out first (they hold reader
        // references and must never issue against freed registers).
        self.undispatch(ctx);
        self.squash_ctx_from(ctx, 0);
        self.drop_stream(ctx);
        let c = &mut self.contexts[ctx.index()];
        c.sq.clear();
        c.pending_stores.clear();
        c.decode_pipe.clear();
        c.state = CtxState::Idle;
        c.fork_link = None;
        c.commit_gate = None;
        c.fetch_stopped = false;
        c.back_merge = None;
        c.squash_merge = None;
        c.fetched_total = 0;
        c.al.clear();
    }

    /// Picks a context for a new fork in `ctx`'s group: an idle context if
    /// one exists, otherwise (recycle mode) the least-recently-used
    /// reclaimable inactive context.
    pub(crate) fn pick_spare(&mut self, parent: CtxId) -> Option<CtxId> {
        let span = self.group_span(parent);
        if let Some(idle) = span
            .iter()
            .find(|&c| self.contexts[c.index()].state == CtxState::Idle && c != parent)
        {
            return Some(idle);
        }
        if !self.config.features.recycle {
            return None;
        }
        let lru = span
            .iter()
            .filter(|&c| c != parent && self.contexts[c.index()].reclaimable())
            .min_by_key(|&c| self.contexts[c.index()].last_used)?;
        self.release_alternate(lru);
        Some(lru)
    }

    /// Frees registers for a starving primary: releases the least recently
    /// used spare context — preferring inactive traces, then resolved
    /// alternates, then (in extremis) unresolved alternates, which plain
    /// TME would have been allowed to squash anyway.
    pub(crate) fn relieve_register_pressure(&mut self, primary: CtxId) {
        let span = self.group_span(primary);
        let pick = |sim: &Simulator, pred: &dyn Fn(&crate::context::Context) -> bool| {
            span.iter()
                .filter(|&c| c != primary && pred(&sim.contexts[c.index()]))
                .min_by_key(|&c| sim.contexts[c.index()].last_used)
        };
        let victim = pick(self, &|c| c.reclaimable()).or_else(|| {
            pick(self, &|c| {
                matches!(c.state, CtxState::Alternate { resolved: true, .. }) && c.in_flight == 0
            })
        });
        if let Some(v) = victim {
            if matches!(self.contexts[v.index()].state, CtxState::Alternate { .. }) {
                self.stats.forks_stolen += 1;
            }
            self.release_alternate(v);
        }
    }

    /// Spawns `alt` as an alternate path of `parent` starting at `alt_pc`.
    ///
    /// `fork_tag` is the forking branch's tag; `history` is the global
    /// history at the branch with the alternate direction pushed.
    pub(crate) fn fork_into(
        &mut self,
        alt: CtxId,
        parent: CtxId,
        fork_tag: InstTag,
        alt_pc: u64,
        history: GlobalHistory,
    ) {
        debug_assert_eq!(self.contexts[alt.index()].state, CtxState::Idle);
        self.drop_stream(alt);
        self.copy_region_with_refs(parent, alt);
        self.written.reset_column(alt);
        let ras = self.contexts[parent.index()].ras.clone();
        let prog = self.contexts[parent.index()].prog;
        let group = self.contexts[parent.index()].group;
        let cycle = self.cycle;
        let c = &mut self.contexts[alt.index()];
        c.state = CtxState::Alternate {
            parent,
            fork_tag,
            resolved: false,
        };
        c.prog = prog;
        c.group = group;
        c.fetch_pc = alt_pc;
        c.fetch_stall_until = cycle + self.config.spawn_latency as u64; // MSB copy
        c.fetch_stopped = false;
        c.ghr = history;
        c.ras = ras;
        c.al.clear();
        c.al_next_pc = alt_pc;
        c.sq.clear();
        c.pending_stores.clear();
        c.fork_link = Some(crate::lsq::ForkLink { parent, fork_tag });
        c.commit_gate = None;
        c.decode_pipe.clear();
        c.back_merge = None;
        c.squash_merge = None;
        c.fetched_total = 0;
        c.path = crate::context::PathRecord {
            live: true,
            ..Default::default()
        };
        c.last_used = cycle;
        c.log_fe(cycle, || format!("fork-into start {alt_pc:#x}"));
        self.stats.forks += 1;
    }

    /// Re-spawns the inactive context `alt` (whose trace starts at the
    /// fork target): its retained instructions are replayed through the
    /// recycle datapath instead of being fetched (Section 3.1).
    pub(crate) fn respawn(
        &mut self,
        alt: CtxId,
        parent: CtxId,
        fork_tag: InstTag,
        history: GlobalHistory,
    ) {
        debug_assert!(self.contexts[alt.index()].reclaimable());
        self.undispatch(alt);
        // Drain the retained trace into a replay buffer, releasing held
        // registers (the replay allocates fresh ones).
        // Collect the replay trace. It must be *contiguous*: stop at the
        // first missing slot or control-flow discontinuity — replaying
        // across a hole would skip architectural instructions if this path
        // is later promoted.
        let next = self.contexts[alt.index()].al.next_seq();
        // Entries are parked in the replay pool (slab handles, not clones);
        // the deque itself is recycled through the scratch spares.
        let mut buffer: VecDeque<crate::arena::Handle> =
            self.scratch.spare_replay_queues.pop().unwrap_or_default();
        debug_assert!(buffer.is_empty());
        let mut expected: Option<u64> = None;
        for seq in 0..next {
            let Some(&e) = self.contexts[alt.index()].al.at_seq(seq) else {
                break;
            };
            if expected.is_some_and(|pc| pc != e.pc) {
                break;
            }
            expected = Some(crate::frontend::entry_next_pc(&e));
            buffer.push_back(self.replay_pool.insert(e));
        }
        // Token accounting: each entry's displaced mapping is owned by the
        // entry (released here, since these entries will never commit or be
        // squash-restored); entries' own allocations are owned by the map
        // region, which the fork-copy below releases. Walk the *whole*
        // retained trace, not just the replayed prefix.
        for seq in 0..next {
            let Some(e) = self.contexts[alt.index()].al.at_seq(seq) else {
                continue;
            };
            if e.regs_held {
                if let Some(old) = e.old_preg {
                    self.regs.release(old);
                }
            }
        }
        let keep_path = self.contexts[alt.index()].path;
        let start_pc = buffer
            .front()
            .and_then(|&h| self.replay_pool.get(h))
            .map(|e| e.pc)
            .unwrap_or(0);
        // Fetch resumes exactly after the replayed (possibly truncated)
        // trace.
        let resume_pc = buffer
            .back()
            .and_then(|&h| self.replay_pool.get(h))
            .map(crate::frontend::entry_next_pc)
            .unwrap_or(self.contexts[alt.index()].al_next_pc);
        // Reset as a fresh fork, then restore the path record and attach
        // the replay stream.
        self.contexts[alt.index()].state = CtxState::Idle;
        self.fork_into(alt, parent, fork_tag, start_pc, history);
        self.stats.forks -= 1; // fork_into counted; a respawn is recounted below
        let c = &mut self.contexts[alt.index()];
        c.path = keep_path;
        c.path.live = true;
        c.path.respawned = true;
        let stream_ghr = c.ghr;
        // Prime the GHR/RAS with the replayed trace (as stream creation
        // does) so fetch past the trace predicts with consistent state.
        for &h in &buffer {
            let e = *self.replay_pool.get(h).expect("replay handle is live");
            let c = &mut self.contexts[alt.index()];
            match e.inst.op {
                multipath_isa::Opcode::Jsr => c.ras.push(e.pc + multipath_isa::INST_BYTES),
                multipath_isa::Opcode::Ret => {
                    c.ras.pop();
                }
                op if op.is_cond_branch() => {
                    let taken = e
                        .taken_path
                        .or(e.branch.as_ref().map(|b| b.predicted_taken))
                        .unwrap_or(false);
                    c.ghr.push(taken);
                }
                _ => {}
            }
        }
        let c = &mut self.contexts[alt.index()];
        c.recycle_stream = Some(RecycleStream {
            source: StreamSource::Buffer(buffer),
            next_seq: 0,
            end_seq: 0,
            reuse_allowed: false,
            back_merge: false,
            expected_pc: start_pc,
            ghr: stream_ghr,
            pre_items: 0,
            resume_pc,
            fresh: [false; multipath_isa::NUM_LOGICAL_REGS],
        });
        // Fetch resumes after the replayed trace, consuming no bandwidth
        // for the trace itself.
        c.fetch_pc = resume_pc;
        c.al_next_pc = start_pc;
        let cyc = self.cycle;
        self.contexts[alt.index()].log_fe(cyc, || {
            format!("respawn start {start_pc:#x} resume {resume_pc:#x}")
        });
        self.stats.forks += 1;
        self.stats.respawns += 1;
    }

    /// A covered misprediction: the alternate `alt` (forked at
    /// `branch_seq` in `old_primary`) becomes the primary thread.
    pub(crate) fn swap_primary(&mut self, old_primary: CtxId, branch_seq: u64, alt: CtxId) {
        // The winning path's record is consumed now.
        self.contexts[alt.index()].path.used_tme = true;
        self.flush_path_record(alt);

        // Squash the old primary's wrong path (everything younger than the
        // branch); its retained tail becomes a primary-path merge source.
        self.squash_ctx_from(old_primary, branch_seq + 1);
        self.drop_stream(old_primary);
        let cycle = self.cycle;
        {
            let c = &mut self.contexts[old_primary.index()];
            c.decode_pipe.clear();
            c.fetch_stopped = true;
            c.state = CtxState::Draining;
            c.last_used = cycle;
            if let Some(e) = c.al.at_seq(branch_seq + 1) {
                let pc = e.pc;
                c.squash_merge = Some(crate::context::MergePoint {
                    seq: branch_seq + 1,
                    pc,
                });
            } else {
                c.squash_merge = None;
            }
        }

        // Promote the alternate.
        let group_idx = self.contexts[alt.index()].group as usize;
        self.groups[group_idx].primary = alt;
        // The promoted path's writes are now architectural, but they were
        // made while it was an alternate and never marked in the
        // written-bit array. Mark them now, or other traces' entries that
        // read these registers would appear reusable with stale values.
        {
            let span = self.group_span(alt);
            let al = &self.contexts[alt.index()].al;
            for s in al.head_seq()..al.next_seq() {
                if let Some(d) = al.at_seq(s).and_then(|e| e.dest) {
                    self.written.set_row(d, span.iter().filter(|&c| c != alt));
                }
            }
        }
        let cyc = self.cycle;
        self.contexts[alt.index()].log_fe(cyc, || "promoted".to_owned());
        let a = &mut self.contexts[alt.index()];
        a.state = CtxState::Primary;
        a.commit_gate = Some(old_primary);
        a.fetched_total = 0; // no longer subject to alternate caps
        a.fetch_stopped = false; // the cap may have muted it as an alternate
        a.last_used = cycle;

        self.stats.mispredicts_covered += 1;
        if self.probing() {
            let pc = self.contexts[old_primary.index()]
                .al
                .at_seq(branch_seq)
                .map(|e| e.pc)
                .unwrap_or(0);
            self.probe(
                old_primary,
                pc,
                crate::probe::EventKind::Promote { alt: alt.0 },
            );
        }
    }
}
