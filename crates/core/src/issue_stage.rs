//! The issue stage: purge of squashed queue entries, select over the
//! ready lists, operand read, functional execution, and completion
//! scheduling. Wakeup happens where registers are written
//! (`Simulator::write_reg`); see [`crate::iq`].

use crate::active_list::{EntryState, MemState};
use crate::context::Context;
use crate::exec;
use crate::ids::CtxId;
use crate::iq::{IqEntry, FP, INT};
use crate::lsq::StoreEntry;
use crate::sim::{CompletionEvent, Simulator};
use multipath_isa::{FuClass, OperandClass};
use std::cmp::Reverse;

/// Whether a queue entry still stands for a live, unissued instruction.
/// Squashes, undispatch and active-list overwrites make it false for good.
pub(crate) fn queued_valid(contexts: &[Context], e: &IqEntry) -> bool {
    let al = &contexts[e.ctx.index()].al;
    al.is_live(e.seq)
        && al
            .at_seq(e.seq)
            .is_some_and(|a| a.tag == e.tag && !a.fetched_only && a.state == EntryState::Pending)
}

impl Simulator {
    /// Runs one issue cycle.
    pub(crate) fn issue_stage(&mut self) {
        let contexts = &self.contexts;
        self.iq.purge(|e| queued_valid(contexts, e));
        #[cfg(debug_assertions)]
        self.iq.check(
            |e| queued_valid(&self.contexts, e),
            |p| self.regs.is_ready(p),
        );
        self.probe_store_addresses();
        let mut int_budget = self.config.int_units;
        let mut ls_budget = self.config.ls_units;
        let mut fp_budget = self.config.fp_units;
        self.select(INT, &mut int_budget, &mut ls_budget);
        let mut unused = 0;
        self.select(FP, &mut fp_budget, &mut unused);
    }

    /// Walks queue `q`'s ready list oldest first, issuing within the
    /// functional-unit budgets; entries left behind stay ready.
    fn select(&mut self, q: usize, primary_budget: &mut usize, ls_budget: &mut usize) {
        let mut ready = self.iq.take_ready(q);
        ready.retain(|&slot| {
            *primary_budget == 0 || !self.try_issue(slot, primary_budget, ls_budget)
        });
        self.iq.put_ready(q, ready);
    }

    /// Issues the ready entry in `slot` unless its unit class is out of
    /// budget or, for a load, an older store must go first.
    fn try_issue(&mut self, slot: u32, primary_budget: &mut usize, ls_budget: &mut usize) -> bool {
        let e = self.iq.entry(slot);
        let ls = e.fu == FuClass::LoadStore;
        if ls && *ls_budget == 0 || self.load_waits(&e) {
            return false;
        }
        *primary_budget -= 1;
        if ls {
            *ls_budget -= 1;
        }
        self.iq.remove(slot);
        self.execute_entry(&e);
        true
    }

    /// Conservative memory ordering: a load waits for older stores whose
    /// addresses are unknown or overlap it.
    fn load_waits(&self, e: &IqEntry) -> bool {
        let entry = self.contexts[e.ctx.index()]
            .al
            .at_seq(e.seq)
            .expect("purged queues hold live entries");
        if !entry.inst.op.is_load() {
            return false;
        }
        let base = e.srcs[0].map(|p| self.regs.read(p)).unwrap_or(0);
        let addr = crate::exec::effective_address(&entry.inst, base);
        let width = entry.inst.op.mem_width().expect("load has width").bytes() as u8;
        self.older_store_blocks(e.ctx, e.tag, addr, width)
    }

    /// Reads operands, computes the result, and schedules completion.
    fn execute_entry(&mut self, iq: &IqEntry) {
        let ctx = iq.ctx;
        let a = iq.srcs[0].map(|p| self.regs.read(p)).unwrap_or(0);
        let b = iq.srcs[1].map(|p| self.regs.read(p)).unwrap_or(0);
        for src in iq.srcs.into_iter().flatten() {
            self.regs.release(src);
        }
        let (pc, inst) = {
            let e = self.contexts[ctx.index()]
                .al
                .at_seq(iq.seq)
                .expect("validated by caller");
            (e.pc, e.inst)
        };
        let op = inst.op;
        let regread = self.config.regread_latency as u64;
        let t0 = self.cycle + regread;
        let (complete_at, result) = match op.operand_class() {
            OperandClass::CondBr => {
                let taken = exec::branch_taken(&inst, a);
                let target = if taken {
                    inst.direct_target(pc)
                } else {
                    pc + multipath_isa::INST_BYTES
                };
                self.set_actual(ctx, iq.seq, taken, target);
                (t0 + 1, None)
            }
            OperandClass::Jump => {
                self.set_actual(ctx, iq.seq, true, a);
                (t0 + 1, None)
            }
            _ if op.is_load() => {
                let addr = exec::effective_address(&inst, a);
                let width = op.mem_width().expect("load has width").bytes() as u8;
                let value = self.read_visible(ctx, iq.tag, addr, width);
                let asid = self.asid_of(ctx);
                let access = self.hierarchy.data_access(asid, addr, false, t0);
                self.mdb.record_load(asid, pc, addr);
                if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(iq.seq) {
                    e.mem = Some(MemState {
                        addr: Some(addr),
                        store_value: 0,
                    });
                }
                (access.ready_at + 1, Some(value))
            }
            _ if op.is_store() => {
                let addr = exec::effective_address(&inst, a);
                let width = op.mem_width().expect("store has width").bytes() as u8;
                let asid = self.asid_of(ctx);
                self.contexts[ctx.index()].sq.insert(StoreEntry {
                    tag: iq.tag,
                    addr,
                    width,
                    value: b,
                });
                self.contexts[ctx.index()].clear_pending_store(iq.tag);
                self.mdb.store_invalidate(asid, addr, width);
                if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(iq.seq) {
                    e.mem = Some(MemState {
                        addr: Some(addr),
                        store_value: b,
                    });
                }
                (t0 + 1, None)
            }
            _ => {
                let value = exec::alu_result(&inst, a, b, pc);
                (t0 + op.latency() as u64, Some(value))
            }
        };
        if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(iq.seq) {
            e.state = EntryState::Issued;
        }
        if self.probing() {
            let class = crate::probe::InstClass::of(op);
            self.probe(ctx, pc, crate::probe::EventKind::Issue { class });
        }
        self.contexts[ctx.index()].in_flight += 1;
        self.events.push(Reverse(CompletionEvent {
            at: complete_at.max(self.cycle + 1),
            ctx,
            seq: iq.seq,
            tag: iq.tag,
            result,
        }));
    }

    /// Computes addresses of pending stores whose base registers are ready
    /// (the address-generation half of a split store). Knowing addresses
    /// early lets independent loads bypass stores still waiting on data.
    fn probe_store_addresses(&mut self) {
        for i in 0..self.contexts.len() {
            // Probing never adds or removes pending stores, so index
            // through the list instead of cloning it.
            for k in 0..self.contexts[i].pending_stores.len() {
                let (tag, seq) = self.contexts[i].pending_stores[k];
                let Some(e) = self.contexts[i].al.at_seq(seq) else {
                    continue;
                };
                if e.tag != tag || e.mem.is_some_and(|m| m.addr.is_some()) {
                    continue;
                }
                let Some(base_preg) = e.srcs[0] else { continue };
                if !self.regs.is_ready(base_preg) {
                    continue;
                }
                let addr = crate::exec::effective_address(&e.inst, self.regs.read(base_preg));
                if let Some(e) = self.contexts[i].al.at_seq_mut(seq) {
                    e.mem = Some(MemState {
                        addr: Some(addr),
                        store_value: 0,
                    });
                }
            }
        }
    }

    /// Records a control instruction's actual outcome (resolution happens
    /// at completion).
    fn set_actual(&mut self, ctx: CtxId, seq: u64, taken: bool, target: u64) {
        if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(seq) {
            if let Some(b) = &mut e.branch {
                b.actual_taken = Some(taken);
                b.actual_target = Some(target);
            }
        }
    }
}
