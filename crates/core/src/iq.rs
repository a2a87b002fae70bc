//! The two instruction queues as a wakeup/select window.
//!
//! Entries are slot-addressed. At dispatch an entry notes which of its
//! source registers are still unwritten and links one waiter node per
//! such source into that register's waiter list. The nodes live in a flat
//! table beside the slots, two per slot, so waiter storage is sized once
//! by the queues and never grows. A register write walks only its own
//! list (`IssueQueues::wake`); an entry whose last source arrives joins
//! its queue's ready list, which is kept in tag (age) order for select.
//! A waiting entry costs nothing per cycle. Removing an entry unlinks its
//! nodes, so a list never outlives its entries and a newly allocated
//! register starts with an empty one.
//!
//! Squashes leave the queues alone: they mark the context
//! (`IssueQueues::mark_stale`), and the next issue stage purges that
//! context's entries that fail the validity test. Until then a squashed
//! entry holds its slot, so the queue lengths rename sees and the
//! occupancy ICOUNT reads are exactly what a per-cycle rescan would leave.
//! A squashed entry may still be woken onto a ready list meanwhile; the
//! purge runs before select and drops it.

use crate::ids::{CtxId, InstTag, PhysReg};
use multipath_isa::FuClass;

/// The integer queue (integer and load/store instructions).
pub(crate) const INT: usize = 0;
/// The floating-point queue.
pub(crate) const FP: usize = 1;

/// No node.
const NIL: u32 = u32::MAX;

/// The queue an instruction of functional-unit class `fu` waits in.
pub(crate) fn queue_for(fu: FuClass) -> usize {
    match fu {
        FuClass::FpAdd | FuClass::FpMul | FuClass::FpDiv => FP,
        _ => INT,
    }
}

/// An instruction-queue entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IqEntry {
    pub ctx: CtxId,
    pub seq: u64,
    pub tag: InstTag,
    pub srcs: [Option<PhysReg>; 2],
    pub fu: FuClass,
    /// Bit `i` is set while `srcs[i]` is unwritten; its waiter node is
    /// then linked into that register's list. Zero means ready.
    waiting: u8,
}

/// A waiter node's neighbours in its register's list.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// Both instruction queues with their wakeup and ready lists.
#[derive(Debug)]
pub(crate) struct IssueQueues {
    /// Entry storage: the integer queue's slots, then the FP queue's.
    slots: Vec<Option<IqEntry>>,
    /// First slot of the FP queue.
    fp_base: u32,
    /// Free slots per queue.
    free: [Vec<u32>; 2],
    /// Per queue, the slots whose sources are all written, oldest first.
    ready: [Vec<u32>; 2],
    /// Waiter nodes: node `2 * slot + i` stands for source `i` of `slot`.
    links: Vec<Link>,
    /// Per register file (integer, FP), each register's first waiter.
    heads: [Vec<u32>; 2],
    /// Entries each context holds across both queues (ICOUNT's queue
    /// term), squashed-but-unpurged entries included.
    held: Vec<u32>,
    /// Contexts (one bit each) that may hold squashed entries.
    stale: u32,
}

impl IssueQueues {
    /// Empty queues of the given capacities, with waiter lists for the
    /// given physical register files, shared by `contexts` contexts.
    pub(crate) fn new(
        int_cap: usize,
        fp_cap: usize,
        phys_int: usize,
        phys_fp: usize,
        contexts: usize,
    ) -> IssueQueues {
        assert!(contexts <= 32, "stale marks hold one bit per context");
        let total = (int_cap + fp_cap) as u32;
        let fp_base = int_cap as u32;
        IssueQueues {
            slots: vec![None; total as usize],
            fp_base,
            free: [
                (0..fp_base).rev().collect(),
                (fp_base..total).rev().collect(),
            ],
            ready: [Vec::with_capacity(int_cap), Vec::with_capacity(fp_cap)],
            links: vec![
                Link {
                    prev: NIL,
                    next: NIL
                };
                2 * total as usize
            ],
            heads: [vec![NIL; phys_int], vec![NIL; phys_fp]],
            held: vec![0; contexts],
            stale: 0,
        }
    }

    fn queue_of(&self, slot: u32) -> usize {
        if slot < self.fp_base {
            INT
        } else {
            FP
        }
    }

    fn slot_range(&self, q: usize) -> std::ops::Range<u32> {
        if q == INT {
            0..self.fp_base
        } else {
            self.fp_base..self.slots.len() as u32
        }
    }

    /// Entries in queue `q`, squashed-but-unpurged ones included.
    pub(crate) fn len(&self, q: usize) -> usize {
        self.slot_range(q).len() - self.free[q].len()
    }

    /// Whether queue `q` has no free slot (dispatch stalls).
    pub(crate) fn is_full(&self, q: usize) -> bool {
        self.free[q].is_empty()
    }

    /// Entries `ctx` holds across both queues.
    pub(crate) fn held_by(&self, ctx: CtxId) -> u32 {
        self.held[ctx.index()]
    }

    /// The entry in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub(crate) fn entry(&self, slot: u32) -> IqEntry {
        self.slots[slot as usize].expect("occupied queue slot")
    }

    /// Queue `q`'s entries oldest first (diagnostics).
    pub(crate) fn entries(&self, q: usize) -> Vec<IqEntry> {
        let mut out: Vec<IqEntry> = self
            .slot_range(q)
            .filter_map(|s| self.slots[s as usize])
            .collect();
        out.sort_unstable_by_key(|e| e.tag);
        out
    }

    /// Puts an instruction into the queue its unit class `fu` uses. Its
    /// unwritten sources (those `is_ready` rejects) are linked into their
    /// registers' waiter lists; with none, it is ready at once. Tags rise
    /// with dispatch, so a ready newcomer is the youngest ready entry.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full: rename checks [`IssueQueues::is_full`]
    /// first.
    pub(crate) fn dispatch(
        &mut self,
        ctx: CtxId,
        seq: u64,
        tag: InstTag,
        srcs: [Option<PhysReg>; 2],
        fu: FuClass,
        is_ready: impl Fn(PhysReg) -> bool,
    ) {
        let q = queue_for(fu);
        let slot = self.free[q].pop().expect("dispatch into a full queue");
        let mut waiting = 0;
        for (i, src) in srcs.into_iter().enumerate() {
            if let Some(p) = src.filter(|&p| !is_ready(p)) {
                waiting |= 1 << i;
                self.link(2 * slot + i as u32, p);
            }
        }
        self.slots[slot as usize] = Some(IqEntry {
            ctx,
            seq,
            tag,
            srcs,
            fu,
            waiting,
        });
        self.held[ctx.index()] += 1;
        if waiting == 0 {
            debug_assert!(self.ready[q]
                .last()
                .is_none_or(|&s| self.entry(s).tag < tag));
            self.ready[q].push(slot);
        }
    }

    /// `reg` was written: every entry waiting on it loses that source,
    /// and those left with none join their ready lists in tag order. The
    /// register's list is empty afterwards.
    pub(crate) fn wake(&mut self, reg: PhysReg) {
        let mut node = std::mem::replace(&mut self.heads[reg.fp as usize][reg.index as usize], NIL);
        while node != NIL {
            let next = self.links[node as usize].next;
            let slot = node / 2;
            let e = self.slots[slot as usize]
                .as_mut()
                .expect("waiter nodes belong to occupied slots");
            e.waiting &= !(1 << (node % 2));
            if e.waiting == 0 {
                let tag = e.tag;
                let q = self.queue_of(slot);
                let at = self.ready[q].partition_point(|&s| self.entry(s).tag < tag);
                self.ready[q].insert(at, slot);
            }
            node = next;
        }
    }

    /// Takes `slot`'s entry out of its queue (issue, purge, undispatch),
    /// unlinking its waiter nodes. Its ready-list position, if any, is the
    /// caller's to drop.
    pub(crate) fn remove(&mut self, slot: u32) -> IqEntry {
        let e = self.slots[slot as usize]
            .take()
            .expect("removing an occupied slot");
        for (i, src) in e.srcs.into_iter().enumerate() {
            if e.waiting & (1 << i) != 0 {
                self.unlink(2 * slot + i as u32, src.expect("waiting source"));
            }
        }
        self.held[e.ctx.index()] -= 1;
        let q = self.queue_of(slot);
        self.free[q].push(slot);
        e
    }

    /// Queue `q`'s ready list, taken out for select; hand it back with
    /// [`IssueQueues::put_ready`] holding exactly the slots not removed.
    pub(crate) fn take_ready(&mut self, q: usize) -> Vec<u32> {
        std::mem::take(&mut self.ready[q])
    }

    /// Returns the ready list taken by [`IssueQueues::take_ready`].
    pub(crate) fn put_ready(&mut self, q: usize, ready: Vec<u32>) {
        debug_assert!(self.ready[q].is_empty(), "ready list returned twice");
        self.ready[q] = ready;
    }

    /// `ctx` had entries squashed: the next [`IssueQueues::purge`] checks
    /// its entries.
    pub(crate) fn mark_stale(&mut self, ctx: CtxId) {
        self.stale |= 1 << ctx.0;
    }

    /// Drops every entry of a marked context that `valid` rejects, then
    /// clears the marks. Unmarked contexts are not visited.
    pub(crate) fn purge(&mut self, valid: impl Fn(&IqEntry) -> bool) {
        let stale = std::mem::take(&mut self.stale);
        if stale == 0 {
            return;
        }
        for slot in 0..self.slots.len() as u32 {
            if let Some(e) = self.slots[slot as usize] {
                if stale & (1 << e.ctx.0) != 0 && !valid(&e) {
                    self.remove(slot);
                }
            }
        }
        self.drop_vacated_ready();
    }

    /// Removes all of `ctx`'s entries, appending them to `out` oldest
    /// first per queue: the integer queue's, then the FP queue's.
    pub(crate) fn take_ctx(&mut self, ctx: CtxId, out: &mut Vec<IqEntry>) {
        for q in [INT, FP] {
            let start = out.len();
            for slot in self.slot_range(q) {
                if self.slots[slot as usize].is_some_and(|e| e.ctx == ctx) {
                    out.push(self.remove(slot));
                }
            }
            out[start..].sort_unstable_by_key(|e| e.tag);
        }
        self.drop_vacated_ready();
    }

    fn drop_vacated_ready(&mut self) {
        for ready in &mut self.ready {
            ready.retain(|&s| self.slots[s as usize].is_some());
        }
    }

    fn link(&mut self, node: u32, reg: PhysReg) {
        let head = &mut self.heads[reg.fp as usize][reg.index as usize];
        let old = std::mem::replace(head, node);
        self.links[node as usize] = Link {
            prev: NIL,
            next: old,
        };
        if old != NIL {
            self.links[old as usize].prev = node;
        }
    }

    fn unlink(&mut self, node: u32, reg: PhysReg) {
        let Link { prev, next } = self.links[node as usize];
        if prev == NIL {
            self.heads[reg.fp as usize][reg.index as usize] = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        }
    }

    /// The shadow check of the wakeup bookkeeping against a full rescan:
    /// every queued entry passes `valid`, its waiting bits are exactly its
    /// unwritten sources, each ready list holds exactly the entries with
    /// none, oldest first, and the per-context counts match the slots.
    ///
    /// # Panics
    ///
    /// Panics on the first disagreement.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check(
        &self,
        valid: impl Fn(&IqEntry) -> bool,
        is_ready: impl Fn(PhysReg) -> bool,
    ) {
        let mut held = vec![0; self.held.len()];
        for q in [INT, FP] {
            let mut expect = Vec::new();
            for slot in self.slot_range(q) {
                let Some(e) = self.slots[slot as usize] else {
                    continue;
                };
                assert!(valid(&e), "squashed queue entry survived the purge: {e:?}");
                held[e.ctx.index()] += 1;
                for (i, src) in e.srcs.into_iter().enumerate() {
                    let unwritten = src.is_some_and(|p| !is_ready(p));
                    assert_eq!(
                        e.waiting & (1 << i) != 0,
                        unwritten,
                        "waiting bit {i} disagrees with the register file: {e:?}"
                    );
                }
                if e.waiting == 0 {
                    expect.push((e.tag, slot));
                }
            }
            expect.sort_unstable();
            let expect: Vec<u32> = expect.into_iter().map(|(_, s)| s).collect();
            assert_eq!(self.ready[q], expect, "ready list of queue {q} is off");
        }
        assert_eq!(held, self.held, "per-context queue counts are off");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(index: u16) -> PhysReg {
        PhysReg { fp: false, index }
    }

    /// Queues of 4 + 4 slots over 16 + 16 registers, for 2 contexts.
    fn queues() -> IssueQueues {
        IssueQueues::new(4, 4, 16, 16, 2)
    }

    fn ready_tags(iq: &IssueQueues, q: usize) -> Vec<u64> {
        iq.ready[q].iter().map(|&s| iq.entry(s).tag.0).collect()
    }

    /// Dispatches tag `tag` of context `ctx` into the integer queue
    /// reading `srcs`, of which only those in `written` are ready.
    fn put(iq: &mut IssueQueues, ctx: u8, tag: u64, srcs: [Option<u16>; 2], written: &[u16]) {
        iq.dispatch(
            CtxId(ctx),
            tag,
            InstTag(tag),
            srcs.map(|s| s.map(reg)),
            FuClass::IntAlu,
            |p| written.contains(&p.index),
        );
    }

    #[test]
    fn out_of_order_wakeups_select_oldest_first() {
        let mut iq = queues();
        put(&mut iq, 0, 1, [Some(1), None], &[]);
        put(&mut iq, 0, 2, [Some(2), Some(3)], &[]);
        put(&mut iq, 0, 3, [None, None], &[]);
        put(&mut iq, 1, 4, [Some(2), None], &[]);
        assert_eq!(ready_tags(&iq, INT), [3]);
        iq.wake(reg(2)); // tag 4 is ready; tag 2 still waits on r3
        assert_eq!(ready_tags(&iq, INT), [3, 4]);
        iq.wake(reg(3));
        assert_eq!(ready_tags(&iq, INT), [2, 3, 4]);
        iq.wake(reg(1));
        assert_eq!(ready_tags(&iq, INT), [1, 2, 3, 4]);
        iq.wake(reg(1)); // a second write finds nobody waiting
        assert_eq!(ready_tags(&iq, INT), [1, 2, 3, 4]);
        iq.check(|_| true, |_| true);
    }

    #[test]
    fn both_sources_on_one_register_wait_for_one_write() {
        let mut iq = queues();
        put(&mut iq, 0, 1, [Some(5), Some(5)], &[]);
        assert!(ready_tags(&iq, INT).is_empty());
        iq.wake(reg(5));
        assert_eq!(ready_tags(&iq, INT), [1]);
    }

    #[test]
    fn purge_visits_only_marked_contexts_and_keeps_counts() {
        let mut iq = queues();
        put(&mut iq, 0, 1, [Some(1), None], &[]);
        put(&mut iq, 1, 2, [None, None], &[]);
        put(&mut iq, 0, 3, [None, None], &[]);
        put(&mut iq, 1, 4, [Some(1), None], &[]);
        // Tags 3 and 4 are squashed. Until the purge they still hold
        // their slots, as they did when every cycle rescanned the queue.
        let squashed = |e: &IqEntry| e.tag.0 < 3;
        iq.mark_stale(CtxId(0));
        assert_eq!(
            (iq.len(INT), iq.held_by(CtxId(0)), iq.held_by(CtxId(1))),
            (4, 2, 2)
        );
        assert!(iq.is_full(INT));
        iq.purge(squashed);
        // Context 1 was not marked: its stale entry stays until a purge
        // that marks it.
        assert_eq!(
            (iq.len(INT), iq.held_by(CtxId(0)), iq.held_by(CtxId(1))),
            (3, 1, 2)
        );
        assert_eq!(ready_tags(&iq, INT), [2]);
        iq.mark_stale(CtxId(1));
        iq.purge(squashed);
        assert_eq!(
            (iq.len(INT), iq.held_by(CtxId(0)), iq.held_by(CtxId(1))),
            (2, 1, 1)
        );
        // The purged waiter on r1 is unlinked: the write wakes only tag 1.
        iq.wake(reg(1));
        assert_eq!(ready_tags(&iq, INT), [1, 2]);
        iq.check(squashed, |_| true);
        assert!(!iq.is_full(INT));
    }

    #[test]
    fn take_ctx_returns_each_queue_oldest_first() {
        let mut iq = queues();
        let fp = |iq: &mut IssueQueues, ctx: u8, tag: u64| {
            iq.dispatch(
                CtxId(ctx),
                tag,
                InstTag(tag),
                [None; 2],
                FuClass::FpAdd,
                |_| true,
            )
        };
        fp(&mut iq, 0, 1);
        put(&mut iq, 0, 2, [Some(7), None], &[]);
        put(&mut iq, 1, 3, [None, None], &[]);
        fp(&mut iq, 0, 4);
        put(&mut iq, 0, 5, [None, None], &[]);
        // Slots are reused out of order: a removal and a redispatch put a
        // younger entry below an older one.
        let slot = iq.ready[INT][0];
        assert_eq!(iq.remove(slot).tag, InstTag(3));
        iq.drop_vacated_ready();
        put(&mut iq, 0, 6, [None, None], &[]);
        let mut out = Vec::new();
        iq.take_ctx(CtxId(0), &mut out);
        let tags: Vec<u64> = out.iter().map(|e| e.tag.0).collect();
        assert_eq!(tags, [2, 5, 6, 1, 4]);
        assert_eq!(iq.len(INT) + iq.len(FP), 0);
        assert_eq!(iq.held_by(CtxId(0)), 0);
        assert!(iq.ready.iter().all(Vec::is_empty));
        // r7's waiter left with its entry.
        assert_eq!(iq.heads[0][7], NIL);
    }
}
