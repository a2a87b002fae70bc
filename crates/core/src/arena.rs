//! Preallocated, free-list-recycled storage for the simulator hot path.
//!
//! The paper's thesis is that recycling beats re-allocating; the simulator
//! holds itself to the same rule. Everything the per-cycle loop needs more
//! than once lives here and is reused instead of reallocated:
//!
//! - [`Slab`]: a pool of `T` slots addressed by generation-tagged
//!   [`Handle`]s. Freed slots go on a free list and are reissued with a
//!   bumped generation, so a stale handle can never read a recycled slot.
//!   The respawn replay path stores its drained trace entries here and
//!   passes 8-byte handles around instead of cloning ~200-byte payloads.
//! - `Scratch` (crate-internal): the per-cycle working buffers owned by `Simulator`
//!   (ICOUNT tallies, thread orderings, spare replay queues). Stages take
//!   a buffer out, use it, and put it back; the capacity survives across
//!   cycles so steady-state simulation performs no heap allocation for
//!   them at all.

use crate::ids::CtxId;
use std::collections::VecDeque;

/// A generation-tagged reference to a [`Slab`] slot.
///
/// Handles are 8 bytes and `Copy`; they are invalidated by freeing the
/// slot (the generation advances), after which every access returns
/// `None` rather than another entry's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    index: u32,
    gen: u32,
}

/// A slab allocator: preallocated slots recycled through a free list.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value`, recycling a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> Handle {
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(slot.1.is_none(), "free-listed slot still occupied");
                slot.1 = Some(value);
                Handle { index, gen: slot.0 }
            }
            None => {
                let index = self.slots.len() as u32;
                self.slots.push((0, Some(value)));
                Handle { index, gen: 0 }
            }
        }
    }

    /// The value behind `h`, unless the slot has been freed since.
    pub fn get(&self, h: Handle) -> Option<&T> {
        let (gen, value) = self.slots.get(h.index as usize)?;
        if *gen != h.gen {
            return None;
        }
        value.as_ref()
    }

    /// Frees the slot behind `h` and returns its value; the handle (and
    /// any copy of it) is dead afterwards. Freeing twice is a no-op.
    pub fn free(&mut self, h: Handle) -> Option<T> {
        let slot = self.slots.get_mut(h.index as usize)?;
        if slot.0 != h.gen || slot.1.is_none() {
            return None;
        }
        let value = slot.1.take();
        slot.0 = slot.0.wrapping_add(1);
        self.free.push(h.index);
        value
    }

    /// Number of live (occupied) slots.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated (live + recycled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Reusable per-cycle working buffers owned by the simulator.
///
/// Each pipeline stage `std::mem::take`s the buffer it needs (so the
/// borrow checker sees it as a local), clears and refills it, and puts it
/// back when done — the allocation is made once and amortised over the
/// whole run.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per-context ICOUNT tallies (rename and fetch thread selection).
    pub icounts: Vec<u64>,
    /// Rename-stage thread ordering.
    pub order: Vec<CtxId>,
    /// Fetch-stage candidate ordering.
    pub candidates: Vec<CtxId>,
    /// Emptied replay queues waiting to be reused by the next respawn.
    pub spare_replay_queues: Vec<VecDeque<Handle>>,
    /// The queue entries `undispatch` is releasing.
    pub undispatched: Vec<crate::iq::IqEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_round_trip() {
        let mut slab: Slab<u64> = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.get(a), Some(&10));
        assert_eq!(slab.get(b), Some(&20));
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn free_returns_value_and_invalidates_handle() {
        let mut slab: Slab<&str> = Slab::new();
        let h = slab.insert("x");
        assert_eq!(slab.free(h), Some("x"));
        assert_eq!(slab.get(h), None, "freed handle is dead");
        assert_eq!(slab.free(h), None, "double free is a no-op");
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut slab: Slab<u32> = Slab::new();
        let h = slab.insert(1);
        slab.free(h);
        let h2 = slab.insert(2);
        assert_eq!(slab.capacity(), 1, "freed slot reused, no new allocation");
        assert_eq!(slab.get(h2), Some(&2));
        assert_eq!(slab.get(h), None, "old generation cannot alias new value");
    }

    #[test]
    fn generations_distinguish_reincarnations() {
        let mut slab: Slab<u32> = Slab::new();
        let first = slab.insert(7);
        slab.free(first);
        let second = slab.insert(8);
        assert_ne!(first, second);
        assert_eq!(slab.free(first), None);
        assert_eq!(
            slab.get(second),
            Some(&8),
            "stale free must not kill the slot"
        );
    }

    #[test]
    fn live_tracks_many_inserts_and_frees() {
        let mut slab: Slab<usize> = Slab::new();
        let handles: Vec<Handle> = (0..100).map(|i| slab.insert(i)).collect();
        assert_eq!(slab.live(), 100);
        for h in &handles[..50] {
            slab.free(*h);
        }
        assert_eq!(slab.live(), 50);
        for i in 0..50 {
            slab.insert(i);
        }
        assert_eq!(slab.live(), 100);
        assert_eq!(slab.capacity(), 100, "all inserts after free reuse slots");
    }
}
