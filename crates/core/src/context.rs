//! Hardware context state.
//!
//! A context is a thread slot: program counter, renaming region, active
//! list, store queue, and per-context predictor state (global history and
//! return stack). Section 3.1 of the paper adds the recycle-architecture
//! states: a context can be *active* (primary or alternate), *inactive*
//! (finished executing, registers and trace retained for recycling), or
//! *idle* (holding nothing — only seen at startup or in TME-only mode).

use crate::active_list::ActiveList;
use crate::ids::{CtxId, InstTag, ProgId};
use crate::lsq::{ForkLink, StoreQueue};
use multipath_branch::{GlobalHistory, ReturnStack};
use multipath_isa::Inst;
use std::collections::VecDeque;

/// The context's role in its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxState {
    /// Holding nothing (startup, or a released spare in TME-only mode).
    Idle,
    /// Executing the predicted path of a program; the only state that
    /// commits new work.
    Primary,
    /// Executing (or having executed) an alternate path forked at
    /// `fork_tag` off `parent`.
    Alternate {
        /// Context this path was forked from.
        parent: CtxId,
        /// Global tag of the forking branch.
        fork_tag: InstTag,
        /// Whether the forking branch has resolved (correctly); the
        /// alternate-path policy governs behaviour afterwards.
        resolved: bool,
    },
    /// An old primary after a covered misprediction: commits its remaining
    /// correct-path instructions, fetches nothing.
    Draining,
    /// Finished executing; registers and trace retained for recycling.
    Inactive,
}

impl CtxState {
    /// Whether this context currently renames/fetches on a live path.
    pub fn is_running(self) -> bool {
        matches!(self, CtxState::Primary | CtxState::Alternate { .. })
    }

    /// Whether this context's trace is available as a recycle source.
    pub fn is_recyclable_source(self) -> bool {
        matches!(self, CtxState::Alternate { .. } | CtxState::Inactive)
    }
}

/// A validated position in an active list used for merge detection:
/// the candidate is still valid iff the slot at `seq` still holds `pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePoint {
    /// Sequence number of the first instruction to recycle.
    pub seq: u64,
    /// Its address.
    pub pc: u64,
}

/// The source feeding a recycle stream.
#[derive(Debug, Clone)]
pub enum StreamSource {
    /// Read from a context's active list (merge recycling).
    Context(CtxId),
    /// Drained entries replayed on respawn. The handles index the
    /// simulator's replay pool ([`crate::sim::Simulator`]'s `replay_pool`);
    /// they must be freed through `Simulator::drop_stream`, never by
    /// dropping the stream directly.
    Buffer(VecDeque<crate::arena::Handle>),
}

/// An in-progress recycle stream feeding a thread's rename input.
#[derive(Debug, Clone)]
pub struct RecycleStream {
    /// Where entries come from.
    pub source: StreamSource,
    /// Next sequence to read (for context sources).
    pub next_seq: u64,
    /// One past the last sequence to read (bound captured at creation).
    pub end_seq: u64,
    /// Whether reuse may be attempted for entries of this stream.
    pub reuse_allowed: bool,
    /// Whether this is a backward-branch (primary-to-primary) merge.
    pub back_merge: bool,
    /// The PC the next expected entry must have; used to resume fetching
    /// at the right place if the stream dies mid-way.
    pub expected_pc: u64,
    /// The global-history view *as of the next stream entry*. The context's
    /// own GHR already holds the whole trace's directions (pushed at stream
    /// creation so post-trace fetch predicts with consistent history);
    /// per-entry re-prediction uses this mid-trace view instead.
    pub ghr: multipath_branch::GlobalHistory,
    /// Decode-pipe entries that were fetched *before* this stream was
    /// created. They are older than the trace and must clear the rename
    /// stage first (Section 3.2: "once the prior fetched instructions for
    /// that thread have cleared the rename stage").
    pub pre_items: usize,
    /// Where fetch resumed when the stream was created. If re-prediction
    /// walks the trace differently (e.g. a trace branch was re-resolved
    /// after creation), the post-trace fetch is discarded on completion.
    pub resume_pc: u64,
    /// Registers whose *current* mapping was installed by a reuse from
    /// this very stream. For such registers the consumer sees, by
    /// construction, exactly the physical register (and value) the trace
    /// entry consumed — so chained reuse through them is sound even when
    /// the written-bit array is conservative. Any non-reuse write clears
    /// the register's freshness. Dies with the stream.
    pub fresh: [bool; multipath_isa::NUM_LOGICAL_REGS],
}

impl RecycleStream {
    /// Instructions remaining in the stream.
    pub fn remaining(&self) -> u64 {
        match &self.source {
            StreamSource::Context(_) => self.end_seq.saturating_sub(self.next_seq),
            StreamSource::Buffer(buf) => buf.len() as u64,
        }
    }
}

/// A fetched instruction waiting in the decode pipe.
#[derive(Debug, Clone)]
pub struct FetchedInst {
    /// Cycle at which it may enter rename.
    pub ready_cycle: u64,
    /// The instruction's address.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Prediction made at fetch for control instructions.
    pub pred: Option<FetchPrediction>,
}

/// Prediction state captured at fetch time.
#[derive(Debug, Clone, Copy)]
pub struct FetchPrediction {
    /// Predicted direction (true for unconditional control).
    pub taken: bool,
    /// Predicted target if taken.
    pub target: u64,
    /// Global history at prediction (for training and repair).
    pub history: u64,
    /// Confidence estimate (low confidence ⇒ TME fork candidate).
    pub confident: bool,
}

/// Statistics accumulated for one forked path, flushed when the path is
/// finally deleted (reclaimed); needed for Table 1's per-fork columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathRecord {
    /// This context currently holds a forked path (so the record counts).
    pub live: bool,
    /// The alternate became the primary (covered a misprediction).
    pub used_tme: bool,
    /// Number of merge recycles taken from this path.
    pub merges: u64,
    /// The path was re-spawned at least once.
    pub respawned: bool,
}

/// One hardware context.
#[derive(Debug, Clone)]
pub struct Context {
    /// This context's identity.
    pub id: CtxId,
    /// Role state.
    pub state: CtxState,
    /// The program whose code this context runs (set once at partition).
    pub prog: Option<ProgId>,
    /// Partition group (one per program).
    pub group: u8,
    /// Next fetch address.
    pub fetch_pc: u64,
    /// Fetch is stalled (instruction-cache miss) until this cycle.
    pub fetch_stall_until: u64,
    /// Fetch permanently stopped (halt reached or path complete).
    pub fetch_stopped: bool,
    /// Per-context global branch history.
    pub ghr: GlobalHistory,
    /// Per-context return stack.
    pub ras: ReturnStack,
    /// The active list (in-flight window + recycle trace).
    pub al: ActiveList,
    /// Speculative stores.
    pub sq: StoreQueue,
    /// Fork ancestry for store-to-load visibility.
    pub fork_link: Option<ForkLink>,
    /// After a swap, this context may not commit until the old primary's
    /// active list drains (program order across contexts).
    pub commit_gate: Option<CtxId>,
    /// Fetched instructions awaiting rename.
    pub decode_pipe: VecDeque<FetchedInst>,
    /// Active recycle stream, if any.
    pub recycle_stream: Option<RecycleStream>,
    /// PC of the instruction after the newest active-list entry — the
    /// address fetch resumes at when this context's trace is recycled.
    pub al_next_pc: u64,
    /// Backward-branch merge point (Section 3.2).
    pub back_merge: Option<MergePoint>,
    /// Retained-squashed-path merge point (primary-path recycling).
    pub squash_merge: Option<MergePoint>,
    /// Instructions fetched since this path started (alternate-path cap).
    pub fetched_total: u64,
    /// Unexecuted stores `(tag, seq)`, oldest first (load ordering guard).
    pub pending_stores: Vec<(InstTag, u64)>,
    /// Issued-but-incomplete instruction count (blocks reclaim).
    pub in_flight: u32,
    /// Fork-path statistics (flushed at reclaim).
    pub path: PathRecord,
    /// Last cycle this context was spawned/used (LRU reclaim).
    pub last_used: u64,
    /// Debug-only ring of recent front-end events (dumped on invariant
    /// violations).
    #[cfg(debug_assertions)]
    pub fe_log: std::collections::VecDeque<String>,
}

impl Context {
    /// Creates an idle context.
    pub fn new(id: CtxId, al_capacity: usize, history_bits: u32, ras_depth: usize) -> Context {
        Context {
            id,
            state: CtxState::Idle,
            prog: None,
            group: 0,
            fetch_pc: 0,
            fetch_stall_until: 0,
            fetch_stopped: false,
            ghr: GlobalHistory::new(history_bits),
            ras: ReturnStack::new(ras_depth),
            al: ActiveList::new(al_capacity),
            sq: StoreQueue::new(),
            fork_link: None,
            commit_gate: None,
            decode_pipe: VecDeque::new(),
            recycle_stream: None,
            al_next_pc: 0,
            back_merge: None,
            squash_merge: None,
            fetched_total: 0,
            pending_stores: Vec::new(),
            in_flight: 0,
            path: PathRecord::default(),
            last_used: 0,
            #[cfg(debug_assertions)]
            fe_log: std::collections::VecDeque::new(),
        }
    }

    /// Records a debug front-end event. `msg` runs only in debug builds:
    /// release builds format nothing.
    #[cfg(debug_assertions)]
    pub fn log_fe(&mut self, cycle: u64, msg: impl FnOnce() -> String) {
        if self.fe_log.len() >= 48 {
            self.fe_log.pop_front();
        }
        self.fe_log.push_back(format!("cycle {cycle}: {}", msg()));
    }

    /// Records a debug front-end event. `msg` runs only in debug builds:
    /// release builds format nothing.
    #[cfg(not(debug_assertions))]
    pub fn log_fe(&mut self, _cycle: u64, _msg: impl FnOnce() -> String) {}

    /// The PC of the first instruction of this context's trace (the
    /// primary merge / respawn match point for alternates and inactives).
    pub fn first_pc(&self) -> Option<u64> {
        self.al.at_seq(0).map(|e| e.pc).or_else(|| {
            // Alternates never commit, so their first entry is seq 0; but
            // be robust to head movement.
            self.al.at_seq(0).map(|e| e.pc)
        })
    }

    /// Whether this context may be reclaimed for a new fork right now.
    pub fn reclaimable(&self) -> bool {
        self.state == CtxState::Inactive && self.in_flight == 0
    }

    /// Records an unexecuted store (called at rename).
    pub fn push_pending_store(&mut self, tag: InstTag, seq: u64) {
        debug_assert!(self.pending_stores.last().is_none_or(|&(t, _)| t < tag));
        self.pending_stores.push((tag, seq));
    }

    /// Removes a store that has executed (or been squashed).
    pub fn clear_pending_store(&mut self, tag: InstTag) {
        if let Some(pos) = self.pending_stores.iter().position(|&(t, _)| t == tag) {
            self.pending_stores.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active_list::test_entry;

    fn ctx() -> Context {
        Context::new(CtxId(0), 8, 11, 12)
    }

    #[test]
    fn starts_idle_and_empty() {
        let c = ctx();
        assert_eq!(c.state, CtxState::Idle);
        assert_eq!(c.first_pc(), None);
        assert!(
            !c.reclaimable(),
            "idle contexts are used directly, not reclaimed"
        );
    }

    #[test]
    fn first_pc_is_trace_start() {
        let mut c = ctx();
        c.al.insert(test_entry(0x4000, 1));
        c.al.insert(test_entry(0x4004, 2));
        assert_eq!(c.first_pc(), Some(0x4000));
    }

    #[test]
    fn state_predicates() {
        assert!(CtxState::Primary.is_running());
        assert!(!CtxState::Inactive.is_running());
        assert!(CtxState::Inactive.is_recyclable_source());
        assert!(!CtxState::Draining.is_recyclable_source());
        let alt = CtxState::Alternate {
            parent: CtxId(0),
            fork_tag: InstTag(1),
            resolved: false,
        };
        assert!(alt.is_running());
        assert!(alt.is_recyclable_source());
    }

    #[test]
    fn pending_store_ordering() {
        let mut c = ctx();
        c.push_pending_store(InstTag(5), 0);
        c.push_pending_store(InstTag(9), 1);
        assert_eq!(c.pending_stores.len(), 2);
        c.clear_pending_store(InstTag(5));
        assert_eq!(c.pending_stores, vec![(InstTag(9), 1)]);
        c.clear_pending_store(InstTag(42)); // absent tags are ignored
        assert_eq!(c.pending_stores.len(), 1);
    }

    #[test]
    fn reclaimable_requires_inactive_and_quiescent() {
        let mut c = ctx();
        c.state = CtxState::Inactive;
        assert!(c.reclaimable());
        c.in_flight = 1;
        assert!(!c.reclaimable());
    }

    #[test]
    fn stream_remaining_counts() {
        let s = RecycleStream {
            source: StreamSource::Context(CtxId(1)),
            next_seq: 3,
            end_seq: 10,
            reuse_allowed: true,
            back_merge: false,
            expected_pc: 0x100,
            ghr: multipath_branch::GlobalHistory::new(11),
            pre_items: 0,
            resume_pc: 0,
            fresh: [false; multipath_isa::NUM_LOGICAL_REGS],
        };
        assert_eq!(s.remaining(), 7);
        let mut pool = crate::arena::Slab::new();
        let h = pool.insert(test_entry(0, 0));
        let b = RecycleStream {
            source: StreamSource::Buffer([h].into_iter().collect()),
            next_seq: 0,
            end_seq: 0,
            reuse_allowed: false,
            back_merge: false,
            expected_pc: 0,
            ghr: multipath_branch::GlobalHistory::new(11),
            pre_items: 0,
            resume_pc: 0,
            fresh: [false; multipath_isa::NUM_LOGICAL_REGS],
        };
        assert_eq!(b.remaining(), 1);
    }
}
