//! Pipeline observability: typed events, pluggable sinks, interval time
//! series, Perfetto/Chrome-trace export, and host-side stage profiling.
//!
//! The simulator's stages emit [`Event`]s through `Simulator::probe`
//! (`crate::sim`), which is a no-op unless probes were attached with
//! [`Simulator::enable_probes`](crate::Simulator::enable_probes) — the
//! hot path pays one predictable branch
//! per emission site and nothing else. Sinks implement [`ProbeSink`],
//! whose methods default to nothing. The built-in sinks:
//!
//! * [`RingSink`] — a bounded ring of the most recent (filtered) events,
//!   for interactive inspection and post-mortem debugging.
//! * [`IntervalSink`] — per-N-cycle deltas of the full [`Stats`] counter
//!   vector plus occupancy histograms by context role and attribution
//!   histograms by instruction class. Interval sums reconstruct the final
//!   aggregate `Stats` exactly (they are telescoping snapshots).
//! * [`SpanRecorder`] — builds a Chrome-trace/Perfetto JSON timeline: one
//!   track per hardware context with Primary/Alternate/Drain/… spans, a
//!   twin track for recycle-stream activity, and instant events for
//!   forks, merges, squashes, and the other point events.
//!
//! [`stats_json`] renders the counter vector (and optionally the interval
//! series) as versioned machine-readable JSON (`multipath-stats/v1`),
//! consumed by the CI stats-drift gate. [`StageProfile`] accumulates host
//! wall-clock per pipeline stage so simulator-speed regressions are
//! attributable next to the simulated IPC they produce.

use crate::stats::Stats;
use crate::trace::CtxStateKind;
use multipath_isa::Opcode;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Duration;

/// Coarse instruction classification for attribution histograms
/// (the "Decanting"-style breakdown of recycle/reuse by type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstClass {
    /// Integer ALU operations (register or immediate forms).
    IntAlu,
    /// Loads.
    Load,
    /// Stores.
    Store,
    /// Conditional branches.
    Branch,
    /// Unconditional branches, calls, and indirect jumps.
    Jump,
    /// Floating-point operate/compare/convert.
    Fp,
    /// Everything else (halt, nop-like).
    Other,
}

impl InstClass {
    /// Number of classes (width of per-class histograms).
    pub const COUNT: usize = 7;

    /// All classes, index-aligned with [`InstClass::index`].
    pub const ALL: [InstClass; InstClass::COUNT] = [
        InstClass::IntAlu,
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
        InstClass::Jump,
        InstClass::Fp,
        InstClass::Other,
    ];

    /// Classifies an opcode.
    pub fn of(op: Opcode) -> InstClass {
        use multipath_isa::OperandClass as OC;
        match op.operand_class() {
            OC::Rrr | OC::Rri => InstClass::IntAlu,
            OC::Mem => {
                if op.is_store() {
                    InstClass::Store
                } else {
                    InstClass::Load
                }
            }
            OC::CondBr => InstClass::Branch,
            OC::Br | OC::Jump => InstClass::Jump,
            OC::Fp | OC::FpCmp | OC::Cvt => InstClass::Fp,
            OC::None => InstClass::Other,
        }
    }

    /// Dense index into per-class histograms.
    pub fn index(self) -> usize {
        match self {
            InstClass::IntAlu => 0,
            InstClass::Load => 1,
            InstClass::Store => 2,
            InstClass::Branch => 3,
            InstClass::Jump => 4,
            InstClass::Fp => 5,
            InstClass::Other => 6,
        }
    }

    /// Name used in stats.json.
    pub fn name(self) -> &'static str {
        match self {
            InstClass::IntAlu => "int_alu",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
            InstClass::Jump => "jump",
            InstClass::Fp => "fp",
            InstClass::Other => "other",
        }
    }
}

/// Why a fork opportunity was declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseReason {
    /// The per-cycle fork limit was already reached.
    CycleCap,
    /// No spare hardware context was available (and none reclaimable).
    NoSpare,
    /// A path starting at the same address already exists (REC policy).
    DuplicatePath,
}

impl RefuseReason {
    /// Number of refusal reasons (width of attribution buckets).
    pub const COUNT: usize = 3;

    /// All reasons, index-aligned with [`RefuseReason::index`].
    pub const ALL: [RefuseReason; RefuseReason::COUNT] = [
        RefuseReason::CycleCap,
        RefuseReason::NoSpare,
        RefuseReason::DuplicatePath,
    ];

    /// Dense index into per-reason buckets.
    pub fn index(self) -> usize {
        match self {
            RefuseReason::CycleCap => 0,
            RefuseReason::NoSpare => 1,
            RefuseReason::DuplicatePath => 2,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            RefuseReason::CycleCap => "cycle_cap",
            RefuseReason::NoSpare => "no_spare",
            RefuseReason::DuplicatePath => "duplicate_path",
        }
    }
}

/// Why a recycled instruction was renamed fresh instead of reusing its
/// retained result — the paper's reuse-miss taxonomy. Exactly one cause is
/// attributed per recycled-but-not-reused instruction, so the bucket sums
/// reconcile with `Stats`: `Σ buckets == recycled − reused`.
///
/// Causes are attributed in a fixed priority order (the order below), so
/// an instruction failing several checks lands in one deterministic
/// bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseDeny {
    /// The stream is not reuse-capable: the RU feature is off, the stream
    /// replays from a re-spawn buffer, or it is a self/backward merge
    /// (same-context streams never reuse).
    Disabled,
    /// The retained entry never produced a result (not yet executed,
    /// fetched-only, or poisoned by a parent-path squash).
    NotExecuted,
    /// The retained entry was itself a reuse copy; reuse does not chain.
    ChainedReuse,
    /// The instruction produces no reusable register result (no
    /// destination, control, or store).
    NoResult,
    /// The old physical register was already released back to the pool.
    RegsReleased,
    /// A source logical register was overwritten since the trace was
    /// produced (written-bit set, and not refreshed by this stream).
    SourceOverwritten,
    /// A load whose memory dependence the MDB no longer vouches for
    /// (address unknown, or an intervening store invalidated it).
    MemInvalidated,
}

impl ReuseDeny {
    /// Number of deny causes (width of taxonomy buckets).
    pub const COUNT: usize = 7;

    /// All causes, index-aligned with [`ReuseDeny::index`].
    pub const ALL: [ReuseDeny; ReuseDeny::COUNT] = [
        ReuseDeny::Disabled,
        ReuseDeny::NotExecuted,
        ReuseDeny::ChainedReuse,
        ReuseDeny::NoResult,
        ReuseDeny::RegsReleased,
        ReuseDeny::SourceOverwritten,
        ReuseDeny::MemInvalidated,
    ];

    /// Dense index into taxonomy buckets.
    pub fn index(self) -> usize {
        match self {
            ReuseDeny::Disabled => 0,
            ReuseDeny::NotExecuted => 1,
            ReuseDeny::ChainedReuse => 2,
            ReuseDeny::NoResult => 3,
            ReuseDeny::RegsReleased => 4,
            ReuseDeny::SourceOverwritten => 5,
            ReuseDeny::MemInvalidated => 6,
        }
    }

    /// Name used in the explain document.
    pub fn name(self) -> &'static str {
        match self {
            ReuseDeny::Disabled => "reuse_disabled",
            ReuseDeny::NotExecuted => "not_executed",
            ReuseDeny::ChainedReuse => "chained_reuse",
            ReuseDeny::NoResult => "no_result",
            ReuseDeny::RegsReleased => "regs_released",
            ReuseDeny::SourceOverwritten => "source_overwritten",
            ReuseDeny::MemInvalidated => "mem_invalidated",
        }
    }
}

/// What happened. Per-instruction kinds carry the instruction class; path
/// kinds carry the contexts involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// `count` instructions fetched from the I-cache this cycle.
    Fetch { count: u32 },
    /// An instruction entered rename from decode (fresh fetch path).
    Rename { class: InstClass },
    /// An instruction entered rename via the recycle datapath.
    Recycle { class: InstClass },
    /// A recycled instruction's old result was reused (no execution).
    Reuse { class: InstClass },
    /// An instruction was selected and sent to a functional unit.
    Issue { class: InstClass },
    /// An instruction committed.
    Commit { class: InstClass },
    /// A control instruction resolved. `cond` distinguishes conditional
    /// branches from jumps; `conf` is the JRS confidence counter read just
    /// before the resolution trained it.
    Resolve {
        mispredicted: bool,
        covered: bool,
        cond: bool,
        conf: u8,
    },
    /// A low-confidence branch forked its alternate path into `alt`.
    Fork { alt: u8 },
    /// An inactive trace was re-spawned as an alternate in `alt`.
    Respawn { alt: u8 },
    /// A recycle stream started (merge) from `source`, `len` instructions;
    /// `reuse` is whether the stream is reuse-capable.
    Merge { source: u8, len: u64, reuse: bool },
    /// A backward-branch (primary-to-primary) merge, `len` instructions.
    BackMerge { len: u64 },
    /// `count` instructions squashed after rename.
    Squash { count: u64 },
    /// Rename stalled this cycle for lack of physical registers.
    PregStall,
    /// A fork opportunity was declined.
    ForkRefused { reason: RefuseReason },
    /// A recycled instruction could not reuse its retained result.
    ReuseDenied { class: InstClass, cause: ReuseDeny },
    /// A covered misprediction promoted the alternate in `alt` to primary.
    Promote { alt: u8 },
}

impl EventKind {
    /// Number of event kinds (width of [`EventFilter`]).
    pub const COUNT: usize = 16;

    /// Names accepted by [`EventFilter::parse`], index-aligned with
    /// [`EventKind::tag`].
    pub const NAMES: [&'static str; EventKind::COUNT] = [
        "fetch",
        "rename",
        "recycle",
        "reuse",
        "issue",
        "commit",
        "resolve",
        "fork",
        "respawn",
        "merge",
        "back_merge",
        "squash",
        "preg_stall",
        "fork_refused",
        "reuse_denied",
        "promote",
    ];

    /// Dense kind index (filter bit position).
    pub fn tag(self) -> usize {
        match self {
            EventKind::Fetch { .. } => 0,
            EventKind::Rename { .. } => 1,
            EventKind::Recycle { .. } => 2,
            EventKind::Reuse { .. } => 3,
            EventKind::Issue { .. } => 4,
            EventKind::Commit { .. } => 5,
            EventKind::Resolve { .. } => 6,
            EventKind::Fork { .. } => 7,
            EventKind::Respawn { .. } => 8,
            EventKind::Merge { .. } => 9,
            EventKind::BackMerge { .. } => 10,
            EventKind::Squash { .. } => 11,
            EventKind::PregStall => 12,
            EventKind::ForkRefused { .. } => 13,
            EventKind::ReuseDenied { .. } => 14,
            EventKind::Promote { .. } => 15,
        }
    }

    /// The kind's display name.
    pub fn name(self) -> &'static str {
        EventKind::NAMES[self.tag()]
    }
}

/// One pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Cycle the event occurred in.
    pub cycle: u64,
    /// Hardware context involved.
    pub ctx: u8,
    /// Program counter of the instruction (or fork/merge point).
    pub pc: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// One-line text form (`--print-events`, debugging).
    pub fn render(&self) -> String {
        format!(
            "{:>8}  ctx{} {:#010x}  {:?}",
            self.cycle, self.ctx, self.pc, self.kind
        )
    }
}

/// A bitmask over [`EventKind`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFilter(pub u32);

impl EventFilter {
    /// Accepts every kind.
    pub fn all() -> EventFilter {
        EventFilter((1 << EventKind::COUNT) - 1)
    }

    /// Accepts nothing.
    pub fn none() -> EventFilter {
        EventFilter(0)
    }

    /// Whether `kind` passes the filter.
    pub fn accepts(self, kind: EventKind) -> bool {
        self.0 & (1 << kind.tag()) != 0
    }

    /// Parses a comma-separated kind list (`"fork,merge,squash"`, or
    /// `"all"`). Unknown names are reported, not ignored.
    pub fn parse(spec: &str) -> Result<EventFilter, String> {
        if spec.trim() == "all" {
            return Ok(EventFilter::all());
        }
        let mut mask = 0u32;
        for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match EventKind::NAMES.iter().position(|&n| n == name) {
                Some(bit) => mask |= 1 << bit,
                None => {
                    return Err(format!(
                        "unknown event kind {name:?}; known: {}",
                        EventKind::NAMES.join(",")
                    ))
                }
            }
        }
        Ok(EventFilter(mask))
    }
}

/// A per-cycle view of one hardware context: what sinks see at cycle end
/// and what the text timeline ([`crate::trace`]) samples.
#[derive(Debug, Clone, Copy)]
pub struct CtxView {
    /// The context's role at the end of the cycle.
    pub role: CtxStateKind,
    /// Live (uncommitted) active-list entries.
    pub live: u32,
    /// Instructions remaining in an attached recycle stream.
    pub stream: u64,
}

/// A sink for pipeline events. Both methods default to nothing, so a sink
/// may observe only events or only cycle boundaries.
pub trait ProbeSink {
    /// Called for every emitted event.
    #[inline]
    fn event(&mut self, _ev: &Event) {}

    /// Called once per cycle after all stages ran, with cumulative stats
    /// and per-context views.
    #[inline]
    fn cycle_end(&mut self, _cycle: u64, _stats: &Stats, _ctxs: &[CtxView]) {}
}

/// A bounded ring buffer of the most recent events passing a filter.
#[derive(Debug)]
pub struct RingSink {
    filter: EventFilter,
    cap: usize,
    buf: VecDeque<Event>,
    /// Events evicted because the ring was full.
    pub dropped: u64,
}

impl RingSink {
    /// A ring holding at most `cap` events matching `filter`.
    pub fn new(cap: usize, filter: EventFilter) -> RingSink {
        RingSink {
            filter,
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.max(1)),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl ProbeSink for RingSink {
    fn event(&mut self, ev: &Event) {
        if !self.filter.accepts(ev.kind) {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*ev);
    }
}

/// One closed interval of the time series: counter deltas plus occupancy
/// and attribution histograms.
#[derive(Debug, Clone)]
pub struct Interval {
    /// First cycle covered (inclusive).
    pub start_cycle: u64,
    /// Last cycle covered (inclusive).
    pub end_cycle: u64,
    /// Delta of every [`Stats`] counter over the interval, index-aligned
    /// with [`Stats::COUNTER_NAMES`].
    pub counters: [u64; Stats::NUM_COUNTERS],
    /// Context-cycles spent in each role ([`CtxStateKind::index`] order).
    pub role_cycles: [u64; CtxStateKind::COUNT],
    /// Sum of live active-list entries per role (occupancy attribution).
    pub live_by_role: [u64; CtxStateKind::COUNT],
    /// Renamed instructions per class ([`InstClass::index`] order).
    pub renamed_by_class: [u64; InstClass::COUNT],
    /// ... of which arrived via the recycle datapath.
    pub recycled_by_class: [u64; InstClass::COUNT],
    /// ... of which were reused outright.
    pub reused_by_class: [u64; InstClass::COUNT],
    /// Committed instructions per class.
    pub committed_by_class: [u64; InstClass::COUNT],
}

/// Aggregates events and per-cycle stats into fixed-width intervals.
///
/// Counter columns are *deltas of cumulative snapshots*, so the sum over
/// all intervals telescopes to the final aggregate exactly — including
/// anything added by `finalize_stats` after the last step, which lands in
/// the final (possibly partial) interval closed by [`IntervalSink::finish`].
#[derive(Debug)]
pub struct IntervalSink {
    width: u64,
    start_cycle: u64,
    last: [u64; Stats::NUM_COUNTERS],
    cur: Interval,
    closed: Vec<Interval>,
}

impl IntervalSink {
    /// A sink closing one interval every `width` cycles.
    pub fn new(width: u64) -> IntervalSink {
        let width = width.max(1);
        IntervalSink {
            width,
            start_cycle: 0,
            last: [0; Stats::NUM_COUNTERS],
            cur: IntervalSink::blank(0),
            closed: Vec::new(),
        }
    }

    fn blank(start: u64) -> Interval {
        Interval {
            start_cycle: start,
            end_cycle: start,
            counters: [0; Stats::NUM_COUNTERS],
            role_cycles: [0; CtxStateKind::COUNT],
            live_by_role: [0; CtxStateKind::COUNT],
            renamed_by_class: [0; InstClass::COUNT],
            recycled_by_class: [0; InstClass::COUNT],
            reused_by_class: [0; InstClass::COUNT],
            committed_by_class: [0; InstClass::COUNT],
        }
    }

    /// The interval width in cycles.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The closed intervals, in time order.
    pub fn intervals(&self) -> &[Interval] {
        &self.closed
    }

    /// Element-wise sum of every closed interval's counter deltas; equals
    /// the final `Stats::counters()` after [`IntervalSink::finish`].
    pub fn counter_sums(&self) -> [u64; Stats::NUM_COUNTERS] {
        let mut sums = [0u64; Stats::NUM_COUNTERS];
        for iv in &self.closed {
            for (s, v) in sums.iter_mut().zip(iv.counters.iter()) {
                *s += v;
            }
        }
        sums
    }

    fn close(&mut self, end_cycle: u64, stats: &Stats) {
        let now = stats.counters();
        let mut iv = std::mem::replace(&mut self.cur, IntervalSink::blank(end_cycle));
        iv.start_cycle = self.start_cycle;
        iv.end_cycle = end_cycle;
        for (d, (new, old)) in iv.counters.iter_mut().zip(now.iter().zip(self.last.iter())) {
            *d = new - old;
        }
        self.last = now;
        self.start_cycle = end_cycle;
        self.closed.push(iv);
    }

    /// Closes the trailing partial interval against the final stats (call
    /// once, after the run — `Simulator::finish_probes` does this).
    pub fn finish(&mut self, cycle: u64, stats: &Stats) {
        if stats.counters() != self.last {
            self.close(cycle, stats);
        }
    }
}

impl ProbeSink for IntervalSink {
    fn event(&mut self, ev: &Event) {
        match ev.kind {
            EventKind::Rename { class } => self.cur.renamed_by_class[class.index()] += 1,
            EventKind::Recycle { class } => {
                self.cur.renamed_by_class[class.index()] += 1;
                self.cur.recycled_by_class[class.index()] += 1;
            }
            EventKind::Reuse { class } => {
                self.cur.renamed_by_class[class.index()] += 1;
                self.cur.recycled_by_class[class.index()] += 1;
                self.cur.reused_by_class[class.index()] += 1;
            }
            EventKind::Commit { class } => self.cur.committed_by_class[class.index()] += 1,
            _ => {}
        }
    }

    fn cycle_end(&mut self, cycle: u64, stats: &Stats, ctxs: &[CtxView]) {
        for c in ctxs {
            self.cur.role_cycles[c.role.index()] += 1;
            self.cur.live_by_role[c.role.index()] += c.live as u64;
        }
        if cycle - self.start_cycle >= self.width {
            self.close(cycle, stats);
        }
    }
}

/// A closed span on one Perfetto track.
#[derive(Debug, Clone)]
struct Span {
    tid: u32,
    name: &'static str,
    start: u64,
    end: u64,
}

/// An instant (point) event on one track.
#[derive(Debug, Clone)]
struct Instant {
    tid: u32,
    cycle: u64,
    name: String,
}

/// Builds a Chrome-trace JSON timeline: per context, an even track
/// (`tid = 2*ctx`) carrying role spans and instant events, and an odd
/// track (`tid = 2*ctx + 1`) carrying recycle-stream spans. Open a trace
/// at <https://ui.perfetto.dev> or `chrome://tracing`.
#[derive(Debug)]
pub struct SpanRecorder {
    filter: EventFilter,
    /// Per-context open role span: (role, start cycle).
    open_role: Vec<(CtxStateKind, u64)>,
    /// Per-context open recycle-stream span start, if a stream is active.
    open_stream: Vec<Option<u64>>,
    spans: Vec<Span>,
    instants: Vec<Instant>,
    finished_at: u64,
}

impl SpanRecorder {
    /// A recorder whose instant events pass `filter` (role and stream
    /// spans are always recorded).
    pub fn new(filter: EventFilter) -> SpanRecorder {
        SpanRecorder {
            filter,
            open_role: Vec::new(),
            open_stream: Vec::new(),
            spans: Vec::new(),
            instants: Vec::new(),
            finished_at: 0,
        }
    }

    /// Closes all open spans at `cycle` (call once, after the run).
    pub fn finish(&mut self, cycle: u64) {
        self.finished_at = cycle;
        for (ctx, &(role, start)) in self.open_role.iter().enumerate() {
            if cycle > start {
                self.spans.push(Span {
                    tid: 2 * ctx as u32,
                    name: role.name(),
                    start,
                    end: cycle,
                });
            }
        }
        for (ctx, open) in self.open_stream.iter().enumerate() {
            if let Some(start) = *open {
                self.spans.push(Span {
                    tid: 2 * ctx as u32 + 1,
                    name: "recycle_stream",
                    start,
                    end: cycle.max(start + 1),
                });
            }
        }
        self.open_role.clear();
        self.open_stream.clear();
    }

    /// Number of closed spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of instant events.
    pub fn instant_count(&self) -> usize {
        self.instants.len()
    }

    /// Renders the Chrome-trace JSON (`{"traceEvents": [...]}`).
    pub fn chrome_trace_json(&self, num_ctxs: usize) -> String {
        let mut out = String::with_capacity(64 * (self.spans.len() + self.instants.len()) + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
        };
        for ctx in 0..num_ctxs {
            for (tid, label) in [
                (2 * ctx as u32, format!("ctx{ctx} role")),
                (2 * ctx as u32 + 1, format!("ctx{ctx} stream")),
            ] {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{label}\"}}}}"
                );
            }
        }
        for s in &self.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\"}}",
                s.tid,
                s.start,
                s.end - s.start,
                s.name
            );
        }
        for i in &self.instants {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\"}}",
                i.tid, i.cycle, i.name
            );
        }
        out.push_str("]}");
        out
    }
}

impl ProbeSink for SpanRecorder {
    fn event(&mut self, ev: &Event) {
        if !self.filter.accepts(ev.kind) {
            return;
        }
        let name = match ev.kind {
            EventKind::Fork { alt } => format!("fork->ctx{alt}"),
            EventKind::Respawn { alt } => format!("respawn->ctx{alt}"),
            EventKind::Merge { source, len, reuse } => {
                let tag = if reuse { ", reuse" } else { "" };
                format!("merge<-ctx{source} ({len}{tag})")
            }
            EventKind::BackMerge { len } => format!("back_merge ({len})"),
            EventKind::Squash { count } => format!("squash ({count})"),
            EventKind::Resolve {
                mispredicted: true,
                covered,
                ..
            } => {
                if covered {
                    "mispredict (covered)".to_owned()
                } else {
                    "mispredict".to_owned()
                }
            }
            EventKind::PregStall => "preg_stall".to_owned(),
            EventKind::ForkRefused { reason } => format!("fork_refused ({})", reason.name()),
            EventKind::Promote { alt } => format!("promote<-ctx{alt}"),
            // High-frequency per-instruction kinds would swamp the
            // timeline; the interval sink carries their aggregates.
            _ => return,
        };
        self.instants.push(Instant {
            tid: 2 * ev.ctx as u32,
            cycle: ev.cycle,
            name,
        });
    }

    fn cycle_end(&mut self, cycle: u64, _stats: &Stats, ctxs: &[CtxView]) {
        if self.open_role.is_empty() {
            // First observed cycle: open a span per context. Spans are
            // stamped with end-of-cycle state, so cycle N's state covers
            // [N-1, N).
            let start = cycle.saturating_sub(1);
            self.open_role = ctxs.iter().map(|c| (c.role, start)).collect();
            self.open_stream = ctxs
                .iter()
                .map(|c| (c.stream > 0).then_some(start))
                .collect();
            return;
        }
        for (i, c) in ctxs.iter().enumerate() {
            let (role, start) = self.open_role[i];
            if c.role != role {
                if cycle > start {
                    self.spans.push(Span {
                        tid: 2 * i as u32,
                        name: role.name(),
                        start,
                        end: cycle,
                    });
                }
                self.open_role[i] = (c.role, cycle);
            }
            let streaming = c.stream > 0;
            match (self.open_stream[i], streaming) {
                (None, true) => self.open_stream[i] = Some(cycle.saturating_sub(1)),
                (Some(start), false) => {
                    self.spans.push(Span {
                        tid: 2 * i as u32 + 1,
                        name: "recycle_stream",
                        start,
                        end: cycle,
                    });
                    self.open_stream[i] = None;
                }
                _ => {}
            }
        }
    }
}

/// What to attach when enabling probes.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// Keep the most recent N events in a ring (None: no ring).
    pub ring: Option<usize>,
    /// Aggregate the time series every N cycles (None: no series).
    pub interval: Option<u64>,
    /// Record Perfetto spans and instants.
    pub spans: bool,
    /// Build attribution tables and the path tree (`multipath explain`).
    pub explain: bool,
    /// Event filter applied by the ring and the span instants.
    pub filter: EventFilter,
}

impl Default for ProbeConfig {
    fn default() -> ProbeConfig {
        ProbeConfig {
            ring: None,
            interval: Some(100),
            spans: false,
            explain: false,
            filter: EventFilter::all(),
        }
    }
}

impl ProbeConfig {
    /// Only the explain sinks (attribution tables and the path tree), as
    /// `multipath explain` attaches them.
    pub fn explain() -> ProbeConfig {
        ProbeConfig {
            interval: None,
            explain: true,
            ..ProbeConfig::default()
        }
    }
}

/// The attached probe set: fans every event / cycle boundary out to the
/// configured sinks. Itself a [`ProbeSink`], so external drivers can
/// compose it like any other sink.
#[derive(Debug)]
pub struct Probes {
    /// Ring of recent events, if configured.
    pub ring: Option<RingSink>,
    /// Interval time series, if configured.
    pub interval: Option<IntervalSink>,
    /// Perfetto span recorder, if configured.
    pub spans: Option<SpanRecorder>,
    /// Attribution tables (taxonomy, per-PC, per-class), if configured.
    pub attribution: Option<crate::explain::AttributionSink>,
    /// Path-tree recorder (fork/merge/squash DAG), if configured.
    pub tree: Option<crate::explain::PathTreeSink>,
    /// Scratch buffer for per-cycle context views (reused, no allocation
    /// in steady state).
    pub(crate) views: Vec<CtxView>,
}

impl Probes {
    /// Builds the sink set described by `config`.
    pub fn new(config: ProbeConfig) -> Probes {
        Probes {
            ring: config.ring.map(|cap| RingSink::new(cap, config.filter)),
            interval: config.interval.map(IntervalSink::new),
            spans: config.spans.then(|| SpanRecorder::new(config.filter)),
            attribution: config
                .explain
                .then(crate::explain::AttributionSink::default),
            tree: config.explain.then(crate::explain::PathTreeSink::new),
            views: Vec::new(),
        }
    }

    /// Closes the interval series and open spans (end of run).
    pub fn finish(&mut self, cycle: u64, stats: &Stats) {
        if let Some(iv) = &mut self.interval {
            iv.finish(cycle, stats);
        }
        if let Some(sp) = &mut self.spans {
            sp.finish(cycle);
        }
        if let Some(tr) = &mut self.tree {
            tr.finish(cycle);
        }
    }
}

impl ProbeSink for Probes {
    fn event(&mut self, ev: &Event) {
        if let Some(ring) = &mut self.ring {
            ring.event(ev);
        }
        if let Some(iv) = &mut self.interval {
            iv.event(ev);
        }
        if let Some(sp) = &mut self.spans {
            sp.event(ev);
        }
        if let Some(at) = &mut self.attribution {
            at.event(ev);
        }
        if let Some(tr) = &mut self.tree {
            tr.event(ev);
        }
    }

    fn cycle_end(&mut self, cycle: u64, stats: &Stats, ctxs: &[CtxView]) {
        if let Some(ring) = &mut self.ring {
            ring.cycle_end(cycle, stats, ctxs);
        }
        if let Some(iv) = &mut self.interval {
            iv.cycle_end(cycle, stats, ctxs);
        }
        if let Some(sp) = &mut self.spans {
            sp.cycle_end(cycle, stats, ctxs);
        }
    }
}

pub(crate) fn json_u64_array(out: &mut String, vals: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

pub(crate) fn json_str_array(out: &mut String, vals: impl Iterator<Item = &'static str>) {
    out.push('[');
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{v}\"");
    }
    out.push(']');
}

/// Renders the versioned machine-readable stats document
/// (`multipath-stats/v1`): the full counter vector with names, per-program
/// commits, the derived paper metrics, and (optionally) the interval time
/// series. Deterministic byte-for-byte for a given run — the unit of the
/// CI stats-drift gate.
pub fn stats_json(
    label: &str,
    features: &str,
    stats: &Stats,
    intervals: Option<&IntervalSink>,
) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n  \"schema\": \"multipath-stats/v1\",\n");
    let _ = writeln!(out, "  \"label\": \"{label}\",");
    let _ = writeln!(out, "  \"features\": \"{features}\",");
    out.push_str("  \"counter_names\": ");
    json_str_array(&mut out, Stats::COUNTER_NAMES.iter().copied());
    out.push_str(",\n  \"counters\": ");
    json_u64_array(&mut out, stats.counters().iter().copied());
    out.push_str(",\n  \"committed_per_program\": ");
    json_u64_array(&mut out, stats.committed_per_program.iter().copied());
    out.push_str(",\n  \"derived\": {");
    let derived: [(&str, f64); 10] = [
        ("ipc", stats.ipc()),
        ("pct_recycled", stats.pct_recycled()),
        ("pct_reused", stats.pct_reused()),
        ("pct_miss_covered", stats.pct_miss_covered()),
        ("pct_forks_tme", stats.pct_forks_tme()),
        ("pct_forks_recycled", stats.pct_forks_recycled()),
        ("pct_forks_respawned", stats.pct_forks_respawned()),
        ("merges_per_alt_path", stats.merges_per_alt_path()),
        ("pct_back_merges", stats.pct_back_merges()),
        ("branch_accuracy", stats.branch_accuracy()),
    ];
    for (i, (name, v)) in derived.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{name}\": {v:.6}");
    }
    out.push_str("\n  }");
    if let Some(sink) = intervals {
        let _ = write!(
            out,
            ",\n  \"intervals\": {{\n    \"width\": {},\n    \"count\": {},",
            sink.width(),
            sink.intervals().len()
        );
        out.push_str("\n    \"role_names\": ");
        json_str_array(&mut out, CtxStateKind::ALL.iter().map(|r| r.name()));
        out.push_str(",\n    \"class_names\": ");
        json_str_array(&mut out, InstClass::ALL.iter().map(|c| c.name()));
        out.push_str(",\n    \"ends\": ");
        json_u64_array(&mut out, sink.intervals().iter().map(|iv| iv.end_cycle));
        for (key, get) in [
            (
                "counters",
                (|iv: &Interval| iv.counters.to_vec()) as fn(&Interval) -> Vec<u64>,
            ),
            ("role_cycles", |iv| iv.role_cycles.to_vec()),
            ("live_by_role", |iv| iv.live_by_role.to_vec()),
            ("renamed_by_class", |iv| iv.renamed_by_class.to_vec()),
            ("recycled_by_class", |iv| iv.recycled_by_class.to_vec()),
            ("reused_by_class", |iv| iv.reused_by_class.to_vec()),
            ("committed_by_class", |iv| iv.committed_by_class.to_vec()),
        ] {
            let _ = write!(out, ",\n    \"{key}\": [");
            for (i, iv) in sink.intervals().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_u64_array(&mut out, get(iv).into_iter());
            }
            out.push(']');
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Renders the interval time series as CSV: a `start,end` pair followed by
/// every counter delta, one row per closed interval, with a
/// [`Stats::COUNTER_NAMES`] header — `multipath trace --format csv`.
pub fn intervals_csv(sink: &IntervalSink) -> String {
    let mut out = String::with_capacity(64 * (sink.intervals().len() + 1));
    out.push_str("start_cycle,end_cycle");
    for name in Stats::COUNTER_NAMES {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for iv in sink.intervals() {
        let _ = write!(out, "{},{}", iv.start_cycle, iv.end_cycle);
        for v in iv.counters.iter() {
            let _ = write!(out, ",{v}");
        }
        out.push('\n');
    }
    out
}

/// Host-side wall-clock accumulation per pipeline stage. Enabled with
/// `Simulator::enable_host_profile`; `report` renders shares next to the
/// simulated work so a slow stage is attributable (e.g. "rename is 40% of
/// host time at IPC 3.2" — the methodology note in EXPERIMENTS.md).
///
/// The profile samples: only cycles whose number is a multiple of
/// [`StageProfile::SAMPLE_PERIOD`] are timed, so every field covers the
/// same `steps` sampled cycles and a stage time divided by `steps` is the
/// stage's mean host time per simulated cycle.
#[derive(Debug, Default, Clone)]
pub struct StageProfile {
    /// Host time in the commit stage.
    pub commit: Duration,
    /// Host time in writeback + branch resolution.
    pub writeback: Duration,
    /// Host time in issue/select/execute.
    pub issue: Duration,
    /// Host time in rename (including recycling and forking).
    pub rename: Duration,
    /// Host time in fetch + merge detection.
    pub fetch: Duration,
    /// Host time spent in the probe layer itself (sink dispatch).
    pub probes: Duration,
    /// Cycles profiled (the sampled ones).
    pub steps: u64,
}

impl StageProfile {
    /// One simulated cycle in this many is timed. Reading the clock on
    /// every cycle made serving simulations 1.2× to 1.27× slower; one in
    /// 16 leaves the untimed cycles on the production path.
    pub const SAMPLE_PERIOD: u64 = 16;

    /// Total profiled host time across stages.
    pub fn total(&self) -> Duration {
        self.commit + self.writeback + self.issue + self.rename + self.fetch + self.probes
    }

    /// `(stage name, accumulated time)` rows, pipeline order.
    pub fn rows(&self) -> [(&'static str, Duration); 6] {
        [
            ("commit", self.commit),
            ("writeback", self.writeback),
            ("issue", self.issue),
            ("rename", self.rename),
            ("fetch", self.fetch),
            ("probes", self.probes),
        ]
    }

    /// Renders the per-stage host-time table, with simulated cycles/sec
    /// and the simulated IPC alongside for context.
    pub fn report(&self, sim_ipc: f64) -> String {
        let mut out = String::new();
        let total = self.total().as_secs_f64().max(1e-12);
        let _ = writeln!(
            out,
            "host profile: {} cycles sampled (1 in {}) in {:.3}s ({:.0} sim-cycles/s, sim IPC {:.3})",
            self.steps,
            Self::SAMPLE_PERIOD,
            total,
            self.steps as f64 / total,
            sim_ipc
        );
        for (name, d) in self.rows() {
            let ns_per_cycle = if self.steps == 0 {
                0.0
            } else {
                d.as_secs_f64() * 1e9 / self.steps as f64
            };
            let _ = writeln!(
                out,
                "  {name:<9} {:>8.3}s  {:>5.1}%  {ns_per_cycle:>8.1} ns/cycle",
                d.as_secs_f64(),
                100.0 * d.as_secs_f64() / total,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind) -> Event {
        Event {
            cycle,
            ctx: 0,
            pc: 0x1_0000,
            kind,
        }
    }

    #[test]
    fn filter_parses_names_and_rejects_unknown() {
        let f = EventFilter::parse("fork,merge,squash").unwrap();
        assert!(f.accepts(EventKind::Fork { alt: 1 }));
        assert!(f.accepts(EventKind::Merge {
            source: 2,
            len: 5,
            reuse: true
        }));
        assert!(!f.accepts(EventKind::Fetch { count: 8 }));
        assert!(EventFilter::parse("bogus").is_err());
        assert!(EventFilter::parse("all")
            .unwrap()
            .accepts(EventKind::PregStall));
    }

    #[test]
    fn event_names_align_with_tags() {
        let samples = [
            EventKind::Fetch { count: 1 },
            EventKind::Rename {
                class: InstClass::IntAlu,
            },
            EventKind::Recycle {
                class: InstClass::Load,
            },
            EventKind::Reuse {
                class: InstClass::Store,
            },
            EventKind::Issue {
                class: InstClass::Fp,
            },
            EventKind::Commit {
                class: InstClass::Branch,
            },
            EventKind::Resolve {
                mispredicted: false,
                covered: false,
                cond: true,
                conf: 0,
            },
            EventKind::Fork { alt: 0 },
            EventKind::Respawn { alt: 0 },
            EventKind::Merge {
                source: 0,
                len: 0,
                reuse: false,
            },
            EventKind::BackMerge { len: 0 },
            EventKind::Squash { count: 0 },
            EventKind::PregStall,
            EventKind::ForkRefused {
                reason: RefuseReason::NoSpare,
            },
            EventKind::ReuseDenied {
                class: InstClass::Load,
                cause: ReuseDeny::MemInvalidated,
            },
            EventKind::Promote { alt: 1 },
        ];
        assert_eq!(samples.len(), EventKind::COUNT);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.tag(), i);
            assert_eq!(s.name(), EventKind::NAMES[i]);
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut ring = RingSink::new(4, EventFilter::all());
        for c in 0..10 {
            ring.event(&ev(c, EventKind::PregStall));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped, 6);
        assert_eq!(ring.events().next().unwrap().cycle, 6);
    }

    #[test]
    fn interval_sums_telescope() {
        let mut sink = IntervalSink::new(10);
        let mut stats = Stats::new(1);
        for cycle in 1..=35 {
            stats.cycles = cycle;
            stats.committed += 2;
            stats.renamed += 3;
            sink.cycle_end(cycle, &stats, &[]);
        }
        // Simulate a finalize_stats bump after the last step.
        stats.merges += 5;
        sink.finish(35, &stats);
        assert_eq!(sink.intervals().len(), 4);
        assert_eq!(sink.counter_sums(), stats.counters());
    }

    #[test]
    fn span_recorder_closes_roles_and_streams() {
        let mut sp = SpanRecorder::new(EventFilter::all());
        let view = |role, stream| CtxView {
            role,
            live: 1,
            stream,
        };
        let s = Stats::new(1);
        sp.cycle_end(1, &s, &[view(CtxStateKind::Primary, 0)]);
        for c in 2..5 {
            sp.cycle_end(c, &s, &[view(CtxStateKind::Primary, 3)]);
        }
        sp.cycle_end(5, &s, &[view(CtxStateKind::Inactive, 0)]);
        sp.event(&ev(3, EventKind::Fork { alt: 1 }));
        sp.finish(8);
        // Primary [0,5), inactive [5,8), one stream span.
        assert_eq!(sp.span_count(), 3);
        assert_eq!(sp.instant_count(), 1);
        let json = sp.chrome_trace_json(1);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"primary\""));
        assert!(json.contains("recycle_stream"));
        assert!(json.contains("fork->ctx1"));
    }

    #[test]
    fn stats_json_includes_counters_and_intervals() {
        let mut stats = Stats::new(2);
        stats.cycles = 100;
        stats.committed = 250;
        let mut sink = IntervalSink::new(50);
        stats.cycles = 50;
        sink.cycle_end(50, &stats, &[]);
        stats.cycles = 100;
        sink.finish(100, &stats);
        let doc = stats_json("demo", "REC+RS+RU", &stats, Some(&sink));
        assert!(doc.contains("\"schema\": \"multipath-stats/v1\""));
        assert!(doc.contains("\"cycles\""));
        assert!(doc.contains("\"width\": 50"));
        assert!(doc.contains("\"ipc\": 2.500000"));
    }

    #[test]
    fn refuse_and_deny_taxonomies_are_dense() {
        for (i, r) in RefuseReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        for (i, d) in ReuseDeny::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
        assert_eq!(RefuseReason::ALL.len(), RefuseReason::COUNT);
        assert_eq!(ReuseDeny::ALL.len(), ReuseDeny::COUNT);
    }

    #[test]
    fn intervals_csv_has_header_and_one_row_per_interval() {
        let mut sink = IntervalSink::new(10);
        let mut stats = Stats::new(1);
        for cycle in 1..=25 {
            stats.cycles = cycle;
            stats.renamed += 2;
            sink.cycle_end(cycle, &stats, &[]);
        }
        sink.finish(25, &stats);
        let csv = intervals_csv(&sink);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + sink.intervals().len());
        assert!(lines[0].starts_with("start_cycle,end_cycle,cycles,"));
        assert_eq!(
            lines[0].split(',').count(),
            2 + Stats::NUM_COUNTERS,
            "header column count"
        );
        // Every row has the same arity and the deltas sum per column.
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), 2 + Stats::NUM_COUNTERS);
        }
        let renamed_col = 2 + Stats::COUNTER_NAMES
            .iter()
            .position(|&n| n == "renamed")
            .unwrap();
        let sum: u64 = lines[1..]
            .iter()
            .map(|r| {
                r.split(',')
                    .nth(renamed_col)
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(sum, stats.renamed);
    }
}
