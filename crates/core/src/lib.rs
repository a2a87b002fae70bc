//! # multipath-core
//!
//! An execution-driven, cycle-level simulator of a simultaneous
//! multithreading (SMT) processor with Threaded Multipath Execution (TME)
//! and **instruction recycling** — a from-scratch reproduction of
//! *Wallace, Tullsen, Calder, "Instruction Recycling on a Multiple-Path
//! Processor", HPCA 1999*.
//!
//! The simulated machine (Section 4.1 of the paper) is a 16-wide, 8-context
//! SMT processor that fetches eight instructions from each of two threads
//! per cycle, with 12 integer and 6 floating-point functional units, two
//! 64-entry instruction queues, a 9-stage pipeline, gshare branch
//! prediction with a JRS confidence estimator, and a three-level cache
//! hierarchy. On top of it:
//!
//! * **TME** forks both paths of low-confidence conditional branches into
//!   spare hardware contexts, eliminating misprediction penalties when the
//!   alternate path turns out to be correct.
//! * **Recycling** (`REC`) keeps finished paths *inactive* rather than
//!   squashed: their active lists hold decoded traces that are injected
//!   back into the rename stage when the primary path merges with them —
//!   bypassing fetch and decode, and with them branch and cache-line fetch
//!   limits.
//! * **Reuse** (`RU`) goes further: a recycled instruction whose operands
//!   are unchanged re-uses its old physical register (and its old value),
//!   bypassing issue and execution entirely.
//! * **Re-spawning** (`RS`) re-creates an alternate path from an inactive
//!   context through the recycle datapath, consuming no fetch bandwidth.
//!
//! Values flow through a real physical register file, wrong paths truly
//! execute, and speculative stores are buffered per context — so reuse and
//! multipath interactions are exact rather than sampled.
//!
//! # Examples
//!
//! ```
//! use multipath_core::{Features, SimConfig, Simulator};
//! use multipath_workload::{kernels, Benchmark};
//!
//! // Compare plain SMT against the full recycle architecture on the
//! // compress kernel.
//! let mut results = Vec::new();
//! for features in [Features::smt(), Features::rec_rs_ru()] {
//!     let program = kernels::build(Benchmark::Compress, 42);
//!     let config = SimConfig::big_2_16().with_features(features);
//!     let mut sim = Simulator::new(config, vec![program]);
//!     results.push(sim.run(3_000, 100_000).ipc());
//! }
//! assert!(results.iter().all(|&ipc| ipc > 0.0));
//! ```

pub mod active_list;
pub mod arena;
pub mod cancel;
pub mod commit_stage;
pub mod config;
pub mod context;
pub mod emulator;
pub mod exec;
pub mod explain;
pub mod frontend;
pub mod ids;
pub mod iq;
pub mod issue_stage;
pub mod lsq;
pub mod map;
pub mod probe;
pub mod regfile;
pub mod rename_stage;
pub mod reuse;
pub mod run;
pub mod sim;
pub mod stats;
pub mod tme;
pub mod trace;
pub mod writeback;

pub use cancel::CancelToken;
pub use config::{AltPolicy, Features, RecycledPrediction, SimConfig};
pub use explain::{
    explain_json, explain_markdown, AttributionSink, BranchRow, MergeEdge, PathNode, PathNodeKind,
    PathTreeSink, SquashSite,
};
pub use ids::{CtxId, InstTag, PhysReg, ProgId};
pub use probe::{
    intervals_csv, stats_json, CtxView, Event, EventFilter, EventKind, InstClass, Interval,
    IntervalSink, ProbeConfig, ProbeSink, Probes, RefuseReason, ReuseDeny, RingSink, SpanRecorder,
    StageProfile,
};
pub use run::RunSpec;
pub use sim::{Group, ProgramInstance, Simulator};
pub use stats::Stats;
