//! Pipeline tracing: compact per-cycle occupancy timelines.
//!
//! A [`CycleSample`] records, for one cycle, what each hardware context is
//! doing and how much work moved through the major stages; `sample_window`
//! steps the simulator and collects samples, and [`render_timeline`] turns
//! them into a text chart — the quickest way to *see* forking, draining,
//! recycling streams, and starvation:
//!
//! ```text
//! cycle    ctx: 0        1        2        ...   fet ren com
//! 1000     P 37+s12  A 8       I 22        ...    8   16   9
//! ```
//!
//! Legend: `P` primary, `A` alternate (`a` once resolved), `D` draining,
//! `I` inactive, `.` idle; the number is live active-list entries; `+sN`
//! marks an active recycle stream with `N` instructions remaining.

use crate::context::CtxState;
use crate::probe::CtxView;
use crate::sim::Simulator;

/// A compact mirror of [`CtxState`] for display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxStateKind {
    /// No path.
    Idle,
    /// The architectural path.
    Primary,
    /// A speculative alternate path (branch unresolved).
    Alternate,
    /// An alternate whose branch resolved (finishing its policy tail).
    AlternateResolved,
    /// A displaced primary committing its remainder.
    Draining,
    /// A retained, recyclable trace.
    Inactive,
}

impl CtxStateKind {
    /// Number of roles (the width of role-occupancy histograms).
    pub const COUNT: usize = 6;

    /// All roles, index-aligned with [`CtxStateKind::index`].
    pub const ALL: [CtxStateKind; CtxStateKind::COUNT] = [
        CtxStateKind::Idle,
        CtxStateKind::Primary,
        CtxStateKind::Alternate,
        CtxStateKind::AlternateResolved,
        CtxStateKind::Draining,
        CtxStateKind::Inactive,
    ];

    /// Classifies a full [`CtxState`] into its display role.
    pub fn of(state: CtxState) -> CtxStateKind {
        match state {
            CtxState::Idle => CtxStateKind::Idle,
            CtxState::Primary => CtxStateKind::Primary,
            CtxState::Alternate {
                resolved: false, ..
            } => CtxStateKind::Alternate,
            CtxState::Alternate { resolved: true, .. } => CtxStateKind::AlternateResolved,
            CtxState::Draining => CtxStateKind::Draining,
            CtxState::Inactive => CtxStateKind::Inactive,
        }
    }

    /// Dense index into role-occupancy histograms.
    pub fn index(self) -> usize {
        match self {
            CtxStateKind::Idle => 0,
            CtxStateKind::Primary => 1,
            CtxStateKind::Alternate => 2,
            CtxStateKind::AlternateResolved => 3,
            CtxStateKind::Draining => 4,
            CtxStateKind::Inactive => 5,
        }
    }

    /// Human-readable role name (stats.json / Perfetto track labels).
    pub fn name(self) -> &'static str {
        match self {
            CtxStateKind::Idle => "idle",
            CtxStateKind::Primary => "primary",
            CtxStateKind::Alternate => "alternate",
            CtxStateKind::AlternateResolved => "alternate_resolved",
            CtxStateKind::Draining => "draining",
            CtxStateKind::Inactive => "inactive",
        }
    }

    /// One-character display form.
    pub fn glyph(self) -> char {
        match self {
            CtxStateKind::Idle => '.',
            CtxStateKind::Primary => 'P',
            CtxStateKind::Alternate => 'A',
            CtxStateKind::AlternateResolved => 'a',
            CtxStateKind::Draining => 'D',
            CtxStateKind::Inactive => 'I',
        }
    }
}

/// One cycle of pipeline activity.
#[derive(Debug, Clone)]
pub struct CycleSample {
    /// The cycle this sample describes.
    pub cycle: u64,
    /// Per-context activity.
    pub contexts: Vec<CtxView>,
    /// Instructions fetched this cycle.
    pub fetched: u64,
    /// Instructions renamed this cycle (including recycled).
    pub renamed: u64,
    /// ... of which recycled.
    pub recycled: u64,
    /// Instructions committed this cycle.
    pub committed: u64,
}

/// Steps the simulator `cycles` times, returning one sample per cycle.
pub fn sample_window(sim: &mut Simulator, cycles: u64) -> Vec<CycleSample> {
    let counters = |sim: &Simulator| {
        let s = sim.stats();
        [s.fetched, s.renamed, s.recycled, s.committed]
    };
    let mut out = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        let before = counters(sim);
        sim.step();
        let [fetched, renamed, recycled, committed] = counters(sim);
        out.push(CycleSample {
            cycle: sim.cycle(),
            contexts: sim.ctx_views().collect(),
            fetched: fetched - before[0],
            renamed: renamed - before[1],
            recycled: recycled - before[2],
            committed: committed - before[3],
        });
    }
    out
}

/// Renders samples as a text timeline (one row per `stride` cycles).
pub fn render_timeline(samples: &[CycleSample], stride: usize) -> String {
    let mut out = String::new();
    let Some(first) = samples.first() else {
        return out;
    };
    out.push_str(&format!("{:>8}  ", "cycle"));
    for i in 0..first.contexts.len() {
        out.push_str(&format!("{:<9}", format!("ctx{i}")));
    }
    out.push_str(" fet ren rec com\n");
    for sample in samples.iter().step_by(stride.max(1)) {
        out.push_str(&format!("{:>8}  ", sample.cycle));
        for c in &sample.contexts {
            let cell = if c.stream > 0 {
                format!("{} {}+s{}", c.role.glyph(), c.live, c.stream)
            } else {
                format!("{} {}", c.role.glyph(), c.live)
            };
            out.push_str(&format!("{cell:<9}"));
        }
        out.push_str(&format!(
            "{:>4}{:>4}{:>4}{:>4}\n",
            sample.fetched, sample.renamed, sample.recycled, sample.committed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Features, SimConfig};
    use multipath_workload::{kernels, Benchmark};

    #[test]
    fn sampling_tracks_work() {
        let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        let mut sim = Simulator::new(config, vec![kernels::build(Benchmark::Compress, 1)]);
        // Warm up, then sample.
        sim.run(2_000, 100_000);
        let start_committed = sim.stats().committed;
        let samples = sample_window(&mut sim, 200);
        assert_eq!(samples.len(), 200);
        let total: u64 = samples.iter().map(|s| s.committed).sum();
        assert_eq!(total, sim.stats().committed - start_committed);
        assert!(samples.iter().any(|s| s.fetched > 0));
        assert!(
            samples
                .iter()
                .any(|s| s.contexts.iter().any(|c| c.role != CtxStateKind::Idle)),
            "something must be running"
        );
    }

    #[test]
    fn timeline_renders() {
        let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        let mut sim = Simulator::new(config, vec![kernels::build(Benchmark::Go, 1)]);
        sim.run(1_000, 100_000);
        let samples = sample_window(&mut sim, 64);
        let text = render_timeline(&samples, 8);
        assert!(text.contains("ctx0"));
        assert!(text.lines().count() >= 8);
    }

    #[test]
    fn role_indices_are_dense_and_aligned() {
        for (i, role) in CtxStateKind::ALL.iter().enumerate() {
            assert_eq!(role.index(), i);
        }
        let mut names: Vec<&str> = CtxStateKind::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CtxStateKind::COUNT);
    }

    #[test]
    fn glyphs_are_distinct() {
        let all = [
            CtxStateKind::Idle,
            CtxStateKind::Primary,
            CtxStateKind::Alternate,
            CtxStateKind::AlternateResolved,
            CtxStateKind::Draining,
            CtxStateKind::Inactive,
        ];
        let mut glyphs: Vec<char> = all.iter().map(|k| k.glyph()).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), all.len());
    }
}
