//! The one run pipeline: build the programs and the machine, attach the
//! sinks, run to the commit target, close the sinks.
//!
//! Every front end — the figure harness, the CLI, the serving layer, and the
//! golden-document tests — describes its simulation as a [`RunSpec`] and
//! reads the results off the finished [`Simulator`] through
//! [`Simulator::stats`], [`Simulator::take_probes`],
//! [`Simulator::host_profile`], and [`Simulator::cancelled`].

use crate::cancel::CancelToken;
use crate::config::SimConfig;
use crate::probe::ProbeConfig;
use crate::sim::Simulator;
use multipath_workload::micro::{self, MicroParams};
use multipath_workload::{mix, Benchmark};

/// One simulation: machine, workload, stopping rule, and attached sinks.
///
/// # Examples
///
/// ```
/// use multipath_core::{Features, RunSpec, SimConfig};
/// use multipath_workload::Benchmark;
///
/// let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
/// let sim = RunSpec::new(config, vec![Benchmark::Compress], 1, 3_000).run();
/// assert!(sim.stats().committed >= 3_000);
/// ```
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The fully configured machine.
    pub config: SimConfig,
    /// The co-scheduled kernels, in context-group order.
    pub benches: Vec<Benchmark>,
    /// A microbenchmark co-scheduled after the kernels, if any (see
    /// [`micro::build`]; it is built from `seed`).
    pub micro: Option<MicroParams>,
    /// Workload seed (see [`mix::programs`]).
    pub seed: u64,
    /// Committed instructions per program.
    pub commits: u64,
    /// Hard cycle cap.
    pub max_cycles: u64,
    /// Observability sinks to attach, if any.
    pub probes: Option<ProbeConfig>,
    /// Whether to accumulate the host per-stage wall-clock profile.
    pub host_profile: bool,
    /// Cooperative cancellation (deadlines), if any.
    pub cancel: Option<CancelToken>,
}

impl RunSpec {
    /// A bare run (no sinks, no cancellation) under the open-ended
    /// stopping rule of `multipath run`/`trace`/`explain` and the serving
    /// layer: at most `max(100 × target, 1M)` cycles, where the target is
    /// `commits` per program.
    pub fn new(config: SimConfig, benches: Vec<Benchmark>, seed: u64, commits: u64) -> RunSpec {
        let target = commits.saturating_mul(benches.len() as u64);
        RunSpec {
            config,
            benches,
            micro: None,
            seed,
            commits,
            max_cycles: target.saturating_mul(100).max(1_000_000),
            probes: None,
            host_profile: false,
            cancel: None,
        }
    }

    /// Runs the simulation and returns the machine finished: statistics
    /// finalized and probe sinks closed, ready to export.
    pub fn run(&self) -> Simulator {
        let mut programs = mix::programs(&self.benches, self.seed);
        programs.extend(self.micro.map(|params| micro::build(&params, self.seed)));
        let mut sim = Simulator::new(self.config.clone(), programs);
        if let Some(probes) = self.probes {
            sim.enable_probes(probes);
        }
        if self.host_profile {
            sim.enable_host_profile();
        }
        sim.cancel = self.cancel.clone();
        sim.run(self.target(), self.max_cycles);
        sim.finish_probes();
        sim
    }

    /// The commit target: `commits` for each program.
    pub fn target(&self) -> u64 {
        let programs = self.benches.len() + usize::from(self.micro.is_some());
        self.commits.saturating_mul(programs as u64)
    }

    /// Everything that determines the run's statistics, in a fixed field
    /// order: two specs with equal strings simulate identically. Sinks and
    /// cancellation are left out — they observe or cut short a run, never
    /// change what it computes. The microbenchmark is named only when set.
    pub fn canonical_string(&self) -> String {
        let benches: Vec<&str> = self.benches.iter().map(|b| b.name()).collect();
        let micro = match &self.micro {
            Some(params) => format!(";micro={params:?}"),
            None => String::new(),
        };
        format!(
            "config={};benches={}{micro};seed={};commits={};max_cycles={}",
            self.config.canonical_string(),
            benches.join("+"),
            self.seed,
            self.commits,
            self.max_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Features;

    #[test]
    fn open_ended_cap_is_a_hundred_cycles_per_commit_with_a_floor() {
        let config = SimConfig::big_2_16();
        let small = RunSpec::new(config.clone(), vec![Benchmark::Gcc], 1, 2_000);
        assert_eq!(small.max_cycles, 1_000_000);
        let big = RunSpec::new(config, vec![Benchmark::Gcc, Benchmark::Go], 1, 30_000);
        assert_eq!(big.max_cycles, 6_000_000);
    }

    #[test]
    fn canonical_string_names_every_result_knob() {
        let config = SimConfig::big_2_16().with_features(Features::rec());
        let base = RunSpec::new(config, vec![Benchmark::Li], 3, 500);
        let mut variants = vec![base.clone(); 7];
        variants[0].config = base.config.clone().with_features(Features::tme());
        variants[1].benches = vec![Benchmark::Go];
        variants[2].seed = 4;
        variants[3].commits = 501;
        variants[4].max_cycles = 7;
        variants[5].micro = Some(MicroParams::default());
        variants[6].micro = Some(MicroParams {
            loop_body: 48,
            ..MicroParams::default()
        });
        for v in &variants {
            assert_ne!(v.canonical_string(), base.canonical_string(), "{v:?}");
        }
        assert_ne!(
            variants[5].canonical_string(),
            variants[6].canonical_string()
        );
        assert!(!base.canonical_string().contains("micro"));
        let mut observed = base.clone();
        observed.probes = Some(ProbeConfig::default());
        observed.host_profile = true;
        observed.cancel = Some(CancelToken::new());
        assert_eq!(observed.canonical_string(), base.canonical_string());
    }
}
