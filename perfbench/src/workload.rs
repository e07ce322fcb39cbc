//! The three workloads and the run loop that streams their instances.

use std::time::Instant;

use bench::checkpointing::Scenario;
use bench::scale::ScaleConfig;

use crate::instance::{run_prod, run_storm, Instance};

/// Checkpointed segments per `soak-ckpt` instance.
pub const SOAK_SEGMENTS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Diurnal,
    SoakCkpt,
    StormXlarge,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Diurnal, Workload::SoakCkpt, Workload::StormXlarge];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Diurnal => "diurnal",
            Workload::SoakCkpt => "soak-ckpt",
            Workload::StormXlarge => "storm-xlarge",
        }
    }

    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances whose simulated outcomes make up the *sim* metrics and
    /// the per-layer counts. A run always completes at least these, so
    /// those metrics are a pure function of the workload seed.
    pub fn scored_instances(self) -> usize {
        match self {
            Workload::Diurnal => 24,
            Workload::SoakCkpt => 16,
            Workload::StormXlarge => 2,
        }
    }

    /// Run instance `i` of the stream seeded by `seed`.
    pub fn run_instance(self, seed: u64, i: usize, traced: bool) -> Instance {
        let s = instance_seed(seed, i);
        match self {
            Workload::Diurnal => run_prod(&Scenario::prod_diurnal(), s, 1, traced),
            Workload::SoakCkpt => run_prod(&Scenario::soak_diurnal(), s, SOAK_SEGMENTS, traced),
            Workload::StormXlarge => run_storm(&ScaleConfig::xlarge(), s, traced),
        }
    }
}

/// Seed of instance `i` in the stream of workload seed `seed`
/// (splitmix64 of the pair).
fn instance_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The instances one run produced.
pub struct Run {
    pub workload: Workload,
    pub untraced: Vec<Instance>,
    /// Traced replays of the same instances (trace runs only).
    pub traced: Vec<Instance>,
    pub wall_s: f64,
}

/// Stream instances until the measured regions add up to `seconds` and
/// the scored prefix is complete. A trace run replays every instance
/// traced right after its untraced run, so the two differ only in the
/// instrumentation.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Run {
    let wall = Instant::now();
    let mut out = Run {
        workload,
        untraced: Vec::new(),
        traced: Vec::new(),
        wall_s: 0.0,
    };
    let mut measured_ns = 0u64;
    let mut i = 0;
    while i < workload.scored_instances() || (measured_ns as f64) < seconds * 1e9 {
        let inst = workload.run_instance(seed, i, false);
        measured_ns += inst.measured_ns;
        let mut failed = !inst.errors.is_empty();
        out.untraced.push(inst);
        if trace && !failed {
            let inst = workload.run_instance(seed, i, true);
            measured_ns += inst.measured_ns;
            failed = !inst.errors.is_empty();
            out.traced.push(inst);
        }
        if failed {
            break;
        }
        i += 1;
    }
    out.wall_s = wall.elapsed().as_secs_f64();
    out
}

impl Run {
    /// Every failed correctness check, tagged with its instance.
    pub fn errors(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (kind, insts) in [("untraced", &self.untraced), ("traced", &self.traced)] {
            for (i, inst) in insts.iter().enumerate() {
                out.extend(
                    inst.errors
                        .iter()
                        .map(|e| format!("{kind} instance {i}: {e}")),
                );
            }
        }
        out
    }
}
