//! `policy` — pluggable judge backends for the ERMS control loop.
//!
//! The paper's Data Judge is a fixed threshold machine (Formulas
//! (1)–(6)). This crate extracts the *decision* out of the CEP feature
//! plumbing into a [`JudgePolicy`] trait so alternative judges — learned
//! ones — can be dropped into the manager's judge pass without touching
//! the audit→CEP pipeline, the FileId-ordered visit, or the checkpoint
//! discipline:
//!
//! * the rule-based judge (in `erms`) implements the trait by running
//!   Formulas (1)–(6) against the windowed counts it reads through a
//!   [`CepProbe`];
//! * [`qlearn::QLearningJudge`] is a seeded tabular Q-learning /
//!   contextual-bandit judge over a small discretized feature space
//!   (windowed `N_d`, `N_b_max`, fresh-spike flag, replication,
//!   time-since-access bucket) with actions {boost, hold, shed, encode}
//!   and a reward fed each tick from the storage/energy meters;
//! * [`hmm::HmmJudge`] is a three-state hidden-Markov hot/cold
//!   classifier decoding each file's access stream by forward
//!   filtering (no Baum–Welch: the matrices are fixed, only the
//!   per-file posterior is state).
//!
//! Every backend is **deterministic per seed** and
//! [`Checkpointable`](checkpoint::Checkpointable): its learner state is
//! a snapshot section, so the byte-identical resume-equivalence guard
//! holds for learned judges exactly as it does for the rules. Learned
//! backends must also be *visit-order independent* within a judge pass
//! (no decision may depend on which files were classified before it in
//! the same pass): decisions read a table frozen at the start of the
//! pass, exploration randomness is derived per `(pass, file)` rather
//! than drawn from a sequential stream, and updates are batched and
//! applied in `FileId` order at [`JudgePolicy::end_pass`].

pub mod features;
pub mod hmm;
pub mod qlearn;

pub use features::{Discretizer, Features};
pub use hmm::{HmmConfig, HmmJudge};
pub use qlearn::{QConfig, QLearningJudge};

use simcore::SimTime;

/// The four data classes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataClass {
    Hot,
    Cooled,
    Normal,
    Cold,
}

/// Which judge implementation produced a verdict (and which the config
/// selects). `Rules` is the paper's threshold machine; the others are
/// the learned backends of this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JudgeBackend {
    /// Formulas (1)–(6) with fixed thresholds (the paper).
    #[default]
    Rules,
    /// Seeded tabular Q-learning over discretized CEP features.
    QLearning,
    /// Hidden-Markov hot/cold classifier over the access stream.
    Hmm,
}

impl JudgeBackend {
    /// Stable lowercase label used in CLI arguments, JSON reports and
    /// scenario names.
    pub fn as_str(self) -> &'static str {
        match self {
            JudgeBackend::Rules => "rules",
            JudgeBackend::QLearning => "qlearning",
            JudgeBackend::Hmm => "hmm",
        }
    }

    /// Parse the [`as_str`](Self::as_str) label back (CLI round trip).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rules" => Some(JudgeBackend::Rules),
            "qlearning" | "q" => Some(JudgeBackend::QLearning),
            "hmm" => Some(JudgeBackend::Hmm),
            _ => None,
        }
    }
}

impl std::fmt::Display for JudgeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a verdict came out the way it did.
///
/// Replaces the former `rule: u8` magic numbers (0–6). The numeric
/// codes are preserved through [`code`](Self::code) so anything that
/// serialized the old byte keeps its wire encoding; `#[non_exhaustive]`
/// because future backends (or future formulas) will add variants.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JudgeRule {
    /// No formula fired (code 0).
    Normal,
    /// Formula (1): per-replica file pressure `N_d / r > τ_M` (code 1).
    FilePressure,
    /// Formula (2): a single block bursting past `M_M` (code 2).
    BlockBurst,
    /// Formula (3): warm-block fraction above ε (code 3).
    WarmFraction,
    /// Formula (4): promoted as an overloaded datanode's top file
    /// (code 4).
    NodeOverload,
    /// Formula (5): boosted file whose demand fell away (code 5).
    Cooled,
    /// Formula (6): quiet past the cold age (code 6).
    ColdAge,
    /// A learned backend produced the verdict; carries which one
    /// (codes 7+, one per backend).
    Learned(JudgeBackend),
}

impl JudgeRule {
    /// The stable numeric code (the pre-enum `rule: u8` values 0–6;
    /// learned verdicts take 7 and up, one code per backend).
    pub fn code(self) -> u8 {
        match self {
            JudgeRule::Normal => 0,
            JudgeRule::FilePressure => 1,
            JudgeRule::BlockBurst => 2,
            JudgeRule::WarmFraction => 3,
            JudgeRule::NodeOverload => 4,
            JudgeRule::Cooled => 5,
            JudgeRule::ColdAge => 6,
            JudgeRule::Learned(JudgeBackend::Rules) => 0,
            JudgeRule::Learned(JudgeBackend::QLearning) => 7,
            JudgeRule::Learned(JudgeBackend::Hmm) => 8,
        }
    }

    /// Which backend this verdict is attributed to. Formula variants
    /// are the rules backend; `Learned` carries its producer.
    pub fn backend(self) -> JudgeBackend {
        match self {
            JudgeRule::Learned(b) => b,
            _ => JudgeBackend::Rules,
        }
    }
}

/// What the judge needs to know about a file to classify it.
#[derive(Debug, Clone)]
pub struct FileSnapshot {
    /// Dense namespace id — the sort key that keeps the judge pass in
    /// namespace-walk order.
    pub id: hdfs_sim::FileId,
    pub path: String,
    /// Current replication factor `r` of the file's data blocks.
    pub replication: usize,
    /// Data block ids; rendered to their client-trace names (`blk_N`)
    /// only at query time, so snapshotting a file allocates no strings.
    pub blocks: Vec<hdfs_sim::BlockId>,
    pub last_access: SimTime,
    /// Whether ERMS has boosted this file above the default factor.
    pub boosted: bool,
    /// Whether the file is already erasure-encoded.
    pub encoded: bool,
}

/// A classification result.
#[derive(Debug, Clone)]
pub struct Judgment {
    pub path: String,
    pub class: DataClass,
    /// Windowed access count `N_d`.
    pub n_d: f64,
    /// Largest windowed per-block count `N_b` seen while classifying
    /// (0 when Formula (1) short-circuited before the block scan).
    pub n_b_max: f64,
    /// Which formula (or learned backend) produced the verdict.
    pub rule: JudgeRule,
}

/// Lazy access to the windowed CEP aggregates a backend classifies
/// from.
///
/// The probe is *lazy* on purpose: the rules backend's Formula (1)
/// short-circuit — returning Hot before ever touching a block query —
/// is part of its trace contract (each `value_for` emits a `WindowEmit`
/// telemetry row), so the features cannot be computed eagerly on the
/// backends' behalf. Learned backends simply read everything.
pub trait CepProbe {
    /// Raw windowed open count for the file path (`N_d` *before* the
    /// per-block normalisation; divide by the block count to get
    /// whole-file accesses).
    fn file_accesses(&mut self, now: SimTime, path: &str) -> f64;

    /// Windowed access count for one block.
    fn block_accesses(&mut self, now: SimTime, block: hdfs_sim::BlockId) -> f64;
}

/// Per-tick meter readings the manager feeds reward-driven backends —
/// the storage/energy accounting the system already keeps, not new
/// instrumentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewardMeters {
    /// Physical bytes on disk over `logical × default_r` (1.0 = no
    /// elastic overhead; boosts push it above 1).
    pub storage_overhead: f64,
    /// Powered-on fraction of the standby pool (0 when there is no
    /// pool) — the energy price of the boosts currently held.
    pub standby_on_frac: f64,
}

/// A judge backend the manager can drive through dyn dispatch.
///
/// Implementations must be deterministic per seed and must make their
/// decisions independent of visit order *within* a judge pass (see
/// the crate docs). All learner state is part of
/// [`save_state`](checkpoint::Checkpointable::save_state) so resumes
/// are byte-identical.
pub trait JudgePolicy: checkpoint::Checkpointable {
    /// Which backend this is (verdict attribution and reporting).
    fn backend(&self) -> JudgeBackend;

    /// Classify one file. `fresh` is the manager's freshness-pattern
    /// flag for the path (the `create → open` correlation); `probe`
    /// reaches the windowed CEP aggregates.
    fn classify(
        &mut self,
        now: SimTime,
        file: &FileSnapshot,
        fresh: bool,
        probe: &mut dyn CepProbe,
    ) -> Judgment;

    /// Whether the manager should compute [`RewardMeters`] for this
    /// backend each tick. Defaults to `false` so the rules backend
    /// costs nothing extra.
    fn wants_reward(&self) -> bool {
        false
    }

    /// Start of a judge pass: the meters summarise the tick that just
    /// ended. Called once per tick, before any `classify`.
    fn begin_pass(&mut self, now: SimTime, meters: &RewardMeters) {
        let _ = (now, meters);
    }

    /// End of a judge pass, after the last `classify` of the tick.
    /// Learned backends apply their batched table updates here, in
    /// `FileId` order, so the table evolution is independent of visit
    /// order.
    fn end_pass(&mut self) {}

    /// Drop per-path learner state for a deleted file.
    fn forget_path(&mut self, path: &str) {
        let _ = path;
    }
}

/// SplitMix64 — the same mixer `simcore`'s RNG seeds with; used here to
/// derive per-`(pass, file)` exploration streams that are independent
/// of visit order.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_are_wire_stable() {
        // the pre-enum u8 values, byte for byte
        assert_eq!(JudgeRule::Normal.code(), 0);
        assert_eq!(JudgeRule::FilePressure.code(), 1);
        assert_eq!(JudgeRule::BlockBurst.code(), 2);
        assert_eq!(JudgeRule::WarmFraction.code(), 3);
        assert_eq!(JudgeRule::NodeOverload.code(), 4);
        assert_eq!(JudgeRule::Cooled.code(), 5);
        assert_eq!(JudgeRule::ColdAge.code(), 6);
        assert_eq!(JudgeRule::Learned(JudgeBackend::QLearning).code(), 7);
        assert_eq!(JudgeRule::Learned(JudgeBackend::Hmm).code(), 8);
    }

    #[test]
    fn rules_attribute_to_their_backend() {
        assert_eq!(JudgeRule::FilePressure.backend(), JudgeBackend::Rules);
        assert_eq!(JudgeRule::Normal.backend(), JudgeBackend::Rules);
        assert_eq!(
            JudgeRule::Learned(JudgeBackend::Hmm).backend(),
            JudgeBackend::Hmm
        );
    }

    #[test]
    fn backend_labels_round_trip() {
        for b in [
            JudgeBackend::Rules,
            JudgeBackend::QLearning,
            JudgeBackend::Hmm,
        ] {
            assert_eq!(JudgeBackend::parse(b.as_str()), Some(b));
            assert_eq!(b.to_string(), b.as_str());
        }
        assert_eq!(JudgeBackend::parse("q"), Some(JudgeBackend::QLearning));
        assert_eq!(JudgeBackend::parse("oracle"), None);
    }
}
