//! The three workloads and the sizes of their inputs.
//!
//! Every input is a pure function of the workload, the seed and the
//! size class, so a seed names one fixed input set.

use loa_data::{DatasetProfile, FuzzProfile, SceneConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A fuzzed `.fscb` corpus ranked by all five apps through the
    /// batch pipeline with two workers.
    CorpusAudit,
    /// Long internal-profile scenes streamed in order over TCP, four
    /// sessions at a time, with a `STATS` barrier after every frame.
    FleetLive,
    /// Many short fuzzed sessions, eight open at a time, delivered
    /// shuffled with duplicates and never waited on per frame.
    SessionChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CorpusAudit, Workload::FleetLive, Workload::SessionChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusAudit => "corpus-audit",
            Workload::FleetLive => "fleet-live",
            Workload::SessionChurn => "session-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How many scenes of which shape a workload's input holds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Clean training scenes the libraries are fitted from.
    pub train: usize,
    /// Scenes the workload audits or streams.
    pub scenes: usize,
    /// Scene length in seconds of fleet-live's internal-profile scenes.
    pub fleet_duration: f64,
    /// Sessions open at once on the connection.
    pub concurrent: usize,
    /// Times setup is repeated in a run; `setup_s` is the median of
    /// those the host left alone.
    pub setups: usize,
    /// Sessions a traced session-churn run replays.
    pub traced_sessions: usize,
}

impl Sizes {
    pub fn of(workload: Workload, mini: bool) -> Sizes {
        let full = Sizes {
            train: 40,
            scenes: 160,
            fleet_duration: 60.0,
            concurrent: 4,
            setups: 7,
            traced_sessions: 512,
        };
        let sizes = match workload {
            Workload::CorpusAudit => full,
            Workload::FleetLive => Sizes { train: 24, scenes: 32, ..full },
            Workload::SessionChurn => Sizes { train: 60, scenes: 128, concurrent: 8, ..full },
        };
        if !mini {
            return sizes;
        }
        // A few seconds per run, for the self-test.
        Sizes {
            train: 4,
            scenes: if workload == Workload::FleetLive { 4 } else { 12 },
            fleet_duration: 4.0,
            concurrent: sizes.concurrent / 2,
            setups: 2,
            traced_sessions: 24,
        }
    }
}

/// ~15 s fuzzed scenes at 10 Hz with a larger crowd than the fuzzer's
/// default. The narrow duration and crowd ranges keep the work per
/// scene close to constant, so throughput moves little between seeds.
pub fn audit_profile() -> FuzzProfile {
    FuzzProfile {
        duration: (14.5, 15.5),
        frame_dt: 0.1,
        extra_actors: (14, 18),
        ..FuzzProfile::default()
    }
}

/// ~3 s fuzzed scenes at 10 Hz (about 30 frames) for session churn.
pub fn churn_profile() -> FuzzProfile {
    FuzzProfile {
        duration: (2.8, 3.2),
        frame_dt: 0.1,
        ..FuzzProfile::default()
    }
}

/// The internal dataset profile at a given scene length, with twice the
/// crowd and a vendor that misses tracks more often (10% base rate
/// instead of 2.5%), so that every seed grades a few hundred missing
/// tracks and the quality metrics vary less from seed to seed. The
/// lidar is sparser (300 beams instead of 1,200) only to make generation
/// cheaper: the auditor never reads the lidar point counts.
pub fn internal_config(duration: f64) -> SceneConfig {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    cfg.world.duration = duration;
    for (_, n) in &mut cfg.world.actor_counts {
        *n *= 2;
    }
    cfg.vendor.track_miss_base = 0.10;
    cfg.lidar.beam_count = 300;
    cfg
}
