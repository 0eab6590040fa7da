//! The five audit apps, worklist digests, and grading against the
//! generators' injected-error records.
//!
//! The grading predicates for the fuzzed corpus are the ones the
//! injection-recall conformance experiment uses (`loa_eval`), restated
//! here because that experiment keeps them private and only reports
//! top-k hits, not full-worklist ranks.

use fixy_core::prelude::*;
use loa_data::{DetectionProvenance, FrameId, ObservationSource, SceneData, TrackId};

/// A batch app: one of the five `SceneRanker`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    MissingTracks,
    MissingObs,
    ModelErrors,
    LabelAudit,
    BundleAudit,
}

impl App {
    pub const ALL: [App; 5] =
        [App::MissingTracks, App::MissingObs, App::ModelErrors, App::LabelAudit, App::BundleAudit];

    pub fn name(self) -> &'static str {
        match self {
            App::MissingTracks => "missing-tracks",
            App::MissingObs => "missing-obs",
            App::ModelErrors => "model-errors",
            App::LabelAudit => "label-audit",
            App::BundleAudit => "bundle-audit",
        }
    }

    pub fn feature_set(self) -> FeatureSet {
        match self {
            App::MissingTracks => MissingTrackFinder::default().feature_set(),
            App::MissingObs => MissingObsFinder::default().feature_set(),
            App::ModelErrors => ModelErrorFinder::default().feature_set(),
            App::LabelAudit => LabelAuditFinder::default().feature_set(),
            App::BundleAudit => BundleAuditFinder.feature_set(),
        }
    }

    /// The assembly the batch pipeline ranks the app's scenes with.
    pub fn batch_assembly(self) -> AssemblyConfig {
        with_ranker!(self, |r| SceneRanker::assembly(&r))
    }

    /// The assembly the app's library is fitted on: human-only (the
    /// `Learner` default) except bundle consistency, which is learned
    /// from matched human and model boxes.
    pub fn train_assembly(self) -> AssemblyConfig {
        match self {
            App::BundleAudit => AssemblyConfig::default(),
            _ => Learner::new().assembly,
        }
    }
}

/// Run `$body` with `$r` bound to the app's `SceneRanker`.
macro_rules! with_ranker {
    ($app:expr, |$r:ident| $body:expr) => {
        match $app {
            $crate::audit::App::MissingTracks => {
                let $r = fixy_core::prelude::MissingTrackFinder::default();
                $body
            }
            $crate::audit::App::MissingObs => {
                let $r = fixy_core::prelude::MissingObsFinder::default();
                $body
            }
            $crate::audit::App::ModelErrors => {
                let $r = fixy_core::prelude::ModelErrorFinder::default();
                $body
            }
            $crate::audit::App::LabelAudit => {
                let $r = fixy_core::prelude::LabelAuditFinder::default();
                $body
            }
            $crate::audit::App::BundleAudit => {
                let $r = fixy_core::prelude::BundleAuditFinder;
                $body
            }
        }
    };
}
pub(crate) use with_ranker;

/// FNV-1a, so a worklist compares as one number.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A ranked candidate: the element index it flags, its score, and how
/// its rank is graded.
pub trait Candidate {
    fn element(&self) -> usize;
    fn score(&self) -> f64;
    /// Whether this candidate is the injected `error` of `app`.
    fn matches(&self, app: App, data: &SceneData, scene: &Scene, error: &Injected) -> bool;
    /// The worklist as track candidates, if that is its kind.
    fn track_list(cands: &[Self]) -> Option<&[TrackCandidate]>
    where
        Self: Sized;
}

/// Digest of a batch worklist: element indices and score bits in order.
pub fn digest<C: Candidate>(cands: &[C]) -> u64 {
    let mut h = Fnv::default();
    for c in cands {
        h.u64(c.element() as u64);
        h.u64(c.score().to_bits());
    }
    h.finish()
}

/// Digest of a served worklist: labels and score bits in order.
pub fn digest_entries(entries: &[(String, f64)]) -> u64 {
    let mut h = Fnv::default();
    for (label, score) in entries {
        h.bytes(label.as_bytes());
        h.bytes(&[0]);
        h.u64(score.to_bits());
    }
    h.finish()
}

/// The served form of a missing-tracks worklist: what
/// `loa_serve::ServeContext` returns for the same candidates.
pub fn served_entries(cands: &[TrackCandidate]) -> Vec<(String, f64)> {
    cands.iter().map(|c| (c.class.to_string(), c.score)).collect()
}

/// One injected error of the kind an app is graded on.
#[derive(Debug, Clone, Copy)]
pub enum Injected {
    MissingTrack(TrackId),
    MissingBox(TrackId, FrameId),
    ClassSwap(TrackId),
    Ghost(loa_data::GhostId),
    InconsistentBundle(TrackId, FrameId),
}

/// The errors `app` is graded on in a fuzzed scene (the five-kind
/// audit: one kind per app).
pub fn fuzz_errors(app: App, data: &SceneData) -> Vec<Injected> {
    let inj = &data.injected;
    match app {
        App::MissingTracks => inj
            .missing_tracks
            .iter()
            .map(|m| Injected::MissingTrack(m.track))
            .collect(),
        App::MissingObs => inj
            .missing_boxes
            .iter()
            .map(|m| Injected::MissingBox(m.track, m.frame))
            .collect(),
        App::LabelAudit => inj.class_swaps.iter().map(|s| Injected::ClassSwap(s.track)).collect(),
        App::ModelErrors => inj.ghost_tracks.iter().map(|(g, _)| Injected::Ghost(*g)).collect(),
        App::BundleAudit => inj
            .inconsistent_bundles
            .iter()
            .map(|b| Injected::InconsistentBundle(b.track, b.frame))
            .collect(),
    }
}

/// 0-based rank of `error` in the full worklist, if it is there.
pub fn rank_of<C: Candidate>(
    app: App,
    data: &SceneData,
    scene: &Scene,
    cands: &[C],
    error: &Injected,
) -> Option<usize> {
    cands.iter().position(|c| c.matches(app, data, scene, error))
}

/// Reciprocal-rank and top-10 tallies over graded errors.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Grade {
    pub errors: u64,
    pub reciprocal_sum: f64,
    pub in_top10: u64,
}

impl Grade {
    pub fn add(&mut self, rank: Option<usize>) {
        self.errors += 1;
        if let Some(r) = rank {
            self.reciprocal_sum += 1.0 / (r as f64 + 1.0);
            if r < 10 {
                self.in_top10 += 1;
            }
        }
    }

    pub fn merge(&mut self, other: Grade) {
        self.errors += other.errors;
        self.reciprocal_sum += other.reciprocal_sum;
        self.in_top10 += other.in_top10;
    }

    pub fn mrr(&self) -> f64 {
        self.reciprocal_sum / self.errors.max(1) as f64
    }

    pub fn recall_at_10(&self) -> f64 {
        self.in_top10 as f64 / self.errors.max(1) as f64
    }
}

impl Candidate for TrackCandidate {
    fn element(&self) -> usize {
        self.track.0
    }

    fn track_list(cands: &[Self]) -> Option<&[TrackCandidate]> {
        Some(cands)
    }

    fn score(&self) -> f64 {
        self.score
    }

    fn matches(&self, app: App, data: &SceneData, scene: &Scene, error: &Injected) -> bool {
        match (app, *error) {
            (App::MissingTracks, Injected::MissingTrack(actor)) => {
                majority_actor(data, scene, self.track) == Some(actor)
            }
            (App::LabelAudit, Injected::ClassSwap(actor)) => {
                track_has_label_of(data, scene, self.track, actor)
            }
            (App::ModelErrors, Injected::Ghost(ghost)) => {
                is_ghost_track(data, scene, self.track, ghost)
            }
            _ => false,
        }
    }
}

impl Candidate for BundleCandidate {
    fn element(&self) -> usize {
        self.bundle.0
    }

    fn track_list(_: &[Self]) -> Option<&[TrackCandidate]> {
        None
    }

    fn score(&self) -> f64 {
        self.score
    }

    fn matches(&self, app: App, data: &SceneData, scene: &Scene, error: &Injected) -> bool {
        match (app, *error) {
            (App::MissingObs, Injected::MissingBox(actor, frame)) => {
                bundle_has_detection_of(data, scene, self.bundle, actor, frame)
            }
            (App::BundleAudit, Injected::InconsistentBundle(actor, frame)) => {
                bundle_has_label_of(data, scene, self.bundle, actor, frame)
            }
            _ => false,
        }
    }
}

/// Rank of a generator-recorded missing track in a missing-tracks
/// worklist, judged as `fixy rank --grade` does: the candidate must
/// resolve as a missing-track hit whose majority actor is that track.
pub fn missing_track_rank(
    data: &SceneData,
    scene: &Scene,
    cands: &[TrackCandidate],
    actor: TrackId,
) -> Option<usize> {
    cands.iter().position(|c| {
        loa_eval::resolve_track_candidate(data, scene, c.track)
            == loa_eval::CandidateTruth::MissingTrack
            && loa_eval::resolve::resolve_track(data, scene, c.track)
                .majority_actor
                .map(|(a, _)| a)
                == Some(actor)
    })
}

fn majority_actor(data: &SceneData, scene: &Scene, track: TrackIdx) -> Option<TrackId> {
    loa_eval::resolve::resolve_track(data, scene, track)
        .majority_actor
        .map(|(a, _)| a)
}

fn model_provenance(data: &SceneData, scene: &Scene, obs: ObsIdx) -> Option<DetectionProvenance> {
    let ob = scene.obs(obs);
    (ob.source == ObservationSource::Model)
        .then(|| data.frames[ob.frame.0 as usize].detections[ob.source_index].provenance)
}

fn human_actor(data: &SceneData, scene: &Scene, obs: ObsIdx) -> Option<TrackId> {
    let ob = scene.obs(obs);
    (ob.source == ObservationSource::Human)
        .then(|| data.frames[ob.frame.0 as usize].human_labels[ob.source_index].gt_track)
}

fn is_ghost_track(
    data: &SceneData,
    scene: &Scene,
    track: TrackIdx,
    ghost: loa_data::GhostId,
) -> bool {
    let obs = scene.track_obs(scene.track(track));
    let ghostly = obs
        .iter()
        .filter(|&&o| {
            model_provenance(data, scene, o) == Some(DetectionProvenance::PersistentGhost(ghost))
        })
        .count();
    2 * ghostly > obs.len()
}

fn bundle_has_detection_of(
    data: &SceneData,
    scene: &Scene,
    bundle: BundleIdx,
    actor: TrackId,
    frame: FrameId,
) -> bool {
    scene.bundle(bundle).frame == frame
        && scene.bundle_obs(bundle).iter().any(|&o| {
            model_provenance(data, scene, o) == Some(DetectionProvenance::TrueObject(actor))
        })
}

fn bundle_has_label_of(
    data: &SceneData,
    scene: &Scene,
    bundle: BundleIdx,
    actor: TrackId,
    frame: FrameId,
) -> bool {
    scene.bundle(bundle).frame == frame
        && scene
            .bundle_obs(bundle)
            .iter()
            .any(|&o| human_actor(data, scene, o) == Some(actor))
}

fn track_has_label_of(data: &SceneData, scene: &Scene, track: TrackIdx, actor: TrackId) -> bool {
    scene
        .track_obs_iter(track)
        .any(|o| human_actor(data, scene, o) == Some(actor))
}
