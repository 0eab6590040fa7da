//! Resolving flagged candidates against the injected-error ground truth —
//! the role the paper's expert auditors played, exact here because the
//! generator recorded every injected error.
//!
//! This is the one grader every surface uses (`fixy fuzz`, `fixy rank
//! --grade`, the Section 8 experiments):
//!
//! * per injected error — [`injected_errors`] lists a scene's errors as
//!   typed [`InjectedError`]s, and [`InjectedError::is_flagged_by`] says
//!   whether a worklist entry is that error (recall: the rank of the
//!   first entry that flags it);
//! * per candidate — [`is_hit`] says whether a worklist entry is a true
//!   error of its app's kind (precision).
//!
//! The missing-track rules are two, kept apart on purpose: an injected
//! missing track is flagged by a candidate whose *plurality* actor is the
//! missed one, while a candidate is a missing-track hit
//! ([`missing_track_hit_actor`]) only when a *strict majority* of its
//! model observations detects a missed actor.

use fixy_core::apps::App;
use fixy_core::rank::Candidate;
use fixy_core::{BundleIdx, ObsIdx, Scene, TrackIdx};
use loa_data::fuzz::ErrorKind;
use loa_data::{
    ClassSwap, DetectionProvenance, FrameId, GhostId, InconsistentBundle, MissingBox, MissingTrack,
    ObservationSource, SceneData, TrackId,
};
use std::collections::BTreeMap;

/// What a flagged track candidate actually is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateTruth {
    /// A real object the vendor missed entirely — a Section 8.2 hit.
    MissingTrack,
    /// A real, already-labeled object (not an error).
    LabeledReal,
    /// Dominated by false-positive / misclassified / grossly mislocalized
    /// detections — a Section 8.4 hit.
    ModelError,
    /// No clear majority.
    Ambiguous,
}

/// Resolve which ground-truth actor (if any) a model observation detects.
pub fn obs_true_track(data: &SceneData, scene: &Scene, obs: ObsIdx) -> Option<TrackId> {
    let o = scene.obs(obs);
    if o.source != ObservationSource::Model {
        return None;
    }
    let det = &data.frames[o.frame.0 as usize].detections[o.source_index];
    match det.provenance {
        DetectionProvenance::TrueObject(t) => Some(t),
        _ => None,
    }
}

/// Whether a model observation is a Section 8.4 model error (false
/// positive, misclassification, or gross localization error).
pub fn obs_is_model_error(data: &SceneData, scene: &Scene, obs: ObsIdx) -> bool {
    let o = scene.obs(obs);
    if o.source != ObservationSource::Model {
        return false;
    }
    data.frames[o.frame.0 as usize].detections[o.source_index].is_model_error()
}

/// Detailed resolution of a track candidate.
#[derive(Debug, Clone)]
pub struct TrackResolution {
    /// Model observations in the track.
    pub n_model_obs: usize,
    /// Of those, how many are model errors.
    pub n_error_obs: usize,
    /// The most common true-object actor among the model observations.
    pub majority_actor: Option<(TrackId, usize)>,
}

/// Resolve a track candidate's composition.
pub fn resolve_track(data: &SceneData, scene: &Scene, track: TrackIdx) -> TrackResolution {
    let t = scene.track(track);
    let mut n_model_obs = 0usize;
    let mut n_error_obs = 0usize;
    let mut actor_counts: BTreeMap<TrackId, usize> = BTreeMap::new();
    for obs in scene.track_obs(t) {
        if scene.obs(obs).source != ObservationSource::Model {
            continue;
        }
        n_model_obs += 1;
        if obs_is_model_error(data, scene, obs) {
            n_error_obs += 1;
        }
        if let Some(actor) = obs_true_track(data, scene, obs) {
            *actor_counts.entry(actor).or_insert(0) += 1;
        }
    }
    let majority_actor = actor_counts
        .into_iter()
        .max_by_key(|&(id, c)| (c, std::cmp::Reverse(id)));
    TrackResolution { n_model_obs, n_error_obs, majority_actor }
}

/// The missed actor a track candidate is a missing-track hit for: the
/// strict majority of its model observations detect an actor the vendor
/// missed entirely.
pub fn missing_track_hit_actor(
    data: &SceneData,
    scene: &Scene,
    track: TrackIdx,
) -> Option<TrackId> {
    let res = resolve_track(data, scene, track);
    match res.majority_actor {
        Some((actor, count))
            if 2 * count > res.n_model_obs
                && data.injected.missing_tracks.iter().any(|m| m.track == actor) =>
        {
            Some(actor)
        }
        _ => None,
    }
}

/// Whether a track candidate is a hit for the missing-track experiment
/// (see [`missing_track_hit_actor`]).
pub fn is_missing_track_hit(data: &SceneData, scene: &Scene, track: TrackIdx) -> bool {
    missing_track_hit_actor(data, scene, track).is_some()
}

/// Whether a track candidate is a hit for the model-error experiment: a
/// majority of its model observations are erroneous.
pub fn is_model_error_hit(data: &SceneData, scene: &Scene, track: TrackIdx) -> bool {
    let res = resolve_track(data, scene, track);
    res.n_model_obs > 0 && 2 * res.n_error_obs > res.n_model_obs
}

/// Coarse classification of a flagged track.
pub fn resolve_track_candidate(data: &SceneData, scene: &Scene, track: TrackIdx) -> CandidateTruth {
    if is_missing_track_hit(data, scene, track) {
        return CandidateTruth::MissingTrack;
    }
    if is_model_error_hit(data, scene, track) {
        return CandidateTruth::ModelError;
    }
    let res = resolve_track(data, scene, track);
    match res.majority_actor {
        Some((_, count)) if 2 * count > res.n_model_obs => CandidateTruth::LabeledReal,
        _ => CandidateTruth::Ambiguous,
    }
}

/// One injected error of a scene, borrowing its audit record.
#[derive(Debug, Clone, Copy)]
pub enum InjectedError<'a> {
    MissingTrack(&'a MissingTrack),
    MissingBox(&'a MissingBox),
    ClassSwap(&'a ClassSwap),
    /// A persistent ghost and the frames it appears in.
    GhostTrack(GhostId, &'a [FrameId]),
    InconsistentBundle(&'a InconsistentBundle),
}

/// Every injected error of a scene, grouped in [`ErrorKind::ALL`] order.
pub fn injected_errors(data: &SceneData) -> impl Iterator<Item = InjectedError<'_>> {
    let inj = &data.injected;
    inj.missing_tracks
        .iter()
        .map(InjectedError::MissingTrack)
        .chain(inj.missing_boxes.iter().map(InjectedError::MissingBox))
        .chain(inj.class_swaps.iter().map(InjectedError::ClassSwap))
        .chain(
            inj.ghost_tracks
                .iter()
                .map(|(g, span)| InjectedError::GhostTrack(*g, span)),
        )
        .chain(inj.inconsistent_bundles.iter().map(InjectedError::InconsistentBundle))
}

/// The app whose worklist finds errors of `kind`.
pub(crate) fn app_for(kind: ErrorKind) -> App {
    match kind {
        ErrorKind::MissingTrack => App::MissingTracks,
        ErrorKind::MissingBox => App::MissingObs,
        ErrorKind::ClassSwap => App::LabelAudit,
        ErrorKind::GhostTrack => App::ModelErrors,
        ErrorKind::InconsistentBundle => App::BundleAudit,
    }
}

impl InjectedError<'_> {
    pub fn kind(&self) -> ErrorKind {
        match self {
            InjectedError::MissingTrack(_) => ErrorKind::MissingTrack,
            InjectedError::MissingBox(_) => ErrorKind::MissingBox,
            InjectedError::ClassSwap(_) => ErrorKind::ClassSwap,
            InjectedError::GhostTrack(..) => ErrorKind::GhostTrack,
            InjectedError::InconsistentBundle(_) => ErrorKind::InconsistentBundle,
        }
    }

    /// The app whose worklist should flag this error.
    pub fn app(&self) -> App {
        app_for(self.kind())
    }

    /// Human-readable target ("track 12", "track 3 @ frame 17").
    pub fn target(&self) -> String {
        match self {
            InjectedError::MissingTrack(m) => format!("track {}", m.track.0),
            InjectedError::MissingBox(m) => format!("track {} @ frame {}", m.track.0, m.frame.0),
            InjectedError::ClassSwap(s) => {
                format!("track {} ({} as {})", s.track.0, s.true_class, s.labeled_class)
            }
            InjectedError::GhostTrack(ghost, span) => {
                format!("ghost {} ({} frames)", ghost.0, span.len())
            }
            InjectedError::InconsistentBundle(ib) => {
                format!("track {} @ frame {}", ib.track.0, ib.frame.0)
            }
        }
    }

    /// Whether `candidate` is this error: the worklist entry an auditor
    /// would open to find it.
    pub fn is_flagged_by(&self, data: &SceneData, scene: &Scene, candidate: &Candidate) -> bool {
        match (self, candidate) {
            (InjectedError::MissingTrack(m), Candidate::Track(c)) => {
                majority_actor(data, scene, c.track) == Some(m.track)
            }
            (InjectedError::MissingBox(m), Candidate::Bundle(c)) => {
                bundle_has_detection_of(data, scene, c.bundle, m.track, m.frame)
            }
            (InjectedError::ClassSwap(s), Candidate::Track(c)) => {
                track_has_label_of(data, scene, c.track, s.track)
            }
            (InjectedError::GhostTrack(ghost, _), Candidate::Track(c)) => {
                is_ghost_track(data, scene, c.track, *ghost)
            }
            (InjectedError::InconsistentBundle(ib), Candidate::Bundle(c)) => {
                bundle_has_label_of(data, scene, c.bundle, ib.track, ib.frame)
            }
            _ => false,
        }
    }
}

/// Whether `candidate`, an entry of `app`'s worklist, is a true error of
/// the app's kind: a missing-track hit, a model-error hit, or — for the
/// other apps — an entry that flags some injected error of the app's kind.
pub fn is_hit(app: App, data: &SceneData, scene: &Scene, candidate: &Candidate) -> bool {
    match (app, candidate) {
        (App::MissingTracks, Candidate::Track(c)) => is_missing_track_hit(data, scene, c.track),
        (App::ModelErrors, Candidate::Track(c)) => is_model_error_hit(data, scene, c.track),
        _ => {
            injected_errors(data).any(|e| e.app() == app && e.is_flagged_by(data, scene, candidate))
        }
    }
}

/// Which actor a model-only track detects, by majority provenance.
fn majority_actor(data: &SceneData, scene: &Scene, track: TrackIdx) -> Option<TrackId> {
    resolve_track(data, scene, track)
        .majority_actor
        .map(|(actor, _)| actor)
}

/// Whether a candidate track is majority-composed of the given ghost's
/// detections.
fn is_ghost_track(data: &SceneData, scene: &Scene, track: TrackIdx, ghost: GhostId) -> bool {
    let t = scene.track(track);
    let obs = scene.track_obs(t);
    let ghostly = obs
        .iter()
        .filter(|&&o| {
            let ob = scene.obs(o);
            ob.source == ObservationSource::Model
                && data.frames[ob.frame.0 as usize].detections[ob.source_index].provenance
                    == DetectionProvenance::PersistentGhost(ghost)
        })
        .count();
    2 * ghostly > obs.len()
}

/// Whether a bundle contains a model detection of the given actor.
fn bundle_has_detection_of(
    data: &SceneData,
    scene: &Scene,
    bundle: BundleIdx,
    track: TrackId,
    frame: FrameId,
) -> bool {
    let b = scene.bundle(bundle);
    b.frame == frame
        && scene.bundle_obs(bundle).iter().any(|&o| {
            let ob = scene.obs(o);
            ob.source == ObservationSource::Model
                && data.frames[ob.frame.0 as usize].detections[ob.source_index].provenance
                    == DetectionProvenance::TrueObject(track)
        })
}

/// Whether a bundle contains the human label of the given actor.
fn bundle_has_label_of(
    data: &SceneData,
    scene: &Scene,
    bundle: BundleIdx,
    track: TrackId,
    frame: FrameId,
) -> bool {
    let b = scene.bundle(bundle);
    b.frame == frame
        && scene.bundle_obs(bundle).iter().any(|&o| {
            let ob = scene.obs(o);
            ob.source == ObservationSource::Human
                && data.frames[ob.frame.0 as usize].human_labels[ob.source_index].gt_track == track
        })
}

/// Whether a track contains any human label of the given actor.
fn track_has_label_of(data: &SceneData, scene: &Scene, track: TrackIdx, target: TrackId) -> bool {
    let t = scene.track(track);
    scene.track_obs(t).iter().any(|&o| {
        let ob = scene.obs(o);
        ob.source == ObservationSource::Human
            && data.frames[ob.frame.0 as usize].human_labels[ob.source_index].gt_track == target
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixy_core::rank::{track_candidate, BundleCandidate};
    use fixy_core::AssemblyConfig;
    use loa_data::scenarios::{ghost_track, missing_truck, trailing_car_missing_label};
    use loa_data::ScenarioFuzzer;

    /// Every candidate `app` could list on an assembled scene, unranked.
    fn candidates(app: App, scene: &Scene) -> Vec<Candidate> {
        let mut out = Vec::new();
        for t in scene.tracks() {
            if app.ranks_bundles() {
                let class = scene.track_class(t);
                out.extend(scene.track_bundles(t.idx).iter().map(|&bundle| {
                    Candidate::Bundle(BundleCandidate { bundle, track: t.idx, score: 0.0, class })
                }));
            } else {
                out.push(Candidate::Track(track_candidate(scene, t.idx, 0.0)));
            }
        }
        out
    }

    /// Whether every member of a candidate is a correct observation of
    /// one labelled actor that no injected error touches.
    fn is_clean(data: &SceneData, scene: &Scene, candidate: &Candidate) -> bool {
        let members = match candidate {
            Candidate::Track(c) => scene.track_obs(scene.track(c.track)),
            Candidate::Bundle(c) => scene.bundle_obs(c.bundle).to_vec(),
        };
        let actors: Vec<Option<TrackId>> = members
            .iter()
            .map(|&o| {
                let ob = scene.obs(o);
                let frame = &data.frames[ob.frame.0 as usize];
                match ob.source {
                    ObservationSource::Human => Some(frame.human_labels[ob.source_index].gt_track),
                    ObservationSource::Model => {
                        let det = &frame.detections[ob.source_index];
                        match det.provenance {
                            DetectionProvenance::TrueObject(t) if !det.is_model_error() => Some(t),
                            _ => None,
                        }
                    }
                    ObservationSource::Auditor => None,
                }
            })
            .collect();
        let Some(Some(actor)) = actors.first().copied() else { return false };
        let inj = &data.injected;
        let touched = inj.missing_tracks.iter().any(|m| m.track == actor)
            || inj.missing_boxes.iter().any(|m| m.track == actor)
            || inj.class_flips.iter().any(|f| f.track == actor)
            || inj.class_swaps.iter().any(|s| s.track == actor)
            || inj.inconsistent_bundles.iter().any(|ib| ib.track == actor);
        let labelled = data
            .frames
            .iter()
            .any(|f| f.human_labels.iter().any(|l| l.gt_track == actor));
        actors.iter().all(|&a| a == Some(actor)) && labelled && !touched
    }

    /// The scene's first error of `kind` is flagged by some candidate of
    /// its app, that candidate is a hit, and a clean labelled candidate
    /// is neither.
    fn assert_graded(data: &SceneData, kind: ErrorKind) {
        let error = injected_errors(data)
            .find(|e| e.kind() == kind)
            .unwrap_or_else(|| panic!("{kind}: the scene records none"));
        let app = error.app();
        let scene = Scene::assemble(data, &app.assembly());
        let all = candidates(app, &scene);
        let target = all
            .iter()
            .find(|c| error.is_flagged_by(data, &scene, c))
            .unwrap_or_else(|| panic!("{kind}: no candidate flags {}", error.target()));
        assert!(is_hit(app, data, &scene, target), "{kind}: {target:?} is no hit");
        let clean = all
            .iter()
            .find(|c| is_clean(data, &scene, c))
            .unwrap_or_else(|| panic!("{kind}: no clean labelled candidate"));
        assert!(
            !error.is_flagged_by(data, &scene, clean),
            "{kind}: {clean:?} flags it"
        );
        assert!(!is_hit(app, data, &scene, clean), "{kind}: {clean:?} is a hit");
    }

    /// The first scene of the seed-7 fuzzed corpus that records `kind`.
    fn first_fuzzed_with(kind: ErrorKind) -> SceneData {
        let fuzzer = ScenarioFuzzer::new(7);
        (0..)
            .map(|i| fuzzer.scene(i))
            .find(|s| kind.count_in(&s.injected) > 0)
            .expect("the fuzzer injects every kind")
    }

    #[test]
    fn missing_track_is_graded() {
        assert_graded(&missing_truck(3).scene, ErrorKind::MissingTrack);
    }

    #[test]
    fn missing_box_is_graded() {
        assert_graded(&trailing_car_missing_label(3).scene, ErrorKind::MissingBox);
    }

    #[test]
    fn class_swap_is_graded() {
        assert_graded(&first_fuzzed_with(ErrorKind::ClassSwap), ErrorKind::ClassSwap);
    }

    #[test]
    fn ghost_track_is_graded() {
        assert_graded(&ghost_track(4).scene, ErrorKind::GhostTrack);
    }

    #[test]
    fn inconsistent_bundle_is_graded() {
        let data = first_fuzzed_with(ErrorKind::InconsistentBundle);
        assert_graded(&data, ErrorKind::InconsistentBundle);
    }

    #[test]
    fn missing_truck_resolves_as_missing_track() {
        let scenario = missing_truck(3);
        let scene = Scene::assemble(&scenario.scene, &AssemblyConfig::default());
        // Find the model-only track that detects the focus truck.
        let mut found = false;
        for track in scene.tracks() {
            if is_missing_track_hit(&scenario.scene, &scene, track.idx) {
                found = true;
                assert_eq!(
                    resolve_track_candidate(&scenario.scene, &scene, track.idx),
                    CandidateTruth::MissingTrack
                );
            }
        }
        assert!(found, "no candidate resolves to the missing truck");
    }

    #[test]
    fn ghost_resolves_as_model_error() {
        let scenario = ghost_track(4);
        let scene = Scene::assemble(&scenario.scene, &AssemblyConfig::model_only());
        let mut found = false;
        for track in scene.tracks() {
            if is_model_error_hit(&scenario.scene, &scene, track.idx) {
                found = true;
                assert!(!is_missing_track_hit(&scenario.scene, &scene, track.idx));
            }
        }
        assert!(found, "ghost track did not resolve as model error");
    }

    #[test]
    fn labeled_objects_resolve_as_labeled_real() {
        let scenario = missing_truck(5);
        let scene = Scene::assemble(&scenario.scene, &AssemblyConfig::default());
        let mut labeled_real = 0;
        for track in scene.tracks() {
            if resolve_track_candidate(&scenario.scene, &scene, track.idx)
                == CandidateTruth::LabeledReal
            {
                labeled_real += 1;
            }
        }
        assert!(labeled_real > 0, "the background cast should resolve as labeled");
    }
}
