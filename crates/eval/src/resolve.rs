//! Resolving flagged candidates against the injected-error ground truth —
//! the role the paper's expert auditors played, exact here because the
//! generator recorded every injected error.

use fixy_core::apps::App;
use fixy_core::{ObsIdx, Scene, TrackIdx};
use loa_data::{DetectionProvenance, ObservationSource, SceneData, TrackId};
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

/// Whether a track candidate is a hit for the missing-track experiment:
/// the majority of its model observations detect an actor the vendor
/// missed entirely.
pub fn is_missing_track_hit(data: &SceneData, scene: &Scene, track: TrackIdx) -> bool {
    let res = resolve_track(data, scene, track);
    match res.majority_actor {
        Some((actor, count)) if 2 * count > res.n_model_obs => {
            data.injected.missing_tracks.iter().any(|m| m.track == actor)
        }
        _ => false,
    }
}

/// Whether a track candidate is a hit for the model-error experiment: a
/// majority of its model observations are erroneous.
pub fn is_model_error_hit(data: &SceneData, scene: &Scene, track: TrackIdx) -> bool {
    let res = resolve_track(data, scene, track);
    res.n_model_obs > 0 && 2 * res.n_error_obs > res.n_model_obs
}

/// Judges whether a track candidate is a true error of its app's kind.
pub type HitResolver = fn(&SceneData, &Scene, TrackIdx) -> bool;

/// The resolver that grades `app`'s candidates (`fixy rank --grade`), if
/// the app has one: missing-tracks and model-errors do; the bundle apps
/// and label-audit have none.
pub fn hit_resolver(app: App) -> Option<HitResolver> {
    match app {
        App::MissingTracks => Some(is_missing_track_hit),
        App::ModelErrors => Some(is_model_error_hit),
        App::MissingObs | App::LabelAudit | App::BundleAudit => None,
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use fixy_core::AssemblyConfig;
    use loa_data::scenarios::{ghost_track, missing_truck};

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
