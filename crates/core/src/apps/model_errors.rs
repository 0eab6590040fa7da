//! Finding erroneous ML model predictions (Section 7, "Finding erroneous
//! ML model predictions"; evaluated in Section 8.4).
//!
//! *"We assume there are no human proposals … The AOF inverts the
//! probability of each feature, with the goal of inverting the ranking of
//! the tracks that are likely to be correct and the tracks that are likely
//! to be incorrect."*
//!
//! The paper deploys the ad-hoc model assertions of Kang et al. \[11\]
//! (appear / flicker / multibox) first and ranks only what they miss:
//! [`AdHocAssertions`] flags the observations, and
//! [`ModelErrorFinder::rank_scored`] skips tracks whose observations are
//! mostly flagged. [`App::ModelErrors`](super::App::ModelErrors) runs that
//! protocol.

use crate::aof::Aof;
use crate::feature::{BoundFeature, FeatureSet};
use crate::features::{
    CountFeature, TrackLengthFeature, VelocityFeature, VolumeFeature, YawRateFeature,
};
use crate::rank::{sort_track_candidates, track_candidate, TrackCandidate};
use crate::scene::{ObsIdx, Scene, TrackIdx};
use crate::score::ComponentScore;
use loa_data::ObservationSource;
use loa_geom::iou_bev;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The model-error application.
#[derive(Debug, Clone)]
pub struct ModelErrorFinder {
    /// Tracks with at most this many observations are filtered: shorter
    /// tracks are the appear/flicker assertions' territory.
    pub min_track_obs: usize,
}

impl Default for ModelErrorFinder {
    fn default() -> Self {
        ModelErrorFinder { min_track_obs: 3 }
    }
}

impl ModelErrorFinder {
    /// The feature set: the learned features of the missing-track app with
    /// inverted AOFs plus the manual count filter. Distance and model-only
    /// are dropped, as in the paper.
    ///
    /// The paper additionally deploys a track feature over the total
    /// number of observations; we expose [`TrackLengthFeature`] for that
    /// but keep it *out* of the default set: a single inverted track-level
    /// factor contributes a near-constant log term that the Section 6
    /// per-factor normalization dilutes for long tracks and concentrates
    /// on short ones, systematically sinking exactly the short
    /// inconsistent tracks this application hunts. The `ablation_features`
    /// binary quantifies the effect.
    pub fn feature_set(&self) -> FeatureSet {
        FeatureSet::new(vec![
            BoundFeature::new(Arc::new(VolumeFeature), Aof::Invert),
            BoundFeature::new(Arc::new(VelocityFeature), Aof::Invert),
            BoundFeature::new(Arc::new(YawRateFeature), Aof::Invert),
            BoundFeature::plain(Arc::new(CountFeature { min_obs: self.min_track_obs })),
        ])
    }

    /// The default set extended with the inverted track-length factor —
    /// the paper's literal Section 8.4 configuration, kept for the
    /// ablation.
    pub fn feature_set_with_track_length(&self) -> FeatureSet {
        let mut set = self.feature_set();
        set.features
            .insert(3, BoundFeature::new(Arc::new(TrackLengthFeature), Aof::Invert));
        set
    }

    /// Rank candidate erroneous tracks from their scores, most suspicious
    /// first. `scene` should be assembled model-only
    /// ([`crate::scene::AssemblyConfig::model_only`]); a track whose
    /// observations are *majority*-flagged in `excluded` counts as already
    /// found and is skipped (the Section 8.4 protocol searches for errors
    /// the assertions did not find).
    pub fn rank_scored(
        &self,
        scene: &Scene,
        scores: impl IntoIterator<Item = (TrackIdx, ComponentScore)>,
        excluded: &BTreeSet<ObsIdx>,
    ) -> Vec<TrackCandidate> {
        let mut candidates = Vec::new();
        for (idx, score) in scores {
            let Some(s) = score.score else {
                continue;
            };
            let n_excluded = if excluded.is_empty() {
                0
            } else {
                scene.track_obs_iter(idx).filter(|o| excluded.contains(o)).count()
            };
            if 2 * n_excluded > scene.track_n_obs(idx) {
                continue;
            }
            candidates.push(track_candidate(scene, idx, s));
        }
        sort_track_candidates(&mut candidates);
        candidates
    }
}

/// The **appear** assertion: *"an observation should have observations in
/// nearby timestamps"* — flags observations in single-frame tracks.
pub fn appear_assertion(scene: &Scene) -> BTreeSet<ObsIdx> {
    let mut flagged = BTreeSet::new();
    for track in scene.tracks() {
        if scene.track_bundles(track.idx).len() == 1 {
            flagged.extend(scene.track_obs(track));
        }
    }
    flagged
}

/// The **flicker** assertion: *"an observation should not appear and
/// disappear rapidly"* — flags the observations of short-lived contiguous
/// segments: either a whole track living at most `max_span_frames` frames,
/// or a ≤`max_span_frames` segment of a longer track bounded by gaps
/// (appeared, vanished, reappeared). Long segments of a track with a
/// dropout are *not* flagged: it is the flickering observations that are
/// the error, not the object.
pub fn flicker_assertion(scene: &Scene, max_span_frames: u32) -> BTreeSet<ObsIdx> {
    let mut flagged = BTreeSet::new();
    for track in scene.tracks() {
        let bundles = scene.track_bundles(track.idx);
        if bundles.len() < 2 {
            continue; // appear's territory
        }
        // Split the track's bundles into contiguous segments.
        let mut segments: Vec<Vec<usize>> = vec![vec![0]];
        for i in 1..bundles.len() {
            let prev = scene.bundle(bundles[i - 1]).frame.0;
            let cur = scene.bundle(bundles[i]).frame.0;
            if cur - prev > 1 {
                segments.push(Vec::new());
            }
            segments.last_mut().expect("non-empty").push(i);
        }
        let whole_track_rapid = {
            let first = scene.bundle(bundles[0]).frame.0;
            let last = scene.bundle(*bundles.last().expect("non-empty")).frame.0;
            last - first < max_span_frames
        };
        for segment in &segments {
            let seg_first = scene.bundle(bundles[segment[0]]).frame.0;
            let seg_last = scene.bundle(bundles[*segment.last().expect("non-empty")]).frame.0;
            let seg_rapid = seg_last - seg_first < max_span_frames;
            // A short segment flickers when it is not the whole story of
            // the track (there are other segments) or the track itself is
            // rapid.
            if whole_track_rapid || (seg_rapid && segments.len() >= 2) {
                for &i in segment {
                    flagged.extend(scene.bundle_obs(bundles[i]).iter().copied());
                }
            }
        }
    }
    flagged
}

/// The **multibox** assertion: *"3 boxes should not overlap"* — flags
/// model observations participating in a same-frame triple of mutually
/// overlapping boxes.
pub fn multibox_assertion(scene: &Scene, min_iou: f64) -> BTreeSet<ObsIdx> {
    let mut flagged = BTreeSet::new();
    // Group model observations per frame.
    let mut per_frame: BTreeMap<u32, Vec<ObsIdx>> = BTreeMap::new();
    for obs in scene.observations() {
        if obs.source == ObservationSource::Model {
            per_frame.entry(obs.frame.0).or_default().push(obs.idx);
        }
    }
    for obs_list in per_frame.values() {
        let n = obs_list.len();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let (oa, ob, oc) = (
                        &scene.obs(obs_list[a]).bbox,
                        &scene.obs(obs_list[b]).bbox,
                        &scene.obs(obs_list[c]).bbox,
                    );
                    if iou_bev(oa, ob) > min_iou
                        && iou_bev(ob, oc) > min_iou
                        && iou_bev(oa, oc) > min_iou
                    {
                        flagged.insert(obs_list[a]);
                        flagged.insert(obs_list[b]);
                        flagged.insert(obs_list[c]);
                    }
                }
            }
        }
    }
    flagged
}

/// The three model-error assertions with the paper's deployment
/// (Section 8.4: appear, flicker, multibox).
#[derive(Debug, Clone, Copy)]
pub struct AdHocAssertions {
    pub flicker_max_span: u32,
    pub multibox_min_iou: f64,
}

impl Default for AdHocAssertions {
    fn default() -> Self {
        AdHocAssertions { flicker_max_span: 2, multibox_min_iou: 0.1 }
    }
}

impl AdHocAssertions {
    /// Union of all observations flagged by appear, flicker, and multibox.
    pub fn flag_all(&self, scene: &Scene) -> BTreeSet<ObsIdx> {
        let mut flagged = appear_assertion(scene);
        flagged.extend(flicker_assertion(scene, self.flicker_max_span));
        flagged.extend(multibox_assertion(scene, self.multibox_min_iou));
        flagged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::{FeatureLibrary, Learner};
    use crate::scene::AssemblyConfig;
    use crate::score::ScoreEngine;
    use loa_data::{generate_scene, DatasetProfile, DetectionProvenance};

    fn rank(
        finder: &ModelErrorFinder,
        scene: &Scene,
        library: &FeatureLibrary,
        excluded: &BTreeSet<ObsIdx>,
    ) -> Vec<TrackCandidate> {
        let engine = ScoreEngine::new(scene, &finder.feature_set(), library).unwrap();
        finder.rank_scored(scene, engine.score_all_tracks(), excluded)
    }

    fn library(finder: &ModelErrorFinder) -> FeatureLibrary {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 6.0;
        cfg.lidar.beam_count = 300;
        let train: Vec<_> = (0..3)
            .map(|i| generate_scene(&cfg, &format!("me-train-{i}"), 700 + i))
            .collect();
        Learner::new().fit(&finder.feature_set(), &train).unwrap()
    }

    #[test]
    fn ghost_tracks_rank_above_real_tracks() {
        let finder = ModelErrorFinder::default();
        let lib = library(&finder);
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 6.0;
        cfg.lidar.beam_count = 300;
        cfg.detector.persistent_ghosts_per_scene = 3.0;

        let mut ghost_positions: Vec<usize> = Vec::new();
        let mut totals: Vec<usize> = Vec::new();
        for seed in 0..4 {
            let data = generate_scene(&cfg, &format!("me-{seed}"), 900 + seed);
            let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
            let ranked = rank(&finder, &scene, &lib, &BTreeSet::new());
            if ranked.is_empty() {
                continue;
            }
            totals.push(ranked.len());
            for (pos, c) in ranked.iter().enumerate() {
                let track = scene.track(c.track);
                let ghostly = scene
                    .track_obs(track)
                    .iter()
                    .filter(|&&o| {
                        let obs = scene.obs(o);
                        obs.source == ObservationSource::Model
                            && matches!(
                                data.frames[obs.frame.0 as usize].detections[obs.source_index]
                                    .provenance,
                                DetectionProvenance::PersistentGhost(_)
                            )
                    })
                    .count();
                if ghostly * 2 > c.n_obs {
                    ghost_positions.push(pos);
                }
            }
        }
        assert!(!ghost_positions.is_empty(), "no ghost tracks formed");
        // Ghosts should be in the top third of the ranking on average.
        let mean_pos: f64 =
            ghost_positions.iter().sum::<usize>() as f64 / ghost_positions.len() as f64;
        let mean_total: f64 = totals.iter().sum::<usize>() as f64 / totals.len() as f64;
        assert!(
            mean_pos < mean_total / 3.0,
            "ghost mean rank {mean_pos:.1} of {mean_total:.1} candidates"
        );
    }

    #[test]
    fn excluded_observations_remove_tracks() {
        let finder = ModelErrorFinder::default();
        let lib = library(&finder);
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 5.0;
        cfg.lidar.beam_count = 300;
        let data = generate_scene(&cfg, "me-excl", 42);
        let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
        let ranked = rank(&finder, &scene, &lib, &BTreeSet::new());
        assert!(!ranked.is_empty());
        // Exclude every observation of the top track; it must disappear.
        let top = ranked[0].track;
        let excluded: BTreeSet<ObsIdx> = scene.track_obs(scene.track(top)).into_iter().collect();
        let ranked2 = rank(&finder, &scene, &lib, &excluded);
        assert!(ranked2.iter().all(|c| c.track != top));
    }

    #[test]
    fn finds_high_confidence_errors() {
        // The uncertainty-sampling blind spot (Section 8.4): Fixy surfaces
        // errors whose confidence is high.
        let finder = ModelErrorFinder::default();
        let lib = library(&finder);
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 8.0;
        cfg.lidar.beam_count = 300;
        cfg.detector.persistent_ghosts_per_scene = 3.0;
        cfg.detector.ghost_confidence_mean = 0.9;
        cfg.detector.ghost_confidence_std = 0.03;
        let data = generate_scene(&cfg, "me-conf", 77);
        let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
        let ranked = rank(&finder, &scene, &lib, &BTreeSet::new());
        // Among the top 5 there should be at least one candidate with mean
        // confidence above 0.8 — an error uncertainty sampling would skip.
        let high_conf_top = ranked.iter().take(5).any(|c| c.mean_confidence.unwrap_or(0.0) > 0.8);
        assert!(high_conf_top, "top-5: {:?}", &ranked[..ranked.len().min(5)]);
    }
}
