//! Finding erroneous ML model predictions (Section 7, "Finding erroneous
//! ML model predictions"; evaluated in Section 8.4).
//!
//! *"We assume there are no human proposals … The AOF inverts the
//! probability of each feature, with the goal of inverting the ranking of
//! the tracks that are likely to be correct and the tracks that are likely
//! to be incorrect."*
//!
//! Errors already caught by the ad-hoc assertions (appear / flicker /
//! multibox) can be excluded via an observation exclusion set, matching
//! the paper's protocol of searching for *novel* errors.

use crate::aof::Aof;
use crate::error::FixyError;
use crate::feature::{BoundFeature, FeatureSet};
use crate::features::{
    CountFeature, TrackLengthFeature, VelocityFeature, VolumeFeature, YawRateFeature,
};
use crate::incremental::IncrementalScorer;
use crate::learner::FeatureLibrary;
use crate::rank::{sort_track_candidates, track_candidate, TrackCandidate};
use crate::scene::{ObsIdx, Scene, TrackIdx};
use crate::score::ScoreEngine;
use loa_graph::ComponentScore;
use std::collections::BTreeSet;
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

    /// Rank candidate erroneous tracks, most suspicious first. `scene`
    /// should be assembled model-only ([`crate::scene::AssemblyConfig::model_only`]);
    /// a track whose observations are *majority*-flagged by the ad-hoc
    /// assertions counts as already found and is skipped (the Section 8.4
    /// protocol searches for errors the assertions did not find).
    pub fn rank(
        &self,
        scene: &Scene,
        library: &FeatureLibrary,
        excluded: &BTreeSet<ObsIdx>,
    ) -> Result<Vec<TrackCandidate>, FixyError> {
        let features = self.feature_set();
        let engine = ScoreEngine::new(scene, &features, library)?;
        Ok(self.rank_scored(scene, engine.score_all_tracks(), excluded))
    }

    /// Rank from already-computed track scores — the shared back half of
    /// the batch and incremental paths.
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

    /// Rank using an [`IncrementalScorer`] bound to
    /// [`feature_set`](Self::feature_set) — O(Δ) after `rescore_delta`.
    pub fn rank_incremental(
        &self,
        scene: &Scene,
        scorer: &mut IncrementalScorer<'_>,
        excluded: &BTreeSet<ObsIdx>,
    ) -> Vec<TrackCandidate> {
        self.rank_scored(scene, scorer.track_scores(scene).iter().copied(), excluded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::Learner;
    use crate::scene::AssemblyConfig;
    use loa_data::{generate_scene, DatasetProfile, DetectionProvenance, ObservationSource};

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
            let ranked = finder.rank(&scene, &lib, &BTreeSet::new()).unwrap();
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
        let ranked = finder.rank(&scene, &lib, &BTreeSet::new()).unwrap();
        assert!(!ranked.is_empty());
        // Exclude every observation of the top track; it must disappear.
        let top = ranked[0].track;
        let excluded: BTreeSet<ObsIdx> = scene.track_obs(scene.track(top)).into_iter().collect();
        let ranked2 = finder.rank(&scene, &lib, &excluded).unwrap();
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
        let ranked = finder.rank(&scene, &lib, &BTreeSet::new()).unwrap();
        // Among the top 5 there should be at least one candidate with mean
        // confidence above 0.8 — an error uncertainty sampling would skip.
        let high_conf_top = ranked.iter().take(5).any(|c| c.mean_confidence.unwrap_or(0.0) > 0.8);
        assert!(high_conf_top, "top-5: {:?}", &ranked[..ranked.len().min(5)]);
    }
}
