//! Finding missing tracks (Section 7, "Finding missing tracks").
//!
//! *"The AOF zeros out any track that contains any human proposals. The
//! remaining tracks contain only model predictions and are scored as
//! usual, with the intuition that consistent predictions from the model
//! are likely to be correct."*
//!
//! The zeroing happens naturally through the Table 2 features: the
//! `model_only` bundle factor is 0 for any bundle with a human label, and
//! the `count` track factor is 0 for flicker-length tracks; zeroed
//! components drop out of the ranking.

use crate::feature::{BoundFeature, FeatureSet};
use crate::features::{
    CountFeature, DistanceFeature, ModelOnlyFeature, VelocityFeature, VolumeFeature,
};
use crate::rank::{rank_scored_tracks, TrackCandidate};
use crate::scene::{Scene, TrackIdx};
use crate::score::ComponentScore;
use std::sync::Arc;

/// The missing-track application.
#[derive(Debug, Clone)]
pub struct MissingTrackFinder {
    /// Tracks with at most this many observations are filtered (the
    /// Count feature's threshold).
    pub min_track_obs: usize,
    /// Distance-severity scale in meters.
    pub distance_scale: f64,
}

impl Default for MissingTrackFinder {
    fn default() -> Self {
        MissingTrackFinder { min_track_obs: 2, distance_scale: 40.0 }
    }
}

impl MissingTrackFinder {
    /// The feature set this application compiles (Table 2, identity AOFs).
    pub fn feature_set(&self) -> FeatureSet {
        FeatureSet::new(vec![
            BoundFeature::plain(Arc::new(VolumeFeature)),
            BoundFeature::plain(Arc::new(DistanceFeature { scale: self.distance_scale })),
            BoundFeature::plain(Arc::new(ModelOnlyFeature)),
            BoundFeature::plain(Arc::new(VelocityFeature)),
            BoundFeature::plain(Arc::new(CountFeature { min_obs: self.min_track_obs })),
        ])
    }

    /// Rank candidate missing tracks from their scores (most likely
    /// real-but-unlabeled object first). The scene must be assembled with
    /// both human and model observations.
    pub fn rank_scored(
        &self,
        scene: &Scene,
        scores: impl IntoIterator<Item = (TrackIdx, ComponentScore)>,
    ) -> Vec<TrackCandidate> {
        rank_scored_tracks(scene, scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::{FeatureLibrary, Learner};
    use crate::scene::AssemblyConfig;
    use crate::score::ScoreEngine;
    use loa_data::{generate_scene, DatasetProfile, ObservationSource, SceneData};

    fn rank(
        finder: &MissingTrackFinder,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Vec<TrackCandidate> {
        let engine = ScoreEngine::new(scene, &finder.feature_set(), library).unwrap();
        finder.rank_scored(scene, engine.score_all_tracks())
    }

    fn dataset(n: usize, base_seed: u64) -> Vec<SceneData> {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 6.0;
        cfg.lidar.beam_count = 300;
        (0..n)
            .map(|i| generate_scene(&cfg, &format!("mt-{i}"), base_seed + i as u64))
            .collect()
    }

    #[test]
    fn candidates_never_contain_human_labeled_tracks() {
        let train = dataset(2, 50);
        let test = dataset(3, 80);
        let finder = MissingTrackFinder::default();
        let library = Learner::new().fit(&finder.feature_set(), &train).unwrap();
        for data in &test {
            let scene = Scene::assemble(data, &AssemblyConfig::default());
            let ranked = rank(&finder, &scene, &library);
            for c in &ranked {
                let track = scene.track(c.track);
                assert!(
                    !scene.track_has_source(track, ObservationSource::Human),
                    "candidate track {:?} has human labels",
                    c.track
                );
                assert!(c.n_obs > finder.min_track_obs);
            }
        }
    }

    #[test]
    fn ranking_is_sorted_and_deterministic() {
        let train = dataset(2, 10);
        let test = &dataset(1, 99)[0];
        let finder = MissingTrackFinder::default();
        let library = Learner::new().fit(&finder.feature_set(), &train).unwrap();
        let scene = Scene::assemble(test, &AssemblyConfig::default());
        let r1 = rank(&finder, &scene, &library);
        let r2 = rank(&finder, &scene, &library);
        assert_eq!(r1.len(), r2.len());
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.track, b.track);
        }
        for w in r1.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn missing_tracks_rank_above_ghosts_in_aggregate() {
        // The paper's core claim in miniature: among candidates, injected
        // missing tracks (real objects) should concentrate near the top —
        // consistent geometry beats ghost geometry under the learned
        // distributions.
        let train = dataset(3, 200);
        let finder = MissingTrackFinder::default();
        let library = Learner::new().fit(&finder.feature_set(), &train).unwrap();

        let mut top_half_hits = 0usize;
        let mut bottom_half_hits = 0usize;
        for data in dataset(4, 400) {
            let scene = Scene::assemble(&data, &AssemblyConfig::default());
            let ranked = rank(&finder, &scene, &library);
            if ranked.len() < 2 || data.injected.missing_tracks.is_empty() {
                continue;
            }
            // Determine which candidates correspond to injected missing
            // tracks by matching observations' provenance.
            let half = ranked.len() / 2;
            for (pos, c) in ranked.iter().enumerate() {
                let track = scene.track(c.track);
                let is_missing = scene.track_obs(track).iter().any(|&o| {
                    let obs = scene.obs(o);
                    if obs.source != ObservationSource::Model {
                        return false;
                    }
                    let det = &data.frames[obs.frame.0 as usize].detections[obs.source_index];
                    match det.provenance {
                        loa_data::DetectionProvenance::TrueObject(t) => {
                            data.injected.missing_tracks.iter().any(|m| m.track == t)
                        }
                        _ => false,
                    }
                });
                if is_missing {
                    if pos < half {
                        top_half_hits += 1;
                    } else {
                        bottom_half_hits += 1;
                    }
                }
            }
        }
        assert!(
            top_half_hits >= bottom_half_hits,
            "missing tracks should rank high: top {top_half_hits} vs bottom {bottom_half_hits}"
        );
        assert!(top_half_hits > 0, "no missing track surfaced at all");
    }
}
