//! Finding missing labels within tracks (Section 7, "Finding missing
//! labels within tracks"; evaluated in Section 8.3).
//!
//! *"The AOF zeros out the probability of any bundle that contains a human
//! proposal and any track that does not contain any human proposals. Thus,
//! the remaining bundles only contain ML model predictions and are in
//! tracks that contain at least one human proposal."*

use crate::feature::{BoundFeature, FeatureSet};
use crate::features::{DistanceFeature, ModelOnlyFeature, VolumeFeature};
use crate::rank::{sort_bundle_candidates, BundleCandidate};
use crate::scene::{BundleIdx, Scene, TrackIdx};
use crate::score::ComponentScore;
use loa_data::ObservationSource;
use std::sync::Arc;

/// The missing-observation application.
#[derive(Debug, Clone)]
pub struct MissingObsFinder {
    /// Distance-severity scale in meters.
    pub distance_scale: f64,
}

impl Default for MissingObsFinder {
    fn default() -> Self {
        MissingObsFinder { distance_scale: 40.0 }
    }
}

impl MissingObsFinder {
    /// The feature set this application compiles.
    pub fn feature_set(&self) -> FeatureSet {
        FeatureSet::new(vec![
            BoundFeature::plain(Arc::new(VolumeFeature)),
            BoundFeature::plain(Arc::new(DistanceFeature { scale: self.distance_scale })),
            BoundFeature::plain(Arc::new(ModelOnlyFeature)),
        ])
    }

    /// Rank candidate missing observations from their scores: model-only
    /// bundles inside tracks that do contain human proposals, most
    /// plausible first.
    pub fn rank_scored(
        &self,
        scene: &Scene,
        scores: impl IntoIterator<Item = (BundleIdx, ComponentScore)>,
    ) -> Vec<BundleCandidate> {
        // bundle → track lookup.
        let mut bundle_track: Vec<Option<TrackIdx>> = vec![None; scene.n_bundles()];
        for track in scene.tracks() {
            for &b in scene.track_bundles(track.idx) {
                bundle_track[b.0] = Some(track.idx);
            }
        }

        let mut candidates = Vec::new();
        for (idx, score) in scores {
            // Track-level AOF: zero any track without a human proposal.
            let Some(track_idx) = bundle_track[idx.0] else {
                continue;
            };
            let track = scene.track(track_idx);
            if !scene.track_has_source(track, ObservationSource::Human) {
                continue;
            }
            // Bundle-level AOF: zero any bundle with a human proposal —
            // the model_only factor does this inside the score, so a
            // zeroed score simply never yields a candidate.
            if let Some(s) = score.score {
                let bundle = scene.bundle(idx);
                let rep = scene.bundle_representative(bundle);
                candidates.push(BundleCandidate {
                    bundle: idx,
                    track: track_idx,
                    score: s,
                    class: rep.class,
                });
            }
        }
        sort_bundle_candidates(&mut candidates);
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::{FeatureLibrary, Learner};
    use crate::scene::AssemblyConfig;
    use crate::score::ScoreEngine;
    use loa_data::scenarios::trailing_car_missing_label;
    use loa_data::{generate_scene, DatasetProfile};

    fn rank(
        finder: &MissingObsFinder,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Vec<BundleCandidate> {
        let engine = ScoreEngine::new(scene, &finder.feature_set(), library).unwrap();
        finder.rank_scored(scene, engine.score_all_bundles())
    }

    fn library(finder: &MissingObsFinder) -> FeatureLibrary {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 5.0;
        cfg.lidar.beam_count = 300;
        let train: Vec<_> = (0..2)
            .map(|i| generate_scene(&cfg, &format!("mo-train-{i}"), 600 + i))
            .collect();
        Learner::new().fit(&finder.feature_set(), &train).unwrap()
    }

    #[test]
    fn candidates_are_model_only_bundles_in_human_tracks() {
        let finder = MissingObsFinder::default();
        let lib = library(&finder);
        let scenario = trailing_car_missing_label(7);
        let scene = Scene::assemble(&scenario.scene, &AssemblyConfig::default());
        let ranked = rank(&finder, &scene, &lib);
        for c in &ranked {
            let bundle = scene.bundle(c.bundle);
            assert!(!scene.bundle_has_source(bundle, ObservationSource::Human));
            let track = scene.track(c.track);
            assert!(scene.track_has_source(track, ObservationSource::Human));
        }
    }

    #[test]
    fn finds_the_figure_6_missing_label_at_rank_one_region() {
        // Section 8.3: the single missing observation was ranked at the
        // top. Our scenario has exactly one injected missing box; the
        // corresponding bundle should appear among the very top candidates.
        let finder = MissingObsFinder::default();
        let lib = library(&finder);
        let scenario = trailing_car_missing_label(11);
        let scene = Scene::assemble(&scenario.scene, &AssemblyConfig::default());
        let ranked = rank(&finder, &scene, &lib);
        assert!(!ranked.is_empty(), "no candidates found");
        let missing = &scenario.scene.injected.missing_boxes[0];
        // Find the rank of a candidate bundle in the missing frame whose
        // detection matches the missing track.
        let hit_rank = ranked.iter().position(|c| {
            let bundle = scene.bundle(c.bundle);
            bundle.frame == missing.frame
                && scene.bundle_obs(bundle.idx).iter().any(|&o| {
                    let obs = scene.obs(o);
                    obs.source == ObservationSource::Model && {
                        let det = &scenario.scene.frames[obs.frame.0 as usize].detections
                            [obs.source_index];
                        matches!(
                            det.provenance,
                            loa_data::DetectionProvenance::TrueObject(t) if t == missing.track
                        )
                    }
                })
        });
        let rank = hit_rank.expect("missing observation not among candidates");
        assert!(rank < 3, "missing observation ranked {rank}, want top-3");
    }
}
