//! Label-audit applications: turning the LOA engine on the vendor's own
//! output.
//!
//! The paper's three applications (Section 7) search *model* output for
//! evidence of missing or erroneous elements. The two finders here apply
//! the same machinery — learned class-conditional distributions plus an
//! inverting AOF — to the labels themselves, covering the two remaining
//! kinds of the fuzzer's error taxonomy
//! (`loa_data::fuzz::ErrorKind::ClassSwap` and
//! `loa_data::fuzz::ErrorKind::InconsistentBundle`):
//!
//! * [`LabelAuditFinder`] ranks human-labeled tracks by how *implausible*
//!   their labels are under the learned per-class distributions. A track
//!   whose boxes are pedestrian-sized but tagged "truck" scores at the
//!   top — gross class errors violate the class-conditional volume prior
//!   by orders of magnitude.
//! * [`BundleAuditFinder`] ranks observation bundles by how inconsistent
//!   their members are: historically, the human and model boxes of one
//!   object agree on volume to within calibration noise, so a bundle
//!   whose members disagree wildly (Figure 7's person under a truck box)
//!   lands far in the tail of the learned
//!   [`VolumeRatioFeature`](crate::features::VolumeRatioFeature)
//!   distribution.

use crate::aof::Aof;
use crate::feature::{BoundFeature, FeatureSet};
use crate::features::{CountFeature, VolumeFeature, VolumeRatioFeature};
use crate::rank::{rank_scored_tracks, sort_bundle_candidates, BundleCandidate, TrackCandidate};
use crate::scene::{BundleIdx, Scene, TrackIdx};
use crate::score::ComponentScore;
use std::sync::Arc;

/// Ranks human-labeled tracks by label implausibility (class swaps, wildly
/// wrong box extents). Assemble scenes human-only
/// ([`crate::scene::AssemblyConfig::human_only`]): the vendor's output is
/// the subject of the audit, so model predictions are excluded.
#[derive(Debug, Clone)]
pub struct LabelAuditFinder {
    /// Tracks with at most this many observations are filtered.
    pub min_track_obs: usize,
}

impl Default for LabelAuditFinder {
    fn default() -> Self {
        LabelAuditFinder { min_track_obs: 2 }
    }
}

impl LabelAuditFinder {
    /// The feature set: inverted class-conditional volume (flag labels
    /// whose size is implausible for their class) plus the count filter.
    pub fn feature_set(&self) -> FeatureSet {
        FeatureSet::new(vec![
            BoundFeature::new(Arc::new(VolumeFeature), Aof::Invert),
            BoundFeature::plain(Arc::new(CountFeature { min_obs: self.min_track_obs })),
        ])
    }

    /// Rank labeled tracks from their scores, most implausible first.
    pub fn rank_scored(
        &self,
        scene: &Scene,
        scores: impl IntoIterator<Item = (TrackIdx, ComponentScore)>,
    ) -> Vec<TrackCandidate> {
        rank_scored_tracks(scene, scores)
    }
}

/// Ranks observation bundles by member inconsistency. Assemble scenes
/// with both sources (the default assembly): the inconsistency signal
/// *is* the disagreement between a human label and a model box of the
/// same object.
#[derive(Debug, Clone, Default)]
pub struct BundleAuditFinder;

impl BundleAuditFinder {
    /// The feature set: inverted within-bundle volume ratio.
    pub fn feature_set(&self) -> FeatureSet {
        FeatureSet::new(vec![BoundFeature::new(Arc::new(VolumeRatioFeature), Aof::Invert)])
    }

    /// Rank multi-member bundles from their scores, most inconsistent
    /// first. Singleton bundles carry no ratio factor and never become
    /// candidates.
    pub fn rank_scored(
        &self,
        scene: &Scene,
        scores: impl IntoIterator<Item = (BundleIdx, ComponentScore)>,
    ) -> Vec<BundleCandidate> {
        // bundle → track lookup for the candidate record.
        let mut bundle_track: Vec<Option<TrackIdx>> = vec![None; scene.n_bundles()];
        for track in scene.tracks() {
            for &b in scene.track_bundles(track.idx) {
                bundle_track[b.0] = Some(track.idx);
            }
        }

        let mut candidates = Vec::new();
        for (idx, score) in scores {
            let bundle = scene.bundle(idx);
            if scene.bundle_obs(idx).len() < 2 {
                continue;
            }
            if let (Some(s), Some(track)) = (score.score, bundle_track[idx.0]) {
                let rep = scene.bundle_representative(bundle);
                candidates.push(BundleCandidate { bundle: idx, track, score: s, class: rep.class });
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
    use loa_data::fuzz::{swap_partner, ScenarioFuzzer};
    use loa_data::ObservationSource;

    fn rank_tracks(
        f: &LabelAuditFinder,
        scene: &Scene,
        lib: &FeatureLibrary,
    ) -> Vec<TrackCandidate> {
        let engine = ScoreEngine::new(scene, &f.feature_set(), lib).unwrap();
        f.rank_scored(scene, engine.score_all_tracks())
    }

    fn rank_bundles(
        f: &BundleAuditFinder,
        scene: &Scene,
        lib: &FeatureLibrary,
    ) -> Vec<BundleCandidate> {
        let engine = ScoreEngine::new(scene, &f.feature_set(), lib).unwrap();
        f.rank_scored(scene, engine.score_all_bundles())
    }

    fn fuzzer() -> ScenarioFuzzer {
        ScenarioFuzzer::new(404)
    }

    fn label_audit_library(finder: &LabelAuditFinder) -> FeatureLibrary {
        let train = fuzzer().training_corpus(3);
        Learner::new().fit(&finder.feature_set(), &train).unwrap()
    }

    fn bundle_audit_library(finder: &BundleAuditFinder) -> FeatureLibrary {
        // Bundle consistency is learned from *matched* human+model data,
        // so the learner assembles with both sources.
        let train = fuzzer().training_corpus(3);
        let learner = Learner { assembly: AssemblyConfig::default() };
        learner.fit(&finder.feature_set(), &train).unwrap()
    }

    #[test]
    fn class_swapped_track_ranks_first() {
        let finder = LabelAuditFinder::default();
        let library = label_audit_library(&finder);
        let fz = fuzzer();
        let mut checked = 0;
        for i in 0..6 {
            let data = fz.scene(i);
            if data.injected.class_swaps.is_empty() {
                continue;
            }
            let scene = Scene::assemble(&data, &AssemblyConfig::human_only());
            let ranked = rank_tracks(&finder, &scene, &library);
            for swap in &data.injected.class_swaps {
                // Find the candidate whose human labels belong to the
                // swapped actor.
                let pos = ranked.iter().position(|c| {
                    let track = scene.track(c.track);
                    scene.track_obs(track).iter().any(|&o| {
                        let obs = scene.obs(o);
                        obs.source == ObservationSource::Human
                            && data.frames[obs.frame.0 as usize].human_labels[obs.source_index]
                                .gt_track
                                == swap.track
                    })
                });
                let pos = pos.expect("swapped track among candidates");
                assert!(pos < 3, "swapped track ranked {pos}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no class swaps in the corpus");
    }

    #[test]
    fn inconsistent_bundle_ranks_first() {
        let finder = BundleAuditFinder;
        let library = bundle_audit_library(&finder);
        let fz = fuzzer();
        let mut checked = 0;
        for i in 0..6 {
            let data = fz.scene(i);
            if data.injected.inconsistent_bundles.is_empty() {
                continue;
            }
            let scene = Scene::assemble(&data, &AssemblyConfig::default());
            let ranked = rank_bundles(&finder, &scene, &library);
            for ib in &data.injected.inconsistent_bundles {
                let pos = ranked.iter().position(|c| {
                    let bundle = scene.bundle(c.bundle);
                    bundle.frame == ib.frame
                        && scene.bundle_obs(bundle.idx).iter().any(|&o| {
                            let obs = scene.obs(o);
                            obs.source == ObservationSource::Human
                                && data.frames[obs.frame.0 as usize].human_labels[obs.source_index]
                                    .gt_track
                                    == ib.track
                        })
                });
                let pos = pos.expect("inconsistent bundle among candidates");
                assert!(pos < 3, "inconsistent bundle ranked {pos}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no inconsistent bundles in the corpus");
    }

    #[test]
    fn audit_candidates_are_sorted_and_multi_member() {
        let lf = LabelAuditFinder::default();
        let bf = BundleAuditFinder;
        let llib = label_audit_library(&lf);
        let blib = bundle_audit_library(&bf);
        let data = fuzzer().scene(0);

        let human_scene = Scene::assemble(&data, &AssemblyConfig::human_only());
        let ranked = rank_tracks(&lf, &human_scene, &llib);
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for c in &ranked {
            assert!(c.n_obs > lf.min_track_obs);
        }

        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let ranked = rank_bundles(&bf, &scene, &blib);
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for c in &ranked {
            assert!(scene.bundle_obs(c.bundle).len() >= 2);
        }
    }

    #[test]
    fn swap_partner_violates_volume_prior() {
        for class in loa_data::ObjectClass::ALL {
            let partner = swap_partner(class);
            assert_ne!(class, partner);
            let vol = |c: loa_data::ObjectClass| {
                let (l, w, h) = c.mean_dims();
                l * w * h
            };
            let ratio = vol(class) / vol(partner);
            assert!(
                !(1.0 / 8.0..=8.0).contains(&ratio),
                "{class} → {partner} ratio {ratio} not extreme"
            );
        }
    }
}
