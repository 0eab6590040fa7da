//! Section 8.2 recall experiments.
//!
//! 1. **Exhaustive audit**: one Internal-like scene with an unusually
//!    sloppy vendor (the paper's audited scene contained 24 missing
//!    tracks); Fixy's top-10 per class is checked against every injected
//!    missing track — the paper reports 75% (18/24).
//! 2. **Scene-level**: across Lyft-like scenes with at least one injected
//!    error, the fraction whose top-10 contains at least one true error —
//!    the paper reports 100% of the 32/46 scenes with errors.

use crate::experiments::{parallel_map, shrink_config};
use crate::resolve::{is_missing_track_hit, missing_track_hit_actor};
use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_data::{generate_scene, DatasetProfile, TrackId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Result of the exhaustive-audit recall experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecallResult {
    /// Injected missing tracks in the audited scene.
    pub total_missing: usize,
    /// How many were found in the top-10 ranked errors per class.
    pub found: usize,
    pub recall: f64,
}

/// Run the exhaustive-audit recall experiment.
///
/// `fast` shrinks the scene for CI runs.
pub fn run_recall_experiment(seed: u64, n_train: usize, fast: bool) -> RecallResult {
    let mut scene_cfg = DatasetProfile::InternalLike.scene_config();
    if fast {
        shrink_config(&mut scene_cfg, 8.0, 400);
    }
    // The audited scene fails audit *because* the vendor was sloppy that
    // day: raise miss rates so the scene carries many missing tracks,
    // approximating the paper's 24-missing-track scene.
    let mut audited_cfg = scene_cfg.clone();
    audited_cfg.vendor.track_miss_base = 0.45;
    audited_cfg.vendor.track_miss_difficulty_weight = 0.45;

    let finder = MissingTrackFinder;
    let train: Vec<_> = (0..n_train)
        .map(|i| generate_scene(&scene_cfg, &format!("recall-train-{i}"), seed + i as u64))
        .collect();
    let library = Learner::new()
        .fit(&finder.feature_set(), &train)
        .expect("training scenes produce feature values");

    let data = generate_scene(&audited_cfg, "recall-audited", seed + 999);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let ranked = finder.rank_scene(&data, &scene, &library).expect("library fits");

    // Top-10 ranked errors per class (the paper's protocol).
    let mut found: BTreeSet<TrackId> = BTreeSet::new();
    for class in loa_data::ObjectClass::ALL {
        for c in ranked.iter().filter(|c| c.class == class).take(10) {
            if let Some(actor) = missing_track_hit_actor(&data, &scene, c.track) {
                found.insert(actor);
            }
        }
    }
    let total_missing = data.injected.missing_tracks.len();
    let found_count = data
        .injected
        .missing_tracks
        .iter()
        .filter(|m| found.contains(&m.track))
        .count();
    RecallResult {
        total_missing,
        found: found_count,
        recall: if total_missing > 0 { found_count as f64 / total_missing as f64 } else { 0.0 },
    }
}

/// Result of the scene-level experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SceneLevelRecall {
    pub total_scenes: usize,
    /// Scenes containing at least one injected missing track.
    pub scenes_with_errors: usize,
    /// Of those, scenes where the top 10 ranked errors contain ≥1 hit.
    pub scenes_hit_in_top10: usize,
}

impl SceneLevelRecall {
    pub fn hit_fraction(&self) -> Option<f64> {
        if self.scenes_with_errors == 0 {
            None
        } else {
            Some(self.scenes_hit_in_top10 as f64 / self.scenes_with_errors as f64)
        }
    }
}

/// Run the scene-level recall experiment over `n_scenes` Lyft-like scenes.
pub fn run_scene_level_recall(
    seed: u64,
    n_train: usize,
    n_scenes: usize,
    fast: bool,
) -> SceneLevelRecall {
    let mut scene_cfg = DatasetProfile::LyftLike.scene_config();
    if fast {
        shrink_config(&mut scene_cfg, 6.0, 300);
    }
    let finder = MissingTrackFinder;
    let train: Vec<_> = (0..n_train)
        .map(|i| generate_scene(&scene_cfg, &format!("slr-train-{i}"), seed + i as u64))
        .collect();
    let library = Learner::new()
        .fit(&finder.feature_set(), &train)
        .expect("training scenes produce feature values");

    let seeds: Vec<u64> = (0..n_scenes).map(|i| seed + 5_000 + i as u64).collect();
    let scenes = parallel_map(seeds, |s| generate_scene(&scene_cfg, &format!("slr-eval-{s}"), s));
    let outcomes: Vec<Option<bool>> = ScenePipeline::new(finder.clone())
        .process(&library, scenes, |r| {
            if r.data.injected.missing_tracks.is_empty() {
                return None;
            }
            Some(
                r.candidates
                    .iter()
                    .take(10)
                    .any(|c| is_missing_track_hit(&r.data, &r.scene, c.track)),
            )
        })
        .expect("library fits");

    let scenes_with_errors = outcomes.iter().filter(|o| o.is_some()).count();
    let scenes_hit_in_top10 = outcomes.iter().filter(|o| **o == Some(true)).count();
    SceneLevelRecall {
        total_scenes: n_scenes,
        scenes_with_errors,
        scenes_hit_in_top10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audited_scene_recall_is_substantial() {
        // Seed chosen to be representative of the typical recall level
        // (most seeds land in 0.55–0.85 with the workspace's vendored
        // deterministic RNG; see the seed sweep in this PR).
        let result = run_recall_experiment(17, 3, true);
        assert!(
            result.total_missing >= 5,
            "audited scene should carry many missing tracks, got {}",
            result.total_missing
        );
        assert!(
            result.recall >= 0.4,
            "recall {:.2} ({} of {})",
            result.recall,
            result.found,
            result.total_missing
        );
        assert!(result.found <= result.total_missing);
    }

    #[test]
    fn scene_level_recall_hits_most_error_scenes() {
        let result = run_scene_level_recall(53, 3, 6, true);
        assert!(result.scenes_with_errors > 0, "no scenes with errors generated");
        let frac = result.hit_fraction().unwrap();
        assert!(
            frac >= 0.5,
            "top-10 should hit most error scenes, got {frac:.2} ({}/{})",
            result.scenes_hit_in_top10,
            result.scenes_with_errors
        );
    }
}
