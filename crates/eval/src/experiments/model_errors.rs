//! Section 8.4: finding novel ML prediction errors.
//!
//! Protocol: no human proposals; deploy the three ad-hoc MAs (appear,
//! flicker, multibox) and *exclude* what they find; Fixy then ranks the
//! remaining tracks with inverted AOFs. Compared against uncertainty
//! sampling. The paper reports Fixy P@10 = 82% vs 42% over 5 Lyft scenes,
//! with Fixy surfacing errors at up to 95% model confidence.

use crate::experiments::{parallel_map, shrink_config};
use crate::metrics::{mean_of, precision_at_k};
use crate::resolve::is_model_error_hit;
use fixy_core::prelude::*;
use loa_baselines::uncertainty_sample_tracks;
use loa_data::{generate_scene, DatasetProfile};
use serde::{Deserialize, Serialize};

/// Result of the model-error experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelErrorResult {
    pub scenes: usize,
    pub fixy_p10: Option<f64>,
    pub uncertainty_p10: Option<f64>,
    /// Highest mean track confidence among Fixy's true-positive candidates
    /// in any top-10 (the "errors at 95% confidence" observation).
    pub max_hit_confidence: Option<f64>,
}

/// Run the model-error experiment over `n_scenes` Lyft-like scenes.
pub fn run_model_error_experiment(
    seed: u64,
    n_train: usize,
    n_scenes: usize,
    fast: bool,
) -> ModelErrorResult {
    let mut scene_cfg = DatasetProfile::LyftLike.scene_config();
    if fast {
        shrink_config(&mut scene_cfg, 8.0, 300);
    }
    let app = App::ModelErrors;
    let train: Vec<_> = (0..n_train)
        .map(|i| generate_scene(&scene_cfg, &format!("me-train-{i}"), seed + i as u64))
        .collect();
    let library = app.fit(&train).expect("training scenes produce feature values");

    let seeds: Vec<u64> = (0..n_scenes).map(|i| seed + 3_000 + i as u64).collect();
    struct SceneOutcome {
        fixy: Vec<bool>,
        uncertainty: Vec<bool>,
        max_hit_conf: Option<f64>,
    }
    let scenes = parallel_map(seeds, |s| generate_scene(&scene_cfg, &format!("me-eval-{s}"), s));
    let outcomes: Vec<SceneOutcome> = ScenePipeline::new(app)
        .process(&library, scenes, |r| {
            let (data, scene) = (&r.data, &r.scene);
            let candidates: Vec<&TrackCandidate> =
                r.candidates.iter().filter_map(Candidate::as_track).collect();
            let fixy: Vec<bool> = candidates
                .iter()
                .map(|c| is_model_error_hit(data, scene, c.track))
                .collect();
            let max_hit_conf = candidates
                .iter()
                .take(10)
                .filter(|c| is_model_error_hit(data, scene, c.track))
                .filter_map(|c| c.mean_confidence)
                .fold(None, |acc: Option<f64>, c| Some(acc.map_or(c, |a| a.max(c))));

            // Uncertainty sampling over the same candidate universe
            // (tracks not flagged by the MAs). The assertions run a
            // second time here — the app already excluded them during
            // ranking — which is the accepted cost of keeping the
            // pipeline's per-scene output to ranked candidates; the
            // scans are linear and cheap next to compile+score.
            let excluded = app.pre_excluded(scene).unwrap_or_default();
            let unc_tracks = uncertainty_sample_tracks(scene, 0.5);
            let uncertainty: Vec<bool> = unc_tracks
                .iter()
                .filter(|&&t| !scene.track_obs(scene.track(t)).iter().any(|o| excluded.contains(o)))
                .map(|&t| is_model_error_hit(data, scene, t))
                .collect();

            SceneOutcome { fixy, uncertainty, max_hit_conf }
        })
        .expect("library fits");

    let fixy_p10 = mean_of(
        &outcomes
            .iter()
            .map(|o| precision_at_k(&o.fixy, 10))
            .collect::<Vec<_>>(),
    );
    let uncertainty_p10 = mean_of(
        &outcomes
            .iter()
            .map(|o| precision_at_k(&o.uncertainty, 10))
            .collect::<Vec<_>>(),
    );
    let max_hit_confidence = outcomes
        .iter()
        .filter_map(|o| o.max_hit_conf)
        .fold(None, |acc: Option<f64>, c| Some(acc.map_or(c, |a| a.max(c))));

    ModelErrorResult {
        scenes: outcomes.len(),
        fixy_p10,
        uncertainty_p10,
        max_hit_confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixy_beats_uncertainty_sampling_shape() {
        let result = run_model_error_experiment(91, 3, 4, true);
        let fixy = result.fixy_p10.expect("fixy produced rankings");
        let unc = result.uncertainty_p10.expect("uncertainty produced rankings");
        assert!(
            fixy > unc,
            "Fixy P@10 {fixy:.2} should beat uncertainty sampling {unc:.2}"
        );
    }

    #[test]
    fn fixy_surfaces_high_confidence_errors() {
        let result = run_model_error_experiment(131, 3, 4, true);
        if let Some(conf) = result.max_hit_confidence {
            assert!(conf > 0.5, "expected at least one confident error, max {conf:.2}");
        }
    }
}
