//! Section 8.1 runtime check: *"Fixy executes in under five seconds on a
//! single CPU core for processing a 15 second scene of data."*

use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_data::{generate_scene, DatasetProfile};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Result of the runtime experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeResult {
    /// Scene duration in (simulated) seconds.
    pub scene_seconds: f64,
    /// Frames processed.
    pub frames: usize,
    /// Observations scored.
    pub observations: usize,
    /// Wall-clock milliseconds for the online phase (assembly, compile,
    /// score, rank), single-threaded.
    pub online_ms: f64,
    /// Wall-clock milliseconds for the offline learning phase.
    pub offline_ms: f64,
}

impl RuntimeResult {
    /// The paper's bound.
    pub fn under_five_seconds(&self) -> bool {
        self.online_ms < 5_000.0
    }
}

/// Measure the end-to-end pipeline on a 15-second Internal-like scene.
pub fn run_runtime_experiment(seed: u64, n_train: usize) -> RuntimeResult {
    let scene_cfg = DatasetProfile::InternalLike.scene_config();
    let finder = MissingTrackFinder;
    let train: Vec<_> = (0..n_train)
        .map(|i| generate_scene(&scene_cfg, &format!("rt-train-{i}"), seed + i as u64))
        .collect();

    let offline_start = Instant::now();
    let library = Learner::new()
        .fit(&finder.feature_set(), &train)
        .expect("training scenes produce feature values");
    let offline_ms = offline_start.elapsed().as_secs_f64() * 1_000.0;

    let data = generate_scene(&scene_cfg, "rt-eval", seed + 10_000);
    let online_start = Instant::now();
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let ranked = finder.rank_scene(&data, &scene, &library).expect("library fits");
    let online_ms = online_start.elapsed().as_secs_f64() * 1_000.0;
    // Keep the ranking alive so the work is not optimized away.
    assert!(ranked.len() <= scene.n_tracks());

    RuntimeResult {
        scene_seconds: data.duration(),
        frames: data.frame_count(),
        observations: scene.n_observations(),
        online_ms,
        offline_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_is_within_paper_bound() {
        // Even in debug builds the online phase should beat the paper's
        // 5-second budget comfortably.
        let result = run_runtime_experiment(7, 1);
        assert!((result.scene_seconds - 15.0).abs() < 1e-9);
        assert!(result.frames == 150);
        assert!(result.observations > 0);
        assert!(
            result.under_five_seconds(),
            "online phase took {:.0} ms",
            result.online_ms
        );
    }
}
