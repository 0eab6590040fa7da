//! Section 8.3: finding missing observations within tracks.
//!
//! The paper found a single such example in its datasets and Fixy ranked
//! it at the top; the baseline randomly orders candidate bundles. We
//! instantiate the Figure 6 scenario (a trailing car whose first-frame
//! label is missing) across multiple seeds and report the rank statistics
//! of the true missing observation under Fixy versus random ordering.

use crate::experiments::parallel_map;
use crate::resolve::InjectedError;
use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_data::scenarios::trailing_car_missing_label;
use loa_data::{generate_scene, DatasetProfile};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// Result of the missing-observation case study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MissingObsResult {
    /// Scenario instances evaluated.
    pub n_cases: usize,
    /// Cases where Fixy ranked the true missing observation first.
    pub fixy_rank1: usize,
    /// Mean (1-based) rank of the true missing observation under Fixy.
    pub fixy_mean_rank: f64,
    /// Mean rank under random candidate ordering.
    pub random_mean_rank: f64,
}

/// Run the case study over `n_cases` scenario seeds.
pub fn run_missing_obs_experiment(seed: u64, n_train: usize, n_cases: usize) -> MissingObsResult {
    let finder = MissingObsFinder;
    let mut scene_cfg = DatasetProfile::LyftLike.scene_config();
    scene_cfg.world.duration = 6.0;
    scene_cfg.lidar.beam_count = 400;
    let train: Vec<_> = (0..n_train)
        .map(|i| generate_scene(&scene_cfg, &format!("mo-train-{i}"), seed + i as u64))
        .collect();
    let library = Learner::new()
        .fit(&finder.feature_set(), &train)
        .expect("training scenes produce feature values");

    let case_seeds: Vec<u64> = (0..n_cases).map(|i| seed + 2_000 + i as u64).collect();
    let ranks: Vec<Option<(usize, usize)>> = parallel_map(case_seeds, |s| {
        let scenario = trailing_car_missing_label(s);
        let data = &scenario.scene;
        let missing = data.injected.missing_boxes.first()?;
        let scene = Scene::assemble(data, &AssemblyConfig::default());
        let ranked = finder.rank_scene(data, &scene, &library).expect("library fits");
        if ranked.is_empty() {
            return None;
        }
        let missing = InjectedError::MissingBox(missing);
        let is_hit =
            |c: &BundleCandidate| missing.is_flagged_by(data, &scene, &Candidate::Bundle(*c));
        let fixy_rank = ranked.iter().position(is_hit)? + 1;
        // Random baseline: the true bundle lands anywhere uniformly.
        let mut order: Vec<usize> = (0..ranked.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(s ^ 0xABCD));
        let hit_idx = ranked.iter().position(is_hit).expect("checked above");
        let random_rank = order.iter().position(|&i| i == hit_idx).expect("permutation") + 1;
        Some((fixy_rank, random_rank))
    });

    let found: Vec<(usize, usize)> = ranks.into_iter().flatten().collect();
    let n = found.len().max(1);
    MissingObsResult {
        n_cases: found.len(),
        fixy_rank1: found.iter().filter(|&&(f, _)| f == 1).count(),
        fixy_mean_rank: found.iter().map(|&(f, _)| f as f64).sum::<f64>() / n as f64,
        random_mean_rank: found.iter().map(|&(_, r)| r as f64).sum::<f64>() / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixy_ranks_missing_obs_near_top() {
        let result = run_missing_obs_experiment(17, 2, 4);
        assert!(result.n_cases >= 2, "cases resolved: {}", result.n_cases);
        // Paper: the missing observation ranked at the top. Allow a small
        // band across seeds.
        assert!(
            result.fixy_mean_rank <= 3.0,
            "Fixy mean rank {:.1}",
            result.fixy_mean_rank
        );
        assert!(
            result.fixy_mean_rank <= result.random_mean_rank,
            "Fixy ({:.1}) should beat random ({:.1})",
            result.fixy_mean_rank,
            result.random_mean_rank
        );
    }
}
