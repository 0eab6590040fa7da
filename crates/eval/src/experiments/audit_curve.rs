//! Audit-efficiency curve (our extension of Section 8.2's protocol).
//!
//! The organization in Section 2 has a fixed audit budget: auditors review
//! the top-k candidates per scene. This experiment sweeps k and reports
//! the fraction of all injected missing tracks recovered, for Fixy and
//! for the ad-hoc consistency MA under random and confidence ordering —
//! the practical "how much audit time does Fixy save" view of Table 3.

use crate::experiments::{parallel_map, shrink_config};
use crate::resolve::missing_track_hit_actor;
use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_baselines::{consistency_assertion, order_by_confidence, order_randomly};
use loa_data::{generate_scene, DatasetProfile, TrackId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Recall values at each budget for one method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditCurve {
    pub method: String,
    /// `(k, recall)` pairs over all scenes' injected missing tracks.
    pub points: Vec<(usize, f64)>,
}

/// The full experiment result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditCurveResult {
    pub budgets: Vec<usize>,
    pub curves: Vec<AuditCurve>,
    /// Total injected missing tracks across scenes.
    pub total_errors: usize,
}

/// Per-scene per-method: the set of distinct missing tracks recovered
/// within each budget.
struct SceneRecovery {
    /// For each method: for each budget index, recovered actor ids.
    per_method: Vec<Vec<BTreeSet<TrackId>>>,
    injected: usize,
}

/// Run the audit-curve experiment over Lyft-like scenes.
pub fn run_audit_curve(
    seed: u64,
    n_train: usize,
    n_scenes: usize,
    budgets: &[usize],
    fast: bool,
) -> AuditCurveResult {
    let mut scene_cfg = DatasetProfile::LyftLike.scene_config();
    if fast {
        shrink_config(&mut scene_cfg, 6.0, 300);
    }
    let finder = MissingTrackFinder;
    let train: Vec<_> = (0..n_train)
        .map(|i| generate_scene(&scene_cfg, &format!("ac-train-{i}"), seed + i as u64))
        .collect();
    let library = Learner::new()
        .fit(&finder.feature_set(), &train)
        .expect("training scenes produce feature values");

    let seeds: Vec<u64> = (0..n_scenes).map(|i| seed + 40_000 + i as u64).collect();
    let budgets_vec = budgets.to_vec();
    let recoveries: Vec<SceneRecovery> = parallel_map(seeds, |s| {
        let data = generate_scene(&scene_cfg, &format!("ac-eval-{s}"), s);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());

        let fixy_order: Vec<fixy_core::TrackIdx> = finder
            .rank_scene(&data, &scene, &library)
            .expect("library fits")
            .into_iter()
            .map(|c| c.track)
            .collect();
        let flagged = consistency_assertion(&scene, 3);
        let rand_order = order_randomly(&flagged, s ^ 0xA0D1);
        let conf_order = order_by_confidence(&scene, &flagged);

        let recovered = |order: &[fixy_core::TrackIdx]| -> Vec<BTreeSet<TrackId>> {
            budgets_vec
                .iter()
                .map(|&k| {
                    order
                        .iter()
                        .take(k)
                        .filter_map(|&t| missing_track_hit_actor(&data, &scene, t))
                        .collect()
                })
                .collect()
        };

        SceneRecovery {
            per_method: vec![
                recovered(&fixy_order),
                recovered(&rand_order),
                recovered(&conf_order),
            ],
            injected: data.injected.missing_tracks.len(),
        }
    });

    let total_errors: usize = recoveries.iter().map(|r| r.injected).sum();
    let methods = ["Fixy", "Ad-hoc MA (rand)", "Ad-hoc MA (conf)"];
    let curves = methods
        .iter()
        .enumerate()
        .map(|(m, name)| {
            let points = budgets
                .iter()
                .enumerate()
                .map(|(bi, &k)| {
                    let found: usize = recoveries.iter().map(|r| r.per_method[m][bi].len()).sum();
                    (
                        k,
                        if total_errors > 0 { found as f64 / total_errors as f64 } else { 0.0 },
                    )
                })
                .collect();
            AuditCurve { method: name.to_string(), points }
        })
        .collect();

    AuditCurveResult { budgets: budgets.to_vec(), curves, total_errors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_monotone_and_fixy_dominates_random() {
        let result = run_audit_curve(61, 3, 5, &[1, 3, 5, 10], true);
        assert!(result.total_errors > 0);
        for curve in &result.curves {
            // Monotone non-decreasing in budget.
            for w in curve.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-12, "{}: {:?}", curve.method, curve.points);
            }
            for &(_, r) in &curve.points {
                assert!((0.0..=1.0).contains(&r));
            }
        }
        // At the largest budget, Fixy recovers at least as much as random
        // ordering (the paper's efficiency claim).
        let at_max = |name: &str| {
            result
                .curves
                .iter()
                .find(|c| c.method == name)
                .unwrap()
                .points
                .last()
                .unwrap()
                .1
        };
        assert!(at_max("Fixy") >= at_max("Ad-hoc MA (rand)") - 0.05);
    }
}
