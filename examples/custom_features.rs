//! Extending LOA with custom features — the paper's core usability claim:
//! *"a user of Fixy need only specify features and optionally AOFs"*, each
//! in a handful of lines.
//!
//! This example adds two user features:
//! * `ground_footprint` — BEV footprint area, class-conditional, learned
//!   by the default KDE (the `KDEObsDistribution` path),
//! * `lane_keeping` — a manual heuristic: vehicles usually travel within
//!   ±8 m of the ego's path; probability decays outside.
//!
//! It then combines them with the built-in Table 2 features and ranks
//! missing-track candidates.
//!
//! Run with: `cargo run --release --example custom_features`

use fixy::data::{generate_scene, DatasetProfile, ObjectClass};
use fixy::prelude::*;
use std::sync::Arc;

/// Class-conditional BEV footprint area. Everything but `value` is
/// boilerplate-free: learning, scoring and graph wiring are generic.
struct GroundFootprint;

impl Feature for GroundFootprint {
    fn name(&self) -> &str {
        "ground_footprint"
    }
    fn kind(&self) -> FeatureKind {
        FeatureKind::Observation
    }
    fn value(&self, _scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        match target {
            FeatureTarget::Obs(obs) => {
                Some(FeatureValue::class_conditional(obs.bbox.bev_area(), obs.class))
            }
            _ => None,
        }
    }
    fn description(&self) -> &str {
        "Class-conditional BEV footprint area"
    }
}

/// Manual severity feature: probability 1 near the road, decaying beyond
/// ±8 m lateral offset. (Pedestrians live on sidewalks, so this only
/// applies to vehicles.)
struct LaneKeeping;

impl Feature for LaneKeeping {
    fn name(&self) -> &str {
        "lane_keeping"
    }
    fn kind(&self) -> FeatureKind {
        FeatureKind::Observation
    }
    fn probability_model(&self) -> fixy::core::feature::ProbabilityModel {
        fixy::core::feature::ProbabilityModel::Manual
    }
    fn value(&self, _scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        match target {
            FeatureTarget::Obs(obs) => {
                if matches!(obs.class, ObjectClass::Pedestrian | ObjectClass::Bicycle) {
                    return None; // vacuous for sidewalk users
                }
                let lateral = obs.bbox.center.y.abs();
                let p = if lateral <= 8.0 { 1.0 } else { (-(lateral - 8.0) / 6.0).exp() };
                Some(FeatureValue::scalar(p))
            }
            _ => None,
        }
    }
    fn description(&self) -> &str {
        "Vehicles travel near the roadway"
    }
}

fn main() {
    let cfg = DatasetProfile::LyftLike.scene_config();
    let train: Vec<_> = (0..4)
        .map(|i| generate_scene(&cfg, &format!("cf-train-{i}"), 800 + i))
        .collect();

    // Table 2 features + the two custom ones.
    let base = MissingTrackFinder;
    let mut features = base.feature_set();
    features
        .features
        .push(fixy::core::BoundFeature::plain(Arc::new(GroundFootprint)));
    features
        .features
        .push(fixy::core::BoundFeature::plain(Arc::new(LaneKeeping)));

    println!("Feature set:");
    for bf in &features.features {
        println!(
            "  {:<18} [{}] {}",
            bf.feature.name(),
            bf.feature.kind().name(),
            bf.feature.description()
        );
    }

    let library = Learner::new().fit(&features, &train).expect("fit");
    println!(
        "\nLearned distributions: {}",
        library.feature_names().collect::<Vec<_>>().join(", ")
    );

    // Score a fresh scene's tracks under the extended feature set.
    let data = generate_scene(&cfg, "cf-eval", 4321);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let engine = ScoreEngine::new(&scene, &features, &library).expect("compile");

    let mut scored: Vec<(f64, &Track)> = scene
        .tracks()
        .iter()
        .filter_map(|t| engine.score_track(t.idx).score.map(|s| (s, t)))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));

    println!("\nTop 5 candidates under the extended feature set:");
    for (score, track) in scored.iter().take(5) {
        println!(
            "  score {:.3}  class {:<11} {} observations",
            score,
            scene.track_class(track).to_string(),
            scene.track_obs(track).len()
        );
    }
    println!("\n(Each custom feature was ~10 lines — the paper's low-code claim.)");
}
