//! Bundle-level features.

use crate::feature::{Feature, FeatureKind, FeatureTarget, FeatureValue, ProbabilityModel};
use crate::scene::Scene;
use loa_data::ObservationSource;

/// Manual selector: probability 1 for bundles containing **only** model
/// predictions, 0 otherwise. With the identity AOF this zeroes out every
/// bundle that already has a human label — the Table 2 "Model only"
/// feature driving the missing-label applications.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelOnlyFeature;

impl Feature for ModelOnlyFeature {
    fn name(&self) -> &str {
        "model_only"
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::Bundle
    }

    fn probability_model(&self) -> ProbabilityModel {
        ProbabilityModel::Manual
    }

    fn value(&self, scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        match target {
            FeatureTarget::Bundle(bundle) => {
                let model_only = scene
                    .bundle_obs(bundle.idx)
                    .iter()
                    .all(|&o| scene.obs(o).source == ObservationSource::Model);
                Some(FeatureValue::scalar(if model_only { 1.0 } else { 0.0 }))
            }
            _ => None,
        }
    }

    fn description(&self) -> &str {
        "Selects bundles with model predictions only"
    }
}

/// Learned KDE over the log volume ratio (max/min) of a bundle's member
/// boxes. Matched human/model observations of one object agree on volume
/// to within calibration noise, so the historical distribution
/// concentrates near 0; a bundle whose members disagree wildly (the
/// Figure 7 person-under-a-truck-box shape) lands far in the tail.
/// Singleton bundles contribute no factor.
#[derive(Debug, Clone, Copy, Default)]
pub struct VolumeRatioFeature;

impl Feature for VolumeRatioFeature {
    fn name(&self) -> &str {
        "volume_ratio"
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::Bundle
    }

    fn value(&self, scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        match target {
            FeatureTarget::Bundle(bundle) => {
                let members = scene.bundle_obs(bundle.idx);
                if members.len() < 2 {
                    return None;
                }
                let volumes = members.iter().map(|&o| scene.obs(o).bbox.volume());
                let (mut min, mut max) = (f64::INFINITY, 0.0f64);
                for v in volumes {
                    min = min.min(v);
                    max = max.max(v);
                }
                if min <= 0.0 {
                    return None;
                }
                Some(FeatureValue::scalar((max / min).ln()))
            }
            _ => None,
        }
    }

    fn description(&self) -> &str {
        "Log max/min volume ratio within a bundle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Bundle, BundleIdx, ObsIdx, Observation};
    use loa_data::{FrameId, ObjectClass};
    use loa_geom::{Box3, Vec2};

    fn obs(idx: usize, source: ObservationSource, class: ObjectClass) -> Observation {
        Observation {
            idx: ObsIdx(idx),
            frame: FrameId(0),
            source,
            source_index: idx,
            bbox: Box3::on_ground(10.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0),
            class,
            confidence: None,
            world_center: Vec2::new(10.0, 0.0),
        }
    }

    fn scene_with(observations: Vec<Observation>, bundle_members: Vec<usize>) -> (Scene, Bundle) {
        let scene = Scene::from_parts(
            observations,
            vec![(FrameId(0), bundle_members.into_iter().map(ObsIdx).collect())],
            vec![],
            0.2,
            1,
        );
        let bundle = *scene.bundle(BundleIdx(0));
        (scene, bundle)
    }

    #[test]
    fn model_only_detects_pure_model_bundles() {
        let (scene, bundle) = scene_with(
            vec![
                obs(0, ObservationSource::Model, ObjectClass::Car),
                obs(1, ObservationSource::Model, ObjectClass::Car),
            ],
            vec![0, 1],
        );
        let v = ModelOnlyFeature
            .value(&scene, &FeatureTarget::Bundle(&bundle))
            .unwrap();
        assert_eq!(v.x, 1.0);
    }

    #[test]
    fn model_only_rejects_mixed_bundles() {
        let (scene, bundle) = scene_with(
            vec![
                obs(0, ObservationSource::Human, ObjectClass::Car),
                obs(1, ObservationSource::Model, ObjectClass::Car),
            ],
            vec![0, 1],
        );
        let v = ModelOnlyFeature
            .value(&scene, &FeatureTarget::Bundle(&bundle))
            .unwrap();
        assert_eq!(v.x, 0.0);
    }
}
