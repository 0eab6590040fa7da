//! Observation-level features.

use crate::feature::{Feature, FeatureKind, FeatureTarget, FeatureValue, ProbabilityModel};
use crate::scene::Scene;

/// Class-conditional box volume — the paper's canonical learned feature
/// (`KDEObsDistribution` with `vol = w·h·l` in the Section 3 example).
#[derive(Debug, Clone, Copy, Default)]
pub struct VolumeFeature;

impl Feature for VolumeFeature {
    fn name(&self) -> &str {
        "volume"
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::Observation
    }

    fn value(&self, _scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        match target {
            FeatureTarget::Obs(obs) => {
                Some(FeatureValue::class_conditional(obs.bbox.volume(), obs.class))
            }
            _ => None,
        }
    }

    fn description(&self) -> &str {
        "Class-conditional box volume"
    }
}

/// Distance to the AV, as a manual severity distribution: nearer objects
/// get probability closer to 1 (`p = exp(−d / scale)` — monotone, so it
/// ranks near errors above far ones, exactly the paper's "selecting more
/// egregious errors" role).
#[derive(Debug, Clone, Copy)]
pub struct DistanceFeature {
    /// Distance scale in meters.
    pub scale: f64,
}

impl Default for DistanceFeature {
    fn default() -> Self {
        DistanceFeature { scale: 40.0 }
    }
}

impl Feature for DistanceFeature {
    fn name(&self) -> &str {
        "distance"
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::Observation
    }

    fn probability_model(&self) -> ProbabilityModel {
        ProbabilityModel::Manual
    }

    fn value(&self, _scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        match target {
            FeatureTarget::Obs(obs) => {
                let d = obs.bbox.ground_distance_to_origin();
                Some(FeatureValue::scalar((-d / self.scale).exp().clamp(0.0, 1.0)))
            }
            _ => None,
        }
    }

    fn description(&self) -> &str {
        "Distance to AV"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{ObsIdx, Observation};
    use loa_data::{FrameId, ObjectClass, ObservationSource};
    use loa_geom::{Box3, Vec2};

    fn obs(volume_dims: (f64, f64, f64), x: f64) -> Observation {
        Observation {
            idx: ObsIdx(0),
            frame: FrameId(0),
            source: ObservationSource::Model,
            source_index: 0,
            bbox: Box3::on_ground(x, 0.0, 0.0, volume_dims.0, volume_dims.1, volume_dims.2, 0.0),
            class: ObjectClass::Car,
            confidence: Some(0.9),
            world_center: Vec2::new(x, 0.0),
        }
    }

    fn empty_scene() -> Scene {
        Scene::from_parts(vec![], vec![], vec![], 0.2, 0)
    }

    #[test]
    fn volume_is_class_conditional_product() {
        let scene = empty_scene();
        let o = obs((4.0, 2.0, 1.5), 10.0);
        let v = VolumeFeature.value(&scene, &FeatureTarget::Obs(&o)).unwrap();
        assert!((v.x - 12.0).abs() < 1e-12);
        assert_eq!(v.class, Some(ObjectClass::Car));
    }

    #[test]
    fn volume_ignores_other_targets() {
        let scene = empty_scene();
        let t = crate::scene::Track { idx: crate::scene::TrackIdx(0) };
        assert!(VolumeFeature.value(&scene, &FeatureTarget::Track(&t)).is_none());
    }

    #[test]
    fn distance_decays_with_range() {
        let scene = empty_scene();
        let near = obs((4.0, 2.0, 1.5), 5.0);
        let far = obs((4.0, 2.0, 1.5), 60.0);
        let f = DistanceFeature::default();
        let p_near = f.value(&scene, &FeatureTarget::Obs(&near)).unwrap().x;
        let p_far = f.value(&scene, &FeatureTarget::Obs(&far)).unwrap().x;
        assert!(p_near > p_far);
        assert!((0.0..=1.0).contains(&p_near));
        assert!((0.0..=1.0).contains(&p_far));
        assert_eq!(f.probability_model(), ProbabilityModel::Manual);
    }
}
