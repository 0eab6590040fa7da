//! Transition features (between adjacent bundles within a track).

use crate::feature::{Feature, FeatureKind, FeatureTarget, FeatureValue};
use crate::scene::Scene;
use loa_geom::undirected_angle_diff;

/// Class-conditional object speed, estimated from world-frame box-center
/// offsets between adjacent bundles — the paper's Table 2 Velocity
/// feature (*"a feature could specify the velocity estimated by box
/// center offset"*). Ego-motion compensated: a parked car scores ~0 m/s.
#[derive(Debug, Clone, Copy, Default)]
pub struct VelocityFeature;

impl Feature for VelocityFeature {
    fn name(&self) -> &str {
        "velocity"
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::Transition
    }

    fn value(&self, scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        match target {
            FeatureTarget::Transition(a, b, dt) => {
                if *dt <= 0.0 {
                    return None;
                }
                let ra = scene.bundle_representative(a);
                let rb = scene.bundle_representative(b);
                let speed = ra.world_center.distance(rb.world_center) / dt;
                Some(FeatureValue::class_conditional(speed, ra.class))
            }
            _ => None,
        }
    }

    fn description(&self) -> &str {
        "Class-conditional object velocity"
    }
}

/// Absolute heading change rate (rad/s) between adjacent bundles, treating
/// θ and θ+π as the same heading (detectors flip yaws). Persistent ghosts
/// spin; real objects do not.
#[derive(Debug, Clone, Copy, Default)]
pub struct YawRateFeature;

impl Feature for YawRateFeature {
    fn name(&self) -> &str {
        "yaw_rate"
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::Transition
    }

    fn value(&self, scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        match target {
            FeatureTarget::Transition(a, b, dt) => {
                if *dt <= 0.0 {
                    return None;
                }
                let ra = scene.bundle_representative(a);
                let rb = scene.bundle_representative(b);
                let rate = undirected_angle_diff(ra.bbox.yaw, rb.bbox.yaw) / dt;
                Some(FeatureValue::scalar(rate))
            }
            _ => None,
        }
    }

    fn description(&self) -> &str {
        "Absolute heading change rate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Bundle, BundleIdx, ObsIdx, Observation};
    use loa_data::{FrameId, ObjectClass, ObservationSource};
    use loa_geom::{Box3, Vec2};

    fn obs_at(idx: usize, frame: u32, world_x: f64, yaw: f64) -> Observation {
        Observation {
            idx: ObsIdx(idx),
            frame: FrameId(frame),
            source: ObservationSource::Model,
            source_index: 0,
            bbox: Box3::on_ground(10.0, 0.0, 0.0, 4.0, 2.0, 1.5, yaw),
            class: ObjectClass::Car,
            confidence: Some(0.8),
            world_center: Vec2::new(world_x, 0.0),
        }
    }

    fn two_bundle_scene(dx: f64, dyaw: f64) -> (Scene, Bundle, Bundle) {
        let o0 = obs_at(0, 0, 0.0, 0.0);
        let o1 = obs_at(1, 1, dx, dyaw);
        let scene = Scene::from_parts(
            vec![o0, o1],
            vec![(FrameId(0), vec![ObsIdx(0)]), (FrameId(1), vec![ObsIdx(1)])],
            vec![],
            0.2,
            2,
        );
        let b0 = *scene.bundle(BundleIdx(0));
        let b1 = *scene.bundle(BundleIdx(1));
        (scene, b0, b1)
    }

    #[test]
    fn velocity_from_world_offset() {
        let (scene, b0, b1) = two_bundle_scene(2.0, 0.0);
        let v = VelocityFeature
            .value(&scene, &FeatureTarget::Transition(&b0, &b1, 0.2))
            .unwrap();
        assert!((v.x - 10.0).abs() < 1e-9); // 2 m in 0.2 s
        assert_eq!(v.class, Some(ObjectClass::Car));
    }

    #[test]
    fn velocity_rejects_bad_dt() {
        let (scene, b0, b1) = two_bundle_scene(2.0, 0.0);
        assert!(VelocityFeature
            .value(&scene, &FeatureTarget::Transition(&b0, &b1, 0.0))
            .is_none());
    }

    #[test]
    fn yaw_rate_handles_flip_symmetry() {
        let (scene, b0, b1) = two_bundle_scene(0.0, std::f64::consts::PI);
        let v = YawRateFeature
            .value(&scene, &FeatureTarget::Transition(&b0, &b1, 0.2))
            .unwrap();
        // A 180° flip is "no heading change".
        assert!(v.x < 1e-9, "flip should be free, got {}", v.x);

        let (scene, b0, b1) = two_bundle_scene(0.0, 0.4);
        let v = YawRateFeature
            .value(&scene, &FeatureTarget::Transition(&b0, &b1, 0.2))
            .unwrap();
        assert!((v.x - 2.0).abs() < 1e-9); // 0.4 rad in 0.2 s
    }

    #[test]
    fn transition_features_ignore_other_targets() {
        let (scene, b0, _) = two_bundle_scene(1.0, 0.0);
        assert!(VelocityFeature.value(&scene, &FeatureTarget::Bundle(&b0)).is_none());
        assert!(YawRateFeature.value(&scene, &FeatureTarget::Bundle(&b0)).is_none());
    }
}
