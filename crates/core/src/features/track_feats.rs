//! Track-level features.

use crate::feature::{Feature, FeatureKind, FeatureTarget, FeatureValue, ProbabilityModel};
use crate::scene::Scene;

/// Manual filter: probability 0 for tracks with `min_obs` or fewer
/// observations, 1 otherwise — the Table 2 Count feature (*"filters
/// tracks with two or fewer obs"*). Very short tracks are flicker, not
/// evidence of a missed object.
#[derive(Debug, Clone, Copy)]
pub struct CountFeature {
    /// Tracks with at most this many observations are filtered.
    pub min_obs: usize,
}

impl Default for CountFeature {
    fn default() -> Self {
        CountFeature { min_obs: 2 }
    }
}

impl Feature for CountFeature {
    fn name(&self) -> &str {
        "count"
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::Track
    }

    fn probability_model(&self) -> ProbabilityModel {
        ProbabilityModel::Manual
    }

    fn value(&self, scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        match target {
            FeatureTarget::Track(track) => {
                let n = scene.track_n_obs(track.idx);
                Some(FeatureValue::scalar(if n > self.min_obs { 1.0 } else { 0.0 }))
            }
            _ => None,
        }
    }

    fn description(&self) -> &str {
        "Filters tracks with two or fewer obs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{BundleIdx, ObsIdx, Observation, Track, TrackIdx};
    use loa_data::{FrameId, ObjectClass, ObservationSource};
    use loa_geom::{Box3, Vec2};

    fn scene_with_track(n_obs: usize) -> (Scene, Track) {
        let observations: Vec<Observation> = (0..n_obs)
            .map(|i| Observation {
                idx: ObsIdx(i),
                frame: FrameId(i as u32),
                source: ObservationSource::Model,
                source_index: 0,
                bbox: Box3::on_ground(10.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0),
                class: ObjectClass::Car,
                confidence: Some(0.5),
                world_center: Vec2::new(10.0 + i as f64, 0.0),
            })
            .collect();
        let bundles: Vec<(FrameId, Vec<ObsIdx>)> =
            (0..n_obs).map(|i| (FrameId(i as u32), vec![ObsIdx(i)])).collect();
        let scene = Scene::from_parts(
            observations,
            bundles,
            vec![(0..n_obs).map(BundleIdx).collect()],
            0.2,
            n_obs,
        );
        let track = *scene.track(TrackIdx(0));
        (scene, track)
    }

    #[test]
    fn count_filters_short_tracks() {
        let f = CountFeature::default();
        let (scene, track) = scene_with_track(2);
        let v = f.value(&scene, &FeatureTarget::Track(&track)).unwrap();
        assert_eq!(v.x, 0.0);
        let (scene, track) = scene_with_track(3);
        let v = f.value(&scene, &FeatureTarget::Track(&track)).unwrap();
        assert_eq!(v.x, 1.0);
    }

    #[test]
    fn count_threshold_configurable() {
        let f = CountFeature { min_obs: 5 };
        let (scene, track) = scene_with_track(5);
        assert_eq!(f.value(&scene, &FeatureTarget::Track(&track)).unwrap().x, 0.0);
        let (scene, track) = scene_with_track(6);
        assert_eq!(f.value(&scene, &FeatureTarget::Track(&track)).unwrap().x, 1.0);
    }

    /// The O(1) per-track count the features read agrees with a walk of
    /// the track's observations, on batch scenes and on every streamed
    /// snapshot (whose counts are folded per frame), under all three
    /// assembly presets.
    #[test]
    fn track_n_obs_agrees_with_observation_walk_on_fuzzed_scenes() {
        use crate::scene::{AssemblyConfig, AssemblyEngine};
        let check = |scene: &Scene, what: &str| {
            for t in scene.tracks() {
                let walked = scene.track_obs_iter(t.idx).count();
                assert_eq!(scene.track_n_obs(t.idx), walked, "{what}: track {:?}", t.idx);
                let target = FeatureTarget::Track(t);
                let count = CountFeature::default().value(scene, &target).unwrap().x;
                assert_eq!(count, if walked > 2 { 1.0 } else { 0.0 }, "{what}: count");
            }
        };
        let fuzzer = loa_data::ScenarioFuzzer::new(19);
        for cfg in
            [AssemblyConfig::default(), AssemblyConfig::model_only(), AssemblyConfig::human_only()]
        {
            for index in 0..4 {
                let data = fuzzer.scene(index);
                let what = format!("{} use_human {}", data.id, cfg.use_human);
                let mut engine = AssemblyEngine::new(cfg);
                engine.begin(data.frame_dt);
                let mut scene = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
                for frame in &data.frames {
                    engine.push_frame(frame);
                    engine.update_snapshot(&mut scene).unwrap();
                    check(&scene, &what);
                }
                check(&engine.finish(), &what);
            }
        }
    }

    #[test]
    fn track_features_ignore_other_targets() {
        let (scene, _) = scene_with_track(3);
        let bundle = *scene.bundle(BundleIdx(0));
        assert!(CountFeature::default()
            .value(&scene, &FeatureTarget::Bundle(&bundle))
            .is_none());
    }
}
