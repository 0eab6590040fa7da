//! Handcrafted scenario builders reproducing the situations in the paper's
//! figures. Each returns a fully-formed [`SceneData`] whose injected-error
//! record points at the interesting element, plus a focus handle for
//! rendering.
//!
//! | Builder | Paper figure | Situation |
//! |---|---|---|
//! | [`missing_truck`] | Fig. 1 | truck within ~25 m of the AV missed by the vendor |
//! | [`occluded_motorcycle`] | Fig. 4 | motorcycle visible < 1 s due to occlusion, missed |
//! | [`trailing_car_missing_label`] | Fig. 6 | car trailing the AV, first-frame label missing |
//! | [`ghost_track`] | Fig. 5 / Fig. 9 | erratic persistent model ghost |
//! | [`person_truck_bundle`] | Fig. 7 | person and truck boxes overlapping (inconsistent bundle) |
//! | [`missing_cars_in_motion`] | Fig. 8 | several moving cars near the AV, all unlabeled |
//!
//! # Scenario taxonomy
//!
//! The [`crate::fuzz`] module generalizes these one-off builders into a
//! procedural fuzzer whose injectors span the full typed error
//! taxonomy. Each fuzzed error kind descends from the figure(s) its
//! handcrafted ancestor reproduced:
//!
//! | [`crate::fuzz::ErrorKind`] | Audit record | Handcrafted ancestor(s) | Paper figure(s) | Found by |
//! |---|---|---|---|---|
//! | `MissingTrack` | [`crate::types::MissingTrack`] | [`missing_truck`], [`occluded_motorcycle`], [`missing_cars_in_motion`] | Figs. 1, 4, 8 | `MissingTrackFinder` |
//! | `MissingBox` | [`crate::types::MissingBox`] | [`trailing_car_missing_label`] | Fig. 6 | `MissingObsFinder` |
//! | `ClassSwap` | [`crate::types::ClassSwap`] | — (new: whole-track gross class error) | §8.1 vendor errors | `LabelAuditFinder` |
//! | `GhostTrack` | ghost span in [`crate::types::InjectedErrors`] | [`ghost_track`] | Figs. 5, 9 | `ModelErrorFinder` |
//! | `InconsistentBundle` | [`crate::types::InconsistentBundle`] | [`person_truck_bundle`] | Fig. 7 | `BundleAuditFinder` |

use crate::class::ObjectClass;
use crate::detector::{run_detector, DetectorProfile};
use crate::lidar::LidarConfig;
use crate::scene::simulate_frames;
use crate::types::{
    Detection, DetectionProvenance, FrameId, InjectedErrors, MissingBox, SceneData, TrackId,
};
use crate::vendor::{label_scene, VendorProfile};
use crate::world::{Actor, EgoMotion, Motion, World};
use loa_geom::{Box3, Size3, Vec2};
use rand::prelude::*;

/// A built scenario: the scene plus the element the figure highlights.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub scene: SceneData,
    /// The ground-truth track the figure is about (if any).
    pub focus_track: Option<TrackId>,
    /// Frames to render.
    pub focus_frames: Vec<FrameId>,
    pub description: String,
}

/// An error-free vendor for scripted labeling.
fn perfect_vendor() -> VendorProfile {
    VendorProfile {
        track_miss_base: 0.0,
        track_miss_difficulty_weight: 0.0,
        frame_miss_rate: 0.0,
        center_jitter_std: 0.05,
        size_jitter_rel_std: 0.02,
        yaw_jitter_std: 0.01,
        class_flip_rate: 0.0,
        min_visible_frames: 1,
    }
}

/// A detector with no false positives for scripted scenes, but realistic
/// localization noise (so association occasionally leaves a model-only
/// bundle inside a human track — the distractor candidates the Section
/// 8.3 ranking competes against).
fn clean_detector() -> DetectorProfile {
    DetectorProfile {
        clutter_rate_per_frame: 0.0,
        persistent_ghosts_per_scene: 0.0,
        duplicate_rate: 0.0,
        gross_loc_error_rate: 0.0,
        track_confusion_rate: 0.0,
        class_confusion_rate: 0.0,
        center_noise_std: 0.16,
        size_noise_rel_std: 0.06,
        yaw_noise_std: 0.05,
        ..DetectorProfile::internal_like()
    }
}

fn background_actors(next_track: &mut u64) -> Vec<Actor> {
    // A stable cast of labeled background objects along the road.
    let mut actors = Vec::new();
    let mut spawn = |class: ObjectClass, x: f64, y: f64, vx: f64| {
        let (l, w, h) = class.mean_dims();
        let track = TrackId(*next_track);
        *next_track += 1;
        let motion = if vx.abs() < 1e-9 {
            Motion::Stationary { pos: Vec2::new(x, y), yaw: 0.0 }
        } else {
            Motion::ConstantVelocity { start: Vec2::new(x, y), velocity: Vec2::new(vx, 0.0) }
        };
        Actor { track, class, dims: Size3::new(l, w, h), motion }
    };
    actors.push(spawn(ObjectClass::Car, 15.0, 3.5, 7.0));
    actors.push(spawn(ObjectClass::Car, 30.0, -3.5, -6.0));
    actors.push(spawn(ObjectClass::Car, 25.0, 6.8, 0.0)); // parked
    actors.push(spawn(ObjectClass::Pedestrian, 20.0, 9.0, 0.0));
    actors.push(spawn(ObjectClass::Car, 55.0, 3.5, 8.0));
    actors
}

use crate::fuzz::strip_track_labels;

fn assemble(world: World, duration: f64, dt: f64, seed: u64, id: &str) -> SceneData {
    let lidar = LidarConfig::default();
    let mut frames = simulate_frames(&world, &lidar, duration, dt);
    let mut rng = StdRng::seed_from_u64(seed);
    let vendor_outcome = label_scene(&mut frames, &perfect_vendor(), &mut rng);
    let detector_outcome = run_detector(&mut frames, &clean_detector(), &mut rng);
    SceneData {
        id: id.to_string(),
        frame_dt: dt,
        frames,
        injected: InjectedErrors {
            missing_tracks: vendor_outcome.missing_tracks,
            missing_boxes: vendor_outcome.missing_boxes,
            class_flips: vendor_outcome.class_flips,
            ghost_tracks: detector_outcome.ghost_tracks,
            ..Default::default()
        },
    }
}

/// Figure 1: a truck within ~25 m of the AV that the vendor missed while
/// labeling the surrounding cars.
pub fn missing_truck(seed: u64) -> Scenario {
    let mut next = 0u64;
    let mut actors = background_actors(&mut next);
    let truck_track = TrackId(next);
    let (l, w, h) = ObjectClass::Truck.mean_dims();
    actors.push(Actor {
        track: truck_track,
        class: ObjectClass::Truck,
        dims: Size3::new(l, w, h),
        motion: Motion::ConstantVelocity {
            start: Vec2::new(22.0, -3.5),
            velocity: Vec2::new(6.5, 0.0),
        },
    });
    let world = World { ego: EgoMotion { speed: 7.0, yaw_rate: 0.0 }, actors };
    let mut scene = assemble(world, 10.0, 0.2, seed, "figure1-missing-truck");
    strip_track_labels(&mut scene, truck_track, ObjectClass::Truck);
    Scenario {
        scene,
        focus_track: Some(truck_track),
        focus_frames: vec![FrameId(10)],
        description: "Truck within 25 m of the AV missed by human labels (Figure 1)".into(),
    }
}

/// Figure 4: a motorcycle close to the AV but occluded by other vehicles,
/// visible for under a second — and missed by the vendor.
pub fn occluded_motorcycle(seed: u64) -> Scenario {
    let mut next = 0u64;
    let mut actors = Vec::new();
    // A wall of slow traffic between the ego and the motorcycle lane.
    for i in 0..4 {
        let (l, w, h) = ObjectClass::Car.mean_dims();
        actors.push(Actor {
            track: TrackId(next),
            class: ObjectClass::Car,
            dims: Size3::new(l, w, h),
            motion: Motion::ConstantVelocity {
                start: Vec2::new(8.0 + i as f64 * 6.0, 3.2),
                velocity: Vec2::new(6.8, 0.0),
            },
        });
        next += 1;
    }
    // The motorcycle rides in the gap beyond the wall, slightly faster, so
    // it only peeks through between cars for a few frames.
    let moto_track = TrackId(next);
    next += 1;
    let (ml, mw, mh) = ObjectClass::Motorcycle.mean_dims();
    actors.push(Actor {
        track: moto_track,
        class: ObjectClass::Motorcycle,
        dims: Size3::new(ml, mw, mh),
        motion: Motion::ConstantVelocity {
            start: Vec2::new(6.0, 6.4),
            velocity: Vec2::new(9.5, 0.0),
        },
    });
    // One labeled car on the other side for context.
    let (cl, cw, ch) = ObjectClass::Car.mean_dims();
    actors.push(Actor {
        track: TrackId(next),
        class: ObjectClass::Car,
        dims: Size3::new(cl, cw, ch),
        motion: Motion::ConstantVelocity {
            start: Vec2::new(30.0, -3.5),
            velocity: Vec2::new(-7.0, 0.0),
        },
    });
    let world = World { ego: EgoMotion { speed: 7.0, yaw_rate: 0.0 }, actors };
    let mut scene = assemble(world, 8.0, 0.2, seed, "figure4-occluded-motorcycle");
    strip_track_labels(&mut scene, moto_track, ObjectClass::Motorcycle);
    let focus_frames = scene
        .frames
        .iter()
        .filter(|f| f.gt.iter().any(|g| g.track == moto_track && g.visible))
        .map(|f| f.index)
        .collect();
    Scenario {
        scene,
        focus_track: Some(moto_track),
        focus_frames,
        description:
            "Motorcycle occluded by traffic, visible <1 s, missed by human labels (Figure 4)".into(),
    }
}

/// Figure 6: a car trailing the AV whose first-frame label is missing (the
/// rest of the track is labeled).
pub fn trailing_car_missing_label(seed: u64) -> Scenario {
    let mut next = 0u64;
    let mut actors = background_actors(&mut next);
    let car_track = TrackId(next);
    let (l, w, h) = ObjectClass::Car.mean_dims();
    actors.push(Actor {
        track: car_track,
        class: ObjectClass::Car,
        dims: Size3::new(l, w, h),
        // Trails the ego at the same speed, 12 m behind.
        motion: Motion::ConstantVelocity {
            start: Vec2::new(-12.0, 0.0),
            velocity: Vec2::new(7.0, 0.0),
        },
    });
    let world = World { ego: EgoMotion { speed: 7.0, yaw_rate: 0.0 }, actors };
    let mut scene = assemble(world, 8.0, 0.2, seed, "figure6-trailing-car");
    // Drop exactly the first frame's label for the trailing car.
    let first_labeled = scene
        .frames
        .iter()
        .position(|f| f.human_labels.iter().any(|l| l.gt_track == car_track));
    if let Some(idx) = first_labeled {
        scene.frames[idx].human_labels.retain(|l| l.gt_track != car_track);
        scene.injected.missing_boxes.push(MissingBox {
            track: car_track,
            class: ObjectClass::Car,
            frame: FrameId(idx as u32),
        });
    }
    let focus = first_labeled.map(|i| FrameId(i as u32));
    Scenario {
        scene,
        focus_track: Some(car_track),
        focus_frames: focus.into_iter().collect(),
        description: "Car trailing the AV with its first-frame label missing (Figure 6)".into(),
    }
}

/// Figures 5 and 9: a persistent, geometrically inconsistent model ghost —
/// predictions that overlap across frames but teleport and change volume.
pub fn ghost_track(seed: u64) -> Scenario {
    let mut next = 0u64;
    let actors = background_actors(&mut next);
    let world = World { ego: EgoMotion { speed: 7.0, yaw_rate: 0.0 }, actors };
    let mut scene = assemble(world, 8.0, 0.2, seed, "figure9-ghost-track");

    // Inject the ghost by hand for a deterministic, dramatic figure.
    let ghost = crate::types::GhostId(0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b9);
    let mut pos = Vec2::new(18.0, -6.0);
    let mut frames_hit = Vec::new();
    let span_start = 10usize;
    let span_len = 8usize;
    for k in 0..span_len {
        let idx = span_start + k;
        if idx >= scene.frames.len() {
            break;
        }
        pos += Vec2::new(rng.gen_range(-3.0..4.5), rng.gen_range(-3.0..3.0));
        let scale = rng.gen_range(0.5..2.0);
        let bbox = Box3::on_ground(
            pos.x,
            pos.y,
            0.0,
            4.6 * scale,
            1.9 * scale,
            1.7,
            rng.gen_range(-3.0..3.0),
        );
        scene.frames[idx].detections.push(Detection {
            bbox,
            class: ObjectClass::Car,
            confidence: 0.9,
            provenance: DetectionProvenance::PersistentGhost(ghost),
            class_correct: true,
            localization_error: false,
        });
        frames_hit.push(FrameId(idx as u32));
    }
    scene.injected.ghost_tracks.push((ghost, frames_hit.clone()));
    Scenario {
        scene,
        focus_track: None,
        focus_frames: frames_hit,
        description:
            "Persistent model ghost: overlapping but inconsistent predictions (Figures 5/9)".into(),
    }
}

/// Figure 7: a pedestrian box and a truck box highly overlapping in the
/// same frame — a bundle whose observations are strongly inconsistent in
/// volume.
pub fn person_truck_bundle(seed: u64) -> Scenario {
    let mut next = 0u64;
    let mut actors = background_actors(&mut next);
    let ped_track = TrackId(next);
    let (pl, pw, ph) = ObjectClass::Pedestrian.mean_dims();
    actors.push(Actor {
        track: ped_track,
        class: ObjectClass::Pedestrian,
        dims: Size3::new(pl, pw, ph),
        motion: Motion::Stationary { pos: Vec2::new(18.0, 2.0), yaw: 0.0 },
    });
    let world = World { ego: EgoMotion { speed: 5.0, yaw_rate: 0.0 }, actors };
    let mut scene = assemble(world, 6.0, 0.2, seed, "figure7-person-truck-bundle");

    // The model predicts a truck-sized box on top of the pedestrian in one
    // frame: the bundle (human pedestrian label + model truck box) is
    // geometrically consistent in position but wildly inconsistent in
    // volume and class.
    let frame_idx = 10.min(scene.frames.len() - 1);
    let ped_box = scene.frames[frame_idx]
        .gt
        .iter()
        .find(|g| g.track == ped_track)
        .map(|g| g.bbox)
        .expect("pedestrian exists");
    let (tl, tw, th) = ObjectClass::Truck.mean_dims();
    scene.frames[frame_idx].detections.push(Detection {
        bbox: Box3::new(ped_box.center, Size3::new(tl, tw, th), ped_box.yaw),
        class: ObjectClass::Truck,
        confidence: 0.6,
        provenance: DetectionProvenance::Clutter,
        class_correct: true,
        localization_error: false,
    });
    Scenario {
        scene,
        focus_track: Some(ped_track),
        focus_frames: vec![FrameId(frame_idx as u32)],
        description: "Person and truck boxes overlap but are inconsistent in volume (Figure 7)"
            .into(),
    }
}

/// Figure 8: several cars in motion missed by the vendor — *"vehicles in
/// motion are the most important to detect"*. Three moving cars within
/// ~20 m of the AV, all unlabeled.
pub fn missing_cars_in_motion(seed: u64) -> Scenario {
    let mut next = 0u64;
    let mut actors = background_actors(&mut next);
    let (l, w, h) = ObjectClass::Car.mean_dims();
    let mut missing = Vec::new();
    // Relative motion keeps each car within ~20 m of the ego (7 m/s) at
    // some point of the 10 s scene.
    for (x, y, vx) in [(14.0, -3.5, 6.0), (24.0, 3.5, 5.5), (9.0, 6.8, 7.5)] {
        let track = TrackId(next);
        next += 1;
        actors.push(Actor {
            track,
            class: ObjectClass::Car,
            dims: Size3::new(l, w, h),
            motion: Motion::ConstantVelocity {
                start: Vec2::new(x, y),
                velocity: Vec2::new(vx, 0.0),
            },
        });
        missing.push(track);
    }
    let world = World { ego: EgoMotion { speed: 7.0, yaw_rate: 0.0 }, actors };
    let mut scene = assemble(world, 10.0, 0.2, seed, "figure8-missing-cars");
    for track in &missing {
        strip_track_labels(&mut scene, *track, ObjectClass::Car);
    }
    Scenario {
        scene,
        focus_track: Some(missing[0]),
        focus_frames: vec![FrameId(8)],
        description: "Several cars in motion near the AV missed by human labels (Figure 8)".into(),
    }
}

/// All figure scenarios, keyed by figure label.
pub fn all_scenarios(seed: u64) -> Vec<(&'static str, Scenario)> {
    vec![
        ("figure1", missing_truck(seed)),
        ("figure4", occluded_motorcycle(seed)),
        ("figure6", trailing_car_missing_label(seed)),
        ("figure5_9", ghost_track(seed)),
        ("figure7", person_truck_bundle(seed)),
        ("figure8", missing_cars_in_motion(seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_truck_scenario_shape() {
        let s = missing_truck(1);
        s.scene.validate().unwrap();
        let truck = s.focus_track.unwrap();
        // Truck is visible and unlabeled; it's in the injected record.
        assert!(s.scene.injected.missing_tracks.iter().any(|m| m.track == truck));
        let visible_count = s
            .scene
            .frames
            .iter()
            .filter(|f| f.gt.iter().any(|g| g.track == truck && g.visible))
            .count();
        assert!(visible_count > 10, "truck visible in {visible_count} frames");
        for frame in &s.scene.frames {
            assert!(!frame.human_labels.iter().any(|l| l.gt_track == truck));
        }
        // The truck comes within 25 m of the AV at some point (Figure 1).
        let min_dist = s
            .scene
            .frames
            .iter()
            .flat_map(|f| f.gt.iter())
            .filter(|g| g.track == truck)
            .map(|g| g.bbox.ground_distance_to_origin())
            .fold(f64::INFINITY, f64::min);
        assert!(min_dist < 25.0, "truck min distance {min_dist}");
    }

    #[test]
    fn occluded_motorcycle_is_briefly_visible() {
        let s = occluded_motorcycle(2);
        s.scene.validate().unwrap();
        let moto = s.focus_track.unwrap();
        let visible_frames = s
            .scene
            .frames
            .iter()
            .filter(|f| f.gt.iter().any(|g| g.track == moto && g.visible))
            .count();
        let total = s.scene.frames.len();
        assert!(visible_frames > 0, "motorcycle never visible");
        assert!(
            visible_frames < total / 2,
            "motorcycle visible in {visible_frames}/{total} frames — not occluded enough"
        );
        // And it's recorded as missing.
        assert!(s.scene.injected.missing_tracks.iter().any(|m| m.track == moto));
    }

    #[test]
    fn trailing_car_has_single_missing_box() {
        let s = trailing_car_missing_label(3);
        s.scene.validate().unwrap();
        let car = s.focus_track.unwrap();
        let missing: Vec<_> = s
            .scene
            .injected
            .missing_boxes
            .iter()
            .filter(|m| m.track == car)
            .collect();
        assert_eq!(missing.len(), 1);
        let missing_frame = missing[0].frame;
        // That frame has no label for the car but some later frame does.
        let f = &s.scene.frames[missing_frame.0 as usize];
        assert!(!f.human_labels.iter().any(|l| l.gt_track == car));
        let labeled_later = s
            .scene
            .frames
            .iter()
            .skip(missing_frame.0 as usize + 1)
            .any(|f| f.human_labels.iter().any(|l| l.gt_track == car));
        assert!(labeled_later);
    }

    #[test]
    fn ghost_track_is_inconsistent() {
        let s = ghost_track(4);
        s.scene.validate().unwrap();
        assert_eq!(s.scene.injected.ghost_tracks.len(), 1);
        let (ghost, span) = &s.scene.injected.ghost_tracks[0];
        assert!(span.len() >= 5);
        let volumes: Vec<f64> = span
            .iter()
            .map(|fid| {
                s.scene.frames[fid.0 as usize]
                    .detections
                    .iter()
                    .find(|d| d.provenance == DetectionProvenance::PersistentGhost(*ghost))
                    .unwrap()
                    .bbox
                    .volume()
            })
            .collect();
        let max = volumes.iter().copied().fold(f64::MIN, f64::max);
        let min = volumes.iter().copied().fold(f64::MAX, f64::min);
        assert!(max / min > 2.0, "ghost volumes {volumes:?}");
        // High confidence: the uncertainty-sampling blind spot.
        for fid in span {
            let d = s.scene.frames[fid.0 as usize]
                .detections
                .iter()
                .find(|d| d.provenance == DetectionProvenance::PersistentGhost(*ghost))
                .unwrap();
            assert!(d.confidence >= 0.9);
        }
    }

    #[test]
    fn person_truck_bundle_overlaps() {
        let s = person_truck_bundle(5);
        s.scene.validate().unwrap();
        let frame = &s.scene.frames[s.focus_frames[0].0 as usize];
        let ped = frame
            .human_labels
            .iter()
            .find(|l| l.gt_track == s.focus_track.unwrap())
            .expect("pedestrian labeled");
        let truck_det = frame
            .detections
            .iter()
            .find(|d| d.class == ObjectClass::Truck && d.provenance == DetectionProvenance::Clutter)
            .expect("truck clutter box");
        // Overlapping but wildly different volume.
        assert!(loa_geom::iou_bev(&ped.bbox, &truck_det.bbox) > 0.0);
        assert!(truck_det.bbox.volume() / ped.bbox.volume() > 10.0);
    }

    #[test]
    fn all_scenarios_build_and_validate() {
        let scenarios = all_scenarios(9);
        assert_eq!(scenarios.len(), 6);
        for (name, scenario) in scenarios {
            scenario.scene.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!scenario.description.is_empty());
        }
    }

    #[test]
    fn missing_cars_in_motion_are_moving_and_near() {
        let s = missing_cars_in_motion(13);
        s.scene.validate().unwrap();
        assert_eq!(s.scene.injected.missing_tracks.len(), 3);
        for mt in &s.scene.injected.missing_tracks {
            // Every missing car is unlabeled everywhere…
            for frame in &s.scene.frames {
                assert!(!frame.human_labels.iter().any(|l| l.gt_track == mt.track));
            }
            // …in motion, and near the AV at some point (Figure 8's point:
            // "vehicles in motion are the most important to detect").
            let mut min_dist = f64::INFINITY;
            let mut centers = Vec::new();
            for frame in &s.scene.frames {
                if let Some(g) = frame.gt.iter().find(|g| g.track == mt.track) {
                    min_dist = min_dist.min(g.bbox.ground_distance_to_origin());
                    centers.push(frame.ego_pose.transform(g.bbox.center.bev()));
                }
            }
            assert!(min_dist < 20.0, "car too far: {min_dist}");
            let travel = centers.first().unwrap().distance(*centers.last().unwrap());
            assert!(travel > 10.0, "car barely moved: {travel}");
        }
    }
}
