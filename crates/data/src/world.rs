//! World and trajectory simulation.
//!
//! Generates a ground-truth world: an ego vehicle driving along a road and
//! a population of actors (moving and parked cars, trucks, pedestrians,
//! motorcycles, buses, bicycles) with class-conditional dimensions and
//! kinematics. Per frame, actor boxes are expressed in the ego frame —
//! exactly the coordinate system AV perception labels use.

use crate::class::ObjectClass;
use crate::types::TrackId;
use loa_geom::{normalize_angle, Box3, Pose2, Size3, Vec2};
use rand::prelude::*;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Motion model of one actor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Motion {
    /// Parked / standing still.
    Stationary { pos: Vec2, yaw: f64 },
    /// Straight-line constant velocity.
    ConstantVelocity { start: Vec2, velocity: Vec2 },
    /// Moves, stops for a while, moves again (traffic-like).
    StopAndGo {
        start: Vec2,
        /// Unit direction of travel.
        dir: Vec2,
        speed: f64,
        /// Seconds of motion before each stop.
        go_time: f64,
        /// Seconds of each stop.
        stop_time: f64,
    },
    /// Constant-rate turn along a circular arc.
    Turning {
        center: Vec2,
        radius: f64,
        /// Radians per second (signed).
        angular_vel: f64,
        /// Initial angle on the circle.
        phase: f64,
    },
}

impl Motion {
    /// World position and heading at time `t` (seconds).
    pub fn pose_at(&self, t: f64) -> (Vec2, f64) {
        match self {
            Motion::Stationary { pos, yaw } => (*pos, *yaw),
            Motion::ConstantVelocity { start, velocity } => {
                let yaw = if velocity.norm() > 1e-9 { velocity.azimuth() } else { 0.0 };
                (*start + *velocity * t, yaw)
            }
            Motion::StopAndGo { start, dir, speed, go_time, stop_time } => {
                let cycle = go_time + stop_time;
                let full_cycles = (t / cycle).floor();
                let in_cycle = t - full_cycles * cycle;
                let moving_time = full_cycles * go_time + in_cycle.min(*go_time);
                (*start + *dir * (speed * moving_time), dir.azimuth())
            }
            Motion::Turning { center, radius, angular_vel, phase } => {
                let theta = phase + angular_vel * t;
                let pos = *center + Vec2::new(theta.cos(), theta.sin()) * *radius;
                // Heading is tangent to the circle.
                let yaw = theta + angular_vel.signum() * std::f64::consts::FRAC_PI_2;
                (pos, normalize_angle(yaw))
            }
        }
    }
}

/// One simulated actor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Actor {
    pub track: TrackId,
    pub class: ObjectClass,
    pub dims: Size3,
    pub motion: Motion,
}

impl Actor {
    /// The actor's world-frame box at time `t`.
    pub fn world_box_at(&self, t: f64) -> Box3 {
        let (pos, yaw) = self.motion.pose_at(t);
        Box3::on_ground(
            pos.x,
            pos.y,
            0.0,
            self.dims.length,
            self.dims.width,
            self.dims.height,
            yaw,
        )
    }
}

/// Ego vehicle motion: constant speed along a (possibly gently curving)
/// path starting at the world origin heading +x.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EgoMotion {
    pub speed: f64,
    /// Constant yaw rate (rad/s); 0 = straight.
    pub yaw_rate: f64,
}

impl EgoMotion {
    /// Ego world pose at time `t`.
    pub fn pose_at(&self, t: f64) -> Pose2 {
        if self.yaw_rate.abs() < 1e-9 {
            return Pose2::new(Vec2::new(self.speed * t, 0.0), 0.0);
        }
        // Circular arc of radius v/ω starting at origin heading +x.
        let r = self.speed / self.yaw_rate;
        let theta = self.yaw_rate * t;
        let pos = Vec2::new(r * theta.sin(), r * (1.0 - theta.cos()));
        Pose2::new(pos, theta)
    }
}

/// Parameters for world generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Scene duration in seconds.
    pub duration: f64,
    /// Ego speed (m/s).
    pub ego_speed: f64,
    /// Ego yaw rate (rad/s).
    pub ego_yaw_rate: f64,
    /// Number of actors to spawn per class.
    pub actor_counts: Vec<(ObjectClass, usize)>,
    /// Half-width of the corridor around the ego path actors spawn in.
    pub corridor_half_width: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            duration: 25.0,
            ego_speed: 8.0,
            ego_yaw_rate: 0.0,
            actor_counts: vec![
                (ObjectClass::Car, 18),
                (ObjectClass::Truck, 4),
                (ObjectClass::Pedestrian, 8),
                (ObjectClass::Motorcycle, 3),
                (ObjectClass::Bus, 1),
                (ObjectClass::Bicycle, 2),
            ],
            corridor_half_width: 22.0,
        }
    }
}

/// A generated world: ego motion plus actors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct World {
    pub ego: EgoMotion,
    pub actors: Vec<Actor>,
}

impl World {
    /// Generate a world from a config and RNG.
    pub fn generate(cfg: &WorldConfig, rng: &mut impl Rng) -> World {
        let ego = EgoMotion { speed: cfg.ego_speed, yaw_rate: cfg.ego_yaw_rate };
        let mut actors = Vec::new();
        let mut next_track = 0u64;
        // Actors spawn along the corridor the ego will traverse.
        let path_len = cfg.ego_speed * cfg.duration;
        for &(class, count) in &cfg.actor_counts {
            for _ in 0..count {
                let track = TrackId(next_track);
                next_track += 1;
                actors.push(spawn_actor(track, class, path_len, cfg.corridor_half_width, rng));
            }
        }
        World { ego, actors }
    }

    /// Ground-truth ego pose and ego-frame actor boxes at time `t`.
    pub fn snapshot(&self, t: f64) -> (Pose2, Vec<(TrackId, ObjectClass, Box3)>) {
        let ego_pose = self.ego.pose_at(t);
        let inv = ego_pose.inverse();
        let boxes = self
            .actors
            .iter()
            .map(|a| {
                let wb = a.world_box_at(t);
                let center_bev = inv.transform(wb.center.bev());
                let ego_box = Box3::new(
                    loa_geom::Vec3::new(center_bev.x, center_bev.y, wb.center.z),
                    wb.size,
                    normalize_angle(wb.yaw - ego_pose.yaw),
                );
                (a.track, a.class, ego_box)
            })
            .collect();
        (ego_pose, boxes)
    }
}

/// Sample dimensions for a class (truncated at ±2.5σ and floored).
fn sample_dims(class: ObjectClass, rng: &mut impl Rng) -> Size3 {
    let (l, w, h) = class.mean_dims();
    let rel = class.dims_rel_std();
    let mut draw = |mean: f64| {
        let normal = Normal::new(mean, mean * rel).expect("positive std");
        let mut v = normal.sample(rng);
        let lo = mean * (1.0 - 2.5 * rel);
        let hi = mean * (1.0 + 2.5 * rel);
        if !(lo..=hi).contains(&v) {
            v = v.clamp(lo, hi);
        }
        v.max(0.2)
    };
    Size3::new(draw(l), draw(w), draw(h))
}

fn spawn_actor(
    track: TrackId,
    class: ObjectClass,
    path_len: f64,
    half_width: f64,
    rng: &mut impl Rng,
) -> Actor {
    let dims = sample_dims(class, rng);
    // Spawn location: along the ego path with lateral offset. Road lanes at
    // |y| <= 7, sidewalks beyond.
    let x = rng.gen_range(-20.0..path_len + 40.0);
    let is_vru = matches!(class, ObjectClass::Pedestrian | ObjectClass::Bicycle);
    let y = if is_vru {
        // Sidewalks, occasionally crossing.
        let side = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        side * rng.gen_range(7.5..half_width.max(8.5))
    } else if rng.gen_bool(0.25) {
        // Parked lane.
        let side = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        side * rng.gen_range(6.0..7.5)
    } else {
        // Travel lanes.
        let side = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        side * rng.gen_range(1.5..6.0)
    };
    let pos = Vec2::new(x, y);

    let stationary = rng.gen_bool(class.stationary_prob());
    let motion = if stationary {
        // Parked along the road direction.
        let yaw = if rng.gen_bool(0.5) { 0.0 } else { std::f64::consts::PI };
        Motion::Stationary { pos, yaw }
    } else {
        let (speed_mean, speed_std) = class.speed_profile();
        let speed = Normal::new(speed_mean, speed_std)
            .expect("positive std")
            .sample(rng)
            .clamp(0.5, speed_mean + 3.0 * speed_std);
        let crossing = is_vru && rng.gen_bool(0.3);
        let dir = if crossing {
            // Cross the road.
            Vec2::new(0.0, if pos.y > 0.0 { -1.0 } else { 1.0 })
        } else {
            // With or against ego direction.
            Vec2::new(if rng.gen_bool(0.65) { 1.0 } else { -1.0 }, 0.0)
        };
        match rng.gen_range(0..10) {
            0 | 1 if !is_vru => Motion::StopAndGo {
                start: pos,
                dir,
                speed,
                go_time: rng.gen_range(3.0..8.0),
                stop_time: rng.gen_range(2.0..5.0),
            },
            2 if !is_vru => {
                let radius = rng.gen_range(15.0..60.0);
                let angular_vel = (speed / radius) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                Motion::Turning {
                    // Place the spawn point on the circle at angle `phase`.
                    center: pos - Vec2::new(phase.cos(), phase.sin()) * radius,
                    radius,
                    angular_vel,
                    phase,
                }
            }
            _ => Motion::ConstantVelocity { start: pos, velocity: dir * speed },
        }
    };

    Actor { track, class, dims, motion }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    /// World-frame speed at time `t` by finite difference over `dt`.
    fn speed_at(m: &Motion, t: f64, dt: f64) -> f64 {
        m.pose_at(t).0.distance(m.pose_at(t + dt).0) / dt
    }

    #[test]
    fn stationary_motion_does_not_move() {
        let m = Motion::Stationary { pos: Vec2::new(3.0, 4.0), yaw: 0.5 };
        let (p0, y0) = m.pose_at(0.0);
        let (p1, y1) = m.pose_at(10.0);
        assert_eq!(p0, p1);
        assert_eq!(y0, y1);
        assert!(speed_at(&m, 1.0, 0.1) < 1e-9);
    }

    #[test]
    fn constant_velocity_speed_matches() {
        let m = Motion::ConstantVelocity { start: Vec2::ZERO, velocity: Vec2::new(3.0, 4.0) };
        let (p, yaw) = m.pose_at(2.0);
        assert!((p - Vec2::new(6.0, 8.0)).norm() < 1e-12);
        assert!((yaw - (4.0f64).atan2(3.0)).abs() < 1e-12);
        assert!((speed_at(&m, 1.0, 0.2) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn stop_and_go_pauses() {
        let m = Motion::StopAndGo {
            start: Vec2::ZERO,
            dir: Vec2::new(1.0, 0.0),
            speed: 10.0,
            go_time: 2.0,
            stop_time: 3.0,
        };
        // Moves for 2 s (20 m), stops for 3 s, then moves again.
        let (p_end_go, _) = m.pose_at(2.0);
        assert!((p_end_go.x - 20.0).abs() < 1e-9);
        let (p_mid_stop, _) = m.pose_at(4.0);
        assert!((p_mid_stop.x - 20.0).abs() < 1e-9);
        let (p_resumed, _) = m.pose_at(6.0);
        assert!((p_resumed.x - 30.0).abs() < 1e-9);
    }

    #[test]
    fn turning_stays_on_circle() {
        let m = Motion::Turning {
            center: Vec2::new(10.0, 0.0),
            radius: 5.0,
            angular_vel: 0.4,
            phase: 0.0,
        };
        for i in 0..20 {
            let (p, _) = m.pose_at(i as f64 * 0.5);
            assert!((p.distance(Vec2::new(10.0, 0.0)) - 5.0).abs() < 1e-9);
        }
        // Tangential speed = ω r.
        assert!((speed_at(&m, 1.0, 0.01) - 2.0).abs() < 0.01);
    }

    #[test]
    fn ego_straight_path() {
        let ego = EgoMotion { speed: 8.0, yaw_rate: 0.0 };
        let p = ego.pose_at(3.0);
        assert!((p.translation.x - 24.0).abs() < 1e-12);
        assert_eq!(p.translation.y, 0.0);
        assert_eq!(p.yaw, 0.0);
    }

    #[test]
    fn ego_curved_path_preserves_speed() {
        let ego = EgoMotion { speed: 8.0, yaw_rate: 0.05 };
        let dt = 0.01;
        let p0 = ego.pose_at(1.0);
        let p1 = ego.pose_at(1.0 + dt);
        let speed = p0.translation.distance(p1.translation) / dt;
        assert!((speed - 8.0).abs() < 0.01);
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let cfg = WorldConfig::default();
        let w1 = World::generate(&cfg, &mut StdRng::seed_from_u64(9));
        let w2 = World::generate(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(w1.actors.len(), w2.actors.len());
        for (a, b) in w1.actors.iter().zip(&w2.actors) {
            assert_eq!(a.track, b.track);
            assert_eq!(a.class, b.class);
            assert!((a.dims.volume() - b.dims.volume()).abs() < 1e-12);
        }
        let w3 = World::generate(&cfg, &mut StdRng::seed_from_u64(10));
        let same = w1
            .actors
            .iter()
            .zip(&w3.actors)
            .all(|(a, b)| (a.dims.volume() - b.dims.volume()).abs() < 1e-12);
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn generated_actor_counts_match_config() {
        let cfg = WorldConfig::default();
        let w = World::generate(&cfg, &mut StdRng::seed_from_u64(1));
        let total: usize = cfg.actor_counts.iter().map(|&(_, n)| n).sum();
        assert_eq!(w.actors.len(), total);
        for &(class, count) in &cfg.actor_counts {
            let got = w.actors.iter().filter(|a| a.class == class).count();
            assert_eq!(got, count, "{class}");
        }
        // Track ids are unique.
        let mut ids: Vec<u64> = w.actors.iter().map(|a| a.track.0).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), w.actors.len());
    }

    #[test]
    fn snapshot_boxes_are_ego_frame() {
        let mut w = World::generate(&WorldConfig::default(), &mut StdRng::seed_from_u64(2));
        // Pin one actor right in front of the ego's position at t=1 (ego at
        // x=8): world position (18, 0) should be ego-frame (10, 0).
        w.actors[0] = Actor {
            track: TrackId(999),
            class: ObjectClass::Car,
            dims: Size3::new(4.5, 1.9, 1.6),
            motion: Motion::Stationary { pos: Vec2::new(18.0, 0.0), yaw: 0.0 },
        };
        let (ego_pose, boxes) = w.snapshot(1.0);
        assert!((ego_pose.translation.x - 8.0).abs() < 1e-12);
        let (_, _, b) = boxes.iter().find(|(t, _, _)| *t == TrackId(999)).unwrap();
        assert!((b.center.x - 10.0).abs() < 1e-9);
        assert!(b.center.y.abs() < 1e-9);
    }

    #[test]
    fn dims_sampling_within_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for class in ObjectClass::ALL {
            let (l, w, h) = class.mean_dims();
            let rel = class.dims_rel_std();
            for _ in 0..200 {
                let d = sample_dims(class, &mut rng);
                assert!(d.is_valid());
                assert!(d.length >= l * (1.0 - 2.5 * rel) - 1e-9);
                assert!(d.length <= l * (1.0 + 2.5 * rel) + 1e-9);
                assert!(d.width <= w * (1.0 + 2.5 * rel) + 1e-9);
                assert!(d.height <= h * (1.0 + 2.5 * rel) + 1e-9);
            }
        }
    }

    #[test]
    fn world_box_sits_on_ground() {
        let actor = Actor {
            track: TrackId(0),
            class: ObjectClass::Car,
            dims: Size3::new(4.0, 2.0, 1.5),
            motion: Motion::ConstantVelocity { start: Vec2::ZERO, velocity: Vec2::new(5.0, 0.0) },
        };
        let b = actor.world_box_at(2.0);
        let (zmin, _) = b.z_interval();
        assert!(zmin.abs() < 1e-12);
        assert!((b.center.x - 10.0).abs() < 1e-12);
    }
}
