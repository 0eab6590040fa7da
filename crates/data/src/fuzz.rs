//! Procedural scenario fuzzer: seeded world composition plus a
//! taxonomy of typed, injected errors.
//!
//! The handcrafted builders in [`crate::scenarios`] reproduce five of the
//! paper's figures; this module generalizes them into a generator that
//! composes *arbitrary* worlds (randomized actor counts and classes,
//! motion models, ego trajectories, occluder walls, lidar and
//! vendor/detector noise profiles) and then injects a **known, typed
//! error set** per scene. Every injection is recorded in
//! [`InjectedErrors`], so a corpus of fuzzed scenes doubles as an exact
//! recall oracle: an error-finding system that works must surface every
//! injected error near the top of its worklist (`loa_eval`'s
//! `injection_recall` experiment asserts exactly that).
//!
//! Two design rules keep the oracle sound:
//!
//! 1. **Clean substrate.** The fuzzer's vendor and detector profiles
//!    inject *no* spontaneous errors (no random track misses, clutter,
//!    ghosts, or duplicates) — only calibrated observation noise. The
//!    injections are therefore the complete error set.
//! 2. **Observable injections.** Each kind's injector only targets
//!    elements where the error is detectable in principle (e.g. a track
//!    is only deleted from the labels if the detector consistently saw
//!    the object, so a model-only track remains as evidence). An
//!    injector that finds no eligible target injects nothing rather than
//!    planting an unfindable error.

use crate::class::ObjectClass;
use crate::detector::{run_detector, DetectorProfile};
use crate::lidar::LidarConfig;
use crate::scene::simulate_frames;
use crate::types::{
    ClassSwap, Detection, DetectionProvenance, FrameId, GhostId, InconsistentBundle,
    InjectedErrors, MissingBox, MissingTrack, SceneData, TrackId,
};
use crate::vendor::{label_scene, VendorProfile};
use crate::world::{Actor, Motion, World, WorldConfig};
use loa_geom::{normalize_angle, Box3, Size3, Vec2};
use rand::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// The typed error taxonomy, generalizing the paper-figure
/// scenarios (see the table in [`crate::scenarios`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorKind {
    /// A visible, well-detected object with every vendor label removed
    /// (Figures 1/4/8).
    MissingTrack,
    /// A single frame's label dropped from an otherwise-labeled track
    /// (Figure 6).
    MissingBox,
    /// A whole track labeled with a grossly wrong class.
    ClassSwap,
    /// A persistent, geometrically erratic spurious model track
    /// (Figures 5/9).
    GhostTrack,
    /// A spurious model box stacked on a human label, overlapping in BEV
    /// but wildly inconsistent in volume and class (Figure 7).
    InconsistentBundle,
}

impl ErrorKind {
    /// All kinds, in the stable order the fuzzer injects them.
    pub const ALL: [ErrorKind; 5] = [
        ErrorKind::MissingTrack,
        ErrorKind::MissingBox,
        ErrorKind::ClassSwap,
        ErrorKind::GhostTrack,
        ErrorKind::InconsistentBundle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::MissingTrack => "missing-track",
            ErrorKind::MissingBox => "missing-box",
            ErrorKind::ClassSwap => "class-swap",
            ErrorKind::GhostTrack => "ghost-track",
            ErrorKind::InconsistentBundle => "inconsistent-bundle",
        }
    }

    /// How many errors of this kind a scene's audit record carries.
    pub fn count_in(self, injected: &InjectedErrors) -> usize {
        match self {
            ErrorKind::MissingTrack => injected.missing_tracks.len(),
            ErrorKind::MissingBox => injected.missing_boxes.len(),
            ErrorKind::ClassSwap => injected.class_swaps.len(),
            ErrorKind::GhostTrack => injected.ghost_tracks.len(),
            ErrorKind::InconsistentBundle => injected.inconsistent_bundles.len(),
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The grossly-wrong class a swap or inconsistent bundle reports for a
/// true class — chosen so the reported class's volume prior is at least
/// an order of magnitude off (unlike the *confusable* flips of
/// [`ObjectClass::confusable_with`]).
pub fn swap_partner(class: ObjectClass) -> ObjectClass {
    match class {
        ObjectClass::Pedestrian => ObjectClass::Truck,
        ObjectClass::Bicycle => ObjectClass::Bus,
        ObjectClass::Motorcycle => ObjectClass::Truck,
        ObjectClass::Car => ObjectClass::Pedestrian,
        ObjectClass::Truck => ObjectClass::Pedestrian,
        ObjectClass::Bus => ObjectClass::Motorcycle,
    }
}

// ---------------------------------------------------------------------------
// Per-actor eligibility summaries
// ---------------------------------------------------------------------------

/// What one ground-truth actor looks like across a scene — the basis of
/// every injector's eligibility test.
#[derive(Debug, Clone)]
pub struct ActorSummary {
    pub class: ObjectClass,
    /// Frames carrying a vendor label for this actor.
    pub labeled_frames: Vec<FrameId>,
    /// Frames carrying a true-object model detection of this actor.
    pub detected_frames: Vec<FrameId>,
    /// Frames where the actor is visible in the simulation.
    pub visible_frames: Vec<FrameId>,
    /// Closest approach to the AV over visible frames (m).
    pub min_distance: f64,
}

/// Summarize every actor in a scene (evaluation-side helper: reads
/// ground-truth provenance, which the Fixy engine never does).
pub fn summarize_actors(scene: &SceneData) -> Vec<(TrackId, ActorSummary)> {
    let mut map: std::collections::BTreeMap<TrackId, ActorSummary> = Default::default();
    for frame in &scene.frames {
        for g in &frame.gt {
            let entry = map.entry(g.track).or_insert_with(|| ActorSummary {
                class: g.class,
                labeled_frames: Vec::new(),
                detected_frames: Vec::new(),
                visible_frames: Vec::new(),
                min_distance: f64::INFINITY,
            });
            if g.visible {
                entry.visible_frames.push(frame.index);
                entry.min_distance = entry.min_distance.min(g.bbox.ground_distance_to_origin());
            }
        }
        for l in &frame.human_labels {
            if let Some(entry) = map.get_mut(&l.gt_track) {
                entry.labeled_frames.push(frame.index);
            }
        }
        for d in &frame.detections {
            if let DetectionProvenance::TrueObject(t) = d.provenance {
                if let Some(entry) = map.get_mut(&t) {
                    entry.detected_frames.push(frame.index);
                }
            }
        }
    }
    map.into_iter().collect()
}

/// Remove the vendor labels of `track` from every frame and record it as
/// an entirely-missing track (shared with the handcrafted scenarios).
pub fn strip_track_labels(scene: &mut SceneData, track: TrackId, class: ObjectClass) {
    let mut visible_frames = Vec::new();
    for frame in &mut scene.frames {
        frame.human_labels.retain(|l| l.gt_track != track);
        if frame.gt.iter().any(|g| g.track == track && g.visible) {
            visible_frames.push(frame.index);
        }
    }
    scene
        .injected
        .missing_tracks
        .push(MissingTrack { track, class, visible_frames });
}

// ---------------------------------------------------------------------------
// Injectors
// ---------------------------------------------------------------------------

impl ErrorKind {
    /// Inject one error instance of this kind through its injector,
    /// recording it in `scene.injected`; an injector that finds no
    /// eligible target injects nothing. `used` carries the actors already
    /// targeted by earlier injections in the scene so two injections
    /// never collide on one track (which could make either unfindable).
    fn inject(self, scene: &mut SceneData, used: &mut BTreeSet<TrackId>, rng: &mut StdRng) {
        match self {
            ErrorKind::MissingTrack => inject_missing_track(scene, used, rng),
            ErrorKind::MissingBox => inject_missing_box(scene, used, rng),
            ErrorKind::ClassSwap => inject_class_swap(scene, used, rng),
            ErrorKind::GhostTrack => inject_ghost_track(scene, rng),
            ErrorKind::InconsistentBundle => inject_inconsistent_bundle(scene, used, rng),
        }
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(0..items.len())])
    }
}

/// Deletes every label of a well-detected, nearby labeled track — the
/// Figure 1/4/8 error. Eligibility demands dense model coverage so the
/// remaining model-only track is long enough to survive the Count filter
/// and consistent enough to rank as a likely real object.
fn inject_missing_track(scene: &mut SceneData, used: &mut BTreeSet<TrackId>, rng: &mut StdRng) {
    let summaries = summarize_actors(scene);
    let eligible: Vec<(TrackId, ObjectClass)> = summaries
        .iter()
        .filter(|(track, s)| {
            !used.contains(track)
                && !s.labeled_frames.is_empty()
                && s.detected_frames.len() >= MISSING_TRACK_MIN_DETECTED_FRAMES
                && s.min_distance <= MISSING_TRACK_MAX_DISTANCE
                && dense_coverage(&s.detected_frames)
                && track_is_cohesive(scene, *track, &s.detected_frames)
                && actor_is_isolated(scene, *track, &s.detected_frames)
                && volume_is_typical(scene, *track)
        })
        .map(|(track, s)| (*track, s.class))
        .collect();
    let Some(&(track, class)) = pick(&eligible, rng) else {
        return;
    };
    used.insert(track);
    strip_track_labels(scene, track, class);
}

/// A missing-track target needs model boxes on at least this many frames.
const MISSING_TRACK_MIN_DETECTED_FRAMES: usize = 8;
/// A missing-track target comes within this ground distance (m) of the ego.
const MISSING_TRACK_MAX_DISTANCE: f64 = 30.0;

/// Whether a frame set has few holes between its first and last entry —
/// the tracker (max gap 2) will chain such detections into one track.
fn dense_coverage(frames: &[FrameId]) -> bool {
    let (Some(first), Some(last)) = (frames.first(), frames.last()) else {
        return false;
    };
    let span = (last.0 - first.0 + 1) as usize;
    frames.len() * 10 >= span * 9 // ≥ 90% of the span covered
}

/// Whether an actor keeps clear of every *other* visible actor around
/// its frames. Worlds are sampled without collision avoidance, so two
/// actors can overlap; the tracker (BEV IOU > 0.05 across adjacent
/// frames) would then chain one actor's detections into the other's
/// track, and an error injected on either becomes unobservable (e.g. a
/// stripped track's evidence merges into a labeled track and is zeroed
/// by the human-presence AOF).
fn actor_is_isolated(scene: &SceneData, track: TrackId, frames: &[FrameId]) -> bool {
    for &f in frames {
        let idx = f.0 as usize;
        let Some(own) = scene.frames[idx].gt.iter().find(|g| g.track == track) else {
            return false;
        };
        // Check the frame and its neighbors out to the tracker's max gap
        // (cross-frame links can bridge two frames).
        let lo = idx.saturating_sub(2);
        let hi = (idx + 2).min(scene.frames.len() - 1);
        for frame in &scene.frames[lo..=hi] {
            for other in frame.gt.iter().filter(|g| g.track != track && g.visible) {
                if loa_geom::iou_bev(&own.bbox, &other.bbox) > 0.02 {
                    return false;
                }
            }
        }
    }
    true
}

/// Whether an actor's boxes at the given frames will chain into one
/// assembled track: consecutive entries at most the tracker's gap apart
/// and overlapping comfortably above its IOU threshold. Fast, small
/// objects can move a full box length between frames; targeting such an
/// actor would fragment the evidence into Count-filtered singletons.
fn track_is_cohesive(scene: &SceneData, track: TrackId, frames: &[FrameId]) -> bool {
    if frames.len() < 2 {
        return false;
    }
    let box_at = |f: FrameId| {
        scene.frames[f.0 as usize]
            .gt
            .iter()
            .find(|g| g.track == track)
            .map(|g| g.bbox)
    };
    for w in frames.windows(2) {
        if w[1].0 - w[0].0 > 2 {
            return false;
        }
        let (Some(a), Some(b)) = (box_at(w[0]), box_at(w[1])) else {
            return false;
        };
        if loa_geom::iou_bev(&a, &b) < 0.15 {
            return false;
        }
    }
    true
}

/// Drops one frame's label from a labeled track while the detector saw
/// the object that frame — the Figure 6 error. The surviving model
/// detection becomes a model-only bundle inside a human track, exactly
/// the shape the missing-observation application surfaces.
fn inject_missing_box(scene: &mut SceneData, used: &mut BTreeSet<TrackId>, rng: &mut StdRng) {
    let summaries = summarize_actors(scene);
    // Eligible: (track, frame) pairs where dropping the label leaves a
    // detection behind, the track stays labeled elsewhere, and the
    // object is close enough for the distance-severity weight to rank
    // it above far association debris.
    let mut eligible: Vec<(TrackId, ObjectClass, FrameId)> = Vec::new();
    for (track, s) in &summaries {
        if used.contains(track)
            || s.labeled_frames.len() < MISSING_BOX_MIN_LABELED_FRAMES
            || s.min_distance > MISSING_BOX_MAX_DISTANCE
            || !track_is_cohesive(scene, *track, &s.labeled_frames)
            || !volume_is_typical(scene, *track)
        {
            continue;
        }
        let detected: BTreeSet<FrameId> = s.detected_frames.iter().copied().collect();
        // Interior labeled frames only, so the track remains labeled on
        // both sides and the dropped frame clearly belongs to it. The
        // actor must also be isolated around the dropped frame: an
        // overlapping neighbor's label would absorb the surviving
        // detection into its bundle and zero the model-only factor.
        for &f in &s.labeled_frames[1..s.labeled_frames.len().saturating_sub(1)] {
            if detected.contains(&f)
                && near_at_frame(scene, *track, f, MISSING_BOX_MAX_DISTANCE)
                && actor_is_isolated(scene, *track, &[f])
            {
                eligible.push((*track, s.class, f));
            }
        }
    }
    let Some(&(track, class, frame)) = pick(&eligible, rng) else {
        return;
    };
    used.insert(track);
    scene.frames[frame.0 as usize]
        .human_labels
        .retain(|l| l.gt_track != track);
    scene.injected.missing_boxes.push(MissingBox { track, class, frame });
}

/// A missing-box track is labeled on at least this many frames.
const MISSING_BOX_MIN_LABELED_FRAMES: usize = 6;
/// A missing box lies within this ground distance (m) of the ego.
const MISSING_BOX_MAX_DISTANCE: f64 = 22.0;

fn near_at_frame(scene: &SceneData, track: TrackId, frame: FrameId, max_distance: f64) -> bool {
    scene.frames[frame.0 as usize]
        .gt
        .iter()
        .find(|g| g.track == track)
        .map(|g| g.bbox.ground_distance_to_origin() <= max_distance)
        .unwrap_or(false)
}

/// Whether an actor's box volume sits comfortably inside its class's
/// typical range (±1.5 relative σ per dimension). Actors sampled at the
/// ±2.5σ tails can fall outside the narrow per-class KDE support learned
/// from a small training corpus, flooring their likelihood — a stripped
/// or dropped label on such an actor would sink in the *identity*-AOF
/// rankings through no fault of the engine.
fn volume_is_typical(scene: &SceneData, track: TrackId) -> bool {
    let Some(g) = scene
        .frames
        .iter()
        .flat_map(|f| f.gt.iter())
        .find(|g| g.track == track)
    else {
        return false;
    };
    let (l, w, h) = g.class.mean_dims();
    let rel = g.class.dims_rel_std();
    let ratio = g.bbox.volume() / (l * w * h);
    let band = 1.0 + 1.2 * rel;
    ratio <= band.powi(3) && ratio >= band.powi(-3)
}

/// Relabels every box of a labeled track with a grossly wrong class
/// (pedestrian as truck): the boxes stay correct, the class prior is
/// violated by an order of magnitude, so the class-conditional volume
/// distribution flags the track.
fn inject_class_swap(scene: &mut SceneData, used: &mut BTreeSet<TrackId>, rng: &mut StdRng) {
    let summaries = summarize_actors(scene);
    let eligible: Vec<(TrackId, ObjectClass)> = summaries
        .iter()
        .filter(|(track, s)| {
            !used.contains(track)
                && s.labeled_frames.len() >= CLASS_SWAP_MIN_LABELED_FRAMES
                && track_is_cohesive(scene, *track, &s.labeled_frames)
        })
        .map(|(track, s)| (*track, s.class))
        .collect();
    let Some(&(track, true_class)) = pick(&eligible, rng) else {
        return;
    };
    used.insert(track);
    let labeled_class = swap_partner(true_class);
    let mut frames = Vec::new();
    for frame in &mut scene.frames {
        for label in frame.human_labels.iter_mut().filter(|l| l.gt_track == track) {
            label.class = labeled_class;
            frames.push(frame.index);
        }
    }
    scene
        .injected
        .class_swaps
        .push(ClassSwap { track, true_class, labeled_class, frames });
}

/// A class-swap track is labeled on at least this many frames.
const CLASS_SWAP_MIN_LABELED_FRAMES: usize = 6;

/// Injects a persistent, geometrically erratic spurious model track (the
/// Figure 5/9 ghost): consecutive high-confidence boxes that overlap
/// frame to frame yet teleport, change volume, and spin implausibly.
fn inject_ghost_track(scene: &mut SceneData, rng: &mut StdRng) {
    let n_frames = scene.frames.len();
    if n_frames < GHOST_MIN_FRAMES {
        return;
    }
    let ghost = GhostId(
        scene
            .injected
            .ghost_tracks
            .iter()
            .map(|(g, _)| g.0 + 1)
            .max()
            .unwrap_or(0),
    );
    // Every factor of the ghost must be implausible *by construction*
    // so its inverted score is near the maximum regardless of how the
    // learned library generalizes: a hugely blown-up truck box (volume
    // far outside any class's support), teleporting several box
    // lengths per frame (25+ m/s, beyond every training velocity),
    // spinning at ≥ 1.25 rad/s (beyond any turning actor). The drift
    // direction follows the box heading so consecutive boxes still
    // overlap and the tracker chains them. A walk that wanders onto a
    // real object would merge with its track and dilute the evidence;
    // retry placements until the whole walk stays clear.
    for _attempt in 0..8 {
        let span = rng.gen_range(GHOST_MIN_FRAMES..=GHOST_MAX_FRAMES.min(n_frames));
        let start = rng.gen_range(0..=(n_frames - span));
        let class = ObjectClass::Truck;
        let (ml, mw, mh) = class.mean_dims();
        let base_scale = rng.gen_range(2.4..2.8);
        let r = rng.gen_range(10.0..30.0);
        let theta = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let mut pos = Vec2::new(r * theta.cos(), r * theta.sin());
        let mut yaw = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let confidence: f64 = rng.gen_range(0.85..0.95);
        let mut boxes: Vec<(usize, Box3, f64)> = Vec::new();
        for k in 0..span {
            let idx = start + k;
            let scale = base_scale * rng.gen_range(0.92..1.08);
            let length = ml * scale;
            // Drift ~1/3 of the box length along the heading: ≈ 30 m/s
            // at 5 Hz for a 20 m box.
            let step = rng.gen_range(0.28..0.35) * length;
            let dir = yaw + rng.gen_range(-0.25..0.25);
            pos += Vec2::new(dir.cos(), dir.sin()) * step;
            // Spin well past any plausible yaw rate, random sign.
            let spin = rng.gen_range(0.25..0.40) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            yaw = normalize_angle(yaw + spin);
            let bbox = Box3::on_ground(
                pos.x,
                pos.y,
                0.0,
                length,
                mw * scale * rng.gen_range(0.9..1.1),
                mh * rng.gen_range(0.8..1.2),
                yaw,
            );
            let conf = (confidence + rng.gen_range(-0.04..0.04)).clamp(0.05, 0.99);
            boxes.push((idx, bbox, conf));
        }
        if !ghost_walk_is_isolated(scene, &boxes) || !ghost_walk_is_cohesive(&boxes) {
            continue;
        }
        let mut frames_hit = Vec::new();
        for (idx, bbox, conf) in boxes {
            scene.frames[idx].detections.push(Detection {
                bbox,
                class,
                confidence: conf,
                provenance: DetectionProvenance::PersistentGhost(ghost),
                class_correct: true,
                localization_error: false,
            });
            frames_hit.push(FrameId(idx as u32));
        }
        scene.injected.ghost_tracks.push((ghost, frames_hit));
        return;
    }
}

/// A ghost walk spans at least this many frames…
const GHOST_MIN_FRAMES: usize = 6;
/// …and at most this many (or the whole scene, if shorter).
const GHOST_MAX_FRAMES: usize = 10;

/// Whether consecutive boxes of a candidate ghost walk overlap enough
/// for the tracker to chain them into one track: an erratic draw whose
/// boxes barely touch would fragment into Count-filtered singletons.
fn ghost_walk_is_cohesive(boxes: &[(usize, Box3, f64)]) -> bool {
    boxes.windows(2).all(|w| loa_geom::iou_bev(&w[0].1, &w[1].1) > 0.15)
}

/// Whether every box of a candidate ghost walk keeps clear of visible
/// ground truth and of already-present detections in its frame and the
/// adjacent ones (so the ghost forms its own model-only track).
fn ghost_walk_is_isolated(scene: &SceneData, boxes: &[(usize, Box3, f64)]) -> bool {
    for &(idx, ref bbox, _) in boxes {
        let lo = idx.saturating_sub(2);
        let hi = (idx + 2).min(scene.frames.len() - 1);
        for frame in &scene.frames[lo..=hi] {
            let gt_clear = frame
                .gt
                .iter()
                .filter(|g| g.visible)
                .all(|g| loa_geom::iou_bev(bbox, &g.bbox) <= 0.02);
            let det_clear = frame
                .detections
                .iter()
                .all(|d| loa_geom::iou_bev(bbox, &d.bbox) <= 0.02);
            if !gt_clear || !det_clear {
                return false;
            }
        }
    }
    true
}

/// Stacks a spurious model box on a human label of a nearby object — the
/// Figure 7 inconsistent bundle. The footprint is inflated just enough to
/// keep BEV IOU above the bundling threshold while the height (and class)
/// make the bundle's volumes wildly inconsistent.
fn inject_inconsistent_bundle(
    scene: &mut SceneData,
    used: &mut BTreeSet<TrackId>,
    rng: &mut StdRng,
) {
    let summaries = summarize_actors(scene);
    let mut eligible: Vec<(TrackId, ObjectClass, FrameId)> = Vec::new();
    for (track, s) in &summaries {
        if used.contains(track) || s.labeled_frames.len() < 4 {
            continue;
        }
        for &f in &s.labeled_frames {
            if near_at_frame(scene, *track, f, BUNDLE_MAX_DISTANCE) {
                eligible.push((*track, s.class, f));
            }
        }
    }
    let Some(&(track, true_class, frame)) = pick(&eligible, rng) else {
        return;
    };
    used.insert(track);
    let spurious_class = swap_partner(true_class);
    let frame_data = &mut scene.frames[frame.0 as usize];
    let label_box = frame_data
        .human_labels
        .iter()
        .find(|l| l.gt_track == track)
        .map(|l| l.bbox)
        .expect("eligibility checked the label exists");
    let size = Size3::new(
        label_box.size.length * BUNDLE_FOOTPRINT_SCALE,
        label_box.size.width * BUNDLE_FOOTPRINT_SCALE,
        label_box.size.height * BUNDLE_HEIGHT_SCALE,
    );
    let center = loa_geom::Vec3::new(
        label_box.center.x,
        label_box.center.y,
        size.height / 2.0 - label_box.size.height / 2.0 + label_box.center.z,
    );
    frame_data.detections.push(Detection {
        bbox: Box3::new(center, size, label_box.yaw),
        class: spurious_class,
        confidence: rng.gen_range(0.6..0.8),
        provenance: DetectionProvenance::Clutter,
        class_correct: true,
        localization_error: false,
    });
    scene.injected.inconsistent_bundles.push(InconsistentBundle {
        track,
        frame,
        true_class,
        spurious_class,
    });
}

/// An inconsistent bundle's label lies within this ground distance (m)
/// of the ego.
const BUNDLE_MAX_DISTANCE: f64 = 30.0;
/// BEV footprint inflation of the spurious box (IOU with the label
/// ≈ 1/f² must stay above the 0.5 bundling threshold).
const BUNDLE_FOOTPRINT_SCALE: f64 = 1.18;
/// Height inflation of the spurious box — the volume-inconsistency
/// driver.
const BUNDLE_HEIGHT_SCALE: f64 = 5.0;

// ---------------------------------------------------------------------------
// The fuzzer
// ---------------------------------------------------------------------------

/// Ranges the fuzzer draws each scene's world and noise profile from.
#[derive(Debug, Clone)]
pub struct FuzzProfile {
    /// Scene duration range (s).
    pub duration: (f64, f64),
    /// Seconds between frames.
    pub frame_dt: f64,
    /// Ego speed range (m/s).
    pub ego_speed: (f64, f64),
    /// Ego yaw-rate range (rad/s) — gentle curves either way.
    pub ego_yaw_rate: (f64, f64),
    /// Lidar beam count range.
    pub beam_count: (usize, usize),
    /// Extra actors beyond the guaranteed one-per-class cast.
    pub extra_actors: (usize, usize),
    /// Probability of spawning an occluder wall of slow traffic.
    pub occluder_prob: f64,
    /// Injections attempted per error kind per scene.
    pub errors_per_kind: (usize, usize),
    /// Vendor center-jitter range (m).
    pub vendor_jitter: (f64, f64),
    /// Detector center-noise range (m).
    pub detector_noise: (f64, f64),
}

impl Default for FuzzProfile {
    fn default() -> Self {
        FuzzProfile {
            duration: (7.0, 10.0),
            frame_dt: 0.2,
            ego_speed: (4.0, 9.0),
            ego_yaw_rate: (-0.04, 0.04),
            beam_count: (300, 480),
            extra_actors: (2, 8),
            occluder_prob: 0.35,
            errors_per_kind: (0, 2),
            vendor_jitter: (0.03, 0.08),
            detector_noise: (0.03, 0.07),
        }
    }
}

/// A vendor that never errs on its own: every injected label error comes
/// from the injectors, keeping the audit record exact.
fn clean_vendor(jitter: f64) -> VendorProfile {
    VendorProfile {
        track_miss_base: 0.0,
        track_miss_difficulty_weight: 0.0,
        frame_miss_rate: 0.0,
        center_jitter_std: jitter,
        size_jitter_rel_std: 0.03,
        yaw_jitter_std: 0.015,
        class_flip_rate: 0.0,
        min_visible_frames: 1,
    }
}

/// A detector with calibrated noise but no spontaneous false positives,
/// duplicates, confusions, or gross errors.
fn clean_detector(noise: f64) -> DetectorProfile {
    DetectorProfile {
        clutter_rate_per_frame: 0.0,
        persistent_ghosts_per_scene: 0.0,
        duplicate_rate: 0.0,
        gross_loc_error_rate: 0.0,
        track_confusion_rate: 0.0,
        class_confusion_rate: 0.0,
        center_noise_std: noise,
        size_noise_rel_std: 0.04,
        yaw_noise_std: 0.03,
        ..DetectorProfile::internal_like()
    }
}

/// Remove actors whose trajectory overlaps an earlier-kept actor's at
/// any frame (BEV IOU above a small epsilon). Greedy in actor order, so
/// the guaranteed one-per-class cast (spawned first) survives.
fn drop_colliding_actors(world: &mut World, duration: f64, dt: f64) {
    let n_frames = (duration / dt).round().max(1.0) as usize;
    let mut kept: Vec<Actor> = Vec::with_capacity(world.actors.len());
    let mut kept_boxes: Vec<Vec<Box3>> = Vec::new();
    for actor in world.actors.drain(..) {
        let boxes: Vec<Box3> = (0..n_frames).map(|i| actor.world_box_at(i as f64 * dt)).collect();
        let clear = kept_boxes
            .iter()
            .all(|other| boxes.iter().zip(other).all(|(a, b)| loa_geom::iou_bev(a, b) <= 0.02));
        if clear {
            kept.push(actor);
            kept_boxes.push(boxes);
        }
    }
    world.actors = kept;
}

/// SplitMix64 — decorrelates per-scene streams from `(seed, index)`.
fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded procedural scenario fuzzer. The same `(seed, index)` pair
/// always produces the byte-identical scene.
#[derive(Debug)]
pub struct ScenarioFuzzer {
    pub profile: FuzzProfile,
    seed: u64,
}

impl ScenarioFuzzer {
    /// A fuzzer with the default profile.
    pub fn new(seed: u64) -> Self {
        ScenarioFuzzer { profile: FuzzProfile::default(), seed }
    }

    pub fn with_profile(mut self, profile: FuzzProfile) -> Self {
        self.profile = profile;
        self
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Compose the world for scene `index` (no labels or errors yet).
    fn compose_world(&self, rng: &mut StdRng) -> (World, f64, LidarConfig) {
        let p = &self.profile;
        let duration = rng.gen_range(p.duration.0..=p.duration.1);
        let ego_speed = rng.gen_range(p.ego_speed.0..=p.ego_speed.1);
        let ego_yaw_rate = rng.gen_range(p.ego_yaw_rate.0..=p.ego_yaw_rate.1);

        // A guaranteed cast of one actor per class (so every class's
        // volume prior is learnable from any corpus) plus a random crowd.
        let mut actor_counts: Vec<(ObjectClass, usize)> =
            ObjectClass::ALL.iter().map(|&c| (c, 1)).collect();
        let extra = rng.gen_range(p.extra_actors.0..=p.extra_actors.1);
        for _ in 0..extra {
            // Weighted toward the common classes.
            let class = match rng.gen_range(0..10) {
                0..=4 => ObjectClass::Car,
                5 | 6 => ObjectClass::Pedestrian,
                7 => ObjectClass::Truck,
                8 => ObjectClass::Motorcycle,
                _ => ObjectClass::Bicycle,
            };
            if let Some(entry) = actor_counts.iter_mut().find(|(c, _)| *c == class) {
                entry.1 += 1;
            }
        }
        let cfg = WorldConfig {
            duration,
            ego_speed,
            ego_yaw_rate,
            actor_counts,
            corridor_half_width: rng.gen_range(16.0..24.0),
        };
        let mut world = World::generate(&cfg, rng);

        // Occasionally add an occluder wall of slow traffic beside the
        // ego lane (the Figure 4 situation, procedurally).
        if rng.gen_bool(p.occluder_prob) {
            let next = world.actors.iter().map(|a| a.track.0 + 1).max().unwrap_or(0);
            let side = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let speed = ego_speed * rng.gen_range(0.8..1.0);
            let (l, w, h) = ObjectClass::Car.mean_dims();
            for i in 0..rng.gen_range(3u64..6) {
                world.actors.push(Actor {
                    track: TrackId(next + i),
                    class: ObjectClass::Car,
                    dims: Size3::new(l, w, h),
                    motion: Motion::ConstantVelocity {
                        start: Vec2::new(6.0 + i as f64 * 6.5, side * 3.2),
                        velocity: Vec2::new(speed, 0.0),
                    },
                });
            }
        }

        // Worlds are sampled without collision avoidance; two actors
        // driving through each other produce naturally-inconsistent
        // bundles and merged tracks that would muddy the injected-error
        // oracle. Keep each actor only if its whole trajectory stays
        // clear of every already-kept actor.
        drop_colliding_actors(&mut world, duration, p.frame_dt);

        let lidar = LidarConfig {
            beam_count: rng.gen_range(p.beam_count.0..=p.beam_count.1),
            ..LidarConfig::default()
        };
        (world, duration, lidar)
    }

    /// Build one scene: compose a world, label and detect it cleanly,
    /// then (optionally) inject each error kind into it.
    fn build(&self, index: u64, with_errors: bool) -> SceneData {
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, index));
        let p = &self.profile;
        let (world, duration, lidar) = self.compose_world(&mut rng);
        let mut frames = simulate_frames(&world, &lidar, duration, p.frame_dt);
        let vendor = clean_vendor(rng.gen_range(p.vendor_jitter.0..=p.vendor_jitter.1));
        let detector = clean_detector(rng.gen_range(p.detector_noise.0..=p.detector_noise.1));
        let vendor_outcome = label_scene(&mut frames, &vendor, &mut rng);
        let detector_outcome = run_detector(&mut frames, &detector, &mut rng);
        debug_assert!(vendor_outcome.missing_tracks.is_empty());
        debug_assert!(detector_outcome.ghost_tracks.is_empty());
        // Clean-substrate rule: drop detections of objects below the
        // visibility threshold. The detector fires on a handful of lidar
        // returns while the vendor (by design) only labels visible
        // objects; letting those through would strew unrecorded
        // missing-label lookalikes through every scene and poison the
        // oracle's denominator.
        for frame in &mut frames {
            let visible: BTreeSet<TrackId> =
                frame.gt.iter().filter(|g| g.visible).map(|g| g.track).collect();
            frame.detections.retain(|d| match d.provenance {
                DetectionProvenance::TrueObject(t) | DetectionProvenance::Duplicate(t) => {
                    visible.contains(&t)
                }
                _ => true,
            });
        }

        let kind_tag = if with_errors { "fuzz" } else { "fuzz-clean" };
        let mut scene = SceneData {
            id: format!("{kind_tag}-{index:04}-s{}", self.seed),
            frame_dt: p.frame_dt,
            frames,
            injected: InjectedErrors::default(),
        };
        if with_errors {
            let mut used = BTreeSet::new();
            for kind in ErrorKind::ALL {
                let n = rng.gen_range(p.errors_per_kind.0..=p.errors_per_kind.1);
                for _ in 0..n {
                    kind.inject(&mut scene, &mut used, &mut rng);
                }
            }
        }
        scene
    }

    /// Scene `index` of the corpus, with its injected error set.
    pub fn scene(&self, index: u64) -> SceneData {
        self.build(index, true)
    }

    /// A clean (error-free) scene for learning feature libraries;
    /// index-space is disjoint from [`scene`](Self::scene) output ids.
    pub fn clean_scene(&self, index: u64) -> SceneData {
        self.build(index, false)
    }

    /// The first `n` fuzzed scenes.
    pub fn corpus(&self, n: usize) -> Vec<SceneData> {
        (0..n as u64).map(|i| self.scene(i)).collect()
    }

    /// `n` clean training scenes (indices offset so they never reuse a
    /// corpus scene's stream).
    pub fn training_corpus(&self, n: usize) -> Vec<SceneData> {
        (0..n as u64).map(|i| self.clean_scene(1_000_000 + i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus() {
        let a = ScenarioFuzzer::new(7).corpus(3);
        let b = ScenarioFuzzer::new(7).corpus(3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(
                serde_json::to_string(x).unwrap(),
                serde_json::to_string(y).unwrap(),
                "scene {} differs between runs",
                x.id
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScenarioFuzzer::new(1).scene(0);
        let b = ScenarioFuzzer::new(2).scene(0);
        assert_ne!(
            serde_json::to_string(&a).unwrap().len(),
            serde_json::to_string(&b).unwrap().len()
        );
    }

    #[test]
    fn fuzzed_scenes_validate_and_carry_typed_errors() {
        let fuzzer = ScenarioFuzzer::new(11);
        let mut totals = [0usize; ErrorKind::ALL.len()];
        for scene in fuzzer.corpus(8) {
            scene.validate().unwrap();
            for (i, kind) in ErrorKind::ALL.into_iter().enumerate() {
                totals[i] += kind.count_in(&scene.injected);
            }
        }
        // Across 8 scenes with 0–2 injections per kind, every kind should
        // land at least once.
        for (i, kind) in ErrorKind::ALL.into_iter().enumerate() {
            assert!(totals[i] > 0, "no {kind} injected across the corpus");
        }
    }

    /// A profile pinning the duration (`(2.0, 2.0)`) gives every scene
    /// exactly that duration: 2 s at 0.2 s per frame is 10 frames.
    #[test]
    fn equal_bound_duration_builds_fixed_length_scenes() {
        let profile = FuzzProfile { duration: (2.0, 2.0), ..FuzzProfile::default() };
        let fuzzer = ScenarioFuzzer::new(5).with_profile(profile);
        for index in 0..3 {
            let scene = fuzzer.scene(index);
            scene.validate().unwrap();
            assert_eq!(scene.frames.len(), 10, "scene {}", scene.id);
        }
    }

    #[test]
    fn clean_scenes_have_no_errors() {
        let fuzzer = ScenarioFuzzer::new(3);
        for scene in fuzzer.training_corpus(3) {
            assert_eq!(scene.injected.label_error_count(), 0);
            assert!(scene.injected.ghost_tracks.is_empty());
            assert!(scene.injected.inconsistent_bundles.is_empty());
        }
    }

    #[test]
    fn missing_track_injection_is_observable() {
        let fuzzer = ScenarioFuzzer::new(21);
        for scene in fuzzer.corpus(6) {
            for mt in &scene.injected.missing_tracks {
                // No labels remain…
                for frame in &scene.frames {
                    assert!(!frame.human_labels.iter().any(|l| l.gt_track == mt.track));
                }
                // …but the detector evidence does.
                let detections: usize = scene
                    .frames
                    .iter()
                    .flat_map(|f| &f.detections)
                    .filter(|d| d.provenance == DetectionProvenance::TrueObject(mt.track))
                    .count();
                assert!(detections >= 8, "only {detections} detections back the missing track");
            }
        }
    }

    #[test]
    fn missing_box_leaves_detection_and_other_labels() {
        let fuzzer = ScenarioFuzzer::new(33);
        for scene in fuzzer.corpus(6) {
            for mb in &scene.injected.missing_boxes {
                let frame = &scene.frames[mb.frame.0 as usize];
                assert!(!frame.human_labels.iter().any(|l| l.gt_track == mb.track));
                assert!(frame
                    .detections
                    .iter()
                    .any(|d| d.provenance == DetectionProvenance::TrueObject(mb.track)));
                let labeled_elsewhere = scene
                    .frames
                    .iter()
                    .filter(|f| f.human_labels.iter().any(|l| l.gt_track == mb.track))
                    .count();
                assert!(labeled_elsewhere >= 4);
            }
        }
    }

    #[test]
    fn class_swap_relabels_every_frame() {
        let fuzzer = ScenarioFuzzer::new(5);
        let mut seen = 0;
        for scene in fuzzer.corpus(6) {
            for swap in &scene.injected.class_swaps {
                seen += 1;
                assert_eq!(swap.labeled_class, swap_partner(swap.true_class));
                for frame in &scene.frames {
                    for l in frame.human_labels.iter().filter(|l| l.gt_track == swap.track) {
                        assert_eq!(l.class, swap.labeled_class);
                    }
                }
                // The volume prior gap is the findability guarantee.
                let vol = |c: ObjectClass| {
                    let (l, w, h) = c.mean_dims();
                    l * w * h
                };
                let ratio = vol(swap.true_class) / vol(swap.labeled_class);
                assert!(!(1.0 / 8.0..=8.0).contains(&ratio), "swap not extreme: {ratio}");
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn ghost_track_boxes_overlap_consecutively() {
        let fuzzer = ScenarioFuzzer::new(13);
        let mut seen = 0;
        for scene in fuzzer.corpus(6) {
            for (ghost, span) in &scene.injected.ghost_tracks {
                seen += 1;
                assert!(span.len() >= 6);
                let boxes: Vec<Box3> = span
                    .iter()
                    .map(|f| {
                        scene.frames[f.0 as usize]
                            .detections
                            .iter()
                            .find(|d| d.provenance == DetectionProvenance::PersistentGhost(*ghost))
                            .unwrap()
                            .bbox
                    })
                    .collect();
                for w in boxes.windows(2) {
                    assert!(
                        loa_geom::iou_bev(&w[0], &w[1]) > 0.05,
                        "ghost boxes must overlap so the tracker links them"
                    );
                }
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn inconsistent_bundle_overlaps_label_with_extreme_volume() {
        let fuzzer = ScenarioFuzzer::new(17);
        let mut seen = 0;
        for scene in fuzzer.corpus(6) {
            for ib in &scene.injected.inconsistent_bundles {
                seen += 1;
                let frame = &scene.frames[ib.frame.0 as usize];
                let label = frame
                    .human_labels
                    .iter()
                    .find(|l| l.gt_track == ib.track)
                    .expect("label present");
                let spurious = frame
                    .detections
                    .iter()
                    .find(|d| {
                        d.provenance == DetectionProvenance::Clutter && d.class == ib.spurious_class
                    })
                    .expect("spurious box present");
                // Bundles (IOU > 0.5) but volume wildly inconsistent.
                assert!(loa_geom::iou_bev(&label.bbox, &spurious.bbox) > 0.5);
                let ratio = spurious.bbox.volume() / label.bbox.volume();
                assert!(ratio > 4.0, "volume ratio only {ratio}");
            }
        }
        assert!(seen > 0);
    }
}
