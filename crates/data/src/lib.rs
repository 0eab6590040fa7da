//! Synthetic AV perception dataset substrate for the Fixy reproduction.
//!
//! Replaces the paper's two proprietary resources — the Lyft Level 5
//! perception dataset and the internal TRI dataset, plus their labeling
//! vendors and LIDAR detectors — with a fully controlled simulator:
//!
//! * [`world`] — ego + actor trajectory simulation with class-conditional
//!   physical priors,
//! * [`lidar`] — angular-occlusion LIDAR visibility model (return counts,
//!   occlusion fractions),
//! * [`vendor`] — human-label simulator with injected error classes
//!   (entirely-missing tracks, per-frame misses, jitter, class flips),
//! * [`detector`] — LIDAR-model simulator (distance/occlusion-driven
//!   misses, localization noise, confidence calibration, clutter,
//!   persistent inconsistent ghosts, duplicate boxes, class confusion),
//! * [`scene`] — dataset profiles ([`DatasetProfile::LyftLike`],
//!   [`DatasetProfile::InternalLike`]) and scene/dataset generation,
//! * [`scenarios`] — handcrafted scenario builders for the paper's figures,
//! * [`io`] — JSON persistence.
//!
//! Every injected error is recorded in [`InjectedErrors`], giving the
//! evaluation harness the exact audit the paper needed human experts for.

pub mod class;
pub mod detector;
pub mod fuzz;
pub mod io;
pub mod lidar;
pub mod scenarios;
pub mod scene;
pub mod types;
pub mod vendor;
pub mod world;

pub use class::ObjectClass;
pub use detector::DetectorProfile;
pub use fuzz::{ErrorKind, FuzzProfile, ScenarioFuzzer};
pub use lidar::{LidarConfig, Visibility};
pub use scene::{generate_dataset, generate_scene, DatasetProfile, SceneConfig};
pub use types::{
    ClassFlip, ClassSwap, Detection, DetectionProvenance, Frame, FrameId, GhostId, GtBox,
    InconsistentBundle, InjectedErrors, LabeledBox, MissingBox, MissingTrack, ObservationSource,
    SceneData, TrackId,
};
pub use vendor::VendorProfile;
