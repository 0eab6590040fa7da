//! Built-in features.
//!
//! The five features of the paper's Table 2 plus the two extras the
//! model-error and bundle-audit applications use:
//!
//! | Name | Type | Description | Probability |
//! |---|---|---|---|
//! | `volume` | Obs. | Class-conditional box volume | learned KDE |
//! | `distance` | Obs. | Distance to AV (severity) | manual |
//! | `model_only` | Bundle | Selects bundles with model predictions only | manual |
//! | `velocity` | Trans. | Class-conditional object velocity | learned KDE |
//! | `count` | Track | Filters tracks with two or fewer obs | manual |
//! | `yaw_rate` | Trans. | Absolute heading change rate | learned KDE |
//! | `volume_ratio` | Bundle | Log max/min volume ratio within a bundle | learned KDE |
//!
//! Each is a handful of lines — the paper's claim that *"each feature
//! required fewer than 6 lines of code"* holds here for the value
//! computations.

mod bundle_feats;
mod obs_feats;
mod track_feats;
mod transition_feats;

pub use bundle_feats::{ModelOnlyFeature, VolumeRatioFeature};
pub use obs_feats::{DistanceFeature, VolumeFeature};
pub use track_feats::CountFeature;
pub use transition_feats::{VelocityFeature, YawRateFeature};
