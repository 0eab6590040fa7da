//! # fixy — the umbrella crate
//!
//! One-stop entry point for the Fixy / Learned Observation Assertions
//! reproduction. Re-exports the full public API of the workspace:
//!
//! * [`core`] — the LOA DSL and engine (scenes, features, AOFs, learner,
//!   factor-graph scoring, applications),
//! * [`data`] — the synthetic AV perception dataset substrate,
//! * [`geom`], [`stats`], [`graph`], [`assoc`] — the substrates,
//! * [`baselines`] — ad-hoc model assertions and uncertainty sampling,
//! * [`eval`] — the experiment harness reproducing Section 8,
//! * [`ingest`] — streaming ingest (incremental frame-by-frame assembly,
//!   the `.fscb` binary scene format, streamed corpus sources),
//! * [`serve`] — the resident multi-session audit service (sessions,
//!   reorder buffers, the wire protocol, the TCP server and client),
//! * [`obs`] — zero-overhead metrics, span tracing, and Prometheus
//!   exposition for the streaming and serving layers,
//! * [`render`] — BEV ASCII/SVG figures.
//!
//! ## Quickstart
//!
//! ```
//! use fixy::prelude::*;
//! use fixy::data::{generate_scene, DatasetProfile};
//!
//! // Offline: learn feature distributions from existing labeled scenes.
//! let mut cfg = DatasetProfile::LyftLike.scene_config();
//! cfg.world.duration = 4.0;      // shrunk for the doctest
//! cfg.lidar.beam_count = 240;
//! let train: Vec<_> = (0..2)
//!     .map(|i| generate_scene(&cfg, &format!("train-{i}"), i))
//!     .collect();
//! let app = App::MissingTracks;
//! let library = app.fit(&train).unwrap();
//!
//! // Online: rank potential missing labels in a new scene.
//! let data = generate_scene(&cfg, "new-scene", 99);
//! let scene = Scene::assemble(&data, &app.assembly());
//! let ranked = app.rank(&scene, &library).unwrap();
//! for candidate in ranked.iter().take(3) {
//!     println!("{}: score {:.2}", candidate.label(&scene), candidate.score());
//! }
//! ```

pub use fixy_core as core;
pub use loa_assoc as assoc;
pub use loa_baselines as baselines;
pub use loa_data as data;
pub use loa_eval as eval;
pub use loa_geom as geom;
pub use loa_graph as graph;
pub use loa_ingest as ingest;
pub use loa_obs as obs;
pub use loa_render as render;
pub use loa_serve as serve;
pub use loa_stats as stats;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use fixy_core::prelude::*;
    pub use fixy_core::{Aof, Feature, FeatureKind, FeatureSet, FeatureValue, FixyError, Learner};
}
