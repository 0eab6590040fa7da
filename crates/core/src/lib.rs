//! # Fixy — Learned Observation Assertions (LOA)
//!
//! A reproduction of *"Finding Label and Model Errors in Perception Data
//! With Learned Observation Assertions"* (Kang et al., SIGMOD 2022).
//!
//! Fixy finds errors in ML labeling pipelines and in ML model predictions
//! — primarily missing labels — by learning **feature distributions** from
//! existing organizational resources (already-labeled scenes) and scoring
//! new observations against them. Users specify only natural quantities
//! (box volume, velocity) and associations (box overlap); Fixy compiles
//! scenes into factor graphs and returns a ranked list of likely errors
//! for human auditing.
//!
//! ## The LOA data model (Section 4)
//!
//! * [`Observation`] — one 3D box from one source (human label, model
//!   prediction, auditor) in one frame,
//! * [`Bundle`] — observations of the same object from different sources
//!   in one time step, associated by box overlap,
//! * [`Track`] — bundles of the same object across time,
//! * [`Scene`] — the full set of tracks; assembled from raw per-frame
//!   observations by [`Scene::assemble`].
//!
//! Collectively: OBTs (observations, bundles, tracks).
//!
//! ## Features and scoring (Sections 5–6)
//!
//! A [`Feature`] maps an OBT (or a transition between
//! adjacent bundles) to a scalar. Learned features get a fitted
//! distribution ([`learner::FeatureLibrary`]); manual features (distance,
//! model-only, count) emit probabilities directly. An
//! [`Aof`] (application objective function) transforms each
//! probability — identity to find likely-but-unlabeled objects, inversion
//! to find unlikely predictions, zeroing to filter.
//!
//! A scene compiles into a bipartite factor graph
//! ([`compile::compile_scene`]); any OBT is scored by the normalized sum of
//! log-probabilities of the factors it contains (Section 6's worked
//! example lives in `score::tests`). No factor spans two tracks, so the
//! one scoring engine ([`score::ScoreEngine`], and its streaming form
//! [`IncrementalScorer`]) evaluates every factor once into a per-track
//! `ln p` store and folds candidates from it, bit-identical to scoring
//! the compiled graph, which stays as the Section 4.3 reference.
//!
//! ## Applications (Section 7)
//!
//! * [`apps::MissingTrackFinder`] — tracks humans missed entirely,
//! * [`apps::MissingObsFinder`] — missing labels within labeled tracks,
//! * [`apps::ModelErrorFinder`] — erroneous ML predictions (inverted AOF),
//! * [`apps::LabelAuditFinder`] — implausibly-labeled human tracks
//!   (gross class swaps),
//! * [`apps::BundleAuditFinder`] — bundles with wildly inconsistent
//!   members.
//!
//! [`apps::App`] registers the five: one enum naming each app's feature
//! set, assembly presets and ranking, which every surface dispatches
//! through.

pub mod aof;
pub mod apps;
pub mod codec;
pub mod compile;
pub mod error;
pub mod feature;
pub mod features;
pub mod flcb;
pub mod incremental;
pub mod learner;
pub mod pipeline;
pub mod rank;
pub mod scene;
pub mod score;

pub use aof::Aof;
pub use codec::CodecError;
pub use error::FixyError;
pub use feature::{BoundFeature, Feature, FeatureKind, FeatureSet, FeatureTarget, FeatureValue};
pub use incremental::IncrementalScorer;
pub use learner::{FeatureLibrary, FittedDistribution, Learner};
pub use pipeline::{
    merge_ranked, sort_ranked_scenes, BatchCandidate, RankedScene, ScenePipeline, SceneRanker,
};
pub use scene::{
    AssemblyConfig, AssemblyEngine, Bundle, BundleIdx, FrameDelta, ObsIdx, Observation, Scene,
    SnapshotMismatch, Track, TrackIdx,
};

/// Convenience prelude for downstream users.
pub mod prelude {
    pub use crate::aof::Aof;
    pub use crate::apps::{
        App, BundleAuditFinder, LabelAuditFinder, MissingObsFinder, MissingTrackFinder,
        ModelErrorFinder,
    };
    pub use crate::feature::{Feature, FeatureKind, FeatureSet, FeatureTarget, FeatureValue};
    pub use crate::incremental::IncrementalScorer;
    pub use crate::learner::{FeatureLibrary, Learner};
    pub use crate::pipeline::{
        sort_ranked_scenes, BatchCandidate, RankedScene, ScenePipeline, SceneRanker,
    };
    pub use crate::rank::{BundleCandidate, Candidate, TrackCandidate};
    pub use crate::scene::{
        AssemblyConfig, AssemblyEngine, Bundle, BundleIdx, FrameDelta, ObsIdx, Observation, Scene,
        Track, TrackIdx,
    };
    pub use crate::score::ScoreEngine;
}

#[cfg(test)]
mod tests {
    use crate::pipeline::pool_map;

    #[test]
    fn map_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        for workers in [1, 4] {
            let doubled = pool_map(workers, v.clone(), |_, x| Ok::<_, ()>(x * 2));
            assert_eq!(doubled, Ok(v.iter().map(|x| x * 2).collect::<Vec<_>>()));
        }
    }

    #[test]
    fn collect_results() {
        for workers in [1, 3] {
            let ok = pool_map(workers, vec![1u32, 2, 3], |_, x| Ok::<_, String>(x));
            assert_eq!(ok, Ok(vec![1, 2, 3]));
            let err = pool_map(workers, vec![1u32, 2, 3, 4], |_, x| {
                if x % 2 == 0 {
                    Err(format!("boom {x}"))
                } else {
                    Ok(x)
                }
            });
            assert_eq!(err, Err("boom 2".to_string()), "{workers} workers");
        }
    }

    #[test]
    fn empty_and_single() {
        for workers in [1, 2] {
            let none = pool_map(workers, Vec::<u8>::new(), |_, x| Ok::<_, ()>(x));
            assert_eq!(none, Ok(Vec::new()));
            let one = pool_map(workers, vec![7u8], |_, x| Ok::<_, ()>(x + 1));
            assert_eq!(one, Ok(vec![8]));
        }
    }
}
