//! Data-association substrate for the Fixy / LOA reproduction.
//!
//! Section 4 of the paper: *"our DSL supports means of associating
//! observations together: across observation sources (observation bundles
//! …) and across time (tracks …)"*. The association itself is a classic
//! perception problem; this crate provides the machinery:
//!
//! * [`matching`] — one-shot assignment between two box sets over a flat
//!   (possibly sparse) [`ScoreMatrix`]: greedy highest-overlap-first (the
//!   paper's default behavior) and an exact Hungarian solver for the
//!   ablation,
//! * [`union_find`] — disjoint sets for multi-source bundling,
//! * [`bundler`] — group same-frame observations from different sources
//!   into observation bundles by IOU (the `TrackBundler` of Section 3),
//!   pruning candidate pairs through a
//!   [`BevGrid`](loa_geom::BevGrid) spatial index,
//! * [`tracker`] — link bundles across adjacent frames into tracks by box
//!   overlap, with a configurable frame gap, scoring only
//!   spatially-plausible track×item pairs.
//!
//! Everything here is generic over "things that have a [`Box3`](loa_geom::Box3)"; the LOA
//! engine supplies its observation types. Both association passes retain
//! their all-pairs implementations (`bundle_frame_brute`,
//! `build_tracks_brute`) as the oracles equivalence proptests run
//! against, and both expose `_into` / `_with` variants whose scratch
//! buffers (`BundleScratch`, `TrackerScratch`) a long-lived engine reuses
//! across frames and scenes.

pub mod bundler;
pub mod matching;
pub mod tracker;
pub mod union_find;

pub use bundler::{
    bundle_frame, bundle_frame_brute, bundle_frame_into, BundleGroup, BundleScratch, Bundler,
    FrameBundles, IouBundler, PreparedBox, DEFAULT_BUNDLE_IOU,
};
pub use matching::{
    greedy_match, greedy_match_into, greedy_match_matrix, hungarian_match, hungarian_match_matrix,
    Match, MatchScratch, ScoreMatrix,
};
pub use tracker::{
    build_tracks, build_tracks_brute, build_tracks_with, TrackBuilder, TrackPath, TrackerConfig,
    TrackerScratch,
};
pub use union_find::UnionFind;
