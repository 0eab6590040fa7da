//! Data-association substrate for the Fixy / LOA reproduction.
//!
//! Section 4 of the paper: *"our DSL supports means of associating
//! observations together: across observation sources (observation bundles
//! …) and across time (tracks …)"*. The association itself is a classic
//! perception problem; this crate provides the machinery:
//!
//! * [`matching`] — one-shot assignment over a flat, sparse
//!   [`ScoreMatrix`]: greedy highest-overlap-first, the paper's
//!   association rule,
//! * [`union_find`] — disjoint sets for multi-source bundling,
//! * [`bundler`] — group same-frame observations from different sources
//!   into observation bundles by IOU (the `TrackBundler` of Section 3),
//!   pruning candidate pairs through an AABB sweep or a
//!   [`BevGrid`](loa_geom::BevGrid) spatial index,
//! * [`tracker`] — link bundles across nearby frames into tracks by box
//!   overlap, scoring only spatially-plausible track×item pairs.
//!
//! Both passes read one frame as a slice of [`PreparedBox`] footprints:
//! the assembly engine prepares each observation's footprint once and
//! hands the slice to [`bundle_prepared_into`] and then, through the
//! bundles' representatives, to [`TrackBuilder::step_prepared`]. Their
//! buffers ([`BundleScratch`], the builder's own) survive across frames
//! and scenes. Both passes retain all-pairs implementations over plain
//! box lists ([`bundle_frame_brute`], [`build_tracks_brute`]) as the
//! oracles the equivalence proptests run against.
//!
//! The association rule is fixed: the three constants below are the only
//! thresholds, and every app assembles with them.

pub mod bundler;
pub mod matching;
pub mod tracker;
pub mod union_find;

/// The paper's bundling IOU threshold (`compute_iou(box1, box2) > 0.5`):
/// two same-frame observations from different sources bundle when their
/// BEV IOU exceeds it.
pub const BUNDLE_IOU: f64 = 0.5;

/// Minimum BEV IOU between a bundle and a track's last box for the
/// bundle to extend the track. Lower than [`BUNDLE_IOU`] because objects
/// move between frames.
pub const TRACK_IOU: f64 = 0.05;

/// Maximum number of frames between a track's last entry and a new one
/// (1 would be strictly adjacent frames), so a track survives a
/// single-frame dropout.
pub const TRACK_MAX_GAP: usize = 2;

pub use bundler::{
    bundle_frame_brute, bundle_prepared_into, BundleScratch, FrameBundles, PreparedBox,
};
pub use matching::{greedy_match_into, Match, MatchScratch, ScoreMatrix};
pub use tracker::{build_tracks_brute, TrackBuilder, TrackPath};
pub use union_find::UnionFind;
