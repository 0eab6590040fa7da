//! Cross-frame track building.
//!
//! Links per-frame items (bundles, in the LOA pipeline) into tracks by box
//! overlap between nearby frames — the paper's *"associated observations
//! within a track by box overlap across time"*. A configurable frame gap
//! lets tracks survive single-frame dropouts (real detectors flicker).
//!
//! The per-frame assignment is spatially pruned: active tracks only score
//! against items whose AABBs overlap their last box (a necessary
//! condition for any IOU above a positive threshold), collected through a
//! [`BevGrid`] built over the frame's items. Scores land in a sparse
//! [`ScoreMatrix`] — unscored pairs have IOU exactly 0, below any
//! positive threshold — so the matching is identical to the retained
//! dense reference, [`build_tracks_brute`], which the equivalence
//! proptests check against. All per-frame buffers live in a
//! [`TrackerScratch`] reused across frames and scenes.

use crate::bundler::PreparedBox;
use crate::matching::{greedy_match_into, hungarian_match_matrix, MatchScratch, ScoreMatrix};
use loa_geom::{iou_bev, iou_bev_prepared, BevGrid, Box3};
use serde::{Deserialize, Serialize};

/// Track-builder parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrackerConfig {
    /// Minimum BEV IOU between an item and a track's last box. Lower than
    /// the bundling threshold because objects move between frames.
    pub iou_threshold: f64,
    /// Maximum number of frames between a track's last entry and a new
    /// one (1 = strictly adjacent frames).
    pub max_gap: u32,
    /// Use the exact Hungarian matcher instead of greedy (ablation).
    pub use_hungarian: bool,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig { iou_threshold: 0.05, max_gap: 2, use_hungarian: false }
    }
}

/// Below this many track×item pairs the per-frame assignment prunes by a
/// flat AABB sweep; from here up the [`BevGrid`] pays for its build.
const GRID_MIN_PAIRS: usize = 4096;

/// A built track: `(frame_index, item_index)` entries in frame order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackPath {
    pub entries: Vec<(usize, usize)>,
}

impl TrackPath {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// First and last frame indices.
    pub fn frame_span(&self) -> Option<(usize, usize)> {
        Some((self.entries.first()?.0, self.entries.last()?.0))
    }
}

/// An active (extendable) track during the sweep.
#[derive(Debug, Clone, Copy)]
struct Active {
    track_idx: usize,
    last_frame: usize,
    last_box: Box3,
    /// Cached footprint geometry of `last_box` — each frame scores this
    /// track against several items, so corners/area are computed once per
    /// extension instead of once per pair.
    prepared: PreparedBox,
}

/// Reusable per-frame buffers for [`build_tracks_with`]: the active-track
/// list, the item grid, the sparse score matrix, and the matcher scratch.
/// One of these lives in each `AssemblyEngine`; a warm tracker allocates
/// only for the output paths themselves.
#[derive(Debug, Clone, Default)]
pub struct TrackerScratch {
    active: Vec<Active>,
    item_prepared: Vec<PreparedBox>,
    item_aabbs: Vec<loa_geom::Aabb2>,
    grid: BevGrid,
    candidates: Vec<u32>,
    matrix: ScoreMatrix,
    matcher: MatchScratch,
    matches: Vec<crate::matching::Match>,
    item_taken: Vec<bool>,
    /// Tracks created or extended by the most recent frame step (indices
    /// into the caller's track list, ascending).
    touched: Vec<usize>,
}

/// Build tracks over per-frame item boxes.
///
/// Every item lands in exactly one track; items that never match anything
/// become singleton tracks. Tracks are returned sorted by first entry.
pub fn build_tracks(frames: &[Vec<Box3>], cfg: &TrackerConfig) -> Vec<TrackPath> {
    build_tracks_with(frames, cfg, &mut TrackerScratch::default())
}

/// [`build_tracks`] with caller-owned scratch, reused across calls.
pub fn build_tracks_with(
    frames: &[Vec<Box3>],
    cfg: &TrackerConfig,
    scratch: &mut TrackerScratch,
) -> Vec<TrackPath> {
    let mut tracks: Vec<TrackPath> = Vec::new();
    scratch.active.clear();
    for (f, items) in frames.iter().enumerate() {
        scratch.item_prepared.clear();
        scratch.item_prepared.extend(items.iter().map(PreparedBox::new));
        track_frame_step(cfg, scratch, &mut tracks, f, items);
    }
    debug_assert_sorted_by_first_entry(&tracks);
    tracks
}

/// Tracks open at the frame sweep's tail, each frame's in ascending item
/// order, so creation order is already strictly increasing in first
/// entry: the "sorted by first entry" the builders promise needs no sort.
fn debug_assert_sorted_by_first_entry(tracks: &[TrackPath]) {
    debug_assert!(tracks.windows(2).all(|w| w[0].entries.first() < w[1].entries.first()));
}

/// Incremental cross-frame track builder: the per-frame sweep of
/// [`build_tracks_with`], exposed one frame at a time so live ingest can
/// extend tracks as data arrives instead of waiting for the whole scene.
///
/// Feed frames in order through [`step`](TrackBuilder::step);
/// [`finish`](TrackBuilder::finish) returns the same frame-ordered,
/// first-entry-sorted paths the batch entry point produces (the batch
/// function runs through this exact step), and
/// [`snapshot`](TrackBuilder::snapshot) clones the paths-so-far without
/// disturbing the in-progress state. All per-frame buffers live in an
/// owned [`TrackerScratch`], so a reused builder allocates only for the
/// output paths.
#[derive(Debug, Default)]
pub struct TrackBuilder {
    scratch: TrackerScratch,
    tracks: Vec<TrackPath>,
    next_frame: usize,
}

impl TrackBuilder {
    /// Start a new scene, discarding any in-progress state.
    pub fn begin(&mut self) {
        self.scratch.active.clear();
        self.tracks.clear();
        self.next_frame = 0;
    }

    /// Extend tracks with the next frame's item boxes.
    pub fn step(&mut self, cfg: &TrackerConfig, items: &[Box3]) {
        self.step_prepared(cfg, items, items.iter().map(PreparedBox::new));
    }

    /// [`step`](Self::step) with each item's footprint geometry already
    /// prepared (the `i`-th yielded is `PreparedBox::new(&items[i])`) —
    /// the assembly engine hands over the bundler's instead of
    /// recomputing.
    pub fn step_prepared(
        &mut self,
        cfg: &TrackerConfig,
        items: &[Box3],
        prepared: impl IntoIterator<Item = PreparedBox>,
    ) {
        self.scratch.item_prepared.clear();
        self.scratch.item_prepared.extend(prepared);
        assert_eq!(
            self.scratch.item_prepared.len(),
            items.len(),
            "one prepared box per item"
        );
        track_frame_step(cfg, &mut self.scratch, &mut self.tracks, self.next_frame, items);
        self.next_frame += 1;
    }

    /// Number of frames stepped since [`begin`](Self::begin).
    pub fn frames_stepped(&self) -> usize {
        self.next_frame
    }

    /// Take the finished paths, sorted by first entry. The builder needs
    /// a [`begin`](Self::begin) before the next scene.
    pub fn finish(&mut self) -> Vec<TrackPath> {
        self.scratch.active.clear();
        self.next_frame = 0;
        let tracks = std::mem::take(&mut self.tracks);
        debug_assert_sorted_by_first_entry(&tracks);
        tracks
    }

    /// The paths built so far, sorted by first entry — exactly what
    /// [`finish`](Self::finish) would return right now, without ending
    /// the scene.
    pub fn snapshot(&self) -> Vec<TrackPath> {
        debug_assert_sorted_by_first_entry(&self.tracks);
        self.tracks.clone()
    }

    /// The tracks created or extended by the most recent
    /// [`step`](Self::step), as ascending indices into
    /// [`paths`](Self::paths) (unique: each track gains at most one entry
    /// per frame).
    pub fn last_touched(&self) -> &[usize] {
        &self.scratch.touched
    }

    /// The paths built so far, in creation order — which is already
    /// strictly increasing in first entry, so indices here agree with
    /// [`snapshot`](Self::snapshot) (locked by
    /// `last_touched_indexes_snapshot`).
    pub fn paths(&self) -> &[TrackPath] {
        &self.tracks
    }
}

/// One frame of the track sweep: expire stale actives, score
/// spatially-plausible track×item pairs into the sparse matrix, match,
/// extend matched tracks and open singletons for the rest.
/// `scratch.item_prepared` holds the items' footprint geometry
/// (`PreparedBox::new` of each, in order).
fn track_frame_step(
    cfg: &TrackerConfig,
    scratch: &mut TrackerScratch,
    tracks: &mut Vec<TrackPath>,
    f: usize,
    items: &[Box3],
) {
    // Spatial pruning is exact only for positive thresholds: at ≤ 0 the
    // matcher admits zero-IOU (non-overlapping) pairs the grid would
    // hide, so fall back to scoring every pair.
    let prune = cfg.iou_threshold > 0.0;

    {
        // Expire tracks that are too old to extend.
        scratch.active.retain(|a| f - a.last_frame <= cfg.max_gap as usize);

        scratch.touched.clear();
        if items.is_empty() {
            return;
        }

        // Sparse score matrix: active tracks × current items, scoring
        // only spatially-plausible pairs. Small assignments prune by a
        // flat AABB sweep; large ones (fleet-scale frames) go through
        // the grid. Both push the identical AABB-intersecting entry set,
        // in the identical (track, item-ascending) order.
        let item_prepared = &scratch.item_prepared;
        scratch.matrix.reset(scratch.active.len(), items.len());
        if prune && scratch.active.len() * items.len() < GRID_MIN_PAIRS {
            for (a, active) in scratch.active.iter().enumerate() {
                let pa = &active.prepared;
                for (j, pj) in item_prepared.iter().enumerate() {
                    if pa.aabb.intersects(&pj.aabb) {
                        scratch.matrix.push(
                            a,
                            j,
                            iou_bev_prepared(&pa.corners, pa.area, &pj.corners, pj.area),
                        );
                    }
                }
            }
        } else if prune {
            scratch.item_aabbs.clear();
            scratch.item_aabbs.extend(item_prepared.iter().map(|p| p.aabb));
            scratch.grid.build(&scratch.item_aabbs);
            for (a, active) in scratch.active.iter().enumerate() {
                let pa = active.prepared;
                scratch.grid.query_into(&pa.aabb, &mut scratch.candidates);
                for &cand in &scratch.candidates {
                    let j = cand as usize;
                    let pj = &item_prepared[j];
                    scratch.matrix.push(
                        a,
                        j,
                        iou_bev_prepared(&pa.corners, pa.area, &pj.corners, pj.area),
                    );
                }
            }
        } else {
            for (a, active) in scratch.active.iter().enumerate() {
                for (j, item) in items.iter().enumerate() {
                    scratch.matrix.push(a, j, iou_bev(&active.last_box, item));
                }
            }
        }
        if cfg.use_hungarian {
            scratch.matches = hungarian_match_matrix(&scratch.matrix, cfg.iou_threshold);
        } else {
            greedy_match_into(
                &scratch.matrix,
                cfg.iou_threshold,
                &mut scratch.matcher,
                &mut scratch.matches,
            );
        }

        scratch.item_taken.clear();
        scratch.item_taken.resize(items.len(), false);
        for i in 0..scratch.matches.len() {
            let m = scratch.matches[i];
            let prepared = item_prepared[m.right];
            let a = &mut scratch.active[m.left];
            tracks[a.track_idx].entries.push((f, m.right));
            a.last_frame = f;
            a.last_box = items[m.right];
            a.prepared = prepared;
            scratch.item_taken[m.right] = true;
        }
        for i in 0..items.len() {
            if !scratch.item_taken[i] {
                let track_idx = tracks.len();
                let mut entries = Vec::with_capacity(8);
                entries.push((f, i));
                tracks.push(TrackPath { entries });
                let prepared = item_prepared[i];
                scratch.active.push(Active {
                    track_idx,
                    last_frame: f,
                    last_box: items[i],
                    prepared,
                });
            }
        }
        // Actives stay in creation (track index) order — new ones are
        // pushed at the tail, `retain` keeps order — so the tracks this
        // frame extended or opened come out ascending, without a sort.
        scratch.touched.extend(
            scratch
                .active
                .iter()
                .filter(|a| a.last_frame == f)
                .map(|a| a.track_idx),
        );
    }
}

/// The retained dense all-pairs reference (the seed implementation) — the
/// oracle the equivalence proptests hold [`build_tracks`] to.
pub fn build_tracks_brute(frames: &[Vec<Box3>], cfg: &TrackerConfig) -> Vec<TrackPath> {
    use crate::matching::{greedy_match, hungarian_match};

    let mut tracks: Vec<TrackPath> = Vec::new();
    let mut active: Vec<Active> = Vec::new();

    for (f, items) in frames.iter().enumerate() {
        active.retain(|a| f - a.last_frame <= cfg.max_gap as usize);

        if items.is_empty() {
            continue;
        }

        // Dense score matrix: active tracks × current items.
        let scores: Vec<Vec<f64>> = active
            .iter()
            .map(|a| items.iter().map(|b| iou_bev(&a.last_box, b)).collect())
            .collect();
        let matches = if cfg.use_hungarian {
            hungarian_match(&scores, cfg.iou_threshold)
        } else {
            greedy_match(&scores, cfg.iou_threshold)
        };

        let mut item_taken = vec![false; items.len()];
        for m in &matches {
            let a = &mut active[m.left];
            tracks[a.track_idx].entries.push((f, m.right));
            a.last_frame = f;
            a.last_box = items[m.right];
            item_taken[m.right] = true;
        }
        for (i, taken) in item_taken.iter().enumerate() {
            if !taken {
                let track_idx = tracks.len();
                tracks.push(TrackPath { entries: vec![(f, i)] });
                active.push(Active {
                    track_idx,
                    last_frame: f,
                    last_box: items[i],
                    prepared: PreparedBox::new(&items[i]),
                });
            }
        }
    }

    tracks.sort_by_key(|t| t.entries.first().copied());
    tracks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn car(x: f64, y: f64) -> Box3 {
        Box3::on_ground(x, y, 0.0, 4.5, 1.9, 1.6, 0.0)
    }

    /// A car moving 1 m per frame for `n` frames.
    fn moving_car_frames(n: usize) -> Vec<Vec<Box3>> {
        (0..n).map(|i| vec![car(10.0 + i as f64, 0.0)]).collect()
    }

    #[test]
    fn single_moving_object_single_track() {
        let frames = moving_car_frames(10);
        let tracks = build_tracks(&frames, &TrackerConfig::default());
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].len(), 10);
        assert_eq!(tracks[0].frame_span(), Some((0, 9)));
    }

    #[test]
    fn two_distant_objects_two_tracks() {
        let frames: Vec<Vec<Box3>> = (0..8)
            .map(|i| vec![car(10.0 + i as f64, 0.0), car(10.0 + i as f64, 30.0)])
            .collect();
        let tracks = build_tracks(&frames, &TrackerConfig::default());
        assert_eq!(tracks.len(), 2);
        assert!(tracks.iter().all(|t| t.len() == 8));
    }

    #[test]
    fn fast_object_breaks_track() {
        // 20 m jumps: IOU 0 between consecutive frames → singleton tracks.
        let frames: Vec<Vec<Box3>> =
            (0..5).map(|i| vec![car(10.0 + 20.0 * i as f64, 0.0)]).collect();
        let tracks = build_tracks(&frames, &TrackerConfig::default());
        assert_eq!(tracks.len(), 5);
        assert!(tracks.iter().all(|t| t.len() == 1));
    }

    #[test]
    fn gap_bridges_single_frame_dropout() {
        // Object detected in frames 0,1,3,4 (missing in 2).
        let mut frames = moving_car_frames(5);
        frames[2] = vec![];
        let bridged = build_tracks(&frames, &TrackerConfig { max_gap: 2, ..Default::default() });
        assert_eq!(bridged.len(), 1);
        assert_eq!(bridged[0].len(), 4);

        let strict = build_tracks(&frames, &TrackerConfig { max_gap: 1, ..Default::default() });
        assert_eq!(strict.len(), 2);
    }

    #[test]
    fn every_item_in_exactly_one_track() {
        let frames: Vec<Vec<Box3>> = (0..6)
            .map(|i| vec![car(10.0 + i as f64, 0.0), car(30.0 - i as f64, 4.0), car(50.0, -4.0)])
            .collect();
        let tracks = build_tracks(&frames, &TrackerConfig::default());
        let mut seen = std::collections::BTreeSet::new();
        for t in &tracks {
            for &(f, i) in &t.entries {
                assert!(seen.insert((f, i)), "item ({f},{i}) in two tracks");
            }
        }
        let total: usize = frames.iter().map(Vec::len).sum();
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn track_entries_are_frame_ordered() {
        let frames = moving_car_frames(12);
        let tracks = build_tracks(&frames, &TrackerConfig::default());
        for t in &tracks {
            for w in t.entries.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn hungarian_and_greedy_agree_on_easy_scenes() {
        let frames: Vec<Vec<Box3>> = (0..8)
            .map(|i| vec![car(10.0 + i as f64, 0.0), car(20.0 - i as f64, 15.0)])
            .collect();
        let greedy =
            build_tracks(&frames, &TrackerConfig { use_hungarian: false, ..Default::default() });
        let hung =
            build_tracks(&frames, &TrackerConfig { use_hungarian: true, ..Default::default() });
        assert_eq!(greedy.len(), hung.len());
    }

    #[test]
    fn empty_input() {
        assert!(build_tracks(&[], &TrackerConfig::default()).is_empty());
        let empty_frames: Vec<Vec<Box3>> = vec![vec![], vec![], vec![]];
        assert!(build_tracks(&empty_frames, &TrackerConfig::default()).is_empty());
    }

    #[test]
    fn scratch_reuse_across_scenes_is_clean() {
        let mut scratch = TrackerScratch::default();
        let cfg = TrackerConfig::default();
        let a = moving_car_frames(6);
        let b: Vec<Vec<Box3>> = (0..4).map(|i| vec![car(50.0 + i as f64, 20.0)]).collect();
        let first = build_tracks_with(&a, &cfg, &mut scratch);
        let second = build_tracks_with(&b, &cfg, &mut scratch);
        assert_eq!(first, build_tracks(&a, &cfg), "first scene through warm scratch");
        assert_eq!(
            second,
            build_tracks(&b, &cfg),
            "second scene must not see stale state"
        );
    }

    #[test]
    fn incremental_builder_matches_batch() {
        let mut builder = TrackBuilder::default();
        let cfg = TrackerConfig::default();
        for seed in [1u64, 5, 9] {
            let frames = random_frames(seed, 8, 5, 30.0);
            builder.begin();
            for items in &frames {
                builder.step(&cfg, items);
            }
            assert_eq!(builder.frames_stepped(), frames.len());
            let streamed = builder.finish();
            assert_eq!(streamed, build_tracks(&frames, &cfg), "seed {seed}");
        }
    }

    #[test]
    fn builder_snapshot_is_prefix_batch() {
        // After k steps the snapshot must equal a batch build over the
        // first k frames: the sweep never revises past assignments.
        let frames = random_frames(3, 7, 4, 25.0);
        let cfg = TrackerConfig::default();
        let mut builder = TrackBuilder::default();
        builder.begin();
        for (k, items) in frames.iter().enumerate() {
            builder.step(&cfg, items);
            let prefix = build_tracks(&frames[..=k], &cfg);
            assert_eq!(builder.snapshot(), prefix, "prefix of {} frames", k + 1);
        }
        // Snapshot does not disturb the in-progress state.
        assert_eq!(builder.finish(), build_tracks(&frames, &cfg));
    }

    #[test]
    fn last_touched_indexes_snapshot() {
        // Per frame: the touched set is exactly the tracks whose paths
        // changed, creation order matches the sorted snapshot order, and
        // untouched paths are byte-identical to the previous frame's.
        let cfg = TrackerConfig::default();
        for seed in [2u64, 6, 11] {
            let frames = random_frames(seed, 9, 5, 28.0);
            let mut builder = TrackBuilder::default();
            builder.begin();
            let mut prev: Vec<TrackPath> = Vec::new();
            for items in &frames {
                builder.step(&cfg, items);
                let paths = builder.paths();
                assert_eq!(paths, builder.snapshot().as_slice(), "creation order is sorted order");
                let touched: std::collections::BTreeSet<usize> =
                    builder.last_touched().iter().copied().collect();
                assert_eq!(touched.len(), builder.last_touched().len(), "touched indices unique");
                for (i, path) in paths.iter().enumerate() {
                    let changed = prev.get(i) != Some(path);
                    assert_eq!(touched.contains(&i), changed, "seed {seed} track {i}");
                }
                prev = paths.to_vec();
            }
        }
    }

    #[test]
    fn last_touched_empty_frame_is_empty() {
        let mut builder = TrackBuilder::default();
        let cfg = TrackerConfig::default();
        builder.begin();
        builder.step(&cfg, &[car(10.0, 0.0)]);
        assert_eq!(builder.last_touched(), &[0]);
        builder.step(&cfg, &[]);
        assert!(builder.last_touched().is_empty());
    }

    #[test]
    fn zero_threshold_falls_back_to_dense_and_matches_brute() {
        // iou_threshold = 0 admits zero-score pairs; the pruned path would
        // diverge, so the tracker must take the dense path and agree with
        // the brute reference exactly.
        let frames: Vec<Vec<Box3>> = (0..5)
            .map(|i| vec![car(10.0 + 30.0 * i as f64, 0.0), car(-40.0, 25.0)])
            .collect();
        let cfg = TrackerConfig { iou_threshold: 0.0, ..Default::default() };
        assert_eq!(build_tracks(&frames, &cfg), build_tracks_brute(&frames, &cfg));
    }

    /// Deterministic pseudo-random per-frame box clouds with objects that
    /// drift, vanish, and reappear.
    fn random_frames(seed: u64, n_frames: usize, n_objects: usize, spread: f64) -> Vec<Vec<Box3>> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(3);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 10_000) as f64 / 10_000.0
        };
        let bases: Vec<(f64, f64, f64)> = (0..n_objects)
            .map(|_| ((next() - 0.5) * spread, (next() - 0.5) * spread, next() * 2.0))
            .collect();
        (0..n_frames)
            .map(|f| {
                bases
                    .iter()
                    .enumerate()
                    .filter(|(o, _)| {
                        // Deterministic dropouts.
                        (f * 7 + o * 13) % 11 != 0
                    })
                    .map(|(_, &(x, y, v))| car(x + v * f as f64, y))
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_partition_invariant(
            n_frames in 1usize..8,
            n_objects in 0usize..4,
            speed in 0.0f64..3.0,
        ) {
            let frames: Vec<Vec<Box3>> = (0..n_frames)
                .map(|f| {
                    (0..n_objects)
                        .map(|o| car(10.0 + o as f64 * 25.0 + speed * f as f64, 0.0))
                        .collect()
                })
                .collect();
            let tracks = build_tracks(&frames, &TrackerConfig::default());
            let total: usize = frames.iter().map(Vec::len).sum();
            let covered: usize = tracks.iter().map(TrackPath::len).sum();
            prop_assert_eq!(total, covered);
            // Entries unique.
            let mut seen = std::collections::BTreeSet::new();
            for t in &tracks {
                for e in &t.entries {
                    prop_assert!(seen.insert(*e));
                }
            }
        }

        #[test]
        fn prop_slow_objects_form_long_tracks(speed in 0.0f64..1.5) {
            // A 4.5 m long car moving ≤1.5 m/frame keeps IOU above the
            // default threshold, so one track must emerge.
            let frames: Vec<Vec<Box3>> =
                (0..10).map(|f| vec![car(10.0 + speed * f as f64, 0.0)]).collect();
            let tracks = build_tracks(&frames, &TrackerConfig::default());
            prop_assert_eq!(tracks.len(), 1);
            prop_assert_eq!(tracks[0].len(), 10);
        }

        #[test]
        fn prop_indexed_equals_brute_force(
            seed in 0u64..5_000,
            n_frames in 0usize..10,
            n_objects in 0usize..10,
            spread in 3.0f64..60.0,
            threshold in 0.01f64..0.6,
            max_gap in 1u32..4,
            hungarian_sel in 0u8..2,
        ) {
            let hungarian = hungarian_sel == 1;
            // Dense clouds (heavy overlap, crossings, dropouts) and sparse
            // ones: the spatially-pruned tracker must match the retained
            // dense reference exactly, under both matchers.
            let frames = random_frames(seed, n_frames, n_objects, spread);
            let cfg = TrackerConfig {
                iou_threshold: threshold,
                max_gap,
                use_hungarian: hungarian,
            };
            let fast = build_tracks(&frames, &cfg);
            let brute = build_tracks_brute(&frames, &cfg);
            prop_assert_eq!(fast, brute);
        }
    }
}
