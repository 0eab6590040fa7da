//! Cross-frame track building.
//!
//! Links per-frame items (bundles, in the LOA pipeline) into tracks by box
//! overlap between nearby frames — the paper's *"associated observations
//! within a track by box overlap across time"*. An item extends a track
//! when their BEV IOU reaches [`TRACK_IOU`]; a track stays extendable for
//! [`TRACK_MAX_GAP`] frames, so it survives a single-frame dropout (real
//! detectors flicker).
//!
//! A frame's items arrive as offsets into a slice of prepared footprints
//! ([`TrackBuilder::step_prepared`]): the assembly engine passes the
//! footprints it prepared for bundling and the offsets of the bundles'
//! representatives, so no footprint is computed or copied twice.
//!
//! The per-frame assignment is spatially pruned: active tracks only score
//! against items whose AABBs overlap their last box (a necessary
//! condition for any IOU above the positive [`TRACK_IOU`]). A small frame
//! tests each track's AABB against all items branch-free into a bit mask;
//! a large one collects candidates through a [`BevGrid`] built over the
//! frame's items. Scores land in a sparse [`ScoreMatrix`] — unscored
//! pairs have IOU exactly 0, below the threshold — so the matching is
//! identical to the retained dense reference, [`build_tracks_brute`],
//! which the equivalence proptests check against. All per-frame buffers
//! live in the [`TrackBuilder`], reused across frames and scenes.

use crate::bundler::{AabbColumns, PreparedBox};
use crate::matching::{greedy_match_into, Match, MatchScratch, ScoreMatrix};
use crate::{TRACK_IOU, TRACK_MAX_GAP};
use loa_geom::{iou_bev, iou_bev_prepared, Aabb2, BevGrid, Box3};
use serde::{Deserialize, Serialize};

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
}

/// `next` of a path's last entry.
const END: u32 = u32::MAX;

/// One path entry in the [`Paths`] arena.
#[derive(Debug, Clone, Copy)]
struct PathEntry {
    frame: u32,
    item: u32,
    /// The path's following entry, or [`END`].
    next: u32,
}

/// A path's first and last entry in the [`Paths`] arena, and its length.
#[derive(Debug, Clone, Copy)]
struct PathSpan {
    head: u32,
    tail: u32,
    len: u32,
}

/// Every path's entries in one arena, in push order, each linked to the
/// next entry of its path: opening or extending a path appends one entry,
/// so a warm builder allocates nothing per track.
#[derive(Debug, Clone, Default)]
struct Paths {
    entries: Vec<PathEntry>,
    spans: Vec<PathSpan>,
}

impl Paths {
    fn clear(&mut self) {
        self.entries.clear();
        self.spans.clear();
    }

    fn push(&mut self, f: usize, item: usize) -> u32 {
        let at = u32::try_from(self.entries.len()).expect("fewer than 2³² path entries");
        let entry = |v: usize| u32::try_from(v).expect("frame and item indices fit u32");
        self.entries
            .push(PathEntry { frame: entry(f), item: entry(item), next: END });
        at
    }

    /// Start a path at item `item` of frame `f`; returns its index.
    fn open(&mut self, f: usize, item: usize) -> usize {
        let at = self.push(f, item);
        self.spans.push(PathSpan { head: at, tail: at, len: 1 });
        self.spans.len() - 1
    }

    /// Append item `item` of frame `f` to path `t`.
    fn extend(&mut self, t: usize, f: usize, item: usize) {
        let at = self.push(f, item);
        let span = &mut self.spans[t];
        self.entries[span.tail as usize].next = at;
        span.tail = at;
        span.len += 1;
    }

    fn path(&self, t: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut at = self.spans[t].head;
        std::iter::from_fn(move || {
            let entry = self.entries.get(at as usize)?;
            at = entry.next;
            Some((entry.frame as usize, entry.item as usize))
        })
    }
}

/// An active (extendable) track during the sweep.
#[derive(Debug, Clone, Copy)]
struct Active {
    track_idx: usize,
    last_frame: usize,
    /// Footprint geometry of the track's last box, kept from the frame
    /// that extended the track — each frame scores this track against
    /// several items, so corners/area are computed once per extension
    /// instead of once per pair.
    prepared: PreparedBox,
}

/// Incremental cross-frame track builder: feed a scene's frames in
/// order through [`step_prepared`](TrackBuilder::step_prepared), so live
/// ingest extends tracks as data arrives instead of waiting for the whole
/// scene.
///
/// Paths are read in place: [`path`](TrackBuilder::path) walks one
/// below [`n_paths`](TrackBuilder::n_paths), and
/// [`path_len_and_last`](TrackBuilder::path_len_and_last) reads its
/// length and tail; [`begin`](TrackBuilder::begin) starts over. The path
/// arena, the active-track list, the item AABBs and grid, the sparse score matrix
/// and the matcher scratch all live in the builder, so a reused builder
/// allocates nothing per frame or per track.
#[derive(Debug, Default)]
pub struct TrackBuilder {
    paths: Paths,
    active: Vec<Active>,
    item_columns: AabbColumns,
    item_aabbs: Vec<Aabb2>,
    grid: BevGrid,
    candidates: Vec<u32>,
    matrix: ScoreMatrix,
    matcher: MatchScratch,
    matches: Vec<Match>,
    item_taken: Vec<bool>,
    /// Tracks created or extended by the most recent frame step (indices
    /// into the path list, ascending).
    touched: Vec<usize>,
    next_frame: usize,
}

impl TrackBuilder {
    /// Start a new scene, discarding any in-progress state.
    pub fn begin(&mut self) {
        self.active.clear();
        self.paths.clear();
        self.next_frame = 0;
    }

    /// Extend tracks with the next frame's items, given as offsets into
    /// `prepared`: item `j`'s footprint is `prepared[items[j]]`. Path
    /// entries index items, not offsets. The assembly engine passes its
    /// frame's observation footprints and the offsets of the bundles'
    /// representatives.
    ///
    /// One step expires stale actives, scores spatially-plausible
    /// track×item pairs into the sparse matrix, matches, extends matched
    /// tracks and opens singletons for the rest.
    pub fn step_prepared(&mut self, prepared: &[PreparedBox], items: &[u32]) {
        let f = self.next_frame;
        self.next_frame += 1;

        // Expire tracks that are too old to extend.
        self.active.retain(|a| f - a.last_frame <= TRACK_MAX_GAP);

        self.touched.clear();
        if items.is_empty() {
            return;
        }
        let item = |j: usize| &prepared[items[j] as usize];

        // Sparse score matrix: active tracks × current items, scoring
        // only spatially-plausible pairs. Small assignments test AABBs
        // into per-track masks; large ones (fleet-scale frames) go
        // through the grid. Both push the identical AABB-intersecting
        // entry set; the mask path pushes it in (track, item) order.
        self.matrix.reset(self.active.len(), items.len());
        let aabbs = (0..items.len()).map(|j| item(j).aabb);
        let flat = self.active.len() * items.len() < GRID_MIN_PAIRS;
        if flat {
            self.item_columns.refill(aabbs);
        } else {
            self.item_aabbs.clear();
            self.item_aabbs.extend(aabbs);
            self.grid.build(&self.item_aabbs);
        }
        for (a, active) in self.active.iter().enumerate() {
            let pa = &active.prepared;
            let mut score = |j: usize| {
                let pj = item(j);
                let iou = iou_bev_prepared(&pa.corners, pa.area, &pj.corners, pj.area);
                self.matrix.push(a, j, iou);
            };
            if flat {
                self.item_columns.for_each_overlap(&pa.aabb, 0, score);
            } else {
                self.grid.query_into(&pa.aabb, &mut self.candidates);
                self.candidates.iter().for_each(|&j| score(j as usize));
            }
        }
        greedy_match_into(&self.matrix, TRACK_IOU, &mut self.matcher, &mut self.matches);

        // Actives stay in creation (track index) order — new ones are
        // pushed at the tail, `retain` keeps order — and matches come
        // ordered by active, so the tracks this frame extends and then
        // opens are touched in ascending order, without a sort.
        self.item_taken.clear();
        self.item_taken.resize(items.len(), false);
        for m in &self.matches {
            let a = &mut self.active[m.left];
            self.paths.extend(a.track_idx, f, m.right);
            self.touched.push(a.track_idx);
            a.last_frame = f;
            a.prepared = *item(m.right);
            self.item_taken[m.right] = true;
        }
        for j in 0..items.len() {
            if !self.item_taken[j] {
                let track_idx = self.paths.open(f, j);
                self.touched.push(track_idx);
                self.active
                    .push(Active { track_idx, last_frame: f, prepared: *item(j) });
            }
        }
    }

    /// The tracks created or extended by the most recent
    /// [`step_prepared`](Self::step_prepared), as ascending path indices (unique: each
    /// track gains at most one entry per frame).
    pub fn last_touched(&self) -> &[usize] {
        &self.touched
    }

    /// Number of paths built so far. Paths are indexed in creation
    /// order: tracks open at the frame sweep's tail, each frame's in
    /// ascending item order, so the indices are already sorted by first
    /// entry, the order [`build_tracks_brute`] sorts its paths into
    /// (locked by `last_touched_indexes_snapshot`).
    pub fn n_paths(&self) -> usize {
        self.paths.spans.len()
    }

    /// Path `t`'s `(frame, item)` entries, frame-ordered.
    ///
    /// # Panics
    /// If `t` is not below [`n_paths`](Self::n_paths).
    pub fn path(&self, t: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.paths.path(t)
    }

    /// Path `t`'s entry count and last entry, without walking it.
    ///
    /// # Panics
    /// If `t` is not below [`n_paths`](Self::n_paths).
    pub fn path_len_and_last(&self, t: usize) -> (usize, (usize, usize)) {
        let span = self.paths.spans[t];
        let last = self.paths.entries[span.tail as usize];
        (span.len as usize, (last.frame as usize, last.item as usize))
    }
}

/// The retained dense all-pairs reference (the seed implementation) —
/// the oracle the equivalence proptests hold [`TrackBuilder`] to. It
/// scores every active track against every item of a frame with
/// `iou_bev` on the boxes themselves.
pub fn build_tracks_brute(frames: &[Vec<Box3>]) -> Vec<TrackPath> {
    let mut tracks: Vec<TrackPath> = Vec::new();
    // (track index, last frame, last box) per extendable track.
    let mut active: Vec<(usize, usize, Box3)> = Vec::new();
    let (mut scores, mut scratch, mut matches) =
        (ScoreMatrix::new(), MatchScratch::default(), Vec::new());

    for (f, items) in frames.iter().enumerate() {
        active.retain(|&(_, last_frame, _)| f - last_frame <= TRACK_MAX_GAP);

        if items.is_empty() {
            continue;
        }

        // Dense score matrix: every active track × every current item.
        scores.reset(active.len(), items.len());
        for (a, (_, _, last_box)) in active.iter().enumerate() {
            for (j, b) in items.iter().enumerate() {
                scores.push(a, j, iou_bev(last_box, b));
            }
        }
        greedy_match_into(&scores, TRACK_IOU, &mut scratch, &mut matches);

        let mut item_taken = vec![false; items.len()];
        for m in &matches {
            let (track_idx, last_frame, last_box) = &mut active[m.left];
            tracks[*track_idx].entries.push((f, m.right));
            (*last_frame, *last_box) = (f, items[m.right]);
            item_taken[m.right] = true;
        }
        for (i, taken) in item_taken.iter().enumerate() {
            if !taken {
                active.push((tracks.len(), f, items[i]));
                tracks.push(TrackPath { entries: vec![(f, i)] });
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

    /// Step `builder` over one frame of item boxes. The footprints are
    /// laid out in reverse, so item `j` sits at offset `n - 1 - j` and
    /// the offset indirection is exercised.
    fn step(builder: &mut TrackBuilder, items: &[Box3]) {
        let prepared: Vec<PreparedBox> = items.iter().rev().map(PreparedBox::new).collect();
        let offsets: Vec<u32> = (0..items.len() as u32).rev().collect();
        builder.step_prepared(&prepared, &offsets);
    }

    /// The builder's paths so far, read in place through `path`.
    fn paths(builder: &TrackBuilder) -> Vec<TrackPath> {
        (0..builder.n_paths())
            .map(|t| TrackPath { entries: builder.path(t).collect() })
            .collect()
    }

    /// A whole scene through `builder`, begun and read.
    fn build_with(builder: &mut TrackBuilder, frames: &[Vec<Box3>]) -> Vec<TrackPath> {
        builder.begin();
        frames.iter().for_each(|items| step(builder, items));
        paths(builder)
    }

    fn build_tracks(frames: &[Vec<Box3>]) -> Vec<TrackPath> {
        build_with(&mut TrackBuilder::default(), frames)
    }

    /// A car moving 1 m per frame for `n` frames.
    fn moving_car_frames(n: usize) -> Vec<Vec<Box3>> {
        (0..n).map(|i| vec![car(10.0 + i as f64, 0.0)]).collect()
    }

    #[test]
    fn single_moving_object_single_track() {
        let frames = moving_car_frames(10);
        let tracks = build_tracks(&frames);
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].len(), 10);
        let entries = &tracks[0].entries;
        assert_eq!((entries[0].0, entries[entries.len() - 1].0), (0, 9));
    }

    #[test]
    fn two_distant_objects_two_tracks() {
        let frames: Vec<Vec<Box3>> = (0..8)
            .map(|i| vec![car(10.0 + i as f64, 0.0), car(10.0 + i as f64, 30.0)])
            .collect();
        let tracks = build_tracks(&frames);
        assert_eq!(tracks.len(), 2);
        assert!(tracks.iter().all(|t| t.len() == 8));
    }

    #[test]
    fn fast_object_breaks_track() {
        // 20 m jumps: IOU 0 between consecutive frames → singleton tracks.
        let frames: Vec<Vec<Box3>> =
            (0..5).map(|i| vec![car(10.0 + 20.0 * i as f64, 0.0)]).collect();
        let tracks = build_tracks(&frames);
        assert_eq!(tracks.len(), 5);
        assert!(tracks.iter().all(|t| t.len() == 1));
    }

    #[test]
    fn gap_bridges_single_frame_dropout() {
        // Detected in frames 0, 1, 3, 4 (missing in 2): a gap of
        // `TRACK_MAX_GAP` frames bridges.
        let mut frames = moving_car_frames(5);
        frames[2] = vec![];
        let bridged = build_tracks(&frames);
        assert_eq!(bridged.len(), 1);
        assert_eq!(bridged[0].len(), 4);

        // Detected in frames 0, 1, 4, 5 (missing in 2 and 3): a gap of
        // three frames breaks the track, though the boxes still overlap
        // above `TRACK_IOU`.
        let mut frames = moving_car_frames(6);
        frames[2] = vec![];
        frames[3] = vec![];
        assert!(iou_bev(&frames[1][0], &frames[4][0]) >= TRACK_IOU);
        let broken = build_tracks(&frames);
        assert_eq!(broken.len(), 2);
        assert!(broken.iter().all(|t| t.len() == 2));
    }

    #[test]
    fn every_item_in_exactly_one_track() {
        let frames: Vec<Vec<Box3>> = (0..6)
            .map(|i| vec![car(10.0 + i as f64, 0.0), car(30.0 - i as f64, 4.0), car(50.0, -4.0)])
            .collect();
        let tracks = build_tracks(&frames);
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
        let tracks = build_tracks(&frames);
        for t in &tracks {
            for w in t.entries.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn empty_input() {
        assert!(build_tracks(&[]).is_empty());
        let empty_frames: Vec<Vec<Box3>> = vec![vec![], vec![], vec![]];
        assert!(build_tracks(&empty_frames).is_empty());
    }

    #[test]
    fn scratch_reuse_across_scenes_is_clean() {
        let mut builder = TrackBuilder::default();
        let a = moving_car_frames(6);
        let b: Vec<Vec<Box3>> = (0..4).map(|i| vec![car(50.0 + i as f64, 20.0)]).collect();
        let first = build_with(&mut builder, &a);
        let second = build_with(&mut builder, &b);
        assert_eq!(first, build_tracks_brute(&a), "first scene through a fresh builder");
        assert_eq!(
            second,
            build_tracks_brute(&b),
            "second scene must not see stale state"
        );
    }

    #[test]
    fn incremental_builder_matches_batch() {
        let mut builder = TrackBuilder::default();
        for seed in [1u64, 5, 9] {
            let frames = random_frames(seed, 8, 5, 30.0);
            let streamed = build_with(&mut builder, &frames);
            assert_eq!(streamed, build_tracks_brute(&frames), "seed {seed}");
        }
    }

    #[test]
    fn builder_snapshot_is_prefix_batch() {
        // After k steps the paths must equal a build over the first k
        // frames: the sweep never revises past assignments.
        let frames = random_frames(3, 7, 4, 25.0);
        let mut builder = TrackBuilder::default();
        builder.begin();
        for (k, items) in frames.iter().enumerate() {
            step(&mut builder, items);
            assert_eq!(builder.next_frame, k + 1);
            let prefix = build_tracks_brute(&frames[..=k]);
            assert_eq!(paths(&builder), prefix, "prefix of {} frames", k + 1);
        }
        // Reading the paths does not disturb the in-progress state.
        assert_eq!(paths(&builder), build_tracks_brute(&frames));
    }

    #[test]
    fn last_touched_indexes_snapshot() {
        // Per frame: the touched set is exactly the tracks whose paths
        // changed, creation order matches the batch build's first-entry
        // order, and untouched paths are byte-identical to the previous
        // frame's.
        for seed in [2u64, 6, 11] {
            let frames = random_frames(seed, 9, 5, 28.0);
            let mut builder = TrackBuilder::default();
            builder.begin();
            let mut prev: Vec<TrackPath> = Vec::new();
            for (k, items) in frames.iter().enumerate() {
                step(&mut builder, items);
                let paths = paths(&builder);
                assert_eq!(paths, build_tracks_brute(&frames[..=k]), "seed {seed} frame {k}");
                for (t, path) in paths.iter().enumerate() {
                    let last = *path.entries.last().unwrap();
                    assert_eq!(builder.path_len_and_last(t), (path.len(), last));
                }
                let touched: std::collections::BTreeSet<usize> =
                    builder.last_touched().iter().copied().collect();
                assert_eq!(touched.len(), builder.last_touched().len(), "touched indices unique");
                for (i, path) in paths.iter().enumerate() {
                    let changed = prev.get(i) != Some(path);
                    assert_eq!(touched.contains(&i), changed, "seed {seed} track {i}");
                }
                prev = paths;
            }
        }
    }

    #[test]
    fn last_touched_empty_frame_is_empty() {
        let mut builder = TrackBuilder::default();
        builder.begin();
        step(&mut builder, &[car(10.0, 0.0)]);
        assert_eq!(builder.last_touched(), &[0]);
        step(&mut builder, &[]);
        assert!(builder.last_touched().is_empty());
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
            let tracks = build_tracks(&frames);
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
            // A 4.5 m long car moving ≤1.5 m/frame keeps IOU above
            // `TRACK_IOU`, so one track must emerge.
            let frames: Vec<Vec<Box3>> =
                (0..10).map(|f| vec![car(10.0 + speed * f as f64, 0.0)]).collect();
            let tracks = build_tracks(&frames);
            prop_assert_eq!(tracks.len(), 1);
            prop_assert_eq!(tracks[0].len(), 10);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_indexed_equals_brute_force(
            seed in 0u64..5_000,
            n_frames in 0usize..8,
            n_objects in 0usize..90,
            spread in 3.0f64..60.0,
        ) {
            // Dense clouds (heavy overlap, crossings, dropouts) and sparse
            // ones: the spatially-pruned tracker must match the retained
            // dense reference exactly. Up to 89 objects per frame put
            // most multi-frame cases past `GRID_MIN_PAIRS` track×item
            // pairs, so both the mask sweep and the grid are checked.
            let frames = random_frames(seed, n_frames, n_objects, spread);
            prop_assert_eq!(build_tracks(&frames), build_tracks_brute(&frames));
        }
    }
}
