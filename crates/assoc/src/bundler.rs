//! Same-frame bundling of observations from multiple sources.
//!
//! The paper's worked example (Section 3):
//!
//! ```python
//! class TrackBundler(Bundler):
//!     def is_associated(self, box1, box2):
//!         return compute_iou(box1, box2) > 0.5
//! ```
//!
//! [`bundle_prepared_into`] runs this rule over one frame: observations
//! from *different* sources whose BEV IOU exceeds [`BUNDLE_IOU`] are
//! merged (transitively, via union-find) into observation bundles. Two
//! observations from the same source are never directly associated — a
//! source reports each object at most once — but can end up in one
//! bundle through a shared partner (e.g. a duplicated model box
//! overlapping the same human label).
//!
//! The sweep reads a frame as one flat slice of [`PreparedBox`]
//! footprints, each source a consecutive run of it, and emits each bundle
//! as ascending offsets into that slice. The assembly engine prepares
//! each observation's footprint once while it gathers the frame and hands
//! the same slice on to the tracker.
//!
//! Bundling is not all-pairs: an IOU above a positive threshold needs
//! overlapping footprints, so the predicate only sees pairs whose AABBs
//! intersect. A small frame tests each row's AABBs branch-free into a bit
//! mask and visits the set bits; a large one prunes through a [`BevGrid`]
//! spatial index. Both fire the predicate on the identical subsequence of
//! pairs the all-pairs sweep of [`bundle_frame_brute`] would have fired
//! it on, so the resulting union-find — and therefore every bundle — is
//! identical.

use crate::union_find::UnionFind;
use crate::BUNDLE_IOU;
use loa_geom::{iou_bev, iou_bev_prepared, Aabb2, BevGrid, Box3, Vec2};

/// Below this many observations a frame is pruned by a flat
/// precomputed-AABB pair sweep; from here up the [`BevGrid`] index pays
/// for its build. (Crossover measured on the assembly bench: the sweep
/// costs a few ns per pair, the grid ~0.2 µs per item to build+query.)
const GRID_MIN_ITEMS: usize = 96;

/// Precomputed per-box footprint geometry (AABB, corners, area). The
/// assembly engine builds one per observation per frame, so a pair's
/// predicate costs the clip alone — no repeated corner trigonometry.
#[derive(Debug, Clone, Copy)]
pub struct PreparedBox {
    pub aabb: Aabb2,
    pub corners: [Vec2; 4],
    pub area: f64,
}

impl PreparedBox {
    pub fn new(b: &Box3) -> Self {
        let (aabb, corners) = b.bev_aabb_and_corners();
        PreparedBox { aabb, corners, area: b.bev_area() }
    }
}

/// A list of AABBs stored column by column, for the flat sweeps: testing
/// one box against a run of them compiles to packed compares.
#[derive(Debug, Clone, Default)]
pub(crate) struct AabbColumns {
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
}

impl AabbColumns {
    pub(crate) fn refill(&mut self, aabbs: impl Iterator<Item = Aabb2>) {
        self.min_x.clear();
        self.min_y.clear();
        self.max_x.clear();
        self.max_y.clear();
        for b in aabbs {
            self.min_x.push(b.min.x);
            self.min_y.push(b.min.y);
            self.max_x.push(b.max.x);
            self.max_y.push(b.max.y);
        }
    }

    /// Visit, ascending, every index from `from` on whose box intersects
    /// `query` ([`Aabb2::intersects`], comparison for comparison). The
    /// tests run branch-free, 64 at a time, into a bit mask, and only the
    /// set bits are visited: the flat sweeps' tests mostly fail, and a
    /// branch per test would mispredict on them.
    #[inline]
    pub(crate) fn for_each_overlap(
        &self,
        query: &Aabb2,
        from: usize,
        mut visit: impl FnMut(usize),
    ) {
        let n = self.min_x.len();
        let mut base = from;
        while base < n {
            let end = n.min(base + 64);
            let (min_x, min_y) = (&self.min_x[base..end], &self.min_y[base..end]);
            let (max_x, max_y) = (&self.max_x[base..end], &self.max_y[base..end]);
            let mut mask = 0u64;
            for k in 0..end - base {
                let hit = (query.min.x <= max_x[k])
                    & (min_x[k] <= query.max.x)
                    & (query.min.y <= max_y[k])
                    & (min_y[k] <= query.max.y);
                mask |= (hit as u64) << k;
            }
            while mask != 0 {
                visit(base + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
            base = end;
        }
    }
}

/// The paper's predicate on two prepared footprints: BEV IOU above
/// [`BUNDLE_IOU`]. On AABB-overlapping pairs the prepared clip computes
/// the same IOU as `iou_bev` on the boxes, so the decision is
/// [`bundle_frame_brute`]'s.
fn associated(pa: &PreparedBox, pb: &PreparedBox) -> bool {
    // Exact upper-bound reject before the polygon clip: the footprint
    // intersection is contained in the AABB intersection, so `iou > t`
    // requires `aabb_inter > t·(A + B)/(1 + t)`. Most sub-threshold
    // candidate pairs stop here, paying four min/max instead of a
    // Sutherland–Hodgman clip.
    let (aabb_a, aabb_b) = (&pa.aabb, &pb.aabb);
    let ix = (aabb_a.max.x.min(aabb_b.max.x) - aabb_a.min.x.max(aabb_b.min.x)).max(0.0);
    let iy = (aabb_a.max.y.min(aabb_b.max.y) - aabb_a.min.y.max(aabb_b.min.y)).max(0.0);
    if ix * iy * (1.0 + BUNDLE_IOU) <= BUNDLE_IOU * (pa.area + pb.area) {
        return false;
    }
    iou_bev_prepared(&pa.corners, pa.area, &pb.corners, pb.area) > BUNDLE_IOU
}

/// One frame's bundles in CSR form: group `g` is
/// `members[offsets[g]..offsets[g + 1]]`, each member an offset into the
/// frame's flat observation slice, ascending within the group.
/// [`bundle_prepared_into`] refills one of these per frame without
/// allocating once warm.
#[derive(Debug, Clone, Default)]
pub struct FrameBundles {
    offsets: Vec<u32>,
    members: Vec<u32>,
}

impl FrameBundles {
    /// Number of bundles.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Members of group `g`.
    pub fn group(&self, g: usize) -> &[u32] {
        &self.members[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Iterate groups in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|g| self.group(g))
    }
}

/// Reusable buffers for [`bundle_prepared_into`] (AABBs, spatial grid,
/// union-find, grouping sort) — everything the per-frame bundling pass
/// would otherwise reallocate.
#[derive(Debug, Clone, Default)]
pub struct BundleScratch {
    columns: AabbColumns,
    aabbs: Vec<Aabb2>,
    grid: BevGrid,
    candidates: Vec<u32>,
    uf: UnionFind,
    roots: Vec<u32>,
    group_start: Vec<u32>,
}

/// Bundle one frame's observations by the paper's rule: BEV IOU above
/// [`BUNDLE_IOU`] between observations from different sources.
///
/// `prepared` is the frame's observation footprints, source after source:
/// source `s` is `prepared[source_ends[s - 1]..source_ends[s]]` (from 0
/// for the first), and the last end is `prepared.len()`. Every
/// observation lands in exactly one group of `out`, as its offset into
/// `prepared`; an unmatched one is a singleton. Groups come ordered by
/// union-find root, as [`bundle_frame_brute`] orders them.
pub fn bundle_prepared_into(
    prepared: &[PreparedBox],
    source_ends: &[usize],
    scratch: &mut BundleScratch,
    out: &mut FrameBundles,
) {
    let n = prepared.len();
    debug_assert_eq!(source_ends.last().copied().unwrap_or(0), n, "sources cover the frame");
    // Pairs exist only when a source boundary splits the frame, i.e. when
    // two sources have observations.
    let paired = source_ends.iter().any(|&end| 0 < end && end < n);
    if paired {
        scratch.uf.reset(n);
    }

    // Source runs are consecutive, so a row `a` pairs with exactly the
    // columns from its run's end on. Both paths visit rows ascending and
    // only skip pairs the predicate could not fire on (disjoint AABBs),
    // so the union sequence — and the resulting roots — are the
    // brute-force sweep's. Small frames test each row's AABBs into a mask
    // (no index setup); past [`GRID_MIN_ITEMS`] the `BevGrid` takes over
    // and the sweep's `O(n²)` disappears.
    let mut merged = false;
    if paired && n < GRID_MIN_ITEMS {
        scratch.columns.refill(prepared.iter().map(|p| p.aabb));
        let mut start = 0;
        for &end in source_ends {
            for a in start..end {
                scratch.columns.for_each_overlap(&prepared[a].aabb, end, |b| {
                    if associated(&prepared[a], &prepared[b]) {
                        merged |= scratch.uf.union(a, b);
                    }
                });
            }
            start = end;
        }
    } else if paired {
        scratch.aabbs.clear();
        scratch.aabbs.extend(prepared.iter().map(|p| p.aabb));
        scratch.grid.build(&scratch.aabbs);
        let mut start = 0;
        for &end in source_ends {
            for a in start..end {
                scratch.grid.query_into(&prepared[a].aabb, &mut scratch.candidates);
                for &cand in &scratch.candidates {
                    let b = cand as usize;
                    if b >= end && associated(&prepared[a], &prepared[b]) {
                        merged |= scratch.uf.union(a, b);
                    }
                }
            }
            start = end;
        }
    }

    out.offsets.clear();
    out.members.clear();
    if !merged {
        // Every observation is its own root: singletons in index order
        // (always so for a frame with one source).
        out.offsets.extend(0..=n as u32);
        out.members.extend(0..n as u32);
        return;
    }
    // Group by root, roots ascending, members ascending within a group —
    // the order `UnionFind::groups` produces — by a counting sort over
    // the root ids (all `< n`): no comparisons, no BTreeMap.
    scratch.roots.clear();
    scratch.group_start.clear();
    scratch.group_start.resize(n + 1, 0);
    for x in 0..n {
        let r = scratch.uf.find(x);
        scratch.roots.push(r as u32);
        scratch.group_start[r + 1] += 1;
    }
    out.offsets.push(0);
    for r in 0..n {
        let count = scratch.group_start[r + 1];
        scratch.group_start[r + 1] += scratch.group_start[r];
        if count > 0 {
            out.offsets.push(scratch.group_start[r + 1]);
        }
    }
    out.members.resize(n, 0);
    for x in 0..n {
        let slot = &mut scratch.group_start[scratch.roots[x] as usize];
        out.members[*slot as usize] = x as u32;
        *slot += 1;
    }
}

/// The retained all-pairs reference implementation — the oracle the
/// equivalence proptests hold [`bundle_prepared_into`] to. It tests every
/// cross-source pair with `iou_bev` on the boxes themselves. The sources
/// are laid end to end as there: each bundle is its members' ascending
/// offsets, bundles ordered by union-find root.
pub fn bundle_frame_brute(sources: &[&[Box3]]) -> Vec<Vec<u32>> {
    let flat: Vec<(usize, &Box3)> = sources
        .iter()
        .enumerate()
        .flat_map(|(s, boxes)| boxes.iter().map(move |b| (s, b)))
        .collect();
    let n = flat.len();
    let mut uf = UnionFind::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            let ((sa, box_a), (sb, box_b)) = (flat[a], flat[b]);
            if sa != sb && iou_bev(box_a, box_b) > BUNDLE_IOU {
                uf.union(a, b);
            }
        }
    }
    uf.groups()
        .into_iter()
        .map(|group| group.into_iter().map(|x| x as u32).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn car(x: f64, y: f64) -> Box3 {
        Box3::on_ground(x, y, 0.0, 4.5, 1.9, 1.6, 0.0)
    }

    /// Run the sweep over box lists laid end to end, through warm
    /// `scratch`, with each bundle as its members' offsets.
    fn bundle_with(sources: &[&[Box3]], scratch: &mut BundleScratch) -> Vec<Vec<u32>> {
        let prepared: Vec<PreparedBox> =
            sources.iter().flat_map(|s| s.iter().map(PreparedBox::new)).collect();
        let ends: Vec<usize> = sources
            .iter()
            .scan(0, |end, s| {
                *end += s.len();
                Some(*end)
            })
            .collect();
        let mut out = FrameBundles::default();
        bundle_prepared_into(&prepared, &ends, scratch, &mut out);
        out.iter().map(<[u32]>::to_vec).collect()
    }

    fn bundle(sources: &[&[Box3]]) -> Vec<Vec<u32>> {
        bundle_with(sources, &mut BundleScratch::default())
    }

    #[test]
    fn overlapping_cross_source_boxes_bundle() {
        let human = [car(10.0, 0.0)];
        let model = [car(10.2, 0.1)];
        assert_eq!(bundle(&[&human, &model]), vec![vec![0, 1]]);
    }

    #[test]
    fn distant_boxes_stay_separate() {
        let human = [car(10.0, 0.0)];
        let model = [car(40.0, 5.0)];
        assert_eq!(bundle(&[&human, &model]), vec![vec![0], vec![1]]);
    }

    #[test]
    fn same_source_boxes_never_directly_bundle() {
        // Two overlapping boxes from the same source remain separate.
        let model = [car(10.0, 0.0), car(10.1, 0.0)];
        assert_eq!(bundle(&[&model]), vec![vec![0], vec![1]]);
    }

    #[test]
    fn transitive_bundling_through_shared_partner() {
        // Two model duplicates both overlap one human label → one bundle
        // of three, though the duplicates never pair directly.
        let human = [car(10.0, 0.0)];
        let model = [car(10.15, 0.05), car(9.9, -0.05)];
        assert!(model.iter().all(|m| iou_bev(&human[0], m) > BUNDLE_IOU));
        assert_eq!(bundle(&[&human, &model]), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn all_observations_covered() {
        // Two matched pairs and one singleton.
        let human = [car(5.0, 0.0), car(20.0, 3.0)];
        let model = [car(5.1, 0.0), car(40.0, -4.0), car(20.1, 3.0)];
        let bundles = bundle(&[&human, &model]);
        let mut members: Vec<u32> = bundles.concat();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3, 4]);
        let mut sizes: Vec<usize> = bundles.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 2]);
    }

    #[test]
    fn empty_sources() {
        assert!(bundle(&[]).is_empty());
        let empty: [Box3; 0] = [];
        assert!(bundle(&[&empty, &empty]).is_empty());
    }

    #[test]
    fn three_sources_bundle() {
        let human = [car(10.0, 0.0)];
        let model = [car(10.1, 0.0)];
        let auditor = [car(9.95, 0.02)];
        assert_eq!(bundle(&[&human, &model, &auditor]), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn default_threshold_is_the_shared_constant() {
        // The sweep bundles strictly above `BUNDLE_IOU`, as the brute
        // reference does. A 2×2 box inside a 4×2 one covers exactly half
        // their union: no bundle. Stretched to 2.2 m long, it bundles.
        let wide = Box3::on_ground(0.0, 0.0, 0.0, 4.0, 2.0, 1.6, 0.0);
        let half = Box3::on_ground(1.0, 0.0, 0.0, 2.0, 2.0, 1.6, 0.0);
        let above = Box3::on_ground(0.9, 0.0, 0.0, 2.2, 2.0, 1.6, 0.0);
        assert_eq!(iou_bev(&wide, &half), BUNDLE_IOU);
        assert!(iou_bev(&wide, &above) > BUNDLE_IOU);
        for (partner, bundled) in [(half, false), (above, true)] {
            let sources: [&[Box3]; 2] = [&[wide], &[partner]];
            let expected = if bundled { vec![vec![0, 1]] } else { vec![vec![0], vec![1]] };
            assert_eq!(bundle(&sources), expected);
            assert_eq!(bundle_frame_brute(&sources), expected);
        }
    }

    #[test]
    fn scratch_reuse_across_frames_is_clean() {
        let mut scratch = BundleScratch::default();
        // A crowded frame, then an empty one, then a different one: no
        // state may leak between frames.
        let human = [car(5.0, 0.0), car(20.0, 3.0)];
        let model = [car(5.1, 0.0), car(40.0, -4.0), car(20.1, 3.0)];
        assert_eq!(bundle_with(&[&human, &model], &mut scratch).len(), 3);
        let empty: [Box3; 0] = [];
        assert!(bundle_with(&[&empty, &empty], &mut scratch).is_empty());
        let human2 = [car(1.0, 1.0)];
        assert_eq!(bundle_with(&[&human2, &empty], &mut scratch), vec![vec![0]]);
    }

    /// Deterministic pseudo-random box cloud, dense enough for plenty of
    /// overlap (including near-duplicates and degenerate stacks).
    fn cloud(seed: u64, n: usize, spread: f64) -> Vec<Box3> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 10_000) as f64 / 10_000.0
        };
        (0..n)
            .map(|_| {
                let x = (next() - 0.5) * spread;
                let y = (next() - 0.5) * spread;
                let l = 0.5 + next() * 6.0;
                let w = 0.5 + next() * 2.5;
                let yaw = next() * 6.3;
                Box3::on_ground(x, y, 0.0, l, w, 1.6, yaw)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_indexed_equals_brute_force(
            seed in 0u64..5_000,
            n_human in 0usize..80,
            n_model in 0usize..80,
            spread in 4.0f64..80.0,
        ) {
            // Tight spreads force heavy overlap (many unions, transitive
            // chains); wide spreads force sparsity. Frames of up to 158
            // boxes cross `GRID_MIN_ITEMS`, so both the mask sweep and
            // the grid must produce byte-identical bundles.
            let human = cloud(seed, n_human, spread);
            let model = cloud(seed ^ 0xABCD, n_model, spread);
            prop_assert_eq!(bundle(&[&human, &model]), bundle_frame_brute(&[&human, &model]));
        }

        #[test]
        fn prop_indexed_equals_brute_on_duplicate_stacks(
            seed in 0u64..5_000, n in 1usize..12,
        ) {
            // Degenerate case: many boxes stacked at the same spot across
            // three sources — maximal transitive merging.
            let a = cloud(seed, n, 0.5);
            let b = cloud(seed ^ 1, n, 0.5);
            let c = cloud(seed ^ 2, n, 0.5);
            prop_assert_eq!(bundle(&[&a, &b, &c]), bundle_frame_brute(&[&a, &b, &c]));
        }
    }
}
