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
//! [`bundle_frame`] generalizes this: observations from *different* sources
//! whose association predicate fires are merged (transitively, via
//! union-find) into observation bundles. Two observations from the same
//! source are never directly associated — a source reports each object at
//! most once — but can end up in one bundle through a shared partner
//! (e.g. a duplicated model box overlapping the same human label).
//!
//! Bundling is no longer all-pairs: predicates that can only fire on
//! overlapping footprints ([`Bundler::overlap_only`], true for the IOU
//! default) prune candidate pairs through a [`BevGrid`] spatial index
//! before the predicate runs. The pruned path fires the predicate on the
//! identical subsequence of pairs the brute-force sweep would have fired
//! it on, so the resulting union-find — and therefore every bundle — is
//! identical; [`bundle_frame_brute`] stays as the reference the
//! equivalence proptests check against.

use crate::union_find::UnionFind;
use loa_geom::{iou_bev, iou_bev_prepared, Aabb2, BevGrid, Box3, Vec2};

/// The paper's bundling IOU threshold (`compute_iou(box1, box2) > 0.5`).
///
/// The single definition: [`IouBundler::default`] and the engine's
/// `AssemblyConfig` both read it, so the two cannot drift.
pub const DEFAULT_BUNDLE_IOU: f64 = 0.5;

/// Below this many observations a frame is pruned by a flat
/// precomputed-AABB pair sweep; from here up the [`BevGrid`] index pays
/// for its build. (Crossover measured on the assembly bench: the sweep
/// costs a few ns per pair, the grid ~0.2 µs per item to build+query.)
const GRID_MIN_ITEMS: usize = 96;

/// Precomputed per-box footprint geometry (AABB, corners, area). The
/// indexed bundling paths build one per observation per frame, so the
/// predicate's per-pair cost is the clip alone — no repeated corner
/// trigonometry.
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

/// The association predicate between two boxes.
pub trait Bundler {
    /// Whether two boxes (from different sources) are the same object.
    fn is_associated(&self, a: &Box3, b: &Box3) -> bool;

    /// [`is_associated`](Self::is_associated) when the caller has already
    /// prepared both boxes' footprint geometry (the indexed bundling
    /// paths do, once per box per frame). Implementations that derive
    /// their own AABBs/corners (e.g. for an upper-bound reject or the
    /// clip itself) can use the prepared ones instead; the decision must
    /// be identical to `is_associated`.
    fn is_associated_prepared(
        &self,
        a: &Box3,
        b: &Box3,
        _pa: &PreparedBox,
        _pb: &PreparedBox,
    ) -> bool {
        self.is_associated(a, b)
    }

    /// True when the predicate can only fire for boxes whose BEV
    /// footprints overlap (and hence whose AABBs intersect) — e.g. any
    /// `iou > t` test with `t ≥ 0`. Enables spatial pruning; the default
    /// `false` keeps arbitrary predicates (center-distance closures, …)
    /// on the exhaustive pair sweep.
    fn overlap_only(&self) -> bool {
        false
    }
}

/// The default BEV-IOU bundler (`iou > threshold`).
#[derive(Debug, Clone, Copy)]
pub struct IouBundler {
    pub threshold: f64,
}

impl Default for IouBundler {
    fn default() -> Self {
        IouBundler { threshold: DEFAULT_BUNDLE_IOU }
    }
}

impl Bundler for IouBundler {
    fn is_associated(&self, a: &Box3, b: &Box3) -> bool {
        iou_bev(a, b) > self.threshold
    }

    fn is_associated_prepared(
        &self,
        a: &Box3,
        b: &Box3,
        pa: &PreparedBox,
        pb: &PreparedBox,
    ) -> bool {
        // Exact upper-bound reject before the polygon clip: the footprint
        // intersection is contained in the AABB intersection, so
        // `iou > t` requires `aabb_inter > t·(A + B)/(1 + t)`. Most
        // sub-threshold candidate pairs stop here, paying four min/max
        // instead of a Sutherland–Hodgman clip. (Decision-equivalent to
        // `is_associated`: the bound is exact, and on AABB-overlapping
        // pairs the prepared clip computes the identical IOU.)
        let _ = (a, b);
        if self.threshold > 0.0 {
            let (aabb_a, aabb_b) = (&pa.aabb, &pb.aabb);
            let ix = (aabb_a.max.x.min(aabb_b.max.x) - aabb_a.min.x.max(aabb_b.min.x)).max(0.0);
            let iy = (aabb_a.max.y.min(aabb_b.max.y) - aabb_a.min.y.max(aabb_b.min.y)).max(0.0);
            let upper = ix * iy;
            if upper * (1.0 + self.threshold) <= self.threshold * (pa.area + pb.area) {
                return false;
            }
        }
        iou_bev_prepared(&pa.corners, pa.area, &pb.corners, pb.area) > self.threshold
    }

    fn overlap_only(&self) -> bool {
        // iou > t with t ≥ 0 requires an actual footprint intersection;
        // a negative threshold would accept disjoint boxes.
        self.threshold >= 0.0
    }
}

impl<F: Fn(&Box3, &Box3) -> bool> Bundler for F {
    fn is_associated(&self, a: &Box3, b: &Box3) -> bool {
        self(a, b)
    }
}

/// One bundle: the member observations, as `(source, index_within_source)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleGroup {
    pub members: Vec<(usize, usize)>,
}

impl BundleGroup {
    /// Whether the bundle contains an observation from `source`.
    pub fn has_source(&self, source: usize) -> bool {
        self.members.iter().any(|&(s, _)| s == source)
    }

    /// Number of member observations.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// One frame's bundles in CSR form: group `g` is
/// `members[offsets[g]..offsets[g + 1]]`, each member a
/// `(source, index_within_source)` pair. The reusable-output twin of
/// `Vec<BundleGroup>` — [`bundle_frame_into`] refills one of these per
/// frame without allocating once warm.
#[derive(Debug, Clone, Default)]
pub struct FrameBundles {
    offsets: Vec<u32>,
    members: Vec<(usize, usize)>,
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
    pub fn group(&self, g: usize) -> &[(usize, usize)] {
        &self.members[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Iterate groups in order.
    pub fn iter(&self) -> impl Iterator<Item = &[(usize, usize)]> + '_ {
        (0..self.len()).map(|g| self.group(g))
    }

    fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.members.clear();
    }
}

/// Reusable buffers for [`bundle_frame_into`]: the flattened observation
/// list, its AABBs, the spatial grid, the union-find, and the grouping
/// sort — everything the per-frame bundling pass would otherwise
/// reallocate.
#[derive(Debug, Clone, Default)]
pub struct BundleScratch {
    flat: Vec<(usize, usize)>,
    boxes: Vec<Box3>,
    prepared: Vec<PreparedBox>,
    aabbs: Vec<Aabb2>,
    grid: BevGrid,
    candidates: Vec<u32>,
    uf: UnionFind,
    roots: Vec<u32>,
    group_start: Vec<u32>,
}

impl BundleScratch {
    /// Footprint geometry of every observation of the most recently
    /// bundled frame, in source-then-index order (observation `i` of
    /// source `s` sits after all of sources `0..s`).
    pub fn prepared(&self) -> &[PreparedBox] {
        &self.prepared
    }
}

/// Bundle one frame's observations.
///
/// `sources` is a list of per-source box lists (e.g. `[human_labels,
/// model_predictions]`). Returns bundles covering *every* observation;
/// unmatched observations become singleton bundles. Bundles are sorted by
/// their first member for determinism.
pub fn bundle_frame(sources: &[&[Box3]], bundler: &impl Bundler) -> Vec<BundleGroup> {
    let mut scratch = BundleScratch::default();
    let mut out = FrameBundles::default();
    bundle_frame_into(sources, bundler, &mut scratch, &mut out);
    out.iter().map(|g| BundleGroup { members: g.to_vec() }).collect()
}

/// [`bundle_frame`] with caller-owned scratch and CSR output (both reused
/// across frames). This is the path `AssemblyEngine` drives.
pub fn bundle_frame_into(
    sources: &[&[Box3]],
    bundler: &impl Bundler,
    scratch: &mut BundleScratch,
    out: &mut FrameBundles,
) {
    // Flatten with source tags.
    scratch.flat.clear();
    scratch.boxes.clear();
    for (s, boxes) in sources.iter().enumerate() {
        for (i, b) in boxes.iter().enumerate() {
            scratch.flat.push((s, i));
            scratch.boxes.push(*b);
        }
    }
    let n = scratch.flat.len();
    scratch.uf.reset(n);
    // Every observation's footprint geometry, in flat order: the pruned
    // sweeps below score pairs from it, and the caller's tracker reuses
    // it for the bundles' representative boxes.
    scratch.prepared.clear();
    scratch.prepared.extend(scratch.boxes.iter().map(PreparedBox::new));

    // Pairs are visited in ascending (a, b) order on all paths, and the
    // pruned paths only skip pairs the predicate could not fire on
    // (same-source or disjoint-AABB pairs), so the union sequence — and
    // the resulting roots — are identical. Small frames prune through a
    // precomputed-AABB pair sweep (four comparisons per pair, no index
    // setup) whose rows start at the next source, as `flat` is grouped by
    // source; past [`GRID_MIN_ITEMS`] the `BevGrid` takes over and the
    // sweep's `O(n²)` disappears.
    if n >= 2 && bundler.overlap_only() {
        let prepared = &scratch.prepared;
        if n < GRID_MIN_ITEMS {
            let mut start = 0;
            for boxes in sources {
                let end = start + boxes.len();
                for a in start..end {
                    for b in end..n {
                        if !prepared[a].aabb.intersects(&prepared[b].aabb) {
                            continue;
                        }
                        if bundler.is_associated_prepared(
                            &scratch.boxes[a],
                            &scratch.boxes[b],
                            &prepared[a],
                            &prepared[b],
                        ) {
                            scratch.uf.union(a, b);
                        }
                    }
                }
                start = end;
            }
        } else {
            scratch.aabbs.clear();
            scratch.aabbs.extend(prepared.iter().map(|p| p.aabb));
            scratch.grid.build(&scratch.aabbs);
            for a in 0..n {
                let query = prepared[a].aabb;
                scratch.grid.query_into(&query, &mut scratch.candidates);
                for &cand in &scratch.candidates {
                    let b = cand as usize;
                    if b <= a || scratch.flat[a].0 == scratch.flat[b].0 {
                        continue;
                    }
                    if bundler.is_associated_prepared(
                        &scratch.boxes[a],
                        &scratch.boxes[b],
                        &prepared[a],
                        &prepared[b],
                    ) {
                        scratch.uf.union(a, b);
                    }
                }
            }
        }
    } else {
        for a in 0..n {
            for b in (a + 1)..n {
                if scratch.flat[a].0 == scratch.flat[b].0 {
                    continue;
                }
                if bundler.is_associated(&scratch.boxes[a], &scratch.boxes[b]) {
                    scratch.uf.union(a, b);
                }
            }
        }
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
    out.clear();
    for r in 0..n {
        let count = scratch.group_start[r + 1];
        scratch.group_start[r + 1] += scratch.group_start[r];
        if count > 0 {
            out.offsets.push(scratch.group_start[r + 1]);
        }
    }
    out.members.resize(n, (0, 0));
    for x in 0..n {
        let slot = &mut scratch.group_start[scratch.roots[x] as usize];
        out.members[*slot as usize] = scratch.flat[x];
        *slot += 1;
    }
}

/// The retained all-pairs reference implementation — the oracle the
/// equivalence proptests hold [`bundle_frame`] to.
pub fn bundle_frame_brute(sources: &[&[Box3]], bundler: &impl Bundler) -> Vec<BundleGroup> {
    let mut flat: Vec<(usize, usize)> = Vec::new();
    for (s, boxes) in sources.iter().enumerate() {
        for i in 0..boxes.len() {
            flat.push((s, i));
        }
    }
    let n = flat.len();
    let mut uf = UnionFind::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            let (sa, ia) = flat[a];
            let (sb, ib) = flat[b];
            if sa == sb {
                continue;
            }
            if bundler.is_associated(&sources[sa][ia], &sources[sb][ib]) {
                uf.union(a, b);
            }
        }
    }
    uf.groups()
        .into_iter()
        .map(|group| BundleGroup { members: group.into_iter().map(|x| flat[x]).collect() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn car(x: f64, y: f64) -> Box3 {
        Box3::on_ground(x, y, 0.0, 4.5, 1.9, 1.6, 0.0)
    }

    #[test]
    fn overlapping_cross_source_boxes_bundle() {
        let human = [car(10.0, 0.0)];
        let model = [car(10.2, 0.1)];
        let bundles = bundle_frame(&[&human, &model], &IouBundler::default());
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].len(), 2);
        assert!(bundles[0].has_source(0));
        assert!(bundles[0].has_source(1));
    }

    #[test]
    fn distant_boxes_stay_separate() {
        let human = [car(10.0, 0.0)];
        let model = [car(40.0, 5.0)];
        let bundles = bundle_frame(&[&human, &model], &IouBundler::default());
        assert_eq!(bundles.len(), 2);
        assert!(bundles.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn same_source_boxes_never_directly_bundle() {
        // Two overlapping boxes from the same source remain separate.
        let model = [car(10.0, 0.0), car(10.1, 0.0)];
        let bundles = bundle_frame(&[&model], &IouBundler::default());
        assert_eq!(bundles.len(), 2);
    }

    #[test]
    fn transitive_bundling_through_shared_partner() {
        // Two model duplicates both overlap one human label → one bundle of
        // three.
        let human = [car(10.0, 0.0)];
        let model = [car(10.15, 0.05), car(9.9, -0.05)];
        let bundles = bundle_frame(&[&human, &model], &IouBundler { threshold: 0.4 });
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].len(), 3);
    }

    #[test]
    fn all_observations_covered() {
        let human = [car(5.0, 0.0), car(20.0, 3.0)];
        let model = [car(5.1, 0.0), car(40.0, -4.0), car(20.1, 3.0)];
        let bundles = bundle_frame(&[&human, &model], &IouBundler::default());
        let total: usize = bundles.iter().map(BundleGroup::len).sum();
        assert_eq!(total, 5);
        // Two matched pairs and one singleton.
        assert_eq!(bundles.len(), 3);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = bundles.iter().map(BundleGroup::len).collect();
            s.sort();
            s
        };
        assert_eq!(sizes, vec![1, 2, 2]);
    }

    #[test]
    fn closure_bundler_works() {
        // The paper lets users override is_associated with arbitrary code;
        // here: center distance < 1 m. Closures keep the exhaustive sweep
        // (their predicate may fire on non-overlapping boxes).
        let custom = |a: &Box3, b: &Box3| a.bev_center_distance(b) < 1.0;
        assert!(!Bundler::overlap_only(&custom));
        let human = [car(10.0, 0.0)];
        let model = [car(10.8, 0.0)];
        let bundles = bundle_frame(&[&human, &model], &custom);
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].len(), 2);
    }

    #[test]
    fn empty_sources() {
        let bundles = bundle_frame(&[], &IouBundler::default());
        assert!(bundles.is_empty());
        let empty: [Box3; 0] = [];
        let bundles = bundle_frame(&[&empty, &empty], &IouBundler::default());
        assert!(bundles.is_empty());
    }

    #[test]
    fn three_sources_bundle() {
        let human = [car(10.0, 0.0)];
        let model = [car(10.1, 0.0)];
        let auditor = [car(9.95, 0.02)];
        let bundles = bundle_frame(&[&human, &model, &auditor], &IouBundler::default());
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].len(), 3);
        for s in 0..3 {
            assert!(bundles[0].has_source(s));
        }
    }

    #[test]
    fn default_threshold_is_the_shared_constant() {
        assert_eq!(IouBundler::default().threshold, DEFAULT_BUNDLE_IOU);
        assert!(IouBundler::default().overlap_only());
        assert!(!IouBundler { threshold: -0.1 }.overlap_only());
    }

    #[test]
    fn scratch_reuse_across_frames_is_clean() {
        let mut scratch = BundleScratch::default();
        let mut out = FrameBundles::default();
        // A crowded frame, then an empty one, then a different one: no
        // state may leak between frames.
        let human = [car(5.0, 0.0), car(20.0, 3.0)];
        let model = [car(5.1, 0.0), car(40.0, -4.0), car(20.1, 3.0)];
        bundle_frame_into(&[&human, &model], &IouBundler::default(), &mut scratch, &mut out);
        assert_eq!(out.len(), 3);
        let empty: [Box3; 0] = [];
        bundle_frame_into(&[&empty, &empty], &IouBundler::default(), &mut scratch, &mut out);
        assert_eq!(out.len(), 0);
        let human2 = [car(1.0, 1.0)];
        bundle_frame_into(&[&human2, &empty], &IouBundler::default(), &mut scratch, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.group(0), &[(0, 0)]);
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
            n_human in 0usize..24,
            n_model in 0usize..24,
            spread in 4.0f64..80.0,
            threshold in 0.05f64..0.8,
        ) {
            // Tight spreads force heavy overlap (many unions, transitive
            // chains); wide spreads force sparsity. Either way the pruned
            // path must produce byte-identical bundles.
            let human = cloud(seed, n_human, spread);
            let model = cloud(seed ^ 0xABCD, n_model, spread);
            let bundler = IouBundler { threshold };
            let fast = bundle_frame(&[&human, &model], &bundler);
            let brute = bundle_frame_brute(&[&human, &model], &bundler);
            prop_assert_eq!(fast, brute);
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
            let bundler = IouBundler::default();
            let fast = bundle_frame(&[&a, &b, &c], &bundler);
            let brute = bundle_frame_brute(&[&a, &b, &c], &bundler);
            prop_assert_eq!(fast, brute);
        }
    }
}
