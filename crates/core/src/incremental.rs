//! O(Δ) incremental re-scoring over streaming snapshots.
//!
//! The streaming path scores the partial scene after every pushed frame;
//! compiling and scoring from scratch makes that O(scene) per frame —
//! per-frame latency *grows* with scene length, which a resident audit
//! service over long-lived sessions cannot afford. [`IncrementalScorer`]
//! makes it O(Δ): every factor is evaluated once, when the frame that
//! creates it arrives, and kept as `ln p` in its track's store; a pushed
//! frame re-folds only the tracks its [`FrameDelta`] changed.
//!
//! ## Why per-track stores suffice
//!
//! Under the Section 4.3 compilation semantics no factor's scope spans
//! two tracks (observation and bundle factors live inside one bundle,
//! transition and track factors inside one track), so a candidate's
//! `Within` factor set has a closed form:
//!
//! * a **track**'s factors are exactly the factors on its own
//!   observations, bundles, transitions and the track itself;
//! * a **bundle**'s factors are its members' observation factors, its own
//!   bundle factors, and its track's factors iff the track has exactly
//!   this one bundle (transition scopes span two bundles, never one).
//!
//! Factor *values* stay valid across frames because every shipped
//! feature is target-local (a bundle factor depends only on its bundle,
//! a track factor only on its track — locked by the `tests/incremental.rs`
//! proptests); a track's factors are re-evaluated whenever the track
//! itself changes.
//!
//! ## Bit-identity with the batch path
//!
//! `compile_scene` assigns factor ids lexicographically in
//! `(feature_index, target-visit-order)`, and both batch score paths
//! fold factors in ascending id order. Per feature the visit order is:
//! observation index, bundle index, `(track, later-bundle)` for
//! transitions, track index. Within one track every one of those keys
//! only grows as the track grows (a track gains at most one bundle per
//! frame, always at its end, and a frame's observations and bundles
//! come after every earlier frame's), so a store that appends each new
//! factor to its feature's run already holds the batch fold order: no
//! sort, and no `ln` at score time. The fold starts at `+0.0` and adds
//! the same values in the same order as `normalized_log_score` — f64
//! addition is not associative, so this is what makes incremental scores
//! bit-identical, not merely close (the correctness bar, locked by
//! proptests).
//!
//! Slots whose feature returned no value, and zeroed factors, hold
//! `+0.0`. Adding `+0.0` changes no sum the fold can reach (a sum is
//! `-0.0` only if every addend is, and `ln` never returns `-0.0`), and a
//! zeroed candidate is answered from its counts without a fold.
//!
//! ## Cache lifecycle
//!
//! Per frame, [`rescore_delta`](IncrementalScorer::rescore_delta)
//! ingests assembly facts (no snapshot diffing). Each changed track
//! appends its new bundle: the members' observation factors, the
//! bundle's own factors and the transition into it from the previous
//! bundle. It then re-evaluates its track factors and drops its cached
//! score; a bundle drops its cached score when it is new, or when it is
//! the first of a track that now has more than this one bundle (it loses
//! the track factors). The next
//! [`score_all_tracks`](IncrementalScorer::score_all_tracks) /
//! [`score_all_bundles`](IncrementalScorer::score_all_bundles) sweep
//! serves every other candidate from cache and re-folds the dropped
//! ones: a zeroed one in O(1) from its counts, any other in one
//! sequential pass over its stored values.

use crate::error::FixyError;
use crate::feature::{FeatureKind, FeatureSet, FeatureTarget, ProbabilityModel};
use crate::learner::{FeatureLibrary, FittedDistribution, PreparedDistribution};
use crate::scene::{BundleIdx, FrameDelta, ObsIdx, Scene, TrackIdx};
use loa_graph::ComponentScore;
use std::ops::Add;

/// Where one feature's values sit in a [`TrackStore`]: the column of the
/// rows its feature kind fills.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Obs(usize),
    Bundle(usize),
    Transition(usize),
    Track(usize),
}

/// Factors present and factors zeroed — all `normalized_log_score` needs
/// besides the sum.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    present: u32,
    zeroed: u32,
}

impl Add for Counts {
    type Output = Counts;
    fn add(self, other: Counts) -> Counts {
        Counts {
            present: self.present + other.present,
            zeroed: self.zeroed + other.zeroed,
        }
    }
}

impl Counts {
    /// Count one evaluated factor; returns the value its slot keeps.
    fn record(&mut self, p: Option<f64>) -> f64 {
        let Some(p) = p else {
            return 0.0;
        };
        self.present += 1;
        if p <= 0.0 || !p.is_finite() {
            self.zeroed += 1;
            0.0
        } else {
            p.ln()
        }
    }

    /// The score `normalized_log_score` gives these factors; `sum` folds
    /// their values and runs only when the score needs it.
    fn score(self, sum: impl FnOnce() -> f64) -> ComponentScore {
        let factor_count = self.present as usize;
        if factor_count == 0 {
            ComponentScore::empty()
        } else if self.zeroed > 0 {
            ComponentScore { score: None, factor_count, zeroed: true }
        } else {
            ComponentScore {
                score: Some(sum() / factor_count as f64),
                factor_count,
                zeroed: false,
            }
        }
    }
}

/// How a feature set's values are laid out in every [`TrackStore`].
#[derive(Debug)]
struct Layout {
    /// Each feature's slot, in feature-set (= batch fold) order.
    slots: Vec<Slot>,
    /// Values per observation row.
    obs_width: usize,
    /// Bundle-feature values per bundle row (transition values follow).
    bundle_width: usize,
    /// Values per bundle row: bundle features, then transition features.
    row_width: usize,
    /// Track-feature values at the head of `TrackStore::rows`.
    head: usize,
}

impl Layout {
    /// Sum a track's stored values in batch fold order.
    fn fold_track(&self, store: &TrackStore) -> f64 {
        let body = &store.rows[self.head..];
        let mut sum = 0.0;
        for &slot in &self.slots {
            match slot {
                Slot::Obs(c) => {
                    for &v in store.obs_rows.iter().skip(c).step_by(self.obs_width) {
                        sum += v;
                    }
                }
                Slot::Bundle(c) => {
                    for &v in body.iter().skip(c).step_by(self.row_width) {
                        sum += v;
                    }
                }
                // The first row has no transition into it.
                Slot::Transition(c) => {
                    let first = self.row_width + self.bundle_width + c;
                    for &v in body.iter().skip(first).step_by(self.row_width) {
                        sum += v;
                    }
                }
                Slot::Track(c) => sum += store.rows[c],
            }
        }
        sum
    }

    /// Sum a bundle's stored values in batch fold order: its members'
    /// rows, its own row's bundle values, and the track values when the
    /// track is this one bundle.
    fn fold_bundle(&self, store: &TrackStore, loc: &BundleLoc, members: usize) -> f64 {
        let obs = &store.obs_rows[loc.obs_row * self.obs_width..][..members * self.obs_width];
        let row = &store.rows[self.head + loc.pos * self.row_width..][..self.row_width];
        let alone = store.n_bundles == 1;
        let mut sum = 0.0;
        for &slot in &self.slots {
            match slot {
                Slot::Obs(c) => {
                    for &v in obs.iter().skip(c).step_by(self.obs_width) {
                        sum += v;
                    }
                }
                Slot::Bundle(c) => sum += row[c],
                Slot::Transition(_) => {}
                Slot::Track(c) => {
                    if alone {
                        sum += store.rows[c];
                    }
                }
            }
        }
        sum
    }
}

/// One track's factor values, kept as `ln p` (`+0.0` for absent or
/// zeroed factors, see the module docs) in rows the [`Layout`] folds in
/// batch order.
#[derive(Debug, Default)]
struct TrackStore {
    /// One row of observation-feature values per observation, ascending
    /// observation index.
    obs_rows: Vec<f64>,
    /// The track-feature values, then one row per bundle: its
    /// bundle-feature values and the transition into it from the previous
    /// bundle (the first row's transition slots are never folded).
    rows: Vec<f64>,
    n_obs: usize,
    n_bundles: usize,
    /// Counts over the observation, bundle and transition factors.
    counts: Counts,
    /// Counts over the track factors, replaced whenever the track changes.
    track_counts: Counts,
    /// Changed since the last sweep (listed in `IncrementalScorer::stale`).
    stale: bool,
}

/// Where a bundle's values sit in its track's store.
#[derive(Debug, Clone, Copy, Default)]
struct BundleLoc {
    track: usize,
    /// Its first member's observation row.
    obs_row: usize,
    /// Its position in the track (its bundle row).
    pos: usize,
    /// Counts over its members' observation factors and its own bundle
    /// factors.
    counts: Counts,
    /// The score since it last changed.
    score: Option<ComponentScore>,
}

/// Incremental counterpart of [`crate::score::ScoreEngine`]: same scores
/// (bit-identical, default `Within` scope), O(Δ) per streamed frame.
///
/// ```text
/// let mut scorer = IncrementalScorer::new(&features, &library)?;
/// assembler.begin(dt);            // and scorer.begin() when reusing
/// for frame in stream {
///     assembler.push_frame(&frame)?;
///     assembler.update_snapshot(&mut scene)?;      // O(Δ) scene growth
///     scorer.rescore_delta(&scene, assembler.last_delta().unwrap());
///     let ranked = finder.rank_scored(&scene, scorer.score_all_tracks(&scene));
/// }
/// ```
pub struct IncrementalScorer<'a> {
    features: &'a FeatureSet,
    /// Pre-resolved distributions, one slot per feature (None for manual
    /// features / the other resolution form).
    prepared: Vec<Option<&'a PreparedDistribution>>,
    joint: Vec<Option<&'a FittedDistribution>>,
    /// Feature indices by kind, in feature-set order (a feature's column
    /// is its position here).
    obs_features: Vec<usize>,
    bundle_features: Vec<usize>,
    transition_features: Vec<usize>,
    track_features: Vec<usize>,
    layout: Layout,

    /// One store per track, by track index.
    tracks: Vec<TrackStore>,
    /// Every track's score as of the last sweep, in track order — the
    /// sweep's output, patched in place.
    track_scores: Vec<(TrackIdx, ComponentScore)>,
    /// Tracks changed since the last sweep.
    stale: Vec<TrackIdx>,
    /// One location per bundle, by bundle index.
    bundles: Vec<BundleLoc>,

    /// Watermarks: counts already ingested.
    n_obs: usize,
    n_bundles: usize,

    /// Scratch: a bundle's members in ascending order.
    members: Vec<ObsIdx>,
}

impl<'a> IncrementalScorer<'a> {
    /// Bind a feature set and fitted library. Fails like `compile_scene`
    /// when a learned feature has no library entry (manual features need
    /// none), so the per-frame path cannot fail halfway.
    pub fn new(features: &'a FeatureSet, library: &'a FeatureLibrary) -> Result<Self, FixyError> {
        let mut prepared = Vec::with_capacity(features.len());
        let mut joint = Vec::with_capacity(features.len());
        let mut slots = Vec::with_capacity(features.len());
        let mut by_kind: [Vec<usize>; 4] = Default::default();
        for (fi, bf) in features.features.iter().enumerate() {
            let name = bf.feature.name();
            let (p, j) = match bf.feature.probability_model() {
                ProbabilityModel::Manual => (None, None),
                ProbabilityModel::LearnedJointKde => {
                    let j = library.get(name);
                    if j.is_none() {
                        return Err(FixyError::MissingDistribution { feature: name.to_string() });
                    }
                    (None, j)
                }
                _ => {
                    let p = library.get_prepared(name);
                    if p.is_none() {
                        return Err(FixyError::MissingDistribution { feature: name.to_string() });
                    }
                    (p, None)
                }
            };
            prepared.push(p);
            joint.push(j);
            let (kind, slot): (usize, fn(usize) -> Slot) = match bf.feature.kind() {
                FeatureKind::Observation => (0, Slot::Obs),
                FeatureKind::Bundle => (1, Slot::Bundle),
                FeatureKind::Transition => (2, Slot::Transition),
                FeatureKind::Track => (3, Slot::Track),
            };
            slots.push(slot(by_kind[kind].len()));
            by_kind[kind].push(fi);
        }
        let [obs_features, bundle_features, transition_features, track_features] = by_kind;
        let layout = Layout {
            slots,
            obs_width: obs_features.len(),
            bundle_width: bundle_features.len(),
            row_width: bundle_features.len() + transition_features.len(),
            head: track_features.len(),
        };
        Ok(IncrementalScorer {
            features,
            prepared,
            joint,
            obs_features,
            bundle_features,
            transition_features,
            track_features,
            layout,
            tracks: Vec::new(),
            track_scores: Vec::new(),
            stale: Vec::new(),
            bundles: Vec::new(),
            n_obs: 0,
            n_bundles: 0,
            members: Vec::new(),
        })
    }

    /// Start a new scene (pair with the assembler's `begin`). Drops all
    /// cached state.
    pub fn begin(&mut self) {
        self.tracks.clear();
        self.track_scores.clear();
        self.stale.clear();
        self.bundles.clear();
        self.n_obs = 0;
        self.n_bundles = 0;
    }

    /// Number of observations ingested so far.
    pub fn obs_ingested(&self) -> usize {
        self.n_obs
    }

    /// Ingest one frame's assembly delta against the snapshot covering
    /// it, invalidating exactly the scores the frame touched. Returns the
    /// number of tracks invalidated (they re-fold lazily on the next
    /// sweep).
    ///
    /// # Panics
    /// If deltas are skipped or replayed: `delta.obs_start` /
    /// `bundle_start` must equal the counts already ingested.
    pub fn rescore_delta(&mut self, scene: &Scene, delta: &FrameDelta) -> usize {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Rescore);
        assert_eq!(
            self.n_obs, delta.obs_start,
            "rescore_delta: deltas must be applied in frame order from an empty scorer"
        );
        assert_eq!(
            self.n_bundles, delta.bundle_start,
            "rescore_delta: bundle watermark mismatch"
        );

        // Every new bundle ends a changed track, which places it below.
        self.bundles.resize(scene.n_bundles(), BundleLoc::default());
        for &t in &delta.changed_tracks {
            if t.0 >= self.tracks.len() {
                debug_assert_eq!(t.0, self.tracks.len(), "new tracks are contiguous");
                self.tracks.resize_with(t.0 + 1, || TrackStore {
                    rows: vec![0.0; self.layout.head],
                    ..TrackStore::default()
                });
                let n = self.track_scores.len();
                self.track_scores
                    .extend((n..=t.0).map(|t| (TrackIdx(t), ComponentScore::empty())));
            }
            self.ingest_track(scene, t);
            let store = &mut self.tracks[t.0];
            if !store.stale {
                store.stale = true;
                self.stale.push(t);
            }
        }
        debug_assert!(
            (delta.bundle_start..scene.n_bundles()).all(|b| {
                let loc = &self.bundles[b];
                scene.track_bundles(TrackIdx(loc.track)).get(loc.pos) == Some(&BundleIdx(b))
            }),
            "every new bundle belongs to a changed track"
        );

        self.n_obs = scene.n_observations();
        self.n_bundles = scene.n_bundles();
        let changed = delta.changed_tracks.len();
        if let Some(metrics) = loa_obs::recorder() {
            metrics.dirty_components.record(changed as u64);
        }
        changed
    }

    /// Append a changed track's new bundles to its store, re-evaluate its
    /// track factors, and drop the scores that changed with it.
    fn ingest_track(&mut self, scene: &Scene, t: TrackIdx) {
        let bundles = scene.track_bundles(t);
        // Taken out so the evaluations below can borrow `self`.
        let mut store = std::mem::take(&mut self.tracks[t.0]);
        let known = store.n_bundles;
        for (pos, &b) in bundles.iter().enumerate().skip(known) {
            let mut own = Counts::default();
            let obs_row = store.n_obs;
            self.members.clear();
            self.members.extend_from_slice(scene.bundle_obs(b));
            self.members.sort_unstable();
            for &o in &self.members {
                let target = FeatureTarget::Obs(scene.obs(o));
                for &fi in &self.obs_features {
                    store.obs_rows.push(own.record(self.eval(scene, fi, &target)));
                }
            }
            store.n_obs += self.members.len();

            let target = FeatureTarget::Bundle(scene.bundle(b));
            for &fi in &self.bundle_features {
                store.rows.push(own.record(self.eval(scene, fi, &target)));
            }
            let mut transition = Counts::default();
            if pos == 0 {
                store
                    .rows
                    .resize(store.rows.len() + self.transition_features.len(), 0.0);
            } else {
                let (from, to) = (scene.bundle(bundles[pos - 1]), scene.bundle(b));
                let dt = (to.frame.0.saturating_sub(from.frame.0)) as f64 * scene.frame_dt;
                let target = FeatureTarget::Transition(from, to, dt);
                for &fi in &self.transition_features {
                    store.rows.push(transition.record(self.eval(scene, fi, &target)));
                }
            }
            store.counts = store.counts + own + transition;
            self.bundles[b.0] = BundleLoc { track: t.0, obs_row, pos, counts: own, score: None };
        }
        store.n_bundles = bundles.len();

        // Track factors: replaced wholesale — the track changed, so its
        // factor values may have too (e.g. the count crossing its
        // threshold).
        store.track_counts = Counts::default();
        let target = FeatureTarget::Track(scene.track(t));
        for (c, &fi) in self.track_features.iter().enumerate() {
            store.rows[c] = store.track_counts.record(self.eval(scene, fi, &target));
        }
        // The first bundle scores with the track factors while it is the
        // whole track, and stops when a second one joins.
        if known <= 1 {
            if let Some(&first) = bundles.first() {
                self.bundles[first.0].score = None;
            }
        }
        self.tracks[t.0] = store;
    }

    /// Evaluate one feature on a target — the exact probability
    /// resolution `compile_scene` performs, including the AOF.
    fn eval(&self, scene: &Scene, fi: usize, target: &FeatureTarget<'_>) -> Option<f64> {
        let bf = &self.features.features[fi];
        let feature = bf.feature.as_ref();
        let p = match feature.probability_model() {
            ProbabilityModel::Manual => feature.value(scene, target)?.x,
            ProbabilityModel::LearnedJointKde => {
                let v = feature.vector_value(scene, target)?;
                self.joint[fi].expect("validated in new").probability_vector(&v)
            }
            _ => {
                let v = feature.value(scene, target)?;
                self.prepared[fi].expect("validated in new").probability(&v)
            }
        };
        Some(bf.aof.apply(p))
    }

    /// A bundle's score — bit-identical to `ScoreEngine::score_bundle` —
    /// plus whether the cache served it; the sweep aggregates the latter
    /// into the global hit/miss counters once per pass instead of per
    /// candidate.
    fn score_bundle(&mut self, scene: &Scene, bundle: BundleIdx) -> (ComponentScore, bool) {
        let loc = &self.bundles[bundle.0];
        if let Some(s) = loc.score {
            return (s, true);
        }
        let store = &self.tracks[loc.track];
        let counts =
            if store.n_bundles == 1 { loc.counts + store.track_counts } else { loc.counts };
        let members = scene.bundle_obs(bundle).len();
        let s = counts.score(|| self.layout.fold_bundle(store, loc, members));
        self.bundles[bundle.0].score = Some(s);
        (s, false)
    }

    /// Every track's score, in track order — the incremental counterpart
    /// of `ScoreEngine::score_all_tracks` (bit-identical, default
    /// `Within` scope), borrowed: re-folds the tracks changed since the
    /// last call and serves the rest as they were.
    pub fn track_scores(&mut self, scene: &Scene) -> &[(TrackIdx, ComponentScore)] {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        debug_assert_eq!(self.track_scores.len(), scene.n_tracks(), "scene and deltas disagree");
        let misses = self.stale.len() as u64;
        for t in self.stale.drain(..) {
            let store = &mut self.tracks[t.0];
            store.stale = false;
            let layout = &self.layout;
            self.track_scores[t.0].1 =
                (store.counts + store.track_counts).score(|| layout.fold_track(store));
        }
        if let Some(metrics) = loa_obs::recorder() {
            metrics.cache_hits.add(self.track_scores.len() as u64 - misses);
            metrics.cache_misses.add(misses);
        }
        &self.track_scores
    }

    /// Score every track, in track order: [`track_scores`](Self::track_scores),
    /// owned.
    pub fn score_all_tracks(&mut self, scene: &Scene) -> Vec<(TrackIdx, ComponentScore)> {
        self.track_scores(scene).to_vec()
    }

    /// Score every bundle, in bundle order.
    pub fn score_all_bundles(&mut self, scene: &Scene) -> Vec<(BundleIdx, ComponentScore)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        let mut hits = 0u64;
        let out: Vec<_> = (0..scene.n_bundles())
            .map(|b| {
                let (s, hit) = self.score_bundle(scene, BundleIdx(b));
                hits += hit as u64;
                (BundleIdx(b), s)
            })
            .collect();
        if let Some(metrics) = loa_obs::recorder() {
            metrics.cache_hits.add(hits);
            metrics.cache_misses.add(out.len() as u64 - hits);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureSet;
    use crate::learner::Learner;
    use crate::scene::{AssemblyConfig, AssemblyEngine};
    use crate::score::ScoreEngine;
    use loa_data::{generate_scene, DatasetProfile, SceneData};

    fn tiny(seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 4.0;
        cfg.lidar.beam_count = 240;
        generate_scene(&cfg, "incr-test", seed)
    }

    fn assert_scores_match(
        batch: &[(TrackIdx, ComponentScore)],
        incr: &[(TrackIdx, ComponentScore)],
        ctx: &str,
    ) {
        assert_eq!(batch.len(), incr.len(), "{ctx}: track count");
        for ((bt, bs), (it, is_)) in batch.iter().zip(incr) {
            assert_eq!(bt, it, "{ctx}");
            assert_eq!(
                bs.score.map(f64::to_bits),
                is_.score.map(f64::to_bits),
                "{ctx}: track {bt:?} score"
            );
            assert_eq!(bs.factor_count, is_.factor_count, "{ctx}: track {bt:?} factor count");
            assert_eq!(bs.zeroed, is_.zeroed, "{ctx}: track {bt:?} zeroed");
        }
    }

    /// Frame-by-frame replay: after every frame, track AND bundle scores
    /// must be bit-identical to a from-scratch compile+score of the same
    /// snapshot. paper_default exercises all four factor kinds.
    #[test]
    fn replay_matches_batch_bit_for_bit() {
        let data = tiny(31);
        let features = FeatureSet::paper_default();
        let library = Learner::new().fit(&features, std::slice::from_ref(&data)).unwrap();
        let mut engine = AssemblyEngine::new(AssemblyConfig::default());
        let mut scorer = IncrementalScorer::new(&features, &library).unwrap();
        engine.begin(data.frame_dt);
        let mut scene = crate::scene::Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        for frame in &data.frames {
            engine.push_frame(frame);
            engine.update_snapshot(&mut scene);
            scorer.rescore_delta(&scene, engine.last_delta().unwrap());

            let batch = ScoreEngine::new(&scene, &features, &library).unwrap();
            assert_scores_match(
                &batch.score_all_tracks(),
                &scorer.score_all_tracks(&scene),
                &format!("frame {}", scene.n_frames - 1),
            );
            let bb = batch.score_all_bundles();
            let ib = scorer.score_all_bundles(&scene);
            assert_eq!(bb.len(), ib.len());
            for ((bi, bs), (ii, is_)) in bb.iter().zip(&ib) {
                assert_eq!(bi, ii);
                assert_eq!(bs.score.map(f64::to_bits), is_.score.map(f64::to_bits));
                assert_eq!(bs.factor_count, is_.factor_count);
            }
        }
    }

    /// The count feature crossing its threshold mid-stream merges
    /// previously separate bundle components — the late-association case.
    /// ModelErrorFinder's set (count min_obs 3, no bundle factors) makes
    /// every track start as disconnected per-bundle components.
    #[test]
    fn mid_stream_component_merges_match_batch() {
        let data = tiny(32);
        let finder = crate::apps::ModelErrorFinder::default();
        let features = finder.feature_set();
        let library = Learner { assembly: AssemblyConfig::model_only() }
            .fit(&features, std::slice::from_ref(&data))
            .unwrap();
        let mut engine = AssemblyEngine::new(AssemblyConfig::model_only());
        let mut scorer = IncrementalScorer::new(&features, &library).unwrap();
        engine.begin(data.frame_dt);
        let mut scene = crate::scene::Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        let mut invalidations = 0usize;
        for frame in &data.frames {
            engine.push_frame(frame);
            engine.update_snapshot(&mut scene);
            invalidations += scorer.rescore_delta(&scene, engine.last_delta().unwrap());
            let batch = ScoreEngine::new(&scene, &features, &library).unwrap();
            assert_scores_match(
                &batch.score_all_tracks(),
                &scorer.score_all_tracks(&scene),
                &format!("frame {}", scene.n_frames - 1),
            );
        }
        assert!(invalidations > 0, "no component was ever invalidated");
        // Genuine merges occurred: some track has >= 3 observations, so
        // its count factor united its bundles' components.
        assert!(
            scene
                .tracks()
                .iter()
                .any(|t| scene.track_obs_iter(t.idx).count() >= 3),
            "corpus produced no track long enough to merge"
        );
    }

    /// Missing library entries fail at construction, like compile_scene.
    #[test]
    fn missing_distribution_is_an_error() {
        let features = FeatureSet::paper_default();
        let empty = FeatureLibrary::default();
        match IncrementalScorer::new(&features, &empty) {
            Err(FixyError::MissingDistribution { .. }) => {}
            Err(other) => panic!("unexpected error: {other:?}"),
            Ok(_) => panic!("expected MissingDistribution"),
        }
    }

    /// Empty scorer on an empty scene: no panic, no candidates.
    #[test]
    fn empty_scene_scores_nothing() {
        let features = FeatureSet::default();
        let library = FeatureLibrary::default();
        let mut scorer = IncrementalScorer::new(&features, &library).unwrap();
        let scene = crate::scene::Scene::from_parts(vec![], vec![], vec![], 0.2, 0);
        assert!(scorer.score_all_tracks(&scene).is_empty());
        assert!(scorer.score_all_bundles(&scene).is_empty());
    }
}
