//! O(Δ) incremental re-scoring over streaming snapshots.
//!
//! The streaming path scores the partial scene after every pushed frame;
//! building a [`ScoreEngine`](crate::score::ScoreEngine) per snapshot
//! makes that O(scene) per frame — per-frame latency *grows* with scene
//! length, which a resident audit service over long-lived sessions
//! cannot afford. [`IncrementalScorer`] makes it O(Δ): it keeps the same
//! per-track `ln p` stores the batch engine folds from (see
//! [`crate::score`] for their layout and why they are bit-identical to
//! the Section 4.3 reference), evaluates every factor once, when the
//! frame that creates it arrives, and re-folds only the tracks a pushed
//! frame's [`FrameDelta`] changed. What is stream-only is the stale list
//! and the score cache.
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
use crate::feature::FeatureSet;
use crate::learner::FeatureLibrary;
use crate::scene::{BundleIdx, FrameDelta, Scene, TrackIdx};
use crate::score::{ComponentScore, Evaluator, TrackStores};

/// Streaming counterpart of [`crate::score::ScoreEngine`]: the same
/// stores and folds (so the same scores, bit for bit), O(Δ) per streamed
/// frame.
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
    ev: Evaluator<'a>,
    stores: TrackStores,
    /// Every track's score as of the last sweep, in track order — the
    /// sweep's output, patched in place.
    track_scores: Vec<(TrackIdx, ComponentScore)>,
    /// Tracks changed since the last sweep, each listed once.
    stale: Vec<TrackIdx>,
    /// Whether each track is listed in `stale`, by track index.
    is_stale: Vec<bool>,
    /// Each bundle's score since it last changed, by bundle index.
    bundle_scores: Vec<Option<ComponentScore>>,
    /// Watermarks: counts already ingested.
    n_obs: usize,
    n_bundles: usize,
}

impl<'a> IncrementalScorer<'a> {
    /// Bind a feature set and fitted library. Fails like `ScoreEngine::new`
    /// when a learned feature has no library entry (manual features need
    /// none), so the per-frame path cannot fail halfway.
    pub fn new(features: &'a FeatureSet, library: &'a FeatureLibrary) -> Result<Self, FixyError> {
        Ok(IncrementalScorer {
            ev: Evaluator::new(features, library)?,
            stores: TrackStores::new(features),
            track_scores: Vec::new(),
            stale: Vec::new(),
            is_stale: Vec::new(),
            bundle_scores: Vec::new(),
            n_obs: 0,
            n_bundles: 0,
        })
    }

    /// Start a new scene (pair with the assembler's `begin`). Drops all
    /// cached state.
    pub fn begin(&mut self) {
        self.stores.clear();
        self.track_scores.clear();
        self.stale.clear();
        self.is_stale.clear();
        self.bundle_scores.clear();
        self.n_obs = 0;
        self.n_bundles = 0;
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

        // New bundles start uncached.
        self.bundle_scores.resize(scene.n_bundles(), None);
        for &t in &delta.changed_tracks {
            if t.0 == self.track_scores.len() {
                self.track_scores.push((t, ComponentScore::empty()));
                self.is_stale.push(false);
            }
            debug_assert!(t.0 < self.track_scores.len(), "new tracks are contiguous");
            let known = self.stores.ingest_track(&self.ev, scene, t);
            // The first bundle scores with the track factors while it is
            // the whole track, and stops when a second one joins.
            if known <= 1 {
                if let Some(&first) = scene.track_bundles(t).first() {
                    self.bundle_scores[first.0] = None;
                }
            }
            if !std::mem::replace(&mut self.is_stale[t.0], true) {
                self.stale.push(t);
            }
        }
        debug_assert!(
            (delta.bundle_start..scene.n_bundles()).all(|b| self.stores.holds(scene, BundleIdx(b))),
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

    /// Every track's score, in track order — the streaming counterpart of
    /// `ScoreEngine::score_all_tracks`, borrowed: re-folds the tracks
    /// changed since the last call and serves the rest as they were.
    pub fn track_scores(&mut self, scene: &Scene) -> &[(TrackIdx, ComponentScore)] {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        debug_assert_eq!(self.track_scores.len(), scene.n_tracks(), "scene and deltas disagree");
        let misses = self.stale.len() as u64;
        for t in self.stale.drain(..) {
            self.is_stale[t.0] = false;
            self.track_scores[t.0].1 = self.stores.track_score(t);
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

    /// Score every bundle, in bundle order, re-folding the ones changed
    /// since they were last scored.
    pub fn score_all_bundles(&mut self, scene: &Scene) -> Vec<(BundleIdx, ComponentScore)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        let mut hits = 0u64;
        let out: Vec<_> = (0..scene.n_bundles())
            .map(|b| {
                let b = BundleIdx(b);
                let cached = &mut self.bundle_scores[b.0];
                hits += cached.is_some() as u64;
                (b, *cached.get_or_insert_with(|| self.stores.bundle_score(scene, b)))
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
    use crate::compile::compile_scene;
    use crate::learner::Learner;
    use crate::scene::{AssemblyConfig, AssemblyEngine};
    use loa_data::{generate_scene, DatasetProfile, SceneData};

    fn tiny(seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 4.0;
        cfg.lidar.beam_count = 240;
        generate_scene(&cfg, "incr-test", seed)
    }

    /// Replay `data` frame by frame, asserting after every frame that
    /// every track and bundle score is bit-identical to the Section 4.3
    /// reference score of the same snapshot. Returns the final snapshot
    /// and the number of track invalidations.
    fn replay_against_reference(
        data: &SceneData,
        cfg: AssemblyConfig,
        features: &FeatureSet,
        library: &FeatureLibrary,
    ) -> (Scene, usize) {
        let key = |s: ComponentScore| (s.score.map(f64::to_bits), s.factor_count, s.zeroed);
        let mut engine = AssemblyEngine::new(cfg);
        let mut scorer = IncrementalScorer::new(features, library).unwrap();
        engine.begin(data.frame_dt);
        let mut scene = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        let mut invalidations = 0;
        for frame in &data.frames {
            engine.push_frame(frame);
            engine.update_snapshot(&mut scene).unwrap();
            invalidations += scorer.rescore_delta(&scene, engine.last_delta().unwrap());
            let reference = compile_scene(&scene, features, library).unwrap();
            let tracks = scorer.score_all_tracks(&scene).into_iter().map(|(t, s)| {
                (
                    format!("track {t:?}"),
                    s,
                    reference.score(&scene.track_obs(scene.track(t))),
                )
            });
            let bundles = scorer
                .score_all_bundles(&scene)
                .into_iter()
                .map(|(b, s)| (format!("bundle {b:?}"), s, reference.score(scene.bundle_obs(b))));
            for (what, got, want) in tracks.chain(bundles) {
                assert_eq!(key(got), key(want), "frame {}: {what}", scene.n_frames - 1);
            }
        }
        (scene, invalidations)
    }

    /// Frame-by-frame replay: after every frame, track AND bundle scores
    /// must be bit-identical to the reference score of the same snapshot.
    /// paper_default exercises all four factor kinds.
    #[test]
    fn replay_matches_batch_bit_for_bit() {
        let data = tiny(31);
        let features = FeatureSet::paper_default();
        let library = Learner::new().fit(&features, std::slice::from_ref(&data)).unwrap();
        replay_against_reference(&data, AssemblyConfig::default(), &features, &library);
    }

    /// The count feature crossing its threshold mid-stream joins a
    /// track's bundles into one scored candidate — the late-association
    /// case. ModelErrorFinder's set (count min_obs 3, no bundle factors)
    /// zeroes every track until it crosses.
    #[test]
    fn mid_stream_component_merges_match_batch() {
        let data = tiny(32);
        let features = crate::apps::ModelErrorFinder::default().feature_set();
        let cfg = AssemblyConfig::model_only();
        let library = Learner { assembly: cfg }
            .fit(&features, std::slice::from_ref(&data))
            .unwrap();
        let (scene, invalidations) = replay_against_reference(&data, cfg, &features, &library);
        assert!(invalidations > 0, "no track was ever invalidated");
        // Genuine crossings occurred: some track has >= 3 observations, so
        // its count factor went from zeroed to present.
        assert!(
            scene
                .tracks()
                .iter()
                .any(|t| scene.track_obs_iter(t.idx).count() >= 3),
            "corpus produced no track long enough to merge"
        );
    }

    /// Missing library entries fail at construction, like `compile_scene`.
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
        let scene = Scene::from_parts(vec![], vec![], vec![], 0.2, 0);
        assert!(scorer.score_all_tracks(&scene).is_empty());
        assert!(scorer.score_all_bundles(&scene).is_empty());
    }
}
