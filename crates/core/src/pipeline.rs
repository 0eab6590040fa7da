//! The scene batch engine: parallel fan-out of the online phase.
//!
//! The paper's runtime bound (Section 8.1, "< 5 s per 15 s scene on one
//! core") is per scene, but deployments audit *corpora*: hundreds of
//! recorded drives per day. Scenes are independent — assembly, factor
//! graph compilation, and scoring never look across scene boundaries —
//! so the batch engine fans each scene out to a worker against one
//! shared, immutable [`FeatureLibrary`] and returns one result per
//! scene, in input order.
//!
//! ```text
//!  SceneData ──┐
//!  SceneData ──┼─► assemble ─► compile ─► score ─► rank ─► per-scene
//!  SceneData ──┘   (pull-pool fan-out, shared library)     results,
//!                                                          input order
//! ```
//!
//! One worker pool, [`pool_map`], serves both entry points: workers pull
//! one scene at a time from one shared source
//! ([`ScenePipeline::process_stream`]);
//! [`process`](ScenePipeline::process) feeds it a collected batch.
//! [`worker_count`] sizes it. Merging scenes into one worklist is the
//! printer's job: `fixy rank` orders its per-scene chunks by scene id,
//! then input index.
//!
//! Determinism is a contract, not an accident: the parallel path yields
//! results byte-identical to the sequential path (`tests/pipeline.rs`
//! locks this in), because per-scene work is pure and results are
//! placed by input index — never by completion time.

use crate::apps::{
    BundleAuditFinder, LabelAuditFinder, MissingObsFinder, MissingTrackFinder, ModelErrorFinder,
};
use crate::error::FixyError;
use crate::learner::FeatureLibrary;
use crate::rank::{BundleCandidate, TrackCandidate};
use crate::scene::{AssemblyConfig, AssemblyEngine, Scene};
use crate::score::ScoreEngine;
use loa_data::SceneData;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

thread_local! {
    /// One [`AssemblyEngine`] per worker thread: scenes fanned out to the
    /// same thread reuse its grids, union-find, and score-matrix buffers
    /// instead of reallocating per scene. Assembly is pure, so per-thread
    /// reuse cannot perturb the byte-determinism contract.
    static ASSEMBLY_ENGINE: RefCell<AssemblyEngine> = RefCell::new(AssemblyEngine::default());
}

/// Assemble through the calling thread's reusable engine.
fn assemble_reusing_engine(data: &SceneData, cfg: &AssemblyConfig) -> Scene {
    ASSEMBLY_ENGINE.with(|engine| {
        let mut engine = engine.borrow_mut();
        engine.set_config(*cfg);
        engine.assemble(data)
    })
}

/// The worker count of the parallel pool: a positive integer in
/// `RAYON_NUM_THREADS` (the conventional name, which the benchmark sets),
/// else the machine's available parallelism, else 1.
pub fn worker_count() -> usize {
    worker_count_from(std::env::var("RAYON_NUM_THREADS").ok().as_deref())
}

/// [`worker_count`] given the variable's value.
fn worker_count_from(var: Option<&str>) -> usize {
    match var.and_then(|s| s.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Map `work` over `items` on a pull pool of `workers` scoped threads,
/// keeping input order. `work` gets each item with its input index.
///
/// Items are pulled one at a time, in input order, under one lock (the
/// only per-item lock; the source is a generic iterator), and `work` runs
/// on the worker that pulled it, so uneven items balance and at most
/// `workers` items are in flight. The first failure stops further pulls,
/// and the error returned is the lowest-index one: items are pulled in
/// order, so by the time item `k` fails every item before it was pulled
/// and records its own failure if it has one — exactly the error a
/// sequential run returns first. With at most one worker the map runs on
/// the calling thread.
pub fn pool_map<S, T, E, I, W>(workers: usize, items: I, work: W) -> Result<Vec<T>, E>
where
    I: IntoIterator<Item = S>,
    I::IntoIter: Send,
    S: Send,
    T: Send,
    E: Send,
    W: Fn(usize, S) -> Result<T, E> + Sync,
{
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(index, item)| work(index, item))
            .collect();
    }

    let source = Mutex::new(items.into_iter().enumerate());
    let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    // Workers buffer results locally and are merged by index at the end.
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let next = source.lock().expect("pool source poisoned").next();
                        let Some((index, item)) = next else { break };
                        match work(index, item) {
                            Ok(value) => local.push((index, value)),
                            Err(error) => {
                                let mut slot = first_error.lock().expect("error slot poisoned");
                                if !matches!(&*slot, Some((winner, _)) if *winner <= index) {
                                    *slot = Some((index, error));
                                }
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });

    if let Some((_, error)) = first_error.into_inner().expect("error slot poisoned") {
        return Err(error);
    }
    results.sort_by_key(|&(index, _)| index);
    Ok(results.into_iter().map(|(_, value)| value).collect())
}

/// An application that can rank one assembled scene — the unit of work
/// the pipeline fans out. Implemented by the registry
/// [`App`](crate::apps::App) (with [`Candidate`](crate::rank::Candidate)
/// output), and by each finder: the track-level finders yield
/// [`TrackCandidate`], the bundle-level ones [`BundleCandidate`]. The finder impls rank without pre-exclusion; the
/// Section 8.4 protocol is [`App::ModelErrors`](crate::apps::App::ModelErrors).
pub trait SceneRanker: Sync {
    /// What one ranked worklist entry is for this application.
    type Candidate: Send;

    /// How scenes should be assembled for this application.
    fn assembly(&self) -> AssemblyConfig {
        AssemblyConfig::default()
    }

    /// Rank one assembled scene against the shared library.
    fn rank_scene(
        &self,
        data: &SceneData,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Result<Vec<Self::Candidate>, FixyError>;
}

impl SceneRanker for MissingTrackFinder {
    type Candidate = TrackCandidate;

    fn rank_scene(
        &self,
        _data: &SceneData,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Result<Vec<TrackCandidate>, FixyError> {
        let engine = ScoreEngine::new(scene, &self.feature_set(), library)?;
        Ok(self.rank_scored(scene, engine.score_all_tracks()))
    }
}

impl SceneRanker for ModelErrorFinder {
    type Candidate = TrackCandidate;

    fn assembly(&self) -> AssemblyConfig {
        AssemblyConfig::model_only()
    }

    fn rank_scene(
        &self,
        _data: &SceneData,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Result<Vec<TrackCandidate>, FixyError> {
        let engine = ScoreEngine::new(scene, &self.feature_set(), library)?;
        Ok(self.rank_scored(scene, engine.score_all_tracks(), &BTreeSet::new()))
    }
}

impl SceneRanker for MissingObsFinder {
    type Candidate = BundleCandidate;

    fn rank_scene(
        &self,
        _data: &SceneData,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Result<Vec<BundleCandidate>, FixyError> {
        let engine = ScoreEngine::new(scene, &self.feature_set(), library)?;
        Ok(self.rank_scored(scene, engine.score_all_bundles()))
    }
}

impl SceneRanker for LabelAuditFinder {
    type Candidate = TrackCandidate;

    fn assembly(&self) -> AssemblyConfig {
        AssemblyConfig::human_only()
    }

    fn rank_scene(
        &self,
        _data: &SceneData,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Result<Vec<TrackCandidate>, FixyError> {
        let engine = ScoreEngine::new(scene, &self.feature_set(), library)?;
        Ok(self.rank_scored(scene, engine.score_all_tracks()))
    }
}

impl SceneRanker for BundleAuditFinder {
    type Candidate = BundleCandidate;

    fn rank_scene(
        &self,
        _data: &SceneData,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Result<Vec<BundleCandidate>, FixyError> {
        let engine = ScoreEngine::new(scene, &self.feature_set(), library)?;
        Ok(self.rank_scored(scene, engine.score_all_bundles()))
    }
}

/// One scene's journey through the pipeline: the raw data, the assembled
/// scene, and the ranked candidates.
#[derive(Debug, Clone)]
pub struct RankedScene<C = TrackCandidate> {
    /// Position in the input batch.
    pub index: usize,
    /// `SceneData::id`, the key a merged worklist orders scenes by.
    pub id: String,
    pub data: SceneData,
    pub scene: Scene,
    /// Sorted by descending score, then element index (see `rank`).
    pub candidates: Vec<C>,
}

/// The batch engine. Construct with [`ScenePipeline::new`], then feed
/// any iterator of [`SceneData`] to [`process`](ScenePipeline::process),
/// or a stream of scene tokens to
/// [`process_stream`](ScenePipeline::process_stream).
#[derive(Debug, Clone)]
pub struct ScenePipeline<R> {
    ranker: R,
    parallel: bool,
}

impl<R: SceneRanker> ScenePipeline<R> {
    /// A parallel pipeline using the ranker's preferred assembly.
    pub fn new(ranker: R) -> Self {
        ScenePipeline { ranker, parallel: true }
    }

    /// Disable the fan-out: process scenes one by one on the calling
    /// thread. Same results, no parallelism — the reference path for
    /// determinism tests and the baseline for the `pipeline` bench.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    fn process_scene(
        &self,
        index: usize,
        data: SceneData,
        library: &FeatureLibrary,
    ) -> Result<RankedScene<R::Candidate>, FixyError> {
        let scene = {
            let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Assemble);
            assemble_reusing_engine(&data, &self.ranker.assembly())
        };
        let candidates = {
            let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Rank);
            self.ranker.rank_scene(&data, &scene, library)?
        };
        Ok(RankedScene { index, id: data.id.clone(), data, scene, candidates })
    }

    /// Assemble, compile, score, and rank every scene, mapping each
    /// [`RankedScene`] through `post` inside the worker (hit resolution,
    /// metric extraction, …) so per-scene state is dropped before the
    /// batch collects; `|r| r` keeps the whole result. Results keep
    /// input order, and the first scene error aborts the batch.
    ///
    /// The collected scenes run through [`pool_map`], with at most one
    /// worker per scene so a small batch spawns no idle threads. A worker
    /// takes the next scene as soon as it is free, so uneven scenes
    /// balance and each worker's thread-local `AssemblyEngine` buffers
    /// amortize over every scene it takes. The returned error is the
    /// lowest-index failure, as on the sequential path.
    pub fn process<T, F>(
        &self,
        library: &FeatureLibrary,
        scenes: impl IntoIterator<Item = SceneData>,
        post: F,
    ) -> Result<Vec<T>, FixyError>
    where
        T: Send,
        F: Fn(RankedScene<R::Candidate>) -> T + Sync + Send,
    {
        let scenes: Vec<SceneData> = scenes.into_iter().collect();
        let workers = if self.parallel { worker_count().min(scenes.len()) } else { 1 };
        self.process_stream_with_workers(workers, library, scenes, Ok::<_, FixyError>, post)
    }

    /// Like [`process`](ScenePipeline::process), but over a *stream* of
    /// scenes, holding at most O(workers) scenes in memory.
    ///
    /// [`process`](Self::process) materializes the whole input before
    /// fanning out — fine for a handful of scenes, unaffordable for a
    /// fleet-scale corpus directory. Here `sources` yields cheap scene
    /// *tokens* (paths, seeds) which [`pool_map`]'s workers pull one at a
    /// time, in input order; `load` then materializes the scene inside
    /// the worker — so decode cost parallelizes instead of serializing
    /// on the pull lock — and only `post`'s output is retained. `load`
    /// failures propagate like scene errors. Results keep input order
    /// and are byte-identical to the buffered path (`tests/ingest.rs`
    /// locks this); the returned error is always the lowest-index
    /// failure, independent of worker timing.
    pub fn process_stream<S, T, F, L, E, I>(
        &self,
        library: &FeatureLibrary,
        sources: I,
        load: L,
        post: F,
    ) -> Result<Vec<T>, FixyError>
    where
        I: IntoIterator<Item = S>,
        I::IntoIter: Send,
        S: Send,
        L: Fn(S) -> Result<SceneData, E> + Sync,
        E: Into<FixyError>,
        T: Send,
        F: Fn(RankedScene<R::Candidate>) -> T + Sync + Send,
    {
        let workers = if self.parallel { worker_count() } else { 1 };
        self.process_stream_with_workers(workers, library, sources, load, post)
    }

    /// [`process_stream`](Self::process_stream) with an explicit worker
    /// count (the public wrappers take it from [`worker_count`]; tests
    /// pin it to exercise the threaded branch on any host).
    fn process_stream_with_workers<S, T, F, L, E, I>(
        &self,
        workers: usize,
        library: &FeatureLibrary,
        sources: I,
        load: L,
        post: F,
    ) -> Result<Vec<T>, FixyError>
    where
        I: IntoIterator<Item = S>,
        I::IntoIter: Send,
        S: Send,
        L: Fn(S) -> Result<SceneData, E> + Sync,
        E: Into<FixyError>,
        T: Send,
        F: Fn(RankedScene<R::Candidate>) -> T + Sync + Send,
    {
        pool_map(workers, sources, |index, token| {
            let data = load(token).map_err(Into::into)?;
            Ok(post(self.process_scene(index, data, library)?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::Learner;
    use loa_data::{generate_scene, DatasetProfile};

    fn small_batch(n: usize, seed: u64) -> Vec<SceneData> {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 4.0;
        cfg.lidar.beam_count = 240;
        (0..n)
            .map(|i| generate_scene(&cfg, &format!("pipe-{i}"), seed + i as u64))
            .collect()
    }

    fn library(train: &[SceneData]) -> FeatureLibrary {
        let finder = MissingTrackFinder;
        Learner::new().fit(&finder.feature_set(), train).expect("fit")
    }

    /// Per-scene results agree scene by scene, in input order, down to
    /// the bits of every score.
    fn assert_same_results(a: &[RankedScene], b: &[RankedScene]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.index, &x.id), (y.index, &y.id));
            assert_eq!(x.candidates.len(), y.candidates.len(), "scene {}", x.id);
            for (p, q) in x.candidates.iter().zip(&y.candidates) {
                assert_eq!(p.track, q.track);
                assert_eq!(p.score.to_bits(), q.score.to_bits());
            }
        }
    }

    #[test]
    fn worker_count_takes_a_positive_integer_else_the_machine() {
        let machine = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(worker_count_from(Some("2")), 2);
        for var in [None, Some("0"), Some(""), Some("x")] {
            assert_eq!(worker_count_from(var), machine, "{var:?}");
        }
    }

    #[test]
    fn pool_preserves_order() {
        for workers in [1, 2, 3, 8] {
            for n in [0, 1, 50] {
                let out = pool_map(workers, 0..n, |index, x| {
                    assert_eq!(index, x);
                    Ok::<_, ()>(x * 2)
                });
                assert_eq!(
                    out,
                    Ok((0..n).map(|x| x * 2).collect()),
                    "{workers} workers, {n} items"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let train = small_batch(2, 100);
        let lib = library(&train);
        let batch = small_batch(4, 300);

        let par = ScenePipeline::new(MissingTrackFinder)
            .process(&lib, batch.clone(), |r| r)
            .expect("parallel run");
        let seq = ScenePipeline::new(MissingTrackFinder)
            .sequential()
            .process(&lib, batch, |r| r)
            .expect("sequential run");

        assert_same_results(&par, &seq);
    }

    #[test]
    fn empty_batch_is_empty() {
        let train = small_batch(2, 100);
        let lib = library(&train);
        let out = ScenePipeline::new(MissingTrackFinder)
            .process(&lib, Vec::new(), |r| r)
            .expect("empty batch");
        assert!(out.is_empty());
    }

    #[test]
    fn process_stream_matches_buffered_run() {
        let train = small_batch(2, 100);
        let lib = library(&train);
        let batch = small_batch(5, 900);

        let buffered = ScenePipeline::new(MissingTrackFinder)
            .process(&lib, batch.clone(), |r| r)
            .expect("buffered");
        let streamed = ScenePipeline::new(MissingTrackFinder)
            .process_stream(&lib, batch, Ok::<_, FixyError>, |r| r)
            .expect("streamed");

        assert_same_results(&buffered, &streamed);
    }

    #[test]
    fn process_stream_surfaces_source_errors() {
        let train = small_batch(2, 100);
        let lib = library(&train);
        let batch = small_batch(3, 900);
        let source = batch.into_iter().map(Some).chain(std::iter::once(None));
        let err = ScenePipeline::new(MissingTrackFinder)
            .process_stream(
                &lib,
                source,
                |token| token.ok_or_else(|| FixyError::SceneSource("decode failed".into())),
                |r| r.id,
            )
            .expect_err("load error must abort the stream");
        assert!(matches!(err, FixyError::SceneSource(_)), "{err}");
    }

    #[test]
    fn process_stream_holds_at_most_workers_scenes() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let train = small_batch(2, 100);
        let lib = library(&train);
        let batch = small_batch(6, 1200);

        // Pin the worker count so the threaded branch (and its bound) is
        // exercised regardless of the host's CPU count.
        let workers = 3;
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let ids = ScenePipeline::new(MissingTrackFinder)
            .process_stream_with_workers(
                workers,
                &lib,
                batch,
                |s| {
                    // A scene is "in flight" from load until post.
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    Ok::<_, FixyError>(s)
                },
                |r| {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    r.id
                },
            )
            .expect("stream");

        assert_eq!(ids.len(), 6);
        assert!(
            peak.load(Ordering::SeqCst) <= workers,
            "held {} scenes with only {workers} workers",
            peak.load(Ordering::SeqCst)
        );
    }

    /// A ranker that fails on a chosen set of scene ids — exercises the
    /// abort path of the worker pool.
    struct FailOn(std::collections::BTreeSet<String>);

    impl SceneRanker for FailOn {
        type Candidate = TrackCandidate;

        fn rank_scene(
            &self,
            data: &SceneData,
            _scene: &Scene,
            _library: &FeatureLibrary,
        ) -> Result<Vec<TrackCandidate>, FixyError> {
            if self.0.contains(&data.id) {
                Err(FixyError::SceneSource(format!("boom: {}", data.id)))
            } else {
                Ok(Vec::new())
            }
        }
    }

    #[test]
    fn process_returns_lowest_index_error() {
        let train = small_batch(2, 100);
        let lib = library(&train);
        let batch = small_batch(5, 1500);
        // Scenes 1 and 3 fail; parallel and sequential must both report
        // scene 1 — the error the sequential path hits first. The pinned
        // three-worker pool is what `process` runs on a multi-core host.
        let failing: std::collections::BTreeSet<String> =
            [batch[1].id.clone(), batch[3].id.clone()].into();
        let parallel = ScenePipeline::new(FailOn(failing.clone()));
        let sequential = ScenePipeline::new(FailOn(failing)).sequential();
        let post = |r: RankedScene| r.id;
        for result in [
            parallel.process_stream_with_workers(3, &lib, batch.clone(), Ok::<_, FixyError>, post),
            parallel.process(&lib, batch.clone(), post),
            sequential.process(&lib, batch.clone(), post),
        ] {
            let err = result.expect_err("must fail");
            match err {
                FixyError::SceneSource(msg) => {
                    assert!(msg.contains(&batch[1].id), "wrong scene failed first: {msg}")
                }
                other => panic!("unexpected error shape: {other}"),
            }
        }
    }

    #[test]
    fn process_hook_sees_every_scene() {
        let train = small_batch(2, 100);
        let lib = library(&train);
        let batch = small_batch(5, 700);
        let ids: Vec<String> = batch.iter().map(|s| s.id.clone()).collect();
        let seen: Vec<String> = ScenePipeline::new(MissingTrackFinder)
            .process(&lib, batch, |r| r.id)
            .expect("process");
        assert_eq!(seen, ids, "process keeps input order");
    }
}
