//! Streaming-ingest benchmarks: the three pieces of `loa_ingest`.
//!
//! * `streaming/assemble_streamed` vs `assemble_batch` — the full
//!   frame-by-frame path (begin/push/finalize) against the one-shot
//!   engine; the delta is the price of incremental availability (both
//!   run the same staged internals, so it should be ≈0).
//! * `streaming/push_and_grow_per_frame` — the live regime: push one
//!   frame, grow the partial scene in place (`update_snapshot`); divide
//!   the median by the frame count for per-frame latency.
//! * `streaming/fscb_decode_scene` — binary scene loading from disk.
//! * `streaming/json_decode_tree` vs `json_decode_streamed` (short and
//!   full-size scene) — the two JSON decode paths: materialize a
//!   `Value` tree then walk it, vs `from_json_stream` straight from
//!   bytes. Both run on the same streaming lexer; the delta is the
//!   cost of the intermediate tree.
//! * `streaming/rank_corpus_streamed` vs `rank_corpus_buffered` — a
//!   scene-directory rank through `process_stream` + `CorpusSource`
//!   (O(workers) scenes resident) against load-everything + `process`.
//! * `streaming/incremental_rescore_per_frame` vs
//!   `full_rescore_per_frame` — the O(Δ) cached-component path
//!   (`update_snapshot` + `rescore_delta` + cached sweep) against a
//!   from-scratch whole-scene score of the grown scene every frame, on a
//!   short and a long scene. Divide medians by the frame count for per-frame cost:
//!   the full path grows with scene length, the incremental path stays
//!   flat. The bench also times `update_snapshot` alone per frame on
//!   both scenes and, outside smoke mode, asserts the long scene's
//!   per-frame cost stays within 2× the short scene's — the snapshot
//!   grows in O(Δ), flat in scene length.
//!
//! * `streaming/obs_recorder_absent_per_frame` vs
//!   `obs_recorder_installed_per_frame` — the incremental hot loop with
//!   `loa_obs` recording off vs on. The delta is the whole cost of the
//!   instrumentation (`bench_obs_overhead` also hard-asserts it stays
//!   under 3% or 2us per frame, so a regression fails the bench run
//!   itself, not just the numbers).
//!
//! Set `FIXY_BENCH_SMOKE=1` to run on a miniature scene with 3 samples —
//! the CI smoke mode that keeps the bench compiling *and* executing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_data::{generate_scene, DatasetProfile, SceneData};
use loa_ingest::{CorpusSource, StreamingAssembler};
use std::hint::black_box;
use std::path::PathBuf;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn scene_data(name: &str, seed: u64) -> SceneData {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    if smoke() {
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
    }
    generate_scene(&cfg, name, seed)
}

fn bench_streamed_assembly(c: &mut Criterion) {
    let data = scene_data("stream-eval", 4242);
    let mut group = c.benchmark_group("streaming");
    group.sample_size(if smoke() { 3 } else { 20 });

    let mut assembler = StreamingAssembler::new(AssemblyConfig::default());
    group.bench_function("assemble_streamed", |b| {
        b.iter(|| {
            let scene = assembler.assemble_streamed(black_box(&data)).expect("stream");
            black_box(scene.n_tracks())
        })
    });

    let mut engine = AssemblyEngine::new(AssemblyConfig::default());
    group.bench_function("assemble_batch", |b| {
        b.iter(|| {
            let scene = engine.assemble(black_box(&data));
            black_box(scene.n_tracks())
        })
    });

    // The live regime: every pushed frame grows the partial scene in
    // place (what an online ranker scores).
    group.bench_function("push_and_grow_per_frame", |b| {
        b.iter(|| {
            assembler.begin(data.frame_dt);
            let mut partial = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
            let mut acc = 0usize;
            for frame in &data.frames {
                assembler.push_frame(black_box(frame)).expect("push");
                assembler.update_snapshot(&mut partial).expect("grow");
                acc += partial.n_tracks();
            }
            let scene = assembler.finalize().expect("finalize");
            black_box((acc, scene.n_tracks()))
        })
    });

    group.finish();
}

fn bench_scene_decode(c: &mut Criterion) {
    let full = scene_data("stream-decode", 77);
    let short = {
        let mut cfg = DatasetProfile::InternalLike.scene_config();
        cfg.world.duration = if smoke() { 1.5 } else { 5.0 };
        if smoke() {
            cfg.lidar.beam_count = 240;
        }
        generate_scene(&cfg, "stream-decode-short", 77)
    };
    let dir = std::env::temp_dir().join("fixy_bench_streaming_decode");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fscb_path = dir.join("scene.fscb");
    loa_ingest::write_scene(&full, &fscb_path).expect("save fscb");

    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);

    group.bench_function("fscb_decode_scene", |b| {
        b.iter(|| {
            let scene = loa_ingest::read_scene(black_box(&fscb_path)).expect("fscb");
            black_box(scene.frames.len())
        })
    });

    // Decode from an in-memory string so both JSON paths measure pure
    // decode, not disk. Historical context for the snapshots: before
    // the streaming lexer, the tree parser's per-character UTF-8
    // re-validation made the full-size decode take ~43.5 s; both paths
    // below run on the linear-time lexer, and the streamed one also
    // skips the intermediate tree.
    for (label, data) in [("short", &short), ("full", &full)] {
        let json = serde_json::to_string(data).expect("serialize scene");
        group.bench_function(BenchmarkId::new("json_decode_tree", label), |b| {
            b.iter(|| {
                let scene: SceneData =
                    serde_json::from_str_via_tree(black_box(&json)).expect("tree decode");
                black_box(scene.frames.len())
            })
        });
        group.bench_function(BenchmarkId::new("json_decode_streamed", label), |b| {
            b.iter(|| {
                let scene: SceneData = serde_json::from_str(black_box(&json)).expect("streamed");
                black_box(scene.frames.len())
            })
        });
    }

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_corpus_rank(c: &mut Criterion) {
    let n_scenes = if smoke() { 2 } else { 4 };
    let finder = MissingTrackFinder;
    let train: Vec<_> = (0..2)
        .map(|i| scene_data(&format!("stream-train-{i}"), 500 + i))
        .collect();
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");

    let dir = std::env::temp_dir().join("fixy_bench_streaming_corpus");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let paths: Vec<PathBuf> = (0..n_scenes)
        .map(|i| {
            let data = scene_data(&format!("corpus-{i:02}"), 900 + i as u64);
            let path = dir.join(format!("corpus-{i:02}.fscb"));
            loa_ingest::write_scene(&data, &path).expect("write");
            path
        })
        .collect();

    let mut group = c.benchmark_group("streaming");
    group.sample_size(if smoke() { 3 } else { 10 });

    group.bench_function("rank_corpus_streamed", |b| {
        b.iter(|| {
            let source = CorpusSource::open(black_box(&dir)).expect("corpus");
            let counts = ScenePipeline::new(MissingTrackFinder)
                .process_stream(
                    &library,
                    source.into_paths(),
                    |p| loa_ingest::load_scene_auto(&p),
                    |r| r.candidates.len(),
                )
                .expect("stream rank");
            black_box(counts.iter().sum::<usize>())
        })
    });

    group.bench_function("rank_corpus_buffered", |b| {
        b.iter(|| {
            let scenes: Vec<SceneData> = paths
                .iter()
                .map(|p| loa_ingest::read_scene(p).expect("read"))
                .collect();
            let ranked = ScenePipeline::new(MissingTrackFinder)
                .process(&library, scenes, |r| r)
                .expect("buffered rank");
            black_box(ranked.iter().map(|r| r.candidates.len()).sum::<usize>())
        })
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_incremental_rescore(c: &mut Criterion) {
    let finder = MissingTrackFinder;
    let features = finder.feature_set();
    let train: Vec<_> = (0..2)
        .map(|i| scene_data(&format!("incr-train-{i}"), 600 + i))
        .collect();
    let library = Learner::new().fit(&features, &train).expect("fit");

    let long = scene_data("incr-long", 4321);
    let short = {
        let mut cfg = DatasetProfile::InternalLike.scene_config();
        cfg.world.duration = if smoke() { 1.5 } else { 5.0 };
        if smoke() {
            cfg.lidar.beam_count = 240;
        }
        generate_scene(&cfg, "incr-short", 4321)
    };

    let mut group = c.benchmark_group("streaming");
    group.sample_size(if smoke() { 3 } else { 10 });

    for (label, data) in [("short", &short), ("long", &long)] {
        // O(Δ): grow the snapshot in place, re-score only what the
        // frame's delta invalidated, sweep from cache.
        group.bench_function(BenchmarkId::new("incremental_rescore_per_frame", label), |b| {
            let mut assembler = StreamingAssembler::new(AssemblyConfig::default());
            let mut scorer = IncrementalScorer::new(&features, &library).expect("scorer");
            b.iter(|| {
                assembler.begin(data.frame_dt);
                scorer.begin();
                let mut scene = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
                let mut acc = 0usize;
                for frame in &data.frames {
                    assembler.push_frame(black_box(frame)).expect("push");
                    assembler.update_snapshot(&mut scene).expect("update");
                    scorer.rescore_delta(&scene, assembler.last_delta().expect("delta"));
                    acc += scorer.score_all_tracks(&scene).len();
                }
                assembler.finalize().expect("finalize");
                black_box(acc)
            })
        });

        // O(scene): a from-scratch whole-scene score of the grown scene
        // every frame — the pre-incremental live path.
        group.bench_function(BenchmarkId::new("full_rescore_per_frame", label), |b| {
            let mut assembler = StreamingAssembler::new(AssemblyConfig::default());
            b.iter(|| {
                assembler.begin(data.frame_dt);
                let mut scene = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
                let mut acc = 0usize;
                for frame in &data.frames {
                    assembler.push_frame(black_box(frame)).expect("push");
                    assembler.update_snapshot(&mut scene).expect("update");
                    let engine = ScoreEngine::new(&scene, &features, &library).expect("compile");
                    acc += engine.score_all_tracks().len();
                }
                assembler.finalize().expect("finalize");
                black_box(acc)
            })
        });
    }

    group.finish();

    // Hard gate: per-frame `update_snapshot` is O(Δ), so its cost must
    // be flat in scene length. Best-of-K replays clock only the
    // `update_snapshot` calls. Smoke scenes are too small for the ratio
    // to mean anything, so smoke mode measures without asserting.
    let snapshot_us_per_frame = |data: &SceneData| {
        let mut assembler = StreamingAssembler::new(AssemblyConfig::default());
        let reps = if smoke() { 3 } else { 9 };
        (0..reps)
            .map(|_| {
                assembler.begin(data.frame_dt);
                let mut scene = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
                let mut spent = std::time::Duration::ZERO;
                for frame in &data.frames {
                    assembler.push_frame(frame).expect("push");
                    let t0 = std::time::Instant::now();
                    assembler.update_snapshot(black_box(&mut scene)).expect("update");
                    spent += t0.elapsed();
                }
                black_box(scene.n_tracks());
                spent.as_secs_f64() / data.frames.len() as f64 * 1e6
            })
            .fold(f64::INFINITY, f64::min)
    };
    let short_us = snapshot_us_per_frame(&short);
    let long_us = snapshot_us_per_frame(&long);
    println!(
        "streaming/update_snapshot_per_frame: short {short_us:.2}us ({} frames), \
         long {long_us:.2}us ({} frames)",
        short.frames.len(),
        long.frames.len()
    );
    assert!(
        smoke() || long_us <= 2.0 * short_us,
        "update_snapshot is not flat in scene length: {long_us:.2}us per frame on the \
         {}-frame scene vs {short_us:.2}us on the {}-frame scene",
        long.frames.len(),
        short.frames.len()
    );
}

fn bench_obs_overhead(c: &mut Criterion) {
    let finder = MissingTrackFinder;
    let features = finder.feature_set();
    let train: Vec<_> = (0..2)
        .map(|i| scene_data(&format!("obs-train-{i}"), 700 + i))
        .collect();
    let library = Learner::new().fit(&features, &train).expect("fit");
    let data = {
        let mut cfg = DatasetProfile::InternalLike.scene_config();
        cfg.world.duration = if smoke() { 1.5 } else { 5.0 };
        if smoke() {
            cfg.lidar.beam_count = 240;
        }
        generate_scene(&cfg, "obs-overhead", 8901)
    };

    // The instrumented hot loop: push + snapshot + O(Δ) rescore + cached
    // sweep — every `loa_obs` touchpoint on the streaming path fires
    // here (Push/Snapshot/Rescore/Score spans, cache and ingest
    // counters, dirty-set histogram).
    let replay = |assembler: &mut StreamingAssembler, scorer: &mut IncrementalScorer<'_>| {
        assembler.begin(data.frame_dt);
        scorer.begin();
        let mut scene = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        let mut acc = 0usize;
        for frame in &data.frames {
            assembler.push_frame(black_box(frame)).expect("push");
            assembler.update_snapshot(&mut scene).expect("update");
            scorer.rescore_delta(&scene, assembler.last_delta().expect("delta"));
            acc += scorer.score_all_tracks(&scene).len();
        }
        assembler.finalize().expect("finalize");
        acc
    };

    let mut assembler = StreamingAssembler::new(AssemblyConfig::default());
    let mut scorer = IncrementalScorer::new(&features, &library).expect("scorer");

    let mut group = c.benchmark_group("streaming");
    group.sample_size(if smoke() { 3 } else { 10 });

    loa_obs::disable_all();
    group.bench_function("obs_recorder_absent_per_frame", |b| {
        b.iter(|| black_box(replay(&mut assembler, &mut scorer)))
    });
    loa_obs::enable_metrics();
    group.bench_function("obs_recorder_installed_per_frame", |b| {
        b.iter(|| black_box(replay(&mut assembler, &mut scorer)))
    });
    loa_obs::disable_all();
    group.finish();

    // Hard gate, not just a snapshot: best-of-K replays with the
    // recorder absent vs installed. Installed must cost <3% — or, for
    // tiny smoke scenes where 3% is below timer noise, <2us/frame. The
    // two kinds of replay alternate (off, on, off, on, …) so a drift in
    // host speed lands on both sides instead of on one.
    let timed = |assembler: &mut StreamingAssembler, scorer: &mut IncrementalScorer<'_>| {
        let t0 = std::time::Instant::now();
        black_box(replay(assembler, scorer));
        t0.elapsed().as_secs_f64()
    };
    replay(&mut assembler, &mut scorer); // warm caches/allocations
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..if smoke() { 3 } else { 7 } {
        loa_obs::disable_all();
        off = off.min(timed(&mut assembler, &mut scorer));
        loa_obs::enable_metrics();
        on = on.min(timed(&mut assembler, &mut scorer));
    }
    loa_obs::disable_all();
    let per_frame_overhead_us = (on - off).max(0.0) / data.frames.len() as f64 * 1e6;
    assert!(
        on <= off * 1.03 || per_frame_overhead_us < 2.0,
        "loa_obs instrumentation overhead too high: {:.1}us vs {:.1}us per replay \
         ({per_frame_overhead_us:.2}us per frame)",
        on * 1e6,
        off * 1e6,
    );
}

criterion_group!(
    benches,
    bench_streamed_assembly,
    bench_scene_decode,
    bench_corpus_rank,
    bench_incremental_rescore,
    bench_obs_overhead
);
criterion_main!(benches);
