//! End-to-end pipeline integration tests: generate → corrupt → learn →
//! assemble → compile → score → rank, across crate boundaries.

use fixy::core::compile::{compile_scene, CompiledScene};
use fixy::core::score::ComponentScore;
use fixy::data::{
    generate_scene, DatasetProfile, ObservationSource, ScenarioFuzzer, SceneConfig, SceneData,
};
use fixy::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn small_cfg() -> SceneConfig {
    let mut cfg = DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = 6.0;
    cfg.lidar.beam_count = 300;
    cfg
}

fn train_library(finder_features: &FeatureSet, n: usize, seed: u64) -> FeatureLibrary {
    let cfg = small_cfg();
    let train: Vec<_> = (0..n)
        .map(|i| generate_scene(&cfg, &format!("pl-train-{i}"), seed + i as u64))
        .collect();
    Learner::new().fit(finder_features, &train).expect("fit")
}

/// Run `pipeline` over `scenes` and flatten its per-scene results, in
/// input order, into `(scene index, scene id, candidate)` rows.
fn batch_rows<R: SceneRanker>(
    pipeline: &ScenePipeline<R>,
    library: &FeatureLibrary,
    scenes: Vec<SceneData>,
) -> Vec<(usize, String, R::Candidate)> {
    pipeline
        .process(library, scenes, |r| {
            let (index, id) = (r.index, r.id);
            r.candidates
                .into_iter()
                .map(|c| (index, id.clone(), c))
                .collect::<Vec<_>>()
        })
        .expect("batch run")
        .into_iter()
        .flatten()
        .collect()
}

#[test]
fn full_missing_track_pipeline() {
    let finder = MissingTrackFinder;
    let library = train_library(&finder.feature_set(), 3, 9000);
    let cfg = small_cfg();

    let mut total_candidates = 0usize;
    for seed in 0..3 {
        let data = generate_scene(&cfg, &format!("pl-eval-{seed}"), 9100 + seed);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let ranked = finder.rank_scene(&data, &scene, &library).expect("rank");
        total_candidates += ranked.len();
        // Structural invariants of the output.
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "ranking must be sorted");
        }
        for c in &ranked {
            assert!(c.score.is_finite());
            assert!(c.score <= 0.0);
            assert!(c.n_obs > 0);
            let track = scene.track(c.track);
            assert!(!scene.track_has_source(track, ObservationSource::Human));
        }
    }
    assert!(total_candidates > 0, "pipeline should surface candidates");
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let finder = MissingTrackFinder;
    let library1 = train_library(&finder.feature_set(), 2, 9500);
    let library2 = train_library(&finder.feature_set(), 2, 9500);
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-det", 9999);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let r1 = finder.rank_scene(&data, &scene, &library1).expect("rank");
    let r2 = finder.rank_scene(&data, &scene, &library2).expect("rank");
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.track, b.track);
        assert!((a.score - b.score).abs() < 1e-12);
    }
}

#[test]
fn library_survives_serialization() {
    // A fitted library can be persisted and reloaded without changing any
    // ranking — required for the offline/online split in deployment.
    let finder = MissingTrackFinder;
    let library = train_library(&finder.feature_set(), 2, 9700);
    let json = serde_json::to_string(&library).expect("serialize");
    let reloaded: FeatureLibrary = serde_json::from_str(&json).expect("deserialize");

    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-serde", 9800);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let r1 = finder.rank_scene(&data, &scene, &library).expect("rank");
    let r2 = finder.rank_scene(&data, &scene, &reloaded).expect("rank");
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.track, b.track);
        assert!((a.score - b.score).abs() < 1e-12);
    }
}

#[test]
fn scene_roundtrips_through_disk() {
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-io", 9901);
    let dir = std::env::temp_dir().join("fixy_pipeline_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scene.json");
    fixy::data::io::save_scene(&data, &path).expect("save");
    let loaded = fixy::data::io::load_scene(&path).expect("load");
    std::fs::remove_file(&path).ok();

    // Assembling the loaded scene gives the identical structure.
    let s1 = Scene::assemble(&data, &AssemblyConfig::default());
    let s2 = Scene::assemble(&loaded, &AssemblyConfig::default());
    assert_eq!(s1.n_observations(), s2.n_observations());
    assert_eq!(s1.n_bundles(), s2.n_bundles());
    assert_eq!(s1.n_tracks(), s2.n_tracks());
}

#[test]
fn assembly_engine_matches_scene_assemble_field_for_field() {
    // The staged, buffer-reusing AssemblyEngine is the pipeline's
    // assembly path; it must produce exactly what the one-shot
    // Scene::assemble produces — same observations, same bundles, same
    // tracks, same order — across configs and across reuse.
    use fixy::core::AssemblyEngine;

    let cfg = small_cfg();
    let mut engine = AssemblyEngine::new(AssemblyConfig::default());
    for seed in 0..4 {
        let data = generate_scene(&cfg, &format!("ae-{seed}"), 7700 + seed);
        for (name, assembly) in [
            ("default", AssemblyConfig::default()),
            ("model_only", AssemblyConfig::model_only()),
            ("human_only", AssemblyConfig::human_only()),
        ] {
            engine.set_config(assembly);
            let engine_scene = engine.assemble(&data);
            let reference = Scene::assemble(&data, &assembly);
            // Scene's derived PartialEq spans every field: observations,
            // both CSR membership arenas and their offsets, frame_dt,
            // n_frames.
            assert_eq!(engine_scene, reference, "{name} seed {seed} diverged");
        }
    }
}

/// The reference assembly, built only from the all-pairs oracles: every
/// frame's humans then models bundled by `bundle_frame_brute`, each
/// bundle represented by its first human label or else by the first of
/// its most confident detections, and the representatives' boxes linked
/// across frames by `build_tracks_brute`.
fn assemble_brute(data: &SceneData, cfg: &AssemblyConfig) -> Scene {
    use fixy::assoc::{build_tracks_brute, bundle_frame_brute};
    use fixy::data::FrameId;
    use fixy::geom::Box3;

    let mut observations: Vec<Observation> = Vec::new();
    let mut bundles = Vec::new();
    let mut frame_bundle_start = Vec::new();
    let mut rep_boxes = Vec::new();
    for (f, frame) in data.frames.iter().enumerate() {
        let first = observations.len();
        let mut observe = |source, source_index, bbox: Box3, class, confidence| {
            observations.push(Observation {
                idx: ObsIdx(observations.len()),
                frame: frame.index,
                source,
                source_index,
                bbox,
                class,
                confidence,
                world_center: frame.ego_pose.transform(bbox.center.bev()),
            });
            bbox
        };
        let humans: Vec<Box3> = (cfg.use_human)
            .then(|| frame.human_labels.iter().enumerate())
            .into_iter()
            .flatten()
            .map(|(i, l)| observe(ObservationSource::Human, i, l.bbox, l.class, None))
            .collect();
        let models: Vec<Box3> = (cfg.use_model)
            .then(|| frame.detections.iter().enumerate())
            .into_iter()
            .flatten()
            .map(|(i, d)| observe(ObservationSource::Model, i, d.bbox, d.class, Some(d.confidence)))
            .collect();
        frame_bundle_start.push(bundles.len());
        let mut reps = Vec::new();
        for group in bundle_frame_brute(&[&humans, &models]) {
            let members: Vec<ObsIdx> = group.iter().map(|&m| ObsIdx(first + m as usize)).collect();
            let member_obs = members.iter().map(|o| &observations[o.0]);
            let human = member_obs.clone().find(|o| o.source == ObservationSource::Human);
            let rep = human.unwrap_or_else(|| {
                member_obs
                    .reduce(|best, o| if o.confidence > best.confidence { o } else { best })
                    .expect("bundles are non-empty")
            });
            reps.push(rep.bbox);
            bundles.push((FrameId(f as u32), members));
        }
        rep_boxes.push(reps);
    }
    let tracks = build_tracks_brute(&rep_boxes)
        .into_iter()
        .map(|path| {
            path.entries
                .into_iter()
                .map(|(f, b)| BundleIdx(frame_bundle_start[f] + b))
                .collect()
        })
        .collect();
    Scene::from_parts(observations, bundles, tracks, data.frame_dt, data.frames.len())
}

#[test]
fn assembly_matches_brute_reference() {
    // The engine's glue (source order to `ObsIdx`, the representative
    // pick, the footprints it prepares once and hands from bundler to
    // tracker) against a reference built from the kernels' oracles, on
    // fuzzed scenes under every preset. Two variants per scene push the
    // kernels off their common paths: every detection stacked three
    // times and every label twice (maximal transitive merging), and that
    // stacked frame tiled ten times 60 m apart (enough observations and
    // tracks per frame for both spatial grids).
    use fixy::core::AssemblyEngine;
    use fixy::geom::Vec3;

    let mut engine = AssemblyEngine::default();
    for index in 0..3 {
        let plain = ScenarioFuzzer::new(31).scene(index);
        let mut stacked = plain.clone();
        for frame in &mut stacked.frames {
            let (labels, dets) = (frame.human_labels.clone(), frame.detections.clone());
            frame.human_labels.extend(labels);
            for k in 1..3 {
                frame.detections.extend(dets.iter().map(|d| {
                    let mut d = d.clone();
                    d.bbox = d.bbox.translated(Vec3::new(0.05 * k as f64, 0.0, 0.0));
                    d.confidence *= 0.9;
                    d
                }));
            }
        }
        let mut tiled = stacked.clone();
        for frame in &mut tiled.frames {
            let (labels, dets) = (frame.human_labels.clone(), frame.detections.clone());
            for k in 1..10 {
                let shift = Vec3::new(60.0 * k as f64, 0.0, 0.0);
                frame.human_labels.extend(labels.iter().map(|l| {
                    let mut l = l.clone();
                    l.bbox = l.bbox.translated(shift);
                    l
                }));
                frame.detections.extend(dets.iter().map(|d| {
                    let mut d = d.clone();
                    d.bbox = d.bbox.translated(shift);
                    d
                }));
            }
        }
        for (variant, data) in [("plain", &plain), ("stacked", &stacked), ("tiled", &tiled)] {
            for cfg in presets() {
                engine.set_config(cfg);
                assert!(
                    engine.assemble(data) == assemble_brute(data, &cfg),
                    "{variant} scene {index} under {cfg:?} differs from the reference"
                );
            }
        }
    }
}

#[test]
fn scene_pipeline_parallel_is_byte_identical_to_sequential() {
    // The batch engine's core contract: fanning scenes out to workers
    // must not change a single bit of any score or the result order.
    let finder = MissingTrackFinder;
    let library = train_library(&finder.feature_set(), 2, 8800);
    let cfg = small_cfg();
    let batch: Vec<_> = (0..8)
        .map(|i| generate_scene(&cfg, &format!("sp-batch-{i}"), 8900 + i))
        .collect();

    let parallel = batch_rows(&ScenePipeline::new(MissingTrackFinder), &library, batch.clone());
    let sequential =
        batch_rows(&ScenePipeline::new(MissingTrackFinder).sequential(), &library, batch);

    assert!(!parallel.is_empty(), "batch should surface candidates");
    assert_eq!(parallel.len(), sequential.len());
    for (p, s) in parallel.iter().zip(&sequential) {
        assert_eq!((p.0, &p.1), (s.0, &s.1));
        assert_eq!(p.2.track, s.2.track);
        assert_eq!(
            p.2.score.to_bits(),
            s.2.score.to_bits(),
            "scores must match bit-for-bit"
        );
    }
}

#[test]
fn scene_pipeline_empty_and_single_scene() {
    let finder = MissingTrackFinder;
    let library = train_library(&finder.feature_set(), 2, 8700);
    let pipeline = ScenePipeline::new(MissingTrackFinder);

    // Empty batch: no results, no error.
    let empty = pipeline.process(&library, Vec::new(), |r| r).expect("empty batch");
    assert!(empty.is_empty());

    // Single scene: the batch result equals the registry app's direct
    // single-scene rank.
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "sp-single", 8750);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let direct = App::MissingTracks.rank(&scene, &library).expect("rank");
    let batched = batch_rows(&pipeline, &library, vec![data]);
    assert_eq!(batched.len(), direct.len());
    for ((index, id, b), d) in batched.iter().zip(&direct) {
        assert_eq!((*index, id.as_str()), (0, "sp-single"));
        assert_eq!(d.as_track(), Some(b));
        assert_eq!(b.score.to_bits(), d.score().to_bits());
    }
}

/// The three `AssemblyConfig` presets: default, model-only, human-only.
fn presets() -> [AssemblyConfig; 3] {
    [AssemblyConfig::default(), AssemblyConfig::model_only(), AssemblyConfig::human_only()]
}

/// Every app's feature set, with a library fitted for it (under the
/// app's own preset) on a fuzzed training corpus, built once per process.
fn app_fixtures() -> &'static [(&'static str, FeatureSet, FeatureLibrary)] {
    static FIXTURES: OnceLock<Vec<(&str, FeatureSet, FeatureLibrary)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let train = ScenarioFuzzer::new(97).training_corpus(2);
        let fit = |name, assembly, features: FeatureSet| {
            let library = Learner { assembly }.fit(&features, &train).expect("fit");
            (name, features, library)
        };
        let [default, model_only, human_only] = presets();
        vec![
            fit("missing_tracks", default, MissingTrackFinder.feature_set()),
            fit("missing_obs", default, MissingObsFinder.feature_set()),
            fit("model_errors", model_only, ModelErrorFinder.feature_set()),
            fit("label_audit", human_only, LabelAuditFinder.feature_set()),
            fit("bundle_audit", default, BundleAuditFinder.feature_set()),
        ]
    })
}

/// Visit fuzzed scenes assembled under all three presets, each compiled
/// (the Section 4.3 reference) against every app's feature set.
fn for_each_compiled(
    mut visit: impl FnMut(&str, &Scene, &FeatureSet, &FeatureLibrary, &CompiledScene),
) {
    for cfg in presets() {
        for index in 0..3 {
            let scene = Scene::assemble(&ScenarioFuzzer::new(98).scene(index), &cfg);
            for (name, features, library) in app_fixtures() {
                let compiled = compile_scene(&scene, features, library).expect("compile");
                let ctx = format!("{name} {cfg:?} scene {index}");
                visit(&ctx, &scene, features, library, &compiled);
            }
        }
    }
}

#[test]
fn indexed_sweep_matches_generic_component_scoring_bit_for_bit() {
    // The scoring engine (scene-wide `ln p` columns) against the reference
    // (`score_component` per candidate over the compiled factor graph),
    // for every track and bundle: same f64 bits, factor counts and zeroed
    // flags. Both fold the same factors in the same order.
    let key = |s: ComponentScore| (s.score.map(f64::to_bits), s.factor_count, s.zeroed);
    for_each_compiled(|ctx, scene, features, library, reference| {
        let engine = ScoreEngine::new(scene, features, library).expect("engine");
        for (t, got) in engine.score_all_tracks() {
            let want = reference.score(&scene.track_obs(scene.track(t)));
            assert_eq!(key(got), key(want), "{ctx}: track {t:?}");
        }
        for (b, got) in engine.score_all_bundles() {
            let want = reference.score(scene.bundle_obs(b));
            assert_eq!(key(got), key(want), "{ctx}: bundle {b:?}");
        }
    });
}

#[test]
fn every_factor_graph_component_lies_inside_one_track() {
    // The premise the single scoring engine rests on: no factor scope
    // spans two tracks, so every connected component of a compiled scene
    // lies inside one track.
    for_each_compiled(|ctx, scene, _, _, compiled| {
        let mut track_of = vec![None; scene.n_observations()];
        for t in scene.tracks() {
            for o in scene.track_obs_iter(t.idx) {
                track_of[o.0] = Some(t.idx);
            }
        }
        for component in compiled.graph.connected_components() {
            let tracks: BTreeSet<_> =
                component.iter().map(|v| track_of[compiled.graph.var(*v).0]).collect();
            assert!(
                tracks.len() == 1 && !tracks.contains(&None),
                "{ctx}: tracks {tracks:?}"
            );
        }
    });
}

#[test]
fn fuzzed_batch_is_byte_identical_across_runs_and_vs_sequential() {
    // The fuzzer's corpus through the batch engine: repeated parallel
    // runs and the sequential reference must agree bit-for-bit, and
    // regenerating the corpus from the same seed must too — the
    // conformance harness depends on this reproducibility.

    let fuzzer = ScenarioFuzzer::new(7);
    let train = fuzzer.training_corpus(2);
    let finder = MissingTrackFinder;
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");
    let batch = fuzzer.corpus(6);

    let runs: Vec<_> = (0..2)
        .map(|_| batch_rows(&ScenePipeline::new(MissingTrackFinder), &library, fuzzer.corpus(6)))
        .collect();
    let sequential =
        batch_rows(&ScenePipeline::new(MissingTrackFinder).sequential(), &library, batch);

    assert!(!sequential.is_empty(), "fuzzed batch should surface candidates");
    for run in &runs {
        assert_eq!(run.len(), sequential.len());
        for (p, s) in run.iter().zip(&sequential) {
            assert_eq!((p.0, &p.1), (s.0, &s.1));
            assert_eq!(p.2.track, s.2.track);
            assert_eq!(
                p.2.score.to_bits(),
                s.2.score.to_bits(),
                "scores must match bit-for-bit"
            );
        }
    }
}

#[test]
fn bundle_level_pipeline_matches_direct_rank() {
    // The generalized SceneRanker: a bundle-level app through the batch
    // engine equals its direct per-scene ranking.
    let finder = MissingObsFinder;
    let library = train_library(&finder.feature_set(), 2, 8600);
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "sp-bundle", 8650);

    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let direct = App::MissingObs.rank(&scene, &library).expect("rank");
    let batched = batch_rows(&ScenePipeline::new(MissingObsFinder), &library, vec![data]);
    assert_eq!(batched.len(), direct.len());
    for ((_, _, b), d) in batched.iter().zip(&direct) {
        assert_eq!(d.as_bundle(), Some(b));
        assert_eq!(b.score.to_bits(), d.score().to_bits());
    }
}

#[test]
fn all_three_applications_run_on_one_scene() {
    // Every registry app, not only the paper's three: fit on its
    // training preset, rank on its ranking preset, and agree with the
    // batch pipeline.
    let cfg = small_cfg();
    let train: Vec<_> = (0..3)
        .map(|i| generate_scene(&cfg, &format!("pl3-train-{i}"), 9600 + i))
        .collect();
    let data = generate_scene(&cfg, "pl3-eval", 9650);

    for app in App::ALL {
        let library = app.fit(&train).expect("fit");
        let scene = Scene::assemble(&data, &app.assembly());
        let direct = app.rank(&scene, &library).expect("rank");
        let batched = batch_rows(&ScenePipeline::new(app), &library, vec![data.clone()]);
        assert_eq!(batched.len(), direct.len(), "{}", app.name());
        for ((_, _, b), d) in batched.iter().zip(&direct) {
            assert_eq!(b, d, "{}", app.name());
        }
    }
}
