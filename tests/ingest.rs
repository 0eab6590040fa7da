//! Streaming-ingest conformance: the acceptance bar of the `loa_ingest`
//! subsystem.
//!
//! Three contracts, each locked over fuzzed corpora:
//!
//! 1. **Assembly conformance** — `StreamingAssembler` output is
//!    field-for-field equal to batch `Scene::assemble`, across all three
//!    `AssemblyConfig` presets, with one reused assembler sweeping the
//!    whole corpus (buffer reuse must not leak state between scenes).
//! 2. **Format conformance** — a scene round-trips `.fscb` exactly
//!    (f64s travel as raw bits, so the JSON renderings before and after
//!    are byte-identical).
//! 3. **Pipeline conformance** — ranking a scene directory through the
//!    streamed corpus source (`CorpusSource` → `process_stream`) yields
//!    bit-identical scores, in the identical order, to the buffered
//!    batch path.

use fixy::core::Learner;
use fixy::data::ScenarioFuzzer;
use fixy::ingest::{CorpusSource, StreamingAssembler};
use fixy::prelude::*;
use proptest::prelude::*;

fn fuzzed_scene(seed: u64, index: u64) -> fixy::data::SceneData {
    ScenarioFuzzer::new(seed).scene(index)
}

type ConfigPreset = (&'static str, fn() -> AssemblyConfig);
const PRESETS: [ConfigPreset; 3] = [
    ("default", AssemblyConfig::default),
    ("model_only", AssemblyConfig::model_only),
    ("human_only", AssemblyConfig::human_only),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Contract 1: streamed assembly ≡ batch assembly, all presets, with
    // assembler reuse across a whole fuzzed mini-corpus.
    #[test]
    fn prop_streamed_assembly_equals_batch(seed in 0u64..500, start in 0u64..50) {
        for (name, cfg) in PRESETS {
            let cfg = cfg();
            let mut assembler = StreamingAssembler::new(cfg);
            // One assembler across three scenes: reuse must be invisible.
            for index in start..start + 3 {
                let data = fuzzed_scene(seed, index);
                let streamed = assembler.assemble_streamed(&data).expect("stream");
                let batch = Scene::assemble(&data, &cfg);
                prop_assert!(
                    streamed == batch,
                    "{} assembly diverged on seed {} scene {}", name, seed, index
                );
            }
        }
    }

    // Contract 1b: the partial scene a live stream grows in place
    // equals the batch assembly of the scene truncated to the frames
    // pushed so far — partial scenes are scoreable, not approximate.
    #[test]
    fn prop_snapshots_equal_truncated_batch(seed in 0u64..500, index in 0u64..80) {
        let data = fuzzed_scene(seed, index);
        let cfg = AssemblyConfig::default();
        let mut assembler = StreamingAssembler::new(cfg);
        assembler.begin(data.frame_dt);
        let mut grown = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        for (k, frame) in data.frames.iter().enumerate() {
            assembler.push_frame(frame).expect("push");
            assembler.update_snapshot(&mut grown).expect("grow");
            // Compare at a third of the checkpoints (cost control).
            if k % 3 == 0 || k + 1 == data.frames.len() {
                let mut truncated = data.clone();
                truncated.frames.truncate(k + 1);
                prop_assert!(
                    grown == Scene::assemble(&truncated, &cfg),
                    "grown scene at frame {} diverged (seed {})", k, seed
                );
            }
        }
        let final_scene = assembler.finalize().expect("finalize");
        prop_assert_eq!(&final_scene, &Scene::assemble(&data, &cfg));
        prop_assert_eq!(&final_scene, &grown);
    }

    // Contract 2: `.fscb` round-trips the scene exactly, injected-error
    // audit included.
    #[test]
    fn prop_fscb_roundtrip_is_exact(seed in 0u64..500, index in 0u64..80) {
        let data = fuzzed_scene(seed, index);
        let dir = std::env::temp_dir().join("fixy_ingest_prop_fscb");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("prop-{seed}-{index}.fscb"));
        fixy::ingest::write_scene(&data, &path).expect("write");
        let back = fixy::ingest::read_scene(&path).expect("read");
        std::fs::remove_file(&path).ok();
        prop_assert!(
            serde_json::to_string(&data).unwrap() == serde_json::to_string(&back).unwrap(),
            "fscb round trip changed the scene (seed {} index {})", seed, index
        );
    }
}

/// Contract 3: the streamed corpus source ranks bit-identically to the
/// buffered batch path, over a mixed-format directory, in the sorted
/// deterministic order.
#[test]
fn streamed_corpus_rank_matches_buffered() {
    let fuzzer = ScenarioFuzzer::new(41);
    let train = fuzzer.training_corpus(3);
    let finder = MissingTrackFinder;
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");

    // A mixed-format corpus written in non-sorted order.
    let dir = std::env::temp_dir().join("fixy_ingest_corpus_rank");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scenes: Vec<_> = (0..4).map(|i| fuzzer.scene(i)).collect();
    fixy::ingest::write_scene(&scenes[2], &dir.join("c.fscb")).unwrap();
    fixy::data::io::save_scene(&scenes[0], &dir.join("a.json")).unwrap();
    fixy::ingest::write_scene(&scenes[3], &dir.join("d.fscb")).unwrap();
    fixy::data::io::save_scene(&scenes[1], &dir.join("b.json")).unwrap();

    // The walk is sorted by path, deterministically.
    let source = CorpusSource::open(&dir).unwrap();
    let names: Vec<String> = source
        .paths()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["a.json", "b.json", "c.fscb", "d.fscb"]);

    // Buffered reference: load everything, run the batch engine.
    let buffered_scenes = CorpusSource::open(&dir).unwrap().load_all().unwrap();
    let pipeline = ScenePipeline::new(MissingTrackFinder);
    let buffered = pipeline.process(&library, buffered_scenes, |r| r).expect("buffered");

    // Streamed: workers pull scenes lazily from the source.
    let streamed = pipeline
        .process_stream(
            &library,
            CorpusSource::open(&dir).unwrap().into_paths(),
            |p| fixy::ingest::load_scene_auto(&p),
            |r| r,
        )
        .expect("streamed");

    // Per-scene results, compared in input order.
    assert_eq!(buffered.len(), streamed.len());
    for (a, b) in buffered.iter().zip(&streamed) {
        assert_eq!((a.index, &a.id), (b.index, &b.id));
        assert_eq!(a.candidates.len(), b.candidates.len(), "scene {}", a.id);
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.track, y.track);
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "score diverged in {}", a.id);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corpus with a corrupt member aborts the streamed rank with a typed
/// source error instead of poisoning the worklist.
#[test]
fn streamed_corpus_surfaces_decode_errors() {
    let fuzzer = ScenarioFuzzer::new(43);
    let train = fuzzer.training_corpus(2);
    let finder = MissingTrackFinder;
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");

    let dir = std::env::temp_dir().join("fixy_ingest_corpus_err");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    fixy::data::io::save_scene(&fuzzer.scene(0), &dir.join("a.json")).unwrap();
    // A truncated binary scene: write a valid one, then cut it short.
    let cut_path = dir.join("b.fscb");
    fixy::ingest::write_scene(&fuzzer.scene(1), &cut_path).unwrap();
    let bytes = std::fs::read(&cut_path).unwrap();
    std::fs::write(&cut_path, &bytes[..bytes.len() / 2]).unwrap();

    let err = ScenePipeline::new(MissingTrackFinder)
        .process_stream(
            &library,
            CorpusSource::open(&dir).unwrap().into_paths(),
            |p| fixy::ingest::load_scene_auto(&p),
            |r| r.id,
        )
        .expect_err("a truncated scene must abort the batch");
    assert!(
        matches!(err, FixyError::SceneSource(_)),
        "unexpected error shape: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Streaming a `.fscb` file frame-by-frame through the reader and the
/// assembler — never materializing `SceneData` — produces the same scene
/// as batch-assembling the decoded file.
#[test]
fn fscb_streams_directly_into_assembler() {
    let data = ScenarioFuzzer::new(47).scene(5);
    let dir = std::env::temp_dir().join("fixy_ingest_direct");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("direct.fscb");
    fixy::ingest::write_scene(&data, &path).unwrap();

    let mut reader = fixy::ingest::FrameReader::open(&path).unwrap();
    let mut assembler = StreamingAssembler::new(AssemblyConfig::default());
    assembler.begin(reader.frame_dt());
    while let Some(frame) = reader.next_frame().unwrap() {
        assembler.push_frame(&frame).unwrap();
    }
    let streamed = assembler.finalize().unwrap();
    assert_eq!(streamed, Scene::assemble(&data, &AssemblyConfig::default()));
    std::fs::remove_file(&path).ok();
}
