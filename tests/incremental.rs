//! Incremental re-scoring conformance: the acceptance bar of the O(Δ)
//! path.
//!
//! The contract is **bit-identity**: after every pushed frame, scores
//! served by `IncrementalScorer` (scene-wide `ln p` columns re-folded
//! only for changed tracks) must equal the Section 4.3 reference —
//! `compile_scene` + `score_component` of the same snapshot — same f64
//! bits, same factor counts, same zeroed flags; and every track app's
//! incremental worklist must equal its `rank_scored` over the reference
//! scores of a batch assembly (`Scene::assemble`) of the scene truncated
//! to the frames pushed so far, field for field. (Batch
//! `ScoreEngine` folds from the same columns, so the reference, not the
//! batch engine, is what these tests compare against.) Covered: fuzzed
//! corpora, all three `AssemblyConfig` presets (each paired with the
//! application feature set that actually runs on it) plus
//! `paper_default`, count factors crossing their threshold and tracks
//! gaining their second bundle mid-stream, assembler/scorer reuse across
//! scenes, and the empty/single-frame edges.

use fixy::core::compile::compile_scene;
use fixy::core::score::ComponentScore;
use fixy::core::{IncrementalScorer, Learner};
use fixy::data::{ScenarioFuzzer, SceneData};
use fixy::ingest::StreamingAssembler;
use fixy::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A preset paired with a feature set that runs on it, plus the library
/// fitted for that pairing (fitting is the expensive part, so each is
/// done once per process).
struct Fixture {
    name: &'static str,
    config: AssemblyConfig,
    features: FeatureSet,
    library: FeatureLibrary,
    /// The track-ranking app the fixture's worklists are compared under.
    ranking: App,
}

fn fixtures() -> &'static [Fixture; 4] {
    static FIXTURES: OnceLock<[Fixture; 4]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let train = ScenarioFuzzer::new(41).training_corpus(2);
        let fit = |cfg: AssemblyConfig, features: FeatureSet, name, ranking| {
            let library = Learner { assembly: cfg }.fit(&features, &train).expect("fit");
            Fixture { name, config: cfg, features, library, ranking }
        };
        [
            // All four factor kinds (obs/bundle/transition/track).
            fit(
                App::MissingTracks.assembly(),
                App::MissingTracks.feature_set(),
                "default+missing_tracks",
                App::MissingTracks,
            ),
            // Inverted AOFs and no bundle factors; the count feature
            // (min 3 observations) zeroes every track until it crosses.
            // Ranked with the ad-hoc assertions' pre-exclusion.
            fit(
                App::ModelErrors.assembly(),
                App::ModelErrors.feature_set(),
                "model_only+model_errors",
                App::ModelErrors,
            ),
            fit(
                App::LabelAudit.assembly(),
                App::LabelAudit.feature_set(),
                "human_only+label_audit",
                App::LabelAudit,
            ),
            // The Table 2 set with its default parameters, ranked as
            // missing tracks.
            fit(
                AssemblyConfig::default(),
                FeatureSet::paper_default(),
                "default+paper_default",
                App::MissingTracks,
            ),
        ]
    })
}

/// Two worklists agree field for field, scores and confidences by bits.
fn assert_same_worklist(incr: &[TrackCandidate], reference: &[TrackCandidate], ctx: &str) {
    assert_eq!(incr.len(), reference.len(), "{ctx}: worklist length");
    for (a, b) in incr.iter().zip(reference) {
        assert_eq!(a.track, b.track, "{ctx}");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{ctx}: track {:?} score",
            a.track
        );
        assert_eq!(a.class, b.class, "{ctx}: track {:?} class", a.track);
        assert_eq!(a.n_obs, b.n_obs, "{ctx}: track {:?} n_obs", a.track);
        assert_eq!(
            a.mean_confidence.map(f64::to_bits),
            b.mean_confidence.map(f64::to_bits),
            "{ctx}: track {:?} mean confidence",
            a.track
        );
    }
}

/// The Section 4.3 reference scores of a snapshot: every track and
/// every bundle scored on its compiled factor graph.
type Scores = (Vec<(TrackIdx, ComponentScore)>, Vec<(BundleIdx, ComponentScore)>);

fn reference_scores(scene: &Scene, features: &FeatureSet, library: &FeatureLibrary) -> Scores {
    let compiled = compile_scene(scene, features, library).expect("compile");
    let tracks = scene
        .tracks()
        .iter()
        .map(|t| (t.idx, compiled.score(&scene.track_obs(t))))
        .collect();
    let bundles = scene
        .bundles()
        .iter()
        .map(|b| (b.idx, compiled.score(scene.bundle_obs(b.idx))))
        .collect();
    (tracks, bundles)
}

/// What two scores must agree on: score bits, factor count, zeroed flag.
fn key(s: &ComponentScore) -> (Option<u64>, usize, bool) {
    (s.score.map(f64::to_bits), s.factor_count, s.zeroed)
}

/// The fixture app's streamed worklist, and its finder's `rank_scored`
/// over the reference scores of `fresh` (a snapshot materialized from
/// scratch, so the per-track candidate facts are recomputed rather than
/// shared with `scene`).
fn worklists(
    fx: &Fixture,
    scene: &Scene,
    fresh: &Scene,
    scorer: &mut IncrementalScorer<'_>,
) -> (Vec<TrackCandidate>, Vec<TrackCandidate>) {
    let (reference, _) = reference_scores(fresh, &fx.features, &fx.library);
    let reference = match fx.ranking {
        App::MissingTracks => MissingTrackFinder.rank_scored(fresh, reference),
        App::ModelErrors => {
            let excluded = fx.ranking.pre_excluded(fresh).expect("model-errors pre-excludes");
            ModelErrorFinder.rank_scored(fresh, reference, &excluded)
        }
        App::LabelAudit => LabelAuditFinder.rank_scored(fresh, reference),
        App::MissingObs | App::BundleAudit => unreachable!("the fixtures rank tracks"),
    };
    let streamed = fx.ranking.rank_streamed(scene, scorer);
    (
        streamed.iter().filter_map(Candidate::as_track).copied().collect(),
        reference,
    )
}

/// What a checked replay saw besides the equalities it asserted.
struct Replay {
    scene: Scene,
    /// Frames on which some track went from one bundle to two.
    second_bundles: usize,
    /// Times a track's score went from zeroed to ranked (a count factor
    /// crossing its threshold: no other factor un-zeroes a track).
    crossings: usize,
}

fn empty_scene(frame_dt: f64) -> Scene {
    Scene::from_parts(vec![], vec![], vec![], frame_dt, 0)
}

/// Stream `data` through one (assembler, scorer) pair, asserting after
/// every frame that track and bundle scores match the reference scores
/// of the identical snapshot, bit for bit, and that the fixture's
/// incremental worklist equals its worklist over the reference scores.
fn assert_stream_matches_reference(
    fx: &Fixture,
    assembler: &mut StreamingAssembler,
    scorer: &mut IncrementalScorer<'_>,
    data: &SceneData,
    ctx: &str,
) -> Replay {
    assembler.begin(data.frame_dt);
    scorer.begin();
    let mut scene = empty_scene(data.frame_dt);
    let mut replay = Replay {
        scene: empty_scene(data.frame_dt),
        second_bundles: 0,
        crossings: 0,
    };
    let mut zeroed_before: Vec<bool> = Vec::new();
    let mut truncated = SceneData { frames: Vec::new(), ..data.clone() };
    for (k, frame) in data.frames.iter().enumerate() {
        assembler.push_frame(frame).expect("push");
        truncated.frames.push(frame.clone());
        assembler.update_snapshot(&mut scene).expect("update");
        let delta = assembler.last_delta().expect("delta");
        assert_eq!(delta.frame, k, "{ctx}: delta frame");
        scorer.rescore_delta(&scene, delta);

        let (rt, rb) = reference_scores(&scene, &fx.features, &fx.library);
        let it = scorer.score_all_tracks(&scene);
        assert_eq!(rt.len(), it.len(), "{ctx} frame {k}: track count");
        for ((rtk, rs), (itk, is_)) in rt.iter().zip(&it) {
            assert_eq!(rtk, itk, "{ctx} frame {k}");
            assert_eq!(key(rs), key(is_), "{ctx} frame {k}: track {rtk:?}");
            if zeroed_before.get(rtk.0) == Some(&true) && is_.score.is_some() {
                replay.crossings += 1;
            }
        }
        zeroed_before = it.iter().map(|(_, s)| s.zeroed).collect();
        if delta
            .changed_tracks
            .iter()
            .any(|&t| scene.track_bundles(t).len() == 2)
        {
            replay.second_bundles += 1;
        }
        let ib = scorer.score_all_bundles(&scene);
        assert_eq!(rb.len(), ib.len(), "{ctx} frame {k}: bundle count");
        for ((rbk, rs), (ibk, is_)) in rb.iter().zip(&ib) {
            assert_eq!(rbk, ibk, "{ctx} frame {k}");
            assert_eq!(key(rs), key(is_), "{ctx} frame {k}: bundle {rbk:?}");
        }

        // A fresh engine, not `Scene::assemble`: its thread engine, like
        // the reused assembler, would have just assembled the last scene.
        let batch = AssemblyEngine::new(fx.config).assemble(&truncated);
        let (incr, reference) = worklists(fx, &scene, &batch, scorer);
        assert_same_worklist(&incr, &reference, &format!("{ctx} frame {k}"));
    }
    let final_scene = assembler.finalize().expect("finalize");
    assert_eq!(scene, final_scene, "{ctx}: grown snapshot != finalized scene");
    replay.scene = final_scene;
    replay
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The core contract: incremental ≡ reference after every frame, for
    // every preset × feature-set pairing, on fuzzed scenes (which inject
    // the full error taxonomy — class swaps, drops, ghosts — so late
    // association and component merges occur organically).
    #[test]
    fn prop_incremental_scores_equal_batch(seed in 0u64..300, index in 0u64..60) {
        for fx in fixtures() {
            let data = ScenarioFuzzer::new(seed).scene(index);
            let mut assembler = StreamingAssembler::new(fx.config);
            let mut scorer =
                IncrementalScorer::new(&fx.features, &fx.library).expect("scorer");
            assert_stream_matches_reference(
                fx,
                &mut assembler,
                &mut scorer,
                &data,
                &format!("{} seed {} scene {}", fx.name, seed, index),
            );
        }
    }

    // Reuse: one assembler + one scorer across consecutive scenes; state
    // from a previous scene must be invisible in the next one's scores.
    #[test]
    fn prop_reuse_across_scenes_is_clean(seed in 0u64..300, start in 0u64..40) {
        let fx = &fixtures()[0];
        let mut assembler = StreamingAssembler::new(fx.config);
        let mut scorer = IncrementalScorer::new(&fx.features, &fx.library).expect("scorer");
        for index in start..start + 3 {
            let data = ScenarioFuzzer::new(seed).scene(index);
            assert_stream_matches_reference(
                fx,
                &mut assembler,
                &mut scorer,
                &data,
                &format!("reuse seed {} scene {}", seed, index),
            );
        }
    }
}

/// Mid-stream events the columns must absorb: a count factor crossing
/// its threshold (the track's score goes from zeroed to ranked) and a
/// track gaining its second bundle (its first bundle loses the track
/// factors). Both occur under every fixture, and every frame still
/// matches the reference.
#[test]
fn count_crossings_and_second_bundles_match_batch() {
    for fx in fixtures() {
        let data = ScenarioFuzzer::new(5).scene(1);
        let mut assembler = StreamingAssembler::new(fx.config);
        let mut scorer = IncrementalScorer::new(&fx.features, &fx.library).expect("scorer");
        let replay =
            assert_stream_matches_reference(fx, &mut assembler, &mut scorer, &data, fx.name);
        assert!(
            replay.second_bundles > 0,
            "{}: no track gained a second bundle",
            fx.name
        );
        assert!(
            replay.crossings > 0,
            "{}: no count factor crossed its threshold",
            fx.name
        );
        assert!(replay.scene.n_tracks() > 0, "{}", fx.name);
    }
}

/// The rank layer too: per-frame incremental worklists equal the
/// finders' worklists over the reference scores of the same snapshot
/// (labels and score bits), for a track-ranking app with an exclusion
/// set growing mid-stream and for the registry's bundle-ranking
/// missing-obs app.
#[test]
fn incremental_worklists_equal_batch_worklists() {
    let track_fx = &fixtures()[1]; // model_only + ModelErrorFinder
    let bundle_fx = &fixtures()[0]; // default + MissingTrackFinder features

    let finder = ModelErrorFinder;
    let data = ScenarioFuzzer::new(77).scene(3);
    let mut assembler = StreamingAssembler::new(track_fx.config);
    let mut scorer = IncrementalScorer::new(&track_fx.features, &track_fx.library).expect("scorer");
    assembler.begin(data.frame_dt);
    let mut scene = empty_scene(data.frame_dt);
    let mut excluded: BTreeSet<ObsIdx> = BTreeSet::new();
    for frame in &data.frames {
        assembler.push_frame(frame).unwrap();
        assembler.update_snapshot(&mut scene).unwrap();
        scorer.rescore_delta(&scene, assembler.last_delta().unwrap());
        // Grow the exclusion set as the stream runs, like a live deploy
        // folding in ad-hoc assertion hits.
        if scene.n_observations() > 4 {
            excluded.insert(ObsIdx(scene.n_observations() / 2));
        }
        let incr =
            finder.rank_scored(&scene, scorer.track_scores(&scene).iter().copied(), &excluded);
        let (tracks, _) = reference_scores(&scene, &track_fx.features, &track_fx.library);
        let reference = finder.rank_scored(&scene, tracks, &excluded);
        assert_eq!(incr.len(), reference.len());
        for (a, b) in incr.iter().zip(&reference) {
            assert_eq!(a.track, b.track);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    // Bundle ranking path: the registry's streamed missing-obs worklist
    // against the finder's ranking of the reference bundle scores.
    let app = App::MissingObs;
    let finder = MissingObsFinder;
    let features = app.feature_set();
    let library = app.fit(&ScenarioFuzzer::new(41).training_corpus(2)).unwrap();
    let data = ScenarioFuzzer::new(78).scene(5);
    let mut assembler = StreamingAssembler::new(bundle_fx.config);
    let mut scorer = IncrementalScorer::new(&features, &library).expect("scorer");
    assembler.begin(data.frame_dt);
    let mut scene = empty_scene(data.frame_dt);
    for frame in &data.frames {
        assembler.push_frame(frame).unwrap();
        assembler.update_snapshot(&mut scene).unwrap();
        scorer.rescore_delta(&scene, assembler.last_delta().unwrap());
        let incr = app.rank_streamed(&scene, &mut scorer);
        let (_, bundles) = reference_scores(&scene, &features, &library);
        let reference = finder.rank_scored(&scene, bundles);
        assert_eq!(incr.len(), reference.len());
        for (a, b) in incr.iter().zip(&reference) {
            assert_eq!(a.as_bundle().map(|a| a.bundle), Some(b.bundle));
            assert_eq!(a.score().to_bits(), b.score.to_bits());
        }
    }
}

/// Edges: a scene with zero frames and a scene cut to a single frame.
#[test]
fn empty_and_single_frame_scenes() {
    let fx = &fixtures()[0];

    // Zero frames: begin + finalize with no pushes; nothing to score.
    let mut assembler = StreamingAssembler::new(fx.config);
    let mut scorer = IncrementalScorer::new(&fx.features, &fx.library).expect("scorer");
    assembler.begin(0.2);
    scorer.begin();
    assert!(assembler.last_delta().is_none());
    let scene = assembler.finalize().expect("finalize empty");
    assert_eq!(scene.n_observations(), 0);
    assert!(scorer.score_all_tracks(&scene).is_empty());
    assert!(scorer.score_all_bundles(&scene).is_empty());

    // One frame: the degenerate stream still matches the reference.
    let mut data = ScenarioFuzzer::new(91).scene(2);
    data.frames.truncate(1);
    assert_stream_matches_reference(fx, &mut assembler, &mut scorer, &data, "single-frame");
}
