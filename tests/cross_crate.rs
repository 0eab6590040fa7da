//! Cross-crate consistency tests: the substrates agree with each other
//! where their responsibilities overlap.

use fixy::assoc::{
    bundle_prepared_into, greedy_match_into, BundleScratch, FrameBundles, Match, MatchScratch,
    PreparedBox, ScoreMatrix,
};
use fixy::core::score::normalized_log_score;
use fixy::data::scenarios::all_scenarios;
use fixy::data::{generate_scene, DatasetProfile};
use fixy::geom::{iou_bev, Box3};
use fixy::prelude::*;
use fixy::render::{render_frame_ascii, AsciiOptions, FrameLayers};
use fixy::stats::{Density1d, Kde1d};

#[test]
fn engine_score_matches_manual_graph_computation() {
    // Score a track through the engine and reproduce the number by hand
    // from the compiled factor graph.
    let mut cfg = DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = 4.0;
    cfg.lidar.beam_count = 240;
    let data = generate_scene(&cfg, "xc-1", 41);
    let finder = MissingTrackFinder;
    let library = Learner::new()
        .fit(&finder.feature_set(), std::slice::from_ref(&data))
        .expect("fit");
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let features = finder.feature_set();
    let engine = ScoreEngine::new(&scene, &features, &library).expect("compile");

    let compiled = fixy::core::compile::compile_scene(&scene, &features, &library).unwrap();
    for track in scene.tracks() {
        let engine_score = engine.score_track(track.idx);
        let obs = scene.track_obs(track);
        let vars = compiled.vars_of(&obs);
        let factors = compiled.graph.component_factors(&vars);
        let manual =
            normalized_log_score(factors.iter().map(|&f| compiled.graph.factor(f).probability));
        assert_eq!(
            engine_score.factor_count, manual.factor_count,
            "track {:?}",
            track.idx
        );
        assert_eq!(engine_score.zeroed, manual.zeroed, "track {:?}", track.idx);
        assert_eq!(
            engine_score.score.map(f64::to_bits),
            manual.score.map(f64::to_bits),
            "track {:?}",
            track.idx
        );
    }
}

#[test]
fn bundling_respects_geometry() {
    // Boxes that loa-geom says overlap > 0.5 must end up bundled.
    let car = |x: f64, y: f64| Box3::on_ground(x, y, 0.0, 4.5, 1.9, 1.6, 0.0);
    // Humans are offsets 0..2 of the frame, models 2..4.
    let human = [car(10.0, 0.0), car(30.0, 5.0)];
    let model = [car(10.1, 0.05), car(50.0, -5.0)];
    let prepared: Vec<PreparedBox> = human.iter().chain(&model).map(PreparedBox::new).collect();
    let mut bundles = FrameBundles::default();
    bundle_prepared_into(&prepared, &[2, 4], &mut BundleScratch::default(), &mut bundles);
    assert!(iou_bev(&human[0], &model[0]) > 0.5);
    let merged: Vec<&[u32]> = bundles.iter().filter(|b| b.len() == 2).collect();
    assert_eq!(merged, [&[0, 2]], "one merged bundle, human 0 with model 0");
}

#[test]
fn matching_algorithms_agree_on_separable_input() {
    // Every pair scored, as the tracker's dense reference scores them.
    let scores = [[0.9, 0.0, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 0.7]];
    let diagonal: Vec<Match> = (0..3)
        .map(|i| Match { left: i, right: i, score: scores[i][i] })
        .collect();
    let mut matrix = ScoreMatrix::new();
    matrix.reset(3, 3);
    for (i, row) in scores.iter().enumerate() {
        for (j, &s) in row.iter().enumerate() {
            matrix.push(i, j, s);
        }
    }
    let mut matches = Vec::new();
    greedy_match_into(&matrix, 0.5, &mut MatchScratch::default(), &mut matches);
    assert_eq!(matches, diagonal);
}

#[test]
fn kde_probability_feeds_scoring_consistently() {
    // A two-factor component scored via normalized_log_score equals the
    // mean log relative likelihood computed directly from the KDE.
    let xs: Vec<f64> = (0..500).map(|i| 10.0 + (i % 40) as f64 * 0.1).collect();
    let kde = Kde1d::fit(&xs).unwrap();
    let p1 = kde.relative_likelihood(11.0);
    let p2 = kde.relative_likelihood(12.5);
    let score = normalized_log_score([p1, p2]).score.unwrap();
    assert!((score - (p1.ln() + p2.ln()) / 2.0).abs() < 1e-12);
}

#[test]
fn every_figure_scenario_renders() {
    for (name, scenario) in all_scenarios(77) {
        let frame_id = scenario
            .focus_frames
            .first()
            .copied()
            .unwrap_or(fixy::data::FrameId(0));
        let frame = &scenario.scene.frames[frame_id.0 as usize];
        let layers = FrameLayers::from_frame(frame, None);
        let ascii = render_frame_ascii(&layers, AsciiOptions::default());
        assert!(!ascii.trim().is_empty(), "{name} rendered empty");
        assert!(ascii.contains('E'), "{name} missing ego marker");
    }
}

#[test]
fn observation_sources_survive_assembly() {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    cfg.world.duration = 3.0;
    cfg.lidar.beam_count = 300;
    let data = generate_scene(&cfg, "xc-2", 43);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    for obs in scene.observations() {
        let frame = &data.frames[obs.frame.0 as usize];
        match obs.source {
            fixy::data::ObservationSource::Human => {
                let label = &frame.human_labels[obs.source_index];
                assert_eq!(label.class, obs.class);
                assert!((label.bbox.volume() - obs.bbox.volume()).abs() < 1e-12);
            }
            fixy::data::ObservationSource::Model => {
                let det = &frame.detections[obs.source_index];
                assert_eq!(det.class, obs.class);
                assert_eq!(Some(det.confidence), obs.confidence);
            }
            fixy::data::ObservationSource::Auditor => {
                panic!("auditor observations are not emitted by assembly")
            }
        }
    }
}
