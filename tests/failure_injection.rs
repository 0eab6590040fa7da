//! Failure injection: malformed inputs must be rejected with errors, not
//! panics, at every layer boundary.

use fixy::data::{Frame, FrameId, InjectedErrors, SceneData};
use fixy::geom::Pose2;
use fixy::prelude::*;
use fixy::stats::{FitError, Kde1d};

fn empty_frame(i: u32) -> Frame {
    Frame {
        index: FrameId(i),
        timestamp: i as f64 * 0.2,
        ego_pose: Pose2::identity(),
        gt: vec![],
        human_labels: vec![],
        detections: vec![],
    }
}

#[test]
fn stats_reject_bad_samples() {
    assert!(matches!(Kde1d::fit(&[]), Err(FitError::EmptySample)));
    assert!(matches!(Kde1d::fit(&[f64::NAN]), Err(FitError::NonFiniteSample)));
    assert!(matches!(
        Kde1d::fit(&[1.0, f64::INFINITY]),
        Err(FitError::NonFiniteSample)
    ));
}

#[test]
fn learner_fails_cleanly_without_labels() {
    // Scenes with zero human labels → no training values for the learned
    // features → clean error, no panic.
    let data = SceneData {
        id: "unlabeled".into(),
        frame_dt: 0.2,
        frames: (0..5).map(empty_frame).collect(),
        injected: InjectedErrors::default(),
    };
    let finder = MissingTrackFinder;
    let err = Learner::new().fit(&finder.feature_set(), &[data]).unwrap_err();
    assert!(matches!(err, FixyError::NoTrainingData { .. }));
}

#[test]
fn scene_validation_rejects_malformed_input() {
    let bad = SceneData {
        id: "bad-dt".into(),
        frame_dt: -0.1,
        frames: vec![empty_frame(0)],
        injected: InjectedErrors::default(),
    };
    assert!(bad.validate().is_err());

    let out_of_order = SceneData {
        id: "ooo".into(),
        frame_dt: 0.2,
        frames: vec![empty_frame(1), empty_frame(0)],
        injected: InjectedErrors::default(),
    };
    assert!(out_of_order.validate().is_err());
}

#[test]
fn empty_scene_flows_through_pipeline_without_panicking() {
    // An empty (but structurally valid) scene must produce empty outputs
    // everywhere, not crashes.
    let data = SceneData {
        id: "empty-ok".into(),
        frame_dt: 0.2,
        frames: (0..3).map(empty_frame).collect(),
        injected: InjectedErrors::default(),
    };
    data.validate().expect("structurally valid");
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    assert!(scene.observations().is_empty());

    // Ranking with a library fitted elsewhere still works: build a library
    // from a real scene first.
    let mut cfg = fixy::data::DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = 3.0;
    cfg.lidar.beam_count = 240;
    let train = fixy::data::generate_scene(&cfg, "fi-train", 7);
    let library = App::MissingTracks.fit(&[train]).expect("fit");
    let ranked = App::MissingTracks
        .rank(&scene, &library)
        .expect("rank on empty scene");
    assert!(ranked.is_empty());
}

#[test]
fn missing_distribution_is_reported_not_panicked() {
    let mut cfg = fixy::data::DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = 3.0;
    cfg.lidar.beam_count = 240;
    let data = fixy::data::generate_scene(&cfg, "fi-md", 8);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    // Empty library: learned features are missing.
    let err = App::MissingTracks
        .rank(&scene, &FeatureLibrary::default())
        .unwrap_err();
    assert!(matches!(err, FixyError::MissingDistribution { .. }));
}

#[test]
fn corrupted_json_rejected_by_loader() {
    let dir = std::env::temp_dir().join("fixy_failure_injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.json");
    std::fs::write(&path, b"{\"id\": \"x\", \"frames\": 12}").unwrap();
    assert!(fixy::data::io::load_scene(&path).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn nan_boxes_fail_scene_validation() {
    let mut cfg = fixy::data::DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = 2.0;
    cfg.lidar.beam_count = 180;
    let mut data = fixy::data::generate_scene(&cfg, "fi-nan", 9);
    if let Some(det) = data.frames[0].detections.first_mut() {
        det.bbox.center.x = f64::NAN;
        assert!(data.validate().is_err());
    }
}
