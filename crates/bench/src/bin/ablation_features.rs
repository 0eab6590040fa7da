//! Feature-subset ablation (our addition, motivated by the paper's §10
//! future-work discussion of feature misspecification).
//!
//! Measures missing-track P@10 with features knocked out one at a time,
//! and demonstrates the inverted-track-length pathology in the model-error
//! app (see `ModelErrorFinder::feature_set` docs).
//!
//! `cargo run --release -p loa_bench --bin ablation_features [--fast]`

use fixy_core::prelude::*;
use fixy_core::{Aof, Learner};
use loa_baselines::AdHocAssertions;
use loa_bench::parse_args;
use loa_data::{generate_scene, DatasetProfile};
use loa_eval::metrics::{mean_of, precision_at_k};
use loa_eval::report::{pct_opt, Table};
use loa_eval::resolve::{is_missing_track_hit, is_model_error_hit};

fn main() {
    let options = parse_args();
    let n_train = if options.fast { 3 } else { 6 };
    let n_eval = if options.fast { 6 } else { 16 };

    let mut scene_cfg = DatasetProfile::LyftLike.scene_config();
    if options.fast {
        scene_cfg.world.duration = 6.0;
        scene_cfg.lidar.beam_count = 300;
    }

    // ---- Missing-track app: knock out one feature at a time --------------
    let finder = MissingTrackFinder::default();
    let full = finder.feature_set();
    let train: Vec<_> = (0..n_train)
        .map(|i| generate_scene(&scene_cfg, &format!("ab-train-{i}"), options.seed + i as u64))
        .collect();
    let library = Learner::new().fit(&full, &train).expect("fit");

    let eval_scenes: Vec<_> = (0..n_eval)
        .map(|i| generate_scene(&scene_cfg, &format!("ab-eval-{i}"), options.seed + 700 + i as u64))
        .collect();

    let mut table = Table::new(vec!["Configuration", "P@10 (missing tracks)"]);
    let mut configs: Vec<(String, FeatureSet)> = vec![("full".into(), full.clone())];
    for knock_out in ["volume", "distance", "velocity"] {
        // Disable by replacing the AOF with One: the factor stays (same
        // normalization) but becomes uninformative.
        let mut set = full.clone();
        for bf in &mut set.features {
            if bf.feature.name() == knock_out {
                bf.aof = Aof::One;
            }
        }
        configs.push((format!("without {knock_out}"), set));
    }

    for (name, set) in &configs {
        let per_scene: Vec<Option<f64>> = eval_scenes
            .iter()
            .map(|data| {
                if data.injected.missing_tracks.is_empty() {
                    return None;
                }
                let scene = Scene::assemble(data, &AssemblyConfig::default());
                let engine = ScoreEngine::new(&scene, set, &library).ok()?;
                let mut cands: Vec<(f64, fixy_core::TrackIdx)> = scene
                    .tracks()
                    .iter()
                    .filter_map(|t| engine.score_track(t.idx).score.map(|s| (s, t.idx)))
                    .collect();
                cands.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
                let rel: Vec<bool> = cands
                    .iter()
                    .map(|&(_, t)| is_missing_track_hit(data, &scene, t))
                    .collect();
                precision_at_k(&rel, 10)
            })
            .collect();
        table.row(vec![name.clone(), pct_opt(mean_of(&per_scene))]);
    }
    println!("\nAblation A — Table 2 feature knockouts (missing-track app):\n");
    print!("{}", table.render());

    // ---- Model-error app: the inverted track-length pathology ------------
    let me = ModelErrorFinder::default();
    let me_default_lib = Learner::new().fit(&me.feature_set(), &train).expect("fit");
    let me_tl_lib = Learner::new()
        .fit(&me.feature_set_with_track_length(), &train)
        .expect("fit");

    // Mean model-error P@10 of one feature set, ranked the Section 8.4
    // way: tracks the ad-hoc assertions mostly flagged are skipped.
    let model_error_p10 = |set: &FeatureSet, lib: &FeatureLibrary| -> Option<f64> {
        let per_scene: Vec<Option<f64>> = eval_scenes
            .iter()
            .map(|data| {
                let scene = Scene::assemble(data, &AssemblyConfig::model_only());
                let excluded = AdHocAssertions::default().flag_all(&scene);
                let engine = ScoreEngine::new(&scene, set, lib).ok()?;
                let mut cands: Vec<(f64, fixy_core::TrackIdx)> = scene
                    .tracks()
                    .iter()
                    .filter(|t| {
                        let obs = scene.track_obs(t);
                        let n_ex = obs.iter().filter(|o| excluded.contains(o)).count();
                        2 * n_ex <= obs.len()
                    })
                    .filter_map(|t| engine.score_track(t.idx).score.map(|s| (s, t.idx)))
                    .collect();
                cands.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
                let rel: Vec<bool> = cands
                    .iter()
                    .map(|&(_, t)| is_model_error_hit(data, &scene, t))
                    .collect();
                precision_at_k(&rel, 10)
            })
            .collect();
        mean_of(&per_scene)
    };

    let mut table = Table::new(vec!["Configuration", "P@10 (model errors)"]);
    for (name, set, lib) in [
        ("default (no track-length factor)", me.feature_set(), &me_default_lib),
        (
            "with inverted track-length",
            me.feature_set_with_track_length(),
            &me_tl_lib,
        ),
    ] {
        table.row(vec![name.to_string(), pct_opt(model_error_p10(&set, lib))]);
    }
    println!("\nAblation B — inverted track-level factors (model-error app):\n");
    print!("{}", table.render());
    println!(
        "\nA single inverted track-level factor adds a near-constant log term\n\
         that the per-factor normalization spreads across long tracks but\n\
         concentrates on short ones — sinking exactly the short inconsistent\n\
         tracks the application hunts."
    );

    // ---- Model-error app: adding the joint motion feature -----------------
    let me_joint_set = {
        let mut set = me.feature_set();
        set.features.insert(
            3,
            fixy_core::BoundFeature::new(
                std::sync::Arc::new(fixy_core::features::MotionVectorFeature),
                Aof::Invert,
            ),
        );
        set
    };
    let me_joint_lib = Learner::new().fit(&me_joint_set, &train).expect("fit");

    let mut table = Table::new(vec!["Configuration", "P@10 (model errors)"]);
    for (name, set, lib) in [
        ("default (marginal features)", me.feature_set(), &me_default_lib),
        ("with joint (speed, yaw-rate) KDE", me_joint_set, &me_joint_lib),
    ] {
        table.row(vec![name.to_string(), pct_opt(model_error_p10(&set, lib))]);
    }
    println!("\nAblation C — joint vs marginal motion features (model-error app):\n");
    print!("{}", table.render());
}
