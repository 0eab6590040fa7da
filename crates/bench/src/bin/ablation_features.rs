//! Feature-subset ablation (our addition, motivated by the paper's §10
//! future-work discussion of feature misspecification).
//!
//! Measures missing-track P@10 with features knocked out one at a time.
//!
//! `cargo run --release -p loa_bench --bin ablation_features [--fast]`

use fixy_core::prelude::*;
use fixy_core::{Aof, Learner};
use loa_bench::parse_args;
use loa_data::{generate_scene, DatasetProfile};
use loa_eval::metrics::{mean_of, precision_at_k};
use loa_eval::report::{pct_opt, Table};
use loa_eval::resolve::is_missing_track_hit;

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
    let finder = MissingTrackFinder;
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
}
