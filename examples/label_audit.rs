//! Label-audit workflow: the deployment described in Section 2 of the
//! paper. A labeling vendor returns scenes; the organization's audit
//! budget only covers a fraction of them, so Fixy ranks scenes and tracks
//! to route auditors at the most likely errors — including the two
//! headline error classes:
//!
//! * entirely missing tracks (the Figure 1 truck, Figure 4 motorcycle),
//! * missing labels within tracks (the Figure 6 trailing car).
//!
//! Also renders the Figure 1 analog as ASCII and SVG.
//!
//! Run with: `cargo run --release --example label_audit`

use fixy::data::scenarios::{missing_truck, trailing_car_missing_label};
use fixy::data::{generate_scene, DatasetProfile};
use fixy::prelude::*;
use fixy::render::{render_frame_ascii, render_frame_svg, AsciiOptions, FrameLayers, SvgOptions};

fn main() {
    let cfg = DatasetProfile::LyftLike.scene_config();
    println!("Training on 4 vendor-labeled scenes…");
    let train: Vec<_> = (0..4)
        .map(|i| generate_scene(&cfg, &format!("audit-train-{i}"), 500 + i))
        .collect();

    // --- Part 1: a truck the vendor missed (Figure 1) ----------------------
    let track_finder = MissingTrackFinder;
    let library = Learner::new().fit(&track_finder.feature_set(), &train).expect("fit");

    let scenario = missing_truck(7);
    let scene = Scene::assemble(&scenario.scene, &AssemblyConfig::default());
    let ranked = track_finder
        .rank_scene(&scenario.scene, &scene, &library)
        .expect("rank");
    println!("\n=== {} ===", scenario.description);
    println!("Fixy flags {} candidate track(s); top candidate:", ranked.len());
    if let Some(top) = ranked.first() {
        println!(
            "  class {}, {} observations, score {:.3}",
            top.class, top.n_obs, top.score
        );
        let hit = fixy::eval::resolve::is_missing_track_hit(&scenario.scene, &scene, top.track);
        println!("  resolves to the injected missing truck: {hit}");
    }

    // Render the frame where the truck is closest to the AV.
    let frame = &scenario.scene.frames[scenario.focus_frames[0].0 as usize];
    let layers = FrameLayers::from_frame(frame, Some(&cfg.lidar));
    println!("\nBEV view ('!' = missing object, '#' = human label, '+' = model):");
    println!("{}", render_frame_ascii(&layers, AsciiOptions::default()));

    let svg = render_frame_svg(&layers, SvgOptions::default());
    let out = std::env::temp_dir().join("fixy_figure1.svg");
    if std::fs::write(&out, svg).is_ok() {
        println!("SVG written to {}", out.display());
    }

    // --- Part 2: a missing label within a track (Figure 6) -----------------
    let obs_finder = MissingObsFinder;
    let obs_library = Learner::new().fit(&obs_finder.feature_set(), &train).expect("fit");
    let scenario = trailing_car_missing_label(11);
    let scene = Scene::assemble(&scenario.scene, &AssemblyConfig::default());
    let ranked = obs_finder
        .rank_scene(&scenario.scene, &scene, &obs_library)
        .expect("rank");
    println!("=== {} ===", scenario.description);
    println!("Candidate bundles (model-only, inside human-labeled tracks):");
    for (i, c) in ranked.iter().take(5).enumerate() {
        let bundle = scene.bundle(c.bundle);
        println!(
            "  #{}: frame {:>3}, class {}, score {:.3}",
            i + 1,
            bundle.frame.0,
            c.class,
            c.score
        );
    }
    let missing = &scenario.scene.injected.missing_boxes[0];
    println!(
        "Injected missing label: track {:?} at frame {} — check the top of the list.",
        missing.track, missing.frame.0
    );
}
