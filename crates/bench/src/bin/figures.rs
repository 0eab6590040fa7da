//! Reproduces the paper's **figures** as BEV ASCII plots (stdout) and SVG
//! files (with `--out DIR`):
//!
//! * Figure 1 — missing truck near the AV,
//! * Figure 2 — the compiled factor graph of a track (structure dump),
//! * Figure 4 — occluded motorcycle, briefly visible,
//! * Figures 5/9 — inconsistent persistent model ghost,
//! * Figure 6 — missing human label within a track,
//! * Figure 7 — low-probability person/truck bundle.
//!
//! `cargo run --release -p loa-bench --bin figures [--out DIR]`

use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_bench::parse_args;
use loa_data::scenarios::all_scenarios;
use loa_data::{generate_scene, DatasetProfile, LidarConfig};
use loa_render::{render_frame_ascii, render_frame_svg, AsciiOptions, FrameLayers, SvgOptions};

fn main() {
    let options = parse_args();
    let lidar = LidarConfig::default();

    for (label, scenario) in all_scenarios(options.seed) {
        println!("\n================================================================");
        println!("{label}: {}", scenario.description);
        println!("================================================================");
        let frame_id = scenario.focus_frames.first().copied().unwrap_or(loa_data::FrameId(0));
        let frame = &scenario.scene.frames[frame_id.0 as usize];
        let layers = FrameLayers::from_frame(frame, Some(&lidar));
        println!(
            "frame {} — '!' missing object, '#' human label, '+' model box, '.' LIDAR\n",
            frame_id.0
        );
        println!("{}", render_frame_ascii(&layers, AsciiOptions::default()));

        if let Some(dir) = &options.out_dir {
            std::fs::create_dir_all(dir).expect("create out dir");
            let path = dir.join(format!("{label}.svg"));
            std::fs::write(&path, render_frame_svg(&layers, SvgOptions::default()))
                .expect("write svg");
            eprintln!("wrote {}", path.display());
        }
    }

    // Figure 2: the compiled factor graph of a track.
    println!("\n================================================================");
    println!("figure2: factor graph of a compiled track");
    println!("================================================================");
    let mut cfg = DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = 2.0;
    cfg.lidar.beam_count = 300;
    let data = generate_scene(&cfg, "figure2", options.seed);
    let finder = MissingTrackFinder::default();
    let library = Learner::new()
        .fit(&finder.feature_set(), std::slice::from_ref(&data))
        .expect("fit");
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let features = finder.feature_set();
    let compiled = fixy_core::compile::compile_scene(&scene, &features, &library).expect("compile");

    // Pick a track with ~5 bundles, like the figure.
    let track = scene
        .tracks()
        .iter()
        .filter(|t| scene.track_bundles(t.idx).len() >= 3)
        .min_by_key(|t| (scene.track_bundles(t.idx).len() as i64 - 5).abs())
        .expect("a track exists");
    let obs = scene.track_obs(track);
    println!(
        "track {:?}: {} bundles, {} observations",
        track.idx,
        scene.track_bundles(track.idx).len(),
        obs.len()
    );
    let vars = compiled.vars_of(&obs);
    let factors = compiled.graph.component_factors(&vars);
    println!("variables (observations):");
    for &o in &obs {
        let ob = scene.obs(o);
        println!("  ω{} — frame {:>2} {:?} {}", o.0, ob.frame.0, ob.source, ob.class);
    }
    println!("factors (feature distributions):");
    for f in factors {
        let info = compiled.graph.factor(f);
        let scope: Vec<String> = compiled
            .graph
            .scope(f)
            .iter()
            .map(|v| format!("ω{}", compiled.graph.var(*v).0))
            .collect();
        println!(
            "  {:<12} p={:.3}  —[{}]",
            features.features[info.feature_index].feature.name(),
            info.probability,
            scope.join(", ")
        );
    }
}
