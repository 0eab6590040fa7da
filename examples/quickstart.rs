//! Quickstart: the full Fixy workflow in ~60 lines.
//!
//! 1. Generate "organizational resources" — scenes labeled by a (noisy)
//!    vendor, as any AV data pipeline accumulates.
//! 2. Learn feature distributions offline from those labels.
//! 3. Rank potential missing labels in a fresh scene and print an audit
//!    worklist.
//!
//! Run with: `cargo run --release --example quickstart`

use fixy::data::{generate_scene, DatasetProfile};
use fixy::prelude::*;

fn main() {
    // --- Offline phase -----------------------------------------------------
    // Existing labeled scenes are the training resource; no extra labeling
    // cost (Section 5 of the paper).
    let cfg = DatasetProfile::LyftLike.scene_config();
    println!("Generating 4 training scenes (Lyft-like profile)…");
    let train: Vec<_> = (0..4)
        .map(|i| generate_scene(&cfg, &format!("train-{i}"), 100 + i))
        .collect();

    let finder = MissingTrackFinder;
    let library = Learner::new()
        .fit(&finder.feature_set(), &train)
        .expect("training scenes contain labeled objects");
    println!(
        "Learned distributions for: {}",
        library.feature_names().collect::<Vec<_>>().join(", ")
    );

    // --- Online phase ------------------------------------------------------
    let data = generate_scene(&cfg, "incoming-scene", 999);
    println!(
        "\nNew scene: {} frames, {} injected missing tracks (unknown to Fixy)",
        data.frame_count(),
        data.injected.missing_tracks.len()
    );

    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    println!(
        "Assembled {} observations → {} bundles → {} tracks",
        scene.n_observations(),
        scene.n_bundles(),
        scene.n_tracks()
    );

    let ranked = finder
        .rank_scene(&data, &scene, &library)
        .expect("library matches features");
    println!("\nAudit worklist (top 10 potential missing labels):");
    println!(
        "{:<6} {:<12} {:<8} {:>6} {:>8}",
        "rank", "class", "score", "#obs", "conf"
    );
    for (i, c) in ranked.iter().take(10).enumerate() {
        println!(
            "{:<6} {:<12} {:<8.3} {:>6} {:>8}",
            i + 1,
            c.class.to_string(),
            c.score,
            c.n_obs,
            c.mean_confidence
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
        );
    }

    // In production the worklist goes to human auditors; here the
    // simulator knows the answer, so grade ourselves:
    let hits = ranked
        .iter()
        .take(10)
        .filter(|c| fixy::eval::resolve::is_missing_track_hit(&data, &scene, c.track))
        .count();
    let shown = ranked.len().min(10);
    println!("\n{hits}/{shown} of the top candidates are real vendor misses.");
}
