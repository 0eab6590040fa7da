//! Monitoring ML model predictions without ground truth (Section 7's
//! third application, evaluated in Section 8.4).
//!
//! No human labels here: the detector runs alone, the ad-hoc assertions
//! (appear / flicker / multibox) catch the shallow errors, and Fixy — with
//! inverted AOFs — hunts the novel ones: persistent, high-confidence ghost
//! tracks whose geometry is implausible under the learned distributions.
//!
//! Run with: `cargo run --release --example model_errors`

use fixy::baselines::{uncertainty_sample_tracks, AdHocAssertions};
use fixy::data::{generate_scene, DatasetProfile};
use fixy::eval::resolve::is_model_error_hit;
use fixy::prelude::*;

fn main() {
    let cfg = DatasetProfile::LyftLike.scene_config();
    println!("Training feature distributions on 4 labeled scenes…");
    let train: Vec<_> = (0..4)
        .map(|i| generate_scene(&cfg, &format!("me-train-{i}"), 300 + i))
        .collect();
    let app = App::ModelErrors;
    let library = app.fit(&train).expect("fit");

    let data = generate_scene(&cfg, "deployment-scene", 4242);
    // Model predictions only — monitoring, not labeling.
    let scene = Scene::assemble(&data, &app.assembly());
    println!(
        "\nDeployment scene: {} detections across {} frames; {} injected ghost tracks",
        scene.n_observations(),
        data.frame_count(),
        data.injected.ghost_tracks.len()
    );

    // Step 1: the ad-hoc assertions fire on flicker/appear/multibox.
    let assertions = AdHocAssertions::default();
    let excluded = assertions.flag_all(&scene);
    println!(
        "Ad-hoc assertions flag {} observations (excluded from Fixy's search).",
        excluded.len()
    );

    // Step 2: Fixy ranks the tracks the assertions mostly missed by
    // inverted likelihood (the app runs step 1 itself before ranking).
    let ranked: Vec<TrackCandidate> = app
        .rank(&scene, &library)
        .expect("rank")
        .iter()
        .filter_map(Candidate::as_track)
        .copied()
        .collect();
    println!("\nFixy's top 10 suspicious tracks:");
    println!(
        "{:<6} {:<12} {:<8} {:>6} {:>7} {:>7}",
        "rank", "class", "score", "#obs", "conf", "error?"
    );
    for (i, c) in ranked.iter().take(10).enumerate() {
        let hit = is_model_error_hit(&data, &scene, c.track);
        println!(
            "{:<6} {:<12} {:<8.3} {:>6} {:>7} {:>7}",
            i + 1,
            c.class.to_string(),
            c.score,
            c.n_obs,
            c.mean_confidence
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            if hit { "YES" } else { "no" },
        );
    }

    // Step 3: compare with uncertainty sampling — it looks at the decision
    // boundary and misses confident errors.
    let unc = uncertainty_sample_tracks(&scene, 0.5);
    let unc_filtered: Vec<_> = unc
        .iter()
        .filter(|&&t| {
            let obs = scene.track_obs(scene.track(t));
            let n_excluded = obs.iter().filter(|o| excluded.contains(o)).count();
            2 * n_excluded <= obs.len()
        })
        .collect();
    let unc_hits = unc_filtered
        .iter()
        .take(10)
        .filter(|&&&t| is_model_error_hit(&data, &scene, t))
        .count();
    let fixy_hits = ranked
        .iter()
        .take(10)
        .filter(|c| is_model_error_hit(&data, &scene, c.track))
        .count();
    println!("\nTop-10 true errors — Fixy: {fixy_hits}, uncertainty sampling: {unc_hits}");

    if let Some(c) = ranked
        .iter()
        .take(10)
        .filter(|c| is_model_error_hit(&data, &scene, c.track))
        .max_by(|a, b| a.mean_confidence.partial_cmp(&b.mean_confidence).expect("finite"))
    {
        println!(
            "Highest-confidence error Fixy surfaced: {:.0}% model confidence — \
             uncertainty sampling would never look there.",
            c.mean_confidence.unwrap_or(0.0) * 100.0
        );
    }
}
