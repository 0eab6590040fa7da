//! Data selection for labeling — the second use the paper describes for
//! assertions (Section 2): *"They can additionally be used to select data
//! that produces errors for labeling … as many organizations continuously
//! collect data to label."*
//!
//! A fleet uploads unlabeled drive scenes; the labeling budget covers only
//! a few. This example scores each incoming scene by how much
//! likely-missed-object evidence it contains (sum of the top candidate
//! scores) and spends the budget on the scenes where labeling/auditing
//! will fix the most errors.
//!
//! Run with: `cargo run --release --example data_selection`

use fixy::data::{generate_scene, DatasetProfile};
use fixy::eval::resolve::is_missing_track_hit;
use fixy::prelude::*;

fn main() {
    let cfg = DatasetProfile::LyftLike.scene_config();
    println!("Learning feature distributions from 4 labeled scenes…");
    let train: Vec<_> = (0..4)
        .map(|i| generate_scene(&cfg, &format!("ds-train-{i}"), 600 + i))
        .collect();
    let finder = MissingTrackFinder;
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");

    // A week of incoming drives; budget: audit 3 of 10 scenes.
    const INCOMING: usize = 10;
    const BUDGET: usize = 3;
    println!("\nScoring {INCOMING} incoming scenes (audit budget: {BUDGET})…\n");

    struct Scored {
        id: String,
        priority: f64,
        candidates: usize,
        true_errors: usize,
    }
    let mut scored: Vec<Scored> = (0..INCOMING)
        .map(|i| {
            let data = generate_scene(&cfg, &format!("drive-{i:02}"), 7000 + i as u64);
            let scene = Scene::assemble(&data, &AssemblyConfig::default());
            let ranked = finder.rank_scene(&data, &scene, &library).expect("rank");
            // Priority: total likelihood mass in the top 5 candidates —
            // scenes with several consistent-but-unlabeled tracks first.
            let priority: f64 = ranked.iter().take(5).map(|c| c.score.exp()).sum();
            let true_errors = data.injected.missing_tracks.len();
            let hits = ranked
                .iter()
                .take(5)
                .filter(|c| is_missing_track_hit(&data, &scene, c.track))
                .count();
            let _ = hits;
            Scored {
                id: data.id.clone(),
                priority,
                candidates: ranked.len(),
                true_errors,
            }
        })
        .collect();

    scored.sort_by(|a, b| b.priority.partial_cmp(&a.priority).expect("finite"));

    println!(
        "{:<12} {:>9} {:>11} {:>13}  selected?",
        "scene", "priority", "candidates", "true errors"
    );
    let mut selected_errors = 0usize;
    let mut total_errors = 0usize;
    for (i, s) in scored.iter().enumerate() {
        let selected = i < BUDGET;
        if selected {
            selected_errors += s.true_errors;
        }
        total_errors += s.true_errors;
        println!(
            "{:<12} {:>9.3} {:>11} {:>13}  {}",
            s.id,
            s.priority,
            s.candidates,
            s.true_errors,
            if selected { "<== audit" } else { "" }
        );
    }

    let uniform_expectation = total_errors as f64 * BUDGET as f64 / INCOMING as f64;
    println!(
        "\nBudgeted audit covers {selected_errors} of {total_errors} vendor misses \
         (uniform selection would expect {uniform_expectation:.1})."
    );
}
