//! Reproduces the **Section 8.2 recall** results: recall on an
//! exhaustively audited scene (paper: 75% = 18/24 in top-10 per class) and
//! the scene-level experiment (paper: errors in 32/46 Lyft scenes; 100% of
//! scenes-with-errors hit in the top 10).
//!
//! `cargo run --release -p loa_bench --bin recall [--fast] [--seed N]`

use loa_bench::parse_args;
use loa_eval::report::pct_opt;
use loa_eval::{run_recall_experiment, run_scene_level_recall};

fn main() {
    let options = parse_args();
    let n_train = if options.fast { 3 } else { 8 };
    let n_scenes = if options.fast { 8 } else { 46 };

    eprintln!("Running audited-scene recall experiment…");
    let audited = run_recall_experiment(options.seed, n_train, options.fast);
    println!("\nSection 8.2 — exhaustively audited scene:");
    println!(
        "  {} missing tracks injected; {} found in top-10 per class → recall {:.0}%",
        audited.total_missing,
        audited.found,
        audited.recall * 100.0
    );
    println!("  (paper: 24 missing tracks, 18 found, recall 75%)");

    eprintln!("Running scene-level experiment over {n_scenes} Lyft-like scenes…");
    let slr = run_scene_level_recall(options.seed + 1, n_train, n_scenes, options.fast);
    println!("\nSection 8.2 — scene-level:");
    println!(
        "  {} of {} scenes contain label errors; top-10 hits ≥1 error in {} of them ({})",
        slr.scenes_with_errors,
        slr.total_scenes,
        slr.scenes_hit_in_top10,
        pct_opt(slr.hit_fraction()),
    );
    println!("  (paper: errors in 32 of 46 scenes; 100% hit in top 10)");
}
