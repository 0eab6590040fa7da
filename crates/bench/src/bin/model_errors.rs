//! Reproduces the **Section 8.4 model-error** comparison: Fixy (inverted
//! AOFs, after excluding what the appear/flicker/multibox assertions
//! find) vs uncertainty sampling, over 5 Lyft-like scenes.
//!
//! `cargo run --release -p loa_bench --bin model_errors [--fast] [--seed N]`

use loa_bench::parse_args;
use loa_eval::report::pct_opt;
use loa_eval::run_model_error_experiment;

fn main() {
    let options = parse_args();
    let n_train = if options.fast { 3 } else { 8 };
    let n_scenes = if options.fast { 4 } else { 5 };

    eprintln!("Running the model-error experiment over {n_scenes} scenes…");
    let result = run_model_error_experiment(options.seed, n_train, n_scenes, options.fast);
    println!("\nSection 8.4 — finding novel ML prediction errors:");
    println!("  scenes:                        {}", result.scenes);
    println!("  Fixy precision@10:             {}", pct_opt(result.fixy_p10));
    println!("  uncertainty sampling p@10:     {}", pct_opt(result.uncertainty_p10));
    if let Some(c) = result.max_hit_confidence {
        println!("  highest-confidence true error: {:.0}% model confidence", c * 100.0);
    }
    println!("  (paper: Fixy 82% vs uncertainty sampling 42%; errors found at");
    println!("   confidences as high as 95%)");
}
