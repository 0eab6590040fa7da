//! Reproduces the **Section 8.3 missing-observation** case study: the
//! paper found a single missing observation within a track and Fixy
//! ranked it at the top. We instantiate the Figure 6 scenario across
//! seeds and report the rank statistics vs random candidate ordering.
//!
//! `cargo run --release -p loa_bench --bin missing_obs [--fast] [--seed N]`

use loa_bench::parse_args;
use loa_eval::run_missing_obs_experiment;

fn main() {
    let options = parse_args();
    let n_train = if options.fast { 2 } else { 6 };
    let n_cases = if options.fast { 4 } else { 12 };

    eprintln!("Running {n_cases} instances of the Figure 6 scenario…");
    let result = run_missing_obs_experiment(options.seed, n_train, n_cases);
    println!("\nSection 8.3 — finding missing observations within tracks:");
    println!("  cases resolved:         {}", result.n_cases);
    println!(
        "  Fixy ranked #1:         {} of {} ({:.0}%)",
        result.fixy_rank1,
        result.n_cases,
        100.0 * result.fixy_rank1 as f64 / result.n_cases.max(1) as f64
    );
    println!("  Fixy mean rank:         {:.2}", result.fixy_mean_rank);
    println!("  random-order mean rank: {:.2}", result.random_mean_rank);
    println!("  (paper: the single missing observation ranked at the top)");
}
