//! Reproduces the **Section 8.1 runtime** claim: *"Fixy executes in under
//! five seconds on a single CPU core for processing a 15 second scene of
//! data."*
//!
//! `cargo run --release -p loa_bench --bin runtime [--seed N]`

use loa_bench::parse_args;
use loa_eval::run_runtime_experiment;

fn main() {
    let options = parse_args();
    eprintln!("Timing the end-to-end pipeline on a 15 s Internal-like scene…");
    let result = run_runtime_experiment(options.seed, 4);
    println!("\nSection 8.1 — runtime:");
    println!(
        "  scene duration:   {:.0} s ({} frames)",
        result.scene_seconds, result.frames
    );
    println!("  observations:     {}", result.observations);
    println!("  offline learning: {:.1} ms", result.offline_ms);
    println!(
        "  online phase:     {:.1} ms (assemble + compile + score + rank, 1 core)",
        result.online_ms
    );
    println!(
        "  paper bound:      5000 ms → {}",
        if result.under_five_seconds() { "PASS" } else { "FAIL" }
    );
}
