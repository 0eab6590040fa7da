//! Audit-efficiency curve (extension of the Section 8.2 protocol):
//! fraction of all injected missing tracks recovered as a function of the
//! per-scene audit budget k, for Fixy vs the consistency-MA orderings.
//!
//! `cargo run --release -p loa_bench --bin audit_curve [--fast] [--seed N]`

use loa_bench::parse_args;
use loa_eval::report::{pct, Table};
use loa_eval::run_audit_curve;

fn main() {
    let options = parse_args();
    let n_train = if options.fast { 3 } else { 8 };
    let n_scenes = if options.fast { 6 } else { 20 };
    let budgets = [1usize, 2, 3, 5, 10, 20];

    eprintln!("Sweeping audit budgets over {n_scenes} Lyft-like scenes…");
    let result = run_audit_curve(options.seed, n_train, n_scenes, &budgets, options.fast);

    println!(
        "\nAudit-efficiency: recall of all {} injected missing tracks",
        result.total_errors
    );
    println!("as a function of the per-scene audit budget k.\n");
    let mut headers = vec!["Method".to_string()];
    headers.extend(budgets.iter().map(|k| format!("k={k}")));
    let mut table = Table::new(headers);
    for curve in &result.curves {
        let mut row = vec![curve.method.clone()];
        row.extend(curve.points.iter().map(|&(_, r)| pct(r)));
        table.row(row);
    }
    print!("{}", table.render());
    println!("\nReading: at the same audit budget, Fixy recovers more of the");
    println!("vendor's misses — or equivalently, reaches the same recall with");
    println!("fewer audited candidates (the organization's actual cost).");
}
