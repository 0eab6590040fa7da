//! Reproduces **Table 3**: precision at top 10/5/1 of Fixy and ad-hoc MA
//! baselines for finding tracks missed by humans.
//!
//! `cargo run --release -p loa_bench --bin table3 [--fast] [--seed N]`
//!
//! Default run: 46 Lyft-like + 13 Internal-like evaluation scenes (the
//! paper's counts), 8 training scenes per profile.

use loa_bench::parse_args;
use loa_eval::report::{pct_opt, Table};
use loa_eval::{run_table3, Table3Config};

fn main() {
    let options = parse_args();
    let cfg = Table3Config {
        n_train: if options.fast { 3 } else { 8 },
        n_eval_lyft: if options.fast { 8 } else { 46 },
        n_eval_internal: if options.fast { 4 } else { 13 },
        base_seed: options.seed,
        fast: options.fast,
    };
    eprintln!(
        "Running Table 3: {} Lyft-like + {} Internal-like scenes (train {} each){}",
        cfg.n_eval_lyft,
        cfg.n_eval_internal,
        cfg.n_train,
        if cfg.fast { " [fast]" } else { "" },
    );
    let result = run_table3(&cfg);

    let mut table = Table::new(vec![
        "Method",
        "Dataset",
        "Precision at top 10",
        "Precision at top 5",
        "Precision at top 1",
        "Scenes",
    ]);
    for row in &result.rows {
        table.row(vec![
            row.method.clone(),
            row.dataset.clone(),
            pct_opt(row.p10),
            pct_opt(row.p5),
            pct_opt(row.p1),
            row.scenes.to_string(),
        ]);
    }
    println!("\nTable 3: Precision of Fixy and ad-hoc MA baselines for finding");
    println!("tracks missed by humans (paper: Fixy 69%/70%/67% Lyft,");
    println!("76%/100%/100% Internal; ad-hoc rand 32%/30%/24% Lyft).\n");
    print!("{}", table.render());

    if let Some(dir) = options.out_dir {
        std::fs::create_dir_all(&dir).expect("create out dir");
        let path = dir.join("table3.json");
        std::fs::write(&path, serde_json::to_string_pretty(&result).expect("serialize"))
            .expect("write results");
        eprintln!("wrote {}", path.display());
    }
}
