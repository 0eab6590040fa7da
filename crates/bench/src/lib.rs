//! Experiment-reproduction binaries and criterion benches for the Fixy
//! reproduction.
//!
//! Binaries (one per table/figure of the paper):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table2` | Table 2 — the feature inventory |
//! | `table3` | Table 3 — missing-track precision vs ad-hoc MAs |
//! | `recall` | §8.2 — audited-scene recall + scene-level top-10 hits |
//! | `missing_obs` | §8.3 — missing observation rank case study |
//! | `model_errors` | §8.4 — Fixy vs uncertainty sampling |
//! | `runtime` | §8.1 — runtime per scene |
//! | `figures` | Figures 1, 2, 4–9 — BEV ASCII plots + SVGs + graph dump |
//! | `ablation_features` | ours — Table 2 feature knockouts |
//!
//! Pass `--fast` to any binary for a shrunken CI-sized run; default sizes
//! match the paper's scene counts.

/// Common reproduction-binary options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub fast: bool,
    pub seed: u64,
    pub out_dir: Option<std::path::PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { fast: false, seed: 0xF1C5, out_dir: None }
    }
}

/// Parse the common `--fast` / `--seed N` / `--out DIR` flags.
pub fn parse_args() -> RunOptions {
    let mut options = RunOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => options.fast = true,
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed requires an integer");
            }
            "--out" => {
                options.out_dir = args.next().map(std::path::PathBuf::from);
            }
            other => {
                eprintln!("unknown flag {other}; supported: --fast, --seed N, --out DIR");
                std::process::exit(2);
            }
        }
    }
    options
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = RunOptions::default();
        assert!(!o.fast);
        assert_eq!(o.seed, 0xF1C5);
        assert!(o.out_dir.is_none());
    }
}
