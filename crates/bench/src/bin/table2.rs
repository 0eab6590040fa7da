//! Reproduces **Table 2**: the features used in the evaluation.
//!
//! `cargo run --release -p loa_bench --bin table2`

use fixy_core::prelude::*;
use loa_eval::report::Table;

fn main() {
    let set = FeatureSet::paper_default();
    let mut table = Table::new(vec!["Name", "Type", "Description", "Probability"]);
    for bf in &set.features {
        let model = match bf.feature.probability_model() {
            fixy_core::feature::ProbabilityModel::LearnedKde => "learned (KDE)",
            fixy_core::feature::ProbabilityModel::Manual => "manually specified",
        };
        let kind = match bf.feature.kind() {
            FeatureKind::Observation => "Obs.",
            FeatureKind::Bundle => "Bundle",
            FeatureKind::Transition => "Trans.",
            FeatureKind::Track => "Track",
        };
        table.row(vec![bf.feature.name(), kind, bf.feature.description(), model]);
    }
    println!("Table 2: Description of features used in this evaluation.");
    println!("(Model only and count are manually specified features.)\n");
    print!("{}", table.render());
}
