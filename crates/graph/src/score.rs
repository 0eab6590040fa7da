//! Normalized log-likelihood scoring over factor-graph components.
//!
//! Section 6 of the paper: the score of an observation is the sum of the
//! log of its (AOF-transformed) feature-distribution values; the score of a
//! component *"is the sum of the scores of the observations, normalized by
//! the total number of features that connect to the component"* — so a
//! 10-observation track and a 100-observation track are comparable.

use crate::graph::{FactorGraph, FactorId, VarId};
use serde::{Deserialize, Serialize};

/// The result of scoring a component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentScore {
    /// Mean log-likelihood: `Σ ln p / n_factors`. `None` when no factor is
    /// attached (no evidence — the component cannot be ranked), or when an
    /// AOF zeroed a factor (`ln 0 = −∞` means "excluded", per Section 7's
    /// applications).
    pub score: Option<f64>,
    /// Number of factors that contributed.
    pub factor_count: usize,
    /// True when some factor evaluated to exactly zero (AOF suppression).
    pub zeroed: bool,
}

impl ComponentScore {
    /// An empty score (no factors).
    pub fn empty() -> Self {
        ComponentScore { score: None, factor_count: 0, zeroed: false }
    }
}

/// Compute `Σ ln(pᵢ) / n` over factor probabilities, with zero handling.
///
/// * An empty iterator yields `ComponentScore::empty()`.
/// * A zero probability marks the component as zeroed and removes it from
///   ranking (`score = None`).
/// * Values are expected in `(0, 1]`; they are not clamped here (the stats
///   crate guarantees the floor).
pub fn normalized_log_score(probabilities: impl IntoIterator<Item = f64>) -> ComponentScore {
    let mut sum = 0.0;
    let mut count = 0usize;
    let mut zeroed = false;
    for p in probabilities {
        count += 1;
        if p <= 0.0 || !p.is_finite() {
            zeroed = true;
        } else {
            sum += p.ln();
        }
    }
    if count == 0 {
        return ComponentScore::empty();
    }
    if zeroed {
        return ComponentScore { score: None, factor_count: count, zeroed: true };
    }
    ComponentScore {
        score: Some(sum / count as f64),
        factor_count: count,
        zeroed: false,
    }
}

impl<V, F> FactorGraph<V, F> {
    /// The factors belonging to the variable set `component` — those
    /// whose entire scope lies inside it — sorted ascending. This is the
    /// reading consistent with the paper's worked example (a
    /// two-observation track scored by two volume factors and one
    /// transition factor, all fully contained).
    pub fn component_factors(&self, component: &[VarId]) -> Vec<FactorId> {
        let mut members: Vec<VarId> = component.to_vec();
        members.sort_unstable();
        members.dedup();
        let contains = |w: VarId| members.binary_search(&w).is_ok();
        let mut out: Vec<FactorId> = Vec::new();
        for &v in &members {
            for &f in self.incident_factors(v) {
                // Count each factor exactly once: at its first scope
                // variable, which lies in the component when it all does.
                let scope = self.scope(f);
                if scope[0] == v && scope.iter().all(|&w| contains(w)) {
                    out.push(f);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Score a component of variables given a probability accessor for
    /// factors (the AOF-transformed feature-distribution value).
    pub fn score_component(
        &self,
        component: &[VarId],
        probability: impl Fn(&F) -> f64,
    ) -> ComponentScore {
        let factors = self.component_factors(component);
        normalized_log_score(factors.iter().map(|&f| probability(self.factor(f))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn worked_example_section_6() {
        // Volumes score 0.37 and 0.39, velocity scores 0.21:
        // (ln 0.37 + ln 0.39 + ln 0.21) / 3 = −1.17 (paper, Section 6).
        let score = normalized_log_score([0.37, 0.39, 0.21]);
        assert_eq!(score.factor_count, 3);
        let s = score.score.unwrap();
        assert!((s - (-1.17)).abs() < 0.005, "got {s}");
    }

    #[test]
    fn empty_component_has_no_score() {
        let score = normalized_log_score(std::iter::empty());
        assert_eq!(score, ComponentScore::empty());
    }

    #[test]
    fn zero_probability_excludes() {
        let score = normalized_log_score([0.5, 0.0, 0.9]);
        assert!(score.zeroed);
        assert_eq!(score.score, None);
        assert_eq!(score.factor_count, 3);
    }

    #[test]
    fn nan_probability_excludes() {
        let score = normalized_log_score([0.5, f64::NAN]);
        assert!(score.zeroed);
    }

    #[test]
    fn normalization_makes_sizes_comparable() {
        // Same per-factor likelihood → same score regardless of length.
        let short = normalized_log_score(vec![0.5; 3]).score.unwrap();
        let long = normalized_log_score(vec![0.5; 30]).score.unwrap();
        assert!((short - long).abs() < 1e-12);
    }

    fn track_graph() -> (FactorGraph<&'static str, f64>, Vec<VarId>) {
        // Two observations with a volume factor each and one transition.
        let mut g = FactorGraph::new();
        let o1 = g.add_var("o1");
        let o2 = g.add_var("o2");
        g.add_factor(0.37, vec![o1]).unwrap();
        g.add_factor(0.39, vec![o2]).unwrap();
        g.add_factor(0.21, vec![o1, o2]).unwrap();
        (g, vec![o1, o2])
    }

    #[test]
    fn graph_component_scoring_matches_worked_example() {
        let (g, vars) = track_graph();
        let score = g.score_component(&vars, |&p| p);
        assert_eq!(score.factor_count, 3);
        assert!((score.score.unwrap() - (-1.17)).abs() < 0.005);
    }

    #[test]
    fn component_factors_deduplicated() {
        let (g, vars) = track_graph();
        // The transition factor touches both vars but must be listed once.
        let fs = g.component_factors(&vars);
        assert_eq!(fs.len(), 3);
    }

    proptest! {
        #[test]
        fn prop_score_bounded_by_extremes(
            ps in proptest::collection::vec(0.001f64..1.0, 1..50),
        ) {
            let score = normalized_log_score(ps.iter().copied()).score.unwrap();
            let min_ln = ps.iter().copied().fold(f64::INFINITY, |a, p: f64| a.min(p.ln()));
            let max_ln = ps.iter().copied().fold(f64::NEG_INFINITY, |a, p: f64| a.max(p.ln()));
            prop_assert!(score >= min_ln - 1e-9);
            prop_assert!(score <= max_ln + 1e-9);
        }

        #[test]
        fn prop_score_monotone_in_each_probability(
            ps in proptest::collection::vec(0.01f64..0.99, 2..20),
            idx in 0usize..19,
        ) {
            let idx = idx % ps.len();
            let base = normalized_log_score(ps.iter().copied()).score.unwrap();
            let mut better = ps.clone();
            better[idx] = (better[idx] * 1.5).min(1.0);
            let improved = normalized_log_score(better).score.unwrap();
            prop_assert!(improved >= base);
        }
    }
}
