//! One-shot assignment between two sets scored by overlap.
//!
//! The paper associates observations greedily by box overlap, and that is
//! the one matcher here: highest score first, each side used at most once.
//!
//! Scores live in a [`ScoreMatrix`]: a flat, possibly-sparse collection of
//! explicitly scored pairs with known dimensions. Entries never pushed are
//! *implicitly below threshold* (score 0) — the representation the
//! spatially-pruned tracker produces, where only candidate pairs whose
//! AABBs overlap are ever scored. The tracker's dense reference pushes
//! every pair into the same matrix and runs the same
//! [`greedy_match_into`].

use serde::{Deserialize, Serialize};

/// One matched pair: `left[i] ↔ right[j]` with its score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Match {
    pub left: usize,
    pub right: usize,
    pub score: f64,
}

/// A flat score matrix between `rows` left items and `cols` right items.
///
/// Only explicitly [`push`](Self::push)ed pairs carry a score; every
/// other pair is an implicit 0 (below any positive matching threshold).
/// For overlap scores this is exact, not an approximation: a pair whose
/// AABBs do not intersect has IOU exactly 0.
#[derive(Debug, Clone, Default)]
pub struct ScoreMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<Match>,
}

impl ScoreMatrix {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear and set dimensions, keeping the entry allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.entries.clear();
    }

    /// Record the score of pair `(left, right)`.
    #[inline]
    pub fn push(&mut self, left: usize, right: usize, score: f64) {
        debug_assert!(left < self.rows && right < self.cols);
        self.entries.push(Match { left, right, score });
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The explicitly scored pairs, in push order.
    pub fn entries(&self) -> &[Match] {
        &self.entries
    }
}

/// Reusable buffers for [`greedy_match_into`] — the tracker calls the
/// matcher once per frame and keeps one of these per engine instead of
/// reallocating.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    pairs: Vec<Match>,
    used_left: Vec<bool>,
    used_right: Vec<bool>,
}

/// Greedy maximum-score-first matching over a [`ScoreMatrix`], into
/// caller-owned scratch and output buffers (both are cleared first).
///
/// Sorts all explicit pairs with a finite `score >= min_score` by
/// descending score and takes each pair whose endpoints are both unused.
/// Matches come out ordered by `(left, right)`.
///
/// When no row and no column holds two qualifying pairs, greedy takes
/// every qualifying pair whatever the order, so neither sort runs: the
/// output is the qualifying pairs themselves, sorted only if they were
/// not pushed in `(left, right)` order. The tracker's per-frame matrices
/// are nearly always of this kind.
pub fn greedy_match_into(
    scores: &ScoreMatrix,
    min_score: f64,
    scratch: &mut MatchScratch,
    out: &mut Vec<Match>,
) {
    scratch.used_left.clear();
    scratch.used_left.resize(scores.rows(), false);
    scratch.used_right.clear();
    scratch.used_right.resize(scores.cols(), false);
    out.clear();
    let (mut conflict, mut ascending) = (false, true);
    for &m in scores.entries() {
        if m.score >= min_score && m.score.is_finite() {
            conflict |= scratch.used_left[m.left] | scratch.used_right[m.right];
            scratch.used_left[m.left] = true;
            scratch.used_right[m.right] = true;
            ascending &= out
                .last()
                .is_none_or(|p: &Match| (p.left, p.right) < (m.left, m.right));
            out.push(m);
        }
    }
    if !conflict {
        if !ascending {
            out.sort_by_key(|m| (m.left, m.right));
        }
        return;
    }

    scratch.pairs.clear();
    scratch.pairs.append(out);
    // Descending by score; ties broken by indices for determinism.
    scratch.pairs.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then(a.left.cmp(&b.left))
            .then(a.right.cmp(&b.right))
    });
    scratch.used_left.fill(false);
    scratch.used_right.fill(false);
    for &m in &scratch.pairs {
        if !scratch.used_left[m.left] && !scratch.used_right[m.right] {
            scratch.used_left[m.left] = true;
            scratch.used_right[m.right] = true;
            out.push(m);
        }
    }
    out.sort_by_key(|m| (m.left, m.right));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn total(ms: &[Match]) -> f64 {
        ms.iter().map(|m| m.score).sum()
    }

    /// Every pair of `rows` scored explicitly.
    fn dense(rows: &[Vec<f64>]) -> ScoreMatrix {
        let mut m = ScoreMatrix::new();
        m.reset(rows.len(), rows.iter().map(Vec::len).max().unwrap_or(0));
        for (i, row) in rows.iter().enumerate() {
            for (j, &s) in row.iter().enumerate() {
                m.push(i, j, s);
            }
        }
        m
    }

    /// [`greedy_match_into`] through fresh buffers.
    fn greedy(scores: &ScoreMatrix, min_score: f64) -> Vec<Match> {
        let mut out = Vec::new();
        greedy_match_into(scores, min_score, &mut MatchScratch::default(), &mut out);
        out
    }

    /// Greedy matching over nested rows, every pair explicit.
    fn greedy_rows(rows: &[Vec<f64>], min_score: f64) -> Vec<Match> {
        greedy(&dense(rows), min_score)
    }

    /// Exhaustive optimal assignment for small matrices (≤ ~6×6).
    fn brute_force_best(scores: &[Vec<f64>], min_score: f64) -> f64 {
        fn rec(scores: &[Vec<f64>], row: usize, used: &mut Vec<bool>, min_score: f64) -> f64 {
            if row == scores.len() {
                return 0.0;
            }
            // Option: leave this row unmatched.
            let mut best = rec(scores, row + 1, used, min_score);
            for j in 0..scores[row].len() {
                if !used[j] && scores[row][j] >= min_score {
                    used[j] = true;
                    best = best.max(scores[row][j] + rec(scores, row + 1, used, min_score));
                    used[j] = false;
                }
            }
            best
        }
        let m = scores.iter().map(Vec::len).max().unwrap_or(0);
        rec(scores, 0, &mut vec![false; m], min_score)
    }

    #[test]
    fn empty_inputs() {
        assert!(greedy_rows(&[], 0.5).is_empty());
        let no_cols: Vec<Vec<f64>> = vec![vec![], vec![]];
        assert!(greedy_rows(&no_cols, 0.5).is_empty());
        assert!(greedy(&ScoreMatrix::new(), 0.0).is_empty());
    }

    #[test]
    fn simple_diagonal() {
        let scores = vec![vec![0.9, 0.1], vec![0.2, 0.8]];
        let ms = greedy_rows(&scores, 0.5);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0], Match { left: 0, right: 0, score: 0.9 });
        assert_eq!(ms[1], Match { left: 1, right: 1, score: 0.8 });
    }

    #[test]
    fn threshold_filters_pairs() {
        let scores = vec![vec![0.4]];
        assert!(greedy_rows(&scores, 0.5).is_empty());
        assert_eq!(greedy_rows(&scores, 0.3).len(), 1);
    }

    #[test]
    fn rectangular_more_rows_than_cols() {
        let scores = vec![vec![0.9], vec![0.8], vec![0.7]];
        let g = greedy_rows(&scores, 0.1);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].left, 0);
    }

    #[test]
    fn rectangular_more_cols_than_rows() {
        let scores = vec![vec![0.1, 0.9, 0.3]];
        let g = greedy_rows(&scores, 0.05);
        assert_eq!(g, vec![Match { left: 0, right: 1, score: 0.9 }]);
    }

    #[test]
    fn matching_is_one_to_one() {
        let scores = vec![vec![0.9, 0.9, 0.9], vec![0.9, 0.9, 0.9], vec![0.9, 0.9, 0.9]];
        let ms = greedy_rows(&scores, 0.5);
        assert_eq!(ms.len(), 3);
        let mut lefts: Vec<_> = ms.iter().map(|m| m.left).collect();
        let mut rights: Vec<_> = ms.iter().map(|m| m.right).collect();
        lefts.dedup();
        rights.sort();
        rights.dedup();
        assert_eq!(lefts.len(), 3);
        assert_eq!(rights.len(), 3);
    }

    #[test]
    fn sparse_matrix_equals_dense_when_omissions_are_zero() {
        // A sparse matrix that skips exactly the zero entries must match
        // the dense formulation — the contract the spatially-pruned
        // tracker relies on.
        let dense_rows = vec![vec![0.7, 0.0, 0.2], vec![0.0, 0.0, 0.9], vec![0.3, 0.6, 0.0]];
        let mut sparse = ScoreMatrix::new();
        sparse.reset(3, 3);
        for (i, row) in dense_rows.iter().enumerate() {
            for (j, &s) in row.iter().enumerate() {
                if s != 0.0 {
                    sparse.push(i, j, s);
                }
            }
        }
        // Equivalence needs a positive threshold: at 0.0 the dense form
        // admits explicit zero-score pairs the sparse form never sees.
        for min in [0.1, 0.5] {
            assert_eq!(
                greedy(&sparse, min),
                greedy_rows(&dense_rows, min),
                "greedy at min {min}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        // A conflicting matrix (the sorting path) and a conflict-free
        // one (the shortcut), alternately through one warm scratch.
        let conflicting = dense(&[vec![0.9, 0.8], vec![0.8, 0.1]]);
        let diagonal = dense(&[vec![0.9, 0.0], vec![0.0, 0.8]]);
        let mut scratch = MatchScratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            for m in [&conflicting, &diagonal] {
                greedy_match_into(m, 0.05, &mut scratch, &mut out);
                assert_eq!(out, greedy(m, 0.05));
            }
        }
    }

    /// The sort-everything greedy the conflict-free shortcut must
    /// reproduce: qualifying pairs by descending score (ties by indices),
    /// each taken when both ends are free, output by `(left, right)`.
    fn greedy_sorted(scores: &ScoreMatrix, min_score: f64) -> Vec<Match> {
        let mut pairs: Vec<Match> = scores
            .entries()
            .iter()
            .copied()
            .filter(|m| m.score >= min_score && m.score.is_finite())
            .collect();
        pairs.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.left.cmp(&b.left))
                .then(a.right.cmp(&b.right))
        });
        let (mut used_l, mut used_r) = (vec![false; scores.rows()], vec![false; scores.cols()]);
        let mut out: Vec<Match> = pairs
            .into_iter()
            .filter(|m| {
                let free = !used_l[m.left] && !used_r[m.right];
                if free {
                    used_l[m.left] = true;
                    used_r[m.right] = true;
                }
                free
            })
            .collect();
        out.sort_by_key(|m| (m.left, m.right));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_greedy_is_one_to_one_within_optimum(
            rows in 1usize..6, cols in 1usize..6, seed in 0u64..10_000,
        ) {
            let mut state = seed.wrapping_add(13);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 1000) as f64 / 1000.0
            };
            let scores: Vec<Vec<f64>> =
                (0..rows).map(|_| (0..cols).map(|_| next()).collect()).collect();
            let g = greedy_rows(&scores, 0.0);
            prop_assert!(total(&g) <= brute_force_best(&scores, 0.0) + 1e-9);
            let mut seen_l = std::collections::BTreeSet::new();
            let mut seen_r = std::collections::BTreeSet::new();
            for m in &g {
                prop_assert!(seen_l.insert(m.left));
                prop_assert!(seen_r.insert(m.right));
            }
        }

        #[test]
        fn prop_unsorted_shortcut_equals_sorted_greedy(
            rows in 1usize..7, cols in 1usize..7, seed in 0u64..20_000,
            one_to_one in any::<bool>(), shuffle in any::<bool>(),
        ) {
            // Qualifying scores (at or above 0.4, finite) either sit on a
            // partial one-to-one matching — no row or column holds two, so
            // greedy may skip its sorts — or anywhere, with row and column
            // conflicts. The palette has scores equal to the threshold,
            // ties, and NaN/±∞ entries; the push order is row-major or
            // shuffled (as the grid path pushes it).
            const MIN: f64 = 0.4;
            const QUALIFYING: [f64; 6] = [MIN, MIN, 0.9, 0.9, 0.6, 1.0];
            const OTHER: [f64; 5] = [0.1, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(5);
            let mut next = |n: usize| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % n as u64) as usize
            };
            let mut entries = Vec::new();
            if one_to_one {
                let mut perm: Vec<usize> = (0..cols).collect();
                for i in (1..cols).rev() {
                    perm.swap(i, next(i + 1));
                }
                for (i, &j) in perm.iter().enumerate().take(rows) {
                    if next(4) != 0 {
                        entries.push((i, j, QUALIFYING[next(QUALIFYING.len())]));
                    }
                }
                for _ in 0..next(8) {
                    entries.push((next(rows), next(cols), OTHER[next(OTHER.len())]));
                }
            } else {
                for i in 0..rows {
                    for j in 0..cols {
                        if next(3) != 0 {
                            let k = next(QUALIFYING.len() + OTHER.len());
                            let score = if k < QUALIFYING.len() {
                                QUALIFYING[k]
                            } else {
                                OTHER[k - QUALIFYING.len()]
                            };
                            entries.push((i, j, score));
                        }
                    }
                }
            }
            if shuffle {
                for i in (1..entries.len()).rev() {
                    entries.swap(i, next(i + 1));
                }
            } else {
                entries.sort_by_key(|&(i, j, _)| (i, j));
            }
            let mut m = ScoreMatrix::new();
            m.reset(rows, cols);
            for (i, j, score) in entries {
                m.push(i, j, score);
            }
            prop_assert_eq!(greedy(&m, MIN), greedy_sorted(&m, MIN));
        }

        #[test]
        fn prop_sparse_skip_zeros_equals_dense(
            rows in 1usize..6, cols in 1usize..6, seed in 0u64..10_000,
            min_pct in 1usize..60,
        ) {
            // Random matrices with plenty of exact zeros: the sparse
            // (zeros omitted) and dense paths must agree at any positive
            // threshold (the tracker's regime — at exactly 0, dense greedy
            // admits zero-score pairs).
            let mut state = seed.wrapping_add(99);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((state >> 33) % 1000) as f64 / 1000.0;
                if v < 0.4 { 0.0 } else { v }
            };
            let scores: Vec<Vec<f64>> =
                (0..rows).map(|_| (0..cols).map(|_| next()).collect()).collect();
            let mut sparse = ScoreMatrix::new();
            sparse.reset(rows, cols);
            for (i, row) in scores.iter().enumerate() {
                for (j, &s) in row.iter().enumerate() {
                    if s != 0.0 {
                        sparse.push(i, j, s);
                    }
                }
            }
            let min = min_pct as f64 / 100.0;
            prop_assert_eq!(greedy(&sparse, min), greedy_rows(&scores, min));
        }
    }
}
