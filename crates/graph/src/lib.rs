//! Factor-graph substrate for the Fixy / Learned Observation Assertions
//! reproduction.
//!
//! Section 2 of the paper: a factor graph is a bipartite graph
//! `G = (X, F, E)` between random variables `X` (observations, in LOA) and
//! factors `F` (feature-distribution instances), with an edge from factor
//! `f_j` to variable `X_i` iff `X_i ∈ S_j` in the factorization
//! `g(X) = Π_j f_j(S_j)`.
//!
//! [`FactorGraph`] is the structure LOA scenes compile into (Section 4.3);
//! [`score`] implements the normalized log-likelihood scoring of Section 6
//! over it. Together they are the reference `fixy_core`'s scoring engine
//! is checked against; [`ComponentScore`] and [`normalized_log_score`]
//! are the score type and rule both share.

pub mod graph;
pub mod score;

pub use graph::{FactorGraph, FactorId, GraphError, VarId};
pub use score::{normalized_log_score, ComponentScore};
