//! The bipartite factor-graph structure.

use serde::{Deserialize, Serialize};

/// Index of a variable node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub usize);

/// Index of a factor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FactorId(pub usize);

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphError {
    /// A factor referenced a variable id that does not exist.
    UnknownVariable(usize),
    /// A factor was added with an empty scope.
    EmptyScope,
    /// A factor's scope listed the same variable twice.
    DuplicateInScope(usize),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownVariable(v) => write!(f, "unknown variable id {v}"),
            GraphError::EmptyScope => write!(f, "factor scope must be non-empty"),
            GraphError::DuplicateInScope(v) => {
                write!(f, "variable {v} appears twice in a factor scope")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A bipartite factor graph with arbitrary variable payloads `V` and factor
/// payloads `F`.
///
/// Bipartiteness is structural: edges only ever connect a factor to a
/// variable, so the invariant cannot be violated by construction.
///
/// Factor scopes live in one flat CSR arena (`scope_offsets` +
/// `scope_arena`) rather than a `Vec<Vec<VarId>>`: scopes are written once
/// at `add_factor` time and then only ever read, so the flat layout trades
/// nothing and keeps the per-factor slices contiguous in one allocation —
/// the scoring sweep walks them cache-linearly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FactorGraph<V, F> {
    vars: Vec<V>,
    factors: Vec<F>,
    /// CSR offsets into `scope_arena`: factor `i`'s scope is
    /// `scope_arena[scope_offsets[i]..scope_offsets[i + 1]]`.
    scope_offsets: Vec<usize>,
    /// All factor scopes, concatenated in factor order.
    scope_arena: Vec<VarId>,
    /// Reverse adjacency (variable → incident factors).
    incident: Vec<Vec<FactorId>>,
}

impl<V, F> Default for FactorGraph<V, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, F> FactorGraph<V, F> {
    pub fn new() -> Self {
        FactorGraph {
            vars: Vec::new(),
            factors: Vec::new(),
            scope_offsets: vec![0],
            scope_arena: Vec::new(),
            incident: Vec::new(),
        }
    }

    /// Pre-allocate for an expected node count.
    pub fn with_capacity(vars: usize, factors: usize) -> Self {
        let mut scope_offsets = Vec::with_capacity(factors + 1);
        scope_offsets.push(0);
        FactorGraph {
            vars: Vec::with_capacity(vars),
            factors: Vec::with_capacity(factors),
            scope_offsets,
            scope_arena: Vec::with_capacity(2 * factors),
            incident: Vec::with_capacity(vars),
        }
    }

    /// Add a variable node, returning its id.
    pub fn add_var(&mut self, payload: V) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(payload);
        self.incident.push(Vec::new());
        id
    }

    /// Add a factor node with the given scope, returning its id.
    ///
    /// The scope must be non-empty, reference existing variables, and not
    /// repeat a variable.
    pub fn add_factor(&mut self, payload: F, scope: Vec<VarId>) -> Result<FactorId, GraphError> {
        self.add_factor_from_slice(payload, &scope)
    }

    /// [`add_factor`](Self::add_factor) without requiring an owned scope —
    /// the scope is copied straight into the CSR arena.
    pub fn add_factor_from_slice(
        &mut self,
        payload: F,
        scope: &[VarId],
    ) -> Result<FactorId, GraphError> {
        if scope.is_empty() {
            return Err(GraphError::EmptyScope);
        }
        for (i, v) in scope.iter().enumerate() {
            if v.0 >= self.vars.len() {
                return Err(GraphError::UnknownVariable(v.0));
            }
            if scope[..i].contains(v) {
                return Err(GraphError::DuplicateInScope(v.0));
            }
        }
        let id = FactorId(self.factors.len());
        self.factors.push(payload);
        for v in scope {
            self.incident[v.0].push(id);
        }
        self.scope_arena.extend_from_slice(scope);
        self.scope_offsets.push(self.scope_arena.len());
        Ok(id)
    }

    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    pub fn var(&self, id: VarId) -> &V {
        &self.vars[id.0]
    }

    pub fn var_mut(&mut self, id: VarId) -> &mut V {
        &mut self.vars[id.0]
    }

    pub fn factor(&self, id: FactorId) -> &F {
        &self.factors[id.0]
    }

    pub fn factor_mut(&mut self, id: FactorId) -> &mut F {
        &mut self.factors[id.0]
    }

    /// The variables a factor touches.
    pub fn scope(&self, id: FactorId) -> &[VarId] {
        &self.scope_arena[self.scope_offsets[id.0]..self.scope_offsets[id.0 + 1]]
    }

    /// The factors incident to a variable.
    pub fn incident_factors(&self, id: VarId) -> &[FactorId] {
        &self.incident[id.0]
    }

    /// Degree of a variable (number of incident factors).
    pub fn var_degree(&self, id: VarId) -> usize {
        self.incident[id.0].len()
    }

    /// Iterate over variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(VarId)
    }

    /// Iterate over factor ids.
    pub fn factor_ids(&self) -> impl Iterator<Item = FactorId> + '_ {
        (0..self.factors.len()).map(FactorId)
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.scope_arena.len()
    }

    /// Connected components over the bipartite graph, each reported as the
    /// set of variable ids it contains (sorted). Isolated variables form
    /// singleton components.
    pub fn connected_components(&self) -> Vec<Vec<VarId>> {
        let n = self.vars.len();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            stack.push(VarId(start));
            let mut comp = Vec::new();
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &f in &self.incident[v.0] {
                    for &w in self.scope(f) {
                        if !seen[w.0] {
                            seen[w.0] = true;
                            stack.push(w);
                        }
                    }
                }
            }
            comp.sort();
            components.push(comp);
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chain(n_vars: usize) -> FactorGraph<usize, &'static str> {
        // v0 - f01 - v1 - f12 - v2 ... plus a unary factor per variable.
        let mut g = FactorGraph::new();
        let vars: Vec<VarId> = (0..n_vars).map(|i| g.add_var(i)).collect();
        for &v in &vars {
            g.add_factor("unary", vec![v]).unwrap();
        }
        for w in vars.windows(2) {
            g.add_factor("pair", vec![w[0], w[1]]).unwrap();
        }
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = chain(4);
        assert_eq!(g.var_count(), 4);
        assert_eq!(g.factor_count(), 7); // 4 unary + 3 pairwise
        assert_eq!(g.edge_count(), 4 + 6);
    }

    #[test]
    fn scope_and_incidence_are_consistent() {
        let g = chain(3);
        for f in g.factor_ids() {
            for &v in g.scope(f) {
                assert!(g.incident_factors(v).contains(&f));
            }
        }
        for v in g.var_ids() {
            for &f in g.incident_factors(v) {
                assert!(g.scope(f).contains(&v));
            }
        }
    }

    #[test]
    fn add_factor_validation() {
        let mut g: FactorGraph<(), ()> = FactorGraph::new();
        let v = g.add_var(());
        assert_eq!(g.add_factor((), vec![]), Err(GraphError::EmptyScope));
        assert_eq!(g.add_factor((), vec![VarId(7)]), Err(GraphError::UnknownVariable(7)));
        assert_eq!(g.add_factor((), vec![v, v]), Err(GraphError::DuplicateInScope(0)));
        assert!(g.add_factor((), vec![v]).is_ok());
    }

    #[test]
    fn var_degree_counts_factors() {
        let g = chain(3);
        // Middle variable: 1 unary + 2 pairwise.
        assert_eq!(g.var_degree(VarId(1)), 3);
        assert_eq!(g.var_degree(VarId(0)), 2);
    }

    #[test]
    fn connected_components_split() {
        let mut g: FactorGraph<u32, ()> = FactorGraph::new();
        let a = g.add_var(0);
        let b = g.add_var(1);
        let c = g.add_var(2);
        let d = g.add_var(3); // isolated
        g.add_factor((), vec![a, b]).unwrap();
        let comps = g.connected_components();
        assert_eq!(comps.len(), 3);
        assert!(comps.contains(&vec![a, b]));
        assert!(comps.contains(&vec![c]));
        assert!(comps.contains(&vec![d]));
    }

    #[test]
    fn payload_access() {
        let mut g: FactorGraph<String, f64> = FactorGraph::new();
        let v = g.add_var("obs".into());
        let f = g.add_factor(0.5, vec![v]).unwrap();
        assert_eq!(g.var(v), "obs");
        assert_eq!(*g.factor(f), 0.5);
        *g.factor_mut(f) = 0.7;
        assert_eq!(*g.factor(f), 0.7);
        g.var_mut(v).push_str("ervation");
        assert_eq!(g.var(v), "observation");
    }

    #[test]
    fn empty_graph() {
        let g: FactorGraph<(), ()> = FactorGraph::new();
        assert_eq!(g.var_count(), 0);
        assert_eq!(g.connected_components().len(), 0);
    }

    proptest! {
        #[test]
        fn prop_components_partition_vars(n in 1usize..20, extra_edges in 0usize..10) {
            let mut g: FactorGraph<usize, usize> = FactorGraph::new();
            let vars: Vec<VarId> = (0..n).map(|i| g.add_var(i)).collect();
            // Pseudo-random pairwise factors.
            for e in 0..extra_edges {
                let a = vars[(e * 7 + 1) % n];
                let b = vars[(e * 13 + 3) % n];
                if a != b {
                    g.add_factor(e, vec![a, b]).unwrap();
                }
            }
            let comps = g.connected_components();
            let total: usize = comps.iter().map(Vec::len).sum();
            prop_assert_eq!(total, n);
            // No var appears in two components.
            let mut seen = std::collections::BTreeSet::new();
            for comp in &comps {
                for v in comp {
                    prop_assert!(seen.insert(*v));
                }
            }
        }
    }
}
