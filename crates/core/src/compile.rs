//! Compiling a scene into a factor graph (Section 4.3) — the reference
//! the scoring engine is checked against.
//!
//! *"To compile a scene, Fixy will create nodes for each observation and
//! feature distribution. Then, Fixy will create edges between each feature
//! distribution and the observation it applies over. If a feature
//! distribution applies to a group of observations (e.g., an observation
//! bundle or track), Fixy will create one edge between each observation in
//! the group and the feature distribution."*
//!
//! Ranking does not go through the graph: [`crate::score`] folds the same
//! factors from scene-wide factor columns, bit-identical to
//! [`CompiledScene::score`] under its precondition. The graph stays as the
//! paper's semantics spelled out, for the equivalence tests and figures.

use crate::error::FixyError;
use crate::feature::{FeatureKind, FeatureSet, FeatureTarget};
use crate::learner::FeatureLibrary;
use crate::scene::{ObsIdx, Scene};
use crate::score::{normalized_log_score, ComponentScore, Evaluator};

/// One compiled factor: which feature produced it and the AOF-transformed
/// probability it contributes.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorInfo {
    /// Index into the feature set this graph was compiled with.
    pub feature_index: usize,
    /// AOF-transformed probability in `[0, 1]`.
    pub probability: f64,
}

/// Index of a variable node: one per observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Index of a factor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactorId(pub usize);

/// The factor graph of a compiled scene (Section 2): a bipartite graph
/// `G = (X, F, E)` between observation variables `X` and factors `F`
/// (feature-distribution instances), with an edge from factor `f_j` to
/// variable `X_i` iff `X_i ∈ S_j` in the factorization
/// `g(X) = Π_j f_j(S_j)`. Edges only ever connect a factor to a
/// variable, so bipartiteness holds by construction.
///
/// Factor scopes live in one flat CSR arena (`scope_offsets` +
/// `scope_arena`) rather than a `Vec<Vec<VarId>>`: scopes are written once
/// and then only read, so the per-factor slices sit contiguous in one
/// allocation.
#[derive(Debug, Clone)]
pub struct SceneGraph {
    vars: Vec<ObsIdx>,
    factors: Vec<FactorInfo>,
    /// CSR offsets into `scope_arena`: factor `i`'s scope is
    /// `scope_arena[scope_offsets[i]..scope_offsets[i + 1]]`.
    scope_offsets: Vec<usize>,
    /// All factor scopes, concatenated in factor order.
    scope_arena: Vec<VarId>,
    /// Reverse adjacency (variable → incident factors).
    incident: Vec<Vec<FactorId>>,
}

impl SceneGraph {
    /// An empty graph, pre-allocated for an expected node count.
    pub fn with_capacity(vars: usize, factors: usize) -> Self {
        let mut scope_offsets = Vec::with_capacity(factors + 1);
        scope_offsets.push(0);
        SceneGraph {
            vars: Vec::with_capacity(vars),
            factors: Vec::with_capacity(factors),
            scope_offsets,
            scope_arena: Vec::with_capacity(2 * factors),
            incident: Vec::with_capacity(vars),
        }
    }

    /// Add the variable of an observation, returning its id.
    pub fn add_var(&mut self, obs: ObsIdx) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(obs);
        self.incident.push(Vec::new());
        id
    }

    /// Add a factor over `scope`, copied into the CSR arena, returning
    /// its id.
    ///
    /// # Panics
    ///
    /// If the scope is empty, names a variable that does not exist, or
    /// repeats a variable.
    pub fn add_factor_from_slice(&mut self, info: FactorInfo, scope: &[VarId]) -> FactorId {
        assert!(!scope.is_empty(), "factor scope must be non-empty");
        for (i, v) in scope.iter().enumerate() {
            assert!(v.0 < self.vars.len(), "unknown variable id {}", v.0);
            assert!(
                !scope[..i].contains(v),
                "variable {} appears twice in a factor scope",
                v.0
            );
        }
        let id = FactorId(self.factors.len());
        self.factors.push(info);
        for v in scope {
            self.incident[v.0].push(id);
        }
        self.scope_arena.extend_from_slice(scope);
        self.scope_offsets.push(self.scope_arena.len());
        id
    }

    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    /// The observation a variable stands for.
    pub fn var(&self, id: VarId) -> &ObsIdx {
        &self.vars[id.0]
    }

    pub fn factor(&self, id: FactorId) -> &FactorInfo {
        &self.factors[id.0]
    }

    /// The variables a factor touches.
    pub fn scope(&self, id: FactorId) -> &[VarId] {
        &self.scope_arena[self.scope_offsets[id.0]..self.scope_offsets[id.0 + 1]]
    }

    /// The factors incident to a variable.
    pub fn incident_factors(&self, id: VarId) -> &[FactorId] {
        &self.incident[id.0]
    }

    /// Iterate over factor ids.
    pub fn factor_ids(&self) -> impl Iterator<Item = FactorId> + '_ {
        (0..self.factors.len()).map(FactorId)
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

    /// Score a component of variables (Section 6): its factors'
    /// probabilities through [`normalized_log_score`], in ascending
    /// factor id order.
    pub fn score_component(&self, component: &[VarId]) -> ComponentScore {
        let factors = self.component_factors(component);
        normalized_log_score(factors.iter().map(|&f| self.factor(f).probability))
    }
}

/// A compiled scene: the graph and the observation → variable mapping.
#[derive(Debug, Clone)]
pub struct CompiledScene {
    pub graph: SceneGraph,
    /// `vars[i]` is the graph variable for `scene.observations[i]`.
    pub vars: Vec<VarId>,
}

impl CompiledScene {
    /// The graph variables of a set of observations.
    pub fn vars_of(&self, obs: &[ObsIdx]) -> Vec<VarId> {
        obs.iter().map(|o| self.vars[o.0]).collect()
    }

    /// The reference score of the candidate made of `obs`: the factors
    /// whose whole scope lies inside it, folded in ascending id order.
    pub fn score(&self, obs: &[ObsIdx]) -> ComponentScore {
        self.graph.score_component(&self.vars_of(obs))
    }
}

/// Visit every target of the given feature kind in a scene, along with the
/// observations a factor on that target would attach to.
pub fn for_each_target(
    scene: &Scene,
    kind: FeatureKind,
    mut visit: impl FnMut(FeatureTarget<'_>, &[ObsIdx]),
) {
    match kind {
        FeatureKind::Observation => {
            for obs in scene.observations() {
                visit(FeatureTarget::Obs(obs), std::slice::from_ref(&obs.idx));
            }
        }
        FeatureKind::Bundle => {
            for bundle in scene.bundles() {
                visit(FeatureTarget::Bundle(bundle), scene.bundle_obs(bundle.idx));
            }
        }
        FeatureKind::Transition => {
            let mut edges: Vec<ObsIdx> = Vec::new();
            for track in scene.tracks() {
                for pair in scene.track_bundles(track.idx).windows(2) {
                    let a = scene.bundle(pair[0]);
                    let b = scene.bundle(pair[1]);
                    let dt = (b.frame.0.saturating_sub(a.frame.0)) as f64 * scene.frame_dt;
                    edges.clear();
                    edges.extend_from_slice(scene.bundle_obs(a.idx));
                    edges.extend_from_slice(scene.bundle_obs(b.idx));
                    visit(FeatureTarget::Transition(a, b, dt), &edges);
                }
            }
        }
        FeatureKind::Track => {
            let mut edges: Vec<ObsIdx> = Vec::new();
            for track in scene.tracks() {
                edges.clear();
                edges.extend(scene.track_obs_iter(track.idx));
                visit(FeatureTarget::Track(track), &edges);
            }
        }
    }
}

/// Compile a scene against a feature set and fitted library.
///
/// Learned features missing from the library are an error; manual features
/// need no library entry. Targets where a feature returns `None` simply
/// get no factor.
pub fn compile_scene(
    scene: &Scene,
    features: &FeatureSet,
    library: &FeatureLibrary,
) -> Result<CompiledScene, FixyError> {
    // Validates up front, so the loop below cannot fail halfway.
    let ev = Evaluator::new(features, library)?;
    let mut graph =
        SceneGraph::with_capacity(scene.n_observations(), scene.n_observations() * features.len());
    let vars: Vec<VarId> = scene.observations().iter().map(|o| graph.add_var(o.idx)).collect();

    let mut scope: Vec<VarId> = Vec::new();
    for (feature_index, bf) in features.features.iter().enumerate() {
        for_each_target(scene, bf.feature.kind(), |target, edge_obs| {
            let Some(probability) = ev.eval(scene, feature_index, &target) else {
                return;
            };
            scope.clear();
            scope.extend(edge_obs.iter().map(|o| vars[o.0]));
            // Scene indices are in range by construction.
            graph.add_factor_from_slice(FactorInfo { feature_index, probability }, &scope);
        });
    }
    Ok(CompiledScene { graph, vars })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureSet;
    use crate::learner::Learner;
    use crate::scene::AssemblyConfig;
    use loa_data::{generate_scene, DatasetProfile, SceneData};
    use proptest::prelude::*;

    fn tiny(seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 4.0;
        cfg.lidar.beam_count = 240;
        generate_scene(&cfg, "compile-test", seed)
    }

    fn fit_library(scenes: &[SceneData]) -> FeatureLibrary {
        Learner::new().fit(&FeatureSet::paper_default(), scenes).unwrap()
    }

    #[test]
    fn graph_structure_matches_paper_semantics() {
        let data = tiny(1);
        let library = fit_library(std::slice::from_ref(&data));
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let compiled = compile_scene(&scene, &FeatureSet::paper_default(), &library).unwrap();

        // One variable per observation.
        assert_eq!(compiled.graph.var_count(), scene.n_observations());

        // Factor counts: volume + distance per obs, model_only per bundle,
        // velocity per transition, count per track.
        let n_obs = scene.n_observations();
        let n_bundles = scene.n_bundles();
        let n_transitions: usize = scene
            .tracks()
            .iter()
            .map(|t| scene.track_bundles(t.idx).len().saturating_sub(1))
            .sum();
        let n_tracks = scene.n_tracks();
        assert_eq!(
            compiled.graph.factor_count(),
            2 * n_obs + n_bundles + n_transitions + n_tracks
        );

        // Every factor's probability is a probability.
        for f in compiled.graph.factor_ids() {
            let info = compiled.graph.factor(f);
            assert!((0.0..=1.0).contains(&info.probability));
        }
    }

    #[test]
    fn bundle_factors_attach_to_all_members() {
        let data = tiny(2);
        let library = fit_library(std::slice::from_ref(&data));
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let features = FeatureSet::paper_default();
        let compiled = compile_scene(&scene, &features, &library).unwrap();
        // model_only is feature index 2 in the paper set.
        let mut checked = 0;
        for f in compiled.graph.factor_ids() {
            if compiled.graph.factor(f).feature_index == 2 {
                let scope_len = compiled.graph.scope(f).len();
                // Factor scope equals some bundle's member count.
                assert!(scene
                    .bundles()
                    .iter()
                    .any(|b| scene.bundle_obs(b.idx).len() == scope_len));
                checked += 1;
            }
        }
        assert_eq!(checked, scene.n_bundles());
    }

    #[test]
    fn missing_library_entry_is_an_error() {
        let data = tiny(3);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let empty = FeatureLibrary::default();
        let err = compile_scene(&scene, &FeatureSet::paper_default(), &empty).unwrap_err();
        assert!(matches!(err, FixyError::MissingDistribution { .. }));
    }

    #[test]
    fn for_each_target_transition_edges_cover_both_bundles() {
        let data = tiny(4);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        for_each_target(&scene, FeatureKind::Transition, |target, edges| {
            if let FeatureTarget::Transition(a, b, dt) = target {
                assert_eq!(
                    edges.len(),
                    scene.bundle_obs(a.idx).len() + scene.bundle_obs(b.idx).len()
                );
                assert!(dt > 0.0);
                assert!(a.frame.0 < b.frame.0);
            } else {
                panic!("wrong target kind");
            }
        });
    }

    #[test]
    fn empty_scene_compiles_to_empty_graph() {
        let scene = Scene::from_parts(vec![], vec![], vec![], 0.2, 0);
        let library = FeatureLibrary::default();
        // Learned features with no library entries fail — but an empty
        // feature set compiles fine.
        let compiled = compile_scene(&scene, &FeatureSet::default(), &library).unwrap();
        assert_eq!(compiled.graph.var_count(), 0);
        assert_eq!(compiled.graph.factor_count(), 0);
    }

    fn info(probability: f64) -> FactorInfo {
        FactorInfo { feature_index: 0, probability }
    }

    /// `n` variables plus one unary factor per variable and one
    /// pairwise factor per neighbouring pair.
    fn chain(n_vars: usize) -> SceneGraph {
        let mut g = SceneGraph::with_capacity(n_vars, 2 * n_vars);
        let vars: Vec<VarId> = (0..n_vars).map(|i| g.add_var(ObsIdx(i))).collect();
        for &v in &vars {
            g.add_factor_from_slice(info(0.5), &[v]);
        }
        for w in vars.windows(2) {
            g.add_factor_from_slice(info(0.5), w);
        }
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = chain(4);
        assert_eq!(g.var_count(), 4);
        assert_eq!(g.factor_count(), 7); // 4 unary + 3 pairwise
        let edges: usize = g.factor_ids().map(|f| g.scope(f).len()).sum();
        assert_eq!(edges, 4 + 6);
    }

    #[test]
    fn scope_and_incidence_are_consistent() {
        let g = chain(3);
        for f in g.factor_ids() {
            for &v in g.scope(f) {
                assert!(g.incident_factors(v).contains(&f));
            }
        }
        for v in (0..g.var_count()).map(VarId) {
            for &f in g.incident_factors(v) {
                assert!(g.scope(f).contains(&v));
            }
        }
    }

    #[test]
    fn add_factor_validation() {
        // Whether adding a factor over `scope` to a one-variable graph
        // panics.
        let rejects = |scope: &[VarId]| {
            let mut g = SceneGraph::with_capacity(1, 1);
            g.add_var(ObsIdx(0));
            std::panic::catch_unwind(move || {
                g.add_factor_from_slice(info(0.5), scope);
            })
            .is_err()
        };
        assert!(rejects(&[]), "empty scope");
        assert!(rejects(&[VarId(7)]), "unknown variable");
        assert!(rejects(&[VarId(0), VarId(0)]), "repeated variable");
        assert!(!rejects(&[VarId(0)]));
    }

    #[test]
    fn var_degree_counts_factors() {
        let g = chain(3);
        // Middle variable: 1 unary + 2 pairwise.
        assert_eq!(g.incident_factors(VarId(1)).len(), 3);
        assert_eq!(g.incident_factors(VarId(0)).len(), 2);
    }

    #[test]
    fn connected_components_split() {
        let mut g = SceneGraph::with_capacity(4, 1);
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| g.add_var(ObsIdx(i))); // d isolated
        g.add_factor_from_slice(info(0.5), &[a, b]);
        let comps = g.connected_components();
        assert_eq!(comps.len(), 3);
        assert!(comps.contains(&vec![a, b]));
        assert!(comps.contains(&vec![c]));
        assert!(comps.contains(&vec![d]));
    }

    #[test]
    fn payload_access() {
        let mut g = SceneGraph::with_capacity(1, 1);
        let v = g.add_var(ObsIdx(3));
        let f = g.add_factor_from_slice(info(0.5), &[v]);
        assert_eq!(*g.var(v), ObsIdx(3));
        assert_eq!(*g.factor(f), info(0.5));
    }

    #[test]
    fn empty_graph() {
        let g = SceneGraph::with_capacity(0, 0);
        assert_eq!(g.var_count(), 0);
        assert_eq!(g.connected_components().len(), 0);
    }

    proptest! {
        #[test]
        fn prop_components_partition_vars(n in 1usize..20, extra_edges in 0usize..10) {
            let mut g = SceneGraph::with_capacity(n, extra_edges);
            let vars: Vec<VarId> = (0..n).map(|i| g.add_var(ObsIdx(i))).collect();
            // Pseudo-random pairwise factors.
            for e in 0..extra_edges {
                let a = vars[(e * 7 + 1) % n];
                let b = vars[(e * 13 + 3) % n];
                if a != b {
                    g.add_factor_from_slice(info(0.5), &[a, b]);
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
