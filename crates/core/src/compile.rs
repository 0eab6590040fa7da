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
//! factors from per-track stores, bit-identical to
//! [`CompiledScene::score`] under its precondition. The graph stays as the
//! paper's semantics spelled out, for the equivalence tests and figures.

use crate::error::FixyError;
use crate::feature::{FeatureKind, FeatureSet, FeatureTarget};
use crate::learner::FeatureLibrary;
use crate::scene::{ObsIdx, Scene};
use crate::score::Evaluator;
use loa_graph::{ComponentScore, FactorGraph, VarId};
use serde::{Deserialize, Serialize};

/// One compiled factor: which feature produced it and the AOF-transformed
/// probability it contributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorInfo {
    /// Index into the feature set this graph was compiled with.
    pub feature_index: usize,
    /// AOF-transformed probability in `[0, 1]`.
    pub probability: f64,
}

/// The factor graph of a compiled scene: variables are observations.
pub type SceneGraph = FactorGraph<ObsIdx, FactorInfo>;

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
        self.graph
            .score_component(&self.vars_of(obs), |info| info.probability)
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
    let mut graph: SceneGraph =
        FactorGraph::with_capacity(scene.n_observations(), scene.n_observations() * features.len());
    let vars: Vec<VarId> = scene.observations().iter().map(|o| graph.add_var(o.idx)).collect();

    let mut scope: Vec<VarId> = Vec::new();
    for (feature_index, bf) in features.features.iter().enumerate() {
        for_each_target(scene, bf.feature.kind(), |target, edge_obs| {
            let Some(probability) = ev.eval(scene, feature_index, &target) else {
                return;
            };
            scope.clear();
            scope.extend(edge_obs.iter().map(|o| vars[o.0]));
            graph
                .add_factor_from_slice(FactorInfo { feature_index, probability }, &scope)
                .expect("scene indices are in range by construction");
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
}
