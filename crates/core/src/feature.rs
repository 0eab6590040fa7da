//! The feature abstraction of the LOA DSL (Section 5).
//!
//! Features map OBTs to scalars. Fixy supports four kinds (Section 5.1):
//! over single observations, over observation bundles, over transitions
//! between adjacent bundles in a track, and over entire tracks.
//!
//! A feature either **learns** a distribution from historical data (the
//! default KDE path) or is **manual**: its value *is* a probability,
//! used for severity weighting and filtering (the paper's Distance,
//! Model-only, and Count features in Table 2).

use crate::aof::Aof;
use crate::scene::{Bundle, Observation, Scene, Track};
use loa_data::ObjectClass;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which OBT element a feature ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Features over single observations (e.g. box volume).
    Observation,
    /// Features over observation bundles (e.g. the model-only selector).
    Bundle,
    /// Features between adjacent bundles within a track (e.g. velocity).
    Transition,
    /// Features over entire tracks (e.g. observation count).
    Track,
}

impl FeatureKind {
    pub fn name(self) -> &'static str {
        match self {
            FeatureKind::Observation => "obs",
            FeatureKind::Bundle => "bundle",
            FeatureKind::Transition => "trans",
            FeatureKind::Track => "track",
        }
    }
}

/// The element a feature is evaluated on.
#[derive(Debug, Clone, Copy)]
pub enum FeatureTarget<'a> {
    Obs(&'a Observation),
    Bundle(&'a Bundle),
    /// Two adjacent bundles of the same track, earlier first, plus the
    /// time between them in seconds.
    Transition(&'a Bundle, &'a Bundle, f64),
    Track(&'a Track),
}

/// A computed feature value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureValue {
    /// The scalar feature value.
    pub x: f64,
    /// Class conditioning: when set, the value is learned/evaluated under
    /// the per-class distribution (with a pooled fallback).
    pub class: Option<ObjectClass>,
}

impl FeatureValue {
    pub fn scalar(x: f64) -> Self {
        FeatureValue { x, class: None }
    }

    pub fn class_conditional(x: f64, class: ObjectClass) -> Self {
        FeatureValue { x, class: Some(class) }
    }
}

/// How a feature's probability is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbabilityModel {
    /// Fit a KDE (default) over historical feature values — per class
    /// when the values carry a class.
    LearnedKde,
    /// The feature value already is a probability in `[0, 1]`.
    Manual,
}

/// A feature over OBTs.
///
/// Implementations provide the value computation; everything else
/// (learning, scoring, graph compilation) is generic. This mirrors the
/// paper's Python interface where users override only `feature(...)`.
pub trait Feature: Send + Sync {
    /// Unique feature name (keys the fitted library).
    fn name(&self) -> &str;

    /// Which element kind the feature ranges over.
    fn kind(&self) -> FeatureKind;

    /// How the probability is obtained.
    fn probability_model(&self) -> ProbabilityModel {
        ProbabilityModel::LearnedKde
    }

    /// Compute the feature value for a target, or `None` when the feature
    /// does not apply (wrong kind, missing inputs).
    fn value(&self, scene: &Scene, target: &FeatureTarget<'_>) -> Option<FeatureValue>;

    /// One-line description (Table 2).
    fn description(&self) -> &str {
        ""
    }
}

/// A feature bound to an application objective function.
#[derive(Clone)]
pub struct BoundFeature {
    pub feature: Arc<dyn Feature>,
    pub aof: Aof,
}

impl std::fmt::Debug for BoundFeature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundFeature")
            .field("feature", &self.feature.name())
            .field("kind", &self.feature.kind())
            .field("aof", &self.aof)
            .finish()
    }
}

impl BoundFeature {
    pub fn new(feature: Arc<dyn Feature>, aof: Aof) -> Self {
        BoundFeature { feature, aof }
    }

    /// Bind with the identity AOF.
    pub fn plain(feature: Arc<dyn Feature>) -> Self {
        BoundFeature { feature, aof: Aof::Identity }
    }
}

/// An ordered set of bound features — the unit the learner fits and the
/// compiler consumes.
#[derive(Debug, Clone, Default)]
pub struct FeatureSet {
    pub features: Vec<BoundFeature>,
}

impl FeatureSet {
    pub fn new(features: Vec<BoundFeature>) -> Self {
        FeatureSet { features }
    }

    /// The paper's Table 2 feature set: Volume (obs), Distance (obs),
    /// Model-only (bundle), Velocity (transition), Count (track).
    pub fn paper_default() -> Self {
        use crate::features::{
            CountFeature, DistanceFeature, ModelOnlyFeature, VelocityFeature, VolumeFeature,
        };
        FeatureSet::new(vec![
            BoundFeature::plain(Arc::new(VolumeFeature)),
            BoundFeature::plain(Arc::new(DistanceFeature::default())),
            BoundFeature::plain(Arc::new(ModelOnlyFeature)),
            BoundFeature::plain(Arc::new(VelocityFeature)),
            BoundFeature::plain(Arc::new(CountFeature::default())),
        ])
    }

    /// Only the learned features (those needing fitting).
    pub fn learned(&self) -> impl Iterator<Item = &BoundFeature> {
        self.features
            .iter()
            .filter(|bf| bf.feature.probability_model() != ProbabilityModel::Manual)
    }

    /// Find a bound feature by name.
    pub fn get(&self, name: &str) -> Option<&BoundFeature> {
        self.features.iter().find(|bf| bf.feature.name() == name)
    }

    pub fn len(&self) -> usize {
        self.features.len()
    }

    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl Feature for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn kind(&self) -> FeatureKind {
            FeatureKind::Observation
        }
        fn value(&self, _scene: &Scene, _target: &FeatureTarget<'_>) -> Option<FeatureValue> {
            Some(FeatureValue::scalar(1.0))
        }
    }

    #[test]
    fn feature_value_constructors() {
        let v = FeatureValue::scalar(3.5);
        assert_eq!(v.class, None);
        let c = FeatureValue::class_conditional(2.0, ObjectClass::Car);
        assert_eq!(c.class, Some(ObjectClass::Car));
        assert_eq!(c.x, 2.0);
    }

    #[test]
    fn paper_default_matches_table_2() {
        let set = FeatureSet::paper_default();
        assert_eq!(set.len(), 5);
        let names: Vec<&str> = set.features.iter().map(|bf| bf.feature.name()).collect();
        assert_eq!(names, vec!["volume", "distance", "model_only", "velocity", "count"]);
        let kinds: Vec<FeatureKind> = set.features.iter().map(|bf| bf.feature.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                FeatureKind::Observation,
                FeatureKind::Observation,
                FeatureKind::Bundle,
                FeatureKind::Transition,
                FeatureKind::Track,
            ]
        );
    }

    #[test]
    fn learned_filter_excludes_manual() {
        let set = FeatureSet::paper_default();
        let learned: Vec<&str> = set.learned().map(|bf| bf.feature.name()).collect();
        // Volume and velocity learn; distance/model_only/count are manual.
        assert_eq!(learned, vec!["volume", "velocity"]);
    }

    #[test]
    fn get_by_name() {
        let set = FeatureSet::paper_default();
        assert!(set.get("volume").is_some());
        assert!(set.get("nope").is_none());
    }

    #[test]
    fn bound_feature_debug_and_default_trait_methods() {
        let bf = BoundFeature::plain(Arc::new(Dummy));
        let dbg = format!("{bf:?}");
        assert!(dbg.contains("dummy"));
        assert_eq!(Dummy.probability_model(), ProbabilityModel::LearnedKde);
        assert_eq!(Dummy.description(), "");
        assert_eq!(FeatureKind::Transition.name(), "trans");
    }
}
