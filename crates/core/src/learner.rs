//! Offline distribution learning (Section 5.2).
//!
//! *"Fixy takes already-present labels to learn feature distributions …
//! To learn feature distributions given a set of scenes, Fixy first
//! exhaustively generates the features over the data and collects the
//! scalar or vector values. Then, for each feature, Fixy executes the
//! fitting function over the scalar/vector values."* Every shipped
//! feature is scalar, and its fitting function is the KDE: one pooled
//! [`Kde1d`], plus one per class with enough samples when the values
//! carry a class.
//!
//! Training scenes are assembled from **human labels only** — the
//! organizational resource is the existing (possibly noisy) labeled data,
//! which comes at no additional cost.
//!
//! # Cost and schedule
//!
//! Values are collected in one sequential pass: one target traversal
//! per feature kind, every feature of that kind collecting its values
//! in the same walk, in (scene, target) order. The features are then
//! fitted as independent jobs on [`pool_map`], one per learned feature
//! in declaration order, with [`worker_count`] workers capped at the
//! job count. Each job sorts its feature's values **once**: a plain
//! feature's KDE reads its bandwidth's IQR off the sorted copy it keeps
//! ([`Kde1d::fit`]); a class-conditional feature folds the pooled and
//! every class's σ̂ in one input-order pass, stably sorts its
//! `(value, class)` pairs and splits the sorted run per class, so no
//! class is copied or sorted again ([`Kde1d::fit_sorted`]). Collection
//! stays on the calling thread: collected on workers, the per-scene
//! value lists raised the benchmark's peak RSS by more than its noise.
//!
//! **Bit identity.** The schedule never changes the bytes. Every
//! feature's values keep their sequential order, σ̂ is folded in that
//! order, and the sort is the stable `partial_cmp` sort, so the kept
//! samples, bandwidths and grids are those of a one-thread fit at any
//! worker count (`fit_is_bit_identical_at_any_worker_count`, and the
//! pinned library digests in `tests/fuzz_conformance.rs`). Errors
//! follow declaration order too: [`pool_map`] returns the lowest-index
//! failure, and jobs are listed only up to the first feature without
//! values, whose [`FixyError::NoTrainingData`] is returned only when no
//! earlier feature's fit failed.
//!
//! **No nesting.** A fit starts its own pool, so it must not run inside
//! a [`pool_map`] worker: that would multiply the thread count by the
//! worker count. No caller does — [`Learner::fit`] assembles on its
//! pool before it fits, and the `loa_eval` experiments fit before their
//! parallel scene maps — and a new caller should fit first, then fan
//! out.

use crate::compile::for_each_target;
use crate::error::FixyError;
use crate::feature::{FeatureSet, FeatureValue};
use crate::pipeline::{pool_map, worker_count};
use crate::scene::{AssemblyConfig, Scene};
use loa_data::{ObjectClass, SceneData};
use loa_stats::summary::Welford;
use loa_stats::{Density1d, FitError, Kde1d};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// Minimum per-class sample count before a class gets its own
/// distribution (smaller classes fall back to the pooled fit).
const MIN_CLASS_SAMPLES: usize = 8;

/// Number of object classes, the length of per-class arrays.
const N_CLASSES: usize = ObjectClass::ALL.len();

/// A fitted feature distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FittedDistribution {
    /// Per-class KDEs with a pooled fallback (class-conditional features).
    ClassConditional { per_class: BTreeMap<ObjectClass, Kde1d>, pooled: Kde1d },
    /// A single pooled KDE.
    Kde(Kde1d),
}

impl FittedDistribution {
    /// Relative likelihood of a feature value in `(0, 1]`.
    ///
    /// KDEs are read off their scoring grids ([`Kde1d::grid`]): an
    /// evaluation is a bin lookup plus a linear interpolation instead of
    /// an `O(window)` kernel sum, which is what makes scene scoring cheap
    /// enough to sweep fleets of scenes (Section 8.1's "nine minutes for
    /// 1,000 scenes" regime).
    pub fn probability(&self, value: &FeatureValue) -> f64 {
        match self {
            FittedDistribution::ClassConditional { per_class, pooled } => {
                if let Some(class) = value.class {
                    if let Some(kde) = per_class.get(&class) {
                        return kde.grid().relative_likelihood(value.x);
                    }
                }
                pooled.grid().relative_likelihood(value.x)
            }
            FittedDistribution::Kde(kde) => kde.grid().relative_likelihood(value.x),
        }
    }

    /// Number of training samples behind the fit.
    pub fn sample_count(&self) -> usize {
        match self {
            FittedDistribution::ClassConditional { pooled, .. } => pooled.len(),
            FittedDistribution::Kde(kde) => kde.len(),
        }
    }
}

/// The fitted distributions, keyed by feature name.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FeatureLibrary {
    map: BTreeMap<String, FittedDistribution>,
}

impl FeatureLibrary {
    pub fn get(&self, feature: &str) -> Option<&FittedDistribution> {
        self.map.get(feature)
    }

    pub fn insert(&mut self, feature: String, dist: FittedDistribution) {
        self.map.insert(feature, dist);
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn feature_names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Iterate `(name, fitted)` entries in key order — the stable order
    /// the binary codec writes entries in.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &FittedDistribution)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// The offline learner.
#[derive(Debug, Clone)]
pub struct Learner {
    /// How training scenes are assembled. Default: human labels only.
    pub assembly: AssemblyConfig,
}

impl Default for Learner {
    fn default() -> Self {
        Self::new()
    }
}

impl Learner {
    pub fn new() -> Self {
        Learner { assembly: AssemblyConfig::human_only() }
    }

    /// Fit all learned features in `features` over raw training scenes.
    ///
    /// The scenes are assembled on [`pool_map`], in input order, before
    /// the fit; see [`fit_assembled`](Self::fit_assembled) for the rest.
    pub fn fit(
        &self,
        features: &FeatureSet,
        scenes: &[SceneData],
    ) -> Result<FeatureLibrary, FixyError> {
        self.fit_with_workers(worker_count(), features, scenes)
    }

    /// [`fit`](Self::fit) on `workers` workers (the public entry points
    /// take [`worker_count`]; tests pin it).
    fn fit_with_workers(
        &self,
        workers: usize,
        features: &FeatureSet,
        scenes: &[SceneData],
    ) -> Result<FeatureLibrary, FixyError> {
        let assembled = pool_map(workers.min(scenes.len()), scenes, |_, scene| {
            Ok::<_, Infallible>(Scene::assemble(scene, &self.assembly))
        })
        .unwrap_or_else(|never| match never {});
        self.fit_assembled_with_workers(workers, features, &assembled)
    }

    /// Fit over already-assembled scenes.
    ///
    /// Sample collection makes one target traversal per *feature kind*
    /// rather than one per feature: every feature ranging over (say)
    /// tracks collects its values in the same walk, so adding features
    /// to an application costs fits, not scene re-traversals. Each
    /// feature's sample sequence (scene order, target order) is
    /// identical to a per-feature walk, so the fitted distributions are
    /// bit-identical.
    ///
    /// The features are then fitted on [`pool_map`] with
    /// [`worker_count`] workers; the library is bit-identical at any
    /// count (module doc).
    pub fn fit_assembled(
        &self,
        features: &FeatureSet,
        scenes: &[Scene],
    ) -> Result<FeatureLibrary, FixyError> {
        self.fit_assembled_with_workers(worker_count(), features, scenes)
    }

    /// [`fit_assembled`](Self::fit_assembled) on `workers` workers.
    fn fit_assembled_with_workers(
        &self,
        workers: usize,
        features: &FeatureSet,
        scenes: &[Scene],
    ) -> Result<FeatureLibrary, FixyError> {
        use crate::feature::FeatureKind;

        let learned: Vec<_> = features.learned().collect();
        let mut values: Vec<Vec<FeatureValue>> = vec![Vec::new(); learned.len()];
        for kind in [
            FeatureKind::Observation,
            FeatureKind::Bundle,
            FeatureKind::Transition,
            FeatureKind::Track,
        ] {
            let of_kind: Vec<usize> = learned
                .iter()
                .enumerate()
                .filter(|(_, bf)| bf.feature.kind() == kind)
                .map(|(i, _)| i)
                .collect();
            if of_kind.is_empty() {
                continue;
            }
            for scene in scenes {
                for_each_target(scene, kind, |target, _edges| {
                    for &i in &of_kind {
                        if let Some(v) = learned[i].feature.value(scene, &target) {
                            values[i].push(v);
                        }
                    }
                });
            }
        }

        // One job per feature, in declaration order, up to the first
        // feature without values: its `NoTrainingData` is the error
        // unless an earlier feature's fit fails first, as in a
        // feature-by-feature walk.
        let with_values = values.iter().position(Vec::is_empty).unwrap_or(values.len());
        let name = |i: usize| learned[i].feature.name().to_string();
        let fitted = pool_map(workers.min(with_values), &values[..with_values], |i, values| {
            fit_feature(values).map_err(|error| FixyError::Fit { feature: name(i), error })
        })?;
        if with_values < learned.len() {
            return Err(FixyError::NoTrainingData { feature: name(with_values) });
        }
        let mut library = FeatureLibrary::default();
        for (i, dist) in fitted.into_iter().enumerate() {
            library.insert(name(i), dist);
        }
        Ok(library)
    }
}

/// Fit one learned feature's values: a pooled KDE, and per-class KDEs
/// beside it when any value carries a class.
///
/// The values are sorted once. A class-conditional feature folds the
/// pooled and every class's σ̂ in one pass in input order, stably sorts
/// the values' indices by value, and splits the sorted run per class: a
/// stable sort filtered to one class is that class's own stable sort,
/// so each KDE is bit-identical to [`Kde1d::fit`] of its values.
fn fit_feature(values: &[FeatureValue]) -> Result<FittedDistribution, FitError> {
    if !values.iter().any(|v| v.class.is_some()) {
        let xs: Vec<f64> = values.iter().map(|v| v.x).collect();
        return Kde1d::fit(&xs).map(FittedDistribution::Kde);
    }
    // The sort's comparator needs finite values; this is `Kde1d::fit`'s
    // check (the values are never empty here).
    if values.iter().any(|v| !v.x.is_finite()) {
        return Err(FitError::NonFiniteSample);
    }
    let mut pooled_spread = Welford::new();
    let mut class_spread = [Welford::new(); N_CLASSES];
    for v in values {
        pooled_spread.push(v.x);
        if let Some(class) = v.class {
            class_spread[class.index()].push(v.x);
        }
    }
    // The stable sort permutes indices, not `(value, class)` pairs: the
    // same order, in a quarter of the memory (and of the sort's scratch).
    let n = u32::try_from(values.len()).expect("fewer than 2³² values per feature");
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by(|&a, &b| {
        values[a as usize]
            .x
            .partial_cmp(&values[b as usize].x)
            .expect("finite")
    });

    // Split the sorted run for the classes that get their own KDE.
    let fitted_class = |c: usize| class_spread[c].count() >= MIN_CLASS_SAMPLES as u64;
    let mut class_sorted: [Vec<f64>; N_CLASSES] = std::array::from_fn(|c| {
        Vec::with_capacity(if fitted_class(c) { class_spread[c].count() as usize } else { 0 })
    });
    for &i in &order {
        let v = values[i as usize];
        if let Some(class) = v.class.filter(|c| fitted_class(c.index())) {
            class_sorted[class.index()].push(v.x);
        }
    }
    let sorted: Vec<f64> = order.iter().map(|&i| values[i as usize].x).collect();
    drop(order);
    let pooled = Kde1d::fit_sorted(sorted, &pooled_spread)?;
    let mut per_class = BTreeMap::new();
    for (c, xs) in class_sorted.into_iter().enumerate().filter(|&(c, _)| fitted_class(c)) {
        per_class.insert(ObjectClass::ALL[c], Kde1d::fit_sorted(xs, &class_spread[c])?);
    }
    Ok(FittedDistribution::ClassConditional { per_class, pooled })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureSet;
    use loa_data::{generate_scene, DatasetProfile};

    fn training_scenes(n: usize) -> Vec<SceneData> {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 5.0;
        cfg.lidar.beam_count = 240;
        (0..n)
            .map(|i| generate_scene(&cfg, &format!("train-{i}"), 1000 + i as u64))
            .collect()
    }

    #[test]
    fn fit_paper_features() {
        let scenes = training_scenes(2);
        let library = Learner::new().fit(&FeatureSet::paper_default(), &scenes).unwrap();
        // Learned: volume, velocity. Manual features are absent.
        assert_eq!(library.len(), 2);
        assert!(library.get("volume").is_some());
        assert!(library.get("velocity").is_some());
        assert!(library.get("distance").is_none());
        assert!(library.get("model_only").is_none());
    }

    #[test]
    fn volume_distribution_is_class_conditional_and_sane() {
        let scenes = training_scenes(3);
        let library = Learner::new().fit(&FeatureSet::paper_default(), &scenes).unwrap();
        let vol = library.get("volume").unwrap();
        match vol {
            FittedDistribution::ClassConditional { per_class, pooled } => {
                assert!(!per_class.is_empty());
                assert!(pooled.len() > 50);
            }
            other => panic!("expected class-conditional, got {other:?}"),
        }
        // A car-sized volume is likely under the car distribution; an
        // absurd volume is not.
        let car_vol = FeatureValue::class_conditional(4.6 * 1.9 * 1.7, ObjectClass::Car);
        let absurd = FeatureValue::class_conditional(500.0, ObjectClass::Car);
        assert!(vol.probability(&car_vol) > 0.05);
        assert!(vol.probability(&absurd) < 1e-3);
        assert!(vol.probability(&car_vol) > 20.0 * vol.probability(&absurd));
    }

    #[test]
    fn velocity_distribution_prefers_plausible_speeds() {
        let scenes = training_scenes(3);
        let library = Learner::new().fit(&FeatureSet::paper_default(), &scenes).unwrap();
        let vel = library.get("velocity").unwrap();
        // 300 mph (~134 m/s) must be far less likely than 30 mph (~13 m/s)
        // — the abstract's motivating example.
        let normal = FeatureValue::class_conditional(13.0, ObjectClass::Car);
        let absurd = FeatureValue::class_conditional(134.0, ObjectClass::Car);
        assert!(vel.probability(&normal) > 100.0 * vel.probability(&absurd));
    }

    #[test]
    fn unknown_class_falls_back_to_pooled() {
        let scenes = training_scenes(2);
        let library = Learner::new().fit(&FeatureSet::paper_default(), &scenes).unwrap();
        let vol = library.get("volume").unwrap();
        // Query without class conditioning uses the pooled distribution
        // and still returns something sane.
        let p = vol.probability(&FeatureValue::scalar(14.0));
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn shared_traversal_fit_matches_per_feature_fits() {
        // The one-traversal-per-kind collection must fit bit-identical
        // distributions to fitting each feature alone (its own
        // traversal): sample order per feature is unchanged.
        let scenes = training_scenes(2);
        let set = FeatureSet::paper_default();
        let library = Learner::new().fit(&set, &scenes).unwrap();
        for bf in set.learned() {
            let name = bf.feature.name();
            let solo = Learner::new()
                .fit(&FeatureSet::new(vec![bf.clone()]), &scenes)
                .unwrap();
            let a = serde::Serialize::to_json_value(library.get(name).unwrap());
            let b = serde::Serialize::to_json_value(solo.get(name).unwrap());
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{name} diverged under the shared traversal"
            );
        }
    }

    #[test]
    fn empty_training_set_fails_cleanly() {
        let err = Learner::new().fit(&FeatureSet::paper_default(), &[]).unwrap_err();
        assert!(matches!(err, FixyError::NoTrainingData { .. }));
    }

    #[test]
    fn fit_is_bit_identical_at_any_worker_count() {
        // The fan-out changes the schedule, never the bytes: each KDE is
        // one job over its own value list, and results go back in job
        // order.
        let scenes = training_scenes(2);
        for app in crate::apps::App::ALL {
            let learner = Learner { assembly: app.train_assembly() };
            let bytes = |workers| {
                let library = learner.fit_with_workers(workers, &app.feature_set(), &scenes);
                crate::flcb::encode_library(app.name(), &library.unwrap())
            };
            let one = bytes(1);
            assert_eq!(bytes(2), one, "{} at 2 workers", app.name());
            assert_eq!(bytes(8), one, "{} at 8 workers", app.name());
        }
    }

    #[test]
    fn split_class_fits_equal_each_class_fit_alone() {
        // Ties across classes and signed zeros: the split of the stably
        // sorted pairs must keep each class's input order among equal
        // values, as the class's own stable sort does.
        let classes = [ObjectClass::Car, ObjectClass::Truck, ObjectClass::Bus];
        let values: Vec<FeatureValue> = (0..200u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                let x = match h % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (h % 17) as f64 - 6.0,
                };
                FeatureValue::class_conditional(x, classes[(h % 3) as usize])
            })
            .collect();
        let bits = |kde: &Kde1d| {
            let mut out: Vec<u64> = kde.samples().iter().map(|x| x.to_bits()).collect();
            out.extend([kde.bandwidth_value().to_bits(), kde.max_density().to_bits()]);
            out
        };
        let FittedDistribution::ClassConditional { per_class, pooled } =
            fit_feature(&values).unwrap()
        else {
            panic!("class-conditional values fit a class-conditional distribution")
        };
        let xs: Vec<f64> = values.iter().map(|v| v.x).collect();
        assert_eq!(bits(&pooled), bits(&Kde1d::fit(&xs).unwrap()));
        assert_eq!(per_class.len(), classes.len());
        for (class, kde) in &per_class {
            let own: Vec<f64> = values
                .iter()
                .filter(|v| v.class == Some(*class))
                .map(|v| v.x)
                .collect();
            assert_eq!(bits(kde), bits(&Kde1d::fit(&own).unwrap()), "{class:?}");
        }
    }

    /// A learned observation feature: the observation's volume, or NaN
    /// for cars when `poisoned`.
    struct VolumeOrNan {
        name: &'static str,
        poisoned: bool,
    }

    impl crate::feature::Feature for VolumeOrNan {
        fn name(&self) -> &str {
            self.name
        }
        fn kind(&self) -> crate::feature::FeatureKind {
            crate::feature::FeatureKind::Observation
        }
        fn value(
            &self,
            _scene: &Scene,
            target: &crate::feature::FeatureTarget<'_>,
        ) -> Option<FeatureValue> {
            let crate::feature::FeatureTarget::Obs(obs) = target else { return None };
            let poison = self.poisoned && obs.class == ObjectClass::Car;
            let x = if poison { f64::NAN } else { obs.bbox.volume() };
            Some(FeatureValue::class_conditional(x, obs.class))
        }
    }

    /// A learned track feature that never applies: no training values.
    struct NeverApplies;

    impl crate::feature::Feature for NeverApplies {
        fn name(&self) -> &str {
            "never"
        }
        fn kind(&self) -> crate::feature::FeatureKind {
            crate::feature::FeatureKind::Track
        }
        fn value(
            &self,
            _scene: &Scene,
            _target: &crate::feature::FeatureTarget<'_>,
        ) -> Option<FeatureValue> {
            None
        }
    }

    #[test]
    fn fit_errors_follow_declaration_order_at_any_worker_count() {
        use crate::feature::{BoundFeature, Feature};
        use std::sync::Arc;
        let scenes = training_scenes(1);
        let bind = |f: Arc<dyn Feature>| BoundFeature::plain(f);
        let poisoned = || bind(Arc::new(VolumeOrNan { name: "poisoned", poisoned: true }));
        let clean = || bind(Arc::new(VolumeOrNan { name: "clean", poisoned: false }));
        let never = || bind(Arc::new(NeverApplies));
        for workers in [1, 2, 8] {
            let fit = |set: Vec<BoundFeature>| {
                Learner::new().fit_with_workers(workers, &FeatureSet::new(set), &scenes)
            };
            // A failing fit of the first feature wins over the second's
            // missing values, although the values are collected first.
            let err = fit(vec![poisoned(), never()]).unwrap_err();
            assert!(
                matches!(
                    &err,
                    FixyError::Fit { feature, error: loa_stats::FitError::NonFiniteSample }
                        if feature == "poisoned"
                ),
                "{workers} workers: {err:?}"
            );
            // The first feature without values wins over a later failing
            // fit, and a later feature without values over nothing.
            for set in [vec![never(), poisoned()], vec![clean(), never()]] {
                let err = fit(set).unwrap_err();
                assert!(
                    matches!(&err, FixyError::NoTrainingData { feature } if feature == "never"),
                    "{workers} workers: {err:?}"
                );
            }
            assert_eq!(fit(vec![clean()]).unwrap().len(), 1);
        }
    }

    #[test]
    fn learner_uses_human_labels_only() {
        // The organizational resource is the existing labels: the default
        // learner must assemble training scenes without model detections.
        let learner = Learner::new();
        assert!(learner.assembly.use_human);
        assert!(!learner.assembly.use_model);
    }

    /// The exact-window counterpart of [`FittedDistribution::probability`]
    /// for a KDE entry: the same class lookup, the exact kernel sum.
    fn exact_probability(dist: &FittedDistribution, v: &FeatureValue) -> f64 {
        let kde = match dist {
            FittedDistribution::ClassConditional { per_class, pooled } => {
                v.class.and_then(|c| per_class.get(&c)).unwrap_or(pooled)
            }
            FittedDistribution::Kde(kde) => kde,
        };
        kde.relative_likelihood(v.x)
    }

    #[test]
    fn prepared_tracks_fitted_across_random_queries() {
        let scenes = training_scenes(2);
        let library = Learner::new().fit(&FeatureSet::paper_default(), &scenes).unwrap();
        // Deterministic pseudo-random sweep of queries and class
        // conditioning over both learned features.
        let classes = ObjectClass::ALL;
        for i in 0..512 {
            let x = ((i * 2654435761u64) % 20000) as f64 / 100.0;
            let class_idx = (i as usize * 7) % classes.len();
            let v = if i % 3 == 0 {
                FeatureValue::scalar(x)
            } else {
                FeatureValue::class_conditional(x, classes[class_idx])
            };
            for name in ["volume", "velocity"] {
                let dist = library.get(name).unwrap();
                let exact = exact_probability(dist, &v);
                let grid = dist.probability(&v);
                // Grid interpolation error is bounded by a couple of
                // percent of the mode-normalized likelihood.
                assert!(
                    (exact - grid).abs() <= 0.03 + 1e-9,
                    "{name} at {v:?}: exact {exact} vs grid {grid}"
                );
            }
        }
    }

    #[test]
    fn prepared_forms_rebuild_bit_identical_after_serde() {
        // The fit/load determinism contract: a deserialized library must
        // score through byte-identical numbers, because the scoring grids
        // are rebuilt from the identical fitted state.
        let scenes = training_scenes(1);
        let library = Learner::new().fit(&FeatureSet::paper_default(), &scenes).unwrap();
        let json = serde_json::to_string(&library).unwrap();
        let back: FeatureLibrary = serde_json::from_str(&json).unwrap();
        for name in ["volume", "velocity"] {
            let a = library.get(name).unwrap();
            let b = back.get(name).unwrap();
            for i in 0..400 {
                let x = i as f64 * 0.5;
                for v in [
                    FeatureValue::scalar(x),
                    FeatureValue::class_conditional(x, ObjectClass::Car),
                    FeatureValue::class_conditional(x, ObjectClass::Pedestrian),
                ] {
                    assert_eq!(
                        a.probability(&v).to_bits(),
                        b.probability(&v).to_bits(),
                        "{name} diverges at {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn library_roundtrips_serde() {
        let scenes = training_scenes(1);
        let library = Learner::new().fit(&FeatureSet::paper_default(), &scenes).unwrap();
        let json = serde_json::to_string(&library).unwrap();
        let back: FeatureLibrary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), library.len());
        let v = FeatureValue::class_conditional(15.0, ObjectClass::Car);
        assert!(
            (back.get("volume").unwrap().probability(&v)
                - library.get("volume").unwrap().probability(&v))
            .abs()
                < 1e-12
        );
    }

    // -- Load-time validation (JSON) ----------------------------------------

    /// Load a one-entry library through the streaming and the tree
    /// deserializer, which must agree.
    fn load(entry: &str) -> Result<FeatureLibrary, String> {
        let text = format!(r#"{{"map":{{"f":{entry}}}}}"#);
        let tree = serde_json::from_str_via_tree::<FeatureLibrary>(&text).is_ok();
        let streamed = serde_json::from_str::<FeatureLibrary>(&text).map_err(|e| e.to_string());
        assert_eq!(tree, streamed.is_ok(), "deserializers disagree on {text}");
        streamed
    }

    fn kde(samples: &str, kernel: &str, bandwidth: &str, max_density: &str) -> String {
        format!(
            r#"{{"samples":{samples},"kernel":"{kernel}","bandwidth":{bandwidth},"max_density":{max_density}}}"#
        )
    }

    /// A well-formed KDE entry: the samples `[1, 2, 3]`, stored out of
    /// order, with the bandwidth and grid maximum their fit produces.
    fn plausible_kde() -> String {
        let fitted = Kde1d::fit(&[1.0, 2.0, 3.0]).unwrap();
        let bandwidth = fitted.bandwidth_value().to_string();
        kde("[3,1,2]", "Gaussian", &bandwidth, &fitted.max_density().to_string())
    }

    /// Not finite and positive (`null` decodes as NaN).
    const BAD_SCALES: [&str; 3] = ["0", "-1", "null"];

    #[test]
    fn json_handcrafted_entries_load_when_plausible() {
        let pooled = plausible_kde();
        let lib = load(&format!(r#"{{"Kde":{pooled}}}"#)).unwrap();
        // Samples stored out of order are sorted on load, as `.flcb` does.
        let FittedDistribution::Kde(k) = lib.get("f").unwrap() else { unreachable!() };
        assert_eq!(k.samples(), [1.0, 2.0, 3.0]);
        load(&format!(
            r#"{{"ClassConditional":{{"per_class":{{"Car":{pooled}}},"pooled":{pooled}}}}}"#
        ))
        .unwrap();
    }

    #[test]
    fn json_kde_bandwidth_must_be_finite_positive() {
        for bad in BAD_SCALES {
            let bad_kde = kde("[1,2]", "Gaussian", bad, "0.4");
            assert!(load(&format!(r#"{{"Kde":{bad_kde}}}"#)).is_err(), "{bad}");
            let cc = format!(
                r#"{{"ClassConditional":{{"per_class":{{"Car":{bad_kde}}},"pooled":{}}}}}"#,
                plausible_kde()
            );
            assert!(load(&cc).is_err(), "per-class {bad}");
        }
    }

    #[test]
    fn json_kde_max_density_must_be_finite_positive() {
        for bad in BAD_SCALES {
            let bad_kde = kde("[1,2]", "Gaussian", "0.5", bad);
            assert!(load(&format!(r#"{{"Kde":{bad_kde}}}"#)).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_kde_max_density_must_match_its_grid() {
        // The stored normalizer of a learned library's first KDE, altered
        // to another finite, positive value: a load rebuilds the grid and
        // must refuse the file rather than score with the wrong mode.
        let library = Learner::new()
            .fit(&FeatureSet::paper_default(), &training_scenes(1))
            .unwrap();
        let json = serde_json::to_string(&library).unwrap();
        let key = r#""max_density":"#;
        let at = json.find(key).unwrap() + key.len();
        let end = at + json[at..].find([',', '}']).unwrap();
        let stored: f64 = json[at..end].parse().unwrap();
        let altered = format!("{}{}{}", &json[..at], stored * 1.5, &json[end..]);
        serde_json::from_str::<FeatureLibrary>(&json).unwrap();
        let err = serde_json::from_str::<FeatureLibrary>(&altered)
            .unwrap_err()
            .to_string();
        assert!(err.contains("implausible kde max_density"), "got: {err}");
        assert!(serde_json::from_str_via_tree::<FeatureLibrary>(&altered).is_err());
    }

    #[test]
    fn json_kde_samples_must_be_nonempty_and_finite() {
        for bad in ["[]", "[1,null]"] {
            let bad_kde = kde(bad, "Gaussian", "0.5", "0.4");
            assert!(load(&format!(r#"{{"Kde":{bad_kde}}}"#)).is_err(), "{bad}");
        }
    }

    /// The histogram, Bernoulli and joint-KDE forms are not part of the
    /// format: an entry naming one (here, each with values its old
    /// constructor accepted) is refused as an unknown variant.
    #[test]
    fn json_removed_forms_rejected() {
        for (variant, body) in [
            (
                "Histogram",
                r#"{"start":0,"bin_width":1,"densities":[0.5,0.25],"max_density":0.5,"n":4}"#,
            ),
            ("Bernoulli", r#"{"p_one":0.7}"#),
            (
                "Joint",
                r#"{"dim":2,"samples":[1,2,3,4],"kernel":"Gaussian","bandwidths":[0.5,0.5],"max_density":0.3}"#,
            ),
        ] {
            let err = load(&format!(r#"{{"{variant}":{body}}}"#)).unwrap_err();
            assert!(err.contains("unknown FittedDistribution variant"), "{variant}: {err}");
        }
    }

    #[test]
    fn json_non_gaussian_kernel_rejected() {
        let tophat = kde("[1,2]", "Tophat", "0.5", "0.4");
        let err = load(&format!(r#"{{"Kde":{tophat}}}"#)).unwrap_err();
        assert!(err.contains("unknown Kernel variant"), "got: {err}");
    }
}
