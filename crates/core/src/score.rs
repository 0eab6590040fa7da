//! Scoring OBTs (Section 6): the one scoring engine.
//!
//! A candidate's score is `Σ ln p` over the (AOF-transformed) factors
//! inside it, divided by their count; a candidate with an AOF-zeroed
//! factor is excluded from ranking. Batch [`ScoreEngine`] and streamed
//! [`IncrementalScorer`](crate::incremental::IncrementalScorer) both
//! evaluate every factor once into per-track `ln p` stores and fold
//! candidates from them; the batch engine ingests the whole scene as a
//! single delta (every track changed, nothing ingested before).
//!
//! ## Why per-track stores suffice
//!
//! Under the Section 4.3 compilation semantics no factor's scope spans
//! two tracks (observation and bundle factors live inside one bundle,
//! transition and track factors inside one track), so a candidate's
//! factor set (the factors whose whole scope lies inside it) has a
//! closed form:
//!
//! * a **track**'s factors are exactly the factors on its own
//!   observations, bundles, transitions and the track itself;
//! * a **bundle**'s factors are its members' observation factors, its own
//!   bundle factors, and its track's factors iff the track has exactly
//!   this one bundle (transition scopes span two bundles, never one).
//!
//! Factor *values* stay valid across frames because every shipped
//! feature is target-local (a bundle factor depends only on its bundle,
//! a track factor only on its track — locked by the `tests/incremental.rs`
//! proptests); a track's factors are re-evaluated whenever the track
//! itself changes.
//!
//! ## Bit-identity with the Section 4.3 reference
//!
//! The reference is [`compile_scene`](crate::compile::compile_scene) +
//! `FactorGraph::score_component`: it assigns factor ids
//! lexicographically in `(feature_index, target-visit-order)` and folds a
//! candidate's factors in ascending id order. Per feature the visit order
//! is: observation index, bundle index, `(track, later-bundle)` for
//! transitions, track index. A store appends each track's bundles in
//! track order (a bundle's members in ascending index), so when
//! observation and bundle indices ascend along every track its runs
//! already hold the reference fold order: no sort, and no `ln` at score
//! time. The fold starts at `+0.0` and adds the same values in the same
//! order as `normalized_log_score` — f64 addition is not associative, so
//! this is what makes the scores bit-identical, not merely close (the
//! correctness bar, locked by `tests/pipeline.rs` and
//! `tests/incremental.rs`).
//!
//! Slots whose feature returned no value, and zeroed factors, hold
//! `+0.0`. Adding `+0.0` changes no sum the fold can reach (a sum is
//! `-0.0` only if every addend is, and `ln` never returns `-0.0`), and a
//! zeroed candidate is answered from its counts without a fold.
//!
//! ## Precondition
//!
//! Every bundle is in exactly one track, and observation and bundle
//! indices ascend along each track. [`AssemblyEngine`] guarantees both
//! (tracks grow at their ends, and a frame's observations and bundles
//! are numbered after every earlier frame's), and it is the only
//! producer of scored scenes: the CLI, the pipeline and the server all
//! assemble from `SceneData`. Debug builds assert it; there is no
//! fallback path.
//!
//! [`AssemblyEngine`]: crate::scene::AssemblyEngine

use crate::error::FixyError;
use crate::feature::{FeatureKind, FeatureSet, FeatureTarget, ProbabilityModel};
use crate::learner::{FeatureLibrary, FittedDistribution};
use crate::scene::{BundleIdx, ObsIdx, Scene, TrackIdx};
use loa_graph::ComponentScore;
use std::ops::Add;

/// Resolves a feature on a target to its AOF-transformed probability —
/// the one resolution path, shared by the stores and by `compile_scene`.
pub(crate) struct Evaluator<'f> {
    features: &'f FeatureSet,
    /// Pre-resolved distributions, one slot per feature (None for manual
    /// features).
    dists: Vec<Option<&'f FittedDistribution>>,
}

impl<'f> Evaluator<'f> {
    /// Bind a feature set and fitted library. Learned features missing
    /// from the library are an error (manual features need none), so no
    /// later evaluation can fail halfway. A joint fit under a scalar
    /// feature's name (a library/feature-set mismatch) counts as missing.
    pub(crate) fn new(
        features: &'f FeatureSet,
        library: &'f FeatureLibrary,
    ) -> Result<Self, FixyError> {
        let mut dists = Vec::with_capacity(features.len());
        for bf in &features.features {
            let name = bf.feature.name();
            let dist = match bf.feature.probability_model() {
                ProbabilityModel::Manual => None,
                model => Some(
                    library
                        .get(name)
                        .filter(|d| {
                            model == ProbabilityModel::LearnedJointKde
                                || !matches!(d, FittedDistribution::Joint(_))
                        })
                        .ok_or_else(|| FixyError::MissingDistribution {
                            feature: name.to_string(),
                        })?,
                ),
            };
            dists.push(dist);
        }
        Ok(Evaluator { features, dists })
    }

    /// Evaluate feature `fi` on a target: its AOF-transformed
    /// probability, or `None` when the feature has no value there (no
    /// factor).
    pub(crate) fn eval(&self, scene: &Scene, fi: usize, target: &FeatureTarget<'_>) -> Option<f64> {
        let bf = &self.features.features[fi];
        let feature = bf.feature.as_ref();
        let p = match feature.probability_model() {
            ProbabilityModel::Manual => feature.value(scene, target)?.x,
            ProbabilityModel::LearnedJointKde => {
                let v = feature.vector_value(scene, target)?;
                self.dists[fi].expect("validated in new").probability_vector(&v)
            }
            _ => {
                let v = feature.value(scene, target)?;
                self.dists[fi].expect("validated in new").probability(&v)
            }
        };
        Some(bf.aof.apply(p))
    }
}

/// Where one feature's values sit in a [`TrackStore`]: the column of the
/// rows its feature kind fills.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Obs(usize),
    Bundle(usize),
    Transition(usize),
    Track(usize),
}

/// Factors present and factors zeroed — all `normalized_log_score` needs
/// besides the sum.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    present: u32,
    zeroed: u32,
}

impl Add for Counts {
    type Output = Counts;
    fn add(self, other: Counts) -> Counts {
        Counts {
            present: self.present + other.present,
            zeroed: self.zeroed + other.zeroed,
        }
    }
}

impl Counts {
    /// Count one evaluated factor; returns the value its slot keeps.
    fn record(&mut self, p: Option<f64>) -> f64 {
        let Some(p) = p else {
            return 0.0;
        };
        self.present += 1;
        if p <= 0.0 || !p.is_finite() {
            self.zeroed += 1;
            0.0
        } else {
            p.ln()
        }
    }

    /// The score `normalized_log_score` gives these factors; `sum` folds
    /// their values and runs only when the score needs it.
    fn score(self, sum: impl FnOnce() -> f64) -> ComponentScore {
        let factor_count = self.present as usize;
        if factor_count == 0 {
            ComponentScore::empty()
        } else if self.zeroed > 0 {
            ComponentScore { score: None, factor_count, zeroed: true }
        } else {
            ComponentScore {
                score: Some(sum() / factor_count as f64),
                factor_count,
                zeroed: false,
            }
        }
    }
}

/// How a feature set's values are laid out in every [`TrackStore`]: one
/// column per feature of a kind, in feature-set order.
#[derive(Debug)]
struct Layout {
    /// Each feature's slot, in feature-set (= fold) order.
    slots: Vec<Slot>,
    /// Feature indices by kind, in feature-set order (a feature's column
    /// is its position here).
    obs: Vec<usize>,
    bundle: Vec<usize>,
    transition: Vec<usize>,
    track: Vec<usize>,
}

impl Layout {
    fn new(features: &FeatureSet) -> Self {
        let mut slots = Vec::with_capacity(features.len());
        let mut by_kind: [Vec<usize>; 4] = Default::default();
        for (fi, bf) in features.features.iter().enumerate() {
            let (kind, slot): (usize, fn(usize) -> Slot) = match bf.feature.kind() {
                FeatureKind::Observation => (0, Slot::Obs),
                FeatureKind::Bundle => (1, Slot::Bundle),
                FeatureKind::Transition => (2, Slot::Transition),
                FeatureKind::Track => (3, Slot::Track),
            };
            slots.push(slot(by_kind[kind].len()));
            by_kind[kind].push(fi);
        }
        let [obs, bundle, transition, track] = by_kind;
        Layout { slots, obs, bundle, transition, track }
    }

    /// Values per bundle row: bundle features, then transition features.
    fn row_width(&self) -> usize {
        self.bundle.len() + self.transition.len()
    }

    /// Sum a track's stored values in fold order.
    fn fold_track(&self, store: &TrackStore) -> f64 {
        let (obs_width, row_width) = (self.obs.len(), self.row_width());
        let body = &store.rows[self.track.len()..];
        let mut sum = 0.0;
        for &slot in &self.slots {
            match slot {
                Slot::Obs(c) => {
                    for &v in store.obs_rows.iter().skip(c).step_by(obs_width) {
                        sum += v;
                    }
                }
                Slot::Bundle(c) => {
                    for &v in body.iter().skip(c).step_by(row_width) {
                        sum += v;
                    }
                }
                // The first row has no transition into it.
                Slot::Transition(c) => {
                    let first = row_width + self.bundle.len() + c;
                    for &v in body.iter().skip(first).step_by(row_width) {
                        sum += v;
                    }
                }
                Slot::Track(c) => sum += store.rows[c],
            }
        }
        sum
    }

    /// Sum a bundle's stored values in fold order: its members' rows, its
    /// own row's bundle values, and the track values when the track is
    /// this one bundle.
    fn fold_bundle(&self, store: &TrackStore, loc: &BundleLoc, members: usize) -> f64 {
        let (obs_width, row_width) = (self.obs.len(), self.row_width());
        let obs = &store.obs_rows[loc.obs_row * obs_width..][..members * obs_width];
        let row = &store.rows[self.track.len() + loc.pos * row_width..][..row_width];
        let alone = store.n_bundles == 1;
        let mut sum = 0.0;
        for &slot in &self.slots {
            match slot {
                Slot::Obs(c) => {
                    for &v in obs.iter().skip(c).step_by(obs_width) {
                        sum += v;
                    }
                }
                Slot::Bundle(c) => sum += row[c],
                Slot::Transition(_) => {}
                Slot::Track(c) => {
                    if alone {
                        sum += store.rows[c];
                    }
                }
            }
        }
        sum
    }
}

/// One track's factor values, kept as `ln p` (`+0.0` for absent or
/// zeroed factors, see the module docs) in rows the [`Layout`] folds in
/// reference order.
#[derive(Debug, Default)]
struct TrackStore {
    /// One row of observation-feature values per observation, ascending
    /// observation index.
    obs_rows: Vec<f64>,
    /// The track-feature values, then one row per bundle: its
    /// bundle-feature values and the transition into it from the previous
    /// bundle (the first row's transition slots are never folded).
    rows: Vec<f64>,
    n_obs: usize,
    n_bundles: usize,
    /// Counts over the observation, bundle and transition factors.
    counts: Counts,
    /// Counts over the track factors, replaced whenever the track changes.
    track_counts: Counts,
}

/// Where a bundle's values sit in its track's store.
#[derive(Debug, Clone, Copy, Default)]
struct BundleLoc {
    track: usize,
    /// Its first member's observation row.
    obs_row: usize,
    /// Its position in the track (its bundle row).
    pos: usize,
    /// Counts over its members' observation factors and its own bundle
    /// factors.
    counts: Counts,
}

/// The per-track `ln p` stores of one scene: every factor evaluated
/// once, every candidate folded from them by `&self` reads.
#[derive(Debug)]
pub(crate) struct TrackStores {
    layout: Layout,
    /// One store per track, by track index.
    tracks: Vec<TrackStore>,
    /// One location per bundle, by bundle index.
    bundles: Vec<BundleLoc>,
    /// Scratch: a bundle's members in ascending order.
    members: Vec<ObsIdx>,
}

impl TrackStores {
    /// Empty stores laid out for `features`.
    pub(crate) fn new(features: &FeatureSet) -> Self {
        TrackStores {
            layout: Layout::new(features),
            tracks: Vec::new(),
            bundles: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Drop every store (a new scene starts).
    pub(crate) fn clear(&mut self) {
        self.tracks.clear();
        self.bundles.clear();
    }

    /// Ingest a new or changed track: append its bundles not yet stored
    /// (their members' observation factors, their own bundle factors and
    /// the transition into each from the previous bundle) and re-evaluate
    /// its track factors. Returns how many bundles the track had before.
    /// New tracks must arrive in index order.
    pub(crate) fn ingest_track(&mut self, ev: &Evaluator<'_>, scene: &Scene, t: TrackIdx) -> usize {
        if t.0 == self.tracks.len() {
            let head = vec![0.0; self.layout.track.len()];
            self.tracks.push(TrackStore { rows: head, ..TrackStore::default() });
        }
        if self.bundles.len() < scene.n_bundles() {
            self.bundles.resize(scene.n_bundles(), BundleLoc::default());
        }
        let layout = &self.layout;
        let bundles = scene.track_bundles(t);
        let store = &mut self.tracks[t.0];
        let known = store.n_bundles;
        for (pos, &b) in bundles.iter().enumerate().skip(known) {
            let mut own = Counts::default();
            let obs_row = store.n_obs;
            self.members.clear();
            self.members.extend_from_slice(scene.bundle_obs(b));
            self.members.sort_unstable();
            for &o in &self.members {
                let target = FeatureTarget::Obs(scene.obs(o));
                for &fi in &layout.obs {
                    store.obs_rows.push(own.record(ev.eval(scene, fi, &target)));
                }
            }
            store.n_obs += self.members.len();

            let target = FeatureTarget::Bundle(scene.bundle(b));
            for &fi in &layout.bundle {
                store.rows.push(own.record(ev.eval(scene, fi, &target)));
            }
            let mut transition = Counts::default();
            if pos == 0 {
                store.rows.resize(store.rows.len() + layout.transition.len(), 0.0);
            } else {
                let (from, to) = (scene.bundle(bundles[pos - 1]), scene.bundle(b));
                let dt = (to.frame.0.saturating_sub(from.frame.0)) as f64 * scene.frame_dt;
                let target = FeatureTarget::Transition(from, to, dt);
                for &fi in &layout.transition {
                    store.rows.push(transition.record(ev.eval(scene, fi, &target)));
                }
            }
            store.counts = store.counts + own + transition;
            self.bundles[b.0] = BundleLoc { track: t.0, obs_row, pos, counts: own };
        }
        store.n_bundles = bundles.len();

        // Track factors: replaced wholesale — the track changed, so its
        // factor values may have too (e.g. the count crossing its
        // threshold).
        store.track_counts = Counts::default();
        let target = FeatureTarget::Track(scene.track(t));
        for (c, &fi) in layout.track.iter().enumerate() {
            store.rows[c] = store.track_counts.record(ev.eval(scene, fi, &target));
        }
        known
    }

    /// True when bundle `b` is stored at its place in its track.
    pub(crate) fn holds(&self, scene: &Scene, b: BundleIdx) -> bool {
        let loc = &self.bundles[b.0];
        scene.track_bundles(TrackIdx(loc.track)).get(loc.pos) == Some(&b)
    }

    /// A track's score, folded from its store.
    pub(crate) fn track_score(&self, t: TrackIdx) -> ComponentScore {
        let store = &self.tracks[t.0];
        (store.counts + store.track_counts).score(|| self.layout.fold_track(store))
    }

    /// A bundle's score, folded from its track's store.
    pub(crate) fn bundle_score(&self, scene: &Scene, b: BundleIdx) -> ComponentScore {
        let loc = &self.bundles[b.0];
        let store = &self.tracks[loc.track];
        let counts =
            if store.n_bundles == 1 { loc.counts + store.track_counts } else { loc.counts };
        let members = scene.bundle_obs(b).len();
        counts.score(|| self.layout.fold_bundle(store, loc, members))
    }
}

/// The module docs' precondition: every bundle is in exactly one track,
/// and observation and bundle indices ascend along each track.
fn assembly_ordered(scene: &Scene) -> bool {
    let mut placed = vec![false; scene.n_bundles()];
    let tracks_ok = scene.tracks().iter().all(|t| {
        let mut last: Option<(BundleIdx, ObsIdx)> = None;
        scene.track_bundles(t.idx).iter().all(|&b| {
            let obs = scene.bundle_obs(b);
            let (Some(&lo), Some(&hi)) = (obs.iter().min(), obs.iter().max()) else {
                return false;
            };
            let ascends = last.is_none_or(|(lb, lo_hi)| lb < b && lo_hi < lo);
            last = Some((b, hi));
            ascends && !std::mem::replace(&mut placed[b.0], true)
        })
    });
    tracks_ok && placed.into_iter().all(|p| p)
}

/// A scene's per-track stores, ready to score any track or bundle.
pub struct ScoreEngine<'a> {
    scene: &'a Scene,
    stores: TrackStores,
}

impl<'a> ScoreEngine<'a> {
    /// Evaluate every factor of `scene` against `features`/`library` into
    /// per-track stores: the whole scene ingested as a single delta. Fails
    /// like `compile_scene` when a learned feature has no library entry.
    ///
    /// `scene` must satisfy the module docs' precondition (true of every
    /// assembled scene; debug builds assert it).
    pub fn new(
        scene: &'a Scene,
        features: &FeatureSet,
        library: &FeatureLibrary,
    ) -> Result<Self, FixyError> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Compile);
        debug_assert!(
            assembly_ordered(scene),
            "scene violates the assembly-order precondition"
        );
        let ev = Evaluator::new(features, library)?;
        let mut stores = TrackStores::new(features);
        for t in scene.tracks() {
            stores.ingest_track(&ev, scene, t.idx);
        }
        Ok(ScoreEngine { scene, stores })
    }

    /// Score an observation bundle.
    pub fn score_bundle(&self, bundle: BundleIdx) -> ComponentScore {
        self.stores.bundle_score(self.scene, bundle)
    }

    /// Score a track.
    pub fn score_track(&self, track: TrackIdx) -> ComponentScore {
        self.stores.track_score(track)
    }

    /// Score every track, in track order: one sequential fold per track.
    pub fn score_all_tracks(&self) -> Vec<(TrackIdx, ComponentScore)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        self.scene
            .tracks()
            .iter()
            .map(|t| (t.idx, self.score_track(t.idx)))
            .collect()
    }

    /// Score every bundle, in bundle order.
    pub fn score_all_bundles(&self) -> Vec<(BundleIdx, ComponentScore)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        self.scene
            .bundles()
            .iter()
            .map(|b| (b.idx, self.score_bundle(b.idx)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aof::Aof;
    use crate::feature::{
        BoundFeature, Feature, FeatureKind, FeatureSet, FeatureTarget, FeatureValue,
        ProbabilityModel,
    };
    use crate::scene::{AssemblyConfig, Observation, Scene};
    use loa_data::{FrameId, ObjectClass, ObservationSource};
    use loa_geom::{Box3, Vec2};
    use std::sync::Arc;

    /// A manual observation feature with a fixed probability.
    struct FixedObs(f64);
    impl Feature for FixedObs {
        fn name(&self) -> &str {
            "fixed_obs"
        }
        fn kind(&self) -> FeatureKind {
            FeatureKind::Observation
        }
        fn probability_model(&self) -> ProbabilityModel {
            ProbabilityModel::Manual
        }
        fn value(&self, _: &Scene, t: &FeatureTarget<'_>) -> Option<FeatureValue> {
            match t {
                FeatureTarget::Obs(_) => Some(FeatureValue::scalar(self.0)),
                _ => None,
            }
        }
    }

    /// A manual transition feature with a fixed probability.
    struct FixedTrans(f64);
    impl Feature for FixedTrans {
        fn name(&self) -> &str {
            "fixed_trans"
        }
        fn kind(&self) -> FeatureKind {
            FeatureKind::Transition
        }
        fn probability_model(&self) -> ProbabilityModel {
            ProbabilityModel::Manual
        }
        fn value(&self, _: &Scene, t: &FeatureTarget<'_>) -> Option<FeatureValue> {
            match t {
                FeatureTarget::Transition(..) => Some(FeatureValue::scalar(self.0)),
                _ => None,
            }
        }
    }

    /// Two observations in two bundles forming one track — the Section 6
    /// worked example's structure.
    fn worked_example_scene() -> Scene {
        let mk_obs = |i: usize, frame: u32| Observation {
            idx: crate::scene::ObsIdx(i),
            frame: FrameId(frame),
            source: ObservationSource::Model,
            source_index: 0,
            bbox: Box3::on_ground(10.0 + frame as f64, 0.0, 0.0, 4.0, 2.0, 1.6, 0.0),
            class: ObjectClass::Truck,
            confidence: Some(0.9),
            world_center: Vec2::new(10.0 + frame as f64, 0.0),
        };
        Scene::from_parts(
            vec![mk_obs(0, 0), mk_obs(1, 1)],
            vec![
                (FrameId(0), vec![crate::scene::ObsIdx(0)]),
                (FrameId(1), vec![crate::scene::ObsIdx(1)]),
            ],
            vec![vec![crate::scene::BundleIdx(0), crate::scene::BundleIdx(1)]],
            0.2,
            2,
        )
    }

    /// Section 6, verbatim: volumes score 0.37 / 0.39, velocity 0.21 —
    /// track score must be (ln .37 + ln .39 + ln .21) / 3 = −1.17.
    ///
    /// We reproduce it with two fixed obs features with those values plus a
    /// fixed transition. Since FixedObs gives the same p to both
    /// observations, we instead verify against the exact expectation
    /// computed from our factor values.
    #[test]
    fn worked_example_section_6() {
        let scene = worked_example_scene();
        // Feature probabilities chosen so the three factors carry 0.37,
        // 0.39, 0.21 — per-obs features cannot differ per obs here, so use
        // per-obs p = sqrt(0.37 * 0.39) ≈ both volumes' geometric mean;
        // the normalized log score is identical to the paper's example
        // because ln is additive.
        let p_obs = (0.37f64 * 0.39).sqrt();
        let features = FeatureSet::new(vec![
            BoundFeature::plain(Arc::new(FixedObs(p_obs))),
            BoundFeature::plain(Arc::new(FixedTrans(0.21))),
        ]);
        let library = FeatureLibrary::default();
        let engine = ScoreEngine::new(&scene, &features, &library).unwrap();
        let score = engine.score_track(TrackIdx(0));
        assert_eq!(score.factor_count, 3);
        let s = score.score.unwrap();
        let expected = (0.37f64.ln() + 0.39f64.ln() + 0.21f64.ln()) / 3.0;
        assert!((s - expected).abs() < 1e-12, "{s} vs {expected}");
        assert!((s - (-1.17)).abs() < 0.005, "paper reports −1.17, got {s}");
    }

    #[test]
    fn zeroed_factor_excludes_component() {
        let scene = worked_example_scene();
        let features = FeatureSet::new(vec![
            BoundFeature::plain(Arc::new(FixedObs(0.5))),
            BoundFeature::new(Arc::new(FixedTrans(0.5)), Aof::Zero),
        ]);
        let engine = ScoreEngine::new(&scene, &features, &FeatureLibrary::default()).unwrap();
        let score = engine.score_track(TrackIdx(0));
        assert!(score.zeroed);
        assert_eq!(score.score, None);
    }

    #[test]
    fn observation_scope_excludes_transition_by_default() {
        let scene = worked_example_scene();
        let features = FeatureSet::new(vec![
            BoundFeature::plain(Arc::new(FixedObs(0.5))),
            BoundFeature::plain(Arc::new(FixedTrans(0.9))),
        ]);
        let engine = ScoreEngine::new(&scene, &features, &FeatureLibrary::default()).unwrap();
        // A one-observation bundle sees only its observation's factor: the
        // transition's scope reaches into the other bundle.
        let s = engine.score_bundle(BundleIdx(0));
        assert_eq!(s.factor_count, 1);
        assert!((s.score.unwrap() - 0.5f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn inverted_aof_flips_ranking() {
        let scene = worked_example_scene();
        let likely = FeatureSet::new(vec![BoundFeature::plain(Arc::new(FixedObs(0.9)))]);
        let unlikely =
            FeatureSet::new(vec![BoundFeature::new(Arc::new(FixedObs(0.9)), Aof::Invert)]);
        let library = FeatureLibrary::default();
        let e1 = ScoreEngine::new(&scene, &likely, &library).unwrap();
        let e2 = ScoreEngine::new(&scene, &unlikely, &library).unwrap();
        let s1 = e1.score_track(TrackIdx(0)).score.unwrap();
        let s2 = e2.score_track(TrackIdx(0)).score.unwrap();
        // p=0.9: identity ln(0.9) ≈ −0.105; inverted ln(0.1) ≈ −2.303.
        assert!(s1 > s2);
    }

    #[test]
    fn end_to_end_scoring_on_generated_scene() {
        let mut cfg = loa_data::DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 4.0;
        cfg.lidar.beam_count = 240;
        let data = loa_data::generate_scene(&cfg, "score-e2e", 21);
        let library = crate::learner::Learner::new()
            .fit(&FeatureSet::paper_default(), std::slice::from_ref(&data))
            .unwrap();
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let engine = ScoreEngine::new(&scene, &FeatureSet::paper_default(), &library).unwrap();
        let mut scored = 0;
        for t in scene.tracks() {
            let s = engine.score_track(t.idx);
            if let Some(v) = s.score {
                assert!(v.is_finite());
                assert!(v <= 0.0, "normalized log-likelihoods are non-positive");
                scored += 1;
            }
        }
        assert!(scored > 0, "no track survived AOF filtering");
    }
}
