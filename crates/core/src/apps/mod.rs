//! The paper's applications (Section 7): prebuilt pipelines over the LOA
//! engine.
//!
//! * [`MissingTrackFinder`] — tracks entirely missed by human labelers,
//! * [`MissingObsFinder`] — missing labels within human-labeled tracks,
//! * [`ModelErrorFinder`] — erroneous ML model predictions (inverted AOF),
//!   ranked after the ad-hoc [`AdHocAssertions`] have taken their share,
//!
//! plus the label-audit extensions covering the rest of the fuzzer's
//! error taxonomy:
//!
//! * [`LabelAuditFinder`] — human-labeled tracks with implausible labels
//!   (gross class swaps),
//! * [`BundleAuditFinder`] — bundles whose members disagree wildly
//!   (inconsistent bundles).
//!
//! [`App`] is the registry of the five: each app's feature set, assembly
//! presets and ranking, defined once. The CLI, the server and the batch
//! pipeline all dispatch through it.

mod audit;
mod missing_obs;
mod missing_tracks;
pub mod model_errors;

pub use audit::{BundleAuditFinder, LabelAuditFinder};
pub use missing_obs::MissingObsFinder;
pub use missing_tracks::MissingTrackFinder;
pub use model_errors::{AdHocAssertions, ModelErrorFinder};

use crate::error::FixyError;
use crate::feature::FeatureSet;
use crate::incremental::IncrementalScorer;
use crate::learner::{FeatureLibrary, Learner};
use crate::pipeline::SceneRanker;
use crate::rank::Candidate;
use crate::scene::{AssemblyConfig, BundleIdx, ObsIdx, Scene, TrackIdx};
use crate::score::{ComponentScore, ScoreEngine};
use loa_data::SceneData;
use std::collections::BTreeSet;

/// One of the five applications, with everything that differs between
/// them: feature set, assembly presets, and how component scores become
/// its worklist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum App {
    /// [`MissingTrackFinder`] on the default assembly.
    #[default]
    MissingTracks,
    /// [`MissingObsFinder`] on the default assembly.
    MissingObs,
    /// The Section 8.4 protocol: [`AdHocAssertions`] flag observations
    /// first, then [`ModelErrorFinder`] ranks the tracks they mostly
    /// missed, on the model-only assembly.
    ModelErrors,
    /// [`LabelAuditFinder`] on the human-only assembly.
    LabelAudit,
    /// [`BundleAuditFinder`] on the default assembly.
    BundleAudit,
}

impl App {
    pub const ALL: [App; 5] =
        [App::MissingTracks, App::MissingObs, App::ModelErrors, App::LabelAudit, App::BundleAudit];

    /// The CLI and library-file name.
    pub fn name(self) -> &'static str {
        match self {
            App::MissingTracks => "missing-tracks",
            App::MissingObs => "missing-obs",
            App::ModelErrors => "model-errors",
            App::LabelAudit => "label-audit",
            App::BundleAudit => "bundle-audit",
        }
    }

    /// The app with this [`name`](Self::name).
    pub fn parse(name: &str) -> Option<App> {
        App::ALL.into_iter().find(|app| app.name() == name)
    }

    /// The feature set the app compiles, with default finder settings.
    pub fn feature_set(self) -> FeatureSet {
        match self {
            App::MissingTracks => MissingTrackFinder::default().feature_set(),
            App::MissingObs => MissingObsFinder::default().feature_set(),
            App::ModelErrors => ModelErrorFinder::default().feature_set(),
            App::LabelAudit => LabelAuditFinder::default().feature_set(),
            App::BundleAudit => BundleAuditFinder.feature_set(),
        }
    }

    /// The assembly the app's scenes are ranked on.
    pub fn assembly(self) -> AssemblyConfig {
        match self {
            App::MissingTracks | App::MissingObs | App::BundleAudit => AssemblyConfig::default(),
            App::ModelErrors => AssemblyConfig::model_only(),
            App::LabelAudit => AssemblyConfig::human_only(),
        }
    }

    /// The assembly the app's library is fitted on: human labels only
    /// (the [`Learner`] default), except bundle consistency, which is
    /// learned from matched human and model boxes.
    pub fn train_assembly(self) -> AssemblyConfig {
        match self {
            App::BundleAudit => AssemblyConfig::default(),
            _ => Learner::new().assembly,
        }
    }

    /// Fit the app's library over training scenes.
    pub fn fit(self, scenes: &[SceneData]) -> Result<FeatureLibrary, FixyError> {
        Learner { assembly: self.train_assembly() }.fit(&self.feature_set(), scenes)
    }

    /// Whether the worklist holds bundle candidates (else track ones).
    pub fn ranks_bundles(self) -> bool {
        matches!(self, App::MissingObs | App::BundleAudit)
    }

    /// The observations the app excludes before ranking: what the ad-hoc
    /// assertions flag, for model-errors; `None` for the other apps.
    pub fn pre_excluded(self, scene: &Scene) -> Option<BTreeSet<ObsIdx>> {
        (self == App::ModelErrors).then(|| AdHocAssertions::default().flag_all(scene))
    }

    /// Rank an assembled scene from scratch against `library`.
    pub fn rank(
        self,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Result<Vec<Candidate>, FixyError> {
        let mut engine = ScoreEngine::new(scene, &self.feature_set(), library)?;
        Ok(self.rank_from(scene, &mut engine))
    }

    /// Rank a streamed scene from a scorer bound to
    /// [`feature_set`](Self::feature_set): O(Δ) scoring after
    /// `rescore_delta`, the same worklist as [`rank`](Self::rank).
    pub fn rank_streamed(
        self,
        scene: &Scene,
        scorer: &mut IncrementalScorer<'_>,
    ) -> Vec<Candidate> {
        self.rank_from(scene, scorer)
    }

    fn rank_from(self, scene: &Scene, scores: &mut impl ScoreSource) -> Vec<Candidate> {
        let tracks = |ranked: Vec<_>| ranked.into_iter().map(Candidate::Track).collect();
        let bundles = |ranked: Vec<_>| ranked.into_iter().map(Candidate::Bundle).collect();
        match self {
            App::MissingTracks => tracks(scores.with_tracks(scene, |s| {
                MissingTrackFinder::default().rank_scored(scene, s.iter().copied())
            })),
            App::ModelErrors => {
                let excluded = self.pre_excluded(scene).unwrap_or_default();
                tracks(scores.with_tracks(scene, |s| {
                    ModelErrorFinder::default().rank_scored(scene, s.iter().copied(), &excluded)
                }))
            }
            App::LabelAudit => tracks(scores.with_tracks(scene, |s| {
                LabelAuditFinder::default().rank_scored(scene, s.iter().copied())
            })),
            App::MissingObs => {
                bundles(MissingObsFinder::default().rank_scored(scene, scores.bundles(scene)))
            }
            App::BundleAudit => {
                bundles(BundleAuditFinder.rank_scored(scene, scores.bundles(scene)))
            }
        }
    }
}

/// Where component scores come from: the batch [`ScoreEngine`] or the
/// streamed [`IncrementalScorer`].
trait ScoreSource {
    fn with_tracks<R>(
        &mut self,
        scene: &Scene,
        rank: impl FnOnce(&[(TrackIdx, ComponentScore)]) -> R,
    ) -> R;
    fn bundles(&mut self, scene: &Scene) -> Vec<(BundleIdx, ComponentScore)>;
}

impl ScoreSource for ScoreEngine<'_> {
    fn with_tracks<R>(
        &mut self,
        _scene: &Scene,
        rank: impl FnOnce(&[(TrackIdx, ComponentScore)]) -> R,
    ) -> R {
        rank(&self.score_all_tracks())
    }

    fn bundles(&mut self, _scene: &Scene) -> Vec<(BundleIdx, ComponentScore)> {
        self.score_all_bundles()
    }
}

impl ScoreSource for IncrementalScorer<'_> {
    fn with_tracks<R>(
        &mut self,
        scene: &Scene,
        rank: impl FnOnce(&[(TrackIdx, ComponentScore)]) -> R,
    ) -> R {
        rank(self.track_scores(scene))
    }

    fn bundles(&mut self, scene: &Scene) -> Vec<(BundleIdx, ComponentScore)> {
        self.score_all_bundles(scene)
    }
}

impl SceneRanker for App {
    type Candidate = Candidate;

    fn assembly(&self) -> AssemblyConfig {
        App::assembly(*self)
    }

    fn rank_scene(
        &self,
        _data: &SceneData,
        scene: &Scene,
        library: &FeatureLibrary,
    ) -> Result<Vec<Candidate>, FixyError> {
        self.rank(scene, library)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for app in App::ALL {
            assert_eq!(App::parse(app.name()), Some(app));
        }
        let names: BTreeSet<&str> = App::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), App::ALL.len());
        assert_eq!(App::parse("nope"), None);
        assert_eq!(App::default(), App::MissingTracks);
    }
}
