//! Ranked outputs — the runtime engine's product.
//!
//! *"As output, Fixy returns a ranked list of (potentially a subset of)
//! observations, where higher ranked observations are ideally more likely
//! to contain errors."*

use crate::scene::{BundleIdx, Scene, TrackIdx};
use loa_data::ObjectClass;
use loa_graph::ComponentScore;
use serde::{Deserialize, Serialize};

/// A ranked track candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackCandidate {
    pub track: TrackIdx,
    /// Normalized log-likelihood (higher = more likely under the learned
    /// distributions, after AOF transformation).
    pub score: f64,
    pub class: ObjectClass,
    /// Number of observations in the track.
    pub n_obs: usize,
    /// Mean model confidence over the track (None: no model members).
    pub mean_confidence: Option<f64>,
}

/// A ranked bundle candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BundleCandidate {
    pub bundle: BundleIdx,
    /// The track containing the bundle.
    pub track: TrackIdx,
    pub score: f64,
    pub class: ObjectClass,
}

/// One worklist entry of any application: a track or a bundle candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Candidate {
    Track(TrackCandidate),
    Bundle(BundleCandidate),
}

impl Candidate {
    pub fn score(&self) -> f64 {
        match self {
            Candidate::Track(c) => c.score,
            Candidate::Bundle(c) => c.score,
        }
    }

    /// The worklist label `fixy stream` and `fixy serve` print: the class
    /// of a track, `frame <n> <class>` for a bundle.
    pub fn label(&self, scene: &Scene) -> String {
        match self {
            Candidate::Track(c) => c.class.to_string(),
            Candidate::Bundle(c) => format!("frame {} {}", scene.bundle(c.bundle).frame.0, c.class),
        }
    }

    pub fn as_track(&self) -> Option<&TrackCandidate> {
        match self {
            Candidate::Track(c) => Some(c),
            Candidate::Bundle(_) => None,
        }
    }

    pub fn as_bundle(&self) -> Option<&BundleCandidate> {
        match self {
            Candidate::Bundle(c) => Some(c),
            Candidate::Track(_) => None,
        }
    }
}

/// Sort candidates by descending score with a deterministic tiebreak.
/// `total_cmp` orders every f64 (NaN included) without panicking, and
/// candidate indices are unique, so no two candidates compare equal and
/// the unstable sort's order is fully determined.
pub fn sort_track_candidates(candidates: &mut [TrackCandidate]) {
    candidates.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.track.cmp(&b.track)));
}

/// Sort bundle candidates by descending score with a deterministic
/// tiebreak (see [`sort_track_candidates`]).
pub fn sort_bundle_candidates(candidates: &mut [BundleCandidate]) {
    candidates.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.bundle.cmp(&b.bundle)));
}

/// Build a track candidate from its score.
pub fn track_candidate(scene: &Scene, track: TrackIdx, score: f64) -> TrackCandidate {
    let t = scene.track(track);
    TrackCandidate {
        track,
        score,
        class: scene.track_class(t),
        n_obs: scene.track_n_obs(track),
        mean_confidence: scene.track_mean_confidence(t),
    }
}

/// Every track with a score (not zeroed by an AOF) as a candidate,
/// sorted: the whole ranking step of the apps whose factors already zero
/// every track that is not a candidate.
pub(crate) fn rank_scored_tracks(
    scene: &Scene,
    scores: impl IntoIterator<Item = (TrackIdx, ComponentScore)>,
) -> Vec<TrackCandidate> {
    let mut candidates: Vec<TrackCandidate> = scores
        .into_iter()
        .filter_map(|(track, score)| Some(track_candidate(scene, track, score.score?)))
        .collect();
    sort_track_candidates(&mut candidates);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(track: usize, score: f64) -> TrackCandidate {
        TrackCandidate {
            track: TrackIdx(track),
            score,
            class: ObjectClass::Car,
            n_obs: 5,
            mean_confidence: None,
        }
    }

    #[test]
    fn sorts_descending() {
        let mut cs = vec![cand(0, -2.0), cand(1, -0.5), cand(2, -1.0)];
        sort_track_candidates(&mut cs);
        let order: Vec<usize> = cs.iter().map(|c| c.track.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_track_index() {
        let mut cs = vec![cand(5, -1.0), cand(2, -1.0), cand(9, -1.0)];
        sort_track_candidates(&mut cs);
        let order: Vec<usize> = cs.iter().map(|c| c.track.0).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    /// `total_cmp` ordering: a NaN score (impossible from the fold, but
    /// not from a hand-built candidate) sorts without panicking, and
    /// finite ties still break by index.
    #[test]
    fn nan_scores_sort_without_panicking() {
        let mut cs = vec![cand(7, -1.0), cand(4, f64::NAN), cand(3, -1.0), cand(5, -0.5)];
        sort_track_candidates(&mut cs);
        let order: Vec<usize> = cs.iter().map(|c| c.track.0).collect();
        // A positive NaN orders above every finite score.
        assert_eq!(order, vec![4, 5, 3, 7]);

        let mk = |b: usize, s: f64| BundleCandidate {
            bundle: BundleIdx(b),
            track: TrackIdx(0),
            score: s,
            class: ObjectClass::Car,
        };
        let mut bs = vec![mk(2, -2.0), mk(1, f64::NAN), mk(0, -2.0)];
        sort_bundle_candidates(&mut bs);
        let order: Vec<usize> = bs.iter().map(|c| c.bundle.0).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn bundle_sort_descending() {
        let mk = |b: usize, s: f64| BundleCandidate {
            bundle: BundleIdx(b),
            track: TrackIdx(0),
            score: s,
            class: ObjectClass::Car,
        };
        let mut cs = vec![mk(0, -3.0), mk(1, -1.0), mk(2, -1.0)];
        sort_bundle_candidates(&mut cs);
        let order: Vec<usize> = cs.iter().map(|c| c.bundle.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }
}
