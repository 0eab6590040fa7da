//! Baselines from the paper's evaluation (Section 8):
//!
//! * [`assertions`] — the ad-hoc model assertions of Kang et al. \[11\]:
//!   **consistency** (for finding missing labels) and **appear / flicker /
//!   multibox** (for finding model errors). MAs flag candidates but have
//!   no statistically grounded severity score, so flagged sets are ordered
//!   either randomly or by model confidence ([`ordering`]) — exactly the
//!   paper's "Ad-hoc MA (rand)" and "Ad-hoc MA (conf)" rows.
//! * [`uncertainty`] — uncertainty sampling: flag predictions whose
//!   confidence is closest to a decision threshold (the active-learning
//!   baseline of Section 8.4).

pub mod assertions;
pub mod ordering;
pub mod ranker;
pub mod uncertainty;

pub use assertions::{
    appear_assertion, consistency_assertion, flicker_assertion, multibox_assertion, AdHocAssertions,
};
pub use ordering::{order_by_confidence, order_randomly};
pub use ranker::MaExcludedModelErrors;
pub use uncertainty::{uncertainty_sample_obs, uncertainty_sample_tracks};
