//! Evaluation harness for the Fixy reproduction.
//!
//! Regenerates every table and headline number of the paper's Section 8
//! against the synthetic datasets:
//!
//! * [`metrics`] — precision@k, recall, average precision,
//! * [`resolve`] — the one grader: deciding whether a flagged candidate
//!   is a real injected error (the role the paper's expert auditors
//!   played), per typed injected error and per candidate, for every app,
//! * [`experiments`] — one runner per experiment: Table 3
//!   (missing-track precision), the Section 8.2 recall study, the Section
//!   8.3 missing-observation case study, the Section 8.4 model-error
//!   comparison, the Section 8.1 runtime check, and the injection-recall
//!   conformance run over the fuzzer's whole error taxonomy,
//! * [`report`] — plain-text table formatting for the reproduction
//!   binaries and EXPERIMENTS.md.

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod resolve;

pub use experiments::{
    audit_curve::{run_audit_curve, AuditCurve, AuditCurveResult},
    injection_recall::{
        run_injection_recall, run_injection_recall_with_corpus, CorpusFormat,
        CorpusMaterialization, InjectionRecallConfig, InjectionRecallResult, KindRecall,
    },
    missing_obs::{run_missing_obs_experiment, MissingObsResult},
    model_errors::{run_model_error_experiment, ModelErrorResult},
    recall::{run_recall_experiment, run_scene_level_recall, RecallResult, SceneLevelRecall},
    runtime::{run_runtime_experiment, RuntimeResult},
    table3::{run_table3, Table3Config, Table3Result, Table3Row},
};
pub use metrics::{average_precision, precision_at_k, recall_at_k};
pub use resolve::{resolve_track_candidate, CandidateTruth};
