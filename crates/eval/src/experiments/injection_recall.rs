//! The injection-recall conformance experiment: the paper's recall
//! oracle (Section 8.2) generalized over the full fuzzed error taxonomy.
//!
//! A [`ScenarioFuzzer`] corpus carries a *known, typed* error set per
//! scene. For each [`ErrorKind`] the matching application ranks every
//! scene through the [`ScenePipeline`] batch engine, and every injected
//! error must appear in the top-`k` of its scene's worklist:
//!
//! | Error kind | Registry app | Worklist entry |
//! |---|---|---|
//! | missing-track | `missing-tracks` | model-only track of the actor |
//! | missing-box | `missing-obs` | model-only bundle at the dropped frame |
//! | class-swap | `label-audit` | the implausibly-labeled human track |
//! | ghost-track | `model-errors`, ranked after the ad-hoc exclusion | the erratic model-only track |
//! | inconsistent-bundle | `bundle-audit` | the mixed bundle at the frame |
//!
//! Each app's library is fitted with [`App::fit`], and every verdict is
//! [`InjectedError::is_flagged_by`](crate::resolve::InjectedError::is_flagged_by),
//! the grader `fixy rank --grade` shares.
//!
//! The result is a conformance verdict, not a statistic: the fuzzer only
//! injects errors that are observable by construction, so anything below
//! 100% recall is a regression in the engine (or an eligibility bug in
//! an injector) — and the report pins the seed so the failure replays
//! exactly.

use crate::resolve::{app_for, injected_errors};
use fixy_core::prelude::*;
use loa_data::fuzz::{ErrorKind, ScenarioFuzzer};
use loa_data::SceneData;
use serde::{Deserialize, Serialize};

/// Parameters of the conformance run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InjectionRecallConfig {
    /// Corpus seed — the same seed always produces the identical corpus
    /// and report.
    pub seed: u64,
    /// Fuzzed scenes in the corpus.
    pub n_scenes: usize,
    /// Every injected error must rank in the top-`k` of its scene.
    pub top_k: usize,
    /// Clean training scenes for the feature libraries.
    pub n_train: usize,
}

impl Default for InjectionRecallConfig {
    fn default() -> Self {
        InjectionRecallConfig { seed: 7, n_scenes: 200, top_k: 10, n_train: 6 }
    }
}

/// Wire format for a materialized fuzz corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorpusFormat {
    /// `.fscb` — the frame-streamed compact binary scene format (default).
    #[default]
    Fscb,
    /// Scene JSON, for corpora that need to stay human-inspectable.
    Json,
}

/// Optional corpus materialization: write every generated scene into
/// `dir` and rank from the files instead of regenerating in memory — so
/// the conformance verdict also covers the on-disk scene codec.
#[derive(Debug, Clone)]
pub struct CorpusMaterialization {
    pub dir: std::path::PathBuf,
    pub format: CorpusFormat,
}

/// One injected error's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorOutcome {
    /// [`ErrorKind::name`].
    pub kind: String,
    pub scene_id: String,
    /// Human-readable target ("track 12", "track 3 @ frame 17").
    pub target: String,
    /// Rank in the scene's worklist (0-based), if found within top-k.
    pub rank: Option<usize>,
}

/// Per-kind aggregate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KindRecall {
    pub kind: String,
    pub injected: usize,
    pub found: usize,
}

impl KindRecall {
    pub fn recall(&self) -> Option<f64> {
        if self.injected == 0 {
            None
        } else {
            Some(self.found as f64 / self.injected as f64)
        }
    }
}

/// The conformance result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InjectionRecallResult {
    pub config: InjectionRecallConfig,
    pub per_kind: Vec<KindRecall>,
    /// Every injected error that missed the top-k, for reproduction.
    pub misses: Vec<ErrorOutcome>,
}

impl InjectionRecallResult {
    pub fn total_injected(&self) -> usize {
        self.per_kind.iter().map(|k| k.injected).sum()
    }

    pub fn total_found(&self) -> usize {
        self.per_kind.iter().map(|k| k.found).sum()
    }

    /// Overall recall over all injected errors.
    pub fn recall(&self) -> f64 {
        let total = self.total_injected();
        if total == 0 {
            1.0
        } else {
            self.total_found() as f64 / total as f64
        }
    }

    /// The conformance verdict: the corpus actually injected errors and
    /// every one of them ranked in top-k. An empty corpus (or a broken
    /// injector yielding zero injections) is a failure, not a
    /// vacuous pass — a gate that verified nothing must not stay green.
    pub fn is_perfect(&self) -> bool {
        self.total_injected() > 0 && self.misses.is_empty()
    }

    /// Deterministic plain-text report (same seed ⇒ identical string).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut table =
            crate::report::Table::new(vec!["error kind", "injected", "in top-k", "recall"]);
        for k in &self.per_kind {
            table.row(vec![
                k.kind.clone(),
                k.injected.to_string(),
                k.found.to_string(),
                crate::report::pct_opt(k.recall()),
            ]);
        }
        table.row(vec![
            "TOTAL".to_string(),
            self.total_injected().to_string(),
            self.total_found().to_string(),
            crate::report::pct(self.recall()),
        ]);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "injection-recall conformance: seed {}, {} scenes, top-{}",
            self.config.seed, self.config.n_scenes, self.config.top_k
        );
        out.push_str(&table.render());
        if self.total_injected() == 0 {
            let _ = writeln!(
                out,
                "FAIL: corpus injected no errors — nothing was verified (increase --scenes)"
            );
        } else if self.is_perfect() {
            let _ = writeln!(
                out,
                "PASS: all injected errors ranked in the top-{}",
                self.config.top_k
            );
        } else {
            let _ = writeln!(
                out,
                "FAIL: {} injected error(s) missing from the top-{} (reproduce with --seed {}):",
                self.misses.len(),
                self.config.top_k,
                self.config.seed
            );
            for m in &self.misses {
                let _ = writeln!(out, "  {} in {}: {}", m.kind, m.scene_id, m.target);
            }
        }
        out
    }
}

/// Run the conformance experiment. Streams the fuzzed corpus through
/// one [`ScenePipeline`] per error kind — scenes are regenerated lazily
/// from the seed per kind and pulled by the workers, so the whole
/// corpus is never materialized (O(workers) scenes in memory, the same
/// bounded regime as `fixy rank --scene <DIR>`) — and checks every
/// injected error against the top-k of its scene's worklist.
pub fn run_injection_recall(config: &InjectionRecallConfig) -> InjectionRecallResult {
    run_injection_recall_with_corpus(config, None)
        .expect("in-memory conformance run cannot hit disk errors")
}

/// Round-trip a fitted library through the `.flcb` binary codec. Every
/// conformance run scores through libraries that crossed the binary
/// wire, so the recall gate also locks `.flcb` fidelity: any bit the
/// codec perturbs in a probability grid shows up as a ranking change
/// and fails the gate.
fn roundtrip_flcb(app: &str, library: FeatureLibrary) -> FeatureLibrary {
    let bytes = fixy_core::flcb::encode_library(app, &library);
    let (decoded_app, decoded) =
        fixy_core::flcb::decode_library(&bytes).expect("flcb round-trip of a fitted library");
    assert_eq!(decoded_app, app, "flcb app tag survived");
    decoded
}

/// [`run_injection_recall`] with optional corpus materialization: when
/// `corpus` is given, every fuzzed scene is first written into the
/// directory (`.fscb` by default) and the pipelines rank from the files
/// — the same bytes an operator would archive and audit later.
pub fn run_injection_recall_with_corpus(
    config: &InjectionRecallConfig,
    corpus_out: Option<&CorpusMaterialization>,
) -> Result<InjectionRecallResult, loa_ingest::IngestError> {
    let fuzzer = ScenarioFuzzer::new(config.seed);
    let train = fuzzer.training_corpus(config.n_train);
    let corpus = || 0..config.n_scenes as u64;

    // Materialize first (one generation pass), then rank from disk.
    let scene_paths: Option<Vec<std::path::PathBuf>> = match corpus_out {
        None => None,
        Some(m) => {
            std::fs::create_dir_all(&m.dir)?;
            let mut paths = Vec::with_capacity(config.n_scenes);
            for i in corpus() {
                let scene = fuzzer.scene(i);
                let path = match m.format {
                    CorpusFormat::Fscb => {
                        let p = m.dir.join(format!("{}.fscb", scene.id));
                        loa_ingest::write_scene(&scene, &p)?;
                        p
                    }
                    CorpusFormat::Json => {
                        let p = m.dir.join(format!("{}.json", scene.id));
                        loa_data::io::save_scene(&scene, &p)?;
                        p
                    }
                };
                paths.push(path);
            }
            Some(paths)
        }
    };
    let gen_scene = |i: u64| -> Result<SceneData, fixy_core::FixyError> {
        match &scene_paths {
            Some(paths) => loa_ingest::load_scene_auto(&paths[i as usize]).map_err(Into::into),
            None => Ok(fuzzer.scene(i)),
        }
    };
    let mut per_kind = Vec::with_capacity(ErrorKind::ALL.len());
    let mut misses = Vec::new();
    for kind in ErrorKind::ALL {
        let app = app_for(kind);
        let library = app.fit(&train).unwrap_or_else(|e| panic!("fit {}: {e}", app.name()));
        let library = roundtrip_flcb(app.name(), library);
        let per_scene = ScenePipeline::new(app)
            .process_stream(&library, corpus(), gen_scene, |r| {
                injected_errors(&r.data)
                    .filter(|e| e.kind() == kind)
                    .map(|e| ErrorOutcome {
                        kind: kind.name().to_string(),
                        scene_id: r.id.clone(),
                        target: e.target(),
                        rank: r
                            .candidates
                            .iter()
                            .take(config.top_k)
                            .position(|c| e.is_flagged_by(&r.data, &r.scene, c)),
                    })
                    .collect::<Vec<_>>()
            })
            // Pipeline failures are scene-source failures once the corpus
            // lives on disk (a deleted or truncated file mid-run); carry
            // them as the ingest error they started as.
            .map_err(|e| loa_ingest::IngestError::Corrupt(format!("{kind} pipeline: {e}")))?;
        let outcomes: Vec<ErrorOutcome> = per_scene.into_iter().flatten().collect();
        per_kind.push(KindRecall {
            kind: kind.name().to_string(),
            injected: outcomes.len(),
            found: outcomes.iter().filter(|o| o.rank.is_some()).count(),
        });
        misses.extend(outcomes.into_iter().filter(|o| o.rank.is_none()));
    }

    Ok(InjectionRecallResult { config: config.clone(), per_kind, misses })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_has_perfect_recall() {
        let config = InjectionRecallConfig { seed: 7, n_scenes: 8, top_k: 10, n_train: 3 };
        let result = run_injection_recall(&config);
        assert!(result.total_injected() > 0, "corpus injected nothing");
        assert!(
            result.is_perfect(),
            "missed {} of {}:\n{}",
            result.total_injected() - result.total_found(),
            result.total_injected(),
            result.report()
        );
        assert!((result.recall() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_corpus_is_not_a_pass() {
        let config = InjectionRecallConfig { seed: 7, n_scenes: 0, top_k: 10, n_train: 2 };
        let result = run_injection_recall(&config);
        assert_eq!(result.total_injected(), 0);
        assert!(!result.is_perfect(), "a gate that verified nothing must not pass");
        assert!(
            result.report().contains("nothing was verified"),
            "{}",
            result.report()
        );
    }

    #[test]
    fn materialized_corpus_matches_in_memory() {
        // Ranking from a materialized corpus (either wire format) must
        // reproduce the in-memory report bit-for-bit: the scene codecs
        // are lossless where scoring is concerned.
        let base = std::env::temp_dir().join("fixy_eval_fuzz_corpus");
        let _ = std::fs::remove_dir_all(&base);
        let config = InjectionRecallConfig { seed: 7, n_scenes: 4, top_k: 10, n_train: 2 };
        let mem = run_injection_recall(&config).report();

        let fscb_dir = base.join("fscb");
        let m = CorpusMaterialization { dir: fscb_dir.clone(), format: CorpusFormat::Fscb };
        let fscb = run_injection_recall_with_corpus(&config, Some(&m)).unwrap().report();
        assert_eq!(mem, fscb, "fscb corpus changed the verdict");
        let written = std::fs::read_dir(&fscb_dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "fscb"))
            .count();
        assert_eq!(written, 4, "one .fscb per fuzzed scene");

        // The JSON escape hatch reaches the same verdict from .json files.
        let json_dir = base.join("json");
        let m = CorpusMaterialization { dir: json_dir.clone(), format: CorpusFormat::Json };
        let json = run_injection_recall_with_corpus(&config, Some(&m)).unwrap().report();
        assert_eq!(mem, json, "json corpus changed the verdict");
        let written = std::fs::read_dir(&json_dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "json"))
            .count();
        assert_eq!(written, 4, "one .json per fuzzed scene");

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn report_is_deterministic() {
        let config = InjectionRecallConfig { seed: 11, n_scenes: 3, top_k: 10, n_train: 2 };
        let a = run_injection_recall(&config).report();
        let b = run_injection_recall(&config).report();
        assert_eq!(a, b);
        assert!(a.contains("injection-recall conformance: seed 11"));
    }

    #[test]
    fn impossible_top_k_reports_misses() {
        // top_k = 0 can never contain anything: every injected error must
        // be reported as a miss, and the report must carry the seed.
        let config = InjectionRecallConfig { seed: 13, n_scenes: 3, top_k: 0, n_train: 2 };
        let result = run_injection_recall(&config);
        assert!(result.total_injected() > 0);
        assert_eq!(result.total_found(), 0);
        assert!(!result.is_perfect());
        let report = result.report();
        assert!(report.contains("FAIL"), "{report}");
        assert!(report.contains("--seed 13"), "{report}");
        // Every error is listed, grouped by kind in `ErrorKind::ALL` order.
        assert_eq!(result.misses.len(), result.total_injected());
        let kinds: Vec<usize> = result
            .misses
            .iter()
            .map(|m| ErrorKind::ALL.iter().position(|k| k.name() == m.kind).unwrap())
            .collect();
        assert!(kinds.windows(2).all(|w| w[0] <= w[1]), "{report}");
        assert!(kinds.first() < kinds.last(), "more than one kind missed: {report}");
    }
}
