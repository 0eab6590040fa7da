//! Inputs made from the seed, and the expected outputs that go with
//! them.
//!
//! Both run in a child process before the measured one starts, so
//! neither their time nor their memory reaches `setup_s` or
//! `peak_rss_mb`. `generate` writes the training and audited scenes as
//! `.fscb`. They are kept for later runs of the same seed and build:
//! the generators and the `.fscb` format are part of the build, so the
//! scenes' directory is named after a hash of the executable. `expect`
//! runs on every run, with the build being measured:
//! it fits the libraries exactly as set-up will and records, per audited
//! scene, a digest of the worklist the sequential batch path ranks, and
//! the grade of those worklists against the generator's injected-error
//! record. A run checks every worklist it produces against those
//! digests, so the grade is that of the run's own worklists.

use crate::audit::{self, with_ranker, App, Grade};
use crate::setup::{self, SetupTimes};
use crate::spec::{self, Sizes, Workload};
use crate::Res;
use fixy_core::prelude::*;
use loa_data::{generate_scene, ScenarioFuzzer, SceneData};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hasher as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Where inputs live, under the checkout.
const INPUTS: &str = ".bench_inputs";
/// Inputs of this many seeds per workload stay on disk.
const KEEP_SEEDS: usize = 12;

/// The apps whose libraries a workload fits.
pub fn apps(workload: Workload) -> &'static [App] {
    match workload {
        Workload::CorpusAudit => &App::ALL,
        Workload::FleetLive | Workload::SessionChurn => &[App::MissingTracks],
    }
}

/// A hash of this executable, which names the inputs it generates.
fn build_tag() -> Res<&'static str> {
    static TAG: OnceLock<Result<String, String>> = OnceLock::new();
    let tag = TAG.get_or_init(|| {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bad = |e: std::io::Error| format!("{}: {e}", exe.display());
        let mut file = std::fs::File::open(&exe).map_err(bad)?;
        // In chunks: the measured process calls this too, and a copy of
        // the executable would count in its `peak_rss_mb`.
        let mut chunk = vec![0u8; 1 << 16];
        let mut h = std::collections::hash_map::DefaultHasher::new();
        loop {
            match file.read(&mut chunk).map_err(bad)? {
                0 => break,
                n => h.write(&chunk[..n]),
            }
        }
        Ok(format!("b{:016x}", h.finish()))
    });
    tag.as_deref().map_err(Clone::clone)
}

fn seed_prefix(workload: Workload, mini: bool) -> String {
    format!("{}{}-s", workload.name(), if mini { "-mini" } else { "" })
}

/// Where this build's inputs of a workload for one seed live.
pub fn dir(workload: Workload, seed: u64, mini: bool) -> Res<PathBuf> {
    let name = format!("{}{seed}-{}", seed_prefix(workload, mini), build_tag()?);
    Ok(Path::new(INPUTS).join(name))
}

/// Remove the inputs of other builds, and all but the [`KEEP_SEEDS`]
/// most recently used seeds of `workload` in this build.
pub fn prune(workload: Workload, mini: bool) -> Res<()> {
    let suffix = format!("-{}", build_tag()?);
    let prefix = seed_prefix(workload, mini);
    let mut ours = Vec::new();
    for entry in std::fs::read_dir(INPUTS).map_err(|e| format!("{INPUTS}: {e}"))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(&suffix) {
            std::fs::remove_dir_all(entry.path()).map_err(|e| format!("{name}: {e}"))?;
        } else if name.starts_with(&prefix) {
            let used = entry
                .metadata()
                .and_then(|m| m.modified())
                .map_err(|e| e.to_string())?;
            ours.push((used, entry.path()));
        }
    }
    ours.sort_by(|a, b| b.0.cmp(&a.0));
    for (_, path) in ours.iter().skip(KEEP_SEEDS) {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// SplitMix64 step: decorrelated per-scene generator seeds.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Write the workload's training and audited scenes into `out`.
pub fn generate(workload: Workload, seed: u64, mini: bool, out: &Path) -> Res<()> {
    let sizes = Sizes::of(workload, mini);
    let t = std::time::Instant::now();
    let (train, scenes): (Vec<SceneData>, Vec<SceneData>) = match workload {
        Workload::CorpusAudit | Workload::SessionChurn => {
            // Both train on ~15 s scenes, so set-up covers the same
            // amount of training data; churn audits ~3 s ones.
            let train = ScenarioFuzzer::new(seed).with_profile(spec::audit_profile());
            let audited = ScenarioFuzzer::new(seed).with_profile(match workload {
                Workload::CorpusAudit => spec::audit_profile(),
                _ => spec::churn_profile(),
            });
            (
                train.training_corpus(sizes.train),
                (0..sizes.scenes as u64).map(|i| audited.scene(i)).collect(),
            )
        }
        Workload::FleetLive => {
            // Training scenes are the profile's standard 15 s; the mini
            // size shortens both.
            let train_cfg = spec::internal_config(if mini { sizes.fleet_duration } else { 15.0 });
            let live_cfg = spec::internal_config(sizes.fleet_duration);
            (
                (0..sizes.train as u64)
                    .map(|i| {
                        generate_scene(
                            &train_cfg,
                            &format!("train-{i:03}-s{seed}"),
                            mix(seed, 1 << 32 | i),
                        )
                    })
                    .collect(),
                (0..sizes.scenes as u64)
                    .map(|i| {
                        generate_scene(&live_cfg, &format!("fleet-{i:03}-s{seed}"), mix(seed, i))
                    })
                    .collect(),
            )
        }
    };
    for (sub, set) in [("train", &train), ("scenes", &scenes)] {
        std::fs::create_dir_all(out.join(sub)).map_err(|e| e.to_string())?;
        for (i, scene) in set.iter().enumerate() {
            let path = out.join(sub).join(format!("{i:04}.fscb"));
            loa_ingest::write_scene(scene, &path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    eprintln!("generated and wrote the scenes in {:.2} s", t.elapsed().as_secs_f64());
    Ok(())
}

/// Rank the scenes in `dir` with this build's sequential pipeline and
/// write the expected outputs, graded, to `dir/EXPECTED`.
pub fn expect(workload: Workload, dir: &Path) -> Res<()> {
    let t = std::time::Instant::now();
    let libs = setup::build_libraries(dir, apps(workload), &mut SetupTimes::default())?;
    let paths = setup::scene_paths(&dir.join("scenes"))?;
    let mut reference = String::new();
    let mut grade = Grade::default();
    for (app, library) in &libs {
        // The sequential pipeline is the reference every measured path
        // (two workers, traced layers, streamed sessions) must equal.
        let rows = with_ranker!(*app, |r| ScenePipeline::new(r).sequential().process_stream(
            library,
            paths.clone(),
            |p: PathBuf| loa_ingest::read_scene(&p),
            |rs| {
                let mut g = Grade::default();
                let tracks = audit::Candidate::track_list(&rs.candidates);
                match tracks {
                    // fleet-live is graded as `fixy rank --grade` grades
                    // the generator's missing tracks.
                    Some(cands) if workload == Workload::FleetLive => {
                        for m in &rs.data.injected.missing_tracks {
                            g.add(audit::missing_track_rank(&rs.data, &rs.scene, cands, m.track));
                        }
                    }
                    _ => {
                        for error in audit::fuzz_errors(*app, &rs.data) {
                            g.add(audit::rank_of(
                                *app,
                                &rs.data,
                                &rs.scene,
                                &rs.candidates,
                                &error,
                            ));
                        }
                    }
                }
                let served = tracks.map_or(0, |c| audit::digest_entries(&audit::served_entries(c)));
                (audit::digest(&rs.candidates), rs.candidates.len(), served, g)
            },
        ))
        .map_err(|e| e.to_string())?;
        for (i, (digest, n, served, g)) in rows.into_iter().enumerate() {
            let _ = writeln!(reference, "{} {i} {digest:016x} {n} {served:016x}", app.name());
            grade.merge(g);
        }
    }
    eprintln!(
        "fitted and ranked the reference in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    if grade.errors == 0 {
        return Err("the generated scenes carry no injected errors to grade".into());
    }
    let _ = writeln!(
        reference,
        "grade {} {:?} {}",
        grade.errors, grade.reciprocal_sum, grade.in_top10
    );
    std::fs::write(dir.join(EXPECTED), reference).map_err(|e| format!("{EXPECTED}: {e}"))
}

/// The file `expect` writes and [`Reference::take`] reads and removes.
pub const EXPECTED: &str = "EXPECTED";

/// Expected worklist of one audited scene under one app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Digest of the batch candidates (element, score bits).
    pub digest: u64,
    pub len: usize,
    /// Digest of the served (label, score) worklist; missing-tracks
    /// only, 0 for the other apps.
    pub served: u64,
}

/// The expected outputs `expect` recorded for this run.
#[derive(Debug)]
pub struct Reference {
    by_app: HashMap<&'static str, Vec<Expected>>,
    pub grade: Grade,
}

impl Reference {
    /// Read `dir/EXPECTED` and remove it, so no later run can read it
    /// in place of its own.
    pub fn take(dir: &Path) -> Res<Reference> {
        let path = dir.join(EXPECTED);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut by_app: HashMap<&'static str, Vec<Expected>> = HashMap::new();
        let mut grade = None;
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let bad = || format!("{EXPECTED}: bad line {line:?}");
            if let ["grade", errors, reciprocal_sum, in_top10] = f[..] {
                grade = Some(Grade {
                    errors: errors.parse().map_err(|_| bad())?,
                    reciprocal_sum: reciprocal_sum.parse().map_err(|_| bad())?,
                    in_top10: in_top10.parse().map_err(|_| bad())?,
                });
                continue;
            }
            let [app, index, digest, len, served] = f[..] else { return Err(bad()) };
            let app = App::ALL.iter().find(|a| a.name() == app).ok_or_else(bad)?.name();
            let rows = by_app.entry(app).or_default();
            if index.parse::<usize>().map_err(|_| bad())? != rows.len() {
                return Err(bad());
            }
            rows.push(Expected {
                digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
                len: len.parse().map_err(|_| bad())?,
                served: u64::from_str_radix(served, 16).map_err(|_| bad())?,
            });
        }
        let grade = grade.ok_or(format!("{EXPECTED}: no grade line"))?;
        Ok(Reference { by_app, grade })
    }

    pub fn expected(&self, app: App) -> &[Expected] {
        self.by_app.get(app.name()).map(Vec::as_slice).unwrap_or(&[])
    }
}
