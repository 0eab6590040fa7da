//! Set-up: from the training corpus on disk to a system ready to audit.
//!
//! This is what `setup_s` times: decode the `.fscb` training scenes,
//! assemble them, fit each app's library, write every library as
//! `.flcb` and read it back, and (for the served workloads) build the
//! `ServeContext` and bind the listener.

use crate::audit::App;
use crate::Res;
use fixy_core::{FeatureLibrary, Learner, Scene};
use loa_data::SceneData;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seconds spent in each set-up step (filled on every set-up; the
/// traced run reports them).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub decode: f64,
    pub assemble: f64,
    pub fit: f64,
    pub flcb: f64,
    pub serve: f64,
    /// Share of the machine's CPU time the host took meanwhile.
    pub steal_share: f64,
    /// The CPU's speed meanwhile, as a [`crate::measure::Calibrator`]
    /// slowdown.
    pub slowdown: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.decode + self.assemble + self.fit + self.flcb + self.serve
    }
}

/// The `.fscb` files of a directory, in name order.
pub fn scene_paths(dir: &Path) -> Res<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .map(|e| e.map(|e| e.path()).map_err(|e| e.to_string()))
        .collect::<Res<_>>()?;
    paths.retain(|p| p.extension().is_some_and(|x| x == loa_ingest::FSCB_EXTENSION));
    paths.sort();
    Ok(paths)
}

pub fn read_scene(path: &Path) -> Res<SceneData> {
    loa_ingest::read_scene(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Fit `apps`' libraries from the training scenes in `dir/train` and
/// round-trip each through a `.flcb` file in `dir`.
pub fn build_libraries(
    dir: &Path,
    apps: &[App],
    times: &mut SetupTimes,
) -> Res<Vec<(App, FeatureLibrary)>> {
    let t = Instant::now();
    let train: Vec<SceneData> = scene_paths(&dir.join("train"))?
        .iter()
        .map(|p| read_scene(p))
        .collect::<Res<_>>()?;
    times.decode += t.elapsed().as_secs_f64();

    // One assembly of the corpus per distinct training preset.
    let t = Instant::now();
    let mut assembled: Vec<((bool, bool), Vec<Scene>)> = Vec::new();
    for app in apps {
        let cfg = app.train_assembly();
        if !assembled.iter().any(|(k, _)| *k == preset(&cfg)) {
            assembled
                .push((preset(&cfg), train.iter().map(|s| Scene::assemble(s, &cfg)).collect()));
        }
    }
    times.assemble += t.elapsed().as_secs_f64();
    drop(train);

    let mut libs = Vec::with_capacity(apps.len());
    for &app in apps {
        let cfg = app.train_assembly();
        let scenes = &assembled
            .iter()
            .find(|(k, _)| *k == preset(&cfg))
            .expect("assembled above")
            .1;
        let t = Instant::now();
        let library = Learner { assembly: cfg }
            .fit_assembled(&app.feature_set(), scenes)
            .map_err(|e| format!("fit {}: {e}", app.name()))?;
        times.fit += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let path = dir.join(format!("{}.flcb", app.name()));
        fixy_core::flcb::write_library_file(&path, app.name(), &library)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let (tag, library) = fixy_core::flcb::read_library_file(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        times.flcb += t.elapsed().as_secs_f64();
        if tag != app.name() {
            return Err(format!("{}: app tag {tag}", path.display()));
        }
        libs.push((app, library));
    }
    Ok(libs)
}

/// The training presets differ only in which sources they use.
fn preset(cfg: &fixy_core::AssemblyConfig) -> (bool, bool) {
    (cfg.use_human, cfg.use_model)
}

/// Everything a run audits with, ready to use.
pub struct Ready {
    pub libs: Vec<(App, FeatureLibrary)>,
    /// The serving context and its bound listener (served workloads).
    pub serve: Option<(loa_serve::ServeContext, TcpListener)>,
}

impl Ready {
    pub fn library(&self, app: App) -> &FeatureLibrary {
        &self
            .libs
            .iter()
            .find(|(a, _)| *a == app)
            .expect("library fitted at set-up")
            .1
    }
}

/// One complete set-up.
pub fn setup(dir: &Path, apps: &[App], served: bool, times: &mut SetupTimes) -> Res<Ready> {
    let libs = build_libraries(dir, apps, times)?;
    let serve = if served {
        // The context owns its library; the copy stays for the traced
        // run's in-process passes and is made outside the timed step.
        let library = libs[0].1.clone();
        let t = Instant::now();
        let ctx = loa_serve::ServeContext::new(loa_serve::ServeApp::MissingTracks, library)
            .map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        times.serve += t.elapsed().as_secs_f64();
        Some((ctx, listener))
    } else {
        None
    };
    Ok(Ready { libs, serve })
}
