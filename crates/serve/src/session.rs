//! One resident audit session: the PR 6 streaming trio behind a reorder
//! buffer.
//!
//! A session is the per-stream state of the service — a
//! [`StreamingAssembler`], an [`IncrementalScorer`] bound to the shared
//! app context, and a [`ReorderBuffer`] absorbing transport jitter in
//! front of them. Each frame the buffer releases runs the full O(Δ)
//! hot loop (`push_frame` → `update_snapshot` → `rescore_delta`), and
//! the worklist is re-ranked from the cached per-track scores — so a
//! session's worklist at watermark *n* is byte-identical to `fixy
//! stream`'s after *n* in-order frames, no matter how the transport
//! shuffled delivery inside the window.
//!
//! The engines (all their internal buffers: grids, union-find, reorder
//! slots) outlive sessions: `Session::close` hands them back for the
//! pool in [`AuditService`](crate::AuditService), and `begin()` resets
//! reuse them for the next stream.

use crate::error::ServeError;
use crate::protocol::{SessionStats, Worklist};
use fixy_core::apps::{LabelAuditFinder, MissingObsFinder, MissingTrackFinder};
use fixy_core::{
    AssemblyConfig, FeatureLibrary, FeatureSet, IncrementalScorer, Scene, SceneRanker,
};
use loa_baselines::MaExcludedModelErrors;
use loa_data::Frame;
use loa_ingest::{ReorderBuffer, StreamingAssembler};

/// The audit application a serving context runs — the three paper apps
/// plus the label audit, covering all three assembly presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeApp {
    /// Missing human tracks in model output (default assembly).
    MissingTracks,
    /// Missing per-frame observations in human tracks (default assembly).
    MissingObs,
    /// Model-error ranking with ad-hoc-assertion exclusion (model-only
    /// assembly).
    ModelErrors,
    /// Implausibly-labeled human tracks (human-only assembly).
    LabelAudit,
}

impl ServeApp {
    /// CLI / library-file name.
    pub fn name(self) -> &'static str {
        match self {
            ServeApp::MissingTracks => "missing-tracks",
            ServeApp::MissingObs => "missing-obs",
            ServeApp::ModelErrors => "model-errors",
            ServeApp::LabelAudit => "label-audit",
        }
    }

    /// Parse a [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "missing-tracks" => Some(ServeApp::MissingTracks),
            "missing-obs" => Some(ServeApp::MissingObs),
            "model-errors" => Some(ServeApp::ModelErrors),
            "label-audit" => Some(ServeApp::LabelAudit),
            _ => None,
        }
    }

    /// The assembly preset this app's scenes are built with.
    pub fn assembly(self) -> AssemblyConfig {
        match self {
            ServeApp::MissingTracks | ServeApp::MissingObs => AssemblyConfig::default(),
            ServeApp::ModelErrors => MaExcludedModelErrors::default().assembly(),
            ServeApp::LabelAudit => AssemblyConfig::human_only(),
        }
    }

    /// The app's feature set — what a serving library must be fitted for.
    pub fn feature_set(self) -> FeatureSet {
        match self {
            ServeApp::MissingTracks => MissingTrackFinder::default().feature_set(),
            ServeApp::MissingObs => MissingObsFinder::default().feature_set(),
            ServeApp::ModelErrors => MaExcludedModelErrors::default().finder.feature_set(),
            ServeApp::LabelAudit => LabelAuditFinder::default().feature_set(),
        }
    }
}

/// The shared, read-only serving state: app, feature set, fitted
/// library, assembly preset. Every session (across every connection)
/// borrows one context, so the library is resident exactly once no
/// matter how many streams are live.
#[derive(Debug)]
pub struct ServeContext {
    app: ServeApp,
    features: FeatureSet,
    library: FeatureLibrary,
    assembly: AssemblyConfig,
    me_ranker: MaExcludedModelErrors,
}

impl ServeContext {
    /// Bind an app to its fitted library. Fails up front (not per
    /// session) when a learned feature has no library entry.
    pub fn new(app: ServeApp, library: FeatureLibrary) -> Result<Self, ServeError> {
        let features = app.feature_set();
        // Validate once so sessions cannot fail halfway through opening.
        IncrementalScorer::new(&features, &library)?;
        Ok(ServeContext {
            app,
            features,
            library,
            assembly: app.assembly(),
            me_ranker: MaExcludedModelErrors::default(),
        })
    }

    pub fn app(&self) -> ServeApp {
        self.app
    }

    /// Build a fresh engine trio for a session with the given reorder
    /// window.
    pub fn new_engines(&self, window: u32) -> Engines<'_> {
        Engines {
            assembler: StreamingAssembler::new(self.assembly),
            scorer: IncrementalScorer::new(&self.features, &self.library)
                .expect("validated at ServeContext::new"),
            reorder: ReorderBuffer::new(window),
        }
    }

    /// The app's (label, score) worklist from the session's cached
    /// scores — the same labels `fixy stream` prints.
    fn rank(&self, scene: &Scene, scorer: &mut IncrementalScorer<'_>) -> Vec<(String, f64)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Rank);
        match self.app {
            ServeApp::MissingTracks => MissingTrackFinder::default()
                .rank_incremental(scene, scorer)
                .into_iter()
                .map(|c| (c.class.to_string(), c.score))
                .collect(),
            ServeApp::MissingObs => MissingObsFinder::default()
                .rank_incremental(scene, scorer)
                .into_iter()
                .map(|c| {
                    let frame = scene.bundle(c.bundle).frame.0;
                    (format!("frame {frame} {}", c.class), c.score)
                })
                .collect(),
            ServeApp::ModelErrors => {
                let excluded = self.me_ranker.excluded(scene);
                self.me_ranker
                    .finder
                    .rank_incremental(scene, scorer, &excluded)
                    .into_iter()
                    .map(|c| (c.class.to_string(), c.score))
                    .collect()
            }
            ServeApp::LabelAudit => LabelAuditFinder::default()
                .rank_incremental(scene, scorer)
                .into_iter()
                .map(|c| (c.class.to_string(), c.score))
                .collect(),
        }
    }
}

/// The per-session engine trio. All internal allocations survive
/// session churn: `Session::close` returns the engines and
/// `Engines::begin` resets them for the next stream.
pub struct Engines<'c> {
    pub(crate) assembler: StreamingAssembler,
    pub(crate) scorer: IncrementalScorer<'c>,
    pub(crate) reorder: ReorderBuffer,
}

impl Engines<'_> {
    /// Reset every engine for a new stream (buffers survive).
    fn begin(&mut self, frame_dt: f64) {
        self.assembler.begin(frame_dt);
        self.scorer.begin();
        self.reorder.begin();
    }
}

/// One live audit stream: scene id, engine trio, grown snapshot, latest
/// worklist, and delivery stats.
pub struct Session<'c> {
    scene_id: String,
    engines: Engines<'c>,
    scene: Scene,
    worklist: Vec<(String, f64)>,
    stats: SessionStats,
    max_frames: usize,
    released: Vec<Frame>,
    /// Per-frame accept→rank latency for *this* session, recorded only
    /// while metrics are enabled; quantiles surface in
    /// [`SessionStats`] through `STATS` replies and the close worklist.
    latency: loa_obs::Histogram,
}

impl<'c> Session<'c> {
    /// Start a stream on (possibly recycled) engines.
    pub(crate) fn start(
        mut engines: Engines<'c>,
        scene_id: &str,
        frame_dt: f64,
        max_frames: usize,
    ) -> Self {
        engines.begin(frame_dt);
        let scene = Scene::from_parts(vec![], vec![], vec![], frame_dt, 0);
        Session {
            scene_id: scene_id.to_string(),
            engines,
            scene,
            worklist: Vec::new(),
            stats: SessionStats::default(),
            max_frames,
            released: Vec::new(),
            latency: loa_obs::Histogram::new(),
        }
    }

    pub fn scene_id(&self) -> &str {
        &self.scene_id
    }

    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Frames ingested (released through the reorder buffer and scored).
    pub fn frames(&self) -> u64 {
        self.stats.frames
    }

    /// Accept one frame from the transport. Recoverable rejections
    /// ([`ServeError::is_frame_recoverable`]) leave the session fully
    /// usable; the caller decides whether to absorb them into stats
    /// (the service does) or surface them. Returns the number of frames
    /// released and scored by this call.
    pub fn push(&mut self, ctx: &ServeContext, frame: Frame) -> Result<usize, ServeError> {
        let index = frame.index.0;
        if index as usize >= self.max_frames {
            return Err(ServeError::FrameLimit { frame: index, max: self.max_frames });
        }
        let t0 = loa_obs::metrics_enabled().then(std::time::Instant::now);
        self.released.clear();
        let before_dups = self.engines.reorder.duplicates_dropped();
        self.engines.reorder.accept_into(frame, &mut self.released)?;
        self.stats.duplicates_dropped += self.engines.reorder.duplicates_dropped() - before_dups;
        if self.released.is_empty() {
            return Ok(0);
        }
        // The O(Δ) hot loop, once per released frame: the scorer's cache
        // contract needs every delta applied in order.
        for frame in &self.released {
            self.engines.assembler.push_frame(frame)?;
            self.engines.assembler.update_snapshot(&mut self.scene)?;
            let delta = self.engines.assembler.last_delta().expect("delta after push");
            self.engines.scorer.rescore_delta(&self.scene, delta);
        }
        self.stats.frames += self.released.len() as u64;
        self.stats.reordered = self.engines.reorder.reordered_released();
        self.worklist = ctx.rank(&self.scene, &mut self.engines.scorer);
        if let (Some(t0), Some(metrics)) = (t0, loa_obs::recorder()) {
            let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.latency.record(us);
            metrics.frame_latency_us.record(us);
            metrics.frames.add(self.released.len() as u64);
        }
        Ok(self.released.len())
    }

    /// Decode a `.fscb` frame record off the wire and [`push`](Self::push)
    /// it.
    pub fn push_record(&mut self, ctx: &ServeContext, payload: &[u8]) -> Result<usize, ServeError> {
        let frame = loa_ingest::decode_frame_record(payload)?;
        self.push(ctx, frame)
    }

    /// Record a recoverable per-frame rejection: bump the counter and
    /// keep the first message for the close-time report.
    pub(crate) fn record_reject(&mut self, message: String) {
        self.stats.rejected += 1;
        if self.stats.first_reject.is_none() {
            self.stats.first_reject = Some(message);
        }
    }

    /// The latest worklist entries (after the last released frame).
    pub fn worklist_entries(&self) -> &[(String, f64)] {
        &self.worklist
    }

    /// A live copy of the delivery stats — what a `STATS` request
    /// returns mid-session. Unlike [`stats`](Self::stats), this fills
    /// the moment-in-time fields: frames currently parked in the
    /// reorder buffer and the latency quantile estimates.
    pub fn stats_snapshot(&self) -> SessionStats {
        let mut stats = self.stats.clone();
        stats.parked = self.engines.reorder.pending() as u64;
        stats.frame_p50_us = self.latency.p50();
        stats.frame_p99_us = self.latency.p99();
        stats.frame_max_us = self.latency.max_value();
        stats
    }

    /// End the stream: the final worklist plus the engines, ready for
    /// the pool.
    pub(crate) fn close(mut self) -> (Worklist, Engines<'c>) {
        self.stats.stranded = self.engines.reorder.take_stranded().len() as u64;
        self.stats.frame_p50_us = self.latency.p50();
        self.stats.frame_p99_us = self.latency.p99();
        self.stats.frame_max_us = self.latency.max_value();
        let worklist = Worklist {
            scene_id: self.scene_id,
            entries: self.worklist,
            stats: self.stats,
        };
        (worklist, self.engines)
    }
}
