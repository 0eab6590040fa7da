//! One resident audit session: the PR 6 streaming trio behind a reorder
//! buffer.
//!
//! A session is the per-stream state of the service — a
//! [`StreamingAssembler`], an [`IncrementalScorer`] bound to the shared
//! app context, and a [`ReorderBuffer`] absorbing transport jitter in
//! front of them. Each frame the buffer releases runs the O(Δ) hot loop
//! (`push_frame` → `update_snapshot` → `rescore_delta`) and marks the
//! worklist stale. The worklist is ranked from the cached per-track
//! scores only when it is read ([`Session::peek`], or the close), once
//! per read after new frames — so a frame costs O(Δ) however long the
//! scene, and a session's worklist at watermark *n* is byte-identical to
//! `fixy stream`'s after *n* in-order frames, no matter how the
//! transport shuffled delivery inside the window.
//!
//! The engines (all their internal buffers: grids, union-find, reorder
//! slots) outlive sessions: `Session::close` hands them back for the
//! pool in [`AuditService`](crate::AuditService), and `begin()` resets
//! reuse them for the next stream.

use crate::error::ServeError;
use crate::protocol::{SessionStats, Worklist};
use fixy_core::apps::App;
use fixy_core::{AssemblyConfig, FeatureLibrary, FeatureSet, IncrementalScorer, Scene};
use loa_data::Frame;
use loa_ingest::{ReorderBuffer, StreamingAssembler};

/// The audit application a serving context runs: any registry app.
pub use fixy_core::apps::App as ServeApp;

/// The shared, read-only serving state: app, feature set, fitted
/// library, assembly preset. Every session (across every connection)
/// borrows one context, so the library is resident exactly once no
/// matter how many streams are live.
#[derive(Debug)]
pub struct ServeContext {
    app: App,
    features: FeatureSet,
    library: FeatureLibrary,
    assembly: AssemblyConfig,
}

impl ServeContext {
    /// Bind an app to its fitted library. Fails up front (not per
    /// session) when a learned feature has no library entry.
    pub fn new(app: App, library: FeatureLibrary) -> Result<Self, ServeError> {
        let features = app.feature_set();
        // Validate once so sessions cannot fail halfway through opening.
        IncrementalScorer::new(&features, &library)?;
        Ok(ServeContext { app, features, library, assembly: app.assembly() })
    }

    pub fn app(&self) -> App {
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
        let ranked = self.app.rank_streamed(scene, scorer);
        ranked.iter().map(|c| (c.label(scene), c.score())).collect()
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

/// One live audit stream: scene id, engine trio, grown snapshot, last
/// ranked worklist, and delivery stats.
pub struct Session<'c> {
    scene_id: String,
    engines: Engines<'c>,
    scene: Scene,
    worklist: Vec<(String, f64)>,
    /// Whether frames were released since `worklist` was ranked.
    stale: bool,
    stats: SessionStats,
    max_frames: usize,
    released: Vec<Frame>,
    /// Per-frame accept→scored latency for *this* session, recorded
    /// only while metrics are enabled; quantiles surface in
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
            stale: false,
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

    /// Accept one frame from the transport. Every frame the reorder
    /// buffer releases is assembled into the snapshot and rescored —
    /// O(Δ) — and marks the worklist stale; nothing is ranked here (see
    /// [`peek`](Self::peek)). Recoverable rejections
    /// ([`ServeError::is_frame_recoverable`]) leave the session fully
    /// usable; the caller decides whether to absorb them into stats
    /// (the service does) or surface them. Returns the number of frames
    /// released and scored by this call.
    pub fn push(&mut self, frame: Frame) -> Result<usize, ServeError> {
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
        self.stale = true;
        for frame in &self.released {
            self.engines.assembler.push_frame(frame)?;
            self.engines.assembler.update_snapshot(&mut self.scene)?;
            let delta = self.engines.assembler.last_delta().expect("delta after push");
            self.engines.scorer.rescore_delta(&self.scene, delta);
        }
        self.stats.frames += self.released.len() as u64;
        self.stats.reordered = self.engines.reorder.reordered_released();
        if let (Some(t0), Some(metrics)) = (t0, loa_obs::recorder()) {
            let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.latency.record(us);
            metrics.frame_latency_us.record(us);
            metrics.frames.add(self.released.len() as u64);
        }
        Ok(self.released.len())
    }

    /// Record a recoverable per-frame rejection: bump the counter and
    /// keep the first message for the close-time report.
    pub(crate) fn record_reject(&mut self, message: String) {
        self.stats.rejected += 1;
        if self.stats.first_reject.is_none() {
            self.stats.first_reject = Some(message);
        }
    }

    /// The worklist after the last released frame. Ranks the cached
    /// scores if frames were released since the last read, else returns
    /// the worklist that read ranked.
    pub fn peek(&mut self, ctx: &ServeContext) -> &[(String, f64)] {
        if std::mem::take(&mut self.stale) {
            self.worklist = ctx.rank(&self.scene, &mut self.engines.scorer);
        }
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

    /// End the stream: the final worklist (ranked here if frames were
    /// released since the last [`peek`](Self::peek)) plus the engines,
    /// ready for the pool.
    pub(crate) fn close(mut self, ctx: &ServeContext) -> (Worklist, Engines<'c>) {
        self.peek(ctx);
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
