//! The fixed metric registry: every instrument the LOA layers record
//! into, as named fields on one `static`-friendly struct.
//!
//! A hand-rolled registry with static fields (instead of a name→metric
//! map) keeps the hot path a field access — no hashing, no locks, no
//! registration order — and makes the full exposition surface visible
//! in one place.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::text;

/// Pipeline stages with per-stage duration histograms, used both by the
/// global registry (`loa_stage_duration_us{stage="..."}`) and by
/// [`crate::ObsSpan`] trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Batch scene assembly (`ScenePipeline`).
    Assemble,
    /// Whole-scene factor evaluation (`ScoreEngine::new`: every factor
    /// evaluated into the scene's `ln p` columns). Labelled `compile`.
    Compile,
    /// Full candidate score sweep.
    Score,
    /// Candidate ranking against the feature library.
    Rank,
    /// Streaming frame push (`StreamingAssembler::push_frame`).
    Push,
    /// Incremental snapshot materialization (`update_snapshot`).
    Snapshot,
    /// O(Δ) incremental re-score (`IncrementalScorer::rescore_delta`).
    Rescore,
}

impl Stage {
    pub const ALL: [Stage; 7] = [
        Stage::Assemble,
        Stage::Compile,
        Stage::Score,
        Stage::Rank,
        Stage::Push,
        Stage::Snapshot,
        Stage::Rescore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Assemble => "assemble",
            Stage::Compile => "compile",
            Stage::Score => "score",
            Stage::Rank => "rank",
            Stage::Push => "push",
            Stage::Snapshot => "snapshot",
            Stage::Rescore => "rescore",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Every instrument in the system. Construction is `const`, so the
/// global registry lives in a `static` with zero init cost; tests build
/// local instances to record and render without touching global state.
#[derive(Debug, Default)]
pub struct Metrics {
    // Serving (loa_serve).
    pub frames: Counter,
    pub sessions_opened: Counter,
    pub sessions_closed: Counter,
    pub active_sessions: Gauge,
    pub connections: Counter,
    pub engines_built: Counter,
    pub engines_reused: Counter,
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    pub cold_start_us: Gauge,
    pub frame_latency_us: Histogram,
    // Streaming ingest (loa_ingest).
    pub ingest_frames_pushed: Counter,
    pub reorder_released: Counter,
    pub reorder_parked: Counter,
    pub reorder_duplicates_dropped: Counter,
    pub reorder_rejected: Counter,
    pub reorder_stranded: Counter,
    pub snapshot_tracks: Histogram,
    // Scoring engine (fixy_core).
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub dirty_components: Histogram,
    stages: [Histogram; 7],
}

impl Metrics {
    pub const fn new() -> Self {
        Metrics {
            frames: Counter::new(),
            sessions_opened: Counter::new(),
            sessions_closed: Counter::new(),
            active_sessions: Gauge::new(),
            connections: Counter::new(),
            engines_built: Counter::new(),
            engines_reused: Counter::new(),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            cold_start_us: Gauge::new(),
            frame_latency_us: Histogram::new(),
            ingest_frames_pushed: Counter::new(),
            reorder_released: Counter::new(),
            reorder_parked: Counter::new(),
            reorder_duplicates_dropped: Counter::new(),
            reorder_rejected: Counter::new(),
            reorder_stranded: Counter::new(),
            snapshot_tracks: Histogram::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            dirty_components: Histogram::new(),
            stages: [const { Histogram::new() }; 7],
        }
    }

    /// Per-stage duration histogram (microseconds).
    #[inline]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Zero every instrument (tests and `loa_obs::reset`).
    pub fn reset(&self) {
        self.frames.reset();
        self.sessions_opened.reset();
        self.sessions_closed.reset();
        self.active_sessions.reset();
        self.connections.reset();
        self.engines_built.reset();
        self.engines_reused.reset();
        self.bytes_in.reset();
        self.bytes_out.reset();
        self.cold_start_us.reset();
        self.frame_latency_us.reset();
        self.ingest_frames_pushed.reset();
        self.reorder_released.reset();
        self.reorder_parked.reset();
        self.reorder_duplicates_dropped.reset();
        self.reorder_rejected.reset();
        self.reorder_stranded.reset();
        self.snapshot_tracks.reset();
        self.cache_hits.reset();
        self.cache_misses.reset();
        self.dirty_components.reset();
        for s in &self.stages {
            s.reset();
        }
    }

    /// Render the full registry in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP`/`# TYPE` headers, cumulative
    /// `_bucket{le=...}` histogram lines, escaped label values.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(8 * 1024);
        text::push_counter(
            &mut out,
            "loa_frames_total",
            "Frames scored by the audit service",
            &self.frames,
        );
        text::push_counter(
            &mut out,
            "loa_sessions_opened_total",
            "Sessions opened over the lifetime of the service",
            &self.sessions_opened,
        );
        text::push_counter(
            &mut out,
            "loa_sessions_closed_total",
            "Sessions closed (including rejected-then-closed)",
            &self.sessions_closed,
        );
        text::push_gauge(
            &mut out,
            "loa_active_sessions",
            "Sessions currently open",
            &self.active_sessions,
        );
        text::push_counter(
            &mut out,
            "loa_connections_total",
            "Client connections accepted",
            &self.connections,
        );
        text::push_counter(
            &mut out,
            "loa_engines_built_total",
            "Scoring-engine trios constructed (pool misses)",
            &self.engines_built,
        );
        text::push_counter(
            &mut out,
            "loa_engines_reused_total",
            "Scoring-engine trios reused from the pool",
            &self.engines_reused,
        );
        text::push_counter(
            &mut out,
            "loa_bytes_in_total",
            "Wire bytes read from clients",
            &self.bytes_in,
        );
        text::push_counter(
            &mut out,
            "loa_bytes_out_total",
            "Wire bytes written to clients",
            &self.bytes_out,
        );
        text::push_gauge(
            &mut out,
            "loa_cold_start_us",
            "Measured serve cold start, library open to scoring context ready (microseconds)",
            &self.cold_start_us,
        );
        text::push_histogram(
            &mut out,
            "loa_frame_latency_us",
            "Service-wide per-frame latency, accept to scored (microseconds)",
            &[],
            &self.frame_latency_us,
        );
        text::push_counter(
            &mut out,
            "loa_ingest_frames_pushed_total",
            "Frames pushed through the streaming assembler",
            &self.ingest_frames_pushed,
        );
        text::push_counter(
            &mut out,
            "loa_reorder_released_total",
            "Frames released by the reorder buffer in watermark order",
            &self.reorder_released,
        );
        text::push_counter(
            &mut out,
            "loa_reorder_parked_total",
            "Early frames parked in the reorder buffer awaiting the watermark",
            &self.reorder_parked,
        );
        text::push_counter(
            &mut out,
            "loa_reorder_duplicates_dropped_total",
            "Duplicate frames dropped by the reorder buffer",
            &self.reorder_duplicates_dropped,
        );
        text::push_counter(
            &mut out,
            "loa_reorder_rejected_total",
            "Frames rejected for exceeding the reorder window",
            &self.reorder_rejected,
        );
        text::push_counter(
            &mut out,
            "loa_reorder_stranded_total",
            "Parked frames stranded at session close (gaps never filled)",
            &self.reorder_stranded,
        );
        text::push_histogram(
            &mut out,
            "loa_snapshot_tracks",
            "Tracks in the live snapshot after each frame",
            &[],
            &self.snapshot_tracks,
        );
        text::push_counter(
            &mut out,
            "loa_cache_hits_total",
            "Component-score cache hits in incremental sweeps",
            &self.cache_hits,
        );
        text::push_counter(
            &mut out,
            "loa_cache_misses_total",
            "Component-score cache misses in incremental sweeps",
            &self.cache_misses,
        );
        text::push_histogram(
            &mut out,
            "loa_dirty_components",
            "Tracks invalidated per incremental re-score",
            &[],
            &self.dirty_components,
        );
        text::push_help_type(
            &mut out,
            "loa_stage_duration_us",
            "Per-stage pipeline durations (microseconds)",
            "histogram",
        );
        for stage in Stage::ALL {
            text::push_histogram_series(
                &mut out,
                "loa_stage_duration_us",
                &[("stage", stage.name())],
                self.stage(stage),
            );
        }
        out
    }
}
