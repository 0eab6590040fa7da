//! `loa_obs` — zero-overhead-when-off observability for the LOA stack.
//!
//! Two pieces, both hand-rolled on `std` atomics (no deps, no
//! network):
//!
//! * **Metrics** — a fixed registry ([`Metrics`]) of lock-free
//!   [`Counter`]s, [`Gauge`]s, and log₂-bucketed latency
//!   [`Histogram`]s with p50/p90/p99/max estimation, rendered in the
//!   Prometheus text format by [`Metrics::render_prometheus`].
//! * **Spans** — [`ObsSpan`] RAII stage timers feeding the per-stage
//!   duration histograms and (when tracing is on) a bounded
//!   thread-local ring drained by [`drain_thread_spans`].
//!
//! # The disabled path is the contract
//!
//! Instrumented hot loops call [`recorder`] (or construct an
//! [`ObsSpan`]); with observability off both cost exactly one relaxed
//! atomic load and a predictable branch — measured <3% per frame even
//! on the miniature CI scene (`streaming/instrumented_rescore_*` in
//! `crates/bench/benches/streaming.rs`). Nothing is recorded, no time
//! is read, no thread-local is touched. Enabling is a process-wide
//! switch ([`enable_metrics`] / [`enable_spans`] / [`enable_all`]),
//! flipped by `fixy serve --metrics-addr` and `fixy stream --trace`.
//!
//! The primitives themselves are *not* gated: a locally constructed
//! [`Metrics`] or [`Histogram`] always records, so tests (and embedders
//! that want their own registry) never depend on global state.

mod metrics;
mod registry;
mod span;
pub mod text;

pub use metrics::{bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::{Metrics, Stage};
pub use span::{drain_thread_spans, self_times, ObsSpan, SpanRecord};

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

const METRICS_BIT: u8 = 1 << 0;
const SPANS_BIT: u8 = 1 << 1;

static STATE: AtomicU8 = AtomicU8::new(0);
static GLOBAL: Metrics = Metrics::new();

/// Raw state bits — the single relaxed load on every disabled-path
/// check. `0` means fully off.
#[inline]
pub fn state_bits() -> u8 {
    STATE.load(Relaxed)
}

/// Install the global recorder: subsequent [`recorder`] calls return
/// the global [`Metrics`] bank.
pub fn enable_metrics() {
    STATE.fetch_or(METRICS_BIT, Relaxed);
}

/// Additionally capture completed spans into the per-thread trace ring
/// (see [`drain_thread_spans`]).
pub fn enable_spans() {
    STATE.fetch_or(SPANS_BIT, Relaxed);
}

/// Metrics + span tracing.
pub fn enable_all() {
    STATE.store(METRICS_BIT | SPANS_BIT, Relaxed);
}

/// Back to the free path. Recorded values are kept (see [`reset`]).
pub fn disable_all() {
    STATE.store(0, Relaxed);
}

pub fn metrics_enabled() -> bool {
    state_bits() & METRICS_BIT != 0
}

pub fn spans_enabled() -> bool {
    state_bits() & SPANS_BIT != 0
}

/// The gate every instrumented hot path goes through: `None` (one
/// relaxed load + branch) when metrics are off, the global bank when
/// on. Callers hold the reference for a whole sweep so batched
/// recording pays the check once.
#[inline]
pub fn recorder() -> Option<&'static Metrics> {
    if metrics_enabled() {
        Some(&GLOBAL)
    } else {
        None
    }
}

/// Ungated access to the global bank — for exposition endpoints and
/// tests, never for hot-path recording (use [`recorder`]).
pub fn global() -> &'static Metrics {
    &GLOBAL
}

/// Zero the global metrics bank (state bits unchanged).
pub fn reset() {
    GLOBAL.reset();
}

/// Serialize tests that flip the process-wide state bits.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_follows_state_bits() {
        let _g = test_guard();
        disable_all();
        assert!(recorder().is_none());
        assert!(!metrics_enabled() && !spans_enabled());
        enable_metrics();
        assert!(recorder().is_some());
        assert!(!spans_enabled());
        enable_all();
        assert!(metrics_enabled() && spans_enabled());
        disable_all();
        assert!(recorder().is_none());
    }
}
