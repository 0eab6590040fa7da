//! RAII span timers with a thread-local span stack.
//!
//! [`ObsSpan::enter`] costs one relaxed atomic load when observability
//! is fully disabled. When metrics are on, dropping the span records
//! its duration into the global per-stage histogram; when span tracing
//! is on, it additionally pushes a [`SpanRecord`] (stage, duration,
//! nesting depth) onto a bounded thread-local ring that the owner of
//! the thread drains with [`drain_thread_spans`] — this is what backs
//! the `fixy stream --trace` per-frame stage table.
//!
//! The ring overwrites oldest-first at 1024 records, so enabling spans
//! in a long-lived server thread that never drains cannot grow memory
//! without bound.

use crate::registry::Stage;
use crate::{recorder, spans_enabled};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

/// Most completed spans retained per thread before oldest are dropped.
const THREAD_RING_CAP: usize = 1024;

/// A completed span, as drained by [`drain_thread_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub stage: Stage,
    pub dur_us: u64,
    /// Nesting depth at entry (0 = outermost traced span).
    pub depth: u8,
}

struct ThreadSpans {
    depth: u8,
    completed: VecDeque<SpanRecord>,
}

thread_local! {
    static THREAD_SPANS: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans { depth: 0, completed: VecDeque::new() })
    };
}

/// An in-flight stage timing, closed on drop.
#[must_use = "the span measures until it is dropped"]
#[derive(Debug)]
pub struct ObsSpan {
    stage: Stage,
    /// `None` when observability was off at entry — drop is a no-op.
    start: Option<Instant>,
    /// Depth at entry, tracked only while span tracing is on.
    traced_depth: Option<u8>,
}

impl ObsSpan {
    #[inline]
    pub fn enter(stage: Stage) -> ObsSpan {
        if crate::state_bits() == 0 {
            return ObsSpan { stage, start: None, traced_depth: None };
        }
        Self::enter_slow(stage)
    }

    #[cold]
    fn enter_slow(stage: Stage) -> ObsSpan {
        let traced_depth = if spans_enabled() {
            Some(THREAD_SPANS.with(|s| {
                let mut s = s.borrow_mut();
                let d = s.depth;
                s.depth = s.depth.saturating_add(1);
                d
            }))
        } else {
            None
        };
        ObsSpan { stage, start: Some(Instant::now()), traced_depth }
    }
}

impl Drop for ObsSpan {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(metrics) = recorder() {
            metrics.stage(self.stage).record(dur_us);
        }
        if let Some(depth) = self.traced_depth {
            THREAD_SPANS.with(|s| {
                let mut s = s.borrow_mut();
                s.depth = s.depth.saturating_sub(1);
                if s.completed.len() == THREAD_RING_CAP {
                    s.completed.pop_front();
                }
                s.completed.push_back(SpanRecord { stage: self.stage, dur_us, depth });
            });
        }
    }
}

/// Drain and return this thread's completed spans, in completion order.
pub fn drain_thread_spans() -> Vec<SpanRecord> {
    THREAD_SPANS.with(|s| s.borrow_mut().completed.drain(..).collect())
}

/// Each record's self time: its duration minus the durations of the
/// spans nested directly inside it. `records` must be in completion
/// order, as [`drain_thread_spans`] returns them (a child completes
/// before its parent), so the self times of one drained batch add up to
/// its outermost spans' durations and no stage is counted twice.
pub fn self_times(records: &[SpanRecord]) -> Vec<u64> {
    // nested[d]: time of the completed depth-d spans whose parent is
    // still open.
    let mut nested: Vec<u64> = Vec::new();
    records
        .iter()
        .map(|r| {
            let d = usize::from(r.depth);
            if nested.len() < d + 2 {
                nested.resize(d + 2, 0);
            }
            let children = std::mem::take(&mut nested[d + 1]);
            nested[d] += r.dur_us;
            r.dur_us.saturating_sub(children)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stage: Stage, dur_us: u64, depth: u8) -> SpanRecord {
        SpanRecord { stage, dur_us, depth }
    }

    #[test]
    fn self_times_subtract_direct_children() {
        // push(3) | rank(10) { score(4) { snapshot(1) }, compile(2) } | push(5)
        let records = [
            rec(Stage::Push, 3, 0),
            rec(Stage::Snapshot, 1, 2),
            rec(Stage::Score, 4, 1),
            rec(Stage::Compile, 2, 1),
            rec(Stage::Rank, 10, 0),
            rec(Stage::Push, 5, 0),
        ];
        let own = self_times(&records);
        assert_eq!(own, vec![3, 1, 3, 2, 4, 5]);
        assert_eq!(own.iter().sum::<u64>(), 3 + 10 + 5, "outermost spans' time");
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = crate::test_guard();
        crate::disable_all();
        drop(ObsSpan::enter(Stage::Assemble));
        assert!(drain_thread_spans().is_empty());
    }

    #[test]
    fn ring_is_bounded() {
        let _g = crate::test_guard();
        crate::enable_spans();
        for _ in 0..(THREAD_RING_CAP + 10) {
            drop(ObsSpan::enter(Stage::Push));
        }
        let drained = drain_thread_spans();
        crate::disable_all();
        assert_eq!(drained.len(), THREAD_RING_CAP);
    }

    #[test]
    fn nesting_depth_recorded() {
        let _g = crate::test_guard();
        crate::enable_spans();
        {
            let _outer = ObsSpan::enter(Stage::Rank);
            drop(ObsSpan::enter(Stage::Score));
        }
        let drained = drain_thread_spans();
        crate::disable_all();
        // Inner completes first.
        assert_eq!(drained.len(), 2);
        assert_eq!((drained[0].stage, drained[0].depth), (Stage::Score, 1));
        assert_eq!((drained[1].stage, drained[1].depth), (Stage::Rank, 0));
    }
}
