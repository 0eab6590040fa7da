//! Bounded watermark-driven frame reordering.
//!
//! [`StreamingAssembler::push_frame`](crate::StreamingAssembler::push_frame)
//! demands frames in strictly increasing index order with no gaps —
//! correct for replaying a recorded `.fscb` file, fatal for a live
//! fleet: real transports deliver frames late (a retried packet), early
//! (a reordered route), and more than once (an at-least-once queue). A
//! resident audit session must absorb that jitter instead of dying on
//! the first `OutOfOrderFrame`.
//!
//! [`ReorderBuffer`] sits in front of the assembler and converts those
//! hard failures into graceful degradation inside a bounded window:
//!
//! * The **watermark** is the next frame index the assembler expects.
//!   Frames at the watermark are released immediately, together with any
//!   buffered successors they unblock — always in index order, so the
//!   assembler (and the incremental scorer behind it) sees exactly the
//!   in-order stream.
//! * Frames **ahead** of the watermark but inside the window
//!   (`index < watermark + window`) are buffered until the gap fills.
//! * **Duplicates** — indexes below the watermark or already buffered —
//!   are dropped silently and counted
//!   ([`duplicates_dropped`](ReorderBuffer::duplicates_dropped)). The
//!   first delivery wins; payloads are not compared (the fleet case
//!   this models is a transport redelivering the same record).
//! * Frames **beyond** the window surface the typed
//!   [`IngestError::ReorderWindowExceeded`] — the one failure the buffer
//!   cannot absorb — without disturbing the watermark or the buffered
//!   frames, so the session survives the rejection.
//!
//! Memory is bounded by construction: at most `window - 1` frames are
//! ever buffered.

use crate::error::IngestError;
use loa_data::Frame;
use std::collections::BTreeMap;

/// What [`ReorderBuffer::accept_into`] did with an arriving frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderOutcome {
    /// The frame was at (or unblocked) the watermark: this many frames
    /// were released, in index order.
    Released(usize),
    /// The frame is ahead of the watermark and was buffered.
    Buffered,
    /// The frame's index was already delivered or buffered; it was
    /// dropped silently.
    DuplicateDropped,
}

/// A bounded reorder stage in front of a frame consumer (usually a
/// [`StreamingAssembler`](crate::StreamingAssembler)).
///
/// ```text
/// let mut buf = ReorderBuffer::new(8);
/// let mut released = Vec::new();
/// for frame in transport {               // late / duplicated / early
///     released.clear();
///     buf.accept_into(frame, &mut released)?;   // window errors are recoverable
///     for frame in &released {           // always dense, in index order
///         assembler.push_frame(frame)?;
///     }
/// }
/// ```
#[derive(Debug)]
pub struct ReorderBuffer {
    window: u32,
    watermark: u32,
    pending: BTreeMap<u32, Frame>,
    duplicates_dropped: u64,
    reordered_released: u64,
}

impl ReorderBuffer {
    /// A buffer accepting frames with indexes in
    /// `[watermark, watermark + window)`. `window` is clamped to at
    /// least 1 (a zero window would reject every frame, including the
    /// in-order one).
    pub fn new(window: u32) -> Self {
        ReorderBuffer {
            window: window.max(1),
            watermark: 0,
            pending: BTreeMap::new(),
            duplicates_dropped: 0,
            reordered_released: 0,
        }
    }

    /// Reset for a new stream: watermark back to frame 0, buffered
    /// frames and counters cleared. The window is retained.
    pub fn begin(&mut self) {
        self.watermark = 0;
        self.pending.clear();
        self.duplicates_dropped = 0;
        self.reordered_released = 0;
    }

    /// The window size this buffer was built with.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The next frame index the consumer expects.
    pub fn watermark(&self) -> u32 {
        self.watermark
    }

    /// Number of frames currently buffered ahead of the watermark.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Frames dropped as duplicates since [`begin`](Self::begin).
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// Released frames that spent time buffered (arrived ahead of the
    /// watermark) since [`begin`](Self::begin).
    pub fn reordered_released(&self) -> u64 {
        self.reordered_released
    }

    /// Accept an arriving frame. Frames released by this call (possibly
    /// none) are appended to `out` in index order; `out` is not cleared.
    ///
    /// A frame beyond the window is the only error — and it is
    /// recoverable: the buffer's state is untouched, so the stream
    /// continues as if the offending frame never arrived.
    pub fn accept_into(
        &mut self,
        frame: Frame,
        out: &mut Vec<Frame>,
    ) -> Result<ReorderOutcome, IngestError> {
        let index = frame.index.0;
        if index < self.watermark || self.pending.contains_key(&index) {
            self.duplicates_dropped += 1;
            if let Some(metrics) = loa_obs::recorder() {
                metrics.reorder_duplicates_dropped.inc();
            }
            return Ok(ReorderOutcome::DuplicateDropped);
        }
        if index - self.watermark >= self.window {
            if let Some(metrics) = loa_obs::recorder() {
                metrics.reorder_rejected.inc();
            }
            return Err(IngestError::ReorderWindowExceeded {
                frame: index,
                watermark: self.watermark,
                window: self.window,
            });
        }
        if index > self.watermark {
            self.pending.insert(index, frame);
            if let Some(metrics) = loa_obs::recorder() {
                metrics.reorder_parked.inc();
            }
            return Ok(ReorderOutcome::Buffered);
        }
        out.push(frame);
        self.watermark = self.watermark.saturating_add(1);
        let mut released = 1usize;
        while let Some(next) = self.pending.remove(&self.watermark) {
            out.push(next);
            self.watermark = self.watermark.saturating_add(1);
            self.reordered_released += 1;
            released += 1;
        }
        if let Some(metrics) = loa_obs::recorder() {
            metrics.reorder_released.add(released as u64);
        }
        Ok(ReorderOutcome::Released(released))
    }

    /// Convenience form of [`accept_into`](Self::accept_into) returning
    /// a fresh `Vec` of released frames.
    pub fn accept(&mut self, frame: Frame) -> Result<Vec<Frame>, IngestError> {
        let mut out = Vec::new();
        self.accept_into(frame, &mut out)?;
        Ok(out)
    }

    /// End-of-stream drain: the indexes of frames that were buffered but
    /// never released because the gap below them was never filled. The
    /// buffer is left empty (the watermark is untouched — call
    /// [`begin`](Self::begin) before reuse).
    pub fn take_stranded(&mut self) -> Vec<u32> {
        let stranded: Vec<u32> = self.pending.keys().copied().collect();
        self.pending.clear();
        if !stranded.is_empty() {
            if let Some(metrics) = loa_obs::recorder() {
                metrics.reorder_stranded.add(stranded.len() as u64);
            }
        }
        stranded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loa_data::{Frame, FrameId};
    use loa_geom::Pose2;

    fn frame(index: u32) -> Frame {
        Frame {
            index: FrameId(index),
            timestamp: index as f64 * 0.2,
            ego_pose: Pose2::identity(),
            gt: vec![],
            human_labels: vec![],
            detections: vec![],
        }
    }

    fn indexes(frames: &[Frame]) -> Vec<u32> {
        frames.iter().map(|f| f.index.0).collect()
    }

    #[test]
    fn in_order_stream_passes_straight_through() {
        let mut buf = ReorderBuffer::new(4);
        for i in 0..5 {
            let released = buf.accept(frame(i)).unwrap();
            assert_eq!(indexes(&released), [i]);
        }
        assert_eq!(buf.watermark(), 5);
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.duplicates_dropped(), 0);
        assert_eq!(buf.reordered_released(), 0);
    }

    #[test]
    fn late_frame_releases_the_buffered_run() {
        let mut buf = ReorderBuffer::new(4);
        assert_eq!(indexes(&buf.accept(frame(0)).unwrap()), [0]);
        // 2 and 3 arrive before 1: buffered.
        assert!(buf.accept(frame(2)).unwrap().is_empty());
        assert!(buf.accept(frame(3)).unwrap().is_empty());
        assert_eq!(buf.pending(), 2);
        // 1 fills the gap: the whole run releases in index order.
        assert_eq!(indexes(&buf.accept(frame(1)).unwrap()), [1, 2, 3]);
        assert_eq!(buf.watermark(), 4);
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.reordered_released(), 2);
    }

    #[test]
    fn duplicates_below_watermark_and_in_buffer_drop_silently() {
        let mut buf = ReorderBuffer::new(4);
        buf.accept(frame(0)).unwrap();
        buf.accept(frame(2)).unwrap(); // buffered
                                       // Below the watermark…
        assert_eq!(
            buf.accept_into(frame(0), &mut Vec::new()).unwrap(),
            ReorderOutcome::DuplicateDropped
        );
        // …and already buffered.
        assert_eq!(
            buf.accept_into(frame(2), &mut Vec::new()).unwrap(),
            ReorderOutcome::DuplicateDropped
        );
        assert_eq!(buf.duplicates_dropped(), 2);
        // The stream is undisturbed.
        assert_eq!(indexes(&buf.accept(frame(1)).unwrap()), [1, 2]);
    }

    #[test]
    fn beyond_window_is_recoverable_typed_error() {
        let mut buf = ReorderBuffer::new(4);
        buf.accept(frame(0)).unwrap();
        // Watermark 1, window 4: indexes 1..5 acceptable, 5 is not.
        let err = buf.accept(frame(5)).unwrap_err();
        assert!(matches!(
            err,
            IngestError::ReorderWindowExceeded { frame: 5, watermark: 1, window: 4 }
        ));
        // State untouched: the in-order stream continues.
        assert_eq!(buf.watermark(), 1);
        assert_eq!(buf.pending(), 0);
        assert_eq!(indexes(&buf.accept(frame(1)).unwrap()), [1]);
    }

    #[test]
    fn window_one_is_strictly_in_order_with_dup_tolerance() {
        let mut buf = ReorderBuffer::new(0); // clamped to 1
        assert_eq!(buf.window(), 1);
        assert_eq!(indexes(&buf.accept(frame(0)).unwrap()), [0]);
        assert!(matches!(
            buf.accept(frame(2)),
            Err(IngestError::ReorderWindowExceeded { .. })
        ));
        assert_eq!(
            buf.accept_into(frame(0), &mut Vec::new()).unwrap(),
            ReorderOutcome::DuplicateDropped
        );
        assert_eq!(indexes(&buf.accept(frame(1)).unwrap()), [1]);
    }

    #[test]
    fn stranded_frames_drain_at_end_of_stream() {
        let mut buf = ReorderBuffer::new(8);
        buf.accept(frame(0)).unwrap();
        buf.accept(frame(3)).unwrap();
        buf.accept(frame(5)).unwrap();
        // Frames 1, 2, 4 never arrive: 3 and 5 are stranded.
        assert_eq!(buf.take_stranded(), [3, 5]);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn begin_resets_for_reuse() {
        let mut buf = ReorderBuffer::new(4);
        buf.accept(frame(0)).unwrap();
        buf.accept(frame(2)).unwrap();
        buf.accept(frame(0)).unwrap(); // dup
        buf.begin();
        assert_eq!(buf.watermark(), 0);
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.duplicates_dropped(), 0);
        assert_eq!(indexes(&buf.accept(frame(0)).unwrap()), [0]);
    }
}
