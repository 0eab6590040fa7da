//! Incremental frame-by-frame scene assembly.
//!
//! The batch path assembles a scene only once all of its frames exist —
//! a latency floor no live deployment can accept (Model Assertions runs
//! its checks online over the stream; LOA's fleet framing needs the
//! same). [`StreamingAssembler`] removes it: frames are pushed as they
//! arrive, bundling and track extension run immediately per frame
//! through the staged [`AssemblyEngine`] internals, and the finalized
//! [`Scene`] is field-for-field identical to `Scene::assemble` over the
//! same frames (locked by `tests/ingest.rs` proptests).
//!
//! Between frames, [`snapshot`](StreamingAssembler::snapshot) /
//! [`snapshot_at`](StreamingAssembler::snapshot_at) materialize the
//! partial scene so a live app can score mid-stream — the per-frame
//! sweep never revises a past assignment, so a prefix snapshot equals a
//! batch assembly of the truncated scene.

use crate::error::IngestError;
use crate::reorder::ReorderBuffer;
use fixy_core::{AssemblyConfig, AssemblyEngine, FrameDelta, Scene};
use loa_data::{Frame, FrameId, SceneData};

/// The index the next pushed frame must carry. Falls out of the u32
/// index space only after `u32::MAX + 1` pushes — unreachable for a
/// recorded scene, but a resident session with an unbounded lifetime
/// gets a typed error instead of a silent wrap that would misclassify
/// every later frame as a duplicate.
fn expected_index(pushed: usize) -> Result<u32, IngestError> {
    u32::try_from(pushed).map_err(|_| IngestError::FrameIndexOverflow { pushed })
}

/// The incremental assembler: a validating, reusable streaming front-end
/// over [`AssemblyEngine`]'s begin/push/finish stages.
///
/// ```text
/// let mut asm = StreamingAssembler::new(AssemblyConfig::default());
/// asm.begin(frame_dt);
/// for frame in stream {            // e.g. FrameReader::next_frame()
///     asm.push_frame(&frame)?;
///     let partial = asm.snapshot();     // score before end-of-scene
/// }
/// let scene = asm.finalize()?;     // == Scene::assemble over the frames
/// asm.begin(next_frame_dt);        // buffers survive for the next scene
/// ```
#[derive(Debug)]
pub struct StreamingAssembler {
    engine: AssemblyEngine,
    streaming: bool,
}

impl StreamingAssembler {
    pub fn new(cfg: AssemblyConfig) -> Self {
        StreamingAssembler { engine: AssemblyEngine::new(cfg), streaming: false }
    }

    pub fn config(&self) -> &AssemblyConfig {
        self.engine.config()
    }

    /// Swap the assembly configuration. Applies from the next
    /// [`begin`](Self::begin); swapping mid-scene is a caller bug.
    pub fn set_config(&mut self, cfg: AssemblyConfig) {
        self.engine.set_config(cfg);
    }

    /// Start a new scene. Discards any unfinalized frames; every
    /// internal buffer (grids, union-find, score matrices) survives from
    /// the previous scene.
    pub fn begin(&mut self, frame_dt: f64) {
        self.engine.begin(frame_dt);
        self.streaming = true;
    }

    /// Whether a scene is in progress (`begin` called, not yet
    /// `finalize`d).
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Number of frames pushed since [`begin`](Self::begin).
    pub fn frames_pushed(&self) -> usize {
        self.engine.frames_pushed()
    }

    /// Ingest the next frame: bundle its observations and extend tracks.
    ///
    /// Frames must arrive in strictly increasing index order with no
    /// gaps — a lower-or-equal index is a [`IngestError::DuplicateFrame`],
    /// a higher one an [`IngestError::OutOfOrderFrame`]. (For transports
    /// that cannot guarantee this, see
    /// [`push_frame_reordered`](Self::push_frame_reordered).)
    pub fn push_frame(&mut self, frame: &Frame) -> Result<(), IngestError> {
        if !self.streaming {
            return Err(IngestError::NotStreaming);
        }
        let expected = expected_index(self.engine.frames_pushed())?;
        match frame.index.0 {
            got if got < expected => return Err(IngestError::DuplicateFrame { frame: got }),
            got if got > expected => return Err(IngestError::OutOfOrderFrame { expected, got }),
            _ => {}
        }
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Push);
        self.engine.push_frame(frame);
        if let Some(metrics) = loa_obs::recorder() {
            metrics.ingest_frames_pushed.inc();
        }
        Ok(())
    }

    /// Ingest a frame from an unordered transport through a
    /// [`ReorderBuffer`]: late and duplicate frames inside the buffer's
    /// window are absorbed, and every frame the buffer releases is
    /// pushed in index order. Returns how many frames were ingested by
    /// this call (0 when the frame was buffered or dropped as a
    /// duplicate).
    ///
    /// The buffer must be dedicated to this stream and reset (via
    /// [`ReorderBuffer::begin`]) alongside [`begin`](Self::begin).
    ///
    /// Note: callers that need the per-frame
    /// [`last_delta`](Self::last_delta) after *each* released frame — the incremental
    /// scoring path — should drive [`ReorderBuffer::accept_into`] and
    /// [`push_frame`](Self::push_frame) themselves; this convenience
    /// only reports the delta of the last released frame.
    pub fn push_frame_reordered(
        &mut self,
        buf: &mut ReorderBuffer,
        frame: Frame,
    ) -> Result<usize, IngestError> {
        if !self.streaming {
            return Err(IngestError::NotStreaming);
        }
        let mut released = Vec::new();
        buf.accept_into(frame, &mut released)?;
        for frame in &released {
            self.push_frame(frame)?;
        }
        Ok(released.len())
    }

    /// The partial scene over every frame pushed so far — what a live
    /// app scores between frames. Does not disturb the stream.
    pub fn snapshot(&self) -> Scene {
        self.engine.snapshot()
    }

    /// What the most recent [`push_frame`](Self::push_frame) changed —
    /// new observation/bundle watermarks and exactly which tracks were
    /// created or extended. These are assembly facts straight from the
    /// engine (no snapshot diffing); they drive
    /// [`fixy_core::IncrementalScorer::rescore_delta`]. `None` before
    /// the first push of a scene and after [`finalize`](Self::finalize).
    pub fn last_delta(&self) -> Option<&FrameDelta> {
        self.engine.last_delta()
    }

    /// Grow a previously materialized snapshot of *this* stream in place
    /// to cover every pushed frame — O(Δ) instead of the O(scene) of
    /// [`snapshot`](Self::snapshot). Seed with an empty scene
    /// (`Scene::from_parts(vec![], vec![], vec![], frame_dt, 0)`) and
    /// call after each push; the result is always identical to a fresh
    /// `snapshot()`.
    pub fn update_snapshot(&self, scene: &mut Scene) -> Result<(), IngestError> {
        if !self.streaming {
            return Err(IngestError::NotStreaming);
        }
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Snapshot);
        self.engine.update_snapshot(scene);
        if let Some(metrics) = loa_obs::recorder() {
            metrics.snapshot_tracks.record(scene.n_tracks() as u64);
        }
        Ok(())
    }

    /// The partial scene up to and including `frame`, which must already
    /// be pushed.
    pub fn snapshot_at(&self, frame: FrameId) -> Result<Scene, IngestError> {
        let prefix = frame.0 as usize + 1;
        if !self.streaming || prefix > self.engine.frames_pushed() {
            return Err(IngestError::FrameOutOfRange {
                frame: frame.0,
                pushed: self.engine.frames_pushed(),
            });
        }
        Ok(self.engine.snapshot_prefix(prefix))
    }

    /// End the scene and materialize the [`Scene`]. The assembler is
    /// reusable afterwards via [`begin`](Self::begin).
    pub fn finalize(&mut self) -> Result<Scene, IngestError> {
        if !self.streaming {
            return Err(IngestError::NotStreaming);
        }
        self.streaming = false;
        Ok(self.engine.finish())
    }

    /// Convenience: stream a whole in-memory scene through
    /// begin/push/finalize. Equivalent to `Scene::assemble` (that
    /// equivalence is the subsystem's conformance contract).
    pub fn assemble_streamed(&mut self, data: &SceneData) -> Result<Scene, IngestError> {
        self.begin(data.frame_dt);
        for frame in &data.frames {
            self.push_frame(frame)?;
        }
        self.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loa_data::{generate_scene, DatasetProfile};

    fn tiny_scene(seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
        generate_scene(&cfg, &format!("ingest-{seed}"), seed)
    }

    #[test]
    fn streamed_equals_batch() {
        let data = tiny_scene(3);
        let cfg = AssemblyConfig::default();
        let mut asm = StreamingAssembler::new(cfg);
        let streamed = asm.assemble_streamed(&data).unwrap();
        assert_eq!(streamed, Scene::assemble(&data, &cfg));
    }

    #[test]
    fn push_without_begin_is_typed_error() {
        let data = tiny_scene(4);
        let mut asm = StreamingAssembler::new(AssemblyConfig::default());
        assert!(matches!(
            asm.push_frame(&data.frames[0]),
            Err(IngestError::NotStreaming)
        ));
        assert!(matches!(asm.finalize(), Err(IngestError::NotStreaming)));
    }

    #[test]
    fn out_of_order_and_duplicate_frames_rejected() {
        let data = tiny_scene(5);
        let mut asm = StreamingAssembler::new(AssemblyConfig::default());
        asm.begin(data.frame_dt);
        asm.push_frame(&data.frames[0]).unwrap();
        // Skipping ahead is out-of-order…
        assert!(matches!(
            asm.push_frame(&data.frames[2]),
            Err(IngestError::OutOfOrderFrame { expected: 1, got: 2 })
        ));
        // …and re-pushing an already-ingested index is a duplicate.
        assert!(matches!(
            asm.push_frame(&data.frames[0]),
            Err(IngestError::DuplicateFrame { frame: 0 })
        ));
        // The stream survives the rejections.
        asm.push_frame(&data.frames[1]).unwrap();
        assert_eq!(asm.frames_pushed(), 2);
    }

    #[test]
    fn snapshot_at_bounds() {
        let data = tiny_scene(6);
        let mut asm = StreamingAssembler::new(AssemblyConfig::default());
        asm.begin(data.frame_dt);
        asm.push_frame(&data.frames[0]).unwrap();
        asm.push_frame(&data.frames[1]).unwrap();
        let snap = asm.snapshot_at(FrameId(1)).unwrap();
        assert_eq!(snap.n_frames, 2);
        assert!(matches!(
            asm.snapshot_at(FrameId(2)),
            Err(IngestError::FrameOutOfRange { frame: 2, pushed: 2 })
        ));
    }

    #[test]
    fn delta_surface_follows_stream_lifecycle() {
        let data = tiny_scene(8);
        let mut asm = StreamingAssembler::new(AssemblyConfig::default());
        let mut grown = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        // Outside a stream, both delta APIs refuse.
        assert!(asm.last_delta().is_none());
        assert!(matches!(
            asm.update_snapshot(&mut grown),
            Err(IngestError::NotStreaming)
        ));

        asm.begin(data.frame_dt);
        assert!(asm.last_delta().is_none(), "no delta before the first push");
        for (f, frame) in data.frames.iter().enumerate() {
            asm.push_frame(frame).unwrap();
            let delta = asm.last_delta().expect("delta after push");
            assert_eq!(delta.frame, f);
            asm.update_snapshot(&mut grown).unwrap();
            assert_eq!(grown, asm.snapshot(), "frame {f}");
        }
        let final_scene = asm.finalize().unwrap();
        assert_eq!(grown, final_scene);
        assert!(asm.last_delta().is_none(), "delta cleared by finalize");
    }

    #[test]
    fn frame_index_overflow_is_typed_not_wrapped() {
        // `u32::MAX as usize + 1` pushes exhausts the index space; the
        // old `as u32` cast wrapped to 0 and misread every later frame
        // as a duplicate.
        assert_eq!(expected_index(0).unwrap(), 0);
        assert_eq!(expected_index(u32::MAX as usize).unwrap(), u32::MAX);
        assert!(matches!(
            expected_index(u32::MAX as usize + 1),
            Err(IngestError::FrameIndexOverflow { pushed }) if pushed == u32::MAX as usize + 1
        ));
    }

    #[test]
    fn reordered_push_absorbs_shuffle_and_duplicates() {
        let data = tiny_scene(9);
        let cfg = AssemblyConfig::default();
        let mut asm = StreamingAssembler::new(cfg);
        let mut buf = ReorderBuffer::new(4);
        asm.begin(data.frame_dt);
        buf.begin();
        let n = data.frames.len();
        assert!(n >= 3, "scene too short to shuffle");
        // Deliver 1 before 0, duplicate 0, then the rest in order.
        assert_eq!(asm.push_frame_reordered(&mut buf, data.frames[1].clone()).unwrap(), 0);
        assert_eq!(asm.push_frame_reordered(&mut buf, data.frames[0].clone()).unwrap(), 2);
        assert_eq!(asm.push_frame_reordered(&mut buf, data.frames[0].clone()).unwrap(), 0);
        for frame in &data.frames[2..] {
            assert_eq!(asm.push_frame_reordered(&mut buf, frame.clone()).unwrap(), 1);
        }
        assert_eq!(buf.duplicates_dropped(), 1);
        assert_eq!(buf.reordered_released(), 1);
        let streamed = asm.finalize().unwrap();
        assert_eq!(streamed, Scene::assemble(&data, &cfg));
    }

    #[test]
    fn reuse_across_scenes_is_clean() {
        let cfg = AssemblyConfig::default();
        let mut asm = StreamingAssembler::new(cfg);
        for seed in [3, 7, 4] {
            let data = tiny_scene(seed);
            let streamed = asm.assemble_streamed(&data).unwrap();
            assert_eq!(streamed, Scene::assemble(&data, &cfg), "seed {seed}");
        }
    }
}
