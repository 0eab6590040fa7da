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
//! Between frames, [`update_snapshot`](StreamingAssembler::update_snapshot)
//! grows one live scene in place so a live app can score mid-stream —
//! the per-frame sweep never revises a past assignment, so the grown
//! scene equals a batch assembly of the scene truncated to the frames
//! pushed so far, which is the reference the tests hold it against.

use crate::error::IngestError;
use fixy_core::{AssemblyConfig, AssemblyEngine, FrameDelta, Scene};
use loa_data::{Frame, SceneData};

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
/// let mut partial = Scene::from_parts(vec![], vec![], vec![], frame_dt, 0);
/// for frame in stream {            // e.g. FrameReader::next_frame()
///     asm.push_frame(&frame)?;
///     asm.update_snapshot(&mut partial)?;  // score before end-of-scene
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

    /// Start a new scene. Discards any unfinalized frames; every
    /// internal buffer (grids, union-find, score matrices) survives from
    /// the previous scene.
    pub fn begin(&mut self, frame_dt: f64) {
        self.engine.begin(frame_dt);
        self.streaming = true;
    }

    /// Ingest the next frame: bundle its observations and extend tracks.
    ///
    /// Frames must arrive in strictly increasing index order with no
    /// gaps — a lower-or-equal index is a [`IngestError::DuplicateFrame`],
    /// a higher one an [`IngestError::OutOfOrderFrame`]. Transports that
    /// cannot guarantee this release frames through a
    /// [`ReorderBuffer`](crate::ReorderBuffer) first (see
    /// [`accept_into`](crate::ReorderBuffer::accept_into)).
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

    /// What the most recent [`push_frame`](Self::push_frame) changed —
    /// new observation/bundle watermarks and exactly which tracks were
    /// created or extended. These are assembly facts straight from the
    /// engine (no snapshot diffing); they drive
    /// [`fixy_core::IncrementalScorer::rescore_delta`]. `None` before
    /// the first push of a scene and after [`finalize`](Self::finalize).
    pub fn last_delta(&self) -> Option<&FrameDelta> {
        self.engine.last_delta()
    }

    /// Grow this stream's partial scene in place to cover every pushed
    /// frame, in O(Δ). Seed with an empty scene
    /// (`Scene::from_parts(vec![], vec![], vec![], frame_dt, 0)`) and call
    /// once after each push: `scene` must be the one grown as of the
    /// previous push (or the current one, which is left as it is). The
    /// result is always identical to `Scene::assemble` over the frames
    /// pushed so far.
    ///
    /// A scene that lags further behind, or is not this stream's, is
    /// refused with [`IngestError::SnapshotMismatch`] and left untouched.
    pub fn update_snapshot(&self, scene: &mut Scene) -> Result<(), IngestError> {
        if !self.streaming {
            return Err(IngestError::NotStreaming);
        }
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Snapshot);
        self.engine
            .update_snapshot(scene)
            .map_err(IngestError::SnapshotMismatch)?;
        if let Some(metrics) = loa_obs::recorder() {
            metrics.snapshot_tracks.record(scene.n_tracks() as u64);
        }
        Ok(())
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
    use crate::reorder::ReorderBuffer;
    use loa_data::{generate_scene, DatasetProfile};

    /// The batch reference for a partial scene: `data` truncated to its
    /// first `n` frames, assembled in one shot.
    fn batch_prefix(data: &SceneData, n: usize) -> Scene {
        let truncated = SceneData { frames: data.frames[..n].to_vec(), ..data.clone() };
        Scene::assemble(&truncated, &AssemblyConfig::default())
    }

    fn empty_scene(data: &SceneData) -> Scene {
        Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0)
    }

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
        assert_eq!(asm.last_delta().map(|d| d.frame), Some(1));
    }

    #[test]
    fn delta_surface_follows_stream_lifecycle() {
        let data = tiny_scene(8);
        let mut asm = StreamingAssembler::new(AssemblyConfig::default());
        let mut grown = empty_scene(&data);
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
            assert_eq!(grown, batch_prefix(&data, f + 1), "frame {f}");
        }
        let final_scene = asm.finalize().unwrap();
        assert_eq!(grown, final_scene);
        assert!(asm.last_delta().is_none(), "delta cleared by finalize");
    }

    #[test]
    fn lagging_and_foreign_snapshots_are_typed_errors() {
        use fixy_core::SnapshotMismatch;
        let data = tiny_scene(10);
        assert!(data.frames.len() >= 3, "scene too short");
        let mut asm = StreamingAssembler::new(AssemblyConfig::default());
        asm.begin(data.frame_dt);
        let mut grown = empty_scene(&data);

        // Lagging: two pushes since the seed scene's snapshot.
        asm.push_frame(&data.frames[0]).unwrap();
        asm.push_frame(&data.frames[1]).unwrap();
        let before = grown.clone();
        assert!(matches!(
            asm.update_snapshot(&mut grown),
            Err(IngestError::SnapshotMismatch(SnapshotMismatch::Lagging {
                scene_frames: 0,
                pushed: 2
            }))
        ));
        assert_eq!(grown, before, "a refused scene is left untouched");

        // A second stream grows the scenes handed to this one: one frame
        // of `data` (the previous push's scene) and one frame of another
        // scene.
        let grow_first_frame = |data: &SceneData| {
            let mut other = StreamingAssembler::new(AssemblyConfig::default());
            other.begin(data.frame_dt);
            other.push_frame(&data.frames[0]).unwrap();
            let mut scene = empty_scene(data);
            other.update_snapshot(&mut scene).unwrap();
            scene
        };

        // Foreign: the right frame count, another stream's contents.
        let mut foreign = grow_first_frame(&tiny_scene(11));
        assert_ne!(foreign.n_observations(), batch_prefix(&data, 1).n_observations());
        let err = asm.update_snapshot(&mut foreign).unwrap_err();
        assert!(
            matches!(
                err,
                IngestError::SnapshotMismatch(SnapshotMismatch::Foreign { scene_frames: 1 })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("not a snapshot of this stream"), "{err}");

        // The previous push's scene grows; the current one is kept.
        let mut prev = grow_first_frame(&data);
        assert_eq!(prev, batch_prefix(&data, 1));
        asm.update_snapshot(&mut prev).unwrap();
        assert_eq!(prev, batch_prefix(&data, 2));
        asm.update_snapshot(&mut prev).unwrap();
        assert_eq!(prev, batch_prefix(&data, 2));
        // A scene ahead of the stream is refused too.
        asm.begin(data.frame_dt);
        assert!(matches!(
            asm.update_snapshot(&mut prev),
            Err(IngestError::SnapshotMismatch(SnapshotMismatch::Lagging {
                scene_frames: 2,
                pushed: 0
            }))
        ));
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
        // Deliver 1 before 0, duplicate 0, then the rest in order; push
        // every frame the buffer releases, the way a served session does.
        let mut released = Vec::new();
        let mut deliver = |asm: &mut StreamingAssembler, frame: &Frame| {
            released.clear();
            buf.accept_into(frame.clone(), &mut released).unwrap();
            for frame in &released {
                asm.push_frame(frame).unwrap();
            }
            released.len()
        };
        assert_eq!(deliver(&mut asm, &data.frames[1]), 0);
        assert_eq!(deliver(&mut asm, &data.frames[0]), 2);
        assert_eq!(deliver(&mut asm, &data.frames[0]), 0);
        for frame in &data.frames[2..] {
            assert_eq!(deliver(&mut asm, frame), 1);
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
