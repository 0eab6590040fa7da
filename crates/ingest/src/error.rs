//! The typed error surface of the ingest subsystem.

use std::path::PathBuf;

/// Errors from streaming assembly, binary scene decoding, and corpus
/// walking.
#[derive(Debug)]
pub enum IngestError {
    /// Underlying file I/O failed — including a `.fscb` file truncated
    /// mid-record (the decoder reads exact lengths, so a short read
    /// surfaces here instead of panicking).
    Io(std::io::Error),
    /// A binary scene's bytes are structurally wrong (bad magic, unknown
    /// version or tag, record overrun).
    Corrupt(String),
    /// JSON scene loading or structural validation failed.
    Scene(loa_data::io::IoError),
    /// A frame arrived ahead of its position — frames must be pushed in
    /// strictly increasing index order with no gaps.
    OutOfOrderFrame { expected: u32, got: u32 },
    /// A frame id at or below the last pushed one arrived again.
    DuplicateFrame { frame: u32 },
    /// A frame arrived too far ahead of the reorder watermark for the
    /// bounded buffer to hold — the stream has lost more frames than the
    /// window absorbs, or the transport is delivering garbage indexes.
    ReorderWindowExceeded { frame: u32, watermark: u32, window: u32 },
    /// The stream has already ingested every index a `u32` can address —
    /// a resident session has outlived the frame-id space and must be
    /// recycled.
    FrameIndexOverflow { pushed: usize },
    /// `update_snapshot` was handed a scene that is neither the previous
    /// push's snapshot of this stream nor the current one.
    SnapshotMismatch(fixy_core::SnapshotMismatch),
    /// `push_frame`/`finalize` outside a `begin` … `finalize` window.
    NotStreaming,
    /// A corpus directory contains no `.json` or `.fscb` scenes.
    EmptyCorpus(PathBuf),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "io error: {e}"),
            IngestError::Corrupt(msg) => write!(f, "corrupt binary scene: {msg}"),
            IngestError::Scene(e) => write!(f, "scene error: {e}"),
            IngestError::OutOfOrderFrame { expected, got } => {
                write!(f, "out-of-order frame: expected index {expected}, got {got}")
            }
            IngestError::DuplicateFrame { frame } => {
                write!(f, "duplicate frame index {frame}")
            }
            IngestError::ReorderWindowExceeded { frame, watermark, window } => {
                write!(
                    f,
                    "frame {frame} is beyond the reorder window: watermark {watermark}, \
                     window {window} (indexes {watermark}..{})",
                    watermark.saturating_add(*window)
                )
            }
            IngestError::FrameIndexOverflow { pushed } => {
                write!(
                    f,
                    "frame-index overflow: {pushed} frame(s) pushed exhausts the u32 index space"
                )
            }
            IngestError::SnapshotMismatch(e) => write!(f, "snapshot mismatch: {e}"),
            IngestError::NotStreaming => {
                write!(f, "no scene in progress: call begin() first")
            }
            IngestError::EmptyCorpus(dir) => {
                write!(f, "no .json or .fscb scenes in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<loa_data::io::IoError> for IngestError {
    fn from(e: loa_data::io::IoError) -> Self {
        IngestError::Scene(e)
    }
}

/// The `.fscb` codec decodes through the shared primitive layer in
/// [`fixy_core::codec`]; its two failure modes map onto the matching
/// ingest variants.
impl From<fixy_core::CodecError> for IngestError {
    fn from(e: fixy_core::CodecError) -> Self {
        match e {
            fixy_core::CodecError::Io(e) => IngestError::Io(e),
            fixy_core::CodecError::Corrupt(msg) => IngestError::Corrupt(msg),
        }
    }
}

/// Streamed sources feed `ScenePipeline::process_stream`, which carries
/// source failures as [`fixy_core::FixyError::SceneSource`].
impl From<IngestError> for fixy_core::FixyError {
    fn from(e: IngestError) -> Self {
        fixy_core::FixyError::SceneSource(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = IngestError::OutOfOrderFrame { expected: 3, got: 7 };
        assert!(e.to_string().contains("expected index 3"));
        assert!(e.to_string().contains("got 7"));
        assert!(IngestError::DuplicateFrame { frame: 2 }.to_string().contains("2"));
        let e = IngestError::ReorderWindowExceeded { frame: 20, watermark: 3, window: 8 };
        assert!(e.to_string().contains("frame 20"));
        assert!(e.to_string().contains("watermark 3"));
        assert!(e.to_string().contains("3..11"));
        assert!(IngestError::FrameIndexOverflow { pushed: 1 << 32 }
            .to_string()
            .contains("overflow"));
        assert!(IngestError::NotStreaming.to_string().contains("begin"));
        assert!(IngestError::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
        assert!(IngestError::EmptyCorpus(PathBuf::from("/tmp/x"))
            .to_string()
            .contains("/tmp/x"));
        let fixy: fixy_core::FixyError = IngestError::DuplicateFrame { frame: 9 }.into();
        assert!(matches!(fixy, fixy_core::FixyError::SceneSource(_)));
        assert!(fixy.to_string().contains("frame index 9"));
    }
}
