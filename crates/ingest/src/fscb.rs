//! The `.fscb` (frame-streamed compact binary) scene format.
//!
//! Scene JSON is convenient but wrong-shaped for fleet-scale I/O: the
//! whole document must be parsed before the first frame is usable, and
//! the text encoding is several times the information content. `.fscb`
//! is a frame-framed binary layout — a fixed header followed by
//! length-prefixed, tagged records — so a reader can hand frames to the
//! [`StreamingAssembler`](crate::StreamingAssembler) one at a time
//! without ever materializing the full [`SceneData`]:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   magic "FSCB" · version u16 · id (u32 len + utf-8)   │
//! │          frame_dt f64                                        │
//! ├──────────────────────────────────────────────────────────────┤
//! │ record   tag 0x01 · payload_len u32 · frame payload          │  × n
//! │          (index, timestamp, ego pose, gt boxes,              │
//! │           human labels, detections — all little-endian)      │
//! ├──────────────────────────────────────────────────────────────┤
//! │ trailer  tag 0x02 · payload_len u32 · injected-error audit   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything is hand-rolled little-endian (the workspace's
//! vendored-crate style: no external codec dependencies). `f64`s are
//! bit-exact (`to_le_bytes`), so a binary↔JSON round trip reproduces the
//! scene *exactly* — locked over fuzzed corpora by `tests/ingest.rs`.
//! A file that ends mid-record surfaces [`IngestError::Io`]
//! (`UnexpectedEof`), never a panic; structural nonsense (bad magic,
//! unknown tags, record overruns) surfaces [`IngestError::Corrupt`].

use crate::error::IngestError;
use fixy_core::codec::{Dec, Enc, MAX_RECORD_LEN};
use loa_data::{
    ClassFlip, ClassSwap, Detection, DetectionProvenance, Frame, FrameId, GhostId, GtBox,
    InconsistentBundle, InjectedErrors, LabeledBox, MissingBox, MissingTrack, ObjectClass,
    SceneData, TrackId,
};
use loa_geom::{Box3, Pose2, Size3, Vec2, Vec3};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// File extension of the binary scene format.
pub const FSCB_EXTENSION: &str = "fscb";

const MAGIC: [u8; 4] = *b"FSCB";
const VERSION: u16 = 1;
const TAG_FRAME: u8 = 0x01;
const TAG_TRAILER: u8 = 0x02;

// ---------------------------------------------------------------------------
// Little-endian record encoding
// ---------------------------------------------------------------------------
//
// The primitive layer (the [`Enc`] builder, the [`Dec`] cursor, the
// overrun/underrun/implausible-count discipline, the allocation-bomb
// cap) is shared with the `.flcb` library format via
// [`fixy_core::codec`]; this module layers the scene-domain types on
// top. Shared decode errors convert into [`IngestError`] through `?`.

/// Scene-domain extensions of the shared [`Enc`] builder.
trait EncExt {
    fn class(&mut self, c: ObjectClass);
    fn vec2(&mut self, v: Vec2);
    fn box3(&mut self, b: &Box3);
    fn frame_ids(&mut self, ids: &[FrameId]);
}

impl EncExt for Enc {
    fn class(&mut self, c: ObjectClass) {
        self.u8(c.index() as u8);
    }
    fn vec2(&mut self, v: Vec2) {
        self.f64(v.x);
        self.f64(v.y);
    }
    fn box3(&mut self, b: &Box3) {
        self.f64(b.center.x);
        self.f64(b.center.y);
        self.f64(b.center.z);
        self.f64(b.size.length);
        self.f64(b.size.width);
        self.f64(b.size.height);
        self.f64(b.yaw);
    }
    fn frame_ids(&mut self, ids: &[FrameId]) {
        self.len(ids.len());
        for f in ids {
            self.u32(f.0);
        }
    }
}

/// Scene-domain extensions of the shared [`Dec`] cursor.
trait DecExt {
    fn class(&mut self) -> Result<ObjectClass, IngestError>;
    fn vec2(&mut self) -> Result<Vec2, IngestError>;
    fn box3(&mut self) -> Result<Box3, IngestError>;
    fn frame_ids(&mut self) -> Result<Vec<FrameId>, IngestError>;
}

impl DecExt for Dec<'_> {
    fn class(&mut self) -> Result<ObjectClass, IngestError> {
        let idx = self.u8()?;
        ObjectClass::from_index(idx as usize)
            .ok_or_else(|| IngestError::Corrupt(format!("unknown object class {idx}")))
    }
    fn vec2(&mut self) -> Result<Vec2, IngestError> {
        Ok(Vec2::new(self.f64()?, self.f64()?))
    }
    fn box3(&mut self) -> Result<Box3, IngestError> {
        let center = Vec3::new(self.f64()?, self.f64()?, self.f64()?);
        let size = Size3::new(self.f64()?, self.f64()?, self.f64()?);
        let yaw = self.f64()?;
        Ok(Box3::new(center, size, yaw))
    }
    fn frame_ids(&mut self) -> Result<Vec<FrameId>, IngestError> {
        let n = self.len()?;
        (0..n).map(|_| Ok(FrameId(self.u32()?))).collect()
    }
}

fn encode_frame(enc: &mut Enc, frame: &Frame) {
    enc.u32(frame.index.0);
    enc.f64(frame.timestamp);
    enc.vec2(frame.ego_pose.translation);
    enc.f64(frame.ego_pose.yaw);
    enc.len(frame.gt.len());
    for g in &frame.gt {
        enc.u64(g.track.0);
        enc.class(g.class);
        enc.box3(&g.bbox);
        enc.u32(g.lidar_points);
        enc.f64(g.occlusion);
        enc.bool(g.visible);
    }
    enc.len(frame.human_labels.len());
    for l in &frame.human_labels {
        enc.box3(&l.bbox);
        enc.class(l.class);
        enc.u64(l.gt_track.0);
    }
    enc.len(frame.detections.len());
    for d in &frame.detections {
        enc.box3(&d.bbox);
        enc.class(d.class);
        enc.f64(d.confidence);
        match d.provenance {
            DetectionProvenance::TrueObject(t) => {
                enc.u8(0);
                enc.u64(t.0);
            }
            DetectionProvenance::Clutter => enc.u8(1),
            DetectionProvenance::PersistentGhost(g) => {
                enc.u8(2);
                enc.u32(g.0);
            }
            DetectionProvenance::Duplicate(t) => {
                enc.u8(3);
                enc.u64(t.0);
            }
        }
        enc.bool(d.class_correct);
        enc.bool(d.localization_error);
    }
}

/// Encoded bytes of the smallest ground-truth, label and detection
/// records. Counts are checked against them, so each list is allocated at
/// its exact length (decoded scenes stay resident in batch corpora and
/// benchmark pools) without a corrupt count reserving more than the
/// payload could hold.
const GT_BYTES: usize = 8 + 1 + 56 + 4 + 8 + 1;
const LABEL_BYTES: usize = 56 + 1 + 8;
const DETECTION_BYTES: usize = 56 + 1 + 8 + 1 + 2;

/// A count-prefixed list of records of at least `min_bytes` each.
fn decode_list<T>(
    dec: &mut Dec<'_>,
    min_bytes: usize,
    mut record: impl FnMut(&mut Dec<'_>) -> Result<T, IngestError>,
) -> Result<Vec<T>, IngestError> {
    let n = dec.len_of(min_bytes)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(record(dec)?);
    }
    Ok(out)
}

fn decode_frame(payload: &[u8]) -> Result<Frame, IngestError> {
    let mut dec = Dec::new(payload);
    let index = FrameId(dec.u32()?);
    let timestamp = dec.f64()?;
    let ego_pose = Pose2::new(dec.vec2()?, dec.f64()?);
    let gt = decode_list(&mut dec, GT_BYTES, |dec| {
        Ok(GtBox {
            track: TrackId(dec.u64()?),
            class: dec.class()?,
            bbox: dec.box3()?,
            lidar_points: dec.u32()?,
            occlusion: dec.f64()?,
            visible: dec.bool()?,
        })
    })?;
    let human_labels = decode_list(&mut dec, LABEL_BYTES, |dec| {
        Ok(LabeledBox {
            bbox: dec.box3()?,
            class: dec.class()?,
            gt_track: TrackId(dec.u64()?),
        })
    })?;
    let detections = decode_list(&mut dec, DETECTION_BYTES, |dec| {
        let bbox = dec.box3()?;
        let class = dec.class()?;
        let confidence = dec.f64()?;
        let provenance = match dec.u8()? {
            0 => DetectionProvenance::TrueObject(TrackId(dec.u64()?)),
            1 => DetectionProvenance::Clutter,
            2 => DetectionProvenance::PersistentGhost(GhostId(dec.u32()?)),
            3 => DetectionProvenance::Duplicate(TrackId(dec.u64()?)),
            tag => return Err(IngestError::Corrupt(format!("unknown provenance tag {tag}"))),
        };
        Ok(Detection {
            bbox,
            class,
            confidence,
            provenance,
            class_correct: dec.bool()?,
            localization_error: dec.bool()?,
        })
    })?;
    dec.finish()?;
    Ok(Frame { index, timestamp, ego_pose, gt, human_labels, detections })
}

/// Encode one frame as a standalone `.fscb` frame-record payload — the
/// bytes that sit behind a `TAG_FRAME` framing in a scene file. This is
/// the serving wire format: `loa_serve` ships exactly these bytes per
/// frame, so a recorded scene replays over the wire without recoding.
pub fn encode_frame_record(frame: &Frame) -> Vec<u8> {
    let mut enc = Enc::default();
    encode_frame(&mut enc, frame);
    enc.buf
}

/// Decode a standalone `.fscb` frame-record payload (the inverse of
/// [`encode_frame_record`]). Structural nonsense surfaces
/// [`IngestError::Corrupt`].
pub fn decode_frame_record(payload: &[u8]) -> Result<Frame, IngestError> {
    decode_frame(payload)
}

fn encode_injected(enc: &mut Enc, inj: &InjectedErrors) {
    enc.len(inj.missing_tracks.len());
    for m in &inj.missing_tracks {
        enc.u64(m.track.0);
        enc.class(m.class);
        enc.frame_ids(&m.visible_frames);
    }
    enc.len(inj.missing_boxes.len());
    for m in &inj.missing_boxes {
        enc.u64(m.track.0);
        enc.class(m.class);
        enc.u32(m.frame.0);
    }
    enc.len(inj.class_flips.len());
    for c in &inj.class_flips {
        enc.u64(c.track.0);
        enc.u32(c.frame.0);
        enc.class(c.true_class);
        enc.class(c.labeled_class);
    }
    enc.len(inj.class_swaps.len());
    for s in &inj.class_swaps {
        enc.u64(s.track.0);
        enc.class(s.true_class);
        enc.class(s.labeled_class);
        enc.frame_ids(&s.frames);
    }
    enc.len(inj.ghost_tracks.len());
    for (ghost, frames) in &inj.ghost_tracks {
        enc.u32(ghost.0);
        enc.frame_ids(frames);
    }
    enc.len(inj.inconsistent_bundles.len());
    for b in &inj.inconsistent_bundles {
        enc.u64(b.track.0);
        enc.u32(b.frame.0);
        enc.class(b.true_class);
        enc.class(b.spurious_class);
    }
}

fn decode_injected(payload: &[u8]) -> Result<InjectedErrors, IngestError> {
    let mut dec = Dec::new(payload);
    let n = dec.len()?;
    let missing_tracks = (0..n)
        .map(|_| {
            Ok(MissingTrack {
                track: TrackId(dec.u64()?),
                class: dec.class()?,
                visible_frames: dec.frame_ids()?,
            })
        })
        .collect::<Result<Vec<_>, IngestError>>()?;
    let n = dec.len()?;
    let missing_boxes = (0..n)
        .map(|_| {
            Ok(MissingBox {
                track: TrackId(dec.u64()?),
                class: dec.class()?,
                frame: FrameId(dec.u32()?),
            })
        })
        .collect::<Result<Vec<_>, IngestError>>()?;
    let n = dec.len()?;
    let class_flips = (0..n)
        .map(|_| {
            Ok(ClassFlip {
                track: TrackId(dec.u64()?),
                frame: FrameId(dec.u32()?),
                true_class: dec.class()?,
                labeled_class: dec.class()?,
            })
        })
        .collect::<Result<Vec<_>, IngestError>>()?;
    let n = dec.len()?;
    let class_swaps = (0..n)
        .map(|_| {
            Ok(ClassSwap {
                track: TrackId(dec.u64()?),
                true_class: dec.class()?,
                labeled_class: dec.class()?,
                frames: dec.frame_ids()?,
            })
        })
        .collect::<Result<Vec<_>, IngestError>>()?;
    let n = dec.len()?;
    let ghost_tracks = (0..n)
        .map(|_| Ok((GhostId(dec.u32()?), dec.frame_ids()?)))
        .collect::<Result<Vec<_>, IngestError>>()?;
    let n = dec.len()?;
    let inconsistent_bundles = (0..n)
        .map(|_| {
            Ok(InconsistentBundle {
                track: TrackId(dec.u64()?),
                frame: FrameId(dec.u32()?),
                true_class: dec.class()?,
                spurious_class: dec.class()?,
            })
        })
        .collect::<Result<Vec<_>, IngestError>>()?;
    dec.finish()?;
    Ok(InjectedErrors {
        missing_tracks,
        missing_boxes,
        class_flips,
        class_swaps,
        ghost_tracks,
        inconsistent_bundles,
    })
}

// ---------------------------------------------------------------------------
// Streamed writer / reader
// ---------------------------------------------------------------------------

/// Streaming `.fscb` writer: header up front, one tagged record per
/// pushed frame, injected-error trailer on [`finish`](FrameWriter::finish).
/// The frame count is never written — a writer on a live stream does not
/// know it — so readers consume records until the trailer tag.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    out: W,
    enc: Enc,
    frames_written: usize,
}

impl FrameWriter<BufWriter<File>> {
    /// Create a `.fscb` file and write its header.
    pub fn create(path: &Path, id: &str, frame_dt: f64) -> Result<Self, IngestError> {
        FrameWriter::new(BufWriter::new(File::create(path)?), id, frame_dt)
    }
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a byte sink and write the header.
    pub fn new(mut out: W, id: &str, frame_dt: f64) -> Result<Self, IngestError> {
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&(id.len() as u32).to_le_bytes())?;
        out.write_all(id.as_bytes())?;
        out.write_all(&frame_dt.to_le_bytes())?;
        Ok(FrameWriter { out, enc: Enc::default(), frames_written: 0 })
    }

    pub fn frames_written(&self) -> usize {
        self.frames_written
    }

    fn write_record(&mut self, tag: u8) -> Result<(), IngestError> {
        self.out.write_all(&[tag])?;
        self.out.write_all(&(self.enc.buf.len() as u32).to_le_bytes())?;
        self.out.write_all(&self.enc.buf)?;
        self.enc.buf.clear();
        Ok(())
    }

    /// Append one frame record.
    pub fn push_frame(&mut self, frame: &Frame) -> Result<(), IngestError> {
        encode_frame(&mut self.enc, frame);
        self.write_record(TAG_FRAME)?;
        self.frames_written += 1;
        Ok(())
    }

    /// Write the injected-error trailer, flush, and return the sink. A
    /// file without a trailer is truncated by definition.
    pub fn finish(mut self, injected: &InjectedErrors) -> Result<W, IngestError> {
        encode_injected(&mut self.enc, injected);
        self.write_record(TAG_TRAILER)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming `.fscb` reader: yields frames one at a time, then exposes
/// the injected-error trailer — so a scene can be decoded straight into
/// a [`StreamingAssembler`](crate::StreamingAssembler) without ever
/// holding the full [`SceneData`].
#[derive(Debug)]
pub struct FrameReader<Rd: Read> {
    input: Rd,
    id: String,
    frame_dt: f64,
    injected: Option<InjectedErrors>,
    done: bool,
    buf: Vec<u8>,
}

impl FrameReader<BufReader<File>> {
    /// Open a `.fscb` file and decode its header.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        FrameReader::new(BufReader::new(File::open(path)?))
    }
}

impl<Rd: Read> FrameReader<Rd> {
    /// Wrap a byte source and decode the header.
    pub fn new(mut input: Rd) -> Result<Self, IngestError> {
        let mut magic = [0u8; 4];
        input.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(IngestError::Corrupt(format!("bad magic {magic:02x?}")));
        }
        let mut word = [0u8; 2];
        input.read_exact(&mut word)?;
        let version = u16::from_le_bytes(word);
        if version != VERSION {
            return Err(IngestError::Corrupt(format!(
                "unsupported fscb version {version} (expected {VERSION})"
            )));
        }
        let mut len = [0u8; 4];
        input.read_exact(&mut len)?;
        let id_len = u32::from_le_bytes(len);
        if id_len > MAX_RECORD_LEN {
            return Err(IngestError::Corrupt(format!("implausible id length {id_len}")));
        }
        let mut id_bytes = vec![0u8; id_len as usize];
        input.read_exact(&mut id_bytes)?;
        let id = String::from_utf8(id_bytes)
            .map_err(|e| IngestError::Corrupt(format!("scene id is not utf-8: {e}")))?;
        let mut dt = [0u8; 8];
        input.read_exact(&mut dt)?;
        let frame_dt = f64::from_le_bytes(dt);
        Ok(FrameReader {
            input,
            id,
            frame_dt,
            injected: None,
            done: false,
            buf: Vec::new(),
        })
    }

    /// Scene id from the header.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Seconds between frames, from the header.
    pub fn frame_dt(&self) -> f64 {
        self.frame_dt
    }

    /// Decode the next frame record, or `None` once the trailer is
    /// reached (after which [`injected`](Self::injected) is available).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, IngestError> {
        if self.done {
            return Ok(None);
        }
        let mut tag = [0u8; 1];
        self.input.read_exact(&mut tag)?;
        let mut len = [0u8; 4];
        self.input.read_exact(&mut len)?;
        let payload_len = u32::from_le_bytes(len);
        if payload_len > MAX_RECORD_LEN {
            return Err(IngestError::Corrupt(format!(
                "implausible record length {payload_len}"
            )));
        }
        self.buf.resize(payload_len as usize, 0);
        self.input.read_exact(&mut self.buf)?;
        match tag[0] {
            TAG_FRAME => Ok(Some(decode_frame(&self.buf)?)),
            TAG_TRAILER => {
                self.injected = Some(decode_injected(&self.buf)?);
                self.done = true;
                Ok(None)
            }
            tag => Err(IngestError::Corrupt(format!("unknown record tag {tag:#04x}"))),
        }
    }

    /// The injected-error audit — `Some` once [`next_frame`](Self::next_frame)
    /// has returned `None`.
    pub fn injected(&self) -> Option<&InjectedErrors> {
        self.injected.as_ref()
    }

    /// Take ownership of the injected-error audit after the trailer.
    pub fn take_injected(&mut self) -> Option<InjectedErrors> {
        self.injected.take()
    }
}

// ---------------------------------------------------------------------------
// Whole-scene convenience
// ---------------------------------------------------------------------------

/// Write a whole scene as `.fscb`.
pub fn write_scene(scene: &SceneData, path: &Path) -> Result<(), IngestError> {
    let mut writer = FrameWriter::create(path, &scene.id, scene.frame_dt)?;
    for frame in &scene.frames {
        writer.push_frame(frame)?;
    }
    writer.finish(&scene.injected)?;
    Ok(())
}

/// Read and validate a whole `.fscb` scene (the buffered counterpart of
/// [`FrameReader`], for callers that need the full [`SceneData`]).
pub fn read_scene(path: &Path) -> Result<SceneData, IngestError> {
    let mut reader = FrameReader::open(path)?;
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame()? {
        frames.push(frame);
    }
    let injected = reader
        .take_injected()
        .expect("next_frame returned None only at the trailer");
    let scene = SceneData {
        id: reader.id().to_string(),
        frame_dt: reader.frame_dt(),
        frames,
        injected,
    };
    scene
        .validate()
        .map_err(|msg| IngestError::Scene(loa_data::io::IoError::Invalid(msg)))?;
    Ok(scene)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loa_data::{generate_scene, DatasetProfile};

    fn tiny_scene(seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
        generate_scene(&cfg, &format!("fscb-{seed}"), seed)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("loa_ingest_fscb_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_is_exact() {
        let scene = tiny_scene(11);
        let path = tmp("roundtrip.fscb");
        write_scene(&scene, &path).unwrap();
        let back = read_scene(&path).unwrap();
        // f64s travel as to_le_bytes, so JSON renderings (the scene's
        // canonical comparable form — SceneData has no PartialEq) must be
        // byte-identical.
        assert_eq!(
            serde_json::to_string(&scene).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streamed_reader_yields_frames_then_trailer() {
        let scene = tiny_scene(12);
        let path = tmp("streamed.fscb");
        write_scene(&scene, &path).unwrap();
        let mut reader = FrameReader::open(&path).unwrap();
        assert_eq!(reader.id(), scene.id);
        assert_eq!(reader.frame_dt().to_bits(), scene.frame_dt.to_bits());
        assert!(reader.injected().is_none(), "trailer must not be pre-read");
        let mut n = 0;
        while let Some(frame) = reader.next_frame().unwrap() {
            assert_eq!(frame.index.0 as usize, n);
            n += 1;
        }
        assert_eq!(n, scene.frames.len());
        let injected = reader.take_injected().unwrap();
        assert_eq!(
            serde_json::to_string(&injected).unwrap(),
            serde_json::to_string(&scene.injected).unwrap()
        );
        // Reading past the trailer stays None.
        assert!(reader.next_frame().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_io_error_not_panic() {
        let scene = tiny_scene(13);
        let path = tmp("truncated.fscb");
        write_scene(&scene, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut at several depths: inside the header, inside a record's
        // payload, and just before the trailer. Every cut must surface a
        // typed error (Io for short reads), never a panic.
        for cut in [3, 9, bytes.len() / 3, bytes.len() - 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = read_scene(&path).unwrap_err();
            assert!(
                matches!(err, IngestError::Io(_) | IngestError::Corrupt(_)),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        // A file with no trailer at a record boundary is also truncated.
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_magic_version_and_tags_rejected() {
        let scene = tiny_scene(14);
        let path = tmp("corrupt.fscb");
        write_scene(&scene, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(read_scene(&path), Err(IngestError::Corrupt(_))));

        let mut bad = good.clone();
        bad[4] = 99; // version
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(read_scene(&path), Err(IngestError::Corrupt(_))));

        // First record tag (right after header: magic+version+idlen+id+dt).
        let tag_offset = 4 + 2 + 4 + scene.id.len() + 8;
        let mut bad = good.clone();
        bad[tag_offset] = 0x7f;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(read_scene(&path), Err(IngestError::Corrupt(_))));

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_single_frame_scenes_roundtrip() {
        // A zero-frame stream is representable on the wire even though
        // SceneData::validate rejects it — read via the streamed reader.
        let mut sink = Vec::new();
        {
            let writer = FrameWriter::new(&mut sink, "empty", 0.2).unwrap();
            writer.finish(&InjectedErrors::default()).unwrap();
        }
        let mut reader = FrameReader::new(sink.as_slice()).unwrap();
        assert!(reader.next_frame().unwrap().is_none());
        assert!(reader.injected().is_some());

        // Single-frame scene through the whole-scene path.
        let mut scene = tiny_scene(15);
        scene.frames.truncate(1);
        scene.injected = InjectedErrors::default();
        let path = tmp("single.fscb");
        write_scene(&scene, &path).unwrap();
        let back = read_scene(&path).unwrap();
        assert_eq!(back.frames.len(), 1);
        assert_eq!(
            serde_json::to_string(&scene).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn standalone_frame_record_roundtrips() {
        let scene = tiny_scene(17);
        for frame in &scene.frames {
            let payload = encode_frame_record(frame);
            let back = decode_frame_record(&payload).unwrap();
            assert_eq!(
                serde_json::to_string(frame).unwrap(),
                serde_json::to_string(&back).unwrap()
            );
        }
        // Structural garbage is Corrupt, not a panic.
        assert!(matches!(
            decode_frame_record(&[0xde, 0xad]),
            Err(IngestError::Corrupt(_))
        ));
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let scene = tiny_scene(16);
        let json = serde_json::to_string(&scene).unwrap();
        let path = tmp("size.fscb");
        write_scene(&scene, &path).unwrap();
        let binary = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(
            binary * 2 < json.len(),
            "expected ≥2× compaction: {binary} vs {} bytes",
            json.len()
        );
        std::fs::remove_file(&path).unwrap();
    }
}
