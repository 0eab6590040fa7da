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
//! That includes the ego pose: its yaw is stored and read back verbatim,
//! never renormalised, so a yaw outside (−π, π] survives the round trip
//! as it does through JSON.
//!
//! A frame record decodes in one pass. The frame head, each ground-truth
//! and label list, and each detection's fixed 66-byte head cost one
//! bounds check apiece, and every field is then read at a fixed offset.
//! Only a detection's provenance payload, whose length depends on its
//! tag, needs a second check. The writer sizes each record exactly
//! before encoding it, so a record is one allocation.
//!
//! A file that ends mid-record surfaces [`IngestError::Io`]
//! (`UnexpectedEof`), never a panic; structural nonsense (bad magic,
//! unknown tags, record overruns) surfaces [`IngestError::Corrupt`]. The
//! trailer ends the file: any byte after it is [`IngestError::Corrupt`],
//! as trailing characters are for JSON. The reader probes at most 4 KiB
//! past the trailer to say so, so a long tail is never read in full.
//!
//! [`FrameReader`] reads records from any [`Read`] stream; [`read_scene`]
//! reads the file in one call and decodes each record where it lies. Both
//! run the one record parser, so they accept the same bytes and fail with
//! the same errors.

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
    fn box3(&mut self, b: &Box3);
    fn frame_ids(&mut self, ids: &[FrameId]);
}

impl EncExt for Enc {
    fn class(&mut self, c: ObjectClass) {
        self.u8(c.index() as u8);
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

/// Scene-domain extensions of the shared [`Dec`] cursor (the
/// injected-error trailer's variable-length records).
trait DecExt {
    fn class(&mut self) -> Result<ObjectClass, IngestError>;
    fn frame_ids(&mut self) -> Result<Vec<FrameId>, IngestError>;
}

impl DecExt for Dec<'_> {
    fn class(&mut self) -> Result<ObjectClass, IngestError> {
        class_from(self.u8()?)
    }
    fn frame_ids(&mut self) -> Result<Vec<FrameId>, IngestError> {
        let n = self.len()?;
        (0..n).map(|_| Ok(FrameId(self.u32()?))).collect()
    }
}

fn class_from(idx: u8) -> Result<ObjectClass, IngestError> {
    ObjectClass::from_index(idx as usize)
        .ok_or_else(|| IngestError::Corrupt(format!("unknown object class {idx}")))
}

/// Encoded bytes of the frame head (index, timestamp, ego pose x/y/yaw).
const FRAME_HEAD_BYTES: usize = 4 + 8 + 3 * 8;
/// Encoded bytes of one box (centre, size, yaw).
const BOX_BYTES: usize = 7 * 8;
/// Encoded bytes of a ground-truth and a label record (fixed size).
const GT_BYTES: usize = 8 + 1 + BOX_BYTES + 4 + 8 + 1;
const LABEL_BYTES: usize = BOX_BYTES + 1 + 8;
/// A detection record is a fixed head (box, class, confidence,
/// provenance tag), a tag-dependent provenance payload, and two flags.
const DETECTION_HEAD_BYTES: usize = BOX_BYTES + 1 + 8 + 1;
const DETECTION_FLAG_BYTES: usize = 2;
/// The smallest detection record (a `Clutter` provenance has no payload).
/// Counts are checked against the record sizes, so each list is allocated
/// at its exact length (decoded scenes stay resident in batch corpora and
/// benchmark pools) without a corrupt count reserving more than the
/// payload could hold.
const DETECTION_BYTES: usize = DETECTION_HEAD_BYTES + DETECTION_FLAG_BYTES;

/// Provenance tag and payload length of a detection.
fn provenance_tag(p: DetectionProvenance) -> (u8, usize) {
    match p {
        DetectionProvenance::TrueObject(_) => (0, 8),
        DetectionProvenance::Clutter => (1, 0),
        DetectionProvenance::PersistentGhost(_) => (2, 4),
        DetectionProvenance::Duplicate(_) => (3, 8),
    }
}

/// Exact encoded length of a frame record.
fn frame_record_len(frame: &Frame) -> usize {
    let detections: usize = frame
        .detections
        .iter()
        .map(|d| DETECTION_BYTES + provenance_tag(d.provenance).1)
        .sum();
    FRAME_HEAD_BYTES
        + 4
        + frame.gt.len() * GT_BYTES
        + 4
        + frame.human_labels.len() * LABEL_BYTES
        + 4
        + detections
}

fn encode_frame(enc: &mut Enc, frame: &Frame) {
    let record_len = frame_record_len(frame);
    enc.buf.reserve(record_len);
    let start = enc.buf.len();
    enc.u32(frame.index.0);
    enc.f64(frame.timestamp);
    enc.f64(frame.ego_pose.translation.x);
    enc.f64(frame.ego_pose.translation.y);
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
        enc.u8(provenance_tag(d.provenance).0);
        match d.provenance {
            DetectionProvenance::TrueObject(t) | DetectionProvenance::Duplicate(t) => enc.u64(t.0),
            DetectionProvenance::Clutter => {}
            DetectionProvenance::PersistentGhost(g) => enc.u32(g.0),
        }
        enc.bool(d.class_correct);
        enc.bool(d.localization_error);
    }
    debug_assert_eq!(enc.buf.len() - start, record_len);
}

// Fixed-offset field readers over a record whose length the caller has
// already checked: with constant offsets into a fixed-size array the
// per-field bounds checks fold away.

#[inline(always)]
fn u32_at<const N: usize>(r: &[u8; N], at: usize) -> u32 {
    u32::from_le_bytes(r[at..at + 4].try_into().unwrap())
}

#[inline(always)]
fn u64_at<const N: usize>(r: &[u8; N], at: usize) -> u64 {
    u64::from_le_bytes(r[at..at + 8].try_into().unwrap())
}

#[inline(always)]
fn f64_at<const N: usize>(r: &[u8; N], at: usize) -> f64 {
    f64::from_le_bytes(r[at..at + 8].try_into().unwrap())
}

#[inline(always)]
fn box3_at<const N: usize>(r: &[u8; N], at: usize) -> Box3 {
    Box3::new(
        Vec3::new(f64_at(r, at), f64_at(r, at + 8), f64_at(r, at + 16)),
        Size3::new(f64_at(r, at + 24), f64_at(r, at + 32), f64_at(r, at + 40)),
        f64_at(r, at + 48),
    )
}

/// `N` bytes off the cursor as a fixed-size array (one bounds check).
#[inline(always)]
fn take_array<'a, const N: usize>(dec: &mut Dec<'a>) -> Result<&'a [u8; N], IngestError> {
    Ok(dec.take(N)?.try_into().expect("take returns exactly N bytes"))
}

/// A count-prefixed list of fixed-size records: one count check, one
/// bounds check for the whole block, then fixed-offset reads per record.
fn decode_fixed_list<T, const N: usize>(
    dec: &mut Dec<'_>,
    record: impl Fn(&[u8; N]) -> Result<T, IngestError>,
) -> Result<Vec<T>, IngestError> {
    let n = dec.len_of(N)?;
    let block = dec.take(n * N)?;
    let mut out = Vec::with_capacity(n);
    for r in block.chunks_exact(N) {
        out.push(record(r.try_into().expect("chunks_exact yields N bytes"))?);
    }
    Ok(out)
}

fn decode_frame(payload: &[u8]) -> Result<Frame, IngestError> {
    let mut dec = Dec::new(payload);
    let head = take_array::<FRAME_HEAD_BYTES>(&mut dec)?;
    let index = FrameId(u32_at(head, 0));
    let timestamp = f64_at(head, 4);
    // The stored yaw verbatim (no renormalisation), so decode is the
    // exact inverse of encode — as the JSON path is.
    let ego_pose = Pose2 {
        translation: Vec2::new(f64_at(head, 12), f64_at(head, 20)),
        yaw: f64_at(head, 28),
    };
    let gt = decode_fixed_list(&mut dec, |r: &[u8; GT_BYTES]| {
        Ok(GtBox {
            track: TrackId(u64_at(r, 0)),
            class: class_from(r[8])?,
            bbox: box3_at(r, 9),
            lidar_points: u32_at(r, 9 + BOX_BYTES),
            occlusion: f64_at(r, 13 + BOX_BYTES),
            visible: r[21 + BOX_BYTES] != 0,
        })
    })?;
    let human_labels = decode_fixed_list(&mut dec, |r: &[u8; LABEL_BYTES]| {
        Ok(LabeledBox {
            bbox: box3_at(r, 0),
            class: class_from(r[BOX_BYTES])?,
            gt_track: TrackId(u64_at(r, BOX_BYTES + 1)),
        })
    })?;
    let n = dec.len_of(DETECTION_BYTES)?;
    let mut detections = Vec::with_capacity(n);
    for _ in 0..n {
        let head = take_array::<DETECTION_HEAD_BYTES>(&mut dec)?;
        let bbox = box3_at(head, 0);
        let class = class_from(head[BOX_BYTES])?;
        let confidence = f64_at(head, BOX_BYTES + 1);
        let tag = head[BOX_BYTES + 9];
        let (provenance, flags) = match tag {
            0 | 3 => {
                let tail = take_array::<{ 8 + DETECTION_FLAG_BYTES }>(&mut dec)?;
                let track = TrackId(u64_at(tail, 0));
                let provenance = if tag == 0 {
                    DetectionProvenance::TrueObject(track)
                } else {
                    DetectionProvenance::Duplicate(track)
                };
                (provenance, [tail[8], tail[9]])
            }
            1 => (
                DetectionProvenance::Clutter,
                *take_array::<DETECTION_FLAG_BYTES>(&mut dec)?,
            ),
            2 => {
                let tail = take_array::<{ 4 + DETECTION_FLAG_BYTES }>(&mut dec)?;
                (
                    DetectionProvenance::PersistentGhost(GhostId(u32_at(tail, 0))),
                    [tail[4], tail[5]],
                )
            }
            tag => return Err(IngestError::Corrupt(format!("unknown provenance tag {tag}"))),
        };
        detections.push(Detection {
            bbox,
            class,
            confidence,
            provenance,
            class_correct: flags[0] != 0,
            localization_error: flags[1] != 0,
        });
    }
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

// ---------------------------------------------------------------------------
// Record parsing
// ---------------------------------------------------------------------------

/// Where the record parser takes its bytes from: a [`Read`] stream,
/// copying each piece into a reused buffer, or a whole file already in
/// memory, lending each piece in place.
trait Bytes {
    /// The next `n` bytes; a short source is `UnexpectedEof`.
    fn take(&mut self, n: usize) -> Result<&[u8], IngestError>;
    /// How many bytes are left, counting at most `limit` of them.
    fn remaining(&mut self, limit: u64) -> Result<u64, IngestError>;

    fn array<const N: usize>(&mut self) -> Result<[u8; N], IngestError> {
        Ok(self.take(N)?.try_into().expect("take(N) yields N bytes"))
    }
}

/// A [`Read`] stream and the buffer its pieces are read into.
#[derive(Debug)]
struct Stream<Rd> {
    input: Rd,
    buf: Vec<u8>,
}

impl<Rd: Read> Bytes for Stream<Rd> {
    fn take(&mut self, n: usize) -> Result<&[u8], IngestError> {
        self.buf.resize(n, 0);
        self.input.read_exact(&mut self.buf)?;
        Ok(&self.buf)
    }

    fn remaining(&mut self, limit: u64) -> Result<u64, IngestError> {
        Ok(std::io::copy(
            &mut (&mut self.input).take(limit),
            &mut std::io::sink(),
        )?)
    }
}

impl Bytes for &[u8] {
    fn take(&mut self, n: usize) -> Result<&[u8], IngestError> {
        if n > self.len() {
            // What `read_exact` reports for a short source.
            let eof = std::io::ErrorKind::UnexpectedEof;
            return Err(std::io::Error::new(eof, "failed to fill whole buffer").into());
        }
        let (piece, rest) = self.split_at(n);
        *self = rest;
        Ok(piece)
    }

    fn remaining(&mut self, limit: u64) -> Result<u64, IngestError> {
        Ok((self.len() as u64).min(limit))
    }
}

/// Decode the file header: the scene id and `frame_dt`.
fn read_header(src: &mut impl Bytes) -> Result<(String, f64), IngestError> {
    let magic = src.array::<4>()?;
    if magic != MAGIC {
        return Err(IngestError::Corrupt(format!("bad magic {magic:02x?}")));
    }
    let version = u16::from_le_bytes(src.array()?);
    if version != VERSION {
        return Err(IngestError::Corrupt(format!(
            "unsupported fscb version {version} (expected {VERSION})"
        )));
    }
    let id_len = u32::from_le_bytes(src.array()?);
    if id_len > MAX_RECORD_LEN {
        return Err(IngestError::Corrupt(format!("implausible id length {id_len}")));
    }
    let id = String::from_utf8(src.take(id_len as usize)?.to_vec())
        .map_err(|e| IngestError::Corrupt(format!("scene id is not utf-8: {e}")))?;
    let frame_dt = f64::from_le_bytes(src.array()?);
    Ok((id, frame_dt))
}

/// One decoded record.
enum Record {
    Frame(Frame),
    Trailer(InjectedErrors),
}

/// Decode the next record: its tag and length, then its payload. The one
/// record parser, for [`FrameReader`] and [`read_scene`] alike.
fn next_record(src: &mut impl Bytes) -> Result<Record, IngestError> {
    let tag = src.array::<1>()?[0];
    let payload_len = u32::from_le_bytes(src.array()?);
    if payload_len > MAX_RECORD_LEN {
        return Err(IngestError::Corrupt(format!(
            "implausible record length {payload_len}"
        )));
    }
    let payload = src.take(payload_len as usize)?;
    match tag {
        TAG_FRAME => Ok(Record::Frame(decode_frame(payload)?)),
        TAG_TRAILER => {
            let injected = decode_injected(payload)?;
            // The trailer ends the stream: anything after it is not part
            // of the scene. The probe is bounded, so a long tail is
            // reported without being read in full.
            const PROBE: u64 = 4096;
            let trailing = src.remaining(PROBE)?;
            if trailing != 0 {
                let at_least = if trailing == PROBE { "at least " } else { "" };
                return Err(IngestError::Corrupt(format!(
                    "{at_least}{trailing} trailing byte(s) after the trailer"
                )));
            }
            Ok(Record::Trailer(injected))
        }
        tag => Err(IngestError::Corrupt(format!("unknown record tag {tag:#04x}"))),
    }
}

/// Streaming `.fscb` reader: yields frames one at a time, then exposes
/// the injected-error trailer — so a scene can be decoded straight into
/// a [`StreamingAssembler`](crate::StreamingAssembler) without ever
/// holding the full [`SceneData`].
#[derive(Debug)]
pub struct FrameReader<Rd: Read> {
    src: Stream<Rd>,
    id: String,
    frame_dt: f64,
    injected: Option<InjectedErrors>,
    done: bool,
}

impl FrameReader<BufReader<File>> {
    /// Open a `.fscb` file and decode its header.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        FrameReader::new(BufReader::new(File::open(path)?))
    }
}

impl<Rd: Read> FrameReader<Rd> {
    /// Wrap a byte source and decode the header.
    pub fn new(input: Rd) -> Result<Self, IngestError> {
        let mut src = Stream { input, buf: Vec::new() };
        let (id, frame_dt) = read_header(&mut src)?;
        Ok(FrameReader { src, id, frame_dt, injected: None, done: false })
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
        match next_record(&mut self.src)? {
            Record::Frame(frame) => Ok(Some(frame)),
            Record::Trailer(injected) => {
                self.injected = Some(injected);
                self.done = true;
                Ok(None)
            }
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
/// [`FrameReader`], for callers that need the full [`SceneData`]). The
/// file is read in one call and each record decoded in place, through
/// the parser [`FrameReader`] uses, so both accept and reject the same
/// bytes with the same errors.
pub fn read_scene(path: &Path) -> Result<SceneData, IngestError> {
    let bytes = std::fs::read(path)?;
    let mut src = bytes.as_slice();
    let (id, frame_dt) = read_header(&mut src)?;
    let mut frames = Vec::new();
    let injected = loop {
        let before = src.len();
        match next_record(&mut src)? {
            Record::Frame(frame) => {
                if frames.is_empty() {
                    // Frame records are near-equal in size: size the list
                    // for the rest of the file from the first.
                    frames.reserve(1 + src.len() / (before - src.len()));
                }
                frames.push(frame);
            }
            Record::Trailer(injected) => break injected,
        }
    };
    let scene = SceneData { id, frame_dt, frames, injected };
    scene
        .validate()
        .map_err(|msg| IngestError::Scene(loa_data::io::IoError::Invalid(msg)))?;
    Ok(scene)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loa_data::{generate_scene, DatasetProfile};
    use proptest::prelude::*;

    fn tiny_scene(seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
        generate_scene(&cfg, &format!("fscb-{seed}"), seed)
    }

    /// The per-field decoder the one-pass [`decode_frame`] replaced: one
    /// bounds-checked cursor read per field. Kept as the oracle the
    /// fuzzed equivalence proptest holds `decode_frame` to.
    fn decode_frame_fields(payload: &[u8]) -> Result<Frame, IngestError> {
        fn box3(dec: &mut Dec<'_>) -> Result<Box3, IngestError> {
            let center = Vec3::new(dec.f64()?, dec.f64()?, dec.f64()?);
            let size = Size3::new(dec.f64()?, dec.f64()?, dec.f64()?);
            Ok(Box3::new(center, size, dec.f64()?))
        }
        fn list<T>(
            dec: &mut Dec<'_>,
            min_bytes: usize,
            mut record: impl FnMut(&mut Dec<'_>) -> Result<T, IngestError>,
        ) -> Result<Vec<T>, IngestError> {
            let n = dec.len_of(min_bytes)?;
            (0..n).map(|_| record(dec)).collect()
        }
        let mut dec = Dec::new(payload);
        let index = FrameId(dec.u32()?);
        let timestamp = dec.f64()?;
        let translation = Vec2::new(dec.f64()?, dec.f64()?);
        let ego_pose = Pose2 { translation, yaw: dec.f64()? };
        let gt = list(&mut dec, GT_BYTES, |dec| {
            Ok(GtBox {
                track: TrackId(dec.u64()?),
                class: dec.class()?,
                bbox: box3(dec)?,
                lidar_points: dec.u32()?,
                occlusion: dec.f64()?,
                visible: dec.bool()?,
            })
        })?;
        let human_labels = list(&mut dec, LABEL_BYTES, |dec| {
            Ok(LabeledBox {
                bbox: box3(dec)?,
                class: dec.class()?,
                gt_track: TrackId(dec.u64()?),
            })
        })?;
        let detections = list(&mut dec, DETECTION_BYTES, |dec| {
            let bbox = box3(dec)?;
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
    fn read_scene_and_frame_reader_fail_alike() {
        // The whole-file reader and the streamed one share the record
        // parser: on truncations, on a flipped byte anywhere, and on a
        // trailing tail, both report the same decode error.
        let scene = tiny_scene(12);
        let path = tmp("alike.fscb");
        write_scene(&scene, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let streamed = |bytes: &[u8]| -> Result<(), IngestError> {
            let mut reader = FrameReader::new(bytes)?;
            while reader.next_frame()?.is_some() {}
            Ok(())
        };
        let mut cases: Vec<Vec<u8>> = Vec::new();
        for cut in (0..64)
            .chain((64..good.len()).step_by(211))
            .chain(good.len() - 9..good.len())
        {
            cases.push(good[..cut].to_vec());
        }
        for at in (0..good.len()).step_by(307) {
            let mut bad = good.clone();
            bad[at] ^= 0xA5;
            cases.push(bad);
        }
        let mut tail = good.clone();
        tail.extend_from_slice(&[0u8; 5000]);
        cases.push(tail);
        for bytes in &cases {
            std::fs::write(&path, bytes).unwrap();
            let whole = read_scene(&path).map(|_| ());
            match (&whole, streamed(bytes)) {
                // Only read_scene validates the decoded scene.
                (Ok(()) | Err(IngestError::Scene(_)), Ok(())) => {}
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("{} bytes: read_scene {a:?}, FrameReader {b:?}", bytes.len()),
            }
        }
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

    #[test]
    fn bytes_after_the_trailer_are_corrupt() {
        let scene = tiny_scene(18);
        let path = tmp("trailing.fscb");
        write_scene(&scene, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"GARBAGE AFTER TRAILER");
        std::fs::write(&path, &bytes).unwrap();
        match read_scene(&path) {
            Err(IngestError::Corrupt(msg)) => assert!(msg.contains("21 trailing byte"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_long_tail_after_the_trailer_is_probed_not_read() {
        let scene = tiny_scene(18);
        let mut bytes = Vec::new();
        let mut writer = FrameWriter::new(&mut bytes, &scene.id, scene.frame_dt).unwrap();
        for frame in &scene.frames {
            writer.push_frame(frame).unwrap();
        }
        writer.finish(&scene.injected).unwrap();
        let scene_len = bytes.len();
        bytes.resize(scene_len + 10_000, 0xAB);
        let mut input = bytes.as_slice();
        let mut reader = FrameReader::new(&mut input).unwrap();
        let err = loop {
            match reader.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("a tail after the trailer must be rejected"),
                Err(e) => break e,
            }
        };
        match err {
            IngestError::Corrupt(msg) => {
                assert!(msg.contains("at least 4096 trailing byte"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The rest of the tail was left unread.
        assert_eq!(input.len(), 10_000 - 4096);
    }

    #[test]
    fn ego_yaw_outside_pi_roundtrips_exactly() {
        let mut scene = tiny_scene(19);
        scene.frames[0].ego_pose.yaw = 4.0;
        let path = tmp("yaw.fscb");
        write_scene(&scene, &path).unwrap();
        let back = read_scene(&path).unwrap();
        assert_eq!(back.frames[0].ego_pose.yaw.to_bits(), 4.0f64.to_bits());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn encoded_length_is_exact() {
        // `frame_record_len` sizes the one allocation `encode_frame`
        // makes; it must match what is written for every provenance.
        for frame in &tiny_scene(20).frames {
            let payload = encode_frame_record(frame);
            assert_eq!(payload.len(), frame_record_len(frame));
            assert_eq!(payload.capacity(), payload.len());
        }
    }

    /// Same outcome from both decoders: both accept with bit-identical
    /// frames (compared by re-encoding, which preserves every `f64` bit),
    /// or both reject with the same variant.
    fn assert_decoders_agree(payload: &[u8]) -> Result<(), TestCaseError> {
        match (decode_frame(payload), decode_frame_fields(payload)) {
            (Ok(fast), Ok(oracle)) => {
                prop_assert_eq!(encode_frame_record(&fast), encode_frame_record(&oracle));
            }
            (Err(fast), Err(oracle)) => prop_assert!(
                std::mem::discriminant(&fast) == std::mem::discriminant(&oracle),
                "fast {:?} vs oracle {:?}",
                fast,
                oracle
            ),
            (fast, oracle) => prop_assert!(false, "fast {:?} vs oracle {:?}", fast, oracle),
        }
        Ok(())
    }

    /// Frames of a few generated scenes, with every provenance kind and
    /// some ego yaws pushed outside (−π, π].
    fn sample_frames() -> &'static [Frame] {
        static FRAMES: std::sync::OnceLock<Vec<Frame>> = std::sync::OnceLock::new();
        FRAMES.get_or_init(|| {
            let mut frames: Vec<Frame> =
                (21..23).flat_map(|seed| tiny_scene(seed).frames).collect();
            for (i, frame) in frames.iter_mut().enumerate().step_by(3) {
                frame.ego_pose.yaw = 3.0 + i as f64;
            }
            let detections: Vec<&Detection> = frames.iter().flat_map(|f| &f.detections).collect();
            for kind in [0, 1, 2, 3] {
                assert!(
                    detections.iter().any(|d| provenance_tag(d.provenance).0 == kind),
                    "sample frames lack provenance {kind}"
                );
            }
            frames
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_one_pass_decode_matches_per_field_oracle(
            pick in any::<u64>(),
            mutation in 0u8..4,
            at in any::<u64>(),
            byte in any::<u8>(),
            count in any::<u32>(),
            list in 0usize..3,
        ) {
            let frames = sample_frames();
            let frame = &frames[(pick % frames.len() as u64) as usize];
            let mut payload = encode_frame_record(frame);
            match mutation {
                // Intact record: decodes to the encoded frame exactly.
                0 => {
                    let back = decode_frame(&payload).unwrap();
                    prop_assert_eq!(encode_frame_record(&back), payload.clone());
                }
                // Truncated anywhere.
                1 => payload.truncate((at % payload.len() as u64) as usize),
                // One byte replaced.
                2 => {
                    let i = (at % payload.len() as u64) as usize;
                    payload[i] = byte;
                }
                // A forged list count: small forgeries land inside the
                // record, large ones must fail the plausibility check.
                _ => {
                    let offset = match list {
                        0 => FRAME_HEAD_BYTES,
                        1 => FRAME_HEAD_BYTES + 4 + frame.gt.len() * GT_BYTES,
                        _ => {
                            FRAME_HEAD_BYTES
                                + 8
                                + frame.gt.len() * GT_BYTES
                                + frame.human_labels.len() * LABEL_BYTES
                        }
                    };
                    let forged = if byte & 1 == 0 { count % 64 } else { count };
                    payload[offset..offset + 4].copy_from_slice(&forged.to_le_bytes());
                }
            }
            assert_decoders_agree(&payload)?;
        }

        #[test]
        fn prop_write_read_scene_roundtrips_any_ego_yaw(
            seed in 0u64..4,
            yaws in prop::collection::vec(-20.0f64..20.0, 1..8),
        ) {
            let mut scene = tiny_scene(30 + seed);
            for (frame, &yaw) in scene.frames.iter_mut().zip(&yaws) {
                frame.ego_pose.yaw = yaw;
            }
            let path = tmp(&format!("yaw-prop-{seed}-{}.fscb", yaws.len()));
            write_scene(&scene, &path).unwrap();
            let back = read_scene(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            prop_assert_eq!(back.frames.len(), scene.frames.len());
            for (a, b) in scene.frames.iter().zip(&back.frames) {
                prop_assert_eq!(encode_frame_record(a), encode_frame_record(b));
                prop_assert_eq!(a.ego_pose.yaw.to_bits(), b.ego_pose.yaw.to_bits());
            }
        }
    }
}
