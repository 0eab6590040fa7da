//! The serving wire protocol: length-prefixed envelopes over `.fscb`
//! frame records.
//!
//! A connection opens with a fixed preamble (`LOAS` magic + version),
//! then carries tagged envelopes in both directions:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ preamble  magic "LOAS" · version u16        (client → server) │
//! ├──────────────────────────────────────────────────────────────┤
//! │ envelope  tag u8 · session u32 · payload_len u32 · payload    │  × n
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Frame payloads are **exactly** the `.fscb` frame-record bytes
//! ([`loa_ingest::encode_frame_record`]) — a recorded scene replays
//! over the wire without recoding, and the server decodes with the same
//! code path as a file read. Every other payload is built from the
//! little-endian primitives of [`fixy_core::codec`], which `.fscb` and
//! `.flcb` share.
//!
//! Flow-control discipline: `OPEN`, `CLOSE`, `STATS`, and `SHUTDOWN`
//! are request/response (the client awaits `OPENED` / `WORKLIST` /
//! `STATS_REPLY` / `BYE`); `FRAME` is fire-and-forget — the server
//! never responds to a frame, so a client pumping frames full-tilt
//! cannot deadlock against a server trying to write into an unread
//! socket. Per-frame rejections (beyond-window, over-budget) are
//! absorbed into [`SessionStats`] and surface in the `WORKLIST` at
//! close — or live, mid-session, through a `STATS` request, which
//! (being answered in receive order after any preceding frames) also
//! doubles as a synchronization barrier for the fire-and-forget stream.

use crate::error::ServeError;
use fixy_core::codec::{CodecError, Dec, Enc};
use std::io::{Read, Write};

/// Connection preamble magic.
pub const WIRE_MAGIC: [u8; 4] = *b"LOAS";
/// Protocol version carried in the preamble. v2 added the `STATS` /
/// `STATS_REPLY` pair and the live-delivery + latency-quantile fields
/// in [`SessionStats`] (which also ride in every `WORKLIST`).
pub const WIRE_VERSION: u16 = 2;
/// Envelope payload cap (matches the `.fscb` record cap): a corrupt
/// length prefix must not become an allocation bomb.
pub const MAX_PAYLOAD_LEN: u32 = 64 << 20;

const TAG_OPEN: u8 = 0x10;
const TAG_FRAME: u8 = 0x11;
const TAG_CLOSE: u8 = 0x12;
const TAG_STATS: u8 = 0x13;
const TAG_SHUTDOWN: u8 = 0x1f;
const TAG_OPENED: u8 = 0x20;
const TAG_WORKLIST: u8 = 0x21;
const TAG_ERROR: u8 = 0x22;
const TAG_STATS_REPLY: u8 = 0x23;
const TAG_BYE: u8 = 0x2f;

/// Client → server envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Start a session. Request/response: await [`Response::Opened`].
    Open { session: u32, scene_id: String, frame_dt: f64 },
    /// One `.fscb` frame-record payload. Fire-and-forget.
    Frame { session: u32, record: Vec<u8> },
    /// End a session. Request/response: await [`Response::Worklist`].
    Close { session: u32 },
    /// Snapshot a live session's delivery stats without ending it.
    /// Request/response: await [`Response::Stats`].
    Stats { session: u32 },
    /// Stop the whole server once in-flight connections finish.
    /// Request/response: await [`Response::Bye`].
    Shutdown,
}

/// Server → client envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Opened {
        session: u32,
    },
    Worklist {
        session: u32,
        worklist: Worklist,
    },
    /// Mid-session delivery snapshot (the `STATS` reply).
    Stats {
        session: u32,
        stats: SessionStats,
    },
    Error {
        session: u32,
        message: String,
    },
    Bye,
}

/// Per-session delivery accounting, reported with the final worklist
/// and live through `STATS`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames released through the reorder buffer and scored.
    pub frames: u64,
    /// Exact-duplicate deliveries dropped silently.
    pub duplicates_dropped: u64,
    /// Scored frames that arrived out of order (buffered, then released).
    pub reordered: u64,
    /// Frames rejected recoverably (beyond-window, over-budget).
    pub rejected: u64,
    /// Frames still buffered at close because a gap below them never
    /// filled.
    pub stranded: u64,
    /// Frames parked in the reorder buffer *right now*, awaiting the
    /// watermark. Nonzero mid-session whenever the transport ran ahead;
    /// always 0 in a close-time worklist (stranding has resolved it).
    pub parked: u64,
    /// Per-frame accept→scored latency estimates in microseconds (0 until
    /// the first frame is scored).
    pub frame_p50_us: u64,
    pub frame_p99_us: u64,
    pub frame_max_us: u64,
    /// The first recoverable rejection, verbatim — one concrete message
    /// beats a bare counter when debugging a lossy transport.
    pub first_reject: Option<String>,
}

/// A session's final result: the ranked worklist plus delivery stats.
#[derive(Debug, Clone, PartialEq)]
pub struct Worklist {
    pub scene_id: String,
    /// (label, score), best first — the same labels `fixy stream` prints.
    pub entries: Vec<(String, f64)>,
    pub stats: SessionStats,
}

impl Worklist {
    /// Render the final-worklist block exactly as `fixy stream` prints
    /// it — the serve/stream equivalence contract is byte-level on this
    /// text.
    pub fn render_final(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "final worklist ({} candidate(s)):", self.entries.len());
        for (i, (label, score)) in self.entries.iter().take(top).enumerate() {
            let _ = writeln!(out, "  {:<3} {:<20} {:.3}", i + 1, label, score);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Little-endian wire encoding
// ---------------------------------------------------------------------------

/// Decode a whole payload with `f`, which must consume every byte. The
/// codec's errors (overruns, implausible counts, non-UTF-8 strings,
/// trailing bytes) are the peer's fault: [`ServeError::Protocol`].
fn decode<T>(
    payload: &[u8],
    f: impl FnOnce(&mut Dec<'_>) -> Result<T, CodecError>,
) -> Result<T, ServeError> {
    let mut dec = Dec::new(payload);
    f(&mut dec)
        .and_then(|v| dec.finish().map(|()| v))
        .map_err(|e| ServeError::Protocol(e.to_string()))
}

fn write_envelope(
    w: &mut impl Write,
    tag: u8,
    session: u32,
    payload: &[u8],
) -> Result<(), ServeError> {
    w.write_all(&[tag])?;
    w.write_all(&session.to_le_bytes())?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    if let Some(metrics) = loa_obs::recorder() {
        metrics.bytes_out.add(9 + payload.len() as u64);
    }
    Ok(())
}

/// Read one envelope, or `None` on a clean end-of-stream (EOF exactly at
/// an envelope boundary — how a client that is done simply hangs up).
fn read_envelope(r: &mut impl Read) -> Result<Option<(u8, u32, Vec<u8>)>, ServeError> {
    let mut tag = [0u8; 1];
    match r.read_exact(&mut tag) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    let session = u32::from_le_bytes(head[..4].try_into().unwrap());
    let len = u32::from_le_bytes(head[4..].try_into().unwrap());
    if len > MAX_PAYLOAD_LEN {
        return Err(ServeError::Protocol(format!("implausible payload length {len}")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if let Some(metrics) = loa_obs::recorder() {
        metrics.bytes_in.add(9 + payload.len() as u64);
    }
    Ok(Some((tag[0], session, payload)))
}

/// Write the connection preamble (client side, once after connect).
pub fn write_preamble(w: &mut impl Write) -> Result<(), ServeError> {
    w.write_all(&WIRE_MAGIC)?;
    w.write_all(&WIRE_VERSION.to_le_bytes())?;
    Ok(())
}

/// Read and validate the connection preamble (server side).
pub fn read_preamble(r: &mut impl Read) -> Result<(), ServeError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != WIRE_MAGIC {
        return Err(ServeError::Protocol(format!("bad preamble magic {magic:02x?}")));
    }
    let mut word = [0u8; 2];
    r.read_exact(&mut word)?;
    let version = u16::from_le_bytes(word);
    if version != WIRE_VERSION {
        return Err(ServeError::Protocol(format!(
            "unsupported protocol version {version} (expected {WIRE_VERSION})"
        )));
    }
    Ok(())
}

/// Serialize one request.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), ServeError> {
    match req {
        Request::Open { session, scene_id, frame_dt } => {
            let mut payload = Enc { buf: Vec::with_capacity(4 + scene_id.len() + 8) };
            payload.str(scene_id);
            payload.f64(*frame_dt);
            write_envelope(w, TAG_OPEN, *session, &payload.buf)
        }
        Request::Frame { session, record } => write_envelope(w, TAG_FRAME, *session, record),
        Request::Close { session } => write_envelope(w, TAG_CLOSE, *session, &[]),
        Request::Stats { session } => write_envelope(w, TAG_STATS, *session, &[]),
        Request::Shutdown => write_envelope(w, TAG_SHUTDOWN, 0, &[]),
    }
}

/// Read one request; `None` on clean disconnect.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, ServeError> {
    let Some((tag, session, payload)) = read_envelope(r)? else {
        return Ok(None);
    };
    let req = match tag {
        TAG_OPEN => {
            let (scene_id, frame_dt) = decode(&payload, |d| Ok((d.str()?, d.f64()?)))?;
            Request::Open { session, scene_id, frame_dt }
        }
        TAG_FRAME => Request::Frame { session, record: payload },
        TAG_CLOSE => {
            if !payload.is_empty() {
                return Err(ServeError::Protocol("close carries no payload".into()));
            }
            Request::Close { session }
        }
        TAG_STATS => {
            if !payload.is_empty() {
                return Err(ServeError::Protocol("stats carries no payload".into()));
            }
            Request::Stats { session }
        }
        TAG_SHUTDOWN => {
            if !payload.is_empty() {
                return Err(ServeError::Protocol("shutdown carries no payload".into()));
            }
            Request::Shutdown
        }
        tag => return Err(ServeError::Protocol(format!("unknown request tag {tag:#04x}"))),
    };
    Ok(Some(req))
}

fn encode_stats(payload: &mut Enc, s: &SessionStats) {
    for v in [
        s.frames,
        s.duplicates_dropped,
        s.reordered,
        s.rejected,
        s.stranded,
        s.parked,
        s.frame_p50_us,
        s.frame_p99_us,
        s.frame_max_us,
    ] {
        payload.u64(v);
    }
    match &s.first_reject {
        Some(msg) => {
            payload.u8(1);
            payload.str(msg);
        }
        None => payload.u8(0),
    }
}

fn decode_stats(d: &mut Dec<'_>) -> Result<SessionStats, CodecError> {
    Ok(SessionStats {
        frames: d.u64()?,
        duplicates_dropped: d.u64()?,
        reordered: d.u64()?,
        rejected: d.u64()?,
        stranded: d.u64()?,
        parked: d.u64()?,
        frame_p50_us: d.u64()?,
        frame_p99_us: d.u64()?,
        frame_max_us: d.u64()?,
        first_reject: match d.u8()? {
            0 => None,
            1 => Some(d.str()?),
            b => return Err(CodecError::Corrupt(format!("bad option byte {b}"))),
        },
    })
}

fn encode_worklist(worklist: &Worklist) -> Enc {
    let mut payload = Enc::default();
    payload.str(&worklist.scene_id);
    encode_stats(&mut payload, &worklist.stats);
    payload.len(worklist.entries.len());
    for (label, score) in &worklist.entries {
        payload.str(label);
        payload.f64(*score);
    }
    payload
}

fn decode_worklist(d: &mut Dec<'_>) -> Result<Worklist, CodecError> {
    let scene_id = d.str()?;
    let stats = decode_stats(d)?;
    // An entry is at least a string length and a score: 12 bytes.
    let n = d.len_of(12)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push((d.str()?, d.f64()?));
    }
    Ok(Worklist { scene_id, entries, stats })
}

/// Serialize one response.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), ServeError> {
    match resp {
        Response::Opened { session } => write_envelope(w, TAG_OPENED, *session, &[]),
        Response::Worklist { session, worklist } => {
            write_envelope(w, TAG_WORKLIST, *session, &encode_worklist(worklist).buf)
        }
        Response::Stats { session, stats } => {
            let mut payload = Enc { buf: Vec::with_capacity(9 * 8 + 1) };
            encode_stats(&mut payload, stats);
            write_envelope(w, TAG_STATS_REPLY, *session, &payload.buf)
        }
        Response::Error { session, message } => {
            let mut payload = Enc { buf: Vec::with_capacity(4 + message.len()) };
            payload.str(message);
            write_envelope(w, TAG_ERROR, *session, &payload.buf)
        }
        Response::Bye => write_envelope(w, TAG_BYE, 0, &[]),
    }
}

/// Read one response; `None` on clean disconnect.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, ServeError> {
    let Some((tag, session, payload)) = read_envelope(r)? else {
        return Ok(None);
    };
    let resp = match tag {
        TAG_OPENED => {
            if !payload.is_empty() {
                return Err(ServeError::Protocol("opened carries no payload".into()));
            }
            Response::Opened { session }
        }
        TAG_WORKLIST => {
            Response::Worklist { session, worklist: decode(&payload, decode_worklist)? }
        }
        TAG_STATS_REPLY => Response::Stats { session, stats: decode(&payload, decode_stats)? },
        TAG_ERROR => Response::Error { session, message: decode(&payload, |d| d.str())? },
        TAG_BYE => {
            if !payload.is_empty() {
                return Err(ServeError::Protocol("bye carries no payload".into()));
            }
            Response::Bye
        }
        tag => return Err(ServeError::Protocol(format!("unknown response tag {tag:#04x}"))),
    };
    Ok(Some(resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) -> Request {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        read_request(&mut wire.as_slice()).unwrap().unwrap()
    }

    fn roundtrip_response(resp: Response) -> Response {
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        read_response(&mut wire.as_slice()).unwrap().unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        let open = Request::Open { session: 7, scene_id: "scene-α".into(), frame_dt: 0.2 };
        assert_eq!(roundtrip_request(open.clone()), open);
        let frame = Request::Frame { session: 9, record: vec![1, 2, 3, 255] };
        assert_eq!(roundtrip_request(frame.clone()), frame);
        assert_eq!(
            roundtrip_request(Request::Close { session: 3 }),
            Request::Close { session: 3 }
        );
        assert_eq!(
            roundtrip_request(Request::Stats { session: 12 }),
            Request::Stats { session: 12 }
        );
        assert_eq!(roundtrip_request(Request::Shutdown), Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        let wl = Response::Worklist {
            session: 5,
            worklist: Worklist {
                scene_id: "s".into(),
                entries: vec![("car".into(), 12.5), ("frame 3 truck".into(), -0.25)],
                stats: SessionStats {
                    frames: 40,
                    duplicates_dropped: 2,
                    reordered: 3,
                    rejected: 1,
                    stranded: 0,
                    parked: 0,
                    frame_p50_us: 180,
                    frame_p99_us: 950,
                    frame_max_us: 1400,
                    first_reject: Some("frame 99 beyond window".into()),
                },
            },
        };
        assert_eq!(roundtrip_response(wl.clone()), wl);
        let stats = Response::Stats {
            session: 8,
            stats: SessionStats {
                frames: 5,
                parked: 2,
                reordered: 1,
                frame_p50_us: 40,
                ..Default::default()
            },
        };
        assert_eq!(roundtrip_response(stats.clone()), stats);
        assert_eq!(
            roundtrip_response(Response::Opened { session: 1 }),
            Response::Opened { session: 1 }
        );
        let err = Response::Error { session: 2, message: "nope".into() };
        assert_eq!(roundtrip_response(err.clone()), err);
        assert_eq!(roundtrip_response(Response::Bye), Response::Bye);
    }

    #[test]
    fn preamble_validates() {
        let mut wire = Vec::new();
        write_preamble(&mut wire).unwrap();
        read_preamble(&mut wire.as_slice()).unwrap();
        // Wrong magic and wrong version both fail typed.
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_preamble(&mut bad.as_slice()),
            Err(ServeError::Protocol(_))
        ));
        let mut bad = wire.clone();
        bad[4] = 99;
        assert!(matches!(
            read_preamble(&mut bad.as_slice()),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn clean_eof_is_none_mid_envelope_eof_is_error() {
        assert!(read_request(&mut [].as_slice()).unwrap().is_none());
        assert!(read_response(&mut [].as_slice()).unwrap().is_none());
        // A lone tag byte with no header is a torn envelope.
        assert!(read_request(&mut [TAG_CLOSE].as_slice()).is_err());
    }

    #[test]
    fn hostile_lengths_and_tags_rejected() {
        // Implausible payload length must not allocate.
        let mut wire = vec![TAG_FRAME];
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_request(&mut wire.as_slice()),
            Err(ServeError::Protocol(_))
        ));
        // Unknown tag.
        let mut wire = vec![0x66];
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_request(&mut wire.as_slice()),
            Err(ServeError::Protocol(_))
        ));
        // A worklist payload lying about its string length.
        let mut payload = Vec::new();
        payload.extend_from_slice(&400u32.to_le_bytes());
        payload.extend_from_slice(b"short");
        let mut wire = Vec::new();
        write_envelope(&mut wire, TAG_WORKLIST, 0, &payload).unwrap();
        assert!(matches!(
            read_response(&mut wire.as_slice()),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn render_final_matches_stream_format() {
        let wl = Worklist {
            scene_id: "s".into(),
            entries: vec![("car".into(), 12.3456), ("truck".into(), 1.0)],
            stats: SessionStats::default(),
        };
        let text = wl.render_final(1);
        assert_eq!(
            text,
            "final worklist (2 candidate(s)):\n  1   car                  12.346\n"
        );
    }
}
