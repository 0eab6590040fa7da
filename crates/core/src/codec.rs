//! Shared little-endian codec helpers for the hand-rolled binary
//! formats (`.fscb` scenes in `loa_ingest`, `.flcb` libraries in
//! [`crate::flcb`]).
//!
//! Both formats follow the same framing discipline — a magic + version
//! header, then length-prefixed records — and both want the same two
//! failure modes: short reads are [`CodecError::Io`]
//! (`UnexpectedEof`), structural lies inside a record (overruns,
//! implausible counts, unknown tags) are [`CodecError::Corrupt`]. The
//! [`Enc`] builder and [`Dec`] cursor here carry the shared primitive
//! layer; each format layers its domain types on top (scenes add
//! boxes/poses/classes, libraries add KDE grids).
//!
//! Everything is hand-rolled (the workspace's vendored-crate style: no
//! external codec dependencies). `f64`s travel as `to_le_bytes`, so a
//! binary round trip is bit-exact.

/// Per-record payload cap (64 MiB): a corrupt length prefix must not
/// become an allocation bomb.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

/// Errors shared by the binary codecs: underlying I/O (including
/// truncation, surfaced as exact-read `UnexpectedEof`) and structural
/// corruption (bad magic, unknown version/tag, record overrun,
/// implausible counts).
#[derive(Debug)]
pub enum CodecError {
    /// Underlying file I/O failed — including a file truncated
    /// mid-record (readers use exact lengths, so a short read surfaces
    /// here instead of panicking).
    Io(std::io::Error),
    /// The bytes are structurally wrong for the format.
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "io error: {e}"),
            CodecError::Corrupt(msg) => write!(f, "corrupt binary data: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Append-only little-endian record builder.
#[derive(Debug, Default)]
pub struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }
    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// A length-prefixed flat `f64` array (the bulk payload of the
    /// library format: samples and grids), written into space sized once.
    pub fn f64_slice(&mut self, xs: &[f64]) {
        self.len(xs.len());
        let start = self.buf.len();
        self.buf.resize(start + 8 * xs.len(), 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(8).zip(xs) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }
}

/// Cursor-based little-endian record decoder. Overrunning the record is
/// [`CodecError::Corrupt`] — the record's byte length was already read
/// from the framing, so running out of bytes *inside* it means the
/// payload lies about its own shape.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(CodecError::Corrupt(format!(
                "record overrun: wanted {n} byte(s) at offset {} of {}",
                self.pos,
                self.buf.len()
            )));
        };
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn finish(&self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::Corrupt(format!(
                "record underrun: {} trailing byte(s)",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// An element count whose elements occupy ≥ 1 byte each.
    // Not a collection length: this *reads* a length prefix off the wire.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, CodecError> {
        self.len_of(1)
    }

    /// An element count for elements of `elem_size` bytes. A count can
    /// never need more bytes than remain — reject early instead of
    /// looping (or allocating) on garbage.
    pub fn len_of(&mut self, elem_size: usize) -> Result<usize, CodecError> {
        let n = self.u32()?;
        if (n as usize)
            .checked_mul(elem_size)
            .is_none_or(|need| need > self.remaining())
        {
            return Err(CodecError::Corrupt(format!(
                "implausible element count {n} (×{elem_size} bytes) with {} byte(s) left",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::Corrupt(format!("string is not utf-8: {e}")))
    }

    /// A length-prefixed flat `f64` array, bounds-checked then bulk
    /// copied.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len_of(8)?;
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut enc = Enc::default();
        enc.u8(7);
        enc.u16(513);
        enc.u32(70_000);
        enc.u64(1 << 40);
        enc.f64(-2.5);
        enc.bool(true);
        enc.str("héllo");
        enc.f64_slice(&[1.0, f64::MIN_POSITIVE, -0.0]);

        let mut dec = Dec::new(&enc.buf);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u16().unwrap(), 513);
        assert_eq!(dec.u32().unwrap(), 70_000);
        assert_eq!(dec.u64().unwrap(), 1 << 40);
        assert_eq!(dec.f64().unwrap().to_bits(), (-2.5f64).to_bits());
        assert!(dec.bool().unwrap());
        assert_eq!(dec.str().unwrap(), "héllo");
        let xs = dec.f64_vec().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].to_bits(), (-0.0f64).to_bits());
        dec.finish().unwrap();
    }

    #[test]
    fn overrun_and_underrun_are_corrupt() {
        let mut dec = Dec::new(&[1, 2]);
        assert!(matches!(dec.u32(), Err(CodecError::Corrupt(_))));

        let mut dec = Dec::new(&[1, 2, 3, 4, 5]);
        dec.u32().unwrap();
        assert!(matches!(dec.finish(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn implausible_counts_rejected_before_allocation() {
        // A 4-byte buffer claiming u32::MAX f64 elements must fail the
        // plausibility check, not attempt a 32 GiB allocation.
        let mut enc = Enc::default();
        enc.u32(u32::MAX);
        let mut dec = Dec::new(&enc.buf);
        assert!(matches!(dec.f64_vec(), Err(CodecError::Corrupt(_))));

        let mut dec = Dec::new(&enc.buf);
        assert!(matches!(dec.len(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut enc = Enc::default();
        enc.len(2);
        enc.u8(0xff);
        enc.u8(0xfe);
        let mut dec = Dec::new(&enc.buf);
        assert!(matches!(dec.str(), Err(CodecError::Corrupt(_))));
    }
}
