//! The `.flcb` (feature-library compact binary) format.
//!
//! Library JSON is convenient but wrong-shaped for fleet cold starts:
//! loading one pays a full tree-walking parse *and* a
//! [`BinnedKde`] grid rebuild per KDE before the first frame can be
//! scored. `.flcb` stores each KDE's state together with its scoring
//! grid — samples, bandwidth and grid — verbatim as flat little-endian
//! `f64` arrays, so loading is a bounds-checked bulk copy instead of a
//! rebuild:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   magic "FLCB" · version u16 · app (u32 len + utf-8)  │
//! │          entry count u32                                     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ entry    payload_len u32 · payload:                          │ × n
//! │            name (u32 len + utf-8)                            │
//! │            tag u8 · distribution state                       │
//! │              (a KDE: kernel · bandwidth · samples · grid     │
//! │               start, step, max density, densities)           │
//! │          checksum u64 (FNV-1a-64 over the payload's words)   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Grids travel bit-exact (`to_le_bytes`), so an `.flcb` load scores
//! **bit-identically** to the JSON path — which rebuilds the same grids
//! deterministically — without ever running the rebuild. Because a grid
//! is taken as stored, not rebuilt, each entry carries a checksum of its
//! payload, checked before the entry is decoded: a grid altered on disk
//! fails the load ([`CodecError::Corrupt`], naming the entry) instead of
//! ranking differently from the library it came from. The checksum
//! guards against damage, not against a deliberate forgery.
//!
//! Truncation surfaces [`CodecError::Io`]/[`CodecError::Corrupt`] —
//! never a panic — and every length prefix is capped
//! ([`MAX_RECORD_LEN`]) and checked
//! against the bytes actually present before any allocation, so a
//! corrupt count cannot become an allocation bomb. Every KDE is rebuilt
//! through validating constructors in `loa_stats`: `Kde1d::with_grid`
//! checks samples and bandwidth as the JSON load's `Kde1d::from_parts`
//! does, and `BinnedKde::from_parts` checks the stored grid. Tags 3–5
//! (the histogram, Bernoulli and joint-KDE forms of earlier builds) are
//! unknown distribution tags. The JSON wire format stays fully
//! supported; `fixy convert --library` migrates.

use crate::codec::{CodecError, Dec, Enc, MAX_RECORD_LEN};
use crate::learner::{FeatureLibrary, FittedDistribution};
use loa_data::ObjectClass;
use loa_stats::{BinnedKde, Density1d, FitError, Kde1d, Kernel};
use std::collections::BTreeMap;
use std::path::Path;

/// File extension of the binary library format.
pub const FLCB_EXTENSION: &str = "flcb";

/// The four magic bytes opening every `.flcb` file.
pub const FLCB_MAGIC: [u8; 4] = *b"FLCB";

const VERSION: u16 = 3;

// Section tags (one per [`FittedDistribution`] variant).
const FIT_CLASS_COND: u8 = 1;
const FIT_KDE: u8 = 2;

fn corrupt(msg: impl Into<String>) -> CodecError {
    CodecError::Corrupt(msg.into())
}

/// The per-entry checksum: FNV-1a-64 (offset basis and prime) over the
/// bytes as 8-byte little-endian words, a trailing partial word byte by
/// byte. One multiply per word instead of per byte keeps a checked load
/// a bulk copy in cost, not a byte loop. Each step is a bijection of the
/// running hash, so damage confined to one word always changes it.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0100_0000_01b3;
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    let h = words.by_ref().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
    });
    words.remainder().iter().fold(h, |h, &b| step(h, b as u64))
}

/// Stored parts a distribution's `from_parts` rejected — the same checks
/// a JSON library load applies.
fn implausible(e: FitError) -> CodecError {
    corrupt(e.to_string())
}

// ---------------------------------------------------------------------------
// KDE sections
// ---------------------------------------------------------------------------

fn enc_kde1d(enc: &mut Enc, kde: &Kde1d) {
    enc.u8(kde.kernel().tag());
    enc.f64(kde.bandwidth_value());
    enc.f64_slice(kde.samples());
    enc_binned(enc, kde.grid());
}

fn dec_kde1d(dec: &mut Dec<'_>) -> Result<Kde1d, CodecError> {
    let kernel = dec_kernel(dec)?;
    let bandwidth = dec.f64()?;
    let samples = dec.f64_vec()?;
    let grid = dec_binned(dec)?;
    Kde1d::with_grid(samples, kernel, bandwidth, grid).map_err(implausible)
}

fn dec_kernel(dec: &mut Dec<'_>) -> Result<Kernel, CodecError> {
    let tag = dec.u8()?;
    Kernel::from_tag(tag).ok_or_else(|| corrupt(format!("unknown kernel tag {tag}")))
}

fn enc_binned(enc: &mut Enc, grid: &BinnedKde) {
    enc.f64(grid.grid_start());
    enc.f64(grid.grid_step());
    enc.f64(grid.max_density());
    enc.f64_slice(grid.densities());
}

fn dec_binned(dec: &mut Dec<'_>) -> Result<BinnedKde, CodecError> {
    let grid_start = dec.f64()?;
    let grid_step = dec.f64()?;
    let max_density = dec.f64()?;
    let densities = dec.f64_vec()?;
    BinnedKde::from_parts(grid_start, grid_step, densities, max_density).map_err(implausible)
}

// ---------------------------------------------------------------------------
// Entry sections
// ---------------------------------------------------------------------------

fn fitted_tag(fitted: &FittedDistribution) -> u8 {
    match fitted {
        FittedDistribution::ClassConditional { .. } => FIT_CLASS_COND,
        FittedDistribution::Kde(_) => FIT_KDE,
    }
}

fn enc_fitted(enc: &mut Enc, fitted: &FittedDistribution) {
    enc.u8(fitted_tag(fitted));
    match fitted {
        FittedDistribution::ClassConditional { per_class, pooled } => {
            enc.len(per_class.len());
            for (&class, kde) in per_class {
                enc.u8(class.index() as u8);
                enc_kde1d(enc, kde);
            }
            enc_kde1d(enc, pooled);
        }
        FittedDistribution::Kde(kde) => enc_kde1d(enc, kde),
    }
}

fn dec_class(dec: &mut Dec<'_>) -> Result<ObjectClass, CodecError> {
    let idx = dec.u8()?;
    ObjectClass::from_index(idx as usize)
        .ok_or_else(|| corrupt(format!("unknown object class {idx}")))
}

fn dec_fitted(dec: &mut Dec<'_>) -> Result<FittedDistribution, CodecError> {
    match dec.u8()? {
        FIT_CLASS_COND => {
            let n = dec.len()?;
            let mut per_class = BTreeMap::new();
            for _ in 0..n {
                let class = dec_class(dec)?;
                let kde = dec_kde1d(dec)?;
                if per_class.insert(class, kde).is_some() {
                    return Err(corrupt(format!("duplicate class {class:?} in entry")));
                }
            }
            let pooled = dec_kde1d(dec)?;
            Ok(FittedDistribution::ClassConditional { per_class, pooled })
        }
        FIT_KDE => Ok(FittedDistribution::Kde(dec_kde1d(dec)?)),
        tag => Err(corrupt(format!("unknown distribution tag {tag}"))),
    }
}

// ---------------------------------------------------------------------------
// Whole-library encode / decode
// ---------------------------------------------------------------------------

/// Encode a library (and the app it was fitted for) as `.flcb` bytes.
pub fn encode_library(app: &str, library: &FeatureLibrary) -> Vec<u8> {
    let mut out = Enc::default();
    out.buf.extend_from_slice(&FLCB_MAGIC);
    out.u16(VERSION);
    out.str(app);
    out.len(library.len());
    let mut entry = Enc::default();
    for (name, fitted) in library.entries() {
        entry.buf.clear();
        entry.str(name);
        enc_fitted(&mut entry, fitted);
        out.len(entry.buf.len());
        out.buf.extend_from_slice(&entry.buf);
        out.u64(fnv1a64(&entry.buf));
    }
    out.buf
}

/// Decode `.flcb` bytes into the fitting app and the library, KDE grids
/// bulk-copied straight off the wire (no rebuild) once their entry's
/// checksum matches.
pub fn decode_library(bytes: &[u8]) -> Result<(String, FeatureLibrary), CodecError> {
    let mut dec = Dec::new(bytes);
    let magic = dec.take(4)?;
    if magic != FLCB_MAGIC {
        return Err(corrupt(format!("bad magic {magic:02x?}")));
    }
    let version = dec.u16()?;
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported flcb version {version} (expected {VERSION})"
        )));
    }
    let app = dec.str()?;
    let n_entries = dec.len()?;
    let mut library = FeatureLibrary::default();
    for i in 0..n_entries {
        let payload_len = dec.u32()?;
        if payload_len > MAX_RECORD_LEN {
            return Err(corrupt(format!("implausible record length {payload_len}")));
        }
        let payload = dec.take(payload_len as usize)?;
        if dec.u64()? != fnv1a64(payload) {
            // The name is read from the damaged payload: best effort.
            let name = Dec::new(payload).str().unwrap_or_else(|_| String::from("?"));
            return Err(corrupt(format!("checksum mismatch in entry {i} '{name}'")));
        }
        let mut entry = Dec::new(payload);
        let name = entry.str()?;
        let fitted = dec_fitted(&mut entry)?;
        entry.finish()?;
        if library.get(&name).is_some() {
            return Err(corrupt(format!("duplicate entry '{name}'")));
        }
        library.insert(name, fitted);
    }
    dec.finish()?;
    Ok((app, library))
}

/// Write a library as an `.flcb` file.
pub fn write_library_file(
    path: &Path,
    app: &str,
    library: &FeatureLibrary,
) -> Result<(), CodecError> {
    std::fs::write(path, encode_library(app, library))?;
    Ok(())
}

/// Read an `.flcb` file into the fitting app and the library.
pub fn read_library_file(path: &Path) -> Result<(String, FeatureLibrary), CodecError> {
    let bytes = std::fs::read(path)?;
    decode_library(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureValue;

    /// A small library exercising both variants: class-conditional (one
    /// class fit to the pooled samples) and pooled KDE.
    fn sample_library() -> FeatureLibrary {
        let mut lib = FeatureLibrary::default();
        let car: Vec<f64> = (0..40).map(|i| (i % 11) as f64 * 0.7).collect();
        let ped: Vec<f64> = (0..40).map(|i| 3.0 + (i % 7) as f64 * 0.4).collect();
        let mut per_class = BTreeMap::new();
        per_class.insert(ObjectClass::Car, Kde1d::fit(&car).unwrap());
        per_class.insert(ObjectClass::Pedestrian, Kde1d::fit(&ped).unwrap());
        let pooled_samples: Vec<f64> = car.iter().chain(&ped).copied().collect();
        per_class.insert(ObjectClass::Bus, Kde1d::fit(&pooled_samples).unwrap());
        let pooled = Kde1d::fit(&pooled_samples).unwrap();
        lib.insert(
            "speed".into(),
            FittedDistribution::ClassConditional { per_class, pooled },
        );
        lib.insert(
            "volume".into(),
            FittedDistribution::Kde(Kde1d::fit(&[1.0, 2.0, 2.5, 4.0, 8.0]).unwrap()),
        );
        lib
    }

    fn queries() -> Vec<FeatureValue> {
        let mut qs = vec![];
        for x in [-5.0, 0.0, 0.7, 2.0, 3.3, 7.0, 100.0, f64::NAN] {
            qs.push(FeatureValue::scalar(x));
            for class in ObjectClass::ALL {
                qs.push(FeatureValue { x, class: Some(class) });
            }
        }
        qs
    }

    /// Bit-identical scoring through every feature after a byte round
    /// trip — the core `.flcb` contract.
    #[test]
    fn roundtrip_scores_bit_identically() {
        let lib = sample_library();
        let bytes = encode_library("missing-tracks", &lib);
        let (app, back) = decode_library(&bytes).unwrap();
        assert_eq!(app, "missing-tracks");
        assert_eq!(back.len(), lib.len());
        for (name, fitted) in lib.entries() {
            let loaded = back.get(name).expect("entry survives");
            for q in queries() {
                assert_eq!(
                    fitted.probability(&q).to_bits(),
                    loaded.probability(&q).to_bits(),
                    "fitted probability diverges for '{name}' at {q:?}"
                );
            }
        }
    }

    #[test]
    fn empty_library_roundtrips() {
        let lib = FeatureLibrary::default();
        let (app, back) = decode_library(&encode_library("x", &lib)).unwrap();
        assert_eq!(app, "x");
        assert!(back.is_empty());
    }

    #[test]
    fn file_roundtrip_and_io_errors() {
        let dir = std::env::temp_dir().join("fixy_flcb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lib.flcb");
        let lib = sample_library();
        write_library_file(&path, "model-errors", &lib).unwrap();
        let (app, back) = read_library_file(&path).unwrap();
        assert_eq!(app, "model-errors");
        assert_eq!(back.len(), lib.len());
        std::fs::remove_file(&path).unwrap();

        assert!(matches!(
            read_library_file(&dir.join("missing.flcb")),
            Err(CodecError::Io(_))
        ));
    }

    // -- Adversarial inputs --------------------------------------------------

    /// Header + entry count, the shared prefix of every handcrafted
    /// corruption below.
    fn header(app: &str, n_entries: u32) -> Enc {
        let mut enc = Enc::default();
        enc.buf.extend_from_slice(&FLCB_MAGIC);
        enc.u16(VERSION);
        enc.str(app);
        enc.u32(n_entries);
        enc
    }

    /// Frame `payload` as an entry the way `encode_library` does: length,
    /// payload, checksum.
    fn push_entry(enc: &mut Enc, payload: &[u8]) {
        enc.len(payload.len());
        enc.buf.extend_from_slice(payload);
        enc.u64(fnv1a64(payload));
    }

    /// Recompute a one-entry library's checksum after its payload was
    /// patched, so the load reaches the entry's own validation.
    fn reseal(bytes: &mut [u8]) {
        let app_len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
        let payload = 10 + app_len + 4 + 4..bytes.len() - 8;
        let sum = fnv1a64(&bytes[payload.clone()]);
        bytes[payload.end..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Truncation at *every* byte boundary — which includes every section
    /// boundary — must surface an error, never a panic, and never a
    /// partial library.
    #[test]
    fn truncation_at_every_byte_errors() {
        let bytes = encode_library("missing-tracks", &sample_library());
        for cut in 0..bytes.len() {
            assert!(
                decode_library(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix (of {}) must fail",
                bytes.len()
            );
        }
        decode_library(&bytes).expect("untruncated bytes stay valid");
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        assert!(matches!(decode_library(b""), Err(CodecError::Corrupt(_))));
        assert!(matches!(decode_library(b"JSON{..."), Err(CodecError::Corrupt(_))));

        let mut bytes = encode_library("x", &FeatureLibrary::default());
        bytes[0] ^= 0x20; // "fLCB"
        let err = decode_library(&bytes).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "got: {err}");

        let mut bytes = encode_library("x", &FeatureLibrary::default());
        bytes[4] = 1; // version 1
        let err = decode_library(&bytes).unwrap_err();
        assert!(err.to_string().contains("unsupported flcb version 1"), "got: {err}");
    }

    /// A payload length past [`MAX_RECORD_LEN`] is rejected before any
    /// allocation or read.
    #[test]
    fn oversized_payload_length_rejected() {
        let mut enc = header("x", 1);
        enc.u32(MAX_RECORD_LEN + 1);
        let err = decode_library(&enc.buf).unwrap_err();
        assert!(err.to_string().contains("implausible record length"), "got: {err}");
    }

    /// A KDE sample count claiming u32::MAX elements in a near-empty
    /// payload must fail the plausibility check (count × 8 > bytes
    /// remaining) instead of attempting a 32 GiB allocation.
    #[test]
    fn allocation_bomb_counts_rejected() {
        let mut payload = Enc::default();
        payload.str("speed");
        payload.u8(FIT_KDE);
        payload.u8(Kernel::Gaussian.tag());
        payload.f64(1.0); // bandwidth
        payload.u32(u32::MAX); // sample count with no samples behind it
        let mut enc = header("x", 1);
        push_entry(&mut enc, &payload.buf);
        let err = decode_library(&enc.buf).unwrap_err();
        assert!(err.to_string().contains("implausible element count"), "got: {err}");

        // Same bomb via a string length prefix.
        let mut payload = Enc::default();
        payload.u32(u32::MAX); // name length
        let mut enc = header("x", 1);
        push_entry(&mut enc, &payload.buf);
        assert!(matches!(decode_library(&enc.buf), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_library("x", &sample_library());
        bytes.extend_from_slice(&[0xde, 0xad]);
        let err = decode_library(&bytes).unwrap_err();
        assert!(err.to_string().contains("underrun"), "got: {err}");
    }

    /// An entry whose payload claims more bytes than its sections use is
    /// structurally corrupt — the framing must not silently skip them.
    #[test]
    fn entry_payload_overdeclaration_rejected() {
        let mut payload = Enc::default();
        payload.str("ok");
        enc_fitted(&mut payload, &FittedDistribution::Kde(Kde1d::fit(&XS).unwrap()));
        payload.u8(0xff); // one stray byte inside the declared payload
        let mut enc = header("x", 1);
        push_entry(&mut enc, &payload.buf);
        assert!(matches!(decode_library(&enc.buf), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn duplicate_entries_rejected() {
        let mut payload = Enc::default();
        payload.str("volume");
        enc_fitted(&mut payload, &FittedDistribution::Kde(Kde1d::fit(&XS).unwrap()));
        let mut enc = header("x", 2);
        for _ in 0..2 {
            push_entry(&mut enc, &payload.buf);
        }
        let err = decode_library(&enc.buf).unwrap_err();
        assert!(err.to_string().contains("duplicate entry 'volume'"), "got: {err}");
    }

    // -- Stored values no fit produces --------------------------------------

    /// Byte offset of the `nth` stored copy of `x` in `bytes`.
    fn offset_of(bytes: &[u8], x: f64, nth: usize) -> usize {
        let mut hits = bytes.windows(8).enumerate().filter(|(_, w)| *w == x.to_le_bytes());
        hits.nth(nth).expect("value stored").0
    }

    fn encoded(dist: FittedDistribution) -> Vec<u8> {
        let mut lib = FeatureLibrary::default();
        lib.insert("f".into(), dist);
        encode_library("x", &lib)
    }

    /// A one-entry library's bytes with the `nth` stored copy of `old`
    /// replaced by `new`, checksum recomputed.
    fn patched(dist: FittedDistribution, old: f64, nth: usize, new: f64) -> Vec<u8> {
        let mut bytes = encoded(dist);
        let at = offset_of(&bytes, old, nth);
        bytes[at..at + 8].copy_from_slice(&new.to_le_bytes());
        reseal(&mut bytes);
        bytes
    }

    fn assert_rejected(bytes: &[u8], bad: f64) {
        match decode_library(bytes) {
            Err(CodecError::Corrupt(msg)) => assert!(msg.contains("implausible"), "{bad}: {msg}"),
            other => panic!("{bad}: expected Corrupt, got {:?}", other.map(|(app, _)| app)),
        }
    }

    const XS: [f64; 6] = [0.5, 1.0, 1.5, 2.5, 4.0, 4.5];
    const BAD_SCALES: [f64; 4] = [0.0, -1.0, f64::NAN, f64::INFINITY];

    #[test]
    fn kde_and_grid_max_density_must_be_finite_positive() {
        // The KDE's normalizer is its grid's, stored once, ahead of the
        // grid densities (which hold the same value again).
        let kde = Kde1d::fit(&XS).unwrap();
        for bad in BAD_SCALES {
            let dist = FittedDistribution::Kde(kde.clone());
            assert_rejected(&patched(dist, kde.max_density(), 0, bad), bad);
        }
    }

    #[test]
    fn grid_densities_must_be_finite_nonnegative() {
        let kde = Kde1d::fit(&XS).unwrap();
        let density = kde.grid().densities()[5];
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let dist = FittedDistribution::Kde(kde.clone());
            assert_rejected(&patched(dist, density, 0, bad), bad);
        }
    }

    #[test]
    fn non_gaussian_kernel_tag_rejected() {
        // The kernel tag byte sits right before the stored bandwidth.
        let kde = Kde1d::fit(&XS).unwrap();
        let h = kde.bandwidth_value();
        let mut bytes = encoded(FittedDistribution::Kde(kde));
        let at = offset_of(&bytes, h, 0);
        bytes[at - 1] = 1;
        reseal(&mut bytes);
        let err = decode_library(&bytes).unwrap_err();
        assert!(err.to_string().contains("unknown kernel tag 1"), "got: {err}");
    }

    /// The hand-built KDE both golden libraries store: samples `[1, 2]`,
    /// bandwidth 0.5, and a three-point grid from 0 in steps of 1.5. A
    /// `.flcb` KDE keeps its grid as stored, so any valid grid will do.
    fn golden_kde() -> Kde1d {
        let grid = BinnedKde::from_parts(0.0, 1.5, vec![0.25, 0.5, 0.25], 0.5).unwrap();
        Kde1d::with_grid(vec![1.0, 2.0], Kernel::Gaussian, 0.5, grid).unwrap()
    }

    /// The stored state of [`golden_kde`], after its distribution tag
    /// (81 bytes).
    fn golden_kde_bytes() -> Vec<u8> {
        #[rustfmt::skip]
        let bytes = [
            &[0x00][..],                   // kernel tag: Gaussian
            &0.5f64.to_le_bytes(),         // bandwidth
            &[0x02, 0x00, 0x00, 0x00],     // sample count 2
            &1.0f64.to_le_bytes(),         // samples
            &2.0f64.to_le_bytes(),
            &0.0f64.to_le_bytes(),         // grid start
            &1.5f64.to_le_bytes(),         // grid step
            &0.5f64.to_le_bytes(),         // max density
            &[0x03, 0x00, 0x00, 0x00],     // grid point count 3
            &0.25f64.to_le_bytes(),        // grid densities
            &0.5f64.to_le_bytes(),
            &0.25f64.to_le_bytes(),
        ]
        .concat();
        bytes
    }

    /// A one-entry library in the v3 layout: header, the entry's payload
    /// length, name `name`, `state` (distribution tag onwards) and the
    /// payload checksum.
    fn golden_file(payload_len: u8, name: &[u8], state: &[u8], checksum: [u8; 8]) -> Vec<u8> {
        #[rustfmt::skip]
        let bytes = [
            b"FLCB".as_slice(),            // magic
            &[0x03, 0x00],                 // version 3, u16 LE
            &[0x01, 0x00, 0x00, 0x00],     // app length 1
            b"a",                          // app
            &[0x01, 0x00, 0x00, 0x00],     // entry count 1
            &[payload_len, 0, 0, 0],       // entry payload length, u32 LE
            &[0x01, 0x00, 0x00, 0x00],     // name length 1
            name,                          // name
            state,                         // tag · distribution state
            &checksum,                     // checksum, u64 LE
        ]
        .concat();
        bytes
    }

    /// Assert a loaded KDE is [`golden_kde`], grid included.
    fn assert_golden_kde(kde: &Kde1d) {
        assert_eq!(kde.samples(), [1.0, 2.0]);
        assert_eq!(kde.bandwidth_value(), 0.5);
        let grid = kde.grid();
        assert_eq!(
            (grid.grid_start(), grid.grid_step(), grid.max_density()),
            (0.0, 1.5, 0.5)
        );
        assert_eq!(grid.densities(), [0.25, 0.5, 0.25]);
    }

    /// Handwritten golden bytes for a one-entry pooled-KDE library lock
    /// the v3 layout in both directions: `encode_library` must emit
    /// exactly these bytes, and decoding them must yield the library.
    /// If this test breaks, the wire format changed — bump [`VERSION`].
    #[test]
    fn golden_bytes_lock_the_layout() {
        let mut lib = FeatureLibrary::default();
        lib.insert("k".into(), FittedDistribution::Kde(golden_kde()));
        let state = [&[FIT_KDE][..], &golden_kde_bytes()].concat();
        // 87 = name 5 + tag 1 + KDE 81.
        let checksum = [0x11, 0xcd, 0x1e, 0x99, 0x97, 0x18, 0xc5, 0x98];
        let golden = golden_file(87, b"k", &state, checksum);

        assert_eq!(
            encode_library("a", &lib),
            golden,
            "encoder output diverged from the v3 golden layout"
        );
        let (app, back) = decode_library(&golden).expect("golden bytes decode");
        assert_eq!(app, "a");
        let FittedDistribution::Kde(kde) = back.get("k").expect("entry") else {
            panic!("wrong variant");
        };
        assert_golden_kde(kde);

        // The same library in the v2 layout (no checksum) is refused by
        // version, before any entry is read.
        let mut v2 = golden[..golden.len() - 8].to_vec();
        v2[4] = 2;
        let err = decode_library(&v2).unwrap_err();
        assert!(
            err.to_string().contains("unsupported flcb version 2 (expected 3)"),
            "got: {err}"
        );
    }

    /// The class-conditional layout: the per-class count, then each
    /// class's index byte and KDE, then the pooled KDE.
    #[test]
    fn golden_bytes_lock_the_class_conditional_layout() {
        let mut per_class = BTreeMap::new();
        per_class.insert(ObjectClass::Pedestrian, golden_kde());
        let mut lib = FeatureLibrary::default();
        lib.insert(
            "c".into(),
            FittedDistribution::ClassConditional { per_class, pooled: golden_kde() },
        );
        #[rustfmt::skip]
        let state = [
            &[FIT_CLASS_COND][..],         // distribution tag
            &[0x01, 0x00, 0x00, 0x00],     // per-class count 1
            &[0x02],                       // class index: Pedestrian
            &golden_kde_bytes(),           // its KDE
            &golden_kde_bytes(),           // the pooled KDE
        ]
        .concat();
        // 173 = name 5 + tag 1 + count 4 + class 1 + two KDEs of 81.
        let checksum = [0x1b, 0xcc, 0xa9, 0x04, 0xd5, 0x7e, 0xad, 0xa8];
        let golden = golden_file(173, b"c", &state, checksum);

        assert_eq!(
            encode_library("a", &lib),
            golden,
            "encoder output diverged from the v3 golden layout"
        );
        let (_, back) = decode_library(&golden).expect("golden bytes decode");
        let Some(FittedDistribution::ClassConditional { per_class, pooled }) = back.get("c") else {
            panic!("wrong variant");
        };
        assert_eq!(per_class.keys().collect::<Vec<_>>(), [&ObjectClass::Pedestrian]);
        assert_golden_kde(&per_class[&ObjectClass::Pedestrian]);
        assert_golden_kde(pooled);
    }

    /// Tags 3, 4 and 5 held the histogram, Bernoulli and joint-KDE forms
    /// of earlier builds. An entry carrying one, laid out as those builds
    /// wrote it and correctly checksummed, is refused by its tag.
    #[test]
    fn removed_distribution_tags_rejected() {
        let mut histogram = Enc::default();
        histogram.u8(3);
        histogram.f64(0.0); // start
        histogram.f64(1.0); // bin width
        histogram.f64(0.5); // max density
        histogram.u64(4); // sample count
        histogram.f64_slice(&[0.5, 0.25]);
        let mut bernoulli = Enc::default();
        bernoulli.u8(4);
        bernoulli.f64(0.5); // p_one
        let mut joint = Enc::default();
        joint.u8(5);
        joint.u8(Kernel::Gaussian.tag());
        joint.u32(2); // dimension
        joint.f64_slice(&[0.5, 0.5]); // bandwidths
        joint.f64(0.3); // max density
        joint.f64_slice(&[1.0, 2.0, 3.0, 4.0]); // rows
        for (tag, state) in [(3, histogram), (4, bernoulli), (5, joint)] {
            let mut payload = Enc::default();
            payload.str("f");
            payload.buf.extend_from_slice(&state.buf);
            let mut enc = header("x", 1);
            push_entry(&mut enc, &payload.buf);
            let err = decode_library(&enc.buf).unwrap_err();
            assert!(
                err.to_string().contains(&format!("unknown distribution tag {tag}")),
                "got: {err}"
            );
        }
    }

    /// A changed payload byte fails its entry's checksum, and the error
    /// names the entry.
    #[test]
    fn checksum_mismatch_names_the_entry() {
        let bytes = encode_library("x", &sample_library());
        let at = offset_of(&bytes, 0.7, 0); // a car sample of 'speed'
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x01;
        match decode_library(&flipped) {
            Err(CodecError::Corrupt(msg)) => {
                assert!(msg.contains("checksum mismatch in entry 0 'speed'"), "got: {msg}")
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|(app, _)| app)),
        }
        // A flipped checksum byte fails the same way.
        let mut flipped = bytes;
        let last = flipped.len() - 1;
        flipped[last] ^= 0x80;
        let err = decode_library(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch in entry 1"), "got: {err}");
    }

    /// A grid altered on disk but still plausible (finite, non-negative)
    /// passes every `from_parts` check and would rank differently from
    /// the library it was written from; its checksum refuses it. Learned
    /// the way `fixy learn` fits missing-tracks on two short lyft-like
    /// scenes, then every density of `velocity`'s first grid halved.
    #[test]
    fn halved_velocity_grid_is_refused() {
        let mut cfg = loa_data::DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 3.0;
        let train: Vec<_> = (0..2)
            .map(|i| loa_data::generate_scene(&cfg, &format!("flcb-{i}"), 3 + i))
            .collect();
        let features = crate::apps::MissingTrackFinder.feature_set();
        let library = crate::learner::Learner::new().fit(&features, &train).unwrap();
        let grid = match library.get("velocity").expect("velocity fitted") {
            FittedDistribution::ClassConditional { per_class, pooled } => {
                per_class.values().next().unwrap_or(pooled).grid()
            }
            FittedDistribution::Kde(kde) => kde.grid(),
        };
        let stored: Vec<u8> = grid.densities().iter().flat_map(|d| d.to_le_bytes()).collect();
        let halved: Vec<u8> = grid
            .densities()
            .iter()
            .flat_map(|d| (d * 0.5).to_le_bytes())
            .collect();

        let mut bytes = encode_library("missing-tracks", &library);
        let at = bytes
            .windows(stored.len())
            .position(|w| w == stored)
            .expect("grid stored");
        bytes[at..at + stored.len()].copy_from_slice(&halved);
        match decode_library(&bytes) {
            Err(CodecError::Corrupt(msg)) => {
                assert!(
                    msg.contains("checksum mismatch") && msg.contains("'velocity'"),
                    "{msg}"
                )
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|(app, _)| app)),
        }
    }

    // -- Property tests ------------------------------------------------------

    use proptest::prelude::*;

    /// A generated library covering pooled-KDE and class-conditional
    /// shapes from arbitrary (finite, spread) samples.
    fn gen_library(xs: Vec<f64>, ys: Vec<f64>) -> FeatureLibrary {
        let spread = [0.0, 1.0, 5.0, -3.0]; // guarantees fit() succeeds
        let xs: Vec<f64> = xs.into_iter().chain(spread).collect();
        let ys: Vec<f64> = ys.into_iter().chain(spread).collect();
        let pooled: Vec<f64> = xs.iter().chain(&ys).copied().collect();
        let mut lib = FeatureLibrary::default();
        let mut per_class = BTreeMap::new();
        per_class.insert(ObjectClass::Car, Kde1d::fit(&xs).unwrap());
        per_class.insert(ObjectClass::Pedestrian, Kde1d::fit(&ys).unwrap());
        lib.insert(
            "cc".into(),
            FittedDistribution::ClassConditional {
                per_class,
                pooled: Kde1d::fit(&pooled).unwrap(),
            },
        );
        lib.insert("kde".into(), FittedDistribution::Kde(Kde1d::fit(&ys).unwrap()));
        lib
    }

    /// Round-trips `lib` through `.flcb` bytes and returns the first
    /// query where scoring diverges from the original, if any.
    fn roundtrip_divergence(lib: &FeatureLibrary, queries: &[f64]) -> Option<String> {
        let bytes = encode_library("missing-tracks", lib);
        let (app, back) = decode_library(&bytes).expect("roundtrip decodes");
        assert_eq!(app, "missing-tracks");
        for (name, fitted) in lib.entries() {
            let loaded = back.get(name).expect("entry survives");
            for &x in queries {
                for class in [None, Some(ObjectClass::Car), Some(ObjectClass::Bus)] {
                    let q = FeatureValue { x, class };
                    if fitted.probability(&q).to_bits() != loaded.probability(&q).to_bits() {
                        return Some(format!("'{name}' diverges at {q:?}"));
                    }
                }
            }
        }
        None
    }

    // The core contract, over generated libraries: an `.flcb` round trip
    // scores bit-identically at arbitrary query points. (Doc comments
    // stay outside the macro — the vendored `proptest!` matcher only
    // accepts bare `#[test] fn`.)
    proptest! {
        #[test]
        fn prop_roundtrip_bit_identical(
            xs in proptest::collection::vec(-50.0f64..50.0, 1..24),
            ys in proptest::collection::vec(-50.0f64..50.0, 1..24),
            queries in proptest::collection::vec(-60.0f64..60.0, 1..12),
        ) {
            let lib = gen_library(xs, ys);
            prop_assert_eq!(roundtrip_divergence(&lib, &queries), None);
        }

        // Single-byte corruption anywhere in a valid file must decode to
        // a clean `Ok`/`Err` — never panic, hang, or over-allocate.
        #[test]
        fn prop_byte_flip_never_panics(
            idx in 0usize..1_000_000,
            flip in 1u8..=255,
        ) {
            let mut bytes = encode_library("x", &sample_library());
            let at = idx % bytes.len();
            bytes[at] ^= flip;
            let _ = decode_library(&bytes);
        }
    }
}
