//! The `.flcb` (feature-library compact binary) format.
//!
//! Library JSON is convenient but wrong-shaped for fleet cold starts:
//! loading one pays a full tree-walking parse *and* an eager
//! [`BinnedKde::prepare`] convolution per KDE feature before the first
//! frame can be scored. `.flcb` serializes both the fitted state and the
//! *prepared* scoring forms — probability grids, sorted joint-KDE rows,
//! histogram and Bernoulli tables — verbatim as flat little-endian `f64`
//! arrays, so loading is a bounds-checked bulk copy instead of fit-state
//! reconstruction:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   magic "FLCB" · version u16 · app (u32 len + utf-8)  │
//! │          entry count u32                                     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ entry    payload_len u32 · payload:                          │ × n
//! │            name (u32 len + utf-8)                            │
//! │            fitted   tag u8 · distribution state              │
//! │            prepared tag u8 · precompiled scoring form        │
//! │              (class-conditional: unique-grid pool stored     │
//! │               once, per-class references by pool index)      │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Prepared grids travel bit-exact (`to_le_bytes`), so an `.flcb` load
//! scores **bit-identically** to the JSON path — which rebuilds the same
//! grids deterministically — without ever running the rebuild. Per-class
//! grids that shared one `Arc` at fit time (the learner dedups classes
//! whose grids came out identical) are stored once in a per-entry pool
//! and rehydrated into one `Arc`, so `Arc::ptr_eq` sharing survives the
//! round trip.
//!
//! Truncation surfaces [`CodecError::Io`]/[`CodecError::Corrupt`] —
//! never a panic — and every length prefix is capped
//! ([`MAX_RECORD_LEN`]) and checked
//! against the bytes actually present before any allocation, so a
//! corrupt count cannot become an allocation bomb. Every distribution
//! is rebuilt through its validating `from_parts` constructor — the one
//! the JSON deserializers use — so both formats accept and reject the
//! same stored values. The v1 JSON wire format stays fully supported;
//! `fixy convert --library` migrates.

use crate::codec::{CodecError, Dec, Enc, MAX_RECORD_LEN};
use crate::learner::{FeatureLibrary, FittedDistribution, PreparedDistribution};
use loa_data::ObjectClass;
use loa_stats::{Bernoulli, BinnedKde, Density1d, FitError, Histogram, Kde1d, KdeNd, Kernel};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// File extension of the binary library format.
pub const FLCB_EXTENSION: &str = "flcb";

/// The four magic bytes opening every `.flcb` file.
pub const FLCB_MAGIC: [u8; 4] = *b"FLCB";

const VERSION: u16 = 1;

// Fitted-section tags (one per [`FittedDistribution`] variant).
const FIT_CLASS_COND: u8 = 1;
const FIT_KDE: u8 = 2;
const FIT_HIST: u8 = 3;
const FIT_BERN: u8 = 4;
const FIT_JOINT: u8 = 5;

/// Prepared-section tag for "no prepared form" (joint KDEs: the fitted
/// rows are already the query-optimized representation). Every other
/// prepared section reuses its fitted tag, and the decoder rejects
/// mismatched pairs.
const PREP_NONE: u8 = 0;

fn corrupt(msg: impl Into<String>) -> CodecError {
    CodecError::Corrupt(msg.into())
}

/// Stored parts a distribution's `from_parts` rejected — the same checks
/// a JSON library load applies.
fn implausible(e: FitError) -> CodecError {
    corrupt(e.to_string())
}

// ---------------------------------------------------------------------------
// Scalar-distribution sections
// ---------------------------------------------------------------------------

fn enc_kde1d(enc: &mut Enc, kde: &Kde1d) {
    enc.u8(kde.kernel().tag());
    enc.f64(kde.bandwidth_value());
    enc.f64(kde.max_density());
    enc.f64_slice(kde.samples());
}

fn dec_kde1d(dec: &mut Dec<'_>) -> Result<Kde1d, CodecError> {
    let kernel = dec_kernel(dec)?;
    let bandwidth = dec.f64()?;
    let max_density = dec.f64()?;
    let samples = dec.f64_vec()?;
    Kde1d::from_parts(samples, kernel, bandwidth, max_density).map_err(implausible)
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

fn enc_hist(enc: &mut Enc, h: &Histogram) {
    enc.f64(h.start());
    enc.f64(h.bin_width());
    enc.f64(h.max_density());
    enc.u64(h.sample_count() as u64);
    enc.f64_slice(h.densities());
}

fn dec_hist(dec: &mut Dec<'_>) -> Result<Histogram, CodecError> {
    let start = dec.f64()?;
    let bin_width = dec.f64()?;
    let max_density = dec.f64()?;
    let n = dec.u64()?;
    let densities = dec.f64_vec()?;
    Histogram::from_parts(start, bin_width, densities, max_density, n as usize).map_err(implausible)
}

fn enc_bern(enc: &mut Enc, b: &Bernoulli) {
    enc.f64(b.p_one());
}

fn dec_bern(dec: &mut Dec<'_>) -> Result<Bernoulli, CodecError> {
    let p_one = dec.f64()?;
    Bernoulli::from_p(p_one).map_err(implausible)
}

fn enc_kde_nd(enc: &mut Enc, kde: &KdeNd) {
    enc.u8(kde.kernel().tag());
    enc.u32(kde.dim() as u32);
    enc.f64_slice(kde.bandwidths());
    enc.f64(kde.max_density());
    enc.f64_slice(kde.samples_flat());
}

fn dec_kde_nd(dec: &mut Dec<'_>) -> Result<KdeNd, CodecError> {
    let kernel = dec_kernel(dec)?;
    let dim = dec.u32()? as usize;
    let bandwidths = dec.f64_vec()?;
    let max_density = dec.f64()?;
    let samples = dec.f64_vec()?;
    KdeNd::from_flat_parts(dim, samples, kernel, bandwidths, max_density).map_err(implausible)
}

// ---------------------------------------------------------------------------
// Entry sections
// ---------------------------------------------------------------------------

fn fitted_tag(fitted: &FittedDistribution) -> u8 {
    match fitted {
        FittedDistribution::ClassConditional { .. } => FIT_CLASS_COND,
        FittedDistribution::Kde(_) => FIT_KDE,
        FittedDistribution::Histogram(_) => FIT_HIST,
        FittedDistribution::Bernoulli(_) => FIT_BERN,
        FittedDistribution::Joint(_) => FIT_JOINT,
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
        FittedDistribution::Histogram(h) => enc_hist(enc, h),
        FittedDistribution::Bernoulli(b) => enc_bern(enc, b),
        FittedDistribution::Joint(kde) => enc_kde_nd(enc, kde),
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
        FIT_HIST => Ok(FittedDistribution::Histogram(dec_hist(dec)?)),
        FIT_BERN => Ok(FittedDistribution::Bernoulli(dec_bern(dec)?)),
        FIT_JOINT => Ok(FittedDistribution::Joint(dec_kde_nd(dec)?)),
        tag => Err(corrupt(format!("unknown fitted-distribution tag {tag}"))),
    }
}

fn enc_prepared(enc: &mut Enc, prepared: Option<&PreparedDistribution>) {
    let Some(prepared) = prepared else {
        enc.u8(PREP_NONE);
        return;
    };
    match prepared {
        PreparedDistribution::ClassConditional { per_class, pooled } => {
            enc.u8(FIT_CLASS_COND);
            // Unique grids once, in first-seen order (pooled first, then
            // per-class in key order); classes reference by pool index so
            // the learner's Arc sharing survives the round trip.
            fn index_of<'p>(pool: &mut Vec<&'p Arc<BinnedKde>>, arc: &'p Arc<BinnedKde>) -> u32 {
                match pool.iter().position(|u| Arc::ptr_eq(u, arc)) {
                    Some(i) => i as u32,
                    None => {
                        pool.push(arc);
                        (pool.len() - 1) as u32
                    }
                }
            }
            let mut pool: Vec<&Arc<BinnedKde>> = Vec::new();
            let pooled_idx = index_of(&mut pool, pooled);
            let refs: Vec<(ObjectClass, u32)> = per_class
                .iter()
                .map(|(&class, arc)| (class, index_of(&mut pool, arc)))
                .collect();
            enc.len(pool.len());
            for grid in &pool {
                enc_binned(enc, grid);
            }
            enc.u32(pooled_idx);
            enc.len(refs.len());
            for (class, idx) in refs {
                enc.u8(class.index() as u8);
                enc.u32(idx);
            }
        }
        PreparedDistribution::Kde(grid) => {
            enc.u8(FIT_KDE);
            enc_binned(enc, grid);
        }
        PreparedDistribution::Histogram(h) => {
            enc.u8(FIT_HIST);
            enc_hist(enc, h);
        }
        PreparedDistribution::Bernoulli(b) => {
            enc.u8(FIT_BERN);
            enc_bern(enc, b);
        }
    }
}

fn dec_prepared(dec: &mut Dec<'_>) -> Result<Option<PreparedDistribution>, CodecError> {
    match dec.u8()? {
        PREP_NONE => Ok(None),
        FIT_CLASS_COND => {
            let n_grids = dec.len()?;
            if n_grids == 0 {
                return Err(corrupt("class-conditional entry with empty grid pool"));
            }
            let pool: Vec<Arc<BinnedKde>> = (0..n_grids)
                .map(|_| Ok(Arc::new(dec_binned(dec)?)))
                .collect::<Result<_, CodecError>>()?;
            let grid_at = |idx: u32| -> Result<Arc<BinnedKde>, CodecError> {
                pool.get(idx as usize)
                    .cloned()
                    .ok_or_else(|| corrupt(format!("grid index {idx} out of pool of {n_grids}")))
            };
            let pooled = grid_at(dec.u32()?)?;
            let n_classes = dec.len()?;
            let mut per_class = BTreeMap::new();
            for _ in 0..n_classes {
                let class = dec_class(dec)?;
                let grid = grid_at(dec.u32()?)?;
                if per_class.insert(class, grid).is_some() {
                    return Err(corrupt(format!("duplicate class {class:?} in entry")));
                }
            }
            Ok(Some(PreparedDistribution::ClassConditional { per_class, pooled }))
        }
        FIT_KDE => Ok(Some(PreparedDistribution::Kde(dec_binned(dec)?))),
        FIT_HIST => Ok(Some(PreparedDistribution::Histogram(dec_hist(dec)?))),
        FIT_BERN => Ok(Some(PreparedDistribution::Bernoulli(dec_bern(dec)?))),
        tag => Err(corrupt(format!("unknown prepared-distribution tag {tag}"))),
    }
}

/// `true` when the prepared section's tag is the one the fitted section
/// requires (joint ↔ none, everything else ↔ its own tag).
fn sections_consistent(
    fitted: &FittedDistribution,
    prepared: Option<&PreparedDistribution>,
) -> bool {
    match (fitted, prepared) {
        (FittedDistribution::Joint(_), None) => true,
        (FittedDistribution::ClassConditional { .. }, Some(p)) => {
            matches!(p, PreparedDistribution::ClassConditional { .. })
        }
        (FittedDistribution::Kde(_), Some(p)) => matches!(p, PreparedDistribution::Kde(_)),
        (FittedDistribution::Histogram(_), Some(p)) => {
            matches!(p, PreparedDistribution::Histogram(_))
        }
        (FittedDistribution::Bernoulli(_), Some(p)) => {
            matches!(p, PreparedDistribution::Bernoulli(_))
        }
        _ => false,
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
        enc_prepared(&mut entry, library.get_prepared(name));
        out.len(entry.buf.len());
        out.buf.extend_from_slice(&entry.buf);
    }
    out.buf
}

/// Decode `.flcb` bytes into the fitting app and the library, prepared
/// forms bulk-copied straight off the wire (no `prepare()` rebuild).
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
    let mut map = BTreeMap::new();
    let mut prepared = BTreeMap::new();
    for _ in 0..n_entries {
        let payload_len = dec.u32()?;
        if payload_len > MAX_RECORD_LEN {
            return Err(corrupt(format!("implausible record length {payload_len}")));
        }
        let mut entry = Dec::new(dec.take(payload_len as usize)?);
        let name = entry.str()?;
        let fitted = dec_fitted(&mut entry)?;
        let prep = dec_prepared(&mut entry)?;
        entry.finish()?;
        if !sections_consistent(&fitted, prep.as_ref()) {
            return Err(corrupt(format!(
                "entry '{name}': prepared section does not match fitted section"
            )));
        }
        if let Some(p) = prep {
            prepared.insert(name.clone(), p);
        }
        if map.insert(name.clone(), fitted).is_some() {
            return Err(corrupt(format!("duplicate entry '{name}'")));
        }
    }
    dec.finish()?;
    Ok((app, FeatureLibrary::from_parts(map, prepared)))
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

    /// A small library exercising every variant: class-conditional with a
    /// deliberately Arc-shared grid, pooled KDE, histogram, Bernoulli,
    /// joint.
    fn sample_library() -> FeatureLibrary {
        let mut lib = FeatureLibrary::default();
        let car: Vec<f64> = (0..40).map(|i| (i % 11) as f64 * 0.7).collect();
        let ped: Vec<f64> = (0..40).map(|i| 3.0 + (i % 7) as f64 * 0.4).collect();
        let mut per_class = BTreeMap::new();
        per_class.insert(ObjectClass::Car, Kde1d::fit(&car).unwrap());
        per_class.insert(ObjectClass::Pedestrian, Kde1d::fit(&ped).unwrap());
        // A class whose samples equal the pooled fit prepares to an
        // identical grid — the learner shares the allocation.
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
        lib.insert(
            "track_len".into(),
            FittedDistribution::Histogram(Histogram::fit(&[1.0, 2.0, 2.0, 3.0, 9.0]).unwrap()),
        );
        lib.insert(
            "consistent".into(),
            FittedDistribution::Bernoulli(Bernoulli::fit(&[0.0, 1.0, 1.0, 1.0]).unwrap()),
        );
        let rows: Vec<Vec<f64>> =
            (0..30).map(|i| vec![(i % 5) as f64, (i % 3) as f64 * 1.5]).collect();
        lib.insert(
            "vel_vec".into(),
            FittedDistribution::Joint(KdeNd::fit(&rows).unwrap()),
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
            for v in [[0.0, 0.0], [2.0, 1.5], [4.0, 3.0], [9.0, -1.0]] {
                assert_eq!(
                    fitted.probability_vector(&v).to_bits(),
                    loaded.probability_vector(&v).to_bits(),
                    "vector probability diverges for '{name}'"
                );
            }
            // Prepared forms travel verbatim: same probabilities without
            // any rebuild.
            match (lib.get_prepared(name), back.get_prepared(name)) {
                (Some(a), Some(b)) => {
                    for q in queries() {
                        assert_eq!(
                            a.probability(&q).to_bits(),
                            b.probability(&q).to_bits(),
                            "prepared probability diverges for '{name}' at {q:?}"
                        );
                    }
                }
                (None, None) => {}
                (a, b) => panic!(
                    "prepared presence diverges for '{name}': {} vs {}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }

    /// The learner's `Arc::ptr_eq` grid dedup must survive the round
    /// trip: grids stored once in the pool, rehydrated into one `Arc`.
    #[test]
    fn arc_sharing_survives_roundtrip() {
        fn unique_grids(p: &PreparedDistribution) -> usize {
            let PreparedDistribution::ClassConditional { per_class, pooled } = p else {
                panic!("class-conditional expected");
            };
            let mut uniq: Vec<*const BinnedKde> = vec![Arc::as_ptr(pooled)];
            for arc in per_class.values() {
                if !uniq.contains(&Arc::as_ptr(arc)) {
                    uniq.push(Arc::as_ptr(arc));
                }
            }
            uniq.len()
        }

        let lib = sample_library();
        let before = unique_grids(lib.get_prepared("speed").unwrap());
        // The Bus class and the pooled fallback were fit from identical
        // samples — the learner shares their grid.
        assert!(
            before < 4,
            "expected shared grids in the fixture, got {before} uniques"
        );

        let bytes = encode_library("a", &lib);
        let (_, back) = decode_library(&bytes).unwrap();
        let loaded = back.get_prepared("speed").unwrap();
        assert_eq!(unique_grids(loaded), before, "Arc dedup lost in the round trip");

        let PreparedDistribution::ClassConditional { per_class, pooled } = loaded else {
            unreachable!()
        };
        assert!(
            Arc::ptr_eq(per_class.get(&ObjectClass::Bus).unwrap(), pooled),
            "Bus grid must rehydrate into the pooled Arc"
        );
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
        bytes[4] = 2; // version 2
        let err = decode_library(&bytes).unwrap_err();
        assert!(err.to_string().contains("unsupported flcb version 2"), "got: {err}");
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
        payload.f64(1.0); // max_density
        payload.u32(u32::MAX); // sample count with no samples behind it
        let mut enc = header("x", 1);
        enc.len(payload.buf.len());
        enc.buf.extend_from_slice(&payload.buf);
        let err = decode_library(&enc.buf).unwrap_err();
        assert!(err.to_string().contains("implausible element count"), "got: {err}");

        // Same bomb via a string length prefix.
        let mut payload = Enc::default();
        payload.u32(u32::MAX); // name length
        let mut enc = header("x", 1);
        enc.len(payload.buf.len());
        enc.buf.extend_from_slice(&payload.buf);
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
        payload.u8(FIT_BERN);
        payload.f64(0.25);
        payload.u8(FIT_BERN);
        payload.f64(0.25);
        payload.u8(0xff); // one stray byte inside the declared payload
        let mut enc = header("x", 1);
        enc.len(payload.buf.len());
        enc.buf.extend_from_slice(&payload.buf);
        assert!(matches!(decode_library(&enc.buf), Err(CodecError::Corrupt(_))));
    }

    /// A fitted section whose prepared partner carries the wrong tag
    /// (here: Bernoulli fitted, "none" prepared) is rejected.
    #[test]
    fn mismatched_prepared_section_rejected() {
        let mut payload = Enc::default();
        payload.str("flag");
        payload.u8(FIT_BERN);
        payload.f64(0.5);
        payload.u8(PREP_NONE);
        let mut enc = header("x", 1);
        enc.len(payload.buf.len());
        enc.buf.extend_from_slice(&payload.buf);
        let err = decode_library(&enc.buf).unwrap_err();
        assert!(err.to_string().contains("does not match"), "got: {err}");
    }

    #[test]
    fn duplicate_entries_rejected() {
        let mut payload = Enc::default();
        payload.str("flag");
        payload.u8(FIT_BERN);
        payload.f64(0.5);
        payload.u8(FIT_BERN);
        payload.f64(0.5);
        let mut enc = header("x", 2);
        for _ in 0..2 {
            enc.len(payload.buf.len());
            enc.buf.extend_from_slice(&payload.buf);
        }
        let err = decode_library(&enc.buf).unwrap_err();
        assert!(err.to_string().contains("duplicate entry 'flag'"), "got: {err}");
    }

    /// A class-conditional grid reference pointing past the pool is
    /// rejected (the rehydration path is index-based).
    #[test]
    fn out_of_pool_grid_index_rejected() {
        let lib = sample_library();
        let bytes = encode_library("x", &lib);
        // Corrupting a pool index structurally is fiddly; instead decode a
        // handcrafted prepared section directly.
        let mut payload = Enc::default();
        payload.u8(FIT_CLASS_COND);
        payload.len(1); // one grid in the pool
        payload.f64(0.0); // grid_start
        payload.f64(0.5); // grid_step
        payload.f64(1.0); // max_density
        payload.f64_slice(&[1.0, 2.0, 1.0]);
        payload.u32(7); // pooled index — out of a pool of 1
        let mut dec = Dec::new(&payload.buf);
        let err = dec_prepared(&mut dec).unwrap_err();
        assert!(
            err.to_string().contains("grid index 7 out of pool of 1"),
            "got: {err}"
        );
        drop(bytes);
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
    /// replaced by `new`.
    fn patched(dist: FittedDistribution, old: f64, nth: usize, new: f64) -> Vec<u8> {
        let mut bytes = encoded(dist);
        let at = offset_of(&bytes, old, nth);
        bytes[at..at + 8].copy_from_slice(&new.to_le_bytes());
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
        // The fitted normalizer is the grid's: copy 0 is the fitted
        // section's, copy 1 the prepared grid's.
        let kde = Kde1d::fit(&XS).unwrap();
        for nth in [0, 1] {
            for bad in BAD_SCALES {
                let dist = FittedDistribution::Kde(kde.clone());
                assert_rejected(&patched(dist, kde.max_density(), nth, bad), bad);
            }
        }
    }

    #[test]
    fn grid_densities_must_be_finite_nonnegative() {
        let kde = Kde1d::fit(&XS).unwrap();
        let density = BinnedKde::prepare(&kde).densities()[5];
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let dist = FittedDistribution::Kde(kde.clone());
            assert_rejected(&patched(dist, density, 0, bad), bad);
        }
    }

    #[test]
    fn histogram_max_density_and_densities_must_be_plausible() {
        let h = Histogram::fit(&[1.0, 2.0, 2.0, 3.0, 9.0]).unwrap();
        let density = *h
            .densities()
            .iter()
            .find(|&&d| d > 0.0 && d != h.max_density())
            .unwrap();
        for bad in BAD_SCALES {
            let dist = FittedDistribution::Histogram(h.clone());
            assert_rejected(&patched(dist, h.max_density(), 0, bad), bad);
        }
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let dist = FittedDistribution::Histogram(h.clone());
            assert_rejected(&patched(dist, density, 0, bad), bad);
        }
    }

    #[test]
    fn joint_max_density_must_be_finite_positive() {
        let rows: Vec<Vec<f64>> = XS.iter().map(|&x| vec![x, 2.0 * x]).collect();
        let kde = KdeNd::fit(&rows).unwrap();
        for bad in BAD_SCALES {
            let dist = FittedDistribution::Joint(kde.clone());
            assert_rejected(&patched(dist, kde.max_density(), 0, bad), bad);
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
        let err = decode_library(&bytes).unwrap_err();
        assert!(err.to_string().contains("unknown kernel tag 1"), "got: {err}");
    }

    /// Handwritten golden bytes for a one-entry Bernoulli library lock
    /// the v1 layout in both directions: `encode_library` must emit
    /// exactly these bytes, and decoding them must yield the library.
    /// If this test breaks, the wire format changed — bump [`VERSION`].
    #[test]
    fn golden_bytes_lock_the_layout() {
        let mut lib = FeatureLibrary::default();
        lib.insert(
            "b".into(),
            FittedDistribution::Bernoulli(Bernoulli::from_p(0.5).unwrap()),
        );

        #[rustfmt::skip]
        let golden: Vec<u8> = [
            b"FLCB".as_slice(),            // magic
            &[0x01, 0x00],                 // version 1, u16 LE
            &[0x01, 0x00, 0x00, 0x00],     // app length 1
            b"a",                          // app
            &[0x01, 0x00, 0x00, 0x00],     // entry count 1
            &[0x17, 0x00, 0x00, 0x00],     // entry payload length 23
            &[0x01, 0x00, 0x00, 0x00],     // name length 1
            b"b",                          // name
            &[FIT_BERN],                   // fitted tag
            &0.5f64.to_le_bytes(),         // p_one
            &[FIT_BERN],                   // prepared tag
            &0.5f64.to_le_bytes(),         // prepared p_one
        ]
        .concat();

        assert_eq!(
            encode_library("a", &lib),
            golden,
            "encoder output diverged from the v1 golden layout"
        );
        let (app, back) = decode_library(&golden).expect("golden bytes decode");
        assert_eq!(app, "a");
        let FittedDistribution::Bernoulli(b) = back.get("b").expect("entry") else {
            panic!("wrong variant");
        };
        assert_eq!(b.p_one(), 0.5);
    }

    // -- Property tests ------------------------------------------------------

    use proptest::prelude::*;

    /// A generated library covering KDE, histogram, Bernoulli and
    /// class-conditional shapes from arbitrary (finite, spread) samples.
    fn gen_library(xs: Vec<f64>, ys: Vec<f64>, p: f64) -> FeatureLibrary {
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
        lib.insert(
            "hist".into(),
            FittedDistribution::Histogram(Histogram::fit(&xs).unwrap()),
        );
        lib.insert(
            "bern".into(),
            FittedDistribution::Bernoulli(Bernoulli::from_p(p).unwrap()),
        );
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
            p in 0.0f64..=1.0,
            queries in proptest::collection::vec(-60.0f64..60.0, 1..12),
        ) {
            let lib = gen_library(xs, ys, p);
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
