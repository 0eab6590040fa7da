//! Streaming JSON decode conformance: the acceptance bar for retiring
//! the tree-walking parser on the legacy-corpus path.
//!
//! Three contract families:
//!
//! 1. **Equivalence** — `from_str` (streamed, no intermediate tree) and
//!    `from_str_via_tree` (materialize a `Value`, then walk it) decode
//!    identically: proptested over random `Value` trees and over fuzzed
//!    scene corpora (field-for-field via re-serialization, since scene
//!    types carry no `PartialEq`), plus the real persisted shapes
//!    (`FeatureLibrary`, a `Frame` with reordered and unknown keys).
//! 2. **Backward compatibility** — legacy scene JSON written before the
//!    fuzzer's taxonomy fields existed still loads, on both paths.
//! 3. **Adversarial input** — truncation at every byte boundary is a
//!    typed error (never a panic), deep-nesting bombs hit the depth cap
//!    recoverably, and malformed strings/escapes error cleanly.

use fixy::core::Learner;
use fixy::data::ScenarioFuzzer;
use fixy::prelude::*;
use proptest::prelude::*;
use serde_json::Value;

fn fuzzed_scene(seed: u64, index: u64) -> fixy::data::SceneData {
    ScenarioFuzzer::new(seed).scene(index)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random string over a palette that forces every writer escape class:
/// plain ASCII, quote, backslash, control chars (→ `\uXXXX`), multibyte
/// BMP, and astral scalars.
fn gen_string(state: &mut u64) -> String {
    const PALETTE: &[char] = &[
        'a',
        'Z',
        '9',
        ' ',
        '"',
        '\\',
        '\n',
        '\t',
        '\u{0007}',
        '\u{00e9}',
        '\u{4e2d}',
        '\u{1F600}',
        '\u{1D11E}',
    ];
    let len = (splitmix(state) % 13) as usize;
    (0..len)
        .map(|_| PALETTE[(splitmix(state) as usize) % PALETTE.len()])
        .collect()
}

/// Random `Value` tree: every scalar kind, escape-heavy strings, and
/// nested arrays/objects down to `depth` levels.
fn gen_value(state: &mut u64, depth: u32) -> Value {
    let n_kinds = if depth == 0 { 6 } else { 8 };
    match splitmix(state) % n_kinds {
        0 => Value::Null,
        1 => Value::Bool(splitmix(state) & 1 == 1),
        2 => Value::Int(splitmix(state) as i64),
        3 => Value::UInt(splitmix(state)),
        // Dyadic rationals round-trip exactly through shortest-repr
        // formatting, so byte-stability is a fair ask.
        4 => Value::Float((splitmix(state) as i32 as f64) / 256.0),
        5 => Value::Str(gen_string(state)),
        6 => {
            let len = (splitmix(state) % 5) as usize;
            Value::Array((0..len).map(|_| gen_value(state, depth - 1)).collect())
        }
        _ => {
            let len = (splitmix(state) % 5) as usize;
            Value::Object(
                (0..len)
                    .map(|i| (format!("k{}_{i}", splitmix(state) % 7), gen_value(state, depth - 1)))
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Streamed decode ≡ tree decode on arbitrary Value trees.
    #[test]
    fn prop_streamed_equals_tree_on_value_trees(seed in any::<u64>()) {
        let mut state = seed;
        let v = gen_value(&mut state, 4);
        let text = serde_json::to_string(&v).expect("serialize");
        let streamed: Value = serde_json::from_str(&text).expect("streamed decode");
        let tree: Value = serde_json::from_str_via_tree(&text).expect("tree decode");
        prop_assert_eq!(&streamed, &tree);
    }

    // serialize → stream-parse → reserialize is byte-stable.
    #[test]
    fn prop_stream_reserialize_byte_stable(seed in any::<u64>()) {
        let mut state = seed;
        let v = gen_value(&mut state, 4);
        let text = serde_json::to_string(&v).expect("serialize");
        let reparsed: Value = serde_json::from_str(&text).expect("decode");
        let text2 = serde_json::to_string(&reparsed).expect("reserialize");
        prop_assert_eq!(text, text2);
    }
}

proptest! {
    // Scenes are expensive to fuzz; a handful of cases is plenty on top
    // of the Value-tree sweep above.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Streamed ≡ tree on fuzzed scene corpora, field-for-field (scene
    // types have no PartialEq, so equality is checked by
    // re-serializing both decodes).
    #[test]
    fn prop_streamed_equals_tree_on_fuzzed_scenes(seed in 0u64..500, index in 0u64..50) {
        let data = fuzzed_scene(seed, index);
        let text = serde_json::to_string(&data).expect("serialize");
        let streamed: fixy::data::SceneData =
            serde_json::from_str(&text).expect("streamed decode");
        let tree: fixy::data::SceneData =
            serde_json::from_str_via_tree(&text).expect("tree decode");
        prop_assert_eq!(
            serde_json::to_string(&streamed).expect("reserialize streamed"),
            serde_json::to_string(&tree).expect("reserialize tree"),
        );
    }

    // Truncating a fuzzed scene's JSON at any byte boundary is a typed
    // error on both paths — never a panic. (Sampled boundaries; the
    // every-byte sweep runs on the crafted doc below.)
    #[test]
    fn prop_truncated_scene_json_errors(seed in 0u64..100, frac in 0.0f64..1.0) {
        let data = fuzzed_scene(seed, 0);
        let text = serde_json::to_string(&data).expect("serialize");
        let cut = ((text.len() as f64) * frac) as usize;
        // Snap to the nearest char boundary at or below the cut.
        let mut cut = cut.min(text.len().saturating_sub(1));
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &text[..cut];
        prop_assert!(serde_json::from_str::<fixy::data::SceneData>(prefix).is_err());
        prop_assert!(serde_json::from_str_via_tree::<fixy::data::SceneData>(prefix).is_err());
    }
}

/// A small document covering every token type, escape handling, and
/// nesting — small enough to truncate at every single byte.
fn crafted_doc() -> String {
    let bs = '\\';
    format!(
        concat!(
            r#"{{"s":"a{bs}tb {bs}"q{bs}" {bs}{bs} end","u":"{bs}u0041{bs}uD83D{bs}uDE00","#,
            r#""n":[0,1,-2,3.5,-4.25e-3,18446744073709551615,99999999999999999999],"#,
            r#""b":[true,false,null],"o":{{"k":{{}},"e":[[],{{}}]}},"tail":7}}"#
        ),
        bs = bs
    )
}

#[test]
fn crafted_doc_truncation_at_every_byte_is_typed_error() {
    let doc = crafted_doc();
    // Sanity: the full document parses, on both paths, identically.
    let full: Value = serde_json::from_str(&doc).expect("full doc");
    let full_tree: Value = serde_json::from_str_via_tree(&doc).expect("full doc via tree");
    assert_eq!(full, full_tree);
    for cut in 0..doc.len() {
        // Mid-UTF-8 cuts can't even form a &str; skip them.
        let Some(prefix) = doc.get(..cut) else { continue };
        assert!(
            serde_json::from_str::<Value>(prefix).is_err(),
            "prefix of {cut} bytes decoded on the streamed path"
        );
        assert!(
            serde_json::from_str_via_tree::<Value>(prefix).is_err(),
            "prefix of {cut} bytes decoded on the tree path"
        );
    }
}

#[test]
fn surrogate_pair_escapes_decode_to_astral_scalars() {
    let doc = crafted_doc();
    let v: Value = serde_json::from_str(&doc).unwrap();
    // "A" is 'A'; "😀" is one astral scalar (U+1F600),
    // not two replacement chars — the pre-streaming parser corrupted
    // ids through exactly this path.
    assert_eq!(v.get("u").and_then(Value::as_str), Some("A\u{1F600}"));
}

#[test]
fn astral_scene_ids_survive_a_json_round_trip() {
    let mut data = fuzzed_scene(11, 3);
    data.id = "scene-\u{1F600}-\u{1D11E}".to_string();
    let text = serde_json::to_string(&data).expect("serialize");
    let back: fixy::data::SceneData = serde_json::from_str(&text).expect("decode");
    assert_eq!(back.id, data.id);
}

#[test]
fn nesting_bombs_hit_the_depth_cap_recoverably() {
    for bomb in ["[".repeat(4096), "{\"k\":".repeat(4096), format!("[{}", "{\"a\":[".repeat(2048))]
    {
        let err = serde_json::from_str::<Value>(&bomb).expect_err("bomb must not decode");
        assert!(
            err.to_string().contains("nesting deeper"),
            "expected the depth-cap error, got: {err}"
        );
    }
    // Recoverable: a normal decode right after still works, and legal
    // nesting below the cap is untouched.
    let deep_ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
    let v: Value = serde_json::from_str(&deep_ok).expect("100 levels is legal");
    assert_eq!(serde_json::to_string(&v).unwrap(), deep_ok);
}

#[test]
fn malformed_strings_error_cleanly() {
    let bs = '\\';
    for doc in [
        // Unterminated, with and without escapes in flight.
        r#""never closed"#.to_string(),
        format!(r#""cut mid-escape {bs}"#),
        format!(r#""cut mid-unicode {bs}u00"#),
        format!(r#""bad escape {bs}x""#),
        format!(r#""bad hex {bs}uZZZZ""#),
    ] {
        assert!(
            serde_json::from_str::<String>(&doc).is_err(),
            "{doc:?} must not decode"
        );
    }
    // Lenient lone surrogates decode to U+FFFD rather than erroring —
    // matching what previously-written corpora already contain.
    let lone: String = serde_json::from_str(&format!(r#""{bs}uD800!""#)).unwrap();
    assert_eq!(lone, "\u{FFFD}!");
}

#[test]
fn legacy_scene_without_taxonomy_fields_loads_on_both_paths() {
    let data = fuzzed_scene(42, 7);
    let text = serde_json::to_string(&data).expect("serialize");
    // Strip the post-v1 taxonomy keys the way a legacy corpus simply
    // never had them.
    let mut v: Value = serde_json::from_str(&text).expect("reparse");
    if let Value::Object(entries) = &mut v {
        for (k, val) in entries.iter_mut() {
            if k == "injected" {
                if let Value::Object(inj) = val {
                    inj.retain(|(k, _)| k != "class_swaps" && k != "inconsistent_bundles");
                }
            }
        }
    }
    let legacy_text = serde_json::to_string(&v).expect("reserialize");
    assert!(legacy_text.len() < text.len(), "keys were actually stripped");
    let streamed: fixy::data::SceneData =
        serde_json::from_str(&legacy_text).expect("legacy scene must load (streamed)");
    let tree: fixy::data::SceneData =
        serde_json::from_str_via_tree(&legacy_text).expect("legacy scene must load (tree)");
    assert!(streamed.injected.class_swaps.is_empty());
    assert!(streamed.injected.inconsistent_bundles.is_empty());
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&tree).unwrap(),
    );
}

#[test]
fn feature_library_streams_identically_and_rebuilds_prepared() {
    let finder = MissingTrackFinder;
    let train: Vec<_> = (0..2).map(|i| fuzzed_scene(900, i)).collect();
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");
    let text = serde_json::to_string(&library).expect("serialize");
    let streamed: FeatureLibrary = serde_json::from_str(&text).expect("streamed");
    let tree: FeatureLibrary = serde_json::from_str_via_tree(&text).expect("tree");
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&tree).unwrap(),
    );
    // The KDE grids must be rebuilt by the streaming path too — and
    // scoring through both libraries must agree bit-for-bit.
    let scene = Scene::assemble(&fuzzed_scene(901, 0), &AssemblyConfig::default());
    let a = App::MissingTracks.rank(&scene, &streamed).expect("rank streamed");
    let b = App::MissingTracks.rank(&scene, &tree).expect("rank tree");
    assert_eq!(a, b);
}

#[test]
fn integer_keyed_maps_stream_through_from_json_key() {
    use std::collections::BTreeMap;
    let mut m: BTreeMap<u64, Vec<i32>> = BTreeMap::new();
    m.insert(3, vec![1, -2]);
    m.insert(u64::MAX, vec![]);
    let text = serde_json::to_string(&m).expect("serialize");
    let streamed: BTreeMap<u64, Vec<i32>> = serde_json::from_str(&text).expect("streamed");
    let tree: BTreeMap<u64, Vec<i32>> = serde_json::from_str_via_tree(&text).expect("tree");
    assert_eq!(streamed, m);
    assert_eq!(tree, m);
    // A non-numeric key is a typed error for integer-keyed maps.
    assert!(serde_json::from_str::<BTreeMap<u64, i32>>(r#"{"pony":1}"#).is_err());
}

#[test]
fn out_of_order_and_unknown_keys_stream_like_the_tree() {
    // A persisted frame with its fields reversed, plus an unknown key
    // whose value is a deep subtree the streamed path must skip without
    // building.
    let data = fuzzed_scene(77, 1);
    let frame = data
        .frames
        .iter()
        .find(|f| !f.human_labels.is_empty() && !f.detections.is_empty())
        .expect("a frame with labels and detections");
    let canonical = serde_json::to_string(frame).unwrap();
    let Value::Object(mut fields) = serde_json::parse_value(&canonical).unwrap() else {
        panic!("a frame serializes to an object");
    };
    fields.reverse();
    let deep = serde_json::parse_value(r#"{"a":[1,2,{"b":null,"c":[[{}]]}]}"#).unwrap();
    fields.insert(1, ("future_field".to_string(), deep));
    let doc = serde_json::value_to_string(&Value::Object(fields));
    assert_ne!(doc, canonical);

    let streamed: fixy::data::Frame = serde_json::from_str(&doc).expect("streamed");
    let tree: fixy::data::Frame = serde_json::from_str_via_tree(&doc).expect("tree");
    assert_eq!(serde_json::to_string(&streamed).unwrap(), canonical);
    assert_eq!(serde_json::to_string(&tree).unwrap(), canonical);
}
