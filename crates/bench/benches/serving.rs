//! Serving-layer benchmarks: what a resident `loa_serve` core sustains.
//!
//! * `serving/interleaved_sessions` — 8 concurrent sessions on one
//!   `AuditService`, frames round-robined in order; divide the median by
//!   the total frame count for frames/sec/core, by 8 for a
//!   sessions/core feel.
//! * `serving/interleaved_sessions_shuffled` — the same load delivered
//!   through a bounded shuffle (late ≤ 3) with periodic duplicates: the
//!   reorder buffer plus duplicate dropping must not change the cost
//!   regime.
//! * `serving/session_churn` — open → few frames → close, 64 sessions
//!   in a row: the engine pool must hold steady-state churn to zero
//!   engine builds (asserted outside the timed loop).
//! * `serving/wire_frame_roundtrip` — encode + envelope + decode of
//!   every frame in a scene: the per-frame protocol tax.
//!
//! Set `FIXY_BENCH_SMOKE=1` for miniature scenes and 3 samples — the CI
//! mode that keeps the bench compiling *and* executing.

use criterion::{criterion_group, criterion_main, Criterion};
use fixy_core::apps::App;
use fixy_core::Learner;
use loa_data::{generate_scene, DatasetProfile, SceneData};
use loa_serve::{AuditService, Request, ServeContext, ServiceCfg};
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn scene_data(name: &str, seed: u64) -> SceneData {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    if smoke() {
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
    }
    generate_scene(&cfg, name, seed)
}

fn context() -> ServeContext {
    let app = App::MissingTracks;
    let train: Vec<_> = (0..2)
        .map(|i| scene_data(&format!("serve-train-{i}"), 700 + i))
        .collect();
    let library = Learner { assembly: app.assembly() }
        .fit(&app.feature_set(), &train)
        .expect("fit");
    ServeContext::new(app, library).expect("context")
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bounded shuffle: stable sort by `index + jitter`, jitter in
/// `0..=late` — every frame lands within `late` of its slot.
fn delivery_order(n: usize, late: u32, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut keyed: Vec<(u64, usize)> = (0..n)
        .map(|i| (i as u64 + splitmix64(&mut state) % (u64::from(late) + 1), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

fn bench_interleaved_sessions(c: &mut Criterion) {
    let ctx = context();
    let n_sessions = 8usize;
    let scenes: Vec<SceneData> = (0..n_sessions)
        .map(|i| scene_data(&format!("serve-live-{i}"), 800 + i as u64))
        .collect();
    let frames_per = scenes[0].frames.len();

    let mut group = c.benchmark_group("serving");
    group.sample_size(if smoke() { 3 } else { 10 });

    group.bench_function("interleaved_sessions", |b| {
        let mut svc = AuditService::new(&ctx, ServiceCfg::default());
        b.iter(|| {
            for (sid, scene) in scenes.iter().enumerate() {
                svc.open(sid as u32, &scene.id, scene.frame_dt).expect("open");
            }
            for k in 0..frames_per {
                for (sid, scene) in scenes.iter().enumerate() {
                    if let Some(frame) = scene.frames.get(k) {
                        svc.frame(sid as u32, black_box(frame.clone())).expect("frame");
                    }
                }
            }
            let mut acc = 0usize;
            for sid in 0..n_sessions {
                acc += svc.close(sid as u32).expect("close").entries.len();
            }
            black_box(acc)
        })
    });

    group.bench_function("interleaved_sessions_shuffled", |b| {
        let cfg = ServiceCfg { window: 4, ..ServiceCfg::default() };
        let mut svc = AuditService::new(&ctx, cfg);
        let orders: Vec<Vec<usize>> = scenes
            .iter()
            .enumerate()
            .map(|(i, s)| delivery_order(s.frames.len(), 3, 0xfeed + i as u64))
            .collect();
        b.iter(|| {
            for (sid, scene) in scenes.iter().enumerate() {
                svc.open(sid as u32, &scene.id, scene.frame_dt).expect("open");
            }
            for k in 0..frames_per {
                for (sid, scene) in scenes.iter().enumerate() {
                    let Some(&pos) = orders[sid].get(k) else { continue };
                    svc.frame(sid as u32, black_box(scene.frames[pos].clone()))
                        .expect("frame");
                    if k % 4 == 0 {
                        svc.frame(sid as u32, scene.frames[pos].clone()).expect("dup");
                    }
                }
            }
            let mut acc = 0usize;
            for sid in 0..n_sessions {
                acc += svc.close(sid as u32).expect("close").entries.len();
            }
            black_box(acc)
        })
    });

    group.finish();
}

fn bench_session_churn(c: &mut Criterion) {
    let ctx = context();
    let scene = scene_data("serve-churn", 901);
    let head = if smoke() { 4 } else { 10 }.min(scene.frames.len());

    let mut group = c.benchmark_group("serving");
    group.sample_size(if smoke() { 3 } else { 10 });

    let mut svc = AuditService::new(&ctx, ServiceCfg::default());
    group.bench_function("session_churn_64", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for round in 0..64u32 {
                svc.open(round, &scene.id, scene.frame_dt).expect("open");
                for frame in &scene.frames[..head] {
                    svc.frame(round, black_box(frame.clone())).expect("frame");
                }
                acc += svc.close(round).expect("close").stats.frames as usize;
            }
            black_box(acc)
        })
    });
    group.finish();
    assert_eq!(svc.engines_built(), 1, "churn must be absorbed by the engine pool");
}

fn bench_wire_roundtrip(c: &mut Criterion) {
    let scene = scene_data("serve-wire", 902);

    let mut group = c.benchmark_group("serving");
    group.sample_size(if smoke() { 3 } else { 10 });

    group.bench_function("wire_frame_roundtrip", |b| {
        let mut buf: Vec<u8> = Vec::new();
        b.iter(|| {
            let mut acc = 0usize;
            for frame in &scene.frames {
                buf.clear();
                let record = loa_ingest::encode_frame_record(black_box(frame));
                loa_serve::protocol::write_request(
                    &mut buf,
                    &Request::Frame { session: 1, record },
                )
                .expect("write");
                let mut cursor = &buf[..];
                match loa_serve::protocol::read_request(&mut cursor).expect("read") {
                    Some(Request::Frame { record, .. }) => {
                        let decoded = loa_ingest::decode_frame_record(&record).expect("decode");
                        acc += decoded.human_labels.len() + decoded.detections.len();
                    }
                    other => panic!("unexpected request: {other:?}"),
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Cold start: library file open → serving context built → session
/// OPENed → first FRAME scored, for each library wire format. This is
/// the latency a fleet pays every time an audit worker spins up; the
/// `.flcb` format exists to collapse its library-load component from a
/// fit-state reconstruction to a bulk copy.
fn bench_cold_start(c: &mut Criterion) {
    let app = App::MissingTracks;
    let train: Vec<_> = (0..2)
        .map(|i| scene_data(&format!("serve-cold-train-{i}"), 910 + i))
        .collect();
    let library = Learner { assembly: app.assembly() }
        .fit(&app.feature_set(), &train)
        .expect("fit");
    let scene = scene_data("serve-cold", 903);
    let first = scene.frames.first().expect("scene has frames").clone();

    let dir = std::env::temp_dir().join("fixy_bench_cold_start");
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let json_path = dir.join("library.json");
    let flcb_path = dir.join("library.flcb");
    std::fs::write(&json_path, serde_json::to_string(&library).expect("serialize"))
        .expect("write json library");
    fixy_core::flcb::write_library_file(&flcb_path, "missing-tracks", &library)
        .expect("write flcb library");

    let cold = |library: fixy_core::FeatureLibrary| -> usize {
        let ctx = ServeContext::new(app, library).expect("context");
        let mut svc = AuditService::new(&ctx, ServiceCfg::default());
        svc.open(0, &scene.id, scene.frame_dt).expect("open");
        svc.frame(0, first.clone()).expect("first frame scored");
        svc.close(0).expect("close").stats.frames as usize
    };
    let cold_json = || {
        let text = std::fs::read_to_string(&json_path).expect("read json library");
        let library: fixy_core::FeatureLibrary =
            serde_json::from_str(&text).expect("parse json library");
        cold(library)
    };
    let cold_flcb = || {
        let (_, library) =
            fixy_core::flcb::read_library_file(&flcb_path).expect("read flcb library");
        cold(library)
    };

    let mut group = c.benchmark_group("serving");
    group.sample_size(if smoke() { 3 } else { 10 });
    group.bench_function("cold_start_to_first_score_json", |b| {
        b.iter(|| black_box(cold_json()))
    });
    group.bench_function("cold_start_to_first_score_flcb", |b| {
        b.iter(|| black_box(cold_flcb()))
    });
    group.finish();

    // The binary path must win cold start outright (minimum-of-5 per
    // path to shrug off scheduler noise) — the shared context/session
    // cost is identical, so any loss means the flcb load regressed.
    let time_min = |f: &dyn Fn() -> usize| {
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                black_box(f());
                t.elapsed()
            })
            .min()
            .expect("nonempty")
    };
    let json_t = time_min(&cold_json);
    let flcb_t = time_min(&cold_flcb);
    assert!(
        flcb_t < json_t,
        "flcb cold start must beat JSON: flcb {flcb_t:?} vs json {json_t:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_interleaved_sessions,
    bench_session_churn,
    bench_wire_roundtrip,
    bench_cold_start
);
criterion_main!(benches);
