//! Serving conformance: the resident session layer must be invisible in
//! the results.
//!
//! The contract under test is **delivery independence**: a session's
//! final worklist is byte-identical (labels and f64 score bits) whether
//! its frames arrived in order, shuffled within the reorder window,
//! duplicated, or interleaved with other sessions — across every
//! registry app (covering all three `AssemblyConfig` presets) and both the
//! in-process `AuditService` and the TCP wire path. Beyond-window and
//! over-budget frames must be rejected *recoverably*: counted in stats,
//! session and connection fully usable afterwards. Worklists are ranked
//! on read: a frame only assembles and rescores, and `peek`/`close`
//! rank once after new frames.

use fixy::core::apps::App;
use fixy::core::rank::Candidate;
use fixy::core::{FeatureLibrary, Learner, Scene};
use fixy::data::{ScenarioFuzzer, SceneData};
use fixy::obs::Stage;
use fixy::serve::{
    serve, AuditService, FeedClient, ServeContext, ServeError, ServiceCfg, Worklist,
};
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::OnceLock;

/// The library an app's context serves (fitting is deterministic).
fn fit(app: App) -> FeatureLibrary {
    let train = ScenarioFuzzer::new(41).training_corpus(2);
    Learner { assembly: app.assembly() }
        .fit(&app.feature_set(), &train)
        .expect("fit")
}

/// One fitted context per app (fitting is the expensive part; done once
/// per process). The five apps cover all three assembly presets.
fn contexts() -> &'static [ServeContext; 5] {
    static CTXS: OnceLock<[ServeContext; 5]> = OnceLock::new();
    CTXS.get_or_init(|| App::ALL.map(|app| ServeContext::new(app, fit(app)).expect("context")))
}

/// SplitMix64 — deterministic jitter for the bounded shuffles below.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Delivery order where no frame lands more than `late` positions from
/// its index (stable sort by `index + jitter`, jitter in `0..=late`) —
/// guaranteed inside any reorder window above `late`.
fn delivery_order(n: usize, late: u32, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut keyed: Vec<(u64, usize)> = (0..n)
        .map(|i| (i as u64 + splitmix64(&mut state) % (u64::from(late) + 1), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Feed one whole scene in index order through a fresh service; the
/// reference every delivery permutation must reproduce.
fn in_order_worklist(ctx: &ServeContext, data: &SceneData, cfg: ServiceCfg) -> Worklist {
    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).expect("open");
    for frame in &data.frames {
        svc.frame(0, frame.clone()).expect("frame");
    }
    svc.close(0).expect("close")
}

/// Labels and f64 score bits, rank by rank.
fn assert_same_list(got: &[(String, f64)], want: &[(String, f64)], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: worklist length");
    for (i, ((gl, gs), (wl, ws))) in got.iter().zip(want).enumerate() {
        assert_eq!(gl, wl, "{ctx}: label at rank {i}");
        assert_eq!(gs.to_bits(), ws.to_bits(), "{ctx}: score bits at rank {i} ({gl})");
    }
}

fn assert_same_entries(got: &Worklist, want: &Worklist, ctx: &str) {
    assert_same_list(&got.entries, &want.entries, ctx);
    assert_eq!(
        got.render_final(10),
        want.render_final(10),
        "{ctx}: rendered final-worklist block"
    );
}

/// Batch `rank` of one app on one scene, labelled the way the service
/// labels its worklist entries.
fn batch_entries(app: App, library: &FeatureLibrary, scene: &Scene) -> Vec<(String, f64)> {
    let ranked = app.rank(scene, library).unwrap();
    ranked
        .into_iter()
        .map(|c| match c {
            Candidate::Track(c) => (c.class.to_string(), c.score),
            Candidate::Bundle(c) => (
                format!("frame {} {}", scene.bundle(c.bundle).frame.0, c.class),
                c.score,
            ),
        })
        .collect()
}

/// `Stage::Rank` spans this thread completed since the last call.
fn rank_spans() -> usize {
    fixy::obs::drain_thread_spans()
        .iter()
        .filter(|r| r.stage == Stage::Rank)
        .count()
}

/// The rank-on-read contract, for every app: a frame with no read ranks
/// nothing; `peek` after frame k equals batch `rank` of the k+1-frame
/// prefix byte for byte and ranks once; a second `peek` with no new
/// frames does not rank again; a `close` after `peek` returns the same
/// entries without ranking, and a `close` with frames unread ranks once.
#[test]
fn worklists_rank_on_read_and_equal_batch_rank_of_the_prefix() {
    // Span capture is per thread, so other tests cannot add to the count.
    fixy::obs::enable_spans();
    for ctx in contexts() {
        let data = ScenarioFuzzer::new(21).scene(0);
        let n = data.frames.len();
        let name = ctx.app().name();
        let library = fit(ctx.app());
        let mut svc = AuditService::new(ctx, ServiceCfg::default());
        svc.open(0, &data.id, data.frame_dt).unwrap();
        svc.open(1, &data.id, data.frame_dt).unwrap();
        let mut peeked = Vec::new();
        let mut nonempty_reads = 0;
        for (k, frame) in data.frames.iter().enumerate() {
            rank_spans();
            svc.frame(0, frame.clone()).unwrap();
            svc.frame(1, frame.clone()).unwrap();
            assert_eq!(rank_spans(), 0, "{name} frame {k}: a frame with no read ranked");
            // Leave some frames unread, so reads also follow runs of frames.
            if k % 3 == 1 && k + 1 < n {
                continue;
            }
            peeked = svc.peek(0).unwrap().to_vec();
            assert_eq!(rank_spans(), 1, "{name} frame {k}: peek ranks once");
            let prefix = SceneData { frames: data.frames[..=k].to_vec(), ..data.clone() };
            let prefix = Scene::assemble(&prefix, &ctx.app().assembly());
            let want = batch_entries(ctx.app(), &library, &prefix);
            assert_same_list(&peeked, &want, &format!("{name} peek after frame {k}"));
            nonempty_reads += usize::from(!peeked.is_empty());
            let again = svc.peek(0).unwrap().to_vec();
            assert_eq!(rank_spans(), 0, "{name} frame {k}: a second peek ranked again");
            assert_same_list(&again, &peeked, &format!("{name} second peek after frame {k}"));
        }
        assert!(nonempty_reads > 0, "{name}: every read was empty");
        let closed = svc.close(0).unwrap();
        assert_eq!(rank_spans(), 0, "{name}: close after peek ranked again");
        assert_same_list(&closed.entries, &peeked, &format!("{name} close after peek"));
        let unread = svc.close(1).unwrap();
        assert_eq!(rank_spans(), 1, "{name}: close with unread frames ranks once");
        assert_same_list(&unread.entries, &peeked, &format!("{name} close without peek"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    // The tentpole contract: a bounded shuffle plus duplicates inside
    // the window leaves the final worklist byte-identical to in-order
    // delivery, for every app (all three assembly presets).
    #[test]
    fn prop_shuffled_delivery_matches_in_order(
        seed in 0u64..200,
        index in 0u64..40,
        late in 1u32..6,
        dup_every in 2usize..5,
    ) {
        let cfg = ServiceCfg { window: late + 1, ..ServiceCfg::default() };
        for ctx in contexts() {
            let data = ScenarioFuzzer::new(seed).scene(index);
            let want = in_order_worklist(ctx, &data, cfg);

            let mut svc = AuditService::new(ctx, cfg);
            svc.open(7, &data.id, data.frame_dt).expect("open");
            let order = delivery_order(data.frames.len(), late, seed ^ index);
            let mut dups = 0u64;
            for (k, &pos) in order.iter().enumerate() {
                svc.frame(7, data.frames[pos].clone()).expect("frame");
                if (k + 1) % dup_every == 0 {
                    svc.frame(7, data.frames[pos].clone()).expect("dup frame");
                    dups += 1;
                }
            }
            let got = svc.close(7).expect("close");

            let tag = format!("{} seed {seed} scene {index} late {late}", ctx.app().name());
            assert_eq!(got.stats.frames, data.frames.len() as u64, "{tag}: frames");
            assert_eq!(got.stats.duplicates_dropped, dups, "{tag}: dups");
            assert_eq!(got.stats.rejected, 0, "{tag}: rejected");
            assert_eq!(got.stats.stranded, 0, "{tag}: stranded");
            assert_same_entries(&got, &want, &tag);
        }
    }
}

/// A frame beyond the reorder window is rejected recoverably: counted,
/// first message kept, and the session still converges to the in-order
/// worklist once the frame is re-sent inside the window.
#[test]
fn beyond_window_rejection_does_not_poison_the_session() {
    let ctx = &contexts()[0];
    let data = ScenarioFuzzer::new(9).scene(1);
    assert!(data.frames.len() > 8, "need enough frames");
    let cfg = ServiceCfg { window: 3, ..ServiceCfg::default() };
    let want = in_order_worklist(ctx, &data, cfg);

    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).unwrap();
    svc.frame(0, data.frames[0].clone()).unwrap();
    // Watermark 1, window 3: index 6 is far beyond — absorbed, counted.
    svc.frame(0, data.frames[6].clone()).unwrap();
    svc.peek(0).expect("session stays open after a recoverable reject");
    for frame in &data.frames[1..6] {
        svc.frame(0, frame.clone()).unwrap();
    }
    // Watermark 6 now: the rejected frame fits the window on re-send.
    for frame in &data.frames[6..] {
        svc.frame(0, frame.clone()).unwrap();
    }
    let got = svc.close(0).unwrap();
    assert_eq!(got.stats.rejected, 1);
    let first = got.stats.first_reject.as_deref().expect("first reject kept");
    assert!(first.contains("reorder window"), "unexpected message: {first}");
    assert_eq!(got.stats.frames, data.frames.len() as u64);
    assert_same_entries(&got, &want, "beyond-window recovery");
}

/// The per-session frame budget is enforced recoverably, and frames
/// stranded in the buffer at close are reported.
#[test]
fn frame_budget_and_stranded_frames_are_reported() {
    let ctx = &contexts()[0];
    let data = ScenarioFuzzer::new(12).scene(2);
    let n = data.frames.len();
    assert!(n > 4);

    // Budget: only the first 3 indexes are admitted; the rest count as
    // rejected but never kill the session.
    let cfg = ServiceCfg { window: 8, max_frames: 3, ..ServiceCfg::default() };
    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).unwrap();
    for frame in &data.frames {
        svc.frame(0, frame.clone()).unwrap();
    }
    let got = svc.close(0).unwrap();
    assert_eq!(got.stats.frames, 3);
    assert_eq!(got.stats.rejected, (n - 3) as u64);
    assert!(got.stats.first_reject.unwrap().contains("frame budget"));

    // Stranded: deliver a gap (skip frame 0), close with frames parked.
    let cfg = ServiceCfg { window: 8, ..ServiceCfg::default() };
    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).unwrap();
    for frame in &data.frames[1..4] {
        svc.frame(0, frame.clone()).unwrap();
    }
    let got = svc.close(0).unwrap();
    assert_eq!(got.stats.frames, 0, "nothing released without frame 0");
    assert_eq!(got.stats.stranded, 3);
    assert!(got.entries.is_empty());
}

/// Session bookkeeping: id collisions, the session cap, unknown ids —
/// and engine pooling across churn (closes feed reopens; no rebuilds).
#[test]
fn session_table_limits_and_engine_pooling() {
    let ctx = &contexts()[0];
    let data = ScenarioFuzzer::new(5).scene(0);
    let cfg = ServiceCfg { max_sessions: 2, ..ServiceCfg::default() };
    let mut svc = AuditService::new(ctx, cfg);

    svc.open(1, "a", data.frame_dt).unwrap();
    assert!(matches!(
        svc.open(1, "a2", data.frame_dt),
        Err(ServeError::SessionExists(1))
    ));
    svc.open(2, "b", data.frame_dt).unwrap();
    assert!(matches!(
        svc.open(3, "c", data.frame_dt),
        Err(ServeError::SessionLimit { max: 2 })
    ));
    assert!(matches!(
        svc.frame(9, data.frames[0].clone()),
        Err(ServeError::UnknownSession(9))
    ));
    assert!(matches!(svc.close(9), Err(ServeError::UnknownSession(9))));
    assert_eq!(svc.engines_built(), 2);

    // Churn: close both, open-feed-close many more; the pool absorbs
    // every reopen, so no further engine builds.
    svc.close(1).unwrap();
    svc.close(2).unwrap();
    for round in 0..6u32 {
        svc.open(round, &format!("s{round}"), data.frame_dt).unwrap();
        for frame in &data.frames {
            svc.frame(round, frame.clone()).unwrap();
        }
        svc.close(round).unwrap();
    }
    assert_eq!(svc.engines_built(), 2, "pool must absorb session churn");
    assert_eq!(svc.sessions_served(), 8);
    assert_eq!(svc.open_sessions(), 0);
}

/// End-to-end over TCP: two sessions interleaved on one connection, one
/// delivered in order and one shuffled-with-duplicates inside the
/// window; both final worklists match in-order in-process references,
/// and shutdown stops the server cleanly.
#[test]
fn tcp_round_trip_interleaved_sessions_and_shutdown() {
    let ctx = &contexts()[1]; // MissingObs: bundle labels exercise the wire format
    let cfg = ServiceCfg { window: 4, ..ServiceCfg::default() };
    let a = ScenarioFuzzer::new(21).scene(0);
    let b = ScenarioFuzzer::new(22).scene(1);
    let want_a = in_order_worklist(ctx, &a, cfg);
    let want_b = in_order_worklist(ctx, &b, cfg);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve(listener, &contexts()[1], cfg));

    let mut client = FeedClient::connect(addr).expect("connect");
    client.open(10, &a.id, a.frame_dt).unwrap();
    client.open(20, &b.id, b.frame_dt).unwrap();

    let order_b = delivery_order(b.frames.len(), 3, 77);
    let rounds = a.frames.len().max(order_b.len());
    for k in 0..rounds {
        if let Some(frame) = a.frames.get(k) {
            client.frame(10, frame).unwrap();
        }
        if let Some(&pos) = order_b.get(k) {
            client.frame(20, &b.frames[pos]).unwrap();
            if k % 3 == 0 {
                client.frame(20, &b.frames[pos]).unwrap(); // immediate duplicate
            }
        }
    }
    let got_a = client.close_session(10).unwrap();
    let got_b = client.close_session(20).unwrap();
    assert_eq!(got_a.scene_id, a.id);
    assert_eq!(got_b.scene_id, b.id);
    assert_same_entries(&got_a, &want_a, "tcp session A (in order)");
    assert_same_entries(&got_b, &want_b, "tcp session B (shuffled)");
    assert_eq!(got_b.stats.frames, b.frames.len() as u64);
    assert!(got_b.stats.duplicates_dropped > 0);
    assert_eq!(got_b.stats.rejected, 0);

    client.shutdown().expect("shutdown handshake");
    let summary = server.join().expect("server thread").expect("serve result");
    assert_eq!(summary.sessions, 2);
    assert_eq!(summary.frames as usize, {
        let dups = (0..order_b.len()).filter(|k| k % 3 == 0).count();
        a.frames.len() + order_b.len() + dups
    });
    assert!(summary.connections >= 1);
}

/// Mid-session stats surface the reorder buffer's live state: frames
/// parked behind a gap are visible *before* the watermark releases
/// them, and the parked count drains to zero once the gap fills.
#[test]
fn mid_session_stats_surface_parked_frames_before_release() {
    let ctx = &contexts()[0];
    let data = ScenarioFuzzer::new(31).scene(3);
    assert!(data.frames.len() > 4);
    let cfg = ServiceCfg { window: 8, ..ServiceCfg::default() };
    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).unwrap();

    svc.frame(0, data.frames[0].clone()).unwrap();
    // Skip frame 1: frames 2 and 3 park behind the gap.
    svc.frame(0, data.frames[2].clone()).unwrap();
    svc.frame(0, data.frames[3].clone()).unwrap();
    let mid = svc.stats(0).expect("stats on live session");
    assert_eq!(mid.frames, 1, "only frame 0 released");
    assert_eq!(mid.parked, 2, "frames 2 and 3 parked behind the gap");
    assert_eq!(mid.stranded, 0, "stranded is a close-time count");

    // Fill the gap: the watermark run releases 1, 2, 3 at once.
    svc.frame(0, data.frames[1].clone()).unwrap();
    let after = svc.stats(0).unwrap();
    assert_eq!(after.frames, 4);
    assert_eq!(after.parked, 0, "buffer drained after the release run");
    assert_eq!(after.reordered, 2, "frames 2 and 3 were released late");

    assert!(matches!(svc.stats(9), Err(ServeError::UnknownSession(9))));
    svc.close(0).unwrap();
}

/// The `STATS` round trip over real TCP: because the server answers
/// requests in receive order, the reply is a barrier over the
/// fire-and-forget frames sent before it — a mid-session snapshot sees
/// the parked frames deterministically.
#[test]
fn tcp_stats_round_trip_sees_parked_frames_mid_session() {
    let cfg = ServiceCfg { window: 8, ..ServiceCfg::default() };
    let data = ScenarioFuzzer::new(33).scene(1);
    assert!(data.frames.len() > 4);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve(listener, &contexts()[2], cfg));

    let mut client = FeedClient::connect(addr).expect("connect");
    client.open(7, &data.id, data.frame_dt).unwrap();
    client.frame(7, &data.frames[0]).unwrap();
    client.frame(7, &data.frames[2]).unwrap();
    client.frame(7, &data.frames[3]).unwrap();
    let mid = client.stats(7).expect("mid-session STATS");
    assert_eq!(mid.frames, 1);
    assert_eq!(mid.parked, 2, "STATS must reflect parked frames before release");

    client.frame(7, &data.frames[1]).unwrap();
    for frame in &data.frames[4..] {
        client.frame(7, frame).unwrap();
    }
    let full = client.stats(7).unwrap();
    assert_eq!(full.frames, data.frames.len() as u64);
    assert_eq!(full.parked, 0);
    assert_eq!(full.reordered, 2);

    let worklist = client.close_session(7).unwrap();
    assert_eq!(worklist.stats.frames, data.frames.len() as u64);
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("serve result");
}

/// The scrape endpoint answers plain HTTP with well-formed Prometheus
/// exposition text rendered from the global registry.
#[test]
fn metrics_endpoint_serves_prometheus_text() {
    use std::io::{Read as _, Write as _};
    let addr = fixy::serve::serve_metrics("127.0.0.1:0").expect("bind metrics");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();

    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "status line: {response}");
    assert!(response.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("# TYPE loa_frames_total counter"));
    assert!(body.contains("# TYPE loa_frame_latency_us histogram"));
    assert!(body.contains("loa_frame_latency_us_bucket{le=\"+Inf\"}"));
    // Every non-comment line must parse as `name[{labels}] value`.
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let value = line.rsplit(' ').next().expect("value field");
        assert!(value.parse::<f64>().is_ok(), "unparseable sample line: {line}");
    }
}

/// Opening against a library fitted for a different app fails up front.
#[test]
fn context_rejects_mismatched_library() {
    let train = ScenarioFuzzer::new(41).training_corpus(1);
    let library = Learner { assembly: App::MissingTracks.assembly() }
        .fit(&App::MissingTracks.feature_set(), &train)
        .unwrap();
    // MissingTracks' library has no yaw-rate entry, which the
    // model-errors feature set requires.
    let err = ServeContext::new(App::ModelErrors, library);
    assert!(err.is_err(), "mismatched library must fail at context build");
}
