//! The traced run: the workload's inputs passed through each layer's
//! public functions from here, with a clock around every call.
//!
//! Nothing inside the program is instrumented; the only counters read
//! from it are `loa_obs`'s cache hits and misses. Each pass is timed as
//! a whole, and what its layer timers do not cover is reported as the
//! pass's unattributed remainder, so the layers and the remainder add
//! up to the pass's wall time.
//!
//! | pass | what it runs | metrics |
//! |---|---|---|
//! | batch | decode, assemble, compile, score, rank, per app and scene, one thread | `*_ms_per_scene` |
//! | pipeline | the same apps and scenes through `ScenePipeline` with two workers | `parallel_efficiency` |
//! | stream | `Session::push`'s steps (reorder, push, snapshot, rescore, sweep, rank) per frame | `*_us_per_frame` |
//! | service | the workload's traffic into an in-process `AuditService` through the wire codec | `loa_serve.service.*`, `loa_serve.protocol.*` |
//! | wire | the same traffic over TCP to `loa_serve::serve` | `transport_us_per_frame` |
//!
//! The batch and stream passes run every scene or session twice, clocks
//! on and off, in alternating order; the difference between the two is
//! the tracing overhead.

use crate::audit::{self, App};
use crate::batch;
use crate::inputs::{self, Reference};
use crate::live::{self, Send, Stop, Transport};
use crate::report::{median, Metrics, Tally};
use crate::setup::{self, Ready, SetupTimes};
use crate::spec::{Sizes, Workload};
use crate::{Measured, Res};
use fixy_core::prelude::*;
use fixy_core::score::ScoreEngine;
use fixy_core::{AssemblyEngine, FeatureSet, IncrementalScorer};
use loa_data::{Frame, SceneData};
use loa_ingest::{ReorderBuffer, ReorderOutcome, StreamingAssembler};
use loa_serve::protocol::{read_request, write_request};
use loa_serve::{AuditService, Request, ServiceCfg, SessionStats, Worklist};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// Run `f`, adding its wall time to `acc` when `on`.
fn timed<T>(on: bool, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// One row of a pass's time account.
struct Account {
    pass: &'static str,
    wall: f64,
    layers: Vec<(&'static str, f64)>,
}

impl Account {
    fn unattributed(&self) -> f64 {
        self.wall - self.layers.iter().map(|l| l.1).sum::<f64>()
    }

    fn print(&self) {
        eprintln!("traced {} pass: {:.4} s", self.pass, self.wall);
        for (name, s) in &self.layers {
            eprintln!("  {name:<44} {s:>10.4} s {:>6.1}%", 100.0 * s / self.wall);
        }
        let rest = self.unattributed();
        eprintln!(
            "  {:<44} {rest:>10.4} s {:>6.1}%",
            "unattributed",
            100.0 * rest / self.wall
        );
        let sum: f64 = self.layers.iter().map(|l| l.1).sum::<f64>() + rest;
        assert!(
            (sum - self.wall).abs() <= 1e-9 * self.wall.max(1.0),
            "layers + unattributed != wall"
        );
    }
}

#[derive(Debug, Default)]
struct BatchTimes {
    decode: f64,
    assemble: f64,
    compile: f64,
    score: f64,
    rank: f64,
    tracks: usize,
    candidates: usize,
}

/// Rank every scene with every app, one call per layer, on this thread:
/// each scene twice, clocks on and off, in alternating order. Returns the
/// layer times and the wall time of the clocked and the unclocked runs.
fn batch_pass(
    ready: &Ready,
    reference: &Reference,
    apps: &[App],
    paths: &[PathBuf],
    tally: &mut Tally,
) -> Res<(BatchTimes, f64, f64)> {
    let mut t = BatchTimes::default();
    let mut engine = AssemblyEngine::default();
    let mut walls = [0.0; 2];
    for &app in apps {
        let library = ready.library(app);
        let features = app.feature_set();
        engine.set_config(app.batch_assembly());
        for (i, (path, want)) in paths.iter().zip(reference.expected(app)).enumerate() {
            for on in [i % 2 == 0, i % 2 == 1] {
                let began = Instant::now();
                let data = timed(on, &mut t.decode, || setup::read_scene(path))?;
                let scene = timed(on, &mut t.assemble, || engine.assemble(&data));
                let (digest, len) = rank_layers(app, &scene, &features, library, on, &mut t)?;
                walls[usize::from(on)] += began.elapsed().as_secs_f64();
                if on {
                    t.candidates += len;
                    if app == App::MissingTracks {
                        t.tracks += scene.n_tracks();
                    }
                }
                tally.check(digest == want.digest && len == want.len, || {
                    format!(
                        "{} {}: traced worklist differs from the pipeline's",
                        app.name(),
                        data.id
                    )
                });
            }
        }
    }
    Ok((t, walls[1], walls[0]))
}

/// Compile, score and rank one scene as the app's `rank` does; returns
/// the worklist's digest and length.
fn rank_layers(
    app: App,
    scene: &Scene,
    features: &FeatureSet,
    library: &FeatureLibrary,
    on: bool,
    t: &mut BatchTimes,
) -> Res<(u64, usize)> {
    let engine = timed(on, &mut t.compile, || ScoreEngine::new(scene, features, library))
        .map_err(|e| format!("compile: {e}"))?;
    fn out<C: audit::Candidate>(cands: Vec<C>) -> (u64, usize) {
        (audit::digest(&cands), cands.len())
    }
    Ok(match app {
        App::MissingTracks | App::ModelErrors | App::LabelAudit => {
            let scores = timed(on, &mut t.score, || engine.score_all_tracks());
            out(timed(on, &mut t.rank, || match app {
                App::MissingTracks => MissingTrackFinder::default().rank_scored(scene, scores),
                App::ModelErrors => {
                    ModelErrorFinder::default().rank_scored(scene, scores, &BTreeSet::new())
                }
                _ => LabelAuditFinder::default().rank_scored(scene, scores),
            }))
        }
        App::MissingObs | App::BundleAudit => {
            let scores = timed(on, &mut t.score, || engine.score_all_bundles());
            out(timed(on, &mut t.rank, || match app {
                App::MissingObs => MissingObsFinder::default().rank_scored(scene, scores),
                _ => BundleAuditFinder.rank_scored(scene, scores),
            }))
        }
    })
}

#[derive(Debug, Default)]
struct StreamTimes {
    accept: f64,
    push: f64,
    snapshot: f64,
    rescore: f64,
    sweep: f64,
    rank: f64,
    /// Sweep and rank while the first and the last tenth of each
    /// session's frames were released.
    first_tenth: f64,
    last_tenth: f64,
    sent: u64,
    frames: u64,
    parked: u64,
    duplicates: u64,
    dirty: u64,
}

/// The engines one served missing-tracks session runs on, reused from
/// session to session as the service's pool reuses them.
struct Engines<'c> {
    assembler: StreamingAssembler,
    scorer: IncrementalScorer<'c>,
    reorder: ReorderBuffer,
    released: Vec<Frame>,
}

/// One session through `Session::push`'s steps: every sent frame into
/// the reorder buffer, every released frame pushed, snapshotted and
/// rescored, then one sweep and rank per push. Returns the final
/// worklist.
fn stream_session(
    e: &mut Engines,
    data: &SceneData,
    sends: &[Send],
    on: bool,
    t: &mut StreamTimes,
) -> Res<Vec<(String, f64)>> {
    e.assembler.begin(data.frame_dt);
    e.scorer.begin();
    e.reorder.begin();
    let mut scene = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
    let mut entries = Vec::new();
    let n = data.frames.len();
    let mut released = 0usize;
    for send in sends {
        let frame = data.frames[send.frame].clone();
        e.released.clear();
        let outcome = timed(on, &mut t.accept, || e.reorder.accept_into(frame, &mut e.released))
            .map_err(|err| format!("{}: {err}", data.id))?;
        t.sent += 1;
        match outcome {
            ReorderOutcome::Buffered => t.parked += 1,
            ReorderOutcome::DuplicateDropped => t.duplicates += 1,
            ReorderOutcome::Released(_) => {}
        }
        if e.released.is_empty() {
            continue;
        }
        for f in &e.released {
            timed(on, &mut t.push, || e.assembler.push_frame(f))
                .map_err(|err| format!("{}: {err}", data.id))?;
            timed(on, &mut t.snapshot, || e.assembler.update_snapshot(&mut scene))
                .map_err(|err| format!("{}: {err}", data.id))?;
            let delta = e.assembler.last_delta().ok_or("no delta after a push")?;
            t.dirty += timed(on, &mut t.rescore, || e.scorer.rescore_delta(&scene, delta)) as u64;
        }
        released += e.released.len();
        let (mut sweep, mut rank) = (0.0, 0.0);
        let scores = timed(on, &mut sweep, || e.scorer.score_all_tracks(&scene));
        entries = timed(on, &mut rank, || {
            audit::served_entries(&MissingTrackFinder::default().rank_scored(&scene, scores))
        });
        t.sweep += sweep;
        t.rank += rank;
        if released * 10 <= n {
            t.first_tenth += sweep + rank;
        } else if released * 10 > 9 * n {
            t.last_tenth += sweep + rank;
        }
    }
    t.frames += released as u64;
    if released != n || !e.reorder.take_stranded().is_empty() {
        return Err(format!("{}: {released} of {n} frames released", data.id));
    }
    Ok(entries)
}

/// Every session of a pass through [`stream_session`], twice, clocks on
/// and off in alternating order; `loa_obs` counts only the clocked runs.
/// Returns the layer times and the wall time of the clocked and the
/// unclocked runs.
fn stream_pass(
    ready: &Ready,
    scenes: &[SceneData],
    sessions: &[(usize, Vec<Send>)],
    expected: &[inputs::Expected],
    tally: &mut Tally,
) -> Res<(StreamTimes, f64, f64)> {
    let library = ready.library(App::MissingTracks);
    let features = App::MissingTracks.feature_set();
    let mut e = Engines {
        assembler: StreamingAssembler::new(AssemblyConfig::default()),
        scorer: IncrementalScorer::new(&features, library).map_err(|err| err.to_string())?,
        reorder: ReorderBuffer::new(ServiceCfg::default().window),
        released: Vec::new(),
    };
    let mut t = StreamTimes::default();
    let mut walls = [0.0; 2];
    loa_obs::reset();
    for (i, (scene, sends)) in sessions.iter().enumerate() {
        for on in [i % 2 == 0, i % 2 == 1] {
            if on {
                loa_obs::enable_metrics();
            }
            // The unclocked run's counts are dropped with `discarded`.
            let mut discarded = StreamTimes::default();
            let times = if on { &mut t } else { &mut discarded };
            let began = Instant::now();
            let entries = stream_session(&mut e, &scenes[*scene], sends, on, times);
            walls[usize::from(on)] += began.elapsed().as_secs_f64();
            loa_obs::disable_all();
            let entries = entries?;
            let want = expected[*scene];
            tally.check(
                audit::digest_entries(&entries) == want.served && entries.len() == want.len,
                || format!("{}: streamed worklist differs from batch rank", scenes[*scene].id),
            );
        }
    }
    Ok((t, walls[1], walls[0]))
}

#[derive(Debug, Default)]
struct ServiceTimes {
    codec: f64,
    frame: f64,
    open: f64,
    close: f64,
    frame_calls: u64,
    opens: u64,
    closes: u64,
    bytes: u64,
}

/// An in-process `AuditService` behind the wire codec: each `FRAME` is
/// encoded and decoded as the TCP path does, without the socket.
struct Local<'c> {
    service: AuditService<'c>,
    buf: Vec<u8>,
    t: ServiceTimes,
}

impl Transport for Local<'_> {
    fn open(&mut self, session: u32, scene_id: &str, frame_dt: f64) -> Res<()> {
        self.t.opens += 1;
        timed(true, &mut self.t.open, || {
            self.service.open(session, scene_id, frame_dt)
        })
        .map_err(|e| e.to_string())
    }

    fn frame(&mut self, session: u32, frame: &Frame) -> Res<()> {
        let t0 = Instant::now();
        self.buf.clear();
        let record = loa_ingest::encode_frame_record(frame);
        write_request(&mut self.buf, &Request::Frame { session, record })
            .map_err(|e| e.to_string())?;
        let Some(Request::Frame { session, record }) =
            read_request(&mut self.buf.as_slice()).map_err(|e| e.to_string())?
        else {
            return Err("FRAME did not decode as a FRAME".into());
        };
        let frame = loa_ingest::decode_frame_record(&record).map_err(|e| e.to_string())?;
        self.t.codec += t0.elapsed().as_secs_f64();
        self.t.bytes += self.buf.len() as u64;
        self.t.frame_calls += 1;
        timed(true, &mut self.t.frame, || self.service.frame(session, frame))
            .map_err(|e| e.to_string())
    }

    fn stats(&mut self, session: u32) -> Res<SessionStats> {
        self.service.stats(session).map_err(|e| e.to_string())
    }

    fn close(&mut self, session: u32) -> Res<Worklist> {
        self.t.closes += 1;
        timed(true, &mut self.t.close, || self.service.close(session)).map_err(|e| e.to_string())
    }
}

/// The workload's traffic through one transport, once.
fn drive(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    client: &mut impl Transport,
    scenes: &[SceneData],
    expected: &[inputs::Expected],
    tally: &mut Tally,
) -> Res<Measured> {
    match workload {
        Workload::SessionChurn => live::churn(
            client,
            seed,
            scenes,
            expected,
            sizes.concurrent,
            Stop::Units(sizes.traced_sessions),
            tally,
        ),
        _ => live::fleet(client, scenes, expected, sizes.concurrent, Stop::Units(1), tally),
    }
}

/// `total` per item, for `n` items.
fn per(total: f64, n: u64) -> f64 {
    total / n.max(1) as f64
}

/// The traced run of `workload` on `ready`; returns every per-layer
/// metric.
#[allow(clippy::too_many_arguments)]
pub fn run(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    ready: &Ready,
    reference: &Reference,
    paths: &[PathBuf],
    setups: &[SetupTimes],
    tally: &mut Tally,
) -> Res<Metrics> {
    let apps = inputs::apps(workload);
    let mut m = Metrics::default();

    // Batch: the decomposed sequential pass, then the two-worker
    // pipeline over the same scenes.
    let (bt, batch_wall, batch_off) = batch_pass(ready, reference, apps, paths, tally)?;
    let began = Instant::now();
    batch::pass(ready, reference, apps, paths, &mut Measured::default(), tally);
    let parallel_wall = began.elapsed().as_secs_f64();
    let batch = Account {
        pass: "batch",
        wall: batch_wall,
        layers: vec![
            ("loa_ingest.fscb.decode", bt.decode),
            ("fixy_core.scene.assemble", bt.assemble),
            ("fixy_core.compile.compile", bt.compile),
            ("fixy_core.score.score", bt.score),
            ("fixy_core.apps.rank", bt.rank),
        ],
    };
    let n = paths.len() as u64;
    for (name, s) in &batch.layers {
        m.add(format!("{name}_ms_per_scene"), per(s * 1e3, n), "ms");
    }
    m.add("fixy_core.scene.tracks_per_scene", per(bt.tracks as f64, n), "count");
    m.add(
        "fixy_core.apps.candidates_per_scene",
        per(bt.candidates as f64, n),
        "count",
    );
    m.add(
        "fixy_core.pipeline.parallel_efficiency",
        batch_wall / (2.0 * parallel_wall),
        "ratio",
    );
    m.add("unattributed_ms_per_scene", per(batch.unattributed() * 1e3, n), "ms");

    // Frames: the served scenes, and each session's sends.
    let scenes: Vec<SceneData> = paths.iter().map(|p| setup::read_scene(p)).collect::<Res<_>>()?;
    let in_order =
        |i: usize| (0..scenes[i].frames.len()).map(|frame| Send { frame, duplicate: false });
    let sessions: Vec<(usize, Vec<Send>)> = match workload {
        Workload::SessionChurn => (0..sizes.traced_sessions as u64)
            .map(|k| live::churn_session(seed, k, &scenes))
            .collect(),
        _ => (0..scenes.len()).map(|i| (i, in_order(i).collect())).collect(),
    };
    let expected = reference.expected(App::MissingTracks);
    let (st, stream_wall, stream_off) = stream_pass(ready, &scenes, &sessions, expected, tally)?;
    let obs = loa_obs::global();
    let (hits, misses) = (obs.cache_hits.get(), obs.cache_misses.get());
    let stream = Account {
        pass: "stream",
        wall: stream_wall,
        layers: vec![
            ("loa_ingest.reorder.accept", st.accept),
            ("loa_ingest.assembler.push", st.push),
            ("loa_ingest.assembler.snapshot", st.snapshot),
            ("fixy_core.incremental.rescore", st.rescore),
            ("fixy_core.incremental.sweep", st.sweep),
            ("fixy_core.apps.rank", st.rank),
        ],
    };
    let frames = st.frames;
    for (name, s) in &stream.layers {
        m.add(format!("{name}_us_per_frame"), per(s * 1e6, frames), "us");
    }
    m.add(
        "fixy_core.apps.rank_growth_ratio",
        st.last_tenth / st.first_tenth,
        "ratio",
    );
    m.add(
        "fixy_core.incremental.dirty_per_frame",
        per(st.dirty as f64, frames),
        "count",
    );
    m.add(
        "fixy_core.incremental.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.add(
        "loa_ingest.reorder.parked_share",
        per(st.parked as f64, st.sent),
        "ratio",
    );
    m.add(
        "loa_ingest.reorder.duplicate_share",
        per(st.duplicates as f64, st.sent),
        "ratio",
    );
    m.add(
        "unattributed_us_per_frame",
        per(stream.unattributed() * 1e6, frames),
        "us",
    );

    // Service: the workload's traffic, in process and then over TCP.
    let (ctx, _) = ready.serve.as_ref().ok_or("the traced run serves missing-tracks")?;
    let mut local = Local {
        service: AuditService::new(ctx, ServiceCfg::default()),
        buf: Vec::new(),
        t: ServiceTimes::default(),
    };
    let began = Instant::now();
    drive(workload, seed, sizes, &mut local, &scenes, expected, tally)?;
    let service_wall = began.elapsed().as_secs_f64();
    // As in the untraced run, client and handler share one CPU.
    live::pin_to_current_cpu()?;
    let wire_wall = live::with_server(ready, |addr| {
        let mut client = live::Client::connect(addr)?;
        let began = Instant::now();
        drive(workload, seed, sizes, &mut client, &scenes, expected, tally)?;
        Ok(began.elapsed().as_secs_f64())
    })?;
    let sv = &local.t;
    let service = Account {
        pass: "service",
        wall: service_wall,
        layers: vec![
            ("loa_serve.protocol.codec", sv.codec),
            ("loa_serve.service.frame", sv.frame),
            ("loa_serve.service.open", sv.open),
            ("loa_serve.service.close", sv.close),
        ],
    };
    // Every frame of every session, once, in both passes.
    let served_frames: u64 = match workload {
        Workload::SessionChurn => frames,
        _ => scenes.iter().map(|s| s.frames.len() as u64).sum(),
    };
    m.add(
        "loa_serve.service.frame_us",
        per(sv.frame * 1e6, sv.frame_calls),
        "us",
    );
    m.add(
        "loa_serve.server.transport_us_per_frame",
        per((wire_wall - service_wall) * 1e6, served_frames),
        "us",
    );
    m.add(
        "loa_serve.protocol.codec_us_per_frame",
        per(sv.codec * 1e6, served_frames),
        "us",
    );
    m.add(
        "loa_serve.protocol.bytes_per_frame",
        per(sv.bytes as f64, served_frames),
        "bytes",
    );
    m.add("loa_serve.service.open_us", per(sv.open * 1e6, sv.opens), "us");
    m.add("loa_serve.service.close_us", per(sv.close * 1e6, sv.closes), "us");
    m.add(
        "loa_serve.service.engines_built",
        local.service.engines_built() as f64,
        "count",
    );

    // Set-up, as the median over the run's set-ups.
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
    m.add("loa_ingest.fscb.train_decode_ms", med(|s| s.decode), "ms");
    m.add("fixy_core.scene.train_assemble_ms", med(|s| s.assemble), "ms");
    m.add("fixy_core.learner.fit_ms", med(|s| s.fit), "ms");
    m.add("fixy_core.flcb.roundtrip_ms", med(|s| s.flcb), "ms");

    for account in [&batch, &stream, &service] {
        account.print();
    }
    eprintln!(
        "unattributed share: batch {:.1}%, stream {:.1}%, service {:.1}%",
        100.0 * batch.unattributed() / batch.wall,
        100.0 * stream.unattributed() / stream.wall,
        100.0 * service.unattributed() / service.wall
    );
    eprintln!(
        "tracing overhead (traced ÷ untraced wall − 1): batch {:+.1}%, stream {:+.1}% (the stream pass also counts loa_obs cache hits)",
        100.0 * (batch_wall / batch_off - 1.0),
        100.0 * (stream_wall / stream_off - 1.0)
    );
    eprintln!(
        "wire pass {wire_wall:.4} s vs in-process service pass {service_wall:.4} s over {served_frames} frames; two-worker pipeline {parallel_wall:.4} s"
    );
    Ok(m)
}
