//! Command implementations.

use crate::args::{
    ConvertArgs, FeedArgs, FuzzArgs, GenerateArgs, LearnArgs, RankArgs, RenderArgs, ServeArgs,
    StreamArgs,
};
use crate::CliError;
use fixy_core::prelude::*;
use loa_data::SceneData;
use loa_ingest::{CorpusSource, StreamingAssembler};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The on-disk library format: the fitted distributions tagged with the
/// application they were fitted for, so `rank` can detect mismatches.
/// This is the v1 JSON wire shape; the `.flcb` binary format carries the
/// same app tag in its header.
#[derive(Debug, Serialize, Deserialize)]
pub struct LibraryFile {
    pub app: String,
    pub library: FeatureLibrary,
}

/// Load a library file in either wire format, auto-detected the same way
/// scenes are sniffed: `.flcb` extension dispatches to the binary codec,
/// anything else is checked for the `FLCB` magic bytes (so extensionless
/// or misnamed binary files still open) and otherwise parsed as v1 JSON.
pub fn load_library_file(path: &std::path::Path) -> Result<LibraryFile, CliError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CliError::Invalid(format!("cannot read library {}: {e}", path.display())))?;
    if has_flcb_extension(path) || bytes.starts_with(&fixy_core::flcb::FLCB_MAGIC) {
        let (app, library) = fixy_core::flcb::decode_library(&bytes)?;
        Ok(LibraryFile { app, library })
    } else {
        let text = String::from_utf8(bytes).map_err(|_| {
            CliError::Invalid(format!("library {} is not UTF-8 JSON", path.display()))
        })?;
        Ok(serde_json::from_str(&text)?)
    }
}

/// Whether `path` names a `.flcb` binary library.
fn has_flcb_extension(path: &std::path::Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some(fixy_core::flcb::FLCB_EXTENSION)
}

/// Load a library and reject it if it was fitted for a different app.
fn load_library_for(path: &std::path::Path, app: App) -> Result<FeatureLibrary, CliError> {
    let file = load_library_file(path)?;
    if file.app != app.name() {
        return Err(CliError::Invalid(format!(
            "library was fitted for app '{}', but --app is '{}'",
            file.app,
            app.name()
        )));
    }
    Ok(file.library)
}

/// `fixy generate`: write `scenes` JSON scene files into `out`.
pub fn generate(args: GenerateArgs) -> Result<String, CliError> {
    let mut cfg = args.profile.scene_config();
    if let Some(duration) = args.duration {
        if !(duration.is_finite() && duration > 0.0) {
            return Err(CliError::Invalid(format!(
                "--duration must be positive, got {duration}"
            )));
        }
        cfg.world.duration = duration;
    }
    let scenes: Vec<SceneData> = (0..args.scenes)
        .map(|i| {
            let seed = args.seed + i as u64;
            loa_data::generate_scene(
                &cfg,
                &format!("{}-{:03}-s{}", args.profile.name(), i, seed),
                seed,
            )
        })
        .collect();
    let paths = loa_data::io::save_dataset(&scenes, &args.out)?;
    let mut out = String::new();
    for (scene, path) in scenes.iter().zip(&paths) {
        let _ = writeln!(
            out,
            "{}: {} frames, {} label errors, {} ghost tracks",
            path.display(),
            scene.frame_count(),
            scene.injected.label_error_count(),
            scene.injected.ghost_tracks.len()
        );
    }
    let _ = writeln!(out, "wrote {} scene(s) to {}", scenes.len(), args.out.display());
    Ok(out)
}

/// `fixy learn`: fit the app's feature distributions over a scene
/// directory and write the library file — `.flcb` when `--out` has that
/// extension, JSON otherwise.
pub fn learn(args: LearnArgs) -> Result<String, CliError> {
    // Learning needs every training scene at once (distribution fitting
    // is a whole-corpus operation), so the shared corpus walk buffers.
    let scenes = CorpusSource::open(&args.data)?.load_all()?;
    let library = args.app.fit(&scenes)?;
    let distributions = library.len();
    let flcb = has_flcb_extension(&args.out);
    if flcb {
        fixy_core::flcb::write_library_file(&args.out, args.app.name(), &library)?;
    } else {
        let file = LibraryFile { app: args.app.name().to_string(), library };
        std::fs::write(&args.out, serde_json::to_string_pretty(&file)?)?;
    }
    Ok(format!(
        "fitted {distributions} distribution(s) from {} scene(s) → {}{}\n",
        scenes.len(),
        args.out.display(),
        if flcb { " (flcb)" } else { "" }
    ))
}

/// `fixy fuzz`: the injection-recall conformance harness. A seeded
/// fuzzed corpus with known typed errors is ranked through the scene
/// pipeline per error kind; every injected error must appear in the
/// top-k of its scene's worklist. Anything less is an error (non-zero
/// exit) whose message pins the failing seed for exact reproduction.
pub fn fuzz(args: FuzzArgs) -> Result<String, CliError> {
    let config = loa_eval::InjectionRecallConfig {
        seed: args.seed,
        n_scenes: args.scenes,
        top_k: args.top_k,
        n_train: args.train.max(1),
    };
    let corpus = args.corpus_dir.map(|dir| loa_eval::CorpusMaterialization {
        dir,
        format: if args.json { loa_eval::CorpusFormat::Json } else { loa_eval::CorpusFormat::Fscb },
    });
    let result = loa_eval::run_injection_recall_with_corpus(&config, corpus.as_ref())?;
    let mut report = result.report();
    if let Some(m) = &corpus {
        let _ = writeln!(
            report,
            "corpus materialized: {} scene(s) as .{} in {}",
            config.n_scenes,
            if m.format == loa_eval::CorpusFormat::Json { "json" } else { "fscb" },
            m.dir.display()
        );
    }
    if result.is_perfect() {
        Ok(report)
    } else {
        Err(CliError::Invalid(report))
    }
}

/// One scene's rendered slice of a batch worklist: everything the final
/// printer needs, extracted inside the streaming worker so the scene
/// itself (raw frames, assembled structure) is dropped before the next
/// one loads.
struct SceneChunk {
    id: String,
    index: usize,
    body: String,
    candidates: usize,
}

/// Order chunks by scene id, then input index (the tiebreak for
/// duplicate ids), and stitch the worklist together: the one place the
/// batch worklist's merge order is defined. The pipeline itself returns
/// scenes in input order.
fn render_chunks(header: &str, mut chunks: Vec<SceneChunk>, n_scenes: usize) -> String {
    chunks.sort_by(|a, b| a.id.cmp(&b.id).then(a.index.cmp(&b.index)));
    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    let mut total = 0usize;
    for chunk in &chunks {
        total += chunk.candidates;
        out.push_str(&chunk.body);
    }
    let _ = writeln!(out, "{total} candidate(s) across {n_scenes} scene(s)");
    out
}

/// The worklist's column header: track apps print size and confidence,
/// bundle apps the frame, and `--grade` adds the hit column.
fn worklist_header(app: App, graded: bool) -> String {
    if app.ranks_bundles() {
        format!(
            "rank  frame  class        score{}",
            if graded { "    hit" } else { "" }
        )
    } else {
        format!(
            "rank  class        score    #obs  conf   {}",
            if graded { "hit" } else { "" }
        )
    }
}

/// Write the top `top` candidates of one scene as worklist rows, each
/// prefixed with the scene id in batch mode; `grade` adds whether each
/// is a true error of that app's kind.
fn write_rows(
    out: &mut String,
    scene_id: Option<&str>,
    data: &SceneData,
    scene: &Scene,
    ranked: &[Candidate],
    top: usize,
    grade: Option<App>,
) {
    for (i, candidate) in ranked.iter().take(top).enumerate() {
        if let Some(id) = scene_id {
            let _ = write!(out, "{id:<30} ");
        }
        let hit = match grade {
            Some(app) if loa_eval::resolve::is_hit(app, data, scene, candidate) => "YES",
            Some(_) => "no",
            None => "",
        };
        let _ = match candidate {
            Candidate::Track(c) => writeln!(
                out,
                "{:<5} {:<12} {:<8.3} {:<5} {:<6} {}",
                i + 1,
                c.class.to_string(),
                c.score,
                c.n_obs,
                c.mean_confidence
                    .map(|x| format!("{x:.2}"))
                    .unwrap_or_else(|| "-".into()),
                hit
            ),
            Candidate::Bundle(c) => {
                let frame = scene.bundle(c.bundle).frame.0;
                let class = c.class.to_string();
                if grade.is_some() {
                    writeln!(out, "{:<5} {frame:<6} {class:<12} {:<8.3} {hit}", i + 1, c.score)
                } else {
                    writeln!(out, "{:<5} {frame:<6} {class:<12} {:.3}", i + 1, c.score)
                }
            }
        };
    }
}

/// `fixy rank` in batch mode: stream every scene in a directory (`.json`
/// or `.fscb`) through the bounded scene pipeline and print one merged
/// worklist (stable by scene id, then per-scene rank). At most
/// O(workers) scenes are in memory at any moment — the worklist is
/// byte-identical to the old buffered path (locked by `tests/ingest.rs`).
fn rank_batch(args: &RankArgs, library: &FeatureLibrary) -> Result<String, CliError> {
    let source = CorpusSource::open(&args.scene)?;
    let n_scenes = source.len();
    // Workers pull paths (cheap tokens) and decode scenes themselves, so
    // load cost parallelizes with ranking.
    let paths = source.into_paths();
    let load = |p: std::path::PathBuf| loa_ingest::load_scene_auto(&p);
    let chunks = ScenePipeline::new(args.app).process_stream(library, paths, load, |r| {
        let mut body = String::new();
        write_rows(
            &mut body,
            Some(&r.id),
            &r.data,
            &r.scene,
            &r.candidates,
            args.top,
            args.grade.then_some(args.app),
        );
        SceneChunk {
            id: r.id,
            index: r.index,
            body,
            candidates: r.candidates.len(),
        }
    })?;
    let header = format!("{:<30} {}", "scene", worklist_header(args.app, args.grade));
    Ok(render_chunks(&header, chunks, n_scenes))
}

/// `fixy rank`: rank one scene's candidates (or, given a directory, a
/// whole batch via the scene pipeline) and print the worklist.
pub fn rank(args: RankArgs) -> Result<String, CliError> {
    let library = load_library_for(&args.library, args.app)?;
    if args.scene.is_dir() {
        return rank_batch(&args, &library);
    }
    let data = loa_ingest::load_scene_auto(&args.scene)?;
    let scene = Scene::assemble(&data, &args.app.assembly());
    let ranked = args.app.rank(&scene, &library)?;

    let mut out = String::new();
    let _ = writeln!(out, "{}", worklist_header(args.app, args.grade));
    let grade = args.grade.then_some(args.app);
    write_rows(&mut out, None, &data, &scene, &ranked, args.top, grade);
    let excluded = args.app.pre_excluded(&scene).map(|excluded| {
        format!(" ({} observations excluded by ad-hoc assertions)", excluded.len())
    });
    let _ = writeln!(
        out,
        "{} candidate(s) total{}",
        ranked.len(),
        excluded.unwrap_or_default()
    );
    Ok(out)
}

/// `fixy convert`: either rewrite every scene JSON in a directory as
/// `.fscb` (`--data`), or migrate one library file to the opposite wire
/// format (`--library`).
pub fn convert(args: ConvertArgs) -> Result<String, CliError> {
    match (args.data, args.library) {
        (Some(data), None) => {
            let out = args.out.ok_or_else(|| {
                CliError::Invalid("convert --data requires --out <DIR>".to_string())
            })?;
            convert_corpus(&data, &out)
        }
        (None, Some(library)) => convert_library(&library, args.out),
        // The parser enforces exactly-one; this is the direct-call guard.
        _ => Err(CliError::Invalid(
            "convert requires exactly one of --data or --library".to_string(),
        )),
    }
}

/// Migrate one library file: JSON becomes `.flcb`, `.flcb` becomes JSON.
/// The default output path swaps the extension.
fn convert_library(
    path: &std::path::Path,
    out: Option<std::path::PathBuf>,
) -> Result<String, CliError> {
    let file = load_library_file(path)?;
    let was_flcb = std::fs::read(path)?.starts_with(&fixy_core::flcb::FLCB_MAGIC);
    let dest = out.unwrap_or_else(|| {
        path.with_extension(if was_flcb { "json" } else { fixy_core::flcb::FLCB_EXTENSION })
    });
    if dest == path {
        return Err(CliError::Invalid(format!(
            "refusing to overwrite the input library {} — pass a different --out",
            path.display()
        )));
    }
    if was_flcb {
        std::fs::write(&dest, serde_json::to_string_pretty(&file)?)?;
    } else {
        fixy_core::flcb::write_library_file(&dest, &file.app, &file.library)?;
    }
    let from = std::fs::metadata(path)?.len();
    let to = std::fs::metadata(&dest)?.len();
    Ok(format!(
        "migrated {} ({}) -> {} ({}); {from} -> {to} bytes\n",
        path.display(),
        if was_flcb { "flcb" } else { "json" },
        dest.display(),
        if was_flcb { "json" } else { "flcb" },
    ))
}

/// Rewrite every scene JSON in a directory as `.fscb`, reporting the
/// compaction ratio. The output directory is created if missing; file
/// stems are preserved so `rank --scene <DIR>` walks both corpora in the
/// same order.
fn convert_corpus(data: &std::path::Path, out_dir: &std::path::Path) -> Result<String, CliError> {
    let source = CorpusSource::open(data)?;
    std::fs::create_dir_all(out_dir)?;
    let mut out = String::new();
    let mut json_bytes = 0u64;
    let mut fscb_bytes = 0u64;
    let mut converted = 0usize;
    for path in source.paths() {
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let scene = loa_data::io::load_scene(path)?;
        let stem = path
            .file_stem()
            .ok_or_else(|| CliError::Invalid(format!("bad scene path {}", path.display())))?;
        let dest = out_dir.join(format!("{}.fscb", stem.to_string_lossy()));
        loa_ingest::write_scene(&scene, &dest)?;
        let js = std::fs::metadata(path)?.len();
        let fs = std::fs::metadata(&dest)?.len();
        json_bytes += js;
        fscb_bytes += fs;
        converted += 1;
        let _ = writeln!(
            out,
            "{}: {} -> {} bytes ({:.2}x smaller)",
            dest.display(),
            js,
            fs,
            js as f64 / fs as f64
        );
    }
    if converted == 0 {
        return Err(CliError::Invalid(format!(
            "no .json scenes to convert in {}",
            data.display()
        )));
    }
    let _ = writeln!(
        out,
        "converted {converted} scene(s) -> {}; {json_bytes} -> {fscb_bytes} bytes ({:.2}x smaller)",
        out_dir.display(),
        json_bytes as f64 / fscb_bytes as f64
    );
    Ok(out)
}

/// `fixy stream`: replay one scene frame-by-frame through the
/// [`StreamingAssembler`], re-ranking the partial scene after every
/// frame — the live-deployment path, where a 300 mph pedestrian
/// surfaces while the scene is still recording. `.fscb` input decodes
/// truly frame-by-frame; `.json` input is parsed once, then replayed.
///
/// Re-ranking runs the O(Δ) incremental path: the partial scene grows
/// in place, and `IncrementalScorer` re-scores only the tracks the
/// frame's assembly delta changed. `--compare-full` additionally holds
/// every frame against the batch path: it re-assembles the frames
/// pushed so far with `Scene::assemble` and ranks that with
/// [`App::rank`], reports streamed-vs-full latency (full includes the
/// assembly), and fails on any worklist divergence (labels or score
/// bits) — so it checks streamed against batch assembly as well as
/// incremental against whole-scene scoring. `--trace` turns on
/// `loa_obs` span recording and appends a per-frame stage-timing table
/// built from the drained span stream: each stage's self time (push /
/// snapshot / rescore / score / rank, nested spans subtracted from their
/// parent), the frame's measured time, and the remainder no stage span
/// covers.
pub fn stream(args: StreamArgs) -> Result<String, CliError> {
    if args.trace {
        loa_obs::enable_all();
    }
    let library = load_library_for(&args.library, args.app)?;
    let library = &library;

    // The app's worklist as (label, score) entries, so the replay loop
    // stays app-agnostic.
    let app = args.app;
    let entries = |scene: &Scene, ranked: Vec<Candidate>| -> Vec<(String, f64)> {
        ranked.iter().map(|c| (c.label(scene), c.score())).collect()
    };
    let features = app.feature_set();

    let mut out = String::new();
    let mut assembler = StreamingAssembler::new(app.assembly());
    let mut scorer = IncrementalScorer::new(&features, library)?;
    let mut push_us: Vec<f64> = Vec::new();
    let mut score_us: Vec<f64> = Vec::new();
    let mut full_us: Vec<f64> = Vec::new();
    let mut worklist: Vec<(String, f64)> = Vec::new();

    // `--trace`: per-frame per-stage self times, aggregated from the
    // spans the instrumented layers record on this thread, beside the
    // frame's measured time.
    const TRACE_STAGES: [loa_obs::Stage; 5] = [
        loa_obs::Stage::Push,
        loa_obs::Stage::Snapshot,
        loa_obs::Stage::Rescore,
        loa_obs::Stage::Score,
        loa_obs::Stage::Rank,
    ];
    let mut trace_rows: Vec<(u64, [u64; TRACE_STAGES.len()], f64)> = Vec::new();

    // `--compare-full`'s batch reference: the frames pushed so far.
    let pushed_so_far = |id: &str, frame_dt: f64| {
        args.compare_full.then(|| SceneData {
            id: id.to_string(),
            frame_dt,
            frames: Vec::new(),
            injected: Default::default(),
        })
    };
    let mut replay_frame = |assembler: &mut StreamingAssembler,
                            scene: &mut Scene,
                            scorer: &mut IncrementalScorer<'_>,
                            pushed: &mut Option<SceneData>,
                            frame: &loa_data::Frame|
     -> Result<(), CliError> {
        let t0 = std::time::Instant::now();
        assembler.push_frame(frame)?;
        let push = t0.elapsed().as_secs_f64() * 1e6;
        let t1 = std::time::Instant::now();
        assembler.update_snapshot(scene)?;
        scorer.rescore_delta(scene, assembler.last_delta().expect("delta after push"));
        let ranked = {
            // Core instruments scoring; the final rank happens here in
            // the CLI closure, so the Rank span lives here too.
            let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Rank);
            entries(scene, app.rank_streamed(scene, scorer))
        };
        let score = t1.elapsed().as_secs_f64() * 1e6;

        if args.trace {
            let mut totals = [0u64; TRACE_STAGES.len()];
            let spans = loa_obs::drain_thread_spans();
            for (rec, own) in spans.iter().zip(loa_obs::self_times(&spans)) {
                if let Some(col) = TRACE_STAGES.iter().position(|s| *s == rec.stage) {
                    totals[col] += own;
                }
            }
            trace_rows.push((u64::from(frame.index.0), totals, push + score));
        }

        if let Some(pushed) = pushed {
            pushed.frames.push(frame.clone());
            let t2 = std::time::Instant::now();
            let batch = Scene::assemble(pushed, &app.assembly());
            let full_ranked = entries(&batch, app.rank(&batch, library)?);
            let full = t2.elapsed().as_secs_f64() * 1e6;
            let diverged = full_ranked.len() != ranked.len()
                || full_ranked
                    .iter()
                    .zip(&ranked)
                    .any(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits());
            if diverged {
                return Err(CliError::Invalid(format!(
                    "frame {}: streamed worklist diverged from batch re-assembly and re-rank \
                     ({} vs {} candidate(s))",
                    frame.index.0,
                    ranked.len(),
                    full_ranked.len(),
                )));
            }
            full_us.push(full);
        }

        let _ = writeln!(
            out,
            "frame {:>3}  obs {:>4}  tracks {:>3}  cands {:>3}  top {:<8}  push {:>8.1}us  score {:>9.1}us{}",
            frame.index.0,
            scene.n_observations(),
            scene.n_tracks(),
            ranked.len(),
            ranked
                .first()
                .map(|(_, s)| format!("{s:.3}"))
                .unwrap_or_else(|| "-".into()),
            push,
            score,
            full_us
                .last()
                .map(|f| format!("  full {f:>9.1}us"))
                .unwrap_or_default(),
        );
        push_us.push(push);
        score_us.push(score);
        worklist = ranked;
        Ok(())
    };

    let scene_id: String;
    if args.scene.extension().and_then(|e| e.to_str()) == Some(loa_ingest::FSCB_EXTENSION) {
        let mut reader = loa_ingest::FrameReader::open(&args.scene)?;
        scene_id = reader.id().to_string();
        assembler.begin(reader.frame_dt());
        let mut scene = Scene::from_parts(vec![], vec![], vec![], reader.frame_dt(), 0);
        let mut pushed = pushed_so_far(&scene_id, reader.frame_dt());
        while let Some(frame) = reader.next_frame()? {
            replay_frame(&mut assembler, &mut scene, &mut scorer, &mut pushed, &frame)?;
        }
    } else {
        let data = loa_ingest::load_scene_auto(&args.scene)?;
        scene_id = data.id.clone();
        assembler.begin(data.frame_dt);
        let mut scene = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        let mut pushed = pushed_so_far(&scene_id, data.frame_dt);
        for frame in &data.frames {
            replay_frame(&mut assembler, &mut scene, &mut scorer, &mut pushed, frame)?;
        }
    }
    let final_scene = assembler.finalize()?;

    let n = push_us.len().max(1) as f64;
    let mean_push = push_us.iter().sum::<f64>() / n;
    let mean_score = score_us.iter().sum::<f64>() / n;
    let max_frame = push_us
        .iter()
        .zip(&score_us)
        .map(|(p, s)| p + s)
        .fold(0.0f64, f64::max);
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "streamed {}: {} frame(s), {} track(s) final; per-frame mean push {:.1}us + score {:.1}us, worst frame {:.1}us",
        scene_id,
        push_us.len(),
        final_scene.n_tracks(),
        mean_push,
        mean_score,
        max_frame,
    );
    if args.compare_full {
        let mean_full = full_us.iter().sum::<f64>() / n;
        let _ = writeln!(
            summary,
            "incremental vs full: mean {:.1}us vs {:.1}us per frame ({:.1}x); worklists identical on every frame",
            mean_score,
            mean_full,
            mean_full / mean_score.max(1e-9),
        );
    }
    if args.trace {
        let _ = writeln!(summary, "per-frame stage self times (spans, us):");
        let _ = writeln!(
            summary,
            "frame      push  snapshot   rescore     score      rank     other      wall"
        );
        let mut totals = [0u64; TRACE_STAGES.len()];
        let mut total_wall = 0.0;
        let mut trace_line = |label: &str, row: &[u64; TRACE_STAGES.len()], wall: f64| {
            let other = wall - row.iter().sum::<u64>() as f64;
            let _ = writeln!(
                summary,
                "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9.1} {:>9.1}",
                label, row[0], row[1], row[2], row[3], row[4], other, wall,
            );
        };
        for (frame, row, wall) in &trace_rows {
            trace_line(&frame.to_string(), row, *wall);
            for (t, v) in totals.iter_mut().zip(row) {
                *t += v;
            }
            total_wall += wall;
        }
        trace_line("total", &totals, total_wall);
    }
    let _ = writeln!(summary, "final worklist ({} candidate(s)):", worklist.len());
    for (i, (label, score)) in worklist.iter().take(args.top).enumerate() {
        let _ = writeln!(summary, "  {:<3} {:<20} {:.3}", i + 1, label, score);
    }
    out.push_str(&summary);
    Ok(out)
}

/// `fixy serve`: run the resident multi-session audit server until a
/// client sends shutdown. Binds `--listen` (use `:0` to let the OS pick
/// a port; `--port-file` then publishes the bound address for scripts),
/// loads the fitted library once, and serves every connection and
/// session off that shared context.
pub fn serve(args: ServeArgs) -> Result<String, CliError> {
    // Recording is on for the server's whole life (whether or not a
    // scrape endpoint is bound): session worklists carry latency
    // quantiles, and `STATS` replies are only useful with live numbers.
    loa_obs::enable_metrics();
    let t0 = std::time::Instant::now();
    let library = load_library_for(&args.library, args.app)?;
    let ctx = loa_serve::ServeContext::new(args.app, library)?;
    // Cold start: library file open through scoring-ready context. The
    // .flcb path bulk-copies the KDE grids a JSON load rebuilds, so this
    // is the number the binary format exists to shrink. Printed for scripts AND
    // recorded as a gauge so a scrape sees it too.
    let cold_us = t0.elapsed().as_secs_f64() * 1e6;
    eprintln!("fixy serve: cold start (library open → scoring context ready) {cold_us:.1}us");
    loa_obs::global().cold_start_us.set(cold_us);
    if let Some(metrics_addr) = &args.metrics_addr {
        let bound = loa_serve::serve_metrics(metrics_addr)?;
        eprintln!("fixy serve: metrics on http://{bound}/metrics");
        if let Some(metrics_port_file) = &args.metrics_port_file {
            std::fs::write(metrics_port_file, bound.to_string())?;
        }
    }
    let listener = std::net::TcpListener::bind(&args.listen)?;
    let addr = listener.local_addr()?;
    if let Some(port_file) = &args.port_file {
        std::fs::write(port_file, addr.to_string())?;
    }
    // To stderr: stdout is the post-shutdown summary, and scripts watch
    // the port file, not our output.
    eprintln!(
        "fixy serve: listening on {addr} (app {}, window {}, max {} session(s))",
        args.app.name(),
        args.window,
        args.max_sessions
    );
    let cfg = loa_serve::ServiceCfg {
        window: args.window,
        max_frames: args.max_frames,
        max_sessions: args.max_sessions,
    };
    let summary = loa_serve::serve(listener, &ctx, cfg)?;
    Ok(format!(
        "served {} connection(s), {} session(s), {} frame(s)\n",
        summary.connections, summary.sessions, summary.frames
    ))
}

/// `fixy feed`: replay every scene in a directory against a running
/// `fixy serve` — one session per scene, frames interleaved round-robin
/// across all sessions over a single connection. `--late` delivers each
/// session's frames through a bounded shuffle (no frame lands more than
/// `late` positions from its index — keep it below the server's reorder
/// window) and `--dup-every` re-sends every Kth frame verbatim; the
/// server must absorb both without the final worklists moving a bit.
pub fn feed(args: FeedArgs) -> Result<String, CliError> {
    let scenes = CorpusSource::open(&args.data)?.load_all()?;
    if scenes.is_empty() {
        return Err(CliError::Invalid(format!(
            "no scenes found in {}",
            args.data.display()
        )));
    }
    let mut client = loa_serve::FeedClient::connect(args.addr.as_str())?;
    for (sid, scene) in scenes.iter().enumerate() {
        client.open(sid as u32, &scene.id, scene.frame_dt)?;
    }

    let schedules: Vec<Vec<usize>> = scenes
        .iter()
        .enumerate()
        .map(|(sid, scene)| {
            delivery_order(scene.frames.len(), args.late, args.seed.wrapping_add(sid as u64))
        })
        .collect();
    let mut cursors = vec![0usize; scenes.len()];
    let mut sent = vec![0u64; scenes.len()];
    loop {
        let mut progressed = false;
        for (sid, scene) in scenes.iter().enumerate() {
            let Some(&pos) = schedules[sid].get(cursors[sid]) else {
                continue;
            };
            cursors[sid] += 1;
            progressed = true;
            let frame = &scene.frames[pos];
            client.frame(sid as u32, frame)?;
            sent[sid] += 1;
            if args.dup_every > 0 && sent[sid] % args.dup_every as u64 == 0 {
                client.frame(sid as u32, frame)?;
            }
        }
        if !progressed {
            break;
        }
    }

    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    let mut total_frames = 0u64;
    for sid in 0..scenes.len() {
        let worklist = client.close_session(sid as u32)?;
        let stats = &worklist.stats;
        total_frames += stats.frames;
        let _ = writeln!(
            out,
            "=== {}: {} frame(s) scored, {} duplicate(s) dropped, {} reordered, {} rejected, {} stranded",
            worklist.scene_id,
            stats.frames,
            stats.duplicates_dropped,
            stats.reordered,
            stats.rejected,
            stats.stranded,
        );
        if let Some(msg) = &stats.first_reject {
            let _ = writeln!(out, "    first rejection: {msg}");
        }
        // The exact block `fixy stream` ends with on the same scene —
        // what --out-dir files are diffed against.
        let block = worklist.render_final(args.top);
        if let Some(dir) = &args.out_dir {
            std::fs::write(dir.join(format!("{}.worklist", worklist.scene_id)), &block)?;
        }
        out.push_str(&block);
    }
    if args.shutdown {
        client.shutdown()?;
        let _ = writeln!(out, "server shut down");
    }
    let _ = writeln!(out, "fed {} scene(s), {} frame(s) scored", scenes.len(), total_frames);
    Ok(out)
}

/// Delivery order for `n` frames where no frame lands more than `late`
/// positions from its index: stable-sort by `index + jitter` with
/// jitter drawn from `0..=late`. If frame `j` is still outstanding when
/// `i` is delivered then `j + late >= key_j >= key_i >= i`, so the
/// server-side watermark never trails a delivered index by more than
/// `late` — any reorder window above `late` absorbs the shuffle.
fn delivery_order(n: usize, late: u32, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut keyed: Vec<(u64, usize)> = (0..n)
        .map(|i| (i as u64 + splitmix64(&mut state) % (u64::from(late) + 1), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// SplitMix64 — a tiny deterministic stream for the delivery shuffle,
/// keeping the CLI free of RNG crates.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `fixy render`: ASCII render of one frame (and optionally an SVG).
pub fn render(args: RenderArgs) -> Result<String, CliError> {
    let data = loa_ingest::load_scene_auto(&args.scene)?;
    let Some(frame) = data.frames.get(args.frame) else {
        return Err(CliError::Invalid(format!(
            "frame {} out of range (scene has {})",
            args.frame,
            data.frames.len()
        )));
    };
    let layers =
        loa_render::FrameLayers::from_frame(frame, Some(&loa_data::LidarConfig::default()));
    let ascii = loa_render::render_frame_ascii(&layers, loa_render::AsciiOptions::default());
    if let Some(svg_path) = &args.svg {
        let svg = loa_render::render_frame_svg(&layers, loa_render::SvgOptions::default());
        std::fs::write(svg_path, svg)?;
    }
    Ok(format!(
        "scene {} frame {} — '!' missing, '#' human, '+' model\n{}",
        data.id, args.frame, ascii
    ))
}

/// Convert days since the Unix epoch to `YYYY-MM-DD` (civil-from-days,
/// Howard Hinnant's algorithm) — keeps the CLI free of clock crates.
fn civil_date(days_since_epoch: i64) -> String {
    let z = days_since_epoch + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    civil_date(secs.div_euclid(86_400))
}

/// `fixy bench-record`: merge a `CRITERION_JSON` lines file into the
/// repo's bench snapshot file as a new dated snapshot.
///
/// The snapshot file is the v2 trajectory format:
/// `{"schema": "fixy-bench-snapshot/v2", "snapshots": [...]}`, each
/// snapshot carrying `recorded`/`toolchain`/`host` metadata plus the
/// bench medians. An existing `--out` file without a `snapshots` array
/// is refused and left untouched. Re-running a bench within one lines
/// file keeps the last median per id.
pub fn bench_record(args: crate::args::BenchRecordArgs) -> Result<String, CliError> {
    use serde::Value;

    // Parse the lines file: one {"id", "median_ns", "samples"} per line,
    // last occurrence of an id wins.
    let lines = std::fs::read_to_string(&args.json)?;
    let mut ids: Vec<String> = Vec::new();
    let mut by_id: std::collections::BTreeMap<String, Value> = std::collections::BTreeMap::new();
    for line in lines.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let record = serde_json::parse_value(line)?;
        let id = record
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| CliError::Invalid(format!("bench record without id: {line}")))?
            .to_string();
        if by_id.insert(id.clone(), record).is_none() {
            ids.push(id);
        }
    }
    if ids.is_empty() {
        return Err(CliError::Invalid(format!(
            "no bench records in {} — run CRITERION_JSON={} cargo bench -p loa_bench first",
            args.json.display(),
            args.json.display()
        )));
    }
    let benches: Vec<Value> = ids.iter().map(|id| by_id[id].clone()).collect();

    // Snapshot metadata.
    let toolchain = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let mut host = vec![(String::from("cpus"), Value::UInt(cpus as u64))];
    if let Some(note) = &args.note {
        host.push((String::from("note"), Value::Str(note.clone())));
    }
    let snapshot = Value::Object(vec![
        (String::from("recorded"), Value::Str(today())),
        (String::from("toolchain"), Value::Str(toolchain)),
        (String::from("host"), Value::Object(host)),
        (String::from("benches"), Value::Array(benches)),
    ]);

    // Load the existing trajectory and append.
    let mut snapshots: Vec<Value> = match std::fs::read_to_string(&args.out) {
        Ok(existing) => serde_json::parse_value(&existing)?
            .get("snapshots")
            .and_then(Value::as_array)
            .ok_or_else(|| {
                CliError::Invalid(format!(
                    "{} has no \"snapshots\" array (not a fixy-bench-snapshot/v2 file); \
                     refusing to rewrite it",
                    args.out.display()
                ))
            })?
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(CliError::Io(e)),
    };
    snapshots.push(snapshot);
    let n_snapshots = snapshots.len();

    let merged = Value::Object(vec![
        (
            String::from("schema"),
            Value::Str(String::from("fixy-bench-snapshot/v2")),
        ),
        (String::from("snapshots"), Value::Array(snapshots)),
    ]);
    std::fs::write(&args.out, format!("{}\n", serde_json::to_string_pretty(&merged)?))?;
    Ok(format!(
        "recorded {} bench medians into {} ({} snapshots)\n",
        ids.len(),
        args.out.display(),
        n_snapshots
    ))
}

#[cfg(test)]
mod tests {
    use crate::args::parse;
    use crate::run;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fixy_cli_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tmp_dir("workflow");
        let data_dir = dir.join("data");
        // generate (small scenes for test speed)
        let cmd = parse(&argv(&format!(
            "generate --profile lyft --scenes 2 --seed 5 --duration 4 --out {}",
            data_dir.display()
        )))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("wrote 2 scene(s)"));

        // learn
        let lib_path = dir.join("library.json");
        let cmd = parse(&argv(&format!(
            "learn --data {} --out {}",
            data_dir.display(),
            lib_path.display()
        )))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("fitted 2 distribution(s)"), "{out}");

        // rank (graded)
        let scene_path = std::fs::read_dir(&data_dir).unwrap().next().unwrap().unwrap().path();
        let cmd = parse(&argv(&format!(
            "rank --scene {} --library {} --top 5 --grade",
            scene_path.display(),
            lib_path.display()
        )))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("candidate(s) total"), "{out}");

        // render
        let svg_path = dir.join("frame.svg");
        let cmd = parse(&argv(&format!(
            "render --scene {} --frame 3 --svg {}",
            scene_path.display(),
            svg_path.display()
        )))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("frame 3"));
        assert!(svg_path.exists());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_rank_over_directory() {
        let dir = tmp_dir("batch");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile lyft --scenes 3 --seed 21 --duration 4 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();
        let lib_path = dir.join("library.json");
        run(parse(&argv(&format!(
            "learn --data {} --out {}",
            data_dir.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();

        // Point --scene at the directory: the batch pipeline ranks all
        // scenes and prints one merged worklist.
        let out = run(parse(&argv(&format!(
            "rank --scene {} --library {} --top 3 --grade",
            data_dir.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("across 3 scene(s)"), "{out}");

        // Scene ids must appear in sorted (deterministic merge) order.
        let mut ids: Vec<&str> = out
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().next())
            .filter(|t| t.starts_with("lyft-like"))
            .collect();
        let printed = ids.clone();
        ids.sort();
        assert_eq!(printed, ids, "batch worklist is ordered by scene id");

        // missing-obs batch mode: bundle-level candidates flow through
        // the same generalized pipeline with their own worklist shape.
        let mo_lib = dir.join("mo.json");
        run(parse(&argv(&format!(
            "learn --data {} --app missing-obs --out {}",
            data_dir.display(),
            mo_lib.display()
        )))
        .unwrap())
        .unwrap();
        let out = run(parse(&argv(&format!(
            "rank --scene {} --library {} --app missing-obs",
            data_dir.display(),
            mo_lib.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("across 3 scene(s)"), "{out}");
        assert!(out.contains("frame"), "{out}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every registry app through the whole CLI: learn, rank one scene
    /// and a directory, and a streamed replay whose worklist equals a
    /// from-scratch rank on every frame.
    #[test]
    fn every_app_learns_ranks_and_streams() {
        let dir = tmp_dir("every_app");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile lyft --scenes 2 --seed 23 --duration 4 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();
        let scene = std::fs::read_dir(&data_dir).unwrap().next().unwrap().unwrap().path();
        for app in fixy_core::apps::App::ALL {
            let name = app.name();
            let lib = dir.join(format!("{name}.json"));
            let out = run(parse(&argv(&format!(
                "learn --data {} --app {name} --out {}",
                data_dir.display(),
                lib.display()
            )))
            .unwrap())
            .unwrap();
            assert!(out.contains("fitted"), "{name}: {out}");

            let out = run(parse(&argv(&format!(
                "rank --scene {} --library {} --app {name}",
                scene.display(),
                lib.display()
            )))
            .unwrap())
            .unwrap();
            assert!(out.contains("candidate(s) total"), "{name}: {out}");
            let header = if app.ranks_bundles() { "rank  frame" } else { "rank  class" };
            assert!(out.starts_with(header), "{name}: {out}");
            assert_eq!(out.contains("excluded by ad-hoc assertions"), name == "model-errors");

            let out = run(parse(&argv(&format!(
                "rank --scene {} --library {} --app {name}",
                data_dir.display(),
                lib.display()
            )))
            .unwrap())
            .unwrap();
            assert!(out.contains("across 2 scene(s)"), "{name}: {out}");

            let out = run(parse(&argv(&format!(
                "stream --scene {} --library {} --app {name} --compare-full",
                scene.display(),
                lib.display()
            )))
            .unwrap())
            .unwrap();
            assert!(out.contains("worklists identical on every frame"), "{name}: {out}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `--grade` grades every registry app against the generator's
    /// injected errors: the header and each row carry the `hit` column,
    /// for one scene and for a batch.
    #[test]
    fn every_app_ranks_with_grade() {
        let dir = tmp_dir("grade_every_app");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile lyft --scenes 2 --seed 11 --duration 4 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();
        let scene = std::fs::read_dir(&data_dir).unwrap().next().unwrap().unwrap().path();
        for app in fixy_core::apps::App::ALL {
            let name = app.name();
            let lib = dir.join(format!("{name}.json"));
            run(parse(&argv(&format!(
                "learn --data {} --app {name} --out {}",
                data_dir.display(),
                lib.display()
            )))
            .unwrap())
            .unwrap();
            for target in [&scene, &data_dir] {
                let out = run(parse(&argv(&format!(
                    "rank --scene {} --library {} --app {name} --top 5 --grade",
                    target.display(),
                    lib.display()
                )))
                .unwrap())
                .unwrap();
                let mut lines = out.lines();
                assert!(lines.next().unwrap().ends_with(" hit"), "{name}: {out}");
                let rows: Vec<&str> = lines.filter(|l| !l.contains("candidate(s)")).collect();
                assert!(!rows.is_empty(), "{name}: {out}");
                for row in rows {
                    assert!(row.ends_with(" YES") || row.ends_with(" no"), "{name}: {row}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fuzz_conformance_smoke() {
        // A small fixed-seed corpus through the conformance harness: the
        // report must show a PASS and the run must be deterministic.
        let out =
            run(parse(&argv("fuzz --seed 7 --scenes 4 --top-k 10 --train 2")).unwrap()).unwrap();
        assert!(out.contains("injection-recall conformance: seed 7"), "{out}");
        assert!(out.contains("PASS"), "{out}");
        let again =
            run(parse(&argv("fuzz --seed 7 --scenes 4 --top-k 10 --train 2")).unwrap()).unwrap();
        assert_eq!(out, again, "same seed must produce the identical report");

        // An impossible top-k fails with the seed in the message.
        let err =
            run(parse(&argv("fuzz --seed 7 --scenes 2 --top-k 0 --train 2")).unwrap()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("FAIL"), "{msg}");
        assert!(msg.contains("--seed 7"), "{msg}");
    }

    #[test]
    fn rank_rejects_mismatched_library() {
        let dir = tmp_dir("mismatch");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile lyft --scenes 1 --seed 9 --duration 3 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();
        let lib_path = dir.join("lib.json");
        run(parse(&argv(&format!(
            "learn --data {} --app model-errors --out {}",
            data_dir.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();
        let scene_path = std::fs::read_dir(&data_dir).unwrap().next().unwrap().unwrap().path();
        // Library fitted for model-errors; asking missing-tracks must fail.
        let err = run(parse(&argv(&format!(
            "rank --scene {} --library {}",
            scene_path.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.to_string().contains("fitted for app"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rank_rejects_library_with_altered_max_density() {
        // A JSON library whose first KDE's stored max_density no longer
        // matches the grid its samples rebuild must be refused on load.
        let dir = tmp_dir("altered_max_density");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile lyft --scenes 1 --seed 9 --duration 3 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();
        let lib_path = dir.join("lib.json");
        run(parse(&argv(&format!(
            "learn --data {} --out {}",
            data_dir.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();
        let text = std::fs::read_to_string(&lib_path).unwrap();
        let key = r#""max_density":"#;
        let at = text.find(key).unwrap() + key.len();
        let end = at + text[at..].find([',', '}']).unwrap();
        let stored: f64 = text[at..end].trim().parse().unwrap();
        let altered = format!("{}{}{}", &text[..at], stored * 1.5, &text[end..]);
        std::fs::write(&lib_path, altered).unwrap();
        let err = run(parse(&argv(&format!(
            "rank --scene {} --library {}",
            data_dir.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.to_string().contains("implausible kde max_density"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_rejects_out_of_range_frame() {
        let dir = tmp_dir("range");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile internal --scenes 1 --seed 2 --duration 2 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();
        let scene_path = std::fs::read_dir(&data_dir).unwrap().next().unwrap().unwrap().path();
        let err = run(parse(&argv(&format!(
            "render --scene {} --frame 9999",
            scene_path.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.to_string().contains("out of range"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generate_rejects_bad_duration() {
        let dir = tmp_dir("baddur");
        let err = run(parse(&argv(&format!(
            "generate --profile lyft --scenes 1 --duration -3 --out {}",
            dir.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.to_string().contains("positive"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn learn_rejects_empty_dir() {
        let dir = tmp_dir("empty");
        let err = run(parse(&argv(&format!(
            "learn --data {} --out {}",
            dir.display(),
            dir.join("lib.json").display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.to_string().contains("no .json or .fscb scenes"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `stream --trace` reports self times: the nested `score` span is
    /// no longer counted again inside `rank`, so every frame's stage
    /// columns add up to no more than the frame's measured time.
    #[test]
    fn stream_trace_stages_fit_in_frame_time() {
        let dir = tmp_dir("stream_trace");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile lyft --scenes 1 --seed 12 --duration 4 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();
        let lib_path = dir.join("library.json");
        run(parse(&argv(&format!(
            "learn --data {} --out {}",
            data_dir.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();
        let scene = std::fs::read_dir(&data_dir).unwrap().next().unwrap().unwrap().path();
        let out = run(parse(&argv(&format!(
            "stream --scene {} --library {} --trace",
            scene.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();

        let table: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("frame      push"))
            .skip(1)
            .take_while(|l| !l.starts_with("final worklist"))
            .collect();
        let frames = table.iter().filter(|l| !l.starts_with("total")).count();
        let streamed = out
            .lines()
            .filter(|l| l.starts_with("frame ") && l.contains(" obs "))
            .count();
        assert!(streamed > 0);
        assert_eq!(frames, streamed, "one row per frame:\n{out}");
        for line in &table {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols.len(), 8, "{line}");
            let stages: u64 = cols[1..6].iter().map(|c| c.parse::<u64>().unwrap()).sum();
            let other: f64 = cols[6].parse().unwrap();
            let wall: f64 = cols[7].parse().unwrap();
            assert!(
                stages as f64 <= wall,
                "stages {stages}us exceed frame time {wall}us: {line}"
            );
            assert!(other >= 0.0, "{line}");
        }
    }

    #[test]
    fn convert_and_stream_workflow() {
        let dir = tmp_dir("convert_stream");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile lyft --scenes 2 --seed 33 --duration 4 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();
        let lib_path = dir.join("library.json");
        run(parse(&argv(&format!(
            "learn --data {} --out {}",
            data_dir.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();

        // convert: every JSON scene becomes a smaller .fscb twin.
        let bin_dir = dir.join("bin");
        let out = run(parse(&argv(&format!(
            "convert --data {} --out {}",
            data_dir.display(),
            bin_dir.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("converted 2 scene(s)"), "{out}");
        assert!(out.contains("x smaller"), "{out}");
        let fscb_count = std::fs::read_dir(&bin_dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "fscb"))
            .count();
        assert_eq!(fscb_count, 2);

        // Batch rank over the converted corpus must produce the identical
        // worklist (scene ids and scores come from the same bytes).
        let json_rank = run(parse(&argv(&format!(
            "rank --scene {} --library {} --top 3 --grade",
            data_dir.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();
        let fscb_rank = run(parse(&argv(&format!(
            "rank --scene {} --library {} --top 3 --grade",
            bin_dir.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();
        assert_eq!(json_rank, fscb_rank, "binary corpus must rank identically");

        // stream: frame-by-frame replay over the binary scene.
        let fscb_scene = std::fs::read_dir(&bin_dir).unwrap().next().unwrap().unwrap().path();
        let out = run(parse(&argv(&format!(
            "stream --scene {} --library {} --top 3",
            fscb_scene.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("frame   0"), "{out}");
        assert!(out.contains("streamed "), "{out}");
        assert!(out.contains("final worklist"), "{out}");

        // …and over the JSON twin, reaching the same final worklist.
        let json_scene: std::path::PathBuf = {
            let mut paths: Vec<_> = std::fs::read_dir(&data_dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            paths.sort();
            paths
                .into_iter()
                .find(|p| p.file_stem() == fscb_scene.file_stem())
                .unwrap()
        };
        let out_json = run(parse(&argv(&format!(
            "stream --scene {} --library {} --top 3",
            json_scene.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("final worklist"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&out), tail(&out_json), "same scene, same final worklist");

        // --compare-full runs the from-scratch path alongside and proves
        // the incremental worklist identical on every frame.
        let out_cmp = run(parse(&argv(&format!(
            "stream --scene {} --library {} --top 3 --compare-full",
            fscb_scene.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out_cmp.contains("worklists identical"), "{out_cmp}");
        assert!(out_cmp.contains("incremental vs full"), "{out_cmp}");
        assert_eq!(tail(&out), tail(&out_cmp), "compare mode changed the worklist");

        // Mismatched library app is rejected before any replay.
        let err = run(parse(&argv(&format!(
            "stream --scene {} --library {} --app model-errors",
            fscb_scene.display(),
            lib_path.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.to_string().contains("fitted for app"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn learn_picks_format_from_out_extension() {
        let dir = tmp_dir("learn_ext");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile lyft --scenes 2 --seed 19 --duration 4 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();
        let learn_rank = |lib: &std::path::Path| {
            run(parse(&argv(&format!(
                "learn --data {} --out {}",
                data_dir.display(),
                lib.display()
            )))
            .unwrap())
            .unwrap();
            run(parse(&argv(&format!(
                "rank --scene {} --library {} --top 5 --grade",
                data_dir.display(),
                lib.display()
            )))
            .unwrap())
            .unwrap()
        };
        let flcb_lib = dir.join("x.flcb");
        let json_lib = dir.join("x.json");
        let flcb_ranked = learn_rank(&flcb_lib);
        let json_ranked = learn_rank(&json_lib);
        assert!(std::fs::read(&flcb_lib).unwrap().starts_with(b"FLCB"));
        assert!(std::fs::read(&json_lib).unwrap().starts_with(b"{"));
        assert_eq!(flcb_ranked, json_ranked);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flcb_library_workflow() {
        let dir = tmp_dir("flcb_lib");
        let data_dir = dir.join("data");
        run(parse(&argv(&format!(
            "generate --profile lyft --scenes 2 --seed 17 --duration 4 --out {}",
            data_dir.display()
        )))
        .unwrap())
        .unwrap();

        // learn in both wire formats.
        let json_lib = dir.join("library.json");
        let flcb_lib = dir.join("library.flcb");
        run(parse(&argv(&format!(
            "learn --data {} --out {}",
            data_dir.display(),
            json_lib.display()
        )))
        .unwrap())
        .unwrap();
        let out = run(parse(&argv(&format!(
            "learn --data {} --out {}",
            data_dir.display(),
            flcb_lib.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("(flcb)"), "{out}");
        assert!(
            std::fs::read(&flcb_lib).unwrap().starts_with(b"FLCB"),
            "flcb file leads with its magic"
        );

        // The worklist must be byte-identical whichever format served it.
        let rank_with = |lib: &std::path::Path| {
            run(parse(&argv(&format!(
                "rank --scene {} --library {} --top 5 --grade",
                data_dir.display(),
                lib.display()
            )))
            .unwrap())
            .unwrap()
        };
        assert_eq!(
            rank_with(&json_lib),
            rank_with(&flcb_lib),
            "flcb-loaded library must rank bit-identically"
        );

        // convert --library migrates each way; the migrated files rank
        // identically too.
        let migrated_flcb = dir.join("migrated.flcb");
        let out = run(parse(&argv(&format!(
            "convert --library {} --out {}",
            json_lib.display(),
            migrated_flcb.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("(json) ->"), "{out}");
        assert_eq!(rank_with(&json_lib), rank_with(&migrated_flcb));
        let migrated_json = dir.join("migrated.json");
        run(parse(&argv(&format!(
            "convert --library {} --out {}",
            flcb_lib.display(),
            migrated_json.display()
        )))
        .unwrap())
        .unwrap();
        assert_eq!(rank_with(&json_lib), rank_with(&migrated_json));

        // Magic sniffing: an extensionless copy of the binary library
        // still opens as flcb.
        let sniffed = dir.join("library_no_ext");
        std::fs::copy(&flcb_lib, &sniffed).unwrap();
        assert_eq!(rank_with(&json_lib), rank_with(&sniffed));

        // stream accepts the binary library and reaches the same final
        // worklist as the JSON one.
        let scene = {
            let mut paths: Vec<_> = std::fs::read_dir(&data_dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            paths.sort();
            paths.remove(0)
        };
        let stream_with = |lib: &std::path::Path| {
            run(parse(&argv(&format!(
                "stream --scene {} --library {} --top 3",
                scene.display(),
                lib.display()
            )))
            .unwrap())
            .unwrap()
        };
        // Per-frame latency lines vary run to run; the worklist must not.
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("final worklist"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&stream_with(&json_lib)), tail(&stream_with(&flcb_lib)));

        // App mismatch is detected through the flcb header's app tag.
        let me_lib = dir.join("me.flcb");
        run(parse(&argv(&format!(
            "learn --data {} --app model-errors --out {}",
            data_dir.display(),
            me_lib.display()
        )))
        .unwrap())
        .unwrap();
        let err = run(parse(&argv(&format!(
            "rank --scene {} --library {}",
            data_dir.display(),
            me_lib.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.to_string().contains("fitted for app"), "{err}");

        // A truncated binary library fails with a typed corrupt error,
        // not a panic or a JSON parse message.
        let bytes = std::fs::read(&flcb_lib).unwrap();
        let truncated = dir.join("truncated.flcb");
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let err = run(parse(&argv(&format!(
            "rank --scene {} --library {}",
            data_dir.display(),
            truncated.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(matches!(err, crate::CliError::Codec(_)), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fuzz_materializes_corpus() {
        let dir = tmp_dir("fuzz_corpus");
        let out = run(parse(&argv(&format!(
            "fuzz --seed 7 --scenes 3 --top-k 10 --train 2 --corpus-dir {}",
            dir.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("corpus materialized: 3 scene(s) as .fscb"), "{out}");
        let fscb = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "fscb"))
            .count();
        assert_eq!(fscb, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_record_appends_to_v2_trajectory() {
        let dir = tmp_dir("bench_record");
        let lines = dir.join("criterion.jsonl");
        let out = dir.join("bench.json");
        // Seed a v2 file with one snapshot.
        std::fs::write(
            &out,
            r#"{"schema":"fixy-bench-snapshot/v2","snapshots":[{"recorded":"2026-07-30","toolchain":"rustc x","host":{"cpus":1},"benches":[{"id":"a/b","median_ns":5.0,"samples":10}]}]}"#,
        )
        .unwrap();
        // Two records for one id: the re-run median must win.
        std::fs::write(
            &lines,
            "{\"id\":\"a/b\",\"median_ns\":3.0,\"samples\":10}\n{\"id\":\"a/b\",\"median_ns\":2.0,\"samples\":10}\n{\"id\":\"c/d\",\"median_ns\":7.5,\"samples\":5}\n",
        )
        .unwrap();
        let cmd = parse(&argv(&format!(
            "bench-record --json {} --out {} --note unit-test",
            lines.display(),
            out.display()
        )))
        .unwrap();
        let msg = run(cmd).unwrap();
        assert!(msg.contains("2 bench medians"), "{msg}");
        assert!(msg.contains("2 snapshots"), "{msg}");

        let merged = serde_json::parse_value(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            merged.get("schema").and_then(serde::Value::as_str),
            Some("fixy-bench-snapshot/v2")
        );
        let snapshots = merged.get("snapshots").and_then(serde::Value::as_array).unwrap();
        assert_eq!(snapshots.len(), 2);
        // First point is the seeded snapshot, kept as it was.
        assert_eq!(
            snapshots[0].get("recorded").and_then(serde::Value::as_str),
            Some("2026-07-30")
        );
        // Second point carries the merged medians with last-wins dedupe.
        let benches = snapshots[1].get("benches").and_then(serde::Value::as_array).unwrap();
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].get("id").and_then(serde::Value::as_str), Some("a/b"));
        assert!(matches!(
            benches[0].get("median_ns"),
            Some(serde::Value::Float(x)) if (*x - 2.0).abs() < 1e-9
        ));
        let host = snapshots[1].get("host").unwrap();
        assert_eq!(host.get("note").and_then(serde::Value::as_str), Some("unit-test"));

        // Appending again grows the trajectory without disturbing history.
        let cmd = parse(&argv(&format!(
            "bench-record --json {} --out {}",
            lines.display(),
            out.display()
        )))
        .unwrap();
        run(cmd).unwrap();
        let merged = serde_json::parse_value(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            merged
                .get("snapshots")
                .and_then(serde::Value::as_array)
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn bench_record_refuses_file_without_snapshots() {
        let dir = tmp_dir("bench_record_refuse");
        let lines = dir.join("criterion.jsonl");
        let out = dir.join("bench.json");
        // A single-snapshot (v1) file has no `snapshots` array.
        let v1 = r#"{"schema":"fixy-bench-snapshot/v1","recorded":"2026-07-30","toolchain":"rustc x","host":{"cpus":1},"benches":[{"id":"a/b","median_ns":5.0,"samples":10}]}"#;
        std::fs::write(&out, v1).unwrap();
        std::fs::write(&lines, "{\"id\":\"a/b\",\"median_ns\":3.0,\"samples\":10}\n").unwrap();
        let cmd = parse(&argv(&format!(
            "bench-record --json {} --out {}",
            lines.display(),
            out.display()
        )))
        .unwrap();
        match run(cmd) {
            Err(crate::CliError::Invalid(msg)) => {
                assert!(msg.contains(&out.display().to_string()), "{msg}");
                assert!(msg.contains("snapshots"), "{msg}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            v1,
            "the file must be left untouched"
        );
    }

    #[test]
    fn render_chunks_orders_by_scene_id_then_index() {
        // The pipeline returns scenes in input order; the printer alone
        // merges them by scene id, then input index for duplicate ids.
        let chunk = |id: &str, index: usize| super::SceneChunk {
            id: id.to_string(),
            index,
            body: format!("{id}#{index}\n"),
            candidates: 1,
        };
        let chunks = vec![chunk("b", 0), chunk("a", 3), chunk("c", 1), chunk("a", 2)];
        let out = super::render_chunks("header", chunks, 4);
        assert_eq!(out, "header\na#2\na#3\nb#0\nc#1\n4 candidate(s) across 4 scene(s)\n");
    }

    #[test]
    fn civil_date_formats() {
        assert_eq!(super::civil_date(0), "1970-01-01");
        assert_eq!(super::civil_date(19_723), "2024-01-01");
        assert_eq!(super::civil_date(20_665), "2026-07-31");
    }

    #[test]
    fn help_prints_usage() {
        let out = run(parse(&[]).unwrap()).unwrap();
        assert!(out.contains("USAGE"));
    }
}
