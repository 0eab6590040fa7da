//! corpus-audit: all five apps rank the on-disk corpus through
//! `ScenePipeline::process_stream` with two workers.

use crate::audit::{self, with_ranker, App};
use crate::inputs::Reference;
use crate::report::Tally;
use crate::setup::Ready;
use crate::Measured;
use fixy_core::ScenePipeline;
use std::cell::Cell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

thread_local! {
    /// When the calling worker started loading its current scene; the
    /// pipeline runs load, rank and `post` for one scene on one thread.
    static LOAD_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// One scene's result under one app, as the pipeline's `post` sees it.
struct Row {
    digest: u64,
    len: usize,
    frames: usize,
    latency: Duration,
}

/// Rank every scene with every app in `apps`, once, and check each
/// worklist against the sequential reference. Adds each scene's latency
/// to `m` and returns the corpus frames ranked per app.
pub fn pass(
    ready: &Ready,
    reference: &Reference,
    apps: &[App],
    paths: &[PathBuf],
    m: &mut Measured,
    tally: &mut Tally,
) -> usize {
    let mut frames = 0;
    for &app in apps {
        let library = ready.library(app);
        let rows = with_ranker!(app, |r| ScenePipeline::new(r).process_stream(
            library,
            paths.to_vec(),
            |p: PathBuf| {
                LOAD_START.with(|t| t.set(Some(Instant::now())));
                loa_ingest::read_scene(&p)
            },
            |rs| Row {
                digest: audit::digest(&rs.candidates),
                len: rs.candidates.len(),
                frames: rs.data.frames.len(),
                latency: LOAD_START.with(Cell::get).map_or(Duration::ZERO, |t0| t0.elapsed()),
            },
        ));
        let rows = match rows {
            Ok(rows) => rows,
            Err(e) => {
                tally.fail(format!("{} pipeline: {e}", app.name()));
                continue;
            }
        };
        let expected = reference.expected(app);
        tally.check(rows.len() == expected.len(), || {
            format!(
                "{}: {} scenes ranked, {} expected",
                app.name(),
                rows.len(),
                expected.len()
            )
        });
        for (i, (row, want)) in rows.iter().zip(expected).enumerate() {
            tally.check(row.digest == want.digest && row.len == want.len, || {
                format!(
                    "{} scene {i}: worklist differs from the sequential reference",
                    app.name()
                )
            });
            let ms = row.latency.as_secs_f64() * 1e3;
            m.session_ms.push(ms);
            m.frame_ms.push((ms, row.frames as f64));
            frames += row.frames;
        }
    }
    frames / apps.len().max(1)
}

/// Audit the corpus with every app, pass after pass, until `seconds`
/// have gone by (whole passes only, so every run audits the same mix).
pub fn run(
    ready: &Ready,
    reference: &Reference,
    paths: &[PathBuf],
    seconds: f64,
    tally: &mut Tally,
) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    loop {
        // A pass covers each corpus frame once, ranked by all five apps.
        m.start_unit();
        let frames = pass(ready, reference, &App::ALL, paths, &mut m, tally);
        m.end_unit(0, frames);
        if start.elapsed().as_secs_f64() >= seconds {
            return m;
        }
    }
}
