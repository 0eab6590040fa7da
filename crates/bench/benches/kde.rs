//! KDE microbenchmarks: fitting (which builds the scoring grid) and
//! evaluation, exact vs grid — the distribution-learning substrate behind
//! every learned feature — and `learner_fit`, the five registry apps'
//! library fits over an assembled fuzzed training corpus, on one worker
//! (`sequential`) and on the worker pool (`parallel`, `RAYON_NUM_THREADS`
//! or the machine's parallelism).
//!
//! Set `FIXY_BENCH_SMOKE=1` to run the smallest training set of each group
//! with 3 samples — the CI smoke mode that keeps the bench compiling *and*
//! executing (`learner_fit/{sequential,parallel}/2` on default-profile
//! scenes; a full run fits on 40 ~15 s scenes at 10 Hz, the corpus-audit
//! benchmark's training set shape).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fixy_core::apps::App;
use fixy_core::{Learner, Scene};
use loa_data::fuzz::{FuzzProfile, ScenarioFuzzer};
use loa_stats::{Density1d, Kde1d};
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Training-set sizes: all of them, or only the smallest in smoke mode.
fn sizes() -> &'static [usize] {
    if smoke() {
        &[100]
    } else {
        &[100, 1_000, 10_000]
    }
}

fn samples(n: usize) -> Vec<f64> {
    // Deterministic pseudo-random mixture: two modes, like real volume
    // distributions (cars + trucks).
    (0..n)
        .map(|i| {
            let u = ((i.wrapping_mul(2654435761)) % 1000) as f64 / 1000.0;
            if i % 4 == 0 {
                60.0 + u * 25.0
            } else {
                12.0 + u * 6.0
            }
        })
        .collect()
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("kde_fit");
    group.sample_size(if smoke() { 3 } else { 20 });
    for &n in sizes() {
        let xs = samples(n);
        group.bench_with_input(BenchmarkId::new("exact", n), &xs, |b, xs| {
            b.iter(|| black_box(Kde1d::fit(black_box(xs)).unwrap().grid().bins()))
        });
    }
    group.finish();
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("kde_eval");
    group.sample_size(if smoke() { 3 } else { 20 });
    for &n in sizes() {
        let xs = samples(n);
        let kde = Kde1d::fit(&xs).unwrap();
        let binned = kde.grid();
        group.bench_with_input(BenchmarkId::new("exact", n), &kde, |b, kde| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in 0..100 {
                    acc += kde.relative_likelihood(black_box(q as f64));
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("binned", n), binned, |b, binned| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in 0..100 {
                    acc += binned.relative_likelihood(black_box(q as f64));
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// Fit every registry app's library from scenes assembled once per app
/// up front, so only value collection and the KDE fits are timed.
fn bench_learner_fit(c: &mut Criterion) {
    let (n_scenes, profile) = if smoke() {
        (2, FuzzProfile::default())
    } else {
        // The corpus-audit benchmark's training scenes: ~15 s at 10 Hz.
        let profile = FuzzProfile {
            duration: (14.5, 15.5),
            frame_dt: 0.1,
            extra_actors: (14, 18),
            ..FuzzProfile::default()
        };
        (40, profile)
    };
    let training = ScenarioFuzzer::new(7).with_profile(profile).training_corpus(n_scenes);
    let apps: Vec<(App, Vec<Scene>)> = App::ALL
        .into_iter()
        .map(|app| {
            let cfg = app.train_assembly();
            (app, training.iter().map(|s| Scene::assemble(s, &cfg)).collect())
        })
        .collect();
    let fit_all = || {
        for (app, scenes) in &apps {
            let learner = Learner { assembly: app.train_assembly() };
            let library = learner.fit_assembled(&app.feature_set(), black_box(scenes));
            black_box(library.expect("fit").len());
        }
    };

    let mut group = c.benchmark_group("learner_fit");
    group.sample_size(if smoke() { 3 } else { 10 });
    // The worker count is read per fit; the bench's main thread is the
    // only thread when it is set and restored.
    let workers = std::env::var_os("RAYON_NUM_THREADS");
    std::env::set_var("RAYON_NUM_THREADS", "1");
    group.bench_function(BenchmarkId::new("sequential", n_scenes), |b| b.iter(fit_all));
    match &workers {
        Some(n) => std::env::set_var("RAYON_NUM_THREADS", n),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    group.bench_function(BenchmarkId::new("parallel", n_scenes), |b| b.iter(fit_all));
    group.finish();
}

criterion_group!(benches, bench_fit, bench_eval, bench_learner_fit);
criterion_main!(benches);
