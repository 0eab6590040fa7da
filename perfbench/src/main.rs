//! The LOA auditor's benchmark: three workloads measured end to end
//! (untraced runs) and layer by layer (traced runs).
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--mini]
//! perfbench gen --workload <name> --seed <n> [--mini]
//! ```
//!
//! `run` first starts a child `gen` process, which generates the seed's
//! scenes if they are not on disk yet and, with this build, ranks and
//! grades them for the expected outputs. It then sets the system up
//! several times and measures. The last line of standard output is the
//! JSON result; the exit code is non-zero when any output was wrong or
//! any operation failed. See README.md for the workloads and the metric
//! map.

mod audit;
mod batch;
mod inputs;
mod live;
mod measure;
mod report;
mod setup;
mod spec;
mod trace;

pub use measure::Measured;
use report::{Metrics, Tally};
use spec::{Sizes, Workload};
use std::process::ExitCode;
use std::time::Instant;

pub type Res<T> = Result<T, String>;

#[derive(Debug)]
struct Args {
    gen: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mini: bool,
}

fn parse_args() -> Res<Args> {
    let mut argv = std::env::args().skip(1);
    let gen = match argv.next().as_deref() {
        Some("run") => false,
        Some("gen") => true,
        other => return Err(format!("expected `run` or `gen`, got {other:?}")),
    };
    let mut args = Args {
        gen,
        workload: Workload::CorpusAudit,
        seed: 1,
        seconds: 10.0,
        trace: false,
        mini: false,
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        if flag == "--mini" {
            args.mini = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Make the seed's inputs and this build's expected outputs in a child
/// process.
fn prepare_inputs(args: &Args) -> Res<()> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["gen", "--workload", args.workload.name(), "--seed", &args.seed.to_string()]);
    if args.mini {
        cmd.arg("--mini");
    }
    let status = cmd.status().map_err(|e| format!("spawn generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generation failed ({status})"));
    }
    Ok(())
}

fn gen(args: &Args) -> Res<()> {
    let dir = inputs::dir(args.workload, args.seed, args.mini)?;
    if !dir.join("DONE").exists() {
        let tmp = dir.with_extension("tmp");
        let _ = std::fs::remove_dir_all(&tmp);
        inputs::generate(args.workload, args.seed, args.mini, &tmp)?;
        std::fs::write(tmp.join("DONE"), "").map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::rename(&tmp, &dir).map_err(|e| e.to_string())?;
    }
    inputs::expect(args.workload, &dir)?;
    inputs::prune(args.workload, args.mini)
}

fn run(args: &Args) -> Res<(Metrics, Tally)> {
    // Two batch workers: the pipeline sizes its pool from this.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let dir = inputs::dir(args.workload, args.seed, args.mini)?;
    prepare_inputs(args)?;
    let reference = inputs::Reference::take(&dir)?;
    let sizes = Sizes::of(args.workload, args.mini);
    let apps = inputs::apps(args.workload);
    // The traced run serves missing-tracks on every workload.
    let served = args.workload != Workload::CorpusAudit || args.trace;

    // Set up several times; `setup_s` is the median of the set-ups the
    // host left alone. The last set-up is the one measured against.
    let mut setups = Vec::with_capacity(sizes.setups);
    let mut ready = None;
    let mut calibrator = measure::Calibrator::default();
    for _ in 0..sizes.setups {
        drop(ready.take());
        let mut times = setup::SetupTimes::default();
        let before = calibrator.slowdown();
        let (began, steal0) = (Instant::now(), report::steal_seconds());
        ready = Some(setup::setup(&dir, apps, served, &mut times)?);
        times.steal_share = measure::steal_share(steal0, began.elapsed().as_secs_f64());
        times.slowdown = (before + calibrator.slowdown()) / 2.0;
        setups.push(times);
    }
    let setups: Vec<setup::SetupTimes> = measure::least_robbed(&setups, |s| s.steal_share)
        .into_iter()
        .copied()
        .collect();
    let ready = ready.ok_or("no set-up ran")?;
    let paths = setup::scene_paths(&dir.join("scenes"))?;
    let mut tally = Tally::default();

    if args.trace {
        let metrics = trace::run(
            args.workload,
            args.seed,
            &sizes,
            &ready,
            &reference,
            &paths,
            &setups,
            &mut tally,
        )?;
        return Ok((metrics, tally));
    }

    let (cpu0, steal0, wall0) = (report::cpu_split(), report::steal_seconds(), Instant::now());
    let measured = match args.workload {
        Workload::CorpusAudit => batch::run(&ready, &reference, &paths, args.seconds, &mut tally),
        Workload::FleetLive | Workload::SessionChurn => {
            let scenes: Vec<_> = paths.iter().map(|p| setup::read_scene(p)).collect::<Res<_>>()?;
            let expected = reference.expected(audit::App::MissingTracks);
            let stop = live::Stop::After(args.seconds);
            live::pin_to_current_cpu()?;
            live::with_server(&ready, |addr| {
                let mut client = live::Client::connect(addr)?;
                match args.workload {
                    Workload::FleetLive => live::fleet(
                        &mut client,
                        &scenes,
                        expected,
                        sizes.concurrent,
                        stop,
                        &mut tally,
                    ),
                    _ => live::churn(
                        &mut client,
                        args.seed,
                        &scenes,
                        expected,
                        sizes.concurrent,
                        stop,
                        &mut tally,
                    ),
                }
            })?
        }
    };

    eprintln!(
        "measured for {:.2} s wall, {:.2} s user and {:.2} s system CPU; the host stole {:.2} CPU-s meanwhile",
        wall0.elapsed().as_secs_f64(),
        report::cpu_split().0 - cpu0.0,
        report::cpu_split().1 - cpu0.1,
        report::steal_seconds() - steal0
    );
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total() / s.slowdown).collect();
    eprintln!("{} set-ups kept of {}", setups.len(), sizes.setups);
    let mut m = Metrics::default();
    m.add("setup_s", report::median(&setup_s), "s");
    let sum = measured.summary();
    m.add("frames_per_s", sum.frames_per_s, "1/s");
    eprintln!(
        "the calibration kernel ran {:.3}× its reference time (median of the kept units); unscaled, frames_per_s would read about {:.1}",
        sum.slowdown,
        sum.frames_per_s / sum.slowdown
    );
    // p90 is the highest percentile whose spread over seeds holds a
    // bound on this host (see README.md).
    let mut frame_ms = sum.frame_ms;
    for (name, q) in [("frame_latency_p50_ms", 0.50), ("frame_latency_p90_ms", 0.90)] {
        m.add(name, report::weighted_percentile(&mut frame_ms, q), "ms");
        report_samples(name, frame_ms.len(), q);
    }
    for (name, q) in [("session_latency_p50_ms", 0.50), ("session_latency_p90_ms", 0.90)] {
        m.add(name, report::percentile(&sum.session_ms, q), "ms");
        report_samples(name, sum.session_ms.len(), q);
    }
    m.add("peak_rss_mb", report::peak_rss_mb(), "MiB");
    m.add("injected_mrr", reference.grade.mrr(), "ratio");
    m.add("recall_at_10", reference.grade.recall_at_10(), "ratio");
    eprintln!(
        "{} of {} measured units kept (host stole at most 2% of their CPU time, or the least-robbed half); \
         {} injected errors graded",
        sum.kept, sum.units, reference.grade.errors
    );
    Ok((m, tally))
}

/// Print how many of `n` samples lie beyond the nearest-rank percentile
/// `q`, and warn when that is fewer than ten.
fn report_samples(name: &str, n: usize, q: f64) {
    let beyond = n - (q * n as f64).ceil() as usize;
    let warning = if beyond < 10 { " (fewer than ten: read it as a near-maximum)" } else { "" };
    eprintln!("{name}: {n} samples, {beyond} beyond it{warning}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.gen {
        return match gen(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (metrics, tally) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = tally.failed == 0 && metrics.all_finite();
    eprintln!(
        "{} seed {} ({}): {} operations, {} failed (failed_share {})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        tally.attempted,
        tally.failed,
        tally.failed_share()
    );
    for reason in &tally.reasons {
        eprintln!("  failure: {reason}");
    }
    eprint!("{}", metrics.table());
    println!(
        "{}",
        metrics.result_line(correct, tally.attempted.max(1), tally.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
