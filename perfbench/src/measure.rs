//! Raw samples of an untraced run, grouped into measured units, and
//! their reduction to the end-to-end figures.
//!
//! A unit is a stretch of work that repeats through the run: a corpus
//! pass, one set of fleet sessions, a window of churned frames. Each
//! unit records how much CPU time the host took from this machine while
//! it ran (`steal` in `/proc/stat`). On a shared host that theft comes
//! in bursts of seconds and slows every thread by up to half, so the
//! figures are taken from the units the host left alone: those with at
//! most [`CLEAN_STEAL_SHARE`] of their CPU time stolen, or the
//! least-robbed half of the units when fewer than half are that clean.
//!
//! The host's CPUs also change speed by a quarter or more from minute to
//! minute with no theft at all, as the load on the rest of the machine
//! changes. So a [`Calibrator`] kernel runs before and after every unit,
//! and every time of the unit is divided by how much slower than the
//! reference the kernel ran: the figures are times on the reference
//! host, and a change to the program moves them while the host's speed
//! does not.

use crate::report;
use std::time::Instant;

/// A unit whose stolen share of CPU time is at most this counts as
/// clean.
const CLEAN_STEAL_SHARE: f64 = 0.02;

/// The items the host left alone: those with at most
/// [`CLEAN_STEAL_SHARE`] of their CPU time stolen, or the least-robbed
/// half when fewer than half are that clean.
pub fn least_robbed<T>(items: &[T], steal_share: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut order: Vec<&T> = items.iter().collect();
    order.sort_by(|a, b| steal_share(a).total_cmp(&steal_share(b)));
    let clean = order.iter().filter(|x| steal_share(x) <= CLEAN_STEAL_SHARE).count();
    order.truncate(clean.max(items.len().div_ceil(2)));
    order
}

/// The share of this machine's CPU time the host took since `steal0`
/// (a [`report::steal_seconds`] reading) over `seconds` of wall time.
pub fn steal_share(steal0: f64, seconds: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    (report::steal_seconds() - steal0) / (seconds * cpus)
}

/// Seconds one calibration kernel takes on the reference host: the
/// 2-CPU virtual machine the bounds were set on, when quiet.
const REFERENCE_KERNEL_S: f64 = 0.0018;

/// Measures how fast the CPU runs right now, with a fixed piece of work
/// that uses nothing of the program: a random walk over 1 MiB of floats
/// with `exp` and `ln` on each step, about 2 ms.
#[derive(Debug, Default)]
pub struct Calibrator {
    buf: Vec<f64>,
}

impl Calibrator {
    /// How much slower than the reference host this CPU runs right now
    /// (below 1: faster).
    pub fn slowdown(&mut self) -> f64 {
        if self.buf.is_empty() {
            self.buf = (0..1 << 17).map(|i| 1.0 + f64::from(i) * 1e-6).collect();
        }
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0.0f64;
        for _ in 0..40_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (self.buf.len() - 1);
            acc += (self.buf[i].ln() * 0.5).exp();
            self.buf[i] = acc.fract() + 1.0;
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() / REFERENCE_KERNEL_S
    }
}

#[derive(Debug)]
struct Unit {
    /// Units with equal keys do the same work (the same fleet set).
    key: usize,
    frames: f64,
    seconds: f64,
    steal_share: f64,
    slowdown: f64,
    frame_ms: Vec<(f64, f64)>,
    session_ms: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct Measured {
    units: Vec<Unit>,
    open: Option<(Instant, f64, f64)>,
    calibrator: Calibrator,
    /// Per-frame latency samples of the open unit, in ms, each with a
    /// weight (a batch-audited scene stands for all of its frames).
    pub frame_ms: Vec<(f64, f64)>,
    /// Per-session latency samples of the open unit, in ms.
    pub session_ms: Vec<f64>,
}

/// The end-to-end figures of a run.
#[derive(Debug)]
pub struct Summary {
    pub frames_per_s: f64,
    pub frame_ms: Vec<(f64, f64)>,
    pub session_ms: Vec<f64>,
    pub units: usize,
    pub kept: usize,
    /// Median slowdown of the kept units against the reference host.
    pub slowdown: f64,
}

impl Measured {
    /// Start a unit; samples recorded from now on belong to it.
    pub fn start_unit(&mut self) {
        self.frame_ms.clear();
        self.session_ms.clear();
        let slowdown = self.calibrator.slowdown();
        self.open = Some((Instant::now(), report::steal_seconds(), slowdown));
    }

    /// End the open unit, which ingested `frames` frames.
    pub fn end_unit(&mut self, key: usize, frames: usize) {
        let Some((began, steal, before)) = self.open.take() else { return };
        let seconds = began.elapsed().as_secs_f64();
        let slowdown = (before + self.calibrator.slowdown()) / 2.0;
        self.units.push(Unit {
            key,
            frames: frames as f64,
            seconds,
            steal_share: steal_share(steal, seconds),
            slowdown,
            frame_ms: std::mem::take(&mut self.frame_ms),
            session_ms: std::mem::take(&mut self.session_ms),
        });
    }

    pub fn has_units(&self) -> bool {
        !self.units.is_empty()
    }

    /// Session latency samples in the units [`Measured::summary`] keeps.
    pub fn kept_sessions(&self) -> usize {
        least_robbed(&self.units, |u| u.steal_share)
            .iter()
            .map(|u| u.session_ms.len())
            .sum()
    }

    /// Throughput from the clean units: per key, the median time of its
    /// units, then all keys' frames over the sum of those times. Latency
    /// samples are those of the clean units.
    pub fn summary(&self) -> Summary {
        let order: Vec<&Unit> = self.units.iter().collect();
        let kept = &least_robbed(&self.units, |u| u.steal_share)[..];

        let mut keys: Vec<usize> = self.units.iter().map(|u| u.key).collect();
        keys.sort_unstable();
        keys.dedup();
        let (mut frames, mut seconds) = (0.0, 0.0);
        for key in keys {
            let pick = |units: &[&Unit]| -> Vec<f64> {
                units
                    .iter()
                    .filter(|u| u.key == key)
                    .map(|u| u.seconds / u.slowdown)
                    .collect()
            };
            // A key whose every unit was robbed falls back to all of them.
            let times = match pick(kept) {
                t if t.is_empty() => pick(&order),
                t => t,
            };
            frames += self.units.iter().find(|u| u.key == key).map_or(0.0, |u| u.frames);
            seconds += report::median(&times);
        }
        Summary {
            frames_per_s: frames / seconds,
            frame_ms: kept
                .iter()
                .flat_map(|u| u.frame_ms.iter().map(|&(ms, w)| (ms / u.slowdown, w)))
                .collect(),
            session_ms: kept
                .iter()
                .flat_map(|u| u.session_ms.iter().map(|ms| ms / u.slowdown))
                .collect(),
            slowdown: report::median(&kept.iter().map(|u| u.slowdown).collect::<Vec<_>>()),
            units: self.units.len(),
            kept: kept.len(),
        }
    }
}
