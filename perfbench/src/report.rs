//! Percentiles, the result line, and process memory.

use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    weighted_percentile(&mut samples.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(), q)
}

/// Nearest-rank percentile where each sample carries a weight.
pub fn weighted_percentile(samples: &mut [(f64, f64)], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = samples.iter().map(|s| s.1).sum();
    let target = q * total;
    let mut acc = 0.0;
    for &(v, w) in samples.iter() {
        acc += w;
        if acc >= target {
            return v;
        }
    }
    samples[samples.len() - 1].0
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User and system CPU seconds this process has used (all threads, live
/// and exited), from `/proc/self/stat` (clock ticks of 10 ms).
pub fn cpu_split() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |r| r.1);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    tick(11)
        .zip(tick(12))
        .map_or((f64::NAN, f64::NAN), |(u, s)| (u / 100.0, s / 100.0))
}

/// Time the host took from this machine's CPUs (`steal` in
/// `/proc/stat`), in seconds summed over CPUs.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    /// One JSON object, the run's last line of standard output.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a metric that could not be
            // measured is a null, which fails the run's checks.
            let value = if value.is_finite() { format!("{value:?}") } else { "null".into() };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }

    /// Human-readable table for standard error.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.rows {
            let _ = writeln!(out, "  {name:<44} {value:>14.4} {unit}");
        }
        out
    }

    pub fn all_finite(&self) -> bool {
        self.rows.iter().all(|r| r.1.is_finite())
    }
}

/// Outcome tally of a run: every operation attempted, and each failure
/// with its reason (the first few are printed).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(reason());
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
