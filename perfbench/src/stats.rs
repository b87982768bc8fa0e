//! Seeded randomness, percentiles, memory readings and the result report.

use std::process::ExitCode;

/// SplitMix64: a tiny, seedable generator so every input is a pure function
/// of the workload seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn bits(&mut self, len: usize) -> Vec<bool> {
        (0..len).map(|_| self.next() & 1 == 1).collect()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `VmHWM` (peak resident set) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// One request of a timed window.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Input kind, for the per-kind summary on stderr.
    pub kind: &'static str,
    /// Time to verdict (from submit, or from the due time in the open loop);
    /// undecided and failed requests count at their full elapsed time.
    pub latency_ms: f64,
    /// Verified units (pairs, or chain steps).
    pub units: usize,
    /// Conclusive verdict (`Equivalent`, up to global phase, `NotEquivalent`).
    pub decided: bool,
    /// Verdicts contradicting the known answer, plus wrong guilty passes.
    pub wrong: usize,
    /// Error, admission reject or cancellation.
    pub failed: bool,
}

/// Measured end-to-end figures of one timed window.
pub struct Window {
    pub samples: Vec<Sample>,
    pub seconds: f64,
}

impl Window {
    pub fn pairs_per_s(&self) -> f64 {
        self.samples.iter().map(|s| s.units).sum::<usize>() as f64 / self.seconds
    }
}

/// Everything one run reports.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub wrong: usize,
    /// `(name, value, unit)`, every end-to-end metric of the run.
    pub end_to_end: Vec<(String, f64, &'static str)>,
    /// `(name, value, unit)`, filled by traced runs only.
    pub per_layer: Vec<(String, f64, &'static str)>,
    /// Why the run's figures cannot be trusted (e.g. a late generator).
    pub invalid: Option<String>,
}

/// End-to-end metrics that are allowed to read 0 and therefore ride in the
/// per-layer set of the JSON result; they still print here and still fail
/// the run when non-zero.
const ZERO_AT_BASELINE: [&str; 2] = ["wrong_verdicts", "failed_frac"];

impl Report {
    /// Builds the report of a window: the eight end-to-end metrics.
    pub fn from_window(window: &Window, setup_s: f64, peak_rss_mb: f64, tail_q: f64) -> Report {
        let samples = &window.samples;
        let mut kinds: Vec<&'static str> = samples.iter().map(|s| s.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        for kind in kinds {
            let of_kind: Vec<&Sample> = samples.iter().filter(|s| s.kind == kind).collect();
            let times: Vec<f64> = of_kind.iter().map(|s| s.latency_ms).collect();
            eprintln!(
                "kind {kind:<16} n {:>5} p50 {:>10.3} ms max {:>10.3} ms undecided {:>4} failed {:>4}",
                of_kind.len(),
                median(&times),
                times.iter().copied().fold(0.0, f64::max),
                of_kind.iter().filter(|s| !s.decided).count(),
                of_kind.iter().filter(|s| s.failed).count(),
            );
        }
        let attempted = samples.len();
        let failed = samples.iter().filter(|s| s.failed).count();
        let wrong: usize = samples.iter().map(|s| s.wrong).sum();
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        eprintln!(
            "latency n {} p50 {:.3} p75 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} ms",
            latencies.len(),
            median(&latencies),
            quantile(&latencies, 0.75),
            quantile(&latencies, 0.90),
            quantile(&latencies, 0.95),
            quantile(&latencies, 0.99)
        );
        let decided = samples.iter().filter(|s| s.decided).count();
        let share = |n: usize| n as f64 / attempted.max(1) as f64;
        Report {
            attempted,
            failed,
            wrong,
            end_to_end: vec![
                ("setup_s".into(), setup_s, "s"),
                ("pairs_per_s".into(), window.pairs_per_s(), "1/s"),
                ("verdict_p50_ms".into(), median(&latencies), "ms"),
                ("verdict_tail_ms".into(), quantile(&latencies, tail_q), "ms"),
                ("decided_frac".into(), share(decided), "fraction"),
                ("wrong_verdicts".into(), wrong as f64, "count"),
                ("failed_frac".into(), share(failed), "fraction"),
                ("peak_rss_mb".into(), peak_rss_mb, "MB"),
            ],
            per_layer: Vec::new(),
            invalid: None,
        }
    }

    pub fn end_to_end_value(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    /// Prints every metric by name with its unit, then the JSON result line.
    /// Exits non-zero on a wrong verdict or an invalid run.
    pub fn print(mut self, traced: bool) -> ExitCode {
        for (name, value, unit) in &self.end_to_end {
            println!("{name:<40} {value:>14.6} {unit}");
        }
        if traced {
            for (name, value, unit) in &self.per_layer {
                println!("{name:<40} {value:>14.6} {unit}");
            }
        }
        println!(
            "attempted {} failed {} wrong_verdicts {}",
            self.attempted, self.failed, self.wrong
        );
        if let Some(reason) = &self.invalid {
            println!("INVALID RUN: {reason}");
        }
        let correct = self.wrong == 0 && self.invalid.is_none();
        let mut chosen: Vec<(String, f64, &'static str)> = if traced {
            std::mem::take(&mut self.per_layer)
        } else {
            self.end_to_end
                .iter()
                .filter(|(n, _, _)| !ZERO_AT_BASELINE.contains(&n.as_str()))
                .cloned()
                .collect()
        };
        if traced {
            for name in ZERO_AT_BASELINE {
                chosen.push((name.to_string(), self.end_to_end_value(name), "count"));
            }
            if let Some(entry) = chosen.iter_mut().find(|(n, _, _)| n == "failed_frac") {
                entry.2 = "fraction";
            }
        }
        let metrics: Vec<String> = chosen
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}
