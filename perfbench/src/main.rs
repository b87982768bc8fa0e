//! The repository benchmark: three workloads over the verification crates,
//! each checked against known answers.
//!
//! ```text
//! perfbench --workload table1-paper|chains-warm|verifyd-open --seed N \
//!           --seconds S --trace 0|1 [--verifyd PATH] [--work DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! is a separate run that reports the per-layer metrics. The last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); the lines before it print every metric by name with its
//! unit. See `perfbench/README.md` for the workloads and metric
//! definitions.

mod chains;
mod daemon;
mod inputs;
mod layers;
mod oracle;
mod races;
mod stats;
mod table1;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub verifyd: Option<PathBuf>,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut verifyd = None;
    let mut work = PathBuf::from(".perfbench_work");
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--verifyd" => verifyd = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        verifyd,
        work,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "table1-paper" => table1::run(&args, process_start),
        "chains-warm" => chains::run(&args, process_start),
        "verifyd-open" => daemon::run(&args, process_start),
        other => Err(format!(
            "unknown workload `{other}` (table1-paper, chains-warm, verifyd-open)"
        )),
    };
    match result {
        Ok(report) => report.print(args.trace),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(1)
        }
    }
}
