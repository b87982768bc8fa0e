//! Batch portfolio-verification driver.
//!
//! ```text
//! verify --manifest pairs.json [options]
//! verify --dir path/to/qasm/   [options]
//! verify --chain a.qasm,b.qasm,c.qasm [options]
//!
//! `--chain` verifies one compilation pipeline pass-by-pass (adjacent
//! snapshots, in order, comma-separated), one race per step; repeat the
//! flag for several pipelines. A refutation names the guilty pass
//! (`chain:step2` style). Manifests mix freely: a `chains` array next to
//! `pairs` does the same thing (see `portfolio::batch`).
//!
//! options:
//!   --out FILE        write the JSON report to FILE (default: stdout)
//!   --workers N       pair-level worker threads (default: cores / 4)
//!   --node-limit N    per-scheme decision-diagram node budget
//!   --leaf-limit N    extraction leaf budget for the fixed-input scheme
//!   --deadline SECS   wall-clock deadline per pair (fractional seconds ok)
//!   --stats-file FILE persistent scheme telemetry: loaded before the batch,
//!                     folded with this batch's telemetry, saved back after.
//!                     Switches the scheduler to the predicted policy (top-2
//!                     launch, escalate on stall) unless --policy race is
//!                     given; with an empty/missing file the scheduler
//!                     degrades to racing everything.
//!   --policy P        race | predicted — force the launch policy
//!                     (predicted without --stats-file plans from an empty
//!                     store, i.e. races)
//!   --private-packages race schemes on private DD packages, never a shared
//!                     store (for sharing/contention comparisons). Without
//!                     it the *scheduler* decides per pair: the race policy
//!                     always shares, the predicted policy shares only when
//!                     the bucket's recorded sharing telemetry says it pays
//!                     (the decision+reason land in each pair's metrics
//!                     block and the race.plan trace event)
//!   --trace-file FILE write a structured JSONL trace of the run: pair and
//!                     race spans, scheme launches, verdicts, cancellations,
//!                     escalations and GC-barrier activity, all
//!                     tagged with pair/scheme/span correlation IDs. Off by
//!                     default and free when off.
//!   --metrics         print the folded hot-path metric counters (cache hit
//!                     rates, GC and contention totals) to stderr after the
//!                     batch (implied by --trace-file)
//!   --compact         emit compact instead of pretty-printed JSON
//! ```
//!
//! The exit code is 0 when every pair verified as equivalent, 1 when any
//! pair was non-equivalent or failed, and 2 on usage errors.

use portfolio::batch::{load_manifest, manifest_from_dir, run_batch, BatchOptions, Manifest};
use portfolio::chain::{ChainSpec, ChainStepSpec};
use portfolio::SchedulePolicy;
use std::path::PathBuf;

struct Args {
    manifest: Option<PathBuf>,
    dir: Option<PathBuf>,
    chains: Vec<String>,
    out: Option<PathBuf>,
    workers: Option<usize>,
    node_limit: Option<usize>,
    leaf_limit: Option<usize>,
    deadline: Option<f64>,
    stats_file: Option<PathBuf>,
    policy: Option<String>,
    private_packages: bool,
    trace_file: Option<PathBuf>,
    metrics: bool,
    compact: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        manifest: None,
        dir: None,
        chains: Vec::new(),
        out: None,
        workers: None,
        node_limit: None,
        leaf_limit: None,
        deadline: None,
        stats_file: None,
        policy: None,
        private_packages: false,
        trace_file: None,
        metrics: false,
        compact: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--manifest" => args.manifest = Some(PathBuf::from(value("--manifest")?)),
            "--dir" => args.dir = Some(PathBuf::from(value("--dir")?)),
            "--chain" => args.chains.push(value("--chain")?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--workers" => {
                args.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "invalid --workers")?,
                )
            }
            "--node-limit" => {
                args.node_limit = Some(
                    value("--node-limit")?
                        .parse()
                        .map_err(|_| "invalid --node-limit")?,
                )
            }
            "--leaf-limit" => {
                args.leaf_limit = Some(
                    value("--leaf-limit")?
                        .parse()
                        .map_err(|_| "invalid --leaf-limit")?,
                )
            }
            "--deadline" => {
                let seconds: f64 = value("--deadline")?
                    .parse()
                    .map_err(|_| "invalid --deadline")?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--deadline must be a positive number of seconds".to_string());
                }
                args.deadline = Some(seconds);
            }
            "--stats-file" => args.stats_file = Some(PathBuf::from(value("--stats-file")?)),
            "--policy" => {
                let policy = value("--policy")?;
                if policy != "race" && policy != "predicted" {
                    return Err(format!(
                        "--policy must be `race` or `predicted`, got `{policy}`"
                    ));
                }
                args.policy = Some(policy);
            }
            "--private-packages" => args.private_packages = true,
            "--trace-file" => args.trace_file = Some(PathBuf::from(value("--trace-file")?)),
            "--metrics" => args.metrics = true,
            "--compact" => args.compact = true,
            "--help" | "-h" => {
                println!(
                    "usage: verify (--manifest FILE | --dir DIR | --chain A,B,C...) \
                     [--out FILE] [--workers N] \
                     [--node-limit N] [--leaf-limit N] [--deadline SECS] \
                     [--stats-file FILE] [--policy race|predicted] \
                     [--private-packages] \
                     [--trace-file FILE] [--metrics] [--compact]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let sources = usize::from(args.manifest.is_some())
        + usize::from(args.dir.is_some())
        + usize::from(!args.chains.is_empty());
    if sources != 1 {
        return Err("exactly one of --manifest, --dir or --chain is required".to_string());
    }
    Ok(args)
}

/// Builds a chains-only manifest from repeated `--chain A,B,C` flags.
fn manifest_from_chains(chains: &[String]) -> Result<Manifest, String> {
    let specs = chains
        .iter()
        .map(|list| {
            let steps: Vec<ChainStepSpec> = list
                .split(',')
                .filter(|path| !path.is_empty())
                .map(|path| ChainStepSpec {
                    pass: None,
                    path: path.to_string(),
                })
                .collect();
            if steps.len() < 2 {
                return Err(format!(
                    "--chain needs at least 2 comma-separated circuits, got `{list}`"
                ));
            }
            Ok(ChainSpec {
                name: None,
                qubits: None,
                steps,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Manifest {
        pairs: Vec::new(),
        chains: Some(specs),
    })
}

/// Prints the run's folded hot-path counters to stderr: one line per
/// counter that moved (zeros are skipped), then the histograms as
/// count / mean / p99 summaries.
fn print_metrics(before: &obs::metrics::Snapshot) {
    let delta = obs::metrics::fold().delta_since(before);
    eprintln!("hot-path metrics:");
    for (def, value) in delta.non_zero() {
        match def.unit {
            obs::metrics::Unit::Nanos => {
                eprintln!("  {:<32} {:.4}s", def.name, value as f64 / 1e9)
            }
            obs::metrics::Unit::Count => eprintln!("  {:<32} {value}", def.name),
        }
    }
    for (def, hist) in delta.non_zero_hists() {
        eprintln!(
            "  {:<32} n={} mean={:.6}s p99<={:.6}s",
            def.name,
            hist.count,
            hist.mean_ns() as f64 / 1e9,
            hist.quantile_ns(0.99) as f64 / 1e9
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };

    let manifest: Manifest = match (&args.manifest, &args.dir) {
        (Some(path), None) => load_manifest(path).map_err(|e| e.to_string()),
        (None, Some(dir)) => manifest_from_dir(dir).map_err(|e| e.to_string()),
        (None, None) => manifest_from_chains(&args.chains),
        _ => unreachable!("validated by parse_args"),
    }
    .unwrap_or_else(|error| {
        eprintln!("error: {error}");
        std::process::exit(2);
    });

    let mut options = BatchOptions::default();
    if let Some(workers) = args.workers {
        options.workers = workers.max(1);
    }
    options.portfolio.node_limit = args.node_limit;
    options.portfolio.leaf_limit = args.leaf_limit;
    options.portfolio.deadline = args.deadline.map(std::time::Duration::from_secs_f64);
    options.portfolio.shared_package = !args.private_packages;
    // A stats file implies the predicted policy (that is its point); an
    // explicit --policy always wins. Prediction with a cold store degrades
    // to racing inside the scheduler, so the combination is always safe.
    options.portfolio.policy = match (args.policy.as_deref(), &args.stats_file) {
        (Some("race"), _) => SchedulePolicy::Race,
        (Some("predicted"), _) | (None, Some(_)) => SchedulePolicy::predicted(),
        (None, None) => SchedulePolicy::Race,
        (Some(other), _) => unreachable!("validated by parse_args: {other}"),
    };
    options.stats = args.stats_file;

    if let Some(path) = &args.trace_file {
        if let Err(error) = obs::trace::install_file(path) {
            eprintln!("error: cannot open trace file {}: {error}", path.display());
            std::process::exit(2);
        }
    }
    let metrics_before = obs::metrics::fold();

    let report = run_batch(&manifest, &options);

    if args.trace_file.is_some() {
        obs::trace::flush();
        obs::trace::uninstall();
    }
    for pair in &report.pairs {
        let status = match &pair.error {
            Some(error) => format!("ERROR ({error})"),
            None => format!(
                "{} via {} in {:.4}s{}",
                pair.verdict,
                pair.winner.map(|s| s.name()).unwrap_or("-"),
                pair.time_to_verdict.as_secs_f64(),
                match (pair.predicted, pair.escalation) {
                    (true, Some(reason)) => format!(" [predicted, escalated: {reason}]"),
                    (true, None) => " [predicted]".to_string(),
                    _ => String::new(),
                }
            ),
        };
        eprintln!("{:<24} {status}", pair.name);
    }
    for chain in &report.chains {
        let status = match (&chain.error, &chain.guilty_pass) {
            (Some(error), _) => format!("ERROR ({error})"),
            (None, Some(pass)) => format!(
                "NotEquivalent — pass `{pass}` broke the pipeline ({}/{} steps verified)",
                chain.steps_verified, chain.steps_total
            ),
            (None, None) => format!(
                "{} over {} steps in {:.4}s",
                chain.verdict,
                chain.steps_verified,
                chain.total_time.as_secs_f64(),
            ),
        };
        eprintln!("{:<24} {status}", chain.name);
    }
    eprintln!(
        "{} pairs, {} equivalent, {} failed; {} chains, {} equivalent, {} refuted; \
         {:.2} pairs/sec, {:.4}s total",
        report.pairs_total,
        report.pairs_equivalent,
        report.pairs_failed,
        report.chains_total,
        report.chains_equivalent,
        report.chains_refuted,
        report.pairs_per_sec,
        report.total_time.as_secs_f64()
    );
    if args.metrics || args.trace_file.is_some() {
        print_metrics(&metrics_before);
    }

    let json = if args.compact {
        serde_json::to_string(&report)
    } else {
        serde_json::to_string_pretty(&report)
    }
    .unwrap_or_else(|error| {
        eprintln!("error: cannot serialize report: {error}");
        std::process::exit(2);
    });

    match &args.out {
        Some(path) => {
            if let Err(error) = std::fs::write(path, json + "\n") {
                eprintln!("error: cannot write {}: {error}", path.display());
                std::process::exit(2);
            }
        }
        None => println!("{json}"),
    }

    let all_equivalent = report.pairs_failed == 0
        && report.pairs_equivalent == report.pairs_total
        && report.chains_equivalent == report.chains_total;
    std::process::exit(i32::from(!all_equivalent));
}
