//! Generates compilation-flow verification corpora.
//!
//! Usage:
//!
//! ```text
//! corpus --out DIR [--families bv,qft,qpe] [--widths 4,6,8]
//!        [--couplings line,full] [--opt-levels 0,1] [--measured]
//! corpus --smoke
//! ```
//!
//! `--out` writes QASM snapshots of every staged compilation (families ×
//! widths × coupling maps × optimization levels) plus a `manifest.json`
//! with one endpoint pair and one per-pass chain per instance; feed it to
//! `verify --manifest DIR/manifest.json`.
//!
//! `--smoke` is the CI guard: it generates a tiny corpus (2 families × 2
//! widths) into a temporary directory, verifies it in chain mode and in
//! endpoint mode, and fails unless (a) every instance's chain verdict
//! matches its endpoint verdict and (b) the batch reports a
//! `pairs_per_sec` throughput.

use bench::corpus::{chains_only, endpoint_only, generate, parse_family, CorpusOptions, Coupling};
use portfolio::batch::{run_batch, BatchOptions};

struct Args {
    out: Option<std::path::PathBuf>,
    options: CorpusOptions,
    smoke: bool,
}

fn parse_list<T>(
    value: Option<String>,
    flag: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
    let items: Result<Vec<T>, String> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("{flag} requires a non-empty list"));
    }
    Ok(items)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        options: CorpusOptions::default(),
        smoke: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                let value = iter.next().ok_or("--out requires a value")?;
                args.out = Some(std::path::PathBuf::from(value));
            }
            "--families" => {
                args.options.families = parse_list(iter.next(), "--families", parse_family)?;
            }
            "--widths" => {
                args.options.widths = parse_list(iter.next(), "--widths", |s| {
                    s.parse::<usize>()
                        .map_err(|_| format!("invalid width `{s}`"))
                })?;
            }
            "--couplings" => {
                args.options.couplings = parse_list(iter.next(), "--couplings", Coupling::parse)?;
            }
            "--opt-levels" => {
                args.options.opt_levels = parse_list(iter.next(), "--opt-levels", |s| match s {
                    "0" => Ok(0),
                    "1" => Ok(1),
                    other => Err(format!("invalid optimization level `{other}` (0 or 1)")),
                })?;
            }
            "--measured" => args.options.measured = true,
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!(
                    "Usage: corpus --out DIR [--families bv,qft,qpe] [--widths 4,6,8]\n\
                     \x20             [--couplings line,full] [--opt-levels 0,1] [--measured]\n\
                     \x20      corpus --smoke"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.smoke == args.out.is_some() {
        return Err("exactly one of --out or --smoke is required".to_string());
    }
    Ok(Args {
        out: args.out,
        options: args.options,
        smoke: args.smoke,
    })
}

/// The CI smoke: tiny corpus, chain-vs-endpoint verdict parity and
/// throughput.
fn smoke() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("corpus-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // 2 families × 2 widths on the default line coupling: small enough for
    // CI, large enough that every chain has ≥4 steps.
    let corpus = generate(&dir, &CorpusOptions::default())?;
    println!(
        "smoke corpus: {} instances, {} files at {}",
        corpus.manifest.pairs.len(),
        corpus.files,
        dir.display()
    );
    // Reload through the batch loader so the manifest's relative paths are
    // resolved against the corpus directory (exactly what `verify` does).
    let manifest = portfolio::batch::load_manifest(&corpus.manifest_path)
        .map_err(|e| format!("generated manifest does not load: {e}"))?;

    // One worker, so chains and pairs run one after another.
    let options = BatchOptions {
        workers: 1,
        ..BatchOptions::default()
    };
    let chain_report = run_batch(&chains_only(&manifest), &options);
    let endpoint_report = run_batch(&endpoint_only(&manifest), &options);

    let mut failures = Vec::new();
    for (chain, pair) in chain_report.chains.iter().zip(endpoint_report.pairs.iter()) {
        println!(
            "  {}: chain {:?} over {}/{} steps vs endpoint {:?}",
            chain.name, chain.verdict, chain.steps_verified, chain.steps_total, pair.verdict,
        );
        if chain.considered_equivalent != pair.considered_equivalent {
            failures.push(format!(
                "`{}`: chain verdict {:?} disagrees with endpoint verdict {:?}",
                chain.name, chain.verdict, pair.verdict
            ));
        }
        if !chain.considered_equivalent {
            failures.push(format!(
                "`{}`: compiler output not equivalent (guilty pass {:?})",
                chain.name, chain.guilty_pass
            ));
        }
    }
    if chain_report.chains.len() != endpoint_report.pairs.len() {
        failures.push(format!(
            "chain mode ran {} chains but endpoint mode ran {} pairs",
            chain_report.chains.len(),
            endpoint_report.pairs.len()
        ));
    }
    if chain_report.pairs_per_sec.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        failures.push("chain batch reports no pairs_per_sec throughput".to_string());
    }
    if endpoint_report.pairs_per_sec.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        failures.push("endpoint batch reports no pairs_per_sec throughput".to_string());
    }
    println!(
        "smoke: chain {:.2} pairs/sec ({} step verifications), endpoint {:.2} pairs/sec",
        chain_report.pairs_per_sec,
        chain_report.chain_steps_verified,
        endpoint_report.pairs_per_sec,
    );
    let _ = std::fs::remove_dir_all(&dir);
    if failures.is_empty() {
        println!("smoke: OK");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("corpus: {message}");
            std::process::exit(2);
        }
    };
    if args.smoke {
        if let Err(message) = smoke() {
            eprintln!("corpus --smoke failed:\n{message}");
            std::process::exit(1);
        }
        return;
    }
    let out = args.out.expect("--out checked in parse_args");
    match generate(&out, &args.options) {
        Ok(corpus) => {
            println!(
                "corpus: {} endpoint pairs, {} chains, {} QASM files",
                corpus.manifest.pairs.len(),
                corpus.manifest.chain_specs().len(),
                corpus.files
            );
            println!("corpus: manifest at {}", corpus.manifest_path.display());
        }
        Err(message) => {
            eprintln!("corpus: {message}");
            std::process::exit(1);
        }
    }
}
