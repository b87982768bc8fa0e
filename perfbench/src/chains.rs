//! `chains-warm`: a seeded compile corpus checked pass by pass through an
//! in-process `VerificationService` with the warm `StorePool`, the way
//! `verify --manifest` runs it by default: one worker, one chain
//! outstanding.
//!
//! The corpus comes from `bench::corpus::generate` (bv/qft/qpe, widths 8
//! and 11, line and full couplings, opt levels 0 and 1, unmeasured
//! originals): 24 chains. Every opt-level-0 chain is broken: the first CX
//! of one of its first two pass outputs (seeded) is dropped, and that pass
//! is recorded as the expected guilty one. The seed also fixes the order.
//!
//! A request here is one chain step, the unit `pairs_per_s` counts: whole
//! chains range from 1 ms (BV-8) to 400 ms (routed QPE-11), and their
//! median swung 16–24 ms between runs, while the step median repeats.

use crate::inputs::{compile_corpus, corpus_options, BreakAt, ChainInput, Corpus, Expect};
use crate::layers::{per_layer_report, Tracer};
use crate::races::{self, Race};
use crate::stats::{median, peak_rss_mb, quantile, Report, Rng, Sample, Window};
use crate::{oracle, Args};
use bench::Family;
use portfolio::chain::{ChainRequest, ChainStep};
use portfolio::service::{ChainOutcome, ServiceConfig, Source, VerificationService};
use std::path::Path;
use std::time::Instant;

/// Tail percentile: a run verifies about 700 chain steps, so p95 is the
/// highest of p90/p95/p99 with at least 10 samples beyond it.
pub const TAIL_Q: f64 = 0.95;
/// Set-up repetitions whose median is `setup_s`; set-up here is short
/// (about 80 ms), so more repetitions steady the median.
const SETUPS: usize = 15;
/// Corpus widths, fixed so that every seed compiles the same amount of work.
const WIDTHS: [usize; 2] = [8, 11];

fn build(seed: u64, dir: &Path) -> Result<(Corpus, Vec<usize>), String> {
    let mut rng = Rng::new(seed, 10);
    let widths = WIDTHS.to_vec();
    let options = corpus_options(
        &[Family::BernsteinVazirani, Family::Qft, Family::Qpe],
        widths,
    );
    let total = options.families.len()
        * options.widths.len()
        * options.couplings.len()
        * options.opt_levels.len();
    // The corpus lists the two opt levels of each (family, width, coupling)
    // next to each other, level 0 first. Breaking every level-0 chain
    // leaves every seed the same intact work (all four passes of every
    // shape), so the seed moves only which early pass breaks and the order.
    let broken: Vec<usize> = (0..total / 2).map(|g| 2 * g).collect();
    let corpus = compile_corpus(dir, &options, &broken, BreakAt::Early, &mut rng)?;
    let mut order: Vec<usize> = (0..total).collect();
    rng.shuffle(&mut order);
    spot_check(&corpus)?;
    Ok((corpus, order))
}

/// Dense-unitary oracle on the smallest broken chain: the broken step is
/// inequivalent, the step before it holds.
fn spot_check(corpus: &Corpus) -> Result<(), String> {
    let read = |path: &Path| -> Result<circuit::QuantumCircuit, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        circuit::qasm::from_qasm(&text).map_err(|e| e.to_string())
    };
    let chain = corpus
        .chains
        .iter()
        .filter(|c| c.guilty.is_some())
        .min_by_key(|c| c.width)
        .ok_or("no broken chain")?;
    let k = chain
        .steps
        .iter()
        .position(|(label, _)| Some(label) == chain.guilty.as_ref())
        .ok_or("guilty pass not in chain")?;
    let (before, broken, after) = (
        read(&chain.steps[k - 1].1)?,
        read(&chain.steps[k].1)?,
        read(&chain.steps[0].1)?,
    );
    oracle::check_by_unitary(&before, &broken, Expect::NotEquivalent)?;
    oracle::check_by_unitary(&after, &before, Expect::Equivalent)?;
    Ok(())
}

fn request(chain: &ChainInput) -> ChainRequest {
    ChainRequest {
        name: Some(chain.name.clone()),
        steps: chain
            .steps
            .iter()
            .map(|(label, path)| ChainStep {
                pass: Some(label.clone()),
                source: Source::Path(path.clone()),
            })
            .collect(),
        deadline: None,
        node_limit: None,
        width_hint: Some(chain.width),
    }
}

/// Verifies one chain. Each verified step is one sample (its race's wall
/// time is its time to verdict); the chain's verdict and blame are judged
/// on its last sample. A chain that fails before any step is one failed
/// sample at the chain's full elapsed time.
fn verify(
    service: &VerificationService,
    chain: &ChainInput,
) -> Result<(Vec<Sample>, ChainOutcome), String> {
    let start = Instant::now();
    let handle = service
        .submit_chain(request(chain))
        .map_err(|e| format!("chain {} rejected: {e}", chain.name))?;
    let outcome = handle.wait();
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = &outcome.report;
    let kind = if chain.guilty.is_some() {
        "chain-broken"
    } else {
        "chain"
    };
    let mut samples: Vec<Sample> = report
        .steps
        .iter()
        .map(|step| Sample {
            kind,
            latency_ms: step.report.total_time.as_secs_f64() * 1e3,
            units: 1,
            decided: Expect::Equivalent.judge(step.report.verdict).0,
            wrong: 0,
            failed: step.report.error.is_some(),
        })
        .collect();
    if samples.is_empty() {
        samples.push(Sample {
            kind,
            latency_ms: elapsed_ms,
            units: 0,
            decided: false,
            wrong: 0,
            failed: true,
        });
    }
    let expect = if chain.guilty.is_some() {
        Expect::NotEquivalent
    } else {
        Expect::Equivalent
    };
    let wrong = expect.judge(report.verdict).1;
    let wrong_blame = report.guilty_pass.is_some() && report.guilty_pass != chain.guilty;
    let last = samples.last_mut().expect("at least one sample");
    last.wrong = usize::from(wrong) + usize::from(wrong_blame);
    last.failed |= report.error.is_some() || outcome.cancelled;
    Ok((samples, outcome))
}

fn start_service() -> VerificationService {
    VerificationService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
}

/// Runs whole cycles over the chains until `seconds` have passed and at
/// least `min_cycles` ran; returns the cycles run too.
fn window(
    service: &VerificationService,
    corpus: &Corpus,
    order: &[usize],
    seconds: f64,
    min_cycles: usize,
    tracer: Option<&Tracer>,
) -> Result<(Window, Vec<ChainOutcome>, usize), String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut outcomes = Vec::new();
    let mut cycles = 0;
    while cycles < min_cycles || start.elapsed().as_secs_f64() < seconds {
        for &index in order {
            let chain = &corpus.chains[index];
            let (chain_samples, outcome) = match tracer {
                Some(t) => {
                    let id = t.request();
                    let out = t.call("service", id, || verify(service, chain));
                    t.end(id);
                    out?
                }
                None => verify(service, chain)?,
            };
            samples.extend(chain_samples);
            outcomes.push(outcome);
        }
        cycles += 1;
    }
    Ok((
        Window {
            samples,
            seconds: start.elapsed().as_secs_f64(),
        },
        outcomes,
        cycles,
    ))
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let dir = args.work.join("chains");
    let result = run_in(args, process_start, &dir);
    let _ = std::fs::remove_dir_all(&args.work);
    result
}

fn run_in(args: &Args, process_start: Instant, dir: &Path) -> Result<Report, String> {
    let mut times = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUPS {
        // The previous repetition's service stops outside the timed set-up.
        if let Some((_, _, service)) = prepared.take() {
            let service: VerificationService = service;
            service.shutdown();
        }
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (corpus, order) = build(args.seed, dir)?;
        let service = start_service();
        // Warm-up: one intact chain.
        let warm = corpus
            .chains
            .iter()
            .find(|c| c.guilty.is_none())
            .ok_or("corpus has no intact chain")?;
        let (samples, _) = verify(&service, warm)?;
        if samples.iter().any(|s| s.wrong > 0 || s.failed) {
            return Err(format!("warm-up chain {} failed or was wrong", warm.name));
        }
        times.push(start.elapsed().as_secs_f64());
        prepared = Some((corpus, order, service));
    }
    let (corpus, order, service) = prepared.expect("at least one set-up");
    let setup_s = median(&times);

    if !args.trace {
        let (window, _, _) = window(&service, &corpus, &order, args.seconds, 1, None)?;
        service.shutdown();
        return Ok(Report::from_window(
            &window,
            setup_s,
            peak_rss_mb("self")?,
            TAIL_Q,
        ));
    }

    let (plain, _, cycles) = window(&service, &corpus, &order, args.seconds / 2.0, 1, None)?;
    let before = obs::metrics::fold();
    let tracer = Tracer::start(true);
    let (traced, outcomes, _) = window(&service, &corpus, &order, 0.0, cycles, Some(&tracer))?;
    let layer_times = tracer.finish();
    let counters = races::counters_of(&obs::metrics::fold().delta_since(&before));
    service.shutdown();

    let step_races: Vec<Race> = outcomes
        .iter()
        .flat_map(|o| o.report.steps.iter())
        .map(|s| Race::from_pair_report(&s.report))
        .collect();
    let mut values = races::race_metrics(&step_races);
    values.extend(races::core_from_races(&step_races));
    values.extend(races::dd_from_counters(&counters));
    values.extend(service_metrics(&outcomes, &counters));
    let (carry, shelf) = races::chain_hits(&step_races);
    let chains = outcomes.len().max(1) as f64;
    values.push(("chain.carry_hits".into(), carry / chains, "count"));
    values.push(("chain.shelf_hits".into(), shelf / chains, "count"));
    values.push((
        "chain.step_ms.p50".into(),
        median(&step_races.iter().map(|r| r.total_ms).collect::<Vec<_>>()),
        "ms",
    ));
    values.extend(parse_and_plan(&corpus)?);
    values.extend(layer_times.metrics());
    values.push((
        "obs.trace_overhead_frac".into(),
        1.0 - traced.pairs_per_s() / plain.pairs_per_s(),
        "fraction",
    ));
    let mut report = Report::from_window(&plain, setup_s, peak_rss_mb("self")?, TAIL_Q);
    report.wrong += traced.samples.iter().map(|s| s.wrong).sum::<usize>();
    report.per_layer = per_layer_report(values);
    Ok(report)
}

fn service_metrics(
    outcomes: &[ChainOutcome],
    counters: &races::Counters,
) -> Vec<(String, f64, &'static str)> {
    let waits: Vec<f64> = outcomes
        .iter()
        .map(|o| o.queue_wait.as_secs_f64() * 1e3)
        .collect();
    let service: Vec<f64> = outcomes
        .iter()
        .map(|o| o.service_time.as_secs_f64() * 1e3)
        .collect();
    let get = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let checkouts = get("batch.warm_checkouts") + get("batch.cold_checkouts");
    vec![
        ("service.queue_wait_ms.p50".into(), median(&waits), "ms"),
        (
            "service.queue_wait_ms.p95".into(),
            quantile(&waits, 0.95),
            "ms",
        ),
        ("service.service_ms.p50".into(), median(&service), "ms"),
        (
            "service.admission_rejects".into(),
            get("service.admission_rejects"),
            "count",
        ),
        (
            "service.warm_checkout_frac".into(),
            if checkouts > 0.0 {
                get("batch.warm_checkouts") / checkouts
            } else {
                0.0
            },
            "fraction",
        ),
    ]
}

/// Mean parse time per snapshot and median plan time per adjacent pair.
fn parse_and_plan(corpus: &Corpus) -> Result<Vec<(String, f64, &'static str)>, String> {
    let config = portfolio::PortfolioConfig::default();
    let mut parse_ms = Vec::new();
    let mut plan_us = Vec::new();
    for chain in &corpus.chains {
        let mut circuits = Vec::new();
        for (_, path) in &chain.steps {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let parsed = circuit::qasm::from_qasm(&text).map_err(|e| e.to_string())?;
            parse_ms.push(start.elapsed().as_secs_f64() * 1e3);
            circuits.push(parsed);
        }
        for pair in circuits.windows(2) {
            let start = Instant::now();
            std::hint::black_box(portfolio::scheduler::plan(
                &pair[0], &pair[1], &config, None,
            ));
            plan_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(vec![
        (
            "circuit.parse_ms".into(),
            crate::stats::mean(&parse_ms),
            "ms",
        ),
        ("scheduler.plan_us".into(), median(&plan_us), "us"),
    ])
}
