//! `table1-paper`: the paper's Table 1 pairs at the paper's sizes, checked
//! one-shot and cold through `verify_portfolio`, closed loop, one pair at a
//! time, under a fixed per-pair deadline.
//!
//! A run cycles through four passes. Every pass holds all eight BV sizes
//! (121–128) with their inequivalent twins, two QPE sizes (43–50) with
//! their twins and one small (23–26) plus one large (125–128) QFT row, so
//! four passes cover every paper size once. The seed picks the hidden
//! strings, the phases, the flipped twin bits, which pass each QPE and QFT
//! size lands in, and the order within a pass.

use crate::inputs::{bv_pair, qft_pair, qpe_pair, PairInput};
use crate::layers::{per_layer_report, Tracer};
use crate::races::{self, Race};
use crate::stats::{median, peak_rss_mb, Report, Rng, Sample, Window};
use crate::{oracle, Args};
use dd::Budget;
use portfolio::{verify_portfolio, PortfolioConfig};
use qcec::{check_functional_equivalence_with, Configuration, Equivalence};
use sim::{extract_distribution_budgeted, ExtractionConfig, StateVectorSimulator};
use std::time::{Duration, Instant};
use transform::{align_to_reference, reconstruct_unitary};

/// Per-pair deadline. The equivalent QPE rows decide in 0.3–0.9 s on a
/// 2-core host; the QPE twins and every QFT row end here undecided.
pub const DEADLINE: Duration = Duration::from_millis(1500);
/// Passes per cycle; a run always completes at least one whole cycle.
const PASSES: usize = 4;
/// Tail percentile: a run has about 88 samples, so p85 is the highest
/// percentile with at least 10 samples beyond it.
pub const TAIL_Q: f64 = 0.85;
/// Set-up repetitions whose median is reported as `setup_s`.
const SETUPS: usize = 7;

fn build_passes(seed: u64) -> Vec<Vec<PairInput>> {
    let mut rng = Rng::new(seed, 1);
    let mut qpe_sizes: Vec<usize> = (43..=50).collect();
    let mut qft_small: Vec<usize> = (23..=26).collect();
    let mut qft_large: Vec<usize> = (125..=128).collect();
    rng.shuffle(&mut qpe_sizes);
    rng.shuffle(&mut qft_small);
    rng.shuffle(&mut qft_large);
    (0..PASSES)
        .map(|k| {
            let mut pass = Vec::new();
            for n in 121..=128 {
                pass.push(bv_pair(n, &mut rng, false));
                pass.push(bv_pair(n, &mut rng, true));
            }
            for &n in &qpe_sizes[2 * k..2 * k + 2] {
                pass.push(qpe_pair(n, &mut rng, false));
                pass.push(qpe_pair(n, &mut rng, true));
            }
            pass.push(qft_pair(qft_small[k]));
            pass.push(qft_pair(qft_large[k]));
            rng.shuffle(&mut pass);
            pass
        })
        .collect()
}

/// Confirms the known answers of each input kind with the density-matrix
/// ensemble oracle, on the same builders at the smallest size the dense
/// oracle handles (the paper sizes are far beyond any dense method).
pub fn spot_check_table1_kinds(seed: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed, 2);
    for pair in [
        bv_pair(6, &mut rng, false),
        bv_pair(6, &mut rng, true),
        qpe_pair(6, &mut rng, false),
        qpe_pair(6, &mut rng, true),
        qft_pair(5),
    ] {
        oracle::check_by_distribution(&pair)?;
    }
    Ok(())
}

fn config() -> PortfolioConfig {
    PortfolioConfig {
        deadline: Some(DEADLINE),
        ..Default::default()
    }
}

/// One request: returns the sample and the race.
fn verify(pair: &PairInput, config: &PortfolioConfig) -> (Sample, Race) {
    let start = Instant::now();
    let result = verify_portfolio(&pair.left, &pair.right, config);
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    let (decided, wrong) = pair.expect.judge(result.verdict);
    let failed = result.winner.is_none()
        && result.schemes.iter().all(|s| s.error.is_some())
        && !result
            .schemes
            .iter()
            .any(|s| s.error.as_deref().is_some_and(is_limit));
    (
        Sample {
            kind: pair.kind,
            latency_ms,
            units: 1,
            decided,
            wrong: usize::from(wrong),
            failed,
        },
        Race::from_result(&result),
    )
}

/// A deadline or budget stop is "undecided", not a failure.
fn is_limit(error: &str) -> bool {
    let error = error.to_ascii_lowercase();
    error.contains("deadline") || error.contains("limit") || error.contains("budget")
}

/// Runs whole passes until `seconds` have passed and at least `min_passes`
/// ran.
fn window(
    passes: &[Vec<PairInput>],
    seconds: f64,
    min_passes: usize,
    tracer: Option<&Tracer>,
) -> (Window, Vec<Race>) {
    let config = config();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut races = Vec::new();
    let mut done = 0;
    while done < min_passes || start.elapsed().as_secs_f64() < seconds {
        for pair in &passes[done % passes.len()] {
            let (sample, race) = match tracer {
                Some(t) => {
                    let request = t.request();
                    let out = t.call("engine", request, || verify(pair, &config));
                    t.end(request);
                    out
                }
                None => verify(pair, &config),
            };
            samples.push(sample);
            races.push(race);
        }
        done += 1;
    }
    (
        Window {
            samples,
            seconds: start.elapsed().as_secs_f64(),
        },
        races,
    )
}

fn setup(args: &Args, process_start: Instant) -> Result<(Vec<Vec<PairInput>>, f64), String> {
    let mut times = Vec::new();
    let mut passes = Vec::new();
    for rep in 0..SETUPS {
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        passes = build_passes(args.seed);
        spot_check_table1_kinds(args.seed)?;
        // Warm-up: one small race per family loads code and allocator state.
        let mut rng = Rng::new(args.seed, 3);
        for pair in [
            bv_pair(17, &mut rng, false),
            qpe_pair(9, &mut rng, true),
            qft_pair(8),
        ] {
            let (sample, _) = verify(&pair, &config());
            if sample.wrong > 0 {
                return Err(format!("warm-up pair {} got a wrong verdict", pair.name));
            }
        }
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((passes, median(&times)))
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let (passes, setup_s) = setup(args, process_start)?;
    if !args.trace {
        let (window, _) = window(&passes, args.seconds, PASSES, None);
        let rss = peak_rss_mb("self")?;
        return Ok(Report::from_window(&window, setup_s, rss, TAIL_Q));
    }

    // Traced run: the same two passes untraced, then traced, then the
    // measure-all breakdown.
    let (plain, _) = window(&passes[..2], 0.0, 2, None);
    let before = obs::metrics::fold();
    let tracer = Tracer::start(true);
    let (traced, races) = window(&passes[..2], 0.0, 2, Some(&tracer));
    let layer_times = tracer.finish();
    let counters = races::counters_of(&obs::metrics::fold().delta_since(&before));

    let mut values = races::race_metrics(&races);
    values.extend(races::dd_from_counters(&counters));
    values.extend(breakdown(&passes[0]));
    values.extend(parse_and_plan(&passes[0]));
    values.extend(layer_times.metrics());
    values.push((
        "obs.trace_overhead_frac".into(),
        1.0 - traced.pairs_per_s() / plain.pairs_per_s(),
        "fraction",
    ));
    let mut report = Report::from_window(&plain, setup_s, peak_rss_mb("self")?, TAIL_Q);
    let mut all = traced.samples.clone();
    all.extend(plain.samples.iter().cloned());
    report.wrong = all.iter().map(|s| s.wrong).sum();
    report.per_layer = per_layer_report(values);
    Ok(report)
}

/// Mean QASM parse time and mean scheduler planning time over the pass's
/// inputs (the parse is what a file-based front-end would pay; this
/// workload itself passes circuits in memory).
pub fn parse_and_plan(pairs: &[PairInput]) -> Vec<(String, f64, &'static str)> {
    let config = config();
    let mut parse_ms = Vec::new();
    let mut plan_us = Vec::new();
    for pair in pairs {
        for circuit in [&pair.left, &pair.right] {
            let text = circuit::qasm::to_qasm(circuit);
            let start = Instant::now();
            let parsed = circuit::qasm::from_qasm(&text);
            parse_ms.push(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(parsed.ok());
        }
        let start = Instant::now();
        std::hint::black_box(portfolio::scheduler::plan(
            &pair.left,
            &pair.right,
            &config,
            None,
        ));
        plan_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    vec![
        (
            "circuit.parse_ms".into(),
            crate::stats::mean(&parse_ms),
            "ms",
        ),
        ("scheduler.plan_us".into(), median(&plan_us), "us"),
    ]
}

/// The paper's measure-all protocol under the same deadline, on one pair
/// of each kind: reconstruction (`t_trans`), alignment and the functional
/// check per strategy (`t_ver`), extraction (`t_extract`) and classical
/// simulation (`t_sim`) — the columns portfolio mode prints as "—".
fn breakdown(pass: &[PairInput]) -> Vec<(String, f64, &'static str)> {
    let mut kinds: Vec<&PairInput> = Vec::new();
    for pair in pass {
        let large_qft = pair.kind == "qft" && pair.left.num_qubits() > 64;
        let seen = kinds
            .iter()
            .any(|k| k.kind == pair.kind && (k.left.num_qubits() > 64) == large_qft);
        if !seen {
            kinds.push(pair);
        }
    }
    let budget = || Budget::unlimited().with_deadline(DEADLINE);
    let mut t_trans = Vec::new();
    let mut added = Vec::new();
    let mut t_extract = Vec::new();
    let mut leaves = Vec::new();
    let mut t_sim = Vec::new();
    let mut per_strategy: Vec<(Vec<f64>, f64, f64)> = vec![(Vec::new(), 0.0, 0.0); 4];
    for pair in kinds {
        let start = Instant::now();
        let Ok(reconstruction) = reconstruct_unitary(&pair.right) else {
            continue;
        };
        t_trans.push(start.elapsed().as_secs_f64() * 1e3);
        added.push(reconstruction.added_qubits as f64);
        let Ok(aligned) = align_to_reference(&pair.left, &reconstruction.circuit) else {
            continue;
        };
        for (slot, (strategy, _)) in per_strategy.iter_mut().zip(races::STRATEGIES) {
            let configuration = Configuration {
                strategy,
                ..Configuration::default()
            };
            let start = Instant::now();
            let result =
                check_functional_equivalence_with(&pair.left, &aligned, &configuration, &budget());
            slot.0.push(start.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok(check) if check.equivalence != Equivalence::NoInformation => {
                    slot.1 = slot.1.max(check.peak_diagram_size as f64);
                }
                _ => slot.2 += 1.0,
            }
        }
        let start = Instant::now();
        if let Ok(extraction) = extract_distribution_budgeted(
            &pair.right,
            None,
            &ExtractionConfig::default(),
            &budget(),
        ) {
            t_extract.push(start.elapsed().as_secs_f64() * 1e3);
            leaves.push(extraction.leaves as f64);
        } else {
            t_extract.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let start = Instant::now();
        let mut simulator = StateVectorSimulator::with_budget(pair.left.num_qubits(), budget());
        std::hint::black_box(simulator.run(&pair.left).is_ok());
        t_sim.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut out = vec![
        (
            "transform.t_trans_ms".into(),
            crate::stats::mean(&t_trans),
            "ms",
        ),
        (
            "transform.added_qubits".into(),
            crate::stats::mean(&added),
            "count",
        ),
        (
            "sim.t_extract_ms".into(),
            crate::stats::mean(&t_extract),
            "ms",
        ),
        (
            "sim.extract_leaves".into(),
            crate::stats::mean(&leaves),
            "count",
        ),
        ("sim.t_sim_ms".into(), crate::stats::mean(&t_sim), "ms"),
    ];
    for ((times, peak, undecided), (_, suffix)) in per_strategy.into_iter().zip(races::STRATEGIES) {
        out.push((
            format!("core.t_ver_ms.{suffix}"),
            crate::stats::mean(&times),
            "ms",
        ));
        out.push((format!("core.peak_miter_nodes.{suffix}"), peak, "count"));
        out.push((format!("core.undecided.{suffix}"), undecided, "count"));
    }
    out
}
