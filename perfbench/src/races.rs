//! Folding race reports (in-process `PortfolioResult`s / `PairReport`s, or
//! the daemon's JSON reports) and `obs::metrics` deltas into the engine,
//! scheduler, core and dd per-layer metrics.

use crate::stats::{mean, median};
use portfolio::batch::PairReport;
use portfolio::{PortfolioResult, Scheme, SchemeReport, SharedStoreReport};
use qcec::Strategy;
use serde::{Deserialize, Value};
use std::collections::HashMap;

/// The strategies of the functional schemes, with their metric suffixes.
pub const STRATEGIES: [(Strategy, &str); 4] = [
    (Strategy::Proportional, "proportional"),
    (Strategy::OneToOne, "one-to-one"),
    (Strategy::Reference, "reference"),
    (Strategy::Aligned, "aligned"),
];

#[derive(Debug, Clone)]
pub struct SchemeRun {
    pub scheme: Scheme,
    pub duration_ms: f64,
    pub finished: bool,
    /// Stopped without a verdict for a reason other than losing the race.
    pub errored: bool,
    pub peak_nodes: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct StoreDelta {
    pub allocated: f64,
    pub peak: f64,
    pub warm_hits: f64,
    pub chain_hits: f64,
    pub intern_hits: f64,
    pub cross_hits: f64,
}

/// One race, whatever front-end reported it.
#[derive(Debug, Clone)]
pub struct Race {
    pub total_ms: f64,
    pub verdict_ms: f64,
    pub winner: Option<Scheme>,
    pub schemes: Vec<SchemeRun>,
    pub store: Option<StoreDelta>,
}

fn scheme_run(report: &SchemeReport) -> SchemeRun {
    SchemeRun {
        scheme: report.scheme,
        duration_ms: report.duration.as_secs_f64() * 1e3,
        finished: report.verdict.is_some(),
        errored: report.error.is_some() && !report.cancelled,
        peak_nodes: report.peak_nodes.map(|n| n as f64),
    }
}

fn store_delta(report: &SharedStoreReport) -> StoreDelta {
    StoreDelta {
        allocated: report.allocated_nodes as f64,
        peak: report.peak_nodes as f64,
        warm_hits: report.warm_hits as f64,
        chain_hits: report.chain_hits as f64,
        intern_hits: report.intern_hits as f64,
        cross_hits: report.cross_thread_hits as f64,
    }
}

impl Race {
    pub fn from_result(result: &PortfolioResult) -> Race {
        Race {
            total_ms: result.total_time.as_secs_f64() * 1e3,
            verdict_ms: result.time_to_verdict.as_secs_f64() * 1e3,
            winner: result.winner,
            schemes: result.schemes.iter().map(scheme_run).collect(),
            store: result.shared_store.as_ref().map(store_delta),
        }
    }

    pub fn from_pair_report(report: &PairReport) -> Race {
        Race {
            total_ms: report.total_time.as_secs_f64() * 1e3,
            verdict_ms: report.time_to_verdict.as_secs_f64() * 1e3,
            winner: report.winner,
            schemes: report.schemes.iter().map(scheme_run).collect(),
            store: report.shared_store.as_ref().map(store_delta),
        }
    }

    /// From the `report` object of a daemon `verify-pair` response.
    pub fn from_json(report: &Value) -> Option<Race> {
        let num = |v: &Value, name: &str| v.get(name).and_then(Value::as_f64);
        let scheme = |v: &Value| v.get("scheme").and_then(|s| Scheme::deserialize(s).ok());
        let schemes = report
            .get("schemes")?
            .as_array()?
            .iter()
            .filter_map(|s| {
                let cancelled = s.get("cancelled").and_then(Value::as_bool).unwrap_or(false);
                Some(SchemeRun {
                    scheme: scheme(s)?,
                    duration_ms: num(s, "duration")? * 1e3,
                    finished: s.get("verdict").is_some_and(|v| !matches!(v, Value::Null)),
                    errored: !cancelled
                        && s.get("error").is_some_and(|v| !matches!(v, Value::Null)),
                    peak_nodes: num(s, "peak_nodes"),
                })
            })
            .collect();
        let store = report
            .get("shared_store")
            .filter(|s| !matches!(s, Value::Null))
            .map(|s| StoreDelta {
                allocated: num(s, "allocated_nodes").unwrap_or(0.0),
                peak: num(s, "peak_nodes").unwrap_or(0.0),
                warm_hits: num(s, "warm_hits").unwrap_or(0.0),
                chain_hits: num(s, "chain_hits").unwrap_or(0.0),
                intern_hits: num(s, "intern_hits").unwrap_or(0.0),
                cross_hits: num(s, "cross_thread_hits").unwrap_or(0.0),
            });
        Some(Race {
            total_ms: num(report, "total_time")? * 1e3,
            verdict_ms: num(report, "time_to_verdict")? * 1e3,
            winner: report
                .get("winner")
                .and_then(|w| Scheme::deserialize(w).ok()),
            schemes,
            store,
        })
    }
}

fn strategy_of(scheme: Scheme) -> Option<Strategy> {
    match scheme {
        Scheme::Functional(s) | Scheme::DynamicFunctional(s) => Some(s),
        _ => None,
    }
}

/// Engine, scheduler-launch and shared-store metrics over a set of races.
pub fn race_metrics(races: &[Race]) -> Vec<(String, f64, &'static str)> {
    let decided: Vec<&Race> = races.iter().filter(|r| r.winner.is_some()).collect();
    let launched_ms: f64 = decided
        .iter()
        .flat_map(|r| r.schemes.iter())
        .map(|s| s.duration_ms)
        .sum();
    let winner_ms: f64 = decided
        .iter()
        .filter_map(|r| r.schemes.iter().find(|s| Some(s.scheme) == r.winner))
        .map(|s| s.duration_ms)
        .sum();
    let functional_wins = decided
        .iter()
        .filter(|r| strategy_of(r.winner.expect("decided")).is_some())
        .count();
    let stores: Vec<&StoreDelta> = races.iter().filter_map(|r| r.store.as_ref()).collect();
    let intern: f64 = stores.iter().map(|s| s.intern_hits).sum();
    let cross: f64 = stores.iter().map(|s| s.cross_hits).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        (
            "scheduler.launches_per_pair".into(),
            mean(
                &races
                    .iter()
                    .map(|r| r.schemes.len() as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        (
            "engine.race_ms".into(),
            mean(&races.iter().map(|r| r.total_ms).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "engine.cancel_tail_ms".into(),
            mean(
                &decided
                    .iter()
                    .map(|r| (r.total_ms - r.verdict_ms).max(0.0))
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        (
            "engine.useful_frac".into(),
            ratio(winner_ms, launched_ms),
            "fraction",
        ),
        (
            "engine.functional_win_frac".into(),
            ratio(functional_wins as f64, decided.len() as f64),
            "fraction",
        ),
        (
            "dd.allocated_nodes".into(),
            mean(&stores.iter().map(|s| s.allocated).collect::<Vec<_>>()),
            "count",
        ),
        (
            "dd.peak_nodes".into(),
            stores.iter().map(|s| s.peak).fold(0.0, f64::max),
            "count",
        ),
        (
            "dd.warm_hits".into(),
            stores.iter().map(|s| s.warm_hits).sum(),
            "count",
        ),
        (
            "dd.cross_thread_hit_rate".into(),
            ratio(cross, intern),
            "fraction",
        ),
    ]
}

/// Per-strategy functional-check figures read from the races' scheme
/// reports: median time of the runs that finished, largest peak miter, and
/// runs that stopped without a verdict for a reason other than losing.
pub fn core_from_races(races: &[Race]) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for (strategy, suffix) in STRATEGIES {
        let runs: Vec<&SchemeRun> = races
            .iter()
            .flat_map(|r| r.schemes.iter())
            .filter(|s| strategy_of(s.scheme) == Some(strategy))
            .collect();
        let times: Vec<f64> = runs
            .iter()
            .filter(|s| s.finished)
            .map(|s| s.duration_ms)
            .collect();
        out.push((format!("core.t_ver_ms.{suffix}"), median(&times), "ms"));
        out.push((
            format!("core.peak_miter_nodes.{suffix}"),
            runs.iter().filter_map(|s| s.peak_nodes).fold(0.0, f64::max),
            "count",
        ));
        out.push((
            format!("core.undecided.{suffix}"),
            runs.iter().filter(|s| s.errored).count() as f64,
            "count",
        ));
    }
    out
}

/// Chain carry-over figures from the races of chain steps.
pub fn chain_hits(races: &[Race]) -> (f64, f64) {
    let stores: Vec<&StoreDelta> = races.iter().filter_map(|r| r.store.as_ref()).collect();
    let chain: f64 = stores.iter().map(|s| s.chain_hits).sum();
    let warm: f64 = stores.iter().map(|s| s.warm_hits).sum();
    (chain, (warm - chain).max(0.0))
}

/// Counter deltas by catalogue name.
pub type Counters = HashMap<String, f64>;

/// The non-zero counters of an in-process `obs::metrics` delta.
pub fn counters_of(delta: &obs::metrics::Snapshot) -> Counters {
    delta
        .non_zero()
        .map(|(def, value)| (def.name.to_string(), value as f64))
        .collect()
}

/// Adds the `counters` object of a daemon response's `metrics` field.
pub fn add_json_counters(total: &mut Counters, metrics: &Value) {
    if let Some(Value::Object(fields)) = metrics.get("counters") {
        for (name, value) in fields {
            if let Some(v) = value.as_f64() {
                *total.entry(name.clone()).or_insert(0.0) += v;
            }
        }
    }
}

/// The dd metrics that come from folded counters.
pub fn dd_from_counters(c: &Counters) -> Vec<(String, f64, &'static str)> {
    let get = |name: &str| c.get(name).copied().unwrap_or(0.0);
    let lookups = get("dd.compute.lookups");
    vec![
        (
            "dd.compute_hit_rate".into(),
            if lookups > 0.0 {
                get("dd.compute.hits") / lookups
            } else {
                0.0
            },
            "fraction",
        ),
        ("dd.gc_runs".into(), get("dd.gc.runs"), "count"),
        (
            "dd.gc_barrier_wait_ms".into(),
            get("dd.gc.barrier_wait_ns") / 1e6,
            "ms",
        ),
        (
            "dd.contention_ms".into(),
            get("dd.store.shard_contention_ns") / 1e6,
            "ms",
        ),
        ("dd.dense_applies".into(), get("dd.dense.applies"), "count"),
    ]
}
