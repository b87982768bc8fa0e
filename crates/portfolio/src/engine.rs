//! The portfolio engine: a launcher over scheme-registry entries.
//!
//! The engine owns no policy. It asks the [scheduler](crate::scheduler) for
//! a [`SchedulePlan`] and executes it — sequentially on the calling thread,
//! or as a thread race — wiring up budgets, cancellation, the shared
//! decision-diagram store and per-scheme telemetry along the way. Which
//! schemes launch, in what order and on what store is entirely the plan's
//! business; what a scheme *does* is its
//! [registry descriptor](crate::scheme::SchemeDescriptor)'s.

use crate::scheduler::{self, SchedulePlan};
use crate::scheme::{applicable_descriptors, Scheme, SchemeOutcome};
use circuit::QuantumCircuit;
use dd::{Budget, CancelToken, SharedStore, SharedStoreStats};
use qcec::{Configuration, Equivalence};
use sim::ExtractionConfig;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Configuration shared by the underlying checks (including the
    /// decision-diagram [`MemoryConfig`](dd::MemoryConfig) their packages
    /// are sized with).
    pub configuration: Configuration,
    /// Extraction settings for the fixed-input scheme.
    pub extraction: ExtractionConfig,
    /// Schemes to launch; empty lets the scheduler launch every one of the
    /// [`applicable_schemes`].
    pub schemes: Vec<Scheme>,
    /// Optional per-scheme decision-diagram node budget. The budget keeps
    /// its per-scheme meaning under [`shared_package`](Self::shared_package):
    /// each scheme is metered on the nodes *it* allocated into the shared
    /// store, so reusing a competitor's node costs nothing.
    pub node_limit: Option<usize>,
    /// Optional leaf budget for the fixed-input scheme.
    pub leaf_limit: Option<usize>,
    /// Optional wall-clock deadline per race, enforced inside decision-
    /// diagram allocation (reported as a scheme error when it trips).
    pub deadline: Option<Duration>,
    /// Race all schemes against one shared decision-diagram store
    /// ([`dd::SharedStore`]) instead of private per-scheme packages, so the
    /// miter, simulative and extraction walkers reuse each other's gate
    /// diagrams and subdiagrams (default: `true`). Applies to threaded
    /// plans; the sequential tiny-instance plan runs one scheme at a time
    /// and never shares (see
    /// [`SchedulePlan::shared`](crate::scheduler::SchedulePlan::shared)).
    pub shared_package: bool,
    /// Optional *external* cancellation scope for the whole run — e.g. the
    /// verification service's per-request token, tripped when the client
    /// disconnects. It is chained as the parent of every scheme budget (see
    /// [`dd::Budget::with_parent_token`]), so it stays distinct from the
    /// race-internal winner-cancels-losers token: the engine can still tell
    /// "a competitor won" apart from "the caller walked away".
    pub cancel: Option<CancelToken>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            configuration: Configuration::default(),
            extraction: ExtractionConfig::default(),
            schemes: Vec::new(),
            node_limit: None,
            leaf_limit: None,
            deadline: None,
            shared_package: true,
            cancel: None,
        }
    }
}

/// Telemetry of one scheme's run inside a portfolio.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SchemeReport {
    /// Which scheme ran.
    pub scheme: Scheme,
    /// The verdict it produced, if it finished.
    pub verdict: Option<Equivalence>,
    /// Whether the verdict proves (non-)equivalence.
    pub conclusive: bool,
    /// Whether the scheme was cancelled because a competitor won.
    pub cancelled: bool,
    /// Failure description when the scheme neither finished nor was
    /// cancelled (e.g. node budget exhausted, unsupported circuit).
    pub error: Option<String>,
    /// Wall-clock time the scheme ran for (serialized as seconds).
    pub duration: Duration,
    /// Peak decision-diagram size observed (miter size for functional
    /// schemes, extraction leaves for the fixed-input scheme).
    pub peak_nodes: Option<usize>,
    /// Fraction of decision-diagram compute-table lookups served from the
    /// lossy caches, when the scheme ran far enough to report it.
    pub cache_hit_rate: Option<f64>,
    /// Decision-diagram garbage-collection runs during the scheme.
    pub gc_runs: Option<usize>,
    /// Live nodes of the shared store as this scheme finished (`None` when
    /// racing with private packages).
    pub shared_nodes: Option<usize>,
    /// Fraction of this scheme's canonical-store hits served by structure
    /// another racing scheme built first. `None` with private packages;
    /// always `Some` (down to `0.0` for a scheme cancelled before its first
    /// canonical lookup — never NaN/null) when racing on a shared store.
    pub cross_thread_hit_rate: Option<f64>,
}

/// Telemetry of the shared decision-diagram store behind one portfolio race
/// (see [`dd::SharedStoreStats`]; reported into the batch JSON as the
/// per-pair `shared_store` block).
///
/// Every race gets a fresh store that dies with it, so the report is that
/// store's final stats: counters cover this race alone, and gauges
/// (`shared_nodes`, `complex_entries`) are read once every scheme detached.
/// Besides node counts, the fields cover sharing (`intern_hits`,
/// `cross_thread_hits` and their rate), collection (`gc_runs`,
/// `gc_barrier_runs`, `barrier_deferrals`, `barrier_wait_seconds`) and lock
/// contention (`shard_lock_waits`, `shard_contention_seconds`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct SharedStoreReport {
    /// Live nodes when the race ended.
    pub shared_nodes: usize,
    /// Peak live nodes during this race.
    pub peak_nodes: usize,
    /// Nodes allocated across all schemes of this race (unique-table
    /// misses).
    pub allocated_nodes: u64,
    /// Canonical lookups (unique tables + shared gate cache) answered by an
    /// existing entry.
    pub intern_hits: u64,
    /// Subset of `intern_hits` served by a *different* scheme's entry.
    pub cross_thread_hits: u64,
    /// Always `0`: no store outlives its race, so no structure predates
    /// it. Kept so readers of the report format still find the key.
    pub warm_hits: u64,
    /// Always `0`, like [`warm_hits`](Self::warm_hits): each chain step
    /// races on a store of its own.
    pub chain_hits: u64,
    /// `cross_thread_hits / intern_hits`, the headline sharing metric.
    /// `0.0` (never NaN or null) when the race was over before its first
    /// canonical lookup — the JSON report must stay machine-readable.
    pub cross_thread_hit_rate: f64,
    /// Store-level garbage collections during this race (sole-attachment
    /// and barrier).
    pub gc_runs: usize,
    /// Subset of `gc_runs` that ran as mid-race safe-point barrier
    /// collections with the other schemes parked.
    pub gc_barrier_runs: usize,
    /// Barrier requests that timed out (`BARRIER_PATIENCE`) because a
    /// racer never reached a safe point, deferring the collection.
    pub barrier_deferrals: usize,
    /// Time spent requesting, parking for and waiting out GC barriers,
    /// in seconds. Sums *across* threads, so it can exceed the race's
    /// wall-clock time.
    pub barrier_wait_seconds: f64,
    /// Shard/cache lock acquisitions that had to block behind another
    /// scheme's holder (uncontended acquisitions are not counted).
    pub shard_lock_waits: u64,
    /// Total time schemes spent blocked on store locks, in seconds.
    /// Sums across threads, like `barrier_wait_seconds`.
    pub shard_contention_seconds: f64,
    /// Live interned complex weights at race end.
    pub complex_entries: usize,
}

impl SharedStoreReport {
    /// The report of a race's store, read after the race (an untouched
    /// store reports all zeros).
    fn from_stats(stats: &SharedStoreStats) -> Self {
        SharedStoreReport {
            shared_nodes: stats.live_nodes,
            peak_nodes: stats.peak_nodes,
            allocated_nodes: stats.allocated_nodes,
            intern_hits: stats.intern_hits,
            cross_thread_hits: stats.cross_thread_hits,
            warm_hits: 0,
            chain_hits: 0,
            cross_thread_hit_rate: stats.cross_thread_hit_rate().unwrap_or(0.0),
            gc_runs: stats.gc_runs,
            gc_barrier_runs: stats.gc_barrier_runs,
            barrier_deferrals: stats.barrier_deferrals,
            barrier_wait_seconds: stats.barrier_wait_ns as f64 / 1e9,
            shard_lock_waits: stats.shard_lock_waits,
            shard_contention_seconds: stats.shard_contention_ns as f64 / 1e9,
            complex_entries: stats.complex_entries,
        }
    }
}

/// Outcome of a portfolio run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PortfolioResult {
    /// The combined verdict (see the crate docs for verdict semantics).
    pub verdict: Equivalence,
    /// Scheme that produced the verdict, if any scheme finished.
    pub winner: Option<Scheme>,
    /// Wall time from launch until the winning verdict arrived.
    pub time_to_verdict: Duration,
    /// Wall time until every worker had stopped (losers unwind after
    /// cancellation, so this stays close to `time_to_verdict`).
    pub total_time: Duration,
    /// Telemetry of every scheme that launched, in completion order.
    pub schemes: Vec<SchemeReport>,
    /// Whether the run raced on a shared decision-diagram store (see
    /// [`SchedulePlan::shared`](crate::scheduler::SchedulePlan::shared)):
    /// `true` exactly when [`shared_store`](Self::shared_store) is `Some`.
    pub shared: bool,
    /// Shared-store telemetry when the run used one
    /// ([`PortfolioConfig::shared_package`]); `None` for private-package
    /// races and sequential runs.
    pub shared_store: Option<SharedStoreReport>,
}

/// Selects the schemes worth racing for a circuit pair, in race-launch
/// order (the heuristic favourite first).
///
/// This is a registry query: the entries of
/// [`scheme::REGISTRY`](crate::scheme::REGISTRY) whose applicability
/// predicate accepts the pair, ordered by their
/// [`race_rank`](crate::scheme::SchemeDescriptor::race_rank). Static pairs
/// select the proportional, aligned and one-to-one miter schedules plus
/// random-stimulus simulation; pairs with dynamic primitives select the
/// Section 4 reconstruction flow (the proportional and aligned schedules)
/// plus the Section 5 fixed-input extraction.
pub fn applicable_schemes(left: &QuantumCircuit, right: &QuantumCircuit) -> Vec<Scheme> {
    applicable_descriptors(left, right)
        .iter()
        .map(|descriptor| descriptor.scheme)
        .collect()
}

fn conclusive(verdict: Equivalence) -> bool {
    matches!(
        verdict,
        Equivalence::Equivalent
            | Equivalence::EquivalentUpToGlobalPhase
            | Equivalence::NotEquivalent
    )
}

/// Runs a single scheme under `budget` and reports its telemetry.
///
/// This is the worker body of [`verify_portfolio`], exposed so benchmarks
/// and tests can time individual schemes under identical conditions. The
/// scheme uses a private decision-diagram package; see [`run_scheme_in`] to
/// run it against a shared store.
pub fn run_scheme(
    scheme: Scheme,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
) -> SchemeReport {
    run_scheme_in(scheme, left, right, config, budget, None)
}

/// [`run_scheme`] with an optional shared decision-diagram store: the
/// scheme's packages then attach as workspaces of `store`, interning into
/// the same canonical node space as every other scheme racing on it.
///
/// The scheme body is the registry descriptor's
/// [`runner`](crate::scheme::SchemeDescriptor::runner); this function adds
/// timing and folds the outcome into a [`SchemeReport`]. A scheme without a
/// registry entry (an explicit [`PortfolioConfig::schemes`] list can name
/// one) runs nothing and reports the missing entry as its error.
pub fn run_scheme_in(
    scheme: Scheme,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
    store: Option<&Arc<SharedStore>>,
) -> SchemeReport {
    let start = Instant::now();
    let outcome = match scheme.descriptor() {
        Some(descriptor) => (descriptor.runner)(left, right, config, budget, store),
        None => SchemeOutcome {
            verdict: None,
            peak_nodes: None,
            error: Some(format!("scheme `{scheme}` has no registry entry")),
            cancelled: false,
            memory: None,
        },
    };
    SchemeReport {
        scheme,
        // `ProbablyEquivalent` (simulative agreement) is advisory, so it
        // never counts as conclusive and never cancels competitors.
        conclusive: outcome.verdict.map(conclusive).unwrap_or(false),
        verdict: outcome.verdict,
        cancelled: outcome.cancelled,
        error: outcome.error,
        duration: start.elapsed(),
        peak_nodes: outcome.peak_nodes,
        cache_hit_rate: outcome.memory.and_then(|m| m.compute_hit_rate()),
        gc_runs: outcome.memory.map(|m| m.gc_runs),
        shared_nodes: outcome
            .memory
            .and_then(|m| (m.shared_nodes > 0).then_some(m.shared_nodes)),
        // A scheme racing on a shared store always reports a finite rate:
        // a scheme cancelled before its first canonical lookup divides 0
        // hits by 0 lookups, which must surface as 0.0 — a NaN would make
        // the JSON report unserializable and a null look like a private
        // race.
        cross_thread_hit_rate: match (&outcome.memory, store) {
            (Some(m), Some(_)) => Some(m.cross_thread_hit_rate().unwrap_or(0.0)),
            (Some(m), None) => m.cross_thread_hit_rate(),
            (None, Some(_)) => Some(0.0),
            (None, None) => None,
        },
    }
}

/// [`run_scheme_in`] hardened against scheme panics: a panicking scheme is
/// reported as failed (with the panic message as its error) instead of
/// tearing down the whole race. Shared-store locks a panicking scheme may
/// have poisoned are recovered by the store itself (see `dd::store`).
fn run_scheme_caught(
    scheme: Scheme,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
    store: Option<&Arc<SharedStore>>,
) -> SchemeReport {
    catch_scheme(scheme, store.is_some(), || {
        run_scheme_in(scheme, left, right, config, budget, store)
    })
}

/// Converts a panicking scheme body into a failed [`SchemeReport`].
fn catch_scheme(scheme: Scheme, shared: bool, run: impl FnOnce() -> SchemeReport) -> SchemeReport {
    let start = Instant::now();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        SchemeReport {
            scheme,
            verdict: None,
            conclusive: false,
            cancelled: false,
            error: Some(format!(
                "scheme panicked: {}",
                panic_message(payload.as_ref())
            )),
            duration: start.elapsed(),
            peak_nodes: None,
            cache_hit_rate: None,
            gc_runs: None,
            shared_nodes: None,
            cross_thread_hit_rate: shared.then_some(0.0),
        }
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "non-string panic payload"
    }
}

/// Folds scheme reports into the final result: first conclusive verdict
/// wins; otherwise the strongest advisory verdict is used.
fn combine(
    start: Instant,
    reports: Vec<SchemeReport>,
    verdict: Option<Equivalence>,
    winner: Option<Scheme>,
    time_to_verdict: Option<Duration>,
) -> PortfolioResult {
    let total_time = start.elapsed();
    let (verdict, winner) = match verdict {
        Some(verdict) => (Some(verdict), winner),
        None => match reports
            .iter()
            .find(|r| r.verdict == Some(Equivalence::ProbablyEquivalent))
        {
            Some(report) => (report.verdict, Some(report.scheme)),
            None => (None, None),
        },
    };
    PortfolioResult {
        verdict: verdict.unwrap_or(Equivalence::NoInformation),
        winner,
        time_to_verdict: time_to_verdict.unwrap_or(total_time),
        total_time,
        schemes: reports,
        shared: false,
        shared_store: None,
    }
}

/// Launches all configured (or scheduler-selected) verification schemes for
/// a circuit pair and returns the first conclusive verdict plus per-scheme
/// telemetry.
///
/// Every applicable scheme races across `std::thread` workers against one
/// shared decision-diagram store ([`PortfolioConfig::shared_package`]):
/// whichever scheme builds a gate diagram or subdiagram first, the others
/// get it as a cache hit. The workers additionally share one
/// [`CancelToken`], so the moment a conclusive verdict arrives the losing
/// schemes stop burning cores and unwind. The wall time of the whole call
/// therefore tracks the *fastest* scheme, while the verdict quality matches
/// the best scheme that could have run alone. Two plan shapes keep the
/// overhead over the fastest single scheme small:
///
/// * tiny instances (≤ 8 qubits, ≤ 256 operations) get a *sequential* plan
///   — the schemes are tried one after another on the calling thread, each
///   on a private package, below the cost of a thread spawn;
/// * in a race, the heuristically fastest scheme runs inline on the calling
///   thread while only the competitors are spawned.
pub fn verify_portfolio(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
) -> PortfolioResult {
    let plan = scheduler::plan(left, right, config, None);
    execute_plan(left, right, config, &plan)
}

/// Executes a launch plan: the engine proper.
fn execute_plan(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    plan: &SchedulePlan,
) -> PortfolioResult {
    let cancel = CancelToken::new();
    obs::metrics::incr(obs::metrics::PF_RACES);
    // The race span parents every scheme/GC span of this pair; workers
    // inherit it through the explicit context handoff in `spawn_scheme`.
    let race_span = obs::trace::span(
        "race",
        &[
            ("sequential", plan.sequential.into()),
            ("primary", (plan.schemes.len() as u64).into()),
        ],
    );
    obs::trace::event("race.plan", &[("shared", plan.shared.into())]);

    // One shared absolute deadline for the whole run, fixed up front so
    // every scheme counts down together.
    let deadline_at = config.deadline.map(|timeout| Instant::now() + timeout);
    let make_budget = || {
        let mut budget = Budget::unlimited().with_cancel_token(cancel.clone());
        if let Some(external) = &config.cancel {
            budget = budget.with_parent_token(external.clone());
        }
        if let Some(max_nodes) = config.node_limit {
            budget = budget.with_node_limit(max_nodes);
        }
        if let Some(max_leaves) = config.leaf_limit {
            budget = budget.with_leaf_limit(max_leaves);
        }
        if let Some(at) = deadline_at {
            budget = budget.with_deadline_at(at);
        }
        budget
    };
    let launches = &plan.schemes;

    if plan.sequential {
        let start = Instant::now();
        let budget = make_budget();
        let mut reports = Vec::new();
        let mut verdict = None;
        let mut winner = None;
        let mut time_to_verdict = None;
        for &scheme in launches {
            // An external cancellation (client disconnect) ends the
            // sequential fallback chain between schemes — each scheme
            // already unwinds internally via the budget.
            if budget.is_cancelled() {
                break;
            }
            let _trace =
                obs::trace::with_context(obs::trace::current_context().with_scheme(scheme.name()));
            obs::trace::event("scheme.launch", &[("wave", "sequential".into())]);
            obs::metrics::incr(obs::metrics::PF_SCHEME_LAUNCHES);
            let report = run_scheme_caught(scheme, left, right, config, &budget, None);
            let conclusive = report.conclusive;
            if conclusive {
                verdict = report.verdict;
                winner = Some(report.scheme);
                time_to_verdict = Some(start.elapsed());
                obs::trace::event(
                    "race.verdict",
                    &[
                        ("winner", report.scheme.name().into()),
                        (
                            "verdict",
                            report
                                .verdict
                                .map(|v| v.to_string().into())
                                .unwrap_or_else(|| "none".into()),
                        ),
                        ("at_us", start.elapsed().into()),
                    ],
                );
            }
            reports.push(report);
            if conclusive {
                break;
            }
        }
        // No store: the sequential plan runs every scheme on a private
        // package, so the result reports `shared: false`.
        let result = combine(start, reports, verdict, winner, time_to_verdict);
        finish_race(race_span, &result);
        return result;
    }

    // Threaded execution: one fresh concurrent store for the whole run, so
    // every scheme interning the same gate diagram or subdiagram gets the
    // other schemes' work as cache hits instead of rebuilding it.
    let store = plan.shared.then(SharedStore::new);

    let start = Instant::now();
    let mut reports: Vec<SchemeReport> = Vec::with_capacity(launches.len());
    let mut verdict: Option<Equivalence> = None;
    let mut winner: Option<Scheme> = None;
    let mut time_to_verdict: Option<Duration> = None;

    // The run winner is the conclusive scheme that *finished* first —
    // reports can be handled out of finish order because the collector may
    // be busy with the inline scheme.
    let mut note = |report: SchemeReport, finished_at: Duration| {
        if report.conclusive && time_to_verdict.map(|t| finished_at < t).unwrap_or(true) {
            verdict = report.verdict;
            winner = Some(report.scheme);
            time_to_verdict = Some(finished_at);
            obs::trace::event(
                "race.verdict",
                &[
                    ("winner", report.scheme.name().into()),
                    (
                        "verdict",
                        report
                            .verdict
                            .map(|v| v.to_string().into())
                            .unwrap_or_else(|| "none".into()),
                    ),
                    ("at_us", finished_at.into()),
                ],
            );
        }
        reports.push(report);
    };

    std::thread::scope(|scope| {
        // Reports travel with the run-relative instant their scheme
        // finished, so `time_to_verdict` reflects when the verdict was
        // *produced*, not when the collector got around to processing it.
        let (sender, receiver) = mpsc::channel::<(SchemeReport, Duration)>();
        // Spawn the competitors and run the favourite (launch index 0)
        // inline on the calling thread — when it wins, the common case
        // given the registry's race ranks, the race adds no thread-spawn
        // latency over the fastest single scheme.
        for &scheme in &launches[1..] {
            let budget = make_budget();
            let sender = sender.clone();
            let cancel = cancel.clone();
            let store = store.as_ref();
            // Captured on the coordinator, under the race span: the worker
            // installs it so its scheme span (and every dd GC span inside)
            // nests under this pair's race with the scheme tagged on.
            let worker_ctx = obs::trace::current_context();
            scope.spawn(move || {
                let _trace = obs::trace::with_context(worker_ctx.with_scheme(scheme.name()));
                obs::trace::event("scheme.launch", &[("wave", "primary".into())]);
                obs::metrics::incr(obs::metrics::PF_SCHEME_LAUNCHES);
                let scheme_span = obs::trace::span("scheme.run", &[("wave", "primary".into())]);
                let report = run_scheme_caught(scheme, left, right, config, &budget, store);
                let finished_at = start.elapsed();
                if report.conclusive {
                    // Cancel from inside the worker so losers start unwinding
                    // even before the collector thread observes the report.
                    cancel.cancel();
                    obs::trace::event("race.cancel", &[("by", scheme.name().into())]);
                }
                scheme_span.end(&[
                    ("conclusive", report.conclusive.into()),
                    ("cancelled", report.cancelled.into()),
                ]);
                // The receiver only disappears once the scope ends, but be
                // tolerant anyway: a worker must never panic on send.
                let _ = sender.send((report, finished_at));
            });
        }
        let scheme = launches[0];
        let inline_trace =
            obs::trace::with_context(obs::trace::current_context().with_scheme(scheme.name()));
        obs::trace::event("scheme.launch", &[("wave", "inline".into())]);
        obs::metrics::incr(obs::metrics::PF_SCHEME_LAUNCHES);
        let inline_span = obs::trace::span("scheme.run", &[("wave", "inline".into())]);
        let inline_report =
            run_scheme_caught(scheme, left, right, config, &make_budget(), store.as_ref());
        let inline_finished_at = start.elapsed();
        if inline_report.conclusive {
            cancel.cancel();
            obs::trace::event("race.cancel", &[("by", scheme.name().into())]);
        }
        inline_span.end(&[
            ("conclusive", inline_report.conclusive.into()),
            ("cancelled", inline_report.cancelled.into()),
        ]);
        drop(inline_trace);
        note(inline_report, inline_finished_at);
        // Every worker sends exactly one report (panics are caught inside
        // the worker body), so receive by count — the collector keeps a
        // sender clone alive, so disconnection can never signal the end.
        for _ in 1..launches.len() {
            let Ok((report, finished_at)) = receiver.recv() else {
                break;
            };
            note(report, finished_at);
        }
    });

    // Refutation precedence: when the fixed-input scheme won with its weaker
    // all-zeros-input equivalence claim but a functional scheme *also*
    // finished and proved the circuits differ, the refutation stands (the
    // time to the first verdict is kept as the race telemetry).
    if winner == Some(Scheme::FixedInput)
        && verdict
            .map(Equivalence::considered_equivalent)
            .unwrap_or(false)
    {
        if let Some(refutation) = reports.iter().find(|r| {
            r.scheme != Scheme::FixedInput && r.verdict == Some(Equivalence::NotEquivalent)
        }) {
            verdict = refutation.verdict;
            winner = Some(refutation.scheme);
        }
    }

    let mut result = combine(start, reports, verdict, winner, time_to_verdict);
    result.shared = plan.shared;
    // Every scheme's workspaces are gone by now (the scope joined all
    // workers), so the store's flushed counters are complete.
    result.shared_store = store.map(|store| SharedStoreReport::from_stats(&store.stats()));
    finish_race(race_span, &result);
    result
}

/// Closes a race's trace span with its outcome and folds the outcome
/// counters into the metrics registry.
fn finish_race(span: obs::trace::Span, result: &PortfolioResult) {
    let cancelled = result.schemes.iter().filter(|r| r.cancelled).count() as u64;
    obs::metrics::add(obs::metrics::PF_CANCELLATIONS, cancelled);
    if result.winner.is_some() {
        obs::metrics::observe_ns(
            obs::metrics::HIST_VERDICT_NS,
            result.time_to_verdict.as_nanos() as u64,
        );
    }
    span.end(&[
        ("verdict", result.verdict.to_string().into()),
        (
            "winner",
            result.winner.map(|w| w.name()).unwrap_or("none").into(),
        ),
        ("verdict_us", result.time_to_verdict.into()),
        ("cancelled", cancelled.into()),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_scheme_is_reported_as_failed() {
        let report = catch_scheme(Scheme::Simulative, true, || {
            panic!("miter blew up on qubit 7")
        });
        assert_eq!(report.scheme, Scheme::Simulative);
        assert!(!report.conclusive);
        assert!(!report.cancelled);
        assert_eq!(report.verdict, None);
        let error = report.error.expect("panic must surface as an error");
        assert!(error.contains("panicked"), "{error}");
        assert!(error.contains("miter blew up on qubit 7"), "{error}");
        // Shared-store races must keep the rate finite even for a scheme
        // that died before its first canonical lookup.
        assert_eq!(report.cross_thread_hit_rate, Some(0.0));
        let private = catch_scheme(Scheme::Simulative, false, || panic!("boom"));
        assert_eq!(private.cross_thread_hit_rate, None);
    }

    #[test]
    fn shared_store_report_is_finite_on_an_untouched_store() {
        // A race cancelled before any scheme interned anything leaves its
        // store untouched: every counter is zero and the hit rate must be
        // 0.0, not NaN (the vendored JSON writer rejects non-finite numbers
        // outright).
        let report = SharedStoreReport::from_stats(&SharedStoreStats::default());
        assert_eq!(report.intern_hits, 0);
        assert_eq!(report.cross_thread_hit_rate, 0.0);
        assert!(report.cross_thread_hit_rate.is_finite());
        let json = serde_json::to_string(&report).expect("report must serialize");
        assert!(
            json.contains("\"cross_thread_hit_rate\":0"),
            "rate must render as a number, not null: {json}"
        );
    }

    #[test]
    fn scheme_names_are_static_and_stable() {
        use qcec::Strategy;
        assert_eq!(
            Scheme::Functional(Strategy::Proportional).name(),
            "functional(proportional)"
        );
        assert_eq!(Scheme::Simulative.name(), "simulative");
        assert_eq!(
            Scheme::DynamicFunctional(Strategy::Reference).name(),
            "dynamic-functional(reference)"
        );
        assert_eq!(Scheme::FixedInput.name(), "fixed-input");
        assert_eq!(Scheme::FixedInput.to_string(), "fixed-input");
    }
}
