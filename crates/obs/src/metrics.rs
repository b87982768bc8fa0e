//! Lock-free process-wide counters and histograms with static metric IDs.
//!
//! Layout: every thread owns an [`Arc`]`<CellBlock>` of atomic cells,
//! registered once in a global list on first use. Incrementing touches only
//! the calling thread's block with [`Ordering::Relaxed`] — there is no
//! cross-thread write sharing on the hot path, and no lock anywhere near it.
//! [`fold`] walks the registry and sums every block (including blocks of
//! threads that have already exited — the registry keeps them alive, so a
//! fold never loses counts).
//!
//! Counters are *always on*: the cost budget is one relaxed `fetch_add` per
//! event, which is why only coarse events (GC phases, lock waits, pair
//! lifecycle) increment here directly. Per-node-op counts (compute-cache
//! lookups and the like) are folded in bulk from the owning structure's
//! plain counters when it is dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a metric's value counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A plain event count.
    Count,
    /// A sum of durations in nanoseconds.
    Nanos,
}

/// A static counter identifier — an index into [`CATALOG`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric(usize);

/// A static histogram identifier — an index into [`HIST_CATALOG`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hist(usize);

/// Catalogue entry for one counter: the stable name reported in summaries,
/// the unit, and the caveat — what this number does *not* show. The caveat
/// travels with the metric so every consumer (docs, summaries, benches) can
/// repeat it instead of re-inventing an honest framing.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable dotted name (`dd.gc.barrier_deferrals`).
    pub name: &'static str,
    /// Value unit.
    pub unit: Unit,
    /// What the number misleads about when read alone.
    pub caveat: &'static str,
}

macro_rules! catalog {
    ($($(#[$doc:meta])* $konst:ident = ($name:literal, $unit:expr, $caveat:literal);)*) => {
        /// Every registered counter, indexable by [`Metric`].
        pub const CATALOG: &[MetricDef] = &[
            $(MetricDef { name: $name, unit: $unit, caveat: $caveat },)*
        ];
        catalog!(@consts 0; $($(#[$doc])* $konst;)*);
    };
    (@consts $idx:expr; $(#[$doc:meta])* $konst:ident; $($rest:tt)*) => {
        $(#[$doc])*
        pub const $konst: Metric = Metric($idx);
        catalog!(@consts $idx + 1; $($rest)*);
    };
    (@consts $idx:expr;) => {};
}

catalog! {
    /// Compute-cache (add/mul/div/transpose memo) lookups, folded at package drop.
    DD_COMPUTE_LOOKUPS = ("dd.compute.lookups", Unit::Count, "folded when a package drops; a live package's counts are invisible until then");
    /// Compute-cache hits, folded at package drop.
    DD_COMPUTE_HITS = ("dd.compute.hits", Unit::Count, "hits on lossy direct-mapped caches; a high rate can mean a small working set, not a good cache");
    /// Gate-DD cache lookups (L1 private + L2 shared), folded at package drop.
    DD_GATE_LOOKUPS = ("dd.gate.lookups", Unit::Count, "counts both private-L1 and shared-L2 probes as one lookup");
    /// Gate-DD cache hits, folded at package drop.
    DD_GATE_HITS = ("dd.gate.hits", Unit::Count, "repeated single-gate circuits hit ~100% regardless of cache quality");
    /// Unique-table intern calls that found an existing node, folded at package drop.
    DD_UNIQUE_HITS = ("dd.unique.hits", Unit::Count, "includes same-thread re-interns; see dd.unique.cross_thread_hits for actual sharing");
    /// Intern hits on a node first interned by a *different* thread.
    DD_CROSS_THREAD_HITS = ("dd.unique.cross_thread_hits", Unit::Count, "attribution is by first-interner; a node both threads would have built counts for neither after the race");
    /// Garbage collections (any kind: private, sole-attachment, barrier).
    DD_GC_RUNS = ("dd.gc.runs", Unit::Count, "a high count can mean healthy steady-state pressure or a thrashing threshold — check reclaimed/run");
    /// Barrier (stop-the-world) shared-store collections that completed.
    DD_GC_BARRIER_RUNS = ("dd.gc.barrier_runs", Unit::Count, "only completed rounds; aborted rounds are dd.gc.barrier_deferrals");
    /// Barrier rounds abandoned because a workspace failed to park within BARRIER_PATIENCE.
    DD_GC_BARRIER_DEFERRALS = ("dd.gc.barrier_deferrals", Unit::Count, "a deferral doubles the collector's threshold, so one deferral changes all later GC timing");
    /// DD nodes reclaimed by garbage collection.
    DD_GC_RECLAIMED = ("dd.gc.reclaimed", Unit::Count, "nodes, not bytes; vector and matrix nodes differ 2x in edge count");
    /// Complex-table entries reclaimed by compaction during GC.
    DD_CTAB_COMPACTED = ("dd.ctab.compacted", Unit::Count, "entries, not bytes; compaction also rehashes survivors, which this does not count");
    /// Time threads spent stopped at the GC barrier (parked workspaces + the waiting collector).
    DD_GC_BARRIER_WAIT_NS = ("dd.gc.barrier_wait_ns", Unit::Nanos, "sums across threads: 4 threads parked 1ms each report 4ms against <=1ms of wall clock");
    /// Shared-store shard/gate/complex lock acquisitions that had to block.
    DD_SHARD_WAITS = ("dd.store.shard_waits", Unit::Count, "a blocked try_lock; says nothing about how long the wait was — see shard_contention_ns");
    /// Time spent blocked acquiring shared-store shard/gate/complex locks.
    DD_SHARD_CONTENTION_NS = ("dd.store.shard_contention_ns", Unit::Nanos, "measured only on the blocking path; uncontended acquisitions contribute zero even though they also cost cycles");
    /// Portfolio races executed (one per verified pair).
    PF_RACES = ("portfolio.races", Unit::Count, "counts sequential tiny-instance plans as races too");
    /// Scheme launches across all races (primary + escalation waves).
    PF_SCHEME_LAUNCHES = ("portfolio.scheme_launches", Unit::Count, "launched is not finished: cancelled schemes count the same as winners");
    /// Schemes cancelled after another scheme's conclusive verdict.
    PF_CANCELLATIONS = ("portfolio.cancellations", Unit::Count, "cancellation is cooperative; a scheme may run to completion before noticing");
    /// Predicted-plan escalations because the primary wave stalled past its deadline.
    PF_ESCALATIONS_STALL = ("portfolio.escalations.stall", Unit::Count, "stall is a wall-clock verdict; a loaded machine escalates pairs a quiet one would not");
    /// Predicted-plan escalations because every primary scheme finished inconclusively.
    PF_ESCALATIONS_DRAIN = ("portfolio.escalations.drain", Unit::Count, "drain escalations indict the prediction, stall escalations may only indict the deadline");
    /// Batch pairs verified.
    BATCH_PAIRS = ("batch.pairs", Unit::Count, "includes pairs that errored during parse; see the report's failed count");
    /// Process resolved the AVX2 kernel backend (at most 1 per process).
    DD_KERNEL_BACKEND_AVX2 = ("dd.kernels.backend_avx2", Unit::Count, "records the dispatch decision, not usage: a process can select AVX2 and never run a single kernel");
    /// Process resolved the scalar kernel backend (at most 1 per process).
    DD_KERNEL_BACKEND_SCALAR = ("dd.kernels.backend_scalar", Unit::Count, "scalar means the autovectorizable fallback, which the compiler may still emit SIMD for");
    /// Gate-matrix phase factors served from the precomputed twiddle table.
    DD_TWIDDLE_HITS = ("dd.gates.twiddle_hits", Unit::Count, "only cold gate-DD builds reach this path; a warm gate cache makes the count tiny regardless of the table's value");
    /// Generation-snapshot pins taken by shared workspaces (attach + re-pins), folded at package drop.
    DD_EPOCH_PINS = ("dd.store.epoch_pins", Unit::Count, "one pin per attach plus one per collection crossed; a high count means frequent GC, not expensive reads — pinning is an Arc clone");
    /// Generation snapshots retired by a collection publishing a successor.
    DD_RETIRED_GENERATIONS = ("dd.store.retired_generations", Unit::Count, "equals completed shared collections; retirement is not reclamation — a pinned generation lives on until its last reader moves");
    /// Bytes of retired generations whose reclamation was deferred past the publish.
    DD_DEFERRED_RECLAIM_BYTES = ("dd.store.deferred_reclaim_bytes", Unit::Count, "a running total of bytes that *entered* deferral, never decremented when freed; it bounds transient overhead, not live memory");
    /// Requests admitted by the verification service (queued or dispatched).
    SERVICE_REQUESTS = ("service.requests", Unit::Count, "admitted is not completed: cancelled and drain-rejected-later requests count the same as served ones");
    /// Running sum of the admission queue depth, sampled at each admission.
    SERVICE_QUEUE_DEPTH = ("service.queue_depth", Unit::Count, "a running *sum* sampled at admission, not a gauge: divide by service.requests for the mean depth an arriving request saw");
    /// Running sum of in-flight requests, sampled at each dispatch.
    SERVICE_INFLIGHT = ("service.inflight", Unit::Count, "a running *sum* sampled at dispatch, not a gauge: divide by service.requests for mean concurrency; idle stretches contribute nothing");
    /// Requests rejected by admission control (queue full or draining).
    SERVICE_ADMISSION_REJECTS = ("service.admission_rejects", Unit::Count, "rejects are per submit attempt; one retrying client can dominate the count without any other client ever being turned away");
    /// Verification chains executed (one per pipeline, not per step).
    CHAIN_REQUESTS = ("chain.requests", Unit::Count, "a chain that refutes at step 1 and one that verifies 5 steps both count once; see chain.steps for work done");
    /// Adjacent-pair verifications executed inside chains.
    CHAIN_STEPS = ("chain.steps", Unit::Count, "steps verified, not steps requested: a refuted or errored chain stops early and its remaining steps never count");
}

macro_rules! hist_catalog {
    ($($(#[$doc:meta])* $konst:ident = ($name:literal, $caveat:literal);)*) => {
        /// Every registered histogram, indexable by [`Hist`]. All record
        /// nanosecond durations in log₂ buckets.
        pub const HIST_CATALOG: &[MetricDef] = &[
            $(MetricDef { name: $name, unit: Unit::Nanos, caveat: $caveat },)*
        ];
        hist_catalog!(@consts 0; $($(#[$doc])* $konst;)*);
    };
    (@consts $idx:expr; $(#[$doc:meta])* $konst:ident; $($rest:tt)*) => {
        $(#[$doc])*
        pub const $konst: Hist = Hist($idx);
        hist_catalog!(@consts $idx + 1; $($rest)*);
    };
    (@consts $idx:expr;) => {};
}

hist_catalog! {
    /// Per-workspace park duration at a GC barrier.
    HIST_GC_PARK_NS = ("dd.gc.park_ns", "log2 buckets: the p99 reported is a bucket upper bound, up to 2x the true value");
    /// Full barrier-GC round duration (request to release), collector's view.
    HIST_GC_ROUND_NS = ("dd.gc.round_ns", "collector wall clock; parked workspaces may resume slightly later than release");
    /// Wall-clock time from race start to first conclusive verdict.
    HIST_VERDICT_NS = ("portfolio.verdict_ns", "excludes the cancellation drain, which the pair still pays before its report is final");
    /// Service request duration, dispatch to outcome (queue wait excluded).
    HIST_SERVICE_REQUEST_NS = ("service.request_duration", "measured dispatch-to-outcome, so admission queue wait is invisible here; log2 buckets make the p99 a bucket upper bound, up to 2x the true value");
}

const N_COUNTERS: usize = CATALOG.len();
const N_HISTS: usize = HIST_CATALOG.len();
const HIST_BUCKETS: usize = 64;

struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

struct CellBlock {
    counters: [AtomicU64; N_COUNTERS],
    hists: [HistCells; N_HISTS],
}

impl CellBlock {
    fn new() -> Self {
        CellBlock {
            counters: [const { AtomicU64::new(0) }; N_COUNTERS],
            hists: std::array::from_fn(|_| HistCells {
                buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<CellBlock>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<CellBlock>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Shared block for increments that arrive while a thread's TLS is already
/// torn down (counters flushed from `Drop` impls during thread exit land
/// here instead of being lost or panicking).
fn fallback_block() -> &'static Arc<CellBlock> {
    static FALLBACK: OnceLock<Arc<CellBlock>> = OnceLock::new();
    FALLBACK.get_or_init(|| {
        let block = Arc::new(CellBlock::new());
        registry()
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(Arc::clone(&block));
        block
    })
}

thread_local! {
    static LOCAL: Arc<CellBlock> = {
        let block = Arc::new(CellBlock::new());
        registry()
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(Arc::clone(&block));
        block
    };
}

// `try_with`: safe during thread teardown, where LOCAL may already be gone —
// late increments land in the shared fallback block instead of panicking.
#[inline]
fn with_block_fn(f: impl Fn(&CellBlock)) {
    match LOCAL.try_with(|block| f(block)) {
        Ok(()) => {}
        Err(_) => f(fallback_block()),
    }
}

/// Adds `n` to a counter: one thread-local lookup + one relaxed `fetch_add`.
#[inline]
pub fn add(metric: Metric, n: u64) {
    if n == 0 {
        return;
    }
    with_block_fn(|block| {
        block.counters[metric.0].fetch_add(n, Ordering::Relaxed);
    });
}

/// Increments a counter by one.
#[inline]
pub fn incr(metric: Metric) {
    add(metric, 1);
}

/// Records one nanosecond duration into a histogram (log₂ bucketing).
#[inline]
pub fn observe_ns(hist: Hist, ns: u64) {
    let bucket = (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1);
    with_block_fn(|block| {
        let cells = &block.hists[hist.0];
        cells.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(ns, Ordering::Relaxed);
    });
}

/// A folded histogram: total count, summed nanoseconds, log₂ buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations in nanoseconds.
    pub sum_ns: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    const ZERO: HistSnapshot = HistSnapshot {
        count: 0,
        sum_ns: 0,
        buckets: [0; HIST_BUCKETS],
    };

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`q` in `[0, 1]`). Granularity is a power of two: the true value is
    /// within 2x below the returned bound.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if index >= 63 { u64::MAX } else { 1u64 << index };
            }
        }
        u64::MAX
    }
}

/// A fold of every thread's counter and histogram cells at one moment.
///
/// Folding is monotone per counter (each cell only grows), so two snapshots
/// bracket an interval: `later.delta_since(&earlier)` is the activity in
/// between. There is no cross-counter consistency guarantee — a fold taken
/// while threads increment may see counter A's update but not B's.
#[derive(Debug, Clone)]
pub struct Snapshot {
    counters: [u64; N_COUNTERS],
    hists: [HistSnapshot; N_HISTS],
}

impl Snapshot {
    /// The folded value of one counter.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric.0]
    }

    /// The folded state of one histogram.
    pub fn hist(&self, hist: Hist) -> &HistSnapshot {
        &self.hists[hist.0]
    }

    /// Counter-wise difference from an earlier snapshot (saturating, so a
    /// mismatched pair degrades to zeros instead of nonsense).
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let mut counters = [0u64; N_COUNTERS];
        for (index, slot) in counters.iter_mut().enumerate() {
            *slot = self.counters[index].saturating_sub(earlier.counters[index]);
        }
        let mut hists = [HistSnapshot::ZERO; N_HISTS];
        for (index, slot) in hists.iter_mut().enumerate() {
            slot.count = self.hists[index]
                .count
                .saturating_sub(earlier.hists[index].count);
            slot.sum_ns = self.hists[index]
                .sum_ns
                .saturating_sub(earlier.hists[index].sum_ns);
            for b in 0..HIST_BUCKETS {
                slot.buckets[b] =
                    self.hists[index].buckets[b].saturating_sub(earlier.hists[index].buckets[b]);
            }
        }
        Snapshot { counters, hists }
    }

    /// Iterates `(definition, value)` over counters with non-zero values,
    /// in catalogue order.
    pub fn non_zero(&self) -> impl Iterator<Item = (&'static MetricDef, u64)> + '_ {
        CATALOG
            .iter()
            .zip(self.counters.iter())
            .filter(|(_, &value)| value != 0)
            .map(|(def, &value)| (def, value))
    }

    /// Iterates `(definition, histogram)` over histograms with observations,
    /// in catalogue order.
    pub fn non_zero_hists(&self) -> impl Iterator<Item = (&'static MetricDef, &HistSnapshot)> + '_ {
        HIST_CATALOG
            .iter()
            .zip(self.hists.iter())
            .filter(|(_, hist)| hist.count != 0)
    }
}

/// Folds every registered thread's cells into one [`Snapshot`].
pub fn fold() -> Snapshot {
    let mut counters = [0u64; N_COUNTERS];
    let mut hists = [HistSnapshot::ZERO; N_HISTS];
    let blocks = registry()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for block in blocks.iter() {
        for (slot, cell) in counters.iter_mut().zip(block.counters.iter()) {
            *slot += cell.load(Ordering::Relaxed);
        }
        for (slot, cells) in hists.iter_mut().zip(block.hists.iter()) {
            slot.count += cells.count.load(Ordering::Relaxed);
            slot.sum_ns += cells.sum.load(Ordering::Relaxed);
            for (b, bucket) in cells.buckets.iter().enumerate() {
                slot.buckets[b] += bucket.load(Ordering::Relaxed);
            }
        }
    }
    Snapshot { counters, hists }
}

/// Looks up the catalogue definition of a counter.
pub fn def(metric: Metric) -> &'static MetricDef {
    &CATALOG[metric.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = CATALOG
            .iter()
            .chain(HIST_CATALOG.iter())
            .map(|def| def.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name in catalogue");
    }

    #[test]
    fn every_metric_has_a_caveat() {
        for def in CATALOG.iter().chain(HIST_CATALOG.iter()) {
            assert!(
                !def.caveat.is_empty(),
                "metric {} is missing its caveat",
                def.name
            );
        }
    }

    #[test]
    fn quantiles_bracket_observations() {
        let before = fold();
        for _ in 0..100 {
            observe_ns(HIST_GC_PARK_NS, 1000);
        }
        let delta = fold().delta_since(&before);
        let hist = delta.hist(HIST_GC_PARK_NS);
        assert_eq!(hist.count, 100);
        assert_eq!(hist.sum_ns, 100_000);
        assert_eq!(hist.mean_ns(), 1000);
        let p50 = hist.quantile_ns(0.5);
        assert!((1000..=2048).contains(&p50), "p50 bound was {p50}");
    }
}
