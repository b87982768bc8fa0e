//! Long-lived verification service core.
//!
//! The batch driver ([`crate::batch`]) and the `verifyd` daemon are both
//! thin front-ends over the [`VerificationService`] defined here: a worker
//! pool plus the long-lived state that makes a *resident* checker worth
//! running — a continuously-folded [`TelemetryStore`] feeding the
//! predictive scheduler, and the process-global `obs` observability
//! substrate (per-request metric deltas, leasable JSONL trace sink).
//! Decision-diagram stores are not part of that state: every race builds
//! a fresh one and drops it when the race ends.
//!
//! # Lifecycle
//!
//! [`VerificationService::start`] spawns the workers;
//! [`submit`](VerificationService::submit) runs admission control and
//! returns a [`RequestHandle`] immediately (or a [`RejectReason`]);
//! [`RequestHandle::wait`] blocks for the [`RequestOutcome`]. *Dropping* a
//! handle before its outcome arrived cancels the request: the per-request
//! [`CancelToken`] is chained as the parent of every scheme budget (see
//! [`dd::Budget::with_parent_token`]), so a disconnected client's in-flight
//! race unwinds within a few hundred node allocations and its store is
//! dropped with it. [`drain`](VerificationService::drain) stops admission,
//! finishes everything already admitted, joins the workers and hands the
//! folded telemetry back (saving it crash-safely first when
//! [`ServiceConfig::stats`] is set).
//!
//! # Admission control
//!
//! Capacity is `workers + max_queue`: `workers` requests can be in flight
//! and `max_queue` more may wait. Beyond that,
//! [`submit`](VerificationService::submit) rejects with
//! [`RejectReason::Saturated`] — backpressure the caller can see and act
//! on, instead of an unbounded queue hiding the overload.

use crate::batch::{failed_pair, strip_side_suffix, PairReport, PairSpec};
use crate::chain::{self, ChainReport, ChainRequest};
use crate::engine::verify_portfolio_recorded;
use crate::telemetry::TelemetryStore;
use crate::PortfolioConfig;
use circuit::qasm;
use dd::CancelToken;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Where a request's circuit comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// Read and parse an OpenQASM file at this path.
    Path(PathBuf),
    /// Parse this string as OpenQASM text.
    Inline(String),
}

impl Source {
    /// Display string used in reports (`<inline>` for inline text).
    pub fn display(&self) -> String {
        match self {
            Source::Path(path) => path.to_string_lossy().into_owned(),
            Source::Inline(_) => "<inline>".to_string(),
        }
    }

    fn read(&self) -> Result<String, String> {
        match self {
            Source::Path(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display())),
            Source::Inline(text) => Ok(text.clone()),
        }
    }
}

/// One verification request: a circuit pair plus optional per-request
/// resource bounds layered over the service's portfolio defaults.
#[derive(Debug, Clone)]
pub struct Request {
    /// Display name; derived from the left source (or the request id) when
    /// absent.
    pub name: Option<String>,
    /// Reference circuit.
    pub left: Source,
    /// Candidate circuit.
    pub right: Source,
    /// Per-request wall-clock deadline, overriding
    /// [`PortfolioConfig::deadline`]. Mapped onto the race's
    /// [`dd::Budget`] exactly like the config default.
    pub deadline: Option<Duration>,
    /// Per-request decision-diagram node budget, overriding
    /// [`PortfolioConfig::node_limit`].
    pub node_limit: Option<usize>,
    /// Register width hint (max qubits of the pair), filled from
    /// [`PairSpec::qubits`] or the daemon's `qubits` key. Nothing reads it.
    pub width_hint: Option<usize>,
}

impl Request {
    /// A request for a pair of QASM files with no per-request overrides.
    pub fn from_pair(spec: &PairSpec) -> Request {
        Request {
            name: spec.name.clone(),
            left: Source::Path(PathBuf::from(&spec.left)),
            right: Source::Path(PathBuf::from(&spec.right)),
            deadline: None,
            node_limit: None,
            width_hint: spec.qubits,
        }
    }
}

/// What a worker executes: a single pair or a whole compilation chain.
#[derive(Debug, Clone)]
enum Work {
    Pair(Request),
    Chain(ChainRequest),
}

/// Why [`VerificationService::submit`] turned a request away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Every worker is busy and the wait queue is full.
    Saturated {
        /// Requests currently racing.
        inflight: usize,
        /// Requests waiting for a worker.
        queued: usize,
        /// Total admission capacity (`workers + max_queue`).
        capacity: usize,
    },
    /// The service is draining (or shut down) and admits nothing new.
    Draining,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Saturated {
                inflight,
                queued,
                capacity,
            } => write!(
                f,
                "service saturated: {inflight} in flight + {queued} queued >= capacity {capacity}"
            ),
            RejectReason::Draining => write!(f, "service is draining and admits no new requests"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// Configuration of a [`VerificationService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Portfolio configuration applied to every request (per-request
    /// deadline/node-limit overrides are layered on top).
    pub portfolio: PortfolioConfig,
    /// Worker threads, i.e. the maximum number of in-flight requests.
    pub workers: usize,
    /// Admitted requests allowed to *wait* beyond the in-flight ones;
    /// submissions beyond `workers + max_queue` are rejected.
    pub max_queue: usize,
    /// Persistent telemetry file: loaded at start (missing file = cold
    /// start; unreadable/malformed = warn, run cold and *never* save over
    /// it), folded continuously while the service runs, saved back
    /// crash-safely on [`drain`](VerificationService::drain).
    pub stats: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let batch = crate::batch::BatchOptions::default();
        ServiceConfig {
            portfolio: batch.portfolio,
            workers: batch.workers,
            max_queue: batch.workers * 4,
            stats: None,
        }
    }
}

/// The result of one request, delivered through [`RequestHandle::wait`].
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Service-assigned request id (also the pair correlation id of every
    /// trace line the request emitted).
    pub id: u64,
    /// The verification report, same shape as one batch pair.
    pub report: PairReport,
    /// Time the request spent admitted-but-waiting for a worker.
    pub queue_wait: Duration,
    /// Time the request spent executing (dispatch to outcome).
    pub service_time: Duration,
    /// Whether the request's cancel token had tripped by completion
    /// (client disconnect or explicit [`RequestHandle::cancel`]).
    pub cancelled: bool,
    /// Folded `obs::metrics` delta bracketing this request's execution:
    /// an object of non-zero counters and histogram summaries. Caveat: the
    /// registry is process-wide, so with several requests in flight their
    /// deltas overlap — per-request attribution is exact only at
    /// concurrency 1; at higher concurrency this is "what the process did
    /// while this request ran".
    pub metrics: serde::Value,
}

/// The result of one chain request, delivered through [`ChainHandle::wait`].
/// Same envelope as [`RequestOutcome`], with a [`ChainReport`] inside.
#[derive(Debug, Clone)]
pub struct ChainOutcome {
    /// Service-assigned request id (also the trace correlation id).
    pub id: u64,
    /// The chain verification report, one step per adjacent pair.
    pub report: ChainReport,
    /// Time the request spent admitted-but-waiting for a worker.
    pub queue_wait: Duration,
    /// Time the request spent executing (dispatch to outcome).
    pub service_time: Duration,
    /// Whether the request's cancel token had tripped by completion.
    pub cancelled: bool,
    /// Folded `obs::metrics` delta bracketing this chain's execution; same
    /// attribution caveat as [`RequestOutcome::metrics`].
    pub metrics: serde::Value,
}

#[derive(Debug)]
enum WorkReport {
    Pair(Box<PairReport>),
    Chain(ChainReport),
}

#[derive(Debug)]
struct Delivery {
    id: u64,
    report: WorkReport,
    queue_wait: Duration,
    service_time: Duration,
    cancelled: bool,
    metrics: serde::Value,
}

impl Delivery {
    fn into_pair(self) -> RequestOutcome {
        match self.report {
            WorkReport::Pair(report) => RequestOutcome {
                id: self.id,
                report: *report,
                queue_wait: self.queue_wait,
                service_time: self.service_time,
                cancelled: self.cancelled,
                metrics: self.metrics,
            },
            WorkReport::Chain(_) => unreachable!("pair slot delivered a chain report"),
        }
    }

    fn into_chain(self) -> ChainOutcome {
        match self.report {
            WorkReport::Chain(report) => ChainOutcome {
                id: self.id,
                report,
                queue_wait: self.queue_wait,
                service_time: self.service_time,
                cancelled: self.cancelled,
                metrics: self.metrics,
            },
            WorkReport::Pair(_) => unreachable!("chain slot delivered a pair report"),
        }
    }
}

#[derive(Debug)]
struct Slot {
    outcome: Mutex<Option<Delivery>>,
    ready: Condvar,
}

struct Job {
    id: u64,
    work: Work,
    cancel: CancelToken,
    slot: Arc<Slot>,
    admitted_at: Instant,
}

/// Handle of an admitted request.
///
/// Dropping the handle before the outcome arrived *cancels* the request —
/// the disconnect semantics a daemon needs: when a client connection dies,
/// its handles drop and every in-flight race it owned unwinds. Call
/// [`wait`](Self::wait) to consume the handle and block for the outcome, or
/// [`detach`](Self::detach) for deliberate fire-and-forget.
#[derive(Debug)]
pub struct RequestHandle {
    core: HandleCore,
}

/// Handle of an admitted chain request (see [`RequestHandle`] for the
/// drop-cancels semantics, which are identical).
#[derive(Debug)]
pub struct ChainHandle {
    core: HandleCore,
}

/// The state both handle flavours share: id, cancel token, outcome slot,
/// and the drop-cancels arming bit.
#[derive(Debug)]
struct HandleCore {
    id: u64,
    cancel: CancelToken,
    slot: Arc<Slot>,
    disarm: bool,
}

impl HandleCore {
    fn wait(&mut self) -> Delivery {
        self.disarm = true;
        let mut guard = lock(&self.slot.outcome);
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self
                .slot
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Delivery> {
        let deadline = Instant::now() + timeout;
        let mut guard = lock(&self.slot.outcome);
        loop {
            if guard.is_some() {
                return guard.take();
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (next, _) = self
                .slot
                .ready
                .wait_timeout(guard, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            guard = next;
        }
    }
}

impl Drop for HandleCore {
    fn drop(&mut self) {
        if !self.disarm {
            // An abandoned handle means an abandoned client: kill the race.
            self.cancel.cancel();
        }
    }
}

impl RequestHandle {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// The request's cancellation token (cloneable; shared with the
    /// race budgets).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.core.cancel
    }

    /// Cancels the request (idempotent). A queued request completes
    /// immediately with a cancellation report; an in-flight race unwinds
    /// cooperatively and reports its schemes as errored/cancelled.
    pub fn cancel(&self) {
        self.core.cancel.cancel();
    }

    /// Blocks until the outcome is delivered and returns it.
    pub fn wait(mut self) -> RequestOutcome {
        self.core.wait().into_pair()
    }

    /// Waits up to `timeout` for the outcome without consuming the handle.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<RequestOutcome> {
        self.core.wait_timeout(timeout).map(Delivery::into_pair)
    }

    /// Detaches the handle: dropping it no longer cancels the request.
    pub fn detach(mut self) {
        self.core.disarm = true;
    }
}

impl ChainHandle {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// The request's cancellation token (cloneable; shared with every
    /// step's race budgets).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.core.cancel
    }

    /// Cancels the chain (idempotent). A queued chain completes immediately
    /// with a cancellation report; an in-flight chain stops before its next
    /// step and its current race unwinds cooperatively.
    pub fn cancel(&self) {
        self.core.cancel.cancel();
    }

    /// Blocks until the outcome is delivered and returns it.
    pub fn wait(mut self) -> ChainOutcome {
        self.core.wait().into_chain()
    }

    /// Waits up to `timeout` for the outcome without consuming the handle.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ChainOutcome> {
        self.core.wait_timeout(timeout).map(Delivery::into_chain)
    }

    /// Detaches the handle: dropping it no longer cancels the chain.
    pub fn detach(mut self) {
        self.core.disarm = true;
    }
}

/// A point-in-time view of the service, for the daemon's `stats` method.
///
/// Unlike the `service.*` counters in the `obs::metrics` catalog (running
/// sums sampled at admission/dispatch), `queue_depth` and `inflight` here
/// are live gauges read under the queue lock.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServiceStats {
    /// Worker threads (= max in-flight requests).
    pub workers: usize,
    /// Total admission capacity (`workers + max_queue`).
    pub capacity: usize,
    /// Requests admitted since start.
    pub submitted: u64,
    /// Requests completed (outcome delivered), cancellations included.
    pub completed: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Requests currently waiting for a worker.
    pub queue_depth: usize,
    /// Requests currently executing.
    pub inflight: usize,
    /// Whether the service stopped admitting (drain/shutdown).
    pub draining: bool,
    /// Races recorded into the in-memory telemetry store since start.
    pub telemetry_races: u64,
    /// Seconds since the service started.
    pub uptime_seconds: f64,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    inflight: usize,
    draining: bool,
}

struct ServiceShared {
    portfolio: PortfolioConfig,
    workers: usize,
    capacity: usize,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    idle: Condvar,
    telemetry: Mutex<TelemetryStore>,
    telemetry_base_races: u64,
    stats_path: Option<PathBuf>,
    stats_load_failed: bool,
    trace_leased: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    next_id: AtomicU64,
    started: Instant,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The long-lived verification service core. See the module docs.
pub struct VerificationService {
    shared: Arc<ServiceShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl VerificationService {
    /// Starts the service: loads the persistent telemetry (when
    /// [`ServiceConfig::stats`] is set) and spawns the worker pool.
    pub fn start(config: ServiceConfig) -> VerificationService {
        let (telemetry, load_failed) = match &config.stats {
            None => (TelemetryStore::new(), false),
            Some(path) => match TelemetryStore::load(path) {
                Ok(store) => (store, false),
                Err(error) => {
                    eprintln!(
                        "warning: cannot load stats file {}: {error}; running cold \
                         (and never saving over the damaged file)",
                        path.display()
                    );
                    (TelemetryStore::new(), true)
                }
            },
        };
        Self::start_with(config, telemetry, load_failed)
    }

    /// [`start`](Self::start) with a caller-provided in-memory telemetry
    /// store instead of loading from [`ServiceConfig::stats`]. The batch
    /// front-end uses this to thread its caller's store through a
    /// short-lived service.
    pub fn start_seeded(config: ServiceConfig, telemetry: TelemetryStore) -> VerificationService {
        Self::start_with(config, telemetry, false)
    }

    fn start_with(
        config: ServiceConfig,
        telemetry: TelemetryStore,
        stats_load_failed: bool,
    ) -> VerificationService {
        let workers = config.workers.max(1);
        let shared = Arc::new(ServiceShared {
            portfolio: config.portfolio,
            workers,
            capacity: workers.saturating_add(config.max_queue),
            state: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            telemetry_base_races: telemetry.races,
            telemetry: Mutex::new(telemetry),
            stats_path: config.stats,
            stats_load_failed,
            trace_leased: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            started: Instant::now(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("verify-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        VerificationService {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Admission control + enqueue. Returns the handle immediately; the
    /// race runs on a worker. Rejections increment
    /// `service.admission_rejects` and cost the caller nothing else.
    ///
    /// # Errors
    ///
    /// [`RejectReason::Draining`] after [`drain`](Self::drain)/
    /// [`shutdown`](Self::shutdown); [`RejectReason::Saturated`] when
    /// `workers + max_queue` requests are already admitted.
    pub fn submit(&self, request: Request) -> Result<RequestHandle, RejectReason> {
        self.admit(Work::Pair(request))
            .map(|core| RequestHandle { core })
    }

    /// [`submit`](Self::submit) for a whole compilation chain: the chain
    /// occupies one worker for all its steps, so admission counts it as one
    /// request.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit).
    pub fn submit_chain(&self, request: ChainRequest) -> Result<ChainHandle, RejectReason> {
        self.admit(Work::Chain(request))
            .map(|core| ChainHandle { core })
    }

    fn admit(&self, work: Work) -> Result<HandleCore, RejectReason> {
        let shared = &self.shared;
        let mut state = lock(&shared.state);
        if state.draining {
            drop(state);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            obs::metrics::incr(obs::metrics::SERVICE_ADMISSION_REJECTS);
            return Err(RejectReason::Draining);
        }
        let admitted = state.queue.len() + state.inflight;
        if admitted >= shared.capacity {
            let reason = RejectReason::Saturated {
                inflight: state.inflight,
                queued: state.queue.len(),
                capacity: shared.capacity,
            };
            drop(state);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            obs::metrics::incr(obs::metrics::SERVICE_ADMISSION_REJECTS);
            return Err(reason);
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let slot = Arc::new(Slot {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        });
        state.queue.push_back(Job {
            id,
            work,
            cancel: cancel.clone(),
            slot: Arc::clone(&slot),
            admitted_at: Instant::now(),
        });
        let depth = state.queue.len();
        drop(state);
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        obs::metrics::incr(obs::metrics::SERVICE_REQUESTS);
        // Running sum, not a gauge — see the catalog caveat.
        obs::metrics::add(obs::metrics::SERVICE_QUEUE_DEPTH, depth as u64);
        self.shared.work_ready.notify_one();
        Ok(HandleCore {
            id,
            cancel,
            slot,
            disarm: false,
        })
    }

    /// Live service gauges and totals.
    pub fn stats(&self) -> ServiceStats {
        let shared = &self.shared;
        let (queue_depth, inflight, draining) = {
            let state = lock(&shared.state);
            (state.queue.len(), state.inflight, state.draining)
        };
        let telemetry_races = lock(&shared.telemetry)
            .races
            .saturating_sub(shared.telemetry_base_races);
        ServiceStats {
            workers: shared.workers,
            capacity: shared.capacity,
            submitted: shared.submitted.load(Ordering::Relaxed),
            completed: shared.completed.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            queue_depth,
            inflight,
            draining,
            telemetry_races,
            uptime_seconds: shared.started.elapsed().as_secs_f64(),
        }
    }

    /// Blocks until no request is queued or in flight (or `timeout`
    /// passes). Returns whether the service went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.shared.state);
        while !state.queue.is_empty() || state.inflight > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            let (next, _) = self
                .shared
                .idle
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
        true
    }

    /// Leases the process-global `obs::trace` JSONL sink to one caller
    /// (connection): installs a file sink at `path` and returns a guard
    /// that flushes and uninstalls it on drop. The tracer has exactly one
    /// global writer, so only one lease can exist at a time — a second
    /// caller gets an error rather than silently interleaving two
    /// connections' traces into one file.
    ///
    /// # Errors
    ///
    /// [`TraceLeaseError::Busy`] while another lease is live;
    /// [`TraceLeaseError::Io`] when the file cannot be opened.
    pub fn lease_trace(&self, path: &Path) -> Result<TraceLease, TraceLeaseError> {
        if self
            .shared
            .trace_leased
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(TraceLeaseError::Busy);
        }
        if let Err(error) = obs::trace::install_file(path) {
            self.shared.trace_leased.store(false, Ordering::Release);
            return Err(TraceLeaseError::Io(error));
        }
        Ok(TraceLease {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Stops admission, finishes every admitted request, joins the workers
    /// and returns the folded telemetry (after saving it crash-safely to
    /// [`ServiceConfig::stats`], unless that file had failed to load). A
    /// second call is a no-op returning an empty store.
    pub fn drain(&self) -> TelemetryStore {
        {
            let mut state = lock(&self.shared.state);
            state.draining = true;
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        let store = std::mem::take(&mut *lock(&self.shared.telemetry));
        if let Some(path) = &self.shared.stats_path {
            if self.shared.stats_load_failed {
                eprintln!(
                    "warning: not saving stats to {} — the existing file failed to load and \
                     saving would overwrite it; repair or remove it first",
                    path.display()
                );
            } else if let Err(error) = store.save(path) {
                eprintln!(
                    "warning: cannot save stats file {}: {error}",
                    path.display()
                );
            }
        }
        store
    }

    /// [`drain`](Self::drain), but cancels everything queued or in flight
    /// first, so the service stops as fast as cooperative cancellation
    /// allows instead of finishing the backlog.
    pub fn shutdown(&self) -> TelemetryStore {
        {
            let mut state = lock(&self.shared.state);
            state.draining = true;
            for job in &state.queue {
                job.cancel.cancel();
            }
        }
        // In-flight jobs hold clones of their tokens; cancelling queued ones
        // above plus the handles' own drop-cancel covers clients that left.
        // For ones still waited on, the worker observes `draining` only for
        // admission — their tokens must trip explicitly:
        self.shared.work_ready.notify_all();
        self.drain()
    }
}

impl Drop for VerificationService {
    fn drop(&mut self) {
        // A dropped service behaves like `shutdown()`: cancel the backlog,
        // let workers finish unwinding, join them. Outcomes are still
        // delivered, so late `RequestHandle::wait` calls cannot hang.
        {
            let mut state = lock(&self.shared.state);
            state.draining = true;
            for job in &state.queue {
                job.cancel.cancel();
            }
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Guard of the leased trace sink; flushes and uninstalls on drop.
pub struct TraceLease {
    shared: Arc<ServiceShared>,
}

impl Drop for TraceLease {
    fn drop(&mut self) {
        obs::trace::flush();
        obs::trace::uninstall();
        self.shared.trace_leased.store(false, Ordering::Release);
    }
}

/// Why [`VerificationService::lease_trace`] failed.
#[derive(Debug)]
pub enum TraceLeaseError {
    /// Another connection holds the (single, process-global) trace sink.
    Busy,
    /// The trace file could not be opened.
    Io(std::io::Error),
}

impl std::fmt::Display for TraceLeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceLeaseError::Busy => {
                write!(f, "the trace sink is already leased by another connection")
            }
            TraceLeaseError::Io(error) => write!(f, "cannot open trace file: {error}"),
        }
    }
}

impl std::error::Error for TraceLeaseError {}

fn worker_loop(shared: &ServiceShared) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.inflight += 1;
                    // Running sum, not a gauge — see the catalog caveat.
                    obs::metrics::add(obs::metrics::SERVICE_INFLIGHT, state.inflight as u64);
                    break job;
                }
                if state.draining {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let queue_wait = job.admitted_at.elapsed();
        let started = Instant::now();
        let before = obs::metrics::fold();
        let report = match &job.work {
            Work::Pair(request) => WorkReport::Pair(Box::new(execute(shared, &job, request))),
            Work::Chain(request) => WorkReport::Chain(execute_chain(shared, &job, request)),
        };
        let service_time = started.elapsed();
        obs::metrics::observe_ns(
            obs::metrics::HIST_SERVICE_REQUEST_NS,
            service_time.as_nanos().min(u64::MAX as u128) as u64,
        );
        let delta = obs::metrics::fold().delta_since(&before);
        let outcome = Delivery {
            id: job.id,
            report,
            queue_wait,
            service_time,
            cancelled: job.cancel.is_cancelled(),
            metrics: metrics_delta_value(&delta),
        };
        // Update the books *before* delivering the outcome: a client that
        // has its response in hand must observe its request in `completed`
        // (the daemon smoke checks stats directly after the last response).
        shared.completed.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = lock(&shared.state);
            state.inflight -= 1;
            if state.inflight == 0 && state.queue.is_empty() {
                shared.idle.notify_all();
            }
        }
        {
            let mut slot = lock(&job.slot.outcome);
            *slot = Some(outcome);
        }
        job.slot.ready.notify_all();
    }
}

/// Runs one request end to end: parse, then a portfolio race with the
/// request token chained into every budget. This is the one execution path
/// shared by the batch driver and the daemon.
fn execute(shared: &ServiceShared, job: &Job, request: &Request) -> PairReport {
    let spec = PairSpec {
        name: request.name.clone(),
        left: request.left.display(),
        right: request.right.display(),
        qubits: request.width_hint,
    };
    let name = request.name.clone().unwrap_or_else(|| match &request.left {
        Source::Path(path) => path
            .file_stem()
            .map(|s| strip_side_suffix(&s.to_string_lossy()).to_string())
            .unwrap_or_else(|| format!("request-{}", job.id)),
        Source::Inline(_) => format!("request-{}", job.id),
    });
    // The pair context tags every trace line this worker (and the scheme
    // threads it hands the context to) emits; the pair span parents the
    // whole race, GC activity included. The request id is the pair
    // correlation id.
    let _trace = obs::trace::with_context(obs::trace::Context {
        pair: Some(job.id),
        pair_name: Some(name.as_str().into()),
        scheme: None,
        parent: None,
    });
    let pair_span = obs::trace::span("pair", &[]);
    obs::metrics::incr(obs::metrics::BATCH_PAIRS);
    let report = execute_inner(shared, job, request, &spec, name);
    pair_span.end(&[
        ("verdict", report.verdict.to_string().into()),
        ("failed", report.error.is_some().into()),
    ]);
    report
}

fn execute_inner(
    shared: &ServiceShared,
    job: &Job,
    request: &Request,
    spec: &PairSpec,
    name: String,
) -> PairReport {
    if job.cancel.is_cancelled() {
        // Cancelled while queued (client gone before dispatch): don't parse.
        return failed_pair(spec, name, "cancelled before dispatch".to_string());
    }
    let left_text = match request.left.read() {
        Ok(text) => text,
        Err(error) => return failed_pair(spec, name, error),
    };
    let right_text = match request.right.read() {
        Ok(text) => text,
        Err(error) => return failed_pair(spec, name, error),
    };
    let left = match qasm::from_qasm(&left_text) {
        Ok(circuit) => circuit,
        Err(e) => return failed_pair(spec, name, format!("cannot parse {}: {e}", spec.left)),
    };
    let right = match qasm::from_qasm(&right_text) {
        Ok(circuit) => circuit,
        Err(e) => return failed_pair(spec, name, format!("cannot parse {}: {e}", spec.right)),
    };

    // Layer the per-request bounds and the request token over the service
    // portfolio defaults.
    let mut portfolio = shared.portfolio.clone();
    if let Some(deadline) = request.deadline {
        portfolio.deadline = Some(deadline);
    }
    if let Some(node_limit) = request.node_limit {
        portfolio.node_limit = Some(node_limit);
    }
    portfolio.cancel = Some(job.cancel.clone());

    let result = verify_portfolio_recorded(&left, &right, &portfolio, Some(&shared.telemetry));
    PairReport::from_result(name, spec.left.clone(), spec.right.clone(), result)
}

/// Runs one chain request end to end: parse every snapshot, then
/// pass-by-pass races via [`chain::run_chain`].
fn execute_chain(shared: &ServiceShared, job: &Job, request: &ChainRequest) -> ChainReport {
    let name = request.name.clone().unwrap_or_else(|| {
        match request.steps.first().map(|step| &step.source) {
            Some(Source::Path(path)) => path
                .file_stem()
                .map(|s| strip_side_suffix(&s.to_string_lossy()).to_string())
                .unwrap_or_else(|| format!("chain-{}", job.id)),
            _ => format!("chain-{}", job.id),
        }
    });
    // Chains correlate like pairs: the request id tags every trace line of
    // every step, and the `chain` span parents all the step races.
    let _trace = obs::trace::with_context(obs::trace::Context {
        pair: Some(job.id),
        pair_name: Some(name.as_str().into()),
        scheme: None,
        parent: None,
    });
    let chain_span = obs::trace::span("chain", &[]);
    obs::metrics::incr(obs::metrics::CHAIN_REQUESTS);
    let report = execute_chain_inner(shared, job, request, name);
    chain_span.end(&[
        ("verdict", report.verdict.to_string().into()),
        (
            "guilty_pass",
            report.guilty_pass.clone().unwrap_or_default().into(),
        ),
        ("steps_verified", report.steps_verified.into()),
        ("failed", report.error.is_some().into()),
    ]);
    report
}

fn execute_chain_inner(
    shared: &ServiceShared,
    job: &Job,
    request: &ChainRequest,
    name: String,
) -> ChainReport {
    let steps_total = request.steps.len().saturating_sub(1);
    if request.steps.len() < 2 {
        return chain::failed_chain(
            name,
            steps_total,
            format!(
                "a chain needs at least 2 circuits, got {}",
                request.steps.len()
            ),
        );
    }
    if job.cancel.is_cancelled() {
        return chain::failed_chain(name, steps_total, "cancelled before dispatch".to_string());
    }
    let mut labels = Vec::with_capacity(request.steps.len());
    let mut displays = Vec::with_capacity(request.steps.len());
    let mut circuits = Vec::with_capacity(request.steps.len());
    for (index, step) in request.steps.iter().enumerate() {
        let display = step.source.display();
        let text = match step.source.read() {
            Ok(text) => text,
            Err(error) => return chain::failed_chain(name, steps_total, error),
        };
        let circuit = match qasm::from_qasm(&text) {
            Ok(circuit) => circuit,
            Err(e) => {
                return chain::failed_chain(
                    name,
                    steps_total,
                    format!("cannot parse {display}: {e}"),
                )
            }
        };
        labels.push(step.pass.clone().unwrap_or_else(|| {
            if index == 0 {
                "original".to_string()
            } else {
                format!("step{index}")
            }
        }));
        displays.push(display);
        circuits.push(circuit);
    }

    // Layer the per-step bounds and the request token over the service
    // portfolio defaults; every step race shares the chain's token.
    let mut portfolio = shared.portfolio.clone();
    if let Some(deadline) = request.deadline {
        portfolio.deadline = Some(deadline);
    }
    if let Some(node_limit) = request.node_limit {
        portfolio.node_limit = Some(node_limit);
    }
    portfolio.cancel = Some(job.cancel.clone());

    let parsed = chain::ParsedChain {
        name,
        labels,
        displays,
        circuits,
    };
    chain::run_chain(&parsed, &portfolio, Some(&shared.telemetry))
}

/// Renders a folded metrics delta as a JSON object: `counters` (non-zero
/// only, catalog names to values) and `histograms` (count / mean / p99 in
/// nanoseconds).
fn metrics_delta_value(delta: &obs::metrics::Snapshot) -> serde::Value {
    let counters: Vec<(String, serde::Value)> = delta
        .non_zero()
        .map(|(def, value)| (def.name.to_string(), serde::Value::Number(value as f64)))
        .collect();
    let histograms: Vec<(String, serde::Value)> = delta
        .non_zero_hists()
        .map(|(def, hist)| {
            (
                def.name.to_string(),
                serde::Value::Object(vec![
                    ("count".to_string(), serde::Value::Number(hist.count as f64)),
                    (
                        "mean_ns".to_string(),
                        serde::Value::Number(hist.mean_ns() as f64),
                    ),
                    (
                        "p99_ns".to_string(),
                        serde::Value::Number(hist.quantile_ns(0.99) as f64),
                    ),
                ]),
            )
        })
        .collect();
    serde::Value::Object(vec![
        ("counters".to_string(), serde::Value::Object(counters)),
        ("histograms".to_string(), serde::Value::Object(histograms)),
    ])
}
