//! Thread-safe shared decision-diagram core for portfolio racing.
//!
//! A [`SharedStore`] is the *canonicity-preserving* half of a
//! [`DdPackage`] split out so that several packages — one per racing
//! thread — can intern into the same node space. It owns
//!
//! * the canonical shared complex table: the weight slots behind a
//!   reader/writer lock plus bucket maps striped by bucket-key range into
//!   [`CSTRIPES`] independently locked maps, so concurrent weight interns
//!   from different value ranges never serialise on one global mutex,
//! * the vector/matrix unique tables, sharded by node hash into
//!   [`SHARDS`] independently locked maps,
//! * the node arenas behind reader/writer locks (writers append on
//!   interning misses; slots are only recycled behind the GC barrier),
//! * the shared gate-diagram cache (an L2 behind every workspace's lossy L1),
//! * the free lists, the GC barrier and telemetry counters.
//!
//! The per-thread half stays inside `DdPackage`: lossy compute caches (they
//! are overwrite-on-collision, so thread-local is both correct and
//! lock-free), `Budget`/`CancelToken`, protection roots and `MemoryStats`.
//! The package holds a private handle per attachment as the glue.
//!
//! # Mirrored reads
//!
//! Each workspace keeps one mirror of the two node arenas and of the weight
//! slots. A read of a slot the mirror holds takes no lock. A miss refills
//! the mirror in bulk under the arena read lock, and the workspace's own
//! node interns grow it directly. A slot on a free list is mirrored as its
//! sentinel (a `FREE` node or a NaN weight), and a read that meets a
//! sentinel goes back to the arena: the slot may have been recycled since
//! the refill. A slot recycles at most once between collections, so a
//! mirrored live entry stays valid until the next collection.
//!
//! A collection frees and later recycles slots under the same indices, so
//! every workspace drops its mirrors together with its weight-arithmetic
//! memos at every collection it crosses, as collector or parked. The memos
//! hold weight indices that the sweep did not mark and may have freed.
//!
//! # Canonicity across threads
//!
//! Node normalisation is a deterministic function of canonical inputs: equal
//! child edges produce bit-identical weights, weight interning linearises
//! tolerance merging, and each shard mutex linearises node interning — so
//! two threads constructing the same subdiagram always end up with the
//! *same* `(NodeId, CIdx)` edge. That is what turns the portfolio's
//! duplicated work into cross-thread cache hits.
//!
//! Weight canonicity survives striping because an intern locks the stripes
//! of *all three* bucket-key rows its probe window touches (ascending, so
//! deadlock-free). Two values within tolerance of each other sit at most one
//! bucket row apart, hence each interner's locked window covers the other's
//! home stripe: concurrent interns of mergeable values serialise on that
//! common stripe, and whichever runs second finds the first's entry in its
//! probe. Every workspace intern goes through the table's one `intern`.
//!
//! # Garbage collection: the safe-point barrier
//!
//! Collection on a shared store is a **stop-the-world barrier** that runs
//! *mid-race* (it replaced the PR-3 protocol of deferring collection until a
//! sole workspace remained, which let miter-heavy races outgrow memory):
//!
//! 1. A workspace whose GC threshold trips elects itself the collector by
//!    `try_lock`ing the store's `gc_lock` (never blocking — a blocked
//!    election would deadlock against a collector waiting for parkers). It
//!    raises `gc_requested` and waits.
//! 2. Every other attached workspace polls `gc_requested` at its operation
//!    safe points (the entries of `apply`/`mul`/`add`/`transpose`, the same
//!    places automatic collection triggers) and **parks**: it publishes its
//!    roots — protected edges, in-flight operands, identity and local gate
//!    caches — into the store's barrier state and blocks.
//! 3. Once all other attachments are parked (detaching also counts — a
//!    finished scheme's workspace simply leaves), the collector sweeps from
//!    *all* published roots plus its own plus the shared gate cache,
//!    rebuilds the sharded unique tables, compacts the shared complex table
//!    and releases the barrier. The collector and the parked workspaces drop
//!    their mirrors, weight memos and node-keyed compute caches, and
//!    continue; protected edges keep their node ids, so parked diagrams stay
//!    pointer-identical across the collection.
//!
//! An attached workspace that never reaches a safe point (idle, or stuck in
//! one very long operation) would stall the world, so the collector gives up
//! after a bounded patience and falls back to the old deferral semantics
//! (nothing is reclaimed, the caller's threshold backs off). Attachment
//! takes `gc_lock` too, so no workspace can appear mid-sweep; a workspace
//! attaching later starts with empty mirrors and memos, so it can never
//! observe a stale slot.
//!
//! # Lifetime
//!
//! A store lives for one race: the portfolio creates it when the race
//! starts and drops it once every workspace has detached. Nothing carries
//! over from one circuit pair to the next, so [`SharedStore::stats`] read
//! after a race describes that race alone.
//!
//! # Lock poisoning
//!
//! Store locks guard data that is consistent at every panic point (critical
//! sections only move `Copy` values between already-validated structures),
//! so a racing scheme that panics must not take the whole portfolio down:
//! every store lock acquisition recovers from poisoning instead of
//! propagating the panic to innocent schemes. The panicking scheme itself is
//! reported as failed by the portfolio engine.

use crate::cache::LossyCache;
use crate::complex::{Complex, TOLERANCE};
use crate::hash::{fx_hash, FxHashMap};
use crate::limits::Budget;
use crate::node::{MEdge, MNode, NodeId, VEdge, VNode};
use crate::package::{DdPackage, GateKey, MemoryConfig};
use crate::table::CIdx;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Number of independently locked unique-table shards per node kind.
///
/// Sixteen shards keep lock contention negligible for the portfolio's
/// typical 4–8 racing schemes while staying cheap to clear and rebuild
/// during collection. Must be a power of two (shard = hash & (SHARDS - 1)).
pub const SHARDS: usize = 16;

/// Number of independently locked bucket stripes in the shared complex
/// table. Must be a power of two.
pub const CSTRIPES: usize = 16;

/// Locks a store mutex, recovering from poisoning (see the module docs).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks a store arena, recovering from poisoning.
pub(crate) fn read<T>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a store arena, recovering from poisoning.
pub(crate) fn write<T>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Locks a store mutex on the hot path, recording whether the acquisition
/// had to block and, if so, for how long. The uncontended path is a single
/// `try_lock` (same cost as `lock`); the clock is only read when the lock
/// was actually contended, so the measurement itself stays off the common
/// path.
#[inline]
fn lock_timed<'a, T>(
    mutex: &'a Mutex<T>,
    waits: &mut u64,
    contention_ns: &mut u64,
) -> MutexGuard<'a, T> {
    match mutex.try_lock() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            let start = std::time::Instant::now();
            let guard = lock(mutex);
            *waits += 1;
            *contention_ns += start.elapsed().as_nanos() as u64;
            guard
        }
    }
}

/// Read-locks an `RwLock` on the hot path with the same contention
/// accounting as [`lock_timed`].
#[inline]
fn read_timed<'a, T>(
    rwlock: &'a RwLock<T>,
    waits: &mut u64,
    contention_ns: &mut u64,
) -> RwLockReadGuard<'a, T> {
    match rwlock.try_read() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            let start = std::time::Instant::now();
            let guard = read(rwlock);
            *waits += 1;
            *contention_ns += start.elapsed().as_nanos() as u64;
            guard
        }
    }
}

/// Write-locks an `RwLock` on the hot path with the same contention
/// accounting as [`lock_timed`].
#[inline]
fn write_timed<'a, T>(
    rwlock: &'a RwLock<T>,
    waits: &mut u64,
    contention_ns: &mut u64,
) -> RwLockWriteGuard<'a, T> {
    match rwlock.try_write() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            let start = std::time::Instant::now();
            let guard = write(rwlock);
            *waits += 1;
            *contention_ns += start.elapsed().as_nanos() as u64;
            guard
        }
    }
}

// ----------------------------------------------------------------------
// Striped shared complex table
// ----------------------------------------------------------------------

/// Grid spacing used for bucketing values during lookup; same constant as
/// the private [`ComplexTable`](crate::ComplexTable) so shared and private
/// packages merge identically.
const BUCKET: f64 = TOLERANCE;

type Buckets = FxHashMap<(i64, i64), Vec<u32>>;

/// The shared, striped canonical complex table.
///
/// Same value semantics as the private [`ComplexTable`](crate::ComplexTable)
/// — tolerance bucketing on a [`BUCKET`] grid, 3×3 neighbour probe, NaN
/// sentinel for compaction-freed slots, stable indices for marked entries —
/// but the bucket maps are striped by bucket-key *row* into [`CSTRIPES`]
/// independent mutexes so interns from different value ranges proceed in
/// parallel. [`intern`](Self::intern) is the **only** write path.
#[derive(Debug)]
pub(crate) struct SharedComplexTable {
    stripes: Vec<Mutex<Buckets>>,
    /// The value slots. Readers are mirror refills and probes, writers are
    /// inserts and compaction.
    pub(crate) values: RwLock<Vec<Complex>>,
    /// Slots freed by [`retain_marked`](Self::retain_marked), recycled by
    /// later interns. Freed slots hold a NaN sentinel and are absent from
    /// the buckets, so probes can never resolve to them.
    free: Mutex<Vec<u32>>,
}

fn bucket_key(value: Complex) -> (i64, i64) {
    (
        (value.re / BUCKET).round() as i64,
        (value.im / BUCKET).round() as i64,
    )
}

/// Stripe of a bucket-key row. Rows are grouped in blocks of four before
/// hashing so a probe window (three adjacent rows) usually stays within one
/// or two stripes.
fn stripe_of(kr: i64) -> usize {
    (fx_hash(&(kr >> 2)) as usize) & (CSTRIPES - 1)
}

/// The stripe locks one intern holds: those of bucket rows `kr-1..=kr+1`,
/// each stripe locked once and in ascending stripe order, the order that
/// rules out deadlock between concurrent interns. Lives on the stack.
struct ProbeWindow<'a> {
    /// Stripe of row `kr + dr` at `rows[dr + 1]`.
    rows: [usize; 3],
    /// The held guards with their stripe, ascending; `None` where a stripe
    /// covers more than one row.
    held: [Option<(usize, MutexGuard<'a, Buckets>)>; 3],
}

impl<'a> ProbeWindow<'a> {
    fn lock(
        stripes: &'a [Mutex<Buckets>],
        kr: i64,
        waits: &mut u64,
        contention_ns: &mut u64,
    ) -> Self {
        let rows = [stripe_of(kr - 1), stripe_of(kr), stripe_of(kr + 1)];
        let mut ascending = rows;
        ascending.sort_unstable();
        let mut held = [None, None, None];
        let mut last = None;
        for (slot, stripe) in held.iter_mut().zip(ascending) {
            if last != Some(stripe) {
                *slot = Some((stripe, lock_timed(&stripes[stripe], waits, contention_ns)));
                last = Some(stripe);
            }
        }
        ProbeWindow { rows, held }
    }

    /// The bucket map holding row `kr + dr`, for `dr` in `-1..=1`.
    fn row(&mut self, dr: i64) -> &mut Buckets {
        let stripe = self.rows[(dr + 1) as usize];
        self.held
            .iter_mut()
            .flatten()
            .find(|(held, _)| *held == stripe)
            .map(|(_, guard)| &mut **guard)
            .expect("every probe row's stripe is locked")
    }
}

impl SharedComplexTable {
    /// Creates a table pre-populated with the canonical constants `0` and
    /// `1` (indices [`CIdx::ZERO`] and [`CIdx::ONE`]).
    fn new() -> Self {
        let table = SharedComplexTable {
            stripes: (0..CSTRIPES)
                .map(|_| Mutex::new(Buckets::default()))
                .collect(),
            values: RwLock::new(vec![Complex::ZERO, Complex::ONE]),
            free: Mutex::new(Vec::new()),
        };
        for (idx, value) in [Complex::ZERO, Complex::ONE].into_iter().enumerate() {
            let (kr, ki) = bucket_key(value);
            lock(&table.stripes[stripe_of(kr)])
                .entry((kr, ki))
                .or_default()
                .push(idx as u32);
        }
        table
    }

    /// Number of value slots (live entries plus compaction-freed slots).
    pub(crate) fn len(&self) -> usize {
        read(&self.values).len()
    }

    /// Number of *live* interned values (slots minus freed slots).
    ///
    /// Lock order: `free` before `values`, matching [`intern`](Self::intern).
    pub(crate) fn live_len(&self) -> usize {
        let freed = lock(&self.free).len();
        read(&self.values).len() - freed
    }

    /// Interns one weight value, returning its canonical index. This is the
    /// only shared write path: it locks the stripes of the three bucket rows
    /// its probe window touches (see [`ProbeWindow`]), probes, and inserts
    /// on a miss.
    pub(crate) fn intern(&self, value: Complex, waits: &mut u64, contention_ns: &mut u64) -> CIdx {
        if value.is_zero() {
            return CIdx::ZERO;
        }
        if value.is_one() {
            return CIdx::ONE;
        }
        let (kr, ki) = bucket_key(value);
        let mut window = ProbeWindow::lock(&self.stripes, kr, waits, contention_ns);
        // Probe under the values *read* lock. The held stripes pin every
        // probe row, so a miss here stays a miss until the insert below — and
        // a value that exists already (the common case once the table is
        // warm) never serializes readers behind the values write lock at all.
        {
            let values = read_timed(&self.values, waits, contention_ns);
            for dr in -1..=1 {
                let row = window.row(dr);
                for di in -1..=1 {
                    if let Some(candidates) = row.get(&(kr + dr, ki + di)) {
                        for &idx in candidates {
                            if values[idx as usize].approx_eq(value) {
                                return CIdx(idx);
                            }
                        }
                    }
                }
            }
        }
        // Same insertion behaviour as the private table's `lookup`, so shared
        // and private packages canonicalise identically.
        let mut free = lock_timed(&self.free, waits, contention_ns);
        let mut values = write_timed(&self.values, waits, contention_ns);
        let idx = match free.pop() {
            Some(slot) => {
                values[slot as usize] = value;
                slot
            }
            None => {
                values.push(value);
                (values.len() - 1) as u32
            }
        };
        window.row(0).entry((kr, ki)).or_default().push(idx);
        CIdx(idx)
    }

    /// Compacts the table behind the GC barrier: every slot whose index is
    /// *not* marked is freed for reuse and removed from the buckets. Indices
    /// of marked entries are stable across the compaction; the canonical
    /// constants are always kept, indices beyond `marked.len()` are treated
    /// as unmarked. Returns the number of freed slots.
    pub(crate) fn retain_marked(&self, marked: &[bool]) -> usize {
        let mut guards: Vec<MutexGuard<'_, Buckets>> = self.stripes.iter().map(lock).collect();
        for stripe in guards.iter_mut() {
            stripe.clear();
        }
        let mut free = lock(&self.free);
        let mut values = write(&self.values);
        let mut freed = 0;
        for (idx, value) in values.iter_mut().enumerate() {
            if value.re.is_nan() {
                continue;
            }
            if idx <= 1 || marked.get(idx).copied().unwrap_or(false) {
                let (kr, ki) = bucket_key(*value);
                guards[stripe_of(kr)]
                    .entry((kr, ki))
                    .or_default()
                    .push(idx as u32);
            } else {
                *value = Complex::new(f64::NAN, f64::NAN);
                free.push(idx as u32);
                freed += 1;
            }
        }
        freed
    }
}

/// A unique-table entry: the canonical node id plus the workspace that first
/// interned it (for cross-thread telemetry).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interned {
    pub(crate) id: u32,
    pub(crate) owner: u32,
}

/// Roots one parked workspace publishes into the barrier so the collector
/// can mark on its behalf: protected node ids and weight indices, in-flight
/// operand edges and the workspace's identity/gate-cache edges.
#[derive(Debug, Default)]
pub(crate) struct PublishedRoots {
    pub(crate) vroots: Vec<u32>,
    pub(crate) mroots: Vec<u32>,
    pub(crate) wroots: Vec<u32>,
    pub(crate) vedges: Vec<VEdge>,
    pub(crate) medges: Vec<MEdge>,
}

/// Mutable half of the GC barrier (guarded by [`SharedStore::barrier`];
/// waiting goes through [`SharedStore::barrier_cv`]).
#[derive(Debug, Default)]
pub(crate) struct BarrierState {
    /// Monotonic id of barrier *requests*; parked workspaces use it to
    /// detect that the round they joined ended (however it ended).
    pub(crate) request: u64,
    /// Monotonic count of *completed* collections; a parked workspace whose
    /// round advanced this drops its mirrors and memos on release.
    pub(crate) collections: u64,
    /// Roots of the workspaces parked in the current round (one entry per
    /// parked workspace — its length is the authoritative parked count).
    pub(crate) published: Vec<PublishedRoots>,
}

/// Aggregate telemetry of a [`SharedStore`] since it was created — for the
/// portfolio's per-race stores, the telemetry of one race.
///
/// Workspace-local counters (intern hits, cross-thread hits) are flushed
/// into the store when a workspace detaches, so the totals are complete once
/// a race has finished and its packages are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SharedStoreStats {
    /// Live nodes (both kinds) right now.
    pub live_nodes: usize,
    /// Highest live node count since the store was created.
    pub peak_nodes: usize,
    /// Nodes ever allocated across all workspaces (unique-table misses).
    pub allocated_nodes: u64,
    /// Nodes reclaimed by shared-store collections.
    pub reclaimed_nodes: u64,
    /// Completed shared-store collections (sole-attachment and barrier).
    pub gc_runs: usize,
    /// Subset of [`gc_runs`](Self::gc_runs) that ran as safe-point barrier
    /// collections with other workspaces parked mid-race.
    pub gc_barrier_runs: usize,
    /// Live interned complex weights.
    pub complex_entries: usize,
    /// Unique-table and gate-cache lookups answered by an existing canonical
    /// entry (from any workspace, including the asking one).
    pub intern_hits: u64,
    /// Subset of `intern_hits` where the entry was created by a *different*
    /// workspace — the cross-thread sharing the store exists for.
    pub cross_thread_hits: u64,
    /// Hot-path lock acquisitions (unique-table shards, shared gate cache,
    /// complex-table stripes and values) that found the lock held and had to
    /// block.
    pub shard_lock_waits: u64,
    /// Total time spent blocked in those acquisitions, in nanoseconds.
    /// Measured only on the blocking path: uncontended acquisitions
    /// contribute zero.
    pub shard_contention_ns: u64,
    /// Time threads spent stopped at GC barriers, in nanoseconds: parked
    /// workspaces' park durations plus the collector's wait for the world
    /// to park. Sums *across* threads, so it can exceed wall-clock time.
    pub barrier_wait_ns: u64,
    /// Barrier rounds abandoned because some workspace failed to reach a
    /// safe point within `BARRIER_PATIENCE`. Each deferral doubles the
    /// requesting workspace's GC threshold, so even one changes every later
    /// collection's timing.
    pub barrier_deferrals: usize,
    /// Workspaces currently attached.
    pub attached: usize,
}

impl SharedStoreStats {
    /// Fraction of canonical-store hits served by another workspace's
    /// entry, or `None` before the first hit.
    pub fn cross_thread_hit_rate(&self) -> Option<f64> {
        if self.intern_hits == 0 {
            None
        } else {
            Some(self.cross_thread_hits as f64 / self.intern_hits as f64)
        }
    }
}

/// The thread-safe shared core of a set of decision-diagram workspaces.
///
/// Create one per race, then attach one workspace per thread with
/// [`workspace`](Self::workspace) / [`workspace_with`](Self::workspace_with).
/// Workspaces of *different* qubit counts may share a store: unique tables
/// are sharded by node hash, not by level, so a miter package and a
/// reconstruction package with extra ancillas still share their common
/// low-level subdiagrams.
///
/// # Examples
///
/// ```
/// use dd::{gates, SharedStore};
///
/// let store = SharedStore::new();
/// let mut a = store.workspace(2);
/// let mut b = store.workspace(2);
/// let ga = a.make_gate(&gates::h(), 0, &[]);
/// let gb = b.make_gate(&gates::h(), 0, &[]);
/// // Canonical across workspaces: the same (node, weight) handle.
/// assert_eq!(ga, gb);
/// // Per-workspace telemetry flushes into the store when workspaces detach.
/// drop((a, b));
/// assert!(store.stats().cross_thread_hits > 0);
/// ```
#[derive(Debug)]
pub struct SharedStore {
    pub(crate) ctab: SharedComplexTable,
    pub(crate) vshards: Vec<Mutex<FxHashMap<VNode, Interned>>>,
    pub(crate) mshards: Vec<Mutex<FxHashMap<MNode, Interned>>>,
    pub(crate) varena: RwLock<Vec<VNode>>,
    pub(crate) marena: RwLock<Vec<MNode>>,
    pub(crate) vfree: Mutex<Vec<u32>>,
    pub(crate) mfree: Mutex<Vec<u32>>,
    /// Shared gate-diagram cache (L2 behind each workspace's lossy L1).
    pub(crate) gate_cache: Mutex<FxHashMap<GateKey, (MEdge, u32)>>,
    /// Serialises attachment against collection and elects the collector:
    /// the collector holds it for the whole barrier round, so no workspace
    /// can appear mid-collection. Collection
    /// candidates only ever `try_lock` it — blocking here while another
    /// collector waits for the world to park would deadlock.
    pub(crate) gc_lock: Mutex<()>,
    /// Raised by the collector; polled by every workspace at its operation
    /// safe points (park when set).
    pub(crate) gc_requested: AtomicBool,
    pub(crate) barrier: Mutex<BarrierState>,
    pub(crate) barrier_cv: Condvar,
    pub(crate) attached: AtomicUsize,
    next_workspace: AtomicU32,
    pub(crate) vlive: AtomicUsize,
    pub(crate) mlive: AtomicUsize,
    pub(crate) peak_nodes: AtomicUsize,
    pub(crate) allocated: AtomicU64,
    pub(crate) reclaimed: AtomicU64,
    pub(crate) gc_runs: AtomicUsize,
    pub(crate) gc_barrier_runs: AtomicUsize,
    pub(crate) intern_hits: AtomicU64,
    pub(crate) cross_thread_hits: AtomicU64,
    pub(crate) shard_lock_waits: AtomicU64,
    pub(crate) shard_contention_ns: AtomicU64,
    pub(crate) barrier_wait_ns: AtomicU64,
    pub(crate) barrier_deferrals: AtomicUsize,
}

impl SharedStore {
    /// Creates an empty shared store.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<SharedStore> {
        Arc::new(SharedStore {
            ctab: SharedComplexTable::new(),
            vshards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            mshards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            varena: RwLock::new(Vec::new()),
            marena: RwLock::new(Vec::new()),
            vfree: Mutex::new(Vec::new()),
            mfree: Mutex::new(Vec::new()),
            gate_cache: Mutex::new(FxHashMap::default()),
            gc_lock: Mutex::new(()),
            gc_requested: AtomicBool::new(false),
            barrier: Mutex::new(BarrierState::default()),
            barrier_cv: Condvar::new(),
            attached: AtomicUsize::new(0),
            next_workspace: AtomicU32::new(0),
            vlive: AtomicUsize::new(0),
            mlive: AtomicUsize::new(0),
            peak_nodes: AtomicUsize::new(0),
            allocated: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            gc_runs: AtomicUsize::new(0),
            gc_barrier_runs: AtomicUsize::new(0),
            intern_hits: AtomicU64::new(0),
            cross_thread_hits: AtomicU64::new(0),
            shard_lock_waits: AtomicU64::new(0),
            shard_contention_ns: AtomicU64::new(0),
            barrier_wait_ns: AtomicU64::new(0),
            barrier_deferrals: AtomicUsize::new(0),
        })
    }

    /// Attaches an unbudgeted workspace over `n_qubits` qubits.
    pub fn workspace(self: &Arc<Self>, n_qubits: usize) -> DdPackage {
        self.workspace_with(n_qubits, Budget::unlimited(), MemoryConfig::default())
    }

    /// Attaches a workspace with an explicit budget and memory configuration.
    ///
    /// The workspace's lossy compute caches are sized by `config` as usual;
    /// when its automatic-GC threshold trips mid-race, it requests a
    /// safe-point barrier collection (see the module docs).
    pub fn workspace_with(
        self: &Arc<Self>,
        n_qubits: usize,
        budget: Budget,
        config: MemoryConfig,
    ) -> DdPackage {
        DdPackage::attached(self, n_qubits, budget, config)
    }

    /// Number of workspaces currently attached.
    pub fn attached_workspaces(&self) -> usize {
        self.attached.load(Ordering::Acquire)
    }

    /// Live nodes across both arenas.
    pub(crate) fn live_nodes(&self) -> usize {
        self.vlive.load(Ordering::Relaxed) + self.mlive.load(Ordering::Relaxed)
    }

    /// Aggregate telemetry (see [`SharedStoreStats`]).
    pub fn stats(&self) -> SharedStoreStats {
        SharedStoreStats {
            live_nodes: self.live_nodes(),
            peak_nodes: self.peak_nodes.load(Ordering::Relaxed),
            allocated_nodes: self.allocated.load(Ordering::Relaxed),
            reclaimed_nodes: self.reclaimed.load(Ordering::Relaxed),
            gc_runs: self.gc_runs.load(Ordering::Relaxed),
            gc_barrier_runs: self.gc_barrier_runs.load(Ordering::Relaxed),
            complex_entries: self.ctab.live_len(),
            intern_hits: self.intern_hits.load(Ordering::Relaxed),
            cross_thread_hits: self.cross_thread_hits.load(Ordering::Relaxed),
            shard_lock_waits: self.shard_lock_waits.load(Ordering::Relaxed),
            shard_contention_ns: self.shard_contention_ns.load(Ordering::Relaxed),
            barrier_wait_ns: self.barrier_wait_ns.load(Ordering::Relaxed),
            barrier_deferrals: self.barrier_deferrals.load(Ordering::Relaxed),
            attached: self.attached.load(Ordering::Acquire),
        }
    }
}

/// Reads slot `idx` of a shared arena through a workspace mirror of it: a
/// live mirrored entry is returned without a lock; a miss or a mirrored
/// sentinel (`free`) refills the mirror under the arena read lock, in bulk
/// past its end or for that one slot below it.
#[inline]
fn read_mirrored<T: Copy>(
    mirror: &RefCell<Vec<T>>,
    arena: &RwLock<Vec<T>>,
    idx: usize,
    free: impl Fn(&T) -> bool,
) -> T {
    if let Some(&entry) = mirror.borrow().get(idx) {
        if !free(&entry) {
            return entry;
        }
    }
    let mut mirror = mirror.borrow_mut();
    let arena = read(arena);
    let len = mirror.len();
    if idx < len {
        mirror[idx] = arena[idx];
    } else {
        mirror.extend_from_slice(&arena[len..]);
    }
    mirror[idx]
}

/// Records a slot this workspace just wrote in its mirror, so the reads
/// that follow need no arena lock. A slot past the mirror's end is left to
/// the next refill unless it is the very next one.
fn note_mirrored<T>(mirror: &RefCell<Vec<T>>, idx: usize, entry: T) {
    let mut mirror = mirror.borrow_mut();
    if idx < mirror.len() {
        mirror[idx] = entry;
    } else if idx == mirror.len() {
        mirror.push(entry);
    }
}

/// The package-side handle of one attachment: the read mirrors, the weight
/// memos and telemetry.
///
/// The mirrors are `RefCell`s because diagram *reads* (`vnode`, weight
/// lookups) happen behind `&self` package methods; the package itself is
/// `Send` but not `Sync`, which is exactly the one-workspace-per-thread
/// contract.
#[derive(Debug)]
pub(crate) struct SharedHandle {
    pub(crate) store: Arc<SharedStore>,
    pub(crate) ws_id: u32,
    /// Copies of the arena and weight slots (see the module docs), valid
    /// until the next collection.
    vmirror: RefCell<Vec<VNode>>,
    mmirror: RefCell<Vec<MNode>>,
    cmirror: RefCell<Vec<Complex>>,
    mul_memo: LossyCache<(CIdx, CIdx), CIdx>,
    add_memo: LossyCache<(CIdx, CIdx), CIdx>,
    div_memo: LossyCache<(CIdx, CIdx), CIdx>,
    /// Exact-bits memo for raw value interning: identical bit patterns must
    /// map to the canonical index, so memoising on bits is loss-free.
    bits_memo: LossyCache<(u64, u64), CIdx>,
    pub(crate) intern_hits: u64,
    pub(crate) cross_thread_hits: u64,
    /// Hot-path lock acquisitions that had to block (see `lock_timed`).
    shard_lock_waits: u64,
    /// Nanoseconds spent blocked in those acquisitions.
    shard_contention_ns: u64,
}

/// log2 slots of the weight-arithmetic memo caches.
const MEMO_BITS: u32 = 14;

impl SharedHandle {
    pub(crate) fn new(store: &Arc<SharedStore>) -> Self {
        // Attachment synchronises with collection: once this increment is
        // visible (under the gc_lock), no barrier round can start or finish
        // without counting us. A panicking sibling may have poisoned the
        // lock; the guarded data is just the collector election, so recover.
        let _guard = lock(&store.gc_lock);
        store.attached.fetch_add(1, Ordering::AcqRel);
        SharedHandle {
            store: Arc::clone(store),
            ws_id: store.next_workspace.fetch_add(1, Ordering::Relaxed),
            vmirror: RefCell::new(Vec::new()),
            mmirror: RefCell::new(Vec::new()),
            cmirror: RefCell::new(Vec::new()),
            mul_memo: LossyCache::new("shared_mul", MEMO_BITS),
            add_memo: LossyCache::new("shared_add", MEMO_BITS),
            div_memo: LossyCache::new("shared_div", MEMO_BITS),
            bits_memo: LossyCache::new("shared_intern", MEMO_BITS),
            intern_hits: 0,
            cross_thread_hits: 0,
            shard_lock_waits: 0,
            shard_contention_ns: 0,
        }
    }

    /// Records a canonical hit on `owner`'s entry for telemetry.
    #[inline]
    fn note_hit(&mut self, owner: u32) {
        self.intern_hits += 1;
        if owner != self.ws_id {
            self.cross_thread_hits += 1;
        }
    }

    /// Drops the mirrors and the weight memos after a collection this
    /// workspace crossed: the sweep may have freed any slot they hold, and
    /// later interns may recycle it under the same index.
    pub(crate) fn clear_mirrors(&mut self) {
        self.vmirror.get_mut().clear();
        self.mmirror.get_mut().clear();
        self.cmirror.get_mut().clear();
        self.mul_memo.clear();
        self.add_memo.clear();
        self.div_memo.clear();
        self.bits_memo.clear();
    }

    // ------------------------------------------------------------------
    // Reads through the mirrors
    // ------------------------------------------------------------------

    pub(crate) fn vnode(&self, id: NodeId) -> VNode {
        read_mirrored(
            &self.vmirror,
            &self.store.varena,
            id.index(),
            VNode::is_free,
        )
    }

    pub(crate) fn mnode(&self, id: NodeId) -> MNode {
        read_mirrored(
            &self.mmirror,
            &self.store.marena,
            id.index(),
            MNode::is_free,
        )
    }

    pub(crate) fn value(&self, idx: CIdx) -> Complex {
        // Freed weight slots hold a NaN sentinel.
        read_mirrored(&self.cmirror, &self.store.ctab.values, idx.index(), |v| {
            v.re.is_nan()
        })
    }

    // ------------------------------------------------------------------
    // Complex weights
    // ------------------------------------------------------------------

    pub(crate) fn intern(&mut self, value: Complex) -> CIdx {
        if value.is_zero() {
            return CIdx::ZERO;
        }
        if value.is_one() {
            return CIdx::ONE;
        }
        let key = (value.re.to_bits(), value.im.to_bits());
        if let Some(idx) = self.bits_memo.get(&key) {
            return idx;
        }
        let idx = self.store.ctab.intern(
            value,
            &mut self.shard_lock_waits,
            &mut self.shard_contention_ns,
        );
        self.bits_memo.insert(key, idx);
        idx
    }

    pub(crate) fn mul(&mut self, a: CIdx, b: CIdx) -> CIdx {
        if a.is_zero() || b.is_zero() {
            return CIdx::ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        if let Some(idx) = self.mul_memo.get(&(a, b)) {
            return idx;
        }
        let product = self.value(a) * self.value(b);
        let idx = self.intern(product);
        self.mul_memo.insert((a, b), idx);
        idx
    }

    pub(crate) fn add(&mut self, a: CIdx, b: CIdx) -> CIdx {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if let Some(idx) = self.add_memo.get(&(a, b)) {
            return idx;
        }
        let sum = self.value(a) + self.value(b);
        let idx = self.intern(sum);
        self.add_memo.insert((a, b), idx);
        idx
    }

    pub(crate) fn div(&mut self, a: CIdx, b: CIdx) -> CIdx {
        debug_assert!(!b.is_zero(), "division of interned values by zero");
        if a.is_zero() {
            return CIdx::ZERO;
        }
        if b.is_one() {
            return a;
        }
        if let Some(idx) = self.div_memo.get(&(a, b)) {
            return idx;
        }
        let quotient = self.value(a) / self.value(b);
        let idx = self.intern(quotient);
        self.div_memo.insert((a, b), idx);
        idx
    }

    pub(crate) fn conj(&mut self, a: CIdx) -> CIdx {
        if a.is_zero() || a.is_one() {
            return a;
        }
        let conj = self.value(a).conj();
        self.intern(conj)
    }

    // ------------------------------------------------------------------
    // Node interning (sharded unique tables)
    // ------------------------------------------------------------------

    /// Interns a vector node; returns the canonical id and whether it was
    /// freshly allocated by this call.
    ///
    /// The arena slot is allocated with **no shard lock held**: nesting the
    /// global arena write lock (and its Vec-doubling memcpys) inside a shard
    /// critical section convoys every other shard behind one allocation. The
    /// price is a double-checked second probe; losing that race leaks the
    /// slot until the next sweep, where it is unreachable (never published
    /// to a map, never handed out as an id) and reclaimed like any other
    /// garbage. Slots still recycle at most once between collections — a
    /// leaked slot is written once and never re-freed before the next one.
    pub(crate) fn intern_vnode(&mut self, node: VNode) -> (NodeId, bool) {
        let hash = fx_hash(&node);
        let shard = &self.store.vshards[(hash as usize) & (SHARDS - 1)];
        {
            let map = lock_timed(
                shard,
                &mut self.shard_lock_waits,
                &mut self.shard_contention_ns,
            );
            if let Some(found) = map.get(&node) {
                let owner = found.owner;
                let id = found.id;
                drop(map);
                self.note_hit(owner);
                return (NodeId(id), false);
            }
        }
        let id = {
            let slot = lock(&self.store.vfree).pop();
            let mut arena = write(&self.store.varena);
            match slot {
                Some(slot) => {
                    arena[slot as usize] = node;
                    slot
                }
                None => {
                    arena.push(node);
                    (arena.len() - 1) as u32
                }
            }
        };
        let mut map = lock_timed(
            shard,
            &mut self.shard_lock_waits,
            &mut self.shard_contention_ns,
        );
        if let Some(found) = map.get(&node) {
            let owner = found.owner;
            let winner = found.id;
            drop(map);
            self.note_hit(owner);
            return (NodeId(winner), false);
        }
        map.insert(
            node,
            Interned {
                id,
                owner: self.ws_id,
            },
        );
        drop(map);
        self.note_allocation(
            self.store.vlive.fetch_add(1, Ordering::Relaxed)
                + 1
                + self.store.mlive.load(Ordering::Relaxed),
        );
        note_mirrored(&self.vmirror, id as usize, node);
        (NodeId(id), true)
    }

    /// Interns a matrix node; see [`intern_vnode`](Self::intern_vnode) for
    /// the double-checked allocate-outside-the-shard-lock protocol.
    pub(crate) fn intern_mnode(&mut self, node: MNode) -> (NodeId, bool) {
        let hash = fx_hash(&node);
        let shard = &self.store.mshards[(hash as usize) & (SHARDS - 1)];
        {
            let map = lock_timed(
                shard,
                &mut self.shard_lock_waits,
                &mut self.shard_contention_ns,
            );
            if let Some(found) = map.get(&node) {
                let owner = found.owner;
                let id = found.id;
                drop(map);
                self.note_hit(owner);
                return (NodeId(id), false);
            }
        }
        let id = {
            let slot = lock(&self.store.mfree).pop();
            let mut arena = write(&self.store.marena);
            match slot {
                Some(slot) => {
                    arena[slot as usize] = node;
                    slot
                }
                None => {
                    arena.push(node);
                    (arena.len() - 1) as u32
                }
            }
        };
        let mut map = lock_timed(
            shard,
            &mut self.shard_lock_waits,
            &mut self.shard_contention_ns,
        );
        if let Some(found) = map.get(&node) {
            let owner = found.owner;
            let winner = found.id;
            drop(map);
            self.note_hit(owner);
            return (NodeId(winner), false);
        }
        map.insert(
            node,
            Interned {
                id,
                owner: self.ws_id,
            },
        );
        drop(map);
        self.note_allocation(
            self.store.mlive.fetch_add(1, Ordering::Relaxed)
                + 1
                + self.store.vlive.load(Ordering::Relaxed),
        );
        note_mirrored(&self.mmirror, id as usize, node);
        (NodeId(id), true)
    }

    fn note_allocation(&self, live: usize) {
        self.store.allocated.fetch_add(1, Ordering::Relaxed);
        self.store.peak_nodes.fetch_max(live, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Shared gate cache (L2)
    // ------------------------------------------------------------------

    pub(crate) fn gate_get(&mut self, key: &GateKey) -> Option<MEdge> {
        let map = lock_timed(
            &self.store.gate_cache,
            &mut self.shard_lock_waits,
            &mut self.shard_contention_ns,
        );
        let (edge, owner) = map.get(key)?;
        let (edge, owner) = (*edge, *owner);
        drop(map);
        self.note_hit(owner);
        Some(edge)
    }

    pub(crate) fn gate_insert(&mut self, key: GateKey, edge: MEdge) {
        lock_timed(
            &self.store.gate_cache,
            &mut self.shard_lock_waits,
            &mut self.shard_contention_ns,
        )
        .entry(key)
        .or_insert((edge, self.ws_id));
    }
}

impl Drop for SharedHandle {
    fn drop(&mut self) {
        // Flush local telemetry so SharedStore::stats() is complete once a
        // race's workspaces are gone, then detach. A pending barrier may be
        // waiting for this workspace: the detach shrinks the parked quorum,
        // so wake the collector to re-count.
        self.store
            .intern_hits
            .fetch_add(self.intern_hits, Ordering::Relaxed);
        self.store
            .cross_thread_hits
            .fetch_add(self.cross_thread_hits, Ordering::Relaxed);
        self.store
            .shard_lock_waits
            .fetch_add(self.shard_lock_waits, Ordering::Relaxed);
        self.store
            .shard_contention_ns
            .fetch_add(self.shard_contention_ns, Ordering::Relaxed);
        obs::metrics::add(obs::metrics::DD_UNIQUE_HITS, self.intern_hits);
        obs::metrics::add(obs::metrics::DD_CROSS_THREAD_HITS, self.cross_thread_hits);
        obs::metrics::add(obs::metrics::DD_SHARD_WAITS, self.shard_lock_waits);
        obs::metrics::add(
            obs::metrics::DD_SHARD_CONTENTION_NS,
            self.shard_contention_ns,
        );
        self.store.attached.fetch_sub(1, Ordering::AcqRel);
        if self.store.gc_requested.load(Ordering::Acquire) {
            let _barrier = lock(&self.store.barrier);
            self.store.barrier_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn attach_recovers_from_a_poisoned_gc_lock() {
        // A scheme thread that panics while holding the gc_lock (e.g. mid
        // attach) poisons it; later attaches and detaches must recover
        // instead of cascading the panic through the whole portfolio.
        let store = SharedStore::new();
        let poisoner = Arc::clone(&store);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = poisoner.gc_lock.lock().unwrap();
            panic!("scheme died while attached");
        }));
        assert!(store.gc_lock.is_poisoned(), "test setup: lock not poisoned");

        let mut workspace = store.workspace(2);
        let gate = workspace.make_gate(&gates::h(), 0, &[]);
        assert!(!gate.is_zero());
        drop(workspace);
        assert_eq!(store.stats().attached, 0);

        // Collection still works on the recovered lock.
        let mut collector = store.workspace(2);
        collector.garbage_collect();
        let rebuilt = collector.make_gate(&gates::h(), 0, &[]);
        assert_eq!(rebuilt, gate, "canonicity lost across poison recovery");
    }

    #[test]
    fn striped_interning_merges_within_tolerance_across_batches() {
        // The striped table must canonicalise exactly like the private one:
        // values within tolerance merge across separate interns, and the
        // constants keep their reserved indices.
        let store = SharedStore::new();
        let mut waits = 0;
        let mut ns = 0;
        let a = store
            .ctab
            .intern(Complex::new(0.5, -0.25), &mut waits, &mut ns);
        let out: Vec<CIdx> = [
            Complex::ZERO,
            Complex::ONE,
            Complex::new(0.5 + 1e-14, -0.25),
            Complex::new(0.5, -0.25 + 0.4 * TOLERANCE),
            Complex::new(-0.5, 0.25),
        ]
        .into_iter()
        .map(|value| store.ctab.intern(value, &mut waits, &mut ns))
        .collect();
        assert_eq!(out[0], CIdx::ZERO);
        assert_eq!(out[1], CIdx::ONE);
        assert_eq!(out[2], a, "within-tolerance value must merge");
        assert_eq!(out[3], a, "near-boundary value must merge");
        assert_ne!(out[4], a, "distinct value must get a fresh index");
        assert_eq!(store.ctab.live_len(), 4); // 0, 1, a, -a
    }

    #[test]
    fn retain_marked_keeps_indices_stable_and_recycles_free_slots() {
        let store = SharedStore::new();
        let mut waits = 0;
        let mut ns = 0;
        let keep = store
            .ctab
            .intern(Complex::new(0.25, 0.0), &mut waits, &mut ns);
        let dead = store
            .ctab
            .intern(Complex::new(0.75, 0.0), &mut waits, &mut ns);
        let mut marked = vec![false; store.ctab.len()];
        marked[keep.index()] = true;
        assert_eq!(store.ctab.retain_marked(&marked), 1);
        // The kept index is stable; the dead slot is a NaN sentinel.
        let values = read(&store.ctab.values);
        assert!(values[keep.index()].approx_eq(Complex::new(0.25, 0.0)));
        assert!(values[dead.index()].re.is_nan());
        drop(values);
        // The freed slot is recycled by the next intern.
        let recycled = store
            .ctab
            .intern(Complex::new(0.125, 0.5), &mut waits, &mut ns);
        assert_eq!(recycled, dead);
        // And the kept value still resolves to its old index.
        assert_eq!(
            store
                .ctab
                .intern(Complex::new(0.25, 0.0), &mut waits, &mut ns),
            keep
        );
    }
}
