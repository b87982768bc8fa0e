//! The decision-diagram package: arenas, unique tables, compute tables and
//! all operations on vector and matrix decision diagrams.
//!
//! A [`DdPackage`] owns every node and interned complex value of the diagrams
//! built through it. Edges ([`VEdge`], [`MEdge`]) are plain copyable handles
//! that are only meaningful together with the package that created them.
//!
//! # Examples
//!
//! Applying a Hadamard gate to |0⟩ and reading the outcome probabilities:
//!
//! ```
//! use dd::{DdPackage, gates};
//!
//! let mut p = DdPackage::new(1);
//! let state = p.zero_state();
//! let state = p.apply_gate(state, &gates::h(), 0, &[]);
//! let (p0, p1) = p.probabilities(state, 0);
//! assert!((p0 - 0.5).abs() < 1e-12);
//! assert!((p1 - 0.5).abs() < 1e-12);
//! ```

use crate::cache::{CacheCounters, LossyCache, UniqueTable};
use crate::complex::{Complex, TOLERANCE};
use crate::gates::{self, GateMatrix};
use crate::hash::{fx_hash, FxHashMap};
use crate::limits::{Budget, LimitExceeded};
use crate::node::{MEdge, MNode, NodeId, VEdge, VNode};
use crate::store::{SharedHandle, SharedStore};
use crate::table::{CIdx, ComplexTable};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a barrier-GC collector waits for every other attached workspace
/// to park at a safe point before abandoning the round (falling back to
/// deferral). Bounds the stall an idle attachment — or one stuck inside a
/// single very long operation — can impose on a collection request.
const BARRIER_PATIENCE: Duration = Duration::from_millis(100);

/// What a shared-store collection attempt did (see
/// [`DdPackage::collect_garbage`] for the public `usize` view).
enum SharedGcOutcome {
    /// A sweep ran and reclaimed this many nodes.
    Collected(usize),
    /// Another workspace holds the collector role; nothing was swept here.
    Contended,
    /// The barrier timed out waiting for an attachment to reach a safe
    /// point; the request was abandoned (deferral fallback).
    Aborted,
}

/// RAII scope of one barrier-GC round: raises `gc_requested` on `begin` and
/// guarantees the round is closed on *every* exit path — via
/// [`complete`](Self::complete) after a successful sweep (bumps the
/// generation so parked workspaces re-pin the freshly published snapshot),
/// or via `Drop` on abort and on collector panic (no generation bump; parked
/// workspaces resume on their existing pin instead of waiting forever on a
/// dead round).
struct BarrierRound<'a> {
    store: &'a crate::store::SharedStore,
    completed: bool,
}

impl<'a> BarrierRound<'a> {
    fn begin(store: &'a crate::store::SharedStore) -> Self {
        let mut barrier = crate::store::lock(&store.barrier);
        barrier.request += 1;
        store.gc_requested.store(true, Ordering::Release);
        drop(barrier);
        BarrierRound {
            store,
            completed: false,
        }
    }

    /// Closes the round after a successful sweep: parked workspaces wake,
    /// see the generation advance and re-pin the new snapshot (their memos
    /// survive — the sweep marked their weight roots).
    fn complete(mut self) {
        let mut barrier = crate::store::lock(&self.store.barrier);
        barrier.generation += 1;
        self.completed = true;
        self.store.gc_requested.store(false, Ordering::Release);
        self.store.barrier_cv.notify_all();
    }
}

impl Drop for BarrierRound<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        let mut barrier = crate::store::lock(&self.store.barrier);
        // Invalidate the round id so any workspace parked on it stops
        // waiting — whether the collector gave up (abort) or died mid-sweep
        // (panic), a request that will never finish must not hold parkers.
        barrier.request += 1;
        barrier.published.clear();
        self.store.gc_requested.store(false, Ordering::Release);
        self.store.barrier_cv.notify_all();
    }
}

/// A control qubit of a multi-qubit gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Control {
    /// The controlling qubit.
    pub qubit: usize,
    /// `true` for a regular (positive) control, `false` for a negative
    /// control that triggers on |0⟩.
    pub positive: bool,
}

impl Control {
    /// Positive control on `qubit`.
    pub const fn pos(qubit: usize) -> Self {
        Control {
            qubit,
            positive: true,
        }
    }

    /// Negative control on `qubit`.
    pub const fn neg(qubit: usize) -> Self {
        Control {
            qubit,
            positive: false,
        }
    }
}

/// Statistics about the current contents of a [`DdPackage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackageStats {
    /// Number of distinct *live* vector nodes (allocated minus collected).
    pub vector_nodes: usize,
    /// Number of distinct *live* matrix nodes (allocated minus collected).
    pub matrix_nodes: usize,
    /// Number of distinct interned complex values.
    pub complex_values: usize,
}

/// Sizing and garbage-collection knobs of a [`DdPackage`].
///
/// The compute tables are *lossy*: direct-mapped, overwriting on collision.
/// All sizes are powers of two given as the bit count of the table's
/// *bound*: a table starts at 256 slots (or the bound, when smaller) and
/// quadruples under insert pressure up to the bound, so bigger bounds trade
/// memory for fewer recomputations while short-lived packages stay small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemoryConfig {
    /// log2 slots of the binary compute tables (mat·vec, mat·mat, add).
    pub binary_cache_bits: u32,
    /// log2 slots of the unary compute tables (transpose, inner product,
    /// trace, norm).
    pub unary_cache_bits: u32,
    /// log2 slots of the gate-diagram cache keyed by
    /// `(GateMatrix, target, controls)`.
    pub gate_cache_bits: u32,
    /// Live-node count that triggers automatic garbage collection at the
    /// next operation safe point; `None` disables automatic collection
    /// (explicit [`DdPackage::garbage_collect`] still works). When a run
    /// reclaims less than a quarter of the threshold the threshold doubles,
    /// so workloads with mostly-live diagrams do not thrash.
    pub gc_threshold: Option<usize>,
}

/// Default automatic-GC trigger (live nodes across both arenas).
pub const DEFAULT_GC_THRESHOLD: usize = 1 << 18;

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            binary_cache_bits: 16,
            unary_cache_bits: 14,
            gate_cache_bits: 12,
            gc_threshold: Some(DEFAULT_GC_THRESHOLD),
        }
    }
}

/// Memory-system telemetry of a [`DdPackage`].
///
/// Counters are cumulative over the package's lifetime; garbage collection
/// and [`DdPackage::clear_compute_tables`] never reset them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryStats {
    /// Live vector nodes right now.
    pub live_vector_nodes: usize,
    /// Live matrix nodes right now.
    pub live_matrix_nodes: usize,
    /// Highest live node count (both arenas) ever observed.
    pub peak_nodes: usize,
    /// Nodes ever allocated (unique-table misses).
    pub allocated_nodes: u64,
    /// Nodes reclaimed by garbage collection.
    pub reclaimed_nodes: u64,
    /// Completed garbage-collection runs.
    pub gc_runs: usize,
    /// Complex-table slots (live entries plus compaction-freed slots).
    pub complex_values: usize,
    /// *Live* interned complex weights (slots minus compaction-freed ones).
    pub complex_entries: usize,
    /// Complex-table entries reclaimed by garbage-collection compaction.
    pub complex_reclaimed: u64,
    /// Live nodes in the attached [`SharedStore`](crate::SharedStore)
    /// (`0` for a private package).
    pub shared_nodes: usize,
    /// Shared-store canonical lookups (unique tables and the shared gate
    /// cache) answered by an existing entry. `0` for a private package.
    pub intern_hits: u64,
    /// Subset of [`intern_hits`](Self::intern_hits) where the entry was
    /// created by a *different* workspace of the same shared store.
    pub cross_thread_hits: u64,
    /// Compute-table lookups across all eight tables.
    pub compute_lookups: u64,
    /// Compute-table lookups answered from cache.
    pub compute_hits: u64,
    /// Gate-diagram cache lookups.
    pub gate_lookups: u64,
    /// Gate-diagram cache hits.
    pub gate_hits: u64,
}

impl MemoryStats {
    /// Fraction of compute-table lookups served from cache, or `None` before
    /// the first lookup.
    pub fn compute_hit_rate(&self) -> Option<f64> {
        if self.compute_lookups == 0 {
            None
        } else {
            Some(self.compute_hits as f64 / self.compute_lookups as f64)
        }
    }

    /// Fraction of gate-diagram builds avoided by the gate cache.
    pub fn gate_hit_rate(&self) -> Option<f64> {
        if self.gate_lookups == 0 {
            None
        } else {
            Some(self.gate_hits as f64 / self.gate_lookups as f64)
        }
    }

    /// Fraction of shared-store canonical hits served by an entry another
    /// workspace created, or `None` for private packages (no shared hits).
    pub fn cross_thread_hit_rate(&self) -> Option<f64> {
        if self.intern_hits == 0 {
            None
        } else {
            Some(self.cross_thread_hits as f64 / self.intern_hits as f64)
        }
    }

    /// Aggregates telemetry of several packages (e.g. the two simulators of
    /// a simulative check): counters add up, gauges take the maximum.
    #[must_use]
    pub fn merged_with(&self, other: &MemoryStats) -> MemoryStats {
        MemoryStats {
            live_vector_nodes: self.live_vector_nodes.max(other.live_vector_nodes),
            live_matrix_nodes: self.live_matrix_nodes.max(other.live_matrix_nodes),
            peak_nodes: self.peak_nodes.max(other.peak_nodes),
            allocated_nodes: self.allocated_nodes + other.allocated_nodes,
            reclaimed_nodes: self.reclaimed_nodes + other.reclaimed_nodes,
            gc_runs: self.gc_runs + other.gc_runs,
            complex_values: self.complex_values.max(other.complex_values),
            complex_entries: self.complex_entries.max(other.complex_entries),
            complex_reclaimed: self.complex_reclaimed + other.complex_reclaimed,
            shared_nodes: self.shared_nodes.max(other.shared_nodes),
            intern_hits: self.intern_hits + other.intern_hits,
            cross_thread_hits: self.cross_thread_hits + other.cross_thread_hits,
            compute_lookups: self.compute_lookups + other.compute_lookups,
            compute_hits: self.compute_hits + other.compute_hits,
            gate_lookups: self.gate_lookups + other.gate_lookups,
            gate_hits: self.gate_hits + other.gate_hits,
        }
    }
}

/// Cache key of a gate diagram: exact matrix bit patterns plus placement
/// *and register size* — the diagram wraps identity levels up to the
/// package's qubit count, so the same gate in registers of different widths
/// is a different diagram.
///
/// Shared between each package's lossy L1 gate cache and the
/// [`SharedStore`](crate::SharedStore)'s exact L2 map (where workspaces of
/// different sizes coexist).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct GateKey {
    matrix: [u64; 8],
    n_qubits: u32,
    target: u32,
    controls: Vec<Control>,
}

/// Decision-diagram package for up to `n_qubits` qubits.
///
/// All diagram-producing methods take `&mut self` because they may allocate
/// nodes or interned weights.
///
/// # Memory model
///
/// Nodes live in per-kind arenas with free lists and are hash-consed through
/// one open-addressed unique table per qubit level. Memoisation goes through
/// fixed-size lossy caches (see [`MemoryConfig`]). A mark-and-sweep
/// [`garbage_collect`](Self::garbage_collect) reclaims nodes unreachable
/// from the *roots*:
///
/// * edges registered via [`protect_vector`](Self::protect_vector) /
///   [`protect_matrix`](Self::protect_matrix) (reference counted),
/// * the identity cache and the gate-diagram cache,
/// * the operand edges of the operation that triggered an automatic run
///   (collection only ever happens at the entry of a top-level operation,
///   never in the middle of a recursion).
///
/// **Contract for callers:** an edge merely held in a variable across *other*
/// package operations is not a root. On a package that may collect (the
/// default), protect such edges and unprotect them when done; edges passed
/// as operands to the current operation are protected automatically. After a
/// collection, unprotected edges may dangle — using one is not memory-unsafe
/// (arena slots are recycled, not freed) but yields meaningless diagrams.
#[derive(Debug)]
pub struct DdPackage {
    n_qubits: usize,
    ctab: ComplexTable,
    pub(crate) vnodes: Vec<VNode>,
    vfree: Vec<u32>,
    vunique: Vec<UniqueTable>,
    pub(crate) mnodes: Vec<MNode>,
    mfree: Vec<u32>,
    munique: Vec<UniqueTable>,
    ct_mat_vec: LossyCache<(NodeId, NodeId), VEdge>,
    ct_mat_mat: LossyCache<(NodeId, NodeId), MEdge>,
    ct_add_vec: LossyCache<(NodeId, NodeId, CIdx), VEdge>,
    ct_add_mat: LossyCache<(NodeId, NodeId, CIdx), MEdge>,
    ct_transpose: LossyCache<NodeId, MEdge>,
    ct_inner: LossyCache<(NodeId, NodeId), Complex>,
    ct_trace: LossyCache<NodeId, Complex>,
    vnorm_cache: LossyCache<NodeId, f64>,
    gate_cache: LossyCache<GateKey, MEdge>,
    ident_cache: Vec<MEdge>,
    vroots: FxHashMap<u32, u32>,
    mroots: FxHashMap<u32, u32>,
    /// Weight indices of protected edges (refcounted): roots of the
    /// complex-table compaction, the same way `vroots`/`mroots` are roots of
    /// the node sweep.
    wroots: FxHashMap<u32, u32>,
    gc_threshold: Option<usize>,
    gc_runs: usize,
    allocated_nodes: u64,
    reclaimed_nodes: u64,
    complex_reclaimed: u64,
    /// Node-budget meter of a shared workspace: fresh allocations into the
    /// store, re-snapped to the store's live count after a sole-attachment
    /// collection (see `charge_allocation`). Unused in private mode.
    charged_nodes: usize,
    peak_nodes: usize,
    budget: Budget,
    exceeded: Option<LimitExceeded>,
    allocs_since_check: u32,
    /// Present when this package is a workspace of a [`SharedStore`]; all
    /// node/weight canonicalisation then goes through the store.
    shared: Option<SharedHandle>,
}

impl DdPackage {
    /// Creates a package for diagrams over `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds `u16::MAX` (the level encoding width).
    pub fn new(n_qubits: usize) -> Self {
        DdPackage::with_budget(n_qubits, Budget::unlimited())
    }

    /// Creates a package whose operations observe `budget`: cancellation via
    /// the budget's [`CancelToken`](crate::CancelToken), the wall-clock
    /// deadline and the node limit are checked inside node allocation, the
    /// one funnel every diagram operation passes through.
    ///
    /// Once a limit trips, [`limit_exceeded`](Self::limit_exceeded) reports
    /// it, in-flight recursive operations unwind quickly by returning zero
    /// edges, and no further compute-table entries are recorded (so the
    /// memoisation is never poisoned by partial results). A package in this
    /// state must be discarded; results obtained after the trip are
    /// meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds `u16::MAX` (the level encoding width).
    pub fn with_budget(n_qubits: usize, budget: Budget) -> Self {
        DdPackage::with_config(n_qubits, budget, MemoryConfig::default())
    }

    /// Creates a package with explicit [`MemoryConfig`] sizing.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds `u16::MAX` (the level encoding width).
    pub fn with_config(n_qubits: usize, budget: Budget, config: MemoryConfig) -> Self {
        assert!(
            n_qubits <= u16::MAX as usize,
            "qubit count {n_qubits} exceeds the supported maximum"
        );
        let binary = config.binary_cache_bits;
        let unary = config.unary_cache_bits;
        DdPackage {
            n_qubits,
            ctab: ComplexTable::new(),
            vnodes: Vec::new(),
            vfree: Vec::new(),
            vunique: (0..n_qubits).map(|_| UniqueTable::new()).collect(),
            mnodes: Vec::new(),
            mfree: Vec::new(),
            munique: (0..n_qubits).map(|_| UniqueTable::new()).collect(),
            ct_mat_vec: LossyCache::new("mat_vec", binary),
            ct_mat_mat: LossyCache::new("mat_mat", binary),
            ct_add_vec: LossyCache::new("add_vec", binary),
            ct_add_mat: LossyCache::new("add_mat", binary),
            ct_transpose: LossyCache::new("transpose", unary),
            ct_inner: LossyCache::new("inner", unary),
            ct_trace: LossyCache::new("trace", unary),
            vnorm_cache: LossyCache::new("vnorm", unary),
            gate_cache: LossyCache::new("gate", config.gate_cache_bits),
            ident_cache: vec![MEdge::ONE],
            vroots: FxHashMap::default(),
            mroots: FxHashMap::default(),
            wroots: FxHashMap::default(),
            gc_threshold: config.gc_threshold,
            gc_runs: 0,
            allocated_nodes: 0,
            reclaimed_nodes: 0,
            complex_reclaimed: 0,
            charged_nodes: 0,
            peak_nodes: 0,
            budget,
            exceeded: None,
            allocs_since_check: 0,
            shared: None,
        }
    }

    /// Creates a workspace attached to `store` (see
    /// [`SharedStore::workspace_with`]): node and weight canonicalisation go
    /// through the store's concurrent tables, while the lossy compute caches,
    /// the budget and all telemetry stay thread-local.
    pub(crate) fn attached(
        store: &Arc<SharedStore>,
        n_qubits: usize,
        budget: Budget,
        config: MemoryConfig,
    ) -> Self {
        let mut package = DdPackage::with_config(n_qubits, budget, config);
        package.shared = Some(SharedHandle::new(store));
        package
    }

    /// Creates either a workspace attached to `store` or a private package:
    /// the one-liner the verification schemes use to honour an optional
    /// shared store without duplicating construction logic.
    pub fn with_store(store: Option<&Arc<SharedStore>>, n_qubits: usize, budget: Budget) -> Self {
        DdPackage::with_store_config(store, n_qubits, budget, MemoryConfig::default())
    }

    /// [`with_store`](Self::with_store) with explicit [`MemoryConfig`]
    /// sizing: the portfolio scheduler uses this to hand each verification
    /// scheme a garbage-collection threshold tuned from recorded peak-node
    /// telemetry instead of the static default.
    pub fn with_store_config(
        store: Option<&Arc<SharedStore>>,
        n_qubits: usize,
        budget: Budget,
        config: MemoryConfig,
    ) -> Self {
        match store {
            Some(store) => store.workspace_with(n_qubits, budget, config),
            None => DdPackage::with_config(n_qubits, budget, config),
        }
    }

    /// The shared store this package is attached to, if any.
    pub fn shared_store(&self) -> Option<&Arc<SharedStore>> {
        self.shared.as_ref().map(|handle| &handle.store)
    }

    /// Number of qubits this package was created for.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The budget this package observes.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Returns the limit that stopped this package, if any tripped.
    ///
    /// Callers of diagram operations on a budgeted package must check this
    /// after each operation: once set, operation results are zero edges and
    /// carry no meaning.
    #[inline]
    pub fn limit_exceeded(&self) -> Option<LimitExceeded> {
        self.exceeded
    }

    /// Budget bookkeeping on the node-allocation path.
    ///
    /// The cancel flag is an atomic shared across threads and the deadline
    /// needs a clock read, so both are polled only every 256 allocations; the
    /// node cap is a plain comparison and is checked every time.
    ///
    /// On a shared-store workspace the cap meters `charged_nodes`: the
    /// nodes *this workspace* allocated (store misses it paid for), not the
    /// store-wide live count — budgets keep their per-scheme meaning in a
    /// race, and reusing a node another scheme interned costs nothing; that
    /// reuse is the point of sharing. While collection is deferred (other
    /// workspaces attached) nothing is reclaimed, so the charge is also the
    /// scheme's true live contribution to the store; after a
    /// sole-attachment collection the charge re-snaps to the store's live
    /// count, mirroring how a private package's live meter shrinks under GC.
    #[inline]
    fn charge_allocation(&mut self) {
        if self.exceeded.is_some() {
            return;
        }
        if let Some(max) = self.budget.max_nodes() {
            let metered = match &self.shared {
                None => self.live_nodes(),
                Some(_) => self.charged_nodes,
            };
            if metered > max {
                self.exceeded = Some(LimitExceeded::NodeLimit);
                return;
            }
        }
        self.allocs_since_check = self.allocs_since_check.wrapping_add(1);
        if self.allocs_since_check & 0xFF == 0 {
            if self.budget.is_cancelled() {
                self.exceeded = Some(LimitExceeded::Cancelled);
            } else if self.budget.deadline_exceeded() {
                self.exceeded = Some(LimitExceeded::Deadline);
            }
        }
    }

    /// Returns allocation statistics (live node counts).
    ///
    /// For a workspace of a [`SharedStore`], the counts are store-wide: the
    /// nodes are collectively owned, there is no per-workspace arena.
    pub fn stats(&self) -> PackageStats {
        match &self.shared {
            None => PackageStats {
                vector_nodes: self.vnodes.len() - self.vfree.len(),
                matrix_nodes: self.mnodes.len() - self.mfree.len(),
                complex_values: self.ctab.len(),
            },
            Some(handle) => PackageStats {
                vector_nodes: handle.store.vlive.load(Ordering::Relaxed),
                matrix_nodes: handle.store.mlive.load(Ordering::Relaxed),
                complex_values: handle.store.ctab.len(),
            },
        }
    }

    /// Live nodes across both arenas (store-wide for shared workspaces, so
    /// node budgets meter the collective heap they contribute to).
    #[inline]
    fn live_nodes(&self) -> usize {
        match &self.shared {
            None => self.vnodes.len() - self.vfree.len() + self.mnodes.len() - self.mfree.len(),
            Some(handle) => handle.store.live_nodes(),
        }
    }

    /// Drops all memoisation tables (unique tables and nodes are kept).
    ///
    /// Useful between independent computations to bound memory growth. The
    /// hit/lookup counters survive; the gate-diagram cache is dropped too.
    pub fn clear_compute_tables(&mut self) {
        self.clear_node_keyed_caches();
        self.gate_cache.clear();
    }

    /// Clears the memoisation tables whose entries reference nodes — called
    /// after a collection, when freed arena slots may be recycled under the
    /// same [`NodeId`]s. The gate cache is kept: its entries are collection
    /// roots and therefore stay valid.
    fn clear_node_keyed_caches(&mut self) {
        self.ct_mat_vec.clear();
        self.ct_mat_mat.clear();
        self.ct_add_vec.clear();
        self.ct_add_mat.clear();
        self.ct_transpose.clear();
        self.ct_inner.clear();
        self.ct_trace.clear();
        self.vnorm_cache.clear();
    }

    // ------------------------------------------------------------------
    // Roots, garbage collection and memory telemetry
    // ------------------------------------------------------------------

    /// Refcounts the weight of a protected edge so complex-table compaction
    /// keeps it (terminal edges carry meaningful weights too).
    fn protect_weight(&mut self, weight: CIdx) {
        if !weight.is_zero() && !weight.is_one() {
            *self.wroots.entry(weight.0).or_insert(0) += 1;
        }
    }

    /// Releases one weight protection.
    fn unprotect_weight(&mut self, weight: CIdx) {
        if weight.is_zero() || weight.is_one() {
            return;
        }
        if let Some(count) = self.wroots.get_mut(&weight.0) {
            *count -= 1;
            if *count == 0 {
                self.wroots.remove(&weight.0);
            }
        } else {
            debug_assert!(false, "unprotect of a weight without matching protect");
        }
    }

    /// Registers a vector edge as a garbage-collection root (refcounted);
    /// the edge's node survives the sweep and its weight survives the
    /// complex-table compaction.
    ///
    /// Protect every edge you hold across other package operations; balance
    /// with [`unprotect_vector`](Self::unprotect_vector).
    pub fn protect_vector(&mut self, e: VEdge) {
        if !e.is_terminal() {
            *self.vroots.entry(e.node.0).or_insert(0) += 1;
        }
        self.protect_weight(e.weight);
    }

    /// Releases one protection of a vector edge.
    pub fn unprotect_vector(&mut self, e: VEdge) {
        self.unprotect_weight(e.weight);
        if e.is_terminal() {
            return;
        }
        if let Some(count) = self.vroots.get_mut(&e.node.0) {
            *count -= 1;
            if *count == 0 {
                self.vroots.remove(&e.node.0);
            }
        } else {
            debug_assert!(false, "unprotect_vector without matching protect");
        }
    }

    /// Registers a matrix edge as a garbage-collection root (refcounted).
    pub fn protect_matrix(&mut self, e: MEdge) {
        if !e.is_terminal() {
            *self.mroots.entry(e.node.0).or_insert(0) += 1;
        }
        self.protect_weight(e.weight);
    }

    /// Releases one protection of a matrix edge.
    pub fn unprotect_matrix(&mut self, e: MEdge) {
        self.unprotect_weight(e.weight);
        if e.is_terminal() {
            return;
        }
        if let Some(count) = self.mroots.get_mut(&e.node.0) {
            *count -= 1;
            if *count == 0 {
                self.mroots.remove(&e.node.0);
            }
        } else {
            debug_assert!(false, "unprotect_matrix without matching protect");
        }
    }

    /// The automatic-collection threshold currently in force.
    pub fn gc_threshold(&self) -> Option<usize> {
        self.gc_threshold
    }

    /// Replaces the automatic-collection threshold (`None` disables).
    pub fn set_gc_threshold(&mut self, threshold: Option<usize>) {
        self.gc_threshold = threshold;
    }

    /// Mark-and-sweep collection from the registered roots (plus the
    /// identity and gate caches). Returns the number of reclaimed nodes.
    ///
    /// Node-keyed compute tables are invalidated because freed arena slots
    /// are recycled under the same ids. The complex table is compacted in
    /// the same pass: weights referenced by no surviving node, protected
    /// edge or cached gate diagram are freed for reuse.
    ///
    /// On a workspace of a [`SharedStore`] with other workspaces attached,
    /// this requests a **safe-point barrier** collection: the other
    /// workspaces park at their next operation safe point with their roots
    /// published, and this workspace sweeps on behalf of all of them (see
    /// the `dd::store` module docs). If an attached workspace does not
    /// reach a safe point within the barrier patience (it is idle or stuck
    /// in one very long operation), the request is abandoned and `0` is
    /// returned — the old deferral semantics as a fallback.
    pub fn garbage_collect(&mut self) -> usize {
        self.collect_garbage(&[], &[])
    }

    /// [`garbage_collect`](Self::garbage_collect) with additional temporary
    /// roots — the operand edges of an in-flight operation entry point.
    pub fn collect_garbage(&mut self, keep_vectors: &[VEdge], keep_matrices: &[MEdge]) -> usize {
        if self.shared.is_some() {
            return match self.collect_shared(keep_vectors, keep_matrices) {
                SharedGcOutcome::Collected(reclaimed) => reclaimed,
                SharedGcOutcome::Contended | SharedGcOutcome::Aborted => 0,
            };
        }
        self.collect_private(keep_vectors, keep_matrices)
    }

    /// Private-package mark-and-sweep (the non-shared half of
    /// [`collect_garbage`](Self::collect_garbage)).
    fn collect_private(&mut self, keep_vectors: &[VEdge], keep_matrices: &[MEdge]) -> usize {
        // --- mark ---------------------------------------------------------
        let mut vmark = vec![false; self.vnodes.len()];
        let mut mmark = vec![false; self.mnodes.len()];
        for &id in self.vroots.keys() {
            mark_vector(&self.vnodes, &mut vmark, NodeId(id));
        }
        for e in keep_vectors {
            if !e.is_zero() {
                mark_vector(&self.vnodes, &mut vmark, e.node);
            }
        }
        for &id in self.mroots.keys() {
            mark_matrix(&self.mnodes, &mut mmark, NodeId(id));
        }
        for e in keep_matrices {
            if !e.is_zero() {
                mark_matrix(&self.mnodes, &mut mmark, e.node);
            }
        }
        for e in &self.ident_cache {
            if !e.is_zero() {
                mark_matrix(&self.mnodes, &mut mmark, e.node);
            }
        }
        for (_, e) in self.gate_cache.entries() {
            if !e.is_zero() {
                mark_matrix(&self.mnodes, &mut mmark, e.node);
            }
        }

        // --- sweep --------------------------------------------------------
        let mut reclaimed = 0usize;
        for (idx, marked) in vmark.iter().enumerate() {
            if !marked && !self.vnodes[idx].is_free() {
                self.vnodes[idx] = VNode::FREE;
                self.vfree.push(idx as u32);
                reclaimed += 1;
            }
        }
        for (idx, marked) in mmark.iter().enumerate() {
            if !marked && !self.mnodes[idx].is_free() {
                self.mnodes[idx] = MNode::FREE;
                self.mfree.push(idx as u32);
                reclaimed += 1;
            }
        }

        // --- rebuild the per-level unique tables --------------------------
        let (vnodes, vunique) = (&self.vnodes, &mut self.vunique);
        for table in vunique.iter_mut() {
            table.clear();
        }
        for (idx, node) in vnodes.iter().enumerate() {
            if !node.is_free() {
                vunique[node.var as usize].insert(fx_hash(node), idx as u32, |id| {
                    fx_hash(&vnodes[id as usize])
                });
            }
        }
        let (mnodes, munique) = (&self.mnodes, &mut self.munique);
        for table in munique.iter_mut() {
            table.clear();
        }
        for (idx, node) in mnodes.iter().enumerate() {
            if !node.is_free() {
                munique[node.var as usize].insert(fx_hash(node), idx as u32, |id| {
                    fx_hash(&mnodes[id as usize])
                });
            }
        }

        // --- compact the complex table ------------------------------------
        let root_medges: Vec<MEdge> = keep_matrices
            .iter()
            .chain(&self.ident_cache)
            .copied()
            .chain(self.gate_cache.entries().map(|(_, e)| *e))
            .collect();
        let cmark = mark_weights(
            &self.vnodes,
            &self.mnodes,
            self.wroots.keys().copied(),
            keep_vectors,
            &root_medges,
            self.ctab.len(),
        );
        let compacted = self.ctab.retain_marked(&cmark) as u64;
        self.complex_reclaimed += compacted;

        self.clear_node_keyed_caches();
        self.gc_runs += 1;
        self.reclaimed_nodes += reclaimed as u64;
        obs::metrics::incr(obs::metrics::DD_GC_RUNS);
        obs::metrics::add(obs::metrics::DD_GC_RECLAIMED, reclaimed as u64);
        obs::metrics::add(obs::metrics::DD_CTAB_COMPACTED, compacted);
        obs::trace::event(
            "gc.private",
            &[
                ("reclaimed", reclaimed.into()),
                ("ctab_compacted", compacted.into()),
            ],
        );
        reclaimed
    }

    /// Shared-store collection: elects this workspace the collector (a
    /// non-blocking `try_lock` of the store's GC lock — blocking here while
    /// another collector waits for the world to park would deadlock) and
    /// either sweeps immediately (sole attachment) or runs the safe-point
    /// barrier protocol of the `dd::store` module docs.
    fn collect_shared(
        &mut self,
        keep_vectors: &[VEdge],
        keep_matrices: &[MEdge],
    ) -> SharedGcOutcome {
        let store = Arc::clone(&self.shared.as_ref().expect("shared workspace").store);
        let _guard = match store.gc_lock.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                // Another workspace is collecting (or attaching). If it is
                // waiting at the barrier, park for it; either way our own
                // request is moot — its sweep serves the whole store.
                if store.gc_requested.load(Ordering::Acquire) {
                    self.park_for_barrier(keep_vectors, keep_matrices);
                }
                return SharedGcOutcome::Contended;
            }
        };
        if store.attached.load(Ordering::Acquire) == 1 {
            // Sole attachment: nothing to coordinate with.
            let span = obs::trace::span("gc.sole", &[("live", store.live_nodes().into())]);
            let reclaimed = self.sweep_shared(&store, keep_vectors, keep_matrices, &[]);
            self.finish_shared_collection(&store, reclaimed, false);
            span.end(&[("reclaimed", reclaimed.into())]);
            return SharedGcOutcome::Collected(reclaimed);
        }

        // --- barrier: stop the world at its safe points -------------------
        // The round guard ends the round however this function exits: if
        // the collector panics mid-sweep, the guard's Drop still lowers the
        // flag and advances the request id so parked workspaces wake up
        // instead of waiting on the dead round forever.
        let round_span = obs::trace::span(
            "gc.barrier",
            &[
                ("live", store.live_nodes().into()),
                ("attached", store.attached.load(Ordering::Acquire).into()),
            ],
        );
        let round_start = Instant::now();
        let round = BarrierRound::begin(&store);
        let published = {
            let mut barrier = crate::store::lock(&store.barrier);
            let patience = Instant::now() + BARRIER_PATIENCE;
            loop {
                // Detaching workspaces shrink the quorum (a finished scheme
                // simply leaves); parked workspaces cannot detach, so the
                // published count never overshoots a stale quorum.
                let quorum = store.attached.load(Ordering::Acquire) - 1;
                if barrier.published.len() >= quorum {
                    break std::mem::take(&mut barrier.published);
                }
                if Instant::now() >= patience {
                    // An attached workspace is not reaching safe points
                    // (idle, or inside one very long operation): give up and
                    // fall back to deferral rather than stall its race. The
                    // round guard releases the parked workspaces.
                    let parked = barrier.published.len();
                    drop(barrier);
                    let waited = round_start.elapsed().as_nanos() as u64;
                    store.barrier_wait_ns.fetch_add(waited, Ordering::Relaxed);
                    store.barrier_deferrals.fetch_add(1, Ordering::Relaxed);
                    obs::metrics::incr(obs::metrics::DD_GC_BARRIER_DEFERRALS);
                    round_span.end(&[
                        ("outcome", "deferred".into()),
                        ("parked", parked.into()),
                        (
                            "quorum",
                            (store.attached.load(Ordering::Acquire) - 1).into(),
                        ),
                    ]);
                    return SharedGcOutcome::Aborted;
                }
                let (guard, _) = store
                    .barrier_cv
                    .wait_timeout(barrier, patience - Instant::now())
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                barrier = guard;
            }
            // The barrier mutex drops here; parked workspaces stay blocked
            // (their round's request id is still current and the flag is
            // still up), and no workspace can attach while we hold gc_lock.
        };

        // Request -> park phase is over: every other workspace is parked.
        let all_parked = Instant::now();
        store.barrier_wait_ns.fetch_add(
            (all_parked - round_start).as_nanos() as u64,
            Ordering::Relaxed,
        );
        obs::trace::event(
            "gc.barrier.parked",
            &[
                ("parked", published.len().into()),
                (
                    "wait_us",
                    ((all_parked - round_start).as_micros() as u64).into(),
                ),
            ],
        );

        let reclaimed = self.sweep_shared(&store, keep_vectors, keep_matrices, &published);
        let swept = Instant::now();
        obs::trace::event(
            "gc.barrier.sweep",
            &[("sweep_us", ((swept - all_parked).as_micros() as u64).into())],
        );

        round.complete();
        store.gc_barrier_runs.fetch_add(1, Ordering::Relaxed);
        self.finish_shared_collection(&store, reclaimed, true);
        obs::metrics::incr(obs::metrics::DD_GC_BARRIER_RUNS);
        obs::metrics::observe_ns(
            obs::metrics::HIST_GC_ROUND_NS,
            round_start.elapsed().as_nanos() as u64,
        );
        round_span.end(&[
            ("outcome", "collected".into()),
            ("reclaimed", reclaimed.into()),
            ("parked", published.len().into()),
        ]);
        SharedGcOutcome::Collected(reclaimed)
    }

    /// Parks this workspace at the store's GC barrier: publishes its roots
    /// (protected edges, the in-flight operands, the identity and local
    /// gate caches, the memo-table weight indices) and blocks until the
    /// collector releases the barrier, then re-pins whatever generation a
    /// completed collection published.
    fn park_for_barrier(&mut self, keep_vectors: &[VEdge], keep_matrices: &[MEdge]) {
        let store = Arc::clone(&self.shared.as_ref().expect("shared workspace").store);
        let roots = self.published_roots(keep_vectors, keep_matrices);
        let mut barrier = crate::store::lock(&store.barrier);
        if !store.gc_requested.load(Ordering::Acquire) {
            return; // the round ended before we got here
        }
        let park_start = Instant::now();
        let request = barrier.request;
        let generation = barrier.generation;
        barrier.published.push(roots);
        store.barrier_cv.notify_all();
        while barrier.request == request && store.gc_requested.load(Ordering::Acquire) {
            barrier = store
                .barrier_cv
                .wait(barrier)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let collected = barrier.generation != generation;
        drop(barrier);
        let parked_ns = park_start.elapsed().as_nanos() as u64;
        store
            .barrier_wait_ns
            .fetch_add(parked_ns, Ordering::Relaxed);
        obs::metrics::observe_ns(obs::metrics::HIST_GC_PARK_NS, parked_ns);
        obs::trace::event(
            "gc.park",
            &[
                ("park_us", (parked_ns / 1_000).into()),
                ("collected", collected.into()),
            ],
        );
        if collected {
            // A new generation was published: re-pin it (dropping the epoch
            // tails/overlays — the weight memos survive, their roots were
            // marked) and clear the node-keyed caches, whose NodeId keys may
            // be recycled from now on. Protected edges kept their ids, so
            // held diagrams stay valid and pointer-identical.
            self.clear_node_keyed_caches();
            self.shared.as_mut().expect("shared workspace").repin();
            self.charged_nodes = self.charged_nodes.min(store.live_nodes());
        }
    }

    /// Snapshot of this workspace's GC roots for publication at the barrier.
    fn published_roots(
        &self,
        keep_vectors: &[VEdge],
        keep_matrices: &[MEdge],
    ) -> crate::store::PublishedRoots {
        let medges: Vec<MEdge> = keep_matrices
            .iter()
            .chain(&self.ident_cache)
            .copied()
            .chain(self.gate_cache.entries().map(|(_, e)| *e))
            .filter(|e| !e.is_zero())
            .collect();
        // The weight memos survive collections, so every index they
        // reference must stay live (and index-stable) across the sweep.
        let mut wroots: Vec<u32> = self.wroots.keys().copied().collect();
        if let Some(handle) = &self.shared {
            wroots.extend(handle.memo_weight_roots());
        }
        crate::store::PublishedRoots {
            vroots: self.vroots.keys().copied().collect(),
            mroots: self.mroots.keys().copied().collect(),
            wroots,
            vedges: keep_vectors
                .iter()
                .copied()
                .filter(|e| !e.is_zero())
                .collect(),
            medges,
        }
    }

    /// Sweeps the shared arenas from this workspace's roots, the operand
    /// edges, every published (parked-workspace) root set and the shared
    /// gate cache; rebuilds the sharded unique tables and compacts the
    /// shared complex table. Caller must hold the store's `gc_lock` with
    /// every other attached workspace parked (or be the sole attachment).
    fn sweep_shared(
        &mut self,
        store: &SharedStore,
        keep_vectors: &[VEdge],
        keep_matrices: &[MEdge],
        published: &[crate::store::PublishedRoots],
    ) -> usize {
        // --- assemble the full root sets ------------------------------
        // The collector's own roots take the exact shape a parked workspace
        // would publish; the shared gate cache is store-wide and marked
        // once on top.
        let own = self.published_roots(keep_vectors, keep_matrices);
        let mut varena = crate::store::write(&store.varena);
        let mut marena = crate::store::write(&store.marena);
        let mut root_vedges: Vec<VEdge> = Vec::new();
        let mut root_medges: Vec<MEdge> = crate::store::lock(&store.gate_cache)
            .values()
            .map(|(e, _)| *e)
            .filter(|e| !e.is_zero())
            .collect();
        let mut vroot_ids: Vec<u32> = Vec::new();
        let mut mroot_ids: Vec<u32> = Vec::new();
        let mut wroot_ids: Vec<u32> = Vec::new();
        for roots in std::iter::once(&own).chain(published) {
            root_vedges.extend(roots.vedges.iter().copied().filter(|e| !e.is_zero()));
            root_medges.extend(roots.medges.iter().copied().filter(|e| !e.is_zero()));
            vroot_ids.extend_from_slice(&roots.vroots);
            mroot_ids.extend_from_slice(&roots.mroots);
            wroot_ids.extend_from_slice(&roots.wroots);
        }

        // --- mark -----------------------------------------------------
        let mut vmark = vec![false; varena.len()];
        let mut mmark = vec![false; marena.len()];
        for &id in &vroot_ids {
            mark_vector(&varena, &mut vmark, NodeId(id));
        }
        for e in &root_vedges {
            mark_vector(&varena, &mut vmark, e.node);
        }
        for &id in &mroot_ids {
            mark_matrix(&marena, &mut mmark, NodeId(id));
        }
        for e in &root_medges {
            mark_matrix(&marena, &mut mmark, e.node);
        }

        // --- sweep ----------------------------------------------------
        let mut reclaimed = 0usize;
        {
            let mut vfree = crate::store::lock(&store.vfree);
            for (idx, marked) in vmark.iter().enumerate() {
                if !marked && !varena[idx].is_free() {
                    varena[idx] = VNode::FREE;
                    vfree.push(idx as u32);
                    reclaimed += 1;
                }
            }
        }
        {
            let mut mfree = crate::store::lock(&store.mfree);
            for (idx, marked) in mmark.iter().enumerate() {
                if !marked && !marena[idx].is_free() {
                    marena[idx] = MNode::FREE;
                    mfree.push(idx as u32);
                    reclaimed += 1;
                }
            }
        }

        // --- rebuild the sharded unique tables ------------------------
        // Take each shard lock exactly once: every other workspace is
        // parked (or absent) and we hold both arena write locks, so nothing
        // contends — per-node locking would just pay 2N uncontended mutex
        // round-trips.
        let ws_id = self.shared.as_ref().expect("shared workspace").ws_id;
        let mut vlive = 0usize;
        {
            let mut shards: Vec<_> = store.vshards.iter().map(crate::store::lock).collect();
            for shard in shards.iter_mut() {
                shard.clear();
            }
            for (idx, node) in varena.iter().enumerate() {
                if !node.is_free() {
                    vlive += 1;
                    let hash = fx_hash(node);
                    shards[(hash as usize) & (crate::store::SHARDS - 1)].insert(
                        *node,
                        crate::store::Interned {
                            id: idx as u32,
                            owner: ws_id,
                        },
                    );
                }
            }
        }
        let mut mlive = 0usize;
        {
            let mut shards: Vec<_> = store.mshards.iter().map(crate::store::lock).collect();
            for shard in shards.iter_mut() {
                shard.clear();
            }
            for (idx, node) in marena.iter().enumerate() {
                if !node.is_free() {
                    mlive += 1;
                    let hash = fx_hash(node);
                    shards[(hash as usize) & (crate::store::SHARDS - 1)].insert(
                        *node,
                        crate::store::Interned {
                            id: idx as u32,
                            owner: ws_id,
                        },
                    );
                }
            }
        }
        store.vlive.store(vlive, Ordering::Relaxed);
        store.mlive.store(mlive, Ordering::Relaxed);

        // --- compact the shared complex table -------------------------
        let cmark = mark_weights(
            &varena,
            &marena,
            wroot_ids.iter().copied(),
            &root_vedges,
            &root_medges,
            store.ctab.len(),
        );
        let compacted = store.ctab.retain_marked(&cmark) as u64;
        self.complex_reclaimed += compacted;
        obs::metrics::add(obs::metrics::DD_CTAB_COMPACTED, compacted);

        // --- publish the post-sweep generation snapshot ---------------
        // Both arena write locks are still held and the table was just
        // compacted, so the snapshot is consistent by construction; parked
        // workspaces re-pin it when the barrier releases.
        store.publish_generation(&varena, &marena);
        reclaimed
    }

    /// Post-sweep bookkeeping of the collecting workspace.
    fn finish_shared_collection(&mut self, store: &SharedStore, reclaimed: usize, barrier: bool) {
        store
            .reclaimed
            .fetch_add(reclaimed as u64, Ordering::Relaxed);
        store.gc_runs.fetch_add(1, Ordering::Relaxed);
        // Freed slots may be recycled under the same ids from now on: clear
        // the node-keyed caches and re-pin the just-published generation
        // (the weight memos survive — the sweep marked their roots).
        self.clear_node_keyed_caches();
        self.shared.as_mut().expect("shared workspace").repin();
        // Re-snap the node-budget meter, mirroring how a private package's
        // live meter shrinks under GC: a sole survivor owns everything still
        // live; after a barrier sweep the survivors are shared between the
        // parked racers, so the charge is only clamped, never re-attributed.
        self.charged_nodes = if barrier {
            self.charged_nodes.min(store.live_nodes())
        } else {
            store.live_nodes()
        };
        self.gc_runs += 1;
        self.reclaimed_nodes += reclaimed as u64;
        obs::metrics::incr(obs::metrics::DD_GC_RUNS);
        obs::metrics::add(obs::metrics::DD_GC_RECLAIMED, reclaimed as u64);
    }

    /// Operation safe point: polls the shared store's barrier request (park
    /// if a collector is waiting), the wall-clock deadline (cache-hit-heavy
    /// stretches allocate nothing, and a barrier park can outlast the
    /// deadline — both must still trip it) and the automatic-GC threshold.
    /// The operands of the operation about to run are passed as temporary
    /// roots.
    fn safe_point(&mut self, keep_vectors: &[VEdge], keep_matrices: &[MEdge]) {
        if let Some(handle) = &self.shared {
            if handle.store.gc_requested.load(Ordering::Acquire) {
                self.park_for_barrier(keep_vectors, keep_matrices);
            }
        }
        if self.exceeded.is_none() && self.budget.deadline_exceeded() {
            self.exceeded = Some(LimitExceeded::Deadline);
        }
        self.maybe_gc(keep_vectors, keep_matrices);
    }

    /// Automatic-collection check at an operation safe point.
    #[inline]
    fn maybe_gc(&mut self, keep_vectors: &[VEdge], keep_matrices: &[MEdge]) {
        let Some(threshold) = self.gc_threshold else {
            return;
        };
        if self.exceeded.is_some() || self.live_nodes() < threshold {
            return;
        }
        let outcome = if self.shared.is_some() {
            self.collect_shared(keep_vectors, keep_matrices)
        } else {
            SharedGcOutcome::Collected(self.collect_private(keep_vectors, keep_matrices))
        };
        match outcome {
            // A competitor is already collecting on behalf of the store;
            // re-check at the next safe point.
            SharedGcOutcome::Contended => {}
            // An uncooperative attachment stalled the barrier: back off so
            // the next safe points do not re-pay the barrier patience.
            SharedGcOutcome::Aborted => {
                self.gc_threshold = Some(threshold.saturating_mul(2));
            }
            SharedGcOutcome::Collected(reclaimed) => {
                // Mostly-live heap: double the threshold instead of
                // thrashing.
                if reclaimed * 4 < threshold {
                    self.gc_threshold = Some(threshold.saturating_mul(2));
                }
            }
        }
    }

    /// Memory-system telemetry (see [`MemoryStats`]).
    pub fn memory_stats(&self) -> MemoryStats {
        let mut compute_lookups = 0;
        let mut compute_hits = 0;
        for counters in self.compute_table_counters() {
            compute_lookups += counters.lookups;
            compute_hits += counters.hits;
        }
        let gate = self.gate_cache.counters();
        let package_stats = self.stats();
        let (complex_values, complex_entries, shared_nodes, intern_hits, cross_thread_hits) =
            match &self.shared {
                None => (self.ctab.len(), self.ctab.live_len(), 0, 0, 0),
                Some(handle) => (
                    handle.store.ctab.len(),
                    handle.store.ctab.live_len(),
                    handle.store.live_nodes(),
                    handle.intern_hits,
                    handle.cross_thread_hits,
                ),
            };
        MemoryStats {
            live_vector_nodes: package_stats.vector_nodes,
            live_matrix_nodes: package_stats.matrix_nodes,
            peak_nodes: self.peak_nodes,
            allocated_nodes: self.allocated_nodes,
            reclaimed_nodes: self.reclaimed_nodes,
            gc_runs: self.gc_runs,
            complex_values,
            complex_entries,
            complex_reclaimed: self.complex_reclaimed,
            shared_nodes,
            intern_hits,
            cross_thread_hits,
            compute_lookups,
            compute_hits,
            gate_lookups: gate.lookups,
            gate_hits: gate.hits,
        }
    }

    /// Per-table hit/lookup counters of the eight compute tables.
    pub fn compute_table_counters(&self) -> [CacheCounters; 8] {
        [
            self.ct_mat_vec.counters(),
            self.ct_mat_mat.counters(),
            self.ct_add_vec.counters(),
            self.ct_add_mat.counters(),
            self.ct_transpose.counters(),
            self.ct_inner.counters(),
            self.ct_trace.counters(),
            self.vnorm_cache.counters(),
        ]
    }

    /// Counters of the gate-diagram cache.
    pub fn gate_cache_counters(&self) -> CacheCounters {
        self.gate_cache.counters()
    }

    /// Folds this package's per-op cache counters into the process-wide
    /// [`obs::metrics`] registry. Called once from `Drop` — the hot paths
    /// keep their existing plain counters and pay nothing extra per op.
    fn fold_cache_counters(&self) {
        let mut lookups = 0;
        let mut hits = 0;
        for counters in self.compute_table_counters() {
            lookups += counters.lookups;
            hits += counters.hits;
        }
        obs::metrics::add(obs::metrics::DD_COMPUTE_LOOKUPS, lookups);
        obs::metrics::add(obs::metrics::DD_COMPUTE_HITS, hits);
        let gate = self.gate_cache.counters();
        obs::metrics::add(obs::metrics::DD_GATE_LOOKUPS, gate.lookups);
        obs::metrics::add(obs::metrics::DD_GATE_HITS, gate.hits);
    }

    // ------------------------------------------------------------------
    // Complex value access
    // ------------------------------------------------------------------

    /// Interns a complex value and returns its index.
    #[inline]
    pub fn intern(&mut self, value: Complex) -> CIdx {
        match &mut self.shared {
            None => self.ctab.lookup(value),
            Some(handle) => handle.intern(value),
        }
    }

    /// Value behind an interned index, from the private table or the shared
    /// store's mirror. All weight reads funnel through here.
    #[inline]
    fn cval(&self, idx: CIdx) -> Complex {
        match &self.shared {
            None => self.ctab.value(idx),
            Some(handle) => handle.value(idx),
        }
    }

    /// Interns the product of two interned weights.
    #[inline]
    fn cmul(&mut self, a: CIdx, b: CIdx) -> CIdx {
        match &mut self.shared {
            None => self.ctab.mul(a, b),
            Some(handle) => handle.mul(a, b),
        }
    }

    /// Interns the sum of two interned weights.
    #[inline]
    fn cadd(&mut self, a: CIdx, b: CIdx) -> CIdx {
        match &mut self.shared {
            None => self.ctab.add(a, b),
            Some(handle) => handle.add(a, b),
        }
    }

    /// Interns the quotient of two interned weights.
    #[inline]
    fn cdiv(&mut self, a: CIdx, b: CIdx) -> CIdx {
        match &mut self.shared {
            None => self.ctab.div(a, b),
            Some(handle) => handle.div(a, b),
        }
    }

    /// Interns the conjugate of an interned weight.
    #[inline]
    fn cconj(&mut self, a: CIdx) -> CIdx {
        match &mut self.shared {
            None => self.ctab.conj(a),
            Some(handle) => handle.conj(a),
        }
    }

    /// Returns the complex value behind an index.
    #[inline]
    pub fn value(&self, idx: CIdx) -> Complex {
        self.cval(idx)
    }

    /// The complex weight carried by a vector edge.
    #[inline]
    pub fn vweight(&self, e: VEdge) -> Complex {
        self.cval(e.weight)
    }

    /// The complex weight carried by a matrix edge.
    #[inline]
    pub fn mweight(&self, e: MEdge) -> Complex {
        self.cval(e.weight)
    }

    // ------------------------------------------------------------------
    // Node construction (normalisation + hash consing)
    // ------------------------------------------------------------------

    /// Creates (or reuses) a vector node.
    ///
    /// Nodes are normalised so that the sum of the squared magnitudes of the
    /// child weights is one and the largest-magnitude child weight is real
    /// and positive. The extracted factor is returned on the new edge. This
    /// keeps all weights of a normalised state at magnitude at most one,
    /// which avoids the numerical underflow a plain "divide by the first
    /// non-zero child" rule would cause for wide registers.
    pub fn make_vnode(&mut self, var: u16, mut children: [VEdge; 2]) -> VEdge {
        self.charge_allocation();
        for c in &mut children {
            if c.weight.is_zero() {
                *c = VEdge::ZERO;
            }
        }
        if children.iter().all(|c| c.is_zero()) {
            return VEdge::ZERO;
        }
        // Norm of the child weights and the (first) largest-magnitude child.
        let weights: Vec<Complex> = children.iter().map(|c| self.cval(c.weight)).collect();
        let norm = weights.iter().map(|w| w.norm_sqr()).sum::<f64>().sqrt();
        let max_mag = weights.iter().map(|w| w.abs()).fold(0.0f64, f64::max);
        let anchor = weights
            .iter()
            .find(|w| w.abs() >= max_mag - TOLERANCE)
            .copied()
            .expect("at least one non-zero child");
        // The extracted factor restores both the norm and the anchor phase.
        let scale = anchor / anchor.abs() * norm;
        let top = self.intern(scale);
        for c in &mut children {
            if !c.is_zero() {
                let w = self.cval(c.weight) / scale;
                c.weight = self.intern(w);
                if c.weight.is_zero() {
                    *c = VEdge::ZERO;
                }
            }
        }
        let node = VNode { var, children };
        let id = self.intern_vnode(node);
        VEdge::new(id, top)
    }

    /// Hash-conses a vector node: returns the existing id or allocates one
    /// (recycling a freed arena slot when available).
    fn intern_vnode(&mut self, node: VNode) -> NodeId {
        if let Some(handle) = &mut self.shared {
            let (id, fresh) = handle.intern_vnode(node);
            if fresh {
                self.allocated_nodes += 1;
                self.charged_nodes += 1;
                self.peak_nodes = self.peak_nodes.max(handle.store.live_nodes());
            }
            return id;
        }
        let level = node.var as usize;
        let hash = fx_hash(&node);
        let vnodes = &self.vnodes;
        if let Some(id) = self.vunique[level].find(hash, |id| vnodes[id as usize] == node) {
            return NodeId(id);
        }
        let idx = match self.vfree.pop() {
            Some(idx) => {
                self.vnodes[idx as usize] = node;
                idx
            }
            None => {
                let idx = self.vnodes.len() as u32;
                self.vnodes.push(node);
                idx
            }
        };
        self.allocated_nodes += 1;
        self.peak_nodes = self.peak_nodes.max(self.live_nodes());
        let (vnodes, vunique) = (&self.vnodes, &mut self.vunique);
        vunique[level].insert(hash, idx, |id| fx_hash(&vnodes[id as usize]));
        NodeId(idx)
    }

    /// Creates (or reuses) a matrix node.
    ///
    /// Nodes are normalised by the first child weight whose magnitude equals
    /// the maximum over all children (within tolerance); that child weight
    /// becomes exactly one. All child weights therefore have magnitude at
    /// most one, which keeps round-off well below the interning tolerance.
    pub fn make_mnode(&mut self, var: u16, mut children: [MEdge; 4]) -> MEdge {
        self.charge_allocation();
        for c in &mut children {
            if c.weight.is_zero() {
                *c = MEdge::ZERO;
            }
        }
        if children.iter().all(|c| c.is_zero()) {
            return MEdge::ZERO;
        }
        let weights: Vec<Complex> = children.iter().map(|c| self.cval(c.weight)).collect();
        let max_mag = weights.iter().map(|w| w.abs()).fold(0.0f64, f64::max);
        let anchor_idx = weights
            .iter()
            .position(|w| w.abs() >= max_mag - TOLERANCE)
            .expect("at least one non-zero child");
        let top = children[anchor_idx].weight;
        if !top.is_one() {
            for c in &mut children {
                if !c.is_zero() {
                    c.weight = self.cdiv(c.weight, top);
                }
            }
        }
        let node = MNode { var, children };
        let id = self.intern_mnode(node);
        MEdge::new(id, top)
    }

    /// Hash-conses a matrix node; see [`intern_vnode`](Self::intern_vnode).
    fn intern_mnode(&mut self, node: MNode) -> NodeId {
        if let Some(handle) = &mut self.shared {
            let (id, fresh) = handle.intern_mnode(node);
            if fresh {
                self.allocated_nodes += 1;
                self.charged_nodes += 1;
                self.peak_nodes = self.peak_nodes.max(handle.store.live_nodes());
            }
            return id;
        }
        let level = node.var as usize;
        let hash = fx_hash(&node);
        let mnodes = &self.mnodes;
        if let Some(id) = self.munique[level].find(hash, |id| mnodes[id as usize] == node) {
            return NodeId(id);
        }
        let idx = match self.mfree.pop() {
            Some(idx) => {
                self.mnodes[idx as usize] = node;
                idx
            }
            None => {
                let idx = self.mnodes.len() as u32;
                self.mnodes.push(node);
                idx
            }
        };
        self.allocated_nodes += 1;
        self.peak_nodes = self.peak_nodes.max(self.live_nodes());
        let (mnodes, munique) = (&self.mnodes, &mut self.munique);
        munique[level].insert(hash, idx, |id| fx_hash(&mnodes[id as usize]));
        NodeId(idx)
    }

    #[inline]
    pub(crate) fn vnode(&self, id: NodeId) -> VNode {
        match &self.shared {
            None => self.vnodes[id.index()],
            Some(handle) => handle.vnode(id),
        }
    }

    #[inline]
    pub(crate) fn mnode(&self, id: NodeId) -> MNode {
        match &self.shared {
            None => self.mnodes[id.index()],
            Some(handle) => handle.mnode(id),
        }
    }

    /// Successor edges of a non-terminal vector edge.
    ///
    /// # Panics
    ///
    /// Panics when called on a terminal (or zero) edge.
    pub fn vector_children(&self, e: VEdge) -> [VEdge; 2] {
        assert!(!e.is_terminal(), "terminal edges have no children");
        self.vnode(e.node).children
    }

    /// Successor edges of a non-terminal matrix edge in the order
    /// `(row, col) = 00, 01, 10, 11`.
    ///
    /// # Panics
    ///
    /// Panics when called on a terminal (or zero) edge.
    pub fn matrix_children(&self, e: MEdge) -> [MEdge; 4] {
        assert!(!e.is_terminal(), "terminal edges have no children");
        self.mnode(e.node).children
    }

    /// Qubit level of a vector edge, or `None` for terminal edges.
    pub fn vedge_level(&self, e: VEdge) -> Option<u16> {
        if e.is_terminal() {
            None
        } else {
            Some(self.vnode(e.node).var)
        }
    }

    /// Qubit level of a matrix edge, or `None` for terminal edges.
    pub fn medge_level(&self, e: MEdge) -> Option<u16> {
        if e.is_terminal() {
            None
        } else {
            Some(self.mnode(e.node).var)
        }
    }

    // ------------------------------------------------------------------
    // State construction
    // ------------------------------------------------------------------

    /// The all-zeros computational basis state |0...0⟩.
    pub fn zero_state(&mut self) -> VEdge {
        let bits = vec![false; self.n_qubits];
        self.basis_state(&bits)
    }

    /// Computational basis state |b_{n-1} ... b_0⟩ where `bits[q]` is the
    /// value of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the package qubit count.
    pub fn basis_state(&mut self, bits: &[bool]) -> VEdge {
        assert_eq!(bits.len(), self.n_qubits, "basis state length mismatch");
        let mut e = VEdge::ONE;
        for (q, &bit) in bits.iter().enumerate() {
            let children = if bit {
                [VEdge::ZERO, e]
            } else {
                [e, VEdge::ZERO]
            };
            e = self.make_vnode(q as u16, children);
        }
        e
    }

    /// Builds a state-vector decision diagram from dense amplitudes.
    ///
    /// The amplitude at index `i` corresponds to the basis state whose qubit
    /// `q` has value `(i >> q) & 1`.
    ///
    /// # Panics
    ///
    /// Panics if `amplitudes.len() != 2^n`.
    pub fn from_amplitudes(&mut self, amplitudes: &[Complex]) -> VEdge {
        assert_eq!(
            amplitudes.len(),
            1usize << self.n_qubits,
            "amplitude vector has wrong length"
        );
        self.build_amplitudes_rec(amplitudes, self.n_qubits)
    }

    fn build_amplitudes_rec(&mut self, amps: &[Complex], level: usize) -> VEdge {
        if level == 0 {
            let w = self.intern(amps[0]);
            return if w.is_zero() {
                VEdge::ZERO
            } else {
                VEdge::terminal(w)
            };
        }
        let half = amps.len() / 2;
        let lo = self.build_amplitudes_rec(&amps[..half], level - 1);
        let hi = self.build_amplitudes_rec(&amps[half..], level - 1);
        self.make_vnode((level - 1) as u16, [lo, hi])
    }

    /// Expands a vector decision diagram into a dense amplitude vector.
    ///
    /// # Panics
    ///
    /// Panics if the package has more than 24 qubits (the dense vector would
    /// not reasonably fit in memory).
    pub fn amplitudes(&self, v: VEdge) -> Vec<Complex> {
        assert!(
            self.n_qubits <= 24,
            "dense expansion is limited to 24 qubits"
        );
        let mut out = vec![Complex::ZERO; 1usize << self.n_qubits];
        self.amplitudes_rec(v, self.n_qubits, Complex::ONE, 0, &mut |i, a| out[i] = a);
        out
    }

    /// Hands every non-zero amplitude of `e` (scaled by `acc`, basis index
    /// offset by `offset`) to `out`.
    fn amplitudes_rec<F: FnMut(usize, Complex)>(
        &self,
        e: VEdge,
        level: usize,
        acc: Complex,
        offset: usize,
        out: &mut F,
    ) {
        if e.is_zero() {
            return;
        }
        let acc = acc * self.cval(e.weight);
        if level == 0 {
            out(offset, acc);
            return;
        }
        let node = self.vnode(e.node);
        debug_assert_eq!(node.var as usize, level - 1);
        let half = 1usize << (level - 1);
        self.amplitudes_rec(node.children[0], level - 1, acc, offset, out);
        self.amplitudes_rec(node.children[1], level - 1, acc, offset + half, out);
    }

    /// Expands a vector decision diagram into dense structure-of-arrays
    /// amplitude lanes (the layout the [`kernels`](crate::kernels) operate
    /// on). `re`/`im` are cleared and zero-filled to `2^n_qubits` first, so
    /// callers can reuse their buffers across calls.
    ///
    /// # Panics
    ///
    /// Panics if the package has more than 24 qubits (same bound as
    /// [`amplitudes`](Self::amplitudes)).
    pub fn amplitude_lanes(&self, v: VEdge, re: &mut Vec<f64>, im: &mut Vec<f64>) {
        assert!(
            self.n_qubits <= 24,
            "dense expansion is limited to 24 qubits"
        );
        let len = 1usize << self.n_qubits;
        re.clear();
        re.resize(len, 0.0);
        im.clear();
        im.resize(len, 0.0);
        self.amplitudes_rec(v, self.n_qubits, Complex::ONE, 0, &mut |i, a| {
            re[i] = a.re;
            im[i] = a.im;
        });
    }

    /// Amplitude of a single computational basis state.
    pub fn amplitude(&self, v: VEdge, basis_index: usize) -> Complex {
        let mut acc = Complex::ONE;
        let mut e = v;
        for level in (0..self.n_qubits).rev() {
            if e.is_zero() {
                return Complex::ZERO;
            }
            acc *= self.cval(e.weight);
            let node = self.vnode(e.node);
            debug_assert_eq!(node.var as usize, level);
            let bit = (basis_index >> level) & 1;
            e = node.children[bit];
        }
        if e.is_zero() {
            return Complex::ZERO;
        }
        acc * self.cval(e.weight)
    }

    // ------------------------------------------------------------------
    // Matrix construction
    // ------------------------------------------------------------------

    /// Identity operator on the `k` lowest qubits (levels `0..k`).
    ///
    /// `k == 0` yields the terminal one edge.
    pub fn make_ident(&mut self, k: usize) -> MEdge {
        assert!(k <= self.n_qubits, "identity larger than the package");
        while self.ident_cache.len() <= k {
            let below = *self
                .ident_cache
                .last()
                .expect("identity cache always holds the terminal entry");
            let level = (self.ident_cache.len() - 1) as u16;
            let next = self.make_mnode(level, [below, MEdge::ZERO, MEdge::ZERO, below]);
            self.ident_cache.push(next);
        }
        self.ident_cache[k]
    }

    /// Identity operator on all qubits of the package.
    pub fn identity(&mut self) -> MEdge {
        self.make_ident(self.n_qubits)
    }

    /// Builds the matrix decision diagram of a (multi-)controlled
    /// single-qubit gate acting on `target`.
    ///
    /// Gate diagrams are cached by `(matrix bits, target, controls)`, so the
    /// repeated controlled rotations of QFT/QPE-style circuits build each
    /// diagram once. Cached diagrams are garbage-collection roots and stay
    /// valid across collections.
    ///
    /// # Panics
    ///
    /// Panics if `target` or any control is out of range, or if a control
    /// coincides with the target.
    pub fn make_gate(&mut self, u: &GateMatrix, target: usize, controls: &[Control]) -> MEdge {
        // Hash the borrowed parts so a cache hit allocates nothing; the
        // owned key is only built on a miss.
        let matrix = gates::matrix_bits(u);
        let n_qubits = self.n_qubits as u32;
        let hash = fx_hash(&(&matrix, n_qubits, target as u32, controls));
        let hit = self.gate_cache.get_by(hash, |k| {
            k.matrix == matrix
                && k.n_qubits == n_qubits
                && k.target == target as u32
                && k.controls == controls
        });
        if let Some(cached) = hit {
            return cached;
        }
        // On a shared store, consult the exact L2 map: a diagram another
        // workspace already built is canonical here too, so it can be
        // adopted (and promoted into the lossy L1) without rebuilding.
        if self.shared.is_some() {
            let key = GateKey {
                matrix,
                n_qubits,
                target: target as u32,
                controls: controls.to_vec(),
            };
            if let Some(cached) = self
                .shared
                .as_mut()
                .expect("shared workspace")
                .gate_get(&key)
            {
                self.gate_cache.insert_hashed(hash, key, cached);
                return cached;
            }
            let e = self.build_gate(u, target, controls);
            if self.exceeded.is_none() {
                self.shared
                    .as_mut()
                    .expect("shared workspace")
                    .gate_insert(key.clone(), e);
                self.gate_cache.insert_hashed(hash, key, e);
            }
            return e;
        }
        let e = self.build_gate(u, target, controls);
        if self.exceeded.is_none() {
            let key = GateKey {
                matrix,
                n_qubits,
                target: target as u32,
                controls: controls.to_vec(),
            };
            self.gate_cache.insert_hashed(hash, key, e);
        }
        e
    }

    // The explicit level indices mirror the textbook construction; an
    // enumerate-based rewrite would obscure the wrap-above/wrap-below split.
    #[allow(clippy::needless_range_loop)]
    fn build_gate(&mut self, u: &GateMatrix, target: usize, controls: &[Control]) -> MEdge {
        let n = self.n_qubits;
        assert!(target < n, "gate target {target} out of range");
        let mut ctrl: Vec<Option<bool>> = vec![None; n];
        for c in controls {
            assert!(c.qubit < n, "control qubit {} out of range", c.qubit);
            assert_ne!(c.qubit, target, "control coincides with target");
            ctrl[c.qubit] = Some(c.positive);
        }

        // Entries of the 2x2 gate as (eventually wrapped) matrix edges in the
        // order (row, col) = 00, 01, 10, 11.
        let mut em = [MEdge::ZERO; 4];
        for row in 0..2 {
            for col in 0..2 {
                let w = self.intern(u[row][col]);
                em[row * 2 + col] = if w.is_zero() {
                    MEdge::ZERO
                } else {
                    MEdge::terminal(w)
                };
            }
        }

        // Wrap the levels below the target.
        for z in 0..target {
            let var = z as u16;
            match ctrl[z] {
                None => {
                    for e in em.iter_mut() {
                        *e = self.make_mnode(var, [*e, MEdge::ZERO, MEdge::ZERO, *e]);
                    }
                }
                Some(positive) => {
                    let ident_below = self.make_ident(z);
                    for row in 0..2 {
                        for col in 0..2 {
                            let i = row * 2 + col;
                            let diag = if row == col { ident_below } else { MEdge::ZERO };
                            em[i] = if positive {
                                self.make_mnode(var, [diag, MEdge::ZERO, MEdge::ZERO, em[i]])
                            } else {
                                self.make_mnode(var, [em[i], MEdge::ZERO, MEdge::ZERO, diag])
                            };
                        }
                    }
                }
            }
        }

        // The target level itself.
        let mut e = self.make_mnode(target as u16, em);

        // Wrap the levels above the target.
        for z in (target + 1)..n {
            let var = z as u16;
            e = match ctrl[z] {
                None => self.make_mnode(var, [e, MEdge::ZERO, MEdge::ZERO, e]),
                Some(true) => {
                    let ident_below = self.make_ident(z);
                    self.make_mnode(var, [ident_below, MEdge::ZERO, MEdge::ZERO, e])
                }
                Some(false) => {
                    let ident_below = self.make_ident(z);
                    self.make_mnode(var, [e, MEdge::ZERO, MEdge::ZERO, ident_below])
                }
            };
        }
        e
    }

    /// Builds a matrix decision diagram from a dense row-major matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `2^n x 2^n` for the package qubit count,
    /// or if the package has more than 12 qubits.
    pub fn from_matrix(&mut self, matrix: &[Vec<Complex>]) -> MEdge {
        let dim = 1usize << self.n_qubits;
        assert!(
            self.n_qubits <= 12,
            "dense construction limited to 12 qubits"
        );
        assert_eq!(matrix.len(), dim, "matrix has wrong number of rows");
        assert!(
            matrix.iter().all(|row| row.len() == dim),
            "matrix has wrong number of columns"
        );
        self.build_matrix_rec(matrix, 0, 0, self.n_qubits)
    }

    fn build_matrix_rec(
        &mut self,
        matrix: &[Vec<Complex>],
        row: usize,
        col: usize,
        level: usize,
    ) -> MEdge {
        if level == 0 {
            let w = self.intern(matrix[row][col]);
            return if w.is_zero() {
                MEdge::ZERO
            } else {
                MEdge::terminal(w)
            };
        }
        let half = 1usize << (level - 1);
        let mut children = [MEdge::ZERO; 4];
        for rbit in 0..2 {
            for cbit in 0..2 {
                children[rbit * 2 + cbit] =
                    self.build_matrix_rec(matrix, row + rbit * half, col + cbit * half, level - 1);
            }
        }
        self.make_mnode((level - 1) as u16, children)
    }

    /// Expands a matrix decision diagram into a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if the package has more than 12 qubits.
    pub fn to_matrix(&self, m: MEdge) -> Vec<Vec<Complex>> {
        assert!(self.n_qubits <= 12, "dense expansion limited to 12 qubits");
        let dim = 1usize << self.n_qubits;
        let mut out = vec![vec![Complex::ZERO; dim]; dim];
        self.to_matrix_rec(m, self.n_qubits, Complex::ONE, 0, 0, &mut out);
        out
    }

    fn to_matrix_rec(
        &self,
        e: MEdge,
        level: usize,
        acc: Complex,
        row: usize,
        col: usize,
        out: &mut [Vec<Complex>],
    ) {
        if e.is_zero() {
            return;
        }
        let acc = acc * self.cval(e.weight);
        if level == 0 {
            out[row][col] = acc;
            return;
        }
        let node = self.mnode(e.node);
        debug_assert_eq!(node.var as usize, level - 1);
        let half = 1usize << (level - 1);
        for rbit in 0..2 {
            for cbit in 0..2 {
                self.to_matrix_rec(
                    node.children[rbit * 2 + cbit],
                    level - 1,
                    acc,
                    row + rbit * half,
                    col + cbit * half,
                    out,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Adds two vector decision diagrams.
    ///
    /// This is a garbage-collection safe point: `a` and `b` are protected
    /// for the duration of the operation.
    pub fn add_vectors(&mut self, a: VEdge, b: VEdge) -> VEdge {
        self.safe_point(&[a, b], &[]);
        self.add_vectors_rec(a, b)
    }

    fn add_vectors_rec(&mut self, a: VEdge, b: VEdge) -> VEdge {
        if self.exceeded.is_some() {
            return VEdge::ZERO;
        }
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.is_terminal() && b.is_terminal() {
            let w = self.cadd(a.weight, b.weight);
            return if w.is_zero() {
                VEdge::ZERO
            } else {
                VEdge::terminal(w)
            };
        }
        debug_assert!(!a.is_terminal() && !b.is_terminal());
        let ratio = self.cdiv(b.weight, a.weight);
        let key = (a.node, b.node, ratio);
        if let Some(cached) = self.ct_add_vec.get(&key) {
            let w = self.cmul(cached.weight, a.weight);
            return if w.is_zero() {
                VEdge::ZERO
            } else {
                VEdge::new(cached.node, w)
            };
        }
        let an = self.vnode(a.node);
        let bn = self.vnode(b.node);
        debug_assert_eq!(an.var, bn.var, "vector addition level mismatch");
        let mut children = [VEdge::ZERO; 2];
        for (i, child) in children.iter_mut().enumerate() {
            let bw = self.cmul(bn.children[i].weight, ratio);
            let bc = bn.children[i].with_weight(bw);
            *child = self.add_vectors_rec(an.children[i], bc);
        }
        let result = self.make_vnode(an.var, children);
        if self.exceeded.is_none() {
            self.ct_add_vec.insert(key, result);
        }
        let w = self.cmul(result.weight, a.weight);
        if w.is_zero() {
            VEdge::ZERO
        } else {
            VEdge::new(result.node, w)
        }
    }

    /// Adds two matrix decision diagrams.
    ///
    /// This is a garbage-collection safe point: `a` and `b` are protected
    /// for the duration of the operation.
    pub fn add_matrices(&mut self, a: MEdge, b: MEdge) -> MEdge {
        self.safe_point(&[], &[a, b]);
        self.add_matrices_rec(a, b)
    }

    fn add_matrices_rec(&mut self, a: MEdge, b: MEdge) -> MEdge {
        if self.exceeded.is_some() {
            return MEdge::ZERO;
        }
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.is_terminal() && b.is_terminal() {
            let w = self.cadd(a.weight, b.weight);
            return if w.is_zero() {
                MEdge::ZERO
            } else {
                MEdge::terminal(w)
            };
        }
        debug_assert!(!a.is_terminal() && !b.is_terminal());
        let ratio = self.cdiv(b.weight, a.weight);
        let key = (a.node, b.node, ratio);
        if let Some(cached) = self.ct_add_mat.get(&key) {
            let w = self.cmul(cached.weight, a.weight);
            return if w.is_zero() {
                MEdge::ZERO
            } else {
                MEdge::new(cached.node, w)
            };
        }
        let an = self.mnode(a.node);
        let bn = self.mnode(b.node);
        debug_assert_eq!(an.var, bn.var, "matrix addition level mismatch");
        let mut children = [MEdge::ZERO; 4];
        for (i, child) in children.iter_mut().enumerate() {
            let bw = self.cmul(bn.children[i].weight, ratio);
            let bc = bn.children[i].with_weight(bw);
            *child = self.add_matrices_rec(an.children[i], bc);
        }
        let result = self.make_mnode(an.var, children);
        if self.exceeded.is_none() {
            self.ct_add_mat.insert(key, result);
        }
        let w = self.cmul(result.weight, a.weight);
        if w.is_zero() {
            MEdge::ZERO
        } else {
            MEdge::new(result.node, w)
        }
    }

    /// Applies a matrix decision diagram to a vector decision diagram.
    ///
    /// This is a garbage-collection safe point: `m` and `v` are protected
    /// for the duration of the operation.
    pub fn mul_mat_vec(&mut self, m: MEdge, v: VEdge) -> VEdge {
        self.safe_point(&[v], &[m]);
        self.mul_mat_vec_rec(m, v)
    }

    fn mul_mat_vec_rec(&mut self, m: MEdge, v: VEdge) -> VEdge {
        if self.exceeded.is_some() {
            return VEdge::ZERO;
        }
        if m.is_zero() || v.is_zero() {
            return VEdge::ZERO;
        }
        if m.is_terminal() && v.is_terminal() {
            let w = self.cmul(m.weight, v.weight);
            return VEdge::terminal(w);
        }
        debug_assert!(!m.is_terminal() && !v.is_terminal());
        let key = (m.node, v.node);
        let result = if let Some(cached) = self.ct_mat_vec.get(&key) {
            cached
        } else {
            let mn = self.mnode(m.node);
            let vn = self.vnode(v.node);
            debug_assert_eq!(mn.var, vn.var, "matrix-vector level mismatch");
            let mut children = [VEdge::ZERO; 2];
            for (row, child) in children.iter_mut().enumerate() {
                let mut acc = VEdge::ZERO;
                for col in 0..2 {
                    let product =
                        self.mul_mat_vec_rec(mn.children[row * 2 + col], vn.children[col]);
                    acc = self.add_vectors_rec(acc, product);
                }
                *child = acc;
            }
            let r = self.make_vnode(mn.var, children);
            if self.exceeded.is_none() {
                self.ct_mat_vec.insert(key, r);
            }
            r
        };
        let w = self.cmul(m.weight, v.weight);
        let w = self.cmul(result.weight, w);
        if w.is_zero() {
            VEdge::ZERO
        } else {
            VEdge::new(result.node, w)
        }
    }

    /// Multiplies two matrix decision diagrams (`a · b`).
    ///
    /// This is a garbage-collection safe point: `a` and `b` are protected
    /// for the duration of the operation.
    pub fn mul_matrices(&mut self, a: MEdge, b: MEdge) -> MEdge {
        self.safe_point(&[], &[a, b]);
        self.mul_matrices_rec(a, b)
    }

    fn mul_matrices_rec(&mut self, a: MEdge, b: MEdge) -> MEdge {
        if self.exceeded.is_some() {
            return MEdge::ZERO;
        }
        if a.is_zero() || b.is_zero() {
            return MEdge::ZERO;
        }
        if a.is_terminal() && b.is_terminal() {
            let w = self.cmul(a.weight, b.weight);
            return MEdge::terminal(w);
        }
        debug_assert!(!a.is_terminal() && !b.is_terminal());
        let key = (a.node, b.node);
        let result = if let Some(cached) = self.ct_mat_mat.get(&key) {
            cached
        } else {
            let an = self.mnode(a.node);
            let bn = self.mnode(b.node);
            debug_assert_eq!(an.var, bn.var, "matrix-matrix level mismatch");
            let mut children = [MEdge::ZERO; 4];
            for row in 0..2 {
                for col in 0..2 {
                    let mut acc = MEdge::ZERO;
                    for k in 0..2 {
                        let product = self
                            .mul_matrices_rec(an.children[row * 2 + k], bn.children[k * 2 + col]);
                        acc = self.add_matrices_rec(acc, product);
                    }
                    children[row * 2 + col] = acc;
                }
            }
            let r = self.make_mnode(an.var, children);
            if self.exceeded.is_none() {
                self.ct_mat_mat.insert(key, r);
            }
            r
        };
        let w = self.cmul(a.weight, b.weight);
        let w = self.cmul(result.weight, w);
        if w.is_zero() {
            MEdge::ZERO
        } else {
            MEdge::new(result.node, w)
        }
    }

    /// Complex-conjugate transpose of a matrix decision diagram.
    ///
    /// This is a garbage-collection safe point: `m` is protected for the
    /// duration of the operation.
    pub fn conjugate_transpose(&mut self, m: MEdge) -> MEdge {
        self.safe_point(&[], &[m]);
        self.conjugate_transpose_rec(m)
    }

    fn conjugate_transpose_rec(&mut self, m: MEdge) -> MEdge {
        if self.exceeded.is_some() {
            return MEdge::ZERO;
        }
        if m.is_terminal() {
            let w = self.cconj(m.weight);
            return if w.is_zero() {
                MEdge::ZERO
            } else {
                MEdge::terminal(w)
            };
        }
        let result = if let Some(cached) = self.ct_transpose.get(&m.node) {
            cached
        } else {
            let node = self.mnode(m.node);
            let transposed = [
                node.children[0],
                node.children[2],
                node.children[1],
                node.children[3],
            ];
            let mut children = [MEdge::ZERO; 4];
            for (i, child) in children.iter_mut().enumerate() {
                *child = self.conjugate_transpose_rec(transposed[i]);
            }
            let r = self.make_mnode(node.var, children);
            if self.exceeded.is_none() {
                self.ct_transpose.insert(m.node, r);
            }
            r
        };
        let w = self.cconj(m.weight);
        let w = self.cmul(result.weight, w);
        if w.is_zero() {
            MEdge::ZERO
        } else {
            MEdge::new(result.node, w)
        }
    }

    /// Convenience: applies a (controlled) single-qubit gate to a state.
    pub fn apply_gate(
        &mut self,
        state: VEdge,
        u: &GateMatrix,
        target: usize,
        controls: &[Control],
    ) -> VEdge {
        let gate = self.make_gate(u, target, controls);
        self.mul_mat_vec(gate, state)
    }

    // ------------------------------------------------------------------
    // Inner products, traces and identity checks
    // ------------------------------------------------------------------

    /// Hermitian inner product `⟨a|b⟩`.
    pub fn inner_product(&mut self, a: VEdge, b: VEdge) -> Complex {
        if a.is_zero() || b.is_zero() {
            return Complex::ZERO;
        }
        let scale = self.cval(a.weight).conj() * self.cval(b.weight);
        if a.is_terminal() && b.is_terminal() {
            return scale;
        }
        debug_assert!(!a.is_terminal() && !b.is_terminal());
        let key = (a.node, b.node);
        let inner = if let Some(cached) = self.ct_inner.get(&key) {
            cached
        } else {
            let an = self.vnode(a.node);
            let bn = self.vnode(b.node);
            debug_assert_eq!(an.var, bn.var, "inner product level mismatch");
            let mut acc = Complex::ZERO;
            for k in 0..2 {
                acc += self.inner_product(an.children[k], bn.children[k]);
            }
            self.ct_inner.insert(key, acc);
            acc
        };
        scale * inner
    }

    /// Fidelity `|⟨a|b⟩|^2` between two states.
    pub fn fidelity(&mut self, a: VEdge, b: VEdge) -> f64 {
        self.inner_product(a, b).norm_sqr()
    }

    /// Squared norm `⟨v|v⟩` of a state.
    pub fn norm_sqr(&mut self, v: VEdge) -> f64 {
        if v.is_zero() {
            return 0.0;
        }
        let w = self.cval(v.weight).norm_sqr();
        w * self.node_norm_sqr(v.node)
    }

    fn node_norm_sqr(&mut self, node: NodeId) -> f64 {
        if node.is_terminal() {
            return 1.0;
        }
        if let Some(cached) = self.vnorm_cache.get(&node) {
            return cached;
        }
        let n = self.vnode(node);
        let mut total = 0.0;
        for child in n.children {
            if child.is_zero() {
                continue;
            }
            let w = self.cval(child.weight).norm_sqr();
            total += w * self.node_norm_sqr(child.node);
        }
        self.vnorm_cache.insert(node, total);
        total
    }

    /// Trace of a matrix decision diagram.
    pub fn trace(&mut self, m: MEdge) -> Complex {
        if m.is_zero() {
            return Complex::ZERO;
        }
        let scale = self.cval(m.weight);
        if m.is_terminal() {
            return scale;
        }
        let inner = if let Some(cached) = self.ct_trace.get(&m.node) {
            cached
        } else {
            let node = self.mnode(m.node);
            let t0 = self.trace(node.children[0]);
            let t3 = self.trace(node.children[3]);
            let acc = t0 + t3;
            self.ct_trace.insert(m.node, acc);
            acc
        };
        scale * inner
    }

    /// Normalised identity fidelity `|tr(M)| / 2^n` of a matrix diagram.
    ///
    /// The value is 1 exactly when `M` is the identity up to a global phase,
    /// making it a numerically robust equivalence criterion.
    pub fn identity_fidelity(&mut self, m: MEdge) -> f64 {
        let dim = 2f64.powi(self.n_qubits as i32);
        self.trace(m).abs() / dim
    }

    /// Structural identity check: `m` equals the identity diagram node-for-node.
    ///
    /// With `up_to_global_phase`, the top weight only needs unit magnitude.
    pub fn is_identity(&mut self, m: MEdge, up_to_global_phase: bool) -> bool {
        let ident = self.identity();
        if m.node != ident.node {
            return false;
        }
        let w = self.cval(m.weight);
        if up_to_global_phase {
            (w.abs() - 1.0).abs() < TOLERANCE
        } else {
            w.is_one()
        }
    }

    // ------------------------------------------------------------------
    // Measurement support
    // ------------------------------------------------------------------

    /// Probabilities of measuring `qubit` as 0 and 1 in state `v`.
    ///
    /// The state does not need to be normalised; the returned values are the
    /// squared norms of the two projections.
    pub fn probabilities(&mut self, v: VEdge, qubit: usize) -> (f64, f64) {
        assert!(qubit < self.n_qubits, "qubit {qubit} out of range");
        let mut cache: FxHashMap<NodeId, (f64, f64)> = FxHashMap::default();
        let (p0, p1) = self.prob_rec(v, qubit, &mut cache);
        (p0, p1)
    }

    fn prob_rec(
        &mut self,
        e: VEdge,
        qubit: usize,
        cache: &mut FxHashMap<NodeId, (f64, f64)>,
    ) -> (f64, f64) {
        if e.is_zero() {
            return (0.0, 0.0);
        }
        debug_assert!(!e.is_terminal(), "probability query below the target qubit");
        let w = self.cval(e.weight).norm_sqr();
        if let Some(&(c0, c1)) = cache.get(&e.node) {
            return (w * c0, w * c1);
        }
        let node = self.vnode(e.node);
        let (n0, n1) = if node.var as usize == qubit {
            let p0 = if node.children[0].is_zero() {
                0.0
            } else {
                let cw = self.cval(node.children[0].weight).norm_sqr();
                cw * self.node_norm_sqr(node.children[0].node)
            };
            let p1 = if node.children[1].is_zero() {
                0.0
            } else {
                let cw = self.cval(node.children[1].weight).norm_sqr();
                cw * self.node_norm_sqr(node.children[1].node)
            };
            (p0, p1)
        } else {
            let (a0, a1) = self.prob_rec(node.children[0], qubit, cache);
            let (b0, b1) = self.prob_rec(node.children[1], qubit, cache);
            (a0 + b0, a1 + b1)
        };
        cache.insert(e.node, (n0, n1));
        (w * n0, w * n1)
    }

    /// Projects `qubit` onto `outcome`, optionally renormalising the result.
    ///
    /// Returns the projected state and the probability of the outcome.
    pub fn collapse(
        &mut self,
        v: VEdge,
        qubit: usize,
        outcome: bool,
        renormalize: bool,
    ) -> (VEdge, f64) {
        let (p0, p1) = self.probabilities(v, qubit);
        let p = if outcome { p1 } else { p0 };
        if p <= TOLERANCE {
            return (VEdge::ZERO, 0.0);
        }
        let mut cache: FxHashMap<NodeId, VEdge> = FxHashMap::default();
        let projected = self.project_rec(v, qubit, outcome, &mut cache);
        let result = if renormalize {
            let scale = self.intern(Complex::real(1.0 / p.sqrt()));
            let w = self.cmul(projected.weight, scale);
            VEdge::new(projected.node, w)
        } else {
            projected
        };
        (result, p)
    }

    fn project_rec(
        &mut self,
        e: VEdge,
        qubit: usize,
        outcome: bool,
        cache: &mut FxHashMap<NodeId, VEdge>,
    ) -> VEdge {
        if e.is_zero() {
            return VEdge::ZERO;
        }
        debug_assert!(!e.is_terminal(), "projection below the target qubit");
        let result = if let Some(&cached) = cache.get(&e.node) {
            cached
        } else {
            let node = self.vnode(e.node);
            let r = if node.var as usize == qubit {
                let mut children = [VEdge::ZERO; 2];
                children[outcome as usize] = node.children[outcome as usize];
                self.make_vnode(node.var, children)
            } else {
                let c0 = self.project_rec(node.children[0], qubit, outcome, cache);
                let c1 = self.project_rec(node.children[1], qubit, outcome, cache);
                self.make_vnode(node.var, [c0, c1])
            };
            cache.insert(e.node, r);
            r
        };
        let w = self.cmul(result.weight, e.weight);
        if w.is_zero() {
            VEdge::ZERO
        } else {
            VEdge::new(result.node, w)
        }
    }

    // ------------------------------------------------------------------
    // Diagram statistics
    // ------------------------------------------------------------------

    /// Number of distinct nodes reachable from a vector edge (excluding the
    /// terminal).
    pub fn vector_size(&self, v: VEdge) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.vsize_rec(v, &mut seen);
        seen.len()
    }

    fn vsize_rec(&self, e: VEdge, seen: &mut std::collections::HashSet<NodeId>) {
        if e.is_zero() || e.is_terminal() || !seen.insert(e.node) {
            return;
        }
        let node = self.vnode(e.node);
        for child in node.children {
            self.vsize_rec(child, seen);
        }
    }

    /// Number of distinct nodes reachable from a matrix edge (excluding the
    /// terminal).
    pub fn matrix_size(&self, m: MEdge) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.msize_rec(m, &mut seen);
        seen.len()
    }

    fn msize_rec(&self, e: MEdge, seen: &mut std::collections::HashSet<NodeId>) {
        if e.is_zero() || e.is_terminal() || !seen.insert(e.node) {
            return;
        }
        let node = self.mnode(e.node);
        for child in node.children {
            self.msize_rec(child, seen);
        }
    }
}

impl Drop for DdPackage {
    fn drop(&mut self) {
        // Fold the lifetime cache counters into the process-wide registry.
        // The SharedHandle (if any) flushes its own counters in its Drop,
        // which runs after this as a field of the package.
        self.fold_cache_counters();
    }
}

/// Marks every vector node reachable from `id` (recursion depth is bounded
/// by the number of qubit levels).
fn mark_vector(nodes: &[VNode], marks: &mut [bool], id: NodeId) {
    if id.is_terminal() {
        return;
    }
    let idx = id.index();
    if marks[idx] {
        return;
    }
    marks[idx] = true;
    for child in nodes[idx].children {
        if !child.is_zero() {
            mark_vector(nodes, marks, child.node);
        }
    }
}

/// Computes the live set of the complex table for compaction: the canonical
/// constants, every weight referenced by a surviving node, the weights of
/// protected edges (`wroots`, possibly merged over several workspaces at a
/// barrier) and the top weights of every root edge (operands, identity and
/// gate caches, published parked-workspace edges).
fn mark_weights(
    vnodes: &[VNode],
    mnodes: &[MNode],
    wroots: impl Iterator<Item = u32>,
    root_vedges: &[VEdge],
    root_medges: &[MEdge],
    table_len: usize,
) -> Vec<bool> {
    let mut marks = vec![false; table_len];
    let mut mark = |idx: CIdx| {
        if let Some(slot) = marks.get_mut(idx.index()) {
            *slot = true;
        }
    };
    mark(CIdx::ZERO);
    mark(CIdx::ONE);
    for node in vnodes {
        if !node.is_free() {
            for child in node.children {
                mark(child.weight);
            }
        }
    }
    for node in mnodes {
        if !node.is_free() {
            for child in node.children {
                mark(child.weight);
            }
        }
    }
    for idx in wroots {
        mark(CIdx(idx));
    }
    for e in root_vedges {
        mark(e.weight);
    }
    for e in root_medges {
        mark(e.weight);
    }
    marks
}

/// Marks every matrix node reachable from `id`.
fn mark_matrix(nodes: &[MNode], marks: &mut [bool], id: NodeId) {
    if id.is_terminal() {
        return;
    }
    let idx = id.index();
    if marks[idx] {
        return;
    }
    marks[idx] = true;
    for child in nodes[idx].children {
        if !child.is_zero() {
            mark_matrix(nodes, marks, child.node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    fn dense_kron(a: &[Vec<Complex>], b: &[Vec<Complex>]) -> Vec<Vec<Complex>> {
        let n = a.len() * b.len();
        let mut out = vec![vec![Complex::ZERO; n]; n];
        for (i, arow) in a.iter().enumerate() {
            for (j, aval) in arow.iter().enumerate() {
                for (k, brow) in b.iter().enumerate() {
                    for (l, bval) in brow.iter().enumerate() {
                        out[i * b.len() + k][j * b.len() + l] = *aval * *bval;
                    }
                }
            }
        }
        out
    }

    fn gate_to_dense(g: &GateMatrix) -> Vec<Vec<Complex>> {
        vec![vec![g[0][0], g[0][1]], vec![g[1][0], g[1][1]]]
    }

    fn ident_dense(n: usize) -> Vec<Vec<Complex>> {
        let dim = 1 << n;
        let mut m = vec![vec![Complex::ZERO; dim]; dim];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = Complex::ONE;
        }
        m
    }

    fn assert_matrix_eq(a: &[Vec<Complex>], b: &[Vec<Complex>]) {
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b.iter()) {
            for (x, y) in ra.iter().zip(rb.iter()) {
                assert!(x.approx_eq(*y), "{x} != {y}");
            }
        }
    }

    #[test]
    fn basis_state_amplitudes() {
        let mut p = DdPackage::new(3);
        let state = p.basis_state(&[true, false, true]); // |101⟩ = index 5
        let amps = p.amplitudes(state);
        for (i, amp) in amps.iter().enumerate() {
            if i == 0b101 {
                assert!(amp.is_one());
            } else {
                assert!(amp.is_zero());
            }
        }
        assert!((p.norm_sqr(state) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut p = DdPackage::new(2);
        let mut state = p.zero_state();
        state = p.apply_gate(state, &gates::h(), 0, &[]);
        state = p.apply_gate(state, &gates::h(), 1, &[]);
        let amps = p.amplitudes(state);
        for amp in amps {
            assert!(amp.approx_eq(Complex::real(0.5)));
        }
    }

    #[test]
    fn bell_state_probabilities() {
        let mut p = DdPackage::new(2);
        let mut state = p.zero_state();
        state = p.apply_gate(state, &gates::h(), 0, &[]);
        state = p.apply_gate(state, &gates::x(), 1, &[Control::pos(0)]);
        let amps = p.amplitudes(state);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(amps[0b00].approx_eq(Complex::real(s)));
        assert!(amps[0b11].approx_eq(Complex::real(s)));
        assert!(amps[0b01].is_zero());
        assert!(amps[0b10].is_zero());
        let (p0, p1) = p.probabilities(state, 0);
        assert!((p0 - 0.5).abs() < 1e-12);
        assert!((p1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn collapse_bell_state() {
        let mut p = DdPackage::new(2);
        let mut state = p.zero_state();
        state = p.apply_gate(state, &gates::h(), 0, &[]);
        state = p.apply_gate(state, &gates::x(), 1, &[Control::pos(0)]);
        let (collapsed, prob) = p.collapse(state, 0, true, true);
        assert!((prob - 0.5).abs() < 1e-12);
        let amps = p.amplitudes(collapsed);
        assert!(amps[0b11].is_one());
        assert!(amps[0b00].is_zero());
    }

    #[test]
    fn collapse_impossible_outcome_returns_zero() {
        let mut p = DdPackage::new(1);
        let state = p.zero_state();
        let (collapsed, prob) = p.collapse(state, 0, true, true);
        assert!(collapsed.is_zero());
        assert_eq!(prob, 0.0);
    }

    #[test]
    fn gate_dd_matches_dense_kron_no_control() {
        // H on qubit 1 of a 3-qubit register: I ⊗ H ⊗ I (qubit 2 ⊗ 1 ⊗ 0).
        let mut p = DdPackage::new(3);
        let dd = p.make_gate(&gates::h(), 1, &[]);
        let dense = dense_kron(
            &dense_kron(&ident_dense(1), &gate_to_dense(&gates::h())),
            &ident_dense(1),
        );
        assert_matrix_eq(&p.to_matrix(dd), &dense);
    }

    #[test]
    fn gate_dd_matches_dense_cnot() {
        // CNOT with control 0, target 1 in a 2-qubit register.
        let mut p = DdPackage::new(2);
        let dd = p.make_gate(&gates::x(), 1, &[Control::pos(0)]);
        // Basis order: index = q1 q0. CX(control=0, target=1):
        // |00⟩→|00⟩, |01⟩→|11⟩, |10⟩→|10⟩, |11⟩→|01⟩.
        let mut dense = vec![vec![Complex::ZERO; 4]; 4];
        dense[0b00][0b00] = Complex::ONE;
        dense[0b11][0b01] = Complex::ONE;
        dense[0b10][0b10] = Complex::ONE;
        dense[0b01][0b11] = Complex::ONE;
        assert_matrix_eq(&p.to_matrix(dd), &dense);
    }

    #[test]
    fn gate_dd_negative_control() {
        let mut p = DdPackage::new(2);
        let dd = p.make_gate(&gates::x(), 1, &[Control::neg(0)]);
        // X on qubit 1 applied only when qubit 0 is |0⟩.
        let mut dense = vec![vec![Complex::ZERO; 4]; 4];
        dense[0b10][0b00] = Complex::ONE;
        dense[0b00][0b10] = Complex::ONE;
        dense[0b01][0b01] = Complex::ONE;
        dense[0b11][0b11] = Complex::ONE;
        assert_matrix_eq(&p.to_matrix(dd), &dense);
    }

    #[test]
    fn gate_dd_control_above_target() {
        let mut p = DdPackage::new(2);
        let dd = p.make_gate(&gates::x(), 0, &[Control::pos(1)]);
        // CX with control 1, target 0: |10⟩→|11⟩, |11⟩→|10⟩.
        let mut dense = vec![vec![Complex::ZERO; 4]; 4];
        dense[0b00][0b00] = Complex::ONE;
        dense[0b01][0b01] = Complex::ONE;
        dense[0b11][0b10] = Complex::ONE;
        dense[0b10][0b11] = Complex::ONE;
        assert_matrix_eq(&p.to_matrix(dd), &dense);
    }

    #[test]
    fn toffoli_dense() {
        let mut p = DdPackage::new(3);
        let dd = p.make_gate(&gates::x(), 2, &[Control::pos(0), Control::pos(1)]);
        let dense = p.to_matrix(dd);
        let dim = 8;
        #[allow(clippy::needless_range_loop)]
        for row in 0..dim {
            for col in 0..dim {
                let expected = if col & 0b011 == 0b011 {
                    // both controls set: flip bit 2
                    usize::from(row == col ^ 0b100)
                } else {
                    usize::from(row == col)
                };
                assert!(
                    dense[row][col].approx_eq(Complex::real(expected as f64)),
                    "mismatch at ({row},{col})"
                );
            }
        }
    }

    #[test]
    fn matrix_product_matches_gate_composition() {
        let mut p = DdPackage::new(2);
        let h0 = p.make_gate(&gates::h(), 0, &[]);
        let cx = p.make_gate(&gates::x(), 1, &[Control::pos(0)]);
        let circuit = p.mul_matrices(cx, h0);
        // Apply to |00⟩ and compare with the Bell state.
        let zero = p.zero_state();
        let bell_via_matrix = p.mul_mat_vec(circuit, zero);
        let mut bell_via_gates = p.zero_state();
        bell_via_gates = p.apply_gate(bell_via_gates, &gates::h(), 0, &[]);
        bell_via_gates = p.apply_gate(bell_via_gates, &gates::x(), 1, &[Control::pos(0)]);
        assert!((p.fidelity(bell_via_matrix, bell_via_gates) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn unitary_times_adjoint_is_identity() {
        let mut p = DdPackage::new(3);
        let mut u = p.identity();
        for (q, gate) in [gates::h(), gates::t(), gates::sx()].iter().enumerate() {
            let g = p.make_gate(gate, q, &[]);
            u = p.mul_matrices(g, u);
        }
        let cx = p.make_gate(&gates::x(), 2, &[Control::pos(0)]);
        u = p.mul_matrices(cx, u);
        let udag = p.conjugate_transpose(u);
        let product = p.mul_matrices(udag, u);
        assert!(p.is_identity(product, false));
        assert!((p.identity_fidelity(product) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn identity_fidelity_detects_non_identity() {
        let mut p = DdPackage::new(2);
        let x0 = p.make_gate(&gates::x(), 0, &[]);
        assert!(p.identity_fidelity(x0) < 0.5);
        assert!(!p.is_identity(x0, true));
    }

    #[test]
    fn global_phase_identity() {
        let mut p = DdPackage::new(1);
        // RZ(θ) equals P(θ) up to a global phase, so RZ(θ)·P(θ)† should be
        // the identity only up to a global phase.
        let theta = 0.7;
        let rz = p.make_gate(&gates::rz(theta), 0, &[]);
        let phase = p.make_gate(&gates::phase(theta), 0, &[]);
        let phase_dag = p.conjugate_transpose(phase);
        let product = p.mul_matrices(rz, phase_dag);
        assert!(!p.is_identity(product, false));
        assert!(p.is_identity(product, true));
        assert!((p.identity_fidelity(product) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn inner_product_orthogonal_states() {
        let mut p = DdPackage::new(2);
        let a = p.basis_state(&[false, false]);
        let b = p.basis_state(&[true, false]);
        assert!(p.inner_product(a, b).is_zero());
        assert!(p.inner_product(a, a).is_one());
        assert_eq!(p.fidelity(a, b), 0.0);
    }

    #[test]
    fn add_vectors_and_scale() {
        let mut p = DdPackage::new(1);
        let zero = p.basis_state(&[false]);
        let one = p.basis_state(&[true]);
        let sum = p.add_vectors(zero, one);
        let amps = p.amplitudes(sum);
        assert!(amps[0].is_one());
        assert!(amps[1].is_one());
        // |0⟩ + |1⟩ has squared norm 2.
        assert!((p.norm_sqr(sum) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn add_cancellation_yields_zero() {
        let mut p = DdPackage::new(2);
        let a = p.basis_state(&[true, false]);
        let minus_w = p.intern(Complex::real(-1.0));
        let b = VEdge::new(a.node, minus_w);
        let sum = p.add_vectors(a, b);
        assert!(sum.is_zero());
    }

    #[test]
    fn from_amplitudes_roundtrip() {
        let mut p = DdPackage::new(2);
        let amps = vec![
            Complex::new(0.5, 0.0),
            Complex::new(0.0, 0.5),
            Complex::new(-0.5, 0.0),
            Complex::new(0.0, -0.5),
        ];
        let v = p.from_amplitudes(&amps);
        let back = p.amplitudes(v);
        for (a, b) in amps.iter().zip(back.iter()) {
            assert!(a.approx_eq(*b));
        }
        for (i, amp) in amps.iter().enumerate() {
            assert!(p.amplitude(v, i).approx_eq(*amp));
        }
    }

    #[test]
    fn from_matrix_roundtrip() {
        let mut p = DdPackage::new(2);
        let cx = p.make_gate(&gates::x(), 1, &[Control::pos(0)]);
        let dense = p.to_matrix(cx);
        let rebuilt = p.from_matrix(&dense);
        assert_eq!(cx, rebuilt);
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut p = DdPackage::new(4);
        let a = p.zero_state();
        let b = p.zero_state();
        assert_eq!(a, b);
        let before = p.stats().vector_nodes;
        let _ = p.zero_state();
        assert_eq!(p.stats().vector_nodes, before);
    }

    #[test]
    fn ghz_state_has_linear_size() {
        let n = 16;
        let mut p = DdPackage::new(n);
        let mut state = p.zero_state();
        state = p.apply_gate(state, &gates::h(), 0, &[]);
        for q in 1..n {
            state = p.apply_gate(state, &gates::x(), q, &[Control::pos(q - 1)]);
        }
        assert!(p.vector_size(state) <= 2 * n);
        let (p0, p1) = p.probabilities(state, n - 1);
        assert!((p0 - 0.5).abs() < 1e-10);
        assert!((p1 - 0.5).abs() < 1e-10);
    }

    #[test]
    fn large_identity_structural_check() {
        let mut p = DdPackage::new(64);
        let mut u = p.identity();
        // A few self-inverse layers: H on every qubit, applied twice.
        for _ in 0..2 {
            for q in 0..64 {
                let g = p.make_gate(&gates::h(), q, &[]);
                u = p.mul_matrices(g, u);
            }
        }
        assert!(p.is_identity(u, false));
    }

    #[test]
    fn clear_compute_tables_keeps_results_valid() {
        let mut p = DdPackage::new(2);
        let h = p.make_gate(&gates::h(), 0, &[]);
        let a = p.mul_matrices(h, h);
        p.clear_compute_tables();
        let b = p.mul_matrices(h, h);
        assert_eq!(a, b);
        assert!(p.is_identity(a, false));
    }

    #[test]
    fn node_limit_trips_and_poisons_results() {
        use crate::limits::{Budget, LimitExceeded};
        let budget = Budget::unlimited().with_node_limit(8);
        let mut p = DdPackage::with_budget(10, budget);
        let mut state = p.zero_state();
        for q in 0..10 {
            state = p.apply_gate(state, &gates::h(), q, &[]);
            let g = p.make_gate(&gates::phase(0.1 * q as f64), q, &[]);
            state = p.mul_mat_vec(g, state);
            if p.limit_exceeded().is_some() {
                break;
            }
        }
        assert_eq!(p.limit_exceeded(), Some(LimitExceeded::NodeLimit));
        // Operations after the trip unwind to zero edges.
        let z = p.zero_state();
        assert!(p.mul_mat_vec(MEdge::ZERO, z).is_zero());
    }

    #[test]
    fn cancellation_is_observed_during_diagram_construction() {
        use crate::limits::{Budget, CancelToken, LimitExceeded};
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_cancel_token(token.clone());
        let mut p = DdPackage::with_budget(12, budget);
        token.cancel();
        // Keep allocating until the 256-allocation poll notices the flag.
        let mut state = p.zero_state();
        for round in 0..64 {
            for q in 0..12 {
                state = p.apply_gate(state, &gates::ry(0.37 + round as f64 + q as f64), q, &[]);
            }
            if p.limit_exceeded().is_some() {
                break;
            }
        }
        assert_eq!(p.limit_exceeded(), Some(LimitExceeded::Cancelled));
    }

    #[test]
    fn unbudgeted_package_never_trips() {
        let mut p = DdPackage::new(8);
        let mut state = p.zero_state();
        for q in 0..8 {
            state = p.apply_gate(state, &gates::h(), q, &[]);
        }
        assert_eq!(p.limit_exceeded(), None);
        assert!((p.norm_sqr(state) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_report_allocations() {
        let mut p = DdPackage::new(2);
        assert_eq!(p.stats().vector_nodes, 0);
        let _ = p.zero_state();
        assert!(p.stats().vector_nodes > 0);
        assert!(p.stats().complex_values >= 2);
    }

    #[test]
    fn garbage_collect_reclaims_unprotected_nodes() {
        let mut p = DdPackage::new(4);
        let mut state = p.zero_state();
        for round in 0..8 {
            for q in 0..4 {
                state = p.apply_gate(state, &gates::ry(0.3 + round as f64 + q as f64), q, &[]);
            }
        }
        let before = p.stats().vector_nodes;
        p.protect_vector(state);
        let reclaimed = p.garbage_collect();
        assert!(reclaimed > 0, "intermediate states should be garbage");
        assert!(p.stats().vector_nodes < before);
        // The protected state is still intact and normalised.
        assert!((p.norm_sqr(state) - 1.0).abs() < 1e-9);
        // A second collection with unchanged roots finds nothing new.
        assert_eq!(p.garbage_collect(), 0);
        p.unprotect_vector(state);
        assert!(p.garbage_collect() > 0);
        assert_eq!(p.stats().vector_nodes, 0);
    }

    #[test]
    fn collected_slots_are_recycled_and_canonicity_survives() {
        let mut p = DdPackage::new(3);
        let mut state = p.zero_state();
        for q in 0..3 {
            state = p.apply_gate(state, &gates::h(), q, &[]);
            state = p.apply_gate(state, &gates::phase(0.4 * (q + 1) as f64), q, &[]);
        }
        p.protect_vector(state);
        p.garbage_collect();
        let arena_len = p.vnodes.len();
        // Re-applying the same gates must reproduce the identical edge via
        // hash-consing, reusing freed slots instead of growing the arena.
        let mut rebuilt = p.zero_state();
        for q in 0..3 {
            rebuilt = p.apply_gate(rebuilt, &gates::h(), q, &[]);
            rebuilt = p.apply_gate(rebuilt, &gates::phase(0.4 * (q + 1) as f64), q, &[]);
        }
        assert_eq!(state, rebuilt);
        assert!(p.vnodes.len() <= arena_len.max(8));
    }

    #[test]
    fn automatic_gc_bounds_live_nodes() {
        let config = MemoryConfig {
            gc_threshold: Some(512),
            ..Default::default()
        };
        let mut p = DdPackage::with_config(6, Budget::unlimited(), config);
        let mut state = p.zero_state();
        for round in 0..40 {
            for q in 0..6 {
                let angle = 0.1 + 0.37 * (round * 6 + q) as f64;
                state = p.apply_gate(state, &gates::ry(angle), q, &[]);
            }
        }
        let stats = p.memory_stats();
        assert!(stats.gc_runs > 0, "threshold should have triggered GC");
        assert!(stats.reclaimed_nodes > 0);
        // The live heap stays near the (possibly adaptively doubled)
        // threshold instead of growing with the circuit length.
        let threshold = p.gc_threshold().unwrap();
        assert!(stats.peak_nodes < 2 * threshold + 512);
        assert!((p.norm_sqr(state) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn identity_and_gate_caches_survive_collection() {
        let mut p = DdPackage::new(3);
        let ident = p.identity();
        let gate = p.make_gate(&gates::h(), 1, &[Control::pos(0)]);
        p.garbage_collect();
        // Both caches are roots: the cached edges still compare and behave
        // identically after the sweep.
        assert_eq!(p.identity(), ident);
        assert_eq!(p.make_gate(&gates::h(), 1, &[Control::pos(0)]), gate);
        assert!(p.is_identity(ident, false));
    }

    #[test]
    fn gate_cache_hits_on_repeated_gates() {
        let mut p = DdPackage::new(4);
        let before = p.gate_cache_counters();
        let first = p.make_gate(&gates::phase(0.77), 2, &[Control::pos(0)]);
        for _ in 0..10 {
            assert_eq!(
                p.make_gate(&gates::phase(0.77), 2, &[Control::pos(0)]),
                first
            );
        }
        let after = p.gate_cache_counters();
        assert_eq!(after.lookups - before.lookups, 11);
        assert_eq!(after.hits - before.hits, 10);
        // A different placement misses.
        let other = p.make_gate(&gates::phase(0.77), 2, &[Control::neg(0)]);
        assert_ne!(other, first);
    }

    #[test]
    fn compute_tables_report_hits() {
        let mut p = DdPackage::new(4);
        let mut state = p.zero_state();
        for q in 0..4 {
            state = p.apply_gate(state, &gates::h(), q, &[]);
        }
        for q in 0..4 {
            state = p.apply_gate(state, &gates::h(), q, &[]);
        }
        let stats = p.memory_stats();
        assert!(stats.compute_lookups > 0);
        assert!(stats.compute_hits > 0);
        let rate = stats.compute_hit_rate().unwrap();
        assert!(rate > 0.0 && rate <= 1.0);
        let names: Vec<_> = p.compute_table_counters().iter().map(|c| c.name).collect();
        assert!(names.contains(&"mat_vec"));
        assert!(names.contains(&"vnorm"));
    }

    #[test]
    fn deadline_trips_during_construction() {
        use crate::limits::{Budget, LimitExceeded};
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let mut p = DdPackage::with_budget(10, budget);
        let mut state = p.zero_state();
        for round in 0..64 {
            for q in 0..10 {
                state = p.apply_gate(state, &gates::ry(0.21 + (round * 10 + q) as f64), q, &[]);
            }
            if p.limit_exceeded().is_some() {
                break;
            }
        }
        assert_eq!(p.limit_exceeded(), Some(LimitExceeded::Deadline));
    }

    #[test]
    fn abandoned_barrier_round_lowers_the_flag_and_moves_on() {
        // Dropping the round guard without completing it (the abort path,
        // and what a panic unwind does) must lower `gc_requested` and
        // advance the request id without touching the generation; a
        // completed round advances the generation instead.
        let store = SharedStore::new();
        let (request_before, generation_before) = {
            let barrier = crate::store::lock(&store.barrier);
            (barrier.request, barrier.generation)
        };
        let round = BarrierRound::begin(&store);
        assert!(store.gc_requested.load(Ordering::Acquire));
        drop(round);
        assert!(!store.gc_requested.load(Ordering::Acquire));
        {
            let barrier = crate::store::lock(&store.barrier);
            // begin() opened request N+1; the abandonment bumped it again
            // so a workspace parked on N+1 stops waiting.
            assert_eq!(barrier.request, request_before + 2);
            assert_eq!(barrier.generation, generation_before);
        }
        let round = BarrierRound::begin(&store);
        round.complete();
        let barrier = crate::store::lock(&store.barrier);
        assert!(!store.gc_requested.load(Ordering::Acquire));
        assert_eq!(barrier.generation, generation_before + 1);
    }

    #[test]
    fn parked_workspaces_survive_an_abandoned_round() {
        use std::sync::atomic::AtomicBool;
        // A worker parked at the barrier must resume — with its diagrams
        // intact — when the collector abandons the round instead of
        // completing it (timeout abort, or a collector panic).
        let store = SharedStore::new();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let worker = {
                let store = Arc::clone(&store);
                let done = &done;
                scope.spawn(move || {
                    let mut ws = store.workspace(4);
                    let mut state = ws.zero_state();
                    let mut i = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let angle = 0.1 + (i % 97) as f64;
                        state = ws.apply_gate(state, &gates::ry(angle), (i % 4) as usize, &[]);
                        i += 1;
                    }
                    ws.norm_sqr(state)
                })
            };
            let round = BarrierRound::begin(&store);
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if !crate::store::lock(&store.barrier).published.is_empty() {
                    break;
                }
                assert!(Instant::now() < deadline, "worker never parked");
                std::thread::yield_now();
            }
            drop(round); // the collector "dies" with the worker parked
            done.store(true, Ordering::Release);
            let norm = worker.join().expect("worker survived the dead round");
            assert!((norm - 1.0).abs() < 1e-9);
        });
    }

    #[test]
    fn deadline_trips_at_safe_points_without_allocations() {
        use crate::limits::{Budget, LimitExceeded};
        // Build the operands on an unbudgeted package first so the budgeted
        // operation below is a pure cache-hit / terminal path: zero node
        // allocations, which used to dodge the deadline poll entirely.
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let mut p = DdPackage::with_budget(2, budget);
        let a = VEdge::ONE;
        let b = VEdge::ONE;
        assert_eq!(p.limit_exceeded(), None);
        let _ = p.add_vectors(a, b); // allocation-free: both operands terminal
        assert_eq!(p.limit_exceeded(), Some(LimitExceeded::Deadline));
    }

    #[test]
    fn merged_memory_stats_accumulate() {
        let mut a = DdPackage::new(2);
        let mut b = DdPackage::new(2);
        let s = a.zero_state();
        let _ = a.apply_gate(s, &gates::h(), 0, &[]);
        let t = b.zero_state();
        let _ = b.apply_gate(t, &gates::x(), 1, &[]);
        let merged = a.memory_stats().merged_with(&b.memory_stats());
        assert_eq!(
            merged.allocated_nodes,
            a.memory_stats().allocated_nodes + b.memory_stats().allocated_nodes
        );
        assert!(merged.peak_nodes >= a.memory_stats().peak_nodes);
    }
}
