//! # dd — decision diagrams for quantum states and operators
//!
//! This crate implements a QMDD-style decision-diagram package: a compact,
//! canonical representation of `2^n`-dimensional state vectors and
//! `2^n × 2^n` unitary matrices with the operations needed for quantum
//! circuit simulation and equivalence checking.
//!
//! It is the substrate on which the equivalence-checking schemes of
//! *Burgholzer & Wille, "Handling Non-Unitaries in Quantum Circuit
//! Equivalence Checking" (DAC 2022)* are reproduced: the paper's tool (QCEC)
//! builds on an equivalent C++ package.
//!
//! ## Highlights
//!
//! * Canonical diagrams through weight normalisation, an interning
//!   [`ComplexTable`] and hash-consed unique tables.
//! * Vector diagrams ([`VEdge`]) and matrix diagrams ([`MEdge`]) with
//!   addition, matrix-vector and matrix-matrix multiplication, Kronecker-free
//!   controlled-gate construction, conjugate transposition, inner products,
//!   traces, measurement probabilities and projections.
//! * A managed memory system (see below): bounded lossy compute tables,
//!   per-level open-addressed unique tables, a gate-diagram cache and
//!   mark-and-sweep garbage collection with recycled arena slots.
//! * Dense conversions (for small registers) used extensively by the test
//!   suite to validate the diagram algebra against straightforward linear
//!   algebra.
//!
//! ## Memory model
//!
//! A [`DdPackage`] owns two node arenas (vector and matrix) with free lists.
//! Hash-consing goes through one open-addressed unique table per qubit
//! level; memoisation goes through fixed-size *lossy* caches — direct
//! mapped, one probe per lookup, overwrite on collision — so cache memory is
//! bounded by construction and an evicted entry only ever costs a
//! recomputation, never a wrong result. Sizing is controlled by
//! [`MemoryConfig`]; hit rates and collection counts are reported by
//! [`DdPackage::memory_stats`].
//!
//! Garbage collection is mark-and-sweep from three root sets: edges
//! registered through [`DdPackage::protect_vector`] /
//! [`DdPackage::protect_matrix`] (reference counted), the identity and
//! gate-diagram caches, and the operands of the operation that triggered an
//! automatic run. Automatic collection only happens at the *entry* of
//! top-level operations (`apply_gate`, the multiplications, additions and
//! the conjugate transpose), never mid-recursion. **Callers must protect any
//! edge they hold across other package operations** and unprotect it when
//! done; an edge that is an operand of the current call is protected
//! automatically. After a collection the node-keyed compute tables are
//! cleared (arena slots are recycled under the same ids), while cached gate
//! diagrams remain valid because they are roots. The same pass compacts the
//! [`ComplexTable`]: weights referenced by no surviving node, protected
//! edge or cached diagram are freed and their slots recycled, bounding
//! weight-table growth on long runs (`MemoryStats::complex_entries` /
//! `complex_reclaimed` report the effect).
//!
//! ## Kernel layer
//!
//! One numeric path runs on a data-parallel kernel: `sim`'s dense fidelity
//! of small states expands both diagrams into *structure-of-arrays*
//! amplitude lanes (separate `re`/`im` `f64` slices,
//! [`DdPackage::amplitude_lanes`]) and reduces them with the conjugated dot
//! kernel [`kernels::dot_conj_lanes`], where SIMD shows its full headroom
//! (the strict-FP scalar reduction cannot autovectorize). The [`kernels`]
//! module dispatches it once per process: `AVX2` intrinsics when the CPU
//! has them, otherwise an autovectorizable scalar loop that is always
//! compiled (and can be forced with the `scalar-kernels` cargo feature,
//! which CI builds and benches on every push). The two backends are
//! **bit-identical by construction** — no FMA contraction, the same
//! per-lane expression trees, and a fixed 4-accumulator reduction in both
//! — so a verdict can never depend on which machine produced it; the
//! kernel bench asserts this bitwise on every CI run. Every diagram
//! operation stays node-at-a-time and memoized.
//!
//! ## Concurrency model
//!
//! A [`DdPackage`] by itself is single-threaded (`Send`, not `Sync`). For
//! portfolio racing, the canonicity-carrying half can be split into a
//! [`SharedStore`] with one package-*workspace* per thread
//! ([`SharedStore::workspace`]):
//!
//! * **Shared (in the store):** the canonical complex table (striped —
//!   each bucket row hashes to one of a fixed set of mutexes, and an
//!   intern locks only the stripes its probe window touches, in ascending
//!   order), the vector/matrix
//!   unique tables (sharded by node hash into independently locked maps),
//!   the append-only node arenas (reader/writer locks), the gate-diagram
//!   L2 cache, free lists and telemetry counters. Any thread interning the
//!   same `(weight, children)` gets the *same* canonical edge, so racing
//!   schemes turn duplicated construction into cross-thread cache hits
//!   ([`MemoryStats::cross_thread_hits`]).
//! * **Epoch-snapshot reads:** every completed collection publishes an
//!   immutable [`Generation`](store) — an `Arc`-shared copy of the node
//!   arenas and complex lanes — and each workspace *pins* the current
//!   generation when it attaches and re-pins after every collection it
//!   crosses. Reads of pre-snapshot structure go straight to the pinned
//!   copy with no lock and no atomic; only post-snapshot tail slots fall
//!   back to a bulk fetch under the arena read lock. A superseded
//!   generation is not reclaimed until its last reader re-pins (deferred
//!   reclamation — `dd.store.retired_generations` vs
//!   `dd.store.deferred_reclaim_bytes` below), so a pinned read can never
//!   observe a recycled slot.
//! * **Thread-local (in each workspace):** the lossy compute caches (they
//!   are overwrite-on-collision, so thread-local is correct and lock-free),
//!   the identity cache (canonical interning makes independently built
//!   identities identical), [`Budget`]/[`CancelToken`], protection roots and
//!   [`MemoryStats`].
//! * **GC safe-point barrier:** collection on a shared store stops the
//!   world *at its safe points* and runs mid-race. A workspace whose GC
//!   threshold trips elects itself the collector (a non-blocking `try_lock`
//!   of the store's GC lock, which attachment also takes) and raises a
//!   `gc_requested` flag; every other workspace polls the flag at its
//!   operation safe points (the entries of `apply`/`mul`/`add`/
//!   `transpose`) and *parks* there with its roots published — protected
//!   edges, in-flight operands, identity and gate caches. Once all other
//!   attachments are parked (or detached), the collector sweeps from every
//!   published root set plus the shared gate cache, rebuilds the sharded
//!   unique tables, compacts the complex table and publishes a fresh
//!   generation before releasing the barrier; everyone then re-pins and
//!   clears only the node-keyed memos. The weight-keyed memos *survive*
//!   the sweep: their complex indices are published as GC roots, and
//!   compaction keeps marked indices stable. Protected edges keep their
//!   node ids, so parked diagrams stay pointer-identical across the swap.
//!   An attachment that never reaches a safe point (idle, or one very long
//!   operation) makes the collector give up after a bounded patience and
//!   fall back to deferring collection — which is why a thread should hold
//!   at most one attached workspace at a time: a second one can never park
//!   while its sibling runs. Workspaces attached later pin the current
//!   generation and can never see a stale slot.
//! * **One store per race:** the portfolio creates a fresh store for each
//!   race and drops it with the race, so nothing carries over between
//!   circuit pairs and a store's stats are its race's own.
//! * **Panic isolation:** store locks recover from poisoning (their
//!   critical sections keep the data consistent at every panic point), so
//!   one panicking racer cannot take the store — or the other racers —
//!   down with it.
//!
//! ## Observability
//!
//! The crate reports into the `obs` metrics registry — always on, one
//! relaxed atomic add per event on the rare paths and bulk folds on the hot
//! ones (per-operation cache counters are summed into the registry once,
//! when a [`DdPackage`] drops) — and emits structured spans/events through
//! `obs::trace` when a sink is installed (`verify --trace-file`). With no
//! sink, tracing costs one relaxed atomic load per call site.
//!
//! Each metric's catalogue entry carries a *caveat*: what the number
//! misleads about when read alone. The dd metrics (unit in parentheses):
//!
//! | metric | unit | misleads about |
//! |---|---|---|
//! | `dd.compute.lookups` / `dd.compute.hits` | count | folded at package drop; live packages are invisible until then |
//! | `dd.gate.lookups` / `dd.gate.hits` | count | repeated single-gate circuits hit ~100% regardless of cache quality |
//! | `dd.unique.hits` | count | includes same-thread re-interns — not a sharing metric |
//! | `dd.unique.cross_thread_hits` | count | attribution is by first-interner; symmetric duplicates count for neither |
//! | `dd.gc.runs` / `dd.gc.reclaimed` | count | high counts can be healthy pressure or a thrashing threshold — check reclaimed per run |
//! | `dd.gc.barrier_runs` | count | completed rounds only; aborted rounds are `barrier_deferrals` |
//! | `dd.gc.barrier_deferrals` | count | one deferral doubles the collector's threshold, shifting all later GC timing |
//! | `dd.gc.barrier_wait_ns` | nanos | sums across threads, so it can exceed wall-clock time |
//! | `dd.ctab.compacted` | count | entries, not bytes; rehashing survivors is not counted |
//! | `dd.store.shard_waits` / `shard_contention_ns` | count / nanos | timed only on the blocking path; uncontended acquisitions report zero |
//! | `dd.store.epoch_pins` | count | one pin per attach plus one per collection crossed; a high count means frequent GC, not expensive reads — pinning is an `Arc` clone |
//! | `dd.store.retired_generations` | count | equals completed shared collections; retirement is not reclamation — a pinned generation lives on until its last reader moves |
//! | `dd.store.deferred_reclaim_bytes` | count | a running total of bytes that *entered* deferral, never decremented when freed; it bounds transient overhead, not live memory |
//! | `dd.kernels.backend_avx2` / `_scalar` | count | one increment per process at first dispatch — a config gauge, not a usage meter |
//! | `dd.gates.twiddle_hits` | count | only cold gate-DD builds reach this path — the gate cache absorbs repeats first |
//!
//! Trace events: `gc.private`, `gc.sole`, `gc.barrier` (a span whose end
//! records `outcome` collected/deferred), `gc.barrier.parked`,
//! `gc.barrier.sweep` and per-workspace `gc.park` events with park
//! durations. Contention counters (`SharedStoreStats::shard_lock_waits`,
//! `shard_contention_ns`, `barrier_wait_ns`, `barrier_deferrals`,
//! `epoch_pins`, `retired_generations`, `deferred_reclaim_bytes`) are
//! always on and reported per race through the portfolio's shared-store
//! report.
//!
//! ## Quick example
//!
//! ```
//! use dd::{Control, DdPackage, gates};
//!
//! // Build a Bell state and check its measurement statistics.
//! let mut p = DdPackage::new(2);
//! let mut state = p.zero_state();
//! state = p.apply_gate(state, &gates::h(), 0, &[]);
//! state = p.apply_gate(state, &gates::x(), 1, &[Control::pos(0)]);
//! let (p0, p1) = p.probabilities(state, 1);
//! assert!((p0 - 0.5).abs() < 1e-12);
//! assert!((p1 - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

mod cache;
mod complex;
pub mod gates;
mod hash;
pub mod kernels;
mod limits;
mod node;
mod package;
pub mod store;
mod table;

mod export;

pub use cache::CacheCounters;
pub use complex::{Complex, TOLERANCE};
pub use gates::GateMatrix;
pub use limits::{Budget, CancelToken, LimitExceeded};
pub use node::{MEdge, MNode, NodeId, VEdge, VNode};
pub use package::{
    Control, DdPackage, MemoryConfig, MemoryStats, PackageStats, DEFAULT_GC_THRESHOLD,
};
pub use store::{SharedStore, SharedStoreStats};
pub use table::{CIdx, ComplexTable};
