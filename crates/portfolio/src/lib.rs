//! # portfolio — scheduled portfolio verification of quantum circuits
//!
//! No single equivalence-checking scheme wins everywhere: functional
//! checking after unitary reconstruction (the paper's Section 4) is
//! unbeatable when the miter stays close to the identity, while fixed-input
//! distribution extraction (Section 5) can be exponentially faster — or
//! exponentially slower — depending on how many measurement outcomes carry
//! probability mass. The crate answers that in three layers:
//!
//! * **[`scheme`] — the registry.** Every registered scheme is a
//!   [`SchemeDescriptor`](scheme::SchemeDescriptor): an applicability
//!   predicate over the circuit pair, launch ranks and a runner function;
//!   the [`Scheme`] it describes carries the static name. The engine and
//!   scheduler are generic over registry entries; adding a scheme means
//!   adding one descriptor. The seven entries are three miter schedules
//!   (proportional, aligned, one-to-one) plus simulation for static pairs
//!   (on dense state vectors up to 12 qubits, on decision diagrams
//!   beyond), and the reconstruction flow under the proportional and aligned
//!   schedules plus the fixed-input extraction for dynamic pairs. On a
//!   reconstructed pair the aligned schedule ([`qcec::Strategy::Aligned`])
//!   pairs every gate with its reordered twin, so
//!   `dynamic-functional(aligned)` decides the paper's QFT, QPE and BV rows
//!   without leaving the identity. It also refutes their one-bit twins: it
//!   strips the identical suffix and multiplies only the window where the
//!   pair diverges (the kick-back phases of a QPE twin, the one differing
//!   CX of a BV twin). The reference schedule
//!   ([`qcec::Strategy::Reference`]) is not raced. An explicit
//!   [`PortfolioConfig::schemes`] list may still name an unregistered
//!   scheme (such as `DynamicFunctional(OneToOne)` or
//!   `Functional(Reference)`): it runs nothing and comes back as a failed
//!   [`SchemeReport`] naming the missing entry.
//! * **[`scheduler`] — the launch plan.** [`scheduler::plan`] turns a
//!   circuit pair into a [`SchedulePlan`](scheduler::SchedulePlan) that
//!   launches every applicable scheme at once, the paper's proposal: first
//!   conclusive verdict wins, a shared [`CancelToken`](dd::CancelToken)
//!   unwinds the losers. The tiny-instance sequential fast path is a plan
//!   shape, not an engine special case.
//! * **the engine — the launcher.** [`verify_portfolio`] executes the plan
//!   for one pair: on the calling thread for a sequential plan, otherwise
//!   as a thread race, by default on one fresh [`dd::SharedStore`].
//!
//! The [`service`] module wraps the engine in a long-lived
//! [`VerificationService`](service::VerificationService); the [`batch`]
//! module (whole workloads from a JSON manifest or a directory of QASM
//! pairs, machine-readable JSON report) and the `verifyd` daemon are its
//! two front-ends, and the `verify` binary is the batch CLI.
//!
//! ## Service architecture
//!
//! ```text
//!   verify (one-shot CLI)      verifyd (daemon, stdio / unix socket)
//!            │                              │  wire.rs: line-delimited
//!            ▼                              ▼  JSON-RPC, bounded frames
//!      batch::run_batch ──────────► service::VerificationService
//!                                   │  admission control (workers+queue)
//!                                   │  per-request deadline/node budgets
//!                                   │  CancelToken per request (a dropped
//!                                   │  client kills its in-flight race)
//!                                   ▼
//!                       engine::verify_portfolio · obs
//!                       (one fresh dd::SharedStore per race)
//! ```
//!
//! The service owns the worker pool, the admission queue and the
//! process-global `obs` substrate (each response carries the metrics delta
//! folded around its race). It keeps no verification state between
//! requests: every race builds its own store and drops it when the race
//! ends, as a one-shot [`verify_portfolio`] call does. [`service::VerificationService::submit`]
//! applies admission control — beyond `workers + max_queue` admitted
//! requests it rejects with a structured reason instead of queueing
//! unboundedly — and returns a handle whose *drop* cancels the request:
//! the per-request token is chained as the parent of every scheme budget
//! ([`dd::Budget::with_parent_token`]), so a disconnected client's race
//! unwinds cooperatively and its store is dropped with it.
//!
//! ## Wire protocol (verifyd)
//!
//! Newline-delimited JSON-RPC over stdio or a Unix socket ([`wire`] has
//! the full grammar): requests are `{"id", "method", "params"}` objects,
//! one per line; responses echo `id` and carry `result` or a structured
//! `error` (`code`, `message`). Methods: `verify-pair`, `verify-batch`,
//! `stats`, `drain`, `shutdown`. Responses arrive in *completion* order;
//! malformed, truncated or oversized lines get error responses (never a
//! panic, never a silent drop — a proptest suite feeds the parser
//! adversarial byte streams), and framing resynchronizes on the next
//! newline.
//!
//! ## Racing on a shared store
//!
//! By default threaded plans race against one concurrent
//! [`dd::SharedStore`] ([`PortfolioConfig::shared_package`]): the racing
//! schemes attach one workspace each and reuse each other's gate diagrams,
//! complex weights and subdiagrams instead of re-interning them privately.
//! The store is created for the race and dropped with it. Three layers of
//! telemetry surface the sharing:
//!
//! * [`SchemeReport::shared_nodes`] and
//!   [`SchemeReport::cross_thread_hit_rate`] per scheme;
//! * [`PortfolioResult::shared_store`] (a [`SharedStoreReport`]) per run:
//!   `peak_nodes`, `allocated_nodes`, `intern_hits`, `cross_thread_hits`,
//!   `cross_thread_hit_rate` (always finite), `gc_runs` /
//!   `gc_barrier_runs`, `complex_entries`;
//! * the batch JSON report repeats that block per pair
//!   (`pairs[i].shared_store`) and totals `gc_barrier_runs_total`.
//!
//! ## Incremental verification of compilation chains
//!
//! A compiler does not produce one circuit, it produces a *pipeline* of
//! them — original, decomposed, basis-rewritten, routed, optimized — and
//! the interesting question is rarely "do the endpoints agree" but "which
//! pass broke it". The [`chain`] module verifies such a pipeline
//! *pass-by-pass*: every adjacent snapshot pair is one ordinary portfolio
//! race on a store of its own, the whole chain occupies one service worker
//! ([`service::VerificationService::submit_chain`]), and the first refuted
//! step names the guilty pass ([`chain::ChainReport::guilty_pass`]). Two
//! things make this *faster* than it sounds, not slower:
//!
//! * adjacent snapshots are nearly identical, so every miter stays close
//!   to the identity — the regime where DD node sharing and the compute
//!   cache pay off most;
//! * the race includes the `functional(aligned)` scheme
//!   ([`qcec::Strategy::Aligned`]): a diff-guided gate schedule that walks
//!   an insertion-only pair (the shape every routing pass produces) in
//!   lockstep, pairing each gate with its twin and tracking inserted SWAP
//!   triplets as wire renamings, so the routed step's miter never drifts
//!   the way a globally proportional schedule lets it. Only the residual
//!   permutation the renamings leave at the end is multiplied in, once, and
//!   a restored layout leaves none. This is what makes the chain's hardest
//!   step — the routing pass — cheaper than the endpoint miter instead of
//!   costlier.
//!
//! Chains ride every front-end: manifests gain a `chains` array
//! ([`batch::Manifest::chains`], [`chain::ChainSpec`]), `verify --chain`
//! verifies one pipeline from the command line, the daemon speaks
//! `verify-chain`, and the batch report totals
//! `chains_total` / `chains_refuted` / `chain_steps_verified` plus
//! `pairs_per_sec` — plain pairs and verified chain steps per wall-clock
//! second. Verdict composition is conservative: `NotEquivalent` as soon as
//! a step refutes, otherwise the *weakest* step equivalence (one
//! simulative step caps the chain at `ProbablyEquivalent`; an
//! inconclusive step caps it at `NoInformation`) — a chain never claims
//! more than its weakest link proves. The compile crate's
//! [`StagedCompilation`](../compile/struct.StagedCompilation.html)
//! exposes per-pass snapshots for exactly this, and the bench crate's
//! `corpus` binary generates whole manifest corpora of them.
//!
//! ## Observability
//!
//! Every layer reports into the `obs` crate. Counters are always on (one
//! relaxed atomic add per event); structured tracing activates when a sink
//! is installed — `verify --trace-file FILE` writes JSONL where every line
//! carries `ts_us`/`thread`/`ev`/`kind` plus the ambient correlation IDs
//! (`pair`, `pair_name`, `scheme`, `span`/`parent`). The span tree per
//! pair: `pair` → `race` (fields: `sequential`, `primary` — the launch
//! count — then verdict, winner and cancellations at its end) →
//! `scheme.run` per launch → the dd GC spans of whatever that scheme
//! allocated. Point events: `race.plan` (whether the race shares a store),
//! `scheme.launch` (wave: inline / primary / sequential), `race.verdict`
//! (one per winner improvement), `race.cancel`.
//!
//! The portfolio metric catalogue — each entry's caveat states what the
//! bare number misleads about:
//!
//! | metric | unit | misleads about |
//! |---|---|---|
//! | `portfolio.races` | count | counts sequential tiny-instance plans as races too |
//! | `portfolio.scheme_launches` | count | launched is not finished: cancelled schemes count like winners |
//! | `portfolio.cancellations` | count | cancellation is cooperative; a scheme may finish before noticing |
//! | `batch.pairs` | count | includes pairs that failed to parse |
//! | `service.requests` | count | admitted is not completed: cancelled requests count like served ones |
//! | `service.queue_depth` / `service.inflight` | count | running *sums* sampled at admission/dispatch, not gauges — divide by `service.requests` for means; `stats` has the live gauges |
//! | `service.admission_rejects` | count | rejects are per submit attempt; one retrying client can dominate the count |
//! | `service.request_duration` | ns hist | dispatch-to-outcome only, queue wait invisible; log2 buckets make the p99 an upper bound |
//!
//! The batch JSON carries an always-on per-pair `metrics` block
//! ([`batch::PairMetrics`]: whether the race shared a store, cache and
//! cross-thread hit rates, GC-barrier wait, lock contention) derived from
//! the same counters — no trace file needed. `verify --metrics` prints the
//! folded counters to stderr after a run; `--trace-file` implies it.
//!
//! ## Failure isolation
//!
//! A scheme that *panics* (as opposed to erroring) is caught, reported as a
//! failed [`SchemeReport`] with the panic message as its error, and the
//! run continues with the remaining schemes; shared-store locks the dead
//! scheme may have poisoned recover instead of cascading.
//!
//! ## Quick start
//!
//! ```
//! use algorithms::qpe;
//! use portfolio::{verify_portfolio, PortfolioConfig};
//!
//! let phi = 3.0 * std::f64::consts::PI / 8.0;
//! let result = verify_portfolio(
//!     &qpe::qpe_static(phi, 3, true),
//!     &qpe::iqpe_dynamic(phi, 3),
//!     &PortfolioConfig::default(),
//! );
//! assert!(result.verdict.considered_equivalent());
//! println!("winner: {:?} in {:?}", result.winner, result.time_to_verdict);
//! ```
//!
//! ## Verdict semantics
//!
//! A verdict is *conclusive* when it proves something: `Equivalent`,
//! `EquivalentUpToGlobalPhase` or `NotEquivalent`. `ProbablyEquivalent`
//! (simulative agreement on random stimuli) never beats a conclusive verdict
//! and is only returned when every scheme that finished was inconclusive.
//! Note that for *dynamic* circuit pairs the fixed-input scheme proves
//! equivalence of the measurement-outcome distributions for the all-zeros
//! input — a weaker statement than full functional equivalence. The
//! [`SchemeReport::scheme`] of the winner tells which semantics produced the
//! verdict, and two precedence rules keep runs sound:
//!
//! * a fixed-input *refutation* is also a functional refutation, so
//!   `NotEquivalent` from any scheme is always safe to report;
//! * when the fixed-input scheme claims equivalence but a functional scheme
//!   in the same run finished with a refutation, the refutation wins — the
//!   weaker claim never overrides the stronger proof.

#![warn(missing_docs)]

pub mod batch;
pub mod chain;
mod engine;
pub mod scheduler;
pub mod scheme;
pub mod service;
pub mod wire;

pub use chain::{ChainReport, ChainRequest, ChainSpec, ChainStep, ChainStepReport, ChainStepSpec};
pub use engine::{
    applicable_schemes, run_scheme, run_scheme_in, verify_portfolio, PortfolioConfig,
    PortfolioResult, SchemeReport, SharedStoreReport,
};
pub use scheme::Scheme;
