//! Batch verification driver: fan a workload of circuit pairs over a worker
//! pool of portfolio races and emit a machine-readable JSON report.
//!
//! A workload is described by a [`Manifest`] — either written by hand /
//! another tool as JSON:
//!
//! ```json
//! {
//!   "pairs": [
//!     { "name": "qpe_3", "left": "qpe_3.left.qasm", "right": "qpe_3.right.qasm" }
//!   ],
//!   "chains": [
//!     { "name": "qft_12", "qubits": 12, "steps": [
//!       { "pass": "original", "path": "qft_12.step0.qasm" },
//!       { "pass": "route",    "path": "qft_12.step1.qasm" },
//!       { "pass": "optimize", "path": "qft_12.step2.qasm" }
//!     ] }
//!   ]
//! }
//! ```
//!
//! or discovered from a directory of OpenQASM files with
//! [`manifest_from_dir`], which pairs files by shared stem: `X.left.qasm` +
//! `X.right.qasm` (also accepted: `X_left/X_right`, `X_a/X_b`). The
//! optional `chains` array (a *pipeline manifest*) lists compilation chains
//! verified pass-by-pass — see [`crate::chain`].
//!
//! [`run_batch`] is the library entry point behind the `verify` binary; it
//! is what the ROADMAP calls the workload entry point for heavy traffic —
//! every pair is one independent portfolio race, so throughput scales with
//! the worker pool.

use crate::chain::{ChainReport, ChainRequest, ChainSpec};
use crate::engine::{PortfolioConfig, PortfolioResult, SchemeReport, SharedStoreReport};
use crate::scheme::Scheme;
use crate::service::{Request, ServiceConfig, VerificationService};
use qcec::Equivalence;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One circuit pair of a batch workload.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PairSpec {
    /// Display name; defaults to the left file's stem.
    pub name: Option<String>,
    /// Path to the left (reference) circuit, relative to the manifest.
    pub left: String,
    /// Path to the right (candidate) circuit, relative to the manifest.
    pub right: String,
    /// Register width (max qubits of the two circuits). Nothing reads it;
    /// it stays so that manifests carrying the key keep their format.
    pub qubits: Option<usize>,
}

/// A batch workload: a list of circuit pairs, plus (optionally) a list of
/// compilation chains verified pass-by-pass (see [`crate::chain`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Manifest {
    /// The circuit pairs to verify.
    pub pairs: Vec<PairSpec>,
    /// Compilation chains to verify incrementally. `Option` so manifests
    /// written before chains existed still load (a missing key
    /// deserializes as `Null`, which only `Option` accepts).
    pub chains: Option<Vec<ChainSpec>>,
}

impl Manifest {
    /// The manifest's chains (empty slice when the key is absent).
    pub fn chain_specs(&self) -> &[ChainSpec] {
        self.chains.as_deref().unwrap_or_default()
    }
}

/// Error raised while loading a workload.
#[derive(Debug)]
pub enum BatchError {
    /// The manifest file or a QASM directory could not be read.
    Io(std::io::Error),
    /// The manifest was not valid JSON of the expected shape.
    Manifest(serde::Error),
    /// A directory scan found a stem with other than exactly two files.
    UnpairedFiles {
        /// The offending stem.
        stem: String,
        /// Files sharing the stem.
        files: Vec<String>,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Io(e) => write!(f, "i/o error: {e}"),
            BatchError::Manifest(e) => write!(f, "invalid manifest: {e}"),
            BatchError::UnpairedFiles { stem, files } => write!(
                f,
                "stem `{stem}` does not form a pair (found {})",
                files.join(", ")
            ),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<std::io::Error> for BatchError {
    fn from(e: std::io::Error) -> Self {
        BatchError::Io(e)
    }
}

/// Loads a JSON manifest from disk. Relative pair paths are resolved against
/// the manifest's directory.
///
/// # Errors
///
/// [`BatchError::Io`] / [`BatchError::Manifest`] on unreadable or malformed
/// input.
pub fn load_manifest(path: &Path) -> Result<Manifest, BatchError> {
    let text = std::fs::read_to_string(path)?;
    let mut manifest: Manifest = serde_json::from_str(&text).map_err(BatchError::Manifest)?;
    if let Some(dir) = path.parent() {
        for pair in &mut manifest.pairs {
            pair.left = resolve(dir, &pair.left);
            pair.right = resolve(dir, &pair.right);
        }
        for chain in manifest.chains.iter_mut().flatten() {
            for step in &mut chain.steps {
                step.path = resolve(dir, &step.path);
            }
        }
    }
    Ok(manifest)
}

fn resolve(dir: &Path, file: &str) -> String {
    let path = Path::new(file);
    if path.is_absolute() {
        file.to_string()
    } else {
        dir.join(path).to_string_lossy().into_owned()
    }
}

/// Builds a manifest by pairing the `.qasm` files of a directory.
///
/// Files pair up when they share a stem after stripping a `left`/`right` or
/// `a`/`b` suffix (separated by `.` or `_`): `qpe.left.qasm` with
/// `qpe.right.qasm`, `bv_a.qasm` with `bv_b.qasm`. Pairs are sorted by stem
/// so reports are deterministic.
///
/// # Errors
///
/// [`BatchError::Io`] when the directory cannot be read,
/// [`BatchError::UnpairedFiles`] when a stem has other than two files.
pub fn manifest_from_dir(dir: &Path) -> Result<Manifest, BatchError> {
    let mut groups: std::collections::BTreeMap<String, Vec<PathBuf>> = Default::default();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("qasm") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let base = strip_side_suffix(stem);
        groups
            .entry(base.to_string())
            .or_default()
            .push(path.clone());
    }
    let mut pairs = Vec::new();
    for (stem, mut files) in groups {
        if files.len() != 2 {
            return Err(BatchError::UnpairedFiles {
                stem,
                files: files
                    .iter()
                    .map(|p| p.to_string_lossy().into_owned())
                    .collect(),
            });
        }
        files.sort(); // `a` < `b`, `left` < `right` — alphabetical works
        pairs.push(PairSpec {
            name: Some(stem),
            left: files[0].to_string_lossy().into_owned(),
            right: files[1].to_string_lossy().into_owned(),
            qubits: None,
        });
    }
    Ok(Manifest {
        pairs,
        chains: None,
    })
}

pub(crate) fn strip_side_suffix(stem: &str) -> &str {
    for suffix in [".left", ".right", "_left", "_right", ".a", ".b", "_a", "_b"] {
        if let Some(base) = stem.strip_suffix(suffix) {
            if !base.is_empty() {
                return base;
            }
        }
    }
    stem
}

/// Options of a [`run_batch`] invocation.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads racing pairs concurrently (each pair additionally
    /// spawns its portfolio's scheme threads). Defaults to the available
    /// parallelism divided by the typical scheme count.
    pub workers: usize,
    /// Portfolio configuration applied to every pair.
    pub portfolio: PortfolioConfig,
}

impl Default for BatchOptions {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        BatchOptions {
            // Each pair races ~4 schemes; keep pair-level × scheme-level
            // threads near the hardware width.
            workers: (parallelism / 4).max(1),
            portfolio: PortfolioConfig::default(),
        }
    }
}

/// Hot-path metrics digest of one pair, reported as the `metrics` block of
/// the batch JSON.
///
/// Everything here is derived from always-on counters (no `--trace-file`
/// required). Rates are `None` when the pair reported no lookups at all;
/// the time fields sum *across* scheme threads, so they can exceed the
/// pair's wall-clock time.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct PairMetrics {
    /// Whether this pair's schemes raced on a shared decision-diagram
    /// store: `false` with `--private-packages` and for tiny pairs, which
    /// run their schemes one at a time on private packages.
    pub shared: bool,
    /// Best compute-table hit rate any scheme of this pair reported.
    pub cache_hit_rate: Option<f64>,
    /// Shared-store canonical hits served by a competitor's structure,
    /// as a fraction of all canonical hits (`None` for private races).
    pub cross_thread_hit_rate: Option<f64>,
    /// Time spent requesting, parking for and waiting out GC barriers,
    /// summed across this pair's scheme threads (seconds).
    pub barrier_wait_seconds: f64,
    /// Barrier requests that timed out and deferred the collection.
    pub barrier_deferrals: usize,
    /// Store lock acquisitions that blocked behind another scheme.
    pub shard_lock_waits: u64,
    /// Time spent blocked on store locks, summed across threads (seconds).
    pub shard_contention_seconds: f64,
}

impl PairMetrics {
    pub(crate) fn from_result(result: &PortfolioResult) -> PairMetrics {
        let store = result.shared_store.as_ref();
        PairMetrics {
            shared: result.shared,
            cache_hit_rate: result
                .schemes
                .iter()
                .filter_map(|s| s.cache_hit_rate)
                .fold(None, |best: Option<f64>, rate| {
                    Some(best.map_or(rate, |b| b.max(rate)))
                }),
            cross_thread_hit_rate: store.map(|s| s.cross_thread_hit_rate),
            barrier_wait_seconds: store.map_or(0.0, |s| s.barrier_wait_seconds),
            barrier_deferrals: store.map_or(0, |s| s.barrier_deferrals),
            shard_lock_waits: store.map_or(0, |s| s.shard_lock_waits),
            shard_contention_seconds: store.map_or(0.0, |s| s.shard_contention_seconds),
        }
    }
}

/// Verification report of one pair.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PairReport {
    /// Pair name (from the manifest or derived from the file stem).
    pub name: String,
    /// Left circuit path.
    pub left: String,
    /// Right circuit path.
    pub right: String,
    /// Combined portfolio verdict.
    pub verdict: Equivalence,
    /// Convenience flag: does the verdict count as equivalent?
    pub considered_equivalent: bool,
    /// Scheme that produced the verdict.
    pub winner: Option<Scheme>,
    /// Wall time until the verdict (seconds in JSON).
    pub time_to_verdict: Duration,
    /// Wall time until all schemes stopped (seconds in JSON).
    pub total_time: Duration,
    /// Peak decision-diagram node count across all schemes of this pair.
    pub peak_nodes: Option<usize>,
    /// Decision-diagram garbage-collection runs summed over all schemes.
    pub gc_runs: usize,
    /// Best compute-table hit rate any scheme of this pair reported.
    pub cache_hit_rate: Option<f64>,
    /// Hot-path metrics digest (cache/sharing hit rates, barrier wait and
    /// lock contention time) — see [`PairMetrics`].
    pub metrics: PairMetrics,
    /// Shared decision-diagram store telemetry of this pair's race (peak
    /// nodes, cross-thread hit rate, store-level GC and barrier-GC runs);
    /// `None` when the pair raced with private packages or took the
    /// sequential fast path.
    pub shared_store: Option<SharedStoreReport>,
    /// Per-scheme telemetry.
    pub schemes: Vec<SchemeReport>,
    /// Load/parse failure, when the pair never ran.
    pub error: Option<String>,
}

impl PairReport {
    /// Builds the report of one completed race. Shared by the pair and
    /// chain execution paths of the service.
    pub(crate) fn from_result(
        name: String,
        left: String,
        right: String,
        result: PortfolioResult,
    ) -> PairReport {
        let metrics = PairMetrics::from_result(&result);
        PairReport {
            name,
            left,
            right,
            verdict: result.verdict,
            considered_equivalent: result.verdict.considered_equivalent(),
            winner: result.winner,
            time_to_verdict: result.time_to_verdict,
            total_time: result.total_time,
            peak_nodes: result.schemes.iter().filter_map(|s| s.peak_nodes).max(),
            gc_runs: result.schemes.iter().filter_map(|s| s.gc_runs).sum(),
            cache_hit_rate: result
                .schemes
                .iter()
                .filter_map(|s| s.cache_hit_rate)
                .fold(None, |best: Option<f64>, rate| {
                    Some(best.map_or(rate, |b| b.max(rate)))
                }),
            metrics,
            shared_store: result.shared_store,
            schemes: result.schemes,
            error: None,
        }
    }
}

/// Report of a whole batch run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BatchReport {
    /// Tool identifier, for provenance.
    pub generated_by: String,
    /// Number of pairs in the workload.
    pub pairs_total: usize,
    /// Pairs whose verdict counts as equivalent.
    pub pairs_equivalent: usize,
    /// Pairs that failed to load or produced no information.
    pub pairs_failed: usize,
    /// Scheme launches summed over the whole batch (a race launches every
    /// applicable scheme; a sequential plan stops at the first conclusive
    /// one).
    pub schemes_launched_total: usize,
    /// Decision-diagram garbage-collection runs summed over the whole batch.
    pub gc_runs_total: usize,
    /// Mid-race safe-point barrier collections summed over the whole batch.
    pub gc_barrier_runs_total: usize,
    /// Adjacent-pair verifications (plain pairs + verified chain steps)
    /// completed per wall-clock second — the headline throughput metric.
    /// Caveat: throughput at the *achieved* verdict mix, not at fixed
    /// verdict quality; a batch of failed parses completes very fast. Read
    /// it next to `pairs_failed` and `chains_refuted`.
    pub pairs_per_sec: f64,
    /// Chains in the workload.
    pub chains_total: usize,
    /// Chains whose combined verdict counts as equivalent.
    pub chains_equivalent: usize,
    /// Chains refuted, each naming a guilty pass in its report.
    pub chains_refuted: usize,
    /// Adjacent-pair verifications performed inside chains (a refuted
    /// chain stops early, so this can be less than the steps requested).
    pub chain_steps_verified: usize,
    /// Wall time of the whole batch (seconds in JSON).
    pub total_time: Duration,
    /// Per-pair reports, in manifest order.
    pub pairs: Vec<PairReport>,
    /// Per-chain reports, in manifest order.
    pub chains: Vec<ChainReport>,
}

pub(crate) fn failed_pair(spec: &PairSpec, name: String, error: String) -> PairReport {
    PairReport {
        name,
        left: spec.left.clone(),
        right: spec.right.clone(),
        verdict: Equivalence::NoInformation,
        considered_equivalent: false,
        winner: None,
        time_to_verdict: Duration::ZERO,
        total_time: Duration::ZERO,
        peak_nodes: None,
        gc_runs: 0,
        cache_hit_rate: None,
        metrics: PairMetrics::default(),
        shared_store: None,
        schemes: Vec::new(),
        error: Some(error),
    }
}

/// Fans the manifest's pairs over a pool of `options.workers` threads, each
/// running full portfolio races, and collects a [`BatchReport`].
pub fn run_batch(manifest: &Manifest, options: &BatchOptions) -> BatchReport {
    let start = Instant::now();
    // The batch driver is a one-shot front-end over the service core: spin
    // up a service sized for the manifest, submit every pair, wait for the
    // outcomes in manifest order, drain.
    let chain_specs = manifest.chain_specs();
    let workload = manifest.pairs.len() + chain_specs.len();
    let service = VerificationService::start(ServiceConfig {
        portfolio: options.portfolio.clone(),
        workers: options.workers.clamp(1, workload.max(1)),
        // A batch never queues more than its own manifest; size the queue
        // so admission control cannot reject.
        max_queue: workload,
    });
    let handles: Vec<_> = manifest
        .pairs
        .iter()
        .map(|spec| {
            service
                .submit(Request::from_pair(spec))
                .expect("batch service queue is sized for the whole manifest")
        })
        .collect();
    let chain_handles: Vec<_> = chain_specs
        .iter()
        .map(|spec| {
            service
                .submit_chain(ChainRequest::from_spec(spec))
                .expect("batch service queue is sized for the whole manifest")
        })
        .collect();
    let pairs: Vec<PairReport> = handles
        .into_iter()
        .map(|handle| handle.wait().report)
        .collect();
    let chains: Vec<ChainReport> = chain_handles
        .into_iter()
        .map(|handle| handle.wait().report)
        .collect();
    service.drain();
    let total_time = start.elapsed();
    let chain_steps_verified: usize = chains.iter().map(|c| c.steps_verified).sum();
    let verifications = pairs.len() + chain_steps_verified;
    BatchReport {
        generated_by: format!("nonunitary-qcec verify {}", env!("CARGO_PKG_VERSION")),
        pairs_total: pairs.len(),
        pairs_equivalent: pairs.iter().filter(|p| p.considered_equivalent).count(),
        pairs_failed: pairs
            .iter()
            .filter(|p| p.error.is_some() || p.verdict == Equivalence::NoInformation)
            .count(),
        schemes_launched_total: pairs
            .iter()
            .map(|p| p.schemes.len())
            .chain(
                chains
                    .iter()
                    .flat_map(|c| c.steps.iter().map(|s| s.report.schemes.len())),
            )
            .sum(),
        gc_runs_total: pairs
            .iter()
            .map(|p| p.gc_runs)
            .chain(
                chains
                    .iter()
                    .flat_map(|c| c.steps.iter().map(|s| s.report.gc_runs)),
            )
            .sum(),
        gc_barrier_runs_total: pairs
            .iter()
            .filter_map(|p| p.shared_store.as_ref())
            .chain(
                chains
                    .iter()
                    .flat_map(|c| c.steps.iter())
                    .filter_map(|s| s.report.shared_store.as_ref()),
            )
            .map(|s| s.gc_barrier_runs)
            .sum(),
        pairs_per_sec: if total_time.as_secs_f64() > 0.0 {
            verifications as f64 / total_time.as_secs_f64()
        } else {
            0.0
        },
        chains_total: chains.len(),
        chains_equivalent: chains.iter().filter(|c| c.considered_equivalent).count(),
        chains_refuted: chains.iter().filter(|c| c.guilty_pass.is_some()).count(),
        chain_steps_verified,
        total_time,
        pairs,
        chains,
    }
}
