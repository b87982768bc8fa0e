//! Incremental (pass-by-pass) verification of a compilation chain.
//!
//! A compilation pipeline produces a *chain* of circuits — original,
//! after-decomposition, after-basis-rewrite, after-routing, after-optimize —
//! whose adjacent snapshots are nearly identical. Verifying the chain
//! pass-by-pass instead of endpoint-to-endpoint keeps every miter close to
//! the identity (the regime where DD memoization pays off most) and turns a
//! refutation into a *blame*: the first step whose adjacent pair differs
//! names the guilty pass, instead of the endpoint check's "the ends differ,
//! somewhere".
//!
//! The chain protocol (see [`run_chain`]):
//!
//! 1. Each adjacent pair runs as an ordinary portfolio race, exactly as a
//!    one-shot [`verify_portfolio`](crate::verify_portfolio) would run it:
//!    a threaded race gets a fresh store of its own, and nothing carries
//!    over from one step to the next.
//! 2. On the first `NotEquivalent` step the chain stops and reports that
//!    step's pass as [`ChainReport::guilty_pass`]; inconclusive steps are
//!    recorded and the chain continues (it can still blame a later pass,
//!    but can no longer certify the endpoints).

use crate::batch::PairReport;
use crate::engine::verify_portfolio_recorded;
use crate::service::Source;
use crate::telemetry::TelemetryStore;
use crate::PortfolioConfig;
use circuit::QuantumCircuit;
use qcec::Equivalence;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One circuit of a manifest chain entry.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ChainStepSpec {
    /// Name of the compilation pass that produced this circuit (used in
    /// guilty-pass blame); defaults to `"original"` for the first circuit
    /// and `"step<i>"` otherwise.
    pub pass: Option<String>,
    /// Path to the circuit, relative to the manifest.
    pub path: String,
}

/// One compilation chain of a batch workload: the pipeline's circuits in
/// order, verified pass-by-pass (adjacent pairs).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ChainSpec {
    /// Display name; defaults to the first circuit's file stem.
    pub name: Option<String>,
    /// Register width (device qubits). Nothing reads it; it stays so that
    /// manifests carrying the key keep their format.
    pub qubits: Option<usize>,
    /// The pipeline's circuits, in compilation order (at least two).
    pub steps: Vec<ChainStepSpec>,
}

/// One chain-verification request: a pipeline's circuits in order, plus
/// optional per-step resource bounds layered over the service's portfolio
/// defaults.
#[derive(Debug, Clone)]
pub struct ChainRequest {
    /// Display name; derived from the first source (or the request id)
    /// when absent.
    pub name: Option<String>,
    /// The pipeline's circuits, in compilation order (at least two).
    pub steps: Vec<ChainStep>,
    /// Per-*step* wall-clock deadline, overriding
    /// [`PortfolioConfig::deadline`]. Each adjacent pair is one race.
    pub deadline: Option<Duration>,
    /// Per-step decision-diagram node budget, overriding
    /// [`PortfolioConfig::node_limit`].
    pub node_limit: Option<usize>,
    /// Register width hint (see [`ChainSpec::qubits`]). Nothing reads it.
    pub width_hint: Option<usize>,
}

/// One circuit of a [`ChainRequest`].
#[derive(Debug, Clone)]
pub struct ChainStep {
    /// Pass name used in blame; defaulted like [`ChainStepSpec::pass`].
    pub pass: Option<String>,
    /// Where the circuit comes from.
    pub source: Source,
}

impl ChainRequest {
    /// A request for a manifest chain entry with no per-request overrides.
    pub fn from_spec(spec: &ChainSpec) -> ChainRequest {
        ChainRequest {
            name: spec.name.clone(),
            steps: spec
                .steps
                .iter()
                .map(|step| ChainStep {
                    pass: step.pass.clone(),
                    source: Source::Path(PathBuf::from(&step.path)),
                })
                .collect(),
            deadline: None,
            node_limit: None,
            width_hint: spec.qubits,
        }
    }
}

/// Verification report of one chain step (one adjacent pair).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ChainStepReport {
    /// The compilation pass under test: the one that produced this step's
    /// right circuit from its left.
    pub pass: String,
    /// The step's full pair report (same shape as a batch pair).
    pub report: PairReport,
}

/// Verification report of one compilation chain.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ChainReport {
    /// Chain name (from the manifest or derived from the first file stem).
    pub name: String,
    /// Combined verdict: `NotEquivalent` as soon as any step refutes,
    /// `NoInformation` when a step was inconclusive (or the chain failed to
    /// load), otherwise the *weakest* per-step equivalence — a chain of
    /// global-phase equivalences composes to a global-phase equivalence,
    /// and one simulative step caps the whole chain at
    /// `ProbablyEquivalent`.
    pub verdict: Equivalence,
    /// Convenience flag: does the verdict count as equivalent?
    pub considered_equivalent: bool,
    /// The first pass whose adjacent pair was refuted — the pass that broke
    /// the pipeline. `None` while every verified step held.
    pub guilty_pass: Option<String>,
    /// Adjacent pairs in the chain (circuits − 1).
    pub steps_total: usize,
    /// Adjacent pairs actually verified (a refutation stops the chain).
    pub steps_verified: usize,
    /// Wall time of the whole chain (seconds in JSON).
    pub total_time: Duration,
    /// Per-step reports, in pipeline order (stops after a refuted step).
    pub steps: Vec<ChainStepReport>,
    /// Load/parse failure, when the chain never ran.
    pub error: Option<String>,
}

/// A chain report for a workload that never ran (load/parse failure or a
/// malformed chain).
pub(crate) fn failed_chain(name: String, steps_total: usize, error: String) -> ChainReport {
    ChainReport {
        name,
        verdict: Equivalence::NoInformation,
        considered_equivalent: false,
        guilty_pass: None,
        steps_total,
        steps_verified: 0,
        total_time: Duration::ZERO,
        steps: Vec::new(),
        error: Some(error),
    }
}

/// A parsed chain, ready to execute: one label and display string per
/// circuit (labels blame passes, displays go into the per-step reports).
pub(crate) struct ParsedChain {
    pub name: String,
    pub labels: Vec<String>,
    pub displays: Vec<String>,
    pub circuits: Vec<QuantumCircuit>,
}

/// The weaker of two "considered equivalent" verdicts (exact beats
/// up-to-phase beats probabilistic).
fn weakest(a: Equivalence, b: Equivalence) -> Equivalence {
    fn rank(v: Equivalence) -> u8 {
        match v {
            Equivalence::Equivalent => 0,
            Equivalence::EquivalentUpToGlobalPhase => 1,
            Equivalence::ProbablyEquivalent => 2,
            // Excluded by the caller; rank them weakest for safety.
            Equivalence::NotEquivalent | Equivalence::NoInformation => 3,
        }
    }
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// Verifies a parsed chain pass-by-pass, one portfolio race per step.
pub(crate) fn run_chain(
    parsed: &ParsedChain,
    portfolio: &PortfolioConfig,
    telemetry: Option<&Mutex<TelemetryStore>>,
) -> ChainReport {
    let start = Instant::now();
    let steps_total = parsed.circuits.len().saturating_sub(1);
    let mut steps = Vec::with_capacity(steps_total);
    let mut guilty_pass = None;
    let mut error = None;
    for index in 0..steps_total {
        if portfolio
            .cancel
            .as_ref()
            .is_some_and(dd::CancelToken::is_cancelled)
        {
            error = Some(format!("cancelled before step {}", index + 1));
            break;
        }
        let pass = parsed.labels[index + 1].clone();
        let result = verify_portfolio_recorded(
            &parsed.circuits[index],
            &parsed.circuits[index + 1],
            portfolio,
            telemetry,
        );
        obs::metrics::incr(obs::metrics::CHAIN_STEPS);
        let report = PairReport::from_result(
            format!("{}:{pass}", parsed.name),
            parsed.displays[index].clone(),
            parsed.displays[index + 1].clone(),
            result,
        );
        obs::trace::event(
            "chain.step",
            &[
                ("pass", pass.clone().into()),
                ("verdict", report.verdict.to_string().into()),
            ],
        );
        let refuted = report.verdict == Equivalence::NotEquivalent;
        steps.push(ChainStepReport {
            pass: pass.clone(),
            report,
        });
        if refuted {
            // The adjacent pair differs, so this pass broke the pipeline;
            // later steps cannot exonerate it.
            guilty_pass = Some(pass);
            break;
        }
    }

    let verdict = if guilty_pass.is_some() {
        Equivalence::NotEquivalent
    } else if error.is_some()
        || steps.len() < steps_total
        || steps
            .iter()
            .any(|s| !s.report.verdict.considered_equivalent())
    {
        Equivalence::NoInformation
    } else {
        steps
            .iter()
            .map(|s| s.report.verdict)
            .fold(Equivalence::Equivalent, weakest)
    };
    ChainReport {
        name: parsed.name.clone(),
        verdict,
        considered_equivalent: verdict.considered_equivalent(),
        guilty_pass,
        steps_total,
        steps_verified: steps.len(),
        total_time: start.elapsed(),
        steps,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weakest_orders_equivalence_strength() {
        use Equivalence::*;
        assert_eq!(
            weakest(Equivalent, EquivalentUpToGlobalPhase),
            EquivalentUpToGlobalPhase
        );
        assert_eq!(weakest(ProbablyEquivalent, Equivalent), ProbablyEquivalent);
        assert_eq!(weakest(Equivalent, Equivalent), Equivalent);
        assert_eq!(
            weakest(EquivalentUpToGlobalPhase, ProbablyEquivalent),
            ProbablyEquivalent
        );
    }
}
