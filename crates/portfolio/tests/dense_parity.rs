//! Dense terminal-case apply parity: every scheme must produce the same
//! verdict whether the decision-diagram recursions run all the way down to
//! the terminals (dense cutoff 0 — the dense path disabled) or drop to the
//! dense SoA kernels below 2 or 3 levels (3 is the shipped default).
//!
//! The dense path computes the *same* node-function products as the
//! recursive path and re-interns them through the same canonical tables, so
//! this is not an approximate-parity test: verdicts must be identical, and
//! peak node counts may only differ by the intermediate subproducts the
//! dense path never materialises (bounded below by construction, bounded
//! above here by a regression factor).

use algorithms::{qft, qpe};
use portfolio::{applicable_schemes, run_scheme, PortfolioConfig, Scheme};
use qcec::{Equivalence, Strategy};

use circuit::QuantumCircuit;
use dd::Budget;

const CUTOFFS: [u32; 3] = [0, 2, 3];

/// Peak-node regression bound between cutoff settings. The dense path
/// allocates a subset of the recursive path's nodes (it skips intermediate
/// subproducts), so counts should be close; the factor plus the absolute
/// slack absorbs GC-timing noise on tiny instances.
const PEAK_FACTOR: f64 = 1.5;
const PEAK_SLACK: usize = 64;

struct SchemeRun {
    scheme: Scheme,
    verdict: Option<Equivalence>,
    peak_nodes: Option<usize>,
}

fn run_pair_at_cutoff(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    cutoff: u32,
) -> Vec<SchemeRun> {
    let mut config = PortfolioConfig::default();
    config.configuration.memory.dense_cutoff = cutoff;
    config.extraction.memory.dense_cutoff = cutoff;
    applicable_schemes(left, right)
        .into_iter()
        .map(|scheme| {
            let report = run_scheme(scheme, left, right, &config, &Budget::unlimited());
            assert!(
                report.error.is_none(),
                "{} failed at cutoff {cutoff}: {:?}",
                scheme.name(),
                report.error
            );
            SchemeRun {
                scheme,
                verdict: report.verdict,
                peak_nodes: report.peak_nodes,
            }
        })
        .collect()
}

fn assert_parity_across_cutoffs(label: &str, left: &QuantumCircuit, right: &QuantumCircuit) {
    let baseline = run_pair_at_cutoff(left, right, CUTOFFS[0]);
    assert!(!baseline.is_empty(), "{label}: no applicable schemes");
    for &cutoff in &CUTOFFS[1..] {
        let runs = run_pair_at_cutoff(left, right, cutoff);
        assert_eq!(runs.len(), baseline.len(), "{label}: scheme set changed");
        for (base, run) in baseline.iter().zip(&runs) {
            assert_eq!(base.scheme, run.scheme, "{label}: scheme order changed");
            assert_eq!(
                base.verdict,
                run.verdict,
                "{label}/{}: verdict differs between cutoff {} and {cutoff}",
                base.scheme.name(),
                CUTOFFS[0],
            );
            if let (Some(p0), Some(p1)) = (base.peak_nodes, run.peak_nodes) {
                let bound = |p: usize| (p as f64 * PEAK_FACTOR) as usize + PEAK_SLACK;
                assert!(
                    p1 <= bound(p0) && p0 <= bound(p1),
                    "{label}/{}: peak nodes {p1} at cutoff {cutoff} vs {p0} at cutoff {} \
                     exceed the {PEAK_FACTOR}x regression bound",
                    base.scheme.name(),
                    CUTOFFS[0],
                );
            }
        }
    }
}

/// The static-pair schemes (four miter schedules + simulation) on a QFT-10
/// instance pair.
#[test]
fn qft10_static_schemes_agree_across_dense_cutoffs() {
    let left = qft::qft_static(10, None, false);
    let right = qft::qft_static(10, None, false);
    let schemes = applicable_schemes(&left, &right);
    for strategy in [
        Strategy::Reference,
        Strategy::OneToOne,
        Strategy::Proportional,
    ] {
        assert!(schemes.contains(&Scheme::Functional(strategy)));
    }
    assert!(schemes.contains(&Scheme::Simulative));
    assert_parity_across_cutoffs("qft10-static", &left, &right);
}

/// The four dynamic-pair schemes (three reconstruction schedules, among them
/// the aligned one, + the fixed-input extraction) on the QFT-10
/// static/dynamic pair.
#[test]
fn qft10_dynamic_schemes_agree_across_dense_cutoffs() {
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let schemes = applicable_schemes(&left, &right);
    for strategy in [
        Strategy::Reference,
        Strategy::Aligned,
        Strategy::Proportional,
    ] {
        assert!(schemes.contains(&Scheme::DynamicFunctional(strategy)));
    }
    assert!(schemes.contains(&Scheme::FixedInput));
    assert_parity_across_cutoffs("qft10-dynamic", &left, &right);
}

/// Static-pair schemes on a QPE-7 instance (7 precision bits, exactly
/// representable phase so the verdict is a clean Equivalent).
#[test]
fn qpe7_static_schemes_agree_across_dense_cutoffs() {
    let phi = qpe::random_exact_phase(7, 0xDAC2022);
    let left = qpe::qpe_static(phi, 7, false);
    let right = qpe::qpe_static(phi, 7, false);
    assert_parity_across_cutoffs("qpe7-static", &left, &right);
}

/// Dynamic-pair schemes on the QPE-7 static/iterative pair.
#[test]
fn qpe7_dynamic_schemes_agree_across_dense_cutoffs() {
    let phi = qpe::random_exact_phase(7, 0xDAC2022);
    let left = qpe::qpe_static(phi, 7, true);
    let right = qpe::iqpe_dynamic(phi, 7);
    assert_parity_across_cutoffs("qpe7-dynamic", &left, &right);
}

/// A refuting pair must stay refuted with the dense path live: the dense
/// kernels feed the same canonical weights back into the diagrams, so a
/// NotEquivalent verdict cannot flip to a false Equivalent.
#[test]
fn refutation_survives_dense_cutoffs() {
    let left = qft::qft_static(8, None, false);
    let right = qft::qft_static(8, Some(2), false); // banded approximation
    let baseline = run_pair_at_cutoff(&left, &right, 0);
    assert!(
        baseline
            .iter()
            .any(|r| r.verdict == Some(Equivalence::NotEquivalent)),
        "approximate QFT pair should be refuted"
    );
    assert_parity_across_cutoffs("qft8-approx", &left, &right);
}
