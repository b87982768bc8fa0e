//! Known answers per scheme: every applicable registered scheme, run on its
//! own through [`run_scheme`], must finish without error and reach the
//! pair's known verdict. The portfolio race only reports the winner, so a
//! scheme that errors or answers wrongly behind a faster rival would go
//! unseen there.

use algorithms::{qft, qpe};
use circuit::QuantumCircuit;
use dd::Budget;
use portfolio::{applicable_schemes, run_scheme, PortfolioConfig, Scheme};
use qcec::{Equivalence, Strategy};

/// The verdict `scheme` must reach on an equivalent pair: a proof, except
/// for random-stimulus simulation, which can only gain confidence.
fn verdict_on_equivalent_pair(scheme: Scheme) -> Equivalence {
    match scheme {
        Scheme::Simulative => Equivalence::ProbablyEquivalent,
        _ => Equivalence::Equivalent,
    }
}

/// Runs every applicable scheme on its own and returns its verdict.
fn verdicts(
    label: &str,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
) -> Vec<(Scheme, Equivalence)> {
    let config = PortfolioConfig::default();
    let schemes = applicable_schemes(left, right);
    assert!(!schemes.is_empty(), "{label}: no applicable schemes");
    schemes
        .into_iter()
        .map(|scheme| {
            let report = run_scheme(scheme, left, right, &config, &Budget::unlimited());
            assert!(
                report.error.is_none(),
                "{label}/{scheme} failed: {:?}",
                report.error
            );
            let verdict = report
                .verdict
                .unwrap_or_else(|| panic!("{label}/{scheme} finished without a verdict"));
            (scheme, verdict)
        })
        .collect()
}

fn assert_every_scheme_proves_equivalence(
    label: &str,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
) {
    for (scheme, verdict) in verdicts(label, left, right) {
        assert_eq!(
            verdict,
            verdict_on_equivalent_pair(scheme),
            "{label}/{scheme}: wrong verdict"
        );
    }
}

/// The static-pair schemes (three miter schedules + simulation) on a QFT-10
/// instance pair.
#[test]
fn qft10_static_schemes_reach_the_known_verdict() {
    let left = qft::qft_static(10, None, false);
    let right = qft::qft_static(10, None, false);
    let schemes = applicable_schemes(&left, &right);
    for strategy in [
        Strategy::Proportional,
        Strategy::Aligned,
        Strategy::OneToOne,
    ] {
        assert!(schemes.contains(&Scheme::Functional(strategy)));
    }
    assert!(schemes.contains(&Scheme::Simulative));
    assert_every_scheme_proves_equivalence("qft10-static", &left, &right);
}

/// The dynamic-pair schemes (proportional and aligned reconstruction + the
/// fixed-input extraction) on the QFT-10 static/dynamic pair.
#[test]
fn qft10_dynamic_schemes_reach_the_known_verdict() {
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let schemes = applicable_schemes(&left, &right);
    for strategy in [Strategy::Proportional, Strategy::Aligned] {
        assert!(schemes.contains(&Scheme::DynamicFunctional(strategy)));
    }
    assert!(schemes.contains(&Scheme::FixedInput));
    assert_every_scheme_proves_equivalence("qft10-dynamic", &left, &right);
}

/// Static-pair schemes on a QPE-7 instance (7 precision bits, exactly
/// representable phase so the verdict is a clean Equivalent).
#[test]
fn qpe7_static_schemes_reach_the_known_verdict() {
    let phi = qpe::random_exact_phase(7, 0xDAC2022);
    let left = qpe::qpe_static(phi, 7, false);
    let right = qpe::qpe_static(phi, 7, false);
    assert_every_scheme_proves_equivalence("qpe7-static", &left, &right);
}

/// Dynamic-pair schemes on the QPE-7 static/iterative pair.
#[test]
fn qpe7_dynamic_schemes_reach_the_known_verdict() {
    let phi = qpe::random_exact_phase(7, 0xDAC2022);
    let left = qpe::qpe_static(phi, 7, true);
    let right = qpe::iqpe_dynamic(phi, 7);
    assert_every_scheme_proves_equivalence("qpe7-dynamic", &left, &right);
}

/// A QFT-8 against its banded approximation: no scheme may call the pair
/// equivalent, and a functional scheme must refute it.
#[test]
fn banded_qft8_is_refuted_by_a_functional_scheme() {
    let left = qft::qft_static(8, None, false);
    let right = qft::qft_static(8, Some(2), false);
    let verdicts = verdicts("qft8-banded", &left, &right);
    for (scheme, verdict) in &verdicts {
        assert!(
            !verdict.considered_equivalent(),
            "qft8-banded/{scheme}: claimed {verdict:?}"
        );
    }
    assert!(
        verdicts.iter().any(|(scheme, verdict)| {
            matches!(scheme, Scheme::Functional(_)) && *verdict == Equivalence::NotEquivalent
        }),
        "no functional scheme refuted the banded pair: {verdicts:?}"
    );
}
