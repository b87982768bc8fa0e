//! Integration tests of the scheduler's launch plan and of how the engine
//! executes it.

use algorithms::{ghz, qft, qpe};
use portfolio::scheduler::plan;
use portfolio::{verify_portfolio, PortfolioConfig, Scheme};
use qcec::Strategy;

fn paper_qpe_pair() -> (circuit::QuantumCircuit, circuit::QuantumCircuit) {
    let phi = 3.0 * std::f64::consts::PI / 8.0;
    (qpe::qpe_static(phi, 3, true), qpe::iqpe_dynamic(phi, 3))
}

#[test]
fn tiny_pairs_get_a_sequential_plan() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let tiny = plan(&static_qpe, &iqpe, &PortfolioConfig::default(), None);
    assert!(tiny.sequential);
    // Sequential rank order, not race order.
    assert_eq!(
        tiny.schemes,
        vec![
            Scheme::DynamicFunctional(Strategy::Proportional),
            Scheme::FixedInput,
            Scheme::DynamicFunctional(Strategy::Aligned),
        ]
    );
}

#[test]
fn threaded_plans_launch_every_applicable_scheme_in_race_order() {
    let config = PortfolioConfig::default();
    for (left, right, expected) in [
        (
            ghz::ghz(10, false),
            ghz::ghz(10, false),
            vec![
                Scheme::Functional(Strategy::Proportional),
                Scheme::Functional(Strategy::Aligned),
                Scheme::Functional(Strategy::OneToOne),
                Scheme::Simulative,
            ],
        ),
        (
            qft::qft_static(10, None, true),
            qft::qft_dynamic(10),
            vec![
                Scheme::FixedInput,
                Scheme::DynamicFunctional(Strategy::Proportional),
                Scheme::DynamicFunctional(Strategy::Aligned),
            ],
        ),
    ] {
        let threaded = plan(&left, &right, &config, None);
        assert!(!threaded.sequential);
        assert!(threaded.shared);
        assert_eq!(threaded.schemes, expected);
        assert_eq!(
            threaded.schemes,
            portfolio::applicable_schemes(&left, &right)
        );
        // The reference schedule is a `qcec` strategy, never a racer.
        assert!(threaded.schemes.iter().all(|scheme| !matches!(
            scheme,
            Scheme::Functional(Strategy::Reference)
                | Scheme::DynamicFunctional(Strategy::Reference)
        )));
    }
}

#[test]
fn sequential_plans_run_on_private_packages_and_threaded_races_share_a_store() {
    // The tiny sequential plan tries one scheme at a time on a private
    // package, so it must not claim to share whatever the config says.
    let (static_qpe, iqpe) = paper_qpe_pair();
    let config = PortfolioConfig::default();
    assert!(config.shared_package);
    assert!(!plan(&static_qpe, &iqpe, &config, None).shared);
    let tiny = verify_portfolio(&static_qpe, &iqpe, &config);
    assert!(tiny.verdict.considered_equivalent());
    assert!(!tiny.shared);
    assert!(tiny.shared_store.is_none());

    // A threaded race on the default config shares one store and reports it.
    let left = qft::qft_static(12, None, true);
    let right = qft::qft_dynamic(12);
    let race = verify_portfolio(&left, &right, &config);
    assert!(race.verdict.considered_equivalent());
    assert!(race.shared);
    assert!(race.shared_store.is_some());

    // Private packages: threaded, but no store.
    let private = verify_portfolio(
        &left,
        &right,
        &PortfolioConfig {
            shared_package: false,
            ..PortfolioConfig::default()
        },
    );
    assert!(!private.shared);
    assert!(private.shared_store.is_none());
}

#[test]
fn explicit_scheme_lists_bypass_the_scheduler() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let config = PortfolioConfig {
        schemes: vec![Scheme::DynamicFunctional(Strategy::Proportional)],
        ..Default::default()
    };
    let explicit = plan(&static_qpe, &iqpe, &config, None);
    assert!(!explicit.sequential);
    assert_eq!(
        explicit.schemes,
        vec![Scheme::DynamicFunctional(Strategy::Proportional)]
    );

    // And the engine still honours it end to end.
    let result = verify_portfolio(&static_qpe, &iqpe, &config);
    assert_eq!(result.schemes.len(), 1);
    assert!(result.verdict.considered_equivalent());
}
