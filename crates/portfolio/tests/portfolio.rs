//! Integration tests of the portfolio engine and the batch driver.

use algorithms::{bv, ghz, qft, qpe};
use portfolio::batch::{manifest_from_dir, run_batch, BatchOptions, Manifest, PairSpec};
use portfolio::{applicable_schemes, verify_portfolio, PortfolioConfig, Scheme};
use qcec::{Equivalence, Strategy};
use std::path::PathBuf;

fn paper_qpe_pair() -> (circuit::QuantumCircuit, circuit::QuantumCircuit) {
    let phi = 3.0 * std::f64::consts::PI / 8.0;
    (qpe::qpe_static(phi, 3, true), qpe::iqpe_dynamic(phi, 3))
}

#[test]
fn equivalent_dynamic_pair_verifies_regardless_of_winner() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    for _ in 0..4 {
        let result = verify_portfolio(&static_qpe, &iqpe, &PortfolioConfig::default());
        assert!(
            result.verdict.considered_equivalent(),
            "verdict {:?} via {:?}",
            result.verdict,
            result.winner
        );
        assert!(result.winner.is_some());
        // The tiny-instance fast path stops at the first conclusive scheme.
        assert!(!result.schemes.is_empty() && result.schemes.len() <= 4);
        // Whatever scheme won, the verdict must be a conclusive one.
        assert!(matches!(
            result.verdict,
            Equivalence::Equivalent | Equivalence::EquivalentUpToGlobalPhase
        ));
    }
}

#[test]
fn winning_scheme_reports_memory_telemetry() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let result = verify_portfolio(&static_qpe, &iqpe, &PortfolioConfig::default());
    let winner = result.winner.expect("paper pair verifies");
    let report = result
        .schemes
        .iter()
        .find(|r| r.scheme == winner)
        .expect("winner has a report");
    assert!(report.gc_runs.is_some(), "winner should carry GC telemetry");
    let rate = report
        .cache_hit_rate
        .expect("winner should carry a compute-table hit rate");
    assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
}

#[test]
fn expired_deadline_stops_every_scheme() {
    // An already-expired deadline must not crash the race: every scheme
    // stops inside decision-diagram allocation and reports the deadline as
    // its failure, leaving no verdict.
    let n = 10;
    let config = PortfolioConfig {
        deadline: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let left = qft::qft_static(n, None, true);
    let right = qft::qft_dynamic(n);
    let started = std::time::Instant::now();
    let result = verify_portfolio(&left, &right, &config);
    assert_eq!(result.verdict, Equivalence::NoInformation);
    assert!(result.schemes.iter().all(|r| r.verdict.is_none()));
    assert!(result
        .schemes
        .iter()
        .any(|r| r.error.as_deref().is_some_and(|e| e.contains("deadline"))));
    assert!(started.elapsed() < std::time::Duration::from_secs(10));
}

#[test]
fn non_equivalent_pair_is_refuted() {
    let static_bv = bv::bv_static(&[true, false, true], true);
    let dynamic_bv = bv::bv_dynamic(&[true, true, true]);
    let result = verify_portfolio(&static_bv, &dynamic_bv, &PortfolioConfig::default());
    assert_eq!(result.verdict, Equivalence::NotEquivalent);
    assert!(result.winner.is_some());
}

#[test]
fn global_phase_pair_is_detected_on_static_portfolio() {
    let mut left = circuit::QuantumCircuit::new(1, 0);
    left.rz(0.9, 0);
    let mut right = circuit::QuantumCircuit::new(1, 0);
    right.p(0.9, 0);
    let result = verify_portfolio(&left, &right, &PortfolioConfig::default());
    assert_eq!(result.verdict, Equivalence::EquivalentUpToGlobalPhase);
    assert!(matches!(result.winner, Some(Scheme::Functional(_))));
}

#[test]
fn scheme_selection_follows_circuit_kind() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let dynamic_schemes = applicable_schemes(&static_qpe, &iqpe);
    assert!(dynamic_schemes.contains(&Scheme::FixedInput));
    assert!(dynamic_schemes
        .iter()
        .all(|s| !matches!(s, Scheme::Functional(_) | Scheme::Simulative)));

    let a = ghz::ghz(3, false);
    let static_schemes = applicable_schemes(&a, &a);
    assert!(static_schemes.contains(&Scheme::Simulative));
    assert!(static_schemes.contains(&Scheme::Functional(Strategy::Proportional)));
}

#[test]
fn losing_schemes_are_cancelled_instead_of_running_to_completion() {
    // Dynamic QFT at n = 16: the aligned reconstruction schedule pairs
    // every gate with its twin and decides in milliseconds, far ahead of
    // the 2^16-leaf extraction and the drifting proportional and reference
    // miters, so the portfolio should crown it and cancel those mid-run.
    let n = 16;
    let static_qft = qft::qft_static(n, None, true);
    let dynamic_qft = qft::qft_dynamic(n);
    let result = verify_portfolio(&static_qft, &dynamic_qft, &PortfolioConfig::default());
    assert!(result.verdict.considered_equivalent());
    assert!(result.winner.is_some());
    let cancelled: Vec<_> = result.schemes.iter().filter(|s| s.cancelled).collect();
    assert!(
        !cancelled.is_empty(),
        "expected at least one cancelled loser, got {:#?}",
        result.schemes
    );
    for loser in &cancelled {
        assert!(loser.verdict.is_none());
        assert!(loser.error.is_none());
    }
    // Losers unwind promptly: the whole race ends close to the winner's
    // finish, far below the sequential sum of all four schemes.
    assert!(
        result.total_time < result.time_to_verdict * 3 + std::time::Duration::from_secs(1),
        "losers kept running: total {:?} vs verdict at {:?}",
        result.total_time,
        result.time_to_verdict
    );
}

#[test]
fn deliberately_slow_scheme_exits_early_on_cancellation() {
    // Run the extraction of a 2^18-leaf dense distribution alone — tens of
    // seconds if left to finish — and cancel it from a watchdog thread
    // after 100 ms. The scheme must exit early and flag the cancellation.
    let n = 18;
    let static_qft = qft::qft_static(n, None, true);
    let dynamic_qft = qft::qft_dynamic(n);
    let config = PortfolioConfig::default();
    let budget = qcec::Budget::unlimited();
    let token = budget.cancel_token().clone();
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(100));
        token.cancel();
    });
    let started = std::time::Instant::now();
    let report = portfolio::run_scheme(
        Scheme::FixedInput,
        &static_qft,
        &dynamic_qft,
        &config,
        &budget,
    );
    watchdog.join().unwrap();
    assert!(report.cancelled, "expected cancellation, got {report:?}");
    assert!(report.verdict.is_none());
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "cancelled extraction still took {:?}",
        started.elapsed()
    );
}

#[test]
fn portfolio_verdict_matches_single_schemes_on_the_paper_example() {
    // Acceptance criterion: the portfolio agrees with every single scheme on
    // the 3-bit IQPE-vs-QPE pair, and its wall time tracks the fastest
    // scheme (generous 10x bound to stay robust on loaded CI machines —
    // the sequential sum of all schemes is what it must *not* approach).
    let (static_qpe, iqpe) = paper_qpe_pair();
    let config = PortfolioConfig::default();
    let portfolio = verify_portfolio(&static_qpe, &iqpe, &config);

    let functional =
        qcec::verify_dynamic_functional(&static_qpe, &iqpe, &config.configuration).unwrap();
    let fixed = qcec::verify_fixed_input(
        &static_qpe,
        &iqpe,
        &config.configuration,
        &config.extraction,
    )
    .unwrap();
    assert_eq!(
        portfolio.verdict.considered_equivalent(),
        functional.equivalence.considered_equivalent()
    );
    assert_eq!(
        portfolio.verdict.considered_equivalent(),
        fixed.equivalence.considered_equivalent()
    );

    let fastest = portfolio
        .schemes
        .iter()
        .filter(|s| s.verdict.is_some())
        .map(|s| s.duration)
        .min()
        .expect("at least one scheme finished");
    assert!(
        portfolio.time_to_verdict <= fastest * 10 + std::time::Duration::from_millis(250),
        "time to verdict {:?} vs fastest scheme {:?}",
        portfolio.time_to_verdict,
        fastest
    );
}

#[test]
fn functional_refutation_outranks_fixed_input_equivalence() {
    // ghz vs. ghz_log_depth (measured, 10 qubits → non-tiny race path):
    // identical all-zeros-input distribution but different unitaries. The
    // fixed-input scheme says Equivalent, the functional schemes say
    // NotEquivalent. Whichever wins the race, the invariant is: if any
    // functional scheme finished with a refutation, the refutation is the
    // final verdict — the weaker fixed-input claim never overrides it.
    for _ in 0..8 {
        let left = ghz::ghz(10, true);
        let right = ghz::ghz_log_depth(10, true);
        let result = verify_portfolio(&left, &right, &PortfolioConfig::default());
        let functional_refuted = result.schemes.iter().any(|r| {
            r.scheme != Scheme::FixedInput && r.verdict == Some(Equivalence::NotEquivalent)
        });
        if functional_refuted {
            assert_eq!(
                result.verdict,
                Equivalence::NotEquivalent,
                "fixed-input equivalence overrode a functional refutation: {:#?}",
                result.schemes
            );
        } else {
            // Only the fixed-input scheme finished: its (weaker, documented)
            // verdict stands.
            assert_eq!(result.winner, Some(Scheme::FixedInput));
            assert_eq!(result.verdict, Equivalence::Equivalent);
        }
    }
}

#[test]
fn shared_store_race_matches_private_packages() {
    // Non-tiny dynamic pair → threaded racing path. The shared-store race
    // (default) and the private-package race must agree on the verdict; only
    // the shared race carries store telemetry.
    let n = 10;
    let left = qft::qft_static(n, None, true);
    let right = qft::qft_dynamic(n);
    let shared = verify_portfolio(&left, &right, &PortfolioConfig::default());
    let private = verify_portfolio(
        &left,
        &right,
        &PortfolioConfig {
            shared_package: false,
            ..Default::default()
        },
    );
    assert!(shared.verdict.considered_equivalent());
    assert_eq!(
        shared.verdict.considered_equivalent(),
        private.verdict.considered_equivalent()
    );
    let store = shared.shared_store.expect("shared race reports its store");
    assert!(store.peak_nodes > 0);
    assert!(store.allocated_nodes > 0);
    assert!(private.shared_store.is_none());

    // The telemetry block is machine-readable with the documented fields
    // (this is the per-pair `shared_store` object of the batch JSON report).
    let json = serde_json::to_string(&store).unwrap();
    for field in [
        "shared_nodes",
        "peak_nodes",
        "allocated_nodes",
        "intern_hits",
        "cross_thread_hits",
        "cross_thread_hit_rate",
        "gc_runs",
        "complex_entries",
    ] {
        assert!(json.contains(field), "missing `{field}` in {json}");
    }
}

#[test]
fn racing_schemes_share_structure_across_threads() {
    // Two miter schedules over the same equivalent pair intern essentially
    // identical gate diagrams and subdiagrams: whichever thread is second to
    // any common node records a cross-thread hit, so the race must observe
    // sharing no matter how the schemes interleave or who wins.
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let config = PortfolioConfig {
        schemes: vec![
            Scheme::Functional(Strategy::Proportional),
            Scheme::Functional(Strategy::OneToOne),
        ],
        ..Default::default()
    };
    let result = verify_portfolio(&left, &right, &config);
    assert_eq!(result.verdict, Equivalence::Equivalent);
    let store = result.shared_store.expect("explicit schemes race threaded");
    assert!(
        store.cross_thread_hits > 0,
        "overlapping schemes should share canonical structure: {store:?}"
    );
    assert!(store.cross_thread_hit_rate > 0.0);
}

#[test]
fn explicit_scheme_list_is_respected() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let config = PortfolioConfig {
        schemes: vec![Scheme::FixedInput],
        ..Default::default()
    };
    let result = verify_portfolio(&static_qpe, &iqpe, &config);
    assert_eq!(result.schemes.len(), 1);
    assert_eq!(result.winner, Some(Scheme::FixedInput));
    assert_eq!(result.verdict, Equivalence::Equivalent);
}

#[test]
fn unregistered_scheme_is_reported_as_an_error_instead_of_panicking() {
    // `PortfolioConfig::schemes` is public, so a caller can name a scheme
    // the registry does not carry. It must come back as a failed report,
    // and the registered schemes of the same list still decide the pair.
    let (static_qpe, iqpe) = paper_qpe_pair();
    for (unregistered, name) in [
        (
            Scheme::DynamicFunctional(Strategy::OneToOne),
            "dynamic-functional(one-to-one)",
        ),
        (
            Scheme::Functional(Strategy::Reference),
            "functional(reference)",
        ),
        (
            Scheme::DynamicFunctional(Strategy::Reference),
            "dynamic-functional(reference)",
        ),
    ] {
        let alone = verify_portfolio(
            &static_qpe,
            &iqpe,
            &PortfolioConfig {
                schemes: vec![unregistered],
                ..Default::default()
            },
        );
        assert_eq!(alone.verdict, Equivalence::NoInformation, "{name}");
        assert_eq!(alone.winner, None, "{name}");
        let report = &alone.schemes[0];
        assert_eq!(report.scheme, unregistered);
        assert!(!report.cancelled && report.verdict.is_none(), "{name}");
        let error = report
            .error
            .as_deref()
            .expect("the missing entry is an error");
        assert!(error.contains("has no registry entry"), "{error}");
        assert!(error.contains(name), "{error}");

        let mixed = verify_portfolio(
            &static_qpe,
            &iqpe,
            &PortfolioConfig {
                schemes: vec![unregistered, Scheme::DynamicFunctional(Strategy::Aligned)],
                ..Default::default()
            },
        );
        assert_eq!(mixed.verdict, Equivalence::Equivalent, "{name}");
        assert_eq!(
            mixed.winner,
            Some(Scheme::DynamicFunctional(Strategy::Aligned)),
            "{name}"
        );
    }
}

// ---------------------------------------------------------------------------
// Batch driver
// ---------------------------------------------------------------------------

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("portfolio-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn batch_driver_reports_a_three_pair_manifest() {
    let dir = temp_dir("manifest");
    let (static_qpe, iqpe) = paper_qpe_pair();
    let pairs = [
        ("qpe_ok", static_qpe, iqpe),
        (
            "bv_bad",
            bv::bv_static(&[true, false, true], true),
            bv::bv_dynamic(&[false, false, true]),
        ),
        ("ghz_ok", ghz::ghz(4, true), ghz::ghz(4, true)),
    ];
    let mut manifest = Manifest {
        pairs: Vec::new(),
        chains: None,
    };
    for (name, left, right) in &pairs {
        let left_path = dir.join(format!("{name}.left.qasm"));
        let right_path = dir.join(format!("{name}.right.qasm"));
        std::fs::write(&left_path, circuit::qasm::to_qasm(left)).unwrap();
        std::fs::write(&right_path, circuit::qasm::to_qasm(right)).unwrap();
        manifest.pairs.push(PairSpec {
            name: Some(name.to_string()),
            left: left_path.to_string_lossy().into_owned(),
            right: right_path.to_string_lossy().into_owned(),
            qubits: None,
        });
    }

    let report = run_batch(&manifest, &BatchOptions::default());
    assert_eq!(report.pairs_total, 3);
    assert_eq!(report.pairs_equivalent, 2);
    assert_eq!(report.pairs_failed, 0);

    // The JSON report is machine-readable and names the winning scheme.
    let json = serde_json::to_string_pretty(&report).unwrap();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    let rendered_pairs = value.get("pairs").unwrap().as_array().unwrap();
    assert_eq!(rendered_pairs.len(), 3);
    for pair in rendered_pairs {
        assert!(pair.get("name").unwrap().as_str().is_some());
        assert!(pair.get("winner").is_some());
        assert!(pair.get("time_to_verdict").unwrap().as_f64().is_some());
        assert!(!pair.get("schemes").unwrap().as_array().unwrap().is_empty());
        // The shared_store block is always rendered: `null` for pairs that
        // took the sequential fast path, an object for threaded races.
        assert!(pair.get("shared_store").is_some());
    }
    let bv_pair = rendered_pairs
        .iter()
        .find(|p| p.get("name").unwrap().as_str() == Some("bv_bad"))
        .unwrap();
    assert_eq!(
        bv_pair.get("verdict").unwrap().as_str(),
        Some("NotEquivalent")
    );
    assert_eq!(
        bv_pair.get("considered_equivalent").unwrap().as_bool(),
        Some(false)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn directory_mode_pairs_files_by_stem() {
    let dir = temp_dir("dirmode");
    let a = ghz::ghz(3, true);
    std::fs::write(dir.join("ghz.left.qasm"), circuit::qasm::to_qasm(&a)).unwrap();
    std::fs::write(dir.join("ghz.right.qasm"), circuit::qasm::to_qasm(&a)).unwrap();
    let hidden = [true, true, false];
    std::fs::write(
        dir.join("bv_a.qasm"),
        circuit::qasm::to_qasm(&bv::bv_static(&hidden, true)),
    )
    .unwrap();
    std::fs::write(
        dir.join("bv_b.qasm"),
        circuit::qasm::to_qasm(&bv::bv_dynamic(&hidden)),
    )
    .unwrap();

    let manifest = manifest_from_dir(&dir).unwrap();
    assert_eq!(manifest.pairs.len(), 2);
    assert_eq!(manifest.pairs[0].name.as_deref(), Some("bv"));
    assert_eq!(manifest.pairs[1].name.as_deref(), Some("ghz"));

    let report = run_batch(&manifest, &BatchOptions::default());
    assert_eq!(report.pairs_equivalent, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_reports_unreadable_pairs_instead_of_dying() {
    let manifest = Manifest {
        pairs: vec![PairSpec {
            name: Some("missing".into()),
            left: "/nonexistent/left.qasm".into(),
            right: "/nonexistent/right.qasm".into(),
            qubits: None,
        }],
        chains: None,
    };
    let report = run_batch(&manifest, &BatchOptions::default());
    assert_eq!(report.pairs_total, 1);
    assert_eq!(report.pairs_failed, 1);
    assert!(report.pairs[0].error.is_some());
    assert_eq!(report.pairs[0].verdict, Equivalence::NoInformation);
}

#[test]
fn same_width_pairs_verify_independently_of_batch_history() {
    // Three 10-qubit pairs (threaded races on a shared store) through one
    // worker, so each races right after the one before it. Every race gets
    // a store of its own: each pair must get the verdict a one-shot
    // `verify_portfolio` gives it, and its store must hold nothing an
    // earlier pair built.
    let dir = temp_dir("history");
    let hidden: Vec<bool> = (0..9).map(|i| i % 3 != 1).collect();
    let mut flipped = hidden.clone();
    flipped[4] = !flipped[4];
    let pairs = [
        (
            "qft_a",
            qft::qft_static(10, None, true),
            qft::qft_dynamic(10),
        ),
        (
            "qft_b",
            qft::qft_static(10, None, true),
            qft::qft_dynamic(10),
        ),
        (
            "bv_bad",
            bv::bv_static(&hidden, true),
            bv::bv_dynamic(&flipped),
        ),
    ];
    let mut manifest = Manifest {
        pairs: Vec::new(),
        chains: None,
    };
    for (name, left, right) in &pairs {
        let left_path = dir.join(format!("{name}.left.qasm"));
        let right_path = dir.join(format!("{name}.right.qasm"));
        std::fs::write(&left_path, circuit::qasm::to_qasm(left)).unwrap();
        std::fs::write(&right_path, circuit::qasm::to_qasm(right)).unwrap();
        manifest.pairs.push(PairSpec {
            name: Some(name.to_string()),
            left: left_path.to_string_lossy().into_owned(),
            right: right_path.to_string_lossy().into_owned(),
            qubits: Some(10),
        });
    }

    let options = BatchOptions {
        workers: 1,
        ..BatchOptions::default()
    };
    let report = run_batch(&manifest, &options);
    assert_eq!(report.pairs_total, 3);
    assert_eq!(report.pairs_equivalent, 2);
    for ((name, left, right), pair) in pairs.iter().zip(&report.pairs) {
        let one_shot = verify_portfolio(left, right, &PortfolioConfig::default());
        assert_eq!(
            pair.verdict, one_shot.verdict,
            "{name}: the batch verdict differs from the one-shot verdict"
        );
        let store = pair
            .shared_store
            .as_ref()
            .expect("10-qubit pairs race on a shared store");
        assert_eq!(
            store.warm_hits, 0,
            "{name} reused structure from an earlier pair: {store:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_schemes_report_a_finite_cross_thread_hit_rate() {
    use dd::{Budget, CancelToken, SharedStore};
    // A scheme cancelled before its first canonical lookup used to divide
    // 0 hits by 0 lookups; on a shared store the report must say 0.0 (the
    // vendored JSON writer rejects NaN and a null would read as "private").
    let (static_qpe, iqpe) = paper_qpe_pair();
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel_token(token);
    let store = SharedStore::new();
    let report = portfolio::run_scheme_in(
        Scheme::DynamicFunctional(Strategy::Proportional),
        &static_qpe,
        &iqpe,
        &PortfolioConfig::default(),
        &budget,
        Some(&store),
    );
    assert!(report.cancelled);
    assert_eq!(
        report.cross_thread_hit_rate,
        Some(0.0),
        "shared-store schemes must always report a finite rate"
    );
    let json = serde_json::to_string(&report).unwrap();
    assert!(
        json.contains("\"cross_thread_hit_rate\":0"),
        "rate must render as a number: {json}"
    );
}
