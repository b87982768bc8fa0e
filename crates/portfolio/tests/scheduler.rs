//! Integration tests of the adaptive scheduler, the telemetry store and the
//! predicted launch path.

use algorithms::{ghz, qft, qpe};
use portfolio::scheduler::{plan, SchedulePolicy};
use portfolio::telemetry::{PairFeatures, SchemeStats, TelemetryStore};
use portfolio::{verify_portfolio, verify_portfolio_recorded, PortfolioConfig, Scheme};
use qcec::Strategy;
use std::sync::Mutex;
use std::time::Duration;

fn paper_qpe_pair() -> (circuit::QuantumCircuit, circuit::QuantumCircuit) {
    let phi = 3.0 * std::f64::consts::PI / 8.0;
    (qpe::qpe_static(phi, 3, true), qpe::iqpe_dynamic(phi, 3))
}

/// Seeds `store` so that `winner` looks like a fast, reliable winner for the
/// bucket of (`left`, `right`) while every other applicable scheme looks
/// slow and losing. `winner` may be a scheme the registry does not carry,
/// as in a stats file recorded before it was dropped.
fn seed_winner(
    store: &mut TelemetryStore,
    left: &circuit::QuantumCircuit,
    right: &circuit::QuantumCircuit,
    winner: Scheme,
) {
    let bucket = PairFeatures::extract(left, right).bucket();
    let loser = SchemeStats {
        launches: 10,
        total_secs: 5.0,
        ..Default::default()
    };
    for scheme in portfolio::applicable_schemes(left, right) {
        store
            .schemes
            .insert(TelemetryStore::key(scheme, &bucket), loser);
    }
    let stats = SchemeStats {
        wins: 10,
        conclusive: 10,
        win_secs: 0.1,
        peak_nodes_max: 1000,
        peak_nodes_sum: 9000,
        peak_samples: 10,
        ..loser
    };
    store
        .schemes
        .insert(TelemetryStore::key(winner, &bucket), stats);
    store.races += 10;
}

#[test]
fn predicted_top_k_ordering_is_deterministic_given_seeded_stats() {
    // Non-tiny static pair => threaded plan.
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::Simulative);
    let config = PortfolioConfig {
        policy: SchedulePolicy::Predicted {
            k: 2,
            escalate_after: Duration::from_secs(1),
        },
        ..Default::default()
    };
    for _ in 0..3 {
        let plan = plan(&left, &right, &config, Some(&store));
        assert!(plan.predicted);
        assert!(!plan.sequential);
        assert_eq!(plan.primary.len(), 2);
        // The seeded winner ranks first; the rest of the ranking is the
        // deterministic score/cost/rank tie-break. Every seeded loser has
        // identical stats, so the second slot goes to the cheapest by
        // static cost profile: the proportional miter schedule.
        assert_eq!(plan.primary[0].scheme, Scheme::Simulative);
        assert_eq!(
            plan.primary[1].scheme,
            Scheme::Functional(Strategy::Proportional)
        );
        // The reserve escalates in race order.
        assert_eq!(
            plan.reserve
                .iter()
                .map(|s| s.scheme)
                .collect::<Vec<Scheme>>(),
            vec![
                Scheme::Functional(Strategy::Aligned),
                Scheme::Functional(Strategy::OneToOne),
            ]
        );
        assert_eq!(plan.escalate_after, Some(Duration::from_secs(1)));
    }
}

#[test]
fn predicted_winner_carries_a_gc_hint_from_peak_telemetry() {
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::Simulative);
    let config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let plan = plan(&left, &right, &config, Some(&store));
    // peak_nodes_max = 1000 → doubled and rounded to a power of two is
    // 2048, clamped up to the 2^14 floor.
    assert_eq!(plan.primary[0].gc_hint, Some(1 << 14));
    // Losing schemes were seeded without peak samples: no hint.
    assert_eq!(plan.primary[1].gc_hint, None);
}

#[test]
fn stats_with_reference_keys_load_and_never_launch_them() {
    // Stats files recorded while the reference schedules were still raced
    // hold `functional(reference)@…` and `dynamic-functional(reference)@…`
    // keys. They must keep loading, and a predicted plan must never launch
    // an unregistered scheme, however well its recorded history scores.
    let dir = std::env::temp_dir().join(format!(
        "scheduler-test-reference-keys-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let pairs = [
        (
            ghz::ghz(10, false),
            ghz::ghz(10, false),
            Scheme::Functional(Strategy::Reference),
        ),
        (
            qft::qft_static(10, None, true),
            qft::qft_dynamic(10),
            Scheme::DynamicFunctional(Strategy::Reference),
        ),
    ];
    let mut recorded = TelemetryStore::new();
    for (left, right, reference) in &pairs {
        seed_winner(&mut recorded, left, right, *reference);
    }
    let path = dir.join("stats.json");
    recorded.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"functional(reference)@"), "{text}");
    assert!(text.contains("\"dynamic-functional(reference)@"), "{text}");
    let loaded = TelemetryStore::load(&path).expect("reference keys must still load");
    let _ = std::fs::remove_dir_all(&dir);

    let config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    for (left, right, reference) in &pairs {
        let plan = plan(left, right, &config, Some(&loaded));
        assert!(plan.predicted, "the bucket's stats must steer the plan");
        let launched: Vec<Scheme> = plan.all_schemes().map(|s| s.scheme).collect();
        assert!(
            !launched.contains(reference),
            "{reference} is unregistered but planned: {launched:?}"
        );
        assert_eq!(
            launched.len(),
            portfolio::applicable_schemes(left, right).len()
        );
    }
}

#[test]
fn empty_stats_degrade_predicted_to_exact_race_plan() {
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let race_config = PortfolioConfig::default();
    let predicted_config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let empty = TelemetryStore::new();
    let race_plan = plan(&left, &right, &race_config, None);
    for cold in [
        plan(&left, &right, &predicted_config, None),
        plan(&left, &right, &predicted_config, Some(&empty)),
    ] {
        assert_eq!(cold, race_plan, "cold predicted must plan exactly a race");
        assert!(!cold.predicted);
        assert!(cold.reserve.is_empty());
        assert_eq!(cold.escalate_after, None);
    }
    // And the race plan itself preserves the historical launch order.
    assert_eq!(
        race_plan
            .primary
            .iter()
            .map(|s| s.scheme)
            .collect::<Vec<Scheme>>(),
        vec![
            Scheme::FixedInput,
            Scheme::DynamicFunctional(Strategy::Proportional),
            Scheme::DynamicFunctional(Strategy::Aligned),
        ]
    );
}

#[test]
fn tiny_pairs_get_a_sequential_plan_under_both_policies() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let race_plan = plan(&static_qpe, &iqpe, &PortfolioConfig::default(), None);
    assert!(race_plan.sequential);
    assert_eq!(
        race_plan
            .primary
            .iter()
            .map(|s| s.scheme)
            .collect::<Vec<Scheme>>(),
        vec![
            Scheme::DynamicFunctional(Strategy::Proportional),
            Scheme::FixedInput,
            Scheme::DynamicFunctional(Strategy::Aligned),
        ]
    );

    // With stats, prediction reorders the sequential attempts but keeps the
    // sequential shape (no threads for a tiny pair).
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &static_qpe, &iqpe, Scheme::FixedInput);
    let predicted_config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let predicted_plan = plan(&static_qpe, &iqpe, &predicted_config, Some(&store));
    assert!(predicted_plan.sequential);
    assert!(predicted_plan.predicted);
    assert_eq!(predicted_plan.primary[0].scheme, Scheme::FixedInput);
    assert!(predicted_plan.reserve.is_empty());
}

#[test]
fn predicted_primary_wave_always_contains_a_proving_scheme() {
    // Seed the stats so the *simulative* check is the sole predicted winner
    // of a 10-qubit equivalent pair. Simulative agreement is advisory
    // (`ProbablyEquivalent`) — a primary wave of just the simulative check
    // could never settle the pair — so the scheduler must extend the wave
    // with the best proving scheme, and the run concludes without ever
    // escalating.
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::Simulative);
    let config = PortfolioConfig {
        policy: SchedulePolicy::Predicted {
            k: 1,
            escalate_after: Duration::from_secs(60),
        },
        ..Default::default()
    };
    let wave = plan(&left, &right, &config, Some(&store));
    assert_eq!(
        wave.primary.iter().map(|s| s.scheme).collect::<Vec<_>>(),
        vec![
            Scheme::Simulative,
            Scheme::Functional(Strategy::Proportional)
        ],
        "the wave must be extended with a proving scheme"
    );

    let telemetry = Mutex::new(store);
    let result = verify_portfolio_recorded(&left, &right, &config, Some(&telemetry));
    assert!(result.predicted);
    assert!(
        !result.escalated(),
        "the extended primary wave concludes without escalation: {:#?}",
        result.schemes
    );
    assert_eq!(result.verdict, qcec::Equivalence::Equivalent);
    assert!(matches!(result.winner, Some(Scheme::Functional(_))));
    assert_eq!(result.schemes.len(), 2, "only the primary wave launched");
}

#[test]
fn escalation_reaches_a_conclusive_verdict_when_the_prediction_errors() {
    // Seed the stats so the fixed-input extraction is the sole predicted
    // winner, then give the run a 1-leaf extraction budget: the predicted
    // scheme fails deterministically, the primary wave drains without a
    // verdict, and the engine must escalate to the reconstruction schemes
    // (which ignore the leaf budget) to still prove equivalence.
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::FixedInput);
    let config = PortfolioConfig {
        policy: SchedulePolicy::Predicted {
            k: 1,
            escalate_after: Duration::from_secs(60),
        },
        leaf_limit: Some(1),
        ..Default::default()
    };
    let telemetry = Mutex::new(store);
    let result = verify_portfolio_recorded(&left, &right, &config, Some(&telemetry));
    assert!(result.predicted);
    assert!(
        result.escalated(),
        "a failed primary wave must escalate: {:#?}",
        result.schemes
    );
    // The primary scheme failed fast (leaf budget), so the wave *drained*
    // inconclusive well before the 60s stall deadline — the recorded
    // reason must say so, not blame a stall.
    assert_eq!(
        result.escalation,
        Some(portfolio::EscalationReason::InconclusiveDrain),
        "a drained primary wave is an inconclusive-drain escalation"
    );
    assert!(result.verdict.considered_equivalent());
    assert!(matches!(result.winner, Some(Scheme::DynamicFunctional(_))));
    let fixed = result
        .schemes
        .iter()
        .find(|r| r.scheme == Scheme::FixedInput)
        .expect("the predicted scheme launched first");
    assert!(
        fixed.error.is_some(),
        "the leaf budget must trip: {fixed:?}"
    );
    assert!(
        result.schemes.len() > 1,
        "escalation launches the reserve wave"
    );
}

#[test]
fn stalled_primary_wave_escalates_on_the_deadline() {
    // A zero escalation deadline forces the stall path: whatever the
    // predicted scheme does, the reserve launches (almost) immediately and
    // the verdict must still be conclusive and correct.
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::FixedInput);
    let config = PortfolioConfig {
        policy: SchedulePolicy::Predicted {
            k: 1,
            escalate_after: Duration::ZERO,
        },
        ..Default::default()
    };
    let telemetry = Mutex::new(store);
    let result = verify_portfolio_recorded(&left, &right, &config, Some(&telemetry));
    assert!(result.predicted);
    assert!(
        result.verdict.considered_equivalent(),
        "verdict {:?} via {:?}",
        result.verdict,
        result.winner
    );
}

#[test]
fn predicted_matches_race_verdicts_and_launches_fewer_schemes() {
    // The acceptance pairs: the paper's 3-bit QPE/IQPE example and a
    // 10-qubit dynamic QFT. Race first (recording telemetry), then verify
    // again predictively: verdicts must match and the threaded pair must
    // launch strictly fewer schemes.
    let (static_qpe, iqpe) = paper_qpe_pair();
    let qft_left = qft::qft_static(10, None, true);
    let qft_right = qft::qft_dynamic(10);

    let telemetry = Mutex::new(TelemetryStore::new());
    let race_config = PortfolioConfig::default();
    let race_qpe = verify_portfolio_recorded(&static_qpe, &iqpe, &race_config, Some(&telemetry));
    let race_qft = verify_portfolio_recorded(&qft_left, &qft_right, &race_config, Some(&telemetry));
    assert!(!race_qpe.predicted && !race_qft.predicted);

    let predicted_config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let predicted_qpe =
        verify_portfolio_recorded(&static_qpe, &iqpe, &predicted_config, Some(&telemetry));
    let predicted_qft =
        verify_portfolio_recorded(&qft_left, &qft_right, &predicted_config, Some(&telemetry));

    assert_eq!(
        predicted_qpe.verdict.considered_equivalent(),
        race_qpe.verdict.considered_equivalent()
    );
    assert_eq!(
        predicted_qft.verdict.considered_equivalent(),
        race_qft.verdict.considered_equivalent()
    );
    assert!(predicted_qft.predicted, "warm stats must steer the plan");
    if !predicted_qft.escalated() {
        assert!(
            predicted_qft.schemes.len() < race_qft.schemes.len(),
            "prediction should launch fewer schemes: {} vs {}",
            predicted_qft.schemes.len(),
            race_qft.schemes.len()
        );
    }
}

#[test]
fn predicted_sharing_follows_recorded_payoff_with_identical_verdicts() {
    // Non-tiny equivalent pair => threaded plans, where the sharing
    // decision actually changes what the engine builds.
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let features = PairFeatures::extract(&left, &right);
    let predicted_config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };

    // Low recorded cross-thread hit rate (the small-miter signature from
    // BENCH_shared.json, ~0.07): prediction races on private packages.
    let mut low = TelemetryStore::new();
    seed_winner(&mut low, &left, &right, Scheme::Simulative);
    low.record_sharing(&features, 0.07, 0.001, 1.0);
    let low_plan = plan(&left, &right, &predicted_config, Some(&low));
    assert!(low_plan.predicted);
    assert!(!low_plan.shared, "a low-payoff bucket must race private");
    assert_eq!(low_plan.shared_reason, "predicted-private");

    // High recorded hit rate with modest contention: prediction shares.
    let mut high = TelemetryStore::new();
    seed_winner(&mut high, &left, &right, Scheme::Simulative);
    high.record_sharing(&features, 0.52, 0.02, 1.0);
    let high_plan = plan(&left, &right, &predicted_config, Some(&high));
    assert!(high_plan.shared, "a high-payoff bucket must share");
    assert_eq!(high_plan.shared_reason, "predicted-shared");

    // A good hit rate is vetoed when store locks ate the race time.
    let mut contended = TelemetryStore::new();
    seed_winner(&mut contended, &left, &right, Scheme::Simulative);
    contended.record_sharing(&features, 0.52, 0.9, 1.0);
    let contended_plan = plan(&left, &right, &predicted_config, Some(&contended));
    assert!(!contended_plan.shared, "contention must veto sharing");
    assert_eq!(contended_plan.shared_reason, "predicted-private");

    // Scheme stats without sharing samples keep the config default.
    let mut cold = TelemetryStore::new();
    seed_winner(&mut cold, &left, &right, Scheme::Simulative);
    let cold_plan = plan(&left, &right, &predicted_config, Some(&cold));
    assert!(cold_plan.shared);
    assert_eq!(cold_plan.shared_reason, "cold-telemetry");

    // The race policy never predicts: config default, "race-default".
    let race_plan = plan(&left, &right, &PortfolioConfig::default(), Some(&low));
    assert!(race_plan.shared);
    assert_eq!(race_plan.shared_reason, "race-default");

    // --private-packages is absolute: no prediction can turn sharing on.
    let private_config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        shared_package: false,
        ..Default::default()
    };
    let private_plan = plan(&left, &right, &private_config, Some(&high));
    assert!(!private_plan.shared);
    assert_eq!(private_plan.shared_reason, "config-private");

    // The acceptance half: whichever way the sharing prediction goes, the
    // verdict must be exactly the race policy's.
    let race_result = verify_portfolio(&left, &right, &PortfolioConfig::default());
    assert!(race_result.shared);
    assert_eq!(race_result.shared_reason, "race-default");
    for store in [low, high] {
        let telemetry = Mutex::new(store);
        let result = verify_portfolio_recorded(&left, &right, &predicted_config, Some(&telemetry));
        assert_eq!(result.verdict, race_result.verdict);
        assert_eq!(result.shared, result.shared_store.is_some());
    }
}

#[test]
fn stats_files_without_sharing_records_still_load() {
    // Stats files written before the sharing field existed have no
    // "sharing" key at all; the missing key deserializes as Null, which the
    // Option field must absorb into a cold (config-default) decision.
    let old_format = r#"{"races": 3, "schemes": []}"#;
    let store = TelemetryStore::from_json(old_format).expect("old stats files must keep loading");
    assert_eq!(store.races, 3);
    assert!(store.sharing.is_none());
    let bucket = PairFeatures {
        qubits: 10,
        gates: 10,
        non_unitary: 0,
        gate_set_diff: 0,
        gate_count_diff: 0,
        dynamic: false,
    }
    .bucket();
    assert!(store.sharing_stats(&bucket).is_none());

    // And a store that *has* sharing records round-trips them.
    let mut warm = TelemetryStore::new();
    let features = PairFeatures {
        qubits: 11,
        gates: 100,
        non_unitary: 0,
        gate_set_diff: 0,
        gate_count_diff: 0,
        dynamic: false,
    };
    warm.record_sharing(&features, 0.5, 0.01, 2.0);
    let reloaded = TelemetryStore::from_json(&warm.to_json()).expect("round trip");
    let stats = reloaded
        .sharing_stats(&features.bucket())
        .expect("sharing survives the round trip");
    assert_eq!(stats.races, 1);
    assert!((stats.mean_hit_rate() - 0.5).abs() < 1e-12);
    // Merging doubles the sharing counters like every other stat.
    let mut merged = reloaded.clone();
    merged.merge(&reloaded);
    assert_eq!(merged.sharing_stats(&features.bucket()).unwrap().races, 2);
}

#[test]
fn telemetry_round_trips_through_save_load_merge() {
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let telemetry = Mutex::new(TelemetryStore::new());
    let config = PortfolioConfig::default();
    verify_portfolio_recorded(&left, &right, &config, Some(&telemetry));
    let store = telemetry.into_inner().unwrap();
    assert!(!store.is_empty());
    assert_eq!(store.races, 1);

    let path = std::env::temp_dir().join(format!("scheduler-stats-{}.json", std::process::id()));
    store.save(&path).expect("save stats");
    let loaded = TelemetryStore::load(&path).expect("load stats");
    assert_eq!(loaded.races, store.races);
    assert_eq!(loaded.schemes.len(), store.schemes.len());
    for (key, stats) in &store.schemes {
        let reloaded = loaded.schemes.get(key).expect("key survives round trip");
        assert_eq!(reloaded.launches, stats.launches);
        assert_eq!(reloaded.wins, stats.wins);
        assert_eq!(reloaded.peak_nodes_max, stats.peak_nodes_max);
        assert!((reloaded.total_secs - stats.total_secs).abs() < 1e-9);
    }

    // Merging the store into itself doubles every counter.
    let mut merged = loaded.clone();
    merged.merge(&loaded);
    assert_eq!(merged.races, 2 * loaded.races);
    for (key, stats) in &merged.schemes {
        assert_eq!(stats.launches, 2 * loaded.schemes[key].launches);
    }

    // A missing file loads as an empty store (the cold-start contract).
    let _ = std::fs::remove_file(&path);
    let missing = TelemetryStore::load(&path).expect("missing file is not an error");
    assert!(missing.is_empty());
}

#[test]
fn explicit_scheme_lists_bypass_the_scheduler() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &static_qpe, &iqpe, Scheme::FixedInput);
    let config = PortfolioConfig {
        schemes: vec![Scheme::DynamicFunctional(Strategy::Proportional)],
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let explicit = plan(&static_qpe, &iqpe, &config, Some(&store));
    assert!(!explicit.predicted);
    assert!(!explicit.sequential);
    assert_eq!(explicit.primary.len(), 1);
    assert_eq!(
        explicit.primary[0].scheme,
        Scheme::DynamicFunctional(Strategy::Proportional)
    );

    // And the engine still honours it end to end.
    let result = verify_portfolio(&static_qpe, &iqpe, &config);
    assert_eq!(result.schemes.len(), 1);
    assert!(result.verdict.considered_equivalent());
}
