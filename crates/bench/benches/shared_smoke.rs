//! CI smoke guard for shared-package racing.
//!
//! On the tiny acceptance pair (the paper's 3-bit QPE/IQPE example, forced
//! onto the threaded racing path), the shared-store race must not be
//! meaningfully slower than racing private per-scheme packages.
//!
//! Sub-millisecond races are dominated by thread spawn and cancellation
//! latency, so the guard uses minima over several runs and constant slack:
//! it exists to catch *gross* regressions (a serialized store, a lock held
//! across a recursion), not to referee microsecond noise. The verdict
//! equality check guards correctness of the shared path at the same time.

use bench::{build_instance, min_wall_time, Family};
use criterion::{criterion_group, criterion_main, Criterion};
use portfolio::{applicable_schemes, verify_portfolio, PortfolioConfig};
use std::time::Duration;

fn shared_racing_smoke(_c: &mut Criterion) {
    let instance = build_instance(Family::Qpe, 3);
    let left = &instance.static_circuit;
    let right = &instance.dynamic_circuit;
    // Explicit schemes force the threaded racing path (the tiny-instance
    // fast path would otherwise run sequentially and never share).
    let schemes = applicable_schemes(left, right);
    let shared_config = PortfolioConfig {
        schemes: schemes.clone(),
        ..PortfolioConfig::default()
    };
    let private_config = PortfolioConfig {
        schemes,
        shared_package: false,
        ..PortfolioConfig::default()
    };

    let shared_verdict = verify_portfolio(left, right, &shared_config);
    let private_verdict = verify_portfolio(left, right, &private_config);
    assert_eq!(
        shared_verdict.verdict.considered_equivalent(),
        private_verdict.verdict.considered_equivalent(),
        "shared-store race changed the verdict"
    );
    assert!(
        shared_verdict.shared_store.is_some(),
        "forced race should report shared-store telemetry"
    );

    let runs = 7;
    let shared = min_wall_time(runs, || verify_portfolio(left, right, &shared_config));
    let private = min_wall_time(runs, || verify_portfolio(left, right, &private_config));
    println!(
        "shared_smoke/qpe3: shared {:.3}ms vs private {:.3}ms ({:.2}x)",
        shared.as_secs_f64() * 1e3,
        private.as_secs_f64() * 1e3,
        private.as_secs_f64() / shared.as_secs_f64(),
    );
    // 1.1x + constant slack: mirrored reads keep per-read lock traffic out
    // of the shared path, so even this sub-millisecond race is held to
    // near-parity (the 50ms floor still absorbs thread-spawn and scheduler
    // jitter on a loaded CI host).
    assert!(
        shared <= private + private / 10 + Duration::from_millis(50),
        "shared-store racing regressed vs private packages: \
         shared {shared:?} vs private {private:?} (lock contention?)"
    );
}

criterion_group!(benches, shared_racing_smoke);
criterion_main!(benches);
