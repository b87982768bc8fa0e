//! Portfolio speedup on QPE/IQPE instances.
//!
//! Compares the wall time of the parallel portfolio against each single
//! scheme run alone, on the paper's hardest family (phase estimation, static
//! vs. iterative-dynamic). The portfolio should track the fastest scheme per
//! instance — that is the whole point of racing them — while a fixed single
//! scheme is sometimes the slow one.
//!
//! The `portfolio_shared` group additionally races the shared
//! decision-diagram store against private per-scheme packages on the
//! QPE/IQPE miters and records the comparison (wall times, cross-thread hit
//! rates, peak nodes) in `BENCH_shared.json` at the repository root, so the
//! shared-package perf trajectory is tracked over time.

use bench::{build_instance, min_wall_time, Family};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dd::Budget;
use portfolio::{run_scheme, verify_portfolio, PortfolioConfig, Scheme};
use qcec::Strategy;

fn bench_portfolio_vs_single_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio");
    group.sample_size(10);
    for n in [7usize, 9, 11] {
        let instance = build_instance(Family::Qpe, n);
        let static_circuit = &instance.static_circuit;
        let dynamic_circuit = &instance.dynamic_circuit;
        let config = PortfolioConfig::default();

        group.bench_with_input(BenchmarkId::new("race", n), &n, |b, _| {
            b.iter(|| verify_portfolio(static_circuit, dynamic_circuit, &config))
        });
        for scheme in [
            Scheme::DynamicFunctional(Strategy::Proportional),
            Scheme::DynamicFunctional(Strategy::Aligned),
            Scheme::FixedInput,
        ] {
            group.bench_with_input(BenchmarkId::new(scheme.name(), n), &n, |b, _| {
                b.iter(|| {
                    run_scheme(
                        scheme,
                        static_circuit,
                        dynamic_circuit,
                        &config,
                        &Budget::unlimited(),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_batch_throughput(c: &mut Criterion) {
    // Pair-level fan-out: a three-pair QPE workload raced concurrently, the
    // shape the batch driver produces (file I/O excluded — circuits are
    // prebuilt).
    let mut group = c.benchmark_group("portfolio_batch");
    group.sample_size(10);
    let instances: Vec<_> = [7usize, 8, 9]
        .iter()
        .map(|&n| build_instance(Family::Qpe, n))
        .collect();
    let config = PortfolioConfig::default();
    group.bench_with_input(BenchmarkId::new("qpe_three_pairs", "7-9"), &(), |b, _| {
        b.iter(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = instances
                    .iter()
                    .map(|instance| {
                        let config = &config;
                        scope.spawn(move || {
                            verify_portfolio(
                                &instance.static_circuit,
                                &instance.dynamic_circuit,
                                config,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("portfolio worker panicked"))
                    .collect::<Vec<_>>()
            })
        })
    });
    group.finish();
}

/// Mirrors the vendored criterion's CLI filter for the *bodies* of benches
/// with side effects (instrumented comparison runs, `BENCH_*.json` writes):
/// criterion only filters the registered timing loops, so without this a
/// `cargo bench --bench portfolio -- portfolio_batch` run would still
/// execute the shared-vs-private comparison and rewrite its checked-in
/// JSON with timing noise.
fn group_selected(name: &str) -> bool {
    match std::env::args().skip(1).find(|arg| !arg.starts_with('-')) {
        Some(filter) => name.contains(filter.as_str()),
        None => true,
    }
}

fn bench_shared_vs_private(c: &mut Criterion) {
    if !group_selected("portfolio_shared") {
        return;
    }
    let mut rows = Vec::new();
    for (family, n) in [
        (Family::Qpe, 7usize),
        (Family::Qpe, 9),
        (Family::Qpe, 11),
        (Family::Qft, 12),
    ] {
        let instance = build_instance(family, n);
        let static_circuit = &instance.static_circuit;
        let dynamic_circuit = &instance.dynamic_circuit;
        // Explicit schemes force the threaded racing path even for the
        // smallest instance (the sequential fast path never shares).
        let schemes = portfolio::applicable_schemes(static_circuit, dynamic_circuit);
        let shared_config = PortfolioConfig {
            schemes: schemes.clone(),
            ..PortfolioConfig::default()
        };
        let private_config = PortfolioConfig {
            schemes,
            shared_package: false,
            ..PortfolioConfig::default()
        };

        // One instrumented run for the sharing telemetry, then timed runs.
        let instrumented = verify_portfolio(static_circuit, dynamic_circuit, &shared_config);
        let store = instrumented
            .shared_store
            .expect("non-tiny race uses the shared store");
        let shared_secs = min_wall_time(7, || {
            verify_portfolio(static_circuit, dynamic_circuit, &shared_config)
        })
        .as_secs_f64();
        let private_secs = min_wall_time(7, || {
            verify_portfolio(static_circuit, dynamic_circuit, &private_config)
        })
        .as_secs_f64();
        let family_name = instance.family.name();
        println!(
            "portfolio_shared/{family_name}/{n}: shared {shared_secs:.3}s vs private \
             {private_secs:.3}s ({:.2}x), cross-thread hit rate {:.1}%, peak {} nodes, \
             contention {:.6}s, winner {}",
            private_secs / shared_secs,
            100.0 * store.cross_thread_hit_rate,
            store.peak_nodes,
            store.shard_contention_seconds,
            instrumented.winner.map(|s| s.name()).unwrap_or("-"),
        );
        rows.push(format!(
            "    {{ \"family\": \"{family_name}\", \"n\": {n}, \"shared_secs\": \
             {shared_secs:.6}, \"private_secs\": {private_secs:.6}, \"speedup\": {:.4}, \
             \"cross_thread_hit_rate\": {:.6}, \"cross_thread_hits\": {}, \
             \"shared_peak_nodes\": {}, \"shared_allocated_nodes\": {}, \
             \"shard_contention_seconds\": {:.6}, \"winner\": \"{}\" }}",
            private_secs / shared_secs,
            store.cross_thread_hit_rate,
            store.cross_thread_hits,
            store.peak_nodes,
            store.allocated_nodes,
            store.shard_contention_seconds,
            instrumented.winner.map(|s| s.name()).unwrap_or("-"),
        ));
    }

    let json = bench::emit::envelope(
        "portfolio_shared",
        "shared-store vs private-package portfolio races on QPE/IQPE and QFT miters (min of 7 \
         runs)",
        &[
            "small n: four instances, min-of-7 wall times on one machine — \
             treat speedups within ~1.3x of parity as noise, not signal",
            "one invocation: back-to-back invocations move these sub-millisecond rows by 2x \
             or more, so compare ranges over several invocations, not one file",
            "cross_thread_hit_rate counts canonical-store hits only; compute-table reuse is \
             invisible here, so low rates do not mean no sharing",
            "shared_peak_nodes is the peak of the race's own store, which holds every racing \
             scheme's structure at once: it is not one scheme's miter size",
            "the hit rate, hit count, node counts and contention come from the single \
             instrumented run, not the timed min-of-7 — a different winner, or losers \
             cancelled at a different point, moves them",
        ],
        &[("instances", format!("[\n{}\n  ]", rows.join(",\n")))],
    );
    bench::emit::write_artifact("BENCH_shared.json", &json);

    // Criterion timings for the grep-friendly log (smaller sample budget:
    // the explicit min-of-7 above is the recorded comparison).
    let mut group = c.benchmark_group("portfolio_shared");
    group.sample_size(10);
    for n in [7usize, 9] {
        let instance = build_instance(Family::Qpe, n);
        let static_circuit = &instance.static_circuit;
        let dynamic_circuit = &instance.dynamic_circuit;
        let schemes = portfolio::applicable_schemes(static_circuit, dynamic_circuit);
        let shared_config = PortfolioConfig {
            schemes: schemes.clone(),
            ..PortfolioConfig::default()
        };
        let private_config = PortfolioConfig {
            schemes,
            shared_package: false,
            ..PortfolioConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("shared", n), &n, |b, _| {
            b.iter(|| verify_portfolio(static_circuit, dynamic_circuit, &shared_config))
        });
        group.bench_with_input(BenchmarkId::new("private", n), &n, |b, _| {
            b.iter(|| verify_portfolio(static_circuit, dynamic_circuit, &private_config))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_portfolio_vs_single_schemes,
    bench_batch_throughput,
    bench_shared_vs_private
);
criterion_main!(benches);
