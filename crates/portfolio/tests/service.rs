//! Integration tests of the verification service core: admission control,
//! cancellation-on-disconnect and completed-request reports.

use algorithms::{qft, qpe};
use circuit::QuantumCircuit;
use portfolio::service::{RejectReason, Request, ServiceConfig, Source, VerificationService};
use std::time::Duration;

fn inline_request(left: &QuantumCircuit, right: &QuantumCircuit, name: &str) -> Request {
    Request {
        name: Some(name.to_string()),
        left: Source::Inline(circuit::qasm::to_qasm(left)),
        right: Source::Inline(circuit::qasm::to_qasm(right)),
        deadline: None,
        node_limit: None,
        width_hint: Some(left.num_qubits()),
    }
}

/// A heavy enough pair that a race cannot finish before the test cancels
/// it, but which unwinds quickly once the token trips: a 25-qubit QPE
/// against an IQPE of a phase with one bit flipped. The miter leaves the
/// identity at the first differing kick-back, and neither the functional
/// schedules nor the fixed-input extraction refute it within seconds.
fn heavy(name: &str) -> Request {
    let m = 24;
    let bits: Vec<bool> = (0..m).map(|i| i % 3 == 1).collect();
    let mut twin = bits.clone();
    twin[m / 2] = !twin[m / 2];
    inline_request(
        &qpe::qpe_static(qpe::phase_from_bits(&bits), m, true),
        &qpe::iqpe_dynamic(qpe::phase_from_bits(&twin), m),
        name,
    )
}

/// A light pair for tests that want completions, not longevity.
fn light(name: &str) -> Request {
    inline_request(&qft::qft_static(6, None, true), &qft::qft_dynamic(6), name)
}

fn config(workers: usize, max_queue: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        max_queue,
        ..ServiceConfig::default()
    }
}

#[test]
fn dropped_handle_cancels_the_inflight_race() {
    let service = VerificationService::start(config(1, 4));
    let handle = service.submit(heavy("disconnect")).unwrap();
    let token = handle.cancel_token().clone();
    // Give the worker a moment to dispatch so the cancel lands mid-race at
    // least some of the time (the queued-cancel path is tested separately).
    std::thread::sleep(Duration::from_millis(50));
    assert!(!token.is_cancelled());
    drop(handle); // client disconnects
    assert!(
        token.is_cancelled(),
        "dropping the handle must trip the token"
    );

    // The cancelled race must unwind promptly — not run to completion,
    // which for this QPE twin would take far longer than this timeout.
    assert!(
        service.wait_idle(Duration::from_secs(60)),
        "cancelled race did not unwind in time"
    );
    let stats = service.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.inflight, 0);
    service.drain();
}

#[test]
fn explicit_cancel_is_reported_in_the_outcome() {
    let service = VerificationService::start(config(1, 4));
    let handle = service.submit(heavy("cancel-me")).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    handle.cancel();
    let outcome = handle.wait();
    assert!(outcome.cancelled);
    assert!(
        !outcome.report.considered_equivalent,
        "a cancelled race must not claim equivalence"
    );
    service.drain();
}

#[test]
fn requests_cancelled_while_queued_never_dispatch() {
    let service = VerificationService::start(config(1, 4));
    // Occupy the single worker...
    let blocker = service.submit(heavy("blocker")).unwrap();
    // ...queue a second request and kill it before it can dispatch.
    let queued = service.submit(heavy("queued")).unwrap();
    let queued_token = queued.cancel_token().clone();
    drop(queued);
    assert!(queued_token.is_cancelled());
    blocker.cancel();
    let blocked_outcome = blocker.wait();
    assert!(blocked_outcome.cancelled);
    assert!(service.wait_idle(Duration::from_secs(60)));
    let stats = service.stats();
    assert_eq!(stats.completed, 2);
    service.drain();
}

#[test]
fn admission_control_rejects_when_saturated_and_after_drain() {
    let service = VerificationService::start(config(1, 0));
    let inflight = service.submit(heavy("occupant")).unwrap();
    // Capacity is workers + max_queue = 1: the next submit must bounce.
    let rejection = service.submit(light("overflow"));
    match rejection {
        Err(RejectReason::Saturated { capacity, .. }) => assert_eq!(capacity, 1),
        other => panic!("expected Saturated, got {other:?}"),
    }
    assert_eq!(service.stats().rejected, 1);

    inflight.cancel();
    let _ = inflight.wait();
    service.drain();
    match service.submit(light("late")) {
        Err(RejectReason::Draining) => {}
        other => panic!("expected Draining, got {other:?}"),
    }
}

#[test]
fn completed_requests_report_verdicts_and_metrics() {
    let service = VerificationService::start(config(1, 8));
    let first = service.submit(light("a")).unwrap().wait();
    assert!(first.report.considered_equivalent);
    assert!(!first.cancelled);
    let second = service.submit(light("b")).unwrap().wait();
    assert!(second.report.considered_equivalent);
    assert_eq!(service.stats().completed, 2);
    // The per-request metrics delta rides the outcome.
    assert!(second.metrics.get("counters").is_some());
    service.drain();
}
