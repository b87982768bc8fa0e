//! Integration tests of incremental (pass-by-pass) chain verification:
//! blame localisation, chain-vs-endpoint verdict parity and back-to-back
//! same-width requests on one worker.

use compile::{Compiler, CompilerOptions, Target};
use portfolio::batch::{run_batch, BatchOptions, Manifest, PairSpec};
use portfolio::service::{ServiceConfig, Source, VerificationService};
use portfolio::{ChainRequest, ChainSpec, ChainStep, ChainStepSpec, PortfolioConfig};
use qcec::Equivalence;

/// A staged line-routed QFT compilation: original plus four pass outputs.
fn staged_qft(n: usize) -> Vec<(String, circuit::QuantumCircuit)> {
    let original = algorithms::qft::qft_static(n, None, true);
    let compiler = Compiler::with_options(Target::line(n), CompilerOptions::default());
    let staged = compiler.compile_staged(&original).expect("QFT compiles");
    staged
        .chain()
        .into_iter()
        .map(|(pass, circuit)| (pass.to_string(), circuit.clone()))
        .collect()
}

fn inline_chain_request(name: &str, chain: &[(String, circuit::QuantumCircuit)]) -> ChainRequest {
    ChainRequest {
        name: Some(name.to_string()),
        steps: chain
            .iter()
            .map(|(pass, circuit)| ChainStep {
                pass: Some(pass.clone()),
                source: Source::Inline(circuit::qasm::to_qasm(circuit)),
            })
            .collect(),
        deadline: None,
        node_limit: None,
        width_hint: chain.iter().map(|(_, c)| c.num_qubits()).max(),
    }
}

#[test]
fn broken_middle_pass_is_blamed_by_name() {
    // Bernstein–Vazirani: the measured outcome is the deterministic hidden
    // string, so a single bit flip before measurement is visible to every
    // scheme (for QFT-like families a mid-circuit X permutes a *uniform*
    // distribution and the fixed-input scheme could not see it).
    let hidden = [true, false, true, true, false];
    let original = algorithms::bv::bv_static(&hidden, true);
    let n = original.num_qubits();
    let compiler = Compiler::with_options(Target::line(n), CompilerOptions::default());
    let staged = compiler.compile_staged(&original).expect("BV compiles");
    let mut chain: Vec<(String, circuit::QuantumCircuit)> = staged
        .chain()
        .into_iter()
        .map(|(pass, circuit)| (pass.to_string(), circuit.clone()))
        .collect();
    assert!(chain.len() >= 4, "staged compilation has ≥3 passes");
    // Corrupt the *route* snapshot: flip the first measured qubit right
    // before its measurement, so the basis→route step is the first
    // non-equivalent adjacent pair.
    let route = chain
        .iter_mut()
        .find(|(pass, _)| pass == "route")
        .expect("route pass exists");
    let mut corrupted = circuit::QuantumCircuit::new(route.1.num_qubits(), route.1.num_bits());
    let mut injected = false;
    for op in route.1.iter() {
        if !injected {
            if let circuit::OpKind::Measure { qubit, .. } = op.kind {
                corrupted.x(qubit);
                injected = true;
            }
        }
        corrupted.push(op.clone());
    }
    assert!(injected, "routed BV circuit measures");
    route.1 = corrupted;

    let service = VerificationService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let outcome = service
        .submit_chain(inline_chain_request("broken-route", &chain))
        .expect("chain admitted")
        .wait();
    let report = &outcome.report;
    assert_eq!(report.verdict, Equivalence::NotEquivalent);
    assert!(!report.considered_equivalent);
    assert_eq!(
        report.guilty_pass.as_deref(),
        Some("route"),
        "the first broken adjacent pair names its pass: {report:?}"
    );
    // The chain stopped at the refutation instead of wasting work on the
    // remaining steps.
    assert!(report.steps_verified < report.steps_total);
    let guilty_step = report
        .steps
        .iter()
        .find(|step| step.pass == "route")
        .expect("guilty step reported");
    assert_eq!(guilty_step.report.verdict, Equivalence::NotEquivalent);
    service.drain();
}

#[test]
fn unbroken_chain_matches_endpoint_verdict() {
    // The same staged pipeline verified three ways: pass-by-pass as a
    // chain, endpoint-only as a pair, and endpoint-only with private
    // per-scheme packages. All must agree that compilation preserved the
    // function.
    let chain = staged_qft(6);
    let dir = std::env::temp_dir().join(format!("chain-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let mut steps = Vec::new();
    for (index, (pass, circuit)) in chain.iter().enumerate() {
        let path = dir.join(format!("qft6.{index}-{pass}.qasm"));
        std::fs::write(&path, circuit::qasm::to_qasm(circuit)).unwrap();
        steps.push(ChainStepSpec {
            pass: Some(pass.clone()),
            path: path.to_string_lossy().into_owned(),
        });
    }
    let manifest = Manifest {
        pairs: vec![PairSpec {
            name: Some("qft6-endpoint".into()),
            left: steps.first().unwrap().path.clone(),
            right: steps.last().unwrap().path.clone(),
            qubits: Some(6),
        }],
        chains: Some(vec![ChainSpec {
            name: Some("qft6".into()),
            qubits: Some(6),
            steps,
        }]),
    };

    for shared_package in [true, false] {
        let options = BatchOptions {
            workers: 1,
            portfolio: PortfolioConfig {
                shared_package,
                ..PortfolioConfig::default()
            },
            ..BatchOptions::default()
        };
        let report = run_batch(&manifest, &options);
        assert_eq!(report.chains_total, 1);
        assert_eq!(report.pairs_total, 1);
        let chain_report = &report.chains[0];
        let pair_report = &report.pairs[0];
        assert_eq!(
            chain_report.considered_equivalent, pair_report.considered_equivalent,
            "chain and endpoint verdicts disagree (shared_package={shared_package}): \
             {chain_report:?} vs {pair_report:?}"
        );
        assert!(chain_report.considered_equivalent);
        assert!(chain_report.guilty_pass.is_none());
        assert_eq!(chain_report.steps_verified, chain_report.steps_total);
        assert!(report.pairs_per_sec > 0.0, "throughput metric missing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_same_width_requests_verify_back_to_back() {
    // Three same-width requests on one worker: while one runs, the next
    // waits in the queue. Each must verify on its own, whatever ran before.
    let chain = staged_qft(5);
    let (_, original) = &chain[0];
    let (_, compiled) = chain.last().unwrap();
    let service = VerificationService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let request = || portfolio::service::Request {
        name: None,
        left: Source::Inline(circuit::qasm::to_qasm(original)),
        right: Source::Inline(circuit::qasm::to_qasm(compiled)),
        deadline: None,
        node_limit: None,
        width_hint: Some(original.num_qubits()),
    };
    let handles: Vec<_> = (0..3)
        .map(|_| service.submit(request()).expect("admitted"))
        .collect();
    for handle in handles {
        assert!(handle.wait().report.considered_equivalent);
    }
    assert_eq!(service.stats().completed, 3);
    service.drain();
}
