//! Soundness of the aligned schedule's syntactic rules against dense
//! unitaries.
//!
//! `Strategy::Aligned` decides two things without decision-diagram work:
//! which pending right gate may be applied out of order (commutation) and
//! which pair of gates cancels (twins). Both are checked here on random
//! circuits from `algorithms::random` (at most 6 qubits):
//!
//! * legal reorders — random swaps of adjacent gates that commute, and
//!   control/target exchanges of positive-control phase gates — must come
//!   out `Equivalent`;
//! * near-miss mutations a looser rule would accept must not: each is first
//!   confirmed different by the dense oracle, so no case passes vacuously.

use algorithms::random::random_unitary_circuit;
use circuit::{OpKind, Operation, QuantumCircuit, QuantumControl, StandardGate};
use qcec::{check_functional_equivalence, Configuration, Equivalence, Strategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Columns `U|j⟩` of a unitary circuit's matrix as `(re, im)` amplitudes,
/// built by plain dense linear algebra.
fn dense(circuit: &QuantumCircuit) -> Vec<Vec<(f64, f64)>> {
    let dim = 1usize << circuit.num_qubits();
    (0..dim)
        .map(|column| {
            let mut state = vec![(0.0, 0.0); dim];
            state[column] = (1.0, 0.0);
            for op in circuit.ops() {
                let OpKind::Unitary {
                    gate,
                    target,
                    controls,
                } = &op.kind
                else {
                    panic!("dense oracle needs unitary circuits, found `{op}`");
                };
                let m = sim::gate_matrix(*gate);
                let t = 1usize << target;
                let mul = |w: dd::Complex, x: (f64, f64)| {
                    (w.re * x.0 - w.im * x.1, w.re * x.1 + w.im * x.0)
                };
                for index in 0..dim {
                    let selected = controls
                        .iter()
                        .all(|c| (index >> c.qubit & 1 == 1) == c.positive);
                    if index & t != 0 || !selected {
                        continue;
                    }
                    let (a, b) = (state[index], state[index | t]);
                    let (a0, a1) = (mul(m[0][0], a), mul(m[0][1], b));
                    let (b0, b1) = (mul(m[1][0], a), mul(m[1][1], b));
                    state[index] = (a0.0 + a1.0, a0.1 + a1.1);
                    state[index | t] = (b0.0 + b1.0, b0.1 + b1.1);
                }
            }
            state
        })
        .collect()
}

/// What the dense oracle says about a pair.
struct Oracle {
    /// Largest entry of `|U − V|`: zero exactly when the unitaries are
    /// equal, global phase included.
    max_diff: f64,
    /// `|tr(U†V)| / 2^n`, the checker's criterion: 1 up to global phase.
    fidelity: f64,
}

fn oracle(left: &QuantumCircuit, right: &QuantumCircuit) -> Oracle {
    let (u, v) = (dense(left), dense(right));
    let (mut max_diff, mut re, mut im) = (0.0f64, 0.0, 0.0);
    for (cu, cv) in u.iter().zip(&v) {
        for (a, b) in cu.iter().zip(cv) {
            max_diff = max_diff.max(((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt());
            re += a.0 * b.0 + a.1 * b.1;
            im += a.0 * b.1 - a.1 * b.0;
        }
    }
    Oracle {
        max_diff,
        fidelity: (re * re + im * im).sqrt() / u.len() as f64,
    }
}

fn verdict(left: &QuantumCircuit, right: &QuantumCircuit, strategy: Strategy) -> Equivalence {
    let config = Configuration {
        strategy,
        ..Default::default()
    };
    check_functional_equivalence(left, right, &config)
        .expect("unitary circuits on one register")
        .equivalence
}

fn circuit_of(n: usize, ops: impl IntoIterator<Item = Operation>) -> QuantumCircuit {
    let mut circuit = QuantumCircuit::new(n, 0);
    for op in ops {
        circuit.push(op);
    }
    circuit
}

/// Whether two gates commute, decided densely on `n` qubits.
fn commute(n: usize, a: &Operation, b: &Operation) -> bool {
    let ab = circuit_of(n, [a.clone(), b.clone()]);
    let ba = circuit_of(n, [b.clone(), a.clone()]);
    oracle(&ab, &ba).max_diff < 1e-12
}

/// Swaps random adjacent gates that commute, so the circuit's unitary is
/// unchanged while its gate order is not.
fn commuting_swaps(circuit: &QuantumCircuit, rng: &mut StdRng) -> QuantumCircuit {
    let n = circuit.num_qubits();
    let mut ops = circuit.ops().to_vec();
    for _ in 0..3 * ops.len() {
        let i = rng.gen_range(0..ops.len() - 1);
        if commute(n, &ops[i], &ops[i + 1]) {
            ops.swap(i, i + 1);
        }
    }
    circuit_of(n, ops)
}

/// Exchanges control and target of about half the phase-type gates with a
/// single positive control — a rewrite that leaves the unitary unchanged.
fn exchange_phase_controls(circuit: &QuantumCircuit, rng: &mut StdRng) -> QuantumCircuit {
    use StandardGate::*;
    let ops = circuit.ops().iter().map(|op| match &op.kind {
        OpKind::Unitary {
            gate: gate @ (Z | S | Sdg | T | Tdg | Phase(_)),
            target,
            controls,
        } if matches!(controls.as_slice(), [c] if c.positive) && rng.gen_bool(0.5) => {
            Operation::unitary(*gate, controls[0].qubit, vec![QuantumControl::pos(*target)])
        }
        _ => op.clone(),
    });
    circuit_of(circuit.num_qubits(), ops.collect::<Vec<_>>())
}

#[test]
fn legal_reorders_are_equivalent() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..7usize);
        let left = random_unitary_circuit(n, rng.gen_range(12..40usize), seed);
        let right = commuting_swaps(&exchange_phase_controls(&left, &mut rng), &mut rng);
        assert!(
            oracle(&left, &right).max_diff < 1e-9,
            "seed {seed}: bad fixture"
        );
        for (a, b) in [(&left, &right), (&right, &left)] {
            assert_eq!(
                verdict(a, b, Strategy::Aligned),
                Equivalence::Equivalent,
                "seed {seed}: a legal reorder was not recognised"
            );
        }
    }
}

/// The near misses: each is a rewrite a looser commutation or twin rule
/// would take for a legal one.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// `h(c); cp(θ, c, t)` becomes `cp(θ, c, t); h(c)`.
    HadamardPastPhase,
    /// `crz(θ, c, t)` becomes `crz(θ, t, c)`: RZ is diagonal but not a
    /// phase-type gate.
    ExchangeRz,
    /// A CP with a negative control has its control and target exchanged.
    ExchangeNegativeControl,
    /// `cp(θ, c, t)` becomes `crz(θ, c, t)`.
    PhaseToRz,
    /// `cp(θ, c, t)` becomes `cp(θ + 1e-6, t, c)`.
    PerturbAngle,
}

/// The gadget a mutation rewrites, and its rewritten form.
fn gadget(mutation: Mutation, c: usize, t: usize, theta: f64) -> [Vec<Operation>; 2] {
    use StandardGate::{Phase, Rz, H};
    let one =
        |gate, target, control: QuantumControl| Operation::unitary(gate, target, vec![control]);
    let h = Operation::unitary(H, c, vec![]);
    match mutation {
        Mutation::HadamardPastPhase => [
            vec![h.clone(), one(Phase(theta), t, QuantumControl::pos(c))],
            vec![one(Phase(theta), t, QuantumControl::pos(c)), h],
        ],
        Mutation::ExchangeRz => [
            vec![one(Rz(theta), t, QuantumControl::pos(c))],
            vec![one(Rz(theta), c, QuantumControl::pos(t))],
        ],
        Mutation::ExchangeNegativeControl => [
            vec![one(Phase(theta), t, QuantumControl::neg(c))],
            vec![one(Phase(theta), c, QuantumControl::neg(t))],
        ],
        Mutation::PhaseToRz => [
            vec![one(Phase(theta), t, QuantumControl::pos(c))],
            vec![one(Rz(theta), t, QuantumControl::pos(c))],
        ],
        Mutation::PerturbAngle => [
            vec![one(Phase(theta), t, QuantumControl::pos(c))],
            vec![one(Phase(theta + 1e-6), c, QuantumControl::pos(t))],
        ],
    }
}

#[test]
fn near_miss_mutations_are_refuted() {
    for mutation in [
        Mutation::HadamardPastPhase,
        Mutation::ExchangeRz,
        Mutation::ExchangeNegativeControl,
        Mutation::PhaseToRz,
        Mutation::PerturbAngle,
    ] {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..7usize);
            let c = rng.gen_range(0..n);
            let t = (c + rng.gen_range(1..n)) % n;
            let theta = rng.gen_range(0.5..3.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let prefix = random_unitary_circuit(n, rng.gen_range(4..16usize), seed);
            let suffix = random_unitary_circuit(n, rng.gen_range(4..16usize), seed + 1000);
            let [original, mutated] = gadget(mutation, c, t, theta);
            let build = |middle: Vec<Operation>| {
                let ops = prefix.ops().iter().cloned().chain(middle);
                circuit_of(n, ops.chain(suffix.ops().iter().cloned()))
            };
            let left = build(original);
            let right = commuting_swaps(&build(mutated), &mut rng);
            let context = format!("{mutation:?}, seed {seed}");

            // The oracle confirms the mutation changed the unitary.
            let dense = oracle(&left, &right);
            assert!(dense.max_diff > 1e-7, "{context}: mutation is a no-op");
            for (a, b) in [(&left, &right), (&right, &left)] {
                let aligned = verdict(a, b, Strategy::Aligned);
                // Never the exact-identity verdict a wrongly skipped or
                // wrongly reordered pair would produce.
                assert_ne!(aligned, Equivalence::Equivalent, "{context}");
                // The syntactic rules change no verdict: the schedule
                // without them agrees.
                assert_eq!(aligned, verdict(a, b, Strategy::Proportional), "{context}");
                if dense.fidelity < 1.0 - 1e-6 {
                    assert_eq!(aligned, Equivalence::NotEquivalent, "{context}");
                }
            }
            // A 1e-6 phase moves the trace fidelity by about 1e-13, far
            // below the checker's 1e-8 tolerance, but the trace's phase by
            // about 1e-7, above it: the check reports a phase difference,
            // not exact equivalence. Every other mutation is gross.
            if !matches!(mutation, Mutation::PerturbAngle) {
                assert!(dense.fidelity < 1.0 - 1e-6, "{context}: weak fixture");
            }
        }
    }
}
