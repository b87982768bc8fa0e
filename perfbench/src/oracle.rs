//! Independent oracles for the known answers, run at generation time.
//!
//! Neither oracle touches the decision-diagram checker under test: pairs of
//! dynamic circuits are compared through `density::EnsembleSimulator`
//! outcome distributions, static (compiled) circuits through dense
//! unitaries built here. Both are exponential, so they confirm the smallest
//! instance of each input kind.

use crate::inputs::{Expect, PairInput};
use circuit::{OpKind, QuantumCircuit};
use density::EnsembleSimulator;

/// Confirms a dynamic-circuit pair's known answer from the |0…0⟩ outcome
/// distributions of both sides: equal for `Equivalent`, far apart for
/// `NotEquivalent`. Returns the total-variation distance.
pub fn check_by_distribution(pair: &PairInput) -> Result<f64, String> {
    let distribution = |circuit: &QuantumCircuit| {
        let mut ensemble = EnsembleSimulator::new(circuit).map_err(|e| e.to_string())?;
        ensemble.run(circuit).map_err(|e| e.to_string())?;
        Ok::<_, String>(ensemble.outcome_distribution())
    };
    let distance = distribution(&pair.left)?.total_variation_distance(&distribution(&pair.right)?);
    let agrees = match pair.expect {
        Expect::Equivalent => distance < 1e-6,
        Expect::NotEquivalent => distance > 0.5,
    };
    if agrees {
        Ok(distance)
    } else {
        Err(format!(
            "oracle disagrees with the known answer of {} ({:?}): outcome distance {distance}",
            pair.name, pair.expect
        ))
    }
}

/// Confirms a static pair's known answer with dense unitaries: the
/// normalised trace fidelity `|tr(U†V)| / 2^n` is 1 for circuits equal up to
/// global phase and below 1 otherwise.
pub fn check_by_unitary(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    expect: Expect,
) -> Result<f64, String> {
    let n = left.num_qubits().max(right.num_qubits());
    if n > 10 {
        return Err(format!("dense oracle limited to 10 qubits, got {n}"));
    }
    let dim = 1usize << n;
    let (mut re, mut im) = (0.0, 0.0);
    for column in 0..dim {
        let u = apply_dense(left, n, column)?;
        let v = apply_dense(right, n, column)?;
        for (a, b) in u.iter().zip(&v) {
            // conj(a) * b
            re += a.0 * b.0 + a.1 * b.1;
            im += a.0 * b.1 - a.1 * b.0;
        }
    }
    let fidelity = (re * re + im * im).sqrt() / dim as f64;
    let agrees = match expect {
        Expect::Equivalent => fidelity > 1.0 - 1e-9,
        Expect::NotEquivalent => fidelity < 1.0 - 1e-6,
    };
    if agrees {
        Ok(fidelity)
    } else {
        Err(format!(
            "dense oracle disagrees with the known answer ({expect:?}): fidelity {fidelity}"
        ))
    }
}

/// The state `C|column⟩` as `(re, im)` amplitudes.
fn apply_dense(
    circuit: &QuantumCircuit,
    n: usize,
    column: usize,
) -> Result<Vec<(f64, f64)>, String> {
    let mut state = vec![(0.0, 0.0); 1 << n];
    state[column] = (1.0, 0.0);
    for op in circuit.ops() {
        match (&op.kind, op.condition) {
            (OpKind::Barrier, _) => {}
            (
                OpKind::Unitary {
                    gate,
                    target,
                    controls,
                },
                None,
            ) => {
                let m = sim::gate_matrix(*gate);
                let t = 1usize << target;
                for index in 0..state.len() {
                    if index & t != 0
                        || !controls
                            .iter()
                            .all(|c| (index >> c.qubit & 1 == 1) == c.positive)
                    {
                        continue;
                    }
                    let (a, b) = (state[index], state[index | t]);
                    let mul = |w: dd::Complex, x: (f64, f64)| {
                        (w.re * x.0 - w.im * x.1, w.re * x.1 + w.im * x.0)
                    };
                    let (a0, a1) = (mul(m[0][0], a), mul(m[0][1], b));
                    let (b0, b1) = (mul(m[1][0], a), mul(m[1][1], b));
                    state[index] = (a0.0 + a1.0, a0.1 + a1.1);
                    state[index | t] = (b0.0 + b1.0, b0.1 + b1.1);
                }
            }
            _ => return Err(format!("dense oracle needs unitary circuits, found `{op}`")),
        }
    }
    Ok(state)
}
