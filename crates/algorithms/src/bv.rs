//! Bernstein–Vazirani circuits (static and dynamic realizations).
//!
//! The Bernstein–Vazirani algorithm recovers a hidden bit string `s` from a
//! single query to the oracle `|x⟩|y⟩ → |x⟩|y ⊕ s·x⟩`. The *static*
//! realization uses one input qubit per bit of `s` plus an ancilla; the
//! *dynamic* realization re-uses a single working qubit via mid-circuit
//! measurement and reset, exactly as proposed for IBM's dynamic-circuit
//! demonstrations (reference \[43\] of the paper).
//!
//! Both realizations implement the oracle with controlled-Z gates against an
//! ancilla prepared in |1⟩, so that the static circuit and the
//! unitary-reconstructed dynamic circuit are gate-for-gate equivalent.

use circuit::QuantumCircuit;

/// Builds the static Bernstein–Vazirani circuit for `hidden`.
///
/// Register layout: qubits `0..m` are the input qubits (`m = hidden.len()`),
/// qubit `m` is the ancilla prepared in |1⟩. When `measured` is `true`, every
/// input qubit `i` is measured into classical bit `i`.
///
/// # Examples
///
/// ```
/// use algorithms::bv::bv_static;
/// let qc = bv_static(&[true, false, true], true);
/// assert_eq!(qc.num_qubits(), 4);
/// assert_eq!(qc.measurement_count(), 3);
/// ```
pub fn bv_static(hidden: &[bool], measured: bool) -> QuantumCircuit {
    let m = hidden.len();
    let ancilla = m;
    let mut qc = QuantumCircuit::with_name(m + 1, m, format!("bv_static_{}", m + 1));
    qc.x(ancilla);
    for q in 0..m {
        qc.h(q);
    }
    for (q, &bit) in hidden.iter().enumerate() {
        if bit {
            qc.cz(q, ancilla);
        }
    }
    for q in 0..m {
        qc.h(q);
    }
    if measured {
        for q in 0..m {
            qc.measure(q, q);
        }
    }
    qc
}

/// Builds the dynamic (2-qubit) Bernstein–Vazirani circuit for `hidden`.
///
/// Register layout: qubit 0 is the re-used working qubit, qubit 1 the ancilla
/// prepared in |1⟩. Bit `i` of the hidden string is recovered in classical
/// bit `i`.
///
/// # Examples
///
/// ```
/// use algorithms::bv::bv_dynamic;
/// let qc = bv_dynamic(&[true, false, true]);
/// assert_eq!(qc.num_qubits(), 2);
/// assert_eq!(qc.reset_count(), 2);
/// ```
pub fn bv_dynamic(hidden: &[bool]) -> QuantumCircuit {
    let m = hidden.len();
    let working = 0;
    let ancilla = 1;
    let mut qc = QuantumCircuit::with_name(2, m, format!("bv_dynamic_{}", m + 1));
    qc.x(ancilla);
    for (i, &bit) in hidden.iter().enumerate() {
        if i > 0 {
            qc.reset(working);
        }
        qc.h(working);
        if bit {
            qc.cz(working, ancilla);
        }
        qc.h(working);
        qc.measure(working, i);
    }
    qc
}

/// Deterministically generates a pseudo-random hidden string of length `len`.
///
/// The same `seed` always yields the same string, which keeps benchmark
/// instances reproducible across runs.
pub fn random_hidden_string(len: usize, seed: u64) -> Vec<bool> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.r#gen::<bool>()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::{OpKind, StandardGate};

    #[test]
    fn static_structure() {
        let hidden = [true, true, false, true];
        let qc = bv_static(&hidden, false);
        assert_eq!(qc.num_qubits(), 5);
        assert!(qc.is_unitary());
        // 1 X + 4 H + 3 CZ + 4 H
        assert_eq!(qc.gate_count(), 1 + 4 + 3 + 4);
    }

    #[test]
    fn static_gate_count_formula() {
        for len in [4usize, 9, 16] {
            let hidden = random_hidden_string(len, 7);
            let ones = hidden.iter().filter(|&&b| b).count();
            let qc = bv_static(&hidden, false);
            assert_eq!(qc.gate_count(), 2 * len + 1 + ones);
        }
    }

    #[test]
    fn dynamic_structure() {
        let hidden = [true, false, true];
        let qc = bv_dynamic(&hidden);
        assert_eq!(qc.num_qubits(), 2);
        assert_eq!(qc.num_bits(), 3);
        assert!(qc.is_dynamic());
        assert_eq!(qc.measurement_count(), 3);
        assert_eq!(qc.reset_count(), 2);
        // 1 X + per bit (H, [cz], H, measure) + 2 resets
        assert_eq!(qc.gate_count(), 1 + 3 * 3 + 2 + 2);
    }

    #[test]
    fn dynamic_gate_count_matches_paper_formula() {
        // |G| = 1 + 3m + |s| + (m - 1) = 4m + |s|: X prep, per-bit H/H/measure,
        // oracle CZs and the resets between iterations.
        for len in [8usize, 20, 120] {
            let hidden = random_hidden_string(len, 21);
            let ones = hidden.iter().filter(|&&b| b).count();
            let qc = bv_dynamic(&hidden);
            assert_eq!(qc.gate_count(), 4 * len + ones);
        }
    }

    #[test]
    fn random_hidden_string_is_deterministic() {
        let a = random_hidden_string(64, 42);
        let b = random_hidden_string(64, 42);
        let c = random_hidden_string(64, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn measured_variant_measures_every_input() {
        let hidden = random_hidden_string(6, 1);
        let qc = bv_static(&hidden, true);
        assert_eq!(qc.measurement_count(), 6);
        let measured_bits: Vec<usize> = qc
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Measure { bit, .. } => Some(bit),
                _ => None,
            })
            .collect();
        assert_eq!(measured_bits, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn oracle_uses_cz_gates() {
        let qc = bv_static(&[true], false);
        assert!(qc.ops().iter().any(|op| matches!(
            op.kind,
            OpKind::Unitary {
                gate: StandardGate::Z,
                ..
            }
        )));
    }
}
