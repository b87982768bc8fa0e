//! Quantum Fourier Transform circuits (static and semiclassical/dynamic).
//!
//! The static QFT follows the textbook construction without the final qubit
//! reversal (swap-free form), which is also how the paper's benchmark
//! instances are counted (`|G| = n(n+1)/2`). The dynamic realization is the
//! semiclassical Fourier transform of Griffiths & Niu (reference \[44\] of the
//! paper): a single working qubit, measured and reset once per output bit,
//! with the controlled rotations replaced by classically-controlled phases.

use circuit::QuantumCircuit;

/// Builds the swap-free static QFT on `n` qubits.
///
/// When `max_distance` is `Some(d)`, controlled-phase rotations between
/// qubits further than `d` apart are dropped (an *approximate* QFT). The
/// paper's large benchmark instances use `d = 58`, at which point the dropped
/// angles `π/2^d` are far below double precision.
///
/// When `measured` is `true`, qubit `j` is measured into classical bit `j`
/// at the end.
pub fn qft_static(n: usize, max_distance: Option<usize>, measured: bool) -> QuantumCircuit {
    let mut qc = QuantumCircuit::with_name(n, n, format!("qft_static_{n}"));
    for j in (0..n).rev() {
        qc.h(j);
        for k in (0..j).rev() {
            let distance = j - k;
            if let Some(d) = max_distance {
                if distance > d {
                    continue;
                }
            }
            let angle = std::f64::consts::PI / (1u128 << distance.min(127)) as f64;
            qc.cp(angle, k, j);
        }
    }
    if measured {
        for j in 0..n {
            qc.measure(j, j);
        }
    }
    qc
}

/// Builds the dynamic (single working qubit) semiclassical QFT on `n`
/// "virtual" qubits.
///
/// The working qubit is qubit 0. Output bit `j` of the transform is written
/// to classical bit `j`; bits are produced from the most-significant virtual
/// qubit (`n-1`) down to 0, each preceded by the classically-controlled phase
/// corrections conditioned on the bits already measured.
pub fn qft_dynamic(n: usize) -> QuantumCircuit {
    qft_dynamic_approx(n, None)
}

/// Approximate variant of [`qft_dynamic`] dropping corrections further apart
/// than `max_distance` (mirrors [`qft_static`]'s approximation).
pub fn qft_dynamic_approx(n: usize, max_distance: Option<usize>) -> QuantumCircuit {
    let working = 0;
    let mut qc = QuantumCircuit::with_name(1, n, format!("qft_dynamic_{n}"));
    for j in (0..n).rev() {
        if j != n - 1 {
            qc.reset(working);
        }
        // Phase corrections conditioned on the already-measured higher bits.
        for j_prev in (j + 1)..n {
            let distance = j_prev - j;
            if let Some(d) = max_distance {
                if distance > d {
                    continue;
                }
            }
            let angle = std::f64::consts::PI / (1u128 << distance.min(127)) as f64;
            qc.p_if(angle, working, j_prev);
        }
        qc.h(working);
        qc.measure(working, j);
    }
    qc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_gate_count_is_triangular() {
        for n in [3usize, 8, 23, 24] {
            let qc = qft_static(n, None, false);
            assert_eq!(qc.gate_count(), n * (n + 1) / 2, "n = {n}");
            assert!(qc.is_unitary());
        }
    }

    #[test]
    fn approximate_static_count_matches_paper_large_instances() {
        // Paper Table 1: n = 125 → |G| = 5664 with a rotation cutoff of 58.
        let d = 58;
        for (n, expected) in [(125usize, 5664usize), (126, 5723), (127, 5782), (128, 5841)] {
            let qc = qft_static(n, Some(d), false);
            assert_eq!(qc.gate_count(), expected, "n = {n}");
        }
    }

    #[test]
    fn dynamic_gate_count_matches_paper() {
        // Paper Table 1: n = 23 → |G| = 321 = n(n-1)/2 + 3n - 1.
        for (n, expected) in [(23usize, 321usize), (24, 347), (25, 374), (26, 402)] {
            let qc = qft_dynamic(n);
            assert_eq!(qc.gate_count(), expected, "n = {n}");
        }
    }

    #[test]
    fn dynamic_large_instances_match_paper() {
        for (n, expected) in [(125usize, 8124usize), (126, 8252), (127, 8381), (128, 8511)] {
            let qc = qft_dynamic(n);
            assert_eq!(qc.gate_count(), expected, "n = {n}");
        }
    }

    #[test]
    fn dynamic_uses_single_qubit() {
        let qc = qft_dynamic(10);
        assert_eq!(qc.num_qubits(), 1);
        assert_eq!(qc.num_bits(), 10);
        assert_eq!(qc.measurement_count(), 10);
        assert_eq!(qc.reset_count(), 9);
        assert!(qc.is_dynamic());
    }

    #[test]
    fn measured_static_has_one_measurement_per_qubit() {
        let qc = qft_static(5, None, true);
        assert_eq!(qc.measurement_count(), 5);
    }

    #[test]
    fn approximation_only_drops_long_range_rotations() {
        let full = qft_static(10, None, false);
        let approx = qft_static(10, Some(3), false);
        assert!(approx.gate_count() < full.gate_count());
        // Hadamards are untouched.
        let count_h = |qc: &QuantumCircuit| {
            qc.ops()
                .iter()
                .filter(|op| {
                    matches!(
                        op.kind,
                        circuit::OpKind::Unitary {
                            gate: circuit::StandardGate::H,
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(count_h(&full), count_h(&approx));
    }
}
