//! Property-based tests validating the decision-diagram algebra against
//! straightforward dense linear algebra on small registers.

use dd::{gates, Budget, Complex, Control, DdPackage, GateMatrix, MemoryConfig};
use proptest::prelude::*;

/// A randomly chosen (controlled) single-qubit gate description.
#[derive(Debug, Clone)]
struct RandomGate {
    kind: u8,
    angle: f64,
    target: usize,
    control: Option<(usize, bool)>,
}

impl RandomGate {
    fn matrix(&self) -> GateMatrix {
        match self.kind {
            0 => gates::h(),
            1 => gates::x(),
            2 => gates::y(),
            3 => gates::z(),
            4 => gates::s(),
            5 => gates::t(),
            6 => gates::phase(self.angle),
            7 => gates::rx(self.angle),
            8 => gates::ry(self.angle),
            _ => gates::rz(self.angle),
        }
    }

    fn controls(&self) -> Vec<Control> {
        match self.control {
            Some((q, true)) => vec![Control::pos(q)],
            Some((q, false)) => vec![Control::neg(q)],
            None => vec![],
        }
    }
}

fn random_gate(n_qubits: usize) -> impl Strategy<Value = RandomGate> {
    (
        0u8..10,
        -3.2f64..3.2,
        0..n_qubits,
        proptest::option::of((0..n_qubits, any::<bool>())),
    )
        .prop_map(move |(kind, angle, target, control)| {
            let control = control.filter(|(q, _)| *q != target);
            RandomGate {
                kind,
                angle,
                target,
                control,
            }
        })
}

fn random_circuit(n_qubits: usize, max_len: usize) -> impl Strategy<Value = Vec<RandomGate>> {
    proptest::collection::vec(random_gate(n_qubits), 1..max_len)
}

/// Dense matrix helpers (row-major `Vec<Vec<Complex>>`).
mod dense {
    use super::*;

    pub fn identity(dim: usize) -> Vec<Vec<Complex>> {
        let mut m = vec![vec![Complex::ZERO; dim]; dim];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = Complex::ONE;
        }
        m
    }

    pub fn matmul(a: &[Vec<Complex>], b: &[Vec<Complex>]) -> Vec<Vec<Complex>> {
        let dim = a.len();
        let mut out = vec![vec![Complex::ZERO; dim]; dim];
        for i in 0..dim {
            for k in 0..dim {
                if a[i][k].is_zero() {
                    continue;
                }
                for j in 0..dim {
                    out[i][j] += a[i][k] * b[k][j];
                }
            }
        }
        out
    }

    pub fn matvec(a: &[Vec<Complex>], v: &[Complex]) -> Vec<Complex> {
        let dim = a.len();
        let mut out = vec![Complex::ZERO; dim];
        for (i, out_i) in out.iter_mut().enumerate() {
            for (j, vj) in v.iter().enumerate() {
                *out_i += a[i][j] * *vj;
            }
        }
        out
    }

    /// Full-register matrix of a (controlled) single-qubit gate.
    pub fn gate_matrix(n: usize, g: &super::RandomGate) -> Vec<Vec<Complex>> {
        let dim = 1 << n;
        let u = g.matrix();
        let mut out = vec![vec![Complex::ZERO; dim]; dim];
        #[allow(clippy::needless_range_loop)]
        for col in 0..dim {
            let control_ok = match g.control {
                Some((q, positive)) => (((col >> q) & 1) == 1) == positive,
                None => true,
            };
            if !control_ok {
                out[col][col] += Complex::ONE;
                continue;
            }
            let bit = (col >> g.target) & 1;
            for (row_bit, _) in [0usize, 1].iter().enumerate() {
                let amp = u[row_bit][bit];
                if amp.is_zero() {
                    continue;
                }
                let row = (col & !(1 << g.target)) | (row_bit << g.target);
                out[row][col] += amp;
            }
        }
        out
    }
}

fn approx_vec_eq(a: &[Complex], b: &[Complex]) -> bool {
    a.iter()
        .zip(b.iter())
        .all(|(x, y)| x.approx_eq_with(*y, 1e-8))
}

fn approx_mat_eq(a: &[Vec<Complex>], b: &[Vec<Complex>]) -> bool {
    a.iter().zip(b.iter()).all(|(ra, rb)| approx_vec_eq(ra, rb))
}

const N: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulating a random circuit through decision diagrams agrees with the
    /// dense state-vector simulation.
    #[test]
    fn dd_simulation_matches_dense(circuit in random_circuit(N, 12)) {
        let mut p = DdPackage::new(N);
        let mut state = p.zero_state();
        let mut dense_state = vec![Complex::ZERO; 1 << N];
        dense_state[0] = Complex::ONE;
        for g in &circuit {
            state = p.apply_gate(state, &g.matrix(), g.target, &g.controls());
            let m = dense::gate_matrix(N, g);
            dense_state = dense::matvec(&m, &dense_state);
        }
        let amps = p.amplitudes(state);
        prop_assert!(approx_vec_eq(&amps, &dense_state));
    }

    /// The matrix diagram of a whole circuit equals the dense product of its
    /// gate matrices.
    #[test]
    fn dd_matrix_product_matches_dense(circuit in random_circuit(N, 8)) {
        let mut p = DdPackage::new(N);
        let mut u = p.identity();
        let mut dense_u = dense::identity(1 << N);
        for g in &circuit {
            let gd = p.make_gate(&g.matrix(), g.target, &g.controls());
            u = p.mul_matrices(gd, u);
            dense_u = dense::matmul(&dense::gate_matrix(N, g), &dense_u);
        }
        prop_assert!(approx_mat_eq(&p.to_matrix(u), &dense_u));
    }

    /// U†U is always the identity for circuits of unitary gates.
    #[test]
    fn circuit_unitary_times_adjoint_is_identity(circuit in random_circuit(N, 10)) {
        let mut p = DdPackage::new(N);
        let mut u = p.identity();
        for g in &circuit {
            let gd = p.make_gate(&g.matrix(), g.target, &g.controls());
            u = p.mul_matrices(gd, u);
        }
        let udag = p.conjugate_transpose(u);
        let product = p.mul_matrices(udag, u);
        prop_assert!((p.identity_fidelity(product) - 1.0).abs() < 1e-8);
        prop_assert!(p.is_identity(product, true));
    }

    /// Norm is preserved by unitary evolution.
    #[test]
    fn norm_is_preserved(circuit in random_circuit(N, 12)) {
        let mut p = DdPackage::new(N);
        let mut state = p.zero_state();
        for g in &circuit {
            state = p.apply_gate(state, &g.matrix(), g.target, &g.controls());
        }
        prop_assert!((p.norm_sqr(state) - 1.0).abs() < 1e-8);
    }

    /// Measurement probabilities of each qubit sum to one and match the dense
    /// marginals.
    #[test]
    fn probabilities_match_dense(circuit in random_circuit(N, 10), qubit in 0..N) {
        let mut p = DdPackage::new(N);
        let mut state = p.zero_state();
        let mut dense_state = vec![Complex::ZERO; 1 << N];
        dense_state[0] = Complex::ONE;
        for g in &circuit {
            state = p.apply_gate(state, &g.matrix(), g.target, &g.controls());
            let m = dense::gate_matrix(N, g);
            dense_state = dense::matvec(&m, &dense_state);
        }
        let (p0, p1) = p.probabilities(state, qubit);
        let mut d0 = 0.0;
        let mut d1 = 0.0;
        for (i, amp) in dense_state.iter().enumerate() {
            if (i >> qubit) & 1 == 0 {
                d0 += amp.norm_sqr();
            } else {
                d1 += amp.norm_sqr();
            }
        }
        prop_assert!((p0 - d0).abs() < 1e-8);
        prop_assert!((p1 - d1).abs() < 1e-8);
        prop_assert!((p0 + p1 - 1.0).abs() < 1e-8);
    }

    /// Collapsing onto an outcome yields a normalised state supported only on
    /// that outcome.
    #[test]
    fn collapse_produces_normalised_projection(circuit in random_circuit(N, 10), qubit in 0..N) {
        let mut p = DdPackage::new(N);
        let mut state = p.zero_state();
        for g in &circuit {
            state = p.apply_gate(state, &g.matrix(), g.target, &g.controls());
        }
        let (p0, p1) = p.probabilities(state, qubit);
        for (outcome, prob) in [(false, p0), (true, p1)] {
            let (collapsed, reported) = p.collapse(state, qubit, outcome, true);
            prop_assert!((reported - prob).abs() < 1e-8);
            if prob > 1e-9 {
                prop_assert!((p.norm_sqr(collapsed) - 1.0).abs() < 1e-8);
                let amps = p.amplitudes(collapsed);
                for (i, amp) in amps.iter().enumerate() {
                    let bit = (i >> qubit) & 1 == 1;
                    if bit != outcome {
                        prop_assert!(amp.abs() < 1e-9);
                    }
                }
            }
        }
    }

    /// Vector addition is commutative and matches dense addition.
    #[test]
    fn vector_addition_is_commutative(c1 in random_circuit(N, 8), c2 in random_circuit(N, 8)) {
        let mut p = DdPackage::new(N);
        let mut a = p.zero_state();
        for g in &c1 {
            a = p.apply_gate(a, &g.matrix(), g.target, &g.controls());
        }
        let mut b = p.zero_state();
        for g in &c2 {
            b = p.apply_gate(b, &g.matrix(), g.target, &g.controls());
        }
        let ab = p.add_vectors(a, b);
        let ba = p.add_vectors(b, a);
        let amps_ab = p.amplitudes(ab);
        let amps_ba = p.amplitudes(ba);
        prop_assert!(approx_vec_eq(&amps_ab, &amps_ba));
        let amps_a = p.amplitudes(a);
        let amps_b = p.amplitudes(b);
        let expected: Vec<Complex> = amps_a.iter().zip(amps_b.iter()).map(|(x, y)| *x + *y).collect();
        prop_assert!(approx_vec_eq(&amps_ab, &expected));
    }

    /// The inner product is conjugate-symmetric and bounded by one for
    /// normalised states.
    #[test]
    fn inner_product_properties(c1 in random_circuit(N, 8), c2 in random_circuit(N, 8)) {
        let mut p = DdPackage::new(N);
        let mut a = p.zero_state();
        for g in &c1 {
            a = p.apply_gate(a, &g.matrix(), g.target, &g.controls());
        }
        let mut b = p.zero_state();
        for g in &c2 {
            b = p.apply_gate(b, &g.matrix(), g.target, &g.controls());
        }
        let ab = p.inner_product(a, b);
        let ba = p.inner_product(b, a);
        prop_assert!(ab.approx_eq_with(ba.conj(), 1e-8));
        prop_assert!(p.fidelity(a, b) <= 1.0 + 1e-8);
        prop_assert!((p.fidelity(a, a) - 1.0).abs() < 1e-8);
    }

    /// Interning merges numerically identical values regardless of the
    /// construction route.
    #[test]
    fn intern_is_stable(re in -1.0f64..1.0, im in -1.0f64..1.0) {
        let mut p = DdPackage::new(1);
        let a = p.intern(Complex::new(re, im));
        let b = p.intern(Complex::new(re, im));
        prop_assert_eq!(a, b);
    }

    /// Garbage collection preserves canonicity: after protecting the final
    /// state and collecting, re-interning the same circuit (through recycled
    /// arena slots) reproduces the *identical* edge, and the amplitudes
    /// match an untouched package's.
    #[test]
    fn gc_preserves_canonicity(circuit in random_circuit(N, 12)) {
        let mut p = DdPackage::new(N);
        let mut state = p.zero_state();
        for g in &circuit {
            state = p.apply_gate(state, &g.matrix(), g.target, &g.controls());
        }
        p.protect_vector(state);
        p.garbage_collect();
        let mut rebuilt = p.zero_state();
        for g in &circuit {
            rebuilt = p.apply_gate(rebuilt, &g.matrix(), g.target, &g.controls());
        }
        prop_assert_eq!(state, rebuilt);

        let mut reference = DdPackage::new(N);
        let mut ref_state = reference.zero_state();
        for g in &circuit {
            ref_state = reference.apply_gate(ref_state, &g.matrix(), g.target, &g.controls());
        }
        prop_assert!(approx_vec_eq(&p.amplitudes(state), &reference.amplitudes(ref_state)));
    }

    /// Lossy compute-table eviction never changes results: a package whose
    /// caches are at the minimum size (maximum eviction pressure) computes
    /// the same amplitudes as one with default-sized caches.
    #[test]
    fn lossy_eviction_preserves_results(circuit in random_circuit(N, 12)) {
        let tiny = MemoryConfig {
            binary_cache_bits: 1,
            unary_cache_bits: 1,
            gate_cache_bits: 1,
            gc_threshold: None,
        };
        let mut small = DdPackage::with_config(N, Budget::unlimited(), tiny);
        let mut large = DdPackage::new(N);
        let mut small_state = small.zero_state();
        let mut large_state = large.zero_state();
        for g in &circuit {
            small_state = small.apply_gate(small_state, &g.matrix(), g.target, &g.controls());
            large_state = large.apply_gate(large_state, &g.matrix(), g.target, &g.controls());
        }
        prop_assert!(approx_vec_eq(&small.amplitudes(small_state), &large.amplitudes(large_state)));
        prop_assert!((small.norm_sqr(small_state) - 1.0).abs() < 1e-8);
    }
}

/// Regression: a long repeated-gate circuit's peak node count stays bounded
/// with GC enabled, at least 4x below the unbounded no-GC arena.
#[test]
fn repeated_gate_circuit_peak_nodes_stay_bounded() {
    const QUBITS: usize = 8;
    const ROUNDS: usize = 60;
    let run = |gc_threshold: Option<usize>| {
        let config = MemoryConfig {
            gc_threshold,
            ..Default::default()
        };
        let mut p = DdPackage::with_config(QUBITS, Budget::unlimited(), config);
        let mut state = p.zero_state();
        for q in 0..QUBITS {
            state = p.apply_gate(state, &gates::h(), q, &[]);
        }
        for round in 0..ROUNDS {
            for q in 1..QUBITS {
                let angle = 0.1 + 0.37 * (round * QUBITS + q) as f64;
                state = p.apply_gate(state, &gates::phase(angle), q, &[Control::pos(q - 1)]);
                state = p.apply_gate(state, &gates::ry(angle), q, &[]);
            }
        }
        assert!((p.norm_sqr(state) - 1.0).abs() < 1e-8);
        p.memory_stats()
    };
    let without_gc = run(None);
    let with_gc = run(Some(2048));
    assert_eq!(without_gc.gc_runs, 0);
    assert!(with_gc.gc_runs > 0, "threshold should have triggered GC");
    assert!(
        with_gc.peak_nodes * 4 <= without_gc.peak_nodes,
        "GC peak {} should be at least 4x below the no-GC peak {}",
        with_gc.peak_nodes,
        without_gc.peak_nodes
    );
}

// ---------------------------------------------------------------------
// Shared-store interning parity
// ---------------------------------------------------------------------

/// A value jittered around a bucket-grid corner: `jr`/`ji` in `(-1, 1)`
/// place it up to one full bucket away from the corner in each component,
/// the adversarial zone where the neighbour-bucket search, the striped
/// probe window and tolerance merge decisions all fire.
fn boundary_value(kr: i64, ki: i64, jr: f64, ji: f64) -> Complex {
    Complex::new(
        0.5 + (kr as f64 + jr) * dd::TOLERANCE,
        0.25 + (ki as f64 + ji) * dd::TOLERANCE,
    )
}

/// Interns `values` one by one in a private package (the reference) and in
/// a workspace of a shared store, asserting identical index sequences and
/// identical final table sizes.
fn assert_shared_matches_private(values: &[Complex]) {
    let mut private = DdPackage::new(1);
    let want: Vec<dd::CIdx> = values.iter().map(|&v| private.intern(v)).collect();
    let store = dd::SharedStore::new();
    let mut shared = store.workspace(1);
    let got: Vec<dd::CIdx> = values.iter().map(|&v| shared.intern(v)).collect();
    assert_eq!(got, want, "shared CIdx sequence diverged from private");
    assert_eq!(
        shared.stats().complex_values,
        private.stats().complex_values,
        "shared interning created a different number of slots"
    );
}

proptest! {
    /// The striped shared table returns exactly the index sequence the
    /// private table produces on random inputs.
    #[test]
    fn shared_interning_matches_private_random(
        raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 1..200),
    ) {
        let values: Vec<Complex> = raw.into_iter().map(|(re, im)| Complex::new(re, im)).collect();
        assert_shared_matches_private(&values);
    }

    /// Same parity on adversarial inputs: clusters of values straddling
    /// bucket-grid boundaries within (and just outside) the merge
    /// tolerance, where first-match order decides which index wins.
    #[test]
    fn shared_interning_matches_private_near_bucket_boundaries(
        corners in proptest::collection::vec((-40i64..40, -40i64..40), 1..8),
        jitters in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..64),
    ) {
        let mut values = Vec::new();
        for &(kr, ki) in &corners {
            for &(jr, ji) in &jitters {
                values.push(boundary_value(kr, ki, jr, ji));
            }
        }
        assert_shared_matches_private(&values);
    }
}

/// Deterministic adversarial cases: exact-boundary offsets (differences of
/// exactly one tolerance, which must NOT merge under the strict `<`
/// predicate) and repeats interleaved with near-misses.
#[test]
fn shared_interning_exact_boundary_cases() {
    let t = dd::TOLERANCE;
    let values = vec![
        Complex::real(0.5),
        Complex::real(0.5 + t),       // exactly one tolerance away: distinct
        Complex::real(0.5 + 0.5 * t), // within tolerance of both neighbours
        Complex::real(0.5 - 0.5 * t),
        Complex::new(0.5, t),
        Complex::new(0.5, 0.999 * t),
        Complex::ZERO,
        Complex::new(0.4 * t, 0.0), // inside the zero shortcut's tolerance
        Complex::ONE,
        Complex::new(1.0 + 0.4 * t, 0.0),
        Complex::real(0.5), // repeat of the first entry
    ];
    assert_shared_matches_private(&values);
}
