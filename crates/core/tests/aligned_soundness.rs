//! Soundness of the aligned schedule's syntactic rules against dense
//! unitaries.
//!
//! `Strategy::Aligned` decides three things without decision-diagram work:
//! which pending right gate may be applied out of order (commutation),
//! which pair of gates cancels (twins) and which right-side SWAP triplet is
//! only a renaming of wires (relabelling). All three are checked here on
//! random circuits from `algorithms::random` (at most 6 qubits):
//!
//! * legal reorders — random swaps of adjacent gates that commute, and
//!   control/target exchanges of positive-control phase gates — must come
//!   out `Equivalent`;
//! * routed rewrites — SWAP triplets inserted at random points, every later
//!   gate re-emitted through the evolving map — must come out `Equivalent`
//!   when the layout is restored and get the dense oracle's verdict when it
//!   is not;
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

/// Where a router inserts a SWAP, and how it writes it.
#[derive(Debug, Clone, Copy)]
struct Insertion {
    /// Index of the original gate the SWAP goes in before (the gate count
    /// for "after the last gate").
    at: usize,
    /// The two routed wires whose occupants trade places.
    a: usize,
    b: usize,
    triplet: Triplet,
}

/// How an inserted SWAP is written: as the three-CNOT triplet, or as one
/// of the near misses a looser relabelling rule would take for it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Triplet {
    /// `cx(a, b); cx(b, a); cx(a, b)`.
    Swap,
    /// CNOT number `k` of the triplet with control and target exchanged.
    Reversed(usize),
    /// CNOT number `k` of the triplet left out.
    Dropped(usize),
    /// The triplet written on `(a, c)` while the later gates follow the
    /// exchange of `a` and `b`.
    WrongPair(usize),
}

fn cx(control: usize, target: usize) -> Operation {
    Operation::unitary(StandardGate::X, target, vec![QuantumControl::pos(control)])
}

/// The operations of an inserted SWAP of wires `a` and `b`.
fn triplet_ops(a: usize, b: usize, triplet: Triplet) -> Vec<Operation> {
    let (a, b) = match triplet {
        Triplet::WrongPair(c) => (a, c),
        _ => (a, b),
    };
    let mut ops = vec![cx(a, b), cx(b, a), cx(a, b)];
    match triplet {
        Triplet::Reversed(k) => ops[k] = if k == 1 { cx(a, b) } else { cx(b, a) },
        Triplet::Dropped(k) => {
            ops.remove(k);
        }
        Triplet::Swap | Triplet::WrongPair(_) => {}
    }
    ops
}

/// The SWAPs, in circuit order, that bring every qubit of `layout`
/// (`layout[logical] = wire`) back to its own wire.
fn restoring_swaps(layout: &[usize]) -> Vec<(usize, usize)> {
    let mut layout = layout.to_vec();
    let mut swaps = Vec::new();
    for wire in 0..layout.len() {
        // Every wire below `wire` already holds its own qubit.
        let home = layout[wire];
        if home != wire {
            swaps.push((wire, home));
            exchange(&mut layout, wire, home);
        }
    }
    swaps
}

/// Moves the occupants of wires `a` and `b` of `layout` onto each other's
/// wire.
fn exchange(layout: &mut [usize], a: usize, b: usize) {
    for wire in layout {
        if *wire == a {
            *wire = b;
        } else if *wire == b {
            *wire = a;
        }
    }
}

/// A router's rewrite of a circuit.
struct Routed {
    circuit: QuantumCircuit,
    /// `layout[logical] = wire` after the last gate.
    layout: Vec<usize>,
}

/// Rebuilds `circuit` as a router would: each insertion's SWAP goes in
/// before its gate, and every gate is re-emitted through the evolving map.
/// With `restore`, plain SWAPs at the end bring every qubit back to its own
/// wire (as the compiler's layout restoration does).
fn route(circuit: &QuantumCircuit, insertions: &[Insertion], restore: bool) -> Routed {
    let n = circuit.num_qubits();
    let mut layout: Vec<usize> = (0..n).collect();
    let mut ops = Vec::new();
    for index in 0..=circuit.len() {
        for insertion in insertions.iter().filter(|i| i.at == index) {
            ops.extend(triplet_ops(insertion.a, insertion.b, insertion.triplet));
            exchange(&mut layout, insertion.a, insertion.b);
        }
        let Some(op) = circuit.ops().get(index) else {
            break;
        };
        let OpKind::Unitary {
            gate,
            target,
            controls,
        } = &op.kind
        else {
            panic!("routing needs unitary circuits, found `{op}`");
        };
        let controls = controls
            .iter()
            .map(|c| QuantumControl {
                qubit: layout[c.qubit],
                positive: c.positive,
            })
            .collect();
        ops.push(Operation::unitary(*gate, layout[*target], controls));
    }
    if restore {
        for (a, b) in restoring_swaps(&layout) {
            ops.extend(triplet_ops(a, b, Triplet::Swap));
            exchange(&mut layout, a, b);
        }
    }
    Routed {
        circuit: circuit_of(n, ops),
        layout,
    }
}

/// One to four SWAPs on random wire pairs at random points of a circuit
/// with `len` gates, so the layouts they leave include cycles of every
/// length.
fn random_insertions(n: usize, len: usize, rng: &mut StdRng) -> Vec<Insertion> {
    (0..rng.gen_range(1..5))
        .map(|_| {
            let a = rng.gen_range(0..n);
            Insertion {
                at: rng.gen_range(0..len + 1),
                a,
                b: (a + rng.gen_range(1..n)) % n,
                triplet: Triplet::Swap,
            }
        })
        .collect()
}

/// The longest cycle of a permutation.
fn longest_cycle(permutation: &[usize]) -> usize {
    (0..permutation.len())
        .map(|start| {
            let mut length = 1;
            let mut wire = permutation[start];
            while wire != start {
                wire = permutation[wire];
                length += 1;
            }
            length
        })
        .max()
        .unwrap_or(0)
}

/// The verdict the dense oracle backs for a pair that is either equal or
/// clearly apart (every routed fixture here is one or the other).
fn oracle_verdict(left: &QuantumCircuit, right: &QuantumCircuit) -> Equivalence {
    let dense = oracle(left, right);
    if dense.max_diff < 1e-9 {
        Equivalence::Equivalent
    } else {
        assert!(dense.fidelity < 1.0 - 1e-6, "ambiguous fixture");
        Equivalence::NotEquivalent
    }
}

/// `original` followed by the permutation a routing left (`layout[logical]
/// = wire`), with every CNOT of its SWAPs written as H·CZ·H so that nothing
/// in it twins a routed circuit's triplets. This is the unitary of the
/// unrestored routing.
fn with_output_permutation(original: &QuantumCircuit, layout: &[usize]) -> QuantumCircuit {
    let mut circuit = original.clone();
    for (a, b) in restoring_swaps(layout).into_iter().rev() {
        for (control, target) in [(a, b), (b, a), (a, b)] {
            circuit.h(target).cz(control, target).h(target);
        }
    }
    circuit
}

/// A random circuit of 2 to 6 qubits and a router's insertions for it.
fn routing_fixture(seed: u64) -> (QuantumCircuit, Vec<Insertion>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..7usize);
    let left = random_unitary_circuit(n, rng.gen_range(8..30usize), seed);
    let insertions = random_insertions(n, left.len(), &mut rng);
    (left, insertions, rng)
}

#[test]
fn routed_layouts_get_the_oracles_verdict() {
    for seed in 0..60u64 {
        let (left, insertions, _) = routing_fixture(seed);
        let restored = route(&left, &insertions, true).circuit;
        assert!(
            oracle(&left, &restored).max_diff < 1e-9,
            "seed {seed}: bad fixture"
        );
        for (a, b) in [(&left, &restored), (&restored, &left)] {
            assert_eq!(
                verdict(a, b, Strategy::Aligned),
                Equivalence::Equivalent,
                "seed {seed}: a restored routing was not recognised"
            );
        }
        let unrestored = route(&left, &insertions, false).circuit;
        assert_eq!(
            verdict(&left, &unrestored, Strategy::Aligned),
            oracle_verdict(&left, &unrestored),
            "seed {seed}: unrestored layout"
        );
    }
}

#[test]
fn the_residual_permutation_is_multiplied_the_right_way_round() {
    // An unrestored routing is the original followed by its output
    // permutation. Written on the left with every CNOT as H·CZ·H, nothing
    // there twins the right's triplets: the left multiplies the permutation
    // in, and only a correctly directed residual cancels it. An involution
    // cannot tell the directions apart, so the run must include longer
    // cycles.
    let mut long_cycles = 0;
    for seed in 0..60u64 {
        let (original, insertions, _) = routing_fixture(seed);
        let routed = route(&original, &insertions, false);
        let left = with_output_permutation(&original, &routed.layout);
        assert!(
            oracle(&left, &routed.circuit).max_diff < 1e-9,
            "seed {seed}: bad fixture"
        );
        assert_eq!(
            verdict(&left, &routed.circuit, Strategy::Aligned),
            Equivalence::Equivalent,
            "seed {seed}: layout {:?}",
            routed.layout
        );
        if longest_cycle(&routed.layout) >= 3 {
            long_cycles += 1;
        }
    }
    assert!(
        long_cycles >= 5,
        "only {long_cycles} layouts with a 3-cycle"
    );
}

#[test]
fn near_miss_swaps_are_refuted() {
    let mut cases = 0;
    for mutation in 0..7 {
        for seed in 0..20u64 {
            let (original, mut insertions, mut rng) = routing_fixture(seed);
            let n = original.num_qubits();
            let chosen = rng.gen_range(0..insertions.len());
            let Insertion { a, b, .. } = insertions[chosen];
            insertions[chosen].triplet = match mutation {
                0..=2 => Triplet::Reversed(mutation),
                3..=5 => Triplet::Dropped(mutation - 3),
                _ => match (0..n).find(|&c| c != a && c != b) {
                    Some(c) => Triplet::WrongPair(c),
                    None => continue,
                },
            };
            let context = format!("{:?}, seed {seed}", insertions[chosen].triplet);
            // Against the unitary the routing should have kept: the original
            // when the layout is restored, the original followed by the
            // tracked output permutation when it is not.
            let restore = seed % 2 == 0;
            let Routed {
                circuit: right,
                layout,
            } = route(&original, &insertions, restore);
            let left = with_output_permutation(&original, &layout);

            // The oracle confirms the mutation changed the unitary.
            let dense = oracle(&left, &right);
            assert!(dense.max_diff > 1e-7, "{context}: mutation is a no-op");
            assert!(dense.fidelity < 1.0 - 1e-6, "{context}: weak fixture");
            for (x, y) in [(&left, &right), (&right, &left)] {
                assert_eq!(
                    verdict(x, y, Strategy::Aligned),
                    Equivalence::NotEquivalent,
                    "{context}"
                );
            }
            cases += 1;
        }
    }
    assert!(cases > 120, "only {cases} mutants");
}
