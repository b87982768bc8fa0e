//! Simulative equivalence checking with random computational-basis stimuli.
//!
//! Instead of proving `U = U'`, this checker compares the action of both
//! circuits on a set of random basis states. A single mismatch disproves
//! equivalence; agreement on all stimuli yields
//! [`Equivalence::ProbablyEquivalent`]. For circuits that differ in more than
//! a measure-zero set of inputs, very few stimuli suffice in practice — the
//! rationale behind QCEC's simulation-driven checks.
//!
//! ## Two engines, one stimulus loop
//!
//! Every check runs the same stimuli (|0…0⟩ first, then seeded random basis
//! states) and stops at the first whose fidelity falls below
//! `1 − tolerance`. The register width only selects how one stimulus's
//! fidelity is computed:
//!
//! * **Up to 12 qubits**, both circuits run on dense state vectors of `2^n`
//!   amplitudes, and the fidelity is `|Σ conj(aᵢ)·bᵢ|²`. This path allocates
//!   no decision-diagram node and never attaches to a shared store, so
//!   [`SimulativeCheck::memory`] reads zero.
//! * **Wider registers** run on the decision-diagram
//!   [`StateVectorSimulator`], attached to the race's shared store when one
//!   is given. It is the only engine that can run them.
//!
//! Why 12: one stimulus run, min-of-7 on a 2-core x86 host (release build),
//! decision diagram against a dense loop without the diagonal and
//! anti-diagonal branches:
//!
//! | input | n | DD | dense |
//! |---|---|---|---|
//! | QFT from a basis state (the DD's best case: it stays at n nodes) | 11 / 12 / 13 / 14 / 16 | 0.30 / 0.44 / 0.35 / 0.47 / 0.62 ms | 0.40 / 0.44 / 1.07 / 2.37 / 12.5 ms |
//! | `random_unitary_circuit`, 30·n gates | 8 / 11 / 12 | 59 / 1062 / 2041 ms | 0.15 / 1.32 / 2.67 ms |
//! | compiled QPE-11, `basis` pass output | 11 | 6.65 ms | 1.43 ms |
//! | the same with its first CX dropped | 11 | 59.8 ms | 1.43 ms |
//!
//! At 12 qubits the dense loop ties the DD's best case and wins the other
//! inputs by 4× to over 700×. From 13 qubits on it loses the best case by
//! 3× or more. Diagonal gates (phases, `rz`, `z`, controlled phases) take a
//! multiply-only branch and anti-diagonal ones (`x`, `y`, CX) a
//! swap-and-scale branch; without them QFT-shaped stimuli run 20–25% slower
//! than on the DD.
//!
//! ## Budgets
//!
//! The DD path observes the [`Budget`] inside its package. The dense path
//! allocates no node, so it polls the cancel token and the deadline itself
//! every 32 gates; at 12 qubits a gate costs microseconds. The budget's node
//! limit does not apply to the dense path: its memory is bounded by two
//! vectors of `2^12` amplitudes (128 KiB) per stimulus.

use crate::equivalence::{Configuration, Equivalence};
use crate::unitary::CheckError;
use circuit::{OpKind, QuantumCircuit, QuantumControl};
use dd::{Budget, Complex, GateMatrix, LimitExceeded};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::{SimError, StateVectorSimulator};
use std::time::{Duration, Instant};

/// Widest register whose stimuli run on dense state vectors rather than on
/// decision diagrams (see the sweep in the module docs).
const DENSE_QUBITS: usize = 12;

/// Outcome of a simulative equivalence check.
#[derive(Debug, Clone)]
pub struct SimulativeCheck {
    /// The verdict: [`Equivalence::ProbablyEquivalent`] or
    /// [`Equivalence::NotEquivalent`].
    pub equivalence: Equivalence,
    /// Number of stimuli that were simulated.
    pub runs: usize,
    /// Worst (lowest) state fidelity observed across the stimuli.
    pub min_fidelity: f64,
    /// Wall-clock time of the check.
    pub duration: Duration,
    /// Aggregated decision-diagram memory telemetry of all simulator runs.
    /// Reads zero when the register is narrow enough for the dense path
    /// (at most 12 qubits, see the module docs), which allocates no node.
    pub memory: dd::MemoryStats,
}

/// Compares the action of two unitary circuits on random computational-basis
/// states.
///
/// # Errors
///
/// [`CheckError::RegisterMismatch`] when the register sizes differ,
/// [`CheckError::NonUnitaryCircuit`] when either circuit contains dynamic
/// primitives (reconstruct first).
pub fn check_simulative_equivalence(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
) -> Result<SimulativeCheck, CheckError> {
    check_simulative_equivalence_with(left, right, config, &Budget::unlimited())
}

/// Maps a simulator failure onto the checker's error type, keeping budget
/// interruptions distinguishable from genuinely unsupported circuits.
fn run_error(which: &'static str, error: SimError) -> CheckError {
    match error {
        SimError::Interrupted(reason) => CheckError::LimitExceeded(reason),
        other => CheckError::NonUnitaryCircuit {
            which,
            operation: other.to_string(),
        },
    }
}

/// Budget-aware variant of [`check_simulative_equivalence`].
///
/// The budget's cancel token is checked between stimuli and inside each
/// simulation run, so a cancelled check returns quickly even mid-circuit.
/// The node limit binds only the decision-diagram path (registers above 12
/// qubits); the dense path's memory is bounded by its width.
///
/// # Errors
///
/// Same as [`check_simulative_equivalence`], plus
/// [`CheckError::LimitExceeded`] when the budget stops the check.
pub fn check_simulative_equivalence_with(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
    budget: &Budget,
) -> Result<SimulativeCheck, CheckError> {
    check_simulative_equivalence_in(left, right, config, budget, None)
}

/// [`check_simulative_equivalence_with`] with an optional shared
/// decision-diagram store (see [`dd::SharedStore`]): both simulators attach
/// as workspaces, so the gate diagrams they build are shared with each other
/// and with every other racing scheme. Registers of at most 12 qubits run on
/// dense vectors and leave the store alone.
///
/// # Errors
///
/// Same as [`check_simulative_equivalence_with`].
pub fn check_simulative_equivalence_in(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
    budget: &Budget,
    store: Option<&std::sync::Arc<dd::SharedStore>>,
) -> Result<SimulativeCheck, CheckError> {
    if left.num_qubits() != right.num_qubits() {
        return Err(CheckError::RegisterMismatch {
            left: left.num_qubits(),
            right: right.num_qubits(),
        });
    }
    let start = Instant::now();
    let n = left.num_qubits();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut min_fidelity = 1.0f64;
    let mut runs = 0;
    let mut memory = dd::MemoryStats::default();

    let left_unitary = left.without_measurements();
    let right_unitary = right.without_measurements();

    for run in 0..config.simulation_runs.max(1) {
        if budget.is_cancelled() {
            return Err(CheckError::LimitExceeded(LimitExceeded::Cancelled));
        }
        // The first stimulus is always |0…0⟩ (the most common fixed input);
        // the remaining stimuli are random basis states.
        let bits: Vec<bool> = if run == 0 {
            vec![false; n]
        } else {
            (0..n).map(|_| rng.r#gen::<bool>()).collect()
        };
        let fidelity = if n <= DENSE_QUBITS {
            let stimulus = bits
                .iter()
                .enumerate()
                .fold(0, |index, (q, &bit)| index | usize::from(bit) << q);
            let left_state =
                dense_run(&left_unitary, n, stimulus, budget).map_err(|e| run_error("left", e))?;
            let right_state = dense_run(&right_unitary, n, stimulus, budget)
                .map_err(|e| run_error("right", e))?;
            dense_fidelity(&left_state, &right_state)
        } else {
            // Both stimulus runs share one simulator (one package, one
            // shared-store attachment): a thread can only park one workspace
            // at a GC safe point, so a second simultaneous attachment would
            // stall the store's mid-race barrier collections into their
            // deferral fallback.
            let mut sim = StateVectorSimulator::with_memory_and_initial_state_in(
                &bits,
                budget.clone(),
                config.memory,
                store,
            );
            sim.run(&left_unitary).map_err(|e| run_error("left", e))?;
            let fidelity = sim
                .fidelity_with_rerun(&right_unitary, &bits)
                .map_err(|e| run_error("right", e))?;
            memory = memory.merged_with(&sim.memory_stats());
            fidelity
        };
        min_fidelity = min_fidelity.min(fidelity);
        runs += 1;
        if fidelity < 1.0 - config.tolerance {
            return Ok(SimulativeCheck {
                equivalence: Equivalence::NotEquivalent,
                runs,
                min_fidelity,
                duration: start.elapsed(),
                memory,
            });
        }
    }

    Ok(SimulativeCheck {
        equivalence: Equivalence::ProbablyEquivalent,
        runs,
        min_fidelity,
        duration: start.elapsed(),
        memory,
    })
}

/// Runs `circuit` on the basis state with index `stimulus` (bit `q` is
/// qubit `q`) as a dense vector of `2^n` amplitudes.
///
/// Polls the budget's cancel token and deadline every 32 gates, and rejects
/// what the decision-diagram simulator rejects: resets and classically
/// controlled operations.
fn dense_run(
    circuit: &QuantumCircuit,
    n: usize,
    stimulus: usize,
    budget: &Budget,
) -> Result<Vec<Complex>, SimError> {
    let mut state = vec![Complex::ZERO; 1 << n];
    state[stimulus] = Complex::ONE;
    for (index, op) in circuit.ops().iter().enumerate() {
        if index % 32 == 0 {
            if budget.is_cancelled() {
                return Err(SimError::Interrupted(LimitExceeded::Cancelled));
            }
            if budget.deadline_exceeded() {
                return Err(SimError::Interrupted(LimitExceeded::Deadline));
            }
        }
        match (&op.kind, op.condition) {
            (
                OpKind::Unitary {
                    gate,
                    target,
                    controls,
                },
                None,
            ) => apply_dense(&mut state, &sim::gate_matrix(*gate), *target, controls),
            (OpKind::Barrier | OpKind::Measure { .. }, None) => {}
            _ => {
                return Err(SimError::UnsupportedOperation {
                    operation: op.to_string(),
                    context: "state-vector simulation",
                })
            }
        }
    }
    Ok(state)
}

/// State fidelity `|Σ conj(aᵢ)·bᵢ|²` of two dense vectors.
fn dense_fidelity(left: &[Complex], right: &[Complex]) -> f64 {
    left.iter()
        .zip(right)
        .fold(Complex::ZERO, |overlap, (a, b)| overlap + a.conj() * *b)
        .norm_sqr()
}

/// Applies `matrix` to qubit `target` of a dense state, on the amplitudes
/// whose `controls` hold. Diagonal and anti-diagonal matrices skip the
/// multiplications by zero.
fn apply_dense(
    state: &mut [Complex],
    matrix: &GateMatrix,
    target: usize,
    controls: &[QuantumControl],
) {
    let [[u00, u01], [u10, u11]] = *matrix;
    if u01 == Complex::ZERO && u10 == Complex::ZERO {
        for_each_pair(state, target, controls, |zero, one| {
            *zero = u00 * *zero;
            *one = u11 * *one;
        });
    } else if u00 == Complex::ZERO && u11 == Complex::ZERO {
        for_each_pair(state, target, controls, |zero, one| {
            (*zero, *one) = (u01 * *one, u10 * *zero);
        });
    } else {
        for_each_pair(state, target, controls, |zero, one| {
            (*zero, *one) = (u00 * *zero + u01 * *one, u10 * *zero + u11 * *one);
        });
    }
}

/// Calls `update` on every amplitude pair that differs only in qubit
/// `target` (its |0⟩ and |1⟩ amplitude, in that order) and satisfies
/// `controls`.
///
/// The state splits into chunks of `2^(target+1)` amplitudes whose lower
/// half has the target at |0⟩. Controls above the target are constant over
/// a chunk and skip whole chunks; controls below it are tested per pair.
fn for_each_pair(
    state: &mut [Complex],
    target: usize,
    controls: &[QuantumControl],
    mut update: impl FnMut(&mut Complex, &mut Complex),
) {
    let half = 1usize << target;
    let (mut high_mask, mut high_value, mut low_mask, mut low_value) = (0, 0, 0, 0);
    for control in controls {
        let bit = 1usize << control.qubit;
        let value = if control.positive { bit } else { 0 };
        if control.qubit > target {
            high_mask |= bit;
            high_value |= value;
        } else {
            low_mask |= bit;
            low_value |= value;
        }
    }
    for (chunk_index, chunk) in state.chunks_exact_mut(2 * half).enumerate() {
        if (chunk_index * 2 * half) & high_mask != high_value {
            continue;
        }
        let (zeros, ones) = chunk.split_at_mut(half);
        for (offset, (zero, one)) in zeros.iter_mut().zip(ones).enumerate() {
            if offset & low_mask == low_value {
                update(zero, one);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorithms::{ghz, qft, random};
    use circuit::StandardGate;

    /// GHZ built from Hadamard-conjugated CZs instead of CXs.
    fn ghz_via_cz(n: usize) -> QuantumCircuit {
        let mut circuit = circuit::QuantumCircuit::new(n, 0);
        circuit.h(0);
        for q in 1..n {
            circuit.h(q).cz(q - 1, q).h(q);
        }
        circuit
    }

    #[test]
    fn equivalent_circuits_pass_all_stimuli() {
        let check = check_simulative_equivalence(
            &ghz::ghz(5, false),
            &ghz_via_cz(5),
            &Configuration::default(),
        )
        .unwrap();
        assert_eq!(check.equivalence, Equivalence::ProbablyEquivalent);
        assert!(check.min_fidelity > 1.0 - 1e-9);
        assert_eq!(check.runs, Configuration::default().simulation_runs);
    }

    #[test]
    fn different_circuits_are_detected() {
        let a = random::random_unitary_circuit(4, 20, 1);
        let mut b = a.clone();
        b.x(0);
        let check = check_simulative_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
        assert!(check.runs <= Configuration::default().simulation_runs);
    }

    #[test]
    fn phase_oracle_difference_requires_superposition_to_show_up() {
        // A circuit differing only by a CZ behaves identically on basis
        // states that never set both qubits; the first stimulus |00⟩ cannot
        // distinguish them, later random stimuli may. This documents the
        // "probably" in ProbablyEquivalent.
        let mut a = circuit::QuantumCircuit::new(2, 0);
        a.h(0);
        let mut b = circuit::QuantumCircuit::new(2, 0);
        b.h(0);
        b.cz(0, 1);
        let config = Configuration {
            simulation_runs: 16,
            ..Default::default()
        };
        let check = check_simulative_equivalence(&a, &b, &config).unwrap();
        // |x1⟩ stimuli reveal the difference; with 16 runs this is
        // overwhelmingly likely.
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
    }

    #[test]
    fn register_mismatch_is_rejected() {
        let a = ghz::ghz(3, false);
        let b = ghz::ghz(5, false);
        assert!(matches!(
            check_simulative_equivalence(&a, &b, &Configuration::default()),
            Err(CheckError::RegisterMismatch { .. })
        ));
    }

    /// A seeded random circuit plus multi-controlled gates whose controls sit
    /// above and below the target with either polarity, over diagonal,
    /// anti-diagonal and dense matrices.
    fn mixed_circuit(n: usize, seed: u64) -> QuantumCircuit {
        let mut circuit = random::random_unitary_circuit(n, 6 * n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let gates = [
            StandardGate::X,
            StandardGate::Y,
            StandardGate::Z,
            StandardGate::H,
            StandardGate::Phase(0.7),
            StandardGate::Rz(-1.3),
            StandardGate::U(0.4, 1.1, -0.6),
        ];
        for step in 0..4 * n {
            let target = rng.gen_range(0..n);
            let mut controls = Vec::new();
            for qubit in (0..n).filter(|&q| q != target) {
                if rng.gen_range(0..3) == 0 {
                    let positive = rng.r#gen::<bool>();
                    controls.push(QuantumControl { qubit, positive });
                }
            }
            circuit.controlled_gate(gates[step % gates.len()], target, controls);
        }
        circuit
    }

    fn dd_amplitudes(circuit: &QuantumCircuit, stimulus: usize) -> Vec<Complex> {
        let bits: Vec<bool> = (0..circuit.num_qubits())
            .map(|q| stimulus >> q & 1 == 1)
            .collect();
        let mut sim = StateVectorSimulator::with_initial_state(&bits);
        sim.run(circuit).unwrap();
        sim.amplitudes()
    }

    #[test]
    fn dense_amplitudes_match_the_decision_diagram() {
        let mut negative_controls = 0;
        for n in 1..=8 {
            for seed in 0..3 {
                let circuit = mixed_circuit(n, 100 * n as u64 + seed);
                negative_controls += circuit
                    .ops()
                    .iter()
                    .filter(|op| {
                        matches!(&op.kind, OpKind::Unitary { controls, .. }
                            if controls.iter().any(|c| !c.positive))
                    })
                    .count();
                for stimulus in [0, (1 << n) - 1, (0x2d5 * (seed as usize + 1)) % (1 << n)] {
                    let dense = dense_run(&circuit, n, stimulus, &Budget::unlimited()).unwrap();
                    let reference = dd_amplitudes(&circuit, stimulus);
                    assert_eq!(dense.len(), reference.len());
                    for (i, (a, b)) in dense.iter().zip(&reference).enumerate() {
                        assert!(
                            a.approx_eq_with(*b, 1e-10),
                            "n={n} seed={seed} stimulus={stimulus} amplitude {i}: {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
        assert!(negative_controls > 0);
    }

    #[test]
    fn dense_fidelity_matches_the_decision_diagram() {
        for seed in 0..4 {
            let a = mixed_circuit(5, seed);
            let b = mixed_circuit(5, seed + 50);
            let stimulus = 0b10110;
            let budget = Budget::unlimited();
            let dense = dense_fidelity(
                &dense_run(&a, 5, stimulus, &budget).unwrap(),
                &dense_run(&b, 5, stimulus, &budget).unwrap(),
            );
            let bits = [false, true, true, false, true];
            let mut left = StateVectorSimulator::with_initial_state(&bits);
            left.run(&a).unwrap();
            let mut right = StateVectorSimulator::with_initial_state(&bits);
            right.run(&b).unwrap();
            assert!(
                (dense - left.fidelity_with(&right)).abs() < 1e-10,
                "seed {seed}"
            );
            assert!(dense < 1.0 - 1e-6, "distinct random circuits, seed {seed}");
        }
    }

    #[test]
    fn a_complex_valued_circuit_matches_itself_on_the_dense_path() {
        // Random rotations leave complex amplitudes, so the overlap needs
        // its conjugate to come out at 1.
        let a = mixed_circuit(6, 9);
        let check =
            check_simulative_equivalence(&a, &a.clone(), &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::ProbablyEquivalent);
        assert!(check.min_fidelity > 1.0 - 1e-9);
        assert_eq!(check.memory.allocated_nodes, 0);
    }

    #[test]
    fn register_width_selects_the_engine() {
        let config = Configuration::default();
        let dense =
            check_simulative_equivalence(&ghz::ghz(12, false), &ghz_via_cz(12), &config).unwrap();
        assert_eq!(dense.equivalence, Equivalence::ProbablyEquivalent);
        assert_eq!(dense.memory.allocated_nodes, 0);
        let diagram =
            check_simulative_equivalence(&ghz::ghz(13, false), &ghz_via_cz(13), &config).unwrap();
        assert_eq!(diagram.equivalence, Equivalence::ProbablyEquivalent);
        assert_eq!(diagram.runs, config.simulation_runs);
        assert!(diagram.memory.allocated_nodes > 0);
    }

    #[test]
    fn the_decision_diagram_path_refutes_wide_registers() {
        // A 14-qubit QFT missing one controlled phase: |0…0⟩ cannot see the
        // phase (its controls stay at |0⟩ when it acts), later stimuli do.
        let reference = qft::qft_static(14, None, false);
        let dropped = reference
            .ops()
            .iter()
            .position(
                |op| matches!(&op.kind, OpKind::Unitary { controls, .. } if !controls.is_empty()),
            )
            .unwrap();
        let mut broken = circuit::QuantumCircuit::new(14, 0);
        for (index, op) in reference.ops().iter().enumerate() {
            if index != dropped {
                broken.push(op.clone());
            }
        }
        let check =
            check_simulative_equivalence(&reference, &broken, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
        assert!(check.runs > 1);
        assert!(check.memory.allocated_nodes > 0);
    }

    #[test]
    fn the_dense_path_observes_the_budget() {
        let a = mixed_circuit(6, 3);
        let config = Configuration::default();
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        assert!(matches!(
            check_simulative_equivalence_with(&a, &a, &config, &expired),
            Err(CheckError::LimitExceeded(LimitExceeded::Deadline))
        ));
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(matches!(
            check_simulative_equivalence_with(&a, &a, &config, &cancelled),
            Err(CheckError::LimitExceeded(LimitExceeded::Cancelled))
        ));
        // Inside a run, too, not only between stimuli.
        assert_eq!(
            dense_run(&a, 6, 0, &cancelled),
            Err(SimError::Interrupted(LimitExceeded::Cancelled))
        );
        // The node limit binds only the decision diagrams.
        let capped = Budget::unlimited().with_node_limit(1);
        let check = check_simulative_equivalence_with(&a, &a, &config, &capped).unwrap();
        assert_eq!(check.equivalence, Equivalence::ProbablyEquivalent);
    }

    #[test]
    fn both_engines_reject_dynamic_primitives_alike() {
        let mut dynamic = circuit::QuantumCircuit::new(3, 1);
        dynamic.h(0).cx(0, 1).reset(1);
        let mut conditioned = circuit::QuantumCircuit::new(3, 1);
        conditioned.h(0).x_if(2, 0);
        for circuit in [dynamic, conditioned] {
            let dense = run_error(
                "right",
                dense_run(&circuit, 3, 0, &Budget::unlimited()).unwrap_err(),
            );
            let mut sim = StateVectorSimulator::new(3);
            let diagram = run_error("right", sim.run(&circuit).unwrap_err());
            assert_eq!(dense, diagram);
            assert!(matches!(
                check_simulative_equivalence(
                    &ghz::ghz(3, false),
                    &circuit,
                    &Configuration::default()
                ),
                Err(CheckError::NonUnitaryCircuit { which: "right", .. })
            ));
        }
    }

    #[test]
    fn deterministic_in_the_seed() {
        let a = random::random_unitary_circuit(3, 15, 7);
        let b = random::random_unitary_circuit(3, 15, 8);
        let config = Configuration::default();
        let first = check_simulative_equivalence(&a, &b, &config).unwrap();
        let second = check_simulative_equivalence(&a, &b, &config).unwrap();
        assert_eq!(first.equivalence, second.equivalence);
        assert_eq!(first.runs, second.runs);
    }
}
