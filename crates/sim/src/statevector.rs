//! Decision-diagram based state-vector simulation of unitary circuits.

use crate::distribution::OutcomeDistribution;
use crate::error::SimError;
use crate::gate_map;
use circuit::{OpKind, Operation, QuantumCircuit};
use dd::{Complex, DdPackage, VEdge};

/// A Schrödinger-style simulator representing the state as a vector decision
/// diagram.
///
/// The simulator handles unitary operations and *trailing* measurements (the
/// structure of the paper's static benchmark circuits). Mid-circuit
/// non-unitary primitives are rejected — that is exactly the gap the
/// extraction scheme in [`crate::extract_distribution`] fills.
///
/// # Examples
///
/// ```
/// use algorithms::ghz;
/// use sim::StateVectorSimulator;
///
/// let circuit = ghz::ghz(3, true);
/// let mut sim = StateVectorSimulator::new(3);
/// sim.run(&circuit)?;
/// let dist = sim.outcome_distribution();
/// assert_eq!(dist.len(), 2); // |000⟩ and |111⟩
/// # Ok::<(), sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct StateVectorSimulator {
    package: DdPackage,
    state: VEdge,
    n_qubits: usize,
    /// (qubit, bit) pairs recorded from measurement operations.
    measurements: Vec<(usize, usize)>,
    n_bits: usize,
    applied_gates: usize,
}

impl StateVectorSimulator {
    /// Creates a simulator for `n_qubits` qubits in the all-zeros state.
    pub fn new(n_qubits: usize) -> Self {
        StateVectorSimulator::with_budget(n_qubits, dd::Budget::unlimited())
    }

    /// Creates a simulator initialised to the computational basis state given
    /// by `bits` (`bits[q]` is the value of qubit `q`).
    pub fn with_initial_state(bits: &[bool]) -> Self {
        let mut sim = StateVectorSimulator::new(bits.len());
        let initial = sim.package.basis_state(bits);
        sim.set_state(initial);
        sim
    }

    /// Creates a simulator whose decision-diagram package observes `budget`
    /// (see [`DdPackage::with_budget`]): [`run`](Self::run) then stops with
    /// [`SimError::Interrupted`] when the budget's cancel token fires, its
    /// deadline passes or its node limit trips.
    pub fn with_budget(n_qubits: usize, budget: dd::Budget) -> Self {
        StateVectorSimulator::with_budget_in(n_qubits, budget, None)
    }

    /// [`with_budget`](Self::with_budget), optionally attaching the
    /// simulator's package as a workspace of a shared decision-diagram store
    /// (see [`dd::SharedStore`]) so racing verification schemes reuse each
    /// other's subdiagrams.
    pub fn with_budget_in(
        n_qubits: usize,
        budget: dd::Budget,
        store: Option<&std::sync::Arc<dd::SharedStore>>,
    ) -> Self {
        StateVectorSimulator::with_memory_in(n_qubits, budget, dd::MemoryConfig::default(), store)
    }

    /// [`with_budget_in`](Self::with_budget_in) with explicit
    /// [`dd::MemoryConfig`] sizing for the simulator's package — the hook
    /// through which a check's [`MemoryConfig`](dd::MemoryConfig) reaches
    /// the simulative check.
    pub fn with_memory_in(
        n_qubits: usize,
        budget: dd::Budget,
        memory: dd::MemoryConfig,
        store: Option<&std::sync::Arc<dd::SharedStore>>,
    ) -> Self {
        let mut package = DdPackage::with_store_config(store, n_qubits, budget, memory);
        let state = package.zero_state();
        // The current state is the garbage-collection root of the simulator:
        // everything else the package holds may be reclaimed between gates.
        package.protect_vector(state);
        StateVectorSimulator {
            package,
            state,
            n_qubits,
            measurements: Vec::new(),
            n_bits: 0,
            applied_gates: 0,
        }
    }

    /// Combines [`with_budget`](Self::with_budget) and
    /// [`with_initial_state`](Self::with_initial_state), with explicit
    /// [`dd::MemoryConfig`] sizing and an optional shared decision-diagram
    /// store.
    pub fn with_memory_and_initial_state_in(
        bits: &[bool],
        budget: dd::Budget,
        memory: dd::MemoryConfig,
        store: Option<&std::sync::Arc<dd::SharedStore>>,
    ) -> Self {
        let mut sim = StateVectorSimulator::with_memory_in(bits.len(), budget, memory, store);
        let initial = sim.package.basis_state(bits);
        sim.set_state(initial);
        sim
    }

    /// Replaces the current state, moving the garbage-collection protection
    /// from the old edge to the new one.
    fn set_state(&mut self, state: VEdge) {
        self.package.unprotect_vector(self.state);
        self.package.protect_vector(state);
        self.state = state;
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of unitary gates applied so far.
    pub fn applied_gates(&self) -> usize {
        self.applied_gates
    }

    /// The decision-diagram package backing this simulator.
    pub fn package_mut(&mut self) -> &mut DdPackage {
        &mut self.package
    }

    /// The current state as a decision-diagram edge.
    pub fn state(&self) -> VEdge {
        self.state
    }

    /// Applies a single operation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedOperation`] for resets and
    /// classically-controlled operations. Measurements are *recorded* (for
    /// [`outcome_distribution`](Self::outcome_distribution)) but do not alter
    /// the state; they are only valid as the trailing operations of a static
    /// circuit.
    pub fn apply(&mut self, op: &Operation) -> Result<(), SimError> {
        if op.condition.is_some() {
            return Err(SimError::UnsupportedOperation {
                operation: op.to_string(),
                context: "state-vector simulation",
            });
        }
        match &op.kind {
            OpKind::Barrier => Ok(()),
            OpKind::Unitary {
                gate,
                target,
                controls,
            } => {
                let matrix = gate_map::gate_matrix(*gate);
                let dd_controls = gate_map::controls(controls);
                let next = self
                    .package
                    .apply_gate(self.state, &matrix, *target, &dd_controls);
                self.set_state(next);
                self.applied_gates += 1;
                Ok(())
            }
            OpKind::Measure { qubit, bit } => {
                self.measurements.push((*qubit, *bit));
                self.n_bits = self.n_bits.max(bit + 1);
                Ok(())
            }
            OpKind::Reset { qubit } => Err(SimError::UnsupportedOperation {
                operation: format!("reset q[{qubit}]"),
                context: "state-vector simulation",
            }),
        }
    }

    /// Runs all operations of `circuit`.
    ///
    /// # Errors
    ///
    /// See [`apply`](Self::apply). The circuit must act on at most the
    /// simulator's qubit count.
    pub fn run(&mut self, circuit: &QuantumCircuit) -> Result<(), SimError> {
        if circuit.num_qubits() > self.n_qubits {
            return Err(SimError::InitialStateMismatch {
                expected: circuit.num_qubits(),
                provided: self.n_qubits,
            });
        }
        self.n_bits = self.n_bits.max(circuit.num_bits());
        for op in circuit.ops() {
            self.apply(op)?;
            if let Some(reason) = self.package.limit_exceeded() {
                return Err(SimError::Interrupted(reason));
            }
        }
        Ok(())
    }

    /// Amplitude of a computational basis state (index bit `q` = qubit `q`).
    pub fn amplitude(&self, basis_index: usize) -> Complex {
        self.package.amplitude(self.state, basis_index)
    }

    /// Dense amplitude vector (only for small registers; see
    /// [`DdPackage::amplitudes`]).
    pub fn amplitudes(&self) -> Vec<Complex> {
        self.package.amplitudes(self.state)
    }

    /// Measurement probabilities of a single qubit.
    pub fn probabilities(&mut self, qubit: usize) -> (f64, f64) {
        self.package.probabilities(self.state, qubit)
    }

    /// Squared norm of the current state (should stay 1 under unitary
    /// evolution).
    pub fn norm_sqr(&mut self) -> f64 {
        self.package.norm_sqr(self.state)
    }

    /// Number of decision-diagram nodes of the current state.
    pub fn state_size(&self) -> usize {
        self.package.vector_size(self.state)
    }

    /// Memory telemetry of the backing decision-diagram package.
    pub fn memory_stats(&self) -> dd::MemoryStats {
        self.package.memory_stats()
    }

    /// Fidelity `|⟨self|other⟩|²` with another simulator state over the same
    /// qubit count.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity_with(&mut self, other: &StateVectorSimulator) -> f64 {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit count mismatch");
        // Rebuild the other state in this package via its amplitude decision
        // diagram structure: walk the other's DD and re-intern it here.
        let rebuilt = clone_state_into(&mut self.package, &other.package, other.state);
        self.package.fidelity(self.state, rebuilt)
    }

    /// Runs `circuit` from the basis state `bits` *in this simulator's own
    /// package* and returns the fidelity `|⟨before|after⟩|²` between the
    /// state held before the call and the rerun's final state (which also
    /// becomes the current state).
    ///
    /// Compared to running a second simulator and
    /// [`fidelity_with`](Self::fidelity_with), this keeps a single
    /// decision-diagram package
    /// alive — on a shared store, a single *attachment*, which matters for
    /// the store's barrier garbage collection: a thread can only park one
    /// workspace at a safe point, so a second simultaneous attachment on
    /// the same thread would stall mid-race collections into the deferral
    /// fallback.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run); on error the current state is the rerun's
    /// partial state and the previous state is released.
    pub fn fidelity_with_rerun(
        &mut self,
        circuit: &QuantumCircuit,
        bits: &[bool],
    ) -> Result<f64, SimError> {
        let previous = self.state;
        // Keep the finished state alive across the rerun's collections (the
        // rerun's states take over the simulator's own protection slot).
        self.package.protect_vector(previous);
        let fresh = self.package.basis_state(bits);
        self.set_state(fresh);
        let outcome = self.run(circuit);
        let fidelity = outcome.map(|()| self.package.fidelity(previous, self.state));
        self.package.unprotect_vector(previous);
        fidelity
    }

    /// Probability distribution over the recorded measurements.
    ///
    /// The distribution ranges over the classical bits of the circuits run so
    /// far (at least every bit written by a measurement). Classical bits that
    /// are never measured read 0. Unmeasured qubits are traced out. Branches
    /// whose probability mass is below `1e-12` are pruned, so sparse states
    /// produce small distributions even on wide registers.
    pub fn outcome_distribution(&mut self) -> OutcomeDistribution {
        let n_bits = self
            .measurements
            .iter()
            .map(|&(_, b)| b + 1)
            .max()
            .unwrap_or(0)
            .max(self.n_bits);
        let mut dist = OutcomeDistribution::new(n_bits);
        // For every classical bit, the *last* measurement writing it wins;
        // earlier writers are traced out. A single qubit may determine
        // several bits, so the map is qubit → bits.
        let mut winner_of_bit: Vec<Option<usize>> = vec![None; n_bits];
        for &(q, b) in &self.measurements {
            winner_of_bit[b] = Some(q);
        }
        let mut bits_of_qubit: Vec<Vec<usize>> = vec![Vec::new(); self.n_qubits];
        for (b, winner) in winner_of_bit.iter().enumerate() {
            if let Some(q) = winner {
                bits_of_qubit[*q].push(b);
            }
        }
        let mut outcome = vec![false; n_bits];
        let state = self.state;
        self.enumerate(
            state,
            self.n_qubits,
            1.0,
            &bits_of_qubit,
            &mut outcome,
            &mut dist,
        );
        dist
    }

    fn enumerate(
        &mut self,
        edge: VEdge,
        level: usize,
        path_weight_sqr: f64,
        bits_of_qubit: &[Vec<usize>],
        outcome: &mut Vec<bool>,
        dist: &mut OutcomeDistribution,
    ) {
        const PRUNE: f64 = 1e-12;
        let mass = path_weight_sqr * self.package.norm_sqr(edge);
        if mass < PRUNE {
            return;
        }
        if level == 0 {
            dist.add(outcome.clone(), mass);
            return;
        }
        let qubit = level - 1;
        if edge.is_zero() {
            return;
        }
        let node_weight = self.package.vweight(edge).norm_sqr();
        let node = edge;
        // Children of the node at this level.
        let (child0, child1) = {
            let amps_level = self.package.vedge_level(node).expect("non-terminal");
            debug_assert_eq!(amps_level as usize, qubit);
            self.children_of(node)
        };
        let bits = &bits_of_qubit[qubit];
        if bits.is_empty() {
            // Traced-out qubit: accumulate both branches into the same
            // outcome.
            for child in [child0, child1] {
                self.enumerate(
                    child,
                    level - 1,
                    path_weight_sqr * node_weight,
                    bits_of_qubit,
                    outcome,
                    dist,
                );
            }
        } else {
            for (value, child) in [(false, child0), (true, child1)] {
                for &bit in bits {
                    outcome[bit] = value;
                }
                self.enumerate(
                    child,
                    level - 1,
                    path_weight_sqr * node_weight,
                    bits_of_qubit,
                    outcome,
                    dist,
                );
            }
            for &bit in bits {
                outcome[bit] = false;
            }
        }
    }

    fn children_of(&self, edge: VEdge) -> (VEdge, VEdge) {
        // Safe: only called on non-terminal edges.
        let amps = self.package.vector_children(edge);
        (amps[0], amps[1])
    }
}

/// Re-creates the decision diagram `state` (owned by `source`) inside
/// `target`, preserving amplitudes.
fn clone_state_into(target: &mut DdPackage, source: &DdPackage, state: VEdge) -> VEdge {
    fn rec(target: &mut DdPackage, source: &DdPackage, edge: VEdge, level: usize) -> VEdge {
        if edge.is_zero() {
            return VEdge::ZERO;
        }
        if level == 0 {
            let w = target.intern(source.vweight(edge));
            return VEdge::terminal(w);
        }
        let children = source.vector_children(edge);
        let lo = rec(target, source, children[0], level - 1);
        let hi = rec(target, source, children[1], level - 1);
        let node = target.make_vnode((level - 1) as u16, [lo, hi]);
        let w = target.intern(source.vweight(edge));
        let scaled = target.intern(target.value(node.weight) * target.value(w));
        VEdge::new(node.node, scaled)
    }
    rec(target, source, state, source.n_qubits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorithms::{bv, ghz, qpe};

    #[test]
    fn ghz_state_distribution() {
        let circuit = ghz::ghz(4, true);
        let mut sim = StateVectorSimulator::new(4);
        sim.run(&circuit).expect("unitary circuit");
        assert!((sim.norm_sqr() - 1.0).abs() < 1e-10);
        let dist = sim.outcome_distribution();
        assert_eq!(dist.len(), 2);
        assert!((dist.probability(&[false; 4]) - 0.5).abs() < 1e-10);
        assert!((dist.probability(&[true; 4]) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn bv_static_recovers_hidden_string() {
        let hidden = vec![true, false, true, true, false];
        let circuit = bv::bv_static(&hidden, true);
        let mut sim = StateVectorSimulator::new(circuit.num_qubits());
        sim.run(&circuit).expect("unitary circuit");
        let dist = sim.outcome_distribution();
        assert_eq!(dist.len(), 1);
        let (outcome, p) = dist.most_probable().expect("deterministic outcome");
        assert!((p - 1.0).abs() < 1e-9);
        assert_eq!(outcome, &hidden);
    }

    #[test]
    fn qpe_static_peaks_at_exact_phase() {
        // θ = 0.101₂ = 5/8 → φ = 2π · 5/8.
        let pattern = [true, false, true];
        let phi = qpe::phase_from_bits(&pattern);
        let circuit = qpe::qpe_static(phi, 3, true);
        let mut sim = StateVectorSimulator::new(circuit.num_qubits());
        sim.run(&circuit).expect("unitary circuit");
        let dist = sim.outcome_distribution();
        let (outcome, p) = dist.most_probable().expect("non-empty");
        assert!(
            p > 0.99,
            "exact phase should be recovered with certainty, got {p}"
        );
        // Classical bit k holds the k-th most significant fractional bit.
        let estimate: Vec<bool> = outcome.clone();
        assert_eq!(estimate.len(), 3);
        assert_eq!(
            &estimate[..],
            &pattern[..],
            "estimate should equal the phase bits"
        );
    }

    #[test]
    fn rejects_resets_and_conditions() {
        let mut qc = QuantumCircuit::new(1, 1);
        qc.reset(0);
        let mut sim = StateVectorSimulator::new(1);
        assert!(matches!(
            sim.run(&qc),
            Err(SimError::UnsupportedOperation { .. })
        ));

        let mut qc2 = QuantumCircuit::new(1, 1);
        qc2.x_if(0, 0);
        let mut sim2 = StateVectorSimulator::new(1);
        assert!(matches!(
            sim2.run(&qc2),
            Err(SimError::UnsupportedOperation { .. })
        ));
    }

    #[test]
    fn initial_state_constructor() {
        let sim = StateVectorSimulator::with_initial_state(&[true, false, true]);
        assert!(sim.amplitude(0b101).is_one());
    }

    #[test]
    fn fidelity_between_simulators() {
        let mut a = StateVectorSimulator::new(2);
        let mut b = StateVectorSimulator::new(2);
        let circuit = ghz::ghz(2, false);
        a.run(&circuit).unwrap();
        b.run(&circuit).unwrap();
        assert!((a.fidelity_with(&b) - 1.0).abs() < 1e-9);

        let mut c = StateVectorSimulator::new(2);
        c.run(&ghz::ghz_log_depth(2, false)).unwrap();
        assert!((a.fidelity_with(&c) - 1.0).abs() < 1e-9);

        let mut d = StateVectorSimulator::new(2);
        let mut flip = QuantumCircuit::new(2, 0);
        flip.x(0);
        d.run(&flip).unwrap();
        assert!(a.fidelity_with(&d) < 0.6);
    }

    #[test]
    fn fidelity_with_rerun_matches_two_simulator_fidelity() {
        let n = 3;
        let circuit = ghz::ghz(n, false);
        let alt = ghz::ghz_log_depth(n, false);
        let bits = vec![false; n];

        let mut two_sim_a = StateVectorSimulator::with_initial_state(&bits);
        two_sim_a.run(&circuit).unwrap();
        let mut two_sim_b = StateVectorSimulator::with_initial_state(&bits);
        two_sim_b.run(&alt).unwrap();
        let reference = two_sim_a.fidelity_with(&two_sim_b);

        let mut sim = StateVectorSimulator::with_initial_state(&bits);
        sim.run(&circuit).unwrap();
        let rerun = sim.fidelity_with_rerun(&alt, &bits).unwrap();
        assert!((rerun - reference).abs() < 1e-9, "{rerun} vs {reference}");
        // The rerun's final state becomes the current state.
        assert!((sim.norm_sqr() - 1.0).abs() < 1e-9);

        let mut flip = QuantumCircuit::new(n, 0);
        flip.x(0);
        let mut sim2 = StateVectorSimulator::with_initial_state(&bits);
        sim2.run(&circuit).unwrap();
        assert!(sim2.fidelity_with_rerun(&flip, &bits).unwrap() < 0.6);
    }

    #[test]
    fn wide_sparse_state_stays_small() {
        // 64-qubit GHZ: the decision diagram stays linear in the qubit count
        // and the distribution has exactly two outcomes.
        let circuit = ghz::ghz(64, true);
        let mut sim = StateVectorSimulator::new(64);
        sim.run(&circuit).unwrap();
        assert!(sim.state_size() <= 130);
        let dist = sim.outcome_distribution();
        assert_eq!(dist.len(), 2);
    }

    use circuit::QuantumCircuit;
}
