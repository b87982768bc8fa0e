//! Extraction of the complete measurement-outcome distribution of a dynamic
//! circuit by branching classical simulation (Section 5 of the paper).
//!
//! Every measurement encountered during the simulation is a *branching
//! point*: the probabilities of the measured qubit are check-pointed and the
//! simulation forks into the |0⟩- and |1⟩-successor. Resets likewise branch
//! (the two outcomes are merged again, since a reset discards its outcome)
//! and classically-controlled operations are applied or skipped according to
//! the branch's classical bits. The probability of a bit string is the
//! product of the check-pointed probabilities along its path. Branches whose
//! probability falls below a configurable threshold are pruned, so sparse
//! output distributions require far fewer than the worst-case `2^m` leaf
//! simulations.

use crate::distribution::OutcomeDistribution;
use crate::error::SimError;
use crate::gate_map;
use circuit::{OpKind, QuantumCircuit};
use dd::{gates, Budget, DdPackage, VEdge};
use std::time::{Duration, Instant};

/// Configuration of the extraction scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractionConfig {
    /// Branches whose accumulated probability falls below this threshold are
    /// pruned. The paper prunes exactly-zero branches; the small non-zero
    /// default additionally guards against floating-point dust.
    pub prune_threshold: f64,
    /// Optional hard limit on the number of leaf simulations, as a safeguard
    /// against accidentally extracting a dense distribution over very many
    /// measurements.
    pub max_leaves: Option<usize>,
    /// Decision-diagram memory sizing for the extraction walker's package
    /// (compute-table bounds and the automatic garbage-collection
    /// threshold).
    pub memory: dd::MemoryConfig,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            prune_threshold: 1e-12,
            max_leaves: None,
            memory: dd::MemoryConfig::default(),
        }
    }
}

/// Result of the extraction scheme.
#[derive(Debug, Clone)]
pub struct ExtractionResult {
    /// The complete distribution over the circuit's classical bits.
    pub distribution: OutcomeDistribution,
    /// Number of leaf simulations that were actually carried out.
    pub leaves: usize,
    /// Number of branching points (measurements and resets) in the circuit.
    pub branch_points: usize,
    /// Wall-clock time of the extraction (the paper's `t_extract`).
    pub duration: Duration,
    /// Decision-diagram memory telemetry (aggregated over all worker
    /// packages for the parallel variant).
    pub memory: dd::MemoryStats,
}

struct Extractor<'a> {
    package: DdPackage,
    ops: &'a [circuit::Operation],
    config: ExtractionConfig,
    distribution: OutcomeDistribution,
    leaves: usize,
}

impl<'a> Extractor<'a> {
    // Every frame of the branch walk protects the state it holds, so the
    // package's automatic garbage collection (triggered inside gate
    // applications deeper in the recursion) never reclaims a sibling
    // branch's state. Error paths skip the unprotect — the whole extraction
    // (and its package) is abandoned on error, so leaked protections are
    // irrelevant.
    fn explore(
        &mut self,
        start: usize,
        state: VEdge,
        bits: &mut Vec<bool>,
        probability: f64,
    ) -> Result<(), SimError> {
        let mut state = state;
        self.package.protect_vector(state);
        let mut idx = start;
        while idx < self.ops.len() {
            if let Some(reason) = self.package.limit_exceeded() {
                return Err(SimError::Interrupted(reason));
            }
            let op = &self.ops[idx];
            match &op.kind {
                OpKind::Barrier => {}
                OpKind::Unitary {
                    gate,
                    target,
                    controls,
                } => {
                    let apply = match op.condition {
                        None => true,
                        Some(cond) => bits[cond.bit] == cond.value,
                    };
                    if apply {
                        let matrix = gate_map::gate_matrix(*gate);
                        let dd_controls = gate_map::controls(controls);
                        let next = self
                            .package
                            .apply_gate(state, &matrix, *target, &dd_controls);
                        self.package.unprotect_vector(state);
                        self.package.protect_vector(next);
                        state = next;
                    }
                }
                OpKind::Measure { qubit, bit } => {
                    let (p0, p1) = self.package.probabilities(state, *qubit);
                    // The classical bit may have been written before (a later
                    // measurement overwriting an earlier one); restore the
                    // previous value after exploring both branches so sibling
                    // branches of *outer* branching points see it unchanged.
                    let previous = bits[*bit];
                    for (value, p) in [(false, p0), (true, p1)] {
                        let branch_probability = probability * p;
                        if branch_probability < self.config.prune_threshold {
                            continue;
                        }
                        let (collapsed, _) = self.package.collapse(state, *qubit, value, true);
                        bits[*bit] = value;
                        self.explore(idx + 1, collapsed, bits, branch_probability)?;
                    }
                    bits[*bit] = previous;
                    self.package.unprotect_vector(state);
                    return Ok(());
                }
                OpKind::Reset { qubit } => {
                    let (p0, p1) = self.package.probabilities(state, *qubit);
                    for (value, p) in [(false, p0), (true, p1)] {
                        let branch_probability = probability * p;
                        if branch_probability < self.config.prune_threshold {
                            continue;
                        }
                        let (collapsed, _) = self.package.collapse(state, *qubit, value, true);
                        // A reset discards the outcome and re-initialises the
                        // qubit to |0⟩: flip it back when the outcome was |1⟩.
                        let reinitialised = if value {
                            self.package.apply_gate(collapsed, &gates::x(), *qubit, &[])
                        } else {
                            collapsed
                        };
                        self.explore(idx + 1, reinitialised, bits, branch_probability)?;
                    }
                    self.package.unprotect_vector(state);
                    return Ok(());
                }
            }
            idx += 1;
        }
        // Leaf: record the probability of this classical-bit assignment.
        self.package.unprotect_vector(state);
        self.leaves += 1;
        if let Some(limit) = self.config.max_leaves {
            if self.leaves > limit {
                return Err(SimError::BranchLimitExceeded { limit });
            }
        }
        self.distribution.add(bits.clone(), probability);
        Ok(())
    }
}

/// Extracts the complete measurement-outcome distribution of `circuit` for
/// the all-zeros input state.
///
/// # Errors
///
/// Returns [`SimError::BranchLimitExceeded`] when
/// [`ExtractionConfig::max_leaves`] is exceeded.
///
/// # Examples
///
/// The paper's running example (Example 7 / Fig. 4): the 3-bit IQPE circuit
/// for `U = P(3π/8)` yields `|001⟩` with probability ≈ 0.408.
///
/// ```
/// use algorithms::qpe;
/// use sim::{extract_distribution, ExtractionConfig};
///
/// let phi = 3.0 * std::f64::consts::PI / 8.0;
/// let iqpe = qpe::iqpe_dynamic(phi, 3);
/// let result = extract_distribution(&iqpe, &ExtractionConfig::default())?;
/// let p001 = result.distribution.probability(&vec![true, false, false]);
/// assert!((p001 - 0.408).abs() < 0.01);
/// # Ok::<(), sim::SimError>(())
/// ```
pub fn extract_distribution(
    circuit: &QuantumCircuit,
    config: &ExtractionConfig,
) -> Result<ExtractionResult, SimError> {
    extract_distribution_from(circuit, None, config)
}

/// Variant of [`extract_distribution`] starting from the computational basis
/// state given by `initial` (`initial[q]` is the value of qubit `q`).
///
/// # Errors
///
/// Returns [`SimError::InitialStateMismatch`] when the initial state length
/// does not match the circuit, or [`SimError::BranchLimitExceeded`] when the
/// leaf budget is exceeded.
pub fn extract_distribution_from(
    circuit: &QuantumCircuit,
    initial: Option<&[bool]>,
    config: &ExtractionConfig,
) -> Result<ExtractionResult, SimError> {
    extract_distribution_budgeted(circuit, initial, config, &Budget::unlimited())
}

/// Budget-aware variant of [`extract_distribution_from`].
///
/// The extraction observes `budget` cooperatively: its decision-diagram
/// package stops on cancellation or when the node limit trips (reported as
/// [`SimError::Interrupted`]), and the budget's leaf limit is merged with
/// [`ExtractionConfig::max_leaves`] (the smaller of the two applies,
/// reported as [`SimError::BranchLimitExceeded`]).
///
/// This is the entry point the portfolio engine uses to race the Section 5
/// scheme against functional verification: when another scheme wins, the
/// shared cancel token makes this extraction return within a few hundred
/// node allocations instead of finishing a hopeless branch walk.
///
/// # Errors
///
/// Same as [`extract_distribution_from`], plus [`SimError::Interrupted`].
pub fn extract_distribution_budgeted(
    circuit: &QuantumCircuit,
    initial: Option<&[bool]>,
    config: &ExtractionConfig,
    budget: &Budget,
) -> Result<ExtractionResult, SimError> {
    extract_distribution_budgeted_in(circuit, initial, config, budget, None)
}

/// [`extract_distribution_budgeted`] with an optional shared
/// decision-diagram store (see [`dd::SharedStore`]): the extraction's
/// package then attaches as a workspace, so the gate diagrams and state
/// fragments it builds are shared with (and reused from) the other racing
/// schemes of a portfolio.
///
/// # Errors
///
/// Same as [`extract_distribution_budgeted`].
pub fn extract_distribution_budgeted_in(
    circuit: &QuantumCircuit,
    initial: Option<&[bool]>,
    config: &ExtractionConfig,
    budget: &Budget,
    store: Option<&std::sync::Arc<dd::SharedStore>>,
) -> Result<ExtractionResult, SimError> {
    let start = Instant::now();
    let n = circuit.num_qubits();
    let mut package = DdPackage::with_store_config(store, n, budget.clone(), config.memory);
    let config = &ExtractionConfig {
        max_leaves: match (config.max_leaves, budget.max_leaves()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        },
        ..*config
    };
    let state = match initial {
        None => package.zero_state(),
        Some(bits) => {
            if bits.len() != n {
                return Err(SimError::InitialStateMismatch {
                    expected: n,
                    provided: bits.len(),
                });
            }
            package.basis_state(bits)
        }
    };
    let branch_points = circuit
        .ops()
        .iter()
        .filter(|op| matches!(op.kind, OpKind::Measure { .. } | OpKind::Reset { .. }))
        .count();
    let mut extractor = Extractor {
        package,
        ops: circuit.ops(),
        config: *config,
        distribution: OutcomeDistribution::new(circuit.num_bits()),
        leaves: 0,
    };
    let mut bits = vec![false; circuit.num_bits()];
    extractor.explore(0, state, &mut bits, 1.0)?;
    Ok(ExtractionResult {
        distribution: extractor.distribution,
        leaves: extractor.leaves,
        branch_points,
        duration: start.elapsed(),
        memory: extractor.package.memory_stats(),
    })
}

/// Parallel variant of [`extract_distribution`]: the branch tree is split at
/// the first few branching points and the resulting sub-trees are explored by
/// independent worker threads, each with its own decision-diagram package.
///
/// The result is identical to the sequential extraction; only the wall-clock
/// time changes. `threads` is clamped to at least 1.
///
/// # Errors
///
/// Same as [`extract_distribution`].
pub fn extract_distribution_parallel(
    circuit: &QuantumCircuit,
    config: &ExtractionConfig,
    threads: usize,
) -> Result<ExtractionResult, SimError> {
    let threads = threads.max(1);
    // Depth of the forced prefix: 2^depth sub-trees.
    let branch_ops: Vec<usize> = circuit
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op.kind, OpKind::Measure { .. } | OpKind::Reset { .. }))
        .map(|(i, _)| i)
        .collect();
    let depth = (threads as f64).log2().ceil() as usize;
    let depth = depth.min(branch_ops.len()).min(8);
    if depth == 0 {
        return extract_distribution(circuit, config);
    }

    let start = Instant::now();
    let prefixes: Vec<Vec<bool>> = (0..(1usize << depth))
        .map(|mask| (0..depth).map(|i| (mask >> i) & 1 == 1).collect())
        .collect();

    let results: Vec<Result<(OutcomeDistribution, usize, dd::MemoryStats), SimError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = prefixes
                .iter()
                .map(|prefix| scope.spawn(move || run_with_forced_prefix(circuit, prefix, config)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

    let mut distribution = OutcomeDistribution::new(circuit.num_bits());
    let mut leaves = 0;
    let mut memory = dd::MemoryStats::default();
    for result in results {
        let (partial, partial_leaves, partial_memory) = result?;
        leaves += partial_leaves;
        memory = memory.merged_with(&partial_memory);
        for (outcome, p) in partial.iter() {
            distribution.add(outcome.clone(), p);
        }
    }
    Ok(ExtractionResult {
        distribution,
        leaves,
        branch_points: branch_ops.len(),
        duration: start.elapsed(),
        memory,
    })
}

/// Runs a full extraction in which the first `forced.len()` branching points
/// are forced to the given outcomes (the branch probability is still
/// accounted for), returning the partial distribution and leaf count.
fn run_with_forced_prefix(
    circuit: &QuantumCircuit,
    forced: &[bool],
    config: &ExtractionConfig,
) -> Result<(OutcomeDistribution, usize, dd::MemoryStats), SimError> {
    struct ForcedExtractor<'a> {
        package: DdPackage,
        ops: &'a [circuit::Operation],
        config: ExtractionConfig,
        distribution: OutcomeDistribution,
        leaves: usize,
        forced: &'a [bool],
    }

    impl<'a> ForcedExtractor<'a> {
        #[allow(clippy::too_many_arguments)]
        fn explore(
            &mut self,
            start: usize,
            state: VEdge,
            bits: &mut Vec<bool>,
            probability: f64,
            branch_index: usize,
        ) -> Result<(), SimError> {
            let mut state = state;
            self.package.protect_vector(state);
            let mut idx = start;
            while idx < self.ops.len() {
                let op = &self.ops[idx];
                match &op.kind {
                    OpKind::Barrier => {}
                    OpKind::Unitary {
                        gate,
                        target,
                        controls,
                    } => {
                        let apply = match op.condition {
                            None => true,
                            Some(cond) => bits[cond.bit] == cond.value,
                        };
                        if apply {
                            let matrix = gate_map::gate_matrix(*gate);
                            let dd_controls = gate_map::controls(controls);
                            let next =
                                self.package
                                    .apply_gate(state, &matrix, *target, &dd_controls);
                            self.package.unprotect_vector(state);
                            self.package.protect_vector(next);
                            state = next;
                        }
                    }
                    OpKind::Measure { .. } | OpKind::Reset { .. } => {
                        let (qubit, record_bit) = match op.kind {
                            OpKind::Measure { qubit, bit } => (qubit, Some(bit)),
                            OpKind::Reset { qubit } => (qubit, None),
                            _ => unreachable!(),
                        };
                        let (p0, p1) = self.package.probabilities(state, qubit);
                        let outcomes: Vec<(bool, f64)> =
                            if let Some(&forced_value) = self.forced.get(branch_index) {
                                vec![(forced_value, if forced_value { p1 } else { p0 })]
                            } else {
                                vec![(false, p0), (true, p1)]
                            };
                        let previous = record_bit.map(|bit| bits[bit]);
                        for (value, p) in outcomes {
                            let branch_probability = probability * p;
                            if branch_probability < self.config.prune_threshold {
                                continue;
                            }
                            let (collapsed, _) = self.package.collapse(state, qubit, value, true);
                            let next_state = match record_bit {
                                Some(bit) => {
                                    bits[bit] = value;
                                    collapsed
                                }
                                None => {
                                    if value {
                                        self.package.apply_gate(collapsed, &gates::x(), qubit, &[])
                                    } else {
                                        collapsed
                                    }
                                }
                            };
                            self.explore(
                                idx + 1,
                                next_state,
                                bits,
                                branch_probability,
                                branch_index + 1,
                            )?;
                        }
                        if let (Some(bit), Some(previous)) = (record_bit, previous) {
                            bits[bit] = previous;
                        }
                        self.package.unprotect_vector(state);
                        return Ok(());
                    }
                }
                idx += 1;
            }
            self.package.unprotect_vector(state);
            self.leaves += 1;
            if let Some(limit) = self.config.max_leaves {
                if self.leaves > limit {
                    return Err(SimError::BranchLimitExceeded { limit });
                }
            }
            self.distribution.add(bits.clone(), probability);
            Ok(())
        }
    }

    let n = circuit.num_qubits();
    let mut package = DdPackage::new(n);
    let state = package.zero_state();
    let mut extractor = ForcedExtractor {
        package,
        ops: circuit.ops(),
        config: *config,
        distribution: OutcomeDistribution::new(circuit.num_bits()),
        leaves: 0,
        forced,
    };
    let mut bits = vec![false; circuit.num_bits()];
    extractor.explore(0, state, &mut bits, 1.0, 0)?;
    let memory = extractor.package.memory_stats();
    Ok((extractor.distribution, extractor.leaves, memory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorithms::{bv, qft, qpe};

    #[test]
    fn figure_4_of_the_paper() {
        // 3-bit IQPE of U = P(3π/8), eigenstate |1⟩, input |0001⟩: the
        // distribution from Fig. 4 of the paper.
        let phi = 3.0 * std::f64::consts::PI / 8.0;
        let iqpe = qpe::iqpe_dynamic(phi, 3);
        let result = extract_distribution(&iqpe, &ExtractionConfig::default()).unwrap();
        let d = &result.distribution;
        // Bits are little-endian: outcome[i] = classical bit i = c_i.
        let p = |c2: bool, c1: bool, c0: bool| d.probability(&[c0, c1, c2]);
        // Fig. 4 leaf probabilities (paper rounds to two decimals):
        // |000⟩: 0.5·0.15·0.69, |100⟩: 0.5·0.15·0.31, |010⟩: 0.5·0.85·0.96·... —
        // we check the two headline values and the normalisation.
        assert!((p(false, false, true) - 0.408).abs() < 0.01, "P(|001⟩)");
        assert!((p(false, true, false) - 0.408).abs() < 0.01, "P(|010⟩)");
        assert!((d.total() - 1.0).abs() < 1e-9);
        assert_eq!(result.branch_points, 3 + 2); // 3 measurements + 2 resets
        assert!(result.leaves <= 1 << 5);
    }

    #[test]
    fn exact_phase_iqpe_is_deterministic() {
        let pattern = [true, false, true, true];
        let phi = qpe::phase_from_bits(&pattern);
        let iqpe = qpe::iqpe_dynamic(phi, 4);
        let result = extract_distribution(&iqpe, &ExtractionConfig::default()).unwrap();
        assert_eq!(result.distribution.len(), 1);
        let (outcome, p) = result.distribution.most_probable().unwrap();
        assert!((p - 1.0).abs() < 1e-9);
        // Classical bit i of the IQPE is the i-th *least* significant bit of
        // the estimate; pattern[0] is the most significant.
        let expected: Vec<bool> = pattern.iter().rev().copied().collect();
        assert_eq!(outcome, &expected);
        // Zero-probability branches are pruned: far fewer than 2^m leaves.
        assert_eq!(result.leaves, 1);
    }

    #[test]
    fn dynamic_bv_recovers_hidden_string_deterministically() {
        let hidden = vec![true, false, false, true, true, false, true];
        let circuit = bv::bv_dynamic(&hidden);
        let result = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        assert_eq!(result.distribution.len(), 1);
        let (outcome, p) = result.distribution.most_probable().unwrap();
        assert!((p - 1.0).abs() < 1e-9);
        assert_eq!(outcome, &hidden);
        assert_eq!(result.leaves, 1);
    }

    #[test]
    fn dynamic_qft_distribution_is_uniform_and_dense() {
        // QFT of |0…0⟩ is the uniform superposition: every outcome has the
        // same probability and the extraction needs 2^n leaves.
        let n = 5;
        let circuit = qft::qft_dynamic(n);
        let result = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        assert_eq!(result.distribution.len(), 1 << n);
        assert_eq!(result.leaves, 1 << n);
        for (_, p) in result.distribution.iter() {
            assert!((p - 1.0 / (1 << n) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn branch_limit_is_enforced() {
        let circuit = qft::qft_dynamic(6);
        let config = ExtractionConfig {
            max_leaves: Some(10),
            ..Default::default()
        };
        assert!(matches!(
            extract_distribution(&circuit, &config),
            Err(SimError::BranchLimitExceeded { limit: 10 })
        ));
    }

    #[test]
    fn custom_initial_state() {
        // A circuit that simply measures both qubits, started in |10⟩.
        let mut qc = circuit::QuantumCircuit::new(2, 2);
        qc.measure(0, 0).measure(1, 1);
        let result =
            extract_distribution_from(&qc, Some(&[false, true]), &ExtractionConfig::default())
                .unwrap();
        assert_eq!(result.distribution.len(), 1);
        assert!((result.distribution.probability(&[false, true]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn initial_state_length_is_validated() {
        let qc = circuit::QuantumCircuit::new(2, 0);
        assert!(matches!(
            extract_distribution_from(&qc, Some(&[true]), &ExtractionConfig::default()),
            Err(SimError::InitialStateMismatch { .. })
        ));
    }

    #[test]
    fn budget_leaf_limit_merges_with_config() {
        let circuit = qft::qft_dynamic(6);
        let budget = dd::Budget::unlimited().with_leaf_limit(10);
        assert!(matches!(
            extract_distribution_budgeted(&circuit, None, &ExtractionConfig::default(), &budget),
            Err(SimError::BranchLimitExceeded { limit: 10 })
        ));
        // The tighter of the two limits wins.
        let config = ExtractionConfig {
            max_leaves: Some(5),
            ..Default::default()
        };
        assert!(matches!(
            extract_distribution_budgeted(&circuit, None, &config, &budget),
            Err(SimError::BranchLimitExceeded { limit: 5 })
        ));
    }

    #[test]
    fn cancelled_budget_interrupts_extraction() {
        let circuit = qft::qft_dynamic(10);
        let token = dd::CancelToken::new();
        let budget = dd::Budget::unlimited().with_cancel_token(token.clone());
        token.cancel();
        let started = std::time::Instant::now();
        let result =
            extract_distribution_budgeted(&circuit, None, &ExtractionConfig::default(), &budget);
        assert!(matches!(
            result,
            Err(SimError::Interrupted(dd::LimitExceeded::Cancelled))
        ));
        // A full 2^10-leaf walk would take far longer than the early exit.
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn parallel_extraction_matches_sequential() {
        let phi = qpe::phase_from_bits(&[true, true, false, true]);
        // Use an inexact phase so that the distribution has many outcomes.
        let iqpe = qpe::iqpe_dynamic(phi + 0.1, 5);
        let sequential = extract_distribution(&iqpe, &ExtractionConfig::default()).unwrap();
        let parallel =
            extract_distribution_parallel(&iqpe, &ExtractionConfig::default(), 4).unwrap();
        assert!(sequential
            .distribution
            .approx_eq(&parallel.distribution, 1e-9));
        assert_eq!(sequential.branch_points, parallel.branch_points);
    }

    #[test]
    fn parallel_with_one_thread_falls_back_to_sequential() {
        let circuit = bv::bv_dynamic(&[true, true]);
        let a = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        let b = extract_distribution_parallel(&circuit, &ExtractionConfig::default(), 1).unwrap();
        assert!(a.distribution.approx_eq(&b.distribution, 1e-12));
    }

    #[test]
    fn teleportation_preserves_the_payload_distribution() {
        // Teleport a state with known ⟨Z⟩ statistics and verify the final
        // measurement of the target qubit reproduces them, no matter which
        // Bell-measurement branch was taken.
        let (theta, phi_angle, lambda) = (1.1, 0.4, -0.7);
        let circuit = algorithms::teleport::teleport(theta, phi_angle, lambda, true);
        let result = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        // P(c2 = 1) should equal sin²(θ/2) for the payload U(θ,φ,λ)|0⟩.
        let expected_p1 = (theta / 2.0).sin().powi(2);
        let mut p1 = 0.0;
        for (outcome, p) in result.distribution.iter() {
            if outcome[2] {
                p1 += p;
            }
        }
        assert!((p1 - expected_p1).abs() < 1e-9);
        // All four Bell branches occur with probability 1/4 each.
        for c0 in [false, true] {
            for c1 in [false, true] {
                let mut branch = 0.0;
                for (outcome, p) in result.distribution.iter() {
                    if outcome[0] == c0 && outcome[1] == c1 {
                        branch += p;
                    }
                }
                assert!((branch - 0.25).abs() < 1e-9);
            }
        }
    }
}
