//! Equivalence verdicts and configuration.

use std::fmt;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Equivalence {
    /// The circuits implement exactly the same unitary.
    Equivalent,
    /// The circuits implement the same unitary up to a global phase factor.
    EquivalentUpToGlobalPhase,
    /// The circuits were shown to differ.
    NotEquivalent,
    /// Simulation with random inputs found no counterexample (no proof of
    /// equivalence, but high confidence).
    ProbablyEquivalent,
    /// The check could not produce a verdict (e.g. register mismatch).
    NoInformation,
}

impl Equivalence {
    /// Returns `true` for any of the "considered equivalent" verdicts.
    pub fn considered_equivalent(self) -> bool {
        matches!(
            self,
            Equivalence::Equivalent
                | Equivalence::EquivalentUpToGlobalPhase
                | Equivalence::ProbablyEquivalent
        )
    }
}

impl fmt::Display for Equivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Equivalence::Equivalent => "equivalent",
            Equivalence::EquivalentUpToGlobalPhase => "equivalent up to global phase",
            Equivalence::NotEquivalent => "not equivalent",
            Equivalence::ProbablyEquivalent => "probably equivalent",
            Equivalence::NoInformation => "no information",
        };
        write!(f, "{text}")
    }
}

/// Gate-scheduling strategy used when building the miter `U · U'†`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Strategy {
    /// Build the full system matrices of both circuits and multiply them
    /// (the "reference" strategy). Simple but frequently exponential in
    /// intermediate diagram size.
    Reference,
    /// Apply one gate of the first circuit, then one inverted gate of the
    /// second circuit, alternating 1:1.
    OneToOne,
    /// Alternate the two circuits proportionally to their gate counts, so
    /// that both are exhausted at the same time. This is the strategy used by
    /// the paper's evaluation ("the generic 'proportional' strategy of
    /// QCEC").
    Proportional,
    /// Commutation-aware lockstep for pairs that hold the same gates in a
    /// different order, or the same gates with some *inserted* — the static
    /// QFT/QPE against their reconstructed dynamic realizations, and the
    /// shape every routing pass produces. Each left gate is applied together
    /// with its inverted right *twin*, so the miter stays near the identity.
    /// Three rules decide the pairing, and each is exact:
    ///
    /// * **Commutation.** The twin may sit behind other pending right gates
    ///   if, on every wire it shares with one of them, both act diagonally
    ///   (a control always does, a target when its gate is diagonal). Such
    ///   gates are block-diagonal over their shared wires and act on
    ///   disjoint wires inside each block, so they commute.
    /// * **Twins.** The same gate on the same target and controls; or the
    ///   same phase-type gate (Z, S, S†, T, T†, P) with only positive
    ///   controls on the same wire *set*. Such a gate only multiplies the
    ///   all-ones state of its wires by a phase, so the choice of target
    ///   does not change its unitary.
    /// * **Identity fast path.** While nothing has been multiplied in, the
    ///   miter is exactly the identity and a twin pair keeps it there
    ///   (`g · I · g† = I`), so the pair is skipped without decision-diagram
    ///   work. The budget's cancel token and deadline are polled on this
    ///   path too.
    ///
    /// Inserted SWAP triplets are applied on the right side alone while the
    /// wire correspondence is updated, so the intermediate miter stays a
    /// literal qubit permutation instead of drifting into a large diagram.
    /// Gates without a twin fall back to the proportional schedule, so the
    /// strategy degrades gracefully on unrelated pairs.
    Aligned,
}

/// Configuration of the equivalence-checking routines.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Configuration {
    /// Gate-scheduling strategy for functional (unitary) equivalence.
    pub strategy: Strategy,
    /// Numerical tolerance on the identity-fidelity criterion
    /// `|tr(U·U'†)| / 2^n ≥ 1 − tolerance`.
    pub tolerance: f64,
    /// Number of random-input simulation runs used by the simulative
    /// checker.
    pub simulation_runs: usize,
    /// Seed for the random stimuli of the simulative checker.
    pub seed: u64,
    /// Tolerance on the total-variation distance for fixed-input
    /// (distribution) equivalence.
    pub distribution_tolerance: f64,
    /// Decision-diagram memory sizing for the check's packages (compute-
    /// table bounds and the automatic garbage-collection threshold).
    pub memory: dd::MemoryConfig,
}

impl Default for Configuration {
    fn default() -> Self {
        Configuration {
            strategy: Strategy::Proportional,
            tolerance: 1e-8,
            simulation_runs: 8,
            seed: 0xC0FFEE,
            distribution_tolerance: 1e-8,
            memory: dd::MemoryConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_classification() {
        assert!(Equivalence::Equivalent.considered_equivalent());
        assert!(Equivalence::EquivalentUpToGlobalPhase.considered_equivalent());
        assert!(Equivalence::ProbablyEquivalent.considered_equivalent());
        assert!(!Equivalence::NotEquivalent.considered_equivalent());
        assert!(!Equivalence::NoInformation.considered_equivalent());
    }

    #[test]
    fn default_configuration_uses_proportional_strategy() {
        let config = Configuration::default();
        assert_eq!(config.strategy, Strategy::Proportional);
        assert!(config.tolerance > 0.0);
        assert!(config.simulation_runs > 0);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Equivalence::Equivalent.to_string(), "equivalent");
        assert_eq!(
            Equivalence::EquivalentUpToGlobalPhase.to_string(),
            "equivalent up to global phase"
        );
        assert_eq!(Equivalence::NotEquivalent.to_string(), "not equivalent");
    }
}
