//! # qcec — equivalence checking of (dynamic) quantum circuits
//!
//! A Rust reproduction of the equivalence-checking flows from
//! *Burgholzer & Wille, "Handling Non-Unitaries in Quantum Circuit
//! Equivalence Checking" (DAC 2022)*, built on a from-scratch
//! decision-diagram package ([`dd`]).
//!
//! ## Capabilities
//!
//! * **Functional equivalence of unitary circuits**
//!   ([`check_functional_equivalence`]): builds the miter `U · U'†` as a
//!   decision diagram with a configurable gate schedule (reference, 1:1,
//!   the QCEC-style *proportional* schedule, or the commutation-aware
//!   [*aligned*](Strategy::Aligned) schedule that pairs every gate with its
//!   reordered twin) and tests it against the identity.
//! * **Simulative equivalence** ([`check_simulative_equivalence`]): compares
//!   the action of both circuits on random computational-basis stimuli. Up
//!   to 12 qubits each stimulus runs on a dense state vector of `2^n`
//!   amplitudes; wider registers run on decision diagrams.
//! * **Dynamic circuits, scheme 1** ([`verify_dynamic_functional`]): the
//!   paper's Section 4 — reset substitution plus deferred measurements turn a
//!   dynamic circuit into a unitary one, which is then checked functionally
//!   against the (static) reference.
//! * **Dynamic circuits, scheme 2** ([`verify_fixed_input`]): the paper's
//!   Section 5 — the complete measurement-outcome distribution of the dynamic
//!   circuit is extracted by branching simulation and compared with the
//!   distribution of the reference for the fixed all-zeros input.
//!
//! ## Budgets and cancellation
//!
//! Every check has a `*_with` variant taking a [`Budget`]
//! ([`check_functional_equivalence_with`], [`verify_dynamic_functional_with`],
//! [`verify_fixed_input_with`], [`check_simulative_equivalence_with`]) that
//! observes a shared [`CancelToken`] and optional node/leaf limits deep
//! inside the decision-diagram hot loops. This is the foundation of the
//! `portfolio` crate, which races all applicable schemes across threads and
//! cancels the losers the moment one scheme produces a conclusive verdict —
//! the same portfolio idea the QCEC tool uses in production. A check stopped
//! by its budget reports [`CheckError::LimitExceeded`] (or
//! `SimError::Interrupted` on the simulation side) instead of a verdict.
//!
//! ## Quick start
//!
//! ```
//! use algorithms::qpe;
//! use qcec::{verify_dynamic_functional, verify_fixed_input, Configuration};
//! use sim::ExtractionConfig;
//!
//! // The paper's running example: 3-bit phase estimation of U = P(3π/8).
//! let phi = 3.0 * std::f64::consts::PI / 8.0;
//! let static_qpe = qpe::qpe_static(phi, 3, true);
//! let iqpe = qpe::iqpe_dynamic(phi, 3);
//!
//! // Scheme 1: full functional equivalence after unitary reconstruction.
//! let functional = verify_dynamic_functional(&static_qpe, &iqpe, &Configuration::default())?;
//! assert!(functional.equivalence.considered_equivalent());
//!
//! // Scheme 2: same measurement-outcome distribution for the |0…0⟩ input.
//! let fixed = verify_fixed_input(
//!     &static_qpe,
//!     &iqpe,
//!     &Configuration::default(),
//!     &ExtractionConfig::default(),
//! )?;
//! assert!(fixed.equivalence.considered_equivalent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod dynamic;
mod equivalence;
mod simulation;
mod unitary;

pub use dynamic::{
    outcome_distribution, outcome_distribution_with, verify_dynamic_functional,
    verify_dynamic_functional_in, verify_dynamic_functional_with, verify_fixed_input,
    verify_fixed_input_in, verify_fixed_input_with, DynamicCheckError, FixedInputVerification,
    FunctionalVerification,
};
pub use equivalence::{Configuration, Equivalence, Strategy};
pub use simulation::{
    check_simulative_equivalence, check_simulative_equivalence_in,
    check_simulative_equivalence_with, SimulativeCheck,
};
pub use unitary::{
    check_functional_equivalence, check_functional_equivalence_in,
    check_functional_equivalence_with, CheckError, FunctionalCheck,
};

// Re-export the shared resource-limit vocabulary (and the shared-package
// store used for portfolio racing) so downstream users do not need a direct
// `dd` dependency to budget, cancel or co-locate checks.
pub use dd::{Budget, CancelToken, LimitExceeded, SharedStore, SharedStoreStats};
