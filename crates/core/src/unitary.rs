//! Functional (unitary) equivalence checking of quantum circuits.
//!
//! Two circuits `G` and `G'` over the same register are equivalent exactly
//! when the miter `U · U'†` is the identity (possibly up to a global phase).
//! The miter is built as a decision diagram; the scheduling of gates from `G`
//! and inverted gates from `G'` is governed by the configured
//! [`Strategy`](crate::Strategy). Close to equivalent circuits the
//! proportional schedule keeps the intermediate diagram near the identity and
//! therefore small — the key insight of the underlying QCEC tool.
//!
//! # The aligned schedule
//!
//! [`Strategy::Aligned`] pairs every left gate with its *twin* on the right
//! and applies the two together, so the miter never drifts from the
//! identity on equivalent pairs that hold the same gates in a different
//! order — the static and the reconstructed semiclassical QFT, or QPE and
//! the reconstructed iterative QPE, or a circuit and its routed form. Four
//! syntactic rules decide what is applied, and each is exact:
//!
//! * **Commutation.** A pending right gate may be applied before the right
//!   gates that precede it when, on every wire it shares with one of them,
//!   both act diagonally (a control always does, a target when its gate
//!   [`is_diagonal`](circuit::StandardGate::is_diagonal)). Two such gates
//!   are block-diagonal in the computational basis of their shared wires and
//!   act on disjoint wires inside each block, so they commute and the right
//!   circuit's unitary is unchanged by the reorder.
//! * **Twins.** Two gates are twins when they are the same gate under the
//!   same (wire-mapped) target and controls, or when both are the same
//!   phase-type gate (Z, S, S†, T, T†, P) with only positive controls on the
//!   same wire *set*. Such a gate multiplies the all-ones basis state of its
//!   wires by one phase and fixes every other basis state, so which wire is
//!   named the target does not change the unitary. This is what lines a
//!   deferred `p_if` (control on the later qubit) up with the static
//!   `cp(k, j)` (control on the earlier qubit).
//! * **Relabelling.** A SWAP inserted on the right (the three-CNOT triplet a
//!   router emits) is not multiplied in. `SWAP·g·SWAP` is `g` with two wires
//!   renamed, so pushing the SWAP to the right end of `U·U'†` renames the
//!   wires of every later right gate and leaves the product unchanged. The
//!   walk keeps the renaming as a frame (`frame[right_wire] = miter_wire`)
//!   and applies every later right gate through it. What the frame still
//!   permutes at the end is right-multiplied once, as at most `n − 1`
//!   SWAPs; on a restored layout it is the identity and nothing is left.
//! * **Identity fast path.** While nothing has been multiplied into the
//!   miter it is exactly the identity, and a twin pair `g, g` leaves it
//!   there: `g · I · g† = I`. Such pairs are skipped without any
//!   decision-diagram work, and so is a relabelled SWAP. Neither allocates
//!   nodes, so both poll the budget's cancel token and deadline themselves.

use crate::equivalence::{Configuration, Equivalence, Strategy};
use circuit::{OpKind, Operation, QuantumCircuit, QuantumControl, StandardGate};
use dd::{Budget, Control, DdPackage, LimitExceeded, MEdge};
use sim::{dd_controls, gate_matrix};
use std::time::{Duration, Instant};

/// Error raised when a circuit cannot be checked functionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The circuit contains dynamic primitives; reconstruct it first.
    NonUnitaryCircuit {
        /// Which circuit (`"left"` / `"right"`).
        which: &'static str,
        /// Offending operation.
        operation: String,
    },
    /// The circuits act on different register sizes.
    RegisterMismatch {
        /// Qubits of the left circuit.
        left: usize,
        /// Qubits of the right circuit.
        right: usize,
    },
    /// The check was stopped by its [`Budget`](dd::Budget): cancelled by a
    /// competing portfolio scheme or out of its node budget.
    LimitExceeded(LimitExceeded),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NonUnitaryCircuit { which, operation } => write!(
                f,
                "the {which} circuit contains the non-unitary operation `{operation}`; \
                 apply the unitary reconstruction first"
            ),
            CheckError::RegisterMismatch { left, right } => write!(
                f,
                "register mismatch: left circuit has {left} qubits, right circuit has {right}"
            ),
            CheckError::LimitExceeded(reason) => write!(f, "check stopped early: {reason}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Outcome of a functional equivalence check, with diagnostics.
#[derive(Debug, Clone)]
pub struct FunctionalCheck {
    /// The verdict.
    pub equivalence: Equivalence,
    /// Normalised identity fidelity `|tr(U·U'†)| / 2^n` of the final miter.
    pub identity_fidelity: f64,
    /// Size (node count) of the final miter diagram.
    pub final_diagram_size: usize,
    /// Largest intermediate miter size observed.
    pub peak_diagram_size: usize,
    /// Wall-clock time of the check (the paper's `t_ver`).
    pub duration: Duration,
    /// Memory-system telemetry of the decision-diagram package (compute-table
    /// hit rates, garbage-collection runs, peak live nodes).
    pub memory: dd::MemoryStats,
}

/// Extracts the unitary gate sequence of a circuit, rejecting dynamic
/// primitives.
fn unitary_ops<'a>(
    circuit: &'a QuantumCircuit,
    which: &'static str,
) -> Result<Vec<&'a Operation>, CheckError> {
    let mut ops = Vec::with_capacity(circuit.len());
    for op in circuit.ops() {
        match (&op.kind, op.condition) {
            (OpKind::Barrier, _) | (OpKind::Measure { .. }, None) => {
                // Barriers are no-ops; trailing measurements of reconstructed
                // circuits do not affect the unitary functionality and are
                // skipped.
            }
            (OpKind::Unitary { .. }, None) => ops.push(op),
            _ => {
                return Err(CheckError::NonUnitaryCircuit {
                    which,
                    operation: op.to_string(),
                })
            }
        }
    }
    Ok(ops)
}

/// The gate, target and controls of an operation kept by [`unitary_ops`].
fn unitary_parts(op: &Operation) -> (StandardGate, usize, &[QuantumControl]) {
    let OpKind::Unitary {
        gate,
        target,
        controls,
    } = &op.kind
    else {
        unreachable!("filtered to unitary operations")
    };
    (*gate, *target, controls)
}

fn apply_left(package: &mut DdPackage, miter: MEdge, op: &Operation) -> MEdge {
    let (gate, target, controls) = unitary_parts(op);
    let gate_dd = package.make_gate(&gate_matrix(gate), target, &dd_controls(controls));
    package.mul_matrices(gate_dd, miter)
}

/// Right-multiplies the inverse of a right gate with its wires renamed
/// through `frame` (`frame[right_wire] = miter_wire`; see the module docs on
/// relabelling).
fn apply_right_inverse(
    package: &mut DdPackage,
    miter: MEdge,
    op: &Operation,
    frame: &[usize],
) -> MEdge {
    let (gate, target, controls) = unitary_parts(op);
    let controls: Vec<Control> = controls
        .iter()
        .map(|c| Control {
            qubit: frame[c.qubit],
            positive: c.positive,
        })
        .collect();
    let gate_dd = package.make_gate(&gate_matrix(gate.inverse()), frame[target], &controls);
    package.mul_matrices(miter, gate_dd)
}

/// Whether `gate` is diagonal with its only non-unit entry on `|1⟩`, i.e. a
/// `P(θ)`: with positive controls it then acts on its wires symmetrically.
fn symmetric_phase(gate: StandardGate) -> bool {
    use StandardGate::*;
    matches!(gate, Z | S | Sdg | T | Tdg | Phase(_))
}

/// Whether a gate's target and controls are pairwise distinct wires.
fn distinct_wires(target: usize, controls: &[QuantumControl]) -> bool {
    controls
        .iter()
        .enumerate()
        .all(|(i, c)| c.qubit != target && controls[..i].iter().all(|d| d.qubit != c.qubit))
}

/// Returns whether `right` is the same unitary as `left` with every wire
/// renamed through `mapping` (`mapping[left_wire] = right_wire`): the same
/// gate on the mapped target under the mapped controls in order, or the
/// same [`symmetric_phase`] gate with only positive controls on the same
/// mapped wire set (see the module docs for why both rules are exact).
fn ops_match(left: &Operation, right: &Operation, mapping: &[usize]) -> bool {
    let (lg, lt, lc) = unitary_parts(left);
    let (rg, rt, rc) = unitary_parts(right);
    if lg != rg || lc.len() != rc.len() {
        return false;
    }
    let same_wires = mapping[lt] == rt
        && lc
            .iter()
            .zip(rc)
            .all(|(l, r)| l.positive == r.positive && mapping[l.qubit] == r.qubit);
    same_wires
        || (symmetric_phase(lg)
            && lc.iter().chain(rc).all(|c| c.positive)
            && distinct_wires(lt, lc)
            && distinct_wires(rt, rc)
            && std::iter::once(lt)
                .chain(lc.iter().map(|c| c.qubit))
                .all(|l| rt == mapping[l] || rc.iter().any(|r| r.qubit == mapping[l])))
}

/// Sentinel of the intrusive lists in [`PendingGates`].
const NONE: usize = usize::MAX;

/// One wire of a pending right gate, linked to the previous and next pending
/// gates on the same wire.
struct WireLink {
    op: usize,
    wire: usize,
    /// Whether the gate acts diagonally on this wire: a control always does,
    /// a target when its gate is diagonal.
    diagonal: bool,
    prev: usize,
    next: usize,
}

/// The right circuit's gates not yet applied to the miter, in circuit order,
/// with an index of the pending gates on each wire. Applying a gate out of
/// order unlinks it in O(its wires); the twin search walks only the gates
/// on one wire and allocates nothing.
struct PendingGates<'a> {
    ops: &'a [&'a Operation],
    /// Circuit-order list of the pending gates; `ops.len()` is its sentinel.
    next: Vec<usize>,
    prev: Vec<usize>,
    /// Gate `i` owns `links[first_link[i]..first_link[i + 1]]`.
    first_link: Vec<usize>,
    links: Vec<WireLink>,
    /// First pending link of every wire.
    wire_head: Vec<usize>,
    /// Number of gates applied so far.
    applied: usize,
}

impl<'a> PendingGates<'a> {
    fn new(ops: &'a [&'a Operation], n: usize) -> Self {
        let len = ops.len();
        let mut first_link = Vec::with_capacity(len + 1);
        let mut links: Vec<WireLink> = Vec::with_capacity(2 * len);
        let mut wire_head = vec![NONE; n];
        let mut wire_tail = vec![NONE; n];
        for (op, operation) in ops.iter().enumerate() {
            first_link.push(links.len());
            let (gate, target, controls) = unitary_parts(operation);
            let wires = std::iter::once((target, gate.is_diagonal()))
                .chain(controls.iter().map(|c| (c.qubit, true)));
            for (wire, diagonal) in wires {
                let id = links.len();
                let prev = wire_tail[wire];
                match prev {
                    NONE => wire_head[wire] = id,
                    _ => links[prev].next = id,
                }
                wire_tail[wire] = id;
                links.push(WireLink {
                    op,
                    wire,
                    diagonal,
                    prev,
                    next: NONE,
                });
            }
        }
        first_link.push(links.len());
        PendingGates {
            ops,
            next: (1..=len).chain([0]).collect(),
            prev: std::iter::once(len).chain(0..len).collect(),
            first_link,
            links,
            wire_head,
            applied: 0,
        }
    }

    /// The first pending gate in circuit order.
    fn front(&self) -> Option<usize> {
        self.after(self.ops.len())
    }

    /// The pending gate after `op` in circuit order.
    fn after(&self, op: usize) -> Option<usize> {
        let next = self.next[op];
        (next != self.ops.len()).then_some(next)
    }

    fn links_of(&self, op: usize) -> &[WireLink] {
        &self.links[self.first_link[op]..self.first_link[op + 1]]
    }

    /// Marks pending gate `op` as applied.
    fn remove(&mut self, op: usize) {
        let (prev, next) = (self.prev[op], self.next[op]);
        self.next[prev] = next;
        self.prev[next] = prev;
        for id in self.first_link[op]..self.first_link[op + 1] {
            let WireLink {
                wire, prev, next, ..
            } = self.links[id];
            match prev {
                NONE => self.wire_head[wire] = next,
                _ => self.links[prev].next = next,
            }
            if next != NONE {
                self.links[next].prev = prev;
            }
        }
        self.applied += 1;
    }

    /// Whether pending gate `op` may be applied before every pending gate
    /// that precedes it: on each wire it shares with one of them, both act
    /// diagonally.
    fn movable(&self, op: usize) -> bool {
        self.links_of(op).iter().all(|own| {
            let mut cursor = self.wire_head[own.wire];
            loop {
                let link = &self.links[cursor];
                if link.op == op {
                    return true;
                }
                if !(own.diagonal && link.diagonal) {
                    return false;
                }
                cursor = link.next;
            }
        })
    }

    /// Finds a pending twin of `left` (see [`ops_match`]) that is
    /// [`movable`](Self::movable) to the front. Walks the pending gates on
    /// `left`'s mapped target wire while they act diagonally there — a twin
    /// behind a non-diagonal gate on that wire could not move past it.
    fn find_twin(&self, left: &Operation, mapping: &[usize]) -> Option<usize> {
        let (gate, target, _) = unitary_parts(left);
        // The twin acts on this wire as `left` acts on its target.
        let diagonal = gate.is_diagonal();
        let mut cursor = self.wire_head[mapping[target]];
        while cursor != NONE {
            let link = &self.links[cursor];
            if ops_match(left, self.ops[link.op], mapping) && self.movable(link.op) {
                return Some(link.op);
            }
            if !(diagonal && link.diagonal) {
                return None;
            }
            cursor = link.next;
        }
        None
    }

    /// Detects the three-CNOT SWAP pattern `cx(a,b); cx(b,a); cx(a,b)` at
    /// the front of the pending gates (how the router and the
    /// layout-restoration emit SWAPs) and returns the swapped wire pair.
    fn swap_triplet(&self) -> Option<(usize, usize)> {
        let cx = |op: usize| -> Option<(usize, usize)> {
            match unitary_parts(self.ops[op]) {
                (StandardGate::X, target, [control]) if control.positive => {
                    Some((control.qubit, target))
                }
                _ => None,
            }
        };
        let first = self.front()?;
        let second = self.after(first)?;
        let third = self.after(second)?;
        let (a, b) = cx(first)?;
        (cx(second)? == (b, a) && cx(third)? == (a, b)).then_some((a, b))
    }
}

/// Polls a budget on paths that allocate no decision-diagram nodes (the
/// package polls it only inside allocation and at operation safe points).
fn poll_budget(budget: &Budget) -> Result<(), CheckError> {
    if budget.is_cancelled() {
        Err(CheckError::LimitExceeded(LimitExceeded::Cancelled))
    } else if budget.deadline_exceeded() {
        Err(CheckError::LimitExceeded(LimitExceeded::Deadline))
    } else {
        Ok(())
    }
}

/// Aligned-walk steps that multiply nothing (skipped twin pairs, relabelled
/// SWAPs) between two budget polls.
const FAST_PATH_POLL: usize = 64;

/// Checks whether two unitary circuits implement the same functionality.
///
/// Trailing measurements and barriers are ignored; any other non-unitary
/// operation is an error (run the reconstruction of the `transform` crate
/// first).
///
/// The verdict is [`Equivalence::NoInformation`] when the final miter's
/// identity fidelity exceeds `1 + tolerance`. No unitary has a trace larger
/// than its dimension, so such a miter lost precision: its edge weights fell
/// below the complex table's absolute tolerance, as the `2^{-n/2}` weights
/// of a Hadamard layer on about 80 or more qubits do.
///
/// # Errors
///
/// [`CheckError::RegisterMismatch`] when the circuits act on different
/// numbers of qubits, [`CheckError::NonUnitaryCircuit`] when a circuit
/// contains resets or classically-controlled operations.
///
/// # Examples
///
/// A CNOT and its H·CZ·H decomposition realise the same GHZ-preparation
/// unitary:
///
/// ```
/// use algorithms::ghz;
/// use circuit::QuantumCircuit;
/// use qcec::{check_functional_equivalence, Configuration};
///
/// let reference = ghz::ghz(3, false);
/// let mut decomposed = QuantumCircuit::new(3, 0);
/// decomposed.h(0);
/// for q in 1..3 {
///     decomposed.h(q).cz(q - 1, q).h(q);
/// }
/// let check = check_functional_equivalence(&reference, &decomposed, &Configuration::default())?;
/// assert!(check.equivalence.considered_equivalent());
/// # Ok::<(), qcec::CheckError>(())
/// ```
pub fn check_functional_equivalence(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
) -> Result<FunctionalCheck, CheckError> {
    check_functional_equivalence_with(left, right, config, &Budget::unlimited())
}

/// Budget-aware variant of [`check_functional_equivalence`].
///
/// The miter construction observes `budget` cooperatively: when the budget's
/// cancel token fires or its node limit trips, the check stops within a few
/// hundred decision-diagram node allocations and returns
/// [`CheckError::LimitExceeded`]. This is what lets the portfolio engine
/// cancel losing schemes instead of letting them burn a core to completion.
///
/// # Errors
///
/// Same as [`check_functional_equivalence`], plus
/// [`CheckError::LimitExceeded`].
pub fn check_functional_equivalence_with(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
    budget: &Budget,
) -> Result<FunctionalCheck, CheckError> {
    check_functional_equivalence_in(left, right, config, budget, None)
}

/// [`check_functional_equivalence_with`] with an optional shared
/// decision-diagram store (see [`dd::SharedStore`]): the miter package then
/// attaches as a workspace, so the gate diagrams and intermediate miter
/// structure are shared with every other scheme racing on the same store.
///
/// # Errors
///
/// Same as [`check_functional_equivalence_with`].
pub fn check_functional_equivalence_in(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
    budget: &Budget,
    store: Option<&std::sync::Arc<dd::SharedStore>>,
) -> Result<FunctionalCheck, CheckError> {
    if left.num_qubits() != right.num_qubits() {
        return Err(CheckError::RegisterMismatch {
            left: left.num_qubits(),
            right: right.num_qubits(),
        });
    }
    let start = Instant::now();
    let n = left.num_qubits();
    let left_ops = unitary_ops(left, "left")?;
    let right_ops = unitary_ops(right, "right")?;

    let mut package = DdPackage::with_store_config(store, n, budget.clone(), config.memory);
    let mut miter = package.identity();
    let mut peak = package.matrix_size(miter);
    // Right wire to miter wire. Only the aligned walk relabels; every other
    // schedule applies the right gates on their own wires.
    let mut frame: Vec<usize> = (0..n).collect();

    match config.strategy {
        Strategy::Reference => {
            for op in &left_ops {
                miter = apply_left(&mut package, miter, op);
                if let Some(reason) = package.limit_exceeded() {
                    return Err(CheckError::LimitExceeded(reason));
                }
                peak = peak.max(package.matrix_size(miter));
            }
            for op in &right_ops {
                miter = apply_right_inverse(&mut package, miter, op, &frame);
                if let Some(reason) = package.limit_exceeded() {
                    return Err(CheckError::LimitExceeded(reason));
                }
                peak = peak.max(package.matrix_size(miter));
            }
        }
        Strategy::OneToOne | Strategy::Proportional => {
            // Interleave gates of the left circuit with inverted gates of the
            // right circuit. For the proportional schedule the side that lags
            // behind in *relative* progress goes next, so that both circuits
            // are exhausted at (roughly) the same time and the intermediate
            // miter stays close to the identity for near-equivalent circuits.
            let total_left = left_ops.len().max(1);
            let total_right = right_ops.len().max(1);
            let mut li = 0;
            let mut ri = 0;
            let mut steps = 0usize;
            while li < left_ops.len() || ri < right_ops.len() {
                let take_left = if li >= left_ops.len() {
                    false
                } else if ri >= right_ops.len() {
                    true
                } else {
                    match config.strategy {
                        Strategy::OneToOne => li <= ri,
                        // Compare progress fractions li/L vs ri/R without
                        // floating point: li·R ≤ ri·L.
                        Strategy::Proportional => li * total_right <= ri * total_left,
                        Strategy::Reference | Strategy::Aligned => unreachable!(),
                    }
                };
                if take_left {
                    miter = apply_left(&mut package, miter, left_ops[li]);
                    li += 1;
                } else {
                    miter = apply_right_inverse(&mut package, miter, right_ops[ri], &frame);
                    ri += 1;
                }
                if let Some(reason) = package.limit_exceeded() {
                    return Err(CheckError::LimitExceeded(reason));
                }
                steps += 1;
                if steps.is_multiple_of(50) {
                    peak = peak.max(package.matrix_size(miter));
                }
            }
        }
        Strategy::Aligned => {
            // Diff walk: the left side runs in order, the right side applies
            // the left head's twin as soon as the commutation rule lets it
            // move to the front (see the module docs). `mapping[l] = r` is
            // the current wire correspondence and `frame` its inverse: after
            // an inserted SWAP is relabelled, left wires living on the
            // swapped right wires trade places.
            let total_left = left_ops.len().max(1);
            let total_right = right_ops.len().max(1);
            let mut pending = PendingGates::new(&right_ops, n);
            let mut mapping: Vec<usize> = (0..n).collect();
            // Nothing multiplied in yet: the miter is exactly the identity.
            let mut untouched = true;
            let mut free_steps = 0usize;
            let mut li = 0;
            let mut steps = 0usize;
            while li < left_ops.len() || pending.front().is_some() {
                let twin = left_ops
                    .get(li)
                    .and_then(|op| pending.find_twin(op, &mapping));
                // Whether this step multiplied nothing into the miter.
                let free = if let Some(twin) = twin {
                    if !untouched {
                        miter = apply_left(&mut package, miter, left_ops[li]);
                        miter = apply_right_inverse(&mut package, miter, right_ops[twin], &frame);
                    }
                    li += 1;
                    pending.remove(twin);
                    // Identity fast path: g · I · g† = I.
                    untouched
                } else if let Some((a, b)) = pending.swap_triplet() {
                    // An inserted SWAP: consume its three CNOTs and rename
                    // the two right wires in the frame.
                    for _ in 0..3 {
                        pending.remove(pending.front().expect("a triplet has three gates"));
                    }
                    mapping[frame[a]] = b;
                    mapping[frame[b]] = a;
                    frame.swap(a, b);
                    true
                } else {
                    // No twin and no insertion structure here — take one
                    // proportional step so unrelated pairs still terminate
                    // with the same cost shape as `Proportional`.
                    match pending.front() {
                        Some(front)
                            if li >= left_ops.len()
                                || li * total_right > pending.applied * total_left =>
                        {
                            miter =
                                apply_right_inverse(&mut package, miter, right_ops[front], &frame);
                            pending.remove(front);
                        }
                        _ => {
                            miter = apply_left(&mut package, miter, left_ops[li]);
                            li += 1;
                        }
                    }
                    false
                };
                if free {
                    // Nothing was allocated, so the package polled nothing.
                    if free_steps.is_multiple_of(FAST_PATH_POLL) {
                        poll_budget(budget)?;
                    }
                    free_steps += 1;
                    continue;
                }
                untouched = false;
                if let Some(reason) = package.limit_exceeded() {
                    return Err(CheckError::LimitExceeded(reason));
                }
                steps += 1;
                if steps.is_multiple_of(50) {
                    peak = peak.max(package.matrix_size(miter));
                }
            }
        }
    }

    // The relabelled SWAPs still owe the miter the frame's permutation.
    // Right-multiply it once, as at most n − 1 SWAPs: each swaps two right
    // wires through the frame and leaves one of them fixed.
    for wire in 0..n {
        while frame[wire] != wire {
            let other = frame[wire];
            let mut swap = QuantumCircuit::new(n, 0);
            swap.swap(wire, other);
            for op in swap.ops() {
                miter = apply_right_inverse(&mut package, miter, op, &frame);
            }
            frame.swap(wire, other);
            if let Some(reason) = package.limit_exceeded() {
                return Err(CheckError::LimitExceeded(reason));
            }
        }
    }

    let identity_fidelity = package.identity_fidelity(miter);
    let equivalence = if identity_fidelity > 1.0 + config.tolerance {
        // Impossible for a unitary: the diagram lost precision, so it
        // supports no claim either way.
        Equivalence::NoInformation
    } else if identity_fidelity >= 1.0 - config.tolerance {
        // Distinguish a genuine identity from one with a global phase by
        // looking at the (complex) trace direction.
        let trace = package.trace(miter);
        let dim = 2f64.powi(n as i32);
        if (trace.re / dim - 1.0).abs() < config.tolerance
            && (trace.im / dim).abs() < config.tolerance
        {
            Equivalence::Equivalent
        } else {
            Equivalence::EquivalentUpToGlobalPhase
        }
    } else {
        Equivalence::NotEquivalent
    };

    let final_diagram_size = package.matrix_size(miter);
    Ok(FunctionalCheck {
        equivalence,
        identity_fidelity,
        final_diagram_size,
        // The residual permutation is multiplied in after the last sample.
        peak_diagram_size: peak.max(final_diagram_size),
        duration: start.elapsed(),
        memory: package.memory_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorithms::{bv, ghz, qft, qpe, random};

    #[test]
    fn identical_circuits_are_equivalent() {
        let qc = random::random_unitary_circuit(4, 24, 3);
        for strategy in [
            Strategy::Reference,
            Strategy::OneToOne,
            Strategy::Proportional,
        ] {
            let config = Configuration {
                strategy,
                ..Default::default()
            };
            let check = check_functional_equivalence(&qc, &qc, &config).unwrap();
            assert_eq!(check.equivalence, Equivalence::Equivalent, "{strategy:?}");
            assert!((check.identity_fidelity - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cnot_decomposition_is_equivalent() {
        let a = ghz::ghz(6, false);
        let mut b = circuit::QuantumCircuit::new(6, 0);
        b.h(0);
        for q in 1..6 {
            b.h(q).cz(q - 1, q).h(q);
        }
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
    }

    #[test]
    fn fixed_input_equivalent_circuits_can_differ_functionally() {
        // The log-depth GHZ preparation produces the same state from |0…0⟩
        // but is a different unitary.
        let a = ghz::ghz(4, false);
        let b = ghz::ghz_log_depth(4, false);
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
    }

    #[test]
    fn detects_non_equivalence() {
        let a = ghz::ghz(4, false);
        let mut b = ghz::ghz(4, false);
        b.z(2);
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
        assert!(check.identity_fidelity < 1.0 - 1e-3);
    }

    #[test]
    fn detects_global_phase_difference() {
        use circuit::QuantumCircuit;
        let theta = 0.9;
        let mut a = QuantumCircuit::new(1, 0);
        a.rz(theta, 0);
        let mut b = QuantumCircuit::new(1, 0);
        b.p(theta, 0);
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::EquivalentUpToGlobalPhase);
    }

    #[test]
    fn circuit_against_its_inverse_composition_is_identity() {
        let qc = random::random_unitary_circuit(5, 40, 9);
        let inv = qc.inverse().unwrap();
        let mut composed = circuit::QuantumCircuit::new(5, 0);
        composed.append(&qc);
        composed.append(&inv);
        let empty = circuit::QuantumCircuit::new(5, 0);
        let check =
            check_functional_equivalence(&composed, &empty, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
    }

    #[test]
    fn trailing_measurements_are_ignored() {
        let with = ghz::ghz(3, true);
        let without = ghz::ghz(3, false);
        let check =
            check_functional_equivalence(&with, &without, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
    }

    #[test]
    fn rejects_dynamic_circuits() {
        let mut dynamic = circuit::QuantumCircuit::new(2, 1);
        dynamic.h(0).measure(0, 0).x_if(1, 0);
        let static_c = ghz::ghz(2, false);
        assert!(matches!(
            check_functional_equivalence(&dynamic, &static_c, &Configuration::default()),
            Err(CheckError::NonUnitaryCircuit { which: "left", .. })
        ));
    }

    #[test]
    fn rejects_register_mismatch() {
        let a = ghz::ghz(3, false);
        let b = ghz::ghz(4, false);
        assert!(matches!(
            check_functional_equivalence(&a, &b, &Configuration::default()),
            Err(CheckError::RegisterMismatch { left: 3, right: 4 })
        ));
    }

    #[test]
    fn qft_against_itself_with_reordered_rotations() {
        // The controlled-phase rotations within one QFT level commute; a
        // reversed ordering must still be equivalent.
        let n = 5;
        let a = qft::qft_static(n, None, false);
        let mut b = circuit::QuantumCircuit::new(n, 0);
        for j in (0..n).rev() {
            b.h(j);
            for k in 0..j {
                let angle = std::f64::consts::PI / (1u64 << (j - k)) as f64;
                b.cp(angle, k, j);
            }
        }
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
    }

    #[test]
    fn proportional_strategy_keeps_peak_small_for_identical_circuits() {
        let qc = qft::qft_static(8, None, false);
        let proportional = check_functional_equivalence(
            &qc,
            &qc,
            &Configuration {
                strategy: Strategy::Proportional,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = check_functional_equivalence(
            &qc,
            &qc,
            &Configuration {
                strategy: Strategy::Reference,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(proportional.peak_diagram_size <= reference.peak_diagram_size);
        assert_eq!(proportional.equivalence, Equivalence::Equivalent);
        assert_eq!(reference.equivalence, Equivalence::Equivalent);
    }

    /// Rebuilds `left` as a router would: every gate re-emitted through the
    /// evolving wire mapping, with SWAP triplets inserted at the given gate
    /// indices (swapping adjacent wires `w`/`w+1`).
    fn insert_swaps(
        left: &circuit::QuantumCircuit,
        at: &[(usize, usize)],
    ) -> circuit::QuantumCircuit {
        let n = left.num_qubits();
        let mut mapping: Vec<usize> = (0..n).collect();
        let mut routed = circuit::QuantumCircuit::new(n, left.num_bits());
        for (index, op) in left.ops().iter().enumerate() {
            for &(gate_index, wire) in at {
                if gate_index == index {
                    routed.swap(wire, wire + 1);
                    for w in &mut mapping {
                        if *w == wire {
                            *w = wire + 1;
                        } else if *w == wire + 1 {
                            *w = wire;
                        }
                    }
                }
            }
            let OpKind::Unitary {
                gate,
                target,
                controls,
            } = &op.kind
            else {
                continue;
            };
            let mapped: Vec<circuit::QuantumControl> = controls
                .iter()
                .map(|c| circuit::QuantumControl {
                    qubit: mapping[c.qubit],
                    positive: c.positive,
                })
                .collect();
            routed.controlled_gate(*gate, mapping[*target], mapped);
        }
        // Restore the layout with adjacent SWAPs (as `restore_layout` does),
        // so the routed circuit implements the same unitary.
        let mut occupant: Vec<usize> = (0..n).collect();
        for (logical, &physical) in mapping.iter().enumerate() {
            occupant[physical] = logical;
        }
        let mut sorted = false;
        while !sorted {
            sorted = true;
            for w in 0..n - 1 {
                if occupant[w] > occupant[w + 1] {
                    routed.swap(w, w + 1);
                    occupant.swap(w, w + 1);
                    sorted = false;
                }
            }
        }
        routed
    }

    #[test]
    fn aligned_strategy_tracks_inserted_swaps() {
        // A "routed" variant of a QFT: SWAP triplets inserted mid-circuit,
        // every later gate re-emitted on the permuted wires. The aligned
        // schedule relabels each SWAP and pairs every gate with its twin, so
        // the miter never leaves the n-node identity.
        let left = qft::qft_static(6, None, false);
        let routed = insert_swaps(&left, &[(3, 0), (7, 2), (11, 4), (14, 1)]);
        let aligned = check_functional_equivalence(
            &left,
            &routed,
            &Configuration {
                strategy: Strategy::Aligned,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(aligned.equivalence, Equivalence::Equivalent);
        let proportional = check_functional_equivalence(
            &left,
            &routed,
            &Configuration {
                strategy: Strategy::Proportional,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(proportional.equivalence, Equivalence::Equivalent);
        assert_eq!(aligned.peak_diagram_size, left.num_qubits());
    }

    #[test]
    fn aligned_strategy_refutes_corrupted_insertion_pairs() {
        let left = qft::qft_static(5, None, false);
        let mut routed = insert_swaps(&left, &[(4, 1), (9, 3)]);
        routed.z(2);
        let check = check_functional_equivalence(
            &left,
            &routed,
            &Configuration {
                strategy: Strategy::Aligned,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
    }

    #[test]
    fn aligned_strategy_keeps_reordered_dynamic_twins_at_the_identity() {
        // The static QFT walks its CP triangle row by row, the reconstructed
        // semiclassical QFT column by column (with control and target of
        // every CP exchanged); QPE and the reconstructed IQPE interleave the
        // same gates differently. Commutation-aware twin matching pairs every
        // gate, so the miter never leaves the n-node identity.
        let config = Configuration {
            strategy: Strategy::Aligned,
            ..Default::default()
        };
        let phi = qpe::random_exact_phase(42, 7);
        for (left, right) in [
            (qft::qft_static(64, None, true), qft::qft_dynamic(64)),
            (qpe::qpe_static(phi, 42, true), qpe::iqpe_dynamic(phi, 42)),
        ] {
            let n = left.num_qubits();
            let report = crate::verify_dynamic_functional(&left, &right, &config).unwrap();
            assert_eq!(report.equivalence, Equivalence::Equivalent, "n = {n}");
            assert_eq!(report.check.peak_diagram_size, n, "n = {n}");
        }
    }

    #[test]
    fn a_miter_that_lost_precision_makes_no_claim() {
        // Proportionally interleaved, a 96-qubit BV pair builds Hadamard
        // layers whose 2^-48 weights fall below the complex table's
        // tolerance; the final trace then exceeds the dimension. That
        // used to pass as "equivalent up to global phase" even for a twin
        // whose hidden string differs in one bit. The aligned schedule
        // pairs the Hadamards and stays exact.
        let hidden: Vec<bool> = (0..95).map(|i| i % 3 != 0).collect();
        let mut flipped = hidden.clone();
        flipped[40] = !flipped[40];
        let left = bv::bv_static(&hidden, true);
        for (right, aligned_verdict) in [
            (bv::bv_dynamic(&hidden), Equivalence::Equivalent),
            (bv::bv_dynamic(&flipped), Equivalence::NotEquivalent),
        ] {
            let verdict = |strategy| {
                let config = Configuration {
                    strategy,
                    ..Default::default()
                };
                crate::verify_dynamic_functional(&left, &right, &config)
                    .unwrap()
                    .check
            };
            let proportional = verdict(Strategy::Proportional);
            assert!(proportional.identity_fidelity > 1.0 + 1e-8);
            assert_eq!(proportional.equivalence, Equivalence::NoInformation);
            assert_eq!(verdict(Strategy::Aligned).equivalence, aligned_verdict);
        }
    }

    #[test]
    fn aligned_fast_path_observes_the_budget() {
        // The identity fast path and the SWAP relabelling allocate nothing,
        // so the package never polls the budget there: the walk has to stop
        // by itself. The routed right side opens with a SWAP on the wire of
        // the first gate, so its first step is a relabelling.
        let left = qft::qft_static(8, None, false);
        let opening = left.ops()[0].qubits()[0].min(6);
        let routed = insert_swaps(&left, &[(0, opening), (5, 3), (9, 0)]);
        let config = Configuration {
            strategy: Strategy::Aligned,
            ..Default::default()
        };
        for right in [&left, &routed] {
            let expired = Budget::unlimited().with_deadline(Duration::ZERO);
            assert!(matches!(
                check_functional_equivalence_with(&left, right, &config, &expired),
                Err(CheckError::LimitExceeded(LimitExceeded::Deadline))
            ));
            let cancelled = Budget::unlimited();
            cancelled.cancel();
            assert!(matches!(
                check_functional_equivalence_with(&left, right, &config, &cancelled),
                Err(CheckError::LimitExceeded(LimitExceeded::Cancelled))
            ));
        }
    }

    #[test]
    fn aligned_strategy_falls_back_gracefully_on_unrelated_pairs() {
        // No insertion structure at all: a CNOT ladder against its H·CZ·H
        // decomposition, and a genuinely different pair. The aligned
        // schedule must degrade to the proportional behaviour, not
        // misjudge.
        let a = ghz::ghz(6, false);
        let mut b = circuit::QuantumCircuit::new(6, 0);
        b.h(0);
        for q in 1..6 {
            b.h(q).cz(q - 1, q).h(q);
        }
        let config = Configuration {
            strategy: Strategy::Aligned,
            ..Default::default()
        };
        let check = check_functional_equivalence(&a, &b, &config).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
        let different =
            check_functional_equivalence(&a, &ghz::ghz_log_depth(6, false), &config).unwrap();
        assert_eq!(different.equivalence, Equivalence::NotEquivalent);
    }
}
