//! Threaded stress tests of the shared decision-diagram store: several
//! workspaces interning overlapping QFT/QPE gate sequences concurrently must
//! agree on *pointer-identical* canonical edges, and a final collection once
//! the racers detach must leave the store clean and consistent.

use dd::{gates, Control, DdPackage, MEdge, SharedStore, VEdge};
use std::sync::Arc;

const QUBITS: usize = 8;

/// A QFT-style state preparation: Hadamards plus the controlled-phase
/// ladder. Every thread builds the identical sequence, so every intermediate
/// node and gate diagram overlaps across threads.
fn qft_state(package: &mut DdPackage) -> VEdge {
    let mut state = package.zero_state();
    for j in (0..QUBITS).rev() {
        state = package.apply_gate(state, &gates::h(), j, &[]);
        for k in 0..j {
            let angle = std::f64::consts::PI / (1u64 << (j - k)) as f64;
            state = package.apply_gate(state, &gates::phase(angle), j, &[Control::pos(k)]);
        }
    }
    state
}

/// A QPE-style controlled-rotation block as a matrix diagram.
fn qpe_gate_block(package: &mut DdPackage) -> MEdge {
    let mut block = package.identity();
    for q in 1..QUBITS {
        let angle = 3.0 * std::f64::consts::PI / (1u64 << q) as f64;
        let gate = package.make_gate(&gates::phase(angle), q, &[Control::pos(0)]);
        block = package.mul_matrices(gate, block);
    }
    block
}

#[test]
fn concurrent_interning_yields_pointer_identical_edges() {
    let store = SharedStore::new();
    let threads = 6;

    let results: Vec<(VEdge, MEdge, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let mut workspace = store.workspace(QUBITS);
                    let state = qft_state(&mut workspace);
                    let block = qpe_gate_block(&mut workspace);
                    let norm = workspace.norm_sqr(state);
                    (state, block, norm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Canonicity across threads: every workspace ended up with the *same*
    // (NodeId, CIdx) handles, not merely equivalent diagrams.
    let (first_state, first_block, _) = results[0];
    for (state, block, norm) in &results {
        assert_eq!(*state, first_state, "state edges diverged across threads");
        assert_eq!(*block, first_block, "gate blocks diverged across threads");
        assert!((norm - 1.0).abs() < 1e-9, "norm drifted: {norm}");
    }

    let stats = store.stats();
    assert_eq!(stats.attached, 0, "all workspaces detached");
    assert!(
        stats.cross_thread_hits > 0,
        "overlapping sequences must share nodes across threads: {stats:?}"
    );
    assert!(stats.cross_thread_hit_rate().unwrap() > 0.0);
    // Sharing bound: the store holds one copy of the common structure, far
    // fewer nodes than the sum of six private packages would.
    assert!(
        (stats.allocated_nodes as usize) < threads * stats.peak_nodes,
        "allocations should be sublinear in the thread count: {stats:?}"
    );
}

#[test]
fn final_collection_after_detach_is_clean() {
    let store = SharedStore::new();

    // Race a few workspaces, then drop them all.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                let mut workspace = store.workspace(QUBITS);
                let state = qft_state(&mut workspace);
                workspace.norm_sqr(state)
            });
        }
    });
    let before = store.stats();
    assert!(before.live_nodes > 0);

    // A sole fresh workspace may collect: with no protected roots, the
    // whole race's heap is garbage (minus the shared gate cache's diagrams).
    let mut collector = store.workspace(QUBITS);
    let reclaimed = collector.garbage_collect();
    assert!(reclaimed > 0, "the race's heap should be collectable");
    let after = store.stats();
    assert!(after.live_nodes < before.live_nodes);
    assert_eq!(after.gc_runs, 1);

    // The store stays fully usable: rebuilding the same sequence yields a
    // normalised state again, and a rebuilt diagram is self-consistent.
    let rebuilt = qft_state(&mut collector);
    assert!((collector.norm_sqr(rebuilt) - 1.0).abs() < 1e-9);
    let again = qft_state(&mut collector);
    assert_eq!(rebuilt, again, "post-GC interning lost canonicity");
    // Compaction telemetry: the collection reclaimed complex entries too.
    assert!(collector.memory_stats().complex_reclaimed > 0);
}

#[test]
fn collection_falls_back_to_deferral_when_a_racer_never_parks() {
    let store = SharedStore::new();
    let mut a = store.workspace(QUBITS);
    let _b = store.workspace(QUBITS);
    let state = qft_state(&mut a);
    a.protect_vector(state);
    // Two workspaces attached but `_b` never executes an operation, so it
    // never reaches a safe point: the barrier request must time out and
    // fall back to deferral — nothing is reclaimed, nothing deadlocks and
    // the diagram stays intact.
    assert_eq!(a.garbage_collect(), 0);
    let deferred = store.stats();
    assert_eq!(deferred.gc_barrier_runs, 0);
    // The fallback is no longer silent: every BARRIER_PATIENCE timeout is
    // counted, so the batch report can attribute "GC never ran" stalls.
    assert_eq!(
        deferred.barrier_deferrals, 1,
        "a patience timeout must be recorded: {deferred:?}"
    );
    // The aborted round still cost the collector its patience wait; that
    // time is barrier wait time, not free.
    assert!(
        deferred.barrier_wait_ns >= 50_000_000,
        "the collector's abandoned wait must be accounted: {deferred:?}"
    );
    assert!((a.norm_sqr(state) - 1.0).abs() < 1e-9);
    drop(_b);
    // Sole attachment: collection proceeds; the protected state survives.
    assert!(a.garbage_collect() > 0);
    assert!((a.norm_sqr(state) - 1.0).abs() < 1e-9);
    assert_eq!(
        store.stats().barrier_deferrals,
        1,
        "a successful collection must not add deferrals"
    );
}

#[test]
fn barrier_collection_runs_mid_race_and_preserves_parked_diagrams() {
    use dd::{Budget, MemoryConfig};
    let store = SharedStore::new();
    let threads = 4;
    // A threshold low enough that the racers' churn trips it while all of
    // them are still attached and polling safe points.
    let config = MemoryConfig {
        gc_threshold: Some(1_500),
        ..MemoryConfig::default()
    };
    let go = std::sync::Barrier::new(threads);

    let results: Vec<VEdge> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let store = Arc::clone(&store);
                let go = &go;
                scope.spawn(move || {
                    let mut ws = store.workspace_with(QUBITS, Budget::unlimited(), config);
                    // Every thread protects the identical reference diagram…
                    let reference = qft_state(&mut ws);
                    ws.protect_vector(reference);
                    go.wait();
                    // …then churns through garbage states: the gate angles
                    // differ per round, so fresh nodes keep piling up until
                    // someone's threshold requests a barrier collection
                    // while everyone is attached and mid-race.
                    let mut state = ws.zero_state();
                    for round in 0..160u32 {
                        for q in 0..QUBITS {
                            let angle = 0.13 + (round as usize * QUBITS + q) as f64;
                            state = ws.apply_gate(state, &gates::ry(angle), q, &[]);
                        }
                        // The protected reference must survive every
                        // collection pointer-identically.
                        assert!(
                            (ws.norm_sqr(reference) - 1.0).abs() < 1e-9,
                            "protected diagram damaged in round {round}"
                        );
                    }
                    // Re-interning the reference sequence after the barrier
                    // collections must reproduce the identical edge.
                    let rebuilt = qft_state(&mut ws);
                    assert_eq!(rebuilt, reference, "post-barrier canonicity lost");
                    reference
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("racer panicked"))
            .collect()
    });

    // Pointer-identical canonical edges across every parked workspace.
    for state in &results {
        assert_eq!(*state, results[0], "reference edges diverged");
    }
    let stats = store.stats();
    assert!(
        stats.gc_barrier_runs >= 1,
        "the race should have collected at a barrier: {stats:?}"
    );
    assert!(stats.reclaimed_nodes > 0, "{stats:?}");
}

#[test]
fn node_budgets_stay_per_workspace_on_a_shared_store() {
    use dd::{Budget, LimitExceeded, MemoryConfig};
    // Fill the store with one unbudgeted workspace, then attach a tightly
    // budgeted one: hits on existing canonical nodes must cost it nothing,
    // so the identical (fully shared) sequence fits in a tiny budget...
    let store = SharedStore::new();
    let mut filler = store.workspace(QUBITS);
    let warm = qft_state(&mut filler);
    filler.protect_vector(warm);

    let budget = Budget::unlimited().with_node_limit(64);
    let mut frugal = store.workspace_with(QUBITS, budget.clone(), MemoryConfig::default());
    let state = qft_state(&mut frugal);
    assert_eq!(frugal.limit_exceeded(), None, "shared hits must be free");
    assert_eq!(state, warm);

    // ...while a workspace forced to allocate fresh structure still trips
    // its own per-workspace limit.
    let mut fresh = store.workspace_with(QUBITS, budget, MemoryConfig::default());
    let mut state = fresh.zero_state();
    for round in 0..32 {
        for q in 0..QUBITS {
            let angle = 0.17 + (round * QUBITS + q) as f64;
            state = fresh.apply_gate(state, &gates::ry(angle), q, &[]);
        }
        if fresh.limit_exceeded().is_some() {
            break;
        }
    }
    assert_eq!(fresh.limit_exceeded(), Some(LimitExceeded::NodeLimit));
}

#[test]
fn snapshot_reads_survive_gc_pressure() {
    use dd::{Budget, MemoryConfig};
    // The epoch-snapshot acceptance stress: racers churn hard enough to
    // force repeated mid-race barrier collections. Each workspace re-pins
    // the freshly published generation at every collection it crosses, and
    // its protected reference state must read back intact throughout.
    let store = SharedStore::new();
    let threads = 4;
    let config = MemoryConfig {
        gc_threshold: Some(1_500),
        ..MemoryConfig::default()
    };
    let go = std::sync::Barrier::new(threads);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let store = Arc::clone(&store);
            let go = &go;
            scope.spawn(move || {
                let mut ws = store.workspace_with(QUBITS, Budget::unlimited(), config);
                let reference = qft_state(&mut ws);
                ws.protect_vector(reference);
                go.wait();
                let mut state = ws.zero_state();
                for round in 0..120u32 {
                    for q in 0..QUBITS {
                        let angle = 0.29 + (round as usize * QUBITS + q) as f64;
                        state = ws.apply_gate(state, &gates::ry(angle), q, &[]);
                    }
                    assert!((ws.norm_sqr(reference) - 1.0).abs() < 1e-9);
                }
            });
        }
    });

    let stats = store.stats();
    assert!(
        stats.gc_runs >= 1,
        "the churn must actually trigger collections: {stats:?}"
    );
    // Every completed shared collection retires the superseded generation…
    assert_eq!(
        stats.retired_generations, stats.gc_runs as u64,
        "each collection publishes (and thus retires) one generation: {stats:?}"
    );
    // …and every workspace pinned once at attach plus once per collection
    // it crossed, so pins strictly exceed the attach count.
    assert!(
        stats.epoch_pins > threads as u64,
        "collections crossed mid-race must show up as re-pins: {stats:?}"
    );
}

#[test]
fn protected_edges_stay_pointer_identical_across_a_snapshot_swap() {
    // A collection publishes a new generation (snapshot swap) while the
    // survivors keep their arena slots: the protected edge held from before
    // the swap must stay valid *as the same (NodeId, CIdx) handle*, reads
    // through the new pin must produce bit-identical amplitudes, and
    // re-interning the sequence must find the surviving nodes instead of
    // rebuilding them.
    let store = SharedStore::new();
    let mut ws = store.workspace(QUBITS);
    let state = qft_state(&mut ws);
    ws.protect_vector(state);
    let norm_before = ws.norm_sqr(state);
    let amplitude_before = ws.amplitude(state, 0);

    // Churn garbage so the sweep has something to reclaim, then collect:
    // sole attachment, so this sweeps immediately and swaps the snapshot.
    let mut garbage = ws.zero_state();
    for q in 0..QUBITS {
        garbage = ws.apply_gate(garbage, &gates::ry(0.37 + q as f64), q, &[]);
    }
    let reclaimed = ws.garbage_collect();
    assert!(reclaimed > 0, "the garbage state should be collectable");
    assert_eq!(store.stats().retired_generations, 1);

    // Same handle, same values — the swap moved the snapshot, not the edge.
    assert_eq!(ws.norm_sqr(state).to_bits(), norm_before.to_bits());
    assert_eq!(
        ws.amplitude(state, 0).re.to_bits(),
        amplitude_before.re.to_bits()
    );
    let rebuilt = qft_state(&mut ws);
    assert_eq!(
        rebuilt, state,
        "survivors must be found pointer-identically after the swap"
    );
    drop(ws);
    // One attach pin plus at least the collection's re-pin.
    assert!(store.stats().epoch_pins >= 2, "{:?}", store.stats());
}

mod pinned_reads_property {
    use super::*;
    use dd::VEdge;
    use proptest::prelude::*;

    /// Random single-qubit rotation walks: enough variety to populate the
    /// store differently every case, cheap enough to run many cases.
    fn walk(max_len: usize) -> impl Strategy<Value = Vec<(usize, f64)>> {
        proptest::collection::vec((0..QUBITS, -3.0f64..3.0), 1..max_len)
    }

    fn build(ws: &mut DdPackage, ops: &[(usize, f64)]) -> VEdge {
        let mut state = ws.zero_state();
        for &(q, angle) in ops {
            state = ws.apply_gate(state, &gates::ry(angle), q, &[]);
        }
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Epoch-pinned reads never observe a reclaimed generation: across
        /// arbitrary build/collect interleavings, a protected diagram read
        /// through its workspace's pin keeps returning bit-identical
        /// amplitudes, and a workspace attaching *after* the swap (pinned
        /// to the new generation) reproduces the identical canonical edge.
        /// A read escaping into a reclaimed slot would surface as a NaN
        /// weight, a freed node or a diverged edge — all asserted against.
        #[test]
        fn pinned_reads_never_observe_a_reclaimed_generation(
            kept in walk(24),
            garbage in proptest::collection::vec(walk(16), 1..4),
        ) {
            let store = SharedStore::new();
            let mut ws = store.workspace(QUBITS);
            let reference = build(&mut ws, &kept);
            ws.protect_vector(reference);
            let norm = ws.norm_sqr(reference);
            prop_assert!(norm.is_finite());

            // Interleave garbage churn with collections; every collection
            // retires the pinned generation and recycles freed slots.
            for ops in &garbage {
                let _ = build(&mut ws, ops);
                ws.garbage_collect();
                prop_assert_eq!(ws.norm_sqr(reference).to_bits(), norm.to_bits());
                let rebuilt = build(&mut ws, &kept);
                prop_assert_eq!(rebuilt, reference);
            }
            drop(ws);

            let stats = store.stats();
            prop_assert_eq!(stats.retired_generations, garbage.len() as u64);

            // A late workspace pins the *current* generation and must see
            // exactly the canonical survivors, never a recycled slot.
            let mut late = store.workspace(QUBITS);
            let rebuilt = build(&mut late, &kept);
            prop_assert_eq!(rebuilt, reference);
            prop_assert_eq!(late.norm_sqr(rebuilt).to_bits(), norm.to_bits());
        }
    }
}

#[test]
fn workspaces_of_different_sizes_share_low_level_structure() {
    // A miter-sized workspace and a wider reconstruction workspace share
    // the store: identical low-level gate diagrams intern to the same edge.
    let store = SharedStore::new();
    let mut small = store.workspace(4);
    let gate_small = small.make_gate(&gates::h(), 1, &[Control::pos(0)]);
    drop(small);
    let mut wide = store.workspace(6);
    // Same gate in the lower levels of a wider register: the wrapped levels
    // above differ, but the shared store still serves the common subpart —
    // observable as cross-thread hits once both workspaces are gone.
    let state = wide.zero_state();
    let state = wide.apply_gate(state, &gates::h(), 1, &[Control::pos(0)]);
    assert!((wide.norm_sqr(state) - 1.0).abs() < 1e-12);
    drop(wide);
    let stats = store.stats();
    assert!(stats.cross_thread_hits > 0, "{stats:?}");
    // The 4-qubit gate diagram itself is still canonical and reusable.
    let mut third = store.workspace(4);
    assert_eq!(
        third.make_gate(&gates::h(), 1, &[Control::pos(0)]),
        gate_small
    );
}
