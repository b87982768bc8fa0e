//! End-to-end compilation + verification, reproducing the use case of the
//! paper's Section 2.3 / Fig. 1b: compile an algorithm circuit to a device
//! and use equivalence checking to confirm the functionality was preserved.

use algorithms::{bv, ghz, qft, qpe};
use circuit::QuantumCircuit;
use compile::{Compiler, CompilerOptions, CouplingMap, NativeBasis, Target};
use proptest::prelude::*;
use qcec::{
    check_functional_equivalence, check_simulative_equivalence, Configuration, Equivalence,
    Strategy,
};
use sim::{extract_distribution, ExtractionConfig};

/// Pads a circuit with idle qubits so it matches the device register.
fn pad(circuit: &QuantumCircuit, n_physical: usize) -> QuantumCircuit {
    circuit.map_qubits(n_physical, |q| q)
}

/// Compiles `circuit` for `target` and checks functional equivalence against
/// the padded original.
fn compile_and_check(circuit: &QuantumCircuit, target: Target) {
    let compiled = Compiler::new(target.clone())
        .compile(circuit)
        .expect("compilation succeeds");
    let reference = pad(
        &circuit.without_measurements(),
        target.coupling.num_qubits(),
    );
    let check = check_functional_equivalence(
        &reference,
        &compiled.circuit.without_measurements(),
        &Configuration::default(),
    )
    .expect("equivalence check runs");
    assert!(
        check.equivalence.considered_equivalent(),
        "compiled {} is not equivalent on {}",
        circuit.name(),
        target.coupling.name()
    );
}

#[test]
fn qpe_compiles_to_london_and_stays_equivalent() {
    // The paper's running example (Fig. 1a/1b): 3-bit QPE of U = P(3π/8),
    // compiled to the 5-qubit IBMQ London device.
    let phi = 3.0 * std::f64::consts::PI / 8.0;
    let static_qpe = qpe::qpe_static(phi, 3, false);
    compile_and_check(&static_qpe, Target::ibmq_london());
}

#[test]
fn qpe_compiles_to_a_line_and_stays_equivalent() {
    let phi = qpe::random_exact_phase(3, 99);
    let static_qpe = qpe::qpe_static(phi, 3, false);
    compile_and_check(&static_qpe, Target::line(4));
}

#[test]
fn ghz_compiles_to_every_standard_topology() {
    let circuit = ghz::ghz(4, false);
    for target in [
        Target::ibmq_london(),
        Target::line(4),
        Target::all_to_all(4),
        Target {
            coupling: CouplingMap::ring(5),
            basis: NativeBasis::IbmRzSxX,
        },
        Target {
            coupling: CouplingMap::grid(2, 2),
            basis: NativeBasis::IbmRzSxX,
        },
    ] {
        compile_and_check(&circuit, target);
    }
}

#[test]
fn qft_compiles_to_london_and_stays_equivalent() {
    let circuit = qft::qft_static(4, None, false);
    compile_and_check(&circuit, Target::ibmq_london());
}

#[test]
fn bv_compiles_to_a_line_and_stays_equivalent() {
    let hidden = [true, false, true, true];
    let circuit = bv::bv_static(&hidden, false);
    compile_and_check(&circuit, Target::line(5));
}

#[test]
fn unoptimized_and_optimized_compilations_are_equivalent_to_each_other() {
    let circuit = qft::qft_static(3, None, false);
    let target = Target::ibmq_london();
    let optimized = Compiler::new(target.clone()).compile(&circuit).unwrap();
    let unoptimized = Compiler::with_options(
        target,
        CompilerOptions {
            optimize: false,
            restore_layout: true,
        },
    )
    .compile(&circuit)
    .unwrap();
    assert!(optimized.gate_count() <= unoptimized.gate_count());
    let check = check_functional_equivalence(
        &optimized.circuit,
        &unoptimized.circuit,
        &Configuration::default(),
    )
    .unwrap();
    assert!(check.equivalence.considered_equivalent());
}

#[test]
fn compiled_dynamic_iqpe_produces_the_same_outcome_distribution() {
    // Scheme 2 on a *compiled* dynamic circuit: the measurement-outcome
    // distribution must survive compilation.
    let phi = 3.0 * std::f64::consts::PI / 8.0;
    let iqpe = qpe::iqpe_dynamic(phi, 3);
    let compiled = Compiler::new(Target::ibmq_london()).compile(&iqpe).unwrap();
    let original = extract_distribution(&iqpe, &ExtractionConfig::default()).unwrap();
    let after = extract_distribution(&compiled.circuit, &ExtractionConfig::default()).unwrap();
    assert!(
        original.distribution.approx_eq(&after.distribution, 1e-6),
        "distribution changed by compilation"
    );
}

#[test]
fn compiled_dynamic_bv_produces_the_same_outcome_distribution() {
    let hidden = [true, true, false, true];
    let dynamic = bv::bv_dynamic(&hidden);
    let compiled = Compiler::new(Target::line(2)).compile(&dynamic).unwrap();
    let original = extract_distribution(&dynamic, &ExtractionConfig::default()).unwrap();
    let after = extract_distribution(&compiled.circuit, &ExtractionConfig::default()).unwrap();
    assert!(original.distribution.approx_eq(&after.distribution, 1e-6));
}

#[test]
fn an_injected_compiler_bug_is_caught_by_the_checker() {
    // Simulate a faulty compiler: drop one gate from a correct compilation.
    let phi = 3.0 * std::f64::consts::PI / 8.0;
    let circuit = qpe::qpe_static(phi, 3, false);
    let target = Target::ibmq_london();
    let compiled = Compiler::new(target.clone()).compile(&circuit).unwrap();
    let mut broken =
        QuantumCircuit::new(compiled.circuit.num_qubits(), compiled.circuit.num_bits());
    let dropped = compiled
        .circuit
        .iter()
        .position(|op| op.qubits().len() == 2)
        .expect("compiled circuit contains a CX");
    for (index, op) in compiled.circuit.iter().enumerate() {
        if index != dropped {
            broken.push(op.clone());
        }
    }
    let reference = pad(&circuit, target.coupling.num_qubits());
    let check =
        check_functional_equivalence(&reference, &broken, &Configuration::default()).unwrap();
    assert!(!check.equivalence.considered_equivalent());
}

#[test]
fn line_routed_steps_stay_at_the_identity_under_the_aligned_schedule() {
    // Routing onto a line inserts SWAP ladders. The aligned schedule
    // relabels them instead of multiplying them in, so the `basis` →
    // `route` miter never leaves the 15-node identity. Multiplied in, they
    // would turn the QFT-15 step's miter into a 27306-node permutation.
    let phi = qpe::random_exact_phase(14, 15);
    let options = CompilerOptions {
        optimize: false,
        restore_layout: true,
    };
    for circuit in [
        qft::qft_static(15, None, false),
        qpe::qpe_static(phi, 14, false),
    ] {
        let staged = Compiler::with_options(Target::line(15), options)
            .compile_staged(&circuit)
            .unwrap();
        assert!(staged.result.swaps_inserted > 0, "{}", circuit.name());
        let [_, basis, route] = &staged.passes[..] else {
            panic!("opt level 0 runs three passes");
        };
        assert_eq!((basis.pass, route.pass), ("basis", "route"));
        let check = check_functional_equivalence(
            &basis.circuit,
            &route.circuit,
            &Configuration {
                strategy: Strategy::Aligned,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            check.equivalence.considered_equivalent(),
            "{}: {:?}",
            circuit.name(),
            check.equivalence
        );
        assert_eq!(check.peak_diagram_size, 15, "{}", circuit.name());
    }
}

#[test]
fn a_broken_qpe11_basis_step_is_refuted_on_dense_stimuli() {
    // The chain step that dominated simulative refutations: a line-routed
    // QPE-11 at opt level 0 whose `basis` output lost its first CX. From
    // |0…0⟩ the broken snapshot spreads over about a thousand basis states,
    // which the decision-diagram simulator pays for in nodes. At 11 qubits
    // the stimuli run on dense vectors and allocate none.
    let phi = qpe::random_exact_phase(10, 11);
    let options = CompilerOptions {
        optimize: false,
        restore_layout: true,
    };
    let staged = Compiler::with_options(Target::line(11), options)
        .compile_staged(&qpe::qpe_static(phi, 10, false))
        .unwrap();
    let [decompose, basis, _] = &staged.passes[..] else {
        panic!("opt level 0 runs three passes");
    };
    assert_eq!((decompose.pass, basis.pass), ("decompose", "basis"));
    let first_cx = basis
        .circuit
        .ops()
        .iter()
        .position(|op| op.to_string().starts_with("cx "))
        .expect("the basis output has a CX");
    let mut broken = QuantumCircuit::new(11, 0);
    for (index, op) in basis.circuit.ops().iter().enumerate() {
        if index != first_cx {
            broken.push(op.clone());
        }
    }
    let check =
        check_simulative_equivalence(&decompose.circuit, &broken, &Configuration::default())
            .unwrap();
    assert_eq!(check.equivalence, Equivalence::NotEquivalent);
    assert_eq!(check.memory.allocated_nodes, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random unitary circuits survive compilation to a line device.
    #[test]
    fn random_circuits_compile_and_verify(seed in 0u64..2000, len in 1usize..20) {
        let circuit = algorithms::random::random_unitary_circuit(3, len, seed);
        let target = Target::line(3);
        let compiled = Compiler::new(target).compile(&circuit).unwrap();
        let check = check_functional_equivalence(
            &circuit,
            &compiled.circuit,
            &Configuration::default(),
        )
        .unwrap();
        prop_assert!(check.equivalence.considered_equivalent());
    }

    /// Random dynamic circuits keep their outcome distribution under
    /// compilation.
    #[test]
    fn random_dynamic_circuits_keep_their_distribution(seed in 0u64..2000, len in 4usize..20) {
        let circuit = algorithms::random::random_dynamic_circuit(3, 2, len, seed);
        let compiled = Compiler::new(Target::line(3)).compile(&circuit).unwrap();
        let original = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        let after = extract_distribution(&compiled.circuit, &ExtractionConfig::default()).unwrap();
        prop_assert!(original.distribution.approx_eq(&after.distribution, 1e-6));
    }
}
