//! Smoke test of the Table 1 harness at reduced sizes: every family verifies
//! as equivalent, the timings are populated and the qualitative relations the
//! paper reports hold (transformation is cheap, extraction beats simulation
//! for sparse outputs).

use bench::{build_instance, run_row, Family, RowOptions, RowRunner};
use dd::Budget;
use qcec::{Configuration, Equivalence};
use std::time::Duration;

#[test]
fn all_families_verify_at_reduced_sizes() {
    let config = Configuration::default();
    let options = RowOptions::default();
    for (family, n) in [
        (Family::BernsteinVazirani, 13usize),
        (Family::Qft, 7),
        (Family::Qpe, 9),
    ] {
        let instance = build_instance(family, n);
        let row = run_row(&instance, &config, &options);
        assert!(
            row.functional.considered_equivalent(),
            "{family:?} n={n} did not verify"
        );
        assert!(row.t_extract.is_some(), "{family:?} extraction was cut off");
        assert!(row.t_ver.as_nanos() > 0);
        assert!(row.t_sim.as_nanos() > 0);
        // The transformation itself is orders of magnitude cheaper than the
        // verification — the paper's headline observation about t_trans.
        assert!(
            row.t_trans.as_secs_f64() <= row.t_ver.as_secs_f64(),
            "{family:?}: transformation unexpectedly dominates verification"
        );
    }
}

#[test]
fn paper_size_qft_row_decides_in_portfolio_mode() {
    // QFT-125, approximate as in the paper: the reconstructed semiclassical
    // QFT holds the static QFT's gates in another order, and the aligned
    // reconstruction schedule pairs every gate with its twin, so the row
    // decides well inside the 1.5 s per-pair deadline of the repository
    // benchmark's Table 1 workload.
    let instance = build_instance(Family::Qft, 125);
    let options = RowOptions {
        budget: Budget::unlimited().with_deadline(Duration::from_millis(1500)),
        runner: RowRunner::Portfolio,
        ..Default::default()
    };
    let row = run_row(&instance, &Configuration::default(), &options);
    assert_eq!(
        row.functional,
        Equivalence::Equivalent,
        "no verdict within the deadline (winner {:?})",
        row.winner
    );
}

#[test]
fn bv_extraction_beats_static_simulation() {
    // The BV output is a single spike: extraction touches one branch while
    // the static simulation has to push a state through ~n qubits. The paper
    // reports an order of magnitude; we conservatively require extraction not
    // to be slower.
    let instance = build_instance(Family::BernsteinVazirani, 65);
    let row = run_row(
        &instance,
        &Configuration::default(),
        &RowOptions {
            skip_functional: true,
            ..Default::default()
        },
    );
    let t_extract = row.t_extract.expect("extraction finishes").as_secs_f64();
    assert!(
        t_extract <= row.t_sim.as_secs_f64(),
        "extraction ({t_extract}s) slower than simulation ({}s)",
        row.t_sim.as_secs_f64()
    );
}

#[test]
fn qft_extraction_grows_roughly_exponentially() {
    // Doubling behaviour of the extraction for dense outputs: leaves double
    // with every added qubit (we check the leaf counts rather than wall-clock
    // time to keep the test robust).
    use sim::{extract_distribution, ExtractionConfig};
    let leaves: Vec<usize> = [6usize, 7, 8]
        .iter()
        .map(|&n| {
            let instance = build_instance(Family::Qft, n);
            extract_distribution(&instance.dynamic_circuit, &ExtractionConfig::default())
                .expect("extraction succeeds")
                .leaves
        })
        .collect();
    assert_eq!(leaves[1], 2 * leaves[0]);
    assert_eq!(leaves[2], 2 * leaves[1]);
}

#[test]
fn qpe_verification_time_grows_with_precision() {
    // The paper's QPE rows show steep growth of t_ver with n; check the
    // monotone trend at small sizes (averaged over nothing — keep a generous
    // factor to avoid flakiness).
    let config = Configuration::default();
    let options = RowOptions {
        skip_fixed_input: true,
        ..Default::default()
    };
    let t9 = run_row(&build_instance(Family::Qpe, 9), &config, &options)
        .t_ver
        .as_secs_f64();
    let t15 = run_row(&build_instance(Family::Qpe, 15), &config, &options)
        .t_ver
        .as_secs_f64();
    assert!(
        t15 > t9,
        "expected t_ver to grow with the instance size ({t9} vs {t15})"
    );
}
