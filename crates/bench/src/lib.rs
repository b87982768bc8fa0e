//! Shared benchmark harness reproducing the evaluation of the paper.
//!
//! The paper's Table 1 evaluates three circuit families (Bernstein–Vazirani,
//! Quantum Fourier Transform, Quantum Phase Estimation), each in a static and
//! a dynamic realization, and reports four timings per instance:
//!
//! * `t_trans` — unitary reconstruction of the dynamic circuit (Section 4),
//! * `t_ver` — the subsequent functional equivalence check,
//! * `t_extract` — extraction of the dynamic circuit's measurement-outcome
//!   distribution (Section 5),
//! * `t_sim` — classical simulation of the static circuit.
//!
//! [`run_row`] performs all four measurements for one instance and returns a
//! [`TableRow`]; the `table1` binary prints them in the paper's format, and
//! the Criterion benches in `benches/` time the individual components.
//!
//! Beyond Table 1, the [`corpus`] module (and the `corpus` binary) generates
//! compilation-flow corpora — staged-compilation QASM snapshots plus a
//! manifest of endpoint pairs and per-pass chains — for the incremental
//! verification workload:
//!
//! ```text
//! corpus --out /tmp/corpus --families bv,qft --widths 4,6 \
//!        --couplings line,full --opt-levels 0,1
//! verify --manifest /tmp/corpus/manifest.json
//! corpus --smoke    # the CI guard: chain-vs-endpoint verdict parity
//! ```

pub mod corpus;
pub mod emit;

use algorithms::{bv, qft, qpe};
use circuit::QuantumCircuit;
use dd::Budget;
use portfolio::{applicable_schemes, verify_portfolio, PortfolioConfig, Scheme};
use qcec::{check_functional_equivalence_with, CheckError, Configuration, Equivalence};
use sim::{extract_distribution_budgeted, ExtractionConfig, SimError, StateVectorSimulator};
use std::time::{Duration, Instant};
use transform::{align_to_reference, reconstruct_unitary};

/// Minimum wall time over `runs` evaluations of `f`, discarding the results.
///
/// The standard noise-robust aggregate of the bench targets: minima are far
/// more stable than means for sub-millisecond portfolio races, where thread
/// spawn and scheduler jitter dominate individual samples.
pub fn min_wall_time<T>(runs: usize, mut f: impl FnMut() -> T) -> std::time::Duration {
    let mut best = std::time::Duration::MAX;
    for _ in 0..runs.max(1) {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// The three benchmark families of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Bernstein–Vazirani with a pseudo-random hidden string.
    BernsteinVazirani,
    /// Quantum Fourier Transform (swap-free; approximate above 64 qubits,
    /// mirroring the paper's large instances).
    Qft,
    /// Quantum Phase Estimation of an exactly representable random phase.
    Qpe,
}

impl Family {
    /// Short lower-case name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Family::BernsteinVazirani => "bv",
            Family::Qft => "qft",
            Family::Qpe => "qpe",
        }
    }

    /// Display title matching the paper's table sections.
    pub fn title(self) -> &'static str {
        match self {
            Family::BernsteinVazirani => "Bernstein-Vazirani",
            Family::Qft => "Quantum Fourier Transform",
            Family::Qpe => "Quantum Phase Estimation",
        }
    }

    /// The static-circuit qubit counts used by the paper.
    pub fn paper_sizes(self) -> Vec<usize> {
        match self {
            Family::BernsteinVazirani => (121..=128).collect(),
            Family::Qft => {
                let mut sizes: Vec<usize> = (23..=26).collect();
                sizes.extend(125..=128);
                sizes
            }
            Family::Qpe => (43..=50).collect(),
        }
    }

    /// Reduced qubit counts suitable for a quick laptop run (the shape of
    /// the results is preserved; see `EXPERIMENTS.md`).
    pub fn default_sizes(self) -> Vec<usize> {
        match self {
            Family::BernsteinVazirani => vec![17, 33, 49, 65],
            Family::Qft => vec![8, 10, 12, 14],
            Family::Qpe => vec![9, 11, 13, 15, 17],
        }
    }
}

/// A benchmark instance: a static circuit and its dynamic realization.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The family this instance belongs to.
    pub family: Family,
    /// Qubits of the static circuit (the paper's leading `n` column).
    pub n: usize,
    /// The static realization (measured).
    pub static_circuit: QuantumCircuit,
    /// The dynamic realization.
    pub dynamic_circuit: QuantumCircuit,
}

/// Deterministic seed so every run benchmarks identical circuits.
const SEED: u64 = 20220701;

/// Rotation cutoff used for the large approximate-QFT instances, mirroring
/// the paper's gate counts (rotations beyond distance 58 are below double
/// precision anyway).
pub const QFT_APPROXIMATION_DISTANCE: usize = 58;

/// Builds the static circuit of `family` alone, with the same seeded
/// parameters as [`build_instance`], optionally without the final
/// measurements.
///
/// The unmeasured form is what the compilation corpus (see [`corpus`])
/// verifies: the paper's Fig. 1b use case checks that compilation preserved
/// a *unitary*, and leaving measurements off keeps distribution-based
/// schemes from certifying only the observable outcome statistics.
pub fn build_static(family: Family, n: usize, measured: bool) -> QuantumCircuit {
    match family {
        Family::BernsteinVazirani => {
            assert!(n >= 2, "BV needs at least one input qubit plus the ancilla");
            let hidden = bv::random_hidden_string(n - 1, SEED ^ n as u64);
            bv::bv_static(&hidden, measured)
        }
        Family::Qft => {
            let approx = if n > 64 {
                Some(QFT_APPROXIMATION_DISTANCE)
            } else {
                None
            };
            qft::qft_static(n, approx, measured)
        }
        Family::Qpe => {
            assert!(
                n >= 2,
                "QPE needs at least one counting qubit plus the eigenstate"
            );
            let m = n - 1;
            let phi = qpe::random_exact_phase(m, SEED ^ n as u64);
            qpe::qpe_static(phi, m, measured)
        }
    }
}

/// Builds the benchmark instance of `family` with `n` static-circuit qubits.
pub fn build_instance(family: Family, n: usize) -> Instance {
    let static_circuit = build_static(family, n, true);
    let dynamic_circuit = match family {
        Family::BernsteinVazirani => {
            let hidden = bv::random_hidden_string(n - 1, SEED ^ n as u64);
            bv::bv_dynamic(&hidden)
        }
        Family::Qft => {
            let approx = if n > 64 {
                Some(QFT_APPROXIMATION_DISTANCE)
            } else {
                None
            };
            qft::qft_dynamic_approx(n, approx)
        }
        Family::Qpe => {
            let m = n - 1;
            let phi = qpe::random_exact_phase(m, SEED ^ n as u64);
            qpe::iqpe_dynamic(phi, m)
        }
    };
    Instance {
        family,
        n,
        static_circuit,
        dynamic_circuit,
    }
}

/// One row of the reproduced Table 1.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Static-circuit qubit count.
    pub n_static: usize,
    /// Static-circuit gate count (excluding measurements, as in the paper).
    pub g_static: usize,
    /// Dynamic-circuit qubit count.
    pub n_dynamic: usize,
    /// Dynamic-circuit gate count.
    pub g_dynamic: usize,
    /// Runtime of the transformation scheme (Section 4).
    pub t_trans: Duration,
    /// Runtime of the subsequent functional equivalence check.
    pub t_ver: Duration,
    /// Verdict of the functional check.
    pub functional: Equivalence,
    /// Runtime of the extraction scheme (Section 5); `None` when the
    /// extraction was cut off by the leaf budget (printed as "—").
    pub t_extract: Option<Duration>,
    /// Runtime of the classical simulation of the static circuit.
    pub t_sim: Duration,
    /// Winning scheme of a portfolio row (`None` for measure-all rows).
    pub winner: Option<String>,
}

/// How a Table 1 row obtains its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowRunner {
    /// Measure every scheme separately — the paper's original protocol,
    /// filling all four timing columns. The library default, so tests and
    /// ablation sweeps keep the paper's semantics.
    #[default]
    MeasureAll,
    /// Race all applicable schemes through the portfolio engine: the row
    /// finishes at the speed of the best scheme and reports the winner.
    /// The `table1` binary defaults to this (pass `--measure-all` there for
    /// the paper protocol).
    ///
    /// The budget's node/leaf limits and deadline carry over into the race,
    /// but its *cancel token* does not — the engine manages its own
    /// winner-cancels-losers token. To bound a portfolio row externally,
    /// give the budget a deadline.
    Portfolio,
}

/// Options controlling a [`run_row`] invocation.
#[derive(Debug, Clone)]
pub struct RowOptions {
    /// Resource budget shared by every measurement of the row — the same
    /// [`dd::Budget`] the cancellation machinery and the portfolio engine
    /// use, so `table1 --leaf-limit` and a portfolio leaf limit mean exactly
    /// the same thing. The default caps extraction at `2^22` leaves.
    pub budget: Budget,
    /// Skip the functional-verification part (useful for extraction-only
    /// sweeps).
    pub skip_functional: bool,
    /// Skip the extraction/simulation part.
    pub skip_fixed_input: bool,
    /// Scheme runner for the row (see [`RowRunner`]).
    pub runner: RowRunner,
}

impl Default for RowOptions {
    fn default() -> Self {
        RowOptions {
            budget: Budget::unlimited().with_leaf_limit(1 << 22),
            skip_functional: false,
            skip_fixed_input: false,
            runner: RowRunner::default(),
        }
    }
}

/// Gate count excluding measurements and barriers, matching how the paper
/// counts `|G|` for the static circuits.
pub fn unitary_gate_count(circuit: &QuantumCircuit) -> usize {
    let counts = circuit.counts();
    counts.unitary + counts.resets + counts.classically_controlled
}

/// Performs the measurements of one Table 1 row.
///
/// With [`RowRunner::MeasureAll`] the four timings of the paper are measured
/// separately; with [`RowRunner::Portfolio`] all applicable schemes race and
/// the row reports the winner's verdict and time (losing schemes are
/// cancelled, so their columns may be empty).
///
/// # Panics
///
/// Panics when the transformation or the equivalence check fails — for the
/// generated benchmark families this indicates a bug, not a user error.
pub fn run_row(instance: &Instance, config: &Configuration, options: &RowOptions) -> TableRow {
    let static_circuit = &instance.static_circuit;
    let dynamic_circuit = &instance.dynamic_circuit;

    if options.runner == RowRunner::Portfolio {
        return run_row_portfolio(instance, config, options);
    }

    // --- Scheme 1: transformation + functional verification -------------
    let (t_trans, t_ver, functional) = if options.skip_functional {
        (Duration::ZERO, Duration::ZERO, Equivalence::NoInformation)
    } else {
        let start = Instant::now();
        let reconstruction =
            reconstruct_unitary(dynamic_circuit).expect("benchmark circuits are reconstructible");
        let t_trans = start.elapsed();

        let start = Instant::now();
        let aligned = align_to_reference(static_circuit, &reconstruction.circuit)
            .expect("benchmark circuits align through their measurement bits");
        let verdict = match check_functional_equivalence_with(
            static_circuit,
            &aligned,
            config,
            &options.budget,
        ) {
            Ok(check) => check.equivalence,
            // The row budget (--deadline, node/leaf limits) cut the
            // check off: report the time spent and no information,
            // instead of panicking — this is what lets measure-all
            // rows terminate at paper sizes.
            Err(CheckError::LimitExceeded(_)) => Equivalence::NoInformation,
            Err(error) => panic!("benchmark circuits are checkable: {error}"),
        };
        (t_trans, start.elapsed(), verdict)
    };

    // --- Scheme 2: extraction vs. classical simulation -------------------
    let (t_extract, t_sim) = if options.skip_fixed_input {
        (None, Duration::ZERO)
    } else {
        let start = Instant::now();
        let extraction = extract_distribution_budgeted(
            dynamic_circuit,
            None,
            &ExtractionConfig::default(),
            &options.budget,
        );
        let t_extract = match extraction {
            Ok(_) => Some(start.elapsed()),
            Err(_) => None,
        };

        let start = Instant::now();
        let mut simulator =
            StateVectorSimulator::with_budget(static_circuit.num_qubits(), options.budget.clone());
        let t_sim = match simulator.run(static_circuit) {
            Ok(_) => start.elapsed(),
            // Budget cut the simulation off mid-run; the table prints "—".
            Err(SimError::Interrupted(_)) => Duration::ZERO,
            Err(error) => panic!("static benchmark circuits are unitary: {error}"),
        };
        (t_extract, t_sim)
    };

    TableRow {
        n_static: static_circuit.num_qubits(),
        g_static: unitary_gate_count(static_circuit),
        n_dynamic: dynamic_circuit.num_qubits(),
        g_dynamic: dynamic_circuit.gate_count(),
        t_trans,
        t_ver,
        functional,
        t_extract,
        t_sim,
        winner: None,
    }
}

/// Portfolio-runner body of [`run_row`]: one race instead of four separate
/// measurements, so the row finishes at the speed of the best scheme.
fn run_row_portfolio(
    instance: &Instance,
    config: &Configuration,
    options: &RowOptions,
) -> TableRow {
    let static_circuit = &instance.static_circuit;
    let dynamic_circuit = &instance.dynamic_circuit;
    let schemes = if options.skip_functional {
        vec![Scheme::FixedInput]
    } else if options.skip_fixed_input {
        // The registered reconstruction schedules, whichever they are.
        applicable_schemes(static_circuit, dynamic_circuit)
            .into_iter()
            .filter(|scheme| matches!(scheme, Scheme::DynamicFunctional(_)))
            .collect()
    } else {
        Vec::new() // auto-select
    };
    let portfolio_config = PortfolioConfig {
        configuration: *config,
        schemes,
        node_limit: options.budget.max_nodes(),
        leaf_limit: options.budget.max_leaves(),
        deadline: options
            .budget
            .deadline()
            .map(|at| at.saturating_duration_since(Instant::now())),
        ..Default::default()
    };
    let result = verify_portfolio(static_circuit, dynamic_circuit, &portfolio_config);
    // The losing schemes are cancelled, so only the columns the winner (or a
    // scheme that still finished) covers are populated.
    let t_extract = result
        .schemes
        .iter()
        .find(|r| r.scheme == Scheme::FixedInput && r.verdict.is_some())
        .map(|r| r.duration);
    TableRow {
        n_static: static_circuit.num_qubits(),
        g_static: unitary_gate_count(static_circuit),
        n_dynamic: dynamic_circuit.num_qubits(),
        g_dynamic: dynamic_circuit.gate_count(),
        t_trans: Duration::ZERO,
        t_ver: result.time_to_verdict,
        functional: result.verdict,
        t_extract,
        t_sim: Duration::ZERO,
        winner: result.winner.map(|s| s.name().to_string()),
    }
}

/// Formats a duration in seconds with four decimals, like the paper.
pub fn seconds(duration: Duration) -> String {
    format!("{:.4}", duration.as_secs_f64())
}

/// Formats a possibly-unmeasured duration: skipped phases carry exactly
/// `Duration::ZERO` (a real measurement is never exact zero) and print as
/// "—", matching the cut-off `t_extract` column.
fn seconds_or_dash(duration: Duration) -> String {
    if duration == Duration::ZERO {
        "—".into()
    } else {
        seconds(duration)
    }
}

/// Renders a table section (header plus rows) in the layout of the paper's
/// Table 1. Portfolio rows get an extra trailing `winner` column.
pub fn format_section(family: Family, rows: &[TableRow]) -> String {
    let with_winner = rows.iter().any(|row| row.winner.is_some());
    let mut out = String::new();
    out.push_str(&format!("{}\n", family.title()));
    out.push_str(&format!(
        "{:>5} {:>7} {:>5} {:>7} {:>12} {:>12} {:>12} {:>13} {:>12}",
        "n", "|G|", "n'", "|G'|", "t_trans[s]", "t_ver[s]", "verdict", "t_extract[s]", "t_sim[s]"
    ));
    if with_winner {
        out.push_str(&format!(" {:>28}", "winner"));
    }
    out.push('\n');
    for row in rows {
        let verdict = match row.functional {
            Equivalence::Equivalent => "equiv",
            Equivalence::EquivalentUpToGlobalPhase => "equiv*",
            Equivalence::NotEquivalent => "NOT equiv",
            Equivalence::ProbablyEquivalent => "prob equiv",
            Equivalence::NoInformation => "-",
        };
        out.push_str(&format!(
            "{:>5} {:>7} {:>5} {:>7} {:>12} {:>12} {:>12} {:>13} {:>12}",
            row.n_static,
            row.g_static,
            row.n_dynamic,
            row.g_dynamic,
            seconds_or_dash(row.t_trans),
            seconds(row.t_ver),
            verdict,
            row.t_extract.map(seconds).unwrap_or_else(|| "—".into()),
            seconds_or_dash(row.t_sim),
        ));
        if with_winner {
            out.push_str(&format!(" {:>28}", row.winner.as_deref().unwrap_or("-")));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_match_paper_gate_counts() {
        // Spot-check the |G| columns of Table 1 that are reproduced exactly.
        let qft23 = build_instance(Family::Qft, 23);
        assert_eq!(unitary_gate_count(&qft23.static_circuit), 276);
        assert_eq!(qft23.dynamic_circuit.gate_count(), 321);

        let qft125 = build_instance(Family::Qft, 125);
        assert_eq!(unitary_gate_count(&qft125.static_circuit), 5664);

        let bv121 = build_instance(Family::BernsteinVazirani, 121);
        // 2n − 1 + |s| with a random string: within a few gates of the paper.
        let g = unitary_gate_count(&bv121.static_circuit);
        assert!((280..=320).contains(&g), "unexpected BV gate count {g}");
    }

    #[test]
    fn small_rows_run_and_verify() {
        for family in [Family::BernsteinVazirani, Family::Qft, Family::Qpe] {
            let n = match family {
                Family::Qft => 5,
                _ => 6,
            };
            let instance = build_instance(family, n);
            let row = run_row(&instance, &Configuration::default(), &RowOptions::default());
            assert!(
                row.functional.considered_equivalent(),
                "{family:?} row not equivalent"
            );
            assert!(row.t_extract.is_some());
            assert_eq!(row.n_dynamic, instance.dynamic_circuit.num_qubits());
        }
    }

    #[test]
    fn extraction_cutoff_produces_dash() {
        let instance = build_instance(Family::Qft, 10);
        let options = RowOptions {
            budget: Budget::unlimited().with_leaf_limit(4),
            skip_functional: true,
            ..Default::default()
        };
        let row = run_row(&instance, &Configuration::default(), &options);
        assert!(row.t_extract.is_none());
        let text = format_section(Family::Qft, &[row]);
        assert!(text.contains('—'));
    }

    #[test]
    fn measure_all_rows_terminate_under_an_expired_deadline() {
        // The paper-size QPE rows only finish in measure-all mode because
        // the row budget's deadline cuts the functional check and the
        // classical simulation off; pin that neither panics and both
        // columns degrade honestly (no-information verdict, "—" timings).
        let instance = build_instance(Family::Qpe, 9);
        let options = RowOptions {
            budget: Budget::unlimited().with_deadline(Duration::ZERO),
            ..Default::default()
        };
        let row = run_row(&instance, &Configuration::default(), &options);
        assert_eq!(row.functional, Equivalence::NoInformation);
        assert!(row.t_extract.is_none());
        assert_eq!(row.t_sim, Duration::ZERO);
        let text = format_section(Family::Qpe, &[row]);
        assert!(text.contains('—'));
    }

    #[test]
    fn section_formatting_contains_all_columns() {
        let instance = build_instance(Family::BernsteinVazirani, 6);
        let row = run_row(&instance, &Configuration::default(), &RowOptions::default());
        let text = format_section(Family::BernsteinVazirani, &[row]);
        assert!(text.contains("Bernstein-Vazirani"));
        assert!(text.contains("t_trans"));
        assert!(text.contains("t_extract"));
        assert!(text.contains("equiv"));
    }

    #[test]
    fn portfolio_runner_verifies_and_names_a_winner() {
        for family in [Family::BernsteinVazirani, Family::Qft, Family::Qpe] {
            let instance = build_instance(family, 6);
            let options = RowOptions {
                runner: RowRunner::Portfolio,
                ..Default::default()
            };
            let row = run_row(&instance, &Configuration::default(), &options);
            assert!(
                row.functional.considered_equivalent(),
                "{family:?} portfolio row not equivalent"
            );
            assert!(row.winner.is_some(), "{family:?} row has no winner");
            assert!(row.t_ver.as_nanos() > 0);
        }
        let instance = build_instance(Family::Qpe, 6);
        let options = RowOptions {
            runner: RowRunner::Portfolio,
            ..Default::default()
        };
        let row = run_row(&instance, &Configuration::default(), &options);
        let text = format_section(Family::Qpe, &[row]);
        assert!(text.contains("winner"));
    }

    #[test]
    fn paper_and_default_sizes_are_consistent() {
        for family in [Family::BernsteinVazirani, Family::Qft, Family::Qpe] {
            assert!(!family.paper_sizes().is_empty());
            assert!(!family.default_sizes().is_empty());
            assert!(family.default_sizes().iter().all(|&n| n >= 2));
        }
        assert_eq!(Family::Qpe.paper_sizes(), (43..=50).collect::<Vec<_>>());
    }
}
