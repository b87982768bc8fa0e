//! Known-answer inputs: every generated pair or chain carries its expected
//! verdict (and, for chains, the expected guilty pass). The program under
//! test only ever sees the circuits or their QASM text.

use crate::stats::Rng;
use algorithms::{bv, qft, qpe};
use bench::corpus::{self, CorpusOptions, Coupling};
use bench::Family;
use circuit::QuantumCircuit;
use qcec::Equivalence;
use std::path::{Path, PathBuf};

/// The known answer of a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Equivalent,
    NotEquivalent,
}

impl Expect {
    /// `(decided, wrong)` for a verdict: decided means conclusive; wrong
    /// means the verdict contradicts this answer (a probabilistic
    /// "probably equivalent" on an inequivalent pair counts as wrong).
    pub fn judge(self, verdict: Equivalence) -> (bool, bool) {
        let decided = matches!(
            verdict,
            Equivalence::Equivalent
                | Equivalence::EquivalentUpToGlobalPhase
                | Equivalence::NotEquivalent
        );
        let wrong = match self {
            Expect::Equivalent => verdict == Equivalence::NotEquivalent,
            Expect::NotEquivalent => verdict.considered_equivalent(),
        };
        (decided, wrong)
    }
}

/// Parses the verdict strings the daemon writes (`Equivalence`'s Display).
pub fn parse_verdict(text: &str) -> Option<Equivalence> {
    [
        Equivalence::Equivalent,
        Equivalence::EquivalentUpToGlobalPhase,
        Equivalence::NotEquivalent,
        Equivalence::ProbablyEquivalent,
        Equivalence::NoInformation,
    ]
    .into_iter()
    .find(|v| v.to_string() == text)
}

/// One circuit pair with its known answer.
#[derive(Debug, Clone)]
pub struct PairInput {
    pub name: String,
    /// Input kind (`bv`, `bv-twin`, `qpe`, `qpe-twin`, `qft`, `endpoint`,
    /// `endpoint-broken`): the unit of the oracle spot-check.
    pub kind: &'static str,
    pub left: QuantumCircuit,
    pub right: QuantumCircuit,
    pub expect: Expect,
}

/// Bernstein–Vazirani with `n` static qubits and a seeded hidden string;
/// the twin's dynamic side uses the string with one seeded bit flipped, so
/// its |0…0⟩ outcome (the hidden string) differs.
pub fn bv_pair(n: usize, rng: &mut Rng, twin: bool) -> PairInput {
    let hidden = rng.bits(n - 1);
    let mut dynamic_hidden = hidden.clone();
    if twin {
        let bit = rng.below(n - 1);
        dynamic_hidden[bit] = !dynamic_hidden[bit];
    }
    PairInput {
        name: format!("bv{n}{}", if twin { "-twin" } else { "" }),
        kind: if twin { "bv-twin" } else { "bv" },
        left: bv::bv_static(&hidden, true),
        right: bv::bv_dynamic(&dynamic_hidden),
        expect: if twin {
            Expect::NotEquivalent
        } else {
            Expect::Equivalent
        },
    }
}

/// Quantum phase estimation with `n` static qubits of a seeded exact phase;
/// the twin's dynamic side estimates a different exact phase (one seeded
/// bit flipped), so its deterministic outcome differs.
pub fn qpe_pair(n: usize, rng: &mut Rng, twin: bool) -> PairInput {
    let m = n - 1;
    let bits = rng.bits(m);
    let mut dynamic_bits = bits.clone();
    if twin {
        let bit = rng.below(m);
        dynamic_bits[bit] = !dynamic_bits[bit];
    }
    PairInput {
        name: format!("qpe{n}{}", if twin { "-twin" } else { "" }),
        kind: if twin { "qpe-twin" } else { "qpe" },
        left: qpe::qpe_static(qpe::phase_from_bits(&bits), m, true),
        right: qpe::iqpe_dynamic(qpe::phase_from_bits(&dynamic_bits), m),
        expect: if twin {
            Expect::NotEquivalent
        } else {
            Expect::Equivalent
        },
    }
}

/// The QFT row of Table 1 (approximate above 64 qubits, like the paper).
/// There is no QFT twin: the QFT's |0…0⟩ outcome distribution is uniform,
/// so a fixed-input check cannot see a change and functional and
/// fixed-input semantics would disagree on the known answer.
pub fn qft_pair(n: usize) -> PairInput {
    let approx = (n > 64).then_some(bench::QFT_APPROXIMATION_DISTANCE);
    PairInput {
        name: format!("qft{n}"),
        kind: "qft",
        left: qft::qft_static(n, approx, true),
        right: qft::qft_dynamic_approx(n, approx),
        expect: Expect::Equivalent,
    }
}

/// One compilation chain of a generated corpus, with its known answer.
#[derive(Debug, Clone)]
pub struct ChainInput {
    pub name: String,
    pub width: usize,
    /// `(pass label, QASM path)` in pipeline order.
    pub steps: Vec<(String, PathBuf)>,
    /// The pass whose snapshot lost a CX; `None` for an intact chain.
    pub guilty: Option<String>,
}

/// Which pass output of a broken chain loses its CX.
#[derive(Debug, Clone, Copy)]
pub enum BreakAt {
    /// One of the first two pass outputs (before routing): a broken chain
    /// stops after one or two cheap steps, whichever chain the seed picks.
    Early,
    /// The final pass output, so the chain's endpoint pair is inequivalent.
    Last,
}

/// What [`compile_corpus`] produced.
pub struct Corpus {
    pub chains: Vec<ChainInput>,
    /// Original vs final circuit of every chain (known answer: equivalent
    /// unless the chain's final snapshot was broken).
    pub endpoints: Vec<PairInput>,
}

/// Compiles a corpus through `bench::corpus::generate` (unmeasured
/// originals) into `dir` and breaks one pass of every chain whose index is
/// in `broken`: one CX line is dropped from one pass output (which ones,
/// see [`BreakAt`]).
/// Dropping a CX always changes the unitary (CX is not the identity up to
/// phase), so the broken step is `NotEquivalent` under every semantics the
/// portfolio uses, and the step before it still holds.
pub fn compile_corpus(
    dir: &Path,
    options: &CorpusOptions,
    broken: &[usize],
    at: BreakAt,
    rng: &mut Rng,
) -> Result<Corpus, String> {
    let _ = std::fs::remove_dir_all(dir);
    let generated = corpus::generate(dir, options)?;
    let mut chains = Vec::new();
    let mut endpoints = Vec::new();
    for (index, spec) in generated.manifest.chain_specs().iter().enumerate() {
        let steps: Vec<(String, PathBuf)> = spec
            .steps
            .iter()
            .enumerate()
            .map(|(i, step)| {
                let label = step.pass.clone().unwrap_or_else(|| format!("step{i}"));
                (label, dir.join(&step.path))
            })
            .collect();
        let mut guilty = None;
        if broken.contains(&index) {
            // Candidate snapshots: pass outputs (never the original) that
            // contain at least one CX.
            let texts: Vec<String> = steps
                .iter()
                .map(|(_, path)| std::fs::read_to_string(path).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let range = match at {
                BreakAt::Early => 1..3.min(steps.len()),
                BreakAt::Last => steps.len() - 1..steps.len(),
            };
            let candidates: Vec<usize> = range.filter(|&i| texts[i].lines().any(is_cx)).collect();
            if candidates.is_empty() {
                return Err(format!("chain {index} has no pass output with a CX"));
            }
            let k = candidates[rng.below(candidates.len())];
            let cx_lines: Vec<usize> = texts[k]
                .lines()
                .enumerate()
                .filter(|(_, line)| is_cx(line))
                .map(|(i, _)| i)
                .collect();
            // Early breaks drop the snapshot's first CX: how long a
            // refutation takes depends strongly on which CX is missing (a
            // mid-circuit CX of a routed QFT-11 takes seconds to refute), so
            // a seeded position would make the run's cost a lottery.
            let drop = match at {
                BreakAt::Early => cx_lines[0],
                BreakAt::Last => cx_lines[rng.below(cx_lines.len())],
            };
            let mut text: String = texts[k]
                .lines()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, line)| line)
                .collect::<Vec<_>>()
                .join("\n");
            text.push('\n');
            std::fs::write(&steps[k].1, text).map_err(|e| e.to_string())?;
            guilty = Some(steps[k].0.clone());
        }
        let read = |path: &Path| -> Result<QuantumCircuit, String> {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            circuit::qasm::from_qasm(&text).map_err(|e| e.to_string())
        };
        let last = steps.len() - 1;
        let final_broken = guilty.as_deref() == Some(steps[last].0.as_str());
        endpoints.push(PairInput {
            name: format!("{}-endpoint", spec.name.clone().unwrap_or_default()),
            kind: if final_broken {
                "endpoint-broken"
            } else {
                "endpoint"
            },
            left: read(&steps[0].1)?,
            right: read(&steps[last].1)?,
            expect: if final_broken {
                Expect::NotEquivalent
            } else {
                Expect::Equivalent
            },
        });
        chains.push(ChainInput {
            name: spec.name.clone().unwrap_or_else(|| format!("chain{index}")),
            width: spec.qubits.unwrap_or(0),
            steps,
            guilty,
        });
    }
    Ok(Corpus { chains, endpoints })
}

fn is_cx(line: &str) -> bool {
    line.starts_with("cx q[")
}

/// Corpus options for a family list and widths (line and full couplings,
/// opt levels 0 and 1, unmeasured originals).
pub fn corpus_options(families: &[Family], widths: Vec<usize>) -> CorpusOptions {
    CorpusOptions {
        families: families.to_vec(),
        widths,
        couplings: vec![Coupling::Line, Coupling::Full],
        opt_levels: vec![0, 1],
        measured: false,
    }
}
