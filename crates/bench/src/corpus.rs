//! Compilation-corpus generation for incremental verification.
//!
//! The paper's compilation-flow use case (Section 2.3) verifies a circuit
//! against its compiled form. Incremental verification instead checks the
//! pipeline pass-by-pass (see `portfolio::chain`), which needs *corpora*:
//! directories of QASM snapshots plus a manifest naming the endpoint pairs
//! and the per-pass chains. This module generates them deterministically —
//! families × widths × coupling maps × optimization levels, each compiled
//! through the workspace's own staged compiler — so the `corpus` binary,
//! the `corpus` bench and the CI smoke all agree on what a corpus is.
//!
//! Every generated instance contributes two manifest entries over the same
//! snapshot files:
//!
//! * a [`ChainSpec`] with the original and each pass output in pipeline
//!   order (verified pass-by-pass, one race per adjacent pair), and
//! * a [`PairSpec`] of original vs. final circuit (the classical endpoint
//!   check), so chain and endpoint mode can be compared on identical input.

use crate::{build_static, Family};
use compile::{Compiler, CompilerOptions, CouplingMap, NativeBasis, Target};
use portfolio::batch::{Manifest, PairSpec};
use portfolio::{ChainSpec, ChainStepSpec};
use std::path::{Path, PathBuf};

/// Device connectivity of a corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coupling {
    /// Linear nearest-neighbour chain — routing inserts SWAP ladders, so
    /// the compiled circuit drifts furthest from the original.
    Line,
    /// All-to-all — no routing pressure; the chain's route step is nearly
    /// the identity.
    Full,
}

impl Coupling {
    /// Short name used on the command line and in file stems.
    pub fn name(self) -> &'static str {
        match self {
            Coupling::Line => "line",
            Coupling::Full => "full",
        }
    }

    /// The concrete coupling map for an `n`-qubit circuit.
    pub fn map(self, n: usize) -> CouplingMap {
        match self {
            Coupling::Line => CouplingMap::line(n),
            Coupling::Full => CouplingMap::full(n),
        }
    }

    /// Parses a command-line coupling name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn parse(text: &str) -> Result<Coupling, String> {
        match text {
            "line" => Ok(Coupling::Line),
            "full" => Ok(Coupling::Full),
            other => Err(format!("unknown coupling `{other}` (line, full)")),
        }
    }
}

/// Parses a command-line family name (`bv`, `qft`, `qpe`).
///
/// # Errors
///
/// Returns the unknown name.
pub fn parse_family(text: &str) -> Result<Family, String> {
    for family in [Family::BernsteinVazirani, Family::Qft, Family::Qpe] {
        if family.name() == text {
            return Ok(family);
        }
    }
    Err(format!("unknown family `{text}` (bv, qft, qpe)"))
}

/// What [`generate`] produces: the cartesian product of these axes.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Circuit families (original circuits are the families' *static*
    /// realizations; see [`CorpusOptions::measured`]).
    pub families: Vec<Family>,
    /// Static-circuit qubit counts.
    pub widths: Vec<usize>,
    /// Device connectivities to compile for.
    pub couplings: Vec<Coupling>,
    /// Optimization levels: `0` skips the peephole pass (3-step chains),
    /// `1` runs it (4-step chains).
    pub opt_levels: Vec<u8>,
    /// Keep the families' final measurements on the original circuits.
    ///
    /// Off by default: compilation verification checks that a *unitary*
    /// was preserved (the paper's Fig. 1b), and on measured circuits the
    /// portfolio's distribution-based fixed-input scheme certifies only
    /// the observable outcome statistics — on families like QFT, whose
    /// output distribution from |0…0⟩ is uniform, that check cannot see a
    /// mid-circuit corruption at all.
    pub measured: bool,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            families: vec![Family::BernsteinVazirani, Family::Qft],
            widths: vec![4, 6],
            couplings: vec![Coupling::Line],
            opt_levels: vec![1],
            measured: false,
        }
    }
}

/// Result of a [`generate`] run.
#[derive(Debug, Clone)]
pub struct GeneratedCorpus {
    /// The manifest that was written (pairs and chains over the same
    /// snapshot files, in generation order: one pair and one chain per
    /// instance, so `pairs[i]` and `chains[i]` describe the same
    /// pipeline).
    pub manifest: Manifest,
    /// Where `manifest.json` was written.
    pub manifest_path: PathBuf,
    /// QASM snapshot files written.
    pub files: usize,
}

/// Generates a corpus into `dir`: QASM snapshots of every staged
/// compilation plus a `manifest.json` with one endpoint [`PairSpec`] and
/// one per-pass [`ChainSpec`] per instance. Paths in the manifest are
/// relative to `dir`, so the directory is relocatable.
///
/// Generation is deterministic (the families' seeded builders), so two
/// runs with the same options produce byte-identical corpora.
///
/// # Errors
///
/// Returns a message when a circuit fails to compile or a file cannot be
/// written.
pub fn generate(dir: &Path, options: &CorpusOptions) -> Result<GeneratedCorpus, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut manifest = Manifest {
        pairs: Vec::new(),
        chains: Some(Vec::new()),
    };
    let mut files = 0;
    for &family in &options.families {
        for &n in &options.widths {
            let original = build_static(family, n, options.measured);
            for &coupling in &options.couplings {
                for &level in &options.opt_levels {
                    let name = format!("{}{n}-{}-o{level}", family.name(), coupling.name());
                    let width = original.num_qubits();
                    let target = Target {
                        coupling: coupling.map(width),
                        basis: NativeBasis::U3Cx,
                    };
                    let compiler = Compiler::with_options(
                        target,
                        CompilerOptions {
                            optimize: level >= 1,
                            restore_layout: true,
                        },
                    );
                    let staged = compiler
                        .compile_staged(&original)
                        .map_err(|e| format!("{name}: compilation failed: {e}"))?;
                    let mut steps = Vec::new();
                    for (index, (pass, circuit)) in staged.chain().iter().enumerate() {
                        let file = format!("{name}.{index}-{pass}.qasm");
                        std::fs::write(dir.join(&file), circuit::qasm::to_qasm(circuit))
                            .map_err(|e| format!("cannot write {file}: {e}"))?;
                        files += 1;
                        steps.push(ChainStepSpec {
                            pass: Some((*pass).to_string()),
                            path: file,
                        });
                    }
                    manifest.pairs.push(PairSpec {
                        name: Some(format!("{name}-endpoint")),
                        left: steps.first().expect("chain has an original").path.clone(),
                        right: steps.last().expect("chain has passes").path.clone(),
                        qubits: Some(width),
                    });
                    manifest
                        .chains
                        .as_mut()
                        .expect("chains initialised above")
                        .push(ChainSpec {
                            name: Some(name),
                            qubits: Some(width),
                            steps,
                        });
                }
            }
        }
    }
    let manifest_path = dir.join("manifest.json");
    let json = serde_json::to_string_pretty(&manifest)
        .map_err(|e| format!("cannot serialise manifest: {e}"))?;
    std::fs::write(&manifest_path, json)
        .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
    Ok(GeneratedCorpus {
        manifest,
        manifest_path,
        files,
    })
}

/// The endpoint-mode view of a corpus manifest: pairs only.
pub fn endpoint_only(manifest: &Manifest) -> Manifest {
    Manifest {
        pairs: manifest.pairs.clone(),
        chains: None,
    }
}

/// The chain-mode view of a corpus manifest: chains only.
pub fn chains_only(manifest: &Manifest) -> Manifest {
    Manifest {
        pairs: Vec::new(),
        chains: manifest.chains.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_corpus_generates_relocatable_manifest() {
        let dir = std::env::temp_dir().join(format!("corpus-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = CorpusOptions {
            families: vec![Family::Qft],
            widths: vec![4],
            couplings: vec![Coupling::Line, Coupling::Full],
            opt_levels: vec![0, 1],
            measured: false,
        };
        let corpus = generate(&dir, &options).expect("tiny corpus generates");
        // 2 couplings × 2 levels; o0 chains have 4 circuits, o1 have 5.
        assert_eq!(corpus.manifest.pairs.len(), 4);
        assert_eq!(corpus.manifest.chain_specs().len(), 4);
        assert_eq!(corpus.files, 2 * (4 + 5));
        for (pair, chain) in corpus
            .manifest
            .pairs
            .iter()
            .zip(corpus.manifest.chain_specs())
        {
            assert_eq!(pair.qubits, chain.qubits);
            assert!(chain.steps.len() >= 4);
            assert_eq!(
                chain.steps.first().unwrap().pass.as_deref(),
                Some("original")
            );
            // Relative, relocatable paths.
            for step in &chain.steps {
                assert!(!step.path.starts_with('/'), "absolute path {}", step.path);
                assert!(dir.join(&step.path).exists());
            }
        }
        // The written manifest round-trips through the batch loader.
        let reloaded =
            portfolio::batch::load_manifest(&corpus.manifest_path).expect("manifest loads");
        assert_eq!(reloaded.pairs.len(), 4);
        assert_eq!(reloaded.chain_specs().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
