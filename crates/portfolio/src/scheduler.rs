//! The scheduler: turns a circuit pair into a launch plan.
//!
//! The engine executes whatever [`SchedulePlan`] it is handed; the plan
//! decides
//!
//! * whether to race on threads or try schemes sequentially on the calling
//!   thread (the tiny-instance fast path is a plan shape here, not an
//!   engine special case),
//! * which schemes launch, in what order, and
//! * whether the race shares one decision-diagram store.
//!
//! Every applicable scheme launches — the paper's proposal: first
//! conclusive verdict wins, losers are cancelled. Threaded plans launch in
//! the registry's [`race_rank`](crate::scheme::SchemeDescriptor::race_rank)
//! order and sequential plans in its
//! [`sequential_rank`](crate::scheme::SchemeDescriptor::sequential_rank)
//! order. An explicit [`PortfolioConfig::schemes`] list runs as given.

use crate::engine::PortfolioConfig;
use crate::scheme::{applicable_descriptors, Scheme};
use circuit::QuantumCircuit;

/// A launch plan for one circuit pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePlan {
    /// Try the schemes one after another on the calling thread instead of
    /// racing threads — chosen for tiny instances, where a thread spawn
    /// costs more than the whole verification.
    pub sequential: bool,
    /// Schemes to launch, in launch order (index 0 is the race's inline
    /// favourite).
    pub schemes: Vec<Scheme>,
    /// Whether the schemes race against one shared decision-diagram store
    /// ([`dd::SharedStore`]) instead of private per-scheme packages:
    /// [`PortfolioConfig::shared_package`] on threaded plans, always `false`
    /// on sequential ones (one scheme at a time has nobody to share with).
    pub shared: bool,
}

/// Instances this small finish in microseconds under any scheme; spawning
/// threads would cost more than simply trying the schemes one after another.
fn is_tiny(left: &QuantumCircuit, right: &QuantumCircuit) -> bool {
    left.num_qubits().max(right.num_qubits()) <= 8 && left.len().max(right.len()) <= 256
}

/// Builds the launch plan for a circuit pair.
///
/// With explicit [`PortfolioConfig::schemes`] the caller has already decided
/// what to run: the plan races exactly that list (threaded, in list order).
///
/// The last parameter is inert: nothing reads it, and only `None`
/// type-checks. It stays so that the repository benchmark (`perfbench/`),
/// which calls `plan(&left, &right, &config, None)`, keeps compiling; the
/// next change to the benchmark drops it.
pub fn plan(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    _unused: Option<&std::convert::Infallible>,
) -> SchedulePlan {
    if !config.schemes.is_empty() {
        return SchedulePlan {
            sequential: false,
            schemes: config.schemes.clone(),
            shared: config.shared_package,
        };
    }
    let mut candidates = applicable_descriptors(left, right);
    let sequential = is_tiny(left, right);
    if sequential {
        candidates.sort_by_key(|descriptor| descriptor.sequential_rank);
    }
    SchedulePlan {
        sequential,
        schemes: candidates
            .iter()
            .map(|descriptor| descriptor.scheme)
            .collect(),
        shared: !sequential && config.shared_package,
    }
}
