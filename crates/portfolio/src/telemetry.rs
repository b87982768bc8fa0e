//! Persistent per-(scheme, feature-bucket) verification telemetry.
//!
//! Every portfolio run already produces rich per-scheme telemetry
//! ([`SchemeReport`]); this module is where it accumulates. Reports fold
//! into running [`SchemeStats`] keyed by the scheme's name and a coarse
//! [`FeatureBucket`] of the circuit pair, inside a [`TelemetryStore`] that
//! serializes to JSON and is loaded/merged/saved across batch runs
//! (`verify --stats-file`). The [scheduler](crate::scheduler) reads the
//! store back to predict the winning scheme for the next pair of the same
//! bucket instead of racing everything.
//!
//! Buckets are deliberately coarse — dynamic/static, a log₂ qubit-width
//! band, and whether the two circuits draw on different gate sets — so a
//! single batch pass over a workload family is enough to warm every bucket
//! the family touches.

use crate::engine::SchemeReport;
use crate::scheme::Scheme;
use circuit::{OpKind, QuantumCircuit};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Features of a circuit pair the scheduler scores schemes against.
///
/// Extraction is cheap (one pass over each circuit's operations) and
/// deterministic; the features deliberately ignore anything the verdict
/// could depend on — they describe the *shape* of the instance, not its
/// equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PairFeatures {
    /// Register width: the larger qubit count of the two circuits.
    pub qubits: usize,
    /// Gate count (barriers excluded): the larger of the two circuits.
    pub gates: usize,
    /// Non-unitary primitives (measurements, resets, classically-controlled
    /// gates) summed over both circuits.
    pub non_unitary: usize,
    /// Size of the symmetric difference between the two circuits' gate
    /// sets (by mnemonic): `0` when both circuits draw on the same gates, a
    /// positive count when one side uses gates the other never does — the
    /// typical signature of a compiled-vs-reference or static-vs-dynamic
    /// pair.
    pub gate_set_diff: usize,
    /// Absolute difference of the two circuits' gate counts. Together with
    /// [`gate_set_diff`](Self::gate_set_diff) this is the near-identity
    /// signal: adjacent compilation-chain snapshots differ by one pass's
    /// worth of rewriting, so their miter stays close to the identity.
    pub gate_count_diff: usize,
    /// Whether either circuit contains dynamic primitives.
    pub dynamic: bool,
}

impl PairFeatures {
    /// Extracts the features of a circuit pair.
    pub fn extract(left: &QuantumCircuit, right: &QuantumCircuit) -> Self {
        let gate_set = |circuit: &QuantumCircuit| -> BTreeSet<&'static str> {
            circuit
                .ops()
                .iter()
                .filter_map(|op| match &op.kind {
                    OpKind::Unitary { gate, .. } => Some(gate.name()),
                    _ => None,
                })
                .collect()
        };
        let left_counts = left.counts();
        let right_counts = right.counts();
        let left_set = gate_set(left);
        let right_set = gate_set(right);
        PairFeatures {
            qubits: left.num_qubits().max(right.num_qubits()),
            gates: left_counts.total_gates().max(right_counts.total_gates()),
            non_unitary: left_counts.dynamic() + right_counts.dynamic(),
            gate_set_diff: left_set.symmetric_difference(&right_set).count(),
            gate_count_diff: left_counts
                .total_gates()
                .abs_diff(right_counts.total_gates()),
            dynamic: left.is_dynamic() || right.is_dynamic(),
        }
    }

    /// Whether the pair looks like two snapshots of the same circuit — same
    /// gate set (`gate_set_diff == 0`) and gate counts within an eighth of
    /// each other — so the miter stays close to the identity. This is the
    /// signature of adjacent compilation-chain steps and of a structured
    /// (peephole-optimized vs original) pair.
    pub fn near_identity(&self) -> bool {
        self.gate_set_diff == 0 && self.gate_count_diff.saturating_mul(8) <= self.gates
    }

    /// The coarse bucket these features fall into.
    pub fn bucket(&self) -> FeatureBucket {
        FeatureBucket {
            // log₂ width band: 0 for 0–1 qubits, 3 for 5–8, 4 for 9–16, …
            width_band: self
                .qubits
                .max(1)
                .next_power_of_two()
                .trailing_zeros()
                .min(u8::MAX as u32) as u8,
            dynamic: self.dynamic,
            mixed_gate_set: self.gate_set_diff > 0,
            near_identity: self.near_identity(),
        }
    }
}

/// Coarse feature bucket used as one half of a telemetry key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FeatureBucket {
    /// `ceil(log2(qubits))`: pairs within a factor-two width band share a
    /// bucket.
    pub width_band: u8,
    /// Whether the pair contains dynamic primitives (dynamic pairs race a
    /// different scheme set entirely).
    pub dynamic: bool,
    /// Whether the two circuits draw on different gate sets.
    pub mixed_gate_set: bool,
    /// Whether the pair is [near-identity](PairFeatures::near_identity) —
    /// structured miters bucket apart because the scheme ranking differs
    /// there. Stats recorded before this
    /// dimension existed live under the old (suffix-less) keys and simply
    /// go cold: predicted plans over a cold bucket degrade to race plans.
    pub near_identity: bool,
}

impl std::fmt::Display for FeatureBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-w{}{}{}",
            if self.dynamic { "dynamic" } else { "static" },
            self.width_band,
            if self.mixed_gate_set { "-mixed" } else { "" },
            if self.near_identity { "-near" } else { "" },
        )
    }
}

/// Running statistics of one scheme within one feature bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SchemeStats {
    /// Times the scheme was launched.
    pub launches: u64,
    /// Times it produced the race's winning (first conclusive) verdict.
    pub wins: u64,
    /// Times it finished with a conclusive verdict (winning or not).
    pub conclusive: u64,
    /// Times it was cancelled because a competitor won first.
    pub cancelled: u64,
    /// Times it failed (budget exhausted, unsupported circuit, panic).
    pub errors: u64,
    /// Wall-clock seconds summed over every launch.
    pub total_secs: f64,
    /// Wall-clock seconds summed over the winning launches only.
    pub win_secs: f64,
    /// Wall-clock seconds summed over the *cancelled* launches only. Kept
    /// separately so scoring can ignore them: a cancelled scheme unwinds in
    /// microseconds, and folding that into a mean would make perennial
    /// losers look fast.
    pub cancelled_secs: f64,
    /// Largest peak decision-diagram size any launch reported.
    pub peak_nodes_max: u64,
    /// Peak sizes summed over the launches that reported one.
    pub peak_nodes_sum: u64,
    /// Number of launches that reported a peak size.
    pub peak_samples: u64,
}

impl SchemeStats {
    /// Folds one scheme report into the stats. `won` marks the race winner.
    pub fn record(&mut self, report: &SchemeReport, won: bool) {
        self.launches += 1;
        self.wins += u64::from(won);
        self.conclusive += u64::from(report.conclusive);
        self.cancelled += u64::from(report.cancelled);
        self.errors += u64::from(report.error.is_some());
        let secs = report.duration.as_secs_f64();
        self.total_secs += secs;
        if won {
            self.win_secs += secs;
        }
        if report.cancelled {
            self.cancelled_secs += secs;
        }
        if let Some(peak) = report.peak_nodes {
            let peak = peak as u64;
            self.peak_nodes_max = self.peak_nodes_max.max(peak);
            self.peak_nodes_sum += peak;
            self.peak_samples += 1;
        }
    }

    /// Merges another stats record into this one (used when combining a
    /// fresh batch run with a stats file from earlier runs).
    pub fn merge(&mut self, other: &SchemeStats) {
        self.launches += other.launches;
        self.wins += other.wins;
        self.conclusive += other.conclusive;
        self.cancelled += other.cancelled;
        self.errors += other.errors;
        self.total_secs += other.total_secs;
        self.win_secs += other.win_secs;
        self.cancelled_secs += other.cancelled_secs;
        self.peak_nodes_max = self.peak_nodes_max.max(other.peak_nodes_max);
        self.peak_nodes_sum += other.peak_nodes_sum;
        self.peak_samples += other.peak_samples;
    }

    /// Mean wall-clock seconds of a winning launch, falling back to the
    /// mean over the launches that actually ran to an end (cancelled
    /// launches are excluded — a loser unwinding in microseconds says
    /// nothing about how fast the scheme would *finish*), and `1.0` with no
    /// usable data at all.
    pub fn mean_secs(&self) -> f64 {
        if self.wins > 0 {
            return self.win_secs / self.wins as f64;
        }
        let completed = self.launches.saturating_sub(self.cancelled);
        if completed > 0 {
            (self.total_secs - self.cancelled_secs).max(0.0) / completed as f64
        } else {
            1.0
        }
    }

    /// Predicted-winner score: a Laplace-smoothed win rate divided by the
    /// mean time to win. Higher is better; deterministic for given stats.
    pub fn score(&self) -> f64 {
        let win_rate = (self.wins as f64 + 0.5) / (self.launches as f64 + 1.0);
        win_rate / (self.mean_secs() + 1e-3)
    }
}

/// Running statistics of how well *shared-store racing* paid off within one
/// feature bucket, accumulated across races (see
/// [`TelemetryStore::record_sharing`]).
///
/// The bucket already captures what drives the sharing economics: the width
/// band (wider miters build more reusable structure) and the scheme mix
/// (dynamic pairs race a different scheme set entirely). The stats add the
/// two measured signals — the race's cross-thread hit rate and the time its
/// schemes spent blocked on store locks — which the scheduler reads back to
/// decide whether the *next* pair of the bucket should race on a shared
/// store at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SharingStats {
    /// Shared-store races recorded into this bucket.
    pub races: u64,
    /// Sum of per-race `cross_thread_hit_rate` values (each in `[0, 1]`).
    pub hit_rate_sum: f64,
    /// Sum of per-race `shard_contention_seconds` (cross-thread sums, so a
    /// single addend can exceed its race's wall-clock time).
    pub contention_secs_sum: f64,
    /// Sum of per-race wall-clock seconds, the denominator that makes
    /// contention comparable across machines and instance sizes.
    pub race_secs_sum: f64,
}

/// Mean cross-thread hit rate below which sharing historically has not paid:
/// the store-lock traffic buys almost no reuse. Derived from the checked-in
/// `BENCH_shared.json` spread — low-width QPE buckets sit near 0.07, the
/// high-reuse ones above 0.4 — so the threshold splits the two populations
/// with a wide margin on both sides.
pub const SHARING_HIT_RATE_THRESHOLD: f64 = 0.25;

/// Contention veto: even a good hit rate cannot pay for a store whose locks
/// eat more than this fraction of the races' wall-clock time.
pub const SHARING_CONTENTION_CEILING: f64 = 0.25;

impl SharingStats {
    /// Folds one shared race's signals into the stats.
    pub fn record(&mut self, hit_rate: f64, contention_secs: f64, race_secs: f64) {
        self.races += 1;
        self.hit_rate_sum += hit_rate;
        self.contention_secs_sum += contention_secs;
        self.race_secs_sum += race_secs;
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &SharingStats) {
        self.races += other.races;
        self.hit_rate_sum += other.hit_rate_sum;
        self.contention_secs_sum += other.contention_secs_sum;
        self.race_secs_sum += other.race_secs_sum;
    }

    /// Mean per-race cross-thread hit rate (`0.0` with no recorded races).
    pub fn mean_hit_rate(&self) -> f64 {
        if self.races == 0 {
            0.0
        } else {
            self.hit_rate_sum / self.races as f64
        }
    }

    /// Recorded lock-contention time as a fraction of recorded race time
    /// (`0.0` with no recorded time; can exceed `1.0` because contention
    /// sums across threads).
    pub fn contention_fraction(&self) -> f64 {
        if self.race_secs_sum <= 0.0 {
            0.0
        } else {
            self.contention_secs_sum / self.race_secs_sum
        }
    }

    /// The prediction: sharing pays when the recorded hit rate clears
    /// [`SHARING_HIT_RATE_THRESHOLD`] and lock contention stays under
    /// [`SHARING_CONTENTION_CEILING`] of race time. Deterministic for given
    /// stats.
    pub fn favors_sharing(&self) -> bool {
        self.mean_hit_rate() >= SHARING_HIT_RATE_THRESHOLD
            && self.contention_fraction() <= SHARING_CONTENTION_CEILING
    }
}

/// Error raised while loading or saving a [`TelemetryStore`].
#[derive(Debug)]
pub enum TelemetryError {
    /// The stats file could not be read or written.
    Io(std::io::Error),
    /// The stats file was not valid JSON of the expected shape.
    Parse(serde::Error),
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::Io(e) => write!(f, "stats file i/o error: {e}"),
            TelemetryError::Parse(e) => write!(f, "invalid stats file: {e}"),
        }
    }
}

impl std::error::Error for TelemetryError {}

impl From<std::io::Error> for TelemetryError {
    fn from(e: std::io::Error) -> Self {
        TelemetryError::Io(e)
    }
}

/// Accumulated scheme telemetry across races, keyed by
/// `(scheme name, feature bucket)`.
///
/// The store is plain data — no interior mutability. The batch driver wraps
/// it in a `Mutex` so concurrent pair workers can record into one store; the
/// scheduler only ever reads.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct TelemetryStore {
    /// Races recorded into this store (over its whole on-disk lifetime).
    pub races: u64,
    /// Per-(scheme, bucket) stats. Keys are `"{scheme}@{bucket}"`, e.g.
    /// `"fixed-input@dynamic-w4"`.
    pub schemes: BTreeMap<String, SchemeStats>,
    /// Per-bucket shared-store payoff stats, keyed by the bucket's display
    /// form (e.g. `"static-w4"`). `Option` because stats files written
    /// before this field existed deserialize the missing key as `Null`,
    /// which only `Option` accepts — an old file must keep loading.
    pub sharing: Option<BTreeMap<String, SharingStats>>,
}

impl TelemetryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TelemetryStore::default()
    }

    /// Whether the store holds no recorded launches at all.
    pub fn is_empty(&self) -> bool {
        self.schemes.values().all(|stats| stats.launches == 0)
    }

    /// The store key of a scheme within a bucket.
    pub fn key(scheme: Scheme, bucket: &FeatureBucket) -> String {
        format!("{}@{bucket}", scheme.name())
    }

    /// Folds every report of one race into the store.
    pub fn record_race(
        &mut self,
        features: &PairFeatures,
        reports: &[SchemeReport],
        winner: Option<Scheme>,
    ) {
        let bucket = features.bucket();
        self.races += 1;
        for report in reports {
            self.schemes
                .entry(TelemetryStore::key(report.scheme, &bucket))
                .or_default()
                .record(report, winner == Some(report.scheme));
        }
    }

    /// The recorded stats of a scheme within a bucket, if any.
    pub fn stats(&self, scheme: Scheme, bucket: &FeatureBucket) -> Option<&SchemeStats> {
        self.schemes.get(&TelemetryStore::key(scheme, bucket))
    }

    /// Folds one shared race's sharing signals into the pair's bucket.
    pub fn record_sharing(
        &mut self,
        features: &PairFeatures,
        hit_rate: f64,
        contention_secs: f64,
        race_secs: f64,
    ) {
        self.sharing
            .get_or_insert_with(BTreeMap::new)
            .entry(features.bucket().to_string())
            .or_default()
            .record(hit_rate, contention_secs, race_secs);
    }

    /// The recorded sharing stats of a bucket, if any race was recorded.
    pub fn sharing_stats(&self, bucket: &FeatureBucket) -> Option<&SharingStats> {
        self.sharing
            .as_ref()
            .and_then(|map| map.get(&bucket.to_string()))
            .filter(|stats| stats.races > 0)
    }

    /// Merges another store into this one.
    pub fn merge(&mut self, other: &TelemetryStore) {
        self.races += other.races;
        for (key, stats) in &other.schemes {
            self.schemes.entry(key.clone()).or_default().merge(stats);
        }
        if let Some(sharing) = &other.sharing {
            let own = self.sharing.get_or_insert_with(BTreeMap::new);
            for (key, stats) in sharing {
                own.entry(key.clone()).or_default().merge(stats);
            }
        }
    }

    /// Serializes the store as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry stats are always serializable")
    }

    /// Parses a store from JSON text.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Parse`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, TelemetryError> {
        serde_json::from_str(text).map_err(TelemetryError::Parse)
    }

    /// Loads a store from disk. A *missing* file yields an empty store — the
    /// cold-start case of `verify --stats-file` — while an unreadable or
    /// malformed file is an error (silently discarding recorded history
    /// would make the scheduler regress to racing without explanation).
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Io`] / [`TelemetryError::Parse`].
    pub fn load(path: &Path) -> Result<Self, TelemetryError> {
        match std::fs::read_to_string(path) {
            Ok(text) => TelemetryStore::from_json(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(TelemetryStore::new()),
            Err(e) => Err(TelemetryError::Io(e)),
        }
    }

    /// Saves the store to disk (overwriting) — crash-safely: the JSON is
    /// written to a temporary file in the *same directory* and renamed over
    /// the target, so a process killed or OOM'd mid-save can never leave a
    /// truncated or corrupt stats file where [`load`](Self::load) would find
    /// it. The worst outcome of an ill-timed kill is a stale orphaned
    /// `.<name>.tmp-<pid>` file (overwritten by the next save from the same
    /// pid) and the *previous* complete stats surviving; this guards against
    /// partial writes, not against power loss (no fsync).
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Io`] when the temporary file cannot be written or
    /// renamed into place (the temporary file is cleaned up on failure).
    pub fn save(&self, path: &Path) -> Result<(), TelemetryError> {
        let file_name = path
            .file_name()
            .ok_or_else(|| {
                TelemetryError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("stats path {} has no file name", path.display()),
                ))
            })?
            .to_string_lossy()
            .into_owned();
        let dir = match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent,
            _ => Path::new("."),
        };
        let tmp = dir.join(format!(".{file_name}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, self.to_json() + "\n").map_err(TelemetryError::Io)?;
        std::fs::rename(&tmp, path).map_err(|error| {
            let _ = std::fs::remove_file(&tmp);
            TelemetryError::Io(error)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_band_by_width_and_kind() {
        let features = |qubits, dynamic| PairFeatures {
            qubits,
            gates: 10,
            non_unitary: 0,
            gate_set_diff: 0,
            gate_count_diff: 10,
            dynamic,
        };
        assert_eq!(features(6, false).bucket(), features(8, false).bucket());
        assert_ne!(features(8, false).bucket(), features(9, false).bucket());
        assert_ne!(features(8, false).bucket(), features(8, true).bucket());
        assert_eq!(features(12, true).bucket().to_string(), "dynamic-w4");
    }

    #[test]
    fn near_identity_pairs_bucket_apart() {
        // Same gate set, nearly the same gate count: the chain-step shape.
        let near = PairFeatures {
            qubits: 12,
            gates: 100,
            non_unitary: 0,
            gate_set_diff: 0,
            gate_count_diff: 4,
            dynamic: false,
        };
        assert!(near.near_identity());
        assert_eq!(near.bucket().to_string(), "static-w4-near");

        // A different gate set is never near-identity, however small the
        // count difference — a basis rewrite rewrites everything.
        let rebased = PairFeatures {
            gate_set_diff: 3,
            ..near
        };
        assert!(!rebased.near_identity());
        assert_ne!(near.bucket(), rebased.bucket());

        // Heavy optimization (large count delta) also leaves the regime.
        let shrunk = PairFeatures {
            gate_count_diff: 50,
            ..near
        };
        assert!(!shrunk.near_identity());
        assert_eq!(shrunk.bucket().to_string(), "static-w4");
    }

    #[test]
    fn score_does_not_reward_fast_cancellations() {
        // A consistent 50ms winner must outrank a scheme that never finishes
        // — its launches are all cancelled after ~0.2ms, and that unwind
        // speed says nothing about how fast it could win.
        let mut winner = SchemeStats::default();
        let mut loser = SchemeStats::default();
        for _ in 0..10 {
            winner.launches += 1;
            winner.wins += 1;
            winner.win_secs += 0.05;
            winner.total_secs += 0.05;
            loser.launches += 1;
            loser.cancelled += 1;
            loser.total_secs += 0.0002;
            loser.cancelled_secs += 0.0002;
        }
        assert!(
            winner.score() > loser.score(),
            "winner {} vs cancelled loser {}",
            winner.score(),
            loser.score()
        );
    }

    #[test]
    fn score_prefers_fast_frequent_winners() {
        let mut fast = SchemeStats::default();
        let mut slow = SchemeStats::default();
        for _ in 0..10 {
            fast.launches += 1;
            fast.wins += 1;
            fast.win_secs += 0.01;
            fast.total_secs += 0.01;
            slow.launches += 1;
            slow.total_secs += 0.5;
        }
        assert!(fast.score() > slow.score());
    }

    #[test]
    fn save_is_atomic_against_partial_writes() {
        let dir = std::env::temp_dir().join(format!("telemetry-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("stats.json");

        let mut store = TelemetryStore::new();
        store.races = 7;
        store.save(&path).expect("save");
        let loaded = TelemetryStore::load(&path).expect("load after save");
        assert_eq!(loaded.races, 7);

        // Simulate a daemon killed mid-save: the in-progress temp file holds
        // a truncated prefix of the JSON. `load` must still observe only the
        // last *complete* save — the rename is what publishes a save, so a
        // partial temp file is invisible.
        let tmp = dir.join(format!(".stats.json.tmp-{}", std::process::id()));
        std::fs::write(&tmp, &store.to_json()[..10]).expect("write partial temp file");
        let survived = TelemetryStore::load(&path).expect("load alongside a partial temp file");
        assert_eq!(survived.races, 7, "partial write is never observed");

        // A completed save replaces the target atomically and leaves no
        // temp file behind, even with the stale orphan in the way.
        store.races = 11;
        store.save(&path).expect("second save");
        assert_eq!(TelemetryStore::load(&path).expect("reload").races, 11);
        assert!(!tmp.exists(), "save cleans up (reuses) its temp file name");

        // Truncated *target* files still fail loudly — crash safety means
        // that state can no longer arise from `save`, not that corruption
        // gets silently ignored.
        std::fs::write(&path, "{\"races\": 3").expect("corrupt target");
        assert!(TelemetryStore::load(&path).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_rejects_pathless_targets() {
        let store = TelemetryStore::new();
        assert!(store.save(Path::new("/")).is_err());
    }
}
