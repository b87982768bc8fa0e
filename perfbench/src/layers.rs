//! Traced runs: spans kept in memory around each call into a layer, plus
//! the program's own `obs::trace` spans (`pair`, `chain`, `race`,
//! `scheme.run`, `gc.*`) read from an in-memory sink, folded into per-layer
//! self-time and each layer's share of the traced window.
//!
//! Attribution: at every instant of the window the *innermost* open spans
//! (open spans none of whose descendants is open) share the instant
//! equally, so parallel scheme threads split wall time instead of counting
//! it twice, and the layer shares plus the unattributed remainder sum to 1.

use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Layers, by crate or module name, in report order.
pub const LAYERS: [&str; 10] = [
    "circuit",
    "transform",
    "core",
    "sim",
    "dd",
    "scheduler",
    "engine",
    "service",
    "wire",
    "chain",
];

/// Every per-layer metric a traced run reports, with its unit, in report
/// order. Workloads that never exercise a layer report 0 for it.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("circuit.parse_ms".into(), "ms"),
        ("transform.t_trans_ms".into(), "ms"),
        ("transform.added_qubits".into(), "count"),
    ];
    for metric in ["core.t_ver_ms", "core.peak_miter_nodes", "core.undecided"] {
        for (_, suffix) in crate::races::STRATEGIES {
            let unit = if metric.ends_with("_ms") {
                "ms"
            } else {
                "count"
            };
            names.push((format!("{metric}.{suffix}"), unit));
        }
    }
    for (name, unit) in [
        ("sim.t_extract_ms", "ms"),
        ("sim.extract_leaves", "count"),
        ("sim.t_sim_ms", "ms"),
        ("dd.compute_hit_rate", "fraction"),
        ("dd.allocated_nodes", "count"),
        ("dd.peak_nodes", "count"),
        ("dd.gc_runs", "count"),
        ("dd.gc_barrier_wait_ms", "ms"),
        ("dd.contention_ms", "ms"),
        ("dd.cross_thread_hit_rate", "fraction"),
        ("dd.warm_hits", "count"),
        ("dd.dense_applies", "count"),
        ("scheduler.plan_us", "us"),
        ("scheduler.launches_per_pair", "count"),
        ("engine.race_ms", "ms"),
        ("engine.cancel_tail_ms", "ms"),
        ("engine.useful_frac", "fraction"),
        ("engine.functional_win_frac", "fraction"),
        ("service.queue_wait_ms.p50", "ms"),
        ("service.queue_wait_ms.p95", "ms"),
        ("service.service_ms.p50", "ms"),
        ("service.admission_rejects", "count"),
        ("service.warm_checkout_frac", "fraction"),
        ("wire.overhead_ms.p50", "ms"),
        ("chain.step_ms.p50", "ms"),
        ("chain.carry_hits", "count"),
        ("chain.shelf_hits", "count"),
        ("gen.late_ms.p95", "ms"),
        ("obs.trace_overhead_frac", "fraction"),
    ] {
        names.push((name.into(), unit));
    }
    for layer in LAYERS.iter().chain(["unattributed"].iter()) {
        names.push((format!("layer.{layer}.self_ms"), "ms"));
        names.push((format!("layer.{layer}.share"), "fraction"));
    }
    names
}

/// Orders measured per-layer values into the catalogue, 0 where absent.
pub fn per_layer_report(
    values: Vec<(String, f64, &'static str)>,
) -> Vec<(String, f64, &'static str)> {
    let measured: HashMap<String, f64> = values.into_iter().map(|(n, v, _)| (n, v)).collect();
    per_layer_catalog()
        .into_iter()
        .map(|(name, unit)| {
            let value = measured.get(&name).copied().unwrap_or(0.0);
            (name, value, unit)
        })
        .collect()
}

/// Bench-side span ids live above this offset so they never collide with
/// the program's `obs::trace` span ids.
const BENCH_IDS: u64 = 1 << 62;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    /// A layer name, or `None` for a bench-side request root.
    layer: Option<&'static str>,
    start_us: f64,
    end_us: f64,
}

#[derive(Clone)]
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// In-memory span recorder for one traced window.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: Mutex<u64>,
    sink: Option<SharedBuffer>,
}

impl Tracer {
    /// Starts a traced window; `with_obs` installs an in-memory
    /// `obs::trace` sink for the program's own spans.
    pub fn start(with_obs: bool) -> Tracer {
        let sink = with_obs.then(|| {
            let buffer = SharedBuffer(Arc::new(Mutex::new(Vec::new())));
            obs::trace::install_writer(Box::new(buffer.clone()));
            buffer
        });
        // The sink pins obs's timestamp epoch at install; our origin is
        // taken right after, so both clocks agree to within microseconds.
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: Mutex::new(BENCH_IDS),
            sink,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, parent: Option<u64>, layer: Option<&'static str>, start_us: f64) -> u64 {
        let mut next = self.next_id.lock().unwrap_or_else(PoisonError::into_inner);
        *next += 1;
        let id = *next;
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                id,
                parent,
                layer,
                start_us,
                end_us: f64::NAN,
            });
        id
    }

    fn close(&self, id: u64) {
        let end = self.now_us();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_us = end;
        }
    }

    /// Opens a request root span; close it with [`Tracer::end`].
    pub fn request(&self) -> u64 {
        let start = self.now_us();
        self.push(None, None, start)
    }

    pub fn end(&self, id: u64) {
        self.close(id);
    }

    /// Times `f` as a call into `layer` under `parent`.
    pub fn call<T>(&self, layer: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now_us();
        let id = self.push(Some(parent), Some(layer), start);
        let out = f();
        self.close(id);
        out
    }

    /// Ends the window: uninstalls the obs sink and attributes the window's
    /// wall time to layers. Returns self-time per layer in ms (plus
    /// `unattributed`) and the window length in ms.
    pub fn finish(self) -> LayerTimes {
        let wall_us = self.now_us();
        if self.sink.is_some() {
            obs::trace::uninstall();
        }
        let mut spans = self
            .spans
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        spans.retain(|s| s.end_us.is_finite());
        if let Some(sink) = &self.sink {
            let bytes = sink
                .0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            let bench_spans = spans.clone();
            spans.extend(parse_obs_spans(
                &String::from_utf8_lossy(&bytes),
                &bench_spans,
            ));
        }
        attribute(&spans, wall_us)
    }
}

/// Maps one program span kind (and its scheme tag) to a layer.
fn obs_layer(kind: &str, scheme: Option<&str>) -> Option<&'static str> {
    match kind {
        "pair" => Some("service"),
        "chain" => Some("chain"),
        "race" => Some("engine"),
        "scheme.run" => Some(match scheme {
            Some(s) if s.starts_with("fixed-input") => "sim",
            _ => "core",
        }),
        k if k.starts_with("gc.") => Some("dd"),
        _ => None,
    }
}

fn parse_obs_spans(jsonl: &str, bench: &[Span]) -> Vec<Span> {
    let mut open: HashMap<u64, Span> = HashMap::new();
    let mut done = Vec::new();
    for line in jsonl.lines() {
        let Ok(value) = serde_json::from_str::<serde::Value>(line) else {
            continue;
        };
        let number = |name: &str| value.get(name).and_then(serde::Value::as_f64);
        let (Some(ts), Some(id)) = (number("ts_us"), number("span")) else {
            continue;
        };
        let id = id as u64;
        match value.get("ev").and_then(serde::Value::as_str) {
            Some("span_start") => {
                let kind = value
                    .get("kind")
                    .and_then(serde::Value::as_str)
                    .unwrap_or("");
                let scheme = value.get("scheme").and_then(serde::Value::as_str);
                let Some(layer) = obs_layer(kind, scheme) else {
                    continue;
                };
                open.insert(
                    id,
                    Span {
                        id,
                        parent: number("parent").map(|p| p as u64),
                        layer: Some(layer),
                        start_us: ts,
                        end_us: f64::NAN,
                    },
                );
            }
            Some("span_end") => {
                if let Some(mut span) = open.remove(&id) {
                    span.end_us = ts;
                    done.push(span);
                }
            }
            _ => {}
        }
    }
    // Program root spans hang under the innermost bench span enclosing
    // their start (requests run one at a time on the bench thread).
    let known: std::collections::HashSet<u64> = done.iter().map(|s| s.id).collect();
    for span in &mut done {
        if span.parent.is_none_or(|p| !known.contains(&p)) {
            span.parent = bench
                .iter()
                .filter(|b| b.start_us <= span.start_us && span.start_us <= b.end_us)
                .max_by(|a, b| a.start_us.total_cmp(&b.start_us))
                .map(|b| b.id);
        }
    }
    done
}

/// Per-layer self-time of a traced window.
pub struct LayerTimes {
    pub self_ms: HashMap<&'static str, f64>,
    pub unattributed_ms: f64,
    pub wall_ms: f64,
}

impl LayerTimes {
    /// Builds layer times from already-known per-layer totals (used where
    /// the work happens in another process and only reported durations
    /// are available).
    pub fn from_totals(totals: &[(&'static str, f64)], wall_ms: f64) -> LayerTimes {
        let mut self_ms = HashMap::new();
        for (layer, ms) in totals {
            *self_ms.entry(*layer).or_insert(0.0) += ms;
        }
        let attributed: f64 = self_ms.values().sum();
        LayerTimes {
            self_ms,
            unattributed_ms: (wall_ms - attributed).max(0.0),
            wall_ms,
        }
    }

    /// `layer.<name>.self_ms` and `layer.<name>.share` for every layer and
    /// the unattributed remainder.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut out = Vec::new();
        let wall = self.wall_ms.max(1e-9);
        for layer in LAYERS {
            let ms = self.self_ms.get(layer).copied().unwrap_or(0.0);
            out.push((format!("layer.{layer}.self_ms"), ms, "ms"));
            out.push((format!("layer.{layer}.share"), ms / wall, "fraction"));
        }
        out.push((
            "layer.unattributed.self_ms".into(),
            self.unattributed_ms,
            "ms",
        ));
        out.push((
            "layer.unattributed.share".into(),
            self.unattributed_ms / wall,
            "fraction",
        ));
        out
    }
}

fn attribute(spans: &[Span], wall_us: f64) -> LayerTimes {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // ancestors[i]: indices of every ancestor of span i.
    let ancestors: Vec<Vec<usize>> = spans
        .iter()
        .map(|span| {
            let mut chain = Vec::new();
            let mut parent = span.parent;
            while let Some(p) = parent.and_then(|p| index.get(&p).copied()) {
                if chain.contains(&p) {
                    break;
                }
                chain.push(p);
                parent = spans[p].parent;
            }
            chain
        })
        .collect();
    let mut events: Vec<(f64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, span) in spans.iter().enumerate() {
        let start = span.start_us.clamp(0.0, wall_us);
        let end = span.end_us.clamp(start, wall_us);
        events.push((start, true, i));
        events.push((end, false, i));
    }
    // Ends before starts at equal timestamps.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut self_us: HashMap<&'static str, f64> = HashMap::new();
    let mut unattributed = 0.0;
    let mut active: Vec<usize> = Vec::new();
    let mut last = 0.0;
    for (time, is_start, i) in events {
        let dt = time - last;
        if dt > 0.0 {
            let leaves: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&a| !active.iter().any(|&b| ancestors[b].contains(&a)))
                .collect();
            let layered: Vec<&'static str> =
                leaves.iter().filter_map(|&l| spans[l].layer).collect();
            if leaves.is_empty() {
                unattributed += dt;
            } else {
                let share = dt / leaves.len() as f64;
                unattributed += share * (leaves.len() - layered.len()) as f64;
                for layer in layered {
                    *self_us.entry(layer).or_insert(0.0) += share;
                }
            }
            last = time;
        }
        if is_start {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&a| a == i) {
            active.swap_remove(pos);
        }
    }
    unattributed += (wall_us - last).max(0.0);
    LayerTimes {
        self_ms: self_us.into_iter().map(|(k, v)| (k, v / 1e3)).collect(),
        unattributed_ms: unattributed / 1e3,
        wall_ms: wall_us / 1e3,
    }
}
