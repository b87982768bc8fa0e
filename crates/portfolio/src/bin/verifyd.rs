//! verifyd — resident verification daemon over the portfolio service core.
//!
//! Speaks the newline-delimited JSON-RPC protocol of [`portfolio::wire`]
//! over stdio (the default; one client) or a Unix socket (`--socket PATH`;
//! concurrent clients, one thread per connection). All clients share one
//! [`portfolio::service::VerificationService`]: the worker pool and the
//! admission queue are daemon-global, while every race runs on a fresh
//! decision-diagram store of its own.
//!
//! ```text
//! verifyd [--socket PATH] [--workers N] [--max-queue N]
//!         [--deadline SECS] [--node-limit N] [--private-packages]
//!         [--trace-file FILE] [--max-frame-bytes N]
//! ```
//!
//! Methods: `verify-pair`, `verify-chain`, `verify-batch`, `stats`,
//! `drain`, `shutdown` (wire details in [`portfolio::wire`]). Responses are
//! written in *completion* order — correlate by `id`. Every verify response
//! carries the `obs::metrics` delta folded around its race. A client that
//! disconnects with requests outstanding cancels them: each request's
//! token unwinds its in-flight race, and the race's store is dropped.
//!
//! `verify-chain` takes a compilation pipeline — `steps` is an ordered
//! array of `{pass?, path|text}` snapshots — and verifies it pass-by-pass
//! ([`portfolio::chain`]); the response carries per-step
//! reports and, on refutation, the `guilty_pass`.
//!
//! `drain` stops admission, finishes the backlog (all connections),
//! answers with the final service stats and exits 0.
//! `shutdown` is `drain` with the backlog cancelled first.

use portfolio::chain::{ChainRequest, ChainStep};
use portfolio::service::{
    ChainOutcome, Request, RequestOutcome, ServiceConfig, Source, VerificationService,
};
use portfolio::wire::{self, code, Frame, RpcRequest};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

struct Args {
    socket: Option<PathBuf>,
    workers: Option<usize>,
    max_queue: Option<usize>,
    deadline: Option<f64>,
    node_limit: Option<usize>,
    private_packages: bool,
    trace_file: Option<PathBuf>,
    max_frame: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: None,
        workers: None,
        max_queue: None,
        deadline: None,
        node_limit: None,
        private_packages: false,
        trace_file: None,
        max_frame: wire::MAX_FRAME_BYTES,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--socket" => args.socket = Some(PathBuf::from(value("--socket")?)),
            "--workers" => {
                args.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "--workers must be a positive integer".to_string())?,
                );
            }
            "--max-queue" => {
                args.max_queue = Some(
                    value("--max-queue")?
                        .parse()
                        .map_err(|_| "--max-queue must be a non-negative integer".to_string())?,
                );
            }
            "--deadline" => {
                let seconds: f64 = value("--deadline")?
                    .parse()
                    .map_err(|_| "invalid --deadline")?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--deadline must be a positive number of seconds".to_string());
                }
                args.deadline = Some(seconds);
            }
            "--node-limit" => {
                args.node_limit = Some(
                    value("--node-limit")?
                        .parse()
                        .map_err(|_| "--node-limit must be a positive integer".to_string())?,
                );
            }
            "--private-packages" => args.private_packages = true,
            "--trace-file" => args.trace_file = Some(PathBuf::from(value("--trace-file")?)),
            "--max-frame-bytes" => {
                args.max_frame = value("--max-frame-bytes")?
                    .parse()
                    .map_err(|_| "--max-frame-bytes must be a positive integer".to_string())?;
                if args.max_frame == 0 {
                    return Err("--max-frame-bytes must be positive".to_string());
                }
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}`; usage: verifyd [--socket PATH] [--workers N] \
                     [--max-queue N] [--deadline SECS] [--node-limit N] \
                     [--private-packages] [--trace-file FILE] [--max-frame-bytes N]"
                ));
            }
        }
    }
    Ok(args)
}

/// Daemon-global state shared by every connection thread.
struct Daemon {
    service: VerificationService,
    /// Verify requests whose waiter thread has not written its response
    /// yet; drain waits for this to hit zero so the drain response is the
    /// last line a well-behaved client sees.
    pending: Mutex<usize>,
    pending_done: Condvar,
    /// Set once a drain/shutdown response is being produced; later drain
    /// requests short-circuit instead of double-draining.
    stopping: AtomicBool,
    socket_path: Option<PathBuf>,
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn write_line(writer: &SharedWriter, line: &str) {
    let mut guard = lock(writer);
    // A dead peer is normal (disconnect with responses in flight).
    let _ = guard.write_all(line.as_bytes());
    let _ = guard.flush();
}

// ---------------------------------------------------------------------------
// Param parsing
// ---------------------------------------------------------------------------

fn field<'v>(params: Option<&'v Value>, name: &str) -> Option<&'v Value> {
    params
        .and_then(|p| p.get(name))
        .filter(|v| !matches!(v, Value::Null))
}

fn string_field(params: Option<&Value>, name: &str) -> Result<Option<String>, String> {
    match field(params, name) {
        None => Ok(None),
        Some(value) => value
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{name} must be a string, got {}", value.kind())),
    }
}

fn seconds_field(params: Option<&Value>, name: &str) -> Result<Option<Duration>, String> {
    match field(params, name) {
        None => Ok(None),
        Some(value) => {
            let seconds = value
                .as_f64()
                .ok_or_else(|| format!("{name} must be a number, got {}", value.kind()))?;
            if !seconds.is_finite() || seconds <= 0.0 {
                return Err(format!(
                    "{name} must be a positive, finite number of seconds"
                ));
            }
            Ok(Some(Duration::from_secs_f64(seconds)))
        }
    }
}

fn count_field(params: Option<&Value>, name: &str) -> Result<Option<usize>, String> {
    match field(params, name) {
        None => Ok(None),
        Some(value) => {
            let n = value
                .as_f64()
                .ok_or_else(|| format!("{name} must be a number, got {}", value.kind()))?;
            if !n.is_finite() || n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{name} must be a non-negative integer"));
            }
            Ok(Some(n as usize))
        }
    }
}

fn source_field(params: Option<&Value>, side: &str) -> Result<Source, String> {
    let path = string_field(params, side)?;
    let text = string_field(params, &format!("{side}_text"))?;
    match (path, text) {
        (Some(path), None) => Ok(Source::Path(PathBuf::from(path))),
        (None, Some(text)) => Ok(Source::Inline(text)),
        (Some(_), Some(_)) => Err(format!("give {side} or {side}_text, not both")),
        (None, None) => Err(format!("missing {side} (or {side}_text)")),
    }
}

/// Builds one [`Request`] from a params object (used both for
/// `verify-pair` and for each element of `verify-batch`'s `pairs`).
fn parse_request_params(params: Option<&Value>) -> Result<Request, String> {
    Ok(Request {
        name: string_field(params, "name")?,
        left: source_field(params, "left")?,
        right: source_field(params, "right")?,
        deadline: seconds_field(params, "deadline_seconds")?,
        node_limit: count_field(params, "node_limit")?,
        width_hint: count_field(params, "qubits")?,
    })
}

/// Builds one [`ChainRequest`] from `verify-chain` params: `steps` is an
/// ordered array of `{pass?, path|text}` snapshots, at least two.
fn parse_chain_params(params: Option<&Value>) -> Result<ChainRequest, String> {
    let steps_value = field(params, "steps")
        .ok_or("missing steps")?
        .as_array()
        .ok_or("steps must be an array")?;
    if steps_value.len() < 2 {
        return Err(format!(
            "steps must list at least 2 circuits, got {}",
            steps_value.len()
        ));
    }
    let steps = steps_value
        .iter()
        .enumerate()
        .map(|(index, step)| {
            if !matches!(step, Value::Object(_)) {
                return Err(format!("steps[{index}] must be an object"));
            }
            let at = |e: String| format!("steps[{index}]: {e}");
            let pass = string_field(Some(step), "pass").map_err(at)?;
            let path = string_field(Some(step), "path").map_err(at)?;
            let text = string_field(Some(step), "text").map_err(at)?;
            let source = match (path, text) {
                (Some(path), None) => Source::Path(PathBuf::from(path)),
                (None, Some(text)) => Source::Inline(text),
                (Some(_), Some(_)) => {
                    return Err(format!("steps[{index}]: give path or text, not both"))
                }
                (None, None) => return Err(format!("steps[{index}]: missing path (or text)")),
            };
            Ok(ChainStep { pass, source })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChainRequest {
        name: string_field(params, "name")?,
        steps,
        deadline: seconds_field(params, "deadline_seconds")?,
        node_limit: count_field(params, "node_limit")?,
        width_hint: count_field(params, "qubits")?,
    })
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

fn outcome_value(outcome: &RequestOutcome) -> Value {
    Value::Object(vec![
        ("request".to_string(), Value::Number(outcome.id as f64)),
        (
            "verdict".to_string(),
            Value::String(outcome.report.verdict.to_string()),
        ),
        (
            "considered_equivalent".to_string(),
            Value::Bool(outcome.report.considered_equivalent),
        ),
        ("cancelled".to_string(), Value::Bool(outcome.cancelled)),
        (
            "queue_wait_seconds".to_string(),
            Value::Number(outcome.queue_wait.as_secs_f64()),
        ),
        (
            "service_time_seconds".to_string(),
            Value::Number(outcome.service_time.as_secs_f64()),
        ),
        ("report".to_string(), serde_json::to_value(&outcome.report)),
        ("metrics".to_string(), outcome.metrics.clone()),
    ])
}

fn chain_outcome_value(outcome: &ChainOutcome) -> Value {
    Value::Object(vec![
        ("request".to_string(), Value::Number(outcome.id as f64)),
        (
            "verdict".to_string(),
            Value::String(outcome.report.verdict.to_string()),
        ),
        (
            "considered_equivalent".to_string(),
            Value::Bool(outcome.report.considered_equivalent),
        ),
        (
            "guilty_pass".to_string(),
            outcome
                .report
                .guilty_pass
                .as_ref()
                .map_or(Value::Null, |pass| Value::String(pass.clone())),
        ),
        (
            "steps_verified".to_string(),
            Value::Number(outcome.report.steps_verified as f64),
        ),
        ("cancelled".to_string(), Value::Bool(outcome.cancelled)),
        (
            "queue_wait_seconds".to_string(),
            Value::Number(outcome.queue_wait.as_secs_f64()),
        ),
        (
            "service_time_seconds".to_string(),
            Value::Number(outcome.service_time.as_secs_f64()),
        ),
        ("report".to_string(), serde_json::to_value(&outcome.report)),
        ("metrics".to_string(), outcome.metrics.clone()),
    ])
}

fn stats_value(daemon: &Daemon) -> Value {
    serde_json::to_value(&daemon.service.stats())
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Tracks this connection's outstanding request tokens so a disconnect can
/// cancel them.
type Outstanding = Arc<Mutex<HashMap<u64, dd::CancelToken>>>;

fn submit_and_respond(
    daemon: &Arc<Daemon>,
    writer: &SharedWriter,
    outstanding: &Outstanding,
    rpc_id: Option<Value>,
    requests: Vec<Request>,
    batch: bool,
) {
    let mut handles = Vec::with_capacity(requests.len());
    for request in requests {
        match daemon.service.submit(request) {
            Ok(handle) => handles.push(handle),
            Err(reason) => {
                // Cancel whatever part of the batch was already admitted
                // (dropping the handles does it) and report the rejection.
                let code = wire::reject_code(&reason);
                write_line(
                    writer,
                    &wire::response_error(rpc_id.as_ref(), code, &reason.to_string()),
                );
                return;
            }
        }
    }
    for handle in &handles {
        lock(outstanding).insert(handle.id(), handle.cancel_token().clone());
    }
    *lock(&daemon.pending) += 1;
    let daemon = Arc::clone(daemon);
    let writer = Arc::clone(writer);
    let outstanding = Arc::clone(outstanding);
    // One waiter thread per request line: responses go out in completion
    // order, the reader thread never blocks on a race.
    std::thread::spawn(move || {
        let outcomes: Vec<RequestOutcome> = handles
            .into_iter()
            .map(|handle| {
                let id = handle.id();
                let outcome = handle.wait();
                lock(&outstanding).remove(&id);
                outcome
            })
            .collect();
        let result = if batch {
            Value::Object(vec![
                (
                    "pairs".to_string(),
                    Value::Array(outcomes.iter().map(outcome_value).collect()),
                ),
                (
                    "equivalent".to_string(),
                    Value::Number(
                        outcomes
                            .iter()
                            .filter(|o| o.report.considered_equivalent)
                            .count() as f64,
                    ),
                ),
            ])
        } else {
            outcome_value(&outcomes[0])
        };
        write_line(&writer, &wire::response_ok(rpc_id.as_ref(), result));
        let mut pending = lock(&daemon.pending);
        *pending -= 1;
        if *pending == 0 {
            daemon.pending_done.notify_all();
        }
    });
}

/// [`submit_and_respond`] for one chain: same waiter-thread shape, one
/// chain outcome per response.
fn submit_chain_and_respond(
    daemon: &Arc<Daemon>,
    writer: &SharedWriter,
    outstanding: &Outstanding,
    rpc_id: Option<Value>,
    request: ChainRequest,
) {
    let handle = match daemon.service.submit_chain(request) {
        Ok(handle) => handle,
        Err(reason) => {
            let code = wire::reject_code(&reason);
            write_line(
                writer,
                &wire::response_error(rpc_id.as_ref(), code, &reason.to_string()),
            );
            return;
        }
    };
    lock(outstanding).insert(handle.id(), handle.cancel_token().clone());
    *lock(&daemon.pending) += 1;
    let daemon = Arc::clone(daemon);
    let writer = Arc::clone(writer);
    let outstanding = Arc::clone(outstanding);
    std::thread::spawn(move || {
        let id = handle.id();
        let outcome = handle.wait();
        lock(&outstanding).remove(&id);
        write_line(
            &writer,
            &wire::response_ok(rpc_id.as_ref(), chain_outcome_value(&outcome)),
        );
        let mut pending = lock(&daemon.pending);
        *pending -= 1;
        if *pending == 0 {
            daemon.pending_done.notify_all();
        }
    });
}

/// Finishes the daemon: drains (or cancels + drains) the service, waits
/// for in-flight responses to be written, answers the request, exits 0.
fn stop(
    daemon: &Arc<Daemon>,
    writer: &SharedWriter,
    rpc_id: Option<&Value>,
    cancel_first: bool,
) -> ! {
    if daemon.stopping.swap(true, Ordering::SeqCst) {
        // A concurrent drain is already in progress; acknowledge and let it
        // finish the process.
        write_line(
            writer,
            &wire::response_error(rpc_id, code::DRAINING, "drain already in progress"),
        );
        loop {
            std::thread::park();
        }
    }
    if cancel_first {
        daemon.service.shutdown();
    } else {
        daemon.service.drain();
    }
    // Let every waiter thread write its (possibly cancelled) response
    // before the final drain response goes out.
    {
        let mut pending = lock(&daemon.pending);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while *pending > 0 {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                break;
            }
            let (next, _) = daemon
                .pending_done
                .wait_timeout(pending, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            pending = next;
        }
    }
    write_line(
        writer,
        &wire::response_ok(
            rpc_id,
            Value::Object(vec![
                ("stopped".to_string(), Value::Bool(true)),
                ("stats".to_string(), stats_value(daemon)),
            ]),
        ),
    );
    obs::trace::flush();
    if let Some(path) = &daemon.socket_path {
        let _ = std::fs::remove_file(path);
    }
    std::process::exit(0);
}

fn dispatch(
    daemon: &Arc<Daemon>,
    writer: &SharedWriter,
    outstanding: &Outstanding,
    request: RpcRequest,
) {
    let RpcRequest { id, method, params } = request;
    match method.as_str() {
        "verify-pair" => match parse_request_params(params.as_ref()) {
            Ok(req) => submit_and_respond(daemon, writer, outstanding, id, vec![req], false),
            Err(message) => {
                write_line(
                    writer,
                    &wire::response_error(id.as_ref(), code::INVALID_PARAMS, &message),
                );
            }
        },
        "verify-chain" => match parse_chain_params(params.as_ref()) {
            Ok(req) => submit_chain_and_respond(daemon, writer, outstanding, id, req),
            Err(message) => {
                write_line(
                    writer,
                    &wire::response_error(id.as_ref(), code::INVALID_PARAMS, &message),
                );
            }
        },
        "verify-batch" => {
            let parsed = (|| -> Result<Vec<Request>, String> {
                let pairs = field(params.as_ref(), "pairs")
                    .ok_or("missing pairs")?
                    .as_array()
                    .ok_or("pairs must be an array")?;
                if pairs.is_empty() {
                    return Err("pairs must not be empty".to_string());
                }
                let deadline = seconds_field(params.as_ref(), "deadline_seconds")?;
                let node_limit = count_field(params.as_ref(), "node_limit")?;
                pairs
                    .iter()
                    .enumerate()
                    .map(|(index, pair)| {
                        if !matches!(pair, Value::Object(_)) {
                            return Err(format!("pairs[{index}] must be an object"));
                        }
                        let mut request = parse_request_params(Some(pair))
                            .map_err(|e| format!("pairs[{index}]: {e}"))?;
                        // Batch-level bounds apply where the pair sets none.
                        request.deadline = request.deadline.or(deadline);
                        request.node_limit = request.node_limit.or(node_limit);
                        Ok(request)
                    })
                    .collect()
            })();
            match parsed {
                Ok(requests) => submit_and_respond(daemon, writer, outstanding, id, requests, true),
                Err(message) => {
                    write_line(
                        writer,
                        &wire::response_error(id.as_ref(), code::INVALID_PARAMS, &message),
                    );
                }
            }
        }
        "stats" => {
            write_line(writer, &wire::response_ok(id.as_ref(), stats_value(daemon)));
        }
        "drain" => stop(daemon, writer, id.as_ref(), false),
        "shutdown" => stop(daemon, writer, id.as_ref(), true),
        other => {
            write_line(
                writer,
                &wire::response_error(
                    id.as_ref(),
                    code::METHOD_NOT_FOUND,
                    &format!("unknown method `{other}`"),
                ),
            );
        }
    }
}

fn serve_connection<R: Read>(
    daemon: &Arc<Daemon>,
    reader: R,
    writer: SharedWriter,
    max_frame: usize,
) {
    let mut reader = BufReader::new(reader);
    let outstanding: Outstanding = Arc::new(Mutex::new(HashMap::new()));
    loop {
        match wire::read_frame(&mut reader, max_frame) {
            Ok(Frame::Eof) | Err(_) => break,
            Ok(Frame::Oversized { discarded }) => {
                write_line(
                    &writer,
                    &wire::response_error(
                        None,
                        code::OVERSIZED_FRAME,
                        &format!("request line exceeded {max_frame} bytes ({discarded} discarded)"),
                    ),
                );
            }
            Ok(Frame::Line(line)) => {
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                match wire::parse_request(&line) {
                    Ok(request) => dispatch(daemon, &writer, &outstanding, request),
                    Err(error) => write_line(&writer, &wire::response_request_error(&error)),
                }
            }
        }
    }
    // Disconnect: whatever this client still has in flight dies with it.
    for (_, token) in lock(&outstanding).drain() {
        token.cancel();
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };

    let defaults = ServiceConfig::default();
    let mut config = ServiceConfig {
        workers: args.workers.map_or(defaults.workers, |w| w.max(1)),
        ..defaults
    };
    if let Some(max_queue) = args.max_queue {
        config.max_queue = max_queue;
    }
    config.portfolio.deadline = args.deadline.map(Duration::from_secs_f64);
    config.portfolio.node_limit = args.node_limit;
    config.portfolio.shared_package = !args.private_packages;

    if let Some(path) = &args.trace_file {
        if let Err(error) = obs::trace::install_file(path) {
            eprintln!("error: cannot open trace file {}: {error}", path.display());
            std::process::exit(2);
        }
    }

    let daemon = Arc::new(Daemon {
        service: VerificationService::start(config),
        pending: Mutex::new(0),
        pending_done: Condvar::new(),
        stopping: AtomicBool::new(false),
        socket_path: args.socket.clone(),
    });

    match &args.socket {
        None => {
            let writer: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::stdout())));
            serve_connection(
                &daemon,
                std::io::stdin(),
                Arc::clone(&writer),
                args.max_frame,
            );
            // stdin closed: the single client left. Finish the backlog it
            // did not cancel, exit.
            daemon.stopping.store(true, Ordering::SeqCst);
            daemon.service.drain();
            obs::trace::flush();
            std::process::exit(0);
        }
        Some(path) => {
            // A stale socket file from a dead daemon blocks bind; a *live*
            // daemon's socket should not be stolen silently.
            if path.exists() {
                if std::os::unix::net::UnixStream::connect(path).is_ok() {
                    eprintln!("error: {} is in use by a running daemon", path.display());
                    std::process::exit(2);
                }
                let _ = std::fs::remove_file(path);
            }
            let listener = match std::os::unix::net::UnixListener::bind(path) {
                Ok(listener) => listener,
                Err(error) => {
                    eprintln!("error: cannot bind {}: {error}", path.display());
                    std::process::exit(2);
                }
            };
            for connection in listener.incoming() {
                let Ok(stream) = connection else { continue };
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let daemon = Arc::clone(&daemon);
                let max_frame = args.max_frame;
                std::thread::spawn(move || {
                    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
                    serve_connection(&daemon, stream, writer, max_frame);
                });
            }
        }
    }
}
