//! `verifyd-open`: an open-loop stream of small pairs sent as inline-QASM
//! `verify-pair` requests to a `verifyd` child over stdio, with the
//! daemon's default worker and queue settings.
//!
//! Inputs: reduced-size Table 1 pairs (BV 17–65, QPE 9–15, QFT 8–12), the
//! BV and QPE inequivalent twins, and the endpoint pairs of a small compile
//! corpus, half of them broken (one CX dropped from the compiled side).
//! Together they span more register widths than the daemon's store pool
//! keeps shelves for. Arrivals are evenly spaced at one fixed rate, well
//! below what the daemon sustains here; the seed fixes the order of the
//! inputs. One process generates the load, with a writer and a reader
//! thread; latency runs from each request's due time.

use crate::inputs::{
    bv_pair, compile_corpus, corpus_options, parse_verdict, qft_pair, qpe_pair, BreakAt, Expect,
    PairInput,
};
use crate::layers::{per_layer_report, LayerTimes};
use crate::races::{self, Race};
use crate::stats::{median, peak_rss_mb, quantile, Report, Rng, Sample, Window};
use crate::{oracle, Args};
use bench::Family;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Fixed arrival rate (requests per second).
pub const RATE: f64 = 10.0;
/// Per-request deadline sent with every request.
const DEADLINE_S: f64 = 5.0;
/// Tail percentile. A run sends about 300 requests, so p95 would have 15
/// samples beyond it, but those are set by how many requests a daemon
/// stall happens to hit (store churn over more widths than shelves), and
/// p95 swung 28–49 ms between runs of one seed. p90 (30 beyond) reads the
/// heavy inputs and repeats within a few percent.
pub const TAIL_Q: f64 = 0.90;
/// A run whose generator sent its p95 request later than this after the
/// due time is invalid: the load was not the load the benchmark claims.
const MAX_LATE_MS: f64 = 25.0;
const SETUPS: usize = 7;

/// A known-answer pair as wire-ready QASM text.
struct WirePair {
    name: String,
    left: String,
    right: String,
    qubits: usize,
    expect: Expect,
    kind: &'static str,
}

fn wire_pair(pair: &PairInput) -> WirePair {
    WirePair {
        name: pair.name.clone(),
        left: circuit::qasm::to_qasm(&pair.left),
        right: circuit::qasm::to_qasm(&pair.right),
        qubits: pair.left.num_qubits().max(pair.right.num_qubits()),
        expect: pair.expect,
        kind: pair.kind,
    }
}

fn build(seed: u64, dir: &Path) -> Result<(Vec<PairInput>, Vec<WirePair>), String> {
    let mut rng = Rng::new(seed, 20);
    let mut pairs = Vec::new();
    for n in [17, 33, 49, 65] {
        pairs.push(bv_pair(n, &mut rng, false));
        pairs.push(bv_pair(n, &mut rng, true));
    }
    for n in [9, 11, 13, 15] {
        pairs.push(qpe_pair(n, &mut rng, false));
        pairs.push(qpe_pair(n, &mut rng, true));
    }
    for n in [8, 10, 12] {
        pairs.push(qft_pair(n));
    }
    // Compile-corpus endpoints; every second chain breaks its last pass,
    // which makes that endpoint pair inequivalent.
    let options = corpus_options(&[Family::BernsteinVazirani, Family::Qft], vec![5, 7]);
    let count = options.families.len()
        * options.widths.len()
        * options.couplings.len()
        * options.opt_levels.len();
    let broken: Vec<usize> = (0..count).filter(|i| i % 2 == 1).collect();
    let corpus = compile_corpus(dir, &options, &broken, BreakAt::Last, &mut rng)?;
    pairs.extend(corpus.endpoints);
    spot_check(&pairs, seed)?;
    let wire = pairs.iter().map(wire_pair).collect();
    Ok((pairs, wire))
}

/// Oracle on the smallest instance of each kind: the table kinds through
/// the ensemble simulator (same builders at dense size), compiled
/// endpoints through dense unitaries.
fn spot_check(pairs: &[PairInput], seed: u64) -> Result<(), String> {
    crate::table1::spot_check_table1_kinds(seed)?;
    for kind in ["endpoint", "endpoint-broken"] {
        let smallest = pairs
            .iter()
            .filter(|p| p.kind == kind)
            .min_by_key(|p| p.left.num_qubits())
            .ok_or_else(|| format!("no {kind} pair"))?;
        oracle::check_by_unitary(&smallest.left, &smallest.right, smallest.expect)?;
    }
    Ok(())
}

fn request_line(id: usize, pair: &WirePair) -> String {
    let value = Value::Object(vec![
        ("id".into(), Value::Number(id as f64)),
        ("method".into(), Value::String("verify-pair".into())),
        (
            "params".into(),
            Value::Object(vec![
                ("name".into(), Value::String(pair.name.clone())),
                ("left_text".into(), Value::String(pair.left.clone())),
                ("right_text".into(), Value::String(pair.right.clone())),
                ("deadline_seconds".into(), Value::Number(DEADLINE_S)),
                ("qubits".into(), Value::Number(pair.qubits as f64)),
            ]),
        ),
    ]);
    let mut line = serde_json::to_string(&value).expect("request renders");
    line.push('\n');
    line
}

/// The daemon child with its reader thread.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    responses: mpsc::Receiver<(Instant, Value)>,
    reader: std::thread::JoinHandle<()>,
}

impl Daemon {
    fn spawn(binary: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdin = child.stdin.take().ok_or("no daemon stdin")?;
        let stdout = child.stdout.take().ok_or("no daemon stdout")?;
        let (tx, responses) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let received = Instant::now();
                if let Ok(value) = serde_json::from_str::<Value>(&line) {
                    if tx.send((received, value)).is_err() {
                        break;
                    }
                }
            }
        });
        Ok(Daemon {
            child,
            stdin,
            responses,
            reader,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("daemon write failed: {e}"))
    }

    fn recv(&self, timeout: Duration) -> Result<(Instant, Value), String> {
        self.responses
            .recv_timeout(timeout)
            .map_err(|_| "daemon stopped answering".to_string())
    }

    /// Sends `shutdown`, waits for the child to exit (killing it if it
    /// does not within a few seconds), then joins the reader thread, which
    /// ends at the child's end of output.
    fn stop(mut self) {
        let _ = self.send("{\"id\": \"stop\", \"method\": \"shutdown\"}\n");
        drop(self.stdin);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(self.child.try_wait(), Ok(Some(_))) {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(self.responses);
        let _ = self.reader.join();
    }
}

/// What one response says.
struct Answer {
    sample: Sample,
    race: Option<Race>,
    queue_ms: f64,
    service_ms: f64,
    rejected: bool,
    metrics: Option<Value>,
}

fn judge(pair: &WirePair, response: &Value, latency_ms: f64) -> Answer {
    let failed_answer = |rejected: bool| Answer {
        sample: Sample {
            kind: pair.kind,
            latency_ms,
            units: 0,
            decided: false,
            wrong: 0,
            failed: true,
        },
        race: None,
        queue_ms: 0.0,
        service_ms: 0.0,
        rejected,
        metrics: None,
    };
    let Some(result) = response.get("result") else {
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        return failed_answer(code as i64 == portfolio::wire::code::SATURATED);
    };
    let verdict = result
        .get("verdict")
        .and_then(Value::as_str)
        .and_then(parse_verdict);
    let report = result.get("report");
    let errored = report
        .and_then(|r| r.get("error"))
        .is_some_and(|e| !matches!(e, Value::Null));
    let cancelled = result
        .get("cancelled")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let Some(verdict) = verdict else {
        return failed_answer(false);
    };
    let (decided, wrong) = pair.expect.judge(verdict);
    let seconds = |name: &str| result.get(name).and_then(Value::as_f64).unwrap_or(0.0) * 1e3;
    Answer {
        sample: Sample {
            kind: pair.kind,
            latency_ms,
            units: 1,
            decided,
            wrong: usize::from(wrong),
            failed: errored || cancelled,
        },
        race: report.and_then(Race::from_json),
        queue_ms: seconds("queue_wait_seconds"),
        service_ms: seconds("service_time_seconds"),
        rejected: false,
        metrics: result.get("metrics").cloned(),
    }
}

/// Closed-loop warm-up: every input once, answers checked.
fn warm_up(daemon: &mut Daemon, pairs: &[WirePair]) -> Result<(), String> {
    for (i, pair) in pairs.iter().enumerate() {
        daemon.send(&request_line(i, pair))?;
        let (_, response) = daemon.recv(Duration::from_secs(60))?;
        let answer = judge(pair, &response, 0.0);
        if answer.sample.wrong > 0 || answer.sample.failed {
            return Err(format!("warm-up pair {} failed or was wrong", pair.name));
        }
    }
    Ok(())
}

struct OpenLoop {
    window: Window,
    answers: Vec<Answer>,
    late_ms: Vec<f64>,
    /// Response time minus send time minus the daemon's queue and service
    /// time, per answered request.
    wire_ms: Vec<f64>,
}

/// Sends requests due every `1 / RATE` seconds for `seconds`, from a
/// writer thread, and collects the answers.
fn open_loop(
    daemon: &mut Daemon,
    pairs: &[WirePair],
    seed: u64,
    seconds: f64,
    first_id: usize,
) -> Result<OpenLoop, String> {
    let mut rng = Rng::new(seed, 21);
    let count = (seconds * RATE).round().max(1.0) as usize;
    let mut schedule: Vec<usize> = Vec::with_capacity(count);
    while schedule.len() < count {
        let mut cycle: Vec<usize> = (0..pairs.len()).collect();
        rng.shuffle(&mut cycle);
        schedule.extend(cycle);
    }
    schedule.truncate(count);
    let lines: Vec<String> = schedule
        .iter()
        .enumerate()
        .map(|(i, &p)| request_line(first_id + i, &pairs[p]))
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / RATE);
    let stdin = &mut daemon.stdin;
    let responses = &daemon.responses;
    let (received, sent) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> Result<Vec<Instant>, String> {
            let mut sent = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                sent.push(Instant::now());
                stdin
                    .write_all(line.as_bytes())
                    .and_then(|()| stdin.flush())
                    .map_err(|e| format!("daemon write failed: {e}"))?;
            }
            Ok(sent)
        });
        let mut received: Vec<Option<(Instant, Value)>> = vec![None; count];
        let mut got = 0;
        let patience = Duration::from_secs_f64(seconds + 60.0);
        while got < count {
            let Ok((at, value)) = responses.recv_timeout(patience) else {
                break;
            };
            let Some(id) = value.get("id").and_then(Value::as_f64) else {
                continue;
            };
            let Some(index) = (id as usize).checked_sub(first_id).filter(|&i| i < count) else {
                continue;
            };
            if received[index].is_none() {
                got += 1;
            }
            received[index] = Some((at, value));
        }
        let sent = writer
            .join()
            .map_err(|_| "writer thread panicked".to_string());
        (received, sent)
    });
    let sent = sent??;
    let mut answers = Vec::with_capacity(count);
    let mut late_ms = Vec::with_capacity(count);
    let mut wire_ms = Vec::new();
    let mut last = start;
    for (i, slot) in received.into_iter().enumerate() {
        let (at, value) = slot.ok_or("daemon stopped answering")?;
        last = last.max(at);
        let latency_ms = (at - due(i)).as_secs_f64() * 1e3;
        late_ms.push((sent[i] - due(i)).as_secs_f64() * 1e3);
        let answer = judge(&pairs[schedule[i]], &value, latency_ms);
        if answer.sample.units > 0 {
            wire_ms.push(
                ((at - sent[i]).as_secs_f64() * 1e3 - answer.queue_ms - answer.service_ms).max(0.0),
            );
        }
        answers.push(answer);
    }
    Ok(OpenLoop {
        window: Window {
            samples: answers.iter().map(|a| a.sample.clone()).collect(),
            seconds: (last - start).as_secs_f64(),
        },
        answers,
        late_ms,
        wire_ms,
    })
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let result = run_in(args, process_start);
    let _ = std::fs::remove_dir_all(&args.work);
    result
}

fn run_in(args: &Args, process_start: Instant) -> Result<Report, String> {
    let binary = args
        .verifyd
        .clone()
        .ok_or("verifyd-open needs --verifyd PATH")?;
    let dir = args.work.join("endpoints");
    let mut times = Vec::new();
    let mut prepared: Option<(Vec<PairInput>, Vec<WirePair>, Daemon)> = None;
    for rep in 0..SETUPS {
        // The previous repetition's daemon stops outside the timed set-up.
        if let Some((_, _, daemon)) = prepared.take() {
            daemon.stop();
        }
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (pairs, wire) = build(args.seed, &dir)?;
        let mut daemon = Daemon::spawn(&binary)?;
        if let Err(error) = warm_up(&mut daemon, &wire) {
            daemon.stop();
            return Err(error);
        }
        times.push(start.elapsed().as_secs_f64());
        prepared = Some((pairs, wire, daemon));
    }
    let (pairs, wire, mut daemon) = prepared.expect("at least one set-up");
    let setup_s = median(&times);

    let first = if args.trace {
        open_loop(&mut daemon, &wire, args.seed, args.seconds / 2.0, 1_000_000)
    } else {
        open_loop(&mut daemon, &wire, args.seed, args.seconds, 1_000_000)
    };
    let first = match first {
        Ok(run) => run,
        Err(error) => {
            daemon.stop();
            return Err(error);
        }
    };
    let second = if args.trace {
        Some(open_loop(
            &mut daemon,
            &wire,
            args.seed ^ 1,
            args.seconds / 2.0,
            2_000_000,
        ))
    } else {
        None
    };
    let rss = peak_rss_mb(&daemon.child.id().to_string());
    daemon.stop();
    let rss = rss?;
    let second = second.transpose()?;

    let late_p95 = quantile(&first.late_ms, 0.95);
    let mut report = Report::from_window(&first.window, setup_s, rss, TAIL_Q);
    if late_p95 > MAX_LATE_MS {
        report.invalid = Some(format!(
            "the generator sent its p95 request {late_p95:.1} ms late (limit {MAX_LATE_MS} ms)"
        ));
    }
    let Some(traced) = second else {
        return Ok(report);
    };
    report.wrong += traced.window.samples.iter().map(|s| s.wrong).sum::<usize>();

    let answered: Vec<&Answer> = traced
        .answers
        .iter()
        .filter(|a| a.sample.units > 0)
        .collect();
    let race_list: Vec<Race> = answered.iter().filter_map(|a| a.race.clone()).collect();
    let mut counters = races::Counters::new();
    for answer in &answered {
        if let Some(metrics) = &answer.metrics {
            races::add_json_counters(&mut counters, metrics);
        }
    }
    let queue: Vec<f64> = answered.iter().map(|a| a.queue_ms).collect();
    let service: Vec<f64> = answered.iter().map(|a| a.service_ms).collect();
    let race_ms: f64 = race_list.iter().map(|r| r.total_ms).sum();
    let checkouts = counters.get("batch.warm_checkouts").copied().unwrap_or(0.0)
        + counters.get("batch.cold_checkouts").copied().unwrap_or(0.0);
    let mut values = races::race_metrics(&race_list);
    values.extend(races::core_from_races(&race_list));
    values.extend(races::dd_from_counters(&counters));
    values.extend(crate::table1::parse_and_plan(&pairs));
    values.extend([
        (
            "service.queue_wait_ms.p50".to_string(),
            median(&queue),
            "ms",
        ),
        (
            "service.queue_wait_ms.p95".to_string(),
            quantile(&queue, 0.95),
            "ms",
        ),
        ("service.service_ms.p50".to_string(), median(&service), "ms"),
        (
            "service.admission_rejects".to_string(),
            traced.answers.iter().filter(|a| a.rejected).count() as f64,
            "count",
        ),
        (
            "service.warm_checkout_frac".to_string(),
            if checkouts > 0.0 {
                counters.get("batch.warm_checkouts").copied().unwrap_or(0.0) / checkouts
            } else {
                0.0
            },
            "fraction",
        ),
        (
            "wire.overhead_ms.p50".to_string(),
            median(&traced.wire_ms),
            "ms",
        ),
        (
            "gen.late_ms.p95".to_string(),
            quantile(&traced.late_ms, 0.95),
            "ms",
        ),
        (
            "obs.trace_overhead_frac".to_string(),
            1.0 - traced.window.pairs_per_s() / first.window.pairs_per_s(),
            "fraction",
        ),
    ]);
    // The races run in the child, so layer time comes from the reported
    // durations: race time is the engine's, the rest of service time the
    // service's (parse, pool, planning), the rest of the round trip the
    // wire's. Queue wait is waiting, not work, and is reported above.
    let layer_times = LayerTimes::from_totals(
        &[
            ("engine", race_ms),
            ("service", (service.iter().sum::<f64>() - race_ms).max(0.0)),
            ("wire", traced.wire_ms.iter().sum()),
        ],
        traced.window.seconds * 1e3,
    );
    values.extend(layer_times.metrics());
    report.per_layer = per_layer_report(values);
    Ok(report)
}
