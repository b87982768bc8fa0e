//! Trace round-trip under a real portfolio race: every emitted line must be
//! valid JSON carrying the correlation IDs, the race span must parent the
//! scheme launches of all worker threads, and span windows must nest.
//!
//! Tracing state is process-global; this binary keeps everything in one
//! test function so no second test can interleave output.

use algorithms::qpe;
use portfolio::{verify_portfolio, PortfolioConfig};
use serde_json::Value;
use std::io::Write;
use std::sync::{Arc, Mutex};

#[derive(Clone, Default)]
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn race_trace_round_trips_with_nested_spans_and_correlation_ids() {
    let phi = 3.0 * std::f64::consts::PI / 8.0;
    let left = qpe::qpe_static(phi, 3, true);
    let right = qpe::iqpe_dynamic(phi, 3);
    // Explicit schemes force the threaded racing path (the tiny-instance
    // sequential plan spawns no workers): the full 4-scheme portfolio.
    let schemes = portfolio::applicable_schemes(&left, &right);
    assert_eq!(schemes.len(), 3, "expected a 3-scheme portfolio");
    let config = PortfolioConfig {
        schemes,
        ..PortfolioConfig::default()
    };

    let buffer = SharedBuffer::default();
    obs::trace::install_writer(Box::new(buffer.clone()));
    let result = {
        let _pair = obs::trace::with_context(obs::trace::Context {
            pair: Some(11),
            pair_name: Some("qpe_3".into()),
            scheme: None,
            parent: None,
        });
        verify_portfolio(&left, &right, &config)
    };
    obs::trace::uninstall();
    assert!(result.verdict.considered_equivalent(), "{result:?}");

    let bytes = buffer.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("trace output is UTF-8");
    let lines: Vec<Value> = text
        .lines()
        .map(|line| {
            serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"))
        })
        .collect();
    assert!(!lines.is_empty(), "the race must emit trace output");

    // Every line is tagged with the ambient pair context and the required
    // envelope fields.
    for line in &lines {
        for key in ["ts_us", "thread", "ev", "kind"] {
            assert!(line.get(key).is_some(), "line missing {key}: {line:?}");
        }
        assert_eq!(line.get("pair").and_then(Value::as_f64), Some(11.0));
        assert_eq!(line.get("pair_name").and_then(Value::as_str), Some("qpe_3"));
    }

    let by = |kind: &str, ev: &str| -> Vec<&Value> {
        lines
            .iter()
            .filter(|l| {
                l.get("kind").and_then(Value::as_str) == Some(kind)
                    && l.get("ev").and_then(Value::as_str) == Some(ev)
            })
            .collect()
    };

    // One race span, ended with a verdict and non-negative duration.
    let race_starts = by("race", "span_start");
    assert_eq!(race_starts.len(), 1);
    let race_id = race_starts[0].get("span").and_then(Value::as_f64).unwrap();
    let race_ends = by("race", "span_end");
    assert_eq!(race_ends.len(), 1);
    assert!(race_ends[0].get("dur_us").and_then(Value::as_f64).unwrap() >= 0.0);
    assert!(race_ends[0]
        .get("verdict")
        .and_then(Value::as_str)
        .is_some());

    // Each scheme launched exactly once, under the race span, with its
    // scheme tag installed — including from the spawned worker threads.
    let launches = by("scheme.launch", "event");
    assert_eq!(
        launches.len(),
        3,
        "three schemes must launch: {launches:#?}"
    );
    let mut launch_schemes: Vec<&str> = launches
        .iter()
        .map(|l| {
            assert_eq!(l.get("parent").and_then(Value::as_f64), Some(race_id));
            l.get("scheme").and_then(Value::as_str).expect("scheme tag")
        })
        .collect();
    launch_schemes.sort_unstable();
    launch_schemes.dedup();
    assert_eq!(
        launch_schemes.len(),
        3,
        "distinct schemes: {launch_schemes:?}"
    );

    // Scheme spans nest inside the race window and balance start/end.
    let scheme_starts = by("scheme.run", "span_start");
    let scheme_ends = by("scheme.run", "span_end");
    assert_eq!(scheme_starts.len(), 3);
    assert_eq!(scheme_ends.len(), 3);
    let ts = |line: &Value| line.get("ts_us").and_then(Value::as_f64).unwrap();
    for start in &scheme_starts {
        assert_eq!(start.get("parent").and_then(Value::as_f64), Some(race_id));
        assert!(ts(start) >= ts(race_starts[0]));
    }
    for end in &scheme_ends {
        assert!(ts(end) <= ts(race_ends[0]), "scheme outlived the race");
        assert!(end.get("dur_us").and_then(Value::as_f64).unwrap() >= 0.0);
    }

    // A conclusive race records its verdict (once per winner improvement —
    // reports are processed out of finish order, so an earlier-finished
    // conclusive scheme can displace the first recorded winner) and the
    // winner's cancellation sweep of the losers.
    let verdicts = by("race.verdict", "event");
    assert!(
        !verdicts.is_empty(),
        "a conclusive race must record verdicts"
    );
    let final_winner = verdicts
        .last()
        .and_then(|v| v.get("winner"))
        .and_then(Value::as_str);
    assert_eq!(
        final_winner,
        result.winner.map(|s| s.name()),
        "the last verdict event names the run winner"
    );
    assert!(
        !by("race.cancel", "event").is_empty(),
        "a conclusive verdict must cancel the losers"
    );
}
