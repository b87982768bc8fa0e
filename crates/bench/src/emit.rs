//! Shared emitter for the `BENCH_*.json` artifacts checked in at the
//! repository root.
//!
//! Every artifact gets the same envelope — a schema version, the machine
//! the numbers were taken on, and a mandatory list of caveats — so that a
//! reader (or a later session diffing two artifacts) can tell at a glance
//! whether two files are comparable. The JSON is hand-formatted: the bench
//! crate deliberately takes no serialisation dependency, and the envelope
//! is flat enough that string assembly stays readable.

use std::fmt::Write as _;

/// Version of the `BENCH_*.json` envelope. Bump when the envelope shape
/// changes (payload sections are bench-specific and unversioned).
pub const SCHEMA_VERSION: u32 = 1;

/// Best-effort CPU model string: first `model name` line of
/// `/proc/cpuinfo`, or the architecture when unavailable (non-Linux).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

/// The `"machine"` envelope block as a JSON object string.
///
/// Recorded so that checked-in numbers are never mistaken for portable
/// ones: arch, OS, CPU model and the core count the run had available.
pub fn machine_block() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{ \"arch\": \"{}\", \"os\": \"{}\", \"cpu\": \"{}\", \"cores\": {} }}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        cpu_model().replace('"', "'"),
        cores
    )
}

/// Assembles a full `BENCH_*.json` document.
///
/// `caveats` is deliberately not optional: a benchmark artifact without a
/// statement of what its numbers mislead about is a bug, mirroring the
/// metric-catalogue rule in `obs`. `sections` are `(key, raw-JSON-value)`
/// pairs appended verbatim after the envelope — the caller owns their
/// formatting (typically an `"instances"` array).
pub fn envelope(
    bench: &str,
    description: &str,
    caveats: &[&str],
    sections: &[(&str, String)],
) -> String {
    assert!(
        !caveats.is_empty(),
        "BENCH artifacts must state their caveats"
    );
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"bench\": \"{bench}\",");
    let _ = writeln!(out, "  \"description\": \"{description}\",");
    let _ = writeln!(out, "  \"machine\": {},", machine_block());
    out.push_str("  \"caveats\": [\n");
    for (i, caveat) in caveats.iter().enumerate() {
        let comma = if i + 1 < caveats.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{caveat}\"{comma}");
    }
    out.push_str("  ],");
    for (i, (key, value)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        let _ = write!(out, "\n  \"{key}\": {value}{comma}");
    }
    out.push_str("\n}\n");
    out
}

/// Writes `json` to `name` at the repository root, logging rather than
/// panicking on failure (benches must not die on a read-only checkout).
pub fn write_artifact(name: &str, json: &str) {
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let path = path.join(name);
    match std::fs::write(&path, json) {
        Ok(()) => println!("{name}: wrote {}", path.display()),
        Err(error) => eprintln!("{name}: cannot write {}: {error}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_wellformed() {
        let json = envelope(
            "demo",
            "a demo artifact",
            &["one caveat"],
            &[("rows", "[\n    { \"x\": 1 }\n  ]".to_string())],
        );
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"machine\": {"));
        assert!(json.contains("\"one caveat\""));
        assert!(json.contains("\"rows\": ["));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the dependency tree.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    #[should_panic(expected = "caveats")]
    fn empty_caveats_are_rejected() {
        envelope("demo", "d", &[], &[]);
    }
}
