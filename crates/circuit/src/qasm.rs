//! OpenQASM import and export.
//!
//! The exporter emits OpenQASM 2.0 with the `reset`/`measure` statements and
//! an `if (c[k] == v)` prefix for classically-controlled operations (a small
//! OpenQASM 3 style extension, since OpenQASM 2 can only condition on whole
//! registers). The importer reads back exactly this dialect, which is enough
//! for round-tripping every circuit this workspace produces.

use crate::circuit::QuantumCircuit;
use crate::gate::StandardGate;
use crate::operation::{ClassicalCondition, OpKind, Operation, QuantumControl};
use std::fmt;

/// Error produced while parsing an OpenQASM string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseQasmError {}

fn err(line: usize, message: impl Into<String>) -> ParseQasmError {
    ParseQasmError {
        line,
        message: message.into(),
    }
}

/// Serialises a circuit to the OpenQASM dialect described in the module docs.
///
/// # Examples
///
/// ```
/// use circuit::QuantumCircuit;
/// use circuit::qasm;
///
/// let mut qc = QuantumCircuit::new(1, 1);
/// qc.h(0).measure(0, 0);
/// let text = qasm::to_qasm(&qc);
/// assert!(text.contains("h q[0];"));
/// let back = qasm::from_qasm(&text)?;
/// assert_eq!(back.len(), qc.len());
/// # Ok::<(), circuit::qasm::ParseQasmError>(())
/// ```
pub fn to_qasm(circuit: &QuantumCircuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits().max(1)));
    if circuit.num_bits() > 0 {
        out.push_str(&format!("creg c[{}];\n", circuit.num_bits()));
    }
    for op in circuit.ops() {
        out.push_str(&op_to_qasm(op));
        out.push('\n');
    }
    out
}

fn op_to_qasm(op: &Operation) -> String {
    let mut line = String::new();
    if let Some(cond) = op.condition {
        line.push_str(&format!(
            "if (c[{}] == {}) ",
            cond.bit,
            u8::from(cond.value)
        ));
    }
    match &op.kind {
        OpKind::Unitary {
            gate,
            target,
            controls,
        } => {
            let prefix = "c".repeat(controls.len());
            let name = format!("{prefix}{}", gate.name());
            let params = gate.params();
            let params = if params.is_empty() {
                String::new()
            } else {
                format!(
                    "({})",
                    params
                        .iter()
                        .map(|p| format!("{p:.15}"))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            };
            let mut operands: Vec<String> = controls
                .iter()
                .map(|c| {
                    if c.positive {
                        format!("q[{}]", c.qubit)
                    } else {
                        format!("~q[{}]", c.qubit)
                    }
                })
                .collect();
            operands.push(format!("q[{target}]"));
            line.push_str(&format!("{name}{params} {};", operands.join(",")));
        }
        OpKind::Measure { qubit, bit } => {
            line.push_str(&format!("measure q[{qubit}] -> c[{bit}];"));
        }
        OpKind::Reset { qubit } => {
            line.push_str(&format!("reset q[{qubit}];"));
        }
        OpKind::Barrier => line.push_str("barrier q;"),
    }
    line
}

/// Parses the OpenQASM dialect produced by [`to_qasm`].
///
/// # Errors
///
/// Returns a [`ParseQasmError`] describing the first statement that could not
/// be understood.
pub fn from_qasm(text: &str) -> Result<QuantumCircuit, ParseQasmError> {
    let mut n_qubits = 0usize;
    let mut n_bits = 0usize;
    let mut ops: Vec<Operation> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.split("//").next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with("OPENQASM") || line.starts_with("include") {
            continue;
        }
        let stmt = line.trim_end_matches(';').trim();
        if let Some(rest) = stmt.strip_prefix("qreg") {
            n_qubits = parse_register_size(rest, lineno)?;
        } else if let Some(rest) = stmt.strip_prefix("creg") {
            n_bits = parse_register_size(rest, lineno)?;
        } else if stmt.starts_with("barrier") {
            ops.push(Operation::barrier());
        } else {
            ops.push(parse_operation(stmt, lineno)?);
        }
    }

    let mut circuit = QuantumCircuit::new(n_qubits, n_bits);
    for op in ops {
        circuit.try_push(op).map_err(|e| err(0, e.to_string()))?;
    }
    Ok(circuit)
}

fn parse_register_size(rest: &str, lineno: usize) -> Result<usize, ParseQasmError> {
    let open = rest.find('[').ok_or_else(|| err(lineno, "missing `[`"))?;
    let close = rest.find(']').ok_or_else(|| err(lineno, "missing `]`"))?;
    rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| err(lineno, "invalid register size"))
}

fn parse_operation(stmt: &str, lineno: usize) -> Result<Operation, ParseQasmError> {
    // Optional classical condition prefix.
    let (condition, stmt) = if let Some(rest) = stmt.strip_prefix("if") {
        let rest = rest.trim_start();
        let close = rest
            .find(')')
            .ok_or_else(|| err(lineno, "missing `)` in condition"))?;
        let cond_text = rest[..close].trim_start_matches('(').trim();
        let (bit_part, value_part) = cond_text
            .split_once("==")
            .ok_or_else(|| err(lineno, "condition must use `==`"))?;
        let bit = parse_qubit_index(bit_part.trim(), lineno)?;
        let value: u8 = value_part
            .trim()
            .parse()
            .map_err(|_| err(lineno, "invalid condition value"))?;
        (
            Some(ClassicalCondition {
                bit,
                value: value != 0,
            }),
            rest[close + 1..].trim(),
        )
    } else {
        (None, stmt)
    };

    if let Some(rest) = stmt.strip_prefix("measure") {
        let (q, c) = rest
            .split_once("->")
            .ok_or_else(|| err(lineno, "measure requires `->`"))?;
        let qubit = parse_qubit_index(q.trim(), lineno)?;
        let bit = parse_qubit_index(c.trim(), lineno)?;
        if condition.is_some() {
            return Err(err(lineno, "conditions on measurements are not supported"));
        }
        return Ok(Operation::measure(qubit, bit));
    }
    if let Some(rest) = stmt.strip_prefix("reset") {
        let qubit = parse_qubit_index(rest.trim(), lineno)?;
        if condition.is_some() {
            return Err(err(lineno, "conditions on resets are not supported"));
        }
        return Ok(Operation::reset(qubit));
    }

    // Gate application: name[(params)] operand{,operand}.
    let (head, operands_text) = stmt
        .split_once(' ')
        .ok_or_else(|| err(lineno, "gate statement requires operands"))?;
    let (name, params) = if let Some(open) = head.find('(') {
        let close = head
            .rfind(')')
            .ok_or_else(|| err(lineno, "missing `)` in gate parameters"))?;
        // `f64::from_str` also accepts `nan` and `inf`; a non-finite angle
        // has no gate matrix, so it is as invalid as a malformed number.
        let params: Option<Vec<f64>> = head[open + 1..close]
            .split(',')
            .map(|p| p.trim().parse::<f64>().ok().filter(|v| v.is_finite()))
            .collect();
        (
            &head[..open],
            params.ok_or_else(|| err(lineno, "invalid gate parameter"))?,
        )
    } else {
        (head, vec![])
    };

    let operands: Vec<&str> = operands_text.split(',').map(str::trim).collect();
    let n_controls = name.chars().take_while(|&c| c == 'c').count();
    // Guard against gate names that genuinely start with `c` (none of the
    // supported mnemonics do after stripping controls).
    let base_name = &name[n_controls..];
    if operands.len() != n_controls + 1 {
        return Err(err(
            lineno,
            format!(
                "gate `{name}` expects {} operands, found {}",
                n_controls + 1,
                operands.len()
            ),
        ));
    }
    let gate = parse_gate(base_name, &params, lineno)?;
    let mut controls = Vec::with_capacity(n_controls);
    for operand in &operands[..n_controls] {
        if let Some(stripped) = operand.strip_prefix('~') {
            controls.push(QuantumControl::neg(parse_qubit_index(stripped, lineno)?));
        } else {
            controls.push(QuantumControl::pos(parse_qubit_index(operand, lineno)?));
        }
    }
    let target = parse_qubit_index(operands[n_controls], lineno)?;
    Ok(Operation {
        kind: OpKind::Unitary {
            gate,
            target,
            controls,
        },
        condition,
    })
}

fn parse_gate(name: &str, params: &[f64], lineno: usize) -> Result<StandardGate, ParseQasmError> {
    let need = |n: usize| -> Result<(), ParseQasmError> {
        if params.len() == n {
            Ok(())
        } else {
            Err(err(
                lineno,
                format!(
                    "gate `{name}` expects {n} parameters, found {}",
                    params.len()
                ),
            ))
        }
    };
    let gate = match name {
        "id" => StandardGate::I,
        "h" => StandardGate::H,
        "x" => StandardGate::X,
        "y" => StandardGate::Y,
        "z" => StandardGate::Z,
        "s" => StandardGate::S,
        "sdg" => StandardGate::Sdg,
        "t" => StandardGate::T,
        "tdg" => StandardGate::Tdg,
        "sx" => StandardGate::Sx,
        "sxdg" => StandardGate::Sxdg,
        "p" | "u1" => {
            need(1)?;
            StandardGate::Phase(params[0])
        }
        "rx" => {
            need(1)?;
            StandardGate::Rx(params[0])
        }
        "ry" => {
            need(1)?;
            StandardGate::Ry(params[0])
        }
        "rz" => {
            need(1)?;
            StandardGate::Rz(params[0])
        }
        "u" | "u3" => {
            need(3)?;
            StandardGate::U(params[0], params[1], params[2])
        }
        other => return Err(err(lineno, format!("unknown gate `{other}`"))),
    };
    Ok(gate)
}

fn parse_qubit_index(text: &str, lineno: usize) -> Result<usize, ParseQasmError> {
    let open = text
        .find('[')
        .ok_or_else(|| err(lineno, format!("missing `[` in operand `{text}`")))?;
    let close = text
        .find(']')
        .ok_or_else(|| err(lineno, format!("missing `]` in operand `{text}`")))?;
    text[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| err(lineno, format!("invalid index in operand `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(circuit: &QuantumCircuit) -> QuantumCircuit {
        from_qasm(&to_qasm(circuit)).expect("roundtrip parse")
    }

    #[test]
    fn export_contains_headers_and_registers() {
        let mut qc = QuantumCircuit::new(3, 2);
        qc.h(0);
        let text = to_qasm(&qc);
        assert!(text.contains("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("creg c[2];"));
        assert!(text.contains("h q[0];"));
    }

    #[test]
    fn roundtrip_static_circuit() {
        let mut qc = QuantumCircuit::new(3, 0);
        qc.h(0)
            .cx(0, 1)
            .ccx(0, 1, 2)
            .p(0.25, 2)
            .rz(-1.5, 1)
            .swap(0, 2);
        let back = roundtrip(&qc);
        assert_eq!(back.num_qubits(), 3);
        assert_eq!(back.ops(), qc.ops());
    }

    #[test]
    fn roundtrip_dynamic_circuit() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0)
            .measure(0, 0)
            .reset(0)
            .p_if(0.5, 1, 0)
            .x_if(1, 1)
            .measure(1, 1);
        let back = roundtrip(&qc);
        assert_eq!(back.ops(), qc.ops());
        assert!(back.is_dynamic());
    }

    #[test]
    fn roundtrip_negative_controls() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.controlled_gate(StandardGate::X, 1, vec![QuantumControl::neg(0)]);
        let back = roundtrip(&qc);
        assert_eq!(back.ops(), qc.ops());
    }

    #[test]
    fn parse_rejects_unknown_gate() {
        let text = "OPENQASM 2.0;\nqreg q[1];\nfancy q[0];\n";
        let res = from_qasm(text);
        assert!(res.is_err());
        let e = res.unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown gate"));
    }

    #[test]
    fn parse_rejects_bad_measure() {
        let text = "qreg q[1];\ncreg c[1];\nmeasure q[0] c[0];\n";
        assert!(from_qasm(text).is_err());
    }

    #[test]
    fn parse_rejects_non_finite_parameters() {
        for value in ["nan", "NaN", "inf", "-inf", "infinity"] {
            let text = format!("qreg q[2];\nh q[0];\nrz({value}) q[0];\ncx q[0], q[1];\n");
            let e = from_qasm(&text).expect_err(value);
            assert_eq!(e.line, 3, "{value}");
            assert!(e.message.contains("invalid gate parameter"), "{value}");
        }
        let text = "qreg q[1];\nu(0.5, nan, 0.1) q[0];\n";
        assert!(from_qasm(text).is_err());
    }

    #[test]
    fn parse_accepts_finite_edge_parameters() {
        for (value, expected) in [("-0.0", -0.0), ("1e-300", 1e-300)] {
            let text = format!("qreg q[1];\nrz({value}) q[0];\n");
            let qc = from_qasm(&text).expect(value);
            assert_eq!(
                qc.ops()[0].kind,
                OpKind::Unitary {
                    gate: StandardGate::Rz(expected),
                    target: 0,
                    controls: vec![],
                }
            );
        }
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let text = "OPENQASM 2.0;\n\n// a comment\nqreg q[2]; // registers\nh q[0]; // gate\n";
        let qc = from_qasm(text).expect("parse");
        assert_eq!(qc.num_qubits(), 2);
        assert_eq!(qc.len(), 1);
    }

    #[test]
    fn barrier_roundtrips_as_barrier() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).barrier().h(1);
        let back = roundtrip(&qc);
        assert_eq!(back.len(), 3);
        assert_eq!(back.ops()[1], Operation::barrier());
    }

    #[test]
    fn parameter_precision_survives_roundtrip() {
        let theta = std::f64::consts::PI / 7.0;
        let mut qc = QuantumCircuit::new(1, 0);
        qc.p(theta, 0);
        let back = roundtrip(&qc);
        if let OpKind::Unitary {
            gate: StandardGate::Phase(t),
            ..
        } = back.ops()[0].kind
        {
            assert!((t - theta).abs() < 1e-12);
        } else {
            panic!("expected a phase gate");
        }
    }
}
