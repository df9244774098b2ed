//! The plain-text backend specification format.
//!
//! In the paper every cluster node carries a vendor-authored `backend.py`
//! file exposing a Qiskit `Backend` object (§3.1). This module provides the
//! Rust-native equivalent: a simple line-oriented `backend.spec` format that a
//! vendor writes once per device and that both the node and the QRIO Meta
//! Server load. The format is deliberately boring — `key = value` lines plus
//! `qubit` / `edge` records — so that it can be produced by hand or by a
//! calibration pipeline.
//!
//! ```text
//! # QRIO backend specification
//! name = ibmq_demo
//! qubits = 3
//! basis_gates = u1,u2,u3,cx
//! qubit 0 t1=100000 t2=80000 readout_error=0.05 readout_length=30 error_1q=0.01
//! qubit 1 t1=100000 t2=80000 readout_error=0.05 readout_length=30 error_1q=0.01
//! qubit 2 t1=100000 t2=80000 readout_error=0.05 readout_length=30 error_1q=0.01
//! edge 0 1 error=0.02 duration=300
//! edge 1 2 error=0.03 duration=300
//! meta vendor=example-lab
//! ```
//!
//! This module is the format's *grammar* — the header keys, the `qubit` /
//! `edge` / `meta` records and their fields, what may repeat and what is in
//! range. Reading lines, fields and typed, line-numbered values is
//! [`crate::reader`], shared with the job YAML and the scenario YAML. `#`
//! opens a comment only at the start of a line; values are taken whole.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use qrio_bytes::{ByteReader, ByteWriter, CodecError, Decode, Encode};

use crate::backend::{Backend, BasisGates};
use crate::error::BackendError;
use crate::graph::CouplingMap;
use crate::properties::{QubitProperties, TwoQubitGateProperties};
use crate::reader::{self, Fields, Line, SpecError, Value};

/// Serialize a backend into the `backend.spec` text format.
pub fn to_spec(backend: &Backend) -> String {
    let mut out = String::new();
    out.push_str("# QRIO backend specification\n");
    let _ = writeln!(out, "name = {}", backend.name());
    let _ = writeln!(out, "qubits = {}", backend.num_qubits());
    let _ = writeln!(out, "basis_gates = {}", backend.basis_gates());
    for (q, props) in backend.qubits().iter().enumerate() {
        let _ = writeln!(
            out,
            "qubit {q} t1={} t2={} readout_error={} readout_length={} error_1q={}",
            props.t1_us,
            props.t2_us,
            props.readout_error,
            props.readout_length_ns,
            props.single_qubit_error
        );
    }
    for (&(a, b), gate) in backend.two_qubit_gates() {
        let _ = writeln!(
            out,
            "edge {a} {b} error={} duration={}",
            gate.error, gate.duration_ns
        );
    }
    for (key, value) in backend.metadata() {
        let _ = writeln!(out, "meta {key}={value}");
    }
    out
}

/// Parse a `backend.spec` document into a [`Backend`].
///
/// Nothing is silently last-wins or silently dropped: a repeated header key,
/// a repeated `qubit N` record, a repeated `k=v` inside one record and a
/// `qubit N` record with `N >= qubits` are errors.
///
/// # Errors
///
/// Returns [`BackendError::SpecParse`] on malformed lines, and the usual
/// construction errors if the parsed data is inconsistent.
pub fn from_spec(text: &str) -> Result<Backend, BackendError> {
    let mut header = Fields::new("header field", 0);
    let mut qubit_props: BTreeMap<usize, (usize, QubitProperties)> = BTreeMap::new();
    let mut edges: Vec<(usize, usize, TwoQubitGateProperties)> = Vec::new();
    let mut metadata: Vec<(&str, &str)> = Vec::new();

    for line in reader::lines(text) {
        if line.item {
            return Err(line
                .err(format!("unrecognised line '- {}'", line.text))
                .into());
        }
        let (keyword, rest) = line
            .text
            .split_once(char::is_whitespace)
            .unwrap_or((line.text, ""));
        match keyword {
            "qubit" => {
                let ([q], mut fields) = record(&line, rest, "qubit field")?;
                let defaults = QubitProperties::default();
                let props = QubitProperties {
                    t1_us: fields.or("t1", defaults.t1_us)?,
                    t2_us: fields.or("t2", defaults.t2_us)?,
                    readout_error: fields.or("readout_error", defaults.readout_error)?,
                    readout_length_ns: fields.or("readout_length", defaults.readout_length_ns)?,
                    single_qubit_error: fields.or("error_1q", defaults.single_qubit_error)?,
                };
                fields.finish("qubit field")?;
                if qubit_props.insert(q, (line.no, props)).is_some() {
                    return Err(line.err(format!("duplicate record 'qubit {q}'")).into());
                }
            }
            "edge" => {
                let ([a, b], mut fields) = record(&line, rest, "edge field")?;
                let defaults = TwoQubitGateProperties::default();
                let gate = TwoQubitGateProperties {
                    error: fields.or("error", defaults.error)?,
                    duration_ns: fields.or("duration", defaults.duration_ns)?,
                };
                fields.finish("edge field")?;
                edges.push((a, b, gate));
            }
            // Metadata is free text: no inline comments, no typed values.
            "meta" => {
                let (key, value) = rest
                    .split_once('=')
                    .ok_or_else(|| line.err("expected meta key=value"))?;
                metadata.push((key.trim(), value.trim()));
            }
            _ => {
                let (key, value) = line.key_value('=')?;
                header.insert(key, value, line.no)?;
            }
        }
    }

    let n: usize = header.req("qubits")?;
    // The name is free text too (an empty one round-trips).
    let name = header.take("name").map_or("unnamed", |(name, _)| name);
    let basis = match header.take("basis_gates") {
        Some((gates, _)) => {
            BasisGates::new(gates.split(',').map(str::trim).filter(|s| !s.is_empty()))
        }
        None => BasisGates::ibm_default(),
    };
    header.finish("header field")?;
    if let Some((q, (line, _))) = qubit_props.range(n..).next() {
        return Err(SpecError::new(*line, format!("qubit {q} out of range for {n} qubits")).into());
    }
    let mut coupling = CouplingMap::new(n);
    let mut gate_map = BTreeMap::new();
    for (a, b, gate) in edges {
        if a >= n || b >= n {
            return Err(BackendError::Mismatch(format!(
                "edge ({a},{b}) out of range for {n} qubits"
            )));
        }
        coupling.add_edge(a, b);
        gate_map.insert((a.min(b), a.max(b)), gate);
    }
    let mut props = Vec::with_capacity(n);
    for q in 0..n {
        props.push(qubit_props.get(&q).map(|(_, p)| *p).unwrap_or_default());
    }
    let mut backend = Backend::new(name, coupling, props, gate_map, basis)?;
    for (key, value) in metadata {
        backend.set_metadata(key, value);
    }
    Ok(backend)
}

/// The rest of a `<keyword> <index>… k=v…` record line: its `N` positional
/// indices and its `k=v` fields (`what` names those in errors).
fn record<'a, const N: usize>(
    line: &Line<'a>,
    rest: &'a str,
    what: &'a str,
) -> Result<([usize; N], Fields<'a>), SpecError> {
    let mut parts = rest.split_whitespace();
    let mut indices = [0usize; N];
    for index in &mut indices {
        let part = parts.next().ok_or_else(|| line.err("missing index"))?;
        *index = Value::read(part).map_err(|message| line.err(format!("index: {message}")))?;
    }
    let mut fields = Fields::new(what, line.no);
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| line.err(format!("expected key=value, found '{part}'")))?;
        fields.insert(key, value, line.no)?;
    }
    Ok((indices, fields))
}

impl From<SpecError> for BackendError {
    fn from(err: SpecError) -> Self {
        BackendError::SpecParse {
            line: err.line,
            message: err.message,
        }
    }
}

/// A backend travels as its spec text: the format round-trips exactly and
/// keeps journals and frames greppable.
impl Encode for Backend {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&to_spec(self));
    }
}

impl Decode for Backend {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        from_spec(&r.take_str()?)
            .map_err(|err| CodecError::Malformed(format!("backend spec: {err}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn roundtrip_uniform_backend() {
        let mut original = Backend::uniform("spec_test", topology::ring(5), 0.02, 0.07);
        original.set_metadata("vendor", "umich");
        let text = to_spec(&original);
        let parsed = from_spec(&text).unwrap();
        assert_eq!(parsed.name(), "spec_test");
        assert_eq!(parsed.num_qubits(), 5);
        assert_eq!(
            parsed.coupling_map().edges(),
            original.coupling_map().edges()
        );
        assert!((parsed.avg_two_qubit_error() - 0.07).abs() < 1e-9);
        assert_eq!(
            parsed.metadata().get("vendor").map(String::as_str),
            Some("umich")
        );
    }

    #[test]
    fn parses_documented_example() {
        let text = r#"
# QRIO backend specification
name = ibmq_demo
qubits = 3
basis_gates = u1,u2,u3,cx
qubit 0 t1=100000 t2=80000 readout_error=0.05 readout_length=30 error_1q=0.01
qubit 1 t1=100000 t2=80000 readout_error=0.05 readout_length=30 error_1q=0.01
qubit 2 t1=100000 t2=80000 readout_error=0.05 readout_length=30 error_1q=0.01
edge 0 1 error=0.02 duration=300
edge 1 2 error=0.03 duration=300
meta vendor=example-lab
"#;
        let backend = from_spec(text).unwrap();
        assert_eq!(backend.name(), "ibmq_demo");
        assert_eq!(backend.num_qubits(), 3);
        assert_eq!(backend.coupling_map().num_edges(), 2);
        assert!((backend.two_qubit_gate(0, 1).unwrap().error - 0.02).abs() < 1e-12);
    }

    #[test]
    fn missing_qubits_header_is_error() {
        assert!(from_spec("name = x\n").is_err());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(from_spec("qubits = 2\nqubit zero t1=1\n").is_err());
        assert!(from_spec("qubits = 2\nedge 0 1 error=abc\n").is_err());
        assert!(from_spec("qubits = 2\nwhat is this\n").is_err());
        assert!(from_spec("qubits = 2\nqubit 0 oops=3\n").is_err());
        assert!(from_spec("qubits = 2\nedge 0 5 error=0.1\n").is_err());
    }

    /// Nothing is silently last-wins or silently dropped: the input arrives
    /// over the wire and out of journals, where a repeated or out-of-range
    /// record means the writer and the reader disagree about the device.
    #[test]
    fn repeats_and_out_of_range_records_are_line_numbered_errors() {
        let cases = [
            (
                "qubits = 2\nqubits = 3\n",
                2,
                "duplicate header field 'qubits'",
            ),
            (
                "name = a\nqubits = 2\nname = b\n",
                3,
                "duplicate header field 'name'",
            ),
            (
                "qubits = 2\nqubit 1 t1=5\nqubit 1 t1=6\n",
                3,
                "duplicate record 'qubit 1'",
            ),
            (
                "qubits = 2\nqubit 0 t1=5 t2=1 t1=6\n",
                2,
                "duplicate qubit field 't1'",
            ),
            (
                "qubits = 2\nedge 0 1 error=0.1 error=0.2\n",
                2,
                "duplicate edge field 'error'",
            ),
            (
                "qubit 7 t1=5\nqubits = 3\n",
                1,
                "qubit 7 out of range for 3 qubits",
            ),
            (
                "qubits = 3\nqubit 3 t1=5\n",
                2,
                "qubit 3 out of range for 3 qubits",
            ),
        ];
        for (text, line, message) in cases {
            assert_eq!(
                from_spec(text),
                Err(BackendError::SpecParse {
                    line,
                    message: message.into()
                }),
                "{text:?}"
            );
        }
    }

    /// Values are taken whole: `backend.spec` has comment lines but no inline
    /// comments, and an empty name round-trips.
    #[test]
    fn values_keep_their_hashes_and_empty_names_round_trip() {
        let backend = from_spec("# head\nname =\nqubits = 1\nmeta note=x # y\n").unwrap();
        assert_eq!(backend.name(), "");
        assert_eq!(
            backend.metadata().get("note").map(String::as_str),
            Some("x # y")
        );
        assert_eq!(from_spec(&to_spec(&backend)).unwrap(), backend);
    }

    #[test]
    fn missing_qubit_records_use_defaults() {
        let backend = from_spec("qubits = 2\nedge 0 1 error=0.1 duration=100\n").unwrap();
        assert_eq!(backend.num_qubits(), 2);
        assert!(
            (backend.qubit(0).readout_error - QubitProperties::default().readout_error).abs()
                < 1e-12
        );
    }
}
