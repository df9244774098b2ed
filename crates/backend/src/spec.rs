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

use std::collections::BTreeMap;
use std::fmt::Write as _;

use qrio_bytes::{ByteReader, ByteWriter, CodecError, Decode, Encode};

use crate::backend::{Backend, BasisGates};
use crate::error::BackendError;
use crate::graph::CouplingMap;
use crate::properties::{QubitProperties, TwoQubitGateProperties};

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
/// # Errors
///
/// Returns [`BackendError::SpecParse`] on malformed lines, and the usual
/// construction errors if the parsed data is inconsistent.
pub fn from_spec(text: &str) -> Result<Backend, BackendError> {
    let mut name = String::from("unnamed");
    let mut num_qubits: Option<usize> = None;
    let mut basis = BasisGates::ibm_default();
    let mut qubit_props: BTreeMap<usize, QubitProperties> = BTreeMap::new();
    let mut edges: Vec<(usize, usize, TwoQubitGateProperties)> = Vec::new();
    let mut metadata: Vec<(String, String)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| BackendError::SpecParse {
            line: line_no,
            message,
        };
        if let Some(rest) = line.strip_prefix("qubit ") {
            let mut parts = rest.split_whitespace();
            let q: usize = parts
                .next()
                .ok_or_else(|| err("missing qubit index".into()))?
                .parse()
                .map_err(|_| err("invalid qubit index".into()))?;
            let mut props = QubitProperties::default();
            for field in parts {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| err(format!("expected key=value, found '{field}'")))?;
                let value: f64 = value
                    .parse()
                    .map_err(|_| err(format!("invalid number '{value}'")))?;
                match key {
                    "t1" => props.t1_us = value,
                    "t2" => props.t2_us = value,
                    "readout_error" => props.readout_error = value,
                    "readout_length" => props.readout_length_ns = value,
                    "error_1q" => props.single_qubit_error = value,
                    other => return Err(err(format!("unknown qubit field '{other}'"))),
                }
            }
            qubit_props.insert(q, props);
        } else if let Some(rest) = line.strip_prefix("edge ") {
            let mut parts = rest.split_whitespace();
            let a: usize = parts
                .next()
                .ok_or_else(|| err("missing edge endpoint".into()))?
                .parse()
                .map_err(|_| err("invalid edge endpoint".into()))?;
            let b: usize = parts
                .next()
                .ok_or_else(|| err("missing edge endpoint".into()))?
                .parse()
                .map_err(|_| err("invalid edge endpoint".into()))?;
            let mut gate = TwoQubitGateProperties::default();
            for field in parts {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| err(format!("expected key=value, found '{field}'")))?;
                let value: f64 = value
                    .parse()
                    .map_err(|_| err(format!("invalid number '{value}'")))?;
                match key {
                    "error" => gate.error = value,
                    "duration" => gate.duration_ns = value,
                    other => return Err(err(format!("unknown edge field '{other}'"))),
                }
            }
            edges.push((a, b, gate));
        } else if let Some(rest) = line.strip_prefix("meta ") {
            let (key, value) = rest
                .split_once('=')
                .ok_or_else(|| err("expected meta key=value".into()))?;
            metadata.push((key.trim().to_string(), value.trim().to_string()));
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            let value = value.trim();
            match key {
                "name" => name = value.to_string(),
                "qubits" => {
                    num_qubits = Some(
                        value
                            .parse()
                            .map_err(|_| err(format!("invalid qubit count '{value}'")))?,
                    );
                }
                "basis_gates" => {
                    basis =
                        BasisGates::new(value.split(',').map(str::trim).filter(|s| !s.is_empty()));
                }
                other => return Err(err(format!("unknown header field '{other}'"))),
            }
        } else {
            return Err(err(format!("unrecognised line '{line}'")));
        }
    }

    let n = num_qubits.ok_or(BackendError::SpecParse {
        line: 0,
        message: "missing 'qubits = N' header".into(),
    })?;
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
        props.push(qubit_props.get(&q).copied().unwrap_or_default());
    }
    let mut backend = Backend::new(name, coupling, props, gate_map, basis)?;
    for (key, value) in metadata {
        backend.set_metadata(key, value);
    }
    Ok(backend)
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
