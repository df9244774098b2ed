//! OpenQASM 2.0 support.
//!
//! QRIO users submit their jobs as QASM files (paper §3.2); the master server
//! then ships the QASM text inside the container image. This module provides a
//! parser for the subset of OpenQASM 2.0 emitted by common toolchains (single
//! flat `qreg`/`creg` pair, `qelib1.inc` gates, measurements and barriers) and
//! a writer that round-trips [`Circuit`](crate::Circuit) values.

mod lexer;
mod parser;
mod writer;

pub use parser::parse_qasm;
pub use writer::to_qasm;

use qrio_bytes::{ByteReader, ByteWriter, CodecError, Decode, Encode};

/// A circuit travels as its OpenQASM text: the format round-trips exactly
/// and keeps journals greppable.
impl Encode for crate::Circuit {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&to_qasm(self));
    }
}

impl Decode for crate::Circuit {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        parse_qasm(&r.take_str()?).map_err(|err| CodecError::Malformed(format!("qasm: {err}")))
    }
}
