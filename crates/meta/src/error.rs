//! Error types for the QRIO Meta Server.

use std::error::Error;
use std::fmt;

use qrio_circuit::CircuitError;
use qrio_layout::LayoutError;
use qrio_sim::SimulatorError;
use qrio_transpiler::TranspilerError;

/// Errors produced by the meta server while storing metadata or scoring jobs.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaError {
    /// No backend registered under that device name.
    UnknownDevice(String),
    /// No metadata uploaded for that job name.
    UnknownJob(String),
    /// No ranking strategy registered under that name.
    UnknownStrategy(String),
    /// A ranking strategy with that name is already registered.
    DuplicateStrategy(String),
    /// The uploaded metadata is invalid (e.g. fidelity outside [0, 1]).
    InvalidMetadata(String),
    /// The user's QASM payload failed to parse.
    Circuit(CircuitError),
    /// Transpilation onto the candidate device failed.
    Transpiler(TranspilerError),
    /// Simulation of the canary failed.
    Simulator(SimulatorError),
    /// Layout search failed unexpectedly.
    Layout(LayoutError),
    /// A strategy answered with a score that cannot be ranked (NaN or ±∞).
    NonFiniteScore {
        /// The device the score was for.
        device: String,
        /// The score the strategy returned.
        score: f64,
    },
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::UnknownDevice(name) => write!(f, "unknown device '{name}'"),
            MetaError::UnknownJob(name) => write!(f, "no metadata uploaded for job '{name}'"),
            MetaError::UnknownStrategy(name) => {
                write!(f, "no ranking strategy registered under '{name}'")
            }
            MetaError::DuplicateStrategy(name) => {
                write!(f, "a ranking strategy named '{name}' is already registered")
            }
            MetaError::InvalidMetadata(msg) => write!(f, "invalid job metadata: {msg}"),
            MetaError::Circuit(err) => write!(f, "circuit error: {err}"),
            MetaError::Transpiler(err) => write!(f, "transpiler error: {err}"),
            MetaError::Simulator(err) => write!(f, "simulator error: {err}"),
            MetaError::Layout(err) => write!(f, "layout error: {err}"),
            MetaError::NonFiniteScore { device, score } => {
                write!(f, "non-finite score {score} for device '{device}'")
            }
        }
    }
}

impl Error for MetaError {}

impl From<CircuitError> for MetaError {
    fn from(err: CircuitError) -> Self {
        MetaError::Circuit(err)
    }
}

impl From<TranspilerError> for MetaError {
    fn from(err: TranspilerError) -> Self {
        MetaError::Transpiler(err)
    }
}

impl From<SimulatorError> for MetaError {
    fn from(err: SimulatorError) -> Self {
        MetaError::Simulator(err)
    }
}

impl From<LayoutError> for MetaError {
    fn from(err: LayoutError) -> Self {
        MetaError::Layout(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: MetaError = CircuitError::DuplicateQubit { qubit: 2 }.into();
        assert!(e.to_string().contains("circuit error"));
        assert!(MetaError::UnknownDevice("d".into())
            .to_string()
            .contains('d'));
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<MetaError>();
    }
}
