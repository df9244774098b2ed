//! Error types for the QRIO scheduler.

use std::error::Error;
use std::fmt;

use qrio_meta::MetaError;
use qrio_sim::SimulatorError;
use qrio_transpiler::TranspilerError;

/// Errors produced while filtering, ranking or selecting devices.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerError {
    /// No device survived the filtering stage.
    NoDeviceAfterFiltering {
        /// Job name.
        job: String,
    },
    /// The candidate list was empty to begin with.
    EmptyFleet,
    /// The meta server reported an error.
    Meta(MetaError),
    /// The oracle baseline failed to transpile a circuit.
    Transpiler(TranspilerError),
    /// The oracle baseline failed to simulate a circuit.
    Simulator(SimulatorError),
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::NoDeviceAfterFiltering { job } => {
                write!(f, "no device passed the filtering stage for job '{job}'")
            }
            SchedulerError::EmptyFleet => write!(f, "the candidate device list is empty"),
            SchedulerError::Meta(err) => write!(f, "meta server error: {err}"),
            SchedulerError::Transpiler(err) => write!(f, "transpiler error: {err}"),
            SchedulerError::Simulator(err) => write!(f, "simulator error: {err}"),
        }
    }
}

impl Error for SchedulerError {}

impl From<MetaError> for SchedulerError {
    fn from(err: MetaError) -> Self {
        SchedulerError::Meta(err)
    }
}

impl From<TranspilerError> for SchedulerError {
    fn from(err: TranspilerError) -> Self {
        SchedulerError::Transpiler(err)
    }
}

impl From<SimulatorError> for SchedulerError {
    fn from(err: SimulatorError) -> Self {
        SchedulerError::Simulator(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(SchedulerError::EmptyFleet.to_string().contains("empty"));
        let e: SchedulerError = MetaError::UnknownJob("x".into()).into();
        assert!(e.to_string().contains("meta server"));
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<SchedulerError>();
    }
}
