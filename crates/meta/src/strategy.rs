//! The open ranking interface: the [`RankingStrategy`] trait and the
//! [`StrategyRegistry`] that resolves strategy names to implementations.
//!
//! The paper's core promise is that the cloud *user* customizes device
//! selection (§3.4). Instead of a closed enum of policies, every policy is a
//! plugin: an object implementing [`RankingStrategy`], registered by name in
//! the meta server's registry. The job spec only carries the strategy *name*
//! plus typed [`StrategyParams`]; adding a new policy means registering one
//! new object — no changes to the cluster, scheduler or orchestrator crates.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use qrio_backend::Backend;
use qrio_bytes::codec_struct;
use qrio_circuit::Circuit;
use qrio_cluster::StrategyParams;

use crate::error::MetaError;

/// A score produced for one (job, device) pair. Lower is better, matching the
/// paper's convention ("it is always better to get a lower score", §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// The device the score refers to.
    pub device: String,
    /// The numeric score handed to the scheduler (lower is better).
    pub value: f64,
    /// Strategy-specific breakdown of the score (e.g. `canary_fidelity`,
    /// `queue_depth`), for diagnostics and the visualizer's detail view.
    pub details: Vec<(String, f64)>,
}

impl Score {
    /// A score with no detail breakdown.
    pub fn new(device: impl Into<String>, value: f64) -> Self {
        Score {
            device: device.into(),
            value,
            details: Vec::new(),
        }
    }

    /// Builder-style: attach one detail entry.
    #[must_use]
    pub fn with_detail(mut self, key: impl Into<String>, value: f64) -> Self {
        self.details.push((key.into(), value));
        self
    }

    /// Look up a detail entry by name.
    pub fn detail(&self, key: &str) -> Option<f64> {
        self.details
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| *value)
    }
}

/// A point-in-time load report for one device, fed to the meta server by the
/// control plane (queue depth and classical utilization from the cluster
/// registry). Telemetry-aware strategies read it from the [`JobContext`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceTelemetry {
    /// Number of jobs currently queued or running on the device.
    pub queue_depth: usize,
    /// Classical utilization of the device's node, in `[0, 1]`.
    pub utilization: f64,
    /// Health penalty from the device's circuit breaker, in `[0, 1]`:
    /// `0.0` for a healthy device, `1.0` while the breaker is open
    /// (cordoned), `0.5` on probation, and the recent failure rate while
    /// closed. Telemetry-aware strategies use it to steer work away from
    /// recently-flaky devices.
    pub health_penalty: f64,
}

codec_struct!(DeviceTelemetry {
    queue_depth,
    utilization,
    health_penalty,
});

/// Everything a strategy may consult when scoring a job against a device.
#[derive(Debug, Clone, Copy)]
pub struct JobContext<'a> {
    /// Name of the job being scored. A cacheable strategy must not read it
    /// (see [`RankingStrategy::is_cacheable`]).
    pub job_name: &'a str,
    /// The job's strategy parameters (from the [`qrio_cluster::StrategySpec`]).
    pub params: &'a StrategyParams,
    /// The user's circuit, when one was uploaded with the job metadata.
    pub circuit: Option<&'a Circuit>,
    /// Latest telemetry for the device under evaluation, when reported.
    pub telemetry: Option<&'a DeviceTelemetry>,
}

/// A device-ranking policy, registered by name in a [`StrategyRegistry`].
///
/// Implementations score a job against one candidate device at a time; the
/// scheduler ranks devices by ascending [`Score::value`]. The `validate` hook
/// runs when job metadata is uploaded, so malformed parameters are rejected at
/// submission time rather than mid-scheduling.
///
/// # Examples
///
/// A user-defined strategy that prefers devices needing the fewest two-qubit
/// gates after transpilation:
///
/// ```
/// use qrio_backend::Backend;
/// use qrio_circuit::Circuit;
/// use qrio_cluster::StrategyParams;
/// use qrio_meta::{JobContext, MetaError, RankingStrategy, Score};
///
/// #[derive(Debug)]
/// struct FewestTwoQubitGates;
///
/// impl RankingStrategy for FewestTwoQubitGates {
///     fn name(&self) -> &str {
///         "fewest-2q-gates"
///     }
///
///     fn validate(
///         &self,
///         _params: &StrategyParams,
///         circuit: Option<&Circuit>,
///     ) -> Result<(), MetaError> {
///         circuit
///             .map(|_| ())
///             .ok_or_else(|| MetaError::InvalidMetadata("a circuit is required".into()))
///     }
///
///     fn score(&self, job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
///         let circuit = job.circuit.expect("validated at upload");
///         let transpiled = qrio_transpiler::transpile(circuit, backend)?;
///         Ok(Score::new(
///             backend.name(),
///             transpiled.circuit.two_qubit_gate_count() as f64,
///         ))
///     }
/// }
/// ```
pub trait RankingStrategy: fmt::Debug + Send + Sync {
    /// The registry name jobs reference this strategy by.
    fn name(&self) -> &str;

    /// Validate the job's parameters (and presence/absence of a circuit) at
    /// metadata-upload time.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::InvalidMetadata`] when the parameters are
    /// malformed for this strategy.
    fn validate(&self, params: &StrategyParams, circuit: Option<&Circuit>)
        -> Result<(), MetaError>;

    /// Score the job against one candidate device (lower is better).
    ///
    /// # Errors
    ///
    /// Returns an error when the device cannot be evaluated (e.g. the circuit
    /// does not fit); the scheduler skips such devices. Reserve
    /// [`MetaError::InvalidMetadata`] for parameter problems that would fail
    /// on *every* device — the scheduler treats it as job-level and aborts
    /// the cycle instead of skipping.
    fn score(&self, job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError>;

    /// The parameter keys this strategy understands, when its parameter
    /// surface is closed. Static analysis uses this to flag misspelled
    /// parameters that `score` would silently ignore.
    ///
    /// Return `None` (the default) when the surface is open or unknown — no
    /// checking runs then. Return `Some(&[])` for a strategy that takes no
    /// parameters at all.
    fn known_params(&self) -> Option<&'static [&'static str]> {
        None
    }

    /// Whether the meta server may memoize this strategy's scores by
    /// content: one score per device and encoded job record (strategy name,
    /// parameters, circuit), shared by every job that uploads the same record
    /// and kept until the device is re-registered.
    ///
    /// Return `true` only when `score` is a pure function of the job's
    /// parameters/circuit and the backend's calibration. It must read neither
    /// [`JobContext::job_name`] — jobs with the same content share one score —
    /// nor [`JobContext::telemetry`], which changes between scheduling cycles
    /// without any re-upload. The built-in `fidelity` and `topology`
    /// strategies are cacheable (the canary is seeded by the device name, not
    /// the job, and the embedding search is deterministic; neither reads
    /// telemetry); `weighted` and `min_queue` are not.
    fn is_cacheable(&self) -> bool {
        false
    }
}

/// A name-indexed collection of [`RankingStrategy`] plugins, owned by the meta
/// server. Names are unique; registering a duplicate is an error so plugins
/// cannot silently shadow each other.
#[derive(Clone, Default)]
pub struct StrategyRegistry {
    strategies: BTreeMap<String, Arc<dyn RankingStrategy>>,
}

impl StrategyRegistry {
    /// An empty registry (no strategies at all — most callers want
    /// [`crate::builtin::builtin_registry`] instead).
    pub fn new() -> Self {
        StrategyRegistry::default()
    }

    /// Register a strategy under its own name.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::DuplicateStrategy`] when the name is taken.
    pub fn register(&mut self, strategy: Arc<dyn RankingStrategy>) -> Result<(), MetaError> {
        let name = strategy.name().to_string();
        if self.strategies.contains_key(&name) {
            return Err(MetaError::DuplicateStrategy(name));
        }
        self.strategies.insert(name, strategy);
        Ok(())
    }

    /// Look up a strategy by name.
    pub fn get(&self, name: &str) -> Option<&dyn RankingStrategy> {
        self.strategies.get(name).map(Arc::as_ref)
    }

    /// Look up a strategy by name, or error with [`MetaError::UnknownStrategy`].
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::UnknownStrategy`] when no strategy is registered
    /// under `name`.
    pub fn resolve(&self, name: &str) -> Result<&dyn RankingStrategy, MetaError> {
        self.get(name)
            .ok_or_else(|| MetaError::UnknownStrategy(name.to_string()))
    }

    /// Names of every registered strategy, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.strategies.keys().map(String::as_str).collect()
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.strategies.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.strategies.is_empty()
    }
}

impl fmt::Debug for StrategyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrategyRegistry")
            .field("strategies", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct ConstantStrategy {
        name: &'static str,
        value: f64,
    }

    impl RankingStrategy for ConstantStrategy {
        fn name(&self) -> &str {
            self.name
        }

        fn validate(
            &self,
            _params: &StrategyParams,
            _circuit: Option<&Circuit>,
        ) -> Result<(), MetaError> {
            Ok(())
        }

        fn score(&self, _job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
            Ok(Score::new(backend.name(), self.value).with_detail("constant", self.value))
        }
    }

    #[test]
    fn registry_registers_resolves_and_rejects_duplicates() {
        let mut registry = StrategyRegistry::new();
        assert!(registry.is_empty());
        registry
            .register(Arc::new(ConstantStrategy {
                name: "const",
                value: 1.0,
            }))
            .unwrap();
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["const"]);
        assert!(registry.get("const").is_some());
        assert!(registry.resolve("const").is_ok());
        assert!(matches!(
            registry.resolve("missing"),
            Err(MetaError::UnknownStrategy(_))
        ));
        assert!(matches!(
            registry.register(Arc::new(ConstantStrategy {
                name: "const",
                value: 2.0,
            })),
            Err(MetaError::DuplicateStrategy(_))
        ));
        assert!(format!("{registry:?}").contains("const"));
    }

    #[test]
    fn score_details_are_queryable() {
        let score = Score::new("dev", 4.25)
            .with_detail("alpha", 1.0)
            .with_detail("beta", 3.25);
        assert_eq!(score.detail("alpha"), Some(1.0));
        assert_eq!(score.detail("beta"), Some(3.25));
        assert_eq!(score.detail("gamma"), None);
        assert_eq!(score.value, 4.25);
    }
}
