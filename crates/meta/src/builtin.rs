//! The built-in ranking strategies shipped with the meta server.
//!
//! Two reproduce the paper's policies as plugins — [`FidelityStrategy`]
//! (§3.4.1) and [`TopologyStrategy`] (§3.4.2) — and two prove the interface is
//! genuinely open: [`WeightedStrategy`], a multi-objective policy blending
//! canary fidelity with live queue depth and utilization reported by the
//! orchestrator, and [`MinQueueStrategy`], a queue-time-only baseline.
//! All four resolve through the same [`StrategyRegistry`] and score through
//! the same `JobRequest` → scheduler → decision path.

use std::sync::Arc;

use qrio_backend::Backend;
use qrio_circuit::{library, Circuit};
use qrio_cluster::{strategy_names, StrategyParams};

use crate::error::MetaError;
use crate::fidelity_ranking::{evaluate_fidelity, FidelityRankingConfig};
use crate::strategy::{JobContext, RankingStrategy, Score, StrategyRegistry};
use crate::topology_ranking::evaluate_topology;

/// The registry every [`crate::MetaServer`] starts with: the four built-in
/// strategies, configured with `config` where applicable.
pub fn builtin_registry(config: FidelityRankingConfig) -> StrategyRegistry {
    let mut registry = StrategyRegistry::new();
    for strategy in [
        Arc::new(FidelityStrategy::new(config)) as Arc<dyn RankingStrategy>,
        Arc::new(TopologyStrategy),
        Arc::new(WeightedStrategy::new(config)),
        Arc::new(MinQueueStrategy),
    ] {
        registry
            .register(strategy)
            .expect("built-in names are unique");
    }
    registry
}

/// Whether one of the *built-in* strategy names scores the user's circuit
/// itself and therefore needs a QASM payload in the job. Front ends use this
/// for early structural checks before a registry is reachable; the
/// authoritative enforcement is each strategy's `validate` hook, which also
/// covers user-defined strategies.
pub fn requires_circuit(name: &str) -> bool {
    matches!(name, strategy_names::FIDELITY | strategy_names::WEIGHTED)
}

/// Read and range-check the `target` parameter shared by the fidelity-based
/// strategies.
fn target_param(params: &StrategyParams, default: f64) -> Result<f64, MetaError> {
    let target = params
        .get_f64(strategy_names::PARAM_TARGET)
        .unwrap_or(default);
    if !(0.0..=1.0).contains(&target) {
        return Err(MetaError::InvalidMetadata(format!(
            "fidelity {target} outside [0, 1]"
        )));
    }
    Ok(target)
}

/// Require the job to carry a circuit (fidelity-style strategies score the
/// user's actual workload).
fn require_circuit<'a>(
    strategy: &str,
    circuit: Option<&'a Circuit>,
) -> Result<&'a Circuit, MetaError> {
    circuit.ok_or_else(|| {
        MetaError::InvalidMetadata(format!("strategy '{strategy}' requires a circuit upload"))
    })
}

/// The Clifford-canary fidelity ranking of §3.4.1 as a plugin.
///
/// Parameters: `target` — the requested fidelity in `[0, 1]` (defaults to
/// 1.0). Requires the job circuit.
#[derive(Debug, Clone, Copy)]
pub struct FidelityStrategy {
    config: FidelityRankingConfig,
}

impl FidelityStrategy {
    /// A fidelity strategy with the given canary-evaluation configuration.
    pub fn new(config: FidelityRankingConfig) -> Self {
        FidelityStrategy { config }
    }

    /// The canary-evaluation configuration in use.
    pub fn config(&self) -> &FidelityRankingConfig {
        &self.config
    }
}

impl RankingStrategy for FidelityStrategy {
    fn name(&self) -> &str {
        strategy_names::FIDELITY
    }

    fn validate(
        &self,
        params: &StrategyParams,
        circuit: Option<&Circuit>,
    ) -> Result<(), MetaError> {
        target_param(params, 1.0)?;
        require_circuit(self.name(), circuit)?;
        Ok(())
    }

    fn score(&self, job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
        let circuit = require_circuit(self.name(), job.circuit)?;
        let target = target_param(job.params, 1.0)?;
        let evaluation = evaluate_fidelity(circuit, target, backend, &self.config)?;
        Ok(Score::new(backend.name(), evaluation.score)
            .with_detail("canary_fidelity", evaluation.canary_fidelity)
            .with_detail("swaps_inserted", evaluation.swaps_inserted as f64))
    }

    fn known_params(&self) -> Option<&'static [&'static str]> {
        Some(&[strategy_names::PARAM_TARGET])
    }

    fn is_cacheable(&self) -> bool {
        // The canary is seeded by the device name; it reads neither the job
        // name nor telemetry.
        true
    }
}

/// The topology-similarity ranking of §3.4.2 as a plugin.
///
/// Parameters: `edges` — the requested interaction edges; `qubits` — the
/// number of qubits the request spans (defaults to one past the highest edge
/// endpoint). When no `edges` parameter is present the strategy falls back to
/// the uploaded circuit, treating it as a topology circuit (the visualizer's
/// canvas upload path).
#[derive(Debug, Clone, Copy, Default)]
pub struct TopologyStrategy;

impl TopologyStrategy {
    /// Build the topology circuit a job context describes.
    fn request_circuit(&self, job: &JobContext<'_>) -> Result<Circuit, MetaError> {
        match job.params.get_edges(strategy_names::PARAM_EDGES) {
            Some(edges) => {
                let implied = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(1);
                let qubits = job
                    .params
                    .get_u64(strategy_names::PARAM_QUBITS)
                    .map(|q| q as usize)
                    .unwrap_or(implied);
                Ok(library::topology_circuit(qubits, edges)?)
            }
            None => Ok(require_circuit(self.name(), job.circuit)?.clone()),
        }
    }
}

impl RankingStrategy for TopologyStrategy {
    fn name(&self) -> &str {
        strategy_names::TOPOLOGY
    }

    fn validate(
        &self,
        params: &StrategyParams,
        circuit: Option<&Circuit>,
    ) -> Result<(), MetaError> {
        match params.get_edges(strategy_names::PARAM_EDGES) {
            Some(edges) => {
                if edges.is_empty() {
                    return Err(MetaError::InvalidMetadata(
                        "topology request has no edges".into(),
                    ));
                }
                // Building the circuit validates edge endpoints/self-loops.
                let implied = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(1);
                let qubits = params
                    .get_u64(strategy_names::PARAM_QUBITS)
                    .map(|q| q as usize)
                    .unwrap_or(implied);
                library::topology_circuit(qubits, edges)?;
                Ok(())
            }
            None => {
                require_circuit(self.name(), circuit)?;
                Ok(())
            }
        }
    }

    fn score(&self, job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
        let request = self.request_circuit(job)?;
        let evaluation = evaluate_topology(&request, backend)?;
        Ok(Score::new(backend.name(), evaluation.score).with_detail(
            "exact_embedding",
            if evaluation.exact_embedding { 1.0 } else { 0.0 },
        ))
    }

    fn known_params(&self) -> Option<&'static [&'static str]> {
        Some(&[strategy_names::PARAM_EDGES, strategy_names::PARAM_QUBITS])
    }

    fn is_cacheable(&self) -> bool {
        // The VF2 embedding search is deterministic; it reads neither the job
        // name nor telemetry.
        true
    }
}

/// A weighted multi-objective strategy: canary-fidelity score blended with the
/// device's live queue depth and classical utilization (reported by the
/// control plane as [`crate::DeviceTelemetry`]).
///
/// `score = fidelity_weight · fidelity_score + queue_weight · queue_depth
/// + utilization_weight · 100 · (utilization + health_penalty)`
///
/// Parameters (all optional): `target` (default 1.0), `fidelity_weight`
/// (default 1.0), `queue_weight` (default 5.0), `utilization_weight`
/// (default 1.0). Requires the job circuit. Devices with no telemetry report
/// are treated as idle. The health penalty (circuit-breaker flakiness,
/// `0` for a healthy device) rides on the utilization weight, so
/// recently-flaky devices rank behind equally-loaded healthy ones without
/// changing scores in deployments that never report a penalty.
#[derive(Debug, Clone, Copy)]
pub struct WeightedStrategy {
    config: FidelityRankingConfig,
}

impl WeightedStrategy {
    /// A weighted strategy with the given canary-evaluation configuration.
    pub fn new(config: FidelityRankingConfig) -> Self {
        WeightedStrategy { config }
    }
}

/// Read a weight parameter, rejecting negatives (a negative weight would
/// invert "lower is better" for that component).
fn weight_param(params: &StrategyParams, key: &str, default: f64) -> Result<f64, MetaError> {
    let weight = params.get_f64(key).unwrap_or(default);
    if weight < 0.0 || !weight.is_finite() {
        return Err(MetaError::InvalidMetadata(format!(
            "weight '{key}' must be finite and non-negative, got {weight}"
        )));
    }
    Ok(weight)
}

impl RankingStrategy for WeightedStrategy {
    fn name(&self) -> &str {
        strategy_names::WEIGHTED
    }

    fn validate(
        &self,
        params: &StrategyParams,
        circuit: Option<&Circuit>,
    ) -> Result<(), MetaError> {
        target_param(params, 1.0)?;
        weight_param(params, strategy_names::PARAM_FIDELITY_WEIGHT, 1.0)?;
        weight_param(params, strategy_names::PARAM_QUEUE_WEIGHT, 5.0)?;
        weight_param(params, strategy_names::PARAM_UTILIZATION_WEIGHT, 1.0)?;
        require_circuit(self.name(), circuit)?;
        Ok(())
    }

    fn score(&self, job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
        let circuit = require_circuit(self.name(), job.circuit)?;
        let target = target_param(job.params, 1.0)?;
        let w_fidelity = weight_param(job.params, strategy_names::PARAM_FIDELITY_WEIGHT, 1.0)?;
        let w_queue = weight_param(job.params, strategy_names::PARAM_QUEUE_WEIGHT, 5.0)?;
        let w_util = weight_param(job.params, strategy_names::PARAM_UTILIZATION_WEIGHT, 1.0)?;

        let evaluation = evaluate_fidelity(circuit, target, backend, &self.config)?;
        let telemetry = job.telemetry.copied().unwrap_or_default();
        let queue_depth = telemetry.queue_depth as f64;
        let utilization = telemetry.utilization.clamp(0.0, 1.0);
        let health_penalty = telemetry.health_penalty.clamp(0.0, 1.0);
        let value = w_fidelity * evaluation.score
            + w_queue * queue_depth
            + w_util * 100.0 * (utilization + health_penalty);
        Ok(Score::new(backend.name(), value)
            .with_detail("fidelity_score", evaluation.score)
            .with_detail("canary_fidelity", evaluation.canary_fidelity)
            .with_detail("queue_depth", queue_depth)
            .with_detail("utilization", utilization)
            .with_detail("health_penalty", health_penalty))
    }

    fn known_params(&self) -> Option<&'static [&'static str]> {
        Some(&[
            strategy_names::PARAM_TARGET,
            strategy_names::PARAM_FIDELITY_WEIGHT,
            strategy_names::PARAM_QUEUE_WEIGHT,
            strategy_names::PARAM_UTILIZATION_WEIGHT,
        ])
    }
}

/// The min-queue-time baseline: score is the device's queue depth plus half
/// its utilization as a fractional tie-break (scaled strictly below one whole
/// queue step, so utilization can never outrank an actually-shorter queue),
/// ignoring calibration entirely. Needs no parameters and no circuit; devices
/// with no telemetry report are treated as idle.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinQueueStrategy;

impl RankingStrategy for MinQueueStrategy {
    fn name(&self) -> &str {
        strategy_names::MIN_QUEUE
    }

    fn validate(
        &self,
        _params: &StrategyParams,
        _circuit: Option<&Circuit>,
    ) -> Result<(), MetaError> {
        Ok(())
    }

    fn score(&self, job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
        let telemetry = job.telemetry.copied().unwrap_or_default();
        let queue_depth = telemetry.queue_depth as f64;
        let utilization = telemetry.utilization.clamp(0.0, 1.0);
        // The utilization component stays strictly below one queue step, so a
        // fully-utilized empty queue still beats a one-deep queue.
        Ok(Score::new(backend.name(), queue_depth + 0.5 * utilization)
            .with_detail("queue_depth", queue_depth)
            .with_detail("utilization", utilization))
    }

    fn known_params(&self) -> Option<&'static [&'static str]> {
        Some(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::DeviceTelemetry;
    use qrio_backend::topology;
    use qrio_cluster::StrategySpec;

    fn config() -> FidelityRankingConfig {
        FidelityRankingConfig {
            shots: 128,
            seed: 7,
            shortfall_weight: 100.0,
        }
    }

    fn context<'a>(
        params: &'a StrategyParams,
        circuit: Option<&'a Circuit>,
        telemetry: Option<&'a DeviceTelemetry>,
    ) -> JobContext<'a> {
        JobContext {
            job_name: "test-job",
            params,
            circuit,
            telemetry,
        }
    }

    #[test]
    fn builtin_registry_holds_all_four_strategies() {
        let registry = builtin_registry(config());
        assert_eq!(
            registry.names(),
            vec!["fidelity", "min_queue", "topology", "weighted"]
        );
    }

    #[test]
    fn fidelity_strategy_orders_devices_by_noise() {
        let strategy = FidelityStrategy::new(config());
        let circuit = library::bernstein_vazirani(5, 0b10101).unwrap();
        let spec = StrategySpec::fidelity(0.9);
        strategy.validate(&spec.params, Some(&circuit)).unwrap();
        let clean = Backend::uniform("clean", topology::line(8), 0.0, 0.0);
        let noisy = Backend::uniform("noisy", topology::line(8), 0.05, 0.3);
        let clean_score = strategy
            .score(&context(&spec.params, Some(&circuit), None), &clean)
            .unwrap();
        let noisy_score = strategy
            .score(&context(&spec.params, Some(&circuit), None), &noisy)
            .unwrap();
        assert!(clean_score.value < noisy_score.value);
        assert!(clean_score.detail("canary_fidelity").unwrap() > 0.9);
        // Missing circuit and bad target are rejected at validation.
        assert!(strategy.validate(&spec.params, None).is_err());
        let bad = StrategySpec::fidelity(1.5);
        assert!(strategy.validate(&bad.params, Some(&circuit)).is_err());
    }

    #[test]
    fn topology_strategy_prefers_exact_embeddings() {
        let strategy = TopologyStrategy;
        let edges = topology::ring(6).edges();
        let spec = StrategySpec::topology(&edges, 6);
        strategy.validate(&spec.params, None).unwrap();
        let ring = Backend::uniform("ring", topology::ring(6), 0.01, 0.05);
        let line = Backend::uniform("line", topology::line(6), 0.01, 0.05);
        let ring_score = strategy
            .score(&context(&spec.params, None, None), &ring)
            .unwrap();
        let line_score = strategy
            .score(&context(&spec.params, None, None), &line)
            .unwrap();
        assert!(ring_score.value < line_score.value);
        assert_eq!(ring_score.detail("exact_embedding"), Some(1.0));
        assert_eq!(line_score.detail("exact_embedding"), Some(0.0));
    }

    #[test]
    fn topology_strategy_validates_edges_and_falls_back_to_circuit() {
        let strategy = TopologyStrategy;
        // Self-loop edges are rejected at upload time.
        let bad = StrategySpec::topology(&[(1, 1)], 3);
        assert!(strategy.validate(&bad.params, None).is_err());
        let empty = StrategySpec::topology(&[], 3);
        assert!(strategy.validate(&empty.params, None).is_err());
        // No edges param and no circuit -> invalid.
        let none = StrategySpec::new("topology");
        assert!(strategy.validate(&none.params, None).is_err());
        // Circuit fallback: a topology circuit upload works without params.
        let topo = library::topology_circuit(3, &[(0, 1), (1, 2)]).unwrap();
        strategy.validate(&none.params, Some(&topo)).unwrap();
        let dev = Backend::uniform("dev", topology::line(4), 0.01, 0.05);
        let score = strategy
            .score(&context(&none.params, Some(&topo), None), &dev)
            .unwrap();
        assert!(score.value >= 0.0);
    }

    #[test]
    fn weighted_strategy_penalises_busy_devices() {
        let strategy = WeightedStrategy::new(config());
        let circuit = library::bernstein_vazirani(4, 0b1011).unwrap();
        let spec = StrategySpec::weighted(0.9, 1.0, 10.0, 1.0);
        strategy.validate(&spec.params, Some(&circuit)).unwrap();
        let dev = Backend::uniform("dev", topology::line(6), 0.005, 0.02);
        let idle = DeviceTelemetry {
            queue_depth: 0,
            utilization: 0.0,
            health_penalty: 0.0,
        };
        let busy = DeviceTelemetry {
            queue_depth: 4,
            utilization: 0.75,
            health_penalty: 0.0,
        };
        let idle_score = strategy
            .score(&context(&spec.params, Some(&circuit), Some(&idle)), &dev)
            .unwrap();
        let busy_score = strategy
            .score(&context(&spec.params, Some(&circuit), Some(&busy)), &dev)
            .unwrap();
        assert!(idle_score.value < busy_score.value);
        // The fidelity component is identical; the gap is queue + utilization.
        let expected_gap = 10.0 * 4.0 + 1.0 * 100.0 * 0.75;
        assert!((busy_score.value - idle_score.value - expected_gap).abs() < 1e-9);
        // Missing telemetry is treated as idle.
        let no_telemetry = strategy
            .score(&context(&spec.params, Some(&circuit), None), &dev)
            .unwrap();
        assert!((no_telemetry.value - idle_score.value).abs() < 1e-9);
        // Negative weights are rejected.
        let bad = StrategySpec::weighted(0.9, -1.0, 0.0, 0.0);
        assert!(strategy.validate(&bad.params, Some(&circuit)).is_err());
    }

    #[test]
    fn min_queue_strategy_ranks_by_queue_depth_alone() {
        let strategy = MinQueueStrategy;
        let params = StrategyParams::new();
        strategy.validate(&params, None).unwrap();
        let dev = Backend::uniform("dev", topology::line(4), 0.5, 0.9);
        let shallow = DeviceTelemetry {
            queue_depth: 1,
            utilization: 0.2,
            health_penalty: 0.0,
        };
        let deep = DeviceTelemetry {
            queue_depth: 6,
            utilization: 0.1,
            health_penalty: 0.0,
        };
        let s = strategy
            .score(&context(&params, None, Some(&shallow)), &dev)
            .unwrap();
        let d = strategy
            .score(&context(&params, None, Some(&deep)), &dev)
            .unwrap();
        assert!(s.value < d.value);
        assert_eq!(d.detail("queue_depth"), Some(6.0));
        // Utilization is a strict tie-break: a fully-utilized node with an
        // empty queue still beats a node with one queued job.
        let full_util = DeviceTelemetry {
            queue_depth: 0,
            utilization: 1.0,
            health_penalty: 0.0,
        };
        let one_deep = DeviceTelemetry {
            queue_depth: 1,
            utilization: 0.0,
            health_penalty: 0.0,
        };
        let f = strategy
            .score(&context(&params, None, Some(&full_util)), &dev)
            .unwrap();
        let o = strategy
            .score(&context(&params, None, Some(&one_deep)), &dev)
            .unwrap();
        assert!(f.value < o.value);
        // No telemetry -> zero score (idle).
        let idle = strategy.score(&context(&params, None, None), &dev).unwrap();
        assert_eq!(idle.value, 0.0);
    }
}
