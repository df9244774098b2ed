//! Spec and scenario semantic lints: mistakes that parse fine and pass the
//! loadgen's structural validation, yet doom the workload — requirements no
//! declared device satisfies, events after the arrival horizon, offered load
//! beyond the fleet's service capacity, and strategy parameters the selected
//! strategy will silently ignore.

use qrio_backend::{Backend, NodeLabels};
use qrio_cluster::{DeviceRequirements, StrategySpec};
use qrio_loadgen::{Scenario, ScenarioEvent};
use qrio_meta::StrategyRegistry;

use crate::diag::{Diagnostic, LintCode, Location, Severity};

/// Lint device requirements against a declared fleet (QL0101): when every
/// device is rejected, the job can never be scheduled — the failure the
/// paper's filtering stage (§3.5) would otherwise only produce at runtime.
pub fn lint_requirements(
    requirements: &DeviceRequirements,
    fleet: &[Backend],
    subject: &str,
) -> Vec<Diagnostic> {
    if fleet.is_empty() {
        return Vec::new();
    }
    // The first bound each device violates; one that violates none ends
    // the lint. Classical resources are not the user's bounds: unlimited.
    let mut rejected = Vec::with_capacity(fleet.len());
    for backend in fleet {
        let labels = NodeLabels::from_backend(backend, u64::MAX, u64::MAX);
        match requirements.rejection(&labels) {
            Some(reason) => rejected.push((backend.name(), reason)),
            None => return Vec::new(),
        }
    }
    // Summarize why: one representative rejection per device keeps the
    // message bounded on large fleets.
    let mut reasons: Vec<String> = rejected
        .iter()
        .take(3)
        .map(|(device, reason)| format!("{device}: {reason}"))
        .collect();
    if rejected.len() > 3 {
        reasons.push(format!("... and {} more", rejected.len() - 3));
    }
    vec![Diagnostic::new(
        LintCode::UnsatisfiableRequirements,
        Location::subject(subject),
        format!(
            "no device of the {}-device fleet satisfies the requirements ({})",
            fleet.len(),
            reasons.join("; ")
        ),
    )]
}

/// Lint a strategy spec against the registry (QL0102): parameters the
/// registered strategy does not recognize are silently ignored at scoring
/// time — almost always a typo (`fidelity_wieght`) the user meant to matter.
pub fn lint_strategy_spec(
    spec: &StrategySpec,
    registry: &StrategyRegistry,
    subject: &str,
) -> Vec<Diagnostic> {
    let Some(strategy) = registry.get(&spec.name) else {
        return vec![Diagnostic::new(
            LintCode::UnknownStrategyParam,
            Location::subject(subject),
            format!(
                "strategy '{}' is not registered (known: {}); its parameters \
                 cannot be validated",
                spec.name,
                registry.names().join(", ")
            ),
        )];
    };
    let Some(known) = strategy.known_params() else {
        // The strategy declares an open parameter surface; nothing to check.
        return Vec::new();
    };
    let mut diagnostics = Vec::new();
    for (key, _) in spec.params.iter() {
        // Not `known.contains(&key)`: the slice holds `&'static str` and the
        // borrowed key cannot be lengthened to match.
        #[allow(clippy::manual_contains)]
        if known.iter().any(|k| *k == key) {
            continue;
        }
        diagnostics.push(Diagnostic::new(
            LintCode::UnknownStrategyParam,
            Location::subject(subject),
            format!(
                "parameter '{key}' is not recognized by strategy '{}' \
                 (known parameters: {}); it will be silently ignored",
                spec.name,
                if known.is_empty() {
                    "none".to_string()
                } else {
                    known.join(", ")
                }
            ),
        ));
    }
    diagnostics
}

/// The mean per-job service time of one tenant on a speed-1 device, in
/// virtual milliseconds — the loadgen engine's formula.
fn service_ms(scenario: &Scenario, shots: u64) -> f64 {
    (scenario.service_base_us + shots.saturating_mul(scenario.service_per_shot_us)) as f64 / 1000.0
}

/// Lint a parsed scenario (QL0103, QL0104, QL0102): semantic problems beyond
/// what [`Scenario::validate`] enforces structurally.
pub fn lint_scenario(scenario: &Scenario, registry: &StrategyRegistry) -> Vec<Diagnostic> {
    let subject = format!("scenario '{}'", scenario.name);
    let mut diagnostics = Vec::new();

    // QL0103: events timestamped at/after the horizon. Arrivals stop at the
    // horizon; an event beyond it can only affect the drain tail (or, past
    // the drain, nothing), which is almost never what the author meant.
    for (index, event) in scenario.events.iter().enumerate() {
        if event.at_ms() >= scenario.duration_ms {
            let (kind, device) = match event {
                ScenarioEvent::Drift { device, .. } => ("drift", device.as_str()),
                ScenarioEvent::Outage { device, .. } => ("outage", device.as_str()),
                ScenarioEvent::Faults { .. } => ("faults", "fleet-wide"),
            };
            diagnostics.push(Diagnostic::new(
                LintCode::EventOutsideHorizon,
                Location::at(&subject, format!("event #{index} ({kind} on '{device}')")),
                format!(
                    "event fires at {} ms but arrivals stop at the {} ms \
                     horizon; it can only affect the drain tail",
                    event.at_ms(),
                    scenario.duration_ms
                ),
            ));
        }
    }

    // QL0104: offered load vs. fleet service capacity. Each device serves
    // one job at a time at `speed`, so the fleet's capacity is the sum of
    // speeds (in device-milliseconds per millisecond); the offered load is
    // the sum over tenants of arrival rate x mean service demand.
    let capacity: f64 = scenario.fleet.iter().map(|d| d.speed).sum();
    let offered: f64 = scenario
        .tenants
        .iter()
        .map(|t| t.arrival.mean_rate_per_sec() / 1000.0 * service_ms(scenario, t.shots))
        .sum();
    if capacity > 0.0 && offered >= capacity {
        let unbounded = scenario.max_jobs == 0;
        let mut diagnostic = Diagnostic::new(
            LintCode::FleetOverloaded,
            Location::subject(&subject),
            format!(
                "offered load is {offered:.2} device-ms/ms against a fleet \
                 capacity of {capacity:.2}: queues grow without bound{}",
                if unbounded {
                    " and the run provably never drains within any fixed horizon multiple"
                } else {
                    " until the job cap stops arrivals"
                }
            ),
        );
        if unbounded {
            diagnostic = diagnostic.with_severity(Severity::Error);
        }
        diagnostics.push(diagnostic);
    }

    // QL0102: tenant strategy parameters vs. the registered strategies.
    for tenant in &scenario.tenants {
        diagnostics.extend(lint_strategy_spec(
            &tenant.strategy.strategy_spec(),
            registry,
            &format!("{subject}: tenant '{}'", tenant.name),
        ));
    }

    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::topology;
    use qrio_cluster::{ParamValue, StrategyParams};
    use qrio_meta::{builtin_registry, FidelityRankingConfig};

    fn small_fleet() -> Vec<Backend> {
        vec![
            Backend::uniform("a", topology::line(5), 0.01, 0.05),
            Backend::uniform("b", topology::line(8), 0.02, 0.10),
        ]
    }

    #[test]
    fn satisfiable_requirements_are_clean() {
        let req = DeviceRequirements {
            min_qubits: Some(6),
            ..DeviceRequirements::default()
        };
        assert!(lint_requirements(&req, &small_fleet(), "job 'x'").is_empty());
    }

    #[test]
    fn unsatisfiable_requirements_are_flagged_with_reasons() {
        let req = DeviceRequirements {
            min_qubits: Some(50),
            ..DeviceRequirements::default()
        };
        let diags = lint_requirements(&req, &small_fleet(), "job 'big'");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::UnsatisfiableRequirements);
        assert!(diags[0].message.contains("qubits"));
    }

    #[test]
    fn the_message_explains_each_rejection() {
        let mut fleet = vec![
            Backend::uniform("low-err", topology::line(10), 0.01, 0.05),
            Backend::uniform("mid-err", topology::line(20), 0.02, 0.3),
            Backend::uniform("high-err", topology::line(30), 0.05, 0.6),
        ];
        let req = DeviceRequirements {
            max_two_qubit_error: Some(0.1),
            min_qubits: Some(15),
            ..DeviceRequirements::default()
        };
        let diags = lint_requirements(&req, &fleet, "job 'strict'");
        assert_eq!(diags.len(), 1);
        let message = &diags[0].message;
        assert!(message.starts_with("no device of the 3-device fleet"));
        // Each device with the first bound it violates.
        assert!(message.contains("low-err: 10 qubits < required 15"));
        assert!(message.contains("mid-err: avg 2q error"));
        assert!(message.contains("high-err: avg 2q error"));
        assert!(!message.contains("more"));
        // Past three devices the rest are counted, not listed.
        fleet.push(Backend::uniform("tiny", topology::line(2), 0.0, 0.0));
        fleet.push(Backend::uniform("tinier", topology::line(1), 0.0, 0.0));
        let diags = lint_requirements(&req, &fleet, "job 'strict'");
        assert!(diags[0].message.ends_with("; ... and 2 more)"));
    }

    #[test]
    fn unknown_strategy_params_are_flagged() {
        let registry = builtin_registry(FidelityRankingConfig::default());
        let mut params = StrategyParams::new();
        params.set("target", ParamValue::Float(0.9));
        params.set("fidelity_wieght", ParamValue::Float(2.0)); // typo
        let spec = StrategySpec {
            name: "fidelity".to_string(),
            params,
        };
        let diags = lint_strategy_spec(&spec, &registry, "job 'typo'");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::UnknownStrategyParam);
        assert!(diags[0].message.contains("fidelity_wieght"));

        let clean = StrategySpec::fidelity(0.9);
        assert!(lint_strategy_spec(&clean, &registry, "job 'ok'").is_empty());
    }

    #[test]
    fn unregistered_strategy_is_flagged() {
        let registry = builtin_registry(FidelityRankingConfig::default());
        let spec = StrategySpec::new("no-such-strategy");
        let diags = lint_strategy_spec(&spec, &registry, "job 'missing'");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("not registered"));
    }
}
