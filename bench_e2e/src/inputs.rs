//! Inputs as a pure function of `--seed`: the flagship scenario, the job
//! requests a workload submits and the telemetry reported before each
//! scheduling decision. The program under test sees nothing else.

use qrio::{DeviceTelemetry, FidelityRankingConfig, JobRequest, JobRequestBuilder, Qrio};
use qrio_cluster::Resources;
use qrio_loadgen::Scenario;

use crate::stats::SplitMix;

/// Fleet, tenants, circuits and shot counts of every workload come from here
/// (read relative to the checkout root, which is the working directory).
pub const SCENARIO_PATH: &str = "scenarios/cloud.yaml";

/// Classical request per job and capacity per node, as `qrio-loadgen` sets
/// them: queue depth, not classical fit, is what binds.
const JOB_RESOURCES: (u64, u64) = (10, 16);
const NODE_RESOURCES: (u64, u64) = (1 << 30, 1 << 30);

/// Which tenants of the scenario submit, and in what proportion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// alice, bob, carol and dave interleaved 7:4:6:3 (their arrival rates
    /// in the scenario): fidelity, min_queue, weighted and topology ranking.
    FourTenants,
    /// bob's stream alone: min_queue ranking, GHZ-6, 64 shots.
    BobOnly,
}

impl Mix {
    fn weights(self) -> &'static [(&'static str, usize)] {
        match self {
            Mix::FourTenants => &[("alice", 7), ("bob", 4), ("carol", 6), ("dave", 3)],
            Mix::BobOnly => &[("bob", 1)],
        }
    }
}

/// One workload's generated inputs.
#[derive(Debug)]
pub struct Inputs {
    pub requests: Vec<JobRequest>,
    /// The load report sent before request `i` is scheduled.
    pub telemetry: Vec<Vec<(String, DeviceTelemetry)>>,
}

/// The flagship scenario exactly as committed, its own seed (42) included.
pub fn committed_scenario() -> Result<Scenario, String> {
    let text = std::fs::read_to_string(SCENARIO_PATH)
        .map_err(|e| format!("cannot read {SCENARIO_PATH}: {e}"))?;
    Scenario::from_yaml(&text).map_err(|e| format!("cannot parse {SCENARIO_PATH}: {e}"))
}

/// The flagship scenario with the run's seed, from which a deployment's
/// ranking and runner seeds derive.
pub fn load_scenario(seed: u64) -> Result<Scenario, String> {
    let mut scenario = committed_scenario()?;
    scenario.seed = seed;
    Ok(scenario)
}

/// Generate `n` requests of `mix` from `scenario`. The seed drives the
/// interleaving of the tenants, each tenant's first circuit index and the
/// telemetry reported before each decision.
pub fn generate(scenario: &Scenario, mix: Mix, n: usize, seed: u64) -> Result<Inputs, String> {
    let mut rng = SplitMix(seed ^ 0xBE7C_4E2E);
    let mut tenants = Vec::new();
    let mut block = Vec::new();
    for &(name, weight) in mix.weights() {
        let tenant = scenario
            .tenants
            .iter()
            .find(|tenant| tenant.name == name)
            .ok_or_else(|| format!("{SCENARIO_PATH} has no tenant '{name}'"))?;
        block.extend(std::iter::repeat_n(tenants.len(), weight));
        // (tenant, first circuit index, jobs generated so far)
        tenants.push((tenant, rng.below(1 << 20), 0u64));
    }
    let devices: Vec<&str> = scenario.fleet.iter().map(|d| d.name.as_str()).collect();

    let mut requests = Vec::with_capacity(n);
    let mut telemetry = Vec::with_capacity(n);
    while requests.len() < n {
        rng.shuffle(&mut block);
        for &slot in block.iter().take(n - requests.len()) {
            let (tenant, first_index, count) = &mut tenants[slot];
            let circuit = tenant
                .circuit_for(*first_index + *count)
                .map_err(|e| e.to_string())?;
            let request = JobRequestBuilder::new()
                .with_circuit(&circuit)
                .job_name(format!("{}-{count}", tenant.name))
                .image_name(format!("qrio/{}:{count}", tenant.name))
                .strategy(tenant.strategy.strategy_spec())
                .shots(tenant.shots)
                .resources(JOB_RESOURCES.0, JOB_RESOURCES.1)
                .build()
                .map_err(|e| format!("cannot build request: {e}"))?;
            *count += 1;
            requests.push(request);
            telemetry.push(
                devices
                    .iter()
                    .map(|device| {
                        let queue_depth = rng.below(8) as usize;
                        let load = DeviceTelemetry {
                            queue_depth,
                            utilization: queue_depth as f64 / 8.0,
                            health_penalty: 0.0,
                        };
                        (device.to_string(), load)
                    })
                    .collect(),
            );
        }
    }
    Ok(Inputs {
        requests,
        telemetry,
    })
}

/// The ranking configuration `qrio-loadgen` derives from a scenario.
pub fn ranking_config(scenario: &Scenario) -> FidelityRankingConfig {
    FidelityRankingConfig {
        shots: scenario.canary_shots.max(1),
        seed: scenario.seed ^ 0xCA11_AB1E,
        shortfall_weight: 100.0,
    }
}

/// The runner seed `qrio-loadgen` derives from a scenario.
pub fn runner_seed(scenario: &Scenario) -> u64 {
    scenario.seed ^ 0x51D0_C10D
}

/// A deployment over the scenario's fleet, configured as `qrio-loadgen`
/// configures its own.
pub fn new_qrio(scenario: &Scenario) -> Result<Qrio, String> {
    let mut qrio = Qrio::with_config(ranking_config(scenario), runner_seed(scenario));
    for spec in &scenario.fleet {
        qrio.add_device_with_resources(
            spec.backend(),
            Resources::new(NODE_RESOURCES.0, NODE_RESOURCES.1),
        )
        .map_err(|e| format!("cannot add device '{}': {e}", spec.name))?;
    }
    Ok(qrio)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = include_str!("../../scenarios/cloud.yaml");

    fn scenario() -> Scenario {
        Scenario::from_yaml(SCENARIO).unwrap()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let scenario = scenario();
        let a = generate(&scenario, Mix::FourTenants, 60, 42).unwrap();
        let b = generate(&scenario, Mix::FourTenants, 60, 42).unwrap();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.telemetry, b.telemetry);
        let c = generate(&scenario, Mix::FourTenants, 60, 7).unwrap();
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn every_block_of_twenty_holds_the_tenants_seven_four_six_three() {
        let inputs = generate(&scenario(), Mix::FourTenants, 40, 42).unwrap();
        for block in inputs.requests.chunks(20) {
            let count = |tenant: &str| {
                block
                    .iter()
                    .filter(|r| r.job_name.starts_with(tenant))
                    .count()
            };
            assert_eq!(
                (count("alice"), count("bob"), count("carol"), count("dave")),
                (7, 4, 6, 3)
            );
        }
        assert_eq!(inputs.telemetry.len(), 40);
        assert!(inputs.telemetry.iter().all(|report| report.len() == 6));
    }

    #[test]
    fn bob_only_is_one_tenant_with_dense_names() {
        let inputs = generate(&scenario(), Mix::BobOnly, 5, 42).unwrap();
        let names: Vec<&str> = inputs
            .requests
            .iter()
            .map(|r| r.job_name.as_str())
            .collect();
        assert_eq!(names, ["bob-0", "bob-1", "bob-2", "bob-3", "bob-4"]);
        assert!(inputs.requests.iter().all(|r| r.shots == 64));
    }
}
