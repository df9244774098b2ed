//! Scenario specifications: the fleet, the tenants and the timeline of
//! calibration-drift and outage events, plus a YAML loader.
//!
//! A scenario is the complete, seedable description of one cloud workload:
//! which devices exist (and how fast/noisy they are), which tenants submit
//! jobs (circuit template, ranking strategy, arrival process) and what goes
//! wrong along the way. Scenarios travel as YAML documents read with the same
//! reader as job specs ([`qrio_cluster::yaml`]) and `backend.spec`: this
//! module holds the scenario's *grammar* — the schema below, its defaults and
//! its one format-specific rule, inline ` # comment`s — and
//! [`qrio_backend::reader`] reads the lines, fields and typed values, so
//! anything outside the schema is rejected with a line-numbered
//! [`LoadgenError::ScenarioParse`].
//!
//! ```yaml
//! scenario: cloud-small
//! seed: 42
//! durationMs: 60000
//! maxJobs: 2500
//! serviceBaseUs: 20000
//! servicePerShotUs: 400
//! canaryShots: 32
//! faultSeed: 7                # defaults to `seed`
//! breakers: on                # per-device circuit breakers (default: off)
//! breakerConsecutiveFailures: 3
//! breakerFailureRate: 0.6
//! breakerWindow: 8
//! breakerOpenMs: 5000
//! breakerProbeJobs: 2
//! fleet:
//!   - device: aspen
//!     topology: line          # line | ring | grid | tree | star | full
//!     qubits: 12
//!     singleQubitError: 0.001
//!     twoQubitError: 0.01
//!     readoutError: 0.02
//!     speed: 1.0
//! tenants:
//!   - tenant: alice
//!     strategy: fidelity      # fidelity | weighted | min_queue | topology
//!     target: 0.9
//!     circuit: bv             # bv | ghz | grover | random_clifford
//!     qubits: 5
//!     shots: 64
//!     arrival: poisson        # poisson | bursty | diurnal
//!     ratePerSec: 10.0
//!     retryMaxAttempts: 3     # total attempts incl. the first (optional)
//!     retryBackoff: exponential  # fixed | exponential (default: fixed)
//!     retryDelayMs: 500       # first/fixed backoff (default: 1000)
//!     retryMaxDelayMs: 4000   # exponential cap (default: 8 x retryDelayMs)
//!     deadlineMs: 20000       # end-to-end budget per job (optional)
//! events:
//!   - atMs: 30000
//!     kind: drift
//!     device: aspen
//!     errorFactor: 6.0
//!   - atMs: 10000
//!     kind: outage
//!     device: aspen
//!     downMs: 8000
//!   - atMs: 15000
//!     kind: faults            # chaos: turn the fault injector on/off
//!     transientRate: 0.2
//!     calibrationRate: 0.05
//!     slowRate: 0.0
//!     flapRate: 0.05
//! ```
//!
//! A `faults` event reconfigures the fleet-wide
//! [`qrio_cluster::FaultInjector`] rates from
//! that instant on; an event whose rates are all zero switches chaos off
//! again. `faultSeed` decouples the fault stream from the arrival streams so
//! the same workload can replay under different fault schedules.

use qrio::BreakerConfig;
use qrio_backend::reader::{self, Fields, SpecError};
use qrio_backend::{topology, Backend};
use qrio_circuit::{library, Circuit};
use qrio_cluster::{BackoffPolicy, RetryOn, RetryPolicy, StrategySpec};

use crate::arrival::ArrivalProcess;
use crate::error::LoadgenError;

/// The coupling-map family of a simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A 1-D chain.
    Line,
    /// A 1-D chain with wrap-around.
    Ring,
    /// A near-square 2-D grid.
    Grid,
    /// A binary tree.
    Tree,
    /// A hub-and-spokes star.
    Star,
    /// All-to-all connectivity.
    Full,
}

/// One device of the simulated fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Device (and cluster node) name.
    pub name: String,
    /// Coupling-map family.
    pub topology: TopologyKind,
    /// Number of physical qubits.
    pub qubits: usize,
    /// Uniform single-qubit gate error.
    pub single_qubit_error: f64,
    /// Uniform two-qubit gate error.
    pub two_qubit_error: f64,
    /// Uniform readout error.
    pub readout_error: f64,
    /// Relative execution speed (service times divide by this; `1.0` =
    /// reference speed).
    pub speed: f64,
}

impl DeviceSpec {
    /// Materialize the vendor backend this spec describes.
    pub fn backend(&self) -> Backend {
        let map = match self.topology {
            TopologyKind::Line => topology::line(self.qubits),
            TopologyKind::Ring => topology::ring(self.qubits),
            TopologyKind::Grid => {
                // Largest divisor pair keeps the qubit count exact; primes
                // degrade to a line-shaped 1×n grid.
                let mut rows = 1;
                let mut d = 1usize;
                while d * d <= self.qubits {
                    if self.qubits % d == 0 {
                        rows = d;
                    }
                    d += 1;
                }
                topology::grid(rows, self.qubits / rows)
            }
            TopologyKind::Tree => topology::binary_tree(self.qubits),
            TopologyKind::Star => topology::star(self.qubits),
            TopologyKind::Full => topology::fully_connected(self.qubits),
        };
        Backend::uniform(
            &self.name,
            map,
            self.single_qubit_error,
            self.two_qubit_error,
        )
        .with_uniform_readout_error(self.readout_error)
    }
}

/// The circuit family a tenant submits. Individual jobs vary deterministically
/// with the job index (BV secrets, Grover marks, Clifford seeds), so a
/// tenant's stream is diverse but replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadCircuit {
    /// Bernstein–Vazirani with a per-job secret (Clifford; stabilizer-fast).
    Bv,
    /// A GHZ state (Clifford).
    Ghz,
    /// Grover search with a per-job marked element (non-Clifford;
    /// statevector engine).
    Grover,
    /// A random Clifford circuit with a per-job seed.
    RandomClifford,
}

/// The ranking strategy a tenant selects for every job it submits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantStrategy {
    /// Built-in `"fidelity"` ranking with the given target.
    Fidelity {
        /// Target fidelity in `[0, 1]`.
        target: f64,
    },
    /// Built-in `"weighted"` multi-objective ranking (default weights).
    Weighted {
        /// Target fidelity in `[0, 1]`.
        target: f64,
    },
    /// Built-in `"min_queue"` baseline.
    MinQueue,
    /// Built-in `"topology"` ranking using the uploaded circuit as the
    /// request.
    Topology,
}

impl TenantStrategy {
    /// The [`StrategySpec`] uploaded with each of the tenant's jobs.
    pub fn strategy_spec(&self) -> StrategySpec {
        match *self {
            TenantStrategy::Fidelity { target } => StrategySpec::fidelity(target),
            TenantStrategy::Weighted { target } => StrategySpec::weighted(target, 1.0, 5.0, 1.0),
            TenantStrategy::MinQueue => StrategySpec::min_queue(),
            TenantStrategy::Topology => StrategySpec::new(qrio_cluster::strategy_names::TOPOLOGY),
        }
    }

    /// The registry name of the underlying strategy.
    pub fn name(&self) -> &'static str {
        match self {
            TenantStrategy::Fidelity { .. } => qrio_cluster::strategy_names::FIDELITY,
            TenantStrategy::Weighted { .. } => qrio_cluster::strategy_names::WEIGHTED,
            TenantStrategy::MinQueue => qrio_cluster::strategy_names::MIN_QUEUE,
            TenantStrategy::Topology => qrio_cluster::strategy_names::TOPOLOGY,
        }
    }
}

/// One tenant: a stream of jobs sharing a circuit family, a strategy and an
/// arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (job names are `"{tenant}-{index}"`).
    pub name: String,
    /// Ranking strategy for every submitted job.
    pub strategy: TenantStrategy,
    /// Circuit family.
    pub circuit: WorkloadCircuit,
    /// Circuit width.
    pub qubits: usize,
    /// Shots per job.
    pub shots: u64,
    /// Arrival process of the tenant's stream.
    pub arrival: ArrivalProcess,
    /// The retry policy every job of the tenant carries (`None` = fail
    /// fast): delays in virtual ms, never jittered — a pure function of the
    /// attempt number, so chaos runs replay byte for byte — and every failure
    /// class retried.
    pub retry: Option<RetryPolicy>,
    /// The deadline every job of the tenant carries, in virtual ms from its
    /// arrival: a job still waiting out a backoff past it expires.
    pub deadline_ms: Option<u64>,
}

impl TenantSpec {
    /// The circuit of the tenant's `index`-th job — deterministic in
    /// `(tenant spec, index)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit family cannot be built at the
    /// requested width (e.g. Grover needs `2 <= qubits <= 12`).
    pub fn circuit_for(&self, index: u64) -> Result<Circuit, LoadgenError> {
        let make = || -> Result<Circuit, qrio_circuit::CircuitError> {
            match self.circuit {
                WorkloadCircuit::Bv => {
                    let mask = (1u64 << self.qubits.min(63)) - 1;
                    // Vary the secret per job; avoid the all-zeros secret.
                    let secret = (index.wrapping_mul(0x9E37_79B9) & mask).max(1) & mask;
                    library::bernstein_vazirani(self.qubits, secret.max(1))
                }
                WorkloadCircuit::Ghz => library::ghz(self.qubits),
                WorkloadCircuit::Grover => {
                    let marked = index % (1u64 << self.qubits.min(20));
                    library::grover(self.qubits, marked)
                }
                WorkloadCircuit::RandomClifford => {
                    library::random_clifford_circuit(self.qubits, 6, index)
                }
            }
        };
        make().map_err(|e| {
            LoadgenError::Engine(format!(
                "tenant '{}' cannot build job circuit #{index}: {e}",
                self.name
            ))
        })
    }
}

/// One entry of the scenario's fault/mutation timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// At `at_ms`, multiply every error rate of `device` by `error_factor`
    /// (clamped to valid probability ranges) and push the new calibration to
    /// the meta server and cluster node.
    Drift {
        /// Virtual time of the event.
        at_ms: u64,
        /// Affected device.
        device: String,
        /// Multiplier on the device's error rates (`> 0`; values `< 1` model
        /// a recalibration improving the device).
        error_factor: f64,
    },
    /// At `at_ms`, cordon `device` for `down_ms` virtual milliseconds;
    /// waiting jobs are migrated off it through the scheduler and the
    /// in-flight job (if any) is interrupted as a device-flap fault.
    Outage {
        /// Virtual time of the event.
        at_ms: u64,
        /// Affected device.
        device: String,
        /// Length of the outage window.
        down_ms: u64,
    },
    /// At `at_ms`, set the fleet-wide fault-injection rates (all zero turns
    /// chaos off).
    Faults {
        /// Virtual time of the event.
        at_ms: u64,
        /// Probability of a transient execution error per attempt.
        transient_rate: f64,
        /// Probability of a calibration glitch per attempt.
        calibration_rate: f64,
        /// Probability of a hung/slow job per attempt.
        slow_rate: f64,
        /// Probability of a device flap per attempt.
        flap_rate: f64,
    },
}

impl ScenarioEvent {
    /// Virtual time at which the event fires.
    pub fn at_ms(&self) -> u64 {
        match self {
            ScenarioEvent::Drift { at_ms, .. }
            | ScenarioEvent::Outage { at_ms, .. }
            | ScenarioEvent::Faults { at_ms, .. } => *at_ms,
        }
    }
}

/// A complete, seedable workload scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (reported in `BENCH_cloud.json`).
    pub name: String,
    /// Master seed; every RNG stream in the run derives from it.
    pub seed: u64,
    /// Virtual duration: arrivals stop after this instant (queued work still
    /// drains).
    pub duration_ms: u64,
    /// Hard cap on total submitted jobs across tenants (`0` = unlimited).
    pub max_jobs: u64,
    /// Fixed per-job service overhead (virtual µs) at speed 1.0.
    pub service_base_us: u64,
    /// Additional service time per shot (virtual µs) at speed 1.0.
    pub service_per_shot_us: u64,
    /// Shots used by the meta server's Clifford-canary evaluation.
    pub canary_shots: u64,
    /// Seed of the fault injector's decision stream (defaults to `seed`).
    pub fault_seed: u64,
    /// Circuit-breaker thresholds (`None` = breakers off), `open_ticks` in
    /// virtual ms (`breakerOpenMs`, 5000 unless given).
    pub breakers: Option<BreakerConfig>,
    /// The device fleet.
    pub fleet: Vec<DeviceSpec>,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
    /// Drift/outage/faults timeline.
    pub events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// Check cross-field invariants: non-empty fleet and tenant list, unique
    /// names, sane rates, event devices that exist, and at least one device
    /// large enough for every tenant.
    ///
    /// # Errors
    ///
    /// Returns [`LoadgenError::InvalidScenario`] describing the first
    /// violation.
    pub fn validate(&self) -> Result<(), LoadgenError> {
        let invalid = |message: String| Err(LoadgenError::InvalidScenario(message));
        if self.fleet.is_empty() {
            return invalid("the fleet is empty".into());
        }
        if self.tenants.is_empty() {
            return invalid("no tenants are defined".into());
        }
        if self.duration_ms == 0 {
            return invalid("durationMs must be >= 1".into());
        }
        let mut device_names = std::collections::BTreeSet::new();
        for device in &self.fleet {
            if device.qubits == 0 {
                return invalid(format!("device '{}' has zero qubits", device.name));
            }
            if !(device.speed.is_finite() && device.speed > 0.0) {
                return invalid(format!("device '{}' has non-positive speed", device.name));
            }
            for (label, p) in [
                ("singleQubitError", device.single_qubit_error),
                ("twoQubitError", device.two_qubit_error),
                ("readoutError", device.readout_error),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return invalid(format!(
                        "device '{}': {label} {p} outside [0, 1]",
                        device.name
                    ));
                }
            }
            if !device_names.insert(device.name.clone()) {
                return invalid(format!("duplicate device name '{}'", device.name));
            }
        }
        let max_qubits = self.fleet.iter().map(|d| d.qubits).max().unwrap_or(0);
        let mut tenant_names = std::collections::BTreeSet::new();
        for tenant in &self.tenants {
            if !tenant_names.insert(tenant.name.clone()) {
                return invalid(format!("duplicate tenant name '{}'", tenant.name));
            }
            if tenant.qubits == 0 || tenant.qubits > max_qubits {
                return invalid(format!(
                    "tenant '{}' needs {} qubits but the largest device has {max_qubits}",
                    tenant.name, tenant.qubits
                ));
            }
            if tenant.shots == 0 {
                return invalid(format!("tenant '{}' has zero shots", tenant.name));
            }
            let rate = tenant.arrival.mean_rate_per_sec();
            if !(rate.is_finite() && rate > 0.0) {
                return invalid(format!(
                    "tenant '{}' has a non-positive arrival rate",
                    tenant.name
                ));
            }
            if let ArrivalProcess::Bursty {
                burst_multiplier, ..
            } = tenant.arrival
            {
                if burst_multiplier < 1.0 {
                    return invalid(format!(
                        "tenant '{}': burstMultiplier must be >= 1",
                        tenant.name
                    ));
                }
            }
            if let ArrivalProcess::Diurnal { amplitude, .. } = tenant.arrival {
                if !(0.0..=1.0).contains(&amplitude) {
                    return invalid(format!(
                        "tenant '{}': amplitude must be in [0, 1]",
                        tenant.name
                    ));
                }
            }
            if let Some(retry) = &tenant.retry {
                if retry.max_attempts == 0 {
                    return invalid(format!(
                        "tenant '{}': retryMaxAttempts must be >= 1",
                        tenant.name
                    ));
                }
                if retry.backoff.delay(0, "", 1) == 0 {
                    return invalid(format!(
                        "tenant '{}': retryDelayMs must be >= 1",
                        tenant.name
                    ));
                }
            }
            if tenant.deadline_ms == Some(0) {
                return invalid(format!("tenant '{}': deadlineMs must be >= 1", tenant.name));
            }
            // The circuit family must actually build at the tenant's width
            // (e.g. Grover has its own qubit bounds) — fail here instead of
            // mid-simulation at the tenant's first arrival.
            if let Err(e) = tenant.circuit_for(0) {
                return invalid(format!(
                    "tenant '{}': circuit family cannot be built at {} qubits ({e})",
                    tenant.name, tenant.qubits
                ));
            }
        }
        if let Some(breakers) = &self.breakers {
            if !(breakers.failure_rate.is_finite() && breakers.failure_rate > 0.0) {
                return invalid("breakerFailureRate must be finite and > 0".into());
            }
            if breakers.window == 0 {
                return invalid("breakerWindow must be >= 1".into());
            }
            if breakers.probe_jobs == 0 {
                return invalid("breakerProbeJobs must be >= 1".into());
            }
        }
        for event in &self.events {
            match event {
                ScenarioEvent::Drift {
                    device,
                    error_factor,
                    ..
                } => {
                    if !device_names.contains(device) {
                        return invalid(format!("event references unknown device '{device}'"));
                    }
                    if !(error_factor.is_finite() && *error_factor > 0.0) {
                        return invalid("drift errorFactor must be finite and > 0".into());
                    }
                }
                ScenarioEvent::Outage { device, .. } => {
                    if !device_names.contains(device) {
                        return invalid(format!("event references unknown device '{device}'"));
                    }
                }
                ScenarioEvent::Faults {
                    transient_rate,
                    calibration_rate,
                    slow_rate,
                    flap_rate,
                    ..
                } => {
                    for (label, rate) in [
                        ("transientRate", *transient_rate),
                        ("calibrationRate", *calibration_rate),
                        ("slowRate", *slow_rate),
                        ("flapRate", *flap_rate),
                    ] {
                        if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                            return invalid(format!("faults event: {label} {rate} outside [0, 1]"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the scenario exercises the fault-tolerance machinery at all:
    /// any `faults` event, breakers, or a tenant with a retry policy or
    /// deadline. Chaos-free scenarios keep their reports (and JSON) exactly
    /// as before.
    pub fn has_chaos(&self) -> bool {
        self.breakers.is_some()
            || self
                .events
                .iter()
                .any(|e| matches!(e, ScenarioEvent::Faults { .. }))
            || self
                .tenants
                .iter()
                .any(|t| t.retry.is_some() || t.deadline_ms.is_some())
    }

    /// Parse a scenario from its YAML document. See the module docs for the
    /// schema. The parsed scenario is also [`Scenario::validate`]d.
    ///
    /// # Errors
    ///
    /// Returns [`LoadgenError::ScenarioParse`] (with a line number) on
    /// malformed documents and [`LoadgenError::InvalidScenario`] on semantic
    /// violations.
    pub fn from_yaml(text: &str) -> Result<Self, LoadgenError> {
        let mut top = Fields::new("field", 0);
        let mut section: Option<&str> = None;
        let mut items: Vec<(&str, Fields<'_>)> = Vec::new();
        // Whether the last item is still open: a section header closes it,
        // and fields after a header with no item yet are top-level scalars.
        let mut in_item = false;
        for line in reader::lines(text) {
            let (key, value) = line.key_value(':')?;
            // Inline ` # comment`s are a rule of this format only: job YAML
            // and `backend.spec` values keep their `#`.
            let value = reader::strip_inline_comment(value).trim_end();
            if line.item {
                let section = section.ok_or_else(|| {
                    line.err(format!("list item '- {}' outside a section", line.text))
                })?;
                let mut item = Fields::new("item field", line.no);
                item.insert(key, value, line.no)?;
                items.push((section, item));
                in_item = true;
            } else if value.is_empty() {
                section = Some(match key {
                    "fleet" | "tenants" | "events" => key,
                    other => return Err(line.err(format!("unknown section '{other}'")).into()),
                });
                in_item = false;
            } else {
                let fields = match items.last_mut() {
                    Some((_, item)) if in_item => item,
                    _ => &mut top,
                };
                fields.insert(key, value, line.no)?;
            }
        }

        let seed = top.or("seed", 0)?;
        let breakers_on = top.choice("breakers", "breakers", &[("on", true), ("off", false)])?;
        let breakers = if breakers_on == Some(true) {
            let defaults = BreakerConfig::default();
            Some(BreakerConfig {
                consecutive_failures: top
                    .or("breakerConsecutiveFailures", defaults.consecutive_failures)?,
                failure_rate: top.or("breakerFailureRate", defaults.failure_rate)?,
                window: top.or("breakerWindow", defaults.window)?,
                open_ticks: top.or("breakerOpenMs", 5000)?,
                probe_jobs: top.or("breakerProbeJobs", defaults.probe_jobs)?,
            })
        } else {
            // Thresholds without `breakers: on` are rejected instead of
            // silently inert.
            top.forbid(
                &[
                    "breakerConsecutiveFailures",
                    "breakerFailureRate",
                    "breakerWindow",
                    "breakerOpenMs",
                    "breakerProbeJobs",
                ],
                "breaker thresholds require 'breakers: on'",
            )?;
            None
        };
        let mut scenario = Scenario {
            name: top.or("scenario", "unnamed".to_string())?,
            seed,
            duration_ms: top.or("durationMs", 0)?,
            max_jobs: top.or("maxJobs", 0)?,
            service_base_us: top.or("serviceBaseUs", 20_000)?,
            service_per_shot_us: top.or("servicePerShotUs", 400)?,
            canary_shots: top.or("canaryShots", 32)?,
            fault_seed: top.or("faultSeed", seed)?,
            breakers,
            fleet: Vec::new(),
            tenants: Vec::new(),
            events: Vec::new(),
        };
        top.finish("field")?;
        for (section, item) in items {
            match section {
                "fleet" => scenario.fleet.push(read_device(item)?),
                "tenants" => scenario.tenants.push(read_tenant(item)?),
                _ => scenario.events.push(read_event(item)?),
            }
        }
        scenario.validate()?;
        Ok(scenario)
    }
}

fn read_device(mut item: Fields<'_>) -> Result<DeviceSpec, SpecError> {
    let device = DeviceSpec {
        name: item.req("device")?,
        topology: item
            .choice(
                "topology",
                "topology",
                &[
                    ("line", TopologyKind::Line),
                    ("ring", TopologyKind::Ring),
                    ("grid", TopologyKind::Grid),
                    ("tree", TopologyKind::Tree),
                    ("star", TopologyKind::Star),
                    ("full", TopologyKind::Full),
                ],
            )?
            .unwrap_or(TopologyKind::Line),
        qubits: item.req("qubits")?,
        single_qubit_error: item.or("singleQubitError", 0.001)?,
        two_qubit_error: item.or("twoQubitError", 0.01)?,
        readout_error: item.or("readoutError", 0.02)?,
        speed: item.or("speed", 1.0)?,
    };
    item.finish("device field")?;
    Ok(device)
}

#[derive(Clone, Copy)]
enum ArrivalKind {
    Poisson,
    Bursty,
    Diurnal,
}

fn read_tenant(mut item: Fields<'_>) -> Result<TenantSpec, LoadgenError> {
    let name: String = item.req("tenant")?;
    let target = item.or("target", 0.9)?;
    let strategy = item
        .choice(
            "strategy",
            "strategy",
            &[
                ("fidelity", TenantStrategy::Fidelity { target }),
                ("weighted", TenantStrategy::Weighted { target }),
                ("min_queue", TenantStrategy::MinQueue),
                ("topology", TenantStrategy::Topology),
            ],
        )?
        .ok_or_else(|| item.missing("strategy"))?;
    let circuit = item
        .choice(
            "circuit",
            "circuit",
            &[
                ("bv", WorkloadCircuit::Bv),
                ("ghz", WorkloadCircuit::Ghz),
                ("grover", WorkloadCircuit::Grover),
                ("random_clifford", WorkloadCircuit::RandomClifford),
            ],
        )?
        .unwrap_or(WorkloadCircuit::Bv);
    let rate = item.req("ratePerSec")?;
    let arrival_kind = item.choice(
        "arrival",
        "arrival",
        &[
            ("poisson", ArrivalKind::Poisson),
            ("bursty", ArrivalKind::Bursty),
            ("diurnal", ArrivalKind::Diurnal),
        ],
    )?;
    let arrival = match arrival_kind.unwrap_or(ArrivalKind::Poisson) {
        ArrivalKind::Poisson => ArrivalProcess::Poisson { rate_per_sec: rate },
        ArrivalKind::Bursty => ArrivalProcess::Bursty {
            base_rate_per_sec: rate,
            burst_multiplier: item.or("burstMultiplier", 8.0)?,
            mean_burst_ms: item.or("meanBurstMs", 1000)?,
            mean_idle_ms: item.or("meanIdleMs", 4000)?,
        },
        ArrivalKind::Diurnal => ArrivalProcess::Diurnal {
            base_rate_per_sec: rate,
            amplitude: item.or("amplitude", 0.8)?,
            period_ms: item.or("periodMs", 20000)?,
        },
    };
    let retry = match item.opt("retryMaxAttempts")? {
        Some(max_attempts) => {
            let delay: u64 = item.or("retryDelayMs", 1000)?;
            let max = item.or("retryMaxDelayMs", delay.saturating_mul(8))?;
            // Checked here, for either backoff: `fixed` keeps no cap to
            // check later.
            if max < delay {
                return Err(LoadgenError::InvalidScenario(format!(
                    "tenant '{name}': retryMaxDelayMs {max} is below retryDelayMs {delay}"
                )));
            }
            let exponential = item.choice(
                "retryBackoff",
                "retryBackoff",
                &[("fixed", false), ("exponential", true)],
            )?;
            let backoff = if exponential == Some(true) {
                BackoffPolicy::Exponential {
                    base: delay,
                    max,
                    jitter: false,
                }
            } else {
                BackoffPolicy::Fixed { delay }
            };
            Some(RetryPolicy {
                max_attempts,
                backoff,
                retry_on: RetryOn::all(),
            })
        }
        None => {
            // Stray retry knobs without the policy itself would be silently
            // inert; reject them like any other field mistake.
            item.forbid(
                &["retryBackoff", "retryDelayMs", "retryMaxDelayMs"],
                "requires 'retryMaxAttempts'",
            )?;
            None
        }
    };
    let tenant = TenantSpec {
        name,
        strategy,
        circuit,
        qubits: item.req("qubits")?,
        shots: item.or("shots", 64)?,
        arrival,
        retry,
        deadline_ms: item.opt("deadlineMs")?,
    };
    item.finish("tenant field")?;
    Ok(tenant)
}

#[derive(Clone, Copy)]
enum EventKind {
    Drift,
    Outage,
    Faults,
}

fn read_event(mut item: Fields<'_>) -> Result<ScenarioEvent, SpecError> {
    let at_ms = item.req("atMs")?;
    let kind = item
        .choice(
            "kind",
            "event kind",
            &[
                ("drift", EventKind::Drift),
                ("outage", EventKind::Outage),
                ("faults", EventKind::Faults),
            ],
        )?
        .ok_or_else(|| item.missing("kind"))?;
    let (event, what) = match kind {
        EventKind::Drift => (
            ScenarioEvent::Drift {
                at_ms,
                device: item.req("device")?,
                error_factor: item.req("errorFactor")?,
            },
            "drift event field",
        ),
        EventKind::Outage => (
            ScenarioEvent::Outage {
                at_ms,
                device: item.req("device")?,
                down_ms: item.req("downMs")?,
            },
            "outage event field",
        ),
        // Fleet-wide: no `device` field.
        EventKind::Faults => (
            ScenarioEvent::Faults {
                at_ms,
                transient_rate: item.or("transientRate", 0.0)?,
                calibration_rate: item.or("calibrationRate", 0.0)?,
                slow_rate: item.or("slowRate", 0.0)?,
                flap_rate: item.or("flapRate", 0.0)?,
            },
            "faults event field",
        ),
    };
    item.finish(what)?;
    Ok(event)
}

impl From<SpecError> for LoadgenError {
    fn from(err: SpecError) -> Self {
        LoadgenError::ScenarioParse {
            line: err.line,
            message: err.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
scenario: unit
seed: 9
durationMs: 5000
maxJobs: 100
fleet:
  - device: alpha
    topology: line
    qubits: 8
  - device: beta
    topology: ring
    qubits: 8
    twoQubitError: 0.05
    speed: 2.0
tenants:
  - tenant: alice
    strategy: fidelity
    target: 0.85
    circuit: bv
    qubits: 4
    shots: 32
    arrival: poisson
    ratePerSec: 10.0
  - tenant: bob
    strategy: min_queue
    circuit: ghz
    qubits: 4
    arrival: bursty
    ratePerSec: 4.0
    burstMultiplier: 6.0
events:
  - atMs: 2000
    kind: drift
    device: alpha
    errorFactor: 5.0
  - atMs: 3000
    kind: outage
    device: beta
    downMs: 1000
";

    #[test]
    fn sample_scenario_parses() {
        let scenario = Scenario::from_yaml(SAMPLE).unwrap();
        assert_eq!(scenario.name, "unit");
        assert_eq!(scenario.seed, 9);
        assert_eq!(scenario.fleet.len(), 2);
        assert_eq!(scenario.fleet[1].topology, TopologyKind::Ring);
        assert!((scenario.fleet[1].speed - 2.0).abs() < 1e-12);
        assert_eq!(scenario.tenants.len(), 2);
        assert!(matches!(
            scenario.tenants[0].strategy,
            TenantStrategy::Fidelity { target } if (target - 0.85).abs() < 1e-12
        ));
        assert!(matches!(
            scenario.tenants[1].arrival,
            ArrivalProcess::Bursty { burst_multiplier, .. } if (burst_multiplier - 6.0).abs() < 1e-12
        ));
        assert_eq!(scenario.events.len(), 2);
        assert_eq!(scenario.events[0].at_ms(), 2000);
    }

    #[test]
    fn device_specs_materialize_backends() {
        let scenario = Scenario::from_yaml(SAMPLE).unwrap();
        let alpha = scenario.fleet[0].backend();
        assert_eq!(alpha.name(), "alpha");
        assert_eq!(alpha.num_qubits(), 8);
        let beta = scenario.fleet[1].backend();
        assert!((beta.avg_two_qubit_error() - 0.05).abs() < 1e-12);
        // Every topology family builds.
        for (kind, qubits) in [
            (TopologyKind::Line, 7),
            (TopologyKind::Ring, 7),
            (TopologyKind::Grid, 12),
            (TopologyKind::Grid, 7), // prime degrades to 1×7
            (TopologyKind::Tree, 7),
            (TopologyKind::Star, 7),
            (TopologyKind::Full, 5),
        ] {
            let spec = DeviceSpec {
                name: "d".into(),
                topology: kind,
                qubits,
                single_qubit_error: 0.001,
                two_qubit_error: 0.01,
                readout_error: 0.0,
                speed: 1.0,
            };
            assert_eq!(spec.backend().num_qubits(), qubits, "{kind:?}");
        }
    }

    #[test]
    fn tenant_circuits_vary_deterministically_with_index() {
        let tenant = TenantSpec {
            name: "t".into(),
            strategy: TenantStrategy::MinQueue,
            circuit: WorkloadCircuit::Bv,
            qubits: 5,
            shots: 16,
            arrival: ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            retry: None,
            deadline_ms: None,
        };
        let a = tenant.circuit_for(3).unwrap();
        let b = tenant.circuit_for(3).unwrap();
        let c = tenant.circuit_for(4).unwrap();
        assert_eq!(
            qrio_circuit::qasm::to_qasm(&a),
            qrio_circuit::qasm::to_qasm(&b)
        );
        assert_ne!(
            qrio_circuit::qasm::to_qasm(&a),
            qrio_circuit::qasm::to_qasm(&c)
        );
    }

    const CHAOS_SAMPLE: &str = "\
scenario: chaos-unit
seed: 11
durationMs: 5000
faultSeed: 77
breakers: on
breakerConsecutiveFailures: 2
breakerOpenMs: 1500
fleet:
  - device: alpha
    qubits: 8
tenants:
  - tenant: alice
    strategy: min_queue
    circuit: ghz
    qubits: 4
    ratePerSec: 5.0
    retryMaxAttempts: 4
    retryBackoff: exponential
    retryDelayMs: 200
    retryMaxDelayMs: 900
    deadlineMs: 4000
events:
  - atMs: 1000
    kind: faults
    transientRate: 0.3
    flapRate: 0.1
  - atMs: 3000
    kind: faults
";

    #[test]
    fn chaos_scenario_parses_with_retries_breakers_and_fault_events() {
        let scenario = Scenario::from_yaml(CHAOS_SAMPLE).unwrap();
        assert_eq!(scenario.fault_seed, 77);
        let breakers = scenario.breakers.expect("breakers: on");
        assert_eq!(breakers.consecutive_failures, 2);
        assert_eq!(breakers.open_ticks, 1500);
        assert_eq!(breakers.probe_jobs, BreakerConfig::default().probe_jobs);
        let tenant = &scenario.tenants[0];
        let retry = tenant.retry.expect("retry policy");
        assert_eq!(retry.max_attempts, 4);
        assert_eq!(
            retry.backoff,
            BackoffPolicy::Exponential {
                base: 200,
                max: 900,
                jitter: false
            }
        );
        assert_eq!(tenant.deadline_ms, Some(4000));
        assert!(matches!(
            scenario.events[0],
            ScenarioEvent::Faults { transient_rate, flap_rate, calibration_rate, .. }
                if (transient_rate - 0.3).abs() < 1e-12
                    && (flap_rate - 0.1).abs() < 1e-12
                    && calibration_rate == 0.0
        ));
        // The second event turns chaos back off: all rates default to zero.
        assert!(matches!(
            scenario.events[1],
            ScenarioEvent::Faults {
                transient_rate: 0.0,
                flap_rate: 0.0,
                ..
            }
        ));
        assert!(scenario.has_chaos());
        assert!(!Scenario::from_yaml(SAMPLE).unwrap().has_chaos());
        // `faultSeed` defaults to the master seed when absent.
        assert_eq!(Scenario::from_yaml(SAMPLE).unwrap().fault_seed, 9);
    }

    #[test]
    fn tenant_backoff_schedules_are_deterministic() {
        let retry = |knobs: &str| {
            let doc = CHAOS_SAMPLE.replace(
                "    retryBackoff: exponential\n    retryDelayMs: 200\n    retryMaxDelayMs: 900\n",
                knobs,
            );
            Scenario::from_yaml(&doc).unwrap().tenants[0]
                .retry
                .expect("retry policy")
        };
        let backoff_ms = |spec: RetryPolicy, attempt| spec.backoff.delay(0, "", attempt);
        let fixed = retry("    retryDelayMs: 250\n    retryMaxDelayMs: 2000\n");
        assert_eq!(fixed.backoff, BackoffPolicy::Fixed { delay: 250 });
        assert_eq!(backoff_ms(fixed, 1), 250);
        assert_eq!(backoff_ms(fixed, 7), 250);
        let expo = retry(
            "    retryBackoff: exponential\n    retryDelayMs: 100\n    retryMaxDelayMs: 500\n",
        );
        assert_eq!(
            (1..=4).map(|a| backoff_ms(expo, a)).collect::<Vec<_>>(),
            vec![100, 200, 400, 500]
        );
        // Saturates instead of overflowing on absurd attempt counts.
        assert_eq!(backoff_ms(expo, u32::MAX), 500);
        // The exponential cap defaults to 8 x the first delay.
        let capped = retry("    retryBackoff: exponential\n    retryDelayMs: 100\n");
        assert_eq!(backoff_ms(capped, 9), 800);
    }

    /// The `u32` counts are read as `u32`: a value past the type's range is
    /// an error naming the field and its line, not a silent wrap to `0`
    /// ("disables the trigger") or `1`.
    #[test]
    fn counts_beyond_u32_are_rejected_not_wrapped() {
        let cases = [
            (
                "breakerConsecutiveFailures: 2",
                "breakerConsecutiveFailures: 4294967296",
            ),
            (
                "breakerOpenMs: 1500",
                "breakerOpenMs: 1500\nbreakerWindow: 4294967297",
            ),
            (
                "breakerOpenMs: 1500",
                "breakerOpenMs: 1500\nbreakerProbeJobs: 4294967296",
            ),
            ("retryMaxAttempts: 4", "retryMaxAttempts: 4294967297"),
        ];
        for (from, to) in cases {
            let doc = CHAOS_SAMPLE.replace(from, to);
            let (field, _) = to.rsplit_once(": ").unwrap();
            let field = field.rsplit('\n').next().unwrap();
            let expected_line = 1 + doc[..doc.find(field).unwrap()].matches('\n').count();
            match Scenario::from_yaml(&doc) {
                Err(LoadgenError::ScenarioParse { line, message }) => {
                    assert_eq!(line, expected_line, "{field}");
                    assert!(
                        message.contains(field) && message.contains("bad integer"),
                        "{field}: {message}"
                    );
                }
                other => panic!("{field} past u32 must be rejected, got {other:?}"),
            }
        }
        // The largest representable count still parses.
        let doc = CHAOS_SAMPLE.replace("retryMaxAttempts: 4", "retryMaxAttempts: 4294967295");
        let retry = Scenario::from_yaml(&doc).unwrap().tenants[0].retry.unwrap();
        assert_eq!(retry.max_attempts, u32::MAX);
    }

    #[test]
    fn chaos_schema_mistakes_are_rejected() {
        let parse_cases: &[(&str, &str)] = &[
            (
                "breakerOpenMs: 10\n",
                "breaker thresholds require 'breakers: on'",
            ),
            ("breakers: maybe\n", "(on|off)"),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\n    retryDelayMs: 50\n",
                "requires 'retryMaxAttempts'",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\n    retryMaxAttempts: 2\n    retryBackoff: quadratic\n",
                "unknown retryBackoff",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\nevents:\n  - atMs: 1\n    kind: faults\n    device: a\n",
                "unknown faults event field 'device'",
            ),
        ];
        for (doc, needle) in parse_cases {
            match Scenario::from_yaml(doc) {
                Err(LoadgenError::ScenarioParse { message, .. }) => assert!(
                    message.contains(needle),
                    "{doc:?}: expected '{needle}' in '{message}'"
                ),
                other => panic!("{doc:?} must fail to parse, got {other:?}"),
            }
        }
        let base = "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\n";
        let semantic_cases: &[(String, &str)] = &[
            (
                base.replace("ratePerSec: 1.0", "ratePerSec: 1.0\n    retryMaxAttempts: 0"),
                "retryMaxAttempts must be >= 1",
            ),
            (
                base.replace(
                    "ratePerSec: 1.0",
                    "ratePerSec: 1.0\n    retryMaxAttempts: 2\n    retryDelayMs: 100\n    retryMaxDelayMs: 10",
                ),
                "below retryDelayMs",
            ),
            (
                base.replace("ratePerSec: 1.0", "ratePerSec: 1.0\n    deadlineMs: 0"),
                "deadlineMs must be >= 1",
            ),
            (
                format!("{base}events:\n  - atMs: 1\n    kind: faults\n    transientRate: 1.5\n"),
                "outside [0, 1]",
            ),
            (
                format!("breakers: on\nbreakerWindow: 0\n{base}"),
                "breakerWindow must be >= 1",
            ),
        ];
        for (doc, needle) in semantic_cases {
            match Scenario::from_yaml(doc) {
                Err(LoadgenError::InvalidScenario(message)) => assert!(
                    message.contains(needle),
                    "{doc:?}: expected '{needle}' in '{message}'"
                ),
                other => panic!("{doc:?} must fail validation, got {other:?}"),
            }
        }
    }

    #[test]
    fn inline_comments_strip_only_after_whitespace() {
        // The four unit cases live with `reader::strip_inline_comment`. End
        // to end: a device name containing '#' survives parsing and can be
        // referenced by events.
        let scenario = Scenario::from_yaml(
            "scenario: hash\nseed: 1\ndurationMs: 10\n\
             fleet:\n  - device: qpu#1\n    qubits: 4  # four qubits\n\
             tenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\n\
             events:\n  - atMs: 1\n    kind: drift\n    device: qpu#1\n    errorFactor: 2.0\n",
        )
        .unwrap();
        assert_eq!(scenario.fleet[0].name, "qpu#1");
        assert_eq!(scenario.fleet[0].qubits, 4);
    }

    #[test]
    fn malformed_documents_surface_line_numbered_errors() {
        let cases: &[(&str, &str)] = &[
            ("nonsense\n", "unrecognised line"),
            ("unknownField: 3\n", "unknown field"),
            ("widgets:\n  - device: x\n", "unknown section"),
            ("- device: x\n", "outside a section"),
            ("seed: notanumber\n", "bad integer"),
            (
                "fleet:\n  - device: a\n    qubits: 4\n    qubits: 5\n",
                "duplicate item field",
            ),
            ("fleet:\n  - topology: line\n", "missing field 'device'"),
            (
                "fleet:\n  - device: a\n    topology: moebius\n    qubits: 4\n",
                "unknown topology",
            ),
            ("seed: 1\nseed: 2\n", "duplicate field 'seed'"),
            (
                "fleet:\n  - device: a\n    qubits: 4\n    sped: 2.0\n",
                "unknown device field 'sped'",
            ),
            (
                // A top-level scalar indented into a list item is rejected,
                // not silently swallowed.
                "fleet:\n  - device: a\n    qubits: 4\n    seed: 99\n",
                "unknown device field 'seed'",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\n    amplitud: 0.9\n",
                "unknown tenant field 'amplitud'",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\nevents:\n  - atMs: 1\n    kind: drift\n    device: a\n    errorFactor: 2.0\n    downMs: 5\n",
                "unknown drift event field 'downMs'",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: psychic\n    qubits: 2\n    ratePerSec: 1.0\n",
                "unknown strategy",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    circuit: mystery\n    qubits: 2\n    ratePerSec: 1.0\n",
                "unknown circuit",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    arrival: psychic\n    ratePerSec: 1.0\n",
                "unknown arrival",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\nevents:\n  - atMs: 1\n    kind: meteor\n    device: a\n",
                "unknown event kind",
            ),
        ];
        for (doc, needle) in cases {
            match Scenario::from_yaml(doc) {
                Err(LoadgenError::ScenarioParse { message, .. }) => assert!(
                    message.contains(needle),
                    "{doc:?}: expected '{needle}' in '{message}'"
                ),
                other => panic!("{doc:?} must fail with a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn semantic_violations_surface_invalid_scenario() {
        let cases: &[(&str, &str)] = &[
            ("durationMs: 10\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\n", "fleet is empty"),
            ("durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\n", "no tenants"),
            (
                "fleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\n",
                "durationMs",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\n",
                "duplicate device",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 9\n    ratePerSec: 1.0\n",
                "largest device",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 0.0\n",
                "arrival rate",
            ),
            (
                "durationMs: 10\nfleet:\n  - device: a\n    qubits: 4\ntenants:\n  - tenant: t\n    strategy: min_queue\n    qubits: 2\n    ratePerSec: 1.0\nevents:\n  - atMs: 1\n    kind: drift\n    device: ghost\n    errorFactor: 2.0\n",
                "unknown device",
            ),
        ];
        for (doc, needle) in cases {
            match Scenario::from_yaml(doc) {
                Err(LoadgenError::InvalidScenario(message)) => assert!(
                    message.contains(needle),
                    "{doc:?}: expected '{needle}' in '{message}'"
                ),
                other => panic!("{doc:?} must fail validation, got {other:?}"),
            }
        }
    }
}
