//! The QRIO Meta Server: backend store, per-job metadata, device telemetry
//! and score requests.
//!
//! The meta server holds a copy of every vendor backend file, the metadata the
//! visualizer uploads for each job (Table 1) and the latest load telemetry the
//! control plane reports per device. When the scheduler asks for a score of a
//! job against a device, the server resolves the job's strategy **by name**
//! in its [`StrategyRegistry`] and dispatches to that plugin (§3.4) —
//! fidelity and topology ranking are just the built-in entries; user-defined
//! strategies register through [`MetaServer::register_strategy`]. Ordering
//! the scores is the server's job too ([`MetaServer::rank`]): it is written
//! here once, for every caller.
//!
//! A score from a strategy whose [`RankingStrategy::is_cacheable`] is true
//! is memoized by what it depends on — the device and the job's encoded
//! [`JobRecord`] (strategy name, parameters, circuit) — not by the job's
//! name: jobs that upload the same content share one canary or embedding
//! search per device, and re-registering a device drops that device's
//! entries, so the memo holds at most one entry per distinct content and
//! device.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use qrio_backend::{spec as backend_spec, Backend};
use qrio_bytes::{codec_struct, to_bytes, ByteReader, ByteWriter, CodecError, Decode, Encode};
use qrio_circuit::{qasm, Circuit};
use qrio_cluster::{StrategyParams, StrategySpec};

use crate::builtin::builtin_registry;
use crate::error::MetaError;
use crate::fidelity_ranking::FidelityRankingConfig;
use crate::strategy::{DeviceTelemetry, JobContext, RankingStrategy, Score, StrategyRegistry};

/// Metadata stored per job: the strategy reference from the job spec plus the
/// user's circuit, when one was uploaded (Table 1 generalized to arbitrary
/// strategies).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    strategy: StrategySpec,
    circuit: Option<Circuit>,
}

codec_struct!(JobRecord { strategy, circuit });

impl JobRecord {
    /// Name of the ranking strategy the job selected.
    pub fn strategy_name(&self) -> &str {
        &self.strategy.name
    }

    /// The strategy parameters uploaded with the job.
    pub fn params(&self) -> &StrategyParams {
        &self.strategy.params
    }

    /// The uploaded circuit, when the strategy needs one.
    pub fn circuit(&self) -> Option<&Circuit> {
        self.circuit.as_ref()
    }
}

/// Memoized scores of cacheable strategies, per device and then per encoded
/// [`JobRecord`], plus hit/miss counters. [`MetaServer::register_backend`]
/// drops a device's map, so every entry was computed against the device's
/// current calibration.
#[derive(Debug, Clone, Default)]
struct ScoreCache {
    entries: BTreeMap<String, BTreeMap<Vec<u8>, Score>>,
    hits: u64,
    misses: u64,
}

/// A snapshot of the memoized-score cache counters, exported for operational
/// dashboards and workload reports (e.g. `BENCH_cloud.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to recompute the score.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What [`MetaServer::rank`] found for one job over a set of devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    /// The devices that were scored, best (lowest score) first.
    pub scored: Vec<Score>,
    /// The devices that could not be scored, each with the error.
    pub skipped: Vec<(String, MetaError)>,
}

/// The QRIO Meta Server.
#[derive(Debug)]
pub struct MetaServer {
    backends: BTreeMap<String, Backend>,
    jobs: BTreeMap<String, JobRecord>,
    telemetry: BTreeMap<String, DeviceTelemetry>,
    registry: StrategyRegistry,
    fidelity_config: FidelityRankingConfig,
    /// Calibration revision per device: bumped on every (re-)registration.
    backend_revisions: BTreeMap<String, u64>,
    /// Score memoization for strategies whose
    /// [`RankingStrategy::is_cacheable`] is true — the canary simulation and
    /// the VF2 embedding search, which `rank` would otherwise re-run for
    /// every job and device on every scheduling cycle.
    score_cache: Mutex<ScoreCache>,
}

impl Default for MetaServer {
    fn default() -> Self {
        MetaServer::with_config(FidelityRankingConfig::default())
    }
}

impl Clone for MetaServer {
    fn clone(&self) -> Self {
        MetaServer {
            backends: self.backends.clone(),
            jobs: self.jobs.clone(),
            telemetry: self.telemetry.clone(),
            registry: self.registry.clone(),
            fidelity_config: self.fidelity_config,
            backend_revisions: self.backend_revisions.clone(),
            score_cache: Mutex::new(self.score_cache.lock().expect("cache poisoned").clone()),
        }
    }
}

// The stored form: the fidelity configuration, every backend with its
// calibration revision, the job records and the latest telemetry.
//
// The strategy registry is deliberately **not** stored: strategy
// implementations are arbitrary Rust values and cannot be serialized.
// Decoding starts from the built-in registry; user-defined strategies must be
// re-registered by the caller before any scoring happens (the orchestrator's
// recovery hook does exactly that). The memoized-score cache is not stored
// either — it is a pure performance artifact and every entry is
// deterministically recomputable — so a decoded server starts cold.
impl Encode for MetaServer {
    fn encode(&self, w: &mut ByteWriter) {
        self.fidelity_config.encode(w);
        w.put_usize(self.backends.len());
        for (name, backend) in &self.backends {
            backend.encode(w);
            let revision = self.backend_revisions.get(name).copied().unwrap_or(0);
            revision.encode(w);
        }
        self.jobs.encode(w);
        self.telemetry.encode(w);
    }
}

// Everything is restored verbatim: revision counters are **not** re-bumped
// and job records are **not** re-validated (they were validated at upload).
impl Decode for MetaServer {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut server = MetaServer::with_config(Decode::decode(r)?);
        for (backend, revision) in Vec::<(Backend, u64)>::decode(r)? {
            let name = backend.name().to_string();
            server.backend_revisions.insert(name.clone(), revision);
            server.backends.insert(name, backend);
        }
        server.jobs = Decode::decode(r)?;
        server.telemetry = Decode::decode(r)?;
        Ok(server)
    }
}

impl MetaServer {
    /// An empty meta server with default scoring configuration and the four
    /// built-in strategies registered.
    pub fn new() -> Self {
        MetaServer::default()
    }

    /// An empty meta server whose built-in strategies use a custom
    /// fidelity-ranking configuration.
    pub fn with_config(fidelity_config: FidelityRankingConfig) -> Self {
        MetaServer {
            backends: BTreeMap::new(),
            jobs: BTreeMap::new(),
            telemetry: BTreeMap::new(),
            registry: builtin_registry(fidelity_config),
            fidelity_config,
            backend_revisions: BTreeMap::new(),
            score_cache: Mutex::new(ScoreCache::default()),
        }
    }

    /// The fidelity-ranking configuration the built-in strategies use.
    pub fn fidelity_config(&self) -> &FidelityRankingConfig {
        &self.fidelity_config
    }

    // --- Strategy registry ---------------------------------------------------------------

    /// Register a user-defined ranking strategy under its own name.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::DuplicateStrategy`] when the name is taken.
    pub fn register_strategy(
        &mut self,
        strategy: Arc<dyn RankingStrategy>,
    ) -> Result<(), MetaError> {
        self.registry.register(strategy)
    }

    /// The strategy registry (built-ins plus user registrations).
    pub fn registry(&self) -> &StrategyRegistry {
        &self.registry
    }

    // --- Backend store -------------------------------------------------------------------

    /// Register a vendor backend (a copy of the node's backend file, §3.1).
    ///
    /// Re-registering a device bumps its calibration revision and drops
    /// every score memoized against the old calibration.
    pub fn register_backend(&mut self, backend: Backend) {
        let name = backend.name().to_string();
        *self.backend_revisions.entry(name.clone()).or_insert(0) += 1;
        // Every update of the memo is one insert or one count, so a
        // poisoned memo is still a valid one.
        self.score_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .remove(&name);
        self.backends.insert(name, backend);
    }

    /// Register a backend from its `backend.spec` text.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec does not parse.
    pub fn register_backend_spec(&mut self, spec_text: &str) -> Result<(), MetaError> {
        let backend = backend_spec::from_spec(spec_text)
            .map_err(|e| MetaError::InvalidMetadata(format!("bad backend spec: {e}")))?;
        self.register_backend(backend);
        Ok(())
    }

    /// Look up a registered backend.
    pub fn backend(&self, device: &str) -> Option<&Backend> {
        self.backends.get(device)
    }

    /// Names of all registered backends.
    pub fn device_names(&self) -> Vec<&str> {
        self.backends.keys().map(String::as_str).collect()
    }

    /// Number of registered backends.
    pub fn device_count(&self) -> usize {
        self.backends.len()
    }

    // --- Telemetry -----------------------------------------------------------------------

    /// Report the latest load telemetry for a device (the depth of its queue
    /// and its utilization). Telemetry-aware
    /// strategies read these values when scoring.
    pub fn update_telemetry(&mut self, device: impl Into<String>, telemetry: DeviceTelemetry) {
        self.telemetry.insert(device.into(), telemetry);
    }

    /// The latest telemetry reported for a device, if any.
    pub fn telemetry_for(&self, device: &str) -> Option<&DeviceTelemetry> {
        self.telemetry.get(device)
    }

    /// Refresh telemetry for a whole fleet in one call — the shape the
    /// orchestrator's per-scheduling-cycle refresh arrives in (one entry per
    /// node: its device queue's depth and its utilization).
    pub fn update_telemetry_bulk(
        &mut self,
        reports: impl IntoIterator<Item = (String, DeviceTelemetry)>,
    ) {
        for (device, telemetry) in reports {
            self.telemetry.insert(device, telemetry);
        }
    }

    // --- Job metadata (Table 1, generalized) ---------------------------------------------

    /// Upload job metadata: the strategy reference (name + typed params) plus
    /// the user's QASM circuit when the strategy needs one. The strategy is
    /// resolved in the registry and its `validate` hook runs immediately, so
    /// malformed uploads fail here rather than at scheduling time.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::UnknownStrategy`] for unregistered names, a parse
    /// error for bad QASM, or whatever the strategy's validation rejects.
    pub fn upload_job_metadata(
        &mut self,
        job_name: impl Into<String>,
        strategy: &StrategySpec,
        qasm_text: Option<&str>,
    ) -> Result<(), MetaError> {
        let circuit = match qasm_text {
            Some(text) => Some(qasm::parse_qasm(text)?),
            None => None,
        };
        let plugin = self.registry.resolve(&strategy.name)?;
        plugin.validate(&strategy.params, circuit.as_ref())?;
        let record = JobRecord {
            strategy: strategy.clone(),
            circuit,
        };
        self.jobs.insert(job_name.into(), record);
        Ok(())
    }

    /// The metadata stored for a job, if any.
    pub fn job_metadata(&self, job_name: &str) -> Option<&JobRecord> {
        self.jobs.get(job_name)
    }

    /// Remove the metadata stored for a job, returning it when it existed.
    ///
    /// This is the cleanup hook the orchestrator calls when a job reaches a
    /// terminal failure (unschedulable, execution error, cancelled): the
    /// upload is garbage-collected instead of accumulating forever. The
    /// memoized scores of its content stay: other jobs may share them.
    pub fn remove_job_metadata(&mut self, job_name: &str) -> Option<JobRecord> {
        self.jobs.remove(job_name)
    }

    /// Number of jobs with metadata currently stored.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Names of all jobs with stored metadata, in sorted order — the
    /// deterministic listing bulk operations and leak checks iterate.
    pub fn job_names(&self) -> Vec<&str> {
        self.jobs.keys().map(String::as_str).collect()
    }

    // --- Scoring -------------------------------------------------------------------------

    /// Score `job_name` against `device` (the request body of §3.4): resolve
    /// the job's strategy by name and dispatch to the plugin, handing it the
    /// job's parameters, circuit and the device's latest telemetry.
    ///
    /// For strategies whose [`RankingStrategy::is_cacheable`] is true the
    /// result is memoized per `(device, encoded JobRecord)`: the expensive
    /// evaluation (canary simulation, VF2 embedding search) runs once per
    /// distinct content and device calibration, whichever job asks.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown jobs, devices or strategies, or when the
    /// underlying strategy fails.
    pub fn score(&self, job_name: &str, device: &str) -> Result<Score, MetaError> {
        let record = self
            .jobs
            .get(job_name)
            .ok_or_else(|| MetaError::UnknownJob(job_name.to_string()))?;
        self.score_record(job_name, record, &mut None, device)
    }

    /// [`MetaServer::score`] of a looked-up record. `content` is the memo
    /// key's record half, encoded on the first cacheable lookup and kept by
    /// the caller, so a ranking encodes the record once for all devices.
    fn score_record(
        &self,
        job_name: &str,
        record: &JobRecord,
        content: &mut Option<Vec<u8>>,
        device: &str,
    ) -> Result<Score, MetaError> {
        let backend = self
            .backends
            .get(device)
            .ok_or_else(|| MetaError::UnknownDevice(device.to_string()))?;
        let strategy = self.registry.resolve(&record.strategy.name)?;
        let context = JobContext {
            job_name,
            params: &record.strategy.params,
            circuit: record.circuit.as_ref(),
            telemetry: self.telemetry.get(device),
        };
        if !strategy.is_cacheable() {
            return strategy.score(&context, backend);
        }
        let content = content.get_or_insert_with(|| to_bytes(record));
        {
            let mut cache = self.score_cache.lock().expect("cache poisoned");
            let cached = cache
                .entries
                .get(device)
                .and_then(|scores| scores.get(content.as_slice()))
                .cloned();
            if let Some(score) = cached {
                cache.hits += 1;
                return Ok(score);
            }
            cache.misses += 1;
        }
        // Compute outside the lock: cacheable strategies can be expensive.
        let score = strategy.score(&context, backend)?;
        self.score_cache
            .lock()
            .expect("cache poisoned")
            .entries
            .entry(device.to_string())
            .or_default()
            .insert(content.clone(), score.clone());
        Ok(score)
    }

    /// Cumulative `(hits, misses)` of the memoized-score cache, for tests and
    /// operational visibility.
    pub fn score_cache_stats(&self) -> (u64, u64) {
        let stats = self.cache_stats();
        (stats.hits, stats.misses)
    }

    /// A full snapshot of the memoized-score cache counters, including the
    /// resident entry count — what workload reports export as the strategy
    /// cache hit rate.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.score_cache.lock().expect("cache poisoned");
        CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            entries: cache.entries.values().map(BTreeMap::len).sum(),
        }
    }

    /// The score-and-sort stage of the scheduling cycle: score `job_name`
    /// against each of `devices`. In the returned [`Ranking`] the scored
    /// devices come best (lowest score) first — [`f64::total_cmp`], then
    /// device name, so the order never depends on the order of `devices` —
    /// and the others are listed with the error that skipped them.
    ///
    /// Per the [`RankingStrategy`] contract a strategy error means "this
    /// device cannot be evaluated" and skips the device; a score that is not
    /// finite cannot be ordered against the others and is skipped the same
    /// way, as [`MetaError::NonFiniteScore`].
    ///
    /// # Errors
    ///
    /// Job-level errors — [`MetaError::UnknownJob`],
    /// [`MetaError::UnknownStrategy`], [`MetaError::InvalidMetadata`]: every
    /// device would fail the same way — abort with that root cause.
    pub fn rank<'d>(
        &self,
        job_name: &str,
        devices: impl IntoIterator<Item = &'d str>,
    ) -> Result<Ranking, MetaError> {
        let record = self
            .jobs
            .get(job_name)
            .ok_or_else(|| MetaError::UnknownJob(job_name.to_string()))?;
        let mut content = None;
        let mut scored = Vec::new();
        let mut skipped = Vec::new();
        for device in devices {
            match self.score_record(job_name, record, &mut content, device) {
                Ok(mut score) if score.value.is_finite() => {
                    // The ranking is keyed by the device that was asked
                    // about, whatever name the strategy wrote into its answer.
                    if score.device != device {
                        score.device = device.to_string();
                    }
                    scored.push(score);
                }
                Ok(score) => skipped.push((
                    device.to_string(),
                    MetaError::NonFiniteScore {
                        device: device.to_string(),
                        score: score.value,
                    },
                )),
                Err(
                    err @ (MetaError::UnknownJob(_)
                    | MetaError::UnknownStrategy(_)
                    | MetaError::InvalidMetadata(_)),
                ) => return Err(err),
                Err(err) => skipped.push((device.to_string(), err)),
            }
        }
        scored.sort_by(|a, b| {
            a.value
                .total_cmp(&b.value)
                .then_with(|| a.device.cmp(&b.device))
        });
        Ok(Ranking { scored, skipped })
    }

    /// [`MetaServer::rank`] over every registered device, keeping the scored
    /// ones: best first, devices that cannot host the job left out.
    ///
    /// # Errors
    ///
    /// The job-level errors of [`MetaServer::rank`].
    pub fn score_all(&self, job_name: &str) -> Result<Vec<Score>, MetaError> {
        let devices = self.backends.keys().map(String::as_str);
        Ok(self.rank(job_name, devices)?.scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{RankingStrategy, Score};
    use qrio_backend::{spec, topology};
    use qrio_bytes::{from_bytes, to_bytes};
    use qrio_circuit::library;

    fn server_with_devices() -> MetaServer {
        let mut server = MetaServer::with_config(FidelityRankingConfig {
            shots: 128,
            seed: 3,
            shortfall_weight: 100.0,
        });
        server.register_backend(Backend::uniform("clean", topology::line(8), 0.0, 0.0));
        server.register_backend(Backend::uniform("noisy", topology::line(8), 0.05, 0.3));
        server.register_backend(Backend::uniform(
            "tree",
            topology::binary_tree(8),
            0.01,
            0.05,
        ));
        server
    }

    #[test]
    fn backend_registration_and_lookup() {
        let mut server = server_with_devices();
        assert_eq!(server.device_count(), 3);
        assert!(server.backend("clean").is_some());
        assert!(server.backend("missing").is_none());
        // Spec-based registration (the vendor path).
        let text = spec::to_spec(&Backend::uniform(
            "from-spec",
            topology::ring(4),
            0.01,
            0.02,
        ));
        server.register_backend_spec(&text).unwrap();
        assert!(server.backend("from-spec").is_some());
        assert!(server.register_backend_spec("garbage").is_err());
    }

    #[test]
    fn fidelity_scoring_dispatch() {
        let mut server = server_with_devices();
        let bv = library::bernstein_vazirani(5, 0b10110).unwrap();
        server
            .upload_job_metadata(
                "bv-job",
                &StrategySpec::fidelity(0.95),
                Some(&qrio_circuit::qasm::to_qasm(&bv)),
            )
            .unwrap();
        let record = server.job_metadata("bv-job").unwrap();
        assert_eq!(record.strategy_name(), "fidelity");
        assert_eq!(record.params().get_f64("target"), Some(0.95));
        assert!(record.circuit().is_some());
        let clean = server.score("bv-job", "clean").unwrap();
        let noisy = server.score("bv-job", "noisy").unwrap();
        assert!(clean.value < noisy.value);
        assert!(clean.detail("canary_fidelity").unwrap() > 0.9);
    }

    #[test]
    fn topology_scoring_dispatch() {
        // Fig. 9 style: devices differ only in topology, so the device whose
        // coupling map matches the requested tree must win.
        let mut server = MetaServer::new();
        server.register_backend(Backend::uniform(
            "eq-tree",
            topology::binary_tree(8),
            0.01,
            0.05,
        ));
        server.register_backend(Backend::uniform("eq-ring", topology::ring(8), 0.01, 0.05));
        server.register_backend(Backend::uniform("eq-line", topology::line(8), 0.01, 0.05));
        let request = StrategySpec::topology(&topology::binary_tree(8).edges(), 8);
        server
            .upload_job_metadata("topo-job", &request, None)
            .unwrap();
        assert_eq!(
            server.job_metadata("topo-job").unwrap().strategy_name(),
            "topology"
        );
        let ranked = server.score_all("topo-job").unwrap();
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].device, "eq-tree");
        for window in ranked.windows(2) {
            assert!(window[0].value <= window[1].value);
        }
    }

    #[test]
    fn generic_upload_dispatches_by_registry_name() {
        let mut server = server_with_devices();
        let bv = library::bernstein_vazirani(4, 0b1011).unwrap();
        let qasm_text = qrio_circuit::qasm::to_qasm(&bv);
        // The weighted strategy through the fully-generic path.
        server
            .upload_job_metadata(
                "weighted-job",
                &StrategySpec::weighted(0.9, 1.0, 5.0, 1.0),
                Some(&qasm_text),
            )
            .unwrap();
        // The min-queue strategy needs neither params nor circuit.
        server
            .upload_job_metadata("queue-job", &StrategySpec::min_queue(), None)
            .unwrap();
        server.update_telemetry(
            "clean",
            DeviceTelemetry {
                queue_depth: 3,
                utilization: 0.5,
                health_penalty: 0.0,
            },
        );
        let weighted = server.score("weighted-job", "clean").unwrap();
        assert_eq!(weighted.detail("queue_depth"), Some(3.0));
        let queue = server.score("queue-job", "clean").unwrap();
        assert!((queue.value - 3.25).abs() < 1e-12);
        // An unregistered name is rejected at upload time.
        assert!(matches!(
            server.upload_job_metadata("ghost", &StrategySpec::new("no-such"), None),
            Err(MetaError::UnknownStrategy(_))
        ));
    }

    #[test]
    fn user_defined_strategies_register_and_score() {
        #[derive(Debug)]
        struct QubitCountStrategy;

        impl RankingStrategy for QubitCountStrategy {
            fn name(&self) -> &str {
                "qubit-count"
            }

            fn validate(
                &self,
                _params: &StrategyParams,
                _circuit: Option<&Circuit>,
            ) -> Result<(), MetaError> {
                Ok(())
            }

            fn score(&self, _job: &JobContext<'_>, backend: &Backend) -> Result<Score, MetaError> {
                Ok(Score::new(backend.name(), backend.num_qubits() as f64))
            }
        }

        let mut server = server_with_devices();
        server
            .register_strategy(Arc::new(QubitCountStrategy))
            .unwrap();
        assert!(server.registry().names().contains(&"qubit-count"));
        // Duplicate registration is rejected.
        assert!(server
            .register_strategy(Arc::new(QubitCountStrategy))
            .is_err());
        server
            .upload_job_metadata("count-job", &StrategySpec::new("qubit-count"), None)
            .unwrap();
        let ranked = server.score_all("count-job").unwrap();
        assert_eq!(ranked.len(), 3);
        // All three devices have 8 qubits: the tie breaks on device name.
        assert_eq!(ranked[0].device, "clean");
        assert_eq!(ranked[1].device, "noisy");
        assert_eq!(ranked[2].device, "tree");
    }

    #[test]
    fn topology_scores_are_memoized_until_invalidated() {
        let mut server = MetaServer::new();
        server.register_backend(Backend::uniform("ring", topology::ring(8), 0.01, 0.05));
        server.register_backend(Backend::uniform("line", topology::line(8), 0.01, 0.05));
        let request = StrategySpec::topology(&topology::ring(8).edges(), 8);
        server
            .upload_job_metadata("topo-a", &request, None)
            .unwrap();
        let stats = |server: &MetaServer| {
            let stats = server.cache_stats();
            (stats.hits, stats.misses, stats.entries)
        };

        let first = server.score_all("topo-a").unwrap();
        assert_eq!(stats(&server), (0, 2, 2), "cold memo: all misses");
        let second = server.score_all("topo-a").unwrap();
        assert_eq!(first, second, "memoized scores must be identical");
        assert_eq!(stats(&server), (2, 2, 2), "warm memo: all hits");

        // A second job with the same content hits on its first ranking.
        server
            .upload_job_metadata("topo-b", &request, None)
            .unwrap();
        assert_eq!(server.score_all("topo-b").unwrap(), first);
        assert_eq!(stats(&server), (4, 2, 2));

        // Another request is other content: it misses on both devices.
        let line = StrategySpec::topology(&topology::line(8).edges(), 8);
        server.upload_job_metadata("topo-c", &line, None).unwrap();
        server.score_all("topo-c").unwrap();
        assert_eq!(stats(&server), (4, 4, 4));

        // Re-registering one device (a new calibration) drops that device's
        // entries only; the next ranking recomputes them once per content.
        server.register_backend(Backend::uniform("line", topology::line(8), 0.02, 0.1));
        assert_eq!(stats(&server), (4, 4, 2));
        server.score_all("topo-a").unwrap();
        server.score_all("topo-b").unwrap();
        assert_eq!(stats(&server), (7, 5, 3));
        assert_eq!(server.score("topo-b", "ring").unwrap(), first[0]);
        assert_eq!(stats(&server), (8, 5, 3));

        // A re-upload of the same content under the same name keeps hitting.
        server
            .upload_job_metadata("topo-a", &request, None)
            .unwrap();
        server.score_all("topo-a").unwrap();
        assert_eq!(stats(&server), (10, 5, 3));
    }

    #[test]
    fn telemetry_dependent_strategies_are_never_cached() {
        let mut server = server_with_devices();
        server
            .upload_job_metadata("queue-job", &StrategySpec::min_queue(), None)
            .unwrap();
        server.update_telemetry(
            "clean",
            DeviceTelemetry {
                queue_depth: 1,
                utilization: 0.0,
                health_penalty: 0.0,
            },
        );
        let before = server.score("queue-job", "clean").unwrap();
        // Fresh telemetry must be visible on the very next score call.
        server.update_telemetry(
            "clean",
            DeviceTelemetry {
                queue_depth: 9,
                utilization: 0.0,
                health_penalty: 0.0,
            },
        );
        let after = server.score("queue-job", "clean").unwrap();
        assert!((before.value - 1.0).abs() < 1e-12);
        assert!((after.value - 9.0).abs() < 1e-12);
        assert_eq!(server.score_cache_stats(), (0, 0));
    }

    #[test]
    fn cloned_servers_carry_the_cache() {
        let mut server = MetaServer::new();
        server.register_backend(Backend::uniform("ring", topology::ring(6), 0.01, 0.05));
        let request = StrategySpec::topology(&topology::ring(6).edges(), 6);
        server.upload_job_metadata("topo", &request, None).unwrap();
        server.score("topo", "ring").unwrap();
        let clone = server.clone();
        clone.score("topo", "ring").unwrap();
        assert_eq!(clone.score_cache_stats(), (1, 1));
        // The original is unaffected by the clone's hit.
        assert_eq!(server.score_cache_stats(), (0, 1));
    }

    #[test]
    fn bulk_telemetry_refresh_and_cache_stats_snapshot() {
        let mut server = MetaServer::new();
        server.register_backend(Backend::uniform("ring", topology::ring(6), 0.01, 0.05));
        server.register_backend(Backend::uniform("line", topology::line(6), 0.01, 0.05));
        server.update_telemetry_bulk(vec![
            (
                "ring".to_string(),
                DeviceTelemetry {
                    queue_depth: 4,
                    utilization: 0.5,
                    health_penalty: 0.0,
                },
            ),
            (
                "line".to_string(),
                DeviceTelemetry {
                    queue_depth: 1,
                    utilization: 0.0,
                    health_penalty: 0.0,
                },
            ),
        ]);
        assert_eq!(server.telemetry_for("ring").unwrap().queue_depth, 4);
        assert_eq!(server.telemetry_for("line").unwrap().queue_depth, 1);

        let request = StrategySpec::topology(&topology::ring(6).edges(), 6);
        server.upload_job_metadata("topo", &request, None).unwrap();
        server.score_all("topo").unwrap();
        server.score_all("topo").unwrap();
        let stats = server.cache_stats();
        assert_eq!((stats.hits, stats.misses), server.score_cache_stats());
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn remove_job_metadata_drops_the_record_and_keeps_shared_scores() {
        let mut server = server_with_devices();
        let bv = qrio_circuit::qasm::to_qasm(&library::bernstein_vazirani(4, 0b1011).unwrap());
        let stats = |server: &MetaServer| {
            let stats = server.cache_stats();
            (stats.hits, stats.misses, stats.entries)
        };
        // Two jobs with the same content, and the same circuit under another
        // target, which is other content: it misses on every device.
        for (job, target) in [("bv-a", 0.9), ("bv-b", 0.9), ("bv-c", 0.95)] {
            server
                .upload_job_metadata(job, &StrategySpec::fidelity(target), Some(&bv))
                .unwrap();
            server.score_all(job).unwrap();
        }
        assert_eq!(server.job_names(), vec!["bv-a", "bv-b", "bv-c"]);
        assert_eq!(stats(&server), (3, 6, 6));

        let removed = server.remove_job_metadata("bv-a").unwrap();
        assert_eq!(removed.strategy_name(), "fidelity");
        assert!(server.job_metadata("bv-a").is_none());
        assert_eq!(server.job_count(), 2);
        // The entries bv-a computed are bv-b's too: they stay, and serve it.
        assert_eq!(stats(&server), (3, 6, 6));
        server.score_all("bv-b").unwrap();
        assert_eq!(stats(&server), (6, 6, 6));
        // Removing again (or a never-uploaded job) is None, not an error.
        assert!(server.remove_job_metadata("bv-a").is_none());
        assert!(server.remove_job_metadata("ghost").is_none());
        // Scoring the removed job now fails as unknown.
        assert!(matches!(
            server.score("bv-a", "clean"),
            Err(MetaError::UnknownJob(_))
        ));
    }

    #[test]
    fn export_and_restore_round_trip_exactly() {
        let mut server = server_with_devices();
        // Bump one device's revision and store mixed job records + telemetry.
        server.register_backend(Backend::uniform("noisy", topology::line(8), 0.06, 0.31));
        let bv = library::bernstein_vazirani(4, 0b1011).unwrap();
        server
            .upload_job_metadata(
                "bv",
                &StrategySpec::fidelity(0.9),
                Some(&qrio_circuit::qasm::to_qasm(&bv)),
            )
            .unwrap();
        server
            .upload_job_metadata("queued", &StrategySpec::min_queue(), None)
            .unwrap();
        server.update_telemetry(
            "clean",
            DeviceTelemetry {
                queue_depth: 2,
                utilization: 0.25,
                health_penalty: 0.0,
            },
        );

        // Warm the cache: it must not travel.
        server.score_all("bv").unwrap();
        let bytes = to_bytes(&server);
        let restored: MetaServer = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&restored), bytes);
        // Revisions were restored verbatim (not re-bumped), records too.
        assert_eq!(restored.backend_revisions, server.backend_revisions);
        assert_eq!(restored.backend_revisions["noisy"], 2);
        assert_eq!(restored.job_metadata("bv"), server.job_metadata("bv"));
        assert_eq!(
            restored.job_metadata("queued"),
            server.job_metadata("queued")
        );
        // Scoring reproduces the original server's results from a cold cache.
        assert_eq!(restored.cache_stats().entries, 0);
        assert_eq!(
            restored.score("bv", "clean").unwrap(),
            server.score("bv", "clean").unwrap()
        );
        assert_eq!(
            restored.telemetry_for("clean"),
            server.telemetry_for("clean")
        );
    }

    #[test]
    fn unknown_job_and_device_errors() {
        let mut server = server_with_devices();
        assert!(matches!(
            server.score("nope", "clean"),
            Err(MetaError::UnknownJob(_))
        ));
        assert!(server.score_all("nope").is_err());
        let bv = library::bernstein_vazirani(3, 0b101).unwrap();
        server
            .upload_job_metadata(
                "j",
                &StrategySpec::fidelity(0.9),
                Some(&qrio_circuit::qasm::to_qasm(&bv)),
            )
            .unwrap();
        assert!(matches!(
            server.score("j", "missing"),
            Err(MetaError::UnknownDevice(_))
        ));
    }

    #[test]
    fn invalid_metadata_is_rejected() {
        let mut server = server_with_devices();
        let bv = library::bernstein_vazirani(3, 0b1).unwrap();
        let text = qrio_circuit::qasm::to_qasm(&bv);
        assert!(server
            .upload_job_metadata("bad", &StrategySpec::fidelity(1.5), Some(&text))
            .is_err());
        assert!(server
            .upload_job_metadata(
                "bad",
                &StrategySpec::fidelity(0.9),
                Some("not qasm at all $$")
            )
            .is_err());
        // Fidelity without a circuit is rejected by the strategy's validation.
        assert!(server
            .upload_job_metadata("bad", &StrategySpec::fidelity(0.9), None)
            .is_err());
    }

    #[test]
    fn score_all_skips_undersized_devices() {
        let mut server = server_with_devices();
        server.register_backend(Backend::uniform("tiny", topology::line(2), 0.0, 0.0));
        let ghz = library::ghz(6).unwrap();
        server
            .upload_job_metadata(
                "ghz-job",
                &StrategySpec::fidelity(0.9),
                Some(&qrio_circuit::qasm::to_qasm(&ghz)),
            )
            .unwrap();
        let ranked = server.score_all("ghz-job").unwrap();
        assert!(ranked.iter().all(|r| r.device != "tiny"));
        assert!(!ranked.is_empty());
    }
}
