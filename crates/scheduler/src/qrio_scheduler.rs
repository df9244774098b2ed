//! The QRIO scheduler: filtering followed by meta-server ranking (§3.5).
//!
//! One cycle, two stages, no side effects: feasibility — each node says
//! whether it can host the job ([`Node::rejection`]) — then score-and-sort —
//! the QRIO Meta Server scores the job on every shortlisted device and orders
//! them ([`MetaServer::rank`]). The lowest score wins; binding the winner is
//! the cluster's job (`Cluster::bind_job`). First binding and re-ranking of
//! an already-bound job run this same cycle, so they cannot disagree about
//! which devices are candidates.
//!
//! Every decision QRIO makes — binding, re-ranking, and the paper's figures
//! — runs this cycle through the service (`Qrio`). [`QrioScheduler::rank`],
//! the same two stages over a bare fleet with the user's device bounds as
//! the only feasibility check, is kept as the fixture of the `bench_e2e`
//! replay benchmark alone, until that benchmark ranks through the service.

use qrio_backend::{Backend, NodeLabels};
use qrio_cluster::{DeviceRequirements, Job, Node};
use qrio_meta::{MetaError, MetaServer};

use crate::error::SchedulerError;

/// What one scheduling cycle found for a job. Nothing is bound yet.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycle {
    /// Scored candidates `(device, score)`, best (lowest score) first.
    pub ranking: Vec<(String, f64)>,
    /// Devices the feasibility stage rejected, each with the reason.
    pub rejected: Vec<(String, String)>,
    /// Feasible devices the job's strategy could not score, each with the
    /// error.
    pub skipped: Vec<(String, MetaError)>,
}

impl Cycle {
    /// The ranking, or — when no device was ranked — why not: the error of
    /// the last skipped device (the root cause when every device failed the
    /// same way), else the fact that nothing survived filtering.
    ///
    /// # Errors
    ///
    /// Returns an error exactly when [`Cycle::ranking`] is empty.
    pub fn ranked(mut self, job_name: &str) -> Result<Vec<(String, f64)>, SchedulerError> {
        if !self.ranking.is_empty() {
            return Ok(self.ranking);
        }
        Err(match self.skipped.pop() {
            Some((_, err)) => err.into(),
            None => SchedulerError::NoDeviceAfterFiltering {
                job: job_name.to_string(),
            },
        })
    }
}

/// The QRIO scheduler, parameterized by a meta server holding the backend
/// store and job metadata.
#[derive(Debug, Clone, Copy)]
pub struct QrioScheduler<'a> {
    meta: &'a MetaServer,
}

impl<'a> QrioScheduler<'a> {
    /// Create a scheduler backed by `meta`.
    pub fn new(meta: &'a MetaServer) -> Self {
        QrioScheduler { meta }
    }

    /// Run one scheduling cycle for `job` over `nodes`: every node that can
    /// host the job (see [`Node::rejection`]) is scored through the job's
    /// ranking strategy. The job's metadata must already be on the meta
    /// server. A job that is already bound is ranked the same way — its own
    /// node stays a candidate — which makes this the re-ranking primitive
    /// after calibration drift or an outage.
    ///
    /// # Errors
    ///
    /// Job-level meta-server errors (no metadata for the job, unknown
    /// strategy, parameters every device would reject) abort the cycle; a
    /// device the strategy cannot score is reported in [`Cycle::skipped`].
    pub fn cycle<'n>(
        &self,
        job: &Job,
        nodes: impl IntoIterator<Item = &'n Node>,
    ) -> Result<Cycle, MetaError> {
        let mut shortlist = Vec::new();
        let mut rejected = Vec::new();
        for node in nodes {
            match node.rejection(job) {
                Some(reason) => rejected.push((node.name().to_string(), reason)),
                None => shortlist.push(node.name()),
            }
        }
        self.rank_shortlist(job.name(), shortlist, rejected)
    }

    /// Filter a bare `fleet` against `requirements` and rank every surviving
    /// device for `job_name`, best (lowest score) first. Returns the ranking
    /// plus the shortlist size.
    ///
    /// This is the `bench_e2e` replay benchmark's fixture, not a decision
    /// path: it ignores readiness and classical resources, which
    /// [`QrioScheduler::cycle`] over the service's nodes checks. Rank a job
    /// through `Qrio::rank_ready` instead.
    ///
    /// # Errors
    ///
    /// Returns an error if the fleet is empty, no device passes filtering, no
    /// shortlisted device can be scored, or the meta server reports a
    /// job-level error (see [`QrioScheduler::cycle`]).
    pub fn rank(
        &self,
        job_name: &str,
        fleet: &[Backend],
        requirements: &DeviceRequirements,
    ) -> Result<(Vec<(String, f64)>, usize), SchedulerError> {
        if fleet.is_empty() {
            return Err(SchedulerError::EmptyFleet);
        }
        let shortlist: Vec<&str> = fleet
            .iter()
            .filter(|b| {
                requirements.is_satisfied_by(&NodeLabels::from_backend(b, u64::MAX, u64::MAX))
            })
            .map(Backend::name)
            .collect();
        let shortlisted = shortlist.len();
        let cycle = self.rank_shortlist(job_name, shortlist, Vec::new())?;
        Ok((cycle.ranked(job_name)?, shortlisted))
    }

    fn rank_shortlist<'d>(
        &self,
        job_name: &str,
        shortlist: impl IntoIterator<Item = &'d str>,
        rejected: Vec<(String, String)>,
    ) -> Result<Cycle, MetaError> {
        let ranking = self.meta.rank(job_name, shortlist)?;
        Ok(Cycle {
            ranking: ranking
                .scored
                .into_iter()
                .map(|score| (score.device, score.value))
                .collect(),
            rejected,
            skipped: ranking.skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::topology;
    use qrio_circuit::{library, qasm};
    use qrio_cluster::StrategySpec;
    use qrio_meta::FidelityRankingConfig;

    fn fleet() -> Vec<Backend> {
        vec![
            Backend::uniform("clean", topology::line(12), 0.001, 0.01),
            Backend::uniform("mid", topology::ring(12), 0.02, 0.15),
            Backend::uniform("noisy", topology::line(12), 0.05, 0.45),
        ]
    }

    fn meta_with_fleet(fleet: &[Backend]) -> MetaServer {
        let mut meta = MetaServer::with_config(FidelityRankingConfig {
            shots: 128,
            seed: 11,
            shortfall_weight: 100.0,
        });
        for backend in fleet {
            meta.register_backend(backend.clone());
        }
        meta
    }

    #[test]
    fn fidelity_job_selects_the_cleanest_device() {
        let fleet = fleet();
        let mut meta = meta_with_fleet(&fleet);
        let bv = library::bernstein_vazirani(6, 0b110101).unwrap();
        meta.upload_job_metadata(
            "bv-job",
            &StrategySpec::fidelity(0.95),
            Some(&qasm::to_qasm(&bv)),
        )
        .unwrap();
        let scheduler = QrioScheduler::new(&meta);
        let (ranked, shortlisted) = scheduler
            .rank("bv-job", &fleet, &DeviceRequirements::none())
            .unwrap();
        assert_eq!(ranked[0].0, "clean");
        assert_eq!(shortlisted, 3);
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].1 <= ranked[1].1);
    }

    #[test]
    fn filtering_narrows_the_shortlist() {
        let fleet = fleet();
        let mut meta = meta_with_fleet(&fleet);
        let bv = library::bernstein_vazirani(4, 0b1010).unwrap();
        meta.upload_job_metadata(
            "bv-job",
            &StrategySpec::fidelity(0.9),
            Some(&qasm::to_qasm(&bv)),
        )
        .unwrap();
        let scheduler = QrioScheduler::new(&meta);
        let requirements = DeviceRequirements {
            max_two_qubit_error: Some(0.2),
            ..DeviceRequirements::default()
        };
        let (ranked, shortlisted) = scheduler.rank("bv-job", &fleet, &requirements).unwrap();
        assert_eq!(shortlisted, 2);
        assert_ne!(ranked[0].0, "noisy");
        // Impossible requirements -> filtering error.
        let impossible = DeviceRequirements {
            max_two_qubit_error: Some(0.001),
            ..DeviceRequirements::default()
        };
        assert!(matches!(
            scheduler.rank("bv-job", &fleet, &impossible),
            Err(SchedulerError::NoDeviceAfterFiltering { .. })
        ));
    }

    #[test]
    fn topology_job_selects_matching_device() {
        let fleet = vec![
            Backend::uniform("ring-dev", topology::ring(10), 0.01, 0.05),
            Backend::uniform("tree-dev", topology::binary_tree(10), 0.01, 0.05),
            Backend::uniform("line-dev", topology::line(10), 0.01, 0.05),
        ];
        let mut meta = meta_with_fleet(&fleet);
        let request = StrategySpec::topology(&topology::binary_tree(10).edges(), 10);
        meta.upload_job_metadata("topo-job", &request, None)
            .unwrap();
        let scheduler = QrioScheduler::new(&meta);
        let (ranked, _) = scheduler
            .rank("topo-job", &fleet, &DeviceRequirements::none())
            .unwrap();
        assert_eq!(ranked[0].0, "tree-dev");
    }

    #[test]
    fn rank_reflects_fresh_calibration_without_binding() {
        // The re-ranking path: after a calibration-drift re-registration the
        // same job ranks differently.
        let fleet = fleet();
        let mut meta = meta_with_fleet(&fleet);
        let bv = library::bernstein_vazirani(5, 0b10011).unwrap();
        meta.upload_job_metadata(
            "drift-job",
            &StrategySpec::fidelity(0.9),
            Some(&qasm::to_qasm(&bv)),
        )
        .unwrap();
        let scheduler = QrioScheduler::new(&meta);
        let (ranked, shortlisted) = scheduler
            .rank("drift-job", &fleet, &DeviceRequirements::none())
            .unwrap();
        assert_eq!(shortlisted, 3);
        assert_eq!(ranked[0].0, "clean");
        assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1));

        // 'clean' drifts to terrible calibration: re-ranking must demote it.
        let mut meta = meta;
        meta.register_backend(Backend::uniform("clean", topology::line(12), 0.2, 0.6));
        let scheduler = QrioScheduler::new(&meta);
        let (reranked, _) = scheduler
            .rank("drift-job", &fleet, &DeviceRequirements::none())
            .unwrap();
        assert_ne!(reranked[0].0, "clean", "drifted device loses the top spot");
    }

    #[test]
    fn missing_metadata_and_empty_fleet_error() {
        let fleet = fleet();
        let meta = meta_with_fleet(&fleet);
        let scheduler = QrioScheduler::new(&meta);
        assert!(matches!(
            scheduler.rank("ghost", &fleet, &DeviceRequirements::none()),
            Err(SchedulerError::Meta(MetaError::UnknownJob(_)))
        ));
        assert!(matches!(
            scheduler.rank("ghost", &[], &DeviceRequirements::none()),
            Err(SchedulerError::EmptyFleet)
        ));
    }

    #[test]
    fn devices_too_small_for_the_job_are_skipped() {
        let mut fleet = fleet();
        fleet.push(Backend::uniform("tiny", topology::line(2), 0.0, 0.0));
        let mut meta = meta_with_fleet(&fleet);
        let ghz = library::ghz(8).unwrap();
        meta.upload_job_metadata(
            "ghz-job",
            &StrategySpec::fidelity(0.9),
            Some(&qasm::to_qasm(&ghz)),
        )
        .unwrap();
        let scheduler = QrioScheduler::new(&meta);
        let (ranked, shortlisted) = scheduler
            .rank("ghz-job", &fleet, &DeviceRequirements::none())
            .unwrap();
        assert_eq!(shortlisted, 4, "no bound was requested");
        assert!(ranked.iter().all(|(name, _)| name != "tiny"));
        // When the only device is one the strategy cannot score, the error
        // is that device's, not a generic "nothing ranked".
        assert!(matches!(
            scheduler.rank("ghz-job", &fleet[3..], &DeviceRequirements::none()),
            Err(SchedulerError::Meta(_))
        ));
    }

    #[test]
    fn equal_scores_break_ties_by_device_name() {
        // Two devices with identical topology and calibration produce exactly
        // equal scores for a min-queue job with no telemetry; the ranking must
        // not depend on fleet iteration order.
        let twin_a = Backend::uniform("twin-a", topology::line(6), 0.01, 0.05);
        let twin_b = Backend::uniform("twin-b", topology::line(6), 0.01, 0.05);
        for fleet in [
            vec![twin_a.clone(), twin_b.clone()],
            vec![twin_b.clone(), twin_a.clone()],
        ] {
            let mut meta = meta_with_fleet(&fleet);
            meta.upload_job_metadata("tie-job", &qrio_cluster::StrategySpec::min_queue(), None)
                .unwrap();
            let scheduler = QrioScheduler::new(&meta);
            let (ranked, _) = scheduler
                .rank("tie-job", &fleet, &DeviceRequirements::none())
                .unwrap();
            assert_eq!(ranked[0].1, ranked[1].1, "scores tie");
            let names: Vec<&str> = ranked.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, vec!["twin-a", "twin-b"], "ties break by name");
        }
    }

    #[test]
    fn ranking_plugin_scores_cluster_nodes() {
        use qrio_cluster::{Cluster, JobSpec, Resources};
        let mut fleet = fleet();
        fleet.push(Backend::uniform("tiny", topology::line(2), 0.0, 0.0));
        let mut meta = meta_with_fleet(&fleet);
        let mut cluster = Cluster::new();
        for backend in &fleet {
            let node = Node::from_backend(backend.clone(), Resources::new(1000, 1024));
            cluster.add_node(node).unwrap();
        }
        let bv = library::bernstein_vazirani(5, 0b10011).unwrap();
        let spec = JobSpec {
            name: "bv-plugin".into(),
            image: "img".into(),
            qasm: qasm::to_qasm(&bv),
            num_qubits: 5,
            resources: Resources::new(100, 128),
            requirements: DeviceRequirements::none(),
            strategy: StrategySpec::fidelity(0.9),
            priority: 0,
            shots: 128,
            threads: 0,
            retry: None,
            deadline: None,
        };
        cluster.submit_job(spec.clone()).unwrap();
        let scheduler = QrioScheduler::new(&meta);
        // No metadata uploaded yet: a job-level error, not three skips.
        let job = cluster.job("bv-plugin").unwrap();
        assert_eq!(
            scheduler.cycle(job, cluster.nodes()),
            Err(MetaError::UnknownJob("bv-plugin".into()))
        );

        meta.upload_job_metadata("bv-plugin", &spec.strategy, Some(&spec.qasm))
            .unwrap();
        let scheduler = QrioScheduler::new(&meta);
        let cycle = scheduler.cycle(job, cluster.nodes()).unwrap();
        let names: Vec<&str> = cycle.ranking.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["clean", "mid", "noisy"], "lowest score first");
        assert!(cycle.ranking[0].1 < cycle.ranking[2].1);
        assert!(cycle.skipped.is_empty());
        assert_eq!(cycle.rejected.len(), 1, "the 2-qubit device is filtered");
        assert_eq!(cycle.rejected[0].0, "tiny");
        assert!(cycle.rejected[0].1.starts_with("QubitCount: "));
        // The bare-fleet entry runs the same stages: same order, same scores.
        let (bare, _) = scheduler
            .rank("bv-plugin", &fleet[..3], &DeviceRequirements::none())
            .unwrap();
        assert_eq!(bare, cycle.ranking);

        // Binding what the cycle found reserves the winner for the job, and
        // the bound job's own node stays a candidate when it is re-ranked.
        let decision = cluster
            .bind_job(
                "bv-plugin",
                cycle.ranking.clone(),
                cycle.rejected,
                Vec::new(),
            )
            .unwrap();
        assert_eq!(decision.node, "clean");
        let job = cluster.job("bv-plugin").unwrap();
        assert_eq!(job.node(), Some("clean"));
        let again = scheduler.cycle(job, cluster.nodes()).unwrap();
        assert_eq!(again.ranking, cycle.ranking);
    }
}
