//! The filtering stage of the QRIO scheduler (§3.5, evaluated in §4.5).
//!
//! Users can bound device characteristics (maximum two-qubit error, readout
//! error, minimum qubit count, T1/T2); filtering removes devices that violate
//! any bound so that the expensive ranking stage only runs on the shortlist.

use qrio_backend::{Backend, NodeLabels};
use qrio_cluster::DeviceRequirements;

/// Outcome of filtering one fleet for one set of requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterReport {
    /// Names of the devices that passed every bound.
    pub accepted: Vec<String>,
    /// Names of rejected devices with the bound that rejected them.
    pub rejected: Vec<(String, String)>,
}

impl FilterReport {
    /// Number of devices that passed.
    pub fn accepted_count(&self) -> usize {
        self.accepted.len()
    }
}

/// Filter `fleet` by the user's device requirements, returning references to
/// the surviving backends.
pub fn filter_backends<'a>(
    fleet: &'a [Backend],
    requirements: &DeviceRequirements,
) -> Vec<&'a Backend> {
    fleet
        .iter()
        .filter(|backend| {
            let labels = NodeLabels::from_backend(backend, u64::MAX, u64::MAX);
            requirements.is_satisfied_by(&labels)
        })
        .collect()
}

/// Filter `fleet` and report which devices were rejected and why (useful for
/// the Fig. 10 experiment and for user-facing diagnostics).
pub fn filter_backends_report(
    fleet: &[Backend],
    requirements: &DeviceRequirements,
) -> FilterReport {
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for backend in fleet {
        let labels = NodeLabels::from_backend(backend, u64::MAX, u64::MAX);
        match requirements.rejection(&labels) {
            None => accepted.push(backend.name().to_string()),
            Some(reason) => rejected.push((backend.name().to_string(), reason)),
        }
    }
    FilterReport { accepted, rejected }
}

/// Sweep the maximum-two-qubit-error bound across `thresholds` and report how
/// many fleet devices pass at each point — the exact quantity Fig. 10 plots.
pub fn two_qubit_error_sweep(fleet: &[Backend], thresholds: &[f64]) -> Vec<(f64, usize)> {
    thresholds
        .iter()
        .map(|&threshold| {
            let requirements = DeviceRequirements {
                max_two_qubit_error: Some(threshold),
                ..DeviceRequirements::default()
            };
            (threshold, filter_backends(fleet, &requirements).len())
        })
        .collect()
}

/// The ten thresholds the paper sweeps in Fig. 10 (0.07 → 0.68).
pub fn paper_fig10_thresholds() -> Vec<f64> {
    vec![
        0.07, 0.147, 0.214, 0.280, 0.347, 0.414, 0.480, 0.547, 0.613, 0.680,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_backend::{fleet, topology};

    fn mixed_fleet() -> Vec<Backend> {
        vec![
            Backend::uniform("low-err", topology::line(10), 0.01, 0.05),
            Backend::uniform("mid-err", topology::line(20), 0.02, 0.3),
            Backend::uniform("high-err", topology::line(30), 0.05, 0.6),
        ]
    }

    #[test]
    fn filtering_on_two_qubit_error() {
        let fleet = mixed_fleet();
        let req = DeviceRequirements {
            max_two_qubit_error: Some(0.4),
            ..DeviceRequirements::default()
        };
        let survivors = filter_backends(&fleet, &req);
        let names: Vec<&str> = survivors.iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["low-err", "mid-err"]);
    }

    #[test]
    fn filtering_on_qubit_count_and_t1() {
        let fleet = mixed_fleet();
        let req = DeviceRequirements {
            min_qubits: Some(15),
            ..DeviceRequirements::default()
        };
        assert_eq!(filter_backends(&fleet, &req).len(), 2);
        let req = DeviceRequirements {
            min_t1_us: Some(1e9),
            ..DeviceRequirements::default()
        };
        assert!(filter_backends(&fleet, &req).is_empty());
    }

    #[test]
    fn report_explains_rejections() {
        let fleet = mixed_fleet();
        let req = DeviceRequirements {
            max_two_qubit_error: Some(0.1),
            min_qubits: Some(15),
            ..DeviceRequirements::default()
        };
        let report = filter_backends_report(&fleet, &req);
        assert_eq!(report.accepted_count(), 0);
        assert_eq!(report.rejected.len(), 3);
        assert!(report
            .rejected
            .iter()
            .any(|(name, reason)| name == "low-err" && reason.contains("qubits")));
        assert!(report
            .rejected
            .iter()
            .any(|(name, reason)| name == "mid-err" && reason.contains("2q error")));
    }

    #[test]
    fn sweep_is_monotone_on_the_paper_fleet() {
        let fleet = fleet::paper_fleet().unwrap();
        let sweep = two_qubit_error_sweep(&fleet, &paper_fig10_thresholds());
        assert_eq!(sweep.len(), 10);
        for window in sweep.windows(2) {
            assert!(
                window[0].1 <= window[1].1,
                "filter count must grow with the threshold"
            );
        }
        // The loosest threshold admits (nearly) the whole fleet; the paper
        // reports all 100 devices at 0.68.
        assert!(sweep.last().unwrap().1 >= 95);
        // The tightest threshold admits almost nothing.
        assert!(sweep.first().unwrap().1 <= 10);
    }

    #[test]
    fn no_requirements_accepts_everything() {
        let fleet = mixed_fleet();
        assert_eq!(
            filter_backends(&fleet, &DeviceRequirements::none()).len(),
            3
        );
    }
}
