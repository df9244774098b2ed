//! Report-consistency checks shared by the scenario suites: a report is one
//! fold over its run's watch log, so its totals agree with each other and
//! with the log they were read from.

use qrio::{JobEvent, JobState};
use qrio_loadgen::CloudReport;

/// Panic unless `report`'s totals agree with each other and with `log`.
pub fn assert_consistent(report: &CloudReport, log: &[JobEvent]) {
    let tenants = || report.tenants.values();
    let submitted: u64 = tenants().map(|tenant| tenant.submitted).sum();
    let rejected: u64 = tenants().map(|tenant| tenant.rejected).sum();
    let completed: u64 = tenants().map(|tenant| tenant.completed).sum();
    let served: u64 = report.devices.values().map(|device| device.completed).sum();
    assert_eq!(submitted, report.submitted, "tenants' submitted");
    assert_eq!(rejected, report.rejected, "tenants' rejected");
    assert_eq!(completed, report.completed, "tenants' completed");
    assert_eq!(served, report.completed, "devices' completed");
    for (name, device) in &report.devices {
        assert!(device.busy_ms <= report.makespan_ms, "{name} busy too long");
        assert!(device.utilization <= 1.0, "{name} over-utilized");
    }
    let arcs = |from: JobState, to: JobState| {
        let matching = log.iter().filter(|e| e.from == Some(from) && e.to == to);
        matching.count() as u64
    };
    use JobState::*;
    assert_eq!(report.migrations, arcs(Scheduled, Scheduled), "migrations");
    if let Some(chaos) = &report.chaos {
        assert_eq!(chaos.retries, arcs(Retrying, Queued), "retries");
    }
}
