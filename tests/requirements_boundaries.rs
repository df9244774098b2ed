//! Property-based boundary tests for `DeviceRequirements::is_satisfied_by`
//! (the filtering stage of §3.5): every bound is inclusive — a label exactly
//! at the bound passes — and an all-`None` requirement accepts every device.

use proptest::prelude::*;

use qrio_backend::NodeLabels;
use qrio_cluster::DeviceRequirements;

fn labels(qubits: usize, two_q: f64, readout: f64, t1: f64, t2: f64) -> NodeLabels {
    NodeLabels {
        num_qubits: qubits,
        avg_two_qubit_error: two_q,
        avg_single_qubit_error: 0.01,
        avg_t1_us: t1,
        avg_t2_us: t2,
        avg_readout_error: readout,
        cpu_millis: 4000,
        memory_mib: 8192,
    }
}

#[test]
fn every_bound_is_inclusive_at_exact_equality() {
    // A device sitting exactly on every bound satisfies all of them: min
    // bounds reject strictly-below, max bounds reject strictly-above.
    let req = DeviceRequirements {
        min_qubits: Some(10),
        max_two_qubit_error: Some(0.25),
        max_readout_error: Some(0.125),
        min_t1_us: Some(100.0),
        min_t2_us: Some(80.0),
    };
    let exactly_at = labels(10, 0.25, 0.125, 100.0, 80.0);
    assert!(req.is_satisfied_by(&exactly_at));

    // One ulp-ish step past each bound flips the verdict for that bound only.
    assert!(!req.is_satisfied_by(&labels(9, 0.25, 0.125, 100.0, 80.0)));
    assert!(!req.is_satisfied_by(&labels(10, 0.25 + 1e-12, 0.125, 100.0, 80.0)));
    assert!(!req.is_satisfied_by(&labels(10, 0.25, 0.125 + 1e-12, 100.0, 80.0)));
    assert!(!req.is_satisfied_by(&labels(10, 0.25, 0.125, 100.0 - 1e-9, 80.0)));
    assert!(!req.is_satisfied_by(&labels(10, 0.25, 0.125, 100.0, 80.0 - 1e-9)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An all-`None` requirement accepts any device whatsoever.
    #[test]
    fn all_none_passes_everything(
        qubits in 0usize..200,
        two_q_milli in 0u64..1000,
        readout_milli in 0u64..1000,
        t1_tenths in 0u64..2_000_000,
    ) {
        let device = labels(
            qubits,
            two_q_milli as f64 / 1000.0,
            readout_milli as f64 / 1000.0,
            t1_tenths as f64 / 10.0,
            t1_tenths as f64 / 20.0,
        );
        prop_assert!(DeviceRequirements::none().is_satisfied_by(&device));
        prop_assert!(DeviceRequirements::default().is_satisfied_by(&device));
    }

    /// A requirement built from the device's own values is satisfied (bounds
    /// are inclusive), and tightening any single bound past the device's
    /// value rejects it.
    #[test]
    fn bounds_built_from_the_device_itself_are_inclusive(
        qubits in 1usize..100,
        two_q_milli in 1u64..500,
        readout_milli in 1u64..500,
        t1_tenths in 10u64..1_000_000,
    ) {
        let two_q = two_q_milli as f64 / 1000.0;
        let readout = readout_milli as f64 / 1000.0;
        let t1 = t1_tenths as f64 / 10.0;
        let t2 = t1 / 2.0;
        let device = labels(qubits, two_q, readout, t1, t2);
        let exact = DeviceRequirements {
            min_qubits: Some(qubits),
            max_two_qubit_error: Some(two_q),
            max_readout_error: Some(readout),
            min_t1_us: Some(t1),
            min_t2_us: Some(t2),
        };
        prop_assert!(exact.is_satisfied_by(&device), "inclusive bounds must pass");

        // Tightening exactly one bound past the device's value rejects it.
        let tightened = [
            DeviceRequirements { min_qubits: Some(qubits + 1), ..exact },
            DeviceRequirements { max_two_qubit_error: Some(two_q / 2.0), ..exact },
            DeviceRequirements { max_readout_error: Some(readout / 2.0), ..exact },
            DeviceRequirements { min_t1_us: Some(t1 * 2.0), ..exact },
            DeviceRequirements { min_t2_us: Some(t2 * 2.0), ..exact },
        ];
        for (i, req) in tightened.iter().enumerate() {
            prop_assert!(!req.is_satisfied_by(&device), "tightened bound {i} must reject");
        }

        // Loosening every bound keeps the device acceptable.
        let loosened = DeviceRequirements {
            min_qubits: Some(qubits.saturating_sub(1)),
            max_two_qubit_error: Some(two_q * 2.0),
            max_readout_error: Some(readout * 2.0),
            min_t1_us: Some(t1 / 2.0),
            min_t2_us: Some(t2 / 2.0),
        };
        prop_assert!(loosened.is_satisfied_by(&device));
    }

    /// Each bound acts independently: a requirement with a single `Some`
    /// matches if and only if that one dimension is within bounds.
    #[test]
    fn single_bound_requirements_are_independent(
        qubits in 1usize..100,
        bound in 1usize..100,
    ) {
        let device = labels(qubits, 0.5, 0.5, 10.0, 10.0);
        let req = DeviceRequirements {
            min_qubits: Some(bound),
            ..DeviceRequirements::default()
        };
        prop_assert_eq!(req.is_satisfied_by(&device), qubits >= bound);
    }

    /// `rejection` and `is_satisfied_by` are one verdict: a reason is given
    /// exactly when the device is not accepted, and it names the first
    /// violated bound in declaration order.
    #[test]
    fn rejection_gives_a_reason_exactly_when_not_satisfied(
        qubits in 1usize..100,
        min_qubits in 1usize..100,
        two_q_milli in 0u64..1000,
        max_two_q_milli in 0u64..1000,
        t1_tenths in 0u64..2000,
        min_t1_tenths in 0u64..2000,
    ) {
        let two_q = two_q_milli as f64 / 1000.0;
        let t1 = t1_tenths as f64 / 10.0;
        let device = labels(qubits, two_q, 0.0, t1, t1);
        let req = DeviceRequirements {
            min_qubits: Some(min_qubits),
            max_two_qubit_error: Some(max_two_q_milli as f64 / 1000.0),
            min_t1_us: Some(min_t1_tenths as f64 / 10.0),
            ..DeviceRequirements::default()
        };
        let reason = req.rejection(&device);
        prop_assert_eq!(reason.is_some(), !req.is_satisfied_by(&device));
        let expected = if qubits < min_qubits {
            Some("qubits <")
        } else if two_q_milli > max_two_q_milli {
            Some("avg 2q error")
        } else if t1_tenths < min_t1_tenths {
            Some("avg T1")
        } else {
            None
        };
        match (reason, expected) {
            (Some(reason), Some(fragment)) => prop_assert!(reason.contains(fragment), "{reason}"),
            (None, None) => {}
            (reason, expected) => prop_assert!(false, "{reason:?} vs {expected:?}"),
        }
    }
}
