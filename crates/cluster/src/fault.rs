//! Typed fault injection and retry policies.
//!
//! Real quantum clouds fail constantly: transient execution errors, stale
//! calibrations, jobs that hang past their window, devices that flap on and
//! off ("Three Months in the Life of Cloud Quantum Computing"). This module
//! makes those failure modes first-class in the cluster substrate:
//!
//! * [`FaultKind`] — the typed catalogue of injectable faults.
//! * [`FaultInjector`] — a deterministic, seeded injector. The cluster
//!   stores the plan, every node agent holds a replica and consults it
//!   before each execution. Decisions are a *pure function* of
//!   `(seed, job, node, attempt)` — no mutable RNG stream — so snapshot-based
//!   crash recovery, and a replica on any thread, replay the exact same
//!   fault schedule no matter where the snapshot cut the history.
//! * [`RetryPolicy`] / [`BackoffPolicy`] / [`RetryOn`] — the per-job policy
//!   that decides whether a failure is retried, how long to back off
//!   (fixed or exponential, with seed-derived deterministic jitter), and
//!   which failure classes qualify.

use std::fmt;

use qrio_bytes::{codec_enum, codec_struct, fnv1a, Wide32};

use crate::error::ClusterError;

/// SplitMix64 finalizer — turns a folded key into well-mixed bits.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from mixed bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The typed catalogue of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient execution error: the shot run aborted mid-flight and an
    /// immediate retry is likely to succeed.
    TransientExecution,
    /// A calibration glitch: the device executed against stale calibration
    /// data and produced garbage.
    CalibrationGlitch,
    /// A hung / slow job: execution exceeded its window and was reaped.
    SlowJob,
    /// A device flap: the node dropped out mid-execution and needs a restart.
    DeviceFlap,
}

codec_enum!(FaultKind {
    0 => TransientExecution,
    1 => CalibrationGlitch,
    2 => SlowJob,
    3 => DeviceFlap,
});

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::TransientExecution,
        FaultKind::CalibrationGlitch,
        FaultKind::SlowJob,
        FaultKind::DeviceFlap,
    ];

    /// Stable machine-readable name (used in YAML and report keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransientExecution => "transient",
            FaultKind::CalibrationGlitch => "calibration",
            FaultKind::SlowJob => "slow",
            FaultKind::DeviceFlap => "flap",
        }
    }

    /// Human-readable failure reason recorded on the failed job.
    pub fn reason(self) -> &'static str {
        match self {
            FaultKind::TransientExecution => "injected fault: transient execution error",
            FaultKind::CalibrationGlitch => "injected fault: calibration glitch",
            FaultKind::SlowJob => "injected fault: job hung past its execution window",
            FaultKind::DeviceFlap => "injected fault: device flapped mid-execution",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic, seeded fault injector.
///
/// Rates are independent per-kind probabilities in `[0, 1)`; the decision for
/// one `(job, node, attempt)` triple draws a single uniform variate and walks
/// the cumulative rate ladder, so at most one fault fires per execution
/// attempt. Because the decision is stateless, crash recovery that replays
/// only part of the history still reproduces every fault byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultInjector {
    /// Seed folded into every decision (and into backoff jitter).
    pub seed: u64,
    /// Probability of a transient execution error per attempt.
    pub transient_rate: f64,
    /// Probability of a calibration glitch per attempt.
    pub calibration_rate: f64,
    /// Probability of a hung/slow job per attempt.
    pub slow_rate: f64,
    /// Probability of a device flap per attempt.
    pub flap_rate: f64,
}

codec_struct!(FaultInjector {
    seed,
    transient_rate,
    calibration_rate,
    slow_rate,
    flap_rate,
});

impl FaultInjector {
    /// An injector with the given seed and all rates zero (injects nothing
    /// until rates are raised).
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            ..FaultInjector::default()
        }
    }

    /// The summed per-attempt fault probability.
    pub fn total_rate(&self) -> f64 {
        self.transient_rate + self.calibration_rate + self.slow_rate + self.flap_rate
    }

    /// Decide whether execution attempt `attempt` of `job` on `node` faults,
    /// and with which [`FaultKind`]. Pure function of the inputs and the
    /// seed: the same triple always yields the same verdict.
    pub fn decide(&self, job: &str, node: &str, attempt: u32) -> Option<FaultKind> {
        if self.total_rate() <= 0.0 {
            return None;
        }
        let key = self
            .seed
            .wrapping_add(fnv1a(job))
            .wrapping_add(fnv1a(node).rotate_left(17))
            .wrapping_add(u64::from(attempt).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let draw = unit(mix(key));
        let mut ladder = 0.0;
        for kind in FaultKind::ALL {
            ladder += match kind {
                FaultKind::TransientExecution => self.transient_rate,
                FaultKind::CalibrationGlitch => self.calibration_rate,
                FaultKind::SlowJob => self.slow_rate,
                FaultKind::DeviceFlap => self.flap_rate,
            };
            if draw < ladder {
                return Some(kind);
            }
        }
        None
    }
}

/// How long to wait before retry attempt `n` (1-based: the wait *before* the
/// second execution is `delay(seed, job, 1)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackoffPolicy {
    /// The same delay before every retry.
    Fixed {
        /// Delay in virtual time units (service ticks or milliseconds,
        /// depending on the driver).
        delay: u64,
    },
    /// Doubling delay: `base * 2^(attempt-1)`, capped at `max`, plus an
    /// optional deterministic jitter of up to half the raw delay derived
    /// from the seed and job name.
    Exponential {
        /// Delay before the first retry.
        base: u64,
        /// Upper bound on the delay (jitter included).
        max: u64,
        /// Whether to add seed-derived jitter (never exceeds `max`).
        jitter: bool,
    },
}

codec_enum!(BackoffPolicy {
    0 => Fixed { delay },
    1 => Exponential { base, max, jitter },
});

impl BackoffPolicy {
    /// The backoff delay before retry `attempt` (1-based). Deterministic:
    /// the same `(seed, job, attempt)` always yields the same delay.
    pub fn delay(&self, seed: u64, job: &str, attempt: u32) -> u64 {
        match *self {
            BackoffPolicy::Fixed { delay } => delay,
            BackoffPolicy::Exponential { base, max, jitter } => {
                let exp = attempt.saturating_sub(1).min(32);
                let raw = base.saturating_mul(1u64 << exp).min(max);
                if jitter {
                    let bits = mix(seed
                        .wrapping_add(fnv1a(job))
                        .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9)));
                    raw.saturating_add(bits % (raw / 2 + 1)).min(max)
                } else {
                    raw
                }
            }
        }
    }

    /// The largest delay this policy can ever produce for one retry.
    pub fn max_delay(&self) -> u64 {
        match *self {
            BackoffPolicy::Fixed { delay } => delay,
            BackoffPolicy::Exponential { max, .. } => max,
        }
    }
}

/// Which failure classes a [`RetryPolicy`] retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOn {
    /// Retry injected transient execution errors.
    pub transient: bool,
    /// Retry injected calibration glitches.
    pub calibration: bool,
    /// Retry injected hung/slow-job faults.
    pub slow: bool,
    /// Retry injected device flaps.
    pub flap: bool,
    /// Retry real (non-injected) execution failures.
    pub execution: bool,
}

codec_struct!(RetryOn {
    transient,
    calibration,
    slow,
    flap,
    execution,
});

impl RetryOn {
    /// Retry every failure class.
    pub fn all() -> Self {
        RetryOn {
            transient: true,
            calibration: true,
            slow: true,
            flap: true,
            execution: true,
        }
    }

    /// Retry injected faults only (real execution failures stay terminal).
    pub fn faults_only() -> Self {
        RetryOn {
            execution: false,
            ..RetryOn::all()
        }
    }

    /// Whether `err` belongs to a class this policy retries. Scheduling and
    /// bookkeeping errors are never retryable.
    pub fn matches(&self, err: &ClusterError) -> bool {
        match err {
            ClusterError::InjectedFault { kind, .. } => match kind {
                FaultKind::TransientExecution => self.transient,
                FaultKind::CalibrationGlitch => self.calibration,
                FaultKind::SlowJob => self.slow,
                FaultKind::DeviceFlap => self.flap,
            },
            ClusterError::ExecutionFailed { .. } => self.execution,
            _ => false,
        }
    }
}

/// The per-job retry policy carried on a [`crate::JobSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total execution attempts allowed, the first included. A job whose
    /// `max_attempts`-th attempt fails is exhausted and dead-letters.
    pub max_attempts: u32,
    /// The delay schedule between attempts.
    pub backoff: BackoffPolicy,
    /// Which failure classes are retried at all.
    pub retry_on: RetryOn,
}

codec_struct!(RetryPolicy {
    max_attempts as Wide32,
    backoff,
    retry_on,
});

impl RetryPolicy {
    /// A fixed-delay policy retrying every failure class.
    pub fn fixed(max_attempts: u32, delay: u64) -> Self {
        RetryPolicy {
            max_attempts,
            backoff: BackoffPolicy::Fixed { delay },
            retry_on: RetryOn::all(),
        }
    }

    /// An exponential policy with seed-jitter, retrying every failure class.
    pub fn exponential(max_attempts: u32, base: u64, max: u64) -> Self {
        RetryPolicy {
            max_attempts,
            backoff: BackoffPolicy::Exponential {
                base,
                max,
                jitter: true,
            },
            retry_on: RetryOn::all(),
        }
    }

    /// The worst-case total time a job can spend backing off across all its
    /// retries (`None`-free: saturates instead of overflowing).
    pub fn worst_case_backoff(&self) -> u64 {
        let retries = u64::from(self.max_attempts.saturating_sub(1));
        self.backoff.max_delay().saturating_mul(retries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_their_inputs() {
        let injector = FaultInjector {
            seed: 42,
            transient_rate: 0.2,
            calibration_rate: 0.1,
            slow_rate: 0.05,
            flap_rate: 0.05,
        };
        for attempt in 0..50 {
            let a = injector.decide("job-a", "dev-1", attempt);
            let b = injector.decide("job-a", "dev-1", attempt);
            assert_eq!(a, b, "attempt {attempt} must be deterministic");
        }
        // Different seeds decide differently somewhere in the range.
        let other = FaultInjector {
            seed: 43,
            ..injector
        };
        assert!(
            (0..200).any(|n| injector.decide("j", "d", n) != other.decide("j", "d", n)),
            "seeds must matter"
        );
    }

    #[test]
    fn rates_control_fault_frequency() {
        let off = FaultInjector::new(7);
        assert_eq!(off.decide("j", "d", 0), None);

        let always = FaultInjector {
            seed: 7,
            transient_rate: 1.0,
            ..FaultInjector::default()
        };
        for attempt in 0..20 {
            assert_eq!(
                always.decide("j", "d", attempt),
                Some(FaultKind::TransientExecution)
            );
        }

        let mixed = FaultInjector {
            seed: 7,
            transient_rate: 0.25,
            calibration_rate: 0.25,
            slow_rate: 0.25,
            flap_rate: 0.25,
        };
        let mut seen = std::collections::BTreeSet::new();
        for attempt in 0..200 {
            if let Some(kind) = mixed.decide("j", "d", attempt) {
                seen.insert(kind.name());
            }
        }
        assert_eq!(seen.len(), 4, "every kind fires under uniform rates");
    }

    #[test]
    fn backoff_schedules_are_deterministic_and_capped() {
        let fixed = BackoffPolicy::Fixed { delay: 5 };
        assert_eq!(fixed.delay(1, "j", 1), 5);
        assert_eq!(fixed.delay(99, "j", 7), 5);
        assert_eq!(fixed.max_delay(), 5);

        let expo = BackoffPolicy::Exponential {
            base: 2,
            max: 40,
            jitter: false,
        };
        assert_eq!(expo.delay(0, "j", 1), 2);
        assert_eq!(expo.delay(0, "j", 2), 4);
        assert_eq!(expo.delay(0, "j", 3), 8);
        assert_eq!(expo.delay(0, "j", 63), 40, "capped at max");

        let jittered = BackoffPolicy::Exponential {
            base: 2,
            max: 40,
            jitter: true,
        };
        for attempt in 1..10 {
            let a = jittered.delay(11, "job", attempt);
            assert_eq!(a, jittered.delay(11, "job", attempt), "jitter is seeded");
            assert!(a <= 40, "jitter never exceeds max");
            assert!(a >= expo.delay(11, "job", attempt).min(40));
        }
        // Jitter actually moves some delay.
        assert!((1..20).any(|n| jittered.delay(11, "job", n) != expo.delay(11, "job", n)));
    }

    #[test]
    fn retry_on_classifies_failures() {
        let all = RetryOn::all();
        let faults = RetryOn::faults_only();
        let injected = ClusterError::InjectedFault {
            job: "j".into(),
            node: "n".into(),
            kind: FaultKind::DeviceFlap,
            attempt: 0,
        };
        let real = ClusterError::ExecutionFailed {
            job: "j".into(),
            reason: "boom".into(),
        };
        let unrelated = ClusterError::UnknownJob("j".into());
        assert!(all.matches(&injected));
        assert!(all.matches(&real));
        assert!(!all.matches(&unrelated));
        assert!(faults.matches(&injected));
        assert!(!faults.matches(&real));
    }

    #[test]
    fn worst_case_backoff_saturates() {
        let policy = RetryPolicy::fixed(4, 10);
        assert_eq!(policy.worst_case_backoff(), 30);
        let huge = RetryPolicy::fixed(u32::MAX, u64::MAX);
        assert_eq!(huge.worst_case_backoff(), u64::MAX);
        assert_eq!(RetryPolicy::exponential(3, 2, 16).worst_case_backoff(), 32);
    }
}
