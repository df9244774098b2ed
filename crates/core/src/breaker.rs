//! Per-device circuit breakers: cordon a flapping device before it burns
//! more jobs.
//!
//! Each device gets a classic three-state breaker:
//!
//! ```text
//!             too many failures                    open_ticks elapse
//!   Closed ──────────────────────────→ Open ──────────────────────────→
//!      ↑                                 ↑                      HalfOpen
//!      │   probe_jobs successes          │    any probe failure     │
//!      └─────────────────────────────────┴──────────────────────────┘
//! ```
//!
//! A breaker trips either on `consecutive_failures` failures in a row or
//! when the failure rate over the last `window` outcomes reaches
//! `failure_rate`. While `Open` the device is cordoned — the scheduler will
//! not bind new work to it. Once the clock has moved `open_ticks` on (in
//! whatever unit the orchestrator's one clock is advanced in: one per
//! [`crate::Qrio::tick`], virtual milliseconds under a simulator's
//! [`crate::Qrio::advance_to`]) the breaker moves to `HalfOpen` and the
//! device is uncordoned on probation: `probe_jobs` consecutive successes
//! close it again, any failure re-trips it immediately.
//!
//! Everything here is integer- and clock-driven — no randomness — so breaker
//! trips replay byte-identically from the journal after a crash. The board
//! also contributes a *health penalty* to each device's
//! [`qrio_meta::DeviceTelemetry`], letting ranking strategies steer work
//! away from recently-flaky devices even after the breaker closes.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use qrio_bytes::{
    codec_enum, codec_struct, ByteReader, ByteWriter, CodecError, Decode, Encode, Wide32,
};

use crate::lifecycle::{due_by, DueIndex};

/// Thresholds shared by every device breaker on a board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Trip after this many consecutive failures (0 disables this trigger).
    pub consecutive_failures: u32,
    /// Trip when the failure rate over the last `window` outcomes reaches
    /// this fraction (`1.1` or any value above 1 effectively disables it).
    pub failure_rate: f64,
    /// Number of recent outcomes the failure rate is computed over; the
    /// rate trigger only fires once the window is full.
    pub window: u32,
    /// How far the clock must move before an `Open` breaker probes, in the
    /// unit the clock is advanced in.
    pub open_ticks: u64,
    /// Consecutive successes required in `HalfOpen` to close the breaker.
    pub probe_jobs: u32,
}

codec_struct!(BreakerConfig {
    consecutive_failures as Wide32,
    failure_rate,
    window as Wide32,
    open_ticks,
    probe_jobs as Wide32,
});

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            consecutive_failures: 3,
            failure_rate: 0.6,
            window: 8,
            open_ticks: 10,
            probe_jobs: 2,
        }
    }
}

/// The state of one device's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: work flows normally.
    Closed,
    /// Tripped: the device is cordoned until the clock reads `until`.
    Open {
        /// First clock reading at which the breaker may move to `HalfOpen`.
        until: u64,
    },
    /// Probation: the device takes work again; `successes` probes have
    /// passed so far.
    HalfOpen {
        /// Consecutive successful probes observed so far.
        successes: u32,
    },
}

codec_enum!(BreakerState {
    0 => Closed,
    1 => Open { until },
    2 => HalfOpen { successes as Wide32 },
});

impl BreakerState {
    /// The state's name, for events and reports.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One breaker transition, appended to the board's event log.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerEvent {
    /// What the clock read at the transition.
    pub at: u64,
    /// The device whose breaker transitioned.
    pub device: String,
    /// State before the transition.
    pub from: BreakerState,
    /// State after the transition.
    pub to: BreakerState,
    /// Why (trip cause, probe verdict, timer expiry).
    pub reason: String,
}

codec_struct!(BreakerEvent {
    at,
    device,
    from,
    to,
    reason,
});

/// One device's breaker: state plus the outcome bookkeeping that drives it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DeviceBreaker {
    pub(crate) state: BreakerState,
    /// Recent outcomes, `true` = failure, newest last; capped at `window`.
    pub(crate) outcomes: VecDeque<bool>,
    /// Current run of consecutive failures.
    pub(crate) consecutive: u32,
    /// Total number of times this breaker has tripped.
    pub(crate) trips: u64,
}

codec_struct!(DeviceBreaker {
    state,
    outcomes,
    consecutive as Wide32,
    trips,
});

impl DeviceBreaker {
    fn new() -> Self {
        DeviceBreaker {
            state: BreakerState::Closed,
            outcomes: VecDeque::new(),
            consecutive: 0,
            trips: 0,
        }
    }

    fn push_outcome(&mut self, failed: bool, window: u32) {
        self.outcomes.push_back(failed);
        while self.outcomes.len() > window as usize {
            self.outcomes.pop_front();
        }
        if failed {
            self.consecutive += 1;
        } else {
            self.consecutive = 0;
        }
    }

    fn failure_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let failures = self.outcomes.iter().filter(|f| **f).count();
        failures as f64 / self.outcomes.len() as f64
    }
}

/// What the board wants the orchestrator to do to a device after an
/// outcome or a tick was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerAction {
    /// The breaker tripped: cordon the device.
    Cordon,
    /// The breaker closed or started probing: uncordon the device.
    Uncordon,
}

/// The fleet-wide breaker board: one per-device breaker plus the
/// transition log.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerBoard {
    pub(crate) config: BreakerConfig,
    pub(crate) breakers: BTreeMap<String, DeviceBreaker>,
    pub(crate) events: Vec<BreakerEvent>,
    /// When each `Open` breaker's interval elapses (its `until`).
    pub(crate) open: DueIndex,
}

impl Encode for BreakerBoard {
    fn encode(&self, w: &mut ByteWriter) {
        self.config.encode(w);
        self.breakers.encode(w);
        self.events.encode(w);
    }
}

impl Decode for BreakerBoard {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut board = BreakerBoard::new(Decode::decode(r)?);
        board.breakers = Decode::decode(r)?;
        board.events = Decode::decode(r)?;
        for (device, breaker) in &board.breakers {
            if let BreakerState::Open { until } = breaker.state {
                board.open.insert((until, device.clone()));
            }
        }
        Ok(board)
    }
}

impl BreakerBoard {
    /// A board with the given thresholds and no devices yet (devices appear
    /// lazily on their first recorded outcome).
    pub fn new(config: BreakerConfig) -> Self {
        BreakerBoard {
            config,
            breakers: BTreeMap::new(),
            events: Vec::new(),
            open: DueIndex::default(),
        }
    }

    /// The board's thresholds.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// The transition log, oldest first.
    pub fn events(&self) -> &[BreakerEvent] {
        &self.events
    }

    /// The current state of a device's breaker (`Closed` if the device has
    /// never reported an outcome).
    pub fn state(&self, device: &str) -> BreakerState {
        self.breakers
            .get(device)
            .map_or(BreakerState::Closed, |b| b.state)
    }

    /// How many times the device's breaker has tripped.
    pub fn trip_count(&self, device: &str) -> u64 {
        self.breakers.get(device).map_or(0, |b| b.trips)
    }

    /// Total trips across the fleet.
    pub fn total_trips(&self) -> u64 {
        self.breakers.values().map(|b| b.trips).sum()
    }

    /// The health penalty the device contributes to its telemetry: `1.0`
    /// while open (cordoned), `0.5` on probation, and while closed the
    /// fraction of recent outcomes that failed.
    pub fn health_penalty(&self, device: &str) -> f64 {
        match self.breakers.get(device) {
            None => 0.0,
            Some(b) => match b.state {
                BreakerState::Open { .. } => 1.0,
                BreakerState::HalfOpen { .. } => 0.5,
                BreakerState::Closed => b.failure_rate(),
            },
        }
    }

    fn transition(&mut self, device: &str, at: u64, to: BreakerState, reason: String) {
        let breaker = self
            .breakers
            .get_mut(device)
            .expect("transitioned breakers exist");
        let from = breaker.state;
        breaker.state = to;
        if let BreakerState::Open { until } = from {
            self.open.remove(&(until, device.to_string()));
        }
        if let BreakerState::Open { until } = to {
            breaker.trips += 1;
            self.open.insert((until, device.to_string()));
        }
        self.events.push(BreakerEvent {
            at,
            device: device.to_string(),
            from,
            to,
            reason,
        });
    }

    /// Record one execution outcome for a device at the given clock reading.
    /// Returns the action (cordon / uncordon) the caller must apply, if any.
    pub fn record_outcome(&mut self, device: &str, failed: bool, at: u64) -> Option<BreakerAction> {
        let config = self.config;
        let breaker = self
            .breakers
            .entry(device.to_string())
            .or_insert_with(DeviceBreaker::new);
        match breaker.state {
            BreakerState::Closed => {
                breaker.push_outcome(failed, config.window);
                if !failed {
                    return None;
                }
                let run_trip = config.consecutive_failures > 0
                    && breaker.consecutive >= config.consecutive_failures;
                let rate_trip = breaker.outcomes.len() >= config.window as usize
                    && breaker.failure_rate() >= config.failure_rate;
                if run_trip || rate_trip {
                    let cause = if run_trip {
                        format!("{} consecutive failures", breaker.consecutive)
                    } else {
                        format!(
                            "failure rate {:.2} over the last {} jobs",
                            breaker.failure_rate(),
                            breaker.outcomes.len()
                        )
                    };
                    let until = at.saturating_add(config.open_ticks);
                    self.transition(device, at, BreakerState::Open { until }, cause);
                    return Some(BreakerAction::Cordon);
                }
                None
            }
            BreakerState::HalfOpen { successes } => {
                breaker.push_outcome(failed, config.window);
                if failed {
                    let until = at.saturating_add(config.open_ticks);
                    self.transition(
                        device,
                        at,
                        BreakerState::Open { until },
                        "probe failed".to_string(),
                    );
                    Some(BreakerAction::Cordon)
                } else if successes + 1 >= config.probe_jobs {
                    self.transition(
                        device,
                        at,
                        BreakerState::Closed,
                        format!("{} probes passed", successes + 1),
                    );
                    // The device was already uncordoned when probation
                    // began; closing changes bookkeeping only.
                    None
                } else {
                    breaker.state = BreakerState::HalfOpen {
                        successes: successes + 1,
                    };
                    None
                }
            }
            // A cordoned device should not be executing, but recovery replay
            // may deliver a straggler outcome; it neither trips nor heals.
            BreakerState::Open { .. } => None,
        }
    }

    /// Advance the board to the given clock reading: every `Open` breaker
    /// whose interval elapsed moves to `HalfOpen`. Returns the devices to
    /// uncordon for probation, in name order.
    pub fn tick(&mut self, now: u64) -> Vec<String> {
        let due = due_by(&self.open, now);
        for device in &due {
            self.transition(
                device,
                now,
                BreakerState::HalfOpen { successes: 0 },
                "open interval elapsed; probing".to_string(),
            );
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> BreakerBoard {
        BreakerBoard::new(BreakerConfig {
            consecutive_failures: 3,
            failure_rate: 2.0, // rate trigger disabled
            window: 8,
            open_ticks: 5,
            probe_jobs: 2,
        })
    }

    #[test]
    fn consecutive_failures_trip_and_probation_closes() {
        let mut board = board();
        assert_eq!(board.record_outcome("dev", true, 1), None);
        assert_eq!(board.record_outcome("dev", true, 2), None);
        assert_eq!(
            board.record_outcome("dev", true, 3),
            Some(BreakerAction::Cordon)
        );
        assert_eq!(board.state("dev"), BreakerState::Open { until: 8 });
        assert_eq!(board.trip_count("dev"), 1);

        // Too early: still open.
        assert!(board.tick(7).is_empty());
        // Timer expiry → probation, device uncordoned.
        assert_eq!(board.tick(8), vec!["dev".to_string()]);
        assert_eq!(board.state("dev"), BreakerState::HalfOpen { successes: 0 });

        // Two successful probes close the breaker.
        assert_eq!(board.record_outcome("dev", false, 9), None);
        assert_eq!(board.record_outcome("dev", false, 10), None);
        assert_eq!(board.state("dev"), BreakerState::Closed);
        // The log captured every transition.
        let kinds: Vec<(&str, &str)> = board
            .events()
            .iter()
            .map(|e| (e.from.name(), e.to.name()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("closed", "open"),
                ("open", "half-open"),
                ("half-open", "closed")
            ]
        );
    }

    #[test]
    fn probe_failure_reopens() {
        let mut board = board();
        for t in 1..=3 {
            board.record_outcome("dev", true, t);
        }
        board.tick(8);
        assert_eq!(
            board.record_outcome("dev", true, 9),
            Some(BreakerAction::Cordon)
        );
        assert_eq!(board.state("dev"), BreakerState::Open { until: 14 });
        assert_eq!(board.trip_count("dev"), 2);
    }

    #[test]
    fn failure_rate_trips_once_window_fills() {
        let mut board = BreakerBoard::new(BreakerConfig {
            consecutive_failures: 0, // run trigger disabled
            failure_rate: 0.5,
            window: 4,
            open_ticks: 3,
            probe_jobs: 1,
        });
        // Alternating outcomes: rate 0.5 but window not yet full.
        assert_eq!(board.record_outcome("dev", true, 1), None);
        assert_eq!(board.record_outcome("dev", false, 2), None);
        assert_eq!(board.record_outcome("dev", true, 3), None);
        // Window fills at rate 0.5 ≥ 0.5 — but the last outcome must be a
        // failure to trip (successes never trip).
        assert_eq!(board.record_outcome("dev", false, 4), None);
        assert_eq!(
            board.record_outcome("dev", true, 5),
            Some(BreakerAction::Cordon)
        );
    }

    #[test]
    fn health_penalty_tracks_state() {
        let mut board = board();
        assert_eq!(board.health_penalty("dev"), 0.0);
        board.record_outcome("dev", true, 1);
        board.record_outcome("dev", false, 2);
        assert_eq!(board.health_penalty("dev"), 0.5, "1 failure of 2 outcomes");
        board.record_outcome("dev", true, 3);
        board.record_outcome("dev", true, 4);
        board.record_outcome("dev", true, 5);
        assert_eq!(board.health_penalty("dev"), 1.0, "open");
        board.tick(10);
        assert_eq!(board.health_penalty("dev"), 0.5, "probing");
    }

    #[test]
    fn outcomes_while_open_are_inert() {
        let mut board = board();
        for t in 1..=3 {
            board.record_outcome("dev", true, t);
        }
        let trips = board.trip_count("dev");
        assert_eq!(board.record_outcome("dev", true, 4), None);
        assert_eq!(board.record_outcome("dev", false, 5), None);
        assert_eq!(board.trip_count("dev"), trips);
        assert!(matches!(board.state("dev"), BreakerState::Open { .. }));
    }
}
