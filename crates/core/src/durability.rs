//! Durable, crash-recoverable orchestrator state: the domain layer over the
//! `qrio-journal` write-ahead log.
//!
//! The paper's QRIO deployment inherits crash recovery from Kubernetes' etcd;
//! this reproduction provides the same guarantee natively. When durability is
//! enabled ([`crate::Qrio::enable_durability`]), every successful mutation of
//! the orchestrator is appended to an on-disk journal *after* it is applied
//! in memory and *before* it is acknowledged to the caller. Recovery
//! ([`crate::Qrio::recover`]) rebuilds the orchestrator to its exact
//! pre-crash state by restoring the most recent snapshot and replaying the
//! command tail.
//!
//! # Record kinds
//!
//! The journal carries two record kinds, both at [`RECORD_VERSION`]:
//!
//! * [`RECORD_COMMAND`] — one journaled mutation ([`Command`]), e.g. a tick,
//!   an enqueue, a cancellation, followed by what it left in the watch log:
//!   the log's length after it and the [`events_digest`] of the events it
//!   appended ([`CommandRecord`]). Replayed verbatim during recovery, which
//!   checks both after every command — the watch log itself is derived
//!   state, so it is written only inside snapshots.
//! * [`RECORD_SNAPSHOT`] — the full orchestrator state. The payload begins
//!   with a `u64` event cursor (the length of the watch log at snapshot
//!   time) and goes on with the stores themselves, in [`SnapshotState`]
//!   field order: lifecycle store, cluster, meta server, runner seed,
//!   configuration, breaker board, service model. Each store is its own stored form:
//!   [`crate::Qrio::snapshot_record`] encodes the live ones from borrows,
//!   and recovery — which starts from the last snapshot in the log — moves
//!   the decoded ones into the new orchestrator.
//!
//! # Snapshot cadence
//!
//! Each command is appended with one write. After it, an automatic snapshot
//! is due when at least [`DurabilityConfig::snapshot_every`] commands *and*
//! at least the previous snapshot's framed size in command bytes have been
//! journaled since that snapshot. A snapshot costs the whole retained state,
//! so the byte condition is what amortises it: the snapshots that have been
//! superseded never outweigh the log they summarise (file ≤ 2 × log + one
//! snapshot), total snapshot work is O(bytes journaled), and recovery
//! replays at most one snapshot's worth of log. Recovery restores the three
//! counters from the file it scanned, so a recovered instance snapshots
//! where the crashed one would have.
//!
//! # Encoding conventions
//!
//! Every journaled type states its byte format once, beside its definition,
//! as a `qrio_bytes::Encode`/`Decode` impl (little-endian, `f64` by bit
//! pattern, length-prefixed strings, one-byte tags for options and enums);
//! this module only frames those values into records. Backends are embedded
//! as their `backend.spec` text and circuits as their OpenQASM text — both
//! formats round-trip exactly, and keep the journal greppable where it
//! matters most.
//!
//! # What is *not* journaled
//!
//! Custom ranking strategies and admission gates are live trait objects and
//! cannot be serialized. Recovery accepts a setup hook
//! ([`crate::Qrio::recover_with`]) that re-registers them before replay; a
//! deployment that installs either must recover through that hook.

use std::error::Error;
use std::fmt;

use qrio_bytes::{codec_enum, codec_struct, fnv1a, from_bytes, to_bytes, ByteReader, CodecError};
use qrio_cluster::{Cluster, FaultInjector, Resources};
use qrio_journal::{Journal, JournalError, Record};
use qrio_meta::{DeviceTelemetry, MetaServer};

use crate::breaker::{BreakerBoard, BreakerConfig};
use crate::lifecycle::{JobEvent, LifecycleStore, ServiceModel};
use crate::visualizer::JobRequest;

/// Record kind: one journaled orchestrator mutation ([`CommandRecord`]).
/// Kind 2 held the watch-log events a command produced until version 5.
pub const RECORD_COMMAND: u8 = 1;
/// Record kind: a full orchestrator state snapshot.
pub const RECORD_SNAPSHOT: u8 = 3;
/// The payload version this build reads and writes for all record kinds.
/// Version 2 added fault-tolerance state: retry policies and deadlines on
/// job specs and requests, the `Retrying` lifecycle state, per-job attempt
/// counters, the dead-letter queue, circuit-breaker boards, telemetry
/// health penalties, and the fault-injection / breaker / retry commands.
/// Version 3 added service time — the service model in snapshots and its
/// `ConfigureService` command, what each device is serving and has served —
/// and a node's breaker hold beside its cordon; it dropped the cluster's
/// submission queue and the `KickRetry` / `Probe` commands (tags 15 and 17
/// stay unused). Version 4 replaced a cluster job's phase with the node
/// holding its reservation, and its logs no longer carry a line per phase.
/// Version 5 typed a transition's cause (a job's failure is kept there
/// alone), dropped the events record and ended each command record with the
/// watch log's length and digest. Version 6 keeps an image as its name (the
/// files are rendered from the job's spec), the cluster's event log as node
/// events only, and a scheduling decision's skipped devices beside its
/// filtered-out ones.
pub const RECORD_VERSION: u16 = 6;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors surfaced by the durability layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DurabilityError {
    /// The underlying journal failed (I/O, bad header, oversized record).
    Journal(JournalError),
    /// A record payload failed to decode.
    Codec(CodecError),
    /// A payload decoded structurally but held an invalid domain value
    /// (unparsable backend spec or QASM text, unknown enum tag).
    Malformed(String),
    /// The journal holds no snapshot record, so there is nothing to recover
    /// from.
    NoSnapshot,
    /// A record kind/version combination this build does not understand.
    UnsupportedRecord {
        /// The record's kind byte.
        kind: u8,
        /// The record's payload version.
        version: u16,
    },
    /// Replaying a command did not leave the watch log the journal says it
    /// left — the journal and the code (or setup) replaying it disagree.
    ReplayDivergence(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Journal(err) => write!(f, "journal error: {err}"),
            DurabilityError::Codec(err) => write!(f, "record codec error: {err}"),
            DurabilityError::Malformed(detail) => write!(f, "malformed journal payload: {detail}"),
            DurabilityError::NoSnapshot => {
                write!(f, "the journal holds no snapshot to recover from")
            }
            DurabilityError::UnsupportedRecord { kind, version } => write!(
                f,
                "unsupported journal record: kind {kind} version {version} \
                 (this build supports version {RECORD_VERSION})"
            ),
            DurabilityError::ReplayDivergence(detail) => {
                write!(f, "replay diverged from the journaled history: {detail}")
            }
        }
    }
}

impl Error for DurabilityError {}

impl From<JournalError> for DurabilityError {
    fn from(err: JournalError) -> Self {
        DurabilityError::Journal(err)
    }
}

impl From<CodecError> for DurabilityError {
    fn from(err: CodecError) -> Self {
        match err {
            CodecError::Malformed(detail) => DurabilityError::Malformed(detail),
            other => DurabilityError::Codec(other),
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration and recovery reporting
// ---------------------------------------------------------------------------

/// Configuration for [`crate::Qrio::enable_durability`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// The fewest journaled commands between two automatic snapshots
    /// (`0` = only the genesis snapshot, never again). A snapshot is written
    /// once this many commands have been journaled since the last one *and*
    /// the command records appended since then weigh at least as much as
    /// that snapshot did. The byte condition keeps the cost amortised —
    /// superseded snapshots never outweigh the log they summarise, so the
    /// file stays within 2 × log + one snapshot and recovery replays at
    /// most one snapshot's worth of log; this floor
    /// keeps a near-empty deployment from snapshotting on every command.
    /// [`crate::Qrio::snapshot_now`] takes one regardless.
    pub snapshot_every: u64,
    /// Force the journal down to the storage device (`fdatasync`) after this
    /// many journaled commands (`0` = never automatically; only explicit
    /// [`crate::Qrio::sync_journal`] calls sync). Every command is still
    /// write-through to the OS before it is acknowledged — batching the
    /// sync trades power-loss durability of the last `n-1` commands for
    /// fewer device flushes; no acknowledged command is ever lost to a mere
    /// process crash.
    pub sync_every_n_commands: u64,
    /// Compact the journal after writing a snapshot whenever the file has
    /// grown beyond this many bytes (`0` = never compact). Compaction drops
    /// every record before the just-written snapshot in a torn-tail-safe
    /// rewrite (temp file + fsync + atomic rename); recovery from a
    /// compacted journal is byte-identical to recovery from the uncompacted
    /// one, because replay never needs records older than the last snapshot.
    /// It runs only when a snapshot is written, so the file may exceed the
    /// threshold by up to one snapshot interval (see
    /// [`DurabilityConfig::snapshot_every`]).
    pub compact_above_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            snapshot_every: 64,
            sync_every_n_commands: 0,
            compact_above_bytes: 0,
        }
    }
}

/// What [`crate::Qrio::recover`] did, in deterministic (byte-reproducible)
/// terms: two recoveries of the same journal render identical reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Watch-log length at the snapshot recovery started from.
    pub snapshot_cursor: u64,
    /// Commands replayed after the snapshot.
    pub commands_replayed: u64,
    /// Post-snapshot events regenerated by replay. Every command record
    /// carries the watch log's length after it, which replay must meet, so
    /// the journal accounts for each of them — a torn tail loses whole,
    /// unacknowledged commands and nothing else.
    pub events_regenerated: u64,
    /// Torn tail truncated on open, as `(file offset, bytes discarded)`.
    pub torn_tail: Option<(u64, u64)>,
    /// Jobs tracked by the recovered lifecycle store.
    pub jobs: u64,
    /// Of those, jobs already in a terminal state.
    pub terminal_jobs: u64,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "recovery report")?;
        writeln!(f, "  snapshot_cursor    = {}", self.snapshot_cursor)?;
        writeln!(f, "  commands_replayed  = {}", self.commands_replayed)?;
        writeln!(f, "  events_regenerated = {}", self.events_regenerated)?;
        match self.torn_tail {
            Some((offset, trailing)) => writeln!(
                f,
                "  torn_tail          = offset {offset}, {trailing} bytes"
            )?,
            None => writeln!(f, "  torn_tail          = none")?,
        }
        writeln!(f, "  jobs               = {}", self.jobs)?;
        write!(f, "  terminal_jobs      = {}", self.terminal_jobs)
    }
}

/// Where [`crate::Qrio::replay_to`] actually stopped. Commands are atomic, so
/// replay lands on the first command boundary at or after the requested
/// cursor — `reached_cursor` tells the caller which one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayCheckpoint {
    /// The watch-log cursor the caller asked for.
    pub target_cursor: u64,
    /// Watch-log length at the snapshot replay started from — the latest
    /// snapshot at or before the target.
    pub snapshot_cursor: u64,
    /// Commands replayed after that snapshot.
    pub commands_replayed: u64,
    /// Watch-log length where replay stopped: the smallest command boundary
    /// `>= target_cursor`, or the journal's end if the target lies beyond it.
    pub reached_cursor: u64,
}

impl fmt::Display for ReplayCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "replay checkpoint")?;
        writeln!(f, "  target_cursor      = {}", self.target_cursor)?;
        writeln!(f, "  snapshot_cursor    = {}", self.snapshot_cursor)?;
        writeln!(f, "  commands_replayed  = {}", self.commands_replayed)?;
        write!(f, "  reached_cursor     = {}", self.reached_cursor)
    }
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

/// One journaled orchestrator mutation. Replaying the command sequence from a
/// snapshot deterministically reproduces the orchestrator's state: every
/// source of nondeterminism (runner seed, clock, admission order) is part of
/// the snapshot, not the environment. A command is replayed by making the
/// public call its variant names once more, with the journal detached.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// [`crate::Qrio::add_device_with_resources`] — backend as spec text.
    AddDevice {
        /// The device's `backend.spec` serialization.
        spec_text: String,
        /// Classical capacity of the device's node.
        resources: Resources,
    },
    /// [`crate::Qrio::recalibrate_device`] — backend as spec text.
    Recalibrate {
        /// The refreshed `backend.spec` serialization.
        spec_text: String,
    },
    /// [`crate::Qrio::report_telemetry`] with the materialized reports.
    Telemetry {
        /// `(device, telemetry)` pairs, in the order reported.
        reports: Vec<(String, DeviceTelemetry)>,
    },
    /// A successful [`crate::Qrio::enqueue`].
    Enqueue {
        /// The full job request (boxed: it dwarfs every other variant).
        request: Box<JobRequest>,
    },
    /// [`crate::Qrio::cancel`].
    Cancel {
        /// The cancelled job's name.
        job: String,
    },
    /// One [`crate::Qrio::tick`] service cycle.
    Tick,
    /// A forced admission verdict for one straggler (the fixed-point arm of
    /// `run_until_idle` / `submit`).
    ForceAdmit {
        /// The straggler's name.
        job: String,
    },
    /// [`crate::Qrio::schedule`].
    Schedule {
        /// The job to bind.
        job: String,
    },
    /// [`crate::Qrio::execute`].
    Execute {
        /// The job to run.
        job: String,
    },
    /// [`crate::Qrio::rebind`].
    Rebind {
        /// The job to migrate.
        job: String,
        /// The target device.
        target: String,
    },
    /// [`crate::Qrio::cordon_device`].
    Cordon {
        /// The node to cordon.
        node: String,
    },
    /// [`crate::Qrio::uncordon_device`].
    Uncordon {
        /// The node to uncordon.
        node: String,
    },
    /// [`crate::Qrio::heal_devices`].
    Heal,
    /// [`crate::Qrio::configure_faults`] — install or clear the cluster's
    /// deterministic fault injector.
    ConfigureFaults {
        /// The injector to install, or `None` to clear it.
        injector: Option<FaultInjector>,
    },
    /// [`crate::Qrio::configure_breakers`] — install or clear the per-device
    /// circuit-breaker board (installing resets all breaker state).
    ConfigureBreakers {
        /// The breaker thresholds, or `None` to remove the board.
        config: Option<BreakerConfig>,
    },
    /// [`crate::Qrio::interrupt`] — fail a `Scheduled` job, or the one a
    /// device is serving, with a device flap, as a mid-run outage would.
    Interrupt {
        /// The job to interrupt.
        job: String,
    },
    /// [`crate::Qrio::advance_to`] — move the clock and fire what is due.
    AdvanceTo {
        /// The time the clock was moved to.
        now: u64,
    },
    /// [`crate::Qrio::configure_service`] — install or clear the service
    /// model.
    ConfigureService {
        /// How long each device serves a job, or `None` to run jobs at once.
        model: Option<ServiceModel>,
    },
}

codec_enum!(Command {
    0 => AddDevice { spec_text, resources },
    1 => Recalibrate { spec_text },
    2 => Telemetry { reports },
    3 => Enqueue { request },
    4 => Cancel { job },
    5 => Tick,
    6 => ForceAdmit { job },
    7 => Schedule { job },
    8 => Execute { job },
    9 => Rebind { job, target },
    10 => Cordon { node },
    11 => Uncordon { node },
    12 => Heal,
    13 => ConfigureFaults { injector },
    14 => ConfigureBreakers { config },
    16 => Interrupt { job },
    18 => AdvanceTo { now },
    19 => ConfigureService { model },
});

/// The full orchestrator state captured by a snapshot record: the stores
/// themselves, ready to be moved into a recovered [`crate::Qrio`]. Opaque
/// outside the crate except for its [cursor](SnapshotState::cursor).
#[derive(Debug)]
pub struct SnapshotState {
    /// Watch-log length at snapshot time (`lifecycle.events.len()`).
    pub(crate) cursor: u64,
    pub(crate) lifecycle: LifecycleStore,
    pub(crate) cluster: Cluster,
    pub(crate) meta: MetaServer,
    pub(crate) runner_seed: u64,
    pub(crate) default_node_resources: Resources,
    pub(crate) snapshot_every: u64,
    pub(crate) sync_every: u64,
    pub(crate) compact_above: u64,
    pub(crate) breakers: Option<BreakerBoard>,
    pub(crate) service: Option<ServiceModel>,
}

codec_struct!(SnapshotState {
    cursor,
    lifecycle,
    cluster,
    meta,
    runner_seed,
    default_node_resources,
    snapshot_every,
    sync_every,
    compact_above,
    breakers,
    service,
});

impl SnapshotState {
    /// Watch-log length at snapshot time.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

// ---------------------------------------------------------------------------
// Record-level encode / decode (public: the analyzer lints over these)
// ---------------------------------------------------------------------------

/// What a [`RECORD_COMMAND`] record holds: the command, and what it left in
/// the watch log, which replay must leave there too.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRecord {
    /// The journaled mutation.
    pub command: Command,
    /// The watch log's length after the command.
    pub events_after: u64,
    /// The [`events_digest`] of the events the command appended.
    pub digest: u64,
}

codec_struct!(CommandRecord {
    command,
    events_after,
    digest,
});

impl CommandRecord {
    /// Frame the record for the journal.
    pub fn to_record(&self) -> Record {
        Record::new(RECORD_COMMAND, RECORD_VERSION, to_bytes(self))
    }
}

/// fnv1a over the encoded `events`: how a command record names the events
/// its command appended to the watch log.
pub fn events_digest(events: &[JobEvent]) -> u64 {
    fnv1a(to_bytes(events))
}

/// One decoded journal record.
#[derive(Debug)]
pub enum JournalEntry {
    /// A [`RECORD_COMMAND`] record.
    Command(CommandRecord),
    /// A [`RECORD_SNAPSHOT`] record (boxed: it dwarfs the other variant).
    Snapshot(Box<SnapshotState>),
}

/// Decode one journal record: check its version, dispatch on its kind and
/// fully decode its payload. Recovery, the time-travel inspector and the
/// journal lints all read records through here.
///
/// # Errors
///
/// [`DurabilityError::UnsupportedRecord`] for a version other than
/// [`RECORD_VERSION`] or an unknown kind; a codec error when the payload is
/// truncated, carries trailing bytes or holds an invalid value.
pub fn decode_record(record: &Record) -> Result<JournalEntry, DurabilityError> {
    let unsupported = DurabilityError::UnsupportedRecord {
        kind: record.kind,
        version: record.version,
    };
    if record.version != RECORD_VERSION {
        return Err(unsupported);
    }
    match record.kind {
        RECORD_COMMAND => decode_command(&record.payload).map(JournalEntry::Command),
        RECORD_SNAPSHOT => Ok(JournalEntry::Snapshot(from_bytes(&record.payload)?)),
        _ => Err(unsupported),
    }
}

/// Encode a [`Command`] as the framed record of a command that leaves the
/// watch log empty, as one issued before any job was enqueued does — a
/// well-formed record for tools and benchmarks without an orchestrator. A
/// durable [`crate::Qrio`] writes [`CommandRecord::to_record`] with the log
/// its command really left.
pub fn encode_command_record(cmd: &Command) -> Record {
    let record = CommandRecord {
        command: cmd.clone(),
        events_after: 0,
        digest: events_digest(&[]),
    };
    record.to_record()
}

/// Decode the payload of a [`RECORD_COMMAND`] record.
///
/// # Errors
///
/// Returns a codec error on truncated or trailing bytes and a
/// [`DurabilityError::Codec`] invalid-tag error on unknown command tags.
pub fn decode_command(payload: &[u8]) -> Result<CommandRecord, DurabilityError> {
    Ok(from_bytes(payload)?)
}

/// Read the event cursor a [`RECORD_SNAPSHOT`] payload starts with — the
/// watch-log length at snapshot time — without decoding the rest.
///
/// # Errors
///
/// Returns a codec error when the payload is shorter than the cursor.
pub fn snapshot_cursor(payload: &[u8]) -> Result<u64, DurabilityError> {
    Ok(ByteReader::new(payload).take_u64()?)
}

// ---------------------------------------------------------------------------
// The attached journal
// ---------------------------------------------------------------------------

/// The journaling half of a durable [`crate::Qrio`]: owns the open journal,
/// tracks how much of the watch log the journal accounts for, counts
/// commands and log bytes toward the next snapshot, and turns the first I/O
/// failure into a sticky poison so the in-memory state can never silently
/// outrun the log.
#[derive(Debug)]
pub(crate) struct Durability {
    journal: Journal,
    config: DurabilityConfig,
    commands_since_snapshot: u64,
    /// Framed bytes of the command records appended since the last snapshot.
    log_bytes_since_snapshot: u64,
    /// Framed bytes of the last snapshot record.
    last_snapshot_bytes: u64,
    commands_since_sync: u64,
    /// The watch log's length when the last command was journaled (or the
    /// journal attached): the next command record digests what follows.
    journaled_events: u64,
    error: Option<DurabilityError>,
}

impl Durability {
    pub(crate) fn new(journal: Journal, config: DurabilityConfig, journaled_events: u64) -> Self {
        Durability {
            journal,
            config,
            commands_since_snapshot: 0,
            log_bytes_since_snapshot: 0,
            last_snapshot_bytes: 0,
            commands_since_sync: 0,
            journaled_events,
            error: None,
        }
    }

    /// Continue the snapshot cadence of the run that wrote the journal:
    /// `commands` command records and `log_bytes` framed bytes follow the
    /// snapshot recovery started from, which itself is `snapshot_bytes`
    /// framed. Without this a recovered instance would take its next
    /// snapshot at a different command than the crashed one would have.
    pub(crate) fn resume_cadence(&mut self, commands: u64, log_bytes: u64, snapshot_bytes: u64) {
        self.commands_since_snapshot = commands;
        self.log_bytes_since_snapshot = log_bytes;
        self.last_snapshot_bytes = snapshot_bytes;
    }

    pub(crate) fn config(&self) -> DurabilityConfig {
        self.config
    }

    pub(crate) fn error(&self) -> Option<&DurabilityError> {
        self.error.as_ref()
    }

    /// Run one journal operation under the sticky poison: refused with the
    /// remembered error once the journal has failed, and the first failure is
    /// what gets remembered.
    fn guarded(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<(), DurabilityError>,
    ) -> Result<(), DurabilityError> {
        if let Some(err) = &self.error {
            return Err(err.clone());
        }
        let result = op(self);
        // Not poisoned on entry, so a failure here is the first.
        self.error = result.as_ref().err().cloned();
        result
    }

    /// Append the record of one command — with the length of the watch log
    /// it left and the digest of the events it appended — then flush.
    pub(crate) fn log_command(
        &mut self,
        command: Command,
        all_events: &[JobEvent],
    ) -> Result<(), DurabilityError> {
        self.guarded(|this| {
            let appended = all_events.get(this.journaled_events as usize..);
            let record = CommandRecord {
                command,
                events_after: all_events.len() as u64,
                digest: events_digest(appended.unwrap_or_default()),
            };
            let framed = record.to_record();
            this.journal.append(&framed)?;
            this.log_bytes_since_snapshot += framed.framed_len();
            this.journaled_events = record.events_after;
            this.journal.flush()?;
            this.commands_since_snapshot += 1;
            // Batched fdatasync: every command is already write-through to the
            // OS (flush above), so a process crash loses nothing acknowledged;
            // the periodic sync additionally bounds what power loss could lose.
            if this.config.sync_every_n_commands > 0 {
                this.commands_since_sync += 1;
                if this.commands_since_sync >= this.config.sync_every_n_commands {
                    this.journal.sync()?;
                    this.commands_since_sync = 0;
                }
            }
            Ok(())
        })
    }

    /// The amortised rule: a snapshot is due once at least `snapshot_every`
    /// commands *and* at least the last snapshot's own size in log bytes
    /// have been journaled since it. The second condition keeps superseded
    /// snapshots from ever outweighing the log they summarise, whatever the
    /// ratio of state size to command size.
    pub(crate) fn snapshot_due(&self) -> bool {
        self.error.is_none()
            && self.config.snapshot_every > 0
            && self.commands_since_snapshot >= self.config.snapshot_every
            && self.log_bytes_since_snapshot >= self.last_snapshot_bytes
    }

    /// Append a snapshot record, reset the cadence counters and remember
    /// the record's size. When the journal has outgrown
    /// [`DurabilityConfig::compact_above_bytes`], the records made obsolete
    /// by this snapshot are compacted away — recovery never reads past the
    /// last snapshot, so replay is unaffected.
    pub(crate) fn log_snapshot(&mut self, snapshot: &Record) -> Result<(), DurabilityError> {
        self.guarded(|this| {
            let snapshot_offset = this.journal.byte_len()?;
            this.journal.append(snapshot)?;
            this.journal.flush()?;
            let limit = this.config.compact_above_bytes;
            if limit > 0 && this.journal.byte_len()? > limit {
                this.journal.compact(snapshot_offset)?;
            }
            this.commands_since_snapshot = 0;
            this.log_bytes_since_snapshot = 0;
            this.last_snapshot_bytes = snapshot.framed_len();
            Ok(())
        })
    }

    /// Force the journal down to the storage device (`fdatasync`).
    pub(crate) fn sync(&mut self) -> Result<(), DurabilityError> {
        self.guarded(|this| {
            this.journal.sync()?;
            this.commands_since_sync = 0;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use crate::lifecycle::{JobId, JobState};
    use qrio_backend::spec as backend_spec;
    use qrio_cluster::{
        BackoffPolicy, ClusterError, DeviceRequirements, FaultKind, RetryOn, RetryPolicy,
        StrategySpec,
    };
    use qrio_sim::ParallelConfig;

    fn sample_request() -> JobRequest {
        JobRequest {
            job_name: "bv".into(),
            image_name: "qrio/bv:latest".into(),
            qasm: "OPENQASM 2.0;\n".into(),
            num_qubits: 5,
            resources: Resources::new(500, 256),
            requirements: DeviceRequirements {
                min_qubits: Some(5),
                max_two_qubit_error: Some(0.05),
                max_readout_error: None,
                min_t1_us: Some(80.0),
                min_t2_us: None,
            },
            strategy: StrategySpec::fidelity(0.9),
            priority: 3,
            shots: 256,
            parallel: ParallelConfig::with_threads(2),
            retry: Some(RetryPolicy {
                max_attempts: 3,
                backoff: BackoffPolicy::Exponential {
                    base: 2,
                    max: 32,
                    jitter: true,
                },
                retry_on: RetryOn::faults_only(),
            }),
            deadline: Some(120),
        }
    }

    fn sample_event(seq: u64) -> JobEvent {
        JobEvent {
            seq,
            at: seq / 2,
            job: JobId::new("bv"),
            from: if seq == 0 {
                None
            } else {
                Some(JobState::Queued)
            },
            to: JobState::Scheduled,
            node: Some("clean".into()),
            cause: None,
        }
    }

    #[test]
    fn every_command_variant_round_trips() {
        let backend =
            qrio_backend::Backend::uniform("dev", qrio_backend::topology::line(3), 0.01, 0.02);
        let commands = vec![
            Command::AddDevice {
                spec_text: backend_spec::to_spec(&backend),
                resources: Resources::new(4000, 8192),
            },
            Command::Recalibrate {
                spec_text: backend_spec::to_spec(&backend),
            },
            Command::Telemetry {
                reports: vec![(
                    "dev".into(),
                    DeviceTelemetry {
                        queue_depth: 3,
                        utilization: 0.75,
                        health_penalty: 0.25,
                    },
                )],
            },
            Command::Enqueue {
                request: Box::new(sample_request()),
            },
            Command::Cancel { job: "bv".into() },
            Command::Tick,
            Command::ForceAdmit { job: "bv".into() },
            Command::Schedule { job: "bv".into() },
            Command::Execute { job: "bv".into() },
            Command::Rebind {
                job: "bv".into(),
                target: "dev".into(),
            },
            Command::Cordon { node: "dev".into() },
            Command::Uncordon { node: "dev".into() },
            Command::Heal,
            Command::ConfigureFaults {
                injector: Some(FaultInjector {
                    seed: 7,
                    transient_rate: 0.25,
                    calibration_rate: 0.1,
                    slow_rate: 0.05,
                    flap_rate: 0.02,
                }),
            },
            Command::ConfigureFaults { injector: None },
            Command::ConfigureBreakers {
                config: Some(BreakerConfig::default()),
            },
            Command::ConfigureBreakers { config: None },
            Command::Interrupt { job: "bv".into() },
            Command::AdvanceTo { now: 1_500 },
            Command::ConfigureService {
                model: Some(ServiceModel {
                    base_us: 20_000,
                    per_shot_us: 400,
                    speeds: [("dev".to_string(), 1.5)].into(),
                }),
            },
            Command::ConfigureService { model: None },
        ];
        for cmd in commands {
            let record = encode_command_record(&cmd);
            assert_eq!(record.kind, RECORD_COMMAND);
            assert_eq!(record.version, RECORD_VERSION);
            let decoded = decode_command(&record.payload).unwrap();
            assert_eq!(decoded.command, cmd);
            assert_eq!(
                (decoded.events_after, decoded.digest),
                (0, events_digest(&[]))
            );
            // Byte-identical fixed point.
            assert_eq!(decoded.to_record().payload, record.payload);
        }
    }

    #[test]
    fn events_round_trip_and_cursor_reads() {
        let events = vec![sample_event(0), sample_event(7)];
        let bytes = to_bytes(&events);
        assert_eq!(from_bytes::<Vec<JobEvent>>(&bytes).unwrap(), events);
        assert_eq!(events_digest(&events), fnv1a(bytes));
        assert_ne!(events_digest(&events), events_digest(&events[..1]));

        // Trailing bytes are fine for cursor reads.
        let snap_payload = to_bytes(&(42u64, 0xFFu8));
        assert_eq!(snapshot_cursor(&snap_payload).unwrap(), 42);
        assert!(snapshot_cursor(&[1, 2]).is_err());
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        // 15 and 17 were `KickRetry` and `Probe`: retired, never reused.
        for tag in [15, 17, 200] {
            assert!(matches!(
                decode_command(&[tag]),
                Err(DurabilityError::Codec(CodecError::InvalidTag { .. }))
            ));
        }
    }

    #[test]
    fn cluster_error_variants_round_trip() {
        let errors = vec![
            ClusterError::DuplicateNode("a".into()),
            ClusterError::UnknownNode("b".into()),
            ClusterError::DuplicateJob("c".into()),
            ClusterError::UnknownJob("d".into()),
            ClusterError::ImageNotFound("e".into()),
            ClusterError::BindingRejected {
                job: "j".into(),
                node: "n".into(),
                reason: "full".into(),
            },
            ClusterError::Unschedulable {
                job: "j".into(),
                reason: "no device".into(),
            },
            ClusterError::SpecParse {
                line: 7,
                message: "bad".into(),
            },
            ClusterError::ExecutionFailed {
                job: "j".into(),
                reason: "boom".into(),
            },
            ClusterError::PhaseConflict {
                job: "j".into(),
                action: "cancel".into(),
                phase: "Running".into(),
            },
            ClusterError::InjectedFault {
                job: "j".into(),
                node: "n".into(),
                kind: FaultKind::CalibrationGlitch,
                attempt: 2,
            },
            ClusterError::DeadlineExceeded {
                job: "j".into(),
                deadline: 44,
            },
        ];
        for err in errors {
            assert_eq!(from_bytes::<ClusterError>(&to_bytes(&err)).unwrap(), err);
        }
    }

    #[test]
    fn breaker_board_round_trips_mid_probation() {
        let mut board = BreakerBoard::new(BreakerConfig {
            consecutive_failures: 2,
            failure_rate: 0.5,
            window: 4,
            open_ticks: 6,
            probe_jobs: 3,
        });
        board.record_outcome("flaky", true, 1);
        board.record_outcome("flaky", true, 2); // trips
        board.record_outcome("steady", false, 3);
        board.tick(8); // flaky → half-open
        board.record_outcome("flaky", false, 9); // one probe passed

        let board = Some(board);
        let decoded: Option<BreakerBoard> = from_bytes(&to_bytes(&board)).unwrap();
        assert_eq!(decoded, board);
        let decoded = decoded.unwrap();
        assert_eq!(
            decoded.state("flaky"),
            BreakerState::HalfOpen { successes: 1 }
        );
        assert_eq!(decoded.trip_count("flaky"), 1);

        // And the absent board is one byte.
        let bytes = to_bytes(&None::<BreakerBoard>);
        assert_eq!(bytes, [0]);
        assert_eq!(from_bytes::<Option<BreakerBoard>>(&bytes).unwrap(), None);
    }

    #[test]
    fn display_is_informative() {
        assert!(DurabilityError::NoSnapshot.to_string().contains("snapshot"));
        assert!(DurabilityError::UnsupportedRecord {
            kind: 9,
            version: 3
        }
        .to_string()
        .contains("kind 9"));
        assert!(DurabilityError::ReplayDivergence("seq 4".into())
            .to_string()
            .contains("seq 4"));
    }
}
