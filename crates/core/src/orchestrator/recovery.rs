//! The journal side of [`Qrio`]: attaching and detaching durability, the one
//! place a [`Command`] is written, snapshots, and rebuilding an orchestrator
//! from a journal — for good ([`Qrio::recover`]) or to look at a moment of
//! its history ([`Qrio::replay_to`], [`Qrio::describe_state`]).

use std::path::Path;

use qrio_backend::spec as backend_spec;
use qrio_bytes::{ByteWriter, Encode};
use qrio_journal::{scan_file, Journal, Record};

use super::Qrio;
use crate::control::ControlPlane;
use crate::durability::{
    self, events_digest, Command, CommandRecord, Durability, DurabilityConfig, DurabilityError,
    JournalEntry, RecoveryReport, ReplayCheckpoint, SnapshotState, RECORD_SNAPSHOT, RECORD_VERSION,
};
use crate::error::QrioError;
use crate::lifecycle::JobId;
use crate::runner::SimJobRunner;

/// The latest snapshot whose cursor does not exceed `at_most`, with its
/// record index. Cursors only grow along the journal, so the search runs from
/// the back and decodes no more snapshots than it must.
fn latest_snapshot(
    records: &[Record],
    at_most: u64,
) -> Result<(usize, SnapshotState), DurabilityError> {
    for (index, record) in records.iter().enumerate().rev() {
        if record.kind != RECORD_SNAPSHOT {
            continue;
        }
        if let JournalEntry::Snapshot(snapshot) = durability::decode_record(record)? {
            if snapshot.cursor <= at_most {
                return Ok((index, *snapshot));
            }
        }
    }
    Err(DurabilityError::NoSnapshot)
}

/// An orchestrator rebuilt from a journal's records by [`Qrio::replay`], with
/// what the rebuild read on the way.
struct Replay {
    /// The rebuilt instance; no journal is attached.
    qrio: Qrio,
    /// Index of the snapshot record the rebuild started from.
    snapshot_index: usize,
    /// Watch-log length at that snapshot.
    snapshot_cursor: u64,
    /// The journal configuration that snapshot carried.
    config: DurabilityConfig,
    /// Commands replayed after the snapshot.
    commands_replayed: u64,
    /// Framed bytes of the records read after the snapshot.
    tail_bytes: u64,
}

impl Qrio {
    /// Turn on crash recovery: create a write-ahead journal at `path`
    /// (truncating any previous file there), write a genesis snapshot of the
    /// current state, and from now on journal every mutation before it is
    /// acknowledged. Recover later with [`Qrio::recover`].
    ///
    /// Custom ranking strategies and admission gates are live trait objects
    /// and are **not** journaled — deployments that install them must
    /// re-install them through [`Qrio::recover_with`]'s setup hook.
    ///
    /// # Errors
    ///
    /// Returns an error when durability is already enabled or when the
    /// journal file cannot be created or written.
    pub fn enable_durability(
        &mut self,
        path: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<(), QrioError> {
        if self.durability.is_some() {
            return Err(QrioError::InvalidRequest(
                "durability is already enabled".into(),
            ));
        }
        let journal = Journal::create(path.as_ref()).map_err(DurabilityError::Journal)?;
        let journaled_events = self.lifecycle.events.len() as u64;
        self.durability = Some(Durability::new(journal, config, journaled_events));
        self.write_snapshot()?;
        Ok(())
    }

    /// Detach the journal, returning to in-memory-only operation. Returns
    /// the sticky durability error when the journal had already failed.
    /// The journal file is left on disk and stays recoverable up to the
    /// last successfully journaled command.
    pub fn disable_durability(&mut self) -> Option<DurabilityError> {
        self.durability
            .take()
            .and_then(|durability| durability.error().cloned())
    }

    /// Whether durability is enabled (and the journal has not been
    /// detached).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The sticky journal failure, if any. Infallible journaled operations
    /// ([`Qrio::tick`], [`Qrio::report_telemetry`]) cannot surface a journal
    /// error through their signatures — they poison durability instead, and
    /// this accessor is how a durable deployment notices.
    pub fn durability_error(&self) -> Option<&DurabilityError> {
        self.durability.as_ref().and_then(Durability::error)
    }

    /// Force the journal's bytes down to the storage device (`fdatasync`).
    /// Appends are write-through to the OS on every command, which survives
    /// process crashes; syncing additionally survives power loss. Virtual-
    /// time simulations typically never call this.
    ///
    /// # Errors
    ///
    /// Returns the sticky durability error, or the sync failure.
    pub fn sync_journal(&mut self) -> Result<(), QrioError> {
        match self.durability.as_mut() {
            Some(durability) => Ok(durability.sync()?),
            None => Ok(()),
        }
    }

    /// Write a snapshot record now, regardless of the configured cadence.
    ///
    /// # Errors
    ///
    /// Returns the sticky durability error, or the append failure.
    pub fn snapshot_now(&mut self) -> Result<(), QrioError> {
        self.write_snapshot()?;
        Ok(())
    }

    /// The snapshot record [`Qrio::snapshot_now`] would append: the full
    /// orchestrator state, encoded. Lets tools and tests obtain a well-formed
    /// snapshot without a journal file.
    ///
    /// Writes the fields of [`SnapshotState`], in its order, straight from
    /// the live stores: nothing is copied to be encoded.
    pub fn snapshot_record(&self) -> Record {
        let config = self.durability.as_ref().map(Durability::config);
        let mut w = ByteWriter::new();
        (self.lifecycle.events.len() as u64).encode(&mut w);
        self.lifecycle.encode(&mut w);
        self.cluster.encode(&mut w);
        self.meta.encode(&mut w);
        self.runner.seed.encode(&mut w);
        self.default_node_resources.encode(&mut w);
        config.map_or(0, |c| c.snapshot_every).encode(&mut w);
        config.map_or(0, |c| c.sync_every_n_commands).encode(&mut w);
        config.map_or(0, |c| c.compact_above_bytes).encode(&mut w);
        self.breakers.encode(&mut w);
        self.service.encode(&mut w);
        Record::new(RECORD_SNAPSHOT, RECORD_VERSION, w.into_bytes())
    }

    /// Journal the command a public call just carried out, with what it left
    /// in the watch log, then write a snapshot when the cadence says one is
    /// due. Without durability this is a no-op and `command` is
    /// never run: a `Command` is built only for a journal to write it to —
    /// which is also why replay can re-issue the public calls themselves.
    pub(super) fn journal(&mut self, command: impl FnOnce() -> Command) -> Result<(), QrioError> {
        let Some(durability) = self.durability.as_mut() else {
            return Ok(());
        };
        #[cfg(test)]
        super::tests::COMMANDS_BUILT.with(|built| built.set(built.get() + 1));
        durability.log_command(command(), &self.lifecycle.events)?;
        if durability.snapshot_due() {
            self.write_snapshot()?;
        }
        Ok(())
    }

    fn write_snapshot(&mut self) -> Result<(), DurabilityError> {
        if self.durability.is_none() {
            return Ok(());
        }
        let snapshot = self.snapshot_record();
        match self.durability.as_mut() {
            Some(durability) => durability.log_snapshot(&snapshot),
            None => Ok(()),
        }
    }

    /// Rebuild an orchestrator from a decoded snapshot. No journal is
    /// attached yet; the caller wires that after replay.
    fn from_snapshot(snapshot: SnapshotState) -> Self {
        let mut qrio = Qrio {
            cluster: snapshot.cluster,
            meta: snapshot.meta,
            runner: SimJobRunner::new(snapshot.runner_seed),
            default_node_resources: snapshot.default_node_resources,
            lifecycle: snapshot.lifecycle,
            admission_gate: None,
            durability: None,
            breakers: snapshot.breakers,
            service: snapshot.service,
            control: ControlPlane::new_in_proc(),
        };
        // Snapshots carry no agent state: agents are pure functions of their
        // command streams, so rebuilding them from the restored cluster and
        // re-binding calibration + fault plan reproduces them exactly.
        qrio.bind_agents(true);
        qrio
    }

    /// Re-apply one journaled command during recovery by making the public
    /// call that journaled it; with the journal detached, that call journals
    /// nothing.
    fn apply_command(&mut self, cmd: Command) -> Result<(), DurabilityError> {
        debug_assert!(self.durability.is_none(), "replay journals nothing");
        let backend = |spec_text: &str| {
            backend_spec::from_spec(spec_text)
                .map_err(|err| DurabilityError::Malformed(format!("backend spec: {err}")))
        };
        // What the call returned is deliberately ignored: the original run
        // journaled the command after observing the same deterministic
        // outcome, and the watch-log check after each command catches any
        // true divergence.
        let _: Option<QrioError> = match cmd {
            Command::AddDevice {
                spec_text,
                resources,
            } => self
                .add_device_with_resources(backend(&spec_text)?, resources)
                .err(),
            Command::Recalibrate { spec_text } => {
                self.recalibrate_device(backend(&spec_text)?).err()
            }
            Command::Telemetry { reports } => {
                self.report_telemetry(reports);
                None
            }
            Command::Enqueue { request } => self.enqueue(&request).err(),
            Command::Cancel { job } => self.cancel(&JobId::new(job)).err(),
            Command::Tick => {
                self.tick();
                None
            }
            Command::ForceAdmit { job } => {
                self.force_admit(&job);
                None
            }
            Command::Schedule { job } => self.schedule(&JobId::new(job)).err(),
            Command::Execute { job } => self.execute(&JobId::new(job)).err(),
            Command::Rebind { job, target } => self.rebind(&JobId::new(job), &target).err(),
            Command::Cordon { node } => self.cordon_device(&node).err(),
            Command::Uncordon { node } => self.uncordon_device(&node).err(),
            Command::Heal => self.heal_devices().err(),
            Command::ConfigureFaults { injector } => self.configure_faults(injector).err(),
            Command::ConfigureBreakers { config } => self.configure_breakers(config).err(),
            Command::Interrupt { job } => self.interrupt(&JobId::new(job)).err(),
            Command::AdvanceTo { now } => self.advance_to(now).err(),
            Command::ConfigureService { model } => self.configure_service(model).err(),
        };
        Ok(())
    }

    /// Restore the latest snapshot at or before watch-log cursor `target`,
    /// run `setup` on the restored instance, and replay the records after
    /// the snapshot until the watch log reaches `target` — commands are
    /// atomic, so replay stops at the first command boundary `>=` it, or at
    /// the journal's end. Later snapshots carry no state transitions of
    /// their own. Each replayed command must leave the watch log its record
    /// names: as long, and with the same events appended.
    fn replay(
        records: &[Record],
        target: u64,
        setup: impl FnOnce(&mut Qrio) -> Result<(), QrioError>,
    ) -> Result<Replay, QrioError> {
        let (snapshot_index, snapshot) = latest_snapshot(records, target)?;
        let mut replay = Replay {
            snapshot_index,
            snapshot_cursor: snapshot.cursor,
            config: DurabilityConfig {
                snapshot_every: snapshot.snapshot_every,
                sync_every_n_commands: snapshot.sync_every,
                compact_above_bytes: snapshot.compact_above,
            },
            qrio: Qrio::from_snapshot(snapshot),
            commands_replayed: 0,
            tail_bytes: 0,
        };
        setup(&mut replay.qrio)?;
        for record in &records[snapshot_index + 1..] {
            let before = replay.qrio.lifecycle.events.len();
            if before as u64 >= target {
                break;
            }
            replay.tail_bytes += record.framed_len();
            let JournalEntry::Command(CommandRecord {
                command,
                events_after,
                digest,
            }) = durability::decode_record(record)?
            else {
                continue;
            };
            replay.qrio.apply_command(command)?;
            let events = &replay.qrio.lifecycle.events;
            let (regenerated, replayed) = (events.len() as u64, events_digest(&events[before..]));
            if (regenerated, replayed) != (events_after, digest) {
                let detail = format!(
                    "command {} after the snapshot: the journal holds {events_after} events \
                     (digest {digest:#018x}) after it, replay regenerated {regenerated} \
                     (digest {replayed:#018x})",
                    replay.commands_replayed
                );
                return Err(DurabilityError::ReplayDivergence(detail).into());
            }
            replay.commands_replayed += 1;
        }
        Ok(replay)
    }

    /// Recover an orchestrator from a journal written by
    /// [`Qrio::enable_durability`]: truncate any torn tail, restore the last
    /// snapshot, replay the command tail — checking after each command that
    /// the watch log is what the journal says it was — and re-attach the
    /// journal so the recovered instance keeps journaling where the crashed
    /// one stopped.
    ///
    /// The returned [`RecoveryReport`] is deterministic: recovering the same
    /// journal twice renders byte-identical reports.
    ///
    /// # Errors
    ///
    /// Returns an error when the file is not a journal, holds no snapshot,
    /// contains records this build cannot decode, or when a replayed command
    /// leaves another watch log than the journaled one did.
    pub fn recover(path: impl AsRef<Path>) -> Result<(Qrio, RecoveryReport), QrioError> {
        Qrio::recover_with(path, |_| Ok(()))
    }

    /// [`Qrio::recover`] with a setup hook that runs after the snapshot is
    /// restored and **before** the command tail is replayed. Use it to
    /// re-register custom ranking strategies (and re-install admission
    /// gates) that journaled jobs reference — they are live trait objects
    /// the journal cannot carry.
    ///
    /// # Errors
    ///
    /// As [`Qrio::recover`], plus any error the hook returns.
    pub fn recover_with(
        path: impl AsRef<Path>,
        setup: impl FnOnce(&mut Qrio) -> Result<(), QrioError>,
    ) -> Result<(Qrio, RecoveryReport), QrioError> {
        let (journal, scan) = Journal::open(path.as_ref()).map_err(DurabilityError::Journal)?;
        let Replay {
            mut qrio,
            snapshot_index,
            snapshot_cursor: cursor,
            config,
            commands_replayed,
            tail_bytes,
        } = Qrio::replay(&scan.records, u64::MAX, setup)?;

        // Re-attach the journal: every replayed command met its record, so
        // the journal accounts for the whole regenerated log.
        let journaled_events = qrio.lifecycle.events.len() as u64;
        let mut durability = Durability::new(journal, config, journaled_events);
        durability.resume_cadence(
            commands_replayed,
            tail_bytes,
            scan.records[snapshot_index].framed_len(),
        );
        let report = RecoveryReport {
            snapshot_cursor: cursor,
            commands_replayed,
            events_regenerated: journaled_events - cursor,
            torn_tail: scan.torn.as_ref().map(|torn| (torn.offset, torn.trailing)),
            jobs: qrio.lifecycle.jobs.len() as u64,
            terminal_jobs: qrio
                .lifecycle
                .jobs
                .values()
                .filter(|tracked| tracked.status.state.is_terminal())
                .count() as u64,
        };
        qrio.durability = Some(durability);
        Ok((qrio, report))
    }

    /// Time-travel inspection: rebuild the orchestrator state as of a
    /// watch-log cursor, without attaching durability to the result.
    ///
    /// Starts from the latest journaled snapshot at or before `cursor` and
    /// replays commands until the watch log reaches it. Commands are atomic,
    /// so replay stops at the first command boundary `>=` the target (the
    /// [`ReplayCheckpoint`] records where it actually landed); a cursor past
    /// the journal's end replays everything. The returned instance is a
    /// read-only replica of history — it is live and can be driven forward,
    /// but nothing it does is journaled.
    ///
    /// # Errors
    ///
    /// As [`Qrio::recover`], plus [`DurabilityError::NoSnapshot`] when every
    /// journaled snapshot lies *after* the requested cursor (compaction may
    /// have dropped the history that covered it).
    pub fn replay_to(
        path: impl AsRef<Path>,
        cursor: u64,
    ) -> Result<(Qrio, ReplayCheckpoint), QrioError> {
        // Read-only: unlike `Journal::open`, scanning leaves a torn tail in
        // place for `recover` to deal with.
        let scan = scan_file(path.as_ref()).map_err(DurabilityError::Journal)?;
        let replay = Qrio::replay(&scan.records, cursor, |_| Ok(()))?;
        let checkpoint = ReplayCheckpoint {
            target_cursor: cursor,
            snapshot_cursor: replay.snapshot_cursor,
            commands_replayed: replay.commands_replayed,
            reached_cursor: replay.qrio.lifecycle.events.len() as u64,
        };
        Ok((replay.qrio, checkpoint))
    }

    /// A deterministic, human-readable dump of the reconstructed state:
    /// clock, transport, the jobs table, scheduler queues, dead letters and
    /// the breaker board. The backbone of `qrio-lint --replay-to`, and
    /// byte-reproducible for identical states — diffable across replays.
    pub fn describe_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "clock     = {}", self.lifecycle.clock);
        let _ = writeln!(out, "transport = {}", self.transport_mode_name());
        let _ = writeln!(out, "events    = {}", self.lifecycle.events.len());

        let _ = writeln!(out, "jobs ({}):", self.lifecycle.jobs.len());
        for (name, tracked) in &self.lifecycle.jobs {
            let node = tracked
                .status
                .node
                .as_deref()
                .or(tracked.decision.as_ref().map(|d| d.node.as_str()))
                .unwrap_or("-");
            let _ = writeln!(
                out,
                "  {name}: {:?} prio={} attempt={} node={node}",
                tracked.status.state, tracked.status.priority, tracked.attempt
            );
        }

        let pending = self.lifecycle.pending_in_order();
        let _ = writeln!(out, "pending ({}):", pending.len());
        for name in &pending {
            let _ = writeln!(out, "  {name}");
        }

        let _ = writeln!(
            out,
            "device queues ({}):",
            self.lifecycle.device_queues.len()
        );
        for (device, queue) in &self.lifecycle.device_queues {
            let jobs: Vec<&str> = queue.iter().map(String::as_str).collect();
            let _ = writeln!(out, "  {device}: [{}]", jobs.join(", "));
        }

        let _ = writeln!(out, "dead letters ({}):", self.lifecycle.dead_letters.len());
        for name in &self.lifecycle.dead_letters {
            let _ = writeln!(out, "  {name}");
        }

        match self.breakers() {
            None => {
                let _ = writeln!(out, "breakers: disabled");
            }
            Some(board) => {
                let _ = writeln!(out, "breakers ({} transitions):", board.events().len());
                for device in board.breakers.keys() {
                    let _ = writeln!(
                        out,
                        "  {device}: {} trips={}",
                        board.state(device).name(),
                        board.trip_count(device)
                    );
                }
            }
        }
        out
    }
}
