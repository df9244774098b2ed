//! Lints over durability journals (`qrio-journal` write-ahead logs): the
//! QL04xx family.
//!
//! A journal is the crash-recovery story of a QRIO deployment, so a damaged
//! or inconsistent one deserves diagnostics *before* an operator needs it in
//! anger. These lints work on the raw bytes — no recovery is attempted —
//! and therefore also apply to journals whose snapshots reference strategies
//! this process has not registered.
//!
//! * **QL0401** (warning) — the file ends in a torn tail: a truncated or
//!   checksum-corrupt trailing record, as a crash mid-append leaves behind.
//!   Recovery discards the tail silently; the lint makes it visible.
//! * **QL0402** (error) — a snapshot record claims an event cursor beyond
//!   the log head established by the records before it: the snapshot "knows"
//!   events the journal never saw, so the file was spliced or rewritten.
//! * **QL0403** (error) — a record carries a codec version this build cannot
//!   decode; recovery would stop with a typed error at that record.
//! * **QL0404** (error) — the file is not a journal at all, or a record's
//!   payload (snapshot bodies included) does not decode.

use std::fs;
use std::path::Path;

use qrio::durability::{
    decode_record, DurabilityError, JournalEntry, RECORD_COMMAND, RECORD_VERSION,
};
use qrio_journal::scan_bytes;

use crate::diag::{Diagnostic, LintCode, Location};

/// Lint a journal's full byte image. `subject` names the journal in the
/// diagnostics (usually its file path).
pub fn lint_journal_bytes(subject: &str, bytes: &[u8]) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let scan = match scan_bytes(bytes) {
        Ok(scan) => scan,
        Err(err) => {
            diagnostics.push(Diagnostic::new(
                LintCode::MalformedJournal,
                Location::subject(subject),
                err.to_string(),
            ));
            return diagnostics;
        }
    };

    // The watch-log length the journal has accounted for. `None` until the
    // first snapshot or command record: the genesis snapshot may
    // legitimately carry history from before durability was enabled.
    let mut head: Option<u64> = None;
    for (index, record) in scan.records.iter().enumerate() {
        let context = format!("record #{index} (kind {})", record.kind);
        let mut report = |code, message| {
            diagnostics.push(Diagnostic::new(
                code,
                Location::at(subject, &context),
                message,
            ));
        };
        match decode_record(record) {
            Ok(JournalEntry::Command(command)) => {
                head = Some(head.unwrap_or(0).max(command.events_after));
            }
            Ok(JournalEntry::Snapshot(snapshot)) => {
                let cursor = snapshot.cursor();
                if let Some(known) = head.filter(|&known| cursor > known) {
                    report(
                        LintCode::SnapshotBeyondLogHead,
                        format!(
                            "snapshot cursor {cursor} exceeds the {known} event(s) \
                             the journal has seen"
                        ),
                    );
                }
                head = Some(head.unwrap_or(0).max(cursor));
            }
            Err(DurabilityError::UnsupportedRecord { version, .. })
                if version != RECORD_VERSION =>
            {
                report(
                    LintCode::RecordVersionMismatch,
                    format!(
                        "record version {version} (this build decodes version {RECORD_VERSION})"
                    ),
                );
            }
            Err(DurabilityError::UnsupportedRecord { kind, .. }) => report(
                LintCode::MalformedJournal,
                format!("unknown record kind {kind}"),
            ),
            Err(err) => {
                let what = match record.kind {
                    RECORD_COMMAND => "command",
                    _ => "snapshot",
                };
                report(
                    LintCode::MalformedJournal,
                    format!("{what} payload does not decode: {err}"),
                );
            }
        }
    }

    if let Some(torn) = &scan.torn {
        diagnostics.push(Diagnostic::new(
            LintCode::TornTailRecord,
            Location::at(subject, format!("byte offset {}", torn.offset)),
            format!(
                "{} trailing byte(s) do not form a valid record ({}); recovery truncates them",
                torn.trailing, torn.reason
            ),
        ));
    }
    diagnostics
}

/// Lint a journal file on disk. An unreadable file reports QL0404 — from the
/// lint's point of view there is no journal there.
pub fn lint_journal_file(path: &Path) -> Vec<Diagnostic> {
    let subject = path.display().to_string();
    match fs::read(path) {
        Ok(bytes) => lint_journal_bytes(&subject, &bytes),
        Err(err) => vec![Diagnostic::new(
            LintCode::MalformedJournal,
            Location::subject(subject),
            format!("cannot read file: {err}"),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio::durability::{CommandRecord, RECORD_SNAPSHOT};
    use qrio::{Command, Qrio};
    use qrio_journal::{encode_record, header_bytes, Record};

    /// A tick that left the watch log `events_after` long.
    fn tick(events_after: u64) -> Record {
        let record = CommandRecord {
            command: Command::Tick,
            events_after,
            digest: 0,
        };
        record.to_record()
    }

    /// A well-formed snapshot of an empty orchestrator, re-stamped to claim
    /// `cursor` watch-log events.
    fn snapshot(cursor: u64) -> Record {
        let mut record = Qrio::new().snapshot_record();
        record.payload[..8].copy_from_slice(&cursor.to_le_bytes());
        record
    }

    fn journal(records: &[Record]) -> Vec<u8> {
        let mut bytes = header_bytes().to_vec();
        for record in records {
            bytes.extend(encode_record(record));
        }
        bytes
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn a_clean_journal_is_clean() {
        let bytes = journal(&[tick(2), snapshot(2)]);
        assert!(lint_journal_bytes("test", &bytes).is_empty());
    }

    #[test]
    fn garbage_is_ql0404() {
        let diags = lint_journal_bytes("test", b"definitely not a journal");
        assert_eq!(codes(&diags), ["QL0404"]);
    }

    #[test]
    fn torn_tail_is_ql0401_warning() {
        let mut bytes = journal(&[tick(1)]);
        bytes.truncate(bytes.len() - 2);
        let diags = lint_journal_bytes("test", &bytes);
        assert_eq!(codes(&diags), ["QL0401"]);
        assert_eq!(
            diags[0].severity,
            crate::diag::Severity::Warning,
            "torn tails are recoverable, so a warning"
        );
    }

    #[test]
    fn snapshot_beyond_head_is_ql0402() {
        let diags = lint_journal_bytes("test", &journal(&[tick(1), snapshot(999)]));
        assert_eq!(codes(&diags), ["QL0402"]);
    }

    #[test]
    fn genesis_snapshots_may_carry_prior_history() {
        // Durability can be enabled mid-run: the first snapshot's cursor is
        // unconstrained by (nonexistent) earlier records.
        assert!(lint_journal_bytes("test", &journal(&[snapshot(17), tick(18)])).is_empty());
    }

    #[test]
    fn snapshot_with_an_undecodable_body_is_ql0404() {
        // The cursor alone reads fine (and is consistent with the log head);
        // recovery would still fail on the body.
        let mut truncated = snapshot(2);
        truncated.payload.truncate(truncated.payload.len() / 2);
        let cursor_only = Record::new(RECORD_SNAPSHOT, RECORD_VERSION, 2u64.to_le_bytes().to_vec());
        for bad in [truncated, cursor_only] {
            let diags = lint_journal_bytes("test", &journal(&[tick(2), bad]));
            assert_eq!(codes(&diags), ["QL0404"]);
            assert!(
                diags[0].message.contains("snapshot payload"),
                "{}",
                diags[0]
            );
        }
    }

    #[test]
    fn version_mismatch_is_ql0403() {
        let future = Record::new(RECORD_COMMAND, 9, vec![1, 2, 3]);
        let diags = lint_journal_bytes("test", &journal(&[future]));
        assert_eq!(codes(&diags), ["QL0403"]);
    }

    #[test]
    fn undecodable_payloads_and_unknown_kinds_are_ql0404() {
        let bad_command = Record::new(RECORD_COMMAND, RECORD_VERSION, vec![0xFF; 3]);
        let unknown = Record::new(42, RECORD_VERSION, Vec::new());
        let diags = lint_journal_bytes("test", &journal(&[bad_command, unknown]));
        assert_eq!(codes(&diags), ["QL0404", "QL0404"]);
    }
}
