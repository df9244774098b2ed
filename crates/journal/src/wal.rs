//! The write-ahead log file: header framing, record framing, torn-tail scan
//! and append.
//!
//! # On-disk layout
//!
//! ```text
//! +----------------------------+
//! | magic  "QRIOJRNL"  (8 B)   |  file header
//! | format version u16 (2 B)   |
//! +----------------------------+
//! | kind      u8       (1 B)   |  record 0
//! | version   u16      (2 B)   |
//! | length    u32      (4 B)   |  payload length in bytes
//! | payload   [u8; length]     |
//! | crc32     u32      (4 B)   |  over kind..payload
//! +----------------------------+
//! | ...                        |  record 1, 2, ...
//! ```
//!
//! All integers are little-endian. The journal itself is agnostic to record
//! *meaning*: `kind` and `version` are opaque at this layer and interpreted by
//! the embedding application (see `qrio`'s `durability` module).
//!
//! # Torn tails
//!
//! A crash mid-append leaves trailing bytes that do not form a complete,
//! checksum-valid record. [`scan_bytes`] stops at the first such defect and
//! reports it as a [`TornTail`] alongside every record that *did* validate;
//! [`Journal::open`] additionally truncates the file back to the last valid
//! record so subsequent appends start from a clean prefix. Losing a torn tail
//! is correct write-ahead-log semantics: a record that was never fully written
//! was never acknowledged.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use qrio_bytes::{open, seal, FrameError, CRC_BYTES, LEN_BYTES};

use crate::error::JournalError;

/// The 8-byte magic every journal file starts with.
pub const MAGIC: [u8; 8] = *b"QRIOJRNL";

/// The file-format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Bytes occupied by the file header (magic + format version).
pub const HEADER_LEN: usize = MAGIC.len() + 2;

/// Bytes of a record's frame prefix (kind + version).
const RECORD_PREFIX_LEN: usize = 1 + 2;

/// One framed record: an opaque payload tagged with an application-defined
/// kind and per-kind version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Application-defined record kind.
    pub kind: u8,
    /// Application-defined codec version for this kind.
    pub version: u16,
    /// The record payload, opaque at the journal layer.
    pub payload: Vec<u8>,
}

impl Record {
    /// Convenience constructor.
    pub fn new(kind: u8, version: u16, payload: Vec<u8>) -> Self {
        Record {
            kind,
            version,
            payload,
        }
    }

    /// Bytes this record occupies in the file: prefix, length field, payload
    /// and checksum — the length of [`encode_record`]'s output.
    pub fn framed_len(&self) -> u64 {
        (RECORD_PREFIX_LEN + LEN_BYTES + self.payload.len() + CRC_BYTES) as u64
    }
}

/// Details of an invalid trailing region found by [`scan_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset (from the start of the file) where the invalid region
    /// begins — equivalently, the length of the valid prefix.
    pub offset: u64,
    /// How many trailing bytes are invalid.
    pub trailing: u64,
    /// A human-readable, deterministic description of the defect.
    pub reason: String,
}

/// The outcome of scanning a journal's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Every record that validated, in file order.
    pub records: Vec<Record>,
    /// Length in bytes of the valid prefix (header plus whole records).
    pub valid_len: u64,
    /// Present when the file ends in bytes that do not form a valid record.
    pub torn: Option<TornTail>,
}

/// The file header as bytes — useful for building fixtures and for sniffing
/// whether an arbitrary file is a journal.
pub fn header_bytes() -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..MAGIC.len()].copy_from_slice(&MAGIC);
    header[MAGIC.len()..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header
}

/// True when `bytes` starts with the journal magic.
pub fn looks_like_journal(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Encode one record into its framed byte representation (without the file
/// header).
pub fn encode_record(record: &Record) -> Vec<u8> {
    let [version_lo, version_hi] = record.version.to_le_bytes();
    seal(&[record.kind, version_lo, version_hi], |w| {
        w.put_raw(&record.payload)
    })
}

/// [`encode_record`] for a record about to be appended, refusing a payload
/// the length field cannot hold.
fn checked_frame(record: &Record) -> Result<Vec<u8>, JournalError> {
    if u32::try_from(record.payload.len()).is_err() {
        return Err(JournalError::PayloadTooLarge {
            len: record.payload.len() as u64,
        });
    }
    Ok(encode_record(record))
}

/// Scan a journal's full byte image: validate the header, then every record
/// in order, stopping at the first torn or corrupt region.
///
/// Header defects (missing magic, unsupported format version) are hard
/// [`JournalError`]s — there is nothing recoverable in such a file. Record
/// defects are soft: the scan succeeds with the valid prefix and a
/// [`TornTail`] describing the defect.
pub fn scan_bytes(bytes: &[u8]) -> Result<ScanReport, JournalError> {
    if bytes.len() < HEADER_LEN || bytes[..MAGIC.len()] != MAGIC {
        return Err(JournalError::NotAJournal {
            detail: format!(
                "expected {HEADER_LEN}-byte header starting with magic {:?}",
                String::from_utf8_lossy(&MAGIC)
            ),
        });
    }
    let found = u16::from_le_bytes([bytes[MAGIC.len()], bytes[MAGIC.len() + 1]]);
    if found > FORMAT_VERSION {
        return Err(JournalError::UnsupportedFormat {
            found,
            supported: FORMAT_VERSION,
        });
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let torn = loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break None;
        }
        match open(&bytes[pos..], RECORD_PREFIX_LEN) {
            Ok(frame) => {
                records.push(Record {
                    kind: frame.prefix[0],
                    version: u16::from_le_bytes([frame.prefix[1], frame.prefix[2]]),
                    payload: frame.payload.to_vec(),
                });
                pos += frame.len();
            }
            Err(FrameError::Truncated { needed, available }) => {
                let part = if needed == RECORD_PREFIX_LEN + LEN_BYTES {
                    "framing"
                } else {
                    "body"
                };
                break Some(format!(
                    "truncated record {part}: {available} bytes left, {needed} needed"
                ));
            }
            Err(err @ FrameError::Checksum { .. }) => break Some(err.to_string()),
        }
    };

    Ok(ScanReport {
        records,
        valid_len: pos as u64,
        torn: torn.map(|reason| TornTail {
            offset: pos as u64,
            trailing: (bytes.len() - pos) as u64,
            reason,
        }),
    })
}

/// Scan a journal file on disk without modifying it.
pub fn scan_file(path: &Path) -> Result<ScanReport, JournalError> {
    let bytes = std::fs::read(path).map_err(|e| JournalError::io("read", &e))?;
    scan_bytes(&bytes)
}

/// An open, append-position journal file.
///
/// Appends are written straight through to the OS ([`Journal::append`]); an
/// explicit [`Journal::sync`] forces them to stable storage. The virtual-time
/// harness never calls `sync` — see the crate docs for the fsync caveat.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Create (or truncate) a journal file and write the file header.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let mut file = File::create(path).map_err(|e| JournalError::io("create", &e))?;
        file.write_all(&header_bytes())
            .map_err(|e| JournalError::io("write header", &e))?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Open an existing journal for appending.
    ///
    /// The whole file is scanned and validated; if it ends in a torn tail the
    /// file is truncated back to the last valid record before the journal is
    /// positioned for append. The scan (including the pre-truncation
    /// [`TornTail`] details) is returned so the caller can log or replay it.
    pub fn open(path: &Path) -> Result<(Self, ScanReport), JournalError> {
        let report = scan_file(path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| JournalError::io("open", &e))?;
        if report.torn.is_some() {
            file.set_len(report.valid_len)
                .map_err(|e| JournalError::io("truncate torn tail", &e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| JournalError::io("seek", &e))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            report,
        ))
    }

    /// The path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one framed record.
    pub fn append(&mut self, record: &Record) -> Result<(), JournalError> {
        self.file
            .write_all(&checked_frame(record)?)
            .map_err(|e| JournalError::io("append", &e))
    }

    /// Flush userspace buffers to the OS. Appends already write through, so
    /// this is a cheap barrier, not an fsync.
    pub fn flush(&mut self) -> Result<(), JournalError> {
        self.file.flush().map_err(|e| JournalError::io("flush", &e))
    }

    /// Force all appended records to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file
            .sync_data()
            .map_err(|e| JournalError::io("sync", &e))
    }

    /// Current length of the journal file in bytes (header included).
    pub fn byte_len(&self) -> Result<u64, JournalError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| JournalError::io("stat", &e))
    }

    /// Drop every record before `keep_from` (a byte offset, typically the
    /// position of the last snapshot record), rewriting the journal as a
    /// fresh header plus the retained suffix.
    ///
    /// The rewrite is torn-tail-safe: the compacted image is written to a
    /// sibling temporary file, forced to stable storage, and atomically
    /// renamed over the journal. A crash at any point leaves either the old
    /// file or the complete new one — never a hybrid. The journal stays open
    /// for appends afterwards. Returns the number of bytes reclaimed.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadCompactionPoint`] when `keep_from` is not a record
    /// boundary (before the header, past the end of the file, or such that
    /// the retained suffix does not scan as whole records); the journal is
    /// left untouched in that case. IO failures surface as
    /// [`JournalError::Io`].
    pub fn compact(&mut self, keep_from: u64) -> Result<u64, JournalError> {
        self.flush()?;
        let bytes = std::fs::read(&self.path).map_err(|e| JournalError::io("read", &e))?;
        let offset = usize::try_from(keep_from).unwrap_or(usize::MAX);
        if offset < HEADER_LEN || offset > bytes.len() {
            return Err(JournalError::BadCompactionPoint {
                offset: keep_from,
                detail: format!(
                    "offset is outside the file (header {HEADER_LEN} B, file {} B)",
                    bytes.len()
                ),
            });
        }
        let mut compacted = header_bytes().to_vec();
        compacted.extend_from_slice(&bytes[offset..]);
        let scan = scan_bytes(&compacted)?;
        if let Some(torn) = scan.torn {
            return Err(JournalError::BadCompactionPoint {
                offset: keep_from,
                detail: format!("retained suffix is not whole records: {}", torn.reason),
            });
        }

        let file_name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "journal".to_string());
        let tmp = self.path.with_file_name(format!("{file_name}.compacting"));
        {
            let mut tmp_file =
                File::create(&tmp).map_err(|e| JournalError::io("create compacted", &e))?;
            tmp_file
                .write_all(&compacted)
                .map_err(|e| JournalError::io("write compacted", &e))?;
            tmp_file
                .sync_data()
                .map_err(|e| JournalError::io("sync compacted", &e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| JournalError::io("rename compacted", &e))?;

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| JournalError::io("reopen compacted", &e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| JournalError::io("seek", &e))?;
        self.file = file;
        Ok((bytes.len() - compacted.len()) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: u8, payload: &[u8]) -> Record {
        Record::new(kind, 1, payload.to_vec())
    }

    fn journal_bytes(records: &[Record]) -> Vec<u8> {
        let mut bytes = header_bytes().to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn empty_journal_scans_clean() {
        let report = scan_bytes(&header_bytes()).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.valid_len, HEADER_LEN as u64);
        assert!(report.torn.is_none());
    }

    #[test]
    fn records_round_trip_through_scan() {
        let records = vec![record(1, b"alpha"), record(2, b""), record(3, &[0u8; 300])];
        let report = scan_bytes(&journal_bytes(&records)).unwrap();
        assert_eq!(report.records, records);
        assert!(report.torn.is_none());
        for r in &records {
            assert_eq!(r.framed_len(), encode_record(r).len() as u64);
        }
    }

    #[test]
    fn bad_magic_is_a_hard_error() {
        assert!(matches!(
            scan_bytes(b"NOTAJRNL\x01\x00"),
            Err(JournalError::NotAJournal { .. })
        ));
        assert!(matches!(
            scan_bytes(b"QR"),
            Err(JournalError::NotAJournal { .. })
        ));
    }

    #[test]
    fn future_format_version_is_a_hard_error() {
        let mut bytes = header_bytes().to_vec();
        bytes[MAGIC.len()] = 0xFF;
        assert!(matches!(
            scan_bytes(&bytes),
            Err(JournalError::UnsupportedFormat { .. })
        ));
    }

    #[test]
    fn flipped_byte_in_tail_record_is_reported_torn() {
        let records = vec![record(1, b"alpha"), record(1, b"beta")];
        let mut bytes = journal_bytes(&records);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let report = scan_bytes(&bytes).unwrap();
        assert_eq!(report.records, records[..1]);
        let torn = report.torn.unwrap();
        assert!(torn.reason.contains("checksum mismatch"), "{}", torn.reason);
    }

    #[test]
    fn compaction_drops_the_prefix_and_keeps_appending() {
        let dir = std::env::temp_dir().join("qrio-journal-compact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.journal");

        let mut journal = Journal::create(&path).unwrap();
        journal.append(&record(1, b"old-1")).unwrap();
        journal.append(&record(1, b"old-2")).unwrap();
        let keep_from = journal.byte_len().unwrap();
        journal.append(&record(3, b"snapshot")).unwrap();
        journal.append(&record(1, b"after")).unwrap();
        let before = journal.byte_len().unwrap();

        let reclaimed = journal.compact(keep_from).unwrap();
        assert_eq!(reclaimed, keep_from - HEADER_LEN as u64);
        assert_eq!(journal.byte_len().unwrap(), before - reclaimed);

        // The journal stays appendable after the rewrite.
        journal.append(&record(1, b"post-compaction")).unwrap();
        journal.flush().unwrap();
        drop(journal);

        let report = scan_file(&path).unwrap();
        assert!(report.torn.is_none());
        assert_eq!(
            report.records,
            vec![
                record(3, b"snapshot"),
                record(1, b"after"),
                record(1, b"post-compaction"),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_rejects_non_record_boundaries() {
        let dir = std::env::temp_dir().join("qrio-journal-compact-reject-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reject.journal");

        let mut journal = Journal::create(&path).unwrap();
        journal.append(&record(1, b"alpha")).unwrap();
        journal.append(&record(1, b"beta")).unwrap();
        let len = journal.byte_len().unwrap();

        // Mid-record, before the header, and past the end must all be
        // rejected, leaving the file untouched.
        for bad in [HEADER_LEN as u64 + 3, 2, len + 1] {
            assert!(matches!(
                journal.compact(bad),
                Err(JournalError::BadCompactionPoint { .. })
            ));
        }
        drop(journal);
        let report = scan_file(&path).unwrap();
        assert_eq!(
            report.records,
            vec![record(1, b"alpha"), record(1, b"beta")]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_truncates_a_torn_tail_and_appends_cleanly() {
        let dir = std::env::temp_dir().join("qrio-journal-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");

        let mut journal = Journal::create(&path).unwrap();
        journal.append(&record(1, b"kept")).unwrap();
        journal.append(&record(1, b"torn-away")).unwrap();
        journal.flush().unwrap();
        drop(journal);

        // Simulate a crash mid-append of the second record.
        let full = std::fs::read(&path).unwrap();
        let keep = header_bytes().len() + encode_record(&record(1, b"kept")).len();
        std::fs::write(&path, &full[..keep + 3]).unwrap();

        let (mut journal, report) = Journal::open(&path).unwrap();
        assert_eq!(report.records, vec![record(1, b"kept")]);
        assert!(report.torn.is_some());
        journal.append(&record(2, b"after-recovery")).unwrap();
        journal.flush().unwrap();
        drop(journal);

        let report = scan_file(&path).unwrap();
        assert_eq!(
            report.records,
            vec![record(1, b"kept"), record(2, b"after-recovery")]
        );
        assert!(report.torn.is_none());
        std::fs::remove_file(&path).ok();
    }
}
