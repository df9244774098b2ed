//! Typed failures for journal IO and decoding.

use std::fmt;

use qrio_bytes::CodecError;

/// Everything that can go wrong while creating, scanning or appending to a
/// journal file.
///
/// A *torn tail* — trailing bytes that do not form a complete, checksummed
/// record — is deliberately **not** an error: it is the expected residue of a
/// crash mid-append and is reported as data in
/// [`ScanReport::torn`](crate::ScanReport::torn) so callers can truncate and
/// continue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An operating-system IO failure. The original [`std::io::Error`] is
    /// flattened to a message so the error stays `Clone + PartialEq`.
    Io {
        /// The operation that failed (`"open"`, `"append"`, ...).
        op: &'static str,
        /// The OS error rendered as text.
        message: String,
    },
    /// The file does not start with the journal magic — it is not a journal
    /// (or the header itself is truncated).
    NotAJournal {
        /// What exactly was wrong with the header.
        detail: String,
    },
    /// The file header declares a format version this build cannot read.
    UnsupportedFormat {
        /// Version found in the file header.
        found: u16,
        /// Highest version this build understands.
        supported: u16,
    },
    /// A record payload failed to decode.
    Codec(CodecError),
    /// A record payload exceeds the `u32` length prefix.
    PayloadTooLarge {
        /// The oversized payload length in bytes.
        len: u64,
    },
    /// A [`Journal::compact`](crate::Journal::compact) call named an offset
    /// that is not a clean record boundary inside the file. The journal is
    /// left untouched.
    BadCompactionPoint {
        /// The rejected `keep_from` offset.
        offset: u64,
        /// Why the offset cannot be compacted to.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, message } => write!(f, "journal {op} failed: {message}"),
            JournalError::NotAJournal { detail } => write!(f, "not a journal file: {detail}"),
            JournalError::UnsupportedFormat { found, supported } => write!(
                f,
                "unsupported journal format version {found} (this build reads up to {supported})"
            ),
            JournalError::Codec(inner) => write!(f, "journal record decode failed: {inner}"),
            JournalError::PayloadTooLarge { len } => {
                write!(
                    f,
                    "record payload of {len} bytes exceeds the u32 length prefix"
                )
            }
            JournalError::BadCompactionPoint { offset, detail } => {
                write!(f, "cannot compact journal to offset {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<CodecError> for JournalError {
    fn from(inner: CodecError) -> Self {
        JournalError::Codec(inner)
    }
}

impl JournalError {
    /// Flatten an [`std::io::Error`] into a [`JournalError::Io`].
    pub fn io(op: &'static str, error: &std::io::Error) -> Self {
        JournalError::Io {
            op,
            message: error.to_string(),
        }
    }
}
