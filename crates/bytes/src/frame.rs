//! The one framing layer: `prefix ‖ len:u32 ‖ payload ‖ crc32(all before)`.
//!
//! Journal records (`kind u8 ‖ version u16` prefix) and wire envelopes
//! (`"QRIOPROT" ‖ version u16` prefix) are the same self-delimiting,
//! checksummed frame with a different fixed-size prefix. The prefix is opaque
//! here; the payload length is a little-endian `u32`; the CRC-32 covers every
//! byte before it, so a flipped bit anywhere in the frame is detected.

use std::fmt;

use crate::codec::{crc32, ByteWriter};

/// Bytes of the payload-length field that follows the prefix.
pub const LEN_BYTES: usize = 4;

/// Bytes of the trailing checksum.
pub const CRC_BYTES: usize = 4;

/// Why the bytes at hand do not open as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes are available than the header, or the frame length the
    /// header declares, requires.
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The trailing checksum does not match the frame contents.
    Checksum {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the frame bytes.
        computed: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated frame: needed {needed} bytes, {available} available"
                )
            }
            FrameError::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// One validated frame, borrowed from the buffer it was opened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The fixed-size prefix, as sealed.
    pub prefix: &'a [u8],
    /// The payload bytes.
    pub payload: &'a [u8],
}

impl Frame<'_> {
    /// Total frame length in bytes: prefix, length field, payload, checksum.
    #[allow(clippy::len_without_is_empty)] // a frame is never empty
    pub fn len(&self) -> usize {
        self.prefix.len() + LEN_BYTES + self.payload.len() + CRC_BYTES
    }
}

/// Build one frame in a single buffer: `prefix`, a length field, whatever
/// `write_payload` appends, and the CRC-32 of all of it, computed in place.
///
/// # Panics
///
/// When the payload exceeds `u32::MAX` bytes — callers that accept payloads
/// of arbitrary size check before sealing.
pub fn seal(prefix: &[u8], write_payload: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(prefix);
    w.put_u32(0); // patched once the payload length is known
    write_payload(&mut w);
    let mut frame = w.into_bytes();
    let body = prefix.len() + LEN_BYTES;
    let len = u32::try_from(frame.len() - body).expect("frame payload exceeds u32::MAX bytes");
    frame[prefix.len()..body].copy_from_slice(&len.to_le_bytes());
    frame.reserve_exact(CRC_BYTES);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Read the payload length of the frame at the front of `bytes` without
/// validating its checksum, so scanners can skip frames they cannot decode.
///
/// # Errors
///
/// [`FrameError::Truncated`] when `bytes` is shorter than the header or than
/// the frame the header declares.
pub fn payload_len(bytes: &[u8], prefix_len: usize) -> Result<usize, FrameError> {
    let body = prefix_len + LEN_BYTES;
    let truncated = |needed| FrameError::Truncated {
        needed,
        available: bytes.len(),
    };
    let field = bytes.get(prefix_len..body).ok_or(truncated(body))?;
    let len = u32::from_le_bytes([field[0], field[1], field[2], field[3]]) as usize;
    let needed = (body + CRC_BYTES).saturating_add(len);
    if bytes.len() < needed {
        return Err(truncated(needed));
    }
    Ok(len)
}

/// Validate and borrow the frame at the front of `bytes`; trailing bytes
/// (the next frame of a stream) are ignored — [`Frame::len`] says where they
/// start.
///
/// # Errors
///
/// [`FrameError::Truncated`] as [`payload_len`], [`FrameError::Checksum`]
/// when the stored CRC-32 does not match.
pub fn open(bytes: &[u8], prefix_len: usize) -> Result<Frame<'_>, FrameError> {
    let body = prefix_len + LEN_BYTES;
    let end = body + payload_len(bytes, prefix_len)?;
    let stored = u32::from_le_bytes([bytes[end], bytes[end + 1], bytes[end + 2], bytes[end + 3]]);
    let computed = crc32(&bytes[..end]);
    if stored != computed {
        return Err(FrameError::Checksum { stored, computed });
    }
    Ok(Frame {
        prefix: &bytes[..prefix_len],
        payload: &bytes[body..end],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_layout_is_prefix_len_payload_crc() {
        let frame = seal(b"PFX", |w| w.put_raw(b"payload"));
        assert_eq!(&frame[..3], b"PFX");
        assert_eq!(frame[3..7], 7u32.to_le_bytes());
        assert_eq!(&frame[7..14], b"payload");
        assert_eq!(frame[14..], crc32(&frame[..14]).to_le_bytes());

        let opened = open(&frame, 3).unwrap();
        assert_eq!(
            (opened.prefix, opened.payload),
            (&b"PFX"[..], &b"payload"[..])
        );
        assert_eq!(opened.len(), frame.len());
    }

    #[test]
    fn empty_prefix_and_payload_still_frame() {
        let frame = seal(b"", |_| {});
        assert_eq!(frame.len(), LEN_BYTES + CRC_BYTES);
        assert!(open(&frame, 0).unwrap().payload.is_empty());
    }

    #[test]
    fn frames_concatenate_into_a_stream() {
        let mut stream = seal(b"A", |w| w.put_str("one"));
        let first = stream.len();
        stream.extend(seal(b"B", |w| w.put_u64(2)));
        assert_eq!(open(&stream, 1).unwrap().len(), first);
        assert_eq!(open(&stream[first..], 1).unwrap().prefix, b"B");
    }

    #[test]
    fn every_truncation_and_bit_flip_is_a_typed_error() {
        let frame = seal(&[9, 2, 0], |w| w.put_raw(&[0xAB; 20]));
        for cut in 0..frame.len() {
            assert!(
                matches!(open(&frame[..cut], 3), Err(FrameError::Truncated { .. })),
                "cut at {cut}"
            );
        }
        for at in 0..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[at] ^= 0x40;
            assert!(open(&corrupt, 3).is_err(), "flip at {at}");
        }
        // The length can be peeked without the checksum holding.
        let mut corrupt = frame.clone();
        corrupt[10] ^= 1;
        assert_eq!(payload_len(&corrupt, 3), Ok(20));
    }
}
