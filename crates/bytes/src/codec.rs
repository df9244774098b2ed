//! The byte-level primitives every QRIO format is written with.
//!
//! [`ByteWriter`] never fails; [`ByteReader`] fails with a typed
//! [`CodecError`] and never panics on malformed input. The conventions they
//! fix are listed in the [crate docs](crate).

use std::fmt;

/// Errors surfaced while decoding bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The reader ran out of bytes mid-value.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// A tag byte (enum discriminant, `Option` marker, ...) had no mapping.
    InvalidTag {
        /// What was being decoded when the tag appeared.
        what: &'static str,
        /// The unrecognised tag value.
        tag: u64,
    },
    /// A declared length does not fit in memory-addressable space.
    LengthOverflow {
        /// The declared length.
        declared: u64,
    },
    /// Bytes were left over after a value claimed to be fully decoded.
    TrailingBytes {
        /// How many bytes were left unread.
        remaining: usize,
    },
    /// The bytes decoded structurally but hold an invalid domain value
    /// (unparsable embedded text, a widened integer out of range).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} left"
                )
            }
            CodecError::InvalidUtf8 => write!(f, "length-prefixed string is not valid UTF-8"),
            CodecError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            CodecError::LengthOverflow { declared } => {
                write!(f, "declared length {declared} overflows the address space")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            CodecError::Malformed(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only buffer with typed `put_*` helpers.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Start an empty buffer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Append a `usize` widened to a little-endian `u64`.
    pub fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Append a boolean as one byte (`0` or `1`).
    pub fn put_bool(&mut self, value: bool) {
        self.put_u8(u8::from(value));
    }

    /// Append a `u64`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, value: &str) {
        self.put_bytes(value.as_bytes());
    }

    /// Append a `u64`-length-prefixed byte blob.
    pub fn put_bytes(&mut self, value: &[u8]) {
        self.put_usize(value.len());
        self.buf.extend_from_slice(value);
    }

    /// Append raw bytes with no length prefix (for framing layers that carry
    /// the length elsewhere).
    pub fn put_raw(&mut self, value: &[u8]) {
        self.buf.extend_from_slice(value);
    }
}

/// A cursor over a byte slice with typed `take_*` helpers.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, CodecError> {
        let bytes = self.take(2)?;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    /// Read a `u64` and narrow it to `usize`, rejecting overflow.
    pub fn take_usize(&mut self) -> Result<usize, CodecError> {
        let wide = self.take_u64()?;
        usize::try_from(wide).map_err(|_| CodecError::LengthOverflow { declared: wide })
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a boolean; any byte other than `0` or `1` is a typed error.
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag {
                what: "bool",
                tag: u64::from(tag),
            }),
        }
    }

    /// Read a `u64`-length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, CodecError> {
        let bytes = self.take_blob()?;
        String::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Read a `u64`-length-prefixed byte blob.
    pub fn take_blob(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.take_usize()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Assert that every byte was consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// CRC-32 (IEEE 802.3 polynomial) over `bytes`, as used by every frame's
/// trailing checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &byte in bytes {
        c = CRC_TABLE[((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a (64-bit) over `bytes` — the cheap, stable hash that folds names
/// into seeds (fault decisions, per-job and per-tenant RNG streams) and
/// digests encoded values. Every committed report depends on these exact
/// values.
#[inline]
pub fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes.as_ref() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Reference values of 64-bit FNV-1a.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(b"foobar"), fnv1a("foobar"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the ubiquitous IEEE CRC-32 ("crc32" of zlib).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn scalar_round_trips() {
        let mut writer = ByteWriter::new();
        writer.put_u8(7);
        writer.put_u16(0xBEEF);
        writer.put_u32(0xDEAD_BEEF);
        writer.put_u64(u64::MAX - 1);
        writer.put_f64(-0.0);
        writer.put_f64(f64::NAN);
        writer.put_bool(true);
        writer.put_str("héllo\nworld");
        writer.put_str("ion-trap-α");
        writer.put_bytes(&[0, 255, 3]);
        let bytes = writer.into_bytes();

        let mut reader = ByteReader::new(&bytes);
        assert_eq!(reader.take_u8().unwrap(), 7);
        assert_eq!(reader.take_u16().unwrap(), 0xBEEF);
        assert_eq!(reader.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(reader.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(reader.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(reader.take_f64().unwrap().is_nan());
        assert!(reader.take_bool().unwrap());
        assert_eq!(reader.take_str().unwrap(), "héllo\nworld");
        assert_eq!(reader.take_str().unwrap(), "ion-trap-α");
        assert_eq!(reader.take_blob().unwrap(), vec![0, 255, 3]);
        reader.finish().unwrap();
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut writer = ByteWriter::new();
        writer.put_str("four");
        let bytes = writer.into_bytes();
        for cut in 0..bytes.len() {
            let mut reader = ByteReader::new(&bytes[..cut]);
            assert!(reader.take_str().is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn bad_bool_and_trailing_bytes_are_typed_errors() {
        let mut reader = ByteReader::new(&[2]);
        assert_eq!(
            reader.take_bool(),
            Err(CodecError::InvalidTag {
                what: "bool",
                tag: 2
            })
        );
        let reader = ByteReader::new(&[0]);
        assert_eq!(
            reader.finish(),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }
}
