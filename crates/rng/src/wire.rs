//! Minimal serde-free binary encoding for checkpoint snapshots.
//!
//! Every multi-byte integer is little-endian and fixed-width; floats are
//! serialized as their IEEE-754 bit patterns so round-trips are bit-exact.
//! There is no self-description: reader and writer must agree on the layout,
//! which is what the snapshot schema version is for. The encoder lives here
//! (rather than in `cavenet-net`) because every crate in the workspace —
//! including `cavenet-ca`, which does not depend on the network stack —
//! captures state through it.

use std::fmt;

/// Error raised while decoding a checkpoint byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended before the requested value was complete.
    Truncated {
        /// Bytes needed to finish the read.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A decoded value was structurally impossible (bad enum tag,
    /// out-of-range index, inconsistent length).
    Malformed {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// The stream decoded cleanly but left unread trailing bytes.
    TrailingBytes {
        /// Number of bytes left over.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated stream: need {need} bytes, have {have}")
            }
            WireError::Malformed { what, value } => {
                write!(f, "malformed {what}: {value:#x}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} unread trailing bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only binary encoder.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor-based binary decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with [`WireError::TrailingBytes`] unless the stream is fully
    /// consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `bool`; any byte other than 0 or 1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::Malformed {
                what: "bool",
                value: u64::from(v),
            }),
        }
    }

    /// Read a `usize` stored as `u64`; fails if it does not fit.
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed {
            what: "usize",
            value: v,
        })
    }

    /// Read an item count stored as `u64`, for a sequence whose items each
    /// take at least `item_bytes` bytes (and at least one) on the wire. A
    /// count the rest of the stream cannot hold is
    /// [`WireError::Truncated`], so a corrupt prefix can never size an
    /// allocation or drive a long loop.
    pub fn get_count(&mut self, item_bytes: usize) -> Result<usize, WireError> {
        let n = self.get_usize()?;
        let need = n.saturating_mul(item_bytes.max(1));
        if need > self.remaining() {
            return Err(WireError::Truncated {
                need,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_usize()?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes).map_err(|e| WireError::Malformed {
            what: "utf-8 string",
            value: e.valid_up_to() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_usize(99);
        w.put_bytes(b"abc");
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 513);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_usize().unwrap(), 99);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [f64::NAN, f64::INFINITY, -0.0, 1.0e-300] {
            let mut w = WireWriter::new();
            w.put_f64(v);
            let bytes = w.into_bytes();
            let got = WireReader::new(&bytes).get_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = WireWriter::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..4]);
        assert!(matches!(
            r.get_u64(),
            Err(WireError::Truncated { need: 8, have: 4 })
        ));
    }

    #[test]
    fn bad_bool_is_typed() {
        let mut r = WireReader::new(&[3]);
        assert!(matches!(
            r.get_bool(),
            Err(WireError::Malformed { what: "bool", .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let r = WireReader::new(&[0, 1]);
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { extra: 2 })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_typed() {
        let mut w = WireWriter::new();
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn counts_must_fit_the_remaining_bytes() {
        for (count, items) in [(0u64, 0usize), (2, 2), (3, 2), (1 << 40, 2), (1 << 61, 2)] {
            let mut w = WireWriter::new();
            w.put_u64(count);
            for _ in 0..items {
                w.put_u64(7);
            }
            let bytes = w.into_bytes();
            let got = WireReader::new(&bytes).get_count(8);
            if count <= items as u64 {
                assert_eq!(got, Ok(count as usize));
            } else {
                assert!(
                    matches!(got, Err(WireError::Truncated { have: 16, .. })),
                    "count {count}: {got:?}"
                );
            }
        }
        // A zero item size still bounds the count by the bytes left.
        let mut w = WireWriter::new();
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        assert!(WireReader::new(&bytes).get_count(0).is_err());
    }
}
