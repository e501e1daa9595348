//! Durable sketch snapshots: a versioned, length-prefixed,
//! little-endian binary format with a trailing FNV-1a checksum.
//!
//! Linear sketches are exactly the state worth checkpointing: restoring
//! a sketch and replaying the stream from the recorded offset is
//! bit-identical to never having stopped (Definition 1 linearity). This
//! module provides the wire format every estimator in the workspace
//! serializes through; the byte layout and compatibility policy are
//! specified in `docs/ALGORITHMS.md` ("Persistence format").
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HIXS"
//! 4       1     format version (currently 1)
//! 5       1     type tag (one per Snapshot impl; see docs/ALGORITHMS.md)
//! 6       8     payload length `L` (u64, little-endian)
//! 14      L     payload (type-specific, little-endian throughout)
//! 14+L    8     FNV-1a 64 checksum of bytes [0, 14+L) (little-endian)
//! ```
//!
//! Nested structures embed complete child frames inside the parent's
//! payload, so every sub-object is independently checksummed and
//! type-tagged. Decoding is *total*: every failure mode surfaces as a
//! typed [`SnapshotError`] — decoders never panic on hostile bytes and
//! never allocate more than the input length implies (a length prefix
//! is validated against the remaining buffer *before* any allocation).

use std::fmt;

/// The 4-byte frame magic.
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"HIXS";

/// The current (and only) format version.
pub(crate) const SNAPSHOT_VERSION: u8 = 1;

/// Bytes of framing around every payload: magic (4) + version (1) +
/// tag (1) + payload length (8) + trailing checksum (8).
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 8;

/// Bytes before the payload: magic + version + tag + length prefix.
const HEADER_LEN: usize = 14;

/// FNV-1a 64-bit hash over a byte slice — the frame checksum and
/// [`Snapshot::frame_digest`].
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a snapshot failed to decode. Every variant is reachable from
/// hostile bytes; none of them panics or over-allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the structure it promised.
    Truncated {
        /// Bytes the decoder needed from the current position.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The first four bytes are not the frame magic `b"HIXS"`.
    BadMagic,
    /// The format version byte is not the current version (1).
    UnsupportedVersion(u8),
    /// The frame carries a different type than the caller asked for.
    WrongTag {
        /// The tag of the type being decoded.
        expected: u8,
        /// The tag found in the frame header.
        found: u8,
    },
    /// The trailing FNV-1a checksum does not match the frame bytes.
    ChecksumMismatch,
    /// The payload decoded cleanly but left unread bytes behind.
    TrailingBytes {
        /// Number of payload bytes the decoder did not consume.
        unread: usize,
    },
    /// The bytes parsed but violate a semantic invariant of the type
    /// (out-of-range field element, inconsistent dimensions, …).
    Invalid(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, available } => {
                write!(f, "snapshot truncated: needed {needed} bytes, had {available}")
            }
            SnapshotError::BadMagic => write!(f, "snapshot has bad magic (not an HIXS frame)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::WrongTag { expected, found } => {
                write!(f, "snapshot type tag mismatch: expected {expected}, found {found}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::TrailingBytes { unread } => {
                write!(f, "snapshot payload has {unread} trailing bytes")
            }
            SnapshotError::Invalid(what) => write!(f, "snapshot invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian payload writer used by [`Snapshot::write_payload`].
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Wraps a byte buffer.
    #[must_use]
    pub(crate) fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a little-endian `i128`.
    pub fn put_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a complete child frame for a nested snapshotable value.
    pub fn put_nested<C: Snapshot>(&mut self, child: &C) {
        child.write_into(self.buf);
    }
}

/// Bounds-checked little-endian payload reader used by
/// [`Snapshot::read_payload`]. Every read either advances the cursor or
/// returns [`SnapshotError::Truncated`]; nothing panics.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload slice.
    #[must_use]
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `i128`.
    pub fn get_i128(&mut self) -> Result<i128, SnapshotError> {
        let s = self.take(16)?;
        let mut b = [0u8; 16];
        b.copy_from_slice(s);
        Ok(i128::from_le_bytes(b))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(self.get_i128()? as u128)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an element count that precedes `elem_size`-byte elements,
    /// validating it against the bytes actually remaining so a hostile
    /// length prefix can never force an over-sized allocation: the
    /// decoder may allocate at most `remaining / elem_size` elements,
    /// which is bounded by the input length.
    pub fn get_count(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let raw = self.get_u64()?;
        let count = usize::try_from(raw)
            .map_err(|_| SnapshotError::Invalid("element count exceeds address space"))?;
        let elem = elem_size.max(1);
        if count > self.remaining() / elem {
            return Err(SnapshotError::Truncated {
                needed: count.saturating_mul(elem),
                available: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Reads a `usize` stored as `u64` (a dimension, not a count; use
    /// [`Reader::get_count`] when the value sizes an allocation).
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| SnapshotError::Invalid("value exceeds address space"))
    }

    /// Decodes a nested child frame and advances past it.
    pub fn get_nested<C: Snapshot>(&mut self) -> Result<C, SnapshotError> {
        let (child, used) = C::read_from(&self.bytes[self.pos..])?;
        self.pos += used;
        Ok(child)
    }
}

/// Versioned binary serialization for sketch and estimator state.
///
/// Implementors provide the per-type payload codec; the trait supplies
/// the uniform frame (magic, version, tag, length prefix, checksum) via
/// [`Snapshot::write_into`] / [`Snapshot::read_from`]. The contract,
/// pinned by `tests/snapshot_roundtrip.rs` (lint L11):
///
/// * `read_from(write_into(x)) ≡ x` — bit-identical state, as observed
///   by [`Snapshot::frame_digest`], plus estimates/decodes;
/// * decoding arbitrary bytes returns a typed [`SnapshotError`], never
///   panics, and never allocates beyond what the input length admits.
pub trait Snapshot: Sized {
    /// Type tag stored in the frame header. Tags are a registry
    /// (see `docs/ALGORITHMS.md`) and are never reused across types.
    const TAG: u8;

    /// Writes the payload fields (no framing).
    fn write_payload(&self, w: &mut Writer<'_>);

    /// Decodes the payload fields (no framing), validating every
    /// semantic invariant of the type.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on truncated, corrupt, or invalid bytes.
    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;

    /// Appends one complete frame (header + payload + checksum).
    fn write_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        out.push(Self::TAG);
        out.extend_from_slice(&0u64.to_le_bytes()); // length backpatched
        let payload_start = out.len();
        {
            let mut w = Writer::new(out);
            self.write_payload(&mut w);
        }
        let payload_len = (out.len() - payload_start) as u64;
        out[start + 6..start + HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Serializes into a fresh buffer.
    #[must_use]
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }

    /// [`fnv1a`] over the canonical encoding — the state digest every
    /// bit-identity check compares (shard, merge, restore, heal and
    /// publish). Two values digest equal iff their frames are
    /// bit-identical, which is what chaos runs assert when comparing a
    /// faulted run against a clean one.
    #[must_use]
    fn frame_digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }

    /// Decodes one frame from the front of `bytes`, returning the value
    /// and the number of bytes consumed (so frames concatenate).
    ///
    /// The checksum is verified over the whole frame *before* the
    /// payload is interpreted, so random corruption is caught by the
    /// checksum rather than by whichever field it lands in.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on truncated, corrupt, or invalid bytes.
    fn read_from(bytes: &[u8]) -> Result<(Self, usize), SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        if bytes[0..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes[4] != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(bytes[4]));
        }
        if bytes[5] != Self::TAG {
            return Err(SnapshotError::WrongTag {
                expected: Self::TAG,
                found: bytes[5],
            });
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&bytes[6..HEADER_LEN]);
        let payload_len = u64::from_le_bytes(len_bytes);
        // Validate the length prefix against the real buffer before any
        // use: a hostile prefix must fail here, not size an allocation.
        let payload_len = usize::try_from(payload_len)
            .ok()
            .filter(|&l| l <= bytes.len().saturating_sub(FRAME_OVERHEAD))
            .ok_or(SnapshotError::Truncated {
                needed: FRAME_OVERHEAD,
                available: bytes.len(),
            })?;
        let frame_end = HEADER_LEN + payload_len;
        let mut ck = [0u8; 8];
        ck.copy_from_slice(&bytes[frame_end..frame_end + 8]);
        if fnv1a(&bytes[..frame_end]) != u64::from_le_bytes(ck) {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = Reader::new(&bytes[HEADER_LEN..frame_end]);
        let value = Self::read_payload(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                unread: r.remaining(),
            });
        }
        Ok((value, frame_end + 8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Pair {
        a: u64,
        b: Vec<u64>,
    }

    impl Snapshot for Pair {
        const TAG: u8 = 250;

        fn write_payload(&self, w: &mut Writer<'_>) {
            w.put_u64(self.a);
            w.put_usize(self.b.len());
            for &v in &self.b {
                w.put_u64(v);
            }
        }

        fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            let a = r.get_u64()?;
            let n = r.get_count(8)?;
            let mut b = Vec::with_capacity(n);
            for _ in 0..n {
                b.push(r.get_u64()?);
            }
            Ok(Self { a, b })
        }
    }

    #[test]
    fn round_trip() {
        let x = Pair { a: 7, b: vec![1, 2, 3] };
        let bytes = x.to_bytes();
        let (y, used) = Pair::read_from(&bytes).unwrap();
        assert_eq!(x, y);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn frames_concatenate() {
        let x = Pair { a: 1, b: vec![] };
        let y = Pair { a: 2, b: vec![9] };
        let mut bytes = x.to_bytes();
        y.write_into(&mut bytes);
        let (gx, used) = Pair::read_from(&bytes).unwrap();
        let (gy, rest) = Pair::read_from(&bytes[used..]).unwrap();
        assert_eq!((gx, gy), (x, y));
        assert_eq!(used + rest, bytes.len());
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = Pair { a: 7, b: vec![1, 2, 3] }.to_bytes();
        for n in 0..bytes.len() {
            let err = Pair::read_from(&bytes[..n]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch),
                "prefix {n}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let bytes = Pair { a: 7, b: vec![1, 2, 3] }.to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(Pair::read_from(&corrupt).is_err(), "byte {i} flip undetected");
        }
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        let mut bytes = Pair { a: 7, b: vec![] }.to_bytes();
        // Claim a multi-exabyte payload.
        bytes[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Pair::read_from(&bytes),
            Err(SnapshotError::Truncated { .. })
        ));
        // Claim a multi-exabyte element count inside a valid frame.
        let mut w = Vec::new();
        {
            let mut buf = Writer::new(&mut w);
            buf.put_u64(1);
            buf.put_u64(u64::MAX); // count
        }
        let mut framed = Vec::new();
        framed.extend_from_slice(&SNAPSHOT_MAGIC);
        framed.push(SNAPSHOT_VERSION);
        framed.push(Pair::TAG);
        framed.extend_from_slice(&(w.len() as u64).to_le_bytes());
        framed.extend_from_slice(&w);
        let ck = fnv1a(&framed);
        framed.extend_from_slice(&ck.to_le_bytes());
        assert!(matches!(
            Pair::read_from(&framed),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn wrong_tag_and_version_and_magic() {
        let good = Pair { a: 7, b: vec![] }.to_bytes();
        let mut b = good.clone();
        b[5] = 99;
        assert!(matches!(
            Pair::read_from(&b),
            Err(SnapshotError::WrongTag { expected: 250, found: 99 })
        ));
        let mut b = good.clone();
        b[4] = 2;
        // The checksum covers the version byte, but version is checked
        // first so future formats can evolve the trailer.
        assert_eq!(Pair::read_from(&b).unwrap_err(), SnapshotError::UnsupportedVersion(2));
        let mut b = good;
        b[0] = b'X';
        assert_eq!(Pair::read_from(&b).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        // A frame whose payload is one byte longer than the codec reads.
        let mut payload = Vec::new();
        {
            let mut w = Writer::new(&mut payload);
            w.put_u64(1);
            w.put_u64(0); // zero elements
            w.put_u8(0xEE); // stray byte
        }
        let mut framed = Vec::new();
        framed.extend_from_slice(&SNAPSHOT_MAGIC);
        framed.push(SNAPSHOT_VERSION);
        framed.push(Pair::TAG);
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(&payload);
        let ck = fnv1a(&framed);
        framed.extend_from_slice(&ck.to_le_bytes());
        assert_eq!(
            Pair::read_from(&framed).unwrap_err(),
            SnapshotError::TrailingBytes { unread: 1 }
        );
    }

    #[test]
    fn display_is_informative() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::ChecksumMismatch.to_string().contains("checksum"));
        assert!(SnapshotError::Invalid("x out of range").to_string().contains("x out of range"));
    }
}
