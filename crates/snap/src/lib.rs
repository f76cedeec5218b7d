//! Versioned, self-describing binary state encoding for full-system
//! snapshots.
//!
//! The simulator's [`Snapshot`](../skipit_boom) support (DESIGN.md §11)
//! needs a byte format with three properties:
//!
//! * **deterministic** — the same simulated state always encodes to the
//!   same bytes, so snapshot equality is byte equality;
//! * **compact** — counters are LEB128 varints and sparse payloads
//!   (all-zero DRAM lines, empty cache ways) collapse to a flag byte;
//! * **self-checking** — every decode error surfaces as a typed
//!   [`SnapError`] instead of garbage state: a magic/version header,
//!   section tags at component boundaries, and strict end-of-input
//!   accounting.
//!
//! The crate is dependency-free on purpose: every simulator crate
//! implements [`Codec`] for its own (often private-field) state types, so
//! the codec trait has to live below all of them. Most do it with one
//! [`codec!`] declaration that lists the fields in wire order once.
//!
//! # Example
//!
//! ```
//! use skipit_snap::{codec, Codec, SnapReader, SnapWriter};
//!
//! #[derive(Debug, PartialEq)]
//! enum Phase {
//!     Idle,
//!     Busy { until: u64 },
//! }
//! codec!(Phase, "phase" {
//!     0 => Idle,
//!     1 => Busy { until },
//! });
//!
//! #[derive(Debug, PartialEq)]
//! struct Slot {
//!     addr: u64,
//!     phase: Phase,
//!     queue: Vec<u64>,
//! }
//! codec!(Slot { addr, phase, queue });
//!
//! let slot = Slot { addr: 0x40, phase: Phase::Busy { until: 9 }, queue: vec![1, 2] };
//! let mut w = SnapWriter::new();
//! slot.encode(&mut w);
//! let bytes = w.into_bytes();
//! assert_eq!(bytes, [0x40, 1, 9, 2, 1, 2]);
//! let mut r = SnapReader::new(&bytes);
//! assert_eq!(Slot::decode(&mut r).unwrap(), slot);
//! assert!(r.finish().is_ok());
//! ```

use std::collections::VecDeque;
use std::fmt;

/// Typed decode/validation failure. Everything the snapshot layer can
/// reject — truncated input, a foreign or future format, an internal
/// inconsistency, or a snapshot that simply cannot be taken/applied —
/// reports as one of these variants, never as a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the decoder was done.
    UnexpectedEof,
    /// The header magic did not match — not a snapshot at all.
    BadMagic,
    /// The header version is one this build does not understand.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// A section tag or in-band invariant check failed; the payload names
    /// the decode site.
    Corrupt(&'static str),
    /// The snapshot was taken under a different configuration than the one
    /// offered for restore (geometry, latencies, perturbation, …).
    ConfigMismatch,
    /// The state cannot be snapshotted — a live worker-mode frontend
    /// follows a host-side future that no byte encoding can capture.
    /// Snapshot between runs instead.
    LiveThreads,
    /// Trailing bytes after a complete decode (foreign or corrupt input).
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof => write!(f, "snapshot truncated: unexpected end of input"),
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapError::BadVersion { found, expected } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {expected})"
                )
            }
            SnapError::Corrupt(site) => write!(f, "corrupt snapshot at {site}"),
            SnapError::ConfigMismatch => {
                write!(
                    f,
                    "snapshot was taken under a different system configuration"
                )
            }
            SnapError::LiveThreads => {
                write!(
                    f,
                    "cannot snapshot a system with live worker-mode frontends"
                )
            }
            SnapError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after snapshot decode")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink the [`Codec`] encoders write into.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 varint: counters and addresses are overwhelmingly small, so
    /// this is the workhorse integer encoding.
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Raw bytes, without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A section tag — one byte the reader must match exactly. Placed at
    /// component boundaries so a desynchronized decode fails fast with the
    /// section name instead of misinterpreting downstream bytes.
    pub fn tag(&mut self, t: u8) {
        self.buf.push(t);
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over encoded bytes the [`Codec`] decoders read from.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        let b = *self.buf.get(self.pos).ok_or(SnapError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// LEB128 varint (rejects encodings longer than a u64).
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 63 && byte > 1 {
                return Err(SnapError::Corrupt("varint overflow"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// `len` raw bytes.
    pub fn get_raw(&mut self, len: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(len).ok_or(SnapError::UnexpectedEof)?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapError::UnexpectedEof)?;
        self.pos = end;
        Ok(slice)
    }

    /// Matches a section tag written by [`SnapWriter::tag`]; `site` names
    /// the section in the error.
    pub fn expect_tag(&mut self, t: u8, site: &'static str) -> Result<(), SnapError> {
        if self.get_u8()? == t {
            Ok(())
        } else {
            Err(SnapError::Corrupt(site))
        }
    }

    /// A decoded element count, bounded so corrupt input cannot trigger an
    /// absurd allocation; `site` names the decode site in the error.
    pub fn get_count(&mut self, max: usize, site: &'static str) -> Result<usize, SnapError> {
        let n = self.get_u64()?;
        if n > max as u64 {
            return Err(SnapError::Corrupt(site));
        }
        Ok(n as usize)
    }

    /// Asserts the input is fully consumed (the tail of every top-level
    /// decode).
    pub fn finish(&self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(SnapError::TrailingBytes { remaining }),
        }
    }
}

/// Bound passed to [`SnapReader::get_count`] for containers whose size is
/// only limited by simulated-state growth (DRAM line maps, trace-free
/// queues). Far above anything a real run produces, far below an
/// allocation that could hurt the host.
pub const MAX_ELEMS: usize = 1 << 28;

/// Host-side bookkeeping kept beside simulated state: a memo, stamp or
/// queue a component derives from its state only to step faster. It has
/// no [`Codec`], so no snapshot carries it; its owner resets or rebuilds it
/// on decode; and its `Debug` prints `_`, so two components that hold the
/// same simulated state format identically whatever their histories.
#[derive(Clone, Copy, Default)]
pub struct HostOnly<T>(pub T);

impl<T> fmt::Debug for HostOnly<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("_")
    }
}

/// Symmetric encode/decode of one value. Implemented by every simulator
/// crate for its own state types (the trait lives here, below all of them,
/// so private fields stay private).
pub trait Codec: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Codec for u8 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u8()
    }
}

impl Codec for u32 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(u64::from(*self));
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        u32::try_from(r.get_u64()?).map_err(|_| SnapError::Corrupt("u32 range"))
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u64()
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.get_u64()?).map_err(|_| SnapError::Corrupt("usize range"))
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool")),
        }
    }
}

/// Bit pattern, not numeric value: round-trips NaN payloads and signed
/// zeros exactly.
impl Codec for f64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_raw(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let raw = r.get_raw(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }
}

impl Codec for String {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        w.put_raw(self.as_bytes());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_count(MAX_ELEMS, "string length")?;
        let raw = r.get_raw(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapError::Corrupt("string utf8"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(SnapError::Corrupt("option discriminant")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_count(MAX_ELEMS, "vec length")?;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_count(MAX_ELEMS, "deque length")?;
        let mut out = VecDeque::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Implements [`Codec`] for a type from one list of its fields in wire
/// order, so `encode` and `decode` cannot drift apart.
///
/// * `codec!(Ty { a, b })` — a struct: the fields are encoded in list
///   order, and `decode` builds `Ty { a, b }` with a struct literal that
///   names exactly the listed fields, so a field missing from the list is
///   a compile error. Tuple structs list indices: `codec!(Ty { 0 })`.
/// * `codec!(Ty, "site" { 0 => A { x }, 1 => B })` — an enum: `encode`
///   writes the variant's tag with [`SnapWriter::put_u8`], then its fields
///   in list order; an unknown tag decodes to
///   [`SnapError::Corrupt`]`("site")`. Unit variants omit the braces;
///   tuple variants name a binding per index: `2 => C { 0: c }`.
///
/// Types whose decode must check more than the tag (alignment, counts,
/// configuration) implement [`Codec`] by hand.
#[macro_export]
macro_rules! codec {
    (@binding $field:tt) => { $field };
    (@binding $field:tt $bind:ident) => { $bind };
    ($ty:ident { $($field:tt),* $(,)? }) => {
        impl $crate::Codec for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                $($crate::Codec::encode(&self.$field, w);)*
            }
            fn decode(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::SnapError> {
                ::core::result::Result::Ok(Self { $($field: $crate::Codec::decode(r)?),* })
            }
        }
    };
    ($ty:ident, $site:literal {
        $($tag:literal => $variant:ident $({ $($field:tt $(: $bind:ident)?),* $(,)? })?),+ $(,)?
    }) => {
        impl $crate::Codec for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $(Self::$variant { $($($field $(: $bind)?),*)? } => {
                        w.put_u8($tag);
                        $($($crate::Codec::encode($crate::codec!(@binding $field $($bind)?), w);)*)?
                    })+
                }
            }
            fn decode(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::SnapError> {
                match r.get_u8()? {
                    $($tag => ::core::result::Result::Ok(Self::$variant { $($($field: $crate::Codec::decode(r)?),*)? }),)+
                    _ => ::core::result::Result::Err($crate::SnapError::Corrupt($site)),
                }
            }
        }
    };
}

/// Declares a struct of `pub` `u64` counters from one field list: the
/// struct itself, its [`codec!`] in declaration order, and a `fields()`
/// method that yields every counter as `(field name, value)` in the same
/// order (what metrics exporters key on).
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        pub struct $ty:ident { $($(#[$fattr:meta])* pub $field:ident: u64),* $(,)? }
    ) => {
        $(#[$attr])*
        pub struct $ty { $($(#[$fattr])* pub $field: u64,)* }

        impl $ty {
            /// Every counter as `(field name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),*].into_iter()
            }
        }

        $crate::codec!($ty { $($field),* });
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(127u64);
        roundtrip(128u64);
        roundtrip(true);
        roundtrip(Some(42u64));
        roundtrip(Option::<u64>::None);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(1.5f64);
        roundtrip("héllo".to_string());
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut w = SnapWriter::new();
        w.put_u64(5);
        w.put_u64(300);
        assert_eq!(w.len(), 1 + 2);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(VecDeque::from([
            ("a".to_string(), 1u64),
            ("b".to_string(), 2),
        ]));
        roundtrip((1u64, true, Some(9usize)));
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut w = SnapWriter::new();
        12345u64.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..1]);
        assert_eq!(u64::decode(&mut r), Err(SnapError::UnexpectedEof));
    }

    #[test]
    fn varint_overflow_rejected() {
        let bytes = [0xffu8; 11];
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u64(), Err(SnapError::Corrupt("varint overflow")));
    }

    #[test]
    fn tags_catch_desync() {
        let mut w = SnapWriter::new();
        w.tag(0xa1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.expect_tag(0xa2, "l1 section"),
            Err(SnapError::Corrupt("l1 section"))
        );
    }

    #[test]
    fn counts_are_bounded() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.get_count(16, "mshr count"),
            Err(SnapError::Corrupt("mshr count"))
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = [1u8, 2];
        let mut r = SnapReader::new(&bytes);
        r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn bad_bool_and_option_rejected() {
        let bytes = [7u8];
        assert_eq!(
            bool::decode(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("bool"))
        );
        assert_eq!(
            Option::<u64>::decode(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("option discriminant"))
        );
    }

    #[derive(Debug, PartialEq)]
    struct Wrap(u64, bool);
    codec!(Wrap { 0, 1 });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Unit,
        Braced {},
        Tuple(Wrap),
        Named { a: u64, b: Option<u64> },
    }
    codec!(Shape, "shape tag" {
        0 => Unit,
        1 => Braced {},
        2 => Tuple { 0: w },
        3 => Named { a, b },
    });

    #[test]
    fn codec_macro_forms() {
        roundtrip(Wrap(300, true));
        roundtrip(Shape::Unit);
        roundtrip(Shape::Braced {});
        roundtrip(Shape::Tuple(Wrap(1, false)));
        roundtrip(Shape::Named { a: 5, b: Some(6) });
        let mut w = SnapWriter::new();
        Shape::Named { a: 5, b: None }.encode(&mut w);
        assert_eq!(w.into_bytes(), [3, 5, 0]);
        assert_eq!(
            Shape::decode(&mut SnapReader::new(&[4])),
            Err(SnapError::Corrupt("shape tag"))
        );
    }

    #[test]
    fn errors_display() {
        assert!(SnapError::BadMagic.to_string().contains("magic"));
        assert!(SnapError::BadVersion {
            found: 9,
            expected: 1
        }
        .to_string()
        .contains("9"));
        assert!(SnapError::ConfigMismatch
            .to_string()
            .contains("configuration"));
    }
}
