//! The versioned full-system snapshot container (DESIGN.md §11).
//!
//! A [`Snapshot`] is a self-describing byte image of *every* piece of
//! simulated state — per-core LSUs and frontends, L1 arrays + FSHRs +
//! flush queues, all five TileLink link FIFOs per core, L2 arrays + MSHRs,
//! DRAM, engine counters and the perturbation bookkeeping — taken by
//! [`System::snapshot`](crate::System::snapshot) and turned back into a
//! live system by [`System::restore`](crate::System::restore). A restored
//! system is bit-identical to the original going forward: same cycles,
//! same statistics, same durable image, same merged trace streams, on
//! either engine.
//!
//! Host-side observation machinery (trace sinks, telemetry, the wheel
//! scheduler) is *not* state: restore rebuilds it
//! from the offered [`SystemConfig`](crate::SystemConfig).
//!
//! # Format
//!
//! ```text
//! magic  "SKSN"            4 raw bytes
//! version                  varint (currently 3)
//! config fingerprint       varint u64 (simulated-state-relevant config)
//! payload                  component sections, each tagged
//! ```
//!
//! Integers use LEB128 varints; cache lines use a word-presence mask so
//! all-zero lines and never-touched ways collapse to a byte or two (see
//! [`skipit_snap`]). Decoding is total: corrupt, truncated, foreign or
//! wrong-version inputs produce a typed [`SnapshotError`], never a panic.

use skipit_snap::{SnapError, SnapReader, SnapWriter};

/// Decode/restore failure. Re-exported alias of [`skipit_snap::SnapError`].
pub type SnapshotError = SnapError;

/// Leading magic bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SKSN";

/// Snapshot format version this build reads and writes. Version 2 dropped
/// frontend tag 1 (the program frontend): programs run through the replay
/// frontend, tag 2. Version 3 dropped the LSU entries' retry cycle: the LSU
/// holds a request until the L1 would accept it and never retries.
pub const SNAPSHOT_VERSION: u32 = 3;

/// A validated, self-describing byte image of a [`System`](crate::System)'s
/// complete simulated state. Obtain one from
/// [`System::snapshot`](crate::System::snapshot) or [`Snapshot::from_bytes`];
/// it is plain data — clone it, ship it across threads, write it to disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps freshly encoded bytes (header already written). Crate-internal;
    /// external bytes go through [`Snapshot::from_bytes`].
    pub(crate) fn from_writer(w: SnapWriter) -> Snapshot {
        Snapshot {
            bytes: w.into_bytes(),
        }
    }

    /// Validates the header of `bytes` (magic and version) and wraps them.
    /// The payload itself is validated structurally at
    /// [`System::restore`](crate::System::restore) time, against a concrete
    /// configuration.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, SnapshotError> {
        let snap = Snapshot { bytes };
        snap.payload_reader()?;
        Ok(snap)
    }

    /// The full encoded image, header included (the inverse of
    /// [`Snapshot::from_bytes`]).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the encoded image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Total encoded size in bytes, header included.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Writes the header into `w` (snapshot construction).
    pub(crate) fn write_header(w: &mut SnapWriter, fingerprint: u64) {
        w.put_raw(&SNAPSHOT_MAGIC);
        w.put_u64(u64::from(SNAPSHOT_VERSION));
        w.put_u64(fingerprint);
    }

    /// Validates magic and version, returning a reader positioned at the
    /// config fingerprint (the first payload field).
    pub(crate) fn payload_reader(&self) -> Result<SnapReader<'_>, SnapshotError> {
        let mut r = SnapReader::new(&self.bytes);
        if r.get_raw(4)? != SNAPSHOT_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let found = r.get_u64()?;
        if found != u64::from(SNAPSHOT_VERSION) {
            return Err(SnapError::BadVersion {
                found: found.try_into().unwrap_or(u32::MAX),
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foreign_bytes_rejected() {
        assert_eq!(
            Snapshot::from_bytes(b"not a snapshot".to_vec()),
            Err(SnapError::BadMagic)
        );
        assert_eq!(Snapshot::from_bytes(vec![]), Err(SnapError::UnexpectedEof));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut w = SnapWriter::new();
        w.put_raw(&SNAPSHOT_MAGIC);
        w.put_u64(99);
        assert_eq!(
            Snapshot::from_bytes(w.into_bytes()),
            Err(SnapError::BadVersion {
                found: 99,
                expected: SNAPSHOT_VERSION
            })
        );
    }

    /// A real mid-run snapshot rewritten to the previous version (whose
    /// LSU entries carry the dropped retry cycle) fails on its header as a
    /// version mismatch, in [`Snapshot::from_bytes`] and in
    /// `System::restore` alike — never as a corrupt LSU entry.
    #[test]
    fn previous_version_snapshot_is_a_version_mismatch() {
        use crate::{Op, System, SystemConfig};
        let cfg = SystemConfig::default();
        let mut sys = System::new(cfg);
        let mut bytes = None;
        let script = vec![
            Op::Store {
                addr: 0x40,
                value: 1,
            },
            Op::Flush { addr: 0x40 },
        ];
        sys.run_programs_observed(vec![script.clone(), script], |s| {
            if s.now() >= 5 && bytes.is_none() {
                bytes = Some(s.snapshot().unwrap().into_bytes());
            }
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        let mut bytes = bytes.expect("the run lasts past cycle 5");
        assert_eq!(bytes[4], 3, "one-byte version varint after the magic");
        bytes[4] = 2;
        let mismatch = SnapError::BadVersion {
            found: 2,
            expected: SNAPSHOT_VERSION,
        };
        assert_eq!(Snapshot::from_bytes(bytes.clone()), Err(mismatch.clone()));
        let v2 = Snapshot { bytes };
        assert_eq!(System::restore(&v2, &cfg).unwrap_err(), mismatch);
    }

    #[test]
    fn header_roundtrips() {
        let mut w = SnapWriter::new();
        Snapshot::write_header(&mut w, 0xfeed);
        let snap = Snapshot::from_bytes(w.into_bytes()).unwrap();
        let mut r = snap.payload_reader().unwrap();
        assert_eq!(r.get_u64().unwrap(), 0xfeed);
        r.finish().unwrap();
    }
}
