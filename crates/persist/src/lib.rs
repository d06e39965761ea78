//! # tir-persist
//!
//! The durability layer of the workspace: everything an index needs to
//! survive the death of its process.
//!
//! Two cooperating halves:
//!
//! * **Snapshots** — a versioned, checksummed, little-endian on-disk
//!   format ([`snapshot`]) storing the dictionary and the object catalog,
//!   each column in its own 64-byte-aligned section with a CRC32, under
//!   a header naming the [`tir_core::Method`] that wrote it. No index
//!   structure is stored: the indexes are main-memory structures built
//!   from the catalog, so recovery rebuilds whichever method the header
//!   names through the [`Persist`] trait, and every method is durable.
//! * **The write-ahead log** ([`wal`]) — appended and fsynced *before* a
//!   batch is applied, one CRC32-guarded record per epoch, with
//!   size-based segment rotation and truncate-on-torn-tail replay.
//!   [`Durability`] sequences the two halves: WAL append → fsync → apply
//!   → (periodically) snapshot-rename → WAL prune, so a restart recovers
//!   to last-snapshot + WAL replay, reaching at least the last
//!   acknowledged epoch — and exactly the epochs whose records are
//!   durable.
//!
//! Crash discipline is testable: with the `testing` feature, [`kill`]
//! exposes deterministic kill points that abort the durable apply path
//! at every step boundary, and the crash-recovery proptests replay
//! `mixed_stream` ops demanding exact `BruteForce`-oracle agreement
//! after recovery at every point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cols;
pub mod crc;
pub mod engine;
pub mod kill;
pub mod snapshot;
pub mod termlog;
pub mod wal;

pub use crc::{crc32, Crc32};
pub use engine::{
    ApplyOutcome, Durability, DurabilityOptions, PersistStats, Recovered, SNAPSHOT_NAME,
};
pub use kill::KillPoint;
pub use snapshot::{
    write_snapshot, Persist, SnapshotError, SnapshotFile, SnapshotMeta, FORMAT_VERSION,
};
pub use termlog::TermLog;
pub use wal::{WalOp, WalStats};
