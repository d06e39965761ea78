//! The durability engine: the one place that owns the WAL-before-apply
//! ordering, snapshot atomicity, and recovery.
//!
//! Both the server's durable applier and the crash-recovery property
//! tests drive this type, so the ordering logic under test is exactly
//! the ordering in production:
//!
//! 1. [`Durability::apply_batch`] — append the batch to the WAL,
//!    `fsync`, **then** apply it to the index and the catalog mirror and
//!    advance the epoch. A crash before the fsync loses the batch (it
//!    was never acknowledged); after, recovery replays it.
//! 2. [`Durability::write_snapshot`] — write the full state to
//!    `snapshot.tir.tmp`, `fsync`, rename over `snapshot.tir`, `fsync`
//!    the directory, then prune covered WAL segments. A crash at any
//!    point leaves either the old or the new snapshot intact.
//! 3. [`Durability::recover`] — load the snapshot's dictionary and
//!    catalog, replay `terms.log`, replay WAL records above the snapshot
//!    epoch into the catalog (truncating a torn tail), build the index
//!    once from the final catalog through [`Persist::rebuild`], and
//!    reopen the WAL for appending. The recovered epoch is
//!    **at least** the last acknowledged one: a batch that reached the
//!    fsync but died before the acknowledgment is replayed too (standard
//!    WAL semantics — recovery never loses an ack, it may complete an
//!    almost-acknowledged write).
//!
//! Kill points ([`crate::kill`]) sit between every pair of steps; the
//! property tests arm each in turn and assert oracle-exact recovery.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tir_core::{Collection, Object, TemporalIrIndex};
use tir_invidx::Dictionary;

use crate::kill::{self, KillPoint};
use crate::snapshot::{write_snapshot, Persist, SnapshotFile};
use crate::termlog::TermLog;
use crate::wal::{Wal, WalOp, DEFAULT_SEGMENT_BYTES};

/// File name of the current snapshot inside the data directory.
pub const SNAPSHOT_NAME: &str = "snapshot.tir";
const SNAPSHOT_TMP: &str = "snapshot.tir.tmp";

/// Tuning knobs for a data directory.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Snapshot after this many epochs since the last one (checked at
    /// flush barriers; 0 disables automatic snapshots).
    pub snapshot_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            snapshot_every: 512,
        }
    }
}

/// Shared durability counters (read by the STATS handler while the
/// applier owns the [`Durability`]). SeqCst throughout: these are
/// cold-path counters bumped once per batch or snapshot.
#[derive(Debug, Default)]
pub struct PersistStats {
    /// Epoch of the last durable snapshot.
    pub snapshot_epoch: AtomicU64,
    /// Epoch recovery reached (0 for a fresh directory).
    pub recovered_epoch: AtomicU64,
    /// WAL records appended since open.
    pub wal_records: AtomicU64,
    /// WAL bytes appended since open.
    pub wal_bytes: AtomicU64,
    /// WAL fsyncs issued since open.
    pub wal_fsyncs: AtomicU64,
    /// WAL segments currently on disk.
    pub wal_segments: AtomicU64,
    /// Snapshots written since open.
    pub snapshots: AtomicU64,
}

/// What applying a batch produced.
#[derive(Debug, Clone, Copy)]
pub struct ApplyOutcome {
    /// The epoch the batch produced.
    pub epoch: u64,
    /// How many delete ops actually removed a live object.
    pub deleted: u64,
}

/// The result of [`Durability::recover`].
#[derive(Debug)]
pub struct Recovered<I> {
    /// The engine, ready for [`Durability::apply_batch`].
    pub durability: Durability,
    /// The rebuilt index at the recovered epoch.
    pub index: I,
    /// The rebuilt dictionary (snapshot terms + `terms.log` replay).
    pub dict: Dictionary,
    /// The epoch recovery reached.
    pub epoch: u64,
    /// WAL batches replayed on top of the snapshot.
    pub replayed: u64,
    /// True if a torn WAL tail was truncated (crash mid-append).
    pub truncated_tail: bool,
}

/// Owns a data directory: the open WAL, the catalog mirror the snapshot
/// writer needs, and the epoch counters.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal: Wal,
    catalog: BTreeMap<u32, Object>,
    epoch: u64,
    last_snapshot_epoch: u64,
    opts: DurabilityOptions,
    stats: Arc<PersistStats>,
}

impl Durability {
    /// True if `dir` already holds a snapshot (recover instead of
    /// create).
    pub fn exists(dir: &Path) -> bool {
        dir.join(SNAPSHOT_NAME).is_file()
    }

    /// Initializes a fresh data directory around an index that already
    /// holds `catalog` (possibly empty): writes snapshot at epoch 0 and
    /// opens an empty WAL.
    pub fn create<I: Persist>(
        dir: &Path,
        index: &I,
        dict: &Dictionary,
        catalog: &[Object],
        opts: DurabilityOptions,
    ) -> io::Result<Durability> {
        fs::create_dir_all(dir)?;
        let stats = Arc::new(PersistStats::default());
        let mut d = Durability {
            dir: dir.to_path_buf(),
            wal: Wal::open(dir, 1, opts.segment_bytes)?,
            catalog: catalog.iter().map(|o| (o.id, o.clone())).collect(),
            epoch: 0,
            last_snapshot_epoch: 0,
            opts,
            stats,
        };
        d.write_snapshot(index, dict)?;
        Ok(d)
    }

    /// Recovers `dir` to last-snapshot + WAL replay. See the module docs
    /// for the exact semantics. Fails if the snapshot was written by a
    /// method whose index type is not `I`.
    pub fn recover<I: Persist>(dir: &Path, opts: DurabilityOptions) -> io::Result<Recovered<I>> {
        let snap = SnapshotFile::open(&dir.join(SNAPSHOT_NAME))?;
        let method = snap.meta().method;
        let snapshot_epoch = snap.meta().epoch;
        let mut dict = snap.dictionary()?;
        let mut catalog: BTreeMap<u32, Object> = snap
            .catalog_objects()?
            .into_iter()
            .map(|o| (o.id, o))
            .collect();
        drop(snap);

        // Terms first: WAL ops reference term ids, which the sidecar log
        // made durable before any referencing op could be enqueued.
        TermLog::recover(dir, &mut dict)?;

        let replay = Wal::replay(dir, snapshot_epoch)?;
        let mut epoch = snapshot_epoch;
        let replayed = replay.batches.len() as u64;
        for (e, ops) in &replay.batches {
            apply_to_catalog(&mut catalog, ops);
            epoch = *e;
        }

        // One build over the final catalog, whatever the WAL did to it.
        let index = I::rebuild(
            method,
            &Collection::new(catalog.values().cloned().collect()),
        );
        if index.method() != method {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot was written by {method}, which does not recover as {}",
                    index.method()
                ),
            ));
        }

        let wal = Wal::open(dir, epoch + 1, opts.segment_bytes)?;
        let stats = Arc::new(PersistStats::default());
        stats.snapshot_epoch.store(snapshot_epoch, Ordering::SeqCst);
        stats.recovered_epoch.store(epoch, Ordering::SeqCst);
        stats
            .wal_segments
            .store(wal.stats().segments, Ordering::SeqCst);
        Ok(Recovered {
            durability: Durability {
                dir: dir.to_path_buf(),
                wal,
                catalog,
                epoch,
                last_snapshot_epoch: snapshot_epoch,
                opts,
                stats,
            },
            index,
            dict,
            epoch,
            replayed,
            truncated_tail: replay.truncated_tail,
        })
    }

    /// The current epoch (equals the number of applied batches since the
    /// directory was created).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch of the last durable snapshot.
    pub fn snapshot_epoch(&self) -> u64 {
        self.last_snapshot_epoch
    }

    /// The shared counters (hand a clone to the STATS handler).
    pub fn stats(&self) -> Arc<PersistStats> {
        Arc::clone(&self.stats)
    }

    /// The catalog mirror, sorted by id (what the snapshot writer and
    /// recovery verifiers see).
    pub fn catalog_sorted(&self) -> Vec<Object> {
        self.catalog.values().cloned().collect()
    }

    /// Number of live objects in the catalog mirror.
    pub fn live(&self) -> usize {
        self.catalog.len()
    }

    /// The canonical durable-apply ordering: WAL append → fsync → apply
    /// → epoch advance. Returns the epoch the batch produced. On error
    /// (real I/O failure or an armed kill point) nothing was applied and
    /// the epoch did not advance — the caller must treat the store as
    /// dead and not acknowledge the batch.
    pub fn apply_batch<I: TemporalIrIndex>(
        &mut self,
        index: &mut I,
        ops: &[WalOp],
    ) -> io::Result<ApplyOutcome> {
        let next = self.epoch + 1;
        kill::fire(KillPoint::BeforeWalAppend)?;
        self.wal.append(next, ops)?;
        kill::fire(KillPoint::BeforeWalSync)?;
        self.wal.sync()?;
        kill::fire(KillPoint::BeforeApply)?;
        let mut deleted = 0u64;
        for op in ops {
            match op {
                WalOp::Insert(o) => index.insert(o),
                WalOp::Delete(o) => deleted += u64::from(index.delete(o)),
            }
        }
        apply_to_catalog(&mut self.catalog, ops);
        self.epoch = next;
        let w = self.wal.stats();
        self.stats.wal_records.store(w.records, Ordering::SeqCst);
        self.stats.wal_bytes.store(w.bytes, Ordering::SeqCst);
        self.stats.wal_fsyncs.store(w.fsyncs, Ordering::SeqCst);
        self.stats.wal_segments.store(w.segments, Ordering::SeqCst);
        Ok(ApplyOutcome {
            epoch: next,
            deleted,
        })
    }

    /// Writes a durable snapshot of the current state and prunes covered
    /// WAL segments: tmp write + fsync → rename → directory fsync →
    /// prune.
    pub fn write_snapshot<I: Persist>(&mut self, index: &I, dict: &Dictionary) -> io::Result<()> {
        kill::fire(KillPoint::BeforeSnapshotWrite)?;
        tir_fault::fire(tir_fault::FaultSite::SnapshotWrite)?;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let catalog = self.catalog_sorted();
        write_snapshot(&tmp, index.method(), self.epoch, dict, &catalog)?;
        kill::fire(KillPoint::BeforeSnapshotRename)?;
        // Fault site: a torn publish — the temp snapshot is fully written
        // but the rename never happens, so recovery must keep using the
        // previous snapshot and ignore the stale temp file.
        tir_fault::fire(tir_fault::FaultSite::SnapshotRename)?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT_NAME))?;
        fs::File::open(&self.dir)?.sync_all()?;
        kill::fire(KillPoint::AfterSnapshotRename)?;
        self.last_snapshot_epoch = self.epoch;
        self.stats
            .snapshot_epoch
            .store(self.epoch, Ordering::SeqCst);
        self.stats.snapshots.fetch_add(1, Ordering::SeqCst);
        self.wal.prune(self.epoch)?;
        self.stats
            .wal_segments
            .store(self.wal.stats().segments, Ordering::SeqCst);
        Ok(())
    }

    /// Snapshots iff `snapshot_every` epochs elapsed since the last one.
    /// Returns true if a snapshot was written.
    pub fn maybe_snapshot<I: Persist>(&mut self, index: &I, dict: &Dictionary) -> io::Result<bool> {
        if self.opts.snapshot_every == 0
            || self.epoch - self.last_snapshot_epoch < self.opts.snapshot_every
        {
            return Ok(false);
        }
        self.write_snapshot(index, dict)?;
        Ok(true)
    }
}

/// Applies ops to the catalog mirror.
fn apply_to_catalog(catalog: &mut BTreeMap<u32, Object>, ops: &[WalOp]) {
    for op in ops {
        match op {
            WalOp::Insert(o) => {
                catalog.insert(o.id, o.clone());
            }
            WalOp::Delete(o) => {
                catalog.remove(&o.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_core::Tif;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tir-engine-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn obj(id: u32, st: u64, end: u64, desc: &[u32]) -> Object {
        Object::new(id, st, end, desc.to_vec())
    }

    #[test]
    fn create_apply_recover_roundtrip() {
        let _guard = crate::kill::test_guard();
        let dir = scratch_dir("roundtrip");
        let mut index = Tif::default();
        let dict = Dictionary::from_parts(vec!["a".into(), "b".into()], vec![2, 1]).expect("dict");
        let mut d = Durability::create(&dir, &index, &dict, &[], DurabilityOptions::default())
            .expect("create");
        assert!(Durability::exists(&dir));
        let out = d
            .apply_batch(
                &mut index,
                &[
                    WalOp::Insert(obj(1, 0, 10, &[0, 1])),
                    WalOp::Insert(obj(2, 5, 15, &[0])),
                ],
            )
            .expect("apply");
        assert_eq!(out.epoch, 1);
        d.apply_batch(&mut index, &[WalOp::Delete(obj(2, 5, 15, &[0]))])
            .expect("apply");
        assert_eq!(d.epoch(), 2);
        drop(d);

        // Recovery replays both batches on top of the epoch-0 snapshot.
        let r: Recovered<Tif> =
            Durability::recover(&dir, DurabilityOptions::default()).expect("recover");
        assert_eq!(r.epoch, 2);
        assert_eq!(r.replayed, 2);
        assert_eq!(r.durability.live(), 1);
        let q = tir_core::TimeTravelQuery::new(0, 20, vec![0]);
        assert_eq!(r.index.query(&q), vec![1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_prunes_and_recovery_starts_from_it() {
        let _guard = crate::kill::test_guard();
        let dir = scratch_dir("snapshot");
        let mut index = Tif::default();
        let dict = Dictionary::new();
        let mut d = Durability::create(
            &dir,
            &index,
            &dict,
            &[],
            DurabilityOptions {
                segment_bytes: 1, // rotate every batch
                snapshot_every: 2,
            },
        )
        .expect("create");
        for id in 1..=4u32 {
            d.apply_batch(
                &mut index,
                &[WalOp::Insert(obj(id, 0, u64::from(id), &[0]))],
            )
            .expect("apply");
            d.maybe_snapshot(&index, &dict).expect("maybe");
        }
        assert_eq!(d.snapshot_epoch(), 4);
        drop(d);
        let r: Recovered<Tif> =
            Durability::recover(&dir, DurabilityOptions::default()).expect("recover");
        assert_eq!(r.epoch, 4);
        assert_eq!(r.replayed, 0, "everything was in the snapshot");
        assert_eq!(r.durability.live(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "testing")]
    #[test]
    fn kill_before_sync_loses_the_batch_cleanly() {
        let _guard = crate::kill::test_guard();
        let dir = scratch_dir("killsync");
        let mut index = Tif::default();
        let dict = Dictionary::new();
        let mut d = Durability::create(&dir, &index, &dict, &[], DurabilityOptions::default())
            .expect("create");
        d.apply_batch(&mut index, &[WalOp::Insert(obj(1, 0, 5, &[0]))])
            .expect("apply");
        crate::kill::arm(KillPoint::BeforeWalSync, 0);
        let err = d
            .apply_batch(&mut index, &[WalOp::Insert(obj(2, 0, 5, &[0]))])
            .expect_err("armed point fires");
        assert!(crate::kill::is_simulated_crash(&err));
        crate::kill::disarm();
        assert_eq!(d.epoch(), 1, "failed batch did not advance the epoch");
        drop(d);
        let r: Recovered<Tif> =
            Durability::recover(&dir, DurabilityOptions::default()).expect("recover");
        // The unsynced record may or may not have reached disk (the OS
        // may flush without fsync); both end states are consistent.
        assert!(r.epoch == 1 || r.epoch == 2, "epoch {}", r.epoch);
        let _ = fs::remove_dir_all(&dir);
    }
}
