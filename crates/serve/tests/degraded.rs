//! Degraded-mode test: a durability failure must latch the store
//! read-only — queries keep serving the last acked epoch, writes and
//! barriers answer `Degraded`, nothing unacked survives recovery, and
//! the directory recovers to exactly the acknowledged state.
//!
//! NOTE: the fault registry is process-global, so this binary holds
//! exactly one `#[test]`.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tir_core::{Collection, Object, TemporalIrIndex, Tif, TimeTravelQuery};
use tir_fault::{FaultAction, FaultPlan, FaultSite};
use tir_invidx::Dictionary;
use tir_persist::{Durability, DurabilityOptions, Recovered, TermLog};
use tir_serve::epoch::{EpochConfig, EpochStore, WriteOp};
use tir_serve::{HealthStatus, Rejected, ServeDict};

/// Fires `action` at exactly one `(site, visit)`; everything else passes.
struct OneShot {
    site: FaultSite,
    visit: u64,
    action: FaultAction,
}

impl FaultPlan for OneShot {
    fn action(&self, site: FaultSite, visit: u64) -> FaultAction {
        if site == self.site && visit == self.visit {
            self.action
        } else {
            FaultAction::None
        }
    }
}

#[test]
fn durability_failure_latches_read_only_and_recovery_keeps_acked_state() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tir-serve-degraded-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let coll = Collection::running_example();
    let mut dict = Dictionary::new();
    for name in ["a", "b", "c"] {
        dict.intern(name);
    }
    let index = Tif::build(&coll);
    let opts = DurabilityOptions {
        segment_bytes: 1 << 20,
        snapshot_every: 0,
    };
    let durability = Durability::create(&dir, &index, &dict, coll.objects(), opts).expect("create");
    let log = TermLog::open(&dir).expect("term log");
    let store = EpochStore::new_durable(
        index,
        Arc::new(Mutex::new(ServeDict::durable(dict, log))),
        durability,
        EpochConfig::default(),
    );

    // One clean acked write establishes epoch 1.
    store
        .enqueue(WriteOp::Insert(Object::new(8, 5, 6, vec![0, 2])))
        .expect("clean enqueue");
    assert_eq!(store.flush().expect("clean flush"), 1);
    assert_eq!(store.health(), HealthStatus::Ok);

    // The next WAL append fails (simulated ENOSPC before any byte
    // lands): the write's batch must degrade the store, not ack a lie.
    tir_fault::install(Arc::new(OneShot {
        site: FaultSite::WalAppend,
        visit: 0,
        action: FaultAction::Error,
    }));
    store
        .enqueue(WriteOp::Insert(Object::new(9, 5, 6, vec![1])))
        .expect("enqueue before the fault is admitted");
    assert_eq!(
        store.flush().expect_err("durability failed"),
        Rejected::Degraded
    );
    assert_eq!(store.health(), HealthStatus::Degraded);

    // Writes and barriers are refused; the latch is one-way.
    assert_eq!(
        store
            .enqueue(WriteOp::Insert(Object::new(10, 5, 6, vec![1])))
            .expect_err("degraded store refuses writes"),
        Rejected::Degraded
    );
    assert_eq!(
        store
            .force_snapshot()
            .expect_err("degraded store refuses barriers"),
        Rejected::Degraded
    );
    // analyze:allow(atomic-ordering): test-side stat read
    assert!(
        store
            .stats()
            .degraded_writes
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the discarded write must be counted"
    );

    // Queries keep serving the last acked epoch: id 8 is there, id 9
    // (whose durability failed) is not.
    let snap = store.snapshot();
    assert_eq!(
        snap.epoch, 1,
        "published epoch never exceeds the acked epoch"
    );
    let mut got = snap.index.query(&TimeTravelQuery::new(5, 9, vec![0, 2]));
    got.sort_unstable();
    assert_eq!(got, vec![1, 3, 6, 8]);
    assert!(snap
        .index
        .query(&TimeTravelQuery::new(5, 9, vec![1]))
        .iter()
        .all(|&id| id != 9));

    tir_fault::clear();
    drop(store); // degraded shutdown must not write a snapshot

    // Recovery lands on the acked state exactly.
    let r: Recovered<Tif> = Durability::recover(&dir, opts).expect("recover");
    assert_eq!(r.epoch, 1);
    let ids: Vec<u32> = r.durability.catalog_sorted().iter().map(|o| o.id).collect();
    assert!(ids.contains(&8));
    assert!(!ids.contains(&9), "the unacked write must not resurrect");
    assert!(!ids.contains(&10));
    let _ = fs::remove_dir_all(&dir);
}
