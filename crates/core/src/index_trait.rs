//! The common interface of every temporal-IR index in this crate.

use crate::types::{Object, ObjectId, TimeTravelQuery};
use tir_invidx::QueryScratch;

/// A time-travel IR index: answers [`TimeTravelQuery`]s and supports
/// incremental maintenance.
///
/// Contract shared by all implementations:
///
/// * `query` returns the exact answer set of Definition 2.1, with **every
///   qualifying id exactly once**, in unspecified order;
/// * a query whose `elems` is empty returns an empty result (the paper's
///   queries always carry at least one element);
/// * `insert` may use ids larger than anything indexed so far; re-using a
///   live id is a caller bug;
/// * `delete` is *logical* (tombstones), returns whether the object was
///   found, and is idempotent.
pub trait TemporalIrIndex {
    /// Short stable name used in benchmark tables (e.g. `"tIF+Slicing"`).
    fn name(&self) -> &'static str;

    /// Answers a time-travel IR query.
    fn query(&self, q: &TimeTravelQuery) -> Vec<ObjectId>;

    /// Answers a query through a reusable [`QueryScratch`], appending the
    /// answer set to `out`. Steady-state callers that hold one scratch
    /// and one output buffer per worker (the serve pool, bench loops)
    /// thereby amortize every intermediate allocation; per-query planner
    /// counters land in [`QueryScratch::last_stats`]. The default
    /// delegates to [`Self::query`]; every index in this crate overrides
    /// both methods so neither falls through to the other.
    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        let _ = scratch;
        out.extend(self.query(q));
    }

    /// Adds one object.
    fn insert(&mut self, o: &Object);

    /// Logically deletes one object; the caller passes the full object so
    /// the index can locate its entries. Returns true if found alive.
    fn delete(&mut self, o: &Object) -> bool;

    /// Approximate heap footprint in bytes.
    fn size_bytes(&self) -> usize;

    /// Adds a batch of objects. The default loops over [`Self::insert`];
    /// composite indexes override it with a merge-rebuild of every
    /// touched division, which is what the paper's batch-insert
    /// experiments (Table 6) measure.
    fn insert_batch(&mut self, batch: &[Object]) {
        for o in batch {
            self.insert(o);
        }
    }
}

/// A heap-allocated index behind the common trait, shareable across
/// threads — the snapshot currency of the serving layer (`tir-serve`
/// wraps one per epoch in an `Arc`).
pub type SharedIndex = Box<dyn TemporalIrIndex + Send + Sync>;

// Compile-time `Send + Sync` audit: every index implementation must be
// safely shareable across reader threads (queries take `&self`) and
// transferable to the single-writer applier thread of the serving layer.
// A new index type that smuggles in `Rc`/`RefCell`/raw-pointer state
// breaks this `const` block at compile time, not in a stress test.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<crate::compressed_tif::CompressedTif>();
    assert_send_sync::<crate::hybrid::TifHintSlicing>();
    assert_send_sync::<crate::irhint_perf::IrHintPerf>();
    assert_send_sync::<crate::irhint_size::IrHintSize>();
    assert_send_sync::<crate::oracle::BruteForce>();
    assert_send_sync::<crate::ranked::RankedTif>();
    assert_send_sync::<crate::sharding::TifSharding>();
    assert_send_sync::<crate::slicing::TifSlicing>();
    assert_send_sync::<crate::tif::Tif>();
    assert_send_sync::<crate::tif_hint::TifHint>();
    assert_send_sync::<SharedIndex>();
    assert_send_sync::<std::sync::Arc<dyn TemporalIrIndex + Send + Sync>>();
};
