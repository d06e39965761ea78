//! The base temporal inverted file **tIF** (Section 2.2, Algorithm 1):
//! one time-aware postings list per element, no temporal indexing.

use std::collections::HashMap;

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::postings::{build_lists, TemporalList};
use crate::types::{Object, ObjectId, TimeTravelQuery};
use tir_invidx::planner::{Kernel, Postings, QueryScratch};
use tir_invidx::{ContainerConfig, HybridPostings};

/// The base temporal inverted file.
///
/// Query evaluation follows Algorithm 1: scan the postings list of the
/// least frequent query element filtering by the temporal predicate, then
/// intersect the candidate set with each remaining list in ascending
/// frequency order. The non-seed intersections run against a
/// [`HybridPostings`] sidecar — dense elements as bitmaps, sparse ones as
/// sorted arrays — so the conjunction planner can pick bitmap kernels.
#[derive(Debug, Clone, Default)]
pub struct Tif {
    lists: HashMap<u32, TemporalList>,
    hybrid: HybridPostings,
    freqs: FreqTable,
}

impl Tif {
    /// Builds the index over a collection.
    pub fn build(coll: &Collection) -> Self {
        let lists = build_lists(coll.objects());
        let universe = coll
            .objects()
            .iter()
            .map(|o| o.id.saturating_add(1))
            .max()
            .unwrap_or(0);
        let hybrid = HybridPostings::from_lists(
            lists.iter().map(|(&e, l)| (e, l.ids.as_slice())),
            universe,
            ContainerConfig::default(),
        );
        Tif {
            lists,
            hybrid,
            freqs: FreqTable::from_counts(coll.freqs()),
        }
    }

    /// The hybrid container directory backing non-seed intersections
    /// (introspection for validators).
    pub fn containers(&self) -> &HybridPostings {
        &self.hybrid
    }

    /// The postings list of an element, if any object contains it.
    pub fn list(&self, e: u32) -> Option<&TemporalList> {
        self.lists.get(&e)
    }

    /// Total number of stored postings (with replication — none here).
    pub fn num_postings(&self) -> usize {
        self.lists.values().map(TemporalList::len).sum()
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: u32) -> u32 {
        self.freqs.get(e)
    }

    /// Calls `f(element, list)` for every postings list, in unspecified
    /// element order (introspection for validators).
    pub fn for_each_list(&self, mut f: impl FnMut(u32, &TemporalList)) {
        for (&e, list) in &self.lists {
            f(e, list);
        }
    }
}

impl TemporalIrIndex for Tif {
    fn name(&self) -> &'static str {
        "tIF"
    }

    fn query(&self, q: &TimeTravelQuery) -> Vec<ObjectId> {
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        self.query_into(q, &mut scratch, &mut out);
        out
    }

    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        scratch.reset();
        self.freqs.plan_into(&q.elems, &mut scratch.plan);
        if scratch.plan.is_empty() {
            return;
        }
        let first = scratch.plan[0];
        if let Some(list) = self.lists.get(&first) {
            let scanned = list.seed_overlap_into(q.interval.st, q.interval.end, &mut scratch.cands);
            scratch.note(Kernel::Merge, scanned as u64);
        }
        for i in 1..scratch.plan.len() {
            if scratch.is_empty() {
                break;
            }
            let e = scratch.plan[i];
            match self.hybrid.get(e) {
                Some(c) => scratch.intersect(Postings::Container(c)),
                None => scratch.intersect(Postings::Ids(&[])),
            }
        }
        scratch.take_into(out);
    }

    fn insert(&mut self, o: &Object) {
        for &e in &o.desc {
            self.lists
                .entry(e)
                .or_default()
                .insert(o.id, o.interval.st, o.interval.end);
            self.hybrid.insert(e, o.id);
            self.freqs.bump(e);
        }
    }

    fn delete(&mut self, o: &Object) -> bool {
        let mut any = false;
        for &e in &o.desc {
            if let Some(list) = self.lists.get_mut(&e) {
                if list.tombstone(o.id) {
                    self.hybrid.tombstone(e, o.id);
                    self.freqs.drop_one(e);
                    any = true;
                }
            }
        }
        any
    }

    fn size_bytes(&self) -> usize {
        self.lists
            .values()
            .map(|l| l.size_bytes() + std::mem::size_of::<TemporalList>() + 16)
            .sum::<usize>()
            + self.hybrid.size_bytes()
            + self.freqs.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;

    #[test]
    fn running_example() {
        let coll = Collection::running_example();
        let tif = Tif::build(&coll);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = tif.query(&q);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 6]);
    }

    #[test]
    fn matches_oracle_on_example_grid() {
        let coll = Collection::running_example();
        let tif = Tif::build(&coll);
        let bf = BruteForce::build(coll.objects());
        for st in 0..16u64 {
            for end in st..16 {
                for elems in [
                    vec![0],
                    vec![1],
                    vec![2],
                    vec![0, 2],
                    vec![0, 1, 2],
                    vec![5],
                ] {
                    let q = TimeTravelQuery::new(st, end, elems);
                    let mut got = tif.query(&q);
                    got.sort_unstable();
                    assert_eq!(got, bf.answer(&q), "q={q:?}");
                }
            }
        }
    }

    #[test]
    fn updates_keep_answers_correct() {
        let coll = Collection::running_example();
        let mut tif = Tif::build(&coll);
        let mut bf = BruteForce::build(coll.objects());
        let o = Object::new(8, 5, 9, vec![0, 2]);
        tif.insert(&o);
        bf.insert(&o);
        assert!(tif.delete(coll.get(3)));
        assert!(bf.delete(coll.get(3)));
        assert!(!tif.delete(coll.get(3)));
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = tif.query(&q);
        got.sort_unstable();
        assert_eq!(got, bf.answer(&q));
        assert_eq!(got, vec![1, 6, 8]);
    }

    #[test]
    fn empty_and_unknown_elements() {
        let coll = Collection::running_example();
        let tif = Tif::build(&coll);
        assert!(tif.query(&TimeTravelQuery::new(0, 15, vec![])).is_empty());
        assert!(tif.query(&TimeTravelQuery::new(0, 15, vec![42])).is_empty());
        assert!(tif
            .query(&TimeTravelQuery::new(0, 15, vec![0, 42]))
            .is_empty());
    }
}
