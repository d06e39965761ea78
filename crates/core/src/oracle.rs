//! Brute-force reference implementation used as the correctness oracle in
//! every test suite.

use crate::index_trait::TemporalIrIndex;
use crate::types::{Object, ObjectId, TimeTravelQuery};

/// Sequential scan over the stored objects; `O(n)` per query.
#[derive(Debug, Clone, Default)]
pub struct BruteForce {
    objects: Vec<Object>,
    deleted: Vec<bool>,
}

impl BruteForce {
    /// Builds from a slice of objects.
    pub fn build(objects: &[Object]) -> Self {
        BruteForce {
            objects: objects.to_vec(),
            deleted: vec![false; objects.len()],
        }
    }

    /// Sorted answer to a query — the canonical expected value.
    pub fn answer(&self, q: &TimeTravelQuery) -> Vec<ObjectId> {
        if q.elems.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<ObjectId> = self
            .objects
            .iter()
            .zip(&self.deleted)
            .filter(|(o, &dead)| !dead && q.matches(o))
            .map(|(o, _)| o.id)
            .collect();
        out.sort_unstable();
        out
    }
}

impl TemporalIrIndex for BruteForce {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn query(&self, q: &TimeTravelQuery) -> Vec<ObjectId> {
        self.answer(q)
    }

    fn insert(&mut self, o: &Object) {
        self.objects.push(o.clone());
        self.deleted.push(false);
    }

    fn delete(&mut self, o: &Object) -> bool {
        for (i, stored) in self.objects.iter().enumerate() {
            if stored.id == o.id && !self.deleted[i] {
                self.deleted[i] = true;
                return true;
            }
        }
        false
    }

    fn size_bytes(&self) -> usize {
        self.objects
            .iter()
            .map(|o| std::mem::size_of::<Object>() + o.desc.capacity() * 4)
            .sum::<usize>()
            + self.deleted.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;

    #[test]
    fn running_example() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        assert_eq!(bf.answer(&q), vec![1, 3, 6]);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        assert!(bf.answer(&TimeTravelQuery::new(0, 100, vec![])).is_empty());
    }

    #[test]
    fn insert_and_delete() {
        let coll = Collection::running_example();
        let mut bf = BruteForce::build(coll.objects());
        let o = Object::new(8, 5, 6, vec![0, 2]);
        bf.insert(&o);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        assert_eq!(bf.query(&q), vec![1, 3, 6, 8]);
        assert!(bf.delete(&o));
        assert!(!bf.delete(&o));
        assert_eq!(bf.query(&q), vec![1, 3, 6]);
    }
}
