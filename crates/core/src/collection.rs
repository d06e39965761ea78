//! Object collections: the indexed corpus, its global dictionary
//! statistics, and shape statistics matching Table 3 of the paper.

use crate::types::{ElemId, Interval, Object, ObjectId, Timestamp};

/// An immutable collection of objects in strictly ascending id order,
/// plus the element frequency table of the global dictionary.
///
/// Generators produce dense ids `0..len`; a catalog recovered after
/// deletes has gaps, which is why ids need only ascend.
#[derive(Debug, Clone)]
pub struct Collection {
    objects: Vec<Object>,
    domain_min: Timestamp,
    domain_max: Timestamp,
    freqs: Vec<u32>,
}

impl Collection {
    /// Wraps objects (ids strictly ascending) into a collection,
    /// computing the domain span and element frequencies.
    pub fn new(objects: Vec<Object>) -> Self {
        Self::with_domain_hint(objects, Timestamp::MAX, 0)
    }

    /// As [`Collection::new`] but guaranteeing that the domain covers at
    /// least `[min_hint, max_hint]` (useful when later inserts may extend
    /// past the initially indexed span).
    pub fn with_domain_hint(
        objects: Vec<Object>,
        min_hint: Timestamp,
        max_hint: Timestamp,
    ) -> Self {
        let mut domain_min = min_hint;
        let mut domain_max = max_hint;
        let mut max_elem = 0u32;
        for (i, o) in objects.iter().enumerate() {
            assert!(
                i == 0 || objects[i - 1].id < o.id,
                "object ids must be strictly ascending"
            );
            domain_min = domain_min.min(o.interval.st);
            domain_max = domain_max.max(o.interval.end);
            if let Some(&e) = o.desc.last() {
                max_elem = max_elem.max(e);
            }
        }
        if objects.is_empty() && domain_min > domain_max {
            domain_min = 0;
            domain_max = 0;
        }
        let mut freqs = vec![0u32; max_elem as usize + 1];
        for o in &objects {
            for &e in &o.desc {
                freqs[e as usize] += 1;
            }
        }
        Collection {
            objects,
            domain_min,
            domain_max,
            freqs,
        }
    }

    /// The objects, ordered by id.
    pub fn objects(&self) -> &[Object] {
        &self.objects
    }

    /// Object by id (binary search); panics if no object has `id`.
    pub fn get(&self, id: ObjectId) -> &Object {
        let i = self.objects.partition_point(|o| o.id < id);
        assert!(
            i < self.objects.len() && self.objects[i].id == id,
            "Collection::get: no object with id {id}"
        );
        &self.objects[i]
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the collection has no object.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Raw domain `[min, max]` covered by the collection.
    pub fn domain(&self) -> Interval {
        Interval::new(self.domain_min, self.domain_max)
    }

    /// Document frequency of an element (0 for unknown ids).
    pub fn freq(&self, e: ElemId) -> u32 {
        self.freqs.get(e as usize).copied().unwrap_or(0)
    }

    /// The full frequency table (indexed by element id).
    pub fn freqs(&self) -> &[u32] {
        &self.freqs
    }

    /// Number of dictionary slots (max element id + 1).
    pub fn dict_size(&self) -> usize {
        self.freqs.len()
    }

    /// Splits off the last `fraction` of objects (by id) for update
    /// experiments: returns `(offline, batch)` collections where `offline`
    /// keeps the domain of the full collection.
    pub fn split_for_updates(&self, fraction: f64) -> (Collection, Vec<Object>) {
        assert!((0.0..1.0).contains(&fraction));
        let keep = ((self.len() as f64) * (1.0 - fraction)).round() as usize;
        let offline: Vec<Object> = self.objects[..keep].to_vec();
        let batch: Vec<Object> = self.objects[keep..].to_vec();
        (
            Collection::with_domain_hint(offline, self.domain_min, self.domain_max),
            batch,
        )
    }

    /// Shape statistics in the spirit of Table 3 of the paper.
    pub fn stats(&self) -> CollectionStats {
        let n = self.len().max(1) as f64;
        let mut dur_sum = 0u128;
        let mut dur_min = u64::MAX;
        let mut dur_max = 0u64;
        let mut desc_sum = 0usize;
        let mut desc_min = usize::MAX;
        let mut desc_max = 0usize;
        for o in &self.objects {
            let d = o.interval.duration();
            dur_sum += d as u128;
            dur_min = dur_min.min(d);
            dur_max = dur_max.max(d);
            let s = o.desc.len();
            desc_sum += s;
            desc_min = desc_min.min(s);
            desc_max = desc_max.max(s);
        }
        let distinct = self.freqs.iter().filter(|&&f| f > 0).count();
        let freq_sum: u64 = self.freqs.iter().map(|&f| f as u64).sum();
        let domain_span = self.domain_max - self.domain_min + 1;
        CollectionStats {
            cardinality: self.len(),
            domain_span,
            min_duration: if self.is_empty() { 0 } else { dur_min },
            max_duration: dur_max,
            avg_duration: dur_sum as f64 / n,
            avg_duration_pct: 100.0 * (dur_sum as f64 / n) / domain_span as f64,
            dictionary_size: distinct,
            min_desc: if self.is_empty() { 0 } else { desc_min },
            max_desc: desc_max,
            avg_desc: desc_sum as f64 / n,
            avg_elem_freq: freq_sum as f64 / distinct.max(1) as f64,
            avg_elem_freq_pct: 100.0 * (freq_sum as f64 / distinct.max(1) as f64) / n,
        }
    }

    /// The running example of Figure 1: eight objects over dictionary
    /// `{a=0, b=1, c=2}`. The canonical query (shaded area, `q.d = {a,c}`)
    /// is `TimeTravelQuery::new(5, 9, vec![0, 2])`, whose answer is
    /// objects o2, o4 and o7 — ids 1, 3 and 6 here (o\_k has id k-1).
    pub fn running_example() -> Collection {
        const A: ElemId = 0;
        const B: ElemId = 1;
        const C: ElemId = 2;
        Collection::new(vec![
            Object::new(0, 11, 15, vec![A, B, C]), // o1: outside query time
            Object::new(1, 2, 6, vec![A, C]),      // o2: answer
            Object::new(2, 3, 8, vec![B]),         // o3: missing a, c
            Object::new(3, 0, 14, vec![A, B, C]),  // o4: answer
            Object::new(4, 4, 7, vec![B, C]),      // o5: missing a
            Object::new(5, 3, 11, vec![C]),        // o6: missing a
            Object::new(6, 6, 13, vec![A, C]),     // o7: answer
            Object::new(7, 8, 9, vec![C]),         // o8: missing a
        ])
    }
}

/// Shape statistics of a collection (cf. Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionStats {
    /// Number of objects.
    pub cardinality: usize,
    /// Domain span in raw units.
    pub domain_span: u64,
    /// Minimum interval duration.
    pub min_duration: u64,
    /// Maximum interval duration.
    pub max_duration: u64,
    /// Average interval duration.
    pub avg_duration: f64,
    /// Average duration as % of the domain.
    pub avg_duration_pct: f64,
    /// Distinct elements actually used.
    pub dictionary_size: usize,
    /// Minimum description size.
    pub min_desc: usize,
    /// Maximum description size.
    pub max_desc: usize,
    /// Average description size.
    pub avg_desc: f64,
    /// Average element document frequency.
    pub avg_elem_freq: f64,
    /// Average element frequency as % of cardinality.
    pub avg_elem_freq_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TimeTravelQuery;

    #[test]
    fn running_example_query_answer() {
        let coll = Collection::running_example();
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let got: Vec<ObjectId> = coll
            .objects()
            .iter()
            .filter(|o| q.matches(o))
            .map(|o| o.id)
            .collect();
        assert_eq!(got, vec![1, 3, 6], "o2, o4, o7");
    }

    #[test]
    fn frequencies_match_figure1() {
        let coll = Collection::running_example();
        assert_eq!(coll.freq(0), 4, "a appears in o1, o2, o4, o7");
        assert_eq!(coll.freq(1), 4, "b appears in o1, o3, o4, o5");
        assert_eq!(coll.freq(2), 7, "c appears in all but o3");
        assert!(coll.freq(0) < coll.freq(2), "a is less frequent than c");
    }

    #[test]
    fn stats_plausible() {
        let coll = Collection::running_example();
        let s = coll.stats();
        assert_eq!(s.cardinality, 8);
        assert_eq!(s.dictionary_size, 3);
        assert_eq!(s.domain_span, 16);
        assert!(s.avg_desc > 1.0 && s.avg_desc < 3.0);
        assert_eq!(s.max_duration, 15);
    }

    #[test]
    fn split_for_updates() {
        let coll = Collection::running_example();
        let (offline, batch) = coll.split_for_updates(0.25);
        assert_eq!(offline.len(), 6);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].id, 6);
        // Domain hint preserved even though late objects were removed.
        assert_eq!(offline.domain(), coll.domain());
    }

    #[test]
    fn sparse_ascending_ids_are_accepted() {
        let coll = Collection::new(vec![
            Object::new(3, 0, 4, vec![0]),
            Object::new(9, 2, 6, vec![0, 1]),
            Object::new(40, 5, 8, vec![1]),
        ]);
        assert_eq!(coll.len(), 3);
        assert_eq!(coll.domain(), Interval::new(0, 8));
        assert_eq!(coll.freq(0), 2);
        assert_eq!(coll.get(9).interval, Interval::new(2, 6));
        assert_eq!(coll.get(40).desc, vec![1]);
        assert_eq!(coll.get(3).id, 3);
    }

    #[test]
    #[should_panic(expected = "no object with id 4")]
    fn get_of_a_missing_id_panics() {
        let coll = Collection::new(vec![Object::new(3, 0, 4, vec![0])]);
        let _ = coll.get(4);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_duplicate_ids() {
        let _ = Collection::new(vec![
            Object::new(5, 0, 1, vec![0]),
            Object::new(5, 2, 3, vec![0]),
        ]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_descending_ids() {
        let _ = Collection::new(vec![
            Object::new(5, 0, 1, vec![0]),
            Object::new(2, 2, 3, vec![0]),
        ]);
    }
}
