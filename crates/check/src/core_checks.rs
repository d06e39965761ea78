//! Validators for the temporal-IR indexes (`tir-core`).

use std::collections::{BTreeMap, BTreeSet};

use crate::{fail, nest, Validate, Violation};
use tir_core::{
    with_method, Collection, CompressedTif, IrHintPerf, IrHintSize, Method, Tif, TifHint,
    TifHintSlicing, TifSharding, TifSlicing, IMPACT_STRIDE,
};
use tir_hint::DivisionKind;
use tir_invidx::{live, raw};

fn kind_name(kind: DivisionKind) -> &'static str {
    match kind {
        DivisionKind::OrigIn => "O_in",
        DivisionKind::OrigAft => "O_aft",
        DivisionKind::ReplIn => "R_in",
        DivisionKind::ReplAft => "R_aft",
    }
}

fn kind_code_name(code: u8) -> &'static str {
    match code {
        0 => "O_in",
        1 => "O_aft",
        2 => "R_in",
        3 => "R_aft",
        _ => "unknown_kind",
    }
}

/// Validates one time-aware postings list (parallel arrays sorted by raw
/// object id, proper intervals). Returns the live-entry count.
fn check_temporal_list(
    path: &str,
    ids: &[u32],
    sts: &[u64],
    ends: &[u64],
    out: &mut Vec<Violation>,
) -> usize {
    if sts.len() != ids.len() || ends.len() != ids.len() {
        fail(
            out,
            path,
            format!(
                "parallel columns disagree: {} ids, {} starts, {} ends",
                ids.len(),
                sts.len(),
                ends.len()
            ),
        );
        return 0;
    }
    if !ids.windows(2).all(|w| raw(w[0]) < raw(w[1])) {
        fail(
            out,
            path,
            "postings not strictly ascending by raw id".into(),
        );
    }
    for i in 0..ids.len() {
        if sts[i] > ends[i] {
            fail(
                out,
                path,
                format!(
                    "id {}: inverted interval [{}, {}]",
                    raw(ids[i]),
                    sts[i],
                    ends[i]
                ),
            );
        }
    }
    ids.iter().filter(|&&id| live(id)).count()
}

impl Validate for Tif {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        self.for_each_list(|e, list| {
            let path = format!("tif/elem{e}");
            let live_count = check_temporal_list(&path, &list.ids, &list.sts, &list.ends, &mut out);
            if live_count != self.freq(e) as usize {
                fail(
                    &mut out,
                    &path,
                    format!(
                        "{live_count} live postings, planner tracks freq {}",
                        self.freq(e)
                    ),
                );
            }
            // The hybrid container mirror must agree list-for-list with
            // the temporal lists the planner intersects against.
            match self.containers().get(e) {
                None if live_count > 0 => fail(
                    &mut out,
                    &path,
                    format!("{live_count} live postings but no hybrid container"),
                ),
                Some(c) if c.cardinality() as usize != live_count => fail(
                    &mut out,
                    &path,
                    format!(
                        "hybrid container holds {} live ids, temporal list {live_count}",
                        c.cardinality()
                    ),
                ),
                _ => {}
            }
        });
        out.extend(self.containers().validate());
        out
    }
}

impl Validate for TifSlicing {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut live_ids: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        self.for_each_sublist(|e, s, sub| {
            let path = format!("tif_slicing/elem{e}/slice{s}");
            if s >= self.num_slices() {
                fail(
                    &mut out,
                    &path,
                    format!(
                        "slice index beyond the {} configured slices",
                        self.num_slices()
                    ),
                );
            }
            let clean_before = out.len();
            check_temporal_list(&path, &sub.ids, &sub.sts, &sub.ends, &mut out);
            if out.len() != clean_before {
                return;
            }
            for i in 0..sub.ids.len() {
                // A posting is replicated into every slice its interval
                // overlaps, so each copy must sit inside its own span.
                let (lo, hi) = (self.slice_of(sub.sts[i]), self.slice_of(sub.ends[i]));
                if !(lo..=hi).contains(&s) {
                    fail(
                        &mut out,
                        &path,
                        format!(
                            "id {}: copy outside its slice span [{lo}, {hi}]",
                            raw(sub.ids[i])
                        ),
                    );
                }
                if live(sub.ids[i]) {
                    live_ids.entry(e).or_default().insert(raw(sub.ids[i]));
                }
            }
        });
        for (&e, ids) in &live_ids {
            if ids.len() != self.freq(e) as usize {
                fail(
                    &mut out,
                    &format!("tif_slicing/elem{e}"),
                    format!(
                        "{} distinct live objects across slices, planner tracks freq {}",
                        ids.len(),
                        self.freq(e)
                    ),
                );
            }
        }
        out
    }
}

impl Validate for TifSharding {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut shard_no: BTreeMap<u32, usize> = BTreeMap::new();
        let mut live_count: BTreeMap<u32, usize> = BTreeMap::new();
        self.for_each_shard(|e, shard| {
            let i = shard_no.entry(e).or_insert(0);
            let path = format!("tif_sharding/elem{e}/shard{i}");
            *i += 1;
            let n = shard.ids.len();
            if shard.sts.len() != n || shard.ends.len() != n {
                fail(
                    &mut out,
                    &path,
                    format!(
                        "parallel columns disagree: {n} ids, {} starts, {} ends",
                        shard.sts.len(),
                        shard.ends.len()
                    ),
                );
                return;
            }
            if !shard.sts.windows(2).all(|w| w[0] <= w[1]) {
                fail(&mut out, &path, "starts not ascending".into());
            }
            for k in 0..n {
                if shard.sts[k] > shard.ends[k] {
                    fail(
                        &mut out,
                        &path,
                        format!(
                            "id {}: inverted interval [{}, {}]",
                            raw(shard.ids[k]),
                            shard.sts[k],
                            shard.ends[k]
                        ),
                    );
                }
            }
            if shard.staircase {
                if !shard.ends.windows(2).all(|w| w[0] <= w[1]) {
                    fail(
                        &mut out,
                        &path,
                        "staircase shard with ends not ascending".into(),
                    );
                }
                if !shard.impact.is_empty() {
                    fail(
                        &mut out,
                        &path,
                        "staircase shard carries an impact list".into(),
                    );
                }
            } else {
                let want_blocks = n.div_ceil(IMPACT_STRIDE);
                if shard.impact.len() != want_blocks {
                    fail(
                        &mut out,
                        &path,
                        format!(
                            "impact list has {} blocks for {n} entries (want {want_blocks})",
                            shard.impact.len()
                        ),
                    );
                } else {
                    for (b, chunk) in shard.ends.chunks(IMPACT_STRIDE).enumerate() {
                        let max = chunk.iter().copied().max().unwrap_or(0);
                        if shard.impact[b] != max {
                            fail(
                                &mut out,
                                &path,
                                format!(
                                    "impact block {b} caches {}, block maximum end is {max}",
                                    shard.impact[b]
                                ),
                            );
                        }
                    }
                }
            }
            *live_count.entry(e).or_insert(0) += shard.ids.iter().filter(|&&id| live(id)).count();
        });
        for (&e, &count) in &live_count {
            if count != self.freq(e) as usize {
                fail(
                    &mut out,
                    &format!("tif_sharding/elem{e}"),
                    format!(
                        "{count} live postings across shards, planner tracks freq {}",
                        self.freq(e)
                    ),
                );
            }
        }
        out
    }
}

impl Validate for TifHint {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        self.for_each_hint(|e, h| {
            let prefix = format!("tif_hint/elem{e}");
            nest(&prefix, h.validate(), &mut out);
            if h.len() != self.freq(e) as usize {
                fail(
                    &mut out,
                    &prefix,
                    format!(
                        "per-element HINT holds {} live intervals, planner tracks freq {}",
                        h.len(),
                        self.freq(e)
                    ),
                );
            }
        });
        out
    }
}

impl Validate for IrHintPerf {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let domain = self.domain();
        let mut orig_live: BTreeMap<u32, usize> = BTreeMap::new();
        self.for_each_division(|level, j, kind, div| {
            let prefix = format!("irhint_perf/level{level}/partition{j}/{}", kind_name(kind));
            let nested = div.validate();
            let clean = nested.is_empty();
            nest(&prefix, nested, &mut out);
            if !clean {
                // The flat directory is unreliable; skip elementwise walks.
                return;
            }
            let fc = domain.partition_first_cell(level, j);
            let lc = domain.partition_last_cell(level, j);
            let original = matches!(kind, DivisionKind::OrigIn | DivisionKind::OrigAft);
            let inside = matches!(kind, DivisionKind::OrigIn | DivisionKind::ReplIn);
            let offsets = div.offsets();
            for (ei, &e) in div.elements().iter().enumerate() {
                let (from, to) = (offsets[ei] as usize, offsets[ei + 1] as usize);
                for p in from..to {
                    let id = div.all_ids()[p];
                    let cs = domain.cell(div.all_sts()[p]);
                    let ce = domain.cell(div.all_ends()[p]);
                    if original && !(fc..=lc).contains(&cs) {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e} id {}: original with start cell {cs} outside partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if !original && cs >= fc {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e} id {}: replica with start cell {cs} not before partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if inside && ce > lc {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e} id {}: *_in entry with end cell {ce} after partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if !inside && ce <= lc {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e} id {}: *_aft entry with end cell {ce} inside partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if original && live(id) {
                        *orig_live.entry(e).or_insert(0) += 1;
                    }
                }
            }
        });
        for (&e, &count) in &orig_live {
            if count != self.freq(e) as usize {
                fail(
                    &mut out,
                    &format!("irhint_perf/elem{e}"),
                    format!(
                        "{count} live original postings across divisions, planner tracks freq {}",
                        self.freq(e)
                    ),
                );
            }
        }
        out
    }
}

impl Validate for IrHintSize {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        nest("irhint_size/hint", self.hint().validate(), &mut out);

        // Live object ids stored in each interval-store division; every
        // live posting of the decoupled inverted side must reference one
        // of them (cross-structure agreement).
        let mut div_live: BTreeMap<(u32, u32, u8), BTreeSet<u32>> = BTreeMap::new();
        self.hint().for_each_division(|div, _dead| {
            let code = match div.kind {
                DivisionKind::OrigIn => 0u8,
                DivisionKind::OrigAft => 1,
                DivisionKind::ReplIn => 2,
                DivisionKind::ReplAft => 3,
            };
            let set = div_live.entry((div.level, div.j, code)).or_default();
            for &id in div.ids {
                if live(id) {
                    set.insert(raw(id));
                }
            }
        });

        let mut orig_live: BTreeMap<u32, usize> = BTreeMap::new();
        self.for_each_division_index(|level, j, code, inv| {
            let prefix = format!("irhint_size/level{level}/partition{j}/{}", kind_code_name(code));
            let nested = inv.validate();
            let clean = nested.is_empty();
            nest(&prefix, nested, &mut out);
            if !clean {
                return;
            }
            let stored = div_live.get(&(level, j, code));
            let offsets = inv.offsets();
            for (ei, &e) in inv.elements().iter().enumerate() {
                let (from, to) = (offsets[ei] as usize, offsets[ei + 1] as usize);
                for p in from..to {
                    let id = inv.all_ids()[p];
                    if !live(id) {
                        continue;
                    }
                    if !stored.is_some_and(|s| s.contains(&raw(id))) {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e}: live posting {} absent from the interval store's division",
                                raw(id)
                            ),
                        );
                    }
                    if code <= 1 {
                        *orig_live.entry(e).or_insert(0) += 1;
                    }
                }
            }
        });
        for (&e, &count) in &orig_live {
            if count != self.freq(e) as usize {
                fail(
                    &mut out,
                    &format!("irhint_size/elem{e}"),
                    format!(
                        "{count} live original postings across divisions, planner tracks freq {}",
                        self.freq(e)
                    ),
                );
            }
        }
        out
    }
}

impl Validate for TifHintSlicing {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        self.for_each_hint(|e, h| {
            let prefix = format!("hybrid/elem{e}/hint");
            nest(&prefix, h.validate(), &mut out);
            if h.len() != self.freq(e) as usize {
                fail(
                    &mut out,
                    &prefix,
                    format!(
                        "per-element HINT holds {} live intervals, planner tracks freq {}",
                        h.len(),
                        self.freq(e)
                    ),
                );
            }
        });
        // The sliced copy must hold the same live objects per element as
        // the HINT copy: every sub-list id-sorted, every live object in
        // at least one slice.
        let mut live_ids: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        self.for_each_sublist(|e, s, ids, sts| {
            let path = format!("hybrid/elem{e}/slice{s}");
            if ids.len() != sts.len() {
                fail(
                    &mut out,
                    &path,
                    format!("{} ids but {} starts", ids.len(), sts.len()),
                );
            }
            if !ids.windows(2).all(|w| raw(w[0]) < raw(w[1])) {
                fail(
                    &mut out,
                    &path,
                    "sub-list not strictly ascending by raw id".into(),
                );
            }
            let set = live_ids.entry(e).or_default();
            set.extend(ids.iter().filter(|&&id| live(id)).map(|&id| raw(id)));
        });
        for (&e, ids) in &live_ids {
            if ids.len() != self.freq(e) as usize {
                fail(
                    &mut out,
                    &format!("hybrid/elem{e}"),
                    format!(
                        "{} distinct live objects across slices, planner tracks freq {}",
                        ids.len(),
                        self.freq(e)
                    ),
                );
            }
        }
        out
    }
}

impl Validate for CompressedTif {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        // Live postings per element: base entries not deleted plus live
        // overlay entries, which together must match the planner.
        let mut live_count: BTreeMap<u32, usize> = BTreeMap::new();
        self.for_each_base(|e, ids, temporal| {
            let prefix = format!("ctif/elem{e}/base");
            let nested = ids.validate();
            let clean = nested.is_empty();
            nest(&prefix, nested, &mut out);
            if temporal.map_or(0, |t| t.len()) != ids.len() {
                fail(
                    &mut out,
                    &prefix,
                    format!(
                        "{} block-coded ids but {} temporal triples",
                        ids.len(),
                        temporal.map_or(0, |t| t.len())
                    ),
                );
            }
            if clean {
                let mut live_base = 0usize;
                ids.for_each(|id| live_base += usize::from(!self.is_base_dead(id)));
                *live_count.entry(e).or_insert(0) += live_base;
            }
        });
        self.for_each_overlay(|e, list| {
            let path = format!("ctif/elem{e}/overlay");
            *live_count.entry(e).or_insert(0) +=
                check_temporal_list(&path, &list.ids, &list.sts, &list.ends, &mut out);
        });
        for (&e, &count) in &live_count {
            if count != self.freq(e) as usize {
                fail(
                    &mut out,
                    &format!("ctif/elem{e}"),
                    format!(
                        "{count} live postings across base and overlay, planner tracks freq {}",
                        self.freq(e)
                    ),
                );
            }
        }
        out
    }
}

/// Builds `method` over `coll` and validates the result — the one
/// structural check every served method has.
pub fn validate_method(method: Method, coll: &Collection) -> Vec<Violation> {
    with_method!(method, |build| build(coll).validate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_core::prelude::*;

    #[test]
    fn clean_indexes_validate() {
        let coll = Collection::running_example();
        for m in Method::ALL {
            let v = validate_method(m, &coll);
            assert!(v.is_empty(), "{m}: {v:?}");
        }
    }

    #[test]
    fn indexes_validate_after_updates() {
        let coll = Collection::running_example();
        let victim = coll.objects()[0].clone();
        let extra = Object {
            id: 900,
            interval: Interval { st: 2, end: 11 },
            desc: victim.desc.clone(),
        };
        for m in Method::ALL {
            let v = with_method!(m, |build| {
                let mut index = build(&coll);
                index.insert(&extra);
                assert!(index.delete(&victim), "{m}");
                index.validate()
            });
            assert!(v.is_empty(), "{m}: {v:?}");
        }
    }

    #[test]
    fn empty_collection_validates() {
        let coll = Collection::new(Vec::new());
        for m in Method::ALL {
            let v = validate_method(m, &coll);
            assert!(v.is_empty(), "{m}: {v:?}");
        }
    }
}
