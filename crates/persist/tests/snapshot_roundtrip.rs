//! Snapshot format roundtrips: every `Persist` index writes a snapshot,
//! restores from it (heap and mmap), and answers an oracle-checked query
//! grid identically before and after. Corruption anywhere in the file
//! must be detected at open time.

use std::fs;
use std::path::PathBuf;

use tir_core::prelude::*;
use tir_datagen::SyntheticConfig;
use tir_invidx::{CompactTemporalInverted, Dictionary};
use tir_persist::{write_snapshot, IndexKind, LoadMode, Persist, SnapshotError, SnapshotFile};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tir-snap-rt-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn corpus() -> Collection {
    let mut cfg = SyntheticConfig::default().scaled(0.002);
    cfg.desc_size = 4;
    cfg.seed = 77;
    tir_datagen::generate(&cfg)
}

fn dict_for(coll: &Collection) -> Dictionary {
    // A synthetic dictionary covering every element id in the corpus.
    let max_elem = coll
        .objects()
        .iter()
        .flat_map(|o| o.desc.iter().copied())
        .max()
        .unwrap_or(0);
    let mut d = Dictionary::new();
    for e in 0..=max_elem {
        assert_eq!(d.intern(&format!("term-{e}")), e);
    }
    for o in coll.objects() {
        for &e in &o.desc {
            d.bump_freq(e);
        }
    }
    d
}

fn query_grid(coll: &Collection) -> Vec<TimeTravelQuery> {
    let d = coll.domain();
    let span = d.end - d.st;
    let mut qs = Vec::new();
    for (i, frac) in [(1u64, 100u64), (3, 50), (7, 10), (11, 4)]
        .iter()
        .enumerate()
    {
        let st = d.st + span * frac.0 / 13;
        let end = (st + span / frac.1.max(1)).min(d.end);
        qs.push(TimeTravelQuery::new(
            st,
            end,
            vec![i as u32, (i + 1) as u32],
        ));
        qs.push(TimeTravelQuery::new(st, end, vec![(i * 2) as u32]));
    }
    qs.push(TimeTravelQuery::new(d.st, d.end, vec![0, 1, 2]));
    qs
}

/// Writes, restores (both modes), and oracle-checks one index type.
fn roundtrip<I, F>(build: F, kind: IndexKind)
where
    I: Persist + TemporalIrIndex,
    F: Fn(&Collection) -> I,
{
    let name = kind.method_name();
    let coll = corpus();
    let index = build(&coll);
    let dict = dict_for(&coll);
    let oracle = BruteForce::build(coll.objects());
    let path = scratch(&format!("{name}.tir"));
    write_snapshot(&path, 42, &dict, coll.objects(), &index).expect("write snapshot");

    for mode in [LoadMode::Heap, LoadMode::Mmap] {
        let snap = SnapshotFile::open(&path, mode).expect("open snapshot");
        assert_eq!(snap.meta().kind, kind);
        assert_eq!(snap.meta().epoch, 42);
        assert_eq!(snap.meta().live, coll.len() as u64);
        assert_eq!(snap.is_mapped(), mode == LoadMode::Mmap && cfg!(unix));

        // Dictionary and catalog columns roundtrip exactly.
        let rdict = snap.dictionary().expect("dictionary");
        assert_eq!(rdict.len(), dict.len());
        assert_eq!(rdict.lookup("term-1"), Some(1));
        let rcat = snap.catalog_objects().expect("catalog");
        assert_eq!(rcat.len(), coll.len());

        // The restored native index answers the grid like the oracle.
        let restored = I::restore(&snap).expect("restore");
        for q in query_grid(&coll) {
            let mut got = restored.query(&q);
            got.sort_unstable();
            assert_eq!(got, oracle.answer(&q), "{name}/{mode:?} diverged on {q:?}");
        }
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn tif_roundtrips() {
    roundtrip(Tif::build, IndexKind::Tif);
}

#[test]
fn tif_hint_bs_roundtrips() {
    roundtrip(
        |c| TifHint::build(c, TifHintConfig::binary_search()),
        IndexKind::TifHintBs,
    );
}

#[test]
fn tif_hint_ms_roundtrips() {
    roundtrip(
        |c| TifHint::build(c, TifHintConfig::merge_sort()),
        IndexKind::TifHintMs,
    );
}

#[test]
fn brute_force_roundtrips() {
    roundtrip(|c| BruteForce::build(c.objects()), IndexKind::BruteForce);
}

#[test]
fn compact_roundtrips() {
    let coll = corpus();
    let mut tuples: Vec<(u32, u32, u64, u64)> = coll
        .objects()
        .iter()
        .flat_map(|o| {
            o.desc
                .iter()
                .map(move |&e| (e, o.id, o.interval.st, o.interval.end))
        })
        .collect();
    let index = CompactTemporalInverted::build(&mut tuples);
    let dict = dict_for(&coll);
    let path = scratch("compact.tir");
    write_snapshot(&path, 7, &dict, coll.objects(), &index).expect("write");
    let snap = SnapshotFile::open(&path, LoadMode::Mmap).expect("open");
    assert_eq!(snap.meta().kind, IndexKind::CompactTemporal);
    let restored = CompactTemporalInverted::restore(&snap).expect("restore");
    assert_eq!(restored.elements(), index.elements());
    assert_eq!(restored.all_ids(), index.all_ids());
    assert_eq!(restored.all_sts(), index.all_sts());
    let _ = fs::remove_file(&path);
}

#[test]
fn snapshot_compacts_tombstones_away() {
    // Deleted postings must not survive a snapshot: write → restore must
    // agree with the post-delete oracle, and the canonical postings
    // count shrinks.
    let coll = corpus();
    let mut index = Tif::build(&coll);
    let mut oracle = BruteForce::build(coll.objects());
    let mut live: Vec<Object> = coll.objects().to_vec();
    for k in 0..coll.len() / 3 {
        let o = live.remove((k * 7) % live.len());
        assert!(index.delete(&o));
        assert!(oracle.delete(&o));
    }
    let path = scratch("tombstones.tir");
    write_snapshot(&path, 1, &dict_for(&coll), &live, &index).expect("write");
    let snap = SnapshotFile::open(&path, LoadMode::Heap).expect("open");
    assert_eq!(snap.meta().live, live.len() as u64);
    let restored = Tif::restore(&snap).expect("restore");
    assert!(
        restored.num_postings() < index.num_postings(),
        "snapshot kept tombstoned postings"
    );
    for q in query_grid(&coll) {
        let mut got = restored.query(&q);
        got.sort_unstable();
        assert_eq!(got, oracle.answer(&q));
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn every_corrupted_byte_region_is_detected() {
    let coll = corpus();
    let index = Tif::build(&coll);
    let path = scratch("corrupt.tir");
    write_snapshot(&path, 1, &dict_for(&coll), coll.objects(), &index).expect("write");
    let clean = fs::read(&path).expect("read");
    // Flip one byte in every CRC-covered region: the header, each
    // section-table entry, and the head/middle/tail of every section
    // payload. (Alignment padding between sections is deliberately not
    // covered — nothing reads it.)
    let mut positions: Vec<usize> = vec![0, 9, 13, 20, 33, 40];
    let n_sections = u32::from_le_bytes(clean[32..36].try_into().unwrap()) as usize;
    for i in 0..n_sections {
        let base = 64 + i * 32;
        positions.extend([base, base + 8, base + 16, base + 24]);
        let off = u64::from_le_bytes(clean[base + 8..base + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(clean[base + 16..base + 24].try_into().unwrap()) as usize;
        if len > 0 {
            positions.extend([off, off + len / 2, off + len - 1]);
        }
    }
    for pos in positions {
        let mut bad = clean.clone();
        bad[pos] ^= 0x40;
        fs::write(&path, &bad).expect("write corrupted");
        match SnapshotFile::open(&path, LoadMode::Heap) {
            Err(SnapshotError::Corrupt { .. }) => {}
            Err(other) => panic!("byte {pos}: wrong error kind {other}"),
            Ok(_) => panic!("byte {pos}: corruption not detected"),
        }
    }
    // Truncation too.
    fs::write(&path, &clean[..clean.len() / 2]).expect("truncate");
    assert!(matches!(
        SnapshotFile::open(&path, LoadMode::Heap),
        Err(SnapshotError::Corrupt { .. })
    ));
    let _ = fs::remove_file(&path);
}

#[test]
fn unknown_version_and_kind_are_rejected() {
    let coll = corpus();
    let index = Tif::build(&coll);
    let path = scratch("skew.tir");
    write_snapshot(&path, 1, &dict_for(&coll), coll.objects(), &index).expect("write");
    let clean = fs::read(&path).expect("read");

    // Version bump: rejected even with a recomputed CRC? The CRC guards
    // the header, so a bare flip is caught; a "future" file with a valid
    // CRC must still be refused — patch version AND fix the CRC.
    let mut future = clean.clone();
    future[8] = 99;
    let crc = {
        let mut c = tir_persist::Crc32::new();
        c.update(&future[0..44]);
        c.update(&[0, 0, 0, 0]);
        c.update(&future[48..832]);
        c.finish()
    };
    future[44..48].copy_from_slice(&crc.to_le_bytes());
    fs::write(&path, &future).expect("write future");
    let err = SnapshotFile::open(&path, LoadMode::Heap).expect_err("future version");
    assert!(err.to_string().contains("version"), "{err}");

    // Wrong-kind restore: a Tif snapshot refuses to restore as TifHint.
    fs::write(&path, &clean).expect("restore clean");
    let snap = SnapshotFile::open(&path, LoadMode::Heap).expect("open");
    assert!(TifHint::restore(&snap).is_err());
    let _ = fs::remove_file(&path);
}
