//! Snapshot format roundtrips: for every method, a snapshot of a sparse
//! catalog reads back the exact dictionary and catalog, and the index
//! rebuilt from it through [`Persist::rebuild`] answers an oracle-checked
//! query grid. Corruption anywhere in the file, a version skew and an
//! unknown method tag must be detected at open time.

use std::fs;
use std::path::{Path, PathBuf};

use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::SyntheticConfig;
use tir_invidx::Dictionary;
use tir_persist::{
    write_snapshot, Durability, DurabilityOptions, Persist, Recovered, SnapshotError, SnapshotFile,
    FORMAT_VERSION,
};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tir-snap-rt-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// A synthetic corpus with every third object deleted, so catalog ids
/// are sparse.
fn corpus() -> Collection {
    let mut cfg = SyntheticConfig::default().scaled(0.002);
    cfg.desc_size = 4;
    cfg.seed = 77;
    let dense = tir_datagen::generate(&cfg);
    Collection::new(
        dense
            .objects()
            .iter()
            .filter(|o| o.id % 3 != 2)
            .cloned()
            .collect(),
    )
}

fn dict_for(coll: &Collection) -> Dictionary {
    // A synthetic dictionary covering every element id in the corpus.
    let mut d = Dictionary::new();
    for e in 0..coll.dict_size() as u32 {
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

/// Rebuilds `method` from the snapshot's catalog and checks it against
/// the oracle. `_build` only names the method's index type.
fn rebuild_matches_oracle<I, F>(method: Method, snap: &SnapshotFile, coll: &Collection, _build: F)
where
    I: Persist + TemporalIrIndex,
    F: FnOnce(&Collection) -> I,
{
    let catalog = Collection::new(snap.catalog_objects().expect("catalog"));
    let rebuilt = I::rebuild(method, &catalog);
    assert_eq!(rebuilt.method(), method);
    assert_eq!(rebuilt.name(), method.label());
    let oracle = BruteForce::build(coll.objects());
    for q in query_grid(coll) {
        let mut got = rebuilt.query(&q);
        got.sort_unstable();
        assert_eq!(got, oracle.answer(&q), "{method} diverged on {q:?}");
    }
}

#[test]
fn every_method_roundtrips() {
    let coll = corpus();
    let dict = dict_for(&coll);
    for method in Method::ALL {
        let path = scratch(&format!("{method}.tir"));
        write_snapshot(&path, method, 42, &dict, coll.objects()).expect("write snapshot");
        let snap = SnapshotFile::open(&path).expect("open snapshot");
        assert_eq!(snap.meta().method, method);
        assert_eq!(snap.meta().epoch, 42);
        assert_eq!(snap.meta().live, coll.len() as u64);
        assert_eq!(
            (snap.meta().domain_min, snap.meta().domain_max),
            (coll.domain().st, coll.domain().end)
        );

        // Dictionary and catalog columns roundtrip exactly.
        let rdict = snap.dictionary().expect("dictionary");
        assert_eq!(rdict.len(), dict.len());
        assert_eq!(rdict.lookup("term-1"), Some(1));
        assert_eq!(rdict.freq(1), dict.freq(1));
        assert_eq!(snap.catalog_objects().expect("catalog"), coll.objects());

        with_method!(method, |build| rebuild_matches_oracle(
            method, &snap, &coll, build
        ));
        let _ = fs::remove_file(&path);
    }
}

#[test]
fn unsorted_catalogs_are_refused() {
    let coll = corpus();
    let mut objects = coll.objects().to_vec();
    objects.swap(0, 1);
    let path = scratch("unsorted.tir");
    let err = write_snapshot(&path, Method::Tif, 1, &dict_for(&coll), &objects)
        .expect_err("descending ids");
    assert!(err.to_string().contains("ascending"), "{err}");
    let _ = fs::remove_file(&path);
}

#[test]
fn every_corrupted_byte_region_is_detected() {
    let coll = corpus();
    let path = scratch("corrupt.tir");
    write_snapshot(&path, Method::Tif, 1, &dict_for(&coll), coll.objects()).expect("write");
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
        match SnapshotFile::open(&path) {
            Err(SnapshotError::Corrupt { .. }) => {}
            Err(other) => panic!("byte {pos}: wrong error kind {other}"),
            Ok(_) => panic!("byte {pos}: corruption not detected"),
        }
    }
    // Truncation too.
    fs::write(&path, &clean[..clean.len() / 2]).expect("truncate");
    assert!(matches!(
        SnapshotFile::open(&path),
        Err(SnapshotError::Corrupt { .. })
    ));
    let _ = fs::remove_file(&path);
}

/// Writes `bytes` with the header word at `at` replaced by `value` and
/// the header CRC recomputed, so only the open-time semantic checks can
/// refuse the file.
fn write_patched(path: &Path, clean: &[u8], at: usize, value: u32) {
    let mut patched = clean.to_vec();
    patched[at..at + 4].copy_from_slice(&value.to_le_bytes());
    let crc = {
        let mut c = tir_persist::Crc32::new();
        c.update(&patched[0..44]);
        c.update(&[0, 0, 0, 0]);
        c.update(&patched[48..832]);
        c.finish()
    };
    patched[44..48].copy_from_slice(&crc.to_le_bytes());
    fs::write(path, &patched).expect("write patched");
}

#[test]
fn version_skew_and_unknown_methods_are_rejected() {
    let coll = corpus();
    let path = scratch("skew.tir");
    write_snapshot(&path, Method::Tif, 1, &dict_for(&coll), coll.objects()).expect("write");
    let clean = fs::read(&path).expect("read");

    // A "future" file and a version-1 file (typed index sections), each
    // with a valid header CRC, are refused for their version.
    for version in [99, 1] {
        assert_ne!(version, FORMAT_VERSION);
        write_patched(&path, &clean, 8, version);
        let err = SnapshotFile::open(&path).expect_err("version skew");
        assert!(
            err.to_string()
                .contains(&format!("format version {version}")),
            "{err}"
        );
    }

    // A method tag past the registry.
    write_patched(&path, &clean, 12, Method::ALL.len() as u32 + 1);
    let err = SnapshotFile::open(&path).expect_err("unknown method");
    assert!(err.to_string().contains("unknown method tag"), "{err}");
    let _ = fs::remove_file(&path);
}

#[test]
fn a_snapshot_recovers_only_as_its_method() {
    let dir = scratch("wrong-type");
    let _ = fs::remove_dir_all(&dir);
    let coll = corpus();
    let index = Tif::build(&coll);
    let d = Durability::create(
        &dir,
        &index,
        &dict_for(&coll),
        coll.objects(),
        DurabilityOptions::default(),
    )
    .expect("create");
    drop(d);
    let err = Durability::recover::<TifHint>(&dir, DurabilityOptions::default())
        .expect_err("a tif snapshot is not a tIF+HINT one");
    assert!(err.to_string().contains("tif"), "{err}");
    let r: Recovered<Tif> = Durability::recover(&dir, DurabilityOptions::default()).expect("tif");
    assert_eq!(r.durability.live(), coll.len());
    let _ = fs::remove_dir_all(&dir);
}
