//! Durability for every method: each of the nine indexes runs the full
//! create → insert/delete batches → drop → recover cycle, and the
//! recovered index must be structurally valid and agree exactly with a
//! `BruteForce` oracle over the recovered catalog. Deletes leave the
//! catalog's ids sparse, which is the shape recovery rebuilds from.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use tir_check::Validate;
use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::SyntheticConfig;
use tir_invidx::Dictionary;
use tir_persist::wal::WalOp;
use tir_persist::{Durability, DurabilityOptions, Persist, Recovered};

fn corpus() -> Collection {
    let mut cfg = SyntheticConfig::default().scaled(0.001);
    cfg.desc_size = 3;
    cfg.seed = 5;
    tir_datagen::generate(&cfg)
}

/// Eight batches of two inserts (fresh ids with gaps) and two deletes
/// (spread over the live catalog), tracked against a catalog model.
fn batches(coll: &Collection) -> (Vec<Vec<WalOp>>, BTreeMap<u32, Object>) {
    let mut model: BTreeMap<u32, Object> =
        coll.objects().iter().map(|o| (o.id, o.clone())).collect();
    let d = coll.domain();
    let span = (d.end - d.st).max(1);
    let mut next_id = coll.len() as u32 + 100;
    let mut out = Vec::new();
    for b in 0..8u64 {
        let mut ops = Vec::new();
        for k in 0..2u64 {
            let st = d.st + span * ((b * 2 + k) % 13) / 13;
            let o = Object::new(next_id, st, st + span / 20, vec![0, (b + k) as u32 % 7 + 1]);
            next_id += 7;
            model.insert(o.id, o.clone());
            ops.push(WalOp::Insert(o));
        }
        for k in 0..2usize {
            let ids: Vec<u32> = model.keys().copied().collect();
            let victim = ids[(b as usize * 31 + k * 17) % ids.len()];
            let o = model.remove(&victim).expect("live victim");
            ops.push(WalOp::Delete(o));
        }
        out.push(ops);
    }
    (out, model)
}

/// Validate plus exact oracle agreement over the recovered catalog.
fn assert_sound<I: TemporalIrIndex + Validate>(r: &Recovered<I>, ctx: &str) {
    let violations = r.index.validate();
    assert!(violations.is_empty(), "{ctx}: {violations:?}");
    let catalog = r.durability.catalog_sorted();
    let grid = tir_check::oracle_query_grid(&catalog, 48, 9);
    let diverging = tir_check::diff_against_oracle(&r.index, &catalog, &grid);
    assert!(diverging.is_empty(), "{ctx}: {diverging:?}");
}

fn run<I, F>(method: Method, build: F)
where
    I: Persist + TemporalIrIndex + Validate,
    F: FnOnce(&Collection) -> I,
{
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tir-every-{}-{method}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let coll = corpus();
    let dict = Dictionary::new();
    let opts = DurabilityOptions {
        segment_bytes: 1024,
        snapshot_every: 3,
    };

    let mut index = build(&coll);
    let mut d = Durability::create(&dir, &index, &dict, coll.objects(), opts).expect("create");
    let (batches, model) = batches(&coll);
    for ops in &batches {
        d.apply_batch(&mut index, ops).expect("apply");
        d.maybe_snapshot(&index, &dict).expect("snapshot");
    }
    assert!(d.snapshot_epoch() > 0 && d.snapshot_epoch() < d.epoch());
    drop(d);

    // Recovery: snapshot + WAL tail, rebuilt as `method`.
    let r: Recovered<I> = Durability::recover(&dir, opts).expect("recover");
    assert_eq!(r.index.method(), method);
    assert_eq!(r.epoch, batches.len() as u64);
    assert!(r.replayed > 0, "{method}: the WAL tail was not replayed");
    let want: Vec<Object> = model.values().cloned().collect();
    assert_eq!(r.durability.catalog_sorted(), want, "{method}: catalog");
    let ids: Vec<u32> = want.iter().map(|o| o.id).collect();
    assert!(
        ids.windows(2).any(|w| w[1] - w[0] > 1),
        "{method}: ids are not sparse"
    );
    assert_sound(&r, method.name());

    // One more append, then a second recovery sees it.
    let extra = Object::new(4_000_000, 1, 5, vec![0, 1]);
    let (mut d, mut index) = (r.durability, r.index);
    let out = d
        .apply_batch(&mut index, &[WalOp::Insert(extra.clone())])
        .expect("append after recovery");
    drop(d);
    let r2: Recovered<I> = Durability::recover(&dir, opts).expect("second recover");
    assert_eq!(r2.epoch, out.epoch);
    let hits = r2.index.query(&TimeTravelQuery::new(1, 5, vec![0, 1]));
    assert!(hits.contains(&extra.id), "{method}: appended object lost");
    assert_sound(&r2, &format!("{method} (second recovery)"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_method_recovers_oracle_exact() {
    for method in Method::ALL {
        with_method!(method, |build| run(method, build));
    }
}
