//! The traced run's in-process replay: the operations a workload sent
//! over the wire, replayed through each layer's public functions, with
//! a span around every call (see [`crate::trace`]).
//!
//! * Pass A, one thread: `EpochStore::snapshot` and
//!   `TemporalIrIndex::query_into` per query, with the planner's
//!   process-wide counters read around each call.
//! * Pass B, one thread per connection: `protocol::parse_request`,
//!   `QueryPool::execute`, `protocol::format_response` per query,
//!   `EpochStore::enqueue` per write and `EpochStore::flush` per FLUSH,
//!   against a store and pool configured as `tir serve` configures them.
//! * Write layer on a private copy: `Clone::clone`, `Validate::validate`,
//!   per-op `insert`/`delete` and `insert_batch`.
//! * Persist layer in scratch directories: `Durability::create`,
//!   `write_snapshot`, `apply_batch`, `Wal::append`/`Wal::sync`,
//!   `validate_snapshot` and `Durability::recover`. On the durable
//!   workload this is the served tIF; on the in-memory workloads, which
//!   have no persist layer on their path, it logs the workload's own
//!   write stream into an empty tIF.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tir_check::Validate;
use tir_core::{Object, ObjectId, QueryScratch, TemporalIrIndex, Tif, TimeTravelQuery};
use tir_invidx::{global_stats, PlanStats};
use tir_persist::wal::{Wal, DEFAULT_SEGMENT_BYTES};
use tir_persist::{Durability, DurabilityOptions, WalOp};
use tir_serve::epoch::{EpochConfig, EpochStore, WriteOp};
use tir_serve::pool::{PoolConfig, QueryPool};
use tir_serve::protocol::{format_response, parse_request, Request, Response};

use crate::report::Metric;
use crate::spec::{Inputs, Op, Spec};
use crate::stats::{mean, quantile};
use crate::trace::Tracer;

/// What the replay needs from an index type.
pub trait Index: TemporalIrIndex + Validate + Clone + Send + Sync + 'static {}
impl<T: TemporalIrIndex + Validate + Clone + Send + Sync + 'static> Index for T {}

/// Measured-window operations replayed per connection, at most.
pub const MAX_REPLAY_OPS: usize = 3000;
/// Objects for the per-op insert/delete calls.
const PER_OP_WRITES: usize = 64;
/// Objects in the `insert_batch` call.
const BATCH_WRITES: usize = 256;
/// Write batches logged by the persist walk.
const MAX_PERSIST_BATCHES: usize = 64;
/// How far, as a share of the median round trip, the medians along a
/// query's blocking path may sum away from it before the run says so.
const PATH_TOLERANCE: f64 = 0.1;

/// A connection's recorded operations: (operation id, operation).
pub type Recorded = Vec<(u64, Op)>;

/// Everything the replay reads.
pub struct ReplayInput<'a, I> {
    /// The served method's index over the corpus.
    pub index: I,
    /// Seconds `build` took.
    pub build_s: f64,
    /// Generated inputs.
    pub inputs: &'a Inputs,
    /// The workload.
    pub spec: &'a Spec,
    /// Recorded operations per connection, in send order (at most
    /// [`MAX_REPLAY_OPS`] of the measured window, then any writes sent
    /// after it).
    pub conns: Vec<Recorded>,
    /// Client round trip of each recorded query, by operation id.
    pub rtts: &'a HashMap<u64, u64>,
    /// Wall-time budget of pass B.
    pub budget: Duration,
    /// Scratch space.
    pub workdir: &'a Path,
}

fn median_ns(v: &mut [u64]) -> f64 {
    quantile(v, 0.5).map_or(f64::NAN, |x| x as f64)
}

fn median_i64(v: &mut [i64]) -> f64 {
    v.sort_unstable();
    v.get(v.len().saturating_sub(1) / 2)
        .map_or(f64::NAN, |&x| x as f64)
}

fn times(tr: &Tracer, name: &str) -> Vec<u64> {
    tr.self_by_name(name).into_iter().map(|(_, t)| t).collect()
}

/// Runs the replay; returns the per-layer metrics, the spans and any
/// correctness problems it found.
pub fn replay<I: Index>(
    r: ReplayInput<'_, I>,
) -> Result<(Vec<Metric>, Tracer, Vec<String>), String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let mut problems = Vec::new();
    let mut m: Vec<Metric> = Vec::new();

    let ReplayInput {
        index,
        build_s,
        inputs,
        spec,
        conns,
        rtts,
        budget,
        workdir,
    } = r;
    let conns = &conns;
    let live = inputs.collection.len() as u64;
    let store = Arc::new(EpochStore::new(
        index,
        live,
        EpochConfig {
            validator: Some(Box::new(|i: &I| i.validate().len())),
            ..EpochConfig::default()
        },
    ));
    let pool = QueryPool::new(Arc::clone(&store), PoolConfig::default());

    // Pass A: the index layer alone.
    let mut scratch = QueryScratch::default();
    let mut out: Vec<ObjectId> = Vec::new();
    let mut plan = PlanStats::default();
    let (mut queries, mut hits) = (0u64, 0u64);
    for (op, o) in conns.iter().flatten() {
        let Op::Query(qi) = o else { continue };
        let q = &inputs.queries[*qi].query;
        let root = tr.begin("replay.core", *op, None);
        let s = tr.begin("epoch.snapshot", *op, Some(root));
        let snap = store.snapshot();
        tr.end(s);
        out.clear();
        let before = global_stats();
        let c = tr.begin("core.query", *op, Some(root));
        snap.index.query_into(q, &mut scratch, &mut out);
        tr.end(c);
        scratch.reset(); // flushes this query's counters to the totals
        let after = global_stats();
        tr.end(root);
        add_delta(&mut plan, &before, &after);
        queries += 1;
        hits += out.len() as u64;
    }
    let qn = queries.max(1) as f64;
    let mut core = times(&tr, "core.query");
    m.push(Metric::new(
        "core.query_us.p50",
        median_ns(&mut core) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "core.query_us.p99",
        quantile(&mut core, 0.99).map_or(f64::NAN, |x| x as f64 / 1e3),
        "us",
    ));
    m.push(Metric::new(
        "core.hits_per_query",
        hits as f64 / qn,
        "count",
    ));
    m.push(Metric::new(
        "invidx.scanned_per_query",
        plan.scanned as f64 / qn,
        "count",
    ));
    for (name, steps) in [
        ("merge", plan.merge_steps),
        ("simd_merge", plan.simd_merge_steps),
        ("gallop", plan.gallop_steps),
        ("bitmap_probe", plan.bitmap_probe_steps),
        ("word_and", plan.word_and_steps),
        ("run_intersect", plan.run_intersect_steps),
    ] {
        m.push(Metric::new(
            &format!("invidx.steps_per_query.{name}"),
            steps as f64 / qn,
            "count",
        ));
    }
    m.push(Metric::new(
        "invidx.hits_per_scanned",
        hits as f64 / plan.scanned.max(1) as f64,
        "ratio",
    ));
    let mut snaps = times(&tr, "epoch.snapshot");
    m.push(Metric::new(
        "epoch.snapshot_ns",
        median_ns(&mut snaps),
        "ns",
    ));
    m.push(Metric::new("core.build_s", build_s, "s"));

    // Pass B: the serving layers, one thread per connection.
    let deadline = Instant::now() + budget;
    let pool_before = (
        pool.stats().served.load(RELAXED),
        pool.stats().batches.load(RELAXED),
    );
    let results: Vec<Result<(Tracer, Vec<f64>), String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .iter()
            .map(|ops| {
                let (store, pool, inputs) = (&store, &pool, inputs);
                sc.spawn(move || serve_ops(ops, inputs, store, pool, epoch, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    let mut reply_bytes = Vec::new();
    for res in results {
        let (t, bytes) = res?;
        tr.absorb(t);
        reply_bytes.extend(bytes);
    }
    store.flush().map_err(|e| format!("replay flush: {e}"))?;
    let (served, batches) = (
        pool.stats().served.load(RELAXED) - pool_before.0,
        pool.stats().batches.load(RELAXED) - pool_before.1,
    );

    let parse_by_op: HashMap<u64, u64> = tr.self_by_name("protocol.parse").into_iter().collect();
    let format_by_op: HashMap<u64, u64> = tr.self_by_name("protocol.format").into_iter().collect();
    let core_by_op: HashMap<u64, u64> = tr.self_by_name("core.query").into_iter().collect();
    let exec: Vec<(u64, u64)> = tr.self_by_name("pool.execute");
    let mut hop: Vec<i64> = exec
        .iter()
        .filter_map(|(op, t)| core_by_op.get(op).map(|c| *t as i64 - *c as i64))
        .collect();
    // Per replayed query: its client round trip minus its in-process
    // replay (parse + execute + format of the same operation).
    let mut residual: Vec<i64> = exec
        .iter()
        .filter_map(|(op, t)| {
            let (rtt, p, f) = (rtts.get(op)?, parse_by_op.get(op)?, format_by_op.get(op)?);
            Some(*rtt as i64 - (*p + *t + *f) as i64)
        })
        .collect();
    let mut rtt: Vec<u64> = exec
        .iter()
        .filter_map(|(op, _)| rtts.get(op).copied())
        .collect();
    let mut parse: Vec<u64> = parse_by_op.into_values().collect();
    let mut format: Vec<u64> = format_by_op.into_values().collect();
    let mut exec_ns: Vec<u64> = exec.iter().map(|(_, t)| *t).collect();
    let (parse_p50, format_p50, core_p50) = (
        median_ns(&mut parse),
        median_ns(&mut format),
        median_ns(&mut core),
    );
    let (hop_p50, residual_p50) = (median_i64(&mut hop), median_i64(&mut residual));
    let rtt_p50 = median_ns(&mut rtt);
    // The blocking path's medians need not add up to the median round
    // trip (a median is not additive); report how far they are off.
    let path = parse_p50 + hop_p50 + core_p50 + format_p50 + residual_p50;
    let gap = (path - rtt_p50) / rtt_p50;
    eprintln!(
        "blocking path: parse {:.1} + hop {:.1} + query_into {:.1} + format {:.1} + residual {:.1} = {:.1} us; median round trip {:.1} us ({:+.1}%{})",
        parse_p50 / 1e3,
        hop_p50 / 1e3,
        core_p50 / 1e3,
        format_p50 / 1e3,
        residual_p50 / 1e3,
        path / 1e3,
        rtt_p50 / 1e3,
        gap * 100.0,
        if gap.abs() > PATH_TOLERANCE {
            format!(", outside the {:.0}% tolerance", PATH_TOLERANCE * 100.0)
        } else {
            String::new()
        }
    );
    m.push(Metric::new("protocol.parse_ns", parse_p50, "ns"));
    m.push(Metric::new("protocol.format_ns", format_p50, "ns"));
    m.push(Metric::new(
        "protocol.reply_bytes",
        mean(reply_bytes),
        "bytes",
    ));
    m.push(Metric::new(
        "pool.execute_us.p50",
        median_ns(&mut exec_ns) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "pool.execute_us.p99",
        quantile(&mut exec_ns, 0.99).map_or(f64::NAN, |x| x as f64 / 1e3),
        "us",
    ));
    m.push(Metric::new("pool.hop_us", hop_p50 / 1e3, "us"));
    m.push(Metric::new(
        "pool.batch_size",
        served as f64 / batches.max(1) as f64,
        "count",
    ));
    m.push(Metric::new("server.rtt_us", rtt_p50 / 1e3, "us"));
    m.push(Metric::new("server.residual_us", residual_p50 / 1e3, "us"));
    let mut enqueue = times(&tr, "epoch.enqueue");
    let mut flush = times(&tr, "epoch.flush");
    m.push(Metric::new(
        "epoch.enqueue_ns",
        median_ns(&mut enqueue),
        "ns",
    ));
    m.push(Metric::new(
        "epoch.flush_us",
        median_ns(&mut flush) / 1e3,
        "us",
    ));
    let es = store.stats();
    let applied =
        es.inserts.load(RELAXED) + es.deletes.load(RELAXED) + es.missed_deletes.load(RELAXED);
    m.push(Metric::new(
        "epoch.batch_ops",
        applied as f64 / es.epochs.load(RELAXED).max(1) as f64,
        "count",
    ));
    if es.violations.load(RELAXED) > 0 {
        problems.push("replay: the validator reported violations in a published epoch".into());
    }

    // The write layer on a private copy of the latest epoch.
    let snap = store.snapshot();
    drop(pool);
    let all_ops: Vec<&Op> = conns.iter().flatten().map(|(_, o)| o).collect();
    let deleted: HashSet<ObjectId> = all_ops
        .iter()
        .filter_map(|o| match o {
            Op::Delete(d) => Some(d.id),
            _ => None,
        })
        .collect();
    let mut copy = None;
    for k in 0..3 {
        let s = tr.begin("epoch.clone", k, None);
        let c = snap.index.clone();
        tr.end(s);
        copy.get_or_insert(c);
    }
    let mut copy = copy.expect("three clones were made");
    drop(snap);
    for k in 0..2 {
        let s = tr.begin("check.validate", k, None);
        let v = copy.validate();
        tr.end(s);
        if !v.is_empty() {
            problems.push(format!(
                "replay: {} structural violation(s), first: {}",
                v.len(),
                v[0]
            ));
        }
    }
    // Ids above the corpus and every replayed insert.
    let mut next_id = all_ops
        .iter()
        .filter_map(|o| match o {
            Op::Insert(i) => Some(i.id + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
        .max(inputs.collection.len() as u32);
    let mut fresh = |src: &Object| {
        next_id += 1;
        Object::new(next_id, src.interval.st, src.interval.end, src.desc.clone())
    };
    let objects = inputs.collection.objects();
    let sources: Vec<&Object> = (0..PER_OP_WRITES + BATCH_WRITES)
        .map(|k| &objects[(k * 7919 + 13) % objects.len()])
        .collect();
    for (k, src) in sources[..PER_OP_WRITES].iter().enumerate() {
        let o = fresh(src);
        let s = tr.begin("core.insert", k as u64, None);
        copy.insert(&o);
        tr.end(s);
    }
    let victims: Vec<&Object> = objects
        .iter()
        .rev()
        .filter(|o| !deleted.contains(&o.id))
        .step_by(3)
        .take(PER_OP_WRITES)
        .collect();
    for (k, o) in victims.iter().enumerate() {
        let s = tr.begin("core.delete", k as u64, None);
        let found = copy.delete(o);
        tr.end(s);
        if !found {
            problems.push(format!(
                "replay: delete of live object {} found nothing",
                o.id
            ));
        }
    }
    let batch: Vec<Object> = sources[PER_OP_WRITES..].iter().map(|s| fresh(s)).collect();
    let s = tr.begin("core.insert_batch", 0, None);
    copy.insert_batch(&batch);
    let batch_ns = tr.end(s);
    drop(copy);
    let mut clone = times(&tr, "epoch.clone");
    let mut validate = times(&tr, "check.validate");
    let mut ins = times(&tr, "core.insert");
    let mut del = times(&tr, "core.delete");
    m.push(Metric::new(
        "epoch.clone_ms",
        median_ns(&mut clone) / 1e6,
        "ms",
    ));
    m.push(Metric::new(
        "check.validate_ms",
        median_ns(&mut validate) / 1e6,
        "ms",
    ));
    m.push(Metric::new(
        "core.insert_us",
        median_ns(&mut ins) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "core.delete_us",
        median_ns(&mut del) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "core.insert_batch_us_per_op",
        batch_ns as f64 / batch.len().max(1) as f64 / 1e3,
        "us",
    ));
    drop(store);

    persist_walk(
        inputs,
        spec,
        workdir,
        &all_ops,
        &mut tr,
        &mut m,
        &mut problems,
    )?;
    Ok((m, tr, problems))
}

const RELAXED: std::sync::atomic::Ordering = std::sync::atomic::Ordering::Relaxed;

fn add_delta(acc: &mut PlanStats, before: &PlanStats, after: &PlanStats) {
    acc.merge_steps += after.merge_steps - before.merge_steps;
    acc.simd_merge_steps += after.simd_merge_steps - before.simd_merge_steps;
    acc.gallop_steps += after.gallop_steps - before.gallop_steps;
    acc.bitmap_probe_steps += after.bitmap_probe_steps - before.bitmap_probe_steps;
    acc.word_and_steps += after.word_and_steps - before.word_and_steps;
    acc.run_intersect_steps += after.run_intersect_steps - before.run_intersect_steps;
    acc.scanned += after.scanned - before.scanned;
}

/// Pass B for one connection.
fn serve_ops<I: Index>(
    ops: &[(u64, Op)],
    inputs: &Inputs,
    store: &EpochStore<I>,
    pool: &QueryPool<I>,
    epoch: Instant,
    deadline: Instant,
) -> Result<(Tracer, Vec<f64>), String> {
    let mut tr = Tracer::new(epoch);
    let mut reply_bytes = Vec::new();
    for (op, o) in ops {
        if Instant::now() >= deadline {
            break;
        }
        let line = o.line(inputs);
        match o {
            Op::Query(_) => {
                let root = tr.begin("replay.query", *op, None);
                let p = tr.begin("protocol.parse", *op, Some(root));
                let req = parse_request(&line);
                tr.end(p);
                let Ok(Request::Query {
                    from, to, elems, ..
                }) = req
                else {
                    return Err(format!("replay: '{line}' does not parse as a query"));
                };
                let ids: Option<Vec<u32>> = elems.iter().map(|t| inputs.dict.lookup(t)).collect();
                let q = TimeTravelQuery::new(from, to, ids.unwrap_or_default());
                let e = tr.begin("pool.execute", *op, Some(root));
                let reply = pool.execute(q);
                tr.end(e);
                let mut ids = reply
                    .map_err(|e| format!("replay: pool refused a query: {e}"))?
                    .ids;
                ids.sort_unstable();
                let f = tr.begin("protocol.format", *op, Some(root));
                let text = format_response(&Response::Hits(ids));
                tr.end(f);
                tr.end(root);
                reply_bytes.push(text.len() as f64 + 1.0); // + newline
            }
            Op::Insert(obj) | Op::Delete(obj) => {
                let root = tr.begin("replay.write", *op, None);
                let p = tr.begin("protocol.parse_write", *op, Some(root));
                let req = parse_request(&line);
                tr.end(p);
                if req.is_err() {
                    return Err(format!("replay: '{line}' does not parse"));
                }
                let w = if matches!(o, Op::Insert(_)) {
                    WriteOp::Insert(obj.clone())
                } else {
                    WriteOp::Delete(obj.clone())
                };
                let e = tr.begin("epoch.enqueue", *op, Some(root));
                let res = store.enqueue(w);
                tr.end(e);
                tr.end(root);
                res.map_err(|e| format!("replay: enqueue refused: {e}"))?;
            }
            Op::Flush => {
                let root = tr.begin("replay.flush", *op, None);
                let f = tr.begin("epoch.flush", *op, Some(root));
                let res = store.flush();
                tr.end(f);
                tr.end(root);
                res.map_err(|e| format!("replay: flush refused: {e}"))?;
            }
        }
    }
    Ok((tr, reply_bytes))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The persist layer: snapshot, WAL and recovery calls.
fn persist_walk(
    inputs: &Inputs,
    spec: &Spec,
    workdir: &Path,
    all_ops: &[&Op],
    tr: &mut Tracer,
    m: &mut Vec<Metric>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("persist walk: {what}: {e}");
    let dir = workdir.join("persist-engine");
    let wal_dir = workdir.join("persist-wal");
    fresh_dir(&dir)?;
    fresh_dir(&wal_dir)?;
    let (mut index, catalog): (Tif, &[Object]) = if spec.durable {
        (Tif::build(&inputs.collection), inputs.collection.objects())
    } else {
        (Tif::default(), &[])
    };
    let opts = DurabilityOptions::default();
    let mut d = Durability::create(&dir, &index, &inputs.dict, catalog, opts)
        .map_err(|e| io("create", e))?;
    for k in 0..2 {
        let s = tr.begin("persist.snapshot", k, None);
        d.write_snapshot(&index, &inputs.dict)
            .map_err(|e| io("snapshot", e))?;
        tr.end(s);
    }
    let snap_path = dir.join(tir_persist::SNAPSHOT_NAME);
    let snapshot_bytes = std::fs::metadata(&snap_path)
        .map_err(|e| io("stat", e))?
        .len();

    let ops: Vec<WalOp> = all_ops
        .iter()
        .filter_map(|o| match o {
            Op::Insert(x) => Some(WalOp::Insert(x.clone())),
            Op::Delete(x) => Some(WalOp::Delete(x.clone())),
            _ => None,
        })
        .collect();
    let per = spec.flush_every.max(16);
    let batches: Vec<&[WalOp]> = ops.chunks(per).take(MAX_PERSIST_BATCHES).collect();
    let mut wal = Wal::open(&wal_dir, 1, DEFAULT_SEGMENT_BYTES).map_err(|e| io("wal open", e))?;
    let mut logged = 0usize;
    for (k, b) in batches.iter().enumerate() {
        let s = tr.begin("persist.apply_batch", k as u64, None);
        d.apply_batch(&mut index, b)
            .map_err(|e| io("apply_batch", e))?;
        tr.end(s);
        let a = tr.begin("persist.wal_append", k as u64, None);
        wal.append(k as u64 + 1, b)
            .map_err(|e| io("wal append", e))?;
        tr.end(a);
        let y = tr.begin("persist.wal_sync", k as u64, None);
        wal.sync().map_err(|e| io("wal sync", e))?;
        tr.end(y);
        logged += b.len();
    }
    let wal_bytes = wal.stats().bytes;
    drop(wal);

    let s = tr.begin("persist.fsck", 0, None);
    let violations = tir_check::validate_snapshot(&snap_path);
    tr.end(s);
    if !violations.is_empty() {
        problems.push(format!(
            "persist walk: snapshot fsck found {} violation(s)",
            violations.len()
        ));
    }
    let live_before = d.live();
    drop(d);
    let s = tr.begin("persist.recover", 0, None);
    let rec: tir_persist::Recovered<Tif> =
        Durability::recover(&dir, opts).map_err(|e| io("recover", e))?;
    tr.end(s);
    if rec.durability.live() != live_before || rec.replayed != batches.len() as u64 {
        problems.push(format!(
            "persist walk: recovered {} live objects from {} batches, expected {live_before} from {}",
            rec.durability.live(),
            rec.replayed,
            batches.len()
        ));
    }

    let mut apply = times(tr, "persist.apply_batch");
    let mut append = times(tr, "persist.wal_append");
    let mut sync = times(tr, "persist.wal_sync");
    let mut snap = times(tr, "persist.snapshot");
    let mut fsck = times(tr, "persist.fsck");
    let mut recover = times(tr, "persist.recover");
    m.push(Metric::new(
        "persist.apply_batch_us",
        median_ns(&mut apply) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "persist.wal_append_us",
        median_ns(&mut append) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "persist.wal_sync_us",
        median_ns(&mut sync) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "persist.wal_bytes_per_op",
        wal_bytes as f64 / logged.max(1) as f64,
        "bytes",
    ));
    m.push(Metric::new(
        "persist.snapshot_ms",
        median_ns(&mut snap) / 1e6,
        "ms",
    ));
    m.push(Metric::new(
        "persist.snapshot_bytes",
        snapshot_bytes as f64,
        "bytes",
    ));
    m.push(Metric::new(
        "persist.fsck_ms",
        median_ns(&mut fsck) / 1e6,
        "ms",
    ));
    m.push(Metric::new(
        "persist.recover_ms",
        median_ns(&mut recover) / 1e6,
        "ms",
    ));
    m.push(Metric::new(
        "persist.replayed_batches",
        rec.replayed as f64,
        "count",
    ));
    drop(rec);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    Ok(())
}
