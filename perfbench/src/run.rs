//! One benchmark run: start `tir serve` over the generated corpus, drive
//! it with closed-loop connections for the measured window, check every
//! answer, and (traced runs) replay the same operations in-process.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tir_core::{BruteForce, Collection, IrHintPerf, Object, ObjectId, QueryScratch, Tif};
use tir_serve::protocol::Response;

use crate::client::{stat, Conn, Failure, Served, Server};
use crate::replay::{self, Index, Recorded, ReplayInput, MAX_REPLAY_OPS};
use crate::report::{Metric, Report};
use crate::spec::{Inputs, Op, OpStream, Spec, Workload};
use crate::stats::{median_f64, quantile, REFUSED};
use crate::trace::Tracer;

/// Run settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: print per-layer metrics.
    pub trace: bool,
    /// The `tir` binary.
    pub tir: PathBuf,
    /// Scratch directory of this run (removed at the end).
    pub workdir: PathBuf,
    /// Corpus scale override.
    pub scale: Option<f64>,
    /// Plant a wrong answer (drop one id from every served answer).
    pub plant: bool,
}

/// Server starts before the window; `setup_s` is their median.
const STARTS: usize = 3;
/// In-memory workloads: restarts after the window (each after a
/// `kill -9`). With the starts before the window that followed a kill,
/// they give `recover_s`; spreading them over the run evens out drift
/// in the machine's speed.
const RESTARTS_AFTER: usize = 2;
/// Queries checked against `BruteForce` on `read`.
const ORACLE_SAMPLE: usize = 40;
/// Oracle grid size on `write` and `durable`.
const GRID: usize = 128;
/// Wrong-answer messages kept for the error report.
const MAX_MESSAGES: usize = 5;
/// The window is cut into this many equal segments; each window metric
/// is the median of its per-segment values, so a short stall of the
/// machine moves one segment, not the result.
const SEGMENTS: usize = 5;
/// Read: unmeasured querying between the chunks of the write probe.
const PROBE_GAP: Duration = Duration::from_millis(400);

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    /// Latency samples as (segment, ns).
    query_lat: Vec<(usize, u64)>,
    write_lat: Vec<(usize, u64)>,
    flush_lat: Vec<(usize, u64)>,
    completed: [u64; SEGMENTS],
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
    notes: Vec<String>,
    recorded: Recorded,
    probe: Recorded,
    rtts: HashMap<u64, u64>,
    inserted: Vec<Object>,
    deleted: Vec<ObjectId>,
    fatal: Option<String>,
    spans: Option<Tracer>,
}

impl ConnResult {
    fn fail(&mut self, f: Failure, msg: impl FnOnce() -> String) {
        self.failed += 1;
        let list = if f == Failure::Wrong {
            &mut self.wrong
        } else {
            &mut self.notes
        };
        if list.len() < MAX_MESSAGES {
            list.push(msg());
        }
    }
}

/// Shared, read-only context of the connection threads.
struct Drive<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    expected: Option<&'a [Vec<ObjectId>]>,
    addr: &'a str,
    seed: u64,
    warm_until: Instant,
    stop_at: Instant,
    seconds: f64,
    trace_epoch: Option<Instant>,
    plant: bool,
    /// Set by connection 0 when the read write probe is done.
    probe_done: std::sync::atomic::AtomicBool,
}

/// Sends one operation; returns the round trip or the failure. Query
/// answers are checked against the expected answers while the corpus is
/// unchanged (`exact`), and for sorted, duplicate-free ids otherwise.
fn send(
    conn: &mut Conn,
    d: &Drive<'_>,
    op: &Op,
    res: &mut ConnResult,
    exact: bool,
) -> Result<u64, Failure> {
    let line = op.line(d.inputs);
    let t0 = Instant::now();
    conn.roundtrip(&line).map_err(|_| Failure::Transport)?;
    let rtt = t0.elapsed().as_nanos() as u64;
    let reply = conn
        .reply()
        .inspect_err(|f| res.fail(*f, || format!("unparsable reply to '{line}'")))?;
    match (op, reply) {
        (Op::Query(i), Response::Hits(ids)) => {
            let ok = match d.expected.filter(|_| exact) {
                Some(want) => ids == want[*i],
                None => ids.windows(2).all(|w| w[0] < w[1]),
            };
            if !ok {
                res.fail(Failure::Wrong, || {
                    format!("wrong answer to '{line}': {} ids", ids.len())
                });
                return Err(Failure::Wrong);
            }
        }
        (Op::Insert(o), Response::Ok) => res.inserted.push(o.clone()),
        (Op::Delete(o), Response::Ok) => res.deleted.push(o.id),
        (Op::Flush, Response::Epoch(_)) => {}
        (_, other) => {
            let f = Failure::of(&other);
            res.fail(f, || format!("'{line}' answered {other:?}"));
            return Err(f);
        }
    }
    Ok(rtt)
}

/// One closed-loop connection: warm-up, measured window, then (read)
/// the write probe or (write, durable) a final FLUSH.
fn drive(d: &Drive<'_>, conn_idx: usize) -> ConnResult {
    let mut res = ConnResult {
        spans: d.trace_epoch.map(Tracer::new),
        ..ConnResult::default()
    };
    let mut conn = match Conn::connect(d.addr) {
        Ok(c) => c,
        Err(e) => {
            res.fatal = Some(format!("connect: {e}"));
            return res;
        }
    };
    conn.plant = d.plant;
    let mut stream = OpStream::new(d.spec, d.inputs, d.seed, conn_idx);
    let mut k = 0u64;
    let op_id = |k: u64| ((conn_idx as u64) << 32) | k;
    loop {
        let t0 = Instant::now();
        if t0 >= d.stop_at {
            break;
        }
        let measured = t0 >= d.warm_until;
        let op = stream.next(d.spec, d.inputs);
        res.attempted += 1;
        let outcome = send(&mut conn, d, &op, &mut res, true);
        let t1 = Instant::now();
        if let Err(f) = outcome {
            if f == Failure::Transport {
                res.fail(f, || "connection lost".into());
                match Conn::connect(d.addr) {
                    Ok(c) => {
                        conn = c;
                        conn.plant = d.plant;
                    }
                    Err(e) => {
                        res.fatal = Some(format!("reconnect: {e}"));
                        return res;
                    }
                }
            }
        }
        if measured {
            let lat = outcome.unwrap_or(REFUSED);
            let seg = (((t0 - d.warm_until).as_secs_f64() / d.seconds * SEGMENTS as f64) as usize)
                .min(SEGMENTS - 1);
            let (lats, name) = match op {
                Op::Query(_) => (&mut res.query_lat, "client.query"),
                Op::Insert(_) | Op::Delete(_) => (&mut res.write_lat, "client.write"),
                Op::Flush => (&mut res.flush_lat, "client.flush"),
            };
            lats.push((seg, lat));
            if outcome.is_ok() {
                res.completed[seg] += 1;
            }
            if let Some(tr) = res.spans.as_mut() {
                tr.record(name, op_id(k), None, t0, t1);
            }
            if res.recorded.len() < MAX_REPLAY_OPS {
                if let (Op::Query(_), Ok(rtt)) = (&op, outcome) {
                    res.rtts.insert(op_id(k), rtt);
                }
                res.recorded.push((op_id(k), op));
            }
        }
        k += 1;
    }

    // Read: the write probe comes after the window, so the window stays
    // read-only. One connection sends each write after a query while the
    // others keep querying, so the writes meet the same read load; the
    // probe is cut into SEGMENTS chunks (inserts, then deletes of the same
    // objects) with unmeasured querying in between.
    if d.spec.probe_writes > 0 {
        if conn_idx == 0 {
            let half = d.spec.probe_writes / (2 * SEGMENTS);
            for seg in 0..SEGMENTS {
                let inserts: Vec<Object> =
                    (0..half).map(|_| stream.fresh_object(d.inputs)).collect();
                let mut chunk: Vec<Op> = inserts.iter().cloned().map(Op::Insert).collect();
                chunk.extend(inserts.into_iter().map(Op::Delete));
                for op in chunk {
                    res.attempted += 2;
                    let _ = send(&mut conn, d, &stream.query(d.inputs), &mut res, false);
                    let t0 = Instant::now();
                    let outcome = send(&mut conn, d, &op, &mut res, false);
                    if let Some(tr) = res.spans.as_mut() {
                        tr.record("client.write", op_id(k), None, t0, Instant::now());
                    }
                    res.write_lat.push((seg, outcome.unwrap_or(REFUSED)));
                    res.probe.push((op_id(k), op));
                    k += 1;
                }
                let gap_end = Instant::now() + PROBE_GAP;
                while Instant::now() < gap_end {
                    res.attempted += 1;
                    let _ = send(&mut conn, d, &stream.query(d.inputs), &mut res, false);
                }
            }
            d.probe_done
                .store(true, std::sync::atomic::Ordering::SeqCst);
        } else {
            while !d.probe_done.load(std::sync::atomic::Ordering::SeqCst) {
                res.attempted += 1;
                let _ = send(&mut conn, d, &stream.query(d.inputs), &mut res, false);
            }
        }
    }
    // Write mixes: make every admitted write visible (acknowledged).
    if d.spec.flush_every > 0 {
        res.attempted += 1;
        if let Err(f) = send(&mut conn, d, &Op::Flush, &mut res, false) {
            res.fatal = Some(format!("final FLUSH failed: {f:?}"));
        }
    }
    res
}

fn serve_args(spec: &Spec, tsv: &Path, data_dir: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        "--input".to_string(),
        tsv.display().to_string(),
        "--method".into(),
        spec.method.into(),
    ];
    if let Some(dir) = data_dir {
        args.push("--data-dir".into());
        args.push(dir.display().to_string());
    }
    args
}

fn dir_bytes(path: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(path)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Runs one workload; `Err` means the run could not be carried out.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let spec = Spec::new(cfg.workload, cfg.scale);
    let _ = std::fs::remove_dir_all(&cfg.workdir);
    std::fs::create_dir_all(&cfg.workdir).map_err(|e| format!("{}: {e}", cfg.workdir.display()))?;
    let result = match spec.method {
        "irhint-perf" => run_with(cfg, &spec, IrHintPerf::build),
        "tif" => run_with(cfg, &spec, Tif::build),
        other => Err(format!("no in-process build for method {other}")),
    };
    let _ = std::fs::remove_dir_all(&cfg.workdir);
    result
}

fn run_with<I: Index>(
    cfg: &Config,
    spec: &Spec,
    build: fn(&Collection) -> I,
) -> Result<Report, String> {
    let work = &cfg.workdir;
    let tsv = work.join("corpus.tsv");
    let inputs = Inputs::generate(spec, cfg.seed, &tsv)?;
    let live0 = inputs.collection.len();
    let mut problems: Vec<String> = Vec::new();

    // Read: the expected answer of every distinct query, from an
    // in-process index of the served method, itself spot-checked
    // against BruteForce.
    let mut reference: Option<(I, f64)> = None;
    let mut expected: Vec<Vec<ObjectId>> = Vec::new();
    if spec.workload == Workload::Read {
        let t0 = Instant::now();
        let index = build(&inputs.collection);
        let build_s = t0.elapsed().as_secs_f64();
        let mut scratch = QueryScratch::default();
        expected = inputs
            .queries
            .iter()
            .map(|wq| {
                let mut out = Vec::new();
                index.query_into(&wq.query, &mut scratch, &mut out);
                out.sort_unstable();
                out
            })
            .collect();
        let oracle = BruteForce::build(inputs.collection.objects());
        for (wq, want) in inputs.queries.iter().zip(&expected).take(ORACLE_SAMPLE) {
            if oracle.answer(&wq.query) != *want {
                problems.push(format!(
                    "in-process {} disagrees with BruteForce on '{}'",
                    spec.method, wq.line
                ));
            }
        }
        reference = Some((index, build_s));
    }

    // Set-up: start the server STARTS times, killing each with -9
    // before the next; the last one serves the window.
    let data_dir = |i: usize| work.join(format!("data{i}"));
    let mut setup = Vec::new();
    let mut restarts = Vec::new();
    let mut server: Option<Server> = None;
    for i in 0..STARTS {
        if let Some(s) = server.take() {
            s.kill();
            if spec.durable {
                let _ = std::fs::remove_dir_all(data_dir(i - 1));
            }
        }
        let dir = data_dir(i);
        let args = serve_args(spec, &tsv, spec.durable.then_some(dir.as_path()));
        let (s, t) = Server::start(&cfg.tir, &args, work, &format!("start{i}"))?;
        setup.push(t);
        if i > 0 && !spec.durable {
            restarts.push(t);
        }
        server = Some(s);
    }
    let server = server.expect("STARTS > 0");
    let addr = server.addr.clone();

    let mut conn = Conn::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let stats = conn.stats()?;
    let live = stat(&stats, "live")?;
    let index_bytes = stat(&stats, "size_bytes")?;
    if live as usize != live0 {
        problems.push(format!(
            "server reports {live} live objects, corpus has {live0}"
        ));
    }

    // The measured window.
    let warm = (cfg.seconds * 0.1).clamp(0.2, 1.0);
    let start = Instant::now();
    let warm_until = start + Duration::from_secs_f64(warm);
    let stop_at = warm_until + Duration::from_secs_f64(cfg.seconds);
    let trace_epoch = cfg.trace.then_some(start);
    let d = Drive {
        spec,
        inputs: &inputs,
        expected: (spec.workload == Workload::Read).then_some(expected.as_slice()),
        addr: &addr,
        seed: cfg.seed,
        warm_until,
        stop_at,
        seconds: cfg.seconds,
        trace_epoch,
        plant: cfg.plant,
        probe_done: std::sync::atomic::AtomicBool::new(false),
    };
    let results: Vec<ConnResult> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..spec.conns)
            .map(|c| {
                sc.spawn({
                    let d = &d;
                    move || drive(d, c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnResult {
                    fatal: Some("connection thread panicked".into()),
                    ..ConnResult::default()
                })
            })
            .collect()
    });

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut q_lat, mut w_lat, mut f_lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut completed = [0u64; SEGMENTS];
    let mut catalog: HashMap<ObjectId, Object> = inputs
        .collection
        .objects()
        .iter()
        .map(|o| (o.id, o.clone()))
        .collect();
    let mut acked_inserts: Vec<Object> = Vec::new();
    let mut acked_deletes: Vec<ObjectId> = Vec::new();
    let mut replay_conns: Vec<Recorded> = Vec::new();
    let mut rtts: HashMap<u64, u64> = HashMap::new();
    let mut client_spans = trace_epoch.map(Tracer::new);
    for mut r in results {
        if let Some(f) = r.fatal.take() {
            return Err(format!("connection failed: {f}"));
        }
        attempted += r.attempted;
        failed += r.failed;
        problems.extend(r.wrong);
        for n in &r.notes {
            eprintln!("operation failed: {n}");
        }
        q_lat.extend(r.query_lat);
        w_lat.extend(r.write_lat);
        f_lat.extend(r.flush_lat);
        for (c, n) in completed.iter_mut().zip(r.completed) {
            *c += n;
        }
        if spec.workload != Workload::Read {
            for id in &r.deleted {
                catalog.remove(id);
            }
            for o in &r.inserted {
                catalog.insert(o.id, o.clone());
            }
            acked_deletes.extend(&r.deleted);
            acked_inserts.extend(r.inserted);
        }
        let mut ops = r.recorded;
        ops.extend(r.probe);
        replay_conns.push(ops);
        rtts.extend(r.rtts);
        if let (Some(all), Some(t)) = (client_spans.as_mut(), r.spans) {
            all.absorb(t);
        }
    }
    let mut catalog: Vec<Object> = catalog.into_values().collect();
    catalog.sort_unstable_by_key(|o| o.id);

    // Write mixes: the served index against BruteForce over the
    // acknowledged catalog.
    let oracle_check =
        |addr: &str, label: &str, problems: &mut Vec<String>| -> Result<(), String> {
            let mut c = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
            c.plant = cfg.plant;
            let live = stat(&c.stats()?, "live")?;
            if live as usize != catalog.len() {
                problems.push(format!(
                    "{label}: server reports {live} live objects, acknowledged catalog has {}",
                    catalog.len()
                ));
            }
            let grid = tir_check::oracle_query_grid(&catalog, GRID, cfg.seed);
            let served = Served::new(c, &inputs);
            let diff = tir_check::diff_against_oracle(&served, &catalog, &grid);
            if served.failed() {
                problems.push(format!("{label}: a grid query failed on the wire"));
            }
            problems.extend(
                diff.iter()
                    .take(MAX_MESSAGES)
                    .map(|v| format!("{label}: {v}")),
            );
            Ok(())
        };
    if spec.workload != Workload::Read {
        oracle_check(&addr, "after the final FLUSH", &mut problems)?;
    }

    let mut disk_bytes = std::fs::metadata(&tsv).map_err(|e| e.to_string())?.len() as f64;
    if spec.durable {
        let dir = data_dir(STARTS - 1);
        disk_bytes = dir_bytes(&dir).map_err(|e| format!("{}: {e}", dir.display()))? as f64;
        server.kill();
        // Recover the same crashed directory three times: in place, and
        // from two copies taken before the first restart.
        let copies: Vec<PathBuf> = (0..STARTS - 1)
            .map(|i| work.join(format!("crashed{i}")))
            .collect();
        for c in &copies {
            copy_dir(&dir, c).map_err(|e| format!("copy {}: {e}", dir.display()))?;
        }
        for (i, d) in std::iter::once(&dir).chain(&copies).enumerate() {
            let args = serve_args(spec, &tsv, Some(d));
            let (s, t) = Server::start(&cfg.tir, &args, work, &format!("recover{i}"))?;
            restarts.push(t);
            if i == 0 {
                oracle_check(&s.addr, "after kill -9 and recovery", &mut problems)?;
                check_acked(
                    &s.addr,
                    &inputs,
                    &acked_inserts,
                    &acked_deletes,
                    cfg.plant,
                    &mut problems,
                )?;
            }
            s.kill();
        }
    } else {
        server.kill();
        for i in 0..RESTARTS_AFTER {
            let args = serve_args(spec, &tsv, None);
            let (s, t) = Server::start(&cfg.tir, &args, work, &format!("restart{i}"))?;
            restarts.push(t);
            s.kill();
        }
    }

    let pct = |v: &[(usize, u64)], q: f64, what: &str| -> Result<f64, String> {
        segment_quantile(v, q)
            .map(|ns| ns / 1e3)
            .ok_or_else(|| format!("no {what} completed in the measured window"))
    };
    let per_segment: Vec<f64> = completed
        .iter()
        .map(|&n| n as f64 / (cfg.seconds / SEGMENTS as f64))
        .collect();
    let mut metrics = vec![
        Metric::new("setup_s", median_f64(&setup), "s"),
        Metric::new("ops_per_s", median_f64(&per_segment), "1/s"),
        Metric::new("query_p50_us", pct(&q_lat, 0.5, "query")?, "us"),
        Metric::new("write_p50_us", pct(&w_lat, 0.5, "write")?, "us"),
        Metric::new("flush_p50_us", pct(&f_lat, 0.5, "flush")?, "us"),
        Metric::new(
            "ok_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "frac",
        ),
        Metric::new(
            "index_bytes_per_object",
            index_bytes / live.max(1.0),
            "bytes",
        ),
        Metric::new("recover_s", median_f64(&restarts), "s"),
        Metric::new(
            "disk_bytes_per_object",
            disk_bytes / catalog.len().max(1) as f64,
            "bytes",
        ),
    ];
    eprintln!(
        "{:?}: {} query, {} write, {} flush samples in the window; {attempted} attempted, {failed} failed",
        cfg.workload,
        q_lat.len(),
        w_lat.len(),
        f_lat.len()
    );

    if cfg.trace {
        let (index, build_s) = match reference {
            Some(r) => r,
            None => {
                let t0 = Instant::now();
                let index = build(&inputs.collection);
                (index, t0.elapsed().as_secs_f64())
            }
        };
        let (mut layer, mut spans, replay_problems) = replay::replay(ReplayInput {
            index,
            build_s,
            inputs: &inputs,
            spec,
            conns: replay_conns,
            rtts: &rtts,
            budget: Duration::from_secs_f64((cfg.seconds / 2.0).max(2.0)),
            workdir: work,
        })?;
        problems.extend(replay_problems);
        // The traced run's own end-to-end view, to compare with an
        // untraced run of the same seed (tracing overhead).
        for m in &metrics {
            if matches!(
                m.name.as_str(),
                "ops_per_s" | "query_p50_us" | "write_p50_us" | "flush_p50_us"
            ) {
                layer.push(Metric::new(&format!("traced.{}", m.name), m.value, m.unit));
            }
        }
        if let Some(c) = client_spans {
            spans.absorb(c);
        }
        let trace_path = cfg
            .workdir
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("trace-{:?}.tsv", cfg.workload).to_lowercase());
        spans
            .write(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        metrics = layer;
    }

    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} was not measured", m.name));
        }
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// The median over segments of each segment's `q` quantile, in ns.
fn segment_quantile(samples: &[(usize, u64)], q: f64) -> Option<f64> {
    let mut by_seg: Vec<Vec<u64>> = vec![Vec::new(); SEGMENTS];
    for &(seg, ns) in samples {
        by_seg[seg].push(ns);
    }
    let values: Vec<f64> = by_seg
        .iter_mut()
        .filter_map(|v| quantile(v, q).map(|x| x as f64))
        .collect();
    (!values.is_empty()).then(|| median_f64(&values))
}

/// Durable: every acknowledged insert is present after recovery and
/// every acknowledged delete stays deleted.
fn check_acked(
    addr: &str,
    inputs: &Inputs,
    inserts: &[Object],
    deletes: &[ObjectId],
    plant: bool,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.plant = plant;
    let deleted: Vec<&Object> = deletes
        .iter()
        .map(|id| inputs.collection.get(*id))
        .collect();
    for (o, want) in inserts
        .iter()
        .map(|o| (o, true))
        .chain(deleted.into_iter().map(|o| (o, false)))
    {
        let line = format!(
            "QUERY {} {} {}",
            o.interval.st,
            o.interval.end,
            inputs.terms(&o.desc)
        );
        let ids = conn
            .query(&line)
            .map_err(|f| format!("acknowledged-write check: '{line}' failed: {f:?}"))?;
        if ids.binary_search(&o.id).is_ok() != want {
            problems.push(format!(
                "acknowledged {} of object {} {} after recovery",
                if want { "insert" } else { "delete" },
                o.id,
                if want { "is missing" } else { "was undone" }
            ));
            if problems.len() > MAX_MESSAGES {
                break;
            }
        }
    }
    Ok(())
}
