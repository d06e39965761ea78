//! `tir` — command-line front end for the temporal-IR indexes.
//!
//! ```text
//! tir gen     --out data.tsv [--cardinality N] [--seed K] [--scale S]
//! tir stats   --input data.tsv
//! tir query   --input data.tsv --method irhint-perf \
//!             --from 100 --to 900 --elems foo,bar [--topk 10]
//! tir bench   --input data.tsv [--queries N] [--json BENCH_query.json]
//! tir check   --input data.tsv
//! tir serve   [--input data.tsv | --scale S] [--method M] [--port P]
//! tir loadgen --addr host:port [--requests N] [--threads T]
//! tir chaos   [--schedules N] [--seed K]
//! ```
//!
//! TSV format: `start<TAB>end<TAB>elem1,elem2,...` per object; `#` lines
//! are comments.

mod chaos;
mod io;

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Instant;

use tir_core::prelude::*;
use tir_core::{RankedQuery, RankedTif};
use tir_datagen::{workload, SyntheticConfig, WorkloadSpec};
use tir_persist::{
    Durability, DurabilityOptions, Persist, Recovered, SnapshotFile, TermLog, SNAPSHOT_NAME,
};
use tir_serve::epoch::Validator;
use tir_serve::{
    loadgen, spawn_server, spawn_server_durable, Json, LatencyHistogram, LoadgenConfig, PoolConfig,
    ServeDict, ServerConfig, ServerHandle,
};

use crate::io::{read_tsv, write_tsv, Corpus};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    };
    std::process::exit(code);
}

struct Opts {
    flags: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {}", args[i]))?;
            i += 1;
            // A flag followed by another --flag (or the end of the line)
            // is a bare switch (`--verify`): present, with no value.
            let value = match args.get(i) {
                Some(v) if !v.starts_with("--") => {
                    i += 1;
                    v.clone()
                }
                _ => String::new(),
            };
            flags.push((key.to_string(), value));
        }
        Ok(Opts { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
            None => Ok(default),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "stats" => cmd_stats(&opts),
        "query" => cmd_query(&opts),
        "bench" => cmd_bench(&opts),
        "check" => cmd_check(&opts),
        "serve" => cmd_serve(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "chaos" => chaos::cmd_chaos(&opts),
        "snapshot" => cmd_snapshot(&opts),
        "recover" => cmd_recover(&opts),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn usage() -> String {
    format!(
        "usage: tir <gen|stats|query|bench|check|serve|loadgen|chaos|snapshot|recover> [--flags]\n\
     gen      --out FILE [--cardinality N] [--seed K] [--scale S]\n\
     stats    --input FILE\n\
     query    --input FILE --from T --to T --elems a,b [--method M] [--topk K]\n\
     bench    --input FILE [--queries N] [--methods a,b] [--json BENCH_query.json]\n\
     bench    --kernels BENCH_kernels.json [--universe N]   (microbenchmark\n\
              the four intersection kernels over a density grid; no corpus)\n\
     check    --input FILE   (build every index, verify structural invariants)\n\
     check    --file SNAPSHOT   (fsck an on-disk snapshot)\n\
     serve    [--input FILE | --scale S [--seed K]] [--method M] [--port P]\n\
              [--port-file PATH] [--workers N] [--queue-depth N] [--batch N]\n\
              [--data-dir DIR [--snapshot-every N]]   (durable: WAL + snapshots;\n\
              recovers the directory on restart with the method that wrote it)\n\
     loadgen  --addr HOST:PORT [--requests N] [--threads T] [--seed K]\n\
              [--write-fraction F] [--insert-fraction F] [--elems N]\n\
              [--durability N] [--deadline-ms MS] [--retries N] [--backoff-ms MS]\n\
              [--json BENCH_serve.json]\n\
     chaos    [--schedules N] [--seed K] [--rounds N] [--scale S]\n\
              (seeded fault-injection schedules against a live durable\n\
              server; model + oracle verified, kill-then-recover each)\n\
     snapshot --out FILE [--input FILE | --scale S] [--method M] [--epoch N]\n\
              (write a standalone snapshot file, then fsck it)\n\
     recover  --data-dir DIR [--verify]   (replay snapshot + WAL, report the\n\
              epoch reached; --verify adds fsck + brute-force oracle agreement)\n\
     methods: {} (default {})",
        Method::ALL.map(Method::name).join(", "),
        Method::IrHintPerf
    )
}

fn load(opts: &Opts) -> Result<Corpus, String> {
    let path = opts.require("input")?;
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    read_tsv(BufReader::new(file))
}

/// The `--method` flag, or `default` when absent.
fn method_opt(opts: &Opts, default: Method) -> Result<Method, String> {
    opts.get("method").map_or(Ok(default), str::parse)
}

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let out = opts.require("out")?;
    let scale: f64 = opts.parse_or("scale", 0.01)?;
    let mut cfg = SyntheticConfig::default().scaled(scale);
    cfg.cardinality = opts.parse_or("cardinality", cfg.cardinality)?;
    cfg.dict_size = opts.parse_or("dict", cfg.dict_size)?;
    cfg.seed = opts.parse_or("seed", cfg.seed)?;
    let coll = tir_datagen::generate(&cfg);
    let file = File::create(out).map_err(|e| format!("{out}: {e}"))?;
    write_tsv(&coll, BufWriter::new(file)).map_err(|e| e.to_string())?;
    eprintln!("wrote {} objects to {out}", coll.len());
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let corpus = load(opts)?;
    let s = corpus.collection.stats();
    println!("cardinality        {}", s.cardinality);
    println!("domain span        {}", s.domain_span);
    println!(
        "duration min/avg/max  {} / {:.1} / {}",
        s.min_duration, s.avg_duration, s.max_duration
    );
    println!("avg duration       {:.2}% of domain", s.avg_duration_pct);
    println!("dictionary         {}", s.dictionary_size);
    println!(
        "description min/avg/max  {} / {:.1} / {}",
        s.min_desc, s.avg_desc, s.max_desc
    );
    println!(
        "avg element freq   {:.1} ({:.3}%)",
        s.avg_elem_freq, s.avg_elem_freq_pct
    );
    Ok(())
}

/// Parses a `--elems a,b,c` value against the corpus dictionary.
///
/// Every malformed shape is a hard error — empty value, stray commas,
/// blank tokens, unknown elements — so a typo can never silently shrink
/// the query (and, with `--topk`, silently re-rank against the wrong
/// element set).
fn parse_elems_flag(raw: &str, dict: &tir_invidx::Dictionary) -> Result<Vec<u32>, String> {
    if raw.trim().is_empty() {
        return Err("--elems is empty; expected a comma-separated element list".into());
    }
    raw.split(',')
        .map(|t| {
            let t = t.trim();
            if t.is_empty() {
                return Err(format!(
                    "--elems '{raw}' has an empty element (stray comma?)"
                ));
            }
            dict.lookup(t)
                .ok_or_else(|| format!("unknown element '{t}' in --elems '{raw}'"))
        })
        .collect()
}

fn cmd_query(opts: &Opts) -> Result<(), String> {
    let corpus = load(opts)?;
    let from: u64 = opts.require("from")?.parse().map_err(|_| "bad --from")?;
    let to: u64 = opts.require("to")?.parse().map_err(|_| "bad --to")?;
    if from > to {
        return Err("--from must be <= --to".into());
    }
    let elems = parse_elems_flag(opts.require("elems")?, &corpus.dictionary)?;

    if let Some(k) = opts.get("topk") {
        let k: usize = k.parse().map_err(|_| "bad --topk")?;
        if k == 0 {
            return Err("--topk must be at least 1".into());
        }
        let ranked = RankedTif::build(&corpus.collection);
        for hit in ranked.query_topk(&RankedQuery::new(from, to, elems, k)) {
            let o = corpus.collection.get(hit.id);
            println!(
                "{}\t{:.4}\t[{}, {}]",
                hit.id, hit.score, o.interval.st, o.interval.end
            );
        }
        return Ok(());
    }

    let method = method_opt(opts, Method::IrHintPerf)?;
    let t0 = Instant::now();
    let index = method.build(&corpus.collection);
    let built = t0.elapsed();
    let t0 = Instant::now();
    let mut hits = index.query(&TimeTravelQuery::new(from, to, elems));
    let answered = t0.elapsed();
    hits.sort_unstable();
    for id in &hits {
        let o = corpus.collection.get(*id);
        println!("{id}\t[{}, {}]", o.interval.st, o.interval.end);
    }
    eprintln!(
        "{} results | {} | build {:.1?} | query {:.1?} | {} KiB",
        hits.len(),
        index.name(),
        built,
        answered,
        index.size_bytes() / 1024
    );
    Ok(())
}

fn cmd_bench(opts: &Opts) -> Result<(), String> {
    warn_stale_binary();
    if let Some(path) = opts.get("kernels") {
        return cmd_bench_kernels(opts, path);
    }
    let corpus = load(opts)?;
    let n: usize = opts.parse_or("queries", 200)?;
    let json_path = opts.get("json").unwrap_or("BENCH_query.json");
    let queries = workload(&corpus.collection, &WorkloadSpec::default(), n, 7);
    if queries.is_empty() {
        return Err("could not generate a workload for this corpus".into());
    }
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "method", "build [s]", "size [KiB]", "queries/s", "p50 [µs]", "p95 [µs]", "p99 [µs]"
    );
    let mut records = Vec::new();
    let only = opts.get("methods");
    for method in Method::ALL {
        if let Some(list) = only {
            if !list.split(',').any(|m| m.trim() == method.name()) {
                continue;
            }
        }
        let t0 = Instant::now();
        let index = method.build(&corpus.collection);
        let build = t0.elapsed().as_secs_f64();
        // One scratch arena and one reply buffer for the whole loop:
        // the measured path allocates nothing in steady state. One
        // warm-up pass, then best-of-three timed passes — single-pass
        // numbers on shared machines are dominated by scheduling noise.
        let mut scratch = QueryScratch::default();
        let mut hits: Vec<ObjectId> = Vec::new();
        for q in &queries {
            hits.clear();
            index.query_into(q, &mut scratch, &mut hits);
            std::hint::black_box(hits.len());
        }
        let mut hist = LatencyHistogram::new();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut pass = LatencyHistogram::new();
            let t0 = Instant::now();
            let mut total = 0usize;
            for q in &queries {
                let tq = Instant::now();
                hits.clear();
                index.query_into(q, &mut scratch, &mut hits);
                total += hits.len();
                pass.record(tq.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            }
            let elapsed = t0.elapsed().as_secs_f64();
            std::hint::black_box(total);
            if elapsed < best {
                best = elapsed;
                hist = pass;
            }
        }
        if std::env::var_os("TIR_BENCH_DEBUG").is_some() {
            eprintln!("{method}: {:?}", tir_invidx::global_stats());
        }
        let qps = queries.len() as f64 / best.max(1e-9);
        let (p50, p95, p99) = (
            hist.quantile(0.50) as f64 / 1_000.0,
            hist.quantile(0.95) as f64 / 1_000.0,
            hist.quantile(0.99) as f64 / 1_000.0,
        );
        println!(
            "{:<14} {:>10.3} {:>12} {:>12.0} {:>9.1} {:>9.1} {:>9.1}",
            method,
            build,
            index.size_bytes() / 1024,
            qps,
            p50,
            p95,
            p99
        );
        records.push(Json::obj(vec![
            ("method", Json::str(method.name())),
            ("build_s", Json::Num(build)),
            ("size_bytes", Json::Int(index.size_bytes() as u64)),
            ("qps", Json::Num(qps)),
            ("p50_us", Json::Num(p50)),
            ("p95_us", Json::Num(p95)),
            ("p99_us", Json::Num(p99)),
        ]));
    }
    let doc = Json::obj(vec![
        ("tool", Json::str("tir bench")),
        ("git_rev", Json::str(git_rev())),
        ("queries", Json::Int(queries.len() as u64)),
        ("cardinality", Json::Int(corpus.collection.len() as u64)),
        ("methods", Json::Arr(records)),
    ]);
    std::fs::write(json_path, format!("{doc}\n")).map_err(|e| format!("{json_path}: {e}"))?;
    eprintln!("wrote {json_path}");
    Ok(())
}

/// Short git revision of the checkout that produced this run, with a
/// `-dirty` suffix when the tree has uncommitted changes — so a
/// `BENCH_*.json` can always be matched to (or ruled out against) the
/// source it claims to measure. `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    // -uno: untracked files (the emitted BENCH_*.json themselves, run
    // artifacts) do not make a run unattributable; modified tracked
    // sources do.
    match git(&["status", "--porcelain", "-uno"]) {
        Some(st) if st.is_empty() => rev,
        _ => format!("{rev}-dirty"),
    }
}

/// Compile-time git stamp of this binary (see `build.rs`).
const BUILT_GIT_REV: &str = env!("TIR_BUILD_GIT_REV");

/// Warns when the running binary cannot be trusted to measure the
/// current checkout: built from a dirty tree, or built at a commit the
/// checkout has since moved past.
fn warn_stale_binary() {
    let now = git_rev();
    if BUILT_GIT_REV.ends_with("-dirty") || BUILT_GIT_REV == "unknown" {
        eprintln!(
            "warning: binary stamped {BUILT_GIT_REV}; rebuild (cargo xtask build) \
             before trusting the numbers"
        );
    } else if now != "unknown" && now != BUILT_GIT_REV {
        eprintln!(
            "warning: binary built at {BUILT_GIT_REV} but the checkout is at {now}; \
             rebuild (cargo xtask build) before trusting the numbers"
        );
    }
}

/// Deterministic xorshift64* — the microharness needs cheap well-spread
/// draws, not statistical finesse (same generator the loadgen uses).
struct KernelRng(u64);

impl KernelRng {
    fn new(seed: u64) -> KernelRng {
        KernelRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Sorted unique id set over `[0, universe)` where each id is included
/// with probability `per_mille / 1000`.
fn sample_ids(rng: &mut KernelRng, universe: u32, per_mille: u64) -> Vec<u32> {
    let mut ids = Vec::new();
    for id in 0..universe {
        if rng.next_u64() % 1000 < per_mille {
            ids.push(id);
        }
    }
    ids
}

/// Sorted id set over `[0, universe)` clustered into runs of roughly
/// `run_len` consecutive ids, spaced so the overall density is about
/// `per_mille / 1000` (the run-container's natural habitat).
fn sample_runs(rng: &mut KernelRng, universe: u32, per_mille: u64, run_len: u32) -> Vec<u32> {
    let period = (u64::from(run_len) * 1000 / per_mille.max(1)).max(u64::from(run_len) * 2);
    let mut ids = Vec::new();
    let mut start = rng.next_u64() % period;
    while start < u64::from(universe) {
        let len = u64::from(run_len / 2) + rng.next_u64() % u64::from(run_len);
        let end = (start + len).min(u64::from(universe));
        for id in start..end {
            ids.push(id as u32);
        }
        start += period;
    }
    ids
}

/// Names the kernel a one-step plan ran on (for the planner rows of the
/// microharness, where the cost model — not the caller — picks).
fn chosen_kernel(stats: &PlanStats) -> &'static str {
    if stats.word_and_steps > 0 {
        "word-and"
    } else if stats.bitmap_probe_steps > 0 {
        "bitmap-probe"
    } else if stats.run_intersect_steps > 0 {
        "run-intersect"
    } else if stats.gallop_steps > 0 {
        "gallop"
    } else if stats.simd_merge_steps > 0 {
        "simd-merge"
    } else {
        "merge"
    }
}

/// `tir bench --kernels PATH`: microbenchmark the intersection kernels
/// over a candidate-density × postings-density grid (synthetic ids, no
/// corpus needed) and write per-cell ns/element to `PATH`.
///
/// Seven timings per cell: the raw scalar `merge` and `gallop` array
/// kernels, their dispatched vector counterparts `simd-merge` and
/// `simd-gallop` (which fall back to scalar below `SIMD_MIN_LEN` or
/// without CPU support — the `TIR_SIMD` env var caps dispatch), `blocks`
/// (stream-vbyte block decode + merge with skip bounds), and two
/// `planner:*` rows — a [`QueryScratch::intersect`] against a
/// [`PostingContainer`] built from the Bernoulli sample and one built
/// from a clustered run-shaped sample, each labeled with whichever
/// kernel the cost model picked. CI runs this as a smoke test; the JSON
/// makes kernel-mix regressions diffable.
fn cmd_bench_kernels(opts: &Opts, json_path: &str) -> Result<(), String> {
    use tir_invidx::{
        intersect_gallop_into, intersect_merge_into, BlockPostings, ContainerConfig,
        PostingContainer,
    };
    let universe: u32 = opts.parse_or("universe", 1u32 << 20)?;
    if universe == 0 {
        return Err("--universe must be at least 1".into());
    }
    let reps: u32 = opts.parse_or("reps", 0)?; // 0 = auto-scale per cell
    let mut rng = KernelRng::new(opts.parse_or("seed", 7u64)?);

    println!(
        "{:<8} {:<8} {:>10} {:>10} {:<22} {:>12} {:>12}",
        "cands‰", "post‰", "|cands|", "|post|", "kernel", "ns/call", "ns/elem"
    );
    let mut records = Vec::new();
    for cand_pm in [1u64, 8, 64, 256] {
        let cands = sample_ids(&mut rng, universe, cand_pm);
        for post_pm in [1u64, 8, 64, 256] {
            let postings = sample_ids(&mut rng, universe, post_pm);
            let clustered = sample_runs(&mut rng, universe, post_pm, 64);
            let container =
                PostingContainer::from_sorted(&postings, universe, ContainerConfig::default());
            let run_container =
                PostingContainer::from_sorted(&clustered, universe, ContainerConfig::default());
            let blocks = BlockPostings::encode(&postings);
            let work = (cands.len() + postings.len()).max(1);
            let cell_reps = if reps > 0 {
                reps
            } else {
                // Aim for ~20M touched elements per measurement.
                (20_000_000 / work).clamp(3, 1_000) as u32
            };

            let mut out = Vec::new();
            let mut blk = Vec::new();
            let mut scratch = QueryScratch::default();
            // (kernel, ns/call, scanned/call, |postings| for the row)
            let mut measured: Vec<(String, u64, u64, u64)> = Vec::new();
            let clamp = |ns: u128| ns.min(u128::from(u64::MAX)) as u64;

            let t0 = Instant::now();
            for _ in 0..cell_reps {
                out.clear();
                intersect_merge_into(&cands, &postings, &mut out);
                std::hint::black_box(out.len());
            }
            let per_call = t0.elapsed().as_nanos() / u128::from(cell_reps);
            measured.push((
                "merge".into(),
                clamp(per_call),
                work as u64,
                postings.len() as u64,
            ));

            let t0 = Instant::now();
            for _ in 0..cell_reps {
                out.clear();
                // Forced: the grid exists to measure the vector kernel even
                // in cells below the production dispatch gate.
                tir_invidx::simd::merge_into_forced(&cands, &postings, &mut out);
                std::hint::black_box(out.len());
            }
            let per_call = t0.elapsed().as_nanos() / u128::from(cell_reps);
            measured.push((
                "simd-merge".into(),
                clamp(per_call),
                work as u64,
                postings.len() as u64,
            ));

            let t0 = Instant::now();
            for _ in 0..cell_reps {
                out.clear();
                intersect_gallop_into(&cands, &postings, &mut out);
                std::hint::black_box(out.len());
            }
            let per_call = t0.elapsed().as_nanos() / u128::from(cell_reps);
            measured.push((
                "gallop".into(),
                clamp(per_call),
                cands.len() as u64,
                postings.len() as u64,
            ));

            let t0 = Instant::now();
            for _ in 0..cell_reps {
                out.clear();
                tir_invidx::simd::gallop_into_forced(&cands, &postings, &mut out);
                std::hint::black_box(out.len());
            }
            let per_call = t0.elapsed().as_nanos() / u128::from(cell_reps);
            measured.push((
                "simd-gallop".into(),
                clamp(per_call),
                cands.len() as u64,
                postings.len() as u64,
            ));

            let t0 = Instant::now();
            for _ in 0..cell_reps {
                out.clear();
                tir_invidx::intersect_gallop_rev_into(&cands, &postings, &mut out);
                std::hint::black_box(out.len());
            }
            let per_call = t0.elapsed().as_nanos() / u128::from(cell_reps);
            measured.push((
                "gallop-rev".into(),
                clamp(per_call),
                postings.len() as u64,
                postings.len() as u64,
            ));

            let mut block_scanned = 1u64;
            let t0 = Instant::now();
            for _ in 0..cell_reps {
                out.clear();
                let st = blocks.intersect_into(&cands, &mut out, &mut blk);
                block_scanned = st.scanned.max(1);
                std::hint::black_box(out.len());
            }
            let per_call = t0.elapsed().as_nanos() / u128::from(cell_reps);
            measured.push((
                "blocks".into(),
                clamp(per_call),
                block_scanned,
                postings.len() as u64,
            ));

            for (label_container, n_post) in [
                (&container, postings.len()),
                (&run_container, clustered.len()),
            ] {
                let t0 = Instant::now();
                for _ in 0..cell_reps {
                    scratch.reset();
                    scratch.cands.extend_from_slice(&cands);
                    scratch.intersect(tir_invidx::Postings::Container(label_container));
                    out.clear();
                    scratch.take_into(&mut out);
                    std::hint::black_box(out.len());
                }
                let per_call = t0.elapsed().as_nanos() / u128::from(cell_reps);
                let stats = scratch.last_stats();
                measured.push((
                    format!("planner:{}", chosen_kernel(&stats)),
                    clamp(per_call),
                    stats.scanned.max(1),
                    n_post as u64,
                ));
            }

            for (kernel, ns_call, scanned, n_post) in measured {
                let ns_elem = ns_call as f64 / scanned as f64;
                println!(
                    "{:<8} {:<8} {:>10} {:>10} {:<22} {:>12} {:>12.2}",
                    cand_pm,
                    post_pm,
                    cands.len(),
                    n_post,
                    kernel,
                    ns_call,
                    ns_elem
                );
                records.push(Json::obj(vec![
                    ("cands_per_mille", Json::Int(cand_pm)),
                    ("postings_per_mille", Json::Int(post_pm)),
                    ("cands", Json::Int(cands.len() as u64)),
                    ("postings", Json::Int(n_post)),
                    ("kernel", Json::str(kernel)),
                    ("reps", Json::Int(u64::from(cell_reps))),
                    ("ns_per_call", Json::Int(ns_call)),
                    ("ns_per_elem", Json::Num(ns_elem)),
                ]));
            }
        }
    }
    let doc = Json::obj(vec![
        ("tool", Json::str("tir bench --kernels")),
        ("git_rev", Json::str(git_rev())),
        (
            "simd_level",
            Json::str(format!("{:?}", tir_invidx::simd::level())),
        ),
        ("universe", Json::Int(u64::from(universe))),
        ("cells", Json::Arr(records)),
    ]);
    std::fs::write(json_path, format!("{doc}\n")).map_err(|e| format!("{json_path}: {e}"))?;
    eprintln!("wrote {json_path}");
    Ok(())
}

/// Builds every method over the collection and collects the structural
/// violations each one reports, tagged by method name.
fn validate_all(coll: &Collection) -> Vec<(&'static str, Vec<tir_check::Violation>)> {
    Method::ALL
        .into_iter()
        .map(|m| (m.name(), tir_check::validate_method(m, coll)))
        .collect()
}

/// `tir check --file SNAPSHOT`: fsck one on-disk snapshot — open-time
/// CRC/bounds validation plus the deep content walk in `tir-check`.
fn cmd_check_file(path: &str) -> Result<(), String> {
    let p = Path::new(path);
    let violations = tir_check::validate_snapshot(p);
    if violations.is_empty() {
        let snap = SnapshotFile::open(p).map_err(|e| format!("{path}: {e}"))?;
        let m = snap.meta();
        println!(
            "{path}: ok ({} @ epoch {}, {} live, {} terms)",
            m.method, m.epoch, m.live, m.dict_len
        );
        return Ok(());
    }
    for v in &violations {
        println!("{v}");
    }
    Err(format!("{path}: {} violation(s)", violations.len()))
}

fn cmd_check(opts: &Opts) -> Result<(), String> {
    use tir_check::Validate;
    if let Some(path) = opts.get("file") {
        return cmd_check_file(path);
    }
    let corpus = load(opts)?;
    let mut total = 0usize;
    let mut reports = validate_all(&corpus.collection);
    reports.push(("dictionary", corpus.dictionary.validate()));
    for (name, violations) in &reports {
        if violations.is_empty() {
            println!("{name:<12} ok");
        } else {
            println!("{name:<12} {} violation(s)", violations.len());
            for v in violations {
                println!("  {v}");
            }
            total += violations.len();
        }
    }
    if total == 0 {
        eprintln!("all structural invariants hold");
        Ok(())
    } else {
        Err(format!("{total} structural violation(s)"))
    }
}

/// Loads the serving corpus: a TSV file when `--input` is given, else a
/// synthetic collection (`--scale`, `--seed`) whose dictionary uses the
/// same `e<id>` terms `tir gen` writes to disk.
fn serve_corpus(opts: &Opts) -> Result<Corpus, String> {
    if opts.get("input").is_some() {
        return load(opts);
    }
    let scale: f64 = opts.parse_or("scale", 0.01)?;
    let mut cfg = SyntheticConfig::default().scaled(scale);
    cfg.seed = opts.parse_or("seed", cfg.seed)?;
    let collection = tir_datagen::generate(&cfg);
    let mut dictionary = tir_invidx::Dictionary::new();
    for e in 0..collection.dict_size() as u32 {
        let id = dictionary.intern(&format!("e{e}"));
        debug_assert_eq!(id, e);
    }
    Ok(Corpus {
        collection,
        dictionary,
    })
}

/// The post-swap validator every method serves with: the applier runs
/// tir-check on every freshly rebuilt snapshot and counts the violations
/// into `STATS`.
fn checking_validator<I>() -> Option<Validator<I>>
where
    I: tir_check::Validate + Send + Sync + 'static,
{
    Some(Box::new(|index: &I| index.validate().len()))
}

/// Writes the port file (if requested) and blocks until the accept loop
/// exits (client `SHUTDOWN` or process signal).
fn run_server(handle: ServerHandle, port_file: Option<&str>) -> Result<(), String> {
    let addr = handle.addr();
    if let Some(path) = port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!("serving on {addr} (send SHUTDOWN to stop)");
    handle.join();
    eprintln!("server stopped");
    Ok(())
}

/// Boots the serving stack over a concrete index type.
fn serve_index<I>(
    index: I,
    corpus: Corpus,
    config: ServerConfig,
    port_file: Option<&str>,
    validator: Option<Validator<I>>,
) -> Result<(), String>
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    let catalog = corpus.collection.objects().to_vec();
    let handle = spawn_server(index, catalog, corpus.dictionary, config, validator)
        .map_err(|e| format!("bind: {e}"))?;
    run_server(handle, port_file)
}

fn server_config(opts: &Opts, method: Method) -> Result<ServerConfig, String> {
    let port: u16 = opts.parse_or("port", 0)?;
    let host = opts.get("host").unwrap_or("127.0.0.1");
    Ok(ServerConfig {
        addr: format!("{host}:{port}"),
        pool: PoolConfig {
            workers: opts.parse_or("workers", PoolConfig::default().workers)?,
            queue_depth: opts.parse_or("queue-depth", PoolConfig::default().queue_depth)?,
            max_batch: opts.parse_or("batch", PoolConfig::default().max_batch)?,
        },
        write_queue_depth: opts.parse_or("write-queue", 1024)?,
        max_write_batch: opts.parse_or("write-batch", 256)?,
        method: method.name().to_string(),
    })
}

/// The method that wrote the data directory's current snapshot.
fn snapshot_method(dir: &Path) -> Result<Method, String> {
    let path = dir.join(SNAPSHOT_NAME);
    let snap = SnapshotFile::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(snap.meta().method)
}

/// Fscks the data directory's snapshot; any violation refuses the load.
fn fsck_data_dir(dir: &Path) -> Result<(), String> {
    let path = dir.join(SNAPSHOT_NAME);
    let violations = tir_check::validate_snapshot(&path);
    if violations.is_empty() {
        return Ok(());
    }
    for v in &violations {
        eprintln!("{}: {v}", path.display());
    }
    Err(format!(
        "{}: {} fsck violation(s); refusing to load",
        path.display(),
        violations.len()
    ))
}

/// `tir serve --data-dir`: recovers (or initializes) the directory, then
/// serves with the WAL in front of the applier — every acknowledged
/// write survives `kill -9`.
fn serve_durable<I, F>(opts: &Opts, dir: &Path, method: Method, build: F) -> Result<(), String>
where
    I: TemporalIrIndex + Persist + tir_check::Validate + Clone + Send + Sync + 'static,
    F: FnOnce(&Collection) -> I,
{
    let d_opts = DurabilityOptions {
        snapshot_every: opts.parse_or(
            "snapshot-every",
            DurabilityOptions::default().snapshot_every,
        )?,
        ..DurabilityOptions::default()
    };
    let config = server_config(opts, method)?;
    let (index, dict, durability) = if Durability::exists(dir) {
        fsck_data_dir(dir)?;
        let r: Recovered<I> = Durability::recover(dir, d_opts)
            .map_err(|e| format!("recover {}: {e}", dir.display()))?;
        eprintln!(
            "recovered {} to epoch {} ({} WAL batch(es) replayed{})",
            dir.display(),
            r.epoch,
            r.replayed,
            if r.truncated_tail {
                ", torn WAL tail truncated"
            } else {
                ""
            }
        );
        (r.index, r.dict, r.durability)
    } else {
        let corpus = serve_corpus(opts)?;
        eprintln!(
            "building {method} over {} objects...",
            corpus.collection.len()
        );
        let index = build(&corpus.collection);
        let durability = Durability::create(
            dir,
            &index,
            &corpus.dictionary,
            corpus.collection.objects(),
            d_opts,
        )
        .map_err(|e| format!("init {}: {e}", dir.display()))?;
        eprintln!("initialized durable data dir {} at epoch 0", dir.display());
        (index, corpus.dictionary, durability)
    };
    let log = TermLog::open(dir).map_err(|e| format!("terms.log: {e}"))?;
    let handle = spawn_server_durable(
        index,
        ServeDict::durable(dict, log),
        durability,
        config,
        checking_validator(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    run_server(handle, opts.get("port-file"))
}

fn cmd_serve_durable(opts: &Opts, dir: &Path) -> Result<(), String> {
    // An existing directory dictates the method: the snapshot knows what
    // wrote it, and a conflicting --method is an operator error.
    let mut method = method_opt(opts, Method::IrHintPerf)?;
    if Durability::exists(dir) {
        let existing = snapshot_method(dir)?;
        if opts.get("method").is_some() && method != existing {
            return Err(format!(
                "{} already holds a {existing} snapshot; --method {method} conflicts",
                dir.display()
            ));
        }
        method = existing;
    }
    tir_core::with_method!(method, |build| serve_durable(opts, dir, method, build))
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    if let Some(dir) = opts.get("data-dir") {
        return cmd_serve_durable(opts, Path::new(dir));
    }
    let method = method_opt(opts, Method::IrHintPerf)?;
    let config = server_config(opts, method)?;
    let corpus = serve_corpus(opts)?;
    let port_file = opts.get("port-file");
    eprintln!(
        "building {method} over {} objects...",
        corpus.collection.len()
    );
    // Static dispatch per method so each serving stack is monomorphic,
    // every one with a tir-check post-swap validator.
    let coll = &corpus.collection;
    tir_core::with_method!(method, |build| serve_index(
        build(coll),
        corpus,
        config,
        port_file,
        checking_validator()
    ))
}

/// `tir snapshot`: write a corpus as a standalone snapshot file tagged
/// with `--method`, then fsck the result — a one-shot exporter for the
/// `tir check --file` tooling.
fn cmd_snapshot(opts: &Opts) -> Result<(), String> {
    let out = opts.require("out")?;
    let method = method_opt(opts, Method::IrHintPerf)?;
    let corpus = serve_corpus(opts)?;
    let epoch: u64 = opts.parse_or("epoch", 0)?;
    let path = Path::new(out);
    tir_persist::write_snapshot(
        path,
        method,
        epoch,
        &corpus.dictionary,
        corpus.collection.objects(),
    )
    .map_err(|e| format!("{out}: {e}"))?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "wrote {out} ({method}, {} objects, {} KiB)",
        corpus.collection.len(),
        bytes / 1024
    );
    cmd_check_file(out)
}

/// Recovers a data directory outside the server (`tir recover`): report
/// what last-snapshot + WAL replay reaches, optionally proving the
/// result structurally sound and in agreement with the brute-force
/// oracle rebuilt from the recovered catalog. `_build` only names the
/// index type the snapshot's method recovers as.
fn recover_and_report<I, F>(opts: &Opts, dir: &Path, _build: F) -> Result<(), String>
where
    I: Persist + TemporalIrIndex + tir_check::Validate,
    F: FnOnce(&Collection) -> I,
{
    let r: Recovered<I> = Durability::recover(dir, DurabilityOptions::default())
        .map_err(|e| format!("recover {}: {e}", dir.display()))?;
    println!("data dir    {}", dir.display());
    println!("method      {}", r.index.name());
    println!("epoch       {}", r.epoch);
    println!("replayed    {} WAL batch(es)", r.replayed);
    println!(
        "torn tail   {}",
        if r.truncated_tail { "truncated" } else { "no" }
    );
    println!("live        {}", r.durability.live());
    println!("dictionary  {}", r.dict.len());
    if opts.get("verify").is_none() {
        return Ok(());
    }
    let violations = r.index.validate();
    if let Some(v) = violations.first() {
        return Err(format!(
            "recovered index: {} structural violation(s), first: {v}",
            violations.len()
        ));
    }
    println!("validate    clean");
    // Oracle agreement: the recovered index must answer exactly like a
    // brute-force scan of the recovered catalog.
    let catalog = r.durability.catalog_sorted();
    let grid = tir_check::oracle_query_grid(&catalog, 16, r.epoch);
    if let Some(v) = tir_check::diff_against_oracle(&r.index, &catalog, &grid).first() {
        return Err(format!("oracle divergence: {v}"));
    }
    println!(
        "verified    {} queries against the brute-force oracle",
        grid.len()
    );
    Ok(())
}

fn cmd_recover(opts: &Opts) -> Result<(), String> {
    let dir = Path::new(opts.require("data-dir")?);
    if !Durability::exists(dir) {
        return Err(format!("{}: no snapshot found", dir.display()));
    }
    if opts.get("verify").is_some() {
        fsck_data_dir(dir)?;
        println!("fsck        clean");
    }
    tir_core::with_method!(snapshot_method(dir)?, |build| recover_and_report(
        opts, dir, build
    ))
}

fn cmd_loadgen(opts: &Opts) -> Result<(), String> {
    warn_stale_binary();
    let mut cfg = LoadgenConfig::new(opts.require("addr")?);
    cfg.requests = opts.parse_or("requests", cfg.requests)?;
    cfg.threads = opts.parse_or("threads", cfg.threads)?;
    cfg.write_fraction = opts.parse_or("write-fraction", cfg.write_fraction)?;
    cfg.insert_fraction = opts.parse_or("insert-fraction", cfg.insert_fraction)?;
    cfg.max_elems = opts.parse_or("elems", cfg.max_elems)?;
    cfg.seed = opts.parse_or("seed", cfg.seed)?;
    cfg.durability = opts.parse_or("durability", cfg.durability)?;
    cfg.deadline_ms = opts.parse_or("deadline-ms", cfg.deadline_ms)?;
    cfg.retries = opts.parse_or("retries", cfg.retries)?;
    cfg.backoff_ms = opts.parse_or("backoff-ms", cfg.backoff_ms)?;
    if !(0.0..=1.0).contains(&cfg.write_fraction) || !(0.0..=1.0).contains(&cfg.insert_fraction) {
        return Err("--write-fraction and --insert-fraction must be in [0, 1]".into());
    }
    let json_path = opts.get("json").unwrap_or("BENCH_serve.json");

    let report = loadgen::run(&cfg)?;
    println!("{}", report.render());
    let mut doc = report.to_json();
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("git_rev".to_string(), Json::str(git_rev())));
    }
    std::fs::write(json_path, format!("{doc}\n")).map_err(|e| format!("{json_path}: {e}"))?;
    eprintln!("wrote {json_path}");
    if report.wrong > 0 {
        return Err(format!(
            "{} provably wrong answer(s) during the run",
            report.wrong
        ));
    }
    if report.errors > 0 {
        return Err(format!(
            "{} protocol error(s) during the run",
            report.errors
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_is_clean_on_running_example() {
        let coll = Collection::running_example();
        for (name, violations) in validate_all(&coll) {
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }

    #[test]
    fn opts_parsing() {
        let args: Vec<String> = ["--from", "5", "--to", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Opts::parse(&args).unwrap();
        assert_eq!(o.require("from").unwrap(), "5");
        assert!(o.require("missing").is_err());
        assert_eq!(o.parse_or("to", 0u64).unwrap(), 9);
        assert_eq!(o.parse_or("absent", 42u64).unwrap(), 42);
    }

    #[test]
    fn opts_rejects_positional() {
        let args: Vec<String> = vec!["oops".into()];
        assert!(Opts::parse(&args).is_err());
    }

    #[test]
    fn method_flag_parses_registry_names() {
        let args: Vec<String> = vec!["--method".into(), Method::Ctif.name().into()];
        let opts = Opts::parse(&args).unwrap();
        assert_eq!(method_opt(&opts, Method::Tif), Ok(Method::Ctif));
        let none = Opts::parse(&[]).unwrap();
        assert_eq!(method_opt(&none, Method::Tif), Ok(Method::Tif));
        let bad = Opts::parse(&["--method".into(), "nope".into()]).unwrap();
        assert!(method_opt(&bad, Method::Tif).is_err());
    }

    fn abc_dictionary() -> tir_invidx::Dictionary {
        let mut dict = tir_invidx::Dictionary::new();
        for name in ["a", "b", "c"] {
            dict.intern(name);
        }
        dict
    }

    #[test]
    fn elems_flag_parses_known_elements() {
        let dict = abc_dictionary();
        assert_eq!(parse_elems_flag("a,c", &dict).unwrap(), vec![0, 2]);
        assert_eq!(parse_elems_flag(" b ", &dict).unwrap(), vec![1]);
    }

    #[test]
    fn elems_flag_rejects_every_malformed_shape() {
        let dict = abc_dictionary();
        // The old behavior let these slip through as a silently smaller
        // (or empty) element set; all of them must now be hard errors.
        for bad in [
            "", "  ", ",", "a,", ",a", "a,,c", "a, ,c", "zebra", "a,zebra",
        ] {
            assert!(
                parse_elems_flag(bad, &dict).is_err(),
                "'{bad}' was accepted"
            );
        }
    }

    #[test]
    fn serve_corpus_synthetic_dictionary_matches_collection() {
        let args: Vec<String> = ["--scale", "0.001", "--seed", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = Opts::parse(&args).unwrap();
        let corpus = serve_corpus(&opts).unwrap();
        assert_eq!(corpus.dictionary.len(), corpus.collection.dict_size());
        // Term ids line up with element ids, so wire-protocol terms
        // resolve to the elements the objects actually carry.
        let last = corpus.collection.dict_size() as u32 - 1;
        assert_eq!(corpus.dictionary.lookup(&format!("e{last}")), Some(last));
    }
}
