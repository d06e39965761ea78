//! The three workloads and the inputs each one generates from its seed.
//!
//! The corpus comes from `tir_datagen::generate` and is handed to the
//! server as a TSV file, the only input it receives. The benchmark keeps
//! an in-process copy under the same element ids the server assigns
//! while loading that file (terms are interned in first-appearance
//! order), so the in-process index it checks against and replays is the
//! one the server built.

use std::io::Write as _;
use std::path::Path;

use tir_core::{Collection, Object, TimeTravelQuery};
use tir_datagen::{Extent, SyntheticConfig, WorkloadSpec};
use tir_invidx::Dictionary;

use crate::stats::Rng;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only queries against irHINT-perf at 500K objects.
    Read,
    /// A quarter writes with FLUSH barriers, same corpus and method.
    Write,
    /// The write mix against a durable tIF at 50K objects, then
    /// `kill -9` and recovery.
    Durable,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "read" => Ok(Workload::Read),
            "write" => Ok(Workload::Write),
            "durable" => Ok(Workload::Durable),
            other => Err(format!("unknown workload '{other}' (read, write, durable)")),
        }
    }
}

/// Everything that defines a workload's load shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Corpus scale relative to the paper's 1M-object default.
    pub scale: f64,
    /// Index method the server is started with.
    pub method: &'static str,
    /// Serve from a data directory (WAL + snapshots).
    pub durable: bool,
    /// Share of operations in the measured window that are writes.
    pub write_frac: f64,
    /// Share of writes that are inserts (the rest are deletes).
    pub insert_frac: f64,
    /// A FLUSH after this many writes on a connection (0: never).
    pub flush_every: usize,
    /// Read only: a FLUSH barrier after this many queries on a
    /// connection, with nothing pending (0: never).
    pub ping_every: usize,
    /// Read only: writes one connection sends after the measured window,
    /// each after a query, while the others keep querying (inserts, then
    /// deletes of the same objects).
    pub probe_writes: usize,
    /// Closed-loop client connections.
    pub conns: usize,
    /// Distinct queries the connections draw from.
    pub distinct_queries: usize,
}

impl Spec {
    /// The shipped definition of `workload`; `scale` overrides the
    /// corpus size (the tests use tiny corpora).
    pub fn new(workload: Workload, scale: Option<f64>) -> Spec {
        let base = Spec {
            workload,
            scale: 0.5,
            method: "irhint-perf",
            durable: false,
            write_frac: 0.0,
            insert_frac: 0.7,
            flush_every: 0,
            ping_every: 0,
            probe_writes: 0,
            conns: 2,
            distinct_queries: 4000,
        };
        let mut spec = match workload {
            Workload::Read => Spec {
                ping_every: 64,
                probe_writes: 512,
                ..base
            },
            Workload::Write => Spec {
                write_frac: 0.25,
                flush_every: 16,
                ..base
            },
            Workload::Durable => Spec {
                scale: 0.05,
                method: "tif",
                durable: true,
                write_frac: 0.25,
                flush_every: 16,
                ..base
            },
        };
        if let Some(s) = scale {
            spec.scale = s;
        }
        spec
    }
}

/// A query in both forms: the wire line and the in-process query over
/// the server's element ids.
#[derive(Debug, Clone)]
pub struct WireQuery {
    /// `QUERY <from> <to> <terms>`.
    pub line: String,
    /// The same query over the server's element ids.
    pub query: TimeTravelQuery,
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The corpus under the server's element ids; object ids are the
    /// TSV line numbers, as the server assigns them.
    pub collection: Collection,
    /// The server's dictionary.
    pub dict: Dictionary,
    /// The distinct queries.
    pub queries: Vec<WireQuery>,
}

/// The §5.1 query knobs mixed into one set: extents from stabbing to 1%
/// of the domain, and 1 to 5 query elements.
const EXTENTS: [Extent; 4] = [
    Extent::Stabbing,
    Extent::Fraction(0.0001),
    Extent::Fraction(0.001),
    Extent::Fraction(0.01),
];

impl Inputs {
    /// Generates the corpus and queries for `seed`, and writes the
    /// corpus to `tsv` in the format `tir serve --input` reads.
    pub fn generate(spec: &Spec, seed: u64, tsv: &Path) -> Result<Inputs, String> {
        let cfg = SyntheticConfig {
            seed,
            ..SyntheticConfig::default().scaled(spec.scale)
        };
        let raw = tir_datagen::generate(&cfg);
        let names: Vec<String> = (0..raw.dict_size()).map(|e| format!("e{e}")).collect();
        write_tsv(&raw, &names, tsv).map_err(|e| format!("{}: {e}", tsv.display()))?;

        // Intern exactly as the server's TSV loader does.
        let mut dict = Dictionary::new();
        let objects: Vec<Object> = raw
            .objects()
            .iter()
            .map(|o| {
                let desc =
                    dict.intern_description(o.desc.iter().map(|&e| names[e as usize].as_str()));
                Object::new(o.id, o.interval.st, o.interval.end, desc)
            })
            .collect();

        let mut queries = Vec::with_capacity(spec.distinct_queries);
        let per = spec.distinct_queries.div_ceil(EXTENTS.len() * 5);
        let mut stream = 0u64;
        for extent in EXTENTS {
            for num_elems in 1..=5 {
                stream += 1;
                let ws = WorkloadSpec {
                    extent,
                    num_elems,
                    ..WorkloadSpec::default()
                };
                for q in
                    tir_datagen::workload(&raw, &ws, per, seed ^ stream.wrapping_mul(0x9E37_79B9))
                {
                    let terms: Vec<&str> = q
                        .elems
                        .iter()
                        .map(|&e| names[e as usize].as_str())
                        .collect();
                    let ids: Vec<u32> = terms
                        .iter()
                        .map(|t| {
                            dict.lookup(t)
                                .ok_or_else(|| format!("query term {t} not in the corpus"))
                        })
                        .collect::<Result<_, _>>()?;
                    queries.push(WireQuery {
                        line: format!(
                            "QUERY {} {} {}",
                            q.interval.st,
                            q.interval.end,
                            terms.join(",")
                        ),
                        query: TimeTravelQuery::new(q.interval.st, q.interval.end, ids),
                    });
                }
            }
        }
        Rng::new(seed, 0x51).shuffle(&mut queries);
        queries.truncate(spec.distinct_queries);
        if queries.is_empty() {
            return Err("the corpus supports no query of the workload".into());
        }
        Ok(Inputs {
            collection: Collection::new(objects),
            dict,
            queries,
        })
    }

    /// The wire terms of an element-id set.
    pub fn terms(&self, elems: &[u32]) -> String {
        let mut out = String::new();
        for (i, &e) in elems.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(self.dict.term(e).unwrap_or("?"));
        }
        out
    }
}

fn write_tsv(coll: &Collection, names: &[String], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# start\tend\telements")?;
    for o in coll.objects() {
        write!(w, "{}\t{}\t", o.interval.st, o.interval.end)?;
        for (i, &e) in o.desc.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            w.write_all(names[e as usize].as_bytes())?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// One operation a connection performs.
#[derive(Debug, Clone)]
pub enum Op {
    /// Query number `i` of [`Inputs::queries`].
    Query(usize),
    /// Insert a fresh object.
    Insert(Object),
    /// Delete a live object.
    Delete(Object),
    /// A FLUSH barrier.
    Flush,
}

impl Op {
    /// The request line (for queries, see [`WireQuery::line`]).
    pub fn line(&self, inputs: &Inputs) -> String {
        match self {
            Op::Query(i) => inputs.queries[*i].line.clone(),
            Op::Insert(o) => format!(
                "INSERT {} {} {} {}",
                o.id,
                o.interval.st,
                o.interval.end,
                inputs.terms(&o.desc)
            ),
            Op::Delete(o) => format!("DELETE {}", o.id),
            Op::Flush => "FLUSH".into(),
        }
    }
}

/// The deterministic operation stream of one connection.
pub struct OpStream {
    rng: Rng,
    conn: usize,
    conns: usize,
    next_insert: u32,
    deletable: Vec<u32>,
    writes_since_flush: usize,
    queries_since_ping: usize,
}

impl OpStream {
    /// Stream `conn` of `spec.conns` over `inputs`.
    pub fn new(spec: &Spec, inputs: &Inputs, seed: u64, conn: usize) -> OpStream {
        let n = inputs.collection.len() as u32;
        let mut deletable: Vec<u32> = (0..n)
            .filter(|id| *id as usize % spec.conns == conn)
            .collect();
        let mut rng = Rng::new(seed, 0x1000 + conn as u64);
        rng.shuffle(&mut deletable);
        OpStream {
            rng,
            conn,
            conns: spec.conns,
            next_insert: 0,
            deletable,
            writes_since_flush: 0,
            queries_since_ping: 0,
        }
    }

    /// A fresh object: the interval and description of a random corpus
    /// object under a new id. Connections use disjoint, dense id ranges
    /// above the corpus.
    pub fn fresh_object(&mut self, inputs: &Inputs) -> Object {
        let objects = inputs.collection.objects();
        let id = objects.len() as u32 + self.next_insert * self.conns as u32 + self.conn as u32;
        self.next_insert += 1;
        let src = &objects[self.rng.below(objects.len())];
        Object::new(id, src.interval.st, src.interval.end, src.desc.clone())
    }

    /// The next operation of the measured mix.
    pub fn next(&mut self, spec: &Spec, inputs: &Inputs) -> Op {
        if spec.flush_every > 0 && self.writes_since_flush >= spec.flush_every {
            self.writes_since_flush = 0;
            return Op::Flush;
        }
        if spec.ping_every > 0 && self.queries_since_ping >= spec.ping_every {
            self.queries_since_ping = 0;
            return Op::Flush;
        }
        if spec.write_frac > 0.0 && self.rng.chance(spec.write_frac) {
            self.writes_since_flush += 1;
            if self.rng.chance(spec.insert_frac) || self.deletable.is_empty() {
                return Op::Insert(self.fresh_object(inputs));
            }
            let id = self.deletable.pop().expect("checked non-empty above");
            return Op::Delete(inputs.collection.get(id).clone());
        }
        self.queries_since_ping += 1;
        self.query(inputs)
    }

    /// A query drawn from the distinct set.
    pub fn query(&mut self, inputs: &Inputs) -> Op {
        Op::Query(self.rng.below(inputs.queries.len()))
    }
}
