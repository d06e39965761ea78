//! # tir-analyze
//!
//! A from-scratch, dependency-free static-analysis engine for the
//! temporal-ir workspace. It replaces the PR 1 substring scanner with a
//! real Rust [`lexer`] (strings, raw strings, char literals, nested
//! comments, raw identifiers), a lightweight item/function [`parser`]
//! layered on it, a workspace-wide [`callgraph`] with suffix-based name
//! resolution and a [`reach`]ability engine, and an intra-procedural
//! [`dataflow`] phase (def-use chains, taint, guard tracking) — feeding
//! a rule framework that produces `path:line:col` diagnostics with
//! per-site `// analyze:allow(rule-name)` suppressions (see [`source`]
//! for the exact syntax and extents).
//!
//! ## Rule catalog
//!
//! Token-local rules, judged per file:
//!
//! | rule | fires on |
//! |------|----------|
//! | `lock-order` | cycles in the per-crate Mutex-acquisition graph; re-locking a held mutex |
//! | `atomic-ordering` | any `Ordering::Relaxed` without a per-site justification comment |
//! | `raw-lock` | bare `.lock()` calls that bypass the tracked poison-tolerant helper |
//! | `panic-path` | `.unwrap()`, `todo!`, `unimplemented!`, `dbg!`, `panic!`, message-less `.expect()` in library code |
//! | `unguarded-cast` | narrowing `as` casts in hot-path crates without a fits-proof annotation |
//! | `unbounded-channel` | `std::sync::mpsc::channel()` (no backpressure) |
//! | `blocking-under-lock` | channel/thread/socket/I-O waits or nested acquisitions inside a lock-held region |
//! | `unsafe-code` | any `unsafe` token; non-suppressible outside the audited SIMD module, per-site justified inside it |
//!
//! Whole-program rules, judged over the workspace call graph (and the
//! per-function dataflow results) in [`Analysis::finish`]:
//!
//! | rule | fires on |
//! |------|----------|
//! | `hot-path-alloc` | allocating APIs reachable from `query_into` / planner kernels, outside declared scratch arenas |
//! | `panic-reachability` | panicking calls reachable from the serve accept loop / worker pool, with the full call chain |
//! | `untrusted-length` | disk-decoded lengths/offsets reaching an index, capacity, or arithmetic sink unchecked, with the def-use chain |
//! | `durability-ordering` | append → fsync → apply/ack order broken in the durable engine; `fs::rename` before data fsync or without a directory fsync |
//! | `error-swallow` | `let _ =` / `.ok()` discarding an `io::Result` in library code |
//!
//! `#[cfg(test)]` items are exempt from every rule. The driver is
//! `cargo xtask analyze` (part of `cargo xtask lint`); the old
//! `cargo xtask srclint` is an alias kept for CI and muscle memory.
//!
//! ```
//! use tir_analyze::{Analysis, Config};
//!
//! let mut a = Analysis::new(Config::default());
//! a.add_file("demo", "demo/lib.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
//! let diags = a.finish();
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, "panic-path");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod dataflow;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod rules;
pub mod source;

use std::collections::{BTreeMap, HashMap};

pub use diag::Diagnostic;
pub use source::SourceFile;

use callgraph::CallGraph;
use parser::FnDef;
use rules::lock_order::LockGraph;
use source::Allow;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates the `unguarded-cast` rule applies to (`None` = every
    /// crate). The workspace gate restricts it to the hot-path crates
    /// `hint`, `invidx`, `core`, where a silent truncation corrupts
    /// query answers.
    pub cast_crates: Option<Vec<String>>,
    /// Function names whose bodies root the `hot-path-alloc`
    /// reachability walk: the `query_into` implementations and the
    /// planner kernels.
    pub hot_path_roots: Vec<String>,
    /// Call names the hot-path walk does not traverse. `query` by
    /// default: the `TemporalIrIndex` default `query_into` delegates to
    /// the allocating cold-path `query`.
    pub hot_path_cuts: Vec<String>,
    /// Type names declared as scratch arenas: their impls are exempt
    /// from `hot-path-alloc`, and receivers rooted in them may grow.
    pub scratch_arenas: Vec<String>,
    /// Substrings of parameter types that mark a binding as a legal
    /// growth sink (caller-owned output buffers, arena borrows).
    pub growth_sinks: Vec<String>,
    /// Function names rooting the `panic-reachability` walk: the serve
    /// accept loop and the worker pool's thread body.
    pub serve_roots: Vec<String>,
    /// Path suffixes of the files allowed to contain (per-site
    /// justified) `unsafe` — the audited SIMD module. Everywhere else
    /// `unsafe-code` fires non-suppressibly.
    pub unsafe_audited_paths: Vec<String>,
    /// Crates the `untrusted-length` taint audit applies to (`None` =
    /// every crate). The workspace gate restricts it to `persist`,
    /// where byte parsers decode attacker-controllable lengths.
    pub taint_crates: Option<Vec<String>>,
    /// Call names that produce untrusted values: the little-endian
    /// decoders and the byte-column accessor.
    pub taint_sources: Vec<String>,
    /// Call names that validate a value they receive or clamp: flowing
    /// through one marks the receiver chain and arguments validated.
    pub taint_guards: Vec<String>,
    /// Function names that are durable entry points: each must order
    /// append → fsync → apply internally, and callers must ack after
    /// calling one (`durability-ordering`).
    pub durable_entries: Vec<String>,
    /// Call names that append to the WAL.
    pub durable_appends: Vec<String>,
    /// Call names that flush to stable storage.
    pub durable_syncs: Vec<String>,
    /// Call names that apply ops to the in-memory index.
    pub durable_applies: Vec<String>,
    /// Method names that ack a client (checked to follow the durable
    /// entry call in token order).
    pub durable_acks: Vec<String>,
    /// When set, only the named rules run — the `cargo xtask analyze
    /// --rule <name>` debugging path skips every other rule's pass
    /// entirely (including the reachability walks). `None` = all rules.
    pub rule_filter: Option<Vec<String>>,
}

impl Config {
    /// Whether `rule` participates in this session (see
    /// [`Config::rule_filter`]).
    pub fn rule_enabled(&self, rule: &str) -> bool {
        self.rule_filter
            .as_ref()
            .is_none_or(|f| f.iter().any(|r| r == rule))
    }
}

impl Default for Config {
    fn default() -> Config {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect();
        Config {
            cast_crates: None,
            hot_path_roots: s(&[
                "query_into",
                "intersect_merge_into",
                "intersect_gallop_into",
                "intersect_adaptive_into",
                "mark_hits",
                "intersect_ids_into",
            ]),
            hot_path_cuts: s(&["query"]),
            scratch_arenas: s(&["QueryScratch"]),
            growth_sinks: s(&["QueryScratch", "Vec", "String"]),
            serve_roots: s(&["accept_loop", "worker_loop"]),
            unsafe_audited_paths: s(&["invidx/src/simd.rs"]),
            taint_crates: None,
            taint_sources: s(&["read_u32", "read_u64", "get"]),
            taint_guards: s(&[
                "min",
                "max",
                "clamp",
                "checked_add",
                "checked_sub",
                "checked_mul",
                "saturating_add",
                "saturating_sub",
                "saturating_mul",
                "is_multiple_of",
            ]),
            durable_entries: s(&["apply_batch"]),
            durable_appends: s(&["append"]),
            durable_syncs: s(&["sync", "sync_all", "sync_data"]),
            durable_applies: s(&["apply_ops"]),
            durable_acks: s(&["send"]),
            rule_filter: None,
        }
    }
}

/// Everything [`Analysis::finish_report`] returns: the inputs seen, the
/// suppression inventory, and the sorted findings — the payload of
/// `cargo xtask analyze --json`.
pub struct Report {
    /// Number of files fed to the session.
    pub files: usize,
    /// Count of `analyze:allow` annotations per rule name across all
    /// files — the audit surface a reviewer diffs against the baseline.
    pub allows: BTreeMap<String, usize>,
    /// Every diagnostic, sorted by path/line/column/rule.
    pub diagnostics: Vec<Diagnostic>,
}

/// The analysis session: feed files with [`Analysis::add_file`], collect
/// everything with [`Analysis::finish`]. Token-local rules run
/// immediately; `lock-order` cycles and the whole-program rules
/// (`hot-path-alloc`, `panic-reachability`) resolve at the end, once
/// the complete call graph exists.
pub struct Analysis {
    config: Config,
    diags: Vec<Diagnostic>,
    graphs: HashMap<String, LockGraph>,
    files: usize,
    fns: Vec<FnDef>,
    allows_by_path: HashMap<String, Vec<Allow>>,
    allow_counts: BTreeMap<String, usize>,
}

impl Analysis {
    /// Starts an empty session.
    pub fn new(config: Config) -> Analysis {
        Analysis {
            config,
            diags: Vec::new(),
            graphs: HashMap::new(),
            files: 0,
            fns: Vec::new(),
            allows_by_path: HashMap::new(),
            allow_counts: BTreeMap::new(),
        }
    }

    /// Number of files fed so far.
    pub fn files_seen(&self) -> usize {
        self.files
    }

    /// Lexes `text` and runs every applicable per-file rule, retaining
    /// the parsed functions and suppressions for the whole-program
    /// passes. `krate` groups files for the lock-order graph; `path` is
    /// what diagnostics report.
    pub fn add_file(&mut self, krate: &str, path: &str, text: &str) {
        self.files += 1;
        let file = SourceFile::parse(path, text);

        let mut raw: Vec<Diagnostic> = Vec::new();
        let on = |rule: &str| self.config.rule_enabled(rule);
        if on(rules::panic_path::NAME) {
            raw.extend(rules::panic_path::check(&file));
        }
        if on(rules::atomic_ordering::NAME) {
            raw.extend(rules::atomic_ordering::check(&file));
        }
        if on(rules::raw_lock::NAME) {
            raw.extend(rules::raw_lock::check(&file));
        }
        if on(rules::channel::NAME) {
            raw.extend(rules::channel::check(&file));
        }
        if on(rules::blocking_under_lock::NAME) {
            raw.extend(rules::blocking_under_lock::check(&file));
        }
        if on(rules::unsafe_code::NAME) {
            raw.extend(rules::unsafe_code::check(
                &file,
                &self.config.unsafe_audited_paths,
            ));
        }
        let cast_applies = match &self.config.cast_crates {
            None => true,
            Some(list) => list.iter().any(|c| c == krate),
        };
        if cast_applies && on(rules::cast::NAME) {
            raw.extend(rules::cast::check(&file));
        }

        // Suppression pass: a diagnostic is dropped when a matching
        // allow covers its line (rules that interpret annotations
        // themselves mark their output non-suppressible).
        self.diags.extend(
            raw.into_iter()
                .filter(|d| !d.suppressible || file.allow(d.rule, d.line).is_none()),
        );

        let graph = self.graphs.entry(krate.to_string()).or_default();
        self.diags.extend(graph.add_file(&file));

        self.fns.extend(parser::parse_fns(krate, &file));
        for a in &file.allows {
            *self.allow_counts.entry(a.rule.clone()).or_insert(0) += 1;
        }
        self.allows_by_path.insert(path.to_string(), file.allows);
    }

    /// Resolves the per-crate lock graphs, builds the workspace call
    /// graph, runs the whole-program rules, and returns the full
    /// [`Report`], diagnostics sorted by path/line/column.
    pub fn finish_report(mut self) -> Report {
        let mut crates: Vec<&String> = self.graphs.keys().collect();
        crates.sort();
        let mut late_diags = Vec::new();
        if self.config.rule_enabled(rules::lock_order::NAME) {
            for krate in crates {
                late_diags.extend(self.graphs[krate].check_cycles(krate));
            }
        }

        let graph = CallGraph::build(std::mem::take(&mut self.fns));
        if self.config.rule_enabled(rules::hot_path_alloc::NAME) {
            late_diags.extend(rules::hot_path_alloc::check(
                &graph,
                &self.allows_by_path,
                &self.config,
            ));
        }
        if self.config.rule_enabled(rules::panic_reach::NAME) {
            late_diags.extend(rules::panic_reach::check(
                &graph,
                &self.allows_by_path,
                &self.config,
            ));
        }
        if self.config.rule_enabled(rules::untrusted_length::NAME) {
            late_diags.extend(rules::untrusted_length::check(
                &graph,
                &self.allows_by_path,
                &self.config,
            ));
        }
        if self.config.rule_enabled(rules::durability_order::NAME) {
            late_diags.extend(rules::durability_order::check(
                &graph,
                &self.allows_by_path,
                &self.config,
            ));
        }
        if self.config.rule_enabled(rules::error_swallow::NAME) {
            late_diags.extend(rules::error_swallow::check(&graph, &self.allows_by_path));
        }

        self.diags.extend(late_diags);
        // Catch-all for per-file passes that piggyback on shared state
        // (the lock graph emits self-relock diagnostics while being
        // built): a filtered session reports only the selected rules.
        let config = &self.config;
        self.diags.retain(|d| config.rule_enabled(d.rule));
        self.diags.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
        Report {
            files: self.files,
            allows: self.allow_counts,
            diagnostics: self.diags,
        }
    }

    /// [`Analysis::finish_report`] for callers that only want the
    /// diagnostics.
    pub fn finish(self) -> Vec<Diagnostic> {
        self.finish_report().diagnostics
    }
}

/// Convenience: run every rule over one snippet as crate `snippet`.
/// Used by the self-test corpus and handy in doctests.
pub fn analyze_snippet(text: &str) -> Vec<Diagnostic> {
    let mut a = Analysis::new(Config::default());
    a.add_file("snippet", "snippet.rs", text);
    a.finish()
}
