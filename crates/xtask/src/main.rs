//! `cargo xtask` — the repo-wide static-analysis gate.
//!
//! ```text
//! cargo xtask build    cargo build --release -p tir-cli (the `tir` binary;
//!                      the workspace root build does not produce it)
//! cargo xtask lint     run every check below (the CI gate)
//! cargo xtask attrs    library crates carry forbid(unsafe_code) + warn(missing_docs)
//! cargo xtask analyze  tir-analyze: token rules (lock-order, atomic-ordering,
//!                      raw-lock, panic-path, unguarded-cast, unbounded-channel,
//!                      blocking-under-lock) + call-graph rules (hot-path-alloc,
//!                      panic-reachability) + dataflow rules (untrusted-length,
//!                      durability-ordering, error-swallow).
//!                        --rule <name>      run exactly one rule (debugging aid;
//!                                           --json respects the filter)
//!                        --json <path>      write the machine-readable report,
//!                                           git_rev-stamped like BENCH_*.json
//!                        --baseline <path>  compare against a committed report;
//!                                           on drift, print the per-rule
//!                                           allow-census delta and the exact
//!                                           regen command (the CI gate)
//! cargo xtask srclint  alias of analyze (the old substring scanner it replaced)
//! cargo xtask fmt      cargo fmt --all -- --check
//! cargo xtask clippy   cargo clippy --workspace --all-targets -- -D warnings
//! cargo xtask fsck     build indexes from generated data, validate with tir-check
//! ```
//!
//! Every check either passes silently (one summary line) or prints the
//! offending `path:line:col` and exits nonzero. Rule semantics and the
//! `// analyze:allow(rule)` suppression syntax live in the `tir-analyze`
//! crate docs and DESIGN.md §"Static analysis & concurrency auditing".

use std::path::{Path, PathBuf};
use std::process::Command;

use tir_check::Validate;
use tir_core::prelude::*;
use tir_hint::{Grid1D, Hint, HintConfig, IntervalRecord, IntervalTree};

/// Library crates the attribute and source rules apply to. Binaries
/// (`cli`, `bench`, this crate) and the dependency shims are exempt.
const LIB_CRATES: &[&str] = &[
    "analyze", "check", "core", "datagen", "fault", "hint", "invidx", "persist", "serve",
];

/// Crates where a silently truncating cast corrupts query answers;
/// the `unguarded-cast` rule is scoped to these.
const HOT_PATH_CRATES: &[&str] = &["hint", "invidx", "core"];

/// Crates whose byte parsers decode attacker-controllable lengths; the
/// `untrusted-length` dataflow audit is scoped to these.
const TAINT_CRATES: &[&str] = &["persist"];

const REQUIRED_ATTRS: &[&str] = &["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"];

const USAGE: &str = "usage: cargo xtask <build|lint|attrs|analyze [--rule <name>] \
     [--json <path>] [--baseline <path>]|srclint|fmt|clippy|fsck>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("lint");
    let result = match cmd {
        "build" => build(),
        "lint" => lint(),
        "attrs" => attrs(),
        // `srclint` is the PR 1 name for the source lint; tir-analyze
        // superseded the substring scanner, the alias keeps CI and
        // muscle memory working.
        "analyze" | "srclint" => match AnalyzeArgs::parse(&args[1..]) {
            Ok(parsed) => analyze(&parsed),
            Err(msg) => Err(msg),
        },
        "fmt" => fmt(),
        "clippy" => clippy(),
        "fsck" => fsck(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other}\n{USAGE}")),
    };
    if let Err(msg) = result {
        eprintln!("xtask: {msg}");
        std::process::exit(1);
    }
}

fn lint() -> Result<(), String> {
    attrs()?;
    analyze(&AnalyzeArgs::default())?;
    fmt()?;
    clippy()?;
    fsck()
}

/// Builds the release `tir` binary. The workspace root package does not
/// depend on `tir-cli`, so a bare `cargo build --release` never produces
/// it — this is the one blessed way to get a benchable binary (stamped
/// with the current git revision by the cli crate's build script).
fn build() -> Result<(), String> {
    cargo_tool(&["build", "--release", "-p", "tir-cli"], "build")?;
    let bin = repo_root().join("target/release/tir");
    println!("build: release binary at {}", bin.display());
    Ok(())
}

/// Trailing arguments of an `analyze` invocation.
#[derive(Debug, Default)]
struct AnalyzeArgs {
    /// `--rule <name>`: run exactly this rule.
    rule: Option<String>,
    /// `--json <path>`: write the machine-readable report there.
    json: Option<String>,
    /// `--baseline <path>`: compare the report against a committed one.
    baseline: Option<String>,
}

impl AnalyzeArgs {
    fn parse(rest: &[String]) -> Result<AnalyzeArgs, String> {
        let mut parsed = AnalyzeArgs::default();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let slot = match flag.as_str() {
                "--rule" => &mut parsed.rule,
                "--json" => &mut parsed.json,
                "--baseline" => &mut parsed.baseline,
                other => return Err(format!("unexpected argument {other}\n{USAGE}")),
            };
            let Some(value) = it.next() else {
                return Err(format!("{flag} needs a value\n{USAGE}"));
            };
            if slot.replace(value.clone()).is_some() {
                return Err(format!("{flag} given twice\n{USAGE}"));
            }
        }
        if let Some(rule) = &parsed.rule {
            if !tir_analyze::rules::RULE_NAMES.contains(&rule.as_str()) {
                return Err(format!(
                    "unknown rule {rule}; shipped rules: {}",
                    tir_analyze::rules::RULE_NAMES.join(", ")
                ));
            }
            if parsed.baseline.is_some() {
                return Err(
                    "--rule cannot be combined with --baseline: a single-rule report \
                     never matches the full committed baseline"
                        .to_string(),
                );
            }
        }
        Ok(parsed)
    }
}

fn repo_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a grandparent")
        .to_path_buf()
}

/// Every library crate root must opt into the workspace safety posture.
/// `invidx` is the audited exception: its SIMD kernel module needs
/// `unsafe`, so the crate carries `deny(unsafe_code)` (overridden only
/// inside the audited module) and the `unsafe-code` analyze rule
/// enforces the containment per token.
const UNSAFE_AUDITED_CRATES: &[&str] = &["invidx"];

fn attrs() -> Result<(), String> {
    let root = repo_root();
    let mut missing = Vec::new();
    for krate in LIB_CRATES {
        let path = root.join("crates").join(krate).join("src/lib.rs");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for attr in REQUIRED_ATTRS {
            let attr =
                if UNSAFE_AUDITED_CRATES.contains(krate) && *attr == "#![forbid(unsafe_code)]" {
                    "#![deny(unsafe_code)]"
                } else {
                    attr
                };
            if !text.contains(attr) {
                missing.push(format!("{} lacks {attr}", path.display()));
            }
        }
    }
    if missing.is_empty() {
        println!(
            "attrs: {} library crates carry {:?}",
            LIB_CRATES.len(),
            REQUIRED_ATTRS
        );
        Ok(())
    } else {
        Err(format!("missing attributes:\n  {}", missing.join("\n  ")))
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the tir-analyze engine over every library crate's `src/` tree:
/// the per-file token rules, the workspace call-graph passes
/// (`hot-path-alloc`, `panic-reachability`), and the dataflow tier
/// (`untrusted-length` scoped to `persist`, `durability-ordering`,
/// `error-swallow`). The lexer makes matches token-exact (no hits
/// inside strings or comments); `#[cfg(test)]` items and per-site
/// `analyze:allow` suppressions are honoured by the engine. With
/// `--rule`, exactly one rule runs and the report covers only it; with
/// `--json`, the machine-readable report (sorted diagnostics + per-rule
/// allow counts, git_rev-stamped) is written out; with `--baseline`,
/// the report is compared against the committed one and any drift
/// fails with the per-rule delta and the regen command.
fn analyze(args: &AnalyzeArgs) -> Result<(), String> {
    let root = repo_root();
    let config = tir_analyze::Config {
        cast_crates: Some(HOT_PATH_CRATES.iter().map(|c| c.to_string()).collect()),
        taint_crates: Some(TAINT_CRATES.iter().map(|c| c.to_string()).collect()),
        rule_filter: args.rule.as_ref().map(|r| vec![r.clone()]),
        ..tir_analyze::Config::default()
    };
    let mut analysis = tir_analyze::Analysis::new(config);
    for krate in LIB_CRATES {
        let mut files = Vec::new();
        rust_sources(&root.join("crates").join(krate).join("src"), &mut files)?;
        files.sort();
        for path in files {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let rel = path.strip_prefix(&root).unwrap_or(&path);
            analysis.add_file(krate, &rel.display().to_string(), &text);
        }
    }
    let mut report = analysis.finish_report();
    let active_rules: Vec<&str> = match &args.rule {
        Some(rule) => vec![rule.as_str()],
        None => tir_analyze::rules::RULE_NAMES.to_vec(),
    };
    if args.rule.is_some() {
        // A filtered run reports the allow census for the selected rule
        // only, so `--rule x --json` output is self-consistent.
        report
            .allows
            .retain(|r, _| active_rules.contains(&r.as_str()));
    }
    let rendered = report_json(&report, &active_rules);
    if let Some(path) = &args.json {
        std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
        println!("analyze: report written to {path}");
    }
    if let Some(path) = &args.baseline {
        diff_baseline(path, &rendered)?;
        println!("analyze: report matches baseline {path}");
    }
    if report.diagnostics.is_empty() {
        println!(
            "analyze: {} library sources clean under {} rule(s) {:?}",
            report.files,
            active_rules.len(),
            active_rules
        );
        Ok(())
    } else {
        let lines: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
        Err(format!(
            "{} diagnostic(s):\n  {}",
            lines.len(),
            lines.join("\n  ")
        ))
    }
}

/// Compares the freshly rendered report against the committed baseline,
/// ignoring the `git_rev` stamp (provenance, not content). On drift the
/// error spells out exactly what a reviewer needs: the per-rule
/// allow-census delta, the diagnostic/file-count movement, and the
/// one-line regen command.
fn diff_baseline(path: &str, rendered: &str) -> Result<(), String> {
    let baseline =
        std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
    let strip = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.trim_start().starts_with("\"git_rev\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    if strip(&baseline) == strip(rendered) {
        return Ok(());
    }
    let old_allows = allow_census(&baseline);
    let new_allows = allow_census(rendered);
    let mut deltas = Vec::new();
    let mut rules: Vec<&String> = old_allows.keys().chain(new_allows.keys()).collect();
    rules.sort();
    rules.dedup();
    for rule in rules {
        let old = old_allows.get(rule).copied().unwrap_or(0);
        let new = new_allows.get(rule).copied().unwrap_or(0);
        if old != new {
            deltas.push(format!("    {rule}: {old} -> {new}"));
        }
    }
    if deltas.is_empty() {
        deltas.push("    (allow census unchanged)".to_string());
    }
    let count = |text: &str, needle: &str| text.matches(needle).count();
    Err(format!(
        "analyze report drifted from {path}:\n  \
         per-rule allow-census delta (baseline -> current):\n{}\n  \
         diagnostics: {} -> {}; files scanned: {} -> {}\n  \
         every new diagnostic must be fixed or carry a justified \
         `// analyze:allow(rule): why`, then regenerate the baseline in this PR:\n    \
         cargo xtask analyze --json {path}",
        deltas.join("\n"),
        count(&baseline, "{\"rule\":"),
        count(rendered, "{\"rule\":"),
        field_usize(&baseline, "files").unwrap_or(0),
        field_usize(rendered, "files").unwrap_or(0),
    ))
}

/// The per-rule counts out of a report's `"allows"` object — parsed by
/// line shape (`    "rule-name": N,`), which the deterministic renderer
/// guarantees.
fn allow_census(text: &str) -> std::collections::BTreeMap<String, usize> {
    let mut out = std::collections::BTreeMap::new();
    let mut in_allows = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("\"allows\"") {
            in_allows = true;
            continue;
        }
        if in_allows {
            if trimmed.starts_with('}') {
                break;
            }
            if let Some((name, count)) = trimmed.trim_end_matches(',').split_once("\": ") {
                if let Ok(n) = count.trim().parse::<usize>() {
                    out.insert(name.trim_start_matches('"').to_string(), n);
                }
            }
        }
    }
    out
}

/// The integer value of a top-level `"name": N,` line.
fn field_usize(text: &str, name: &str) -> Option<usize> {
    let key = format!("\"{name}\": ");
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix(&key) {
            return rest.trim_end_matches(',').trim().parse().ok();
        }
    }
    None
}

/// Renders the analyze report as deterministic JSON: rules in catalog
/// order, allow counts keyed by rule name (sorted), diagnostics in the
/// engine's path/line/col order. The `git_rev` stamp (same convention
/// as the BENCH_*.json files: short rev, `-dirty` on modified tracked
/// sources) makes the baseline's provenance attributable; the baseline
/// comparison ignores it. No dependencies, no HashMap iteration.
fn report_json(report: &tir_analyze::Report, active_rules: &[&str]) -> String {
    let mut s = String::from("{\n  \"tool\": \"cargo xtask analyze\",\n");
    s.push_str(&format!("  \"git_rev\": {},\n", json_str(&git_rev())));
    s.push_str(&format!("  \"files\": {},\n", report.files));
    let rules: Vec<String> = active_rules.iter().map(|r| json_str(r)).collect();
    s.push_str(&format!("  \"rules\": [{}],\n", rules.join(", ")));
    s.push_str("  \"allows\": {\n");
    let allows: Vec<String> = report
        .allows
        .iter()
        .map(|(rule, n)| format!("    {}: {n}", json_str(rule)))
        .collect();
    s.push_str(&allows.join(",\n"));
    s.push_str("\n  },\n  \"diagnostics\": [");
    let diags: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| {
            format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
                json_str(d.rule),
                json_str(&d.path),
                d.line,
                d.col,
                json_str(&d.message)
            )
        })
        .collect();
    s.push_str(&diags.join(","));
    if !diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Short git revision of the checkout that produced this report, with a
/// `-dirty` suffix when tracked sources are modified — the same
/// convention `tir bench`/`tir loadgen` stamp into BENCH_*.json, so
/// ANALYZE_baseline.json is equally attributable. `"unknown"` outside a
/// git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .args(args)
            .current_dir(repo_root())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain", "-uno"]) {
        Some(st) if st.is_empty() => rev,
        _ => format!("{rev}-dirty"),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// Runs a cargo subtool, treating any failure as a lint failure.
fn cargo_tool(args: &[&str], what: &str) -> Result<(), String> {
    let status = Command::new(env!("CARGO"))
        .args(args)
        .current_dir(repo_root())
        .status()
        .map_err(|e| format!("could not spawn cargo: {e}"))?;
    if status.success() {
        println!("{what}: clean");
        Ok(())
    } else {
        Err(format!("{what} failed (cargo {})", args.join(" ")))
    }
}

fn fmt() -> Result<(), String> {
    cargo_tool(&["fmt", "--all", "--", "--check"], "fmt")
}

fn clippy() -> Result<(), String> {
    cargo_tool(
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
        "clippy",
    )
}

/// Builds every served method and the HINT substrates over a generated
/// corpus and the paper's running example, then runs the deep structural
/// validators of `tir-check`.
fn fsck() -> Result<(), String> {
    let mut violations = Vec::new();
    let mut checked = 0usize;
    let mut check = |name: &str, v: Vec<tir_check::Violation>| {
        checked += 1;
        for viol in v {
            violations.push(format!("{name}: {viol}"));
        }
    };

    let synthetic = tir_datagen::generate(&tir_datagen::SyntheticConfig::default().scaled(0.002));
    for (tag, coll) in [
        ("example", Collection::running_example()),
        ("synthetic", synthetic),
    ] {
        for method in Method::ALL {
            check(tag, tir_check::validate_method(method, &coll));
        }

        let records: Vec<IntervalRecord> = coll
            .objects()
            .iter()
            .map(|o| IntervalRecord::new(o.id, o.interval.st, o.interval.end))
            .collect();
        check(tag, Hint::build(&records, HintConfig::default()).validate());
        check(tag, Grid1D::build(&records, 64).validate());
        check(tag, IntervalTree::build(&records).validate());
    }

    if violations.is_empty() {
        println!("fsck: {checked} index builds validate clean");
        Ok(())
    } else {
        Err(format!(
            "structural violations:\n  {}",
            violations.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_pass_on_this_repo() {
        attrs().expect("library crates must carry the required attributes");
    }

    #[test]
    fn analyze_passes_on_this_repo() {
        // The workspace gate: every rule silent (with its audited
        // annotations) across all library crates.
        analyze(&AnalyzeArgs::default()).expect("tir-analyze must report a clean workspace");
    }

    #[test]
    fn analyze_single_rule_filter_passes_and_rejects_unknown() {
        let single = AnalyzeArgs::parse(&["--rule".into(), "error-swallow".into()])
            .expect("shipped rule accepted");
        analyze(&single).expect("single-rule run must be clean too");
        let err = AnalyzeArgs::parse(&["--rule".into(), "no-such-rule".into()])
            .expect_err("unknown rule rejected");
        assert!(err.contains("error-swallow"), "lists shipped rules: {err}");
        AnalyzeArgs::parse(&[
            "--rule".into(),
            "error-swallow".into(),
            "--baseline".into(),
            "x.json".into(),
        ])
        .expect_err("--rule + --baseline rejected");
    }

    #[test]
    fn baseline_drift_message_is_actionable() {
        let old = "{\n  \"git_rev\": \"aaa\",\n  \"files\": 3,\n  \"allows\": {\n    \
                   \"error-swallow\": 1,\n    \"raw-lock\": 2\n  },\n  \"diagnostics\": []\n}\n";
        let same_but_rev = old.replace("aaa", "bbb-dirty");
        let tmp = std::env::temp_dir().join("xtask-baseline-test.json");
        std::fs::write(&tmp, old).expect("write temp baseline");
        let path = tmp.display().to_string();
        diff_baseline(&path, &same_but_rev).expect("git_rev alone is not drift");
        let drifted = "{\n  \"git_rev\": \"ccc\",\n  \"files\": 4,\n  \"allows\": {\n    \
                       \"error-swallow\": 5\n  },\n  \"diagnostics\": [\n    \
                       {\"rule\": \"error-swallow\"}\n  ]\n}\n";
        let err = diff_baseline(&path, drifted).expect_err("content drift fails");
        assert!(err.contains("error-swallow: 1 -> 5"), "{err}");
        assert!(err.contains("raw-lock: 2 -> 0"), "{err}");
        assert!(err.contains("diagnostics: 0 -> 1"), "{err}");
        assert!(err.contains("files scanned: 3 -> 4"), "{err}");
        assert!(
            err.contains(&format!("cargo xtask analyze --json {path}")),
            "{err}"
        );
        let _ = std::fs::remove_file(&tmp);
    }

    #[test]
    fn analyze_sees_all_library_crates() {
        let root = repo_root();
        for krate in LIB_CRATES {
            assert!(
                root.join("crates").join(krate).join("src/lib.rs").exists(),
                "LIB_CRATES entry {krate} has no src/lib.rs"
            );
        }
    }

    #[test]
    fn fsck_passes_on_generated_data() {
        fsck().expect("generated indexes must validate clean");
    }
}
