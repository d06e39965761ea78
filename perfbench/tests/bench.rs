//! The benchmark's own tests, at tiny scale: a smoke run of each
//! workload, every named metric printed with its unit, and a planted
//! wrong answer that must make the command fail.
//!
//! The tests build the `tir` binary from the repository once, into this
//! package's target directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// A parsed JSON value, enough to read the result line and
/// `BENCHMARK.json` back.
#[derive(Debug, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document; `None` on malformed input or a repeated
/// object key. String escapes other than `\"` and `\\` are not needed
/// by the documents read here and are rejected.
fn parse_json(text: &str) -> Option<Value> {
    fn ws(s: &[u8], i: &mut usize) {
        while s.get(*i).is_some_and(u8::is_ascii_whitespace) {
            *i += 1;
        }
    }
    fn string(s: &[u8], i: &mut usize) -> Option<String> {
        (s.get(*i) == Some(&b'"')).then_some(())?;
        *i += 1;
        let mut out = Vec::new();
        loop {
            match *s.get(*i)? {
                b'"' => break,
                b'\\' => {
                    let e = *s.get(*i + 1)?;
                    matches!(e, b'"' | b'\\').then_some(())?;
                    out.push(e);
                    *i += 2;
                }
                b => {
                    out.push(b);
                    *i += 1;
                }
            }
        }
        *i += 1;
        String::from_utf8(out).ok()
    }
    fn value(s: &[u8], i: &mut usize) -> Option<Value> {
        ws(s, i);
        let lit = |i: &mut usize, word: &str, v: Value| {
            s[*i..].starts_with(word.as_bytes()).then(|| {
                *i += word.len();
                v
            })
        };
        match *s.get(*i)? {
            b'n' => lit(i, "null", Value::Null),
            b't' => lit(i, "true", Value::Bool(true)),
            b'f' => lit(i, "false", Value::Bool(false)),
            b'"' => string(s, i).map(Value::Str),
            open @ (b'[' | b'{') => {
                let close = if open == b'[' { b']' } else { b'}' };
                *i += 1;
                let (mut items, mut map) = (Vec::new(), BTreeMap::new());
                ws(s, i);
                if s.get(*i) != Some(&close) {
                    loop {
                        if open == b'[' {
                            items.push(value(s, i)?);
                        } else {
                            ws(s, i);
                            let key = string(s, i)?;
                            ws(s, i);
                            (s.get(*i) == Some(&b':')).then_some(())?;
                            *i += 1;
                            let v = value(s, i)?;
                            map.insert(key, v).is_none().then_some(())?;
                        }
                        ws(s, i);
                        match *s.get(*i)? {
                            b',' => *i += 1,
                            c if c == close => break,
                            _ => return None,
                        }
                    }
                }
                *i += 1;
                Some(if open == b'[' {
                    Value::Arr(items)
                } else {
                    Value::Obj(map)
                })
            }
            _ => {
                let start = *i;
                while s
                    .get(*i)
                    .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    *i += 1;
                }
                std::str::from_utf8(&s[start..*i])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Value::Num)
            }
        }
    }
    let (s, mut i) = (text.as_bytes(), 0);
    let v = value(s, &mut i)?;
    ws(s, &mut i);
    (i == s.len()).then_some(v)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn tir() -> &'static Path {
    static TIR: OnceLock<PathBuf> = OnceLock::new();
    TIR.get_or_init(|| {
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tir-build");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "tir-cli",
                "--manifest-path",
            ])
            .arg(repo_root().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("running cargo");
        assert!(status.success(), "building tir-cli failed");
        target.join("release").join("tir")
    })
}

struct Outcome {
    code: i32,
    result: Option<Value>,
}

/// Runs the benchmark at tiny scale in its own scratch directory.
fn bench(tag: &str, workload: &str, trace: &str, extra: &[&str]) -> Outcome {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("run-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", "0.005", "--tir"])
        .arg(tir())
        .args(extra)
        .output()
        .expect("running perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    let result = stdout.lines().last().and_then(parse_json);
    Outcome {
        code: out.status.code().unwrap_or(-1),
        result,
    }
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The run succeeded and printed exactly the metrics of `section`, each
/// with its declared unit and a finite value.
fn assert_complete(o: &Outcome, section: &str) {
    assert_eq!(o.code, 0, "the run must succeed");
    let r = o.result.as_ref().expect("a JSON result line");
    assert_eq!(r.get("correct"), Some(&Value::Bool(true)));
    assert!(
        r.get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(r.get("failed").and_then(Value::as_f64), Some(0.0));
    let Some(Value::Obj(metrics)) = r.get("metrics") else {
        panic!("no metrics object");
    };
    let want = declared(section);
    assert_eq!(metrics.len(), want.len(), "exactly the {section} metrics");
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{name} = {v}");
    }
}

#[test]
fn the_json_reader_reads_what_the_benchmark_writes() {
    let v = parse_json(r#"{"correct":true,"attempted":10,"metrics":{"a.b":{"value":1.5e-3,"unit":"ms"}},"l":[1, "x\"y", null]}"#)
        .expect("parse");
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
    let m = v.get("metrics").and_then(|m| m.get("a.b")).expect("metric");
    assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
    assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.0015));
    assert_eq!(
        v.get("l").and_then(Value::as_array).map(<[Value]>::len),
        Some(3)
    );
    assert_eq!(parse_json("{\"a\": 1, \"a\": 2}"), None);
    assert_eq!(parse_json("[1, 2"), None);
}

#[test]
fn smoke_read() {
    assert_complete(&bench("smoke-read", "read", "0", &[]), "end_to_end");
}

#[test]
fn smoke_write() {
    assert_complete(&bench("smoke-write", "write", "0", &[]), "end_to_end");
}

#[test]
fn smoke_durable() {
    assert_complete(&bench("smoke-durable", "durable", "0", &[]), "end_to_end");
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    assert_complete(&bench("trace-read", "read", "1", &[]), "per_layer");
    assert_complete(&bench("trace-durable", "durable", "1", &[]), "per_layer");
}

#[test]
fn a_planted_wrong_answer_fails_the_command() {
    for workload in ["read", "write", "durable"] {
        let o = bench(
            &format!("plant-{workload}"),
            workload,
            "0",
            &["--plant", "drop-one-id"],
        );
        assert_eq!(o.code, 1, "{workload}: a wrong answer must fail the run");
        let r = o.result.expect("a result line saying what went wrong");
        assert_eq!(r.get("correct"), Some(&Value::Bool(false)), "{workload}");
    }
}
