//! End-to-end: boot a real TCP server over a synthetic corpus, drive it
//! with the closed-loop load generator, and require a zero-error run
//! with clean post-swap validation.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use tir_check::Validate;
use tir_core::prelude::*;
use tir_datagen::SyntheticConfig;
use tir_invidx::Dictionary;
use tir_serve::loadgen::{self, LoadgenConfig};
use tir_serve::server::{spawn_server, ServerConfig};

/// Builds the `e<id>` dictionary matching a generated collection, with
/// term ids equal to element ids (interning is sequential from 0).
fn numeric_dictionary(coll: &Collection) -> Dictionary {
    let mut dict = Dictionary::new();
    for e in 0..coll.dict_size() as u32 {
        let id = dict.intern(&format!("e{e}"));
        assert_eq!(id, e);
    }
    dict
}

#[test]
fn loadgen_against_live_server_is_error_free() {
    let mut cfg = SyntheticConfig::default().scaled(0.002);
    cfg.desc_size = 4;
    cfg.seed = 5;
    let coll = tir_datagen::generate(&cfg);
    let dict = numeric_dictionary(&coll);

    let server = spawn_server(
        IrHintPerf::build(&coll),
        coll.objects().to_vec(),
        dict,
        ServerConfig {
            method: Method::IrHintPerf.name().into(),
            ..Default::default()
        },
        Some(Box::new(|i: &IrHintPerf| i.validate().len())),
    )
    .expect("server boots");

    let mut lg = LoadgenConfig::new(server.addr().to_string());
    lg.requests = 2000;
    lg.threads = 4;
    lg.write_fraction = 0.1;
    let report = loadgen::run(&lg).expect("loadgen runs");

    assert_eq!(report.errors, 0, "protocol errors: {report:?}");
    assert_eq!(report.missing, 0, "unexpected MISSING: {report:?}");
    assert_eq!(report.requests, 2000);
    assert!(report.ok > 0);
    assert_eq!(report.method, Method::IrHintPerf.name());
    assert!(report.size_bytes > 0);
    assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);

    // The JSON artifact carries the percentile fields BENCH_serve.json needs.
    let json = report.to_json().to_string();
    for key in [
        "\"qps\"",
        "\"p50_us\"",
        "\"p95_us\"",
        "\"p99_us\"",
        "\"size_bytes\"",
    ] {
        assert!(json.contains(key), "{json}");
    }

    // Post-run: snapshots validated clean on every swap, and a base
    // object (never deleted — loadgen only deletes its own inserts) is
    // still retrievable through the wire protocol.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut call = |req: &str| -> String {
        stream
            .write_all(format!("{req}\n").as_bytes())
            .expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        line.trim_end().to_string()
    };

    let stats = call("STATS");
    assert!(stats.contains("violations=0"), "{stats}");
    assert!(stats.contains("method=irhint-perf"), "{stats}");

    let probe = coll.get(0);
    let elems: Vec<String> = probe.desc.iter().map(|e| format!("e{e}")).collect();
    let answer = call(&format!(
        "QUERY {} {} {}",
        probe.interval.st,
        probe.interval.end,
        elems.join(",")
    ));
    let ids: Vec<&str> = answer.split_ascii_whitespace().skip(2).collect();
    assert!(
        answer.starts_with("HITS ") && ids.contains(&"0"),
        "object 0 missing from {answer}"
    );

    server.stop();
}
