//! `perfbench --workload <read|write|durable> --seed N --seconds S
//! --trace <0|1> [--tir PATH] [--scale X] [--plant drop-one-id]`
//!
//! Prints the result as one JSON line, last on stdout. Exit status 0
//! when every answer was right, 1 on a wrong answer, 2 when the run
//! could not be carried out.

use std::path::PathBuf;

use perfbench::run::{run, Config};
use perfbench::spec::Workload;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut get = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        get.insert(key.to_string(), value.clone());
    }
    let need = |k: &str| get.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(need("workload")?)?;
    let seed: u64 = need("seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = need("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let scale = match get.get("scale") {
        Some(s) => Some(s.parse::<f64>().map_err(|_| "bad --scale")?),
        None => None,
    };
    let plant = match get.get("plant").map(String::as_str) {
        None => false,
        Some("drop-one-id") => true,
        Some(other) => return Err(format!("unknown --plant {other}")),
    };
    let tir = match get.get("tir") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("tir"),
    };
    if !tir.is_file() {
        return Err(format!("no tir binary at {}", tir.display()));
    }
    let workdir = PathBuf::from(".bench_work")
        .join(format!("{:?}-{}", workload, std::process::id()).to_lowercase());
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        tir,
        workdir,
        scale,
        plant,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            println!("{}", report.to_json());
            if !report.correct {
                eprintln!("perfbench: wrong answers (see above)");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
