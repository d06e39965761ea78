//! The wire side: one closed-loop protocol connection, the `tir serve`
//! process the benchmark starts, and a [`TemporalIrIndex`] view of a
//! served index for the oracle checks.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tir_core::{Object, ObjectId, TemporalIrIndex, TimeTravelQuery};
use tir_serve::protocol::{parse_response, Response};

use crate::spec::Inputs;

/// Why an operation did not complete as asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// `OVERLOADED`
    Overloaded,
    /// `TIMEOUT`
    Timeout,
    /// `ERR ...` or an unparsable reply.
    Err,
    /// `DEGRADED`
    Degraded,
    /// `MISSING`
    Missing,
    /// The connection failed.
    Transport,
    /// A reply that is not the right answer.
    Wrong,
}

impl Failure {
    /// Classifies a reply that is not the expected kind.
    pub fn of(resp: &Response) -> Failure {
        match resp {
            Response::Overloaded => Failure::Overloaded,
            Response::Timeout => Failure::Timeout,
            Response::Degraded => Failure::Degraded,
            Response::Missing => Failure::Missing,
            _ => Failure::Err,
        }
    }
}

/// One protocol connection: a request line out, one reply line back.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    /// Drop the largest id of every non-empty `HITS` reply: a planted
    /// wrong answer that the correctness gate must catch.
    pub plant: bool,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            plant: false,
        })
    }

    /// Sends one request line and returns the raw reply line.
    pub fn roundtrip(&mut self, req: &str) -> std::io::Result<&str> {
        self.writer.write_all(req.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// Parses the last reply.
    pub fn reply(&self) -> Result<Response, Failure> {
        let resp = parse_response(self.line.trim_end()).map_err(|_| Failure::Err)?;
        match resp {
            Response::Hits(mut ids) => {
                if self.plant && !ids.is_empty() {
                    ids.pop();
                }
                Ok(Response::Hits(ids))
            }
            other => Ok(other),
        }
    }

    /// Sends a query line and returns its answer.
    pub fn query(&mut self, line: &str) -> Result<Vec<ObjectId>, Failure> {
        self.roundtrip(line).map_err(|_| Failure::Transport)?;
        match self.reply()? {
            Response::Hits(ids) => Ok(ids),
            other => Err(Failure::of(&other)),
        }
    }

    /// Sends a request that must answer `want` (`OK`, `EPOCH`, ...).
    pub fn expect(&mut self, line: &str, want: fn(&Response) -> bool) -> Result<Response, Failure> {
        self.roundtrip(line).map_err(|_| Failure::Transport)?;
        let resp = self.reply()?;
        if want(&resp) {
            Ok(resp)
        } else {
            Err(Failure::of(&resp))
        }
    }

    /// `STATS` as key/value pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, String)>, String> {
        match self.expect("STATS", |r| matches!(r, Response::Stats(_))) {
            Ok(Response::Stats(pairs)) => Ok(pairs),
            other => Err(format!("STATS failed: {other:?}")),
        }
    }
}

/// Reads one numeric `STATS` value.
pub fn stat(pairs: &[(String, String)], key: &str) -> Result<f64, String> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| format!("STATS has no numeric '{key}'"))
}

/// A served index seen through the protocol, so `tir_check`'s oracle
/// diff can run against the server. Writes are not supported.
pub struct Served<'a> {
    conn: RefCell<Conn>,
    inputs: &'a Inputs,
    failed: std::cell::Cell<bool>,
}

impl<'a> Served<'a> {
    /// Wraps a connection.
    pub fn new(conn: Conn, inputs: &'a Inputs) -> Served<'a> {
        Served {
            conn: RefCell::new(conn),
            inputs,
            failed: std::cell::Cell::new(false),
        }
    }

    /// True once any query failed on the wire.
    pub fn failed(&self) -> bool {
        self.failed.get()
    }
}

impl TemporalIrIndex for Served<'_> {
    fn name(&self) -> &'static str {
        "served"
    }

    fn query(&self, q: &TimeTravelQuery) -> Vec<ObjectId> {
        let line = format!(
            "QUERY {} {} {}",
            q.interval.st,
            q.interval.end,
            self.inputs.terms(&q.elems)
        );
        match self.conn.borrow_mut().query(&line) {
            Ok(ids) => ids,
            Err(_) => {
                self.failed.set(true);
                Vec::new()
            }
        }
    }

    fn insert(&mut self, _o: &Object) {
        self.failed.set(true);
    }

    fn delete(&mut self, _o: &Object) -> bool {
        self.failed.set(true);
        false
    }

    fn size_bytes(&self) -> usize {
        0
    }
}

/// A running `tir serve` process. Dropping it kills the process and
/// waits for it.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    log: PathBuf,
}

/// How long a server may take to start serving.
const START_LIMIT: Duration = Duration::from_secs(120);

impl Server {
    /// Starts `tir serve <args>` and waits until it answers `HEALTH ok`.
    /// Returns the server and the time from spawn to serving.
    pub fn start(
        tir: &Path,
        args: &[String],
        workdir: &Path,
        tag: &str,
    ) -> Result<(Server, f64), String> {
        let port_file = workdir.join(format!("{tag}.port"));
        let log = workdir.join(format!("{tag}.log"));
        let _ = std::fs::remove_file(&port_file);
        let log_file =
            std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let child = Command::new(tir)
            .arg("serve")
            .args(args)
            .args(["--port", "0", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", tir.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
            log,
        };
        loop {
            if t0.elapsed() > START_LIMIT {
                return Err(format!("server did not start within {START_LIMIT:?}"));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "server exited during start ({status}): {}",
                    server.log_tail()
                ));
            }
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    server.addr = text.trim().to_string();
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut conn =
            Conn::connect(&server.addr).map_err(|e| format!("connect {}: {e}", server.addr))?;
        match conn.expect("HEALTH", |r| {
            matches!(r, Response::Health(tir_serve::HealthStatus::Ok))
        }) {
            Ok(_) => Ok((server, t0.elapsed().as_secs_f64())),
            Err(f) => Err(format!("server not healthy after start: {f:?}")),
        }
    }

    /// `kill -9` and wait for the process to end.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The last lines of the server's stderr.
    pub fn log_tail(&self) -> String {
        let mut text = String::new();
        if let Ok(mut f) = std::fs::File::open(&self.log) {
            let _ = f.read_to_string(&mut text);
        }
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
