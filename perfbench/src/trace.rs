//! Spans recorded in the benchmark's own code around calls into the
//! program's layers. Spans stay in memory and are written out when the
//! run ends; a span's self time is its duration minus its children's.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.query`.
    pub name: &'static str,
    /// The operation it belongs to (shared by all spans of one request).
    pub op: u64,
    /// Index of the enclosing span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder (one per thread).
pub struct Tracer {
    epoch: Instant,
    /// The recorded spans.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.dur()
    }

    /// Records a span that was timed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let base = self.epoch;
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.saturating_duration_since(base).as_nanos() as u64,
            end: end.saturating_duration_since(base).as_nanos() as u64,
        });
    }

    /// Appends another recorder's spans (same epoch), keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time of every span, in ns, index-aligned with `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| s.dur().saturating_sub(*c))
            .collect()
    }

    /// Self times of the spans named `name`, with their operation ids.
    pub fn self_by_name(&self, name: &str) -> Vec<(u64, u64)> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(s, t)| (s.op, t))
            .collect()
    }

    /// Writes every span as TSV: op, name, parent, start, end, self (ns).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tname\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start, s.end, t
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("root", 1, None);
        let a = t.begin("a", 1, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(root);
        let selfs = t.self_times();
        assert_eq!(selfs[0] + selfs[1], t.spans[0].dur());
        assert_eq!(t.self_by_name("a"), vec![(1, selfs[1])]);

        let mut other = Tracer::new(Instant::now());
        let r = other.begin("x", 2, None);
        let c = other.begin("y", 2, Some(r));
        other.end(c);
        other.end(r);
        t.absorb(other);
        assert_eq!(t.spans[3].parent, Some(2));
    }
}
