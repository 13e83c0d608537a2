//! The benchmark's own spans: recorded around every layer call of a
//! traced run, kept in memory, written as JSONL when the run ends.
//! Per-layer metrics of a traced run are derived from these spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. Spans of one request (or one measured call)
/// share `group`; `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub group: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_group: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), next_group: 0 }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh group id for one request or measured call.
    pub fn group(&mut self) -> u64 {
        self.next_group += 1;
        self.next_group
    }

    /// Records a span from timestamps taken elsewhere; returns its id.
    pub fn record(
        &mut self,
        group: u64,
        parent: Option<u32>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span { group, id, parent, name: name.to_string(), start_ns, end_ns });
        id
    }

    /// Runs `f` inside a root span of its own group; returns the result
    /// and the duration in nanoseconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        let group = self.group();
        self.record(group, None, name, start, end);
        (r, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Self time of every span (its duration minus the union of its
    /// children's intervals, clipped to it), grouped by span name.
    pub fn self_times(&self) -> BTreeMap<String, Vec<f64>> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            out.entry(s.name.clone()).or_default().push((s.dur_ns() - covered) as f64);
        }
        out
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"group\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.group, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.record(1, None, "request", 0, 100);
        t.record(1, Some(root), "encode", 10, 30);
        t.record(1, Some(root), "decode", 20, 40); // overlaps encode
        t.record(1, Some(root), "late", 90, 120); // runs past the parent
        let st = t.self_times();
        assert_eq!(st["request"], vec![100.0 - 30.0 - 10.0]);
        assert_eq!(st["encode"], vec![20.0]);
        assert_eq!(t.durations("late"), vec![30.0]);
        let (v, ns) = t.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.durations("work"), vec![ns as f64]);
    }
}
