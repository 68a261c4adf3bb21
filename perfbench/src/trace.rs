//! In-memory spans recorded around the benchmark's own calls into each
//! crate, written out as JSON lines when the run ends.
//!
//! A span has a name (`layer.operation`), a start and an end relative to
//! the tracer's creation, the span that was open on the same thread when it
//! began (its parent), and a request id shared by every span of one
//! top-level operation. A layer's self time is a span's duration minus the
//! part of that interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::Args;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread: `(span id, request id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span. `request` 0 inherits the enclosing span's
    /// request id.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            let request = if request == 0 {
                parent.map_or(0, |(_, r)| r)
            } else {
                request
            };
            open.push((id, request));
            (parent.map(|(p, _)| p), request)
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A copy of every span closed so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Total duration per span name, in seconds.
    pub fn total_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans() {
            *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
        }
        out
    }

    /// Number of spans per name.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans() {
            *out.entry(s.name).or_insert(0) += 1;
        }
        out
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// union of its children's intervals (clipped to the span).
    pub fn self_s(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
            *out.entry(s.name).or_insert(0.0) +=
                s.duration_ns().saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Write the trace to `.bench_out/trace-<workload>-<seed>.jsonl` and
    /// print each span name's self time.
    pub fn save(&self, args: &Args, header: &str) -> Result<(), String> {
        let path =
            Path::new(crate::OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        self.write_jsonl(&path, header)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace {}", path.display());
        for (name, self_s) in self.self_s() {
            println!("self {name} = {self_s} s");
        }
        Ok(())
    }

    /// Write the header line, every span as one JSON object per line, and
    /// one `layer_self` line per span name.
    fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans() {
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        let totals = self.total_s();
        let counts = self.counts();
        for (name, self_s) in self.self_s() {
            writeln!(
                out,
                "{{\"layer_self\":\"{name}\",\"spans\":{},\"total_s\":{},\"self_s\":{self_s}}}",
                counts[name], totals[name]
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(5, 10), (0, 3), (8, 20), (30, 40)];
        assert_eq!(union_len(&mut v, 2, 35), 1 + 15 + 5);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.span("outer", 7, || {
            t.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, 7);
        let self_s = t.self_s();
        assert!(self_s["outer"] < self_s["inner"]);
        assert!(self_s["inner"] >= 0.02);
    }
}
