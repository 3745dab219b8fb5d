//! Span tracing from the benchmark's side of each layer boundary.
//!
//! A span is one timed call into a layer's public function: name, start,
//! end, the span that caused it, and the request it served. Each thread
//! records into its own [`Recorder`]; spans stay in memory and are written
//! out once, when the run ends. A recorder built without a tracer times
//! nothing, so traced and untraced phases run the same code.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// Request (or job) the span served; 0 outside requests.
    pub request: u64,
}

impl SpanRec {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    threads: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()), threads: AtomicU64::new(1) }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span flushed so far (recorders flush when dropped).
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

pub struct Recorder<'t> {
    tracer: Option<&'t Tracer>,
    thread: u64,
    next: u64,
    stack: Vec<(u64, u64)>,
    buf: Vec<SpanRec>,
    /// Request id stamped on spans as they close.
    pub request: u64,
}

impl<'t> Recorder<'t> {
    /// A recorder that times into `tracer`, or does nothing for `None`.
    pub fn new(tracer: Option<&'t Tracer>) -> Self {
        let thread = tracer.map_or(0, |t| t.threads.fetch_add(1, Ordering::Relaxed));
        Self { tracer, thread, next: 1, stack: Vec::new(), buf: Vec::new(), request: 0 }
    }

    /// Run `f` inside a span named `name`; spans opened by `f` nest under it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let Some(tracer) = self.tracer else { return f(self) };
        let id = (self.thread << 32) | self.next;
        self.next += 1;
        self.stack.push((id, tracer.now()));
        let out = f(self);
        let end = tracer.now();
        let (id, start) = self.stack.pop().expect("span stack underflow");
        let parent = self.stack.last().map_or(0, |&(p, _)| p);
        self.buf.push(SpanRec { name, start, end, id, parent, request: self.request });
        out
    }

    /// A leaf span around one call.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let mut sink = t.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            sink.append(&mut self.buf);
        }
    }
}

/// Calls and time of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the time the span's direct children cover.
    pub self_ns: u64,
}

impl LayerStat {
    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / self.calls.max(1) as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64 / 1e3
    }
}

pub fn layer_stats(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerStat> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.dur();
    }
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur();
        e.self_ns += s.dur().saturating_sub(children.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Share of the callers' wall-clock that layer spans account for: the
/// summed duration of every span directly under a root span, over
/// `callers × wall_ns`.
pub fn coverage(spans: &[SpanRec], callers: usize, wall_ns: f64) -> f64 {
    let roots: HashSet<u64> = spans.iter().filter(|s| s.parent == 0).map(|s| s.id).collect();
    let covered: u64 = spans.iter().filter(|s| roots.contains(&s.parent)).map(SpanRec::dur).sum();
    covered as f64 / (callers as f64 * wall_ns).max(1.0)
}

/// Write spans as JSON lines (times in microseconds since the epoch).
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"id\":{},\"parent\":{},\"request\":{}}}",
            s.name,
            s.start as f64 / 1e3,
            s.end as f64 / 1e3,
            s.id,
            s.parent,
            s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, id: u64, parent: u64) -> SpanRec {
        SpanRec { name, start, end, id, parent, request: 1 }
    }

    #[test]
    fn self_time_excludes_direct_children() {
        let spans = [
            span("root", 0, 100, 1, 0),
            span("a", 10, 40, 2, 1),
            span("b", 50, 90, 3, 1),
            span("leaf", 60, 70, 4, 3),
        ];
        let stats = layer_stats(&spans);
        assert_eq!(stats["root"].self_ns, 30);
        assert_eq!(stats["b"].self_ns, 30);
        assert_eq!(stats["leaf"].self_ns, 10);
        // Spans directly under roots cover 70 of 2 callers × 100.
        assert!((coverage(&spans, 2, 100.0) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_stamps_requests() {
        let tracer = Tracer::new();
        {
            let mut rec = Recorder::new(Some(&tracer));
            rec.request = 7;
            rec.span("outer", |rec| rec.time("inner", || ()));
        }
        let spans = tracer.spans();
        let (inner, outer) = (spans[0], spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!((inner.parent, outer.parent), (outer.id, 0));
        assert_eq!((inner.request, outer.request), (7, 7));
        assert!(Recorder::new(None).span("off", |_| true));
    }
}
