//! Benchmark-side tracing: spans recorded from the benchmark's own files
//! around each call into a layer's public functions.
//!
//! Spans live in memory until the run ends; then the Chrome trace-event file
//! and the self-time table are written from them. The production crates'
//! existing spans (service query traces, `RingCollector` events around
//! direct joins) are attached under the benchmark's operation spans on the
//! shared [`BenchClock`], so one timeline shows both.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use usj_obs::{Clock, QueryTrace, TraceSpan};

/// The one time base of a run: benchmark spans read it in nanoseconds, the
/// production tracing reads it in microseconds through [`Clock`].
#[derive(Debug)]
pub struct BenchClock {
    origin: Instant,
}

impl BenchClock {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Clock for BenchClock {
    fn now_us(&self) -> u64 {
        self.now_ns() / 1_000
    }
}

/// Handle of an open span; `SpanId::NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one operation (a join, a request, an append call) share it;
    /// 0 for spans above the operation level (workload, phase, round).
    pub op_id: u64,
    /// Timeline row: 0 is the benchmark driver, others are service queries.
    pub tid: u32,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of every span sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Chrome trace files are capped at this many spans (the earliest ones).
const CHROME_SPAN_CAP: usize = 60_000;

/// Production-side traces attached per run; later ones are only counted by
/// the caller. Keeps a traced serve pass from holding a span per request.
const ATTACH_CAP: usize = 4_000;

pub struct Tracer {
    on: bool,
    clock: Arc<BenchClock>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u64,
    current_op: u64,
    attached: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            clock: Arc::new(BenchClock {
                origin: Instant::now(),
            }),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            current_op: 0,
            attached: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The run's clock, for `Service::set_clock` / `usj_obs::install`.
    pub fn clock(&self) -> Arc<BenchClock> {
        Arc::clone(&self.clock)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op_id: self.current_op,
            tid: 0,
            name: Cow::Borrowed(name),
            start_ns: self.clock.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Opens an *operation* span: it and everything under it share a fresh
    /// operation id.
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        if self.on {
            self.next_op += 1;
            self.current_op = self.next_op;
        }
        self.begin(name)
    }

    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let now = self.clock.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost-first");
        self.spans[id.0 as usize].end_ns = now;
        // Closing an operation span returns to the enclosing (non-)operation.
        let parent = self.spans[id.0 as usize].parent;
        self.current_op = parent.map_or(0, |p| self.spans[p as usize].op_id);
    }

    /// Attaches a production-side trace (microsecond timestamps on this
    /// run's clock) under `parent`, on timeline row `tid` — the first
    /// [`ATTACH_CAP`] of a run.
    pub fn attach(&mut self, parent: SpanId, tid: u32, trace: &QueryTrace) {
        if parent == SpanId::NONE || self.attached >= ATTACH_CAP {
            return;
        }
        self.attached += 1;
        let op_id = self.spans[parent.0 as usize].op_id;
        for root in &trace.roots {
            self.attach_span(Some(parent.0), op_id, tid, root);
        }
    }

    fn attach_span(&mut self, parent: Option<u32>, op_id: u64, tid: u32, span: &TraceSpan) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op_id,
            tid,
            name: Cow::Owned(span.name.clone()),
            start_ns: span.start_us * 1_000,
            end_ns: span.end_us * 1_000,
        });
        for child in &span.children {
            self.attach_span(Some(id), op_id, tid, child);
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, largest first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        self_times(&self.spans)
    }

    /// The Chrome trace-event document (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        let _ = writeln!(
            out,
            "  {{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"benchmark driver\"}}}}"
        );
        for s in self.spans.iter().take(CHROME_SPAN_CAP) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  ,{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"name\": \"{}\", \"args\": {{\"id\": {}, \"parent\": {}, \"op_id\": {}}}}}",
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.name,
                s.id,
                parent,
                s.op_id,
            );
        }
        out.push_str("]\n");
        out
    }
}

/// Self time = a span's duration minus the part of that interval its child
/// spans cover (children clipped to the parent, overlaps counted once).
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    let mut by_name: BTreeMap<&str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(lo, hi) in kids.iter() {
            if hi > reach {
                covered += hi - lo.max(reach);
                reach = hi;
            }
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        let entry = by_name.entry(&s.name).or_insert_with(|| SelfTime {
            name: s.name.to_string(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered.min(total);
    }
    let mut rows: Vec<SelfTime> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 0,
            tid: 0,
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            // Two overlapping children cover 10..60 once, not 10..40 + 30..60.
            span(1, Some(0), "child", 10, 40),
            span(2, Some(0), "child", 30, 60),
            // A child that outlives its parent is clipped at 100.
            span(3, Some(0), "late", 90, 150),
            span(4, Some(1), "leaf", 15, 20),
        ];
        let rows = self_times(&spans);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("root").self_ns, 100 - 50 - 10);
        assert_eq!(get("child").count, 2);
        assert_eq!(get("child").total_ns, 60);
        assert_eq!(get("child").self_ns, 60 - 5);
        assert_eq!(get("late").self_ns, 60);
        assert_eq!(get("leaf").self_ns, 5);
    }

    #[test]
    fn tracer_nests_operations_and_is_inert_when_off() {
        let mut off = Tracer::new(false);
        let s = off.begin_op("op");
        off.end(s);
        assert_eq!(off.span_count(), 0);

        let mut tr = Tracer::new(true);
        let round = tr.begin("round");
        let op = tr.begin_op("join");
        let probe = tr.begin("layer");
        tr.end(probe);
        tr.end(op);
        let op2 = tr.begin_op("join");
        tr.end(op2);
        tr.end(round);
        let ops: Vec<u64> = tr.spans.iter().map(|s| s.op_id).collect();
        assert_eq!(ops, [0, 1, 1, 2]);
        assert_eq!(tr.spans[2].parent, Some(1));
        assert!(tr.chrome_json().contains("\"op_id\": 2"));
        crate::json::parse(&tr.chrome_json()).expect("chrome trace is valid JSON");
    }
}
