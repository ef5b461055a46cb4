//! Span-tree reconstruction and trace export.
//!
//! Drained [`Event`]s are a flat, time-ordered stream; [`QueryTrace`]
//! rebuilds the hierarchy (every span knows its parent id) into a tree of
//! [`TraceSpan`]s with wall-clock bounds, attributed charged I/O, and
//! point-event [`TraceMark`]s. Two exports:
//!
//! * [`QueryTrace::to_json`] — a nested JSON object for machine readers.
//! * [`ChromeTrace`] — the Chrome trace-event array format (`ph:"X"`
//!   complete events plus `ph:"M"` thread-name metadata), loadable in
//!   `chrome://tracing` or Perfetto; each query renders as its own
//!   timeline row via the caller-chosen `tid`.

use crate::recorder::{Event, SpanIo};

/// One reconstructed span: a named phase with wall bounds, charged I/O,
/// child spans and point events.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span name (static at the emit site).
    pub name: String,
    /// Optional dynamic label (dataset name, query kind).
    pub detail: Option<String>,
    /// Open timestamp, microseconds.
    pub start_us: u64,
    /// Close timestamp, microseconds (>= `start_us`).
    pub end_us: u64,
    /// Charged I/O attributed to this span (not including children unless
    /// the emitter measured it that way).
    pub io: SpanIo,
    /// Nested child spans, in open order.
    pub children: Vec<TraceSpan>,
    /// Point events recorded under this span, in order.
    pub marks: Vec<TraceMark>,
}

impl TraceSpan {
    /// A leaf span with the given bounds (used by layers that synthesise
    /// spans from existing measurements, e.g. admission wait).
    pub fn leaf(name: impl Into<String>, start_us: u64, end_us: u64) -> TraceSpan {
        TraceSpan {
            name: name.into(),
            detail: None,
            start_us,
            end_us: end_us.max(start_us),
            io: SpanIo::default(),
            children: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Span duration, microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    fn write_shape(&self, out: &mut String) {
        out.push_str(&self.name);
        if !self.children.is_empty() {
            out.push('(');
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_shape(out);
            }
            out.push(')');
        }
    }

    fn write_json(&self, out: &mut String, indent: usize) {
        let pad = " ".repeat(indent);
        out.push_str(&format!(
            "{pad}{{\"name\": \"{}\", \"start_us\": {}, \"dur_us\": {}, \
             \"pages_read\": {}, \"pages_written\": {}, \"seq_ops\": {}, \"rand_ops\": {}",
            escape(&self.name),
            self.start_us,
            self.dur_us(),
            self.io.pages_read,
            self.io.pages_written,
            self.io.seq_ops,
            self.io.rand_ops,
        ));
        if let Some(detail) = &self.detail {
            out.push_str(&format!(", \"detail\": \"{}\"", escape(detail)));
        }
        if !self.marks.is_empty() {
            out.push_str(", \"marks\": [");
            for (i, m) in self.marks.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"name\": \"{}\", \"t_us\": {}, \"value\": {}}}",
                    escape(&m.name),
                    m.t_us,
                    m.value
                ));
            }
            out.push(']');
        }
        if self.children.is_empty() {
            out.push('}');
        } else {
            out.push_str(", \"children\": [\n");
            for (i, c) in self.children.iter().enumerate() {
                c.write_json(out, indent + 2);
                if i + 1 < self.children.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&format!("{pad}]}}"));
        }
    }

    /// Depth-first search for the first span named `name` (including self).
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// A point event attributed to a span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMark {
    /// Event name.
    pub name: String,
    /// Timestamp, microseconds.
    pub t_us: u64,
    /// Free-form magnitude.
    pub value: u64,
}

/// The reconstructed span tree of one traced execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// Top-level spans (usually one root per traced query).
    pub roots: Vec<TraceSpan>,
    /// Point events whose parent span was not in the event stream (e.g.
    /// dropped by the bounded ring).
    pub orphan_marks: Vec<TraceMark>,
    /// Events lost to the bounded ring before the drain.
    pub dropped_events: u64,
}

impl QueryTrace {
    /// Rebuilds the span tree from a drained, time-ordered event stream.
    ///
    /// Spans whose end event is missing are closed at the stream's maximum
    /// timestamp; spans whose parent is missing (dropped by the ring)
    /// become roots.
    pub fn from_events(events: &[Event], dropped_events: u64) -> QueryTrace {
        struct Node {
            parent: Option<u64>,
            span: TraceSpan,
        }
        let max_t = events.iter().map(Event::t_us).max().unwrap_or(0);
        let mut order: Vec<u64> = Vec::new();
        let mut nodes: std::collections::HashMap<u64, Node> = std::collections::HashMap::new();
        let mut orphan_marks = Vec::new();

        for ev in events {
            match ev {
                Event::SpanBegin {
                    id,
                    parent,
                    name,
                    detail,
                    t_us,
                } => {
                    order.push(*id);
                    nodes.insert(
                        *id,
                        Node {
                            parent: *parent,
                            span: TraceSpan {
                                name: (*name).to_string(),
                                detail: detail.clone(),
                                start_us: *t_us,
                                end_us: max_t,
                                io: SpanIo::default(),
                                children: Vec::new(),
                                marks: Vec::new(),
                            },
                        },
                    );
                }
                Event::SpanEnd { id, t_us, io } => {
                    if let Some(node) = nodes.get_mut(id) {
                        node.span.end_us = (*t_us).max(node.span.start_us);
                        node.span.io = *io;
                    }
                }
                Event::Instant {
                    name,
                    parent,
                    t_us,
                    value,
                } => {
                    let mark = TraceMark {
                        name: (*name).to_string(),
                        t_us: *t_us,
                        value: *value,
                    };
                    match parent.and_then(|p| nodes.get_mut(&p)) {
                        Some(node) => node.span.marks.push(mark),
                        None => orphan_marks.push(mark),
                    }
                }
            }
        }

        // Attach children to parents bottom-up: a parent always begins
        // before its children, so reverse begin-order visits children
        // first. `insert(0, ..)` restores begin order under the reversal.
        let mut roots: Vec<TraceSpan> = Vec::new();
        for id in order.iter().rev() {
            let node = nodes.remove(id).expect("span inserted at begin");
            match node.parent.and_then(|p| nodes.get_mut(&p)) {
                Some(parent) => parent.span.children.insert(0, node.span),
                None => roots.insert(0, node.span),
            }
        }
        QueryTrace {
            roots,
            orphan_marks,
            dropped_events,
        }
    }

    /// Total spans in the tree.
    pub fn span_count(&self) -> usize {
        fn count(s: &TraceSpan) -> usize {
            1 + s.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        self.roots.iter().find_map(|r| r.find(name))
    }

    /// Values of every mark named `name` under any span, depth first
    /// (orphan marks are not included).
    pub fn mark_values(&self, name: &str) -> Vec<u64> {
        fn walk(span: &TraceSpan, name: &str, out: &mut Vec<u64>) {
            out.extend(
                span.marks
                    .iter()
                    .filter(|m| m.name == name)
                    .map(|m| m.value),
            );
            span.children.iter().for_each(|c| walk(c, name, out));
        }
        let mut out = Vec::new();
        self.roots.iter().for_each(|r| walk(r, name, &mut out));
        out
    }

    /// A timestamp-free structural signature — span names in tree order,
    /// e.g. `query(admission.wait,execute(sssj.sort,sssj.sweep))` — used
    /// by the deterministic trace-shape assertions in the concurrency
    /// harness.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            r.write_shape(&mut out);
        }
        out
    }

    /// Nested JSON rendering of the tree.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"dropped_events\": ");
        out.push_str(&self.dropped_events.to_string());
        out.push_str(",\n  \"spans\": [\n");
        for (i, r) in self.roots.iter().enumerate() {
            r.write_json(&mut out, 4);
            if i + 1 < self.roots.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builder for a Chrome trace-event (`chrome://tracing` / Perfetto) JSON
/// document merging any number of [`QueryTrace`]s onto separate `tid`
/// rows of one `pid 1` process.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names a `tid` row (rendered as the row label by the viewers).
    pub fn add_thread(&mut self, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(name)
        ));
    }

    /// Adds every span of `trace` (and its marks, as zero-duration
    /// events) on row `tid`.
    pub fn add_trace(&mut self, tid: u64, trace: &QueryTrace) {
        for root in &trace.roots {
            self.add_span(tid, root);
        }
        for mark in &trace.orphan_marks {
            self.add_mark(tid, mark);
        }
    }

    fn add_span(&mut self, tid: u64, span: &TraceSpan) {
        let detail = match &span.detail {
            Some(d) => format!(", \"detail\": \"{}\"", escape(d)),
            None => String::new(),
        };
        self.events.push(format!(
            "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {}, \"dur\": {}, \
             \"name\": \"{}\", \"args\": {{\"pages_read\": {}, \"pages_written\": {}, \
             \"seq_ops\": {}, \"rand_ops\": {}{detail}}}}}",
            span.start_us,
            span.dur_us(),
            escape(&span.name),
            span.io.pages_read,
            span.io.pages_written,
            span.io.seq_ops,
            span.io.rand_ops,
        ));
        for mark in &span.marks {
            self.add_mark(tid, mark);
        }
        for child in &span.children {
            self.add_span(tid, child);
        }
    }

    fn add_mark(&mut self, tid: u64, mark: &TraceMark) {
        self.events.push(format!(
            "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {}, \"dur\": 0, \
             \"name\": \"{}\", \"args\": {{\"value\": {}}}}}",
            mark.t_us,
            escape(&mark.name),
            mark.value,
        ));
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the JSON array document.
    pub fn finish(&self) -> String {
        let mut out = String::from("[\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str("  ");
            out.push_str(ev);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::context::{install, instant, span};
    use crate::recorder::RingCollector;
    use std::sync::Arc;

    fn sample_events() -> (Vec<Event>, u64) {
        let ring = Arc::new(RingCollector::new(1024));
        let clock = Arc::new(VirtualClock::new());
        let guard = install(ring.clone(), clock.clone());
        {
            let _root = span("query");
            clock.advance(10);
            {
                let mut sort = span("sssj.sort");
                sort.add_io(SpanIo {
                    pages_read: 8,
                    seq_ops: 2,
                    ..SpanIo::default()
                });
                clock.advance(20);
            }
            {
                let _sweep = span("sssj.sweep");
                clock.advance(5);
                instant("sweep.spill", 100);
                clock.advance(5);
            }
            clock.advance(2);
        }
        drop(guard);
        ring.drain()
    }

    #[test]
    fn tree_reconstruction_preserves_order_io_and_marks() {
        let (events, dropped) = sample_events();
        let trace = QueryTrace::from_events(&events, dropped);
        assert_eq!(trace.dropped_events, 0);
        assert_eq!(trace.span_count(), 3);
        assert_eq!(trace.shape(), "query(sssj.sort,sssj.sweep)");
        let root = &trace.roots[0];
        assert_eq!((root.start_us, root.end_us), (0, 42));
        let sort = trace.find("sssj.sort").unwrap();
        assert_eq!((sort.start_us, sort.end_us), (10, 30));
        assert_eq!(sort.io.pages_read, 8);
        let sweep = trace.find("sssj.sweep").unwrap();
        assert_eq!(sweep.marks.len(), 1);
        assert_eq!(sweep.marks[0].t_us, 35);
        assert_eq!(sweep.marks[0].value, 100);
        assert_eq!(trace.mark_values("sweep.spill"), [100]);
        assert!(trace.mark_values("missing").is_empty());
        assert!(trace.find("missing").is_none());
    }

    #[test]
    fn unended_spans_close_at_the_stream_maximum() {
        let events = vec![
            Event::SpanBegin {
                id: 1,
                parent: None,
                name: "open",
                detail: None,
                t_us: 5,
            },
            Event::Instant {
                name: "tick",
                parent: Some(1),
                t_us: 9,
                value: 1,
            },
        ];
        let trace = QueryTrace::from_events(&events, 3);
        assert_eq!(trace.dropped_events, 3);
        assert_eq!(trace.roots[0].end_us, 9);
        // A mark whose parent was dropped by the ring becomes an orphan.
        let orphan = vec![Event::Instant {
            name: "lost",
            parent: Some(99),
            t_us: 1,
            value: 0,
        }];
        let t2 = QueryTrace::from_events(&orphan, 0);
        assert_eq!(t2.orphan_marks.len(), 1);
        assert_eq!(t2.span_count(), 0);
    }

    #[test]
    fn json_and_chrome_exports_are_balanced() {
        let (events, dropped) = sample_events();
        let trace = QueryTrace::from_events(&events, dropped);
        let json = trace.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"name\": \"query\""));
        assert!(json.contains("\"marks\""));

        let mut chrome = ChromeTrace::new();
        assert!(chrome.is_empty());
        chrome.add_thread(0, "maintenance");
        chrome.add_trace(7, &trace);
        assert_eq!(chrome.len(), 1 + 3 + 1, "thread meta + 3 spans + 1 mark");
        let doc = chrome.finish();
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(doc.starts_with("[\n"));
        assert!(doc.trim_end().ends_with(']'));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"tid\": 7"));
        assert!(
            doc.contains("\"dur\": 0"),
            "marks export as zero-duration events"
        );
    }

    #[test]
    fn synthesised_leaf_spans_clamp_backwards_bounds() {
        let leaf = TraceSpan::leaf("admission.wait", 100, 90);
        assert_eq!(leaf.dur_us(), 0);
        assert!(escape("a\"b\\c\n").contains("\\u000a"));
    }
}
