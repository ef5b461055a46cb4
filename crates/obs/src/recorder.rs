//! Event sinks: the [`Recorder`] trait, the no-op default, and the bounded
//! [`RingCollector`].
//!
//! Spans are buffered per thread (see [`crate::context`]) and handed to the
//! recorder in batches, so the recorder's lock is taken once per batch, not
//! once per event. The ring is bounded: a runaway trace drops its *oldest*
//! events and reports how many, instead of hoarding memory.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Charged-I/O delta attributed to one span, in the simulated cost model's
/// units (see `usj_io::IoStats`; this crate sits below `usj_io`, so it
/// carries the four numbers that matter rather than the full struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanIo {
    /// Pages read while the span was open.
    pub pages_read: u64,
    /// Pages written while the span was open.
    pub pages_written: u64,
    /// Sequential device operations (reads + writes).
    pub seq_ops: u64,
    /// Random device operations (reads + writes).
    pub rand_ops: u64,
}

impl SpanIo {
    /// True when the span charged no I/O at all.
    pub fn is_zero(&self) -> bool {
        *self == SpanIo::default()
    }

    /// Field-wise sum of two deltas.
    pub fn merged(&self, other: &SpanIo) -> SpanIo {
        SpanIo {
            pages_read: self.pages_read + other.pages_read,
            pages_written: self.pages_written + other.pages_written,
            seq_ops: self.seq_ops + other.seq_ops,
            rand_ops: self.rand_ops + other.rand_ops,
        }
    }
}

/// One tracing event. Span identifiers are unique per process (allocated
/// from one atomic counter), so events from many threads can be merged into
/// a single collector without collisions.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened.
    SpanBegin {
        /// Process-unique span identifier.
        id: u64,
        /// The enclosing span on the opening thread, if any.
        parent: Option<u64>,
        /// Static span name (`"sssj.sort"`, `"live.flush"`, …).
        name: &'static str,
        /// Optional dynamic label (dataset name, query kind); allocated
        /// only while tracing is enabled.
        detail: Option<String>,
        /// Clock reading at open, microseconds.
        t_us: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Identifier from the matching [`Event::SpanBegin`].
        id: u64,
        /// Clock reading at close, microseconds.
        t_us: u64,
        /// Charged I/O attributed to the span (zero when untracked).
        io: SpanIo,
    },
    /// A point event (spill batch evicted, residents expired, …).
    Instant {
        /// Static event name.
        name: &'static str,
        /// The enclosing span on the emitting thread, if any.
        parent: Option<u64>,
        /// Clock reading, microseconds.
        t_us: u64,
        /// Free-form magnitude (items spilled, residents expired, …).
        value: u64,
    },
}

impl Event {
    /// The event's timestamp, microseconds.
    pub fn t_us(&self) -> u64 {
        match self {
            Event::SpanBegin { t_us, .. }
            | Event::SpanEnd { t_us, .. }
            | Event::Instant { t_us, .. } => *t_us,
        }
    }
}

/// Destination for drained event batches.
///
/// Implementations take the whole batch under one lock acquisition and must
/// leave the vector empty (the thread-local buffer is reused).
pub trait Recorder: Send + Sync {
    /// Consumes a batch of events, leaving `events` empty.
    fn record_batch(&self, events: &mut Vec<Event>);

    /// False when the recorder discards everything — the span context then
    /// skips event construction entirely, so installing the no-op recorder
    /// costs the same as installing nothing.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The default recorder: discards every event.
///
/// Running under `NoopRecorder` must be byte-identical to running with no
/// recorder installed — the differential suite in
/// `crates/bench/tests/obs_differential.rs` holds every preset × algorithm
/// to that contract.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record_batch(&self, events: &mut Vec<Event>) {
        events.clear();
    }

    fn is_enabled(&self) -> bool {
        false
    }
}

/// A bounded ring of events: batches append at the tail, and when the ring
/// overflows its capacity the *oldest* events fall off the head (the most
/// recent spans are the ones a trace reader wants).
#[derive(Debug)]
pub struct RingCollector {
    capacity: usize,
    inner: Mutex<Ring>,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

impl RingCollector {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingCollector {
            capacity: capacity.max(1),
            inner: Mutex::new(Ring::default()),
        }
    }

    /// Takes every buffered event, returning `(events, dropped)` where
    /// `dropped` counts events lost to the capacity bound since the last
    /// drain.
    pub fn drain(&self) -> (Vec<Event>, u64) {
        let mut ring = self.inner.lock().expect("ring poisoned");
        let events = ring.events.drain(..).collect();
        let dropped = std::mem::take(&mut ring.dropped);
        (events, dropped)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ring poisoned").events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for RingCollector {
    fn record_batch(&self, events: &mut Vec<Event>) {
        let mut ring = self.inner.lock().expect("ring poisoned");
        ring.events.extend(events.drain(..));
        while ring.events.len() > self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(id: u64, t_us: u64) -> Event {
        Event::SpanBegin {
            id,
            parent: None,
            name: "t",
            detail: None,
            t_us,
        }
    }

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops() {
        let ring = RingCollector::new(3);
        let mut batch: Vec<Event> = (0..5).map(|i| begin(i, i * 10)).collect();
        ring.record_batch(&mut batch);
        assert!(batch.is_empty(), "recorder must leave the batch empty");
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 2);
        assert_eq!(
            events.iter().map(Event::t_us).collect::<Vec<_>>(),
            vec![20, 30, 40],
            "oldest events fall off the head"
        );
        let (events, dropped) = ring.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0, "drain resets the drop count");
    }

    #[test]
    fn noop_recorder_discards_and_reports_disabled() {
        let noop = NoopRecorder;
        assert!(!noop.is_enabled());
        let mut batch = vec![begin(1, 0)];
        noop.record_batch(&mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn span_io_merges_field_wise() {
        let a = SpanIo {
            pages_read: 1,
            pages_written: 2,
            seq_ops: 3,
            rand_ops: 4,
        };
        let b = SpanIo {
            pages_read: 10,
            pages_written: 20,
            seq_ops: 30,
            rand_ops: 40,
        };
        assert_eq!(
            a.merged(&b),
            SpanIo {
                pages_read: 11,
                pages_written: 22,
                seq_ops: 33,
                rand_ops: 44
            }
        );
        assert!(SpanIo::default().is_zero());
        assert!(!a.is_zero());
    }
}
