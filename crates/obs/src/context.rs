//! The thread-local span context.
//!
//! Tracing is *installed* per thread: [`install`] binds a recorder and a
//! clock to the current thread and returns an RAII [`ObsGuard`] that
//! restores the previous binding (and flushes buffered events) on drop.
//! Code at any depth then calls [`span`] / [`instant`] without threading a
//! recorder handle through every operator signature.
//!
//! The cost contract: with nothing installed — the production default —
//! [`span`] is one thread-local probe and the returned [`SpanGuard`] is
//! inert, so instrumented code paths stay near-zero-cost and byte-identical
//! to uninstrumented ones. Events are buffered in a thread-local `Vec` and
//! drained to the recorder in batches of [`FLUSH_BATCH`], so a recording
//! run takes the collector lock once per batch, not once per event.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::Clock;
use crate::recorder::{Event, Recorder, SpanIo};

/// Thread-local buffer capacity before a drain to the recorder.
pub const FLUSH_BATCH: usize = 128;

/// Process-wide span identifier allocator (ids stay unique when traces
/// from many threads merge into one collector).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

struct ThreadCtx {
    recorder: Arc<dyn Recorder>,
    clock: Arc<dyn Clock>,
    buf: Vec<Event>,
    /// Open spans on this thread, innermost last.
    stack: Vec<u64>,
}

impl ThreadCtx {
    fn push_event(&mut self, event: Event) {
        self.buf.push(event);
        if self.buf.len() >= FLUSH_BATCH {
            self.recorder.record_batch(&mut self.buf);
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.recorder.record_batch(&mut self.buf);
        }
    }
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Binds `recorder` + `clock` to the current thread until the returned
/// guard drops (which flushes buffered events and restores any previous
/// binding). Installing a recorder whose
/// [`is_enabled`](Recorder::is_enabled) is false (the
/// [`NoopRecorder`](crate::NoopRecorder)) is equivalent to installing
/// nothing.
pub fn install(recorder: Arc<dyn Recorder>, clock: Arc<dyn Clock>) -> ObsGuard {
    // A disabled recorder installs `None`, which uninstalls any outer
    // binding for the guard's lifetime (that is what "no-op" means).
    let new = recorder.is_enabled().then(|| ThreadCtx {
        recorder,
        clock,
        buf: Vec::with_capacity(FLUSH_BATCH),
        stack: Vec::new(),
    });
    let prev = CTX.with(|c| std::mem::replace(&mut *c.borrow_mut(), new));
    ObsGuard { prev }
}

/// True when the current thread has an enabled recorder installed.
pub fn enabled() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Restores the previous thread binding on drop, flushing first.
///
/// Returned by [`install`]; hold it for the scope that should be traced.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct ObsGuard {
    prev: Option<ThreadCtx>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let restored = self.prev.take();
        CTX.with(|c| {
            let mut slot = c.borrow_mut();
            if let Some(ctx) = slot.as_mut() {
                ctx.flush();
            }
            *slot = restored;
        });
    }
}

/// Opens a span named `name` on the current thread.
///
/// With no recorder installed the returned guard is inert. Otherwise the
/// span nests under the innermost open span on this thread and closes when
/// the guard drops (or earlier, field-by-field, via
/// [`SpanGuard::add_io`]).
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None)
}

/// Like [`span`], but attaches a dynamic label built only when tracing is
/// enabled (so the common disabled path never allocates).
pub fn span_detail(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if enabled() {
        open_span_with(name, Some(detail()))
    } else {
        SpanGuard {
            id: None,
            io: SpanIo::default(),
        }
    }
}

fn open_span(name: &'static str, detail: Option<String>) -> SpanGuard {
    if enabled() {
        open_span_with(name, detail)
    } else {
        SpanGuard {
            id: None,
            io: SpanIo::default(),
        }
    }
}

fn open_span_with(name: &'static str, detail: Option<String>) -> SpanGuard {
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(ctx) = slot.as_mut() else {
            return SpanGuard {
                id: None,
                io: SpanIo::default(),
            };
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = ctx.stack.last().copied();
        let t_us = ctx.clock.now_us();
        ctx.stack.push(id);
        ctx.push_event(Event::SpanBegin {
            id,
            parent,
            name,
            detail,
            t_us,
        });
        SpanGuard {
            id: Some(id),
            io: SpanIo::default(),
        }
    })
}

/// Emits a point event (`value` is a free-form magnitude) under the
/// innermost open span. A no-op when nothing is installed.
pub fn instant(name: &'static str, value: u64) {
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(ctx) = slot.as_mut() else { return };
        let parent = ctx.stack.last().copied();
        let t_us = ctx.clock.now_us();
        ctx.push_event(Event::Instant {
            name,
            parent,
            t_us,
            value,
        });
    });
}

/// RAII handle for an open span; closing happens on drop.
#[must_use = "dropping the span guard closes the span"]
pub struct SpanGuard {
    id: Option<u64>,
    io: SpanIo,
}

impl SpanGuard {
    /// True when this span is actually being recorded. Callers use this to
    /// skip measurement work (e.g. an I/O snapshot) on the disabled path.
    pub fn is_recording(&self) -> bool {
        self.id.is_some()
    }

    /// Attributes a charged-I/O delta to this span (accumulated; reported
    /// on the span-end event).
    pub fn add_io(&mut self, io: SpanIo) {
        if self.id.is_some() {
            self.io = self.io.merged(&io);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let io = self.io;
        CTX.with(|c| {
            let mut slot = c.borrow_mut();
            let Some(ctx) = slot.as_mut() else { return };
            // Guards normally drop innermost-first; if an intermediate
            // guard leaked, closing this span implicitly closes anything
            // opened under it.
            if let Some(pos) = ctx.stack.iter().rposition(|&s| s == id) {
                ctx.stack.truncate(pos);
            }
            let t_us = ctx.clock.now_us();
            ctx.push_event(Event::SpanEnd { id, t_us, io });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::recorder::{NoopRecorder, RingCollector};

    #[test]
    fn spans_are_inert_without_an_installed_recorder() {
        assert!(!enabled());
        let mut s = span("orphan");
        assert!(!s.is_recording());
        s.add_io(SpanIo {
            pages_read: 1,
            ..SpanIo::default()
        });
        instant("orphan.instant", 7);
        drop(s);
        assert!(!enabled());
    }

    #[test]
    fn nested_spans_record_parentage_and_io() {
        let ring = Arc::new(RingCollector::new(1024));
        let clock = Arc::new(VirtualClock::new());
        let guard = install(ring.clone(), clock.clone());
        assert!(enabled());

        let outer = span("outer");
        clock.advance(5);
        {
            let mut inner = span_detail("inner", || "d".to_string());
            inner.add_io(SpanIo {
                pages_read: 3,
                ..SpanIo::default()
            });
            instant("mark", 42);
            clock.advance(10);
        }
        clock.advance(1);
        drop(outer);
        drop(guard);
        assert!(!enabled());

        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        let Event::SpanBegin {
            id: outer_id,
            parent: None,
            name: "outer",
            t_us: 0,
            ..
        } = &events[0]
        else {
            panic!("unexpected first event {:?}", events[0]);
        };
        let Event::SpanBegin {
            id: inner_id,
            parent: Some(p),
            detail: Some(d),
            t_us: 5,
            ..
        } = &events[1]
        else {
            panic!("unexpected second event {:?}", events[1]);
        };
        assert_eq!(p, outer_id);
        assert_eq!(d, "d");
        let Event::Instant {
            name: "mark",
            parent: Some(ip),
            value: 42,
            ..
        } = &events[2]
        else {
            panic!("unexpected third event {:?}", events[2]);
        };
        assert_eq!(ip, inner_id);
        let Event::SpanEnd {
            id: e1,
            t_us: 15,
            io,
        } = &events[3]
        else {
            panic!("unexpected fourth event {:?}", events[3]);
        };
        assert_eq!(e1, inner_id);
        assert_eq!(io.pages_read, 3);
        let Event::SpanEnd {
            id: e2, t_us: 16, ..
        } = &events[4]
        else {
            panic!("unexpected fifth event {:?}", events[4]);
        };
        assert_eq!(e2, outer_id);
    }

    #[test]
    fn installing_the_noop_recorder_masks_an_outer_recording_context() {
        let ring = Arc::new(RingCollector::new(64));
        let clock = Arc::new(VirtualClock::new());
        let outer = install(ring.clone(), clock);
        {
            let inner = install(Arc::new(NoopRecorder), Arc::new(VirtualClock::new()));
            assert!(
                !enabled(),
                "no-op recorder behaves exactly like no recorder"
            );
            let s = span("hidden");
            assert!(!s.is_recording());
            drop(s);
            drop(inner);
        }
        assert!(enabled(), "outer binding restored");
        drop(span("visible"));
        drop(outer);
        let (events, _) = ring.drain();
        assert_eq!(events.len(), 2, "only the outer span was recorded");
    }

    #[test]
    fn batches_flush_at_the_threshold() {
        let ring = Arc::new(RingCollector::new(100_000));
        let guard = install(ring.clone(), Arc::new(VirtualClock::new()));
        for _ in 0..FLUSH_BATCH / 2 {
            drop(span("tick"));
        }
        // FLUSH_BATCH events were buffered, so at least one batch reached
        // the ring before the guard dropped.
        assert!(ring.len() >= FLUSH_BATCH);
        drop(guard);
        let (events, _) = ring.drain();
        assert_eq!(events.len(), FLUSH_BATCH);
    }
}
