//! Streaming output sinks for join results.
//!
//! Every join reports its output pairs through the [`PairSink`] trait rather
//! than a bare `FnMut(u32, u32)` callback. The crucial difference is that
//! [`PairSink::emit`] returns a [`ControlFlow`]: a sink can tell the producer
//! to *stop* — which turns LIMIT-style queries from "run the whole join and
//! throw most of it away" into genuine early termination that saves I/O.
//!
//! The provided sinks cover the common consumption patterns:
//!
//! * [`CountSink`] — count pairs without materialising them,
//! * [`CollectSink`] — gather the pairs into memory (tests, small results),
//! * [`LimitSink`] — pass through at most `n` pairs, then stop the join,
//! * [`SampleSink`] — keep every `k`-th pair (cheap result previews).
//!
//! Plain closures still work: any `FnMut(u32, u32)` is a `PairSink` that
//! never stops. Multi-way joins report through the analogous [`TripleSink`].

use std::ops::ControlFlow;

/// A consumer of join output pairs.
///
/// Implementations receive every `(left_id, right_id)` pair the join accepts
/// and steer the producer with the returned [`ControlFlow`]:
/// `ControlFlow::Continue(())` means the pair was consumed and more are
/// welcome; `ControlFlow::Break(())` means the pair was **rejected** and the
/// join must stop producing. Producers count only `Continue` pairs as
/// delivered, so [`crate::JoinResult::pairs`] always equals the number of
/// pairs a collecting sink actually holds — including for `LIMIT 0`.
pub trait PairSink {
    /// Offers one output pair, returning whether it was consumed and whether
    /// the join should continue.
    fn emit(&mut self, left: u32, right: u32) -> ControlFlow<()>;
}

/// Every infallible pair callback is a sink that never stops the join.
impl<F: FnMut(u32, u32)> PairSink for F {
    fn emit(&mut self, left: u32, right: u32) -> ControlFlow<()> {
        self(left, right);
        ControlFlow::Continue(())
    }
}

/// A consumer of 3-way join output triples (see [`crate::multiway`]), with
/// the same contract as [`PairSink`]: `Break` rejects the offered triple and
/// stops the cascade.
pub trait TripleSink {
    /// Offers one output triple, returning whether it was consumed and
    /// whether the join should continue.
    fn emit(&mut self, a: u32, b: u32, c: u32) -> ControlFlow<()>;
}

/// Every infallible triple callback is a sink that never stops the join.
impl<F: FnMut(u32, u32, u32)> TripleSink for F {
    fn emit(&mut self, a: u32, b: u32, c: u32) -> ControlFlow<()> {
        self(a, b, c);
        ControlFlow::Continue(())
    }
}

/// Counts pairs without storing them — the "output writing excluded"
/// measurement mode of the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountSink {
    /// Number of pairs delivered so far.
    pub count: u64,
}

impl PairSink for CountSink {
    fn emit(&mut self, _left: u32, _right: u32) -> ControlFlow<()> {
        self.count += 1;
        ControlFlow::Continue(())
    }
}

/// Collects every pair into a vector, in the order the join produced them.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    /// The delivered pairs.
    pub pairs: Vec<(u32, u32)>,
}

impl PairSink for CollectSink {
    fn emit(&mut self, left: u32, right: u32) -> ControlFlow<()> {
        self.pairs.push((left, right));
        ControlFlow::Continue(())
    }
}

/// Forwards at most `limit` pairs to an inner sink, then stops the join —
/// the `LIMIT n` of a query engine.
#[derive(Debug)]
pub struct LimitSink<S> {
    inner: S,
    limit: u64,
    seen: u64,
}

impl<S: PairSink> LimitSink<S> {
    /// Wraps `inner`, letting at most `limit` pairs through.
    pub fn new(inner: S, limit: u64) -> Self {
        LimitSink {
            inner,
            limit,
            seen: 0,
        }
    }

    /// Number of pairs forwarded so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Consumes the limiter, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PairSink> PairSink for LimitSink<S> {
    fn emit(&mut self, left: u32, right: u32) -> ControlFlow<()> {
        if self.seen >= self.limit {
            return ControlFlow::Break(());
        }
        match self.inner.emit(left, right) {
            ControlFlow::Continue(()) => {
                self.seen += 1;
                ControlFlow::Continue(())
            }
            // The inner sink rejected the pair; it was not delivered.
            ControlFlow::Break(()) => ControlFlow::Break(()),
        }
    }
}

/// Forwards every `k`-th pair to an inner sink — a deterministic systematic
/// sample of the output, useful for previewing huge joins.
#[derive(Debug)]
pub struct SampleSink<S> {
    inner: S,
    every: u64,
    seen: u64,
    kept: u64,
}

impl<S: PairSink> SampleSink<S> {
    /// Wraps `inner`, keeping one pair out of every `every` (`every` is
    /// clamped to at least 1).
    pub fn new(inner: S, every: u64) -> Self {
        SampleSink {
            inner,
            every: every.max(1),
            seen: 0,
            kept: 0,
        }
    }

    /// Total pairs observed (kept or skipped).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Pairs forwarded to the inner sink.
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// Consumes the sampler, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PairSink> PairSink for SampleSink<S> {
    fn emit(&mut self, left: u32, right: u32) -> ControlFlow<()> {
        let keep = self.seen % self.every == 0;
        self.seen += 1;
        if keep {
            self.kept += 1;
            self.inner.emit(left, right)
        } else {
            ControlFlow::Continue(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_sinks_that_never_break() {
        let mut got = Vec::new();
        let mut sink = |a: u32, b: u32| got.push((a, b));
        assert!(PairSink::emit(&mut sink, 1, 2).is_continue());
        assert_eq!(got, vec![(1, 2)]);
    }

    #[test]
    fn count_and_collect_sinks_accumulate() {
        let mut count = CountSink::default();
        let mut collect = CollectSink::default();
        for i in 0..5 {
            assert!(count.emit(i, i + 10).is_continue());
            assert!(collect.emit(i, i + 10).is_continue());
        }
        assert_eq!(count.count, 5);
        assert_eq!(collect.pairs.len(), 5);
        assert_eq!(collect.pairs[3], (3, 13));
    }

    #[test]
    fn limit_sink_breaks_exactly_at_the_limit() {
        let mut sink = LimitSink::new(CollectSink::default(), 3);
        assert!(sink.emit(0, 0).is_continue());
        assert!(sink.emit(1, 1).is_continue());
        assert!(sink.emit(2, 2).is_continue());
        // The fourth pair is rejected and stops the join.
        assert!(sink.emit(3, 3).is_break());
        assert!(sink.emit(4, 4).is_break());
        assert_eq!(sink.seen(), 3);
        assert_eq!(sink.into_inner().pairs, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn zero_limit_stops_before_any_pair() {
        let mut sink = LimitSink::new(CountSink::default(), 0);
        assert!(sink.emit(1, 2).is_break());
        assert_eq!(sink.into_inner().count, 0);
    }

    #[test]
    fn sample_sink_keeps_every_kth_pair() {
        let mut sink = SampleSink::new(CollectSink::default(), 3);
        for i in 0..10 {
            assert!(sink.emit(i, i).is_continue());
        }
        assert_eq!(sink.seen(), 10);
        assert_eq!(sink.kept(), 4);
        assert_eq!(
            sink.into_inner().pairs,
            vec![(0, 0), (3, 3), (6, 6), (9, 9)]
        );
    }
}
