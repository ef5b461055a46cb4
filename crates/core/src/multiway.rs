//! Multi-way intersection joins.
//!
//! Section 4 of the paper points out that because PQ produces its output in
//! sorted (lower-y) order, a 3-way intersection join can be evaluated by
//! feeding the output of one two-way join directly into a second join with a
//! third indexed or non-indexed input — no intermediate materialisation or
//! re-sorting is needed. This module implements that cascade: the pairs of
//! the first sweep become "composite" rectangles (the intersection of the two
//! partners, which is produced in ascending lower-y order) and stream into a
//! second sweep against the third relation.
//!
//! Output triples stream through a [`TripleSink`], so LIMIT-style early
//! termination works across the whole cascade.

use std::cmp::Ordering;

use usj_geom::Item;
use usj_io::{CpuOp, Result, SimEnv};
use usj_sweep::{Side, StripedSweep, SweepDriver};

use crate::input::JoinInput;
use crate::pq::PqJoin;
use crate::result::MemoryStats;
use crate::sink::TripleSink;

/// An output triple of object identifiers `(a_id, b_id, c_id)`.
pub type Triple = (u32, u32, u32);

/// Result of a 3-way intersection join.
#[derive(Debug, Clone, Default)]
pub struct MultiwayResult {
    /// Number of `(a, b, c)` triples whose three MBRs have a common pairwise
    /// intersection pattern `a∩b ≠ ∅ ∧ (a∩b)∩c ≠ ∅`.
    pub triples: u64,
    /// Number of intermediate `(a, b)` pairs produced by the first sweep.
    pub intermediate_pairs: u64,
    /// Index pages requested across all three inputs.
    pub index_page_requests: u64,
    /// I/O performed by the whole cascade.
    pub io: usj_io::IoStats,
    /// Maximum internal memory used by the queues and sweep structures.
    pub memory: MemoryStats,
}

/// The cascaded 3-way intersection join `(a ⋈ b) ⋈ c` (Section 4).
///
/// A configuration type so the facade can expose the multi-way join next to
/// the two-way operators; today it has no knobs beyond its existence.
///
/// # Example
///
/// ```
/// use usj_core::{JoinInput, MultiwayJoin};
/// use usj_geom::{Item, Rect};
/// use usj_io::{ItemStream, MachineConfig, SimEnv};
///
/// let mut env = SimEnv::new(MachineConfig::machine3());
/// let sq = |x: f32, y: f32, id| Item::new(Rect::from_coords(x, y, x + 2.0, y + 2.0), id);
/// let a = ItemStream::from_items(&mut env, &[sq(0.0, 0.0, 1)]).unwrap();
/// let b = ItemStream::from_items(&mut env, &[sq(1.0, 1.0, 2)]).unwrap();
/// let c = ItemStream::from_items(&mut env, &[sq(1.5, 1.5, 3)]).unwrap();
/// let (res, triples) = MultiwayJoin
///     .run_collect(
///         &mut env,
///         JoinInput::Stream(&a),
///         JoinInput::Stream(&b),
///         JoinInput::Stream(&c),
///     )
///     .unwrap();
/// assert_eq!(res.triples, 1);
/// assert_eq!(triples, vec![(1, 2, 3)]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiwayJoin;

impl MultiwayJoin {
    /// Runs the cascade, reporting every triple of identifiers to `sink`.
    pub fn run_with(
        &self,
        env: &mut SimEnv,
        a: JoinInput<'_>,
        b: JoinInput<'_>,
        c: JoinInput<'_>,
        sink: &mut dyn TripleSink,
    ) -> Result<MultiwayResult> {
        three_way_join(env, a, b, c, sink)
    }

    /// Runs the cascade discarding the output triples.
    pub fn run(
        &self,
        env: &mut SimEnv,
        a: JoinInput<'_>,
        b: JoinInput<'_>,
        c: JoinInput<'_>,
    ) -> Result<MultiwayResult> {
        self.run_with(env, a, b, c, &mut |_, _, _| {})
    }

    /// Runs the cascade collecting the triples in memory (tests, small
    /// workloads).
    pub fn run_collect(
        &self,
        env: &mut SimEnv,
        a: JoinInput<'_>,
        b: JoinInput<'_>,
        c: JoinInput<'_>,
    ) -> Result<(MultiwayResult, Vec<Triple>)> {
        let mut out = Vec::new();
        let res = self.run_with(env, a, b, c, &mut |x, y, z| out.push((x, y, z)))?;
        Ok((res, out))
    }
}

/// Runs the cascaded 3-way intersection join `(a ⋈ b) ⋈ c`, streaming every
/// triple of identifiers to `sink`.
pub fn three_way_join(
    env: &mut SimEnv,
    a: JoinInput<'_>,
    b: JoinInput<'_>,
    c: JoinInput<'_>,
    sink: &mut dyn TripleSink,
) -> Result<MultiwayResult> {
    let measurement = env.begin();
    env.memory.begin_phase();
    let pq = PqJoin::default();

    let (mut a_src, a_bbox) = pq.make_source(env, &a, None)?;
    let (mut b_src, b_bbox) = pq.make_source(env, &b, None)?;
    let (mut c_src, c_bbox) = pq.make_source(env, &c, None)?;
    let region = a_bbox.union(&b_bbox).union(&c_bbox);

    // First sweep joins a and b; its output pairs (intersection rectangles)
    // are produced in ascending lower-y order and feed the second sweep
    // together with the items of c.
    let mut first: SweepDriver<StripedSweep> = SweepDriver::new(region.lo.x, region.hi.x);
    let mut cascade = Cascade {
        sweep: SweepDriver::new(region.lo.x, region.hi.x),
        composites: Vec::new(),
        sink,
        triples: 0,
        done: false,
    };

    // The cascaded sweeps run on the plain in-memory driver (no spilling
    // mode for the 3-way cascade yet), so their structures and the composite
    // table register with the gauge wholesale: a run that outgrows the limit
    // fails with `MemoryLimitExceeded` rather than silently overcommitting,
    // and the reported peak stays a true measurement.
    let mut sweep_claim = env.memory.reserve_empty();

    let mut a_next = a_src.next(env)?;
    let mut b_next = b_src.next(env)?;
    let mut c_next = c_src.next(env)?;

    while !cascade.done {
        // Which of the two first-join inputs supplies the next event, if
        // either has one left?
        let first_side = match (&a_next, &b_next) {
            (Some(x), Some(y)) => {
                env.charge(CpuOp::Compare, 1);
                match x.cmp_by_lower_y(y) {
                    Ordering::Greater => Some(Side::Right),
                    _ => Some(Side::Left),
                }
            }
            (Some(_), None) => Some(Side::Left),
            (None, Some(_)) => Some(Side::Right),
            (None, None) => None,
        };
        match first_side {
            Some(side) => {
                let (next, src) = match side {
                    Side::Left => (&mut a_next, &mut a_src),
                    Side::Right => (&mut b_next, &mut b_src),
                };
                let event = next.take().expect("matched above");
                // Before advancing the first sweep past the event, feed every
                // c item that lies below it into the second sweep so its
                // events stay sorted.
                while let Some(citem) = c_next {
                    env.charge(CpuOp::Compare, 1);
                    if citem.rect.lo.y > event.rect.lo.y {
                        break;
                    }
                    cascade.push(Side::Right, citem);
                    c_next = c_src.next(env)?;
                }
                // Every pair the first sweep reports becomes a composite
                // rectangle pushed into the second sweep at once (its lower
                // y is exactly the event's, so ordering is preserved).
                first.push(side, event, |x, y| cascade.push_composite(x, y));
                *next = src.next(env)?;
            }
            // The first join is done; the rest of c may still match
            // composites already in the structure.
            None => {
                let Some(citem) = c_next else { break };
                cascade.push(Side::Right, citem);
            }
        }
        sweep_claim.try_set(first.bytes() + cascade.bytes())?;
        if first_side.is_none() {
            c_next = c_src.next(env)?;
        }
    }

    env.charge(CpuOp::OutputPair, cascade.triples);
    let composites = cascade.composites.len();
    let first_stats = first.finish();
    let second_stats = cascade.sweep.finish();
    let (io, _) = env.since(&measurement);
    Ok(MultiwayResult {
        triples: cascade.triples,
        intermediate_pairs: composites as u64,
        index_page_requests: a_src.nodes_read() + b_src.nodes_read() + c_src.nodes_read(),
        io,
        memory: MemoryStats {
            priority_queue_bytes: a_src.max_queue_bytes()
                + b_src.max_queue_bytes()
                + c_src.max_queue_bytes(),
            sweep_structure_bytes: first_stats.max_structure_bytes
                + second_stats.max_structure_bytes,
            other_bytes: composites * std::mem::size_of::<(u32, u32)>(),
            peak_bytes: env.memory.peak(),
        },
    })
}

/// The second sweep of the cascade: composites of the first sweep's pairs
/// on the left, the third input on the right. Every pair it reports is a
/// triple, handed to the sink until the sink stops the cascade.
struct Cascade<'s> {
    sweep: SweepDriver<StripedSweep>,
    /// Composite id -> (a_id, b_id).
    composites: Vec<(u32, u32)>,
    sink: &'s mut dyn TripleSink,
    triples: u64,
    done: bool,
}

impl Cascade<'_> {
    /// Pushes `item` on `side` and emits the triples it completes.
    fn push(&mut self, side: Side, item: Item) {
        let Cascade {
            sweep,
            composites,
            sink,
            triples,
            done,
        } = self;
        sweep.push(side, item, |comp, c| {
            if *done {
                return;
            }
            let (a, b) = composites[comp.id as usize];
            if sink.emit(a, b, c.id).is_break() {
                *done = true;
            } else {
                *triples += 1;
            }
        });
    }

    /// Pushes the intersection of the first sweep's pair `(a, b)`.
    fn push_composite(&mut self, a: &Item, b: &Item) {
        let inter = a
            .rect
            .intersection(&b.rect)
            .expect("reported pairs always intersect");
        let id = self.composites.len() as u32;
        self.composites.push((a.id, b.id));
        self.push(Side::Left, Item::new(inter, id));
    }

    /// Bytes of the second sweep's structures and the composite table.
    fn bytes(&self) -> usize {
        self.sweep.bytes() + self.composites.len() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::ControlFlow;
    use usj_geom::Rect;
    use usj_io::{ItemStream, MachineConfig};
    use usj_rtree::RTree;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn brute_triples(a: &[Item], b: &[Item], c: &[Item]) -> u64 {
        let mut n = 0;
        for x in a {
            for y in b {
                let Some(i) = x.rect.intersection(&y.rect) else {
                    continue;
                };
                for z in c {
                    if i.intersects(&z.rect) {
                        n += 1;
                    }
                }
            }
        }
        n
    }

    fn scatter(n: u32, seed: u32, size: f32, id_base: u32) -> Vec<Item> {
        // Simple deterministic pseudo-random scatter.
        let mut state = seed as u64 * 2654435761 + 1;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((state >> 33) % 1000) as f32 / 10.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((state >> 33) % 1000) as f32 / 10.0;
                Item::new(Rect::from_coords(x, y, x + size, y + size), id_base + i)
            })
            .collect()
    }

    #[test]
    fn three_way_matches_brute_force() {
        let mut env = env();
        let a = scatter(120, 1, 4.0, 0);
        let b = scatter(100, 2, 4.0, 10_000);
        let c = scatter(80, 3, 4.0, 20_000);
        let expected = brute_triples(&a, &b, &c);
        assert!(expected > 0, "test workload should produce triples");

        let ta = RTree::bulk_load(&mut env, &a).unwrap();
        let tb = RTree::bulk_load(&mut env, &b).unwrap();
        let sc = ItemStream::from_items(&mut env, &c).unwrap();
        let mut got = 0u64;
        let res = three_way_join(
            &mut env,
            JoinInput::Indexed(&ta),
            JoinInput::Indexed(&tb),
            JoinInput::Stream(&sc),
            &mut |_, _, _| got += 1,
        )
        .unwrap();
        assert_eq!(res.triples, expected);
        assert_eq!(got, expected);
        assert!(res.intermediate_pairs >= res.triples.min(1));
        assert!(res.index_page_requests > 0);
    }

    #[test]
    fn empty_third_input_gives_no_triples() {
        let mut env = env();
        let a = scatter(50, 1, 4.0, 0);
        let b = scatter(50, 2, 4.0, 10_000);
        let empty = ItemStream::from_items(&mut env, &[]).unwrap();
        let sa = ItemStream::from_items(&mut env, &a).unwrap();
        let sb = ItemStream::from_items(&mut env, &b).unwrap();
        let res = MultiwayJoin
            .run(
                &mut env,
                JoinInput::Stream(&sa),
                JoinInput::Stream(&sb),
                JoinInput::Stream(&empty),
            )
            .unwrap();
        assert_eq!(res.triples, 0);
        assert!(res.intermediate_pairs > 0);
    }

    #[test]
    fn all_non_indexed_inputs_work() {
        let mut env = env();
        let a = scatter(60, 5, 5.0, 0);
        let b = scatter(60, 6, 5.0, 10_000);
        let c = scatter(60, 7, 5.0, 20_000);
        let sa = ItemStream::from_items(&mut env, &a).unwrap();
        let sb = ItemStream::from_items(&mut env, &b).unwrap();
        let sc = ItemStream::from_items(&mut env, &c).unwrap();
        let res = MultiwayJoin
            .run(
                &mut env,
                JoinInput::Stream(&sa),
                JoinInput::Stream(&sb),
                JoinInput::Stream(&sc),
            )
            .unwrap();
        assert_eq!(res.triples, brute_triples(&a, &b, &c));
        assert_eq!(res.index_page_requests, 0);
    }

    /// A sink that stops the cascade after `limit` triples.
    struct TripleLimit {
        limit: u64,
        got: u64,
    }

    impl TripleSink for TripleLimit {
        fn emit(&mut self, _: u32, _: u32, _: u32) -> ControlFlow<()> {
            if self.got >= self.limit {
                return ControlFlow::Break(());
            }
            self.got += 1;
            ControlFlow::Continue(())
        }
    }

    #[test]
    fn limited_sink_stops_the_cascade_early() {
        let mut env = env();
        let a = scatter(80, 11, 5.0, 0);
        let b = scatter(80, 12, 5.0, 10_000);
        let c = scatter(80, 13, 5.0, 20_000);
        let total = brute_triples(&a, &b, &c);
        assert!(total > 5);
        let sa = ItemStream::from_items(&mut env, &a).unwrap();
        let sb = ItemStream::from_items(&mut env, &b).unwrap();
        let sc = ItemStream::from_items(&mut env, &c).unwrap();
        let mut sink = TripleLimit { limit: 3, got: 0 };
        let res = MultiwayJoin
            .run_with(
                &mut env,
                JoinInput::Stream(&sa),
                JoinInput::Stream(&sb),
                JoinInput::Stream(&sc),
                &mut sink,
            )
            .unwrap();
        assert_eq!(res.triples, 3);
        assert_eq!(sink.got, 3);
    }
}
