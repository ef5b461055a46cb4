//! Scalable Sweeping-based Spatial Join (SSSJ).
//!
//! SSSJ (Arge et al., VLDB 1998 — Section 3.1 of the paper) sorts both inputs
//! by the lower y-coordinate of each MBR with the external mergesort, then
//! performs a single synchronized scan over the two sorted streams while
//! maintaining one interval structure per input. For the real-life data sets
//! of the evaluation the structures always fit in memory, so the algorithm is
//! exactly "sort + one sweep": two sequential read passes, one
//! non-sequential read pass (merging) and two sequential write passes over
//! the data. The worst-case partitioning step of the original algorithm is
//! never triggered by these workloads and is therefore not modelled; the
//! structure-size check that would trigger it is still performed and
//! reported.

use std::ops::ControlFlow;

use usj_geom::{Item, Rect};
use usj_io::{CpuOp, Result, SimEnv};
use usj_sweep::merge_sweep;

use crate::input::JoinInput;
use crate::predicate::Predicate;
use crate::result::{JoinResult, MemoryStats};
use crate::sink::PairSink;
use crate::JoinOperator;

/// Configuration of the SSSJ join.
///
/// # Example
///
/// SSSJ works on flat (non-indexed) inputs: it externally sorts both by
/// lower y-coordinate and runs one plane sweep.
///
/// ```
/// use usj_core::{JoinInput, JoinOperator, SssjJoin};
/// use usj_geom::{Item, Rect};
/// use usj_io::{ItemStream, MachineConfig, SimEnv};
///
/// let mut env = SimEnv::new(MachineConfig::machine3());
/// let rows: Vec<Item> = (0..20)
///     .map(|i| Item::new(Rect::from_coords(0.0, i as f32, 20.0, i as f32 + 0.5), i))
///     .collect();
/// let cols: Vec<Item> = (0..20)
///     .map(|i| Item::new(Rect::from_coords(i as f32, 0.0, i as f32 + 0.5, 20.0), 100 + i))
///     .collect();
/// let l = ItemStream::from_items(&mut env, &rows).unwrap();
/// let r = ItemStream::from_items(&mut env, &cols).unwrap();
/// let result = SssjJoin::default()
///     .run(&mut env, JoinInput::Stream(&l), JoinInput::Stream(&r))
///     .unwrap();
/// // Every row crosses every column.
/// assert_eq!(result.pairs, 400);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SssjJoin {
    /// Optional bounding box of the data, used to size the striped sweep
    /// structure without an extra scan. When absent it is derived from the
    /// sort pass.
    pub region_hint: Option<Rect>,
    /// The pair-selection predicate (default: MBR intersection).
    pub predicate: Predicate,
}

impl SssjJoin {
    /// Sets the region hint (builder style).
    pub fn with_region(mut self, region: Rect) -> Self {
        self.region_hint = Some(region);
        self
    }

    /// Sets the join predicate (builder style).
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }
}

impl JoinOperator for SssjJoin {
    fn name(&self) -> &'static str {
        "SSSJ"
    }

    fn run_with(
        &self,
        env: &mut SimEnv,
        left: JoinInput<'_>,
        right: JoinInput<'_>,
        sink: &mut dyn PairSink,
    ) -> Result<JoinResult> {
        let measurement = env.begin();
        env.memory.begin_phase();
        let predicate = self.predicate;
        let eps = predicate.epsilon();

        // Phase 1: sort both inputs by lower y-coordinate. Indexed inputs are
        // deliberately treated as flat files — this is the "ignore the index"
        // behaviour whose cost Section 6.3 quantifies.
        let sort_phase = env.obs_phase("sssj.sort");
        let (left_sorted, left_bbox) = left.to_sorted_stream(env, self.region_hint)?;
        let (right_sorted, right_bbox) = right.to_sorted_stream(env, self.region_hint)?;
        env.obs_close(sort_phase);
        let region = self
            .region_hint
            .unwrap_or_else(|| left_bbox.union(&right_bbox))
            .expanded(eps);

        // Phase 2: single synchronized scan over the two sorted streams. Left
        // items are ε-expanded as they are read. The driver is the
        // memory-governed spilling sweep: when the structures outgrow the
        // budget it evicts cold items to the simulated device (this is the
        // degradation path the original SSSJ's worst-case partitioning step
        // covers; for the paper's workloads it never triggers).
        let sweep_phase = env.obs_phase("sssj.sweep");
        let mut lr = left_sorted.reader();
        let mut rr = right_sorted.reader();
        let (mut pairs, mut stopped) = (0u64, false);
        let mut emit = |a: &Item, b: &Item| {
            if !stopped && predicate.accepts(&a.rect, &b.rect) {
                stopped = sink.emit(a.id, b.id).is_break();
                pairs += u64::from(!stopped);
            }
            if stopped {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let (driver, flow) = merge_sweep(
            env,
            |env| Ok(lr.next(env)?.map(|it| predicate.expand_left(it))),
            |env| rr.next(env),
            (region.lo.x, region.hi.x),
            &mut emit,
        )?;
        env.obs_close(sweep_phase);
        // Fix up any pending spill epoch — unless the sink stopped the join,
        // in which case the remaining fix-up I/O is skipped entirely.
        let fixup_phase = env.obs_phase("sssj.fixup");
        let mut sweep = match flow {
            ControlFlow::Break(()) => driver.discard(),
            ControlFlow::Continue(()) => driver.finish(env, |a, b| {
                let _ = emit(a, b);
            })?,
        };
        env.obs_close(fixup_phase);
        sweep.pairs = pairs;
        env.charge(CpuOp::RectTest, sweep.rect_tests);
        env.charge(CpuOp::OutputPair, pairs);

        let (io, cpu) = env.since(&measurement);
        Ok(JoinResult {
            pairs,
            io,
            cpu,
            index_page_requests: 0,
            sweep,
            memory: MemoryStats {
                priority_queue_bytes: 0,
                sweep_structure_bytes: sweep.max_structure_bytes,
                other_bytes: 0,
                peak_bytes: env.memory.peak(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_geom::Item;
    use usj_io::{ItemStream, MachineConfig};

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn cross_streets(n: u32) -> (Vec<Item>, Vec<Item>) {
        // n horizontal segments and n vertical segments arranged so every
        // vertical crosses every horizontal in a band.
        let horiz: Vec<Item> = (0..n)
            .map(|i| Item::new(Rect::from_coords(0.0, i as f32, n as f32, i as f32 + 0.1), i))
            .collect();
        let vert: Vec<Item> = (0..n)
            .map(|i| {
                Item::new(
                    Rect::from_coords(i as f32, 0.0, i as f32 + 0.1, n as f32),
                    1000 + i,
                )
            })
            .collect();
        (horiz, vert)
    }

    #[test]
    fn joins_crossing_grids_completely() {
        let mut env = env();
        let (h, v) = cross_streets(20);
        let sh = ItemStream::from_items(&mut env, &h).unwrap();
        let sv = ItemStream::from_items(&mut env, &v).unwrap();
        let res = SssjJoin::default()
            .run(&mut env, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        assert_eq!(res.pairs, 400);
        assert_eq!(res.index_page_requests, 0);
        assert!(res.memory.sweep_structure_bytes > 0);
    }

    #[test]
    fn empty_inputs_produce_no_pairs() {
        let mut env = env();
        let empty = ItemStream::from_items(&mut env, &[]).unwrap();
        let (h, _) = cross_streets(5);
        let sh = ItemStream::from_items(&mut env, &h).unwrap();
        let res = SssjJoin::default()
            .run(&mut env, JoinInput::Stream(&empty), JoinInput::Stream(&sh))
            .unwrap();
        assert_eq!(res.pairs, 0);
    }

    #[test]
    fn io_is_stream_oriented_large_transfers() {
        // SSSJ accesses the disk through large logical blocks, so the average
        // transfer size per I/O operation is many pages — in contrast to the
        // index joins, which request one 8 KiB node at a time.
        let mut env = env();
        let parallel = |id_base: u32, offset: f32| -> Vec<Item> {
            (0..30_000u32)
                .map(|i| {
                    let y = i as f32 + offset;
                    Item::new(Rect::from_coords(0.0, y, 5.0, y + 0.8), id_base + i)
                })
                .collect()
        };
        let h = parallel(0, 0.0);
        let v = parallel(1_000_000, 0.5);
        let sh = ItemStream::from_items(&mut env, &h).unwrap();
        let sv = ItemStream::from_items(&mut env, &v).unwrap();
        env.device.reset_stats();
        let res = SssjJoin::default()
            .run(&mut env, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        assert!(res.pairs > 0);
        let avg_pages_per_op =
            (res.io.pages_read + res.io.pages_written) as f64 / res.io.total_ops().max(1) as f64;
        assert!(
            avg_pages_per_op > 8.0,
            "SSSJ should stream in large blocks (avg {avg_pages_per_op:.1} pages/op)"
        );
    }

    #[test]
    fn accepts_indexed_inputs_by_ignoring_the_index() {
        let mut env = env();
        let (h, v) = cross_streets(30);
        let th = usj_rtree::RTree::bulk_load(&mut env, &h).unwrap();
        let sv = ItemStream::from_items(&mut env, &v).unwrap();
        let res = SssjJoin::default()
            .run(&mut env, JoinInput::Indexed(&th), JoinInput::Stream(&sv))
            .unwrap();
        assert_eq!(res.pairs, 900);
    }

    #[test]
    fn collects_the_expected_pairs() {
        let mut env = env();
        let left = vec![Item::new(Rect::from_coords(0.0, 0.0, 2.0, 2.0), 1)];
        let right = vec![
            Item::new(Rect::from_coords(1.0, 1.0, 3.0, 3.0), 2),
            Item::new(Rect::from_coords(5.0, 5.0, 6.0, 6.0), 3),
        ];
        let sl = ItemStream::from_items(&mut env, &left).unwrap();
        let sr = ItemStream::from_items(&mut env, &right).unwrap();
        let (res, pairs) = SssjJoin::default()
            .run_collect(&mut env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
            .unwrap();
        assert_eq!(res.pairs, 1);
        assert_eq!(pairs, vec![(1, 2)]);
    }
}
