//! Partition-Based Spatial Merge join (PBSM).
//!
//! PBSM (Patel & DeWitt, SIGMOD 1996 — Section 3.2 of the paper) is a
//! hash-join: the data space is covered by a fine grid of *tiles*, the tiles
//! are assigned to a much smaller number of *partitions* round-robin, every
//! rectangle is replicated into each partition whose tiles it overlaps, and
//! each partition is then joined in memory with a plane sweep. Replication
//! can report the same pair in several partitions, so a pair is emitted only
//! in the partition owning the tile that contains the pair's *reference
//! point* (the lower-left corner of the intersection).
//!
//! Following the implementation note in the paper, the default tile grid is
//! 128 × 128 (the 32 × 32 grid suggested originally produced overfull
//! partitions on the TIGER data); the ablation harness exercises both.
//!
//! ## One-axis, replication-aware partitions
//!
//! PBSM is only as cheap as its replication is small. Dealing the tiles
//! round-robin in *row-major* order sends horizontally **and** vertically
//! adjacent tiles to different partitions, so a rectangle that is long
//! along either axis lands in every partition and every partition is the
//! whole input. Here a grid deals whole tile **columns** or whole tile
//! **rows**: along the other axis a rectangle may be arbitrarily long and
//! is still written once. The axis is the one along which the data is
//! relatively narrower — `Σ extent ÷ region extent`, observed from the
//! input itself: folded into the bounding-box pass where one runs, taken
//! from the first block of an input whose bounding box is already known.
//! The grid, its scatter and that extents pass live in `crate::partition`.
//!
//! ## Memory-adaptive repartitioning
//!
//! Partition sizing is an estimate; a skewed input can put arbitrarily many
//! rectangles into one tile, and the original PBSM answers by *recursively
//! repartitioning* any partition that does not fit in memory. This
//! implementation does the same under the memory governor: before a
//! partition is loaded, its bytes are claimed from the
//! [`MemoryGauge`](usj_io::MemoryGauge); if the claim fails, the partition
//! is re-replicated over a fresh tile grid covering *its own* bounding box
//! (so a cluster that fell into one parent tile spreads out again) along
//! *its own* narrower axis, with the reference-point test applied at every
//! level of the split so no pair is duplicated or lost. A split that does
//! not shrink its input — the largest child keeps three quarters of it:
//! identical rectangles, rectangles long on both axes — is abandoned at
//! once for a memory-bounded chunked sweep that streams one side past the
//! other.

use usj_geom::{Extents, Item, Rect, ITEM_BYTES};
use usj_io::{CpuOp, ItemStream, ItemStreamReader, Result, SimEnv, PAGE_SIZE};
use usj_sweep::{
    batch_join_oriented, sweep_join_eps_with, StripedSweep, SweepJoinStats, SweepScratch,
};

use crate::input::JoinInput;
use crate::partition::{input_extents, region_of, writer_pages_per_block, Scatter, TileGrid};
use crate::predicate::Predicate;
use crate::result::{JoinResult, MemoryStats};
use crate::sink::PairSink;
use crate::JoinOperator;

/// Configuration of the PBSM join.
///
/// # Example
///
/// PBSM partitions flat inputs over a tile grid and sweeps each partition
/// in memory; replicated pairs are suppressed by the reference-point test,
/// so every intersecting pair is reported exactly once.
///
/// ```
/// use usj_core::{JoinInput, JoinOperator, PbsmJoin};
/// use usj_geom::{Item, Rect};
/// use usj_io::{ItemStream, MachineConfig, SimEnv};
///
/// let mut env = SimEnv::new(MachineConfig::machine3());
/// // Long crossing rectangles overlap many tiles and partitions each.
/// let horiz: Vec<Item> = (0..10)
///     .map(|i| Item::new(Rect::from_coords(0.0, i as f32, 10.0, i as f32 + 0.1), i))
///     .collect();
/// let vert: Vec<Item> = (0..10)
///     .map(|i| Item::new(Rect::from_coords(i as f32, 0.0, i as f32 + 0.1, 10.0), 100 + i))
///     .collect();
/// let l = ItemStream::from_items(&mut env, &horiz).unwrap();
/// let r = ItemStream::from_items(&mut env, &vert).unwrap();
/// let result = PbsmJoin::default()
///     .with_partitions(4)
///     .run(&mut env, JoinInput::Stream(&l), JoinInput::Stream(&r))
///     .unwrap();
/// assert_eq!(result.pairs, 100);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PbsmJoin {
    /// Tiles per side of the tile grid (the paper uses 128 after finding
    /// 32 × 32 insufficient).
    pub tiles_per_side: usize,
    /// Optional explicit number of partitions; when `None` it is derived from
    /// the input size and the internal-memory limit.
    pub partitions: Option<usize>,
    /// Optional bounding box of the data space; when `None` one sequential
    /// scan over both inputs computes it.
    pub region_hint: Option<Rect>,
    /// The pair-selection predicate (default: MBR intersection).
    pub predicate: Predicate,
}

impl Default for PbsmJoin {
    fn default() -> Self {
        PbsmJoin {
            tiles_per_side: 128,
            partitions: None,
            region_hint: None,
            predicate: Predicate::default(),
        }
    }
}

impl PbsmJoin {
    /// Sets the tile grid resolution (builder style).
    pub fn with_tiles_per_side(mut self, tiles: usize) -> Self {
        self.tiles_per_side = tiles.max(1);
        self
    }

    /// Sets the number of partitions explicitly (builder style).
    pub fn with_partitions(mut self, p: usize) -> Self {
        self.partitions = Some(p.max(1));
        self
    }

    /// Sets the data-space bounding box (builder style).
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

/// Recursion limit of the repartitioning (beyond it the chunked fallback
/// takes over; each level shrinks the region to the overfull partition's
/// bounding box, so eight levels outrun `f32` resolution anyway).
pub(crate) const MAX_SPLIT_DEPTH: usize = 8;

/// Fan-out of one repartitioning level.
pub(crate) const SPLIT_PARTITIONS: usize = 4;

/// Logical block size (in pages) of the sub-partition scratch streams.
const SPLIT_PAGES_PER_BLOCK: u64 = 2;

impl JoinOperator for PbsmJoin {
    fn name(&self) -> &'static str {
        "PBSM"
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

        let partition_phase = env.obs_phase("pbsm.partition");
        let left_stream = left.to_stream(env)?;
        let right_stream = right.to_stream(env)?;

        // Data-space bounding box and side-length sums: the hint if given,
        // else the inputs' known bounding boxes (index root rectangles,
        // catalog registration records), and a scan only of the sides whose
        // extent is genuinely unknown.
        let mut left_reader = left_stream.reader();
        let (data, left_first) = input_extents(
            env,
            self.region_hint,
            (&left, &left_stream),
            (&right, &right_stream),
            &mut left_reader,
        )?;
        let region = region_of(&data, eps);

        // Partition count: both partitions of a pair must fit in memory
        // together with the sweep working space, so size each partition to a
        // quarter of the internal memory. The fan-out is additionally capped
        // so the distribution writers' block buffers (one logical block per
        // partition) fit in that same quarter, and at the tile columns there
        // are to deal — partitions that end up overfull are split
        // recursively below instead.
        let total_bytes = left_stream.data_bytes() + right_stream.data_bytes();
        let max_fanout = ((env.memory_limit / 4) / PAGE_SIZE).max(1);
        let partitions = self
            .partitions
            .unwrap_or_else(|| ((total_bytes as usize).div_ceil(env.memory_limit / 4)).max(1))
            .min(max_fanout)
            .min(self.tiles_per_side);
        let writer_ppb = writer_pages_per_block(env.memory_limit, partitions);
        let grid = TileGrid::new(region, &data, self.tiles_per_side, partitions);

        // Phase 1: distribute both inputs to the partitions. Left rectangles
        // are ε-expanded *before* partitioning so that near-miss pairs meet
        // in at least one partition.
        let expand = |it| predicate.expand_left(it);
        let mut scatter = Scatter::new(env, &grid, writer_ppb);
        if let Some(view) = left_first {
            scatter.extend(env, view.iter().map(expand))?;
        }
        while let Some(view) = left_reader.next_view(env)? {
            scatter.extend(env, view.iter().map(expand))?;
        }
        let left_parts = scatter.finish(env)?;
        let mut scatter = Scatter::new(env, &grid, writer_ppb);
        scatter.drain(env, &mut right_stream.reader())?;
        let right_parts = scatter.finish(env)?;
        env.obs_close(partition_phase);

        // Phase 2: join each partition in memory with the striped sweep,
        // suppressing duplicates with the reference-point test; partitions
        // that do not fit the memory budget are repartitioned recursively.
        let mut run = PbsmRun {
            predicate,
            tiles_per_side: self.tiles_per_side,
            pairs: 0,
            done: false,
            sweep_total: SweepJoinStats::default(),
            max_partition_bytes: 0,
            sink,
            load_left: Vec::new(),
            load_right: Vec::new(),
            scratch: SweepScratch::new(),
        };
        let join_phase = env.obs_phase("pbsm.join");
        let mut path = vec![(grid, 0usize)];
        for (p, ((ls, le), (rs, re))) in left_parts.iter().zip(&right_parts).enumerate() {
            if run.done {
                break;
            }
            path[0].1 = p;
            run.join_partition(env, &mut path, ls, rs, le.merged(re), 0)?;
        }
        env.obs_close(join_phase);
        env.charge(CpuOp::OutputPair, run.pairs);
        let pairs = run.pairs;
        let mut sweep_total = run.sweep_total;
        sweep_total.pairs = pairs;
        let max_partition_bytes = run.max_partition_bytes;

        let (io, cpu) = env.since(&measurement);
        Ok(JoinResult {
            pairs,
            io,
            cpu,
            index_page_requests: 0,
            sweep: sweep_total,
            memory: MemoryStats {
                priority_queue_bytes: 0,
                sweep_structure_bytes: sweep_total.max_structure_bytes,
                other_bytes: max_partition_bytes,
                peak_bytes: env.memory.peak(),
            },
        })
    }
}

/// The shared pair-acceptance path of the in-memory sweep and the chunked
/// fallback. Reference point: lower-left corner of the intersection of the
/// (expanded) rectangles — the pair is reported only when that point's tile
/// belongs to the chosen partition at *every* split level of `path`, which
/// keeps the output duplicate-free under arbitrary re-replication; the
/// predicate refines the surviving candidates before they reach the sink.
fn report_candidate(
    predicate: Predicate,
    path: &[(TileGrid, usize)],
    sink: &mut dyn PairSink,
    pairs: &mut u64,
    done: &mut bool,
    a: &Item,
    b: &Item,
) {
    if *done {
        return;
    }
    let ref_x = a.rect.lo.x.max(b.rect.lo.x);
    let ref_y = a.rect.lo.y.max(b.rect.lo.y);
    if !path.iter().all(|(g, p)| g.partition_at(ref_x, ref_y) == *p) {
        return;
    }
    if !predicate.accepts(&a.rect, &b.rect) {
        return;
    }
    if sink.emit(a.id, b.id).is_break() {
        *done = true;
    } else {
        *pairs += 1;
    }
}

/// Upper bound on the block-buffer bytes one reader over `s` will charge to
/// the gauge (one logical block, capped by the stream's total size).
fn reader_bound(s: &ItemStream) -> usize {
    (s.data_bytes() as usize).min(s.pages_per_block() as usize * PAGE_SIZE)
}

/// How [`PbsmRun::sweep_loaded`] joins what is in the load buffers.
#[derive(Clone, Copy)]
enum Kernel {
    /// A partition that fits in memory: the striped structure.
    Striped,
    /// A chunk pair of the fallback, whose rectangles the extents describe:
    /// the buffers themselves, copy-free, along their narrower axis.
    Batch(Extents),
}

/// Mutable state threaded through the recursive partition joins.
struct PbsmRun<'a> {
    predicate: Predicate,
    tiles_per_side: usize,
    pairs: u64,
    done: bool,
    sweep_total: SweepJoinStats,
    max_partition_bytes: usize,
    sink: &'a mut dyn PairSink,
    /// Reusable partition-load buffers: one pair of scatter targets shared
    /// by every partition (and every recursion level) instead of two fresh
    /// vectors per partition.
    load_left: Vec<Item>,
    load_right: Vec<Item>,
    /// Reusable sorted-copy buffers of the per-partition sweeps.
    scratch: SweepScratch,
}

impl PbsmRun<'_> {
    /// Joins one (possibly nested) partition.
    ///
    /// `path` is the chain of `(grid, partition)` choices that led here; a
    /// pair is reported only when its reference point maps to the chosen
    /// partition at *every* level, which keeps the output duplicate-free
    /// under arbitrary re-replication. `data` describes the partition's
    /// rectangles (folded during the distribution write pass) and seeds the
    /// grid of a recursive split.
    fn join_partition(
        &mut self,
        env: &mut SimEnv,
        path: &mut Vec<(TileGrid, usize)>,
        left: &ItemStream,
        right: &ItemStream,
        data: Extents,
        depth: usize,
    ) -> Result<()> {
        if self.done || left.is_empty() || right.is_empty() {
            return Ok(());
        }
        // In-memory envelope: the partition vectors, the sweep's sorted
        // copies and its resident sets — 3× the data.
        let bytes = (left.data_bytes() + right.data_bytes()) as usize;
        let envelope = 3 * bytes + reader_bound(left) + reader_bound(right);
        if depth < MAX_SPLIT_DEPTH {
            if env.memory.headroom() >= envelope {
                // Claim the vectors/copies/resident-set share; the stream
                // readers charge their own block buffers on top (the
                // envelope above left room for them).
                let _claim = env.memory.try_reserve(3 * bytes)?;
                self.load_left.clear();
                self.load_right.clear();
                left.read_all_into(env, &mut self.load_left)?;
                right.read_all_into(env, &mut self.load_right)?;
                self.sweep_loaded(env, path, Kernel::Striped);
                return Ok(());
            }
            return self.split(env, path, left, right, data, depth);
        }
        self.chunked_fallback(env, path, left, right)
    }

    /// Plane-sweeps the rectangles in the two load buffers against each
    /// other with `kernel`, reporting through [`report_candidate`].
    fn sweep_loaded(&mut self, env: &mut SimEnv, path: &[(TileGrid, usize)], kernel: Kernel) {
        let PbsmRun {
            predicate,
            sink,
            pairs,
            done,
            load_left,
            load_right,
            scratch,
            ..
        } = self;
        let loaded = load_left.len() + load_right.len();
        let report = |a: &Item, b: &Item| {
            report_candidate(*predicate, path, &mut **sink, pairs, done, a, b)
        };
        let tests = match kernel {
            Kernel::Striped => {
                let stats = sweep_join_eps_with::<StripedSweep, _>(
                    load_left, load_right, 0.0, scratch, report,
                );
                self.sweep_total.merge(&stats);
                stats.rect_tests
            }
            Kernel::Batch(data) => {
                batch_join_oriented(load_left, load_right, &data, &mut self.sweep_total, report)
            }
        };
        env.charge(CpuOp::RectTest, tests);
        env.charge(CpuOp::Compare, loaded as u64);
        self.max_partition_bytes = self
            .max_partition_bytes
            .max(loaded * std::mem::size_of::<Item>());
    }

    /// The overflow case: re-replicate the partition over a finer grid that
    /// covers only *its* data (so a cluster confined to one parent tile
    /// spreads out) and recurse into the sub-partitions.
    fn split(
        &mut self,
        env: &mut SimEnv,
        path: &mut Vec<(TileGrid, usize)>,
        left: &ItemStream,
        right: &ItemStream,
        data: Extents,
        depth: usize,
    ) -> Result<()> {
        let sub = TileGrid::new(data.bbox, &data, self.tiles_per_side, SPLIT_PARTITIONS);
        // Left rectangles were ε-expanded at the top-level distribution; no
        // second expansion here.
        let mut parts = Vec::with_capacity(2);
        for stream in [left, right] {
            let mut scatter = Scatter::new(env, &sub, SPLIT_PAGES_PER_BLOCK);
            scatter.drain(env, &mut stream.reader())?;
            parts.push(scatter.finish(env)?);
        }
        let children = || parts[0].iter().zip(&parts[1]);
        let largest = children()
            .map(|((ls, _), (rs, _))| ls.len() + rs.len())
            .max();
        if 4 * largest.unwrap_or(0) >= 3 * (left.len() + right.len()) {
            // The split did not shrink its input (identical rectangles,
            // rectangles long on both axes): splitting again cannot make
            // progress, so stream the partition through the memory-bounded
            // chunked sweep instead.
            return self.chunked_fallback(env, path, left, right);
        }
        for (p, ((ls, le), (rs, re))) in children().enumerate() {
            if self.done {
                break;
            }
            path.push((sub.clone(), p));
            self.join_partition(env, path, ls, rs, le.merged(re), depth + 1)?;
            path.pop();
        }
        Ok(())
    }

    /// Last-resort path for partitions that cannot be split further: a
    /// block-nested sweep that loads one memory-sized chunk of the left side
    /// at a time and streams the right side past it. Memory stays bounded;
    /// the price is re-reading the right partition once per left chunk —
    /// charged I/O, exactly the degradation a real system would pay. What
    /// no grid could separate overlaps heavily, so the chunks meet in the
    /// copy-free forward sweep of [`batch_join_oriented`], along the axis
    /// each chunk pair is narrower on: strips would only replicate them.
    fn chunked_fallback(
        &mut self,
        env: &mut SimEnv,
        path: &[(TileGrid, usize)],
        left: &ItemStream,
        right: &ItemStream,
    ) -> Result<()> {
        let avail = env
            .memory
            .headroom()
            .saturating_sub(reader_bound(left) + reader_bound(right));
        let chunk_bytes = (avail / 8).max(4 * 1024);
        let chunk_items = (chunk_bytes / ITEM_BYTES).max(1);
        // Two chunks plus the sweep's copies and resident sets; the stream
        // readers charge their own block buffers out of the slack above.
        let _claim = env.memory.try_reserve(6 * chunk_bytes)?;
        let mut lr = left.reader();
        loop {
            // One pair of chunk buffers for the whole block-nested loop.
            let left_data = load_chunk(env, &mut lr, &mut self.load_left, chunk_items)?;
            if self.load_left.is_empty() {
                return Ok(());
            }
            let mut rr = right.reader();
            loop {
                if self.done {
                    return Ok(());
                }
                let right_data = load_chunk(env, &mut rr, &mut self.load_right, chunk_items)?;
                if self.load_right.is_empty() {
                    break;
                }
                self.sweep_loaded(env, path, Kernel::Batch(left_data.merged(&right_data)));
            }
        }
    }
}

/// Refills `chunk` with the next (up to) `chunk_items` items of `reader` and
/// returns their extents.
fn load_chunk(
    env: &mut SimEnv,
    reader: &mut ItemStreamReader,
    chunk: &mut Vec<Item>,
    chunk_items: usize,
) -> Result<Extents> {
    let mut data = Extents::empty();
    chunk.clear();
    while chunk.len() < chunk_items {
        let Some(it) = reader.next(env)? else { break };
        data.add(&it.rect);
        chunk.push(it);
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_io::MachineConfig;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn grid_and_crossers(n: u32) -> (Vec<Item>, Vec<Item>) {
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
    fn no_duplicate_pairs_despite_replication() {
        let mut env = env();
        // Long rectangles overlap many tiles and partitions; every pair must
        // still be reported exactly once.
        let (h, v) = grid_and_crossers(25);
        let sh = ItemStream::from_items(&mut env, &h).unwrap();
        let sv = ItemStream::from_items(&mut env, &v).unwrap();
        let (res, mut pairs) = PbsmJoin::default()
            .with_partitions(7)
            .run_collect(&mut env, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        assert_eq!(res.pairs, 625);
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 625, "duplicate pairs were reported");
    }

    #[test]
    fn the_partition_axis_is_the_one_the_data_is_narrower_on() {
        let region = Rect::from_coords(0.0, 0.0, 100.0, 50.0);
        let grid = |rects: &[Rect]| {
            let mut data = Extents::empty();
            rects.iter().for_each(|r| data.add(r));
            TileGrid::new(region, &data, 128, 7)
        };
        let tall = Rect::from_coords(10.2, 5.0, 10.5, 45.0);
        let wide = Rect::from_coords(5.0, 10.2, 95.0, 10.5);
        // Relative to the region: 40/50 tall against 90/100 wide.
        let square = Rect::from_coords(1.0, 1.0, 3.0, 3.0);

        let g = grid(&[tall, tall, square]);
        assert!(g.by_columns);
        assert_eq!(g.partitions_of(&tall).len(), 1, "long along a column");
        assert_eq!(g.partitions_of(&wide).len(), 7, "crosses every column");
        let g = grid(&[wide, wide, square]);
        assert!(!g.by_columns);
        assert_eq!(g.partitions_of(&wide).len(), 1);
        assert_eq!(g.partitions_of(&tall).len(), 7);
        // One of each: the wide one is relatively longer, so rows it is.
        assert!(!grid(&[tall, wide]).by_columns);
        // A tie goes to the region's longer side.
        assert!(grid(&[]).by_columns);

        // The partitions of a rectangle are distinct and hold its
        // reference point with any partner's.
        let r = Rect::from_coords(20.0, 0.0, 24.0, 50.0);
        let mut ps: Vec<usize> = g.partitions_of(&r).collect();
        assert!(ps.contains(&g.partition_at(22.0, 17.0)));
        ps.sort_unstable();
        ps.dedup();
        assert_eq!(ps.len(), g.partitions_of(&r).len());
    }

    #[test]
    fn rectangles_long_on_one_axis_are_written_about_once() {
        // 600 thin rectangles, each as long as half the region: dealt
        // tile by tile in row-major order every one of them landed in all
        // seven partitions.
        for tall in [true, false] {
            let mut env = env();
            let side = |base: u32| -> Vec<Item> {
                (0..600u32)
                    .map(|i| {
                        let (a, b) = ((i * 37 % 500) as f32, (i * 53 % 997) as f32);
                        let r = match tall {
                            true => Rect::from_coords(b, a, b + 0.2, a + 500.0),
                            false => Rect::from_coords(a, b, a + 500.0, b + 0.2),
                        };
                        Item::new(r, base + i)
                    })
                    .collect()
            };
            let (l, r) = (side(0), side(10_000));
            let sl = ItemStream::from_items(&mut env, &l).unwrap();
            let sr = ItemStream::from_items(&mut env, &r).unwrap();
            let (res, mut pairs) = PbsmJoin::default()
                .with_partitions(7)
                .run_collect(&mut env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
                .unwrap();
            let n = pairs.len();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), n, "duplicate pairs were reported");
            let want = l
                .iter()
                .map(|a| r.iter().filter(|b| a.rect.intersects(&b.rect)).count())
                .sum::<usize>();
            assert_eq!(n, want);
            // 1 200 items are 3 pages; 7 partitions of 2 streams each round
            // up to a page.
            assert!(
                res.io.pages_written <= 14,
                "tall {tall}: {} pages written",
                res.io.pages_written
            );
        }
    }

    #[test]
    fn single_partition_behaves_like_plain_sweep() {
        let mut env = env();
        let (h, v) = grid_and_crossers(10);
        let sh = ItemStream::from_items(&mut env, &h).unwrap();
        let sv = ItemStream::from_items(&mut env, &v).unwrap();
        let res = PbsmJoin::default()
            .with_partitions(1)
            .run(&mut env, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        assert_eq!(res.pairs, 100);
    }

    #[test]
    fn coarse_and_fine_tile_grids_agree() {
        let mut env = env();
        let (h, v) = grid_and_crossers(15);
        let sh = ItemStream::from_items(&mut env, &h).unwrap();
        let sv = ItemStream::from_items(&mut env, &v).unwrap();
        let fine = PbsmJoin::default()
            .with_tiles_per_side(128)
            .with_partitions(5)
            .run(&mut env, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        let coarse = PbsmJoin::default()
            .with_tiles_per_side(32)
            .with_partitions(5)
            .run(&mut env, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        assert_eq!(fine.pairs, coarse.pairs);
    }

    #[test]
    fn empty_input_is_handled() {
        let mut env = env();
        let empty = ItemStream::from_items(&mut env, &[]).unwrap();
        let (h, _) = grid_and_crossers(5);
        let sh = ItemStream::from_items(&mut env, &h).unwrap();
        let res = PbsmJoin::default()
            .run(&mut env, JoinInput::Stream(&empty), JoinInput::Stream(&sh))
            .unwrap();
        assert_eq!(res.pairs, 0);
    }

    #[test]
    fn region_hint_skips_the_extra_scan() {
        let mut env = env();
        let (h, v) = grid_and_crossers(10);
        let sh = ItemStream::from_items(&mut env, &h).unwrap();
        let sv = ItemStream::from_items(&mut env, &v).unwrap();
        let hinted = PbsmJoin::default()
            .with_region(Rect::from_coords(0.0, 0.0, 10.0, 10.0))
            .with_partitions(2);
        let unhinted = PbsmJoin::default().with_partitions(2);
        let a = hinted
            .run(&mut env, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        let b = unhinted
            .run(&mut env, JoinInput::Stream(&sh), JoinInput::Stream(&sv))
            .unwrap();
        assert_eq!(a.pairs, b.pairs);
        assert!(a.io.pages_read < b.io.pages_read);
    }
}
