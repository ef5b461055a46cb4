//! PBSM's partition phase: what the inputs measure, a one-axis tile grid over
//! them, and the scatter that replicates every rectangle into the partition
//! streams its tiles reach.
//!
//! PBSM deals a fine grid of tile columns (or rows) round-robin to a few
//! partitions. A pair is owned by the partition holding its *reference
//! point*, the lower corner of the intersection.

use std::cmp::Ordering;

use usj_geom::{Extents, Item, Rect};
use usj_io::{CpuOp, ItemStream, ItemStreamReader, ItemStreamWriter, ItemsView, Result, SimEnv};

use crate::input::JoinInput;

/// Folds every item of `stream` into `data` — the one sequential pass over
/// an input whose bounding box is not known.
fn scan_extents(data: &mut Extents, env: &mut SimEnv, stream: &ItemStream) -> Result<()> {
    let mut reader = stream.reader();
    while let Some(view) = reader.next_view(env)? {
        env.charge(CpuOp::RectTest, view.len() as u64);
        view.iter().for_each(|it| data.add(&it.rect));
    }
    Ok(())
}

/// Folds into `data` an input of `len` items whose bounding box is `known`,
/// its side lengths estimated from one block of it.
fn sample_extents(
    data: &mut Extents,
    env: &mut SimEnv,
    known: Rect,
    block: Option<ItemsView<'_>>,
    len: u64,
) {
    let mut seen = Extents::empty();
    if let Some(view) = block {
        env.charge(CpuOp::RectTest, view.len() as u64);
        view.iter().for_each(|it| seen.add(&it.rect));
        let scale = len as f64 / view.len() as f64;
        seen.sum_w *= scale;
        seen.sum_h *= scale;
    }
    seen.bbox = known;
    *data = data.merged(&seen);
}

/// The extents pass over both inputs: each side's bounding box where it is
/// known — the `hint`, else an index root or a catalog record — and one scan
/// of a side whose box is not, which then yields its side-length sums too.
/// A side that is not scanned is sampled from its first block: the right
/// through a reader of its own, the left through `left_reader`, which goes
/// on to distribute it. That block is returned for the caller to scatter
/// first, so choosing the axis costs one extra block read and no block
/// buffer beside the writers'.
pub(crate) fn input_extents<'r>(
    env: &mut SimEnv,
    hint: Option<Rect>,
    (left, left_stream): (&JoinInput<'_>, &ItemStream),
    (right, right_stream): (&JoinInput<'_>, &ItemStream),
    left_reader: &'r mut ItemStreamReader,
) -> Result<(Extents, Option<ItemsView<'r>>)> {
    let mut data = Extents::empty();
    match hint.or_else(|| right.known_bbox()) {
        None => scan_extents(&mut data, env, right_stream)?,
        Some(bbox) => {
            let mut reader = right_stream.reader();
            let block = reader.next_view(env)?;
            sample_extents(&mut data, env, bbox, block, right_stream.len());
        }
    }
    let left_first = match hint.or_else(|| left.known_bbox()) {
        None => {
            scan_extents(&mut data, env, left_stream)?;
            None
        }
        Some(bbox) => {
            let block = left_reader.next_view(env)?;
            sample_extents(&mut data, env, bbox, block, left_stream.len());
            block
        }
    };
    Ok((data, left_first))
}

/// The region a grid over `data` covers: its bounding box (a unit square
/// when there is none), grown by ε so expanded left rectangles stay covered.
pub(crate) fn region_of(data: &Extents, eps: f32) -> Rect {
    if data.bbox.is_empty() {
        Rect::from_coords(0.0, 0.0, 1.0, 1.0)
    } else {
        data.bbox
    }
    .expanded(eps)
}

/// Geometry of the tile grid: `tiles_per_side` tile columns (or rows) over
/// `region`, dealt round-robin to `partitions`.
#[derive(Debug, Clone)]
pub(crate) struct TileGrid {
    region: Rect,
    tiles_per_side: usize,
    partitions: usize,
    /// Whether whole tile columns (else whole tile rows) go to a partition.
    pub(crate) by_columns: bool,
}

impl TileGrid {
    /// A grid over `region` for the rectangles `data` describes, partitioned
    /// along the axis on which they are relatively narrower: that is where
    /// the fewest of them cross a partition boundary.
    pub(crate) fn new(
        region: Rect,
        data: &Extents,
        tiles_per_side: usize,
        partitions: usize,
    ) -> Self {
        // A tie (squares, or a region flat on one axis) goes to the longer
        // side of the region; sums that do not compare, to rows.
        let by_columns = match data.cmp_x_to_y(&region) {
            Some(Ordering::Less) => true,
            Some(Ordering::Equal) => region.width() >= region.height(),
            _ => false,
        };
        TileGrid {
            region,
            tiles_per_side,
            partitions,
            by_columns,
        }
    }

    /// Tile column (or row) containing the point — monotone in the
    /// coordinate along the partitioning axis.
    fn tile_of(&self, x: f32, y: f32) -> usize {
        let n = self.tiles_per_side as f32;
        let (c, lo, extent) = if self.by_columns {
            (x, self.region.lo.x, self.region.width())
        } else {
            (y, self.region.lo.y, self.region.height())
        };
        (((c - lo) / extent.max(f32::MIN_POSITIVE)) * n).clamp(0.0, n - 1.0) as usize
    }

    /// Round-robin assignment of tile columns (or rows) to partitions.
    pub(crate) fn partition_at(&self, x: f32, y: f32) -> usize {
        self.tile_of(x, y) % self.partitions
    }

    /// Distinct partitions a rectangle must be replicated to, the one
    /// holding its lower corner first.
    pub(crate) fn partitions_of(&self, r: &Rect) -> impl ExactSizeIterator<Item = usize> + '_ {
        let lo = self.tile_of(r.lo.x, r.lo.y);
        let hi = self.tile_of(r.hi.x, r.hi.y);
        (lo..(hi + 1).min(lo + self.partitions)).map(|t| t % self.partitions)
    }
}

/// The writers of one distribution pass over a grid, and what each
/// partition has received. Writing to many partition streams at once is the
/// "non-sequential write pass".
pub(crate) struct Scatter<'g> {
    grid: &'g TileGrid,
    writers: Vec<ItemStreamWriter>,
    /// Per-partition extents, folded for free during the write pass: a
    /// later recursive split re-grids over exactly these without a
    /// dedicated scan.
    extents: Vec<Extents>,
}

impl<'g> Scatter<'g> {
    pub(crate) fn new(env: &mut SimEnv, grid: &'g TileGrid, pages_per_block: u64) -> Self {
        Scatter {
            grid,
            writers: (0..grid.partitions)
                .map(|_| ItemStreamWriter::new(env, pages_per_block))
                .collect(),
            extents: vec![Extents::empty(); grid.partitions],
        }
    }

    /// Replicates every item into each partition whose tiles it overlaps.
    pub(crate) fn extend(
        &mut self,
        env: &mut SimEnv,
        items: impl Iterator<Item = Item>,
    ) -> Result<()> {
        for it in items {
            let targets = self.grid.partitions_of(&it.rect);
            env.charge(CpuOp::ItemMove, targets.len() as u64);
            for p in targets {
                self.extents[p].add(&it.rect);
                self.writers[p].push(env, it)?;
            }
        }
        Ok(())
    }

    /// Distributes the rest of `reader`.
    pub(crate) fn drain(&mut self, env: &mut SimEnv, reader: &mut ItemStreamReader) -> Result<()> {
        while let Some(view) = reader.next_view(env)? {
            self.extend(env, view.iter())?;
        }
        Ok(())
    }

    pub(crate) fn finish(self, env: &mut SimEnv) -> Result<Vec<(ItemStream, Extents)>> {
        self.writers
            .into_iter()
            .zip(self.extents)
            .map(|(w, e)| Ok((w.finish(env)?, e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_tiles_than_partitions_deal_round_robin() {
        let region = Rect::from_coords(0.0, 0.0, 70.0, 10.0);
        let mut data = Extents::empty();
        data.add(&Rect::from_coords(0.0, 0.0, 1.0, 10.0));
        let g = TileGrid::new(region, &data, 7, 3);
        assert!(g.by_columns);
        // Tile column t is x ∈ [10t, 10(t + 1)) and goes to partition t % 3.
        for t in 0..7 {
            assert_eq!(g.partition_at(10.0 * t as f32 + 5.0, 3.0), t % 3);
        }
        // A rectangle's partitions are those of the columns it spans, its
        // lower corner's first, wrapping past the last partition.
        let r = Rect::from_coords(25.0, 0.0, 41.0, 1.0);
        assert_eq!(g.partitions_of(&r).collect::<Vec<_>>(), [2, 0, 1]);
        // Spanning more columns than there are partitions reaches each once.
        let wide = Rect::from_coords(5.0, 0.0, 65.0, 1.0);
        assert_eq!(g.partitions_of(&wide).collect::<Vec<_>>(), [0, 1, 2]);
        let mut env = SimEnv::new(usj_io::MachineConfig::machine3());
        let mut scatter = Scatter::new(&mut env, &g, 1);
        let it = Item::new(Rect::from_coords(21.0, 0.0, 39.0, 1.0), 9);
        scatter.extend(&mut env, std::iter::once(it)).unwrap();
        let parts = scatter.finish(&mut env).unwrap();
        let holders: Vec<usize> = (0..3).filter(|&p| !parts[p].0.is_empty()).collect();
        assert_eq!(holders, [0, 2]);
        assert_eq!(parts[2].0.read_all(&mut env).unwrap(), [it]);
        assert_eq!(parts[2].1.bbox, it.rect);
    }
}
