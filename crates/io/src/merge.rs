//! The k-way merge of sorted runs.
//!
//! One merge serves every reader of sorted runs: the merge passes of the
//! external sort, a live compaction's merge phase and every join over a
//! relation with tiers. A run is a reader over a stream on the device or a
//! slice in memory, each sorted by the merge's order: the `u64` key first,
//! the comparator on a key collision.
//!
//! The merge keeps one `(key, run)` pair per run that still has records in
//! a binary min-heap, over one head record per run. A push sifts the new
//! pair up; a pop moves the last pair to the root and sifts it down. The
//! sifts move a hole instead of swapping pairs, but make the same
//! comparisons in the same order and leave every pair where a swapping heap
//! would, so the merged order (ties included) and the counts are those of
//! the textbook heap. Each push and pop counts one `HeapOp` and each
//! comparison one `Compare`. Every call to [`Merge::next`] charges what it
//! counted before it returns, and [`Merge::write`] charges once for the
//! whole merge, error or not, so a merge that fails part-way, or that its
//! consumer stops, has charged exactly the work it did.

use std::cmp::Ordering;
use std::ops::Range;

use usj_geom::{Item, Rect};

use crate::error::Result;
use crate::sim::SimEnv;
use crate::stats::CpuOp;
use crate::stream::{ItemStream, ItemStreamReader, ItemStreamWriter};

/// One sorted run of a [`Merge`].
#[derive(Debug)]
pub enum Run<'a> {
    /// A reader over a sorted stream on the device; its blocks are read
    /// (and charged) as the merge reaches them.
    Device(ItemStreamReader),
    /// Sorted records in memory.
    Memory(std::slice::Iter<'a, Item>),
}

impl<'a> Run<'a> {
    /// The sorted stream `s`, read from its start.
    pub fn device(s: &ItemStream) -> Self {
        Run::Device(s.reader())
    }

    /// The sorted records `items`.
    pub fn memory(items: &'a [Item]) -> Self {
        Run::Memory(items.iter())
    }

    fn next(&mut self, env: &mut SimEnv) -> Result<Option<Item>> {
        match self {
            Run::Device(reader) => reader.next(env),
            Run::Memory(items) => Ok(items.next().copied()),
        }
    }
}

/// The k-way merge of sorted runs by `(key, cmp)` (see the module docs).
///
/// A run's head is read at the first call to [`next`](Merge::next) and, once
/// returned, its successor at the following call: a consumer that stops
/// after `n` records has read no record past what those `n` needed.
pub struct Merge<'a, K, F> {
    runs: Vec<Run<'a>>,
    slots: Vec<(u64, usize)>,
    heads: Vec<Item>,
    /// Runs whose next record joins the heap at the next call: every run
    /// before the first, then the run whose head the last call returned.
    refill: Range<usize>,
    key: K,
    cmp: F,
    /// Comparisons and heap operations counted but not yet charged.
    compares: u64,
    heap_ops: u64,
}

impl<'a, K, F> Merge<'a, K, F>
where
    K: Fn(&Item) -> u64,
    F: Fn(&Item, &Item) -> Ordering,
{
    /// A merge of `runs`, each sorted by `(key, cmp)`. Among records that
    /// are equal in that order, the heap decides.
    pub fn new(runs: Vec<Run<'a>>, key: K, cmp: F) -> Self {
        Merge {
            slots: Vec::with_capacity(runs.len()),
            heads: vec![Item::new(Rect::empty(), 0); runs.len()],
            refill: 0..runs.len(),
            runs,
            key,
            cmp,
            compares: 0,
            heap_ops: 0,
        }
    }

    /// The next record in merge order, or `None` when every run is
    /// exhausted.
    pub fn next(&mut self, env: &mut SimEnv) -> Result<Option<Item>> {
        let next = self.step(env);
        self.charge(env);
        next
    }

    /// Drains the merge into `out` and finishes it, charging the merge's
    /// work once, also when a read or write fails part-way.
    pub fn write(mut self, env: &mut SimEnv, mut out: ItemStreamWriter) -> Result<ItemStream> {
        let mut drain = || {
            while let Some(item) = self.step(env)? {
                out.push(env, item)?;
            }
            Ok(())
        };
        let drained = drain();
        self.charge(env);
        drained?;
        out.finish(env)
    }

    /// [`next`](Merge::next) without the charge.
    fn step(&mut self, env: &mut SimEnv) -> Result<Option<Item>> {
        for run in std::mem::replace(&mut self.refill, 0..0) {
            if let Some(item) = self.runs[run].next(env)? {
                self.push(run, item);
            }
        }
        Ok(self.pop().map(|run| {
            self.refill = run..run + 1;
            self.heads[run]
        }))
    }

    /// Charges the work counted since the last charge.
    fn charge(&mut self, env: &mut SimEnv) {
        env.charge(CpuOp::Compare, std::mem::take(&mut self.compares));
        env.charge(CpuOp::HeapOp, std::mem::take(&mut self.heap_ops));
    }

    /// Key-first strict order with the comparator deciding collisions;
    /// counts one comparison.
    #[inline]
    fn less(&mut self, a: (u64, usize), b: (u64, usize)) -> bool {
        self.compares += 1;
        match a.0.cmp(&b.0) {
            Ordering::Equal => (self.cmp)(&self.heads[a.1], &self.heads[b.1]) == Ordering::Less,
            o => o == Ordering::Less,
        }
    }

    /// Makes `item` the head of `run` and inserts the run.
    fn push(&mut self, run: usize, item: Item) {
        self.heap_ops += 1;
        self.heads[run] = item;
        let new = ((self.key)(&item), run);
        let mut i = self.slots.len();
        self.slots.push(new);
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.less(new, self.slots[parent]) {
                break;
            }
            self.slots[i] = self.slots[parent];
            i = parent;
        }
        self.slots[i] = new;
    }

    /// Removes the run whose head is least and returns it.
    fn pop(&mut self) -> Option<usize> {
        let root = *self.slots.first()?;
        self.heap_ops += 1;
        let last = self.slots.pop().expect("non-empty heap");
        let len = self.slots.len();
        if len > 0 {
            let mut i = 0;
            loop {
                let l = 2 * i + 1;
                if l >= len {
                    break;
                }
                let mut least = if self.less(self.slots[l], last) { l } else { i };
                let r = l + 1;
                if r < len {
                    let other = if least == l { self.slots[l] } else { last };
                    if self.less(self.slots[r], other) {
                        least = r;
                    }
                }
                if least == i {
                    break;
                }
                self.slots[i] = self.slots[least];
                i = least;
            }
            self.slots[i] = last;
        }
        Some(root.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::stream::ITEMS_PER_PAGE;
    use usj_geom::sort_by_lower_y;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    /// `n` sorted records on a coarse grid, so sweep keys tie within and
    /// across runs and only the comparator's later fields and the id decide.
    fn coarse_run(n: u32, seed: u32) -> Vec<Item> {
        let mut run: Vec<Item> = (0..n)
            .map(|i| {
                let h = i.wrapping_add(seed).wrapping_mul(2_654_435_761);
                let (x, y) = ((h % 5) as f32, (h / 5 % 7) as f32);
                let grow = (h / 35 % 3) as f32 + 1.0;
                Item::new(
                    Rect::from_coords(x, y, x + grow, y + grow),
                    seed * 1_000 + i,
                )
            })
            .collect();
        sort_by_lower_y(&mut run);
        run
    }

    fn drain<K, F>(env: &mut SimEnv, merge: &mut Merge<'_, K, F>) -> Vec<Item>
    where
        K: Fn(&Item) -> u64,
        F: Fn(&Item, &Item) -> Ordering,
    {
        std::iter::from_fn(|| merge.next(env).unwrap()).collect()
    }

    #[test]
    fn device_and_memory_runs_merge_into_the_sort_of_their_concatenation() {
        let mut env = env();
        let runs: Vec<Vec<Item>> = (0..6).map(|k| coarse_run(150 + 40 * k, k)).collect();
        let streams: Vec<ItemStream> = runs[..3]
            .iter()
            .map(|r| ItemStream::from_items_with_block(&mut env, r, 1).unwrap())
            .collect();
        let mut sources: Vec<Run> = streams.iter().map(Run::device).collect();
        sources.extend(runs[3..].iter().map(|r| Run::memory(r)));
        // An empty run of either kind merges as nothing.
        sources.push(Run::memory(&[]));
        let empty = ItemStream::from_items(&mut env, &[]).unwrap();
        sources.push(Run::device(&empty));

        let m = env.begin();
        let mut merge = Merge::new(sources, Item::sweep_key, Item::cmp_by_lower_y);
        let merged = drain(&mut env, &mut merge);
        let (_, cpu) = env.since(&m);

        let mut want = runs.concat();
        sort_by_lower_y(&mut want);
        assert_eq!(merged, want);
        // Every record is pushed once and popped once.
        assert_eq!(cpu.get(CpuOp::HeapOp), 2 * want.len() as u64);
        assert!(cpu.get(CpuOp::Compare) > 0);
    }

    #[test]
    fn a_merge_stopped_after_n_records_has_charged_and_read_only_what_they_needed() {
        // Run `low` holds every record below run `high`'s, in one-page blocks:
        // the first page of `low` is all the first `n` records need, beside
        // the head of `high`.
        let n = ITEMS_PER_PAGE;
        let item = |y: u32, id: u32| Item::new(Rect::from_coords(0.0, y as f32, 1.0, y as f32), id);
        let low: Vec<Item> = (0..3 * n as u32).map(|i| item(i, i)).collect();
        let high: Vec<Item> = (0..n as u32)
            .map(|i| item(10_000 + i, 100_000 + i))
            .collect();
        let mut env = env();
        let streams =
            [&low, &high].map(|r| ItemStream::from_items_with_block(&mut env, r, 1).unwrap());

        let m = env.begin();
        let mut merge = Merge::new(
            streams.iter().map(Run::device).collect(),
            Item::sweep_key,
            Item::cmp_by_lower_y,
        );
        let first: Vec<Item> = (0..n)
            .map(|_| merge.next(&mut env).unwrap().unwrap())
            .collect();
        let (io, cpu) = env.since(&m);
        assert_eq!(first, low[..n]);
        // One page of each run; the successor of the last record returned,
        // on `low`'s second page, is not read until the next call.
        assert_eq!(io.pages_read, 2);
        // Two heads pushed (one comparison), then per record one pop (a
        // two-run heap sifts nothing down) and, after the first, one refill
        // pushed against `high`'s head (one comparison).
        let n = n as u64;
        assert_eq!(cpu.get(CpuOp::HeapOp), 2 + n + (n - 1));
        assert_eq!(cpu.get(CpuOp::Compare), 1 + (n - 1));

        let rest = drain(&mut env, &mut merge);
        let (io, cpu) = env.since(&m);
        assert_eq!([first, rest].concat(), [low, high].concat());
        assert_eq!(io.pages_read, 4);
        assert_eq!(cpu.get(CpuOp::HeapOp), 2 * 4 * n);
    }
}
