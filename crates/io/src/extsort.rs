//! External multiway mergesort over item streams.
//!
//! Both non-indexed inputs of SSSJ/PQ and the R-tree bulk-loading procedure
//! start by sorting their input: SSSJ sorts by the lower y-coordinate of each
//! MBR, bulk loading sorts by the Hilbert value of each MBR centre. The sort
//! is the classic external-memory multiway mergesort: sorted runs of at most
//! the available internal memory are formed in one sequential pass, then
//! merged with a k-way merge whose fan-in is limited by the number of logical
//! blocks that fit in memory, level by level.
//!
//! [`sort_to_runs`] is the one sort: it stops as soon as at most `k` runs
//! are left. With `k = 1` the last level is merged and written like every
//! other ([`external_sort_by_key`]); with `k` the fan-in it stops at the
//! last level and leaves that merge to its consumer, which reads the runs
//! through a [`Merge`] instead of a written stream.
//! [`last_level_runs`] says ahead of time how many runs that is.

use std::cmp::Ordering;

use usj_geom::{sort_by_key_then, Item, Rect};

use crate::error::Result;
use crate::merge::{Merge, Run};
use crate::page::PAGE_SIZE;
use crate::sim::SimEnv;
use crate::stats::CpuOp;
use crate::stream::{ItemStream, ItemStreamWriter};

/// Statistics describing one external sort.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SortStats {
    /// Number of initial sorted runs formed.
    pub initial_runs: u64,
    /// Number of written merge passes (0 if the runs formed were few
    /// enough).
    pub merge_passes: u64,
    /// Records sorted.
    pub items: u64,
    /// Bounding box of all sorted records, gathered for free during run
    /// formation (SSSJ uses it to size the sweep structure's strips).
    pub bbox: Rect,
}

/// Sorts `input` by ascending lower y-coordinate (the plane-sweep order).
///
/// Uses the key-accelerated path: the packed [`Item::sweep_key`] radix key is
/// precomputed once per record, so the hot sort loop compares single `u64`
/// values instead of walking the multi-field float comparator.
pub fn external_sort_by_lower_y(env: &mut SimEnv, input: &ItemStream) -> Result<ItemStream> {
    external_sort_by_key(env, input, |it| it.sweep_key(), Item::cmp_by_lower_y).map(|(s, _)| s)
}

/// One record of the keyed run buffer: the precomputed key and the record.
type SortEntry = (u64, Item);

/// Records in one run formed under `memory_limit`: a keyed run buffer of
/// half the memory, at least 1 024 records. Capacity is sized by the
/// *keyed* entry (32 bytes — honest accounting for the resident keys).
fn run_capacity(memory_limit: usize) -> usize {
    ((memory_limit / 2) / std::mem::size_of::<SortEntry>()).max(1024)
}

/// Fan-in of a merge of `pages_per_block`-page runs under `memory_limit`:
/// one logical block per run in half the memory, at least two.
pub fn merge_fan_in(memory_limit: usize, pages_per_block: u64) -> usize {
    ((memory_limit / 2) / (pages_per_block as usize * PAGE_SIZE)).max(2)
}

/// The runs of the last merge of a sort of `n` records in
/// `pages_per_block`-page blocks under `memory_limit`: what
/// [`sort_to_runs`] leaves with `k` the [`merge_fan_in`]. One when run
/// formation makes a single run (or none, for an empty input).
pub fn last_level_runs(n: u64, memory_limit: usize, pages_per_block: u64) -> u64 {
    let fan_in = merge_fan_in(memory_limit, pages_per_block) as u64;
    let mut runs = n.div_ceil(run_capacity(memory_limit) as u64).max(1);
    while runs > fan_in {
        runs = runs.div_ceil(fan_in);
    }
    runs
}

/// Sorts `input` by `(key, cmp)`: the precomputed `u64` key decides first and
/// `cmp` breaks key collisions, so `cmp` must refine the key's order (true
/// for any comparator whose leading fields the key packs). Returns the
/// sorted stream and the sort statistics: [`sort_to_runs`] with `k = 1`.
pub fn external_sort_by_key<K, F>(
    env: &mut SimEnv,
    input: &ItemStream,
    key: K,
    cmp: F,
) -> Result<(ItemStream, SortStats)>
where
    K: Fn(&Item) -> u64 + Copy,
    F: Fn(&Item, &Item) -> Ordering + Copy,
{
    let (mut runs, stats) = sort_to_runs(env, input, key, cmp, 1)?;
    Ok((runs.pop().expect("one run is left"), stats))
}

/// Sorts `input` by `(key, cmp)` (see [`external_sort_by_key`]) into at
/// most `k` sorted runs of `input`'s block size: forms the runs, then
/// merges written levels while more than `k` are left. An empty input
/// leaves one empty run. Their merge in the same order is the sorted
/// stream `k = 1` would have written, ties included.
pub fn sort_to_runs<K, F>(
    env: &mut SimEnv,
    input: &ItemStream,
    key: K,
    cmp: F,
    k: usize,
) -> Result<(Vec<ItemStream>, SortStats)>
where
    K: Fn(&Item) -> u64 + Copy,
    F: Fn(&Item, &Item) -> Ordering + Copy,
{
    let pages_per_block = input.pages_per_block();
    let mut stats = SortStats {
        items: input.len(),
        bbox: Rect::empty(),
        ..SortStats::default()
    };

    // Run formation: fill half the internal memory, sort, write out. The run
    // buffer (keys + records) is the sort's dominant working set, so it is
    // claimed from the memory governor up front (the stream reader and run
    // writer buffers charge themselves).
    let entry_bytes = std::mem::size_of::<SortEntry>();
    let run_capacity = run_capacity(env.memory_limit);
    let buffer_capacity = run_capacity.min(input.len() as usize + 1);
    let run_reservation = env.memory.try_reserve(buffer_capacity * entry_bytes)?;
    let mut runs: Vec<ItemStream> = Vec::new();
    let mut reader = input.reader();
    let mut buffer: Vec<SortEntry> = Vec::with_capacity(buffer_capacity);
    loop {
        let item = reader.next(env)?;
        if let Some(it) = item {
            stats.bbox = stats.bbox.union(&it.rect);
            buffer.push((key(&it), it));
        }
        if buffer.len() >= run_capacity || (item.is_none() && !buffer.is_empty()) {
            sort_entries_in_memory(env, &mut buffer, cmp);
            let mut w = ItemStreamWriter::new(env, pages_per_block);
            for (_, it) in &buffer {
                w.push(env, *it)?;
            }
            runs.push(w.finish(env)?);
            buffer.clear();
        }
        if item.is_none() {
            break;
        }
    }
    drop(run_reservation);
    stats.initial_runs = runs.len() as u64;
    if runs.is_empty() {
        runs.push(ItemStreamWriter::new(env, pages_per_block).finish(env)?);
    }

    let (runs, merge_passes) = merge_levels(env, runs, key, cmp, pages_per_block, k)?;
    stats.merge_passes = merge_passes;
    Ok((runs, stats))
}

/// Merges `runs`, each already sorted by `(key, cmp)`, into one sorted
/// stream of `pages_per_block`-page blocks, returning it and the number of
/// merge passes performed.
///
/// This is the merge phase of [`external_sort_by_key`], for callers whose
/// inputs are sorted to begin with (an LSM compaction folding sorted tiers).
/// No run yields an empty stream; a single run is returned as it is,
/// without a copy.
pub fn merge_sorted_runs<K, F>(
    env: &mut SimEnv,
    runs: Vec<ItemStream>,
    key: K,
    cmp: F,
    pages_per_block: u64,
) -> Result<(ItemStream, u64)>
where
    K: Fn(&Item) -> u64 + Copy,
    F: Fn(&Item, &Item) -> Ordering + Copy,
{
    let (mut runs, merge_passes) = merge_levels(env, runs, key, cmp, pages_per_block, 1)?;
    match runs.pop() {
        Some(run) => Ok((run, merge_passes)),
        None => Ok((ItemStreamWriter::new(env, pages_per_block).finish(env)?, 0)),
    }
}

/// The merge levels of the sort: while more than `k` runs are left, a
/// k-way [`Merge`] of each [`merge_fan_in`] consecutive runs (a lone run
/// at the end passes as it is) is written as one run of the next level.
/// Returns the runs left and the levels written.
fn merge_levels<K, F>(
    env: &mut SimEnv,
    mut runs: Vec<ItemStream>,
    key: K,
    cmp: F,
    pages_per_block: u64,
    k: usize,
) -> Result<(Vec<ItemStream>, u64)>
where
    K: Fn(&Item) -> u64 + Copy,
    F: Fn(&Item, &Item) -> Ordering + Copy,
{
    let fan_in = merge_fan_in(env.memory_limit, pages_per_block);
    let mut merge_passes = 0;
    while runs.len() > k.max(1) {
        merge_passes += 1;
        let mut next_level: Vec<ItemStream> = Vec::new();
        for group in runs.chunks(fan_in) {
            if group.len() == 1 {
                next_level.push(group[0].clone());
                continue;
            }
            let runs = group.iter().map(Run::device).collect();
            let out = ItemStreamWriter::new(env, pages_per_block);
            next_level.push(Merge::new(runs, key, cmp).write(env, out)?);
        }
        runs = next_level;
    }
    Ok((runs, merge_passes))
}

/// Sorts a keyed run buffer by `(key, cmp)` through the workspace's one
/// keyed in-memory sort ([`sort_by_key_then`]), charged by [`charge_sort`]
/// — how the host orders the buffer changes wall-clock, not the simulated
/// cost model.
fn sort_entries_in_memory<F>(env: &mut SimEnv, buffer: &mut [SortEntry], cmp: F)
where
    F: Fn(&Item, &Item) -> Ordering + Copy,
{
    charge_sort(env, buffer.len() as u64);
    sort_by_key_then(buffer, |e| e.0, |a, b| cmp(&a.1, &b.1));
}

/// Charges the deterministic CPU counters of an in-memory sort of `n`
/// records: `n` times the bit length of `n` comparisons and `n` record
/// moves.
pub fn charge_sort(env: &mut SimEnv, n: u64) {
    if n > 1 {
        let log = (64 - n.leading_zeros()) as u64;
        env.charge(CpuOp::Compare, n * log);
        env.charge(CpuOp::ItemMove, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use usj_geom::Rect;

    fn env_with_memory(bytes: usize) -> SimEnv {
        SimEnv::new(MachineConfig::machine3()).with_memory_limit(bytes)
    }

    fn random_items(n: u32, seed: u64) -> Vec<Item> {
        // Simple deterministic LCG so the io crate does not need a rand
        // dependency for its own tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((state >> 33) % 1_000_000) as f32 / 100.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((state >> 33) % 1_000_000) as f32 / 100.0;
                Item::new(Rect::from_coords(x, y, x + 1.0, y + 1.0), i)
            })
            .collect()
    }

    fn is_sorted_by_y(items: &[Item]) -> bool {
        items.windows(2).all(|w| w[0].rect.lo.y <= w[1].rect.lo.y)
    }

    #[test]
    fn sorts_small_input_in_one_run() {
        let mut env = env_with_memory(4 * 1024 * 1024);
        let data = random_items(1000, 1);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        let (sorted, stats) =
            external_sort_by_key(&mut env, &s, Item::sweep_key, Item::cmp_by_lower_y).unwrap();
        let out = sorted.read_all(&mut env).unwrap();
        assert_eq!(out.len(), data.len());
        assert!(is_sorted_by_y(&out));
        assert_eq!(stats.initial_runs, 1);
        assert_eq!(stats.merge_passes, 0);
        // The bounding box gathered during run formation covers every record.
        for it in &out {
            assert!(stats.bbox.contains(&it.rect));
        }
    }

    #[test]
    fn sorts_multi_run_input() {
        // Memory limit small enough to force several runs (run capacity is
        // clamped to >= 1024 items, so use more items than that).
        let mut env = env_with_memory(64 * 1024);
        let data = random_items(10_000, 2);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();
        let (sorted, stats) =
            external_sort_by_key(&mut env, &s, Item::sweep_key, Item::cmp_by_lower_y).unwrap();
        let out = sorted.read_all(&mut env).unwrap();
        assert_eq!(out.len(), data.len());
        assert!(is_sorted_by_y(&out));
        assert!(
            stats.initial_runs > 1,
            "expected multiple runs, got {stats:?}"
        );
        assert!(stats.merge_passes >= 1);
        // The multiset of ids must be preserved.
        let mut in_ids: Vec<u32> = data.iter().map(|i| i.id).collect();
        let mut out_ids: Vec<u32> = out.iter().map(|i| i.id).collect();
        in_ids.sort_unstable();
        out_ids.sort_unstable();
        assert_eq!(in_ids, out_ids);
    }

    #[test]
    fn empty_and_single_item_streams() {
        let mut env = env_with_memory(1024 * 1024);
        let empty = ItemStream::from_items(&mut env, &[]).unwrap();
        let sorted = external_sort_by_lower_y(&mut env, &empty).unwrap();
        assert!(sorted.is_empty());

        let one = ItemStream::from_items(&mut env, &random_items(1, 3)).unwrap();
        let sorted = external_sort_by_lower_y(&mut env, &one).unwrap();
        assert_eq!(sorted.len(), 1);
    }

    #[test]
    fn custom_comparator_sorts_by_id_descending() {
        let mut env = env_with_memory(1024 * 1024);
        let data = random_items(500, 4);
        let s = ItemStream::from_items(&mut env, &data).unwrap();
        let (sorted, _) =
            external_sort_by_key(&mut env, &s, |_| 0, |a, b| b.id.cmp(&a.id)).unwrap();
        let out = sorted.read_all(&mut env).unwrap();
        assert!(out.windows(2).all(|w| w[0].id >= w[1].id));
    }

    #[test]
    fn sorting_charges_cpu_and_io() {
        let mut env = env_with_memory(64 * 1024);
        let data = random_items(5_000, 5);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();
        let m = env.begin();
        let _ = external_sort_by_lower_y(&mut env, &s).unwrap();
        let (io, cpu) = env.since(&m);
        assert!(io.pages_read > 0);
        assert!(io.pages_written > 0);
        assert!(cpu.get(CpuOp::Compare) > 0);
        assert!(cpu.get(CpuOp::HeapOp) > 0);
    }

    #[test]
    fn the_planned_last_level_is_what_the_sort_leaves() {
        // Limits from the smallest a sort of each block size runs in.
        let kb = 1024;
        for (limit, pages_per_block) in [(64, 1), (64, 2), (96, 1), (128, 2), (256, 4), (640, 8)] {
            let limit = limit * kb;
            for n in [0, 1, 1_023, 1_025, 5_000, 20_000, 45_000] {
                let what = format!("n {n}, limit {limit}, {pages_per_block}-page blocks");
                let mut env = env_with_memory(limit);
                let data = random_items(n, 7);
                let s =
                    ItemStream::from_items_with_block(&mut env, &data, pages_per_block).unwrap();
                let fan_in = merge_fan_in(limit, pages_per_block);
                let (runs, stats) =
                    sort_to_runs(&mut env, &s, Item::sweep_key, Item::cmp_by_lower_y, fan_in)
                        .unwrap();
                assert_eq!(
                    runs.len() as u64,
                    last_level_runs(n as u64, limit, pages_per_block),
                    "{what}"
                );

                // Their merge is the stream the sort writes with k = 1, one
                // written pass later unless the runs formed were the last
                // level.
                let (sorted, written) =
                    external_sort_by_key(&mut env, &s, Item::sweep_key, Item::cmp_by_lower_y)
                        .unwrap();
                let last_pass = u64::from(runs.len() > 1);
                assert_eq!(
                    written.merge_passes,
                    stats.merge_passes + last_pass,
                    "{what}"
                );
                let mut merge = Merge::new(
                    runs.iter().map(Run::device).collect(),
                    Item::sweep_key,
                    Item::cmp_by_lower_y,
                );
                let merged: Vec<Item> =
                    std::iter::from_fn(|| merge.next(&mut env).unwrap()).collect();
                assert_eq!(merged, sorted.read_all(&mut env).unwrap(), "{what}");
            }
        }
    }

    #[test]
    fn already_sorted_input_stays_sorted() {
        let mut env = env_with_memory(64 * 1024);
        let mut data = random_items(3_000, 6);
        data.sort_unstable_by(Item::cmp_by_lower_y);
        let s = ItemStream::from_items_with_block(&mut env, &data, 2).unwrap();
        let sorted = external_sort_by_lower_y(&mut env, &s).unwrap();
        assert_eq!(sorted.read_all(&mut env).unwrap(), data);
    }
}
