//! LSM-style live dataset handles and their generation snapshots.
//!
//! A [`LiveDataset`] layers four tiers, youngest to oldest:
//!
//! 1. the gauged in-memory [`Memtable`] of not-yet-persisted inserts,
//! 2. zero or more **frozen flush batches** — sorted memtable contents
//!    awaiting their device write, still holding their gauge reservation,
//! 3. zero or more sorted **delta runs** on the device (each one persisted
//!    batch, sweep-key ordered),
//! 4. the immutable **base run** with its bulk-loaded R-tree.
//!
//! A dataset that never receives appends — a *sealed* one — is just the
//! base run and its tree: that is what the service's registered datasets
//! are. [`LiveDataset::from_stream`] builds either kind.
//!
//! Maintenance — persisting a frozen batch as a delta run, and merge
//! compaction folding base + deltas into a new base with a rebuilt R-tree
//! — is exposed as **split phases** so it can run off the appending thread:
//!
//! * [`LiveDataset::freeze`] moves the memtable into the flush queue
//!   (no I/O, no environment — an append-path operation);
//! * [`LiveDataset::begin_flush`] / [`LiveDataset::run_flush`] /
//!   [`LiveDataset::publish_flush`] persist the oldest frozen batch — only
//!   `run_flush` touches the device, and it needs no `&self`, so a
//!   background worker can hold the storage environment without holding
//!   the dataset;
//! * [`LiveDataset::begin_compaction`] / [`LiveDataset::run_compaction`] /
//!   [`LiveDataset::publish_compaction`] do the same for the merge: the
//!   plan clones immutable run handles, the merge runs against them on the
//!   environment alone, and publication atomically swaps the new base in —
//!   keeping any delta runs that were flushed *while* the merge ran.
//!
//! The synchronous [`LiveDataset::append`] / [`LiveDataset::flush`] /
//! [`LiveDataset::compact`] entry points compose exactly these phases
//! inline, so inline and background maintenance execute identical code and
//! produce identical runs.
//!
//! Reads never lock ingestion out: [`LiveDataset::snapshot`] clones the
//! immutable run handles, the frozen batches, and a sorted copy of the
//! memtable. Device pages of persisted runs are never rewritten (compaction
//! allocates new ones), so a snapshot stays valid however far ingestion
//! advances — and it works unchanged on a forked worker environment layered
//! over a device snapshot, which is how the service executes every query
//! over a live dataset.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use usj_core::{CatalogedInput, JoinInput, MemRun, SnapshotRun};
use usj_geom::{Item, Rect};
use usj_io::{extsort, ItemStream, ItemStreamWriter, PageId, SimEnv, PAGE_SIZE};
use usj_rtree::bulk::{bulk_load_merged, BulkLoadConfig, MergedLoad};
use usj_rtree::RTree;

use crate::manifest::{self, Manifest, RootPointer, RunRecord};
use crate::memtable::{frozen_sorted, Memtable};
use crate::{LiveError, Result};

/// Logical block size (in pages) of the runs of a dataset that receives
/// appends: the base [`create`](LiveDataset::create) builds, every delta
/// run and every compacted base.
///
/// Much smaller than [`usj_io::stream::DEFAULT_PAGES_PER_BLOCK`] on purpose:
/// a sweep over a tiered input merges its runs, and each run's reader
/// claims one block of records from the memory gauge per refill. A
/// dataset mid-ingest has one reader per run, all inside one worker's
/// admission budget beside the sweep structures, so small blocks keep the
/// merge's footprint small and steady at the cost of a few more reads. A
/// sealed dataset has one run, and keeps the block size of the stream it
/// was built from ([`from_stream`](LiveDataset::from_stream)).
pub const LIVE_PAGES_PER_BLOCK: u64 = 2;

/// Tuning knobs of a live dataset.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Memtable footprint (bytes) that triggers a flush to a delta run.
    /// The footprint compared with it is the memtable's reserved capacity
    /// ([`Memtable::bytes`](crate::Memtable::bytes)), not its length, so a
    /// freeze fires at the first capacity doubling past the threshold: at
    /// 64 KiB, once the 2 049th item is buffered (capacity 4 096).
    pub flush_threshold_bytes: usize,
    /// Delta-run count that triggers automatic compaction (0 disables
    /// auto-compaction; [`LiveDataset::compact`] can still be called).
    pub compact_after_deltas: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            flush_threshold_bytes: 256 * 1024,
            compact_after_deltas: 4,
        }
    }
}

/// A frozen memtable awaiting its device write: the items (already sorted
/// by sweep key) plus the gauge reservation they still hold. The
/// reservation transfers from the memtable via
/// [`MemoryReservation::take`](usj_io::MemoryReservation::take), so the
/// bytes keep charging the ingestion gauge until [`publish_flush`]
/// (which drops the batch) persists them — admission control never loses
/// sight of buffered-but-unpersisted data.
///
/// [`publish_flush`]: LiveDataset::publish_flush
#[derive(Debug)]
struct FlushBatch {
    items: Arc<Vec<Item>>,
    bbox: Rect,
    reservation: usj_io::MemoryReservation,
}

impl FlushBatch {
    fn bytes(&self) -> usize {
        self.reservation.bytes()
    }
}

/// A claimed flush: an immutable handle on the oldest frozen batch, enough
/// to write its delta run without touching the dataset. Produced by
/// [`LiveDataset::begin_flush`], consumed by [`LiveDataset::publish_flush`].
#[derive(Debug, Clone)]
pub struct FlushJob {
    items: Arc<Vec<Item>>,
    bbox: Rect,
}

impl FlushJob {
    /// Items the flush will persist (sorted by sweep key).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when the job carries no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A claimed compaction: immutable handles of the runs the merge will fold
/// — the base first, then the delta runs oldest to youngest — the base's
/// R-tree, and the bounding box of their records, taken from the tiers' own
/// boxes. Produced by [`LiveDataset::begin_compaction`] (which marks the
/// dataset as compacting so no second merge claims the same runs), consumed
/// by [`LiveDataset::publish_compaction`] / [`LiveDataset::abort_compaction`].
#[derive(Debug, Clone)]
pub struct CompactionPlan {
    runs: Vec<ItemStream>,
    /// The tree of `runs[0]`: its leaves hold the base in the loader's order.
    tree: RTree,
    bbox: Rect,
}

impl CompactionPlan {
    /// Number of delta runs this plan folds into the new base.
    pub fn delta_count(&self) -> usize {
        self.runs.len() - 1
    }

    /// Total records the merge will process.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(ItemStream::len).sum()
    }

    /// Returns `true` when the plan covers no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The result of a finished merge, ready to publish: the new base run, its
/// rebuilt R-tree and bounding box, and how many delta runs it folded.
#[derive(Debug)]
pub struct CompactionOutput {
    base: ItemStream,
    tree: RTree,
    bbox: Rect,
    merged_items: u64,
    folded_deltas: usize,
}

/// Counters of one live dataset's ingestion history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Items appended since creation.
    pub appended: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Items written to delta runs by flushes.
    pub flushed_items: u64,
    /// Items merged into new bases by compactions.
    pub compacted_items: u64,
}

/// Durable-mode bookkeeping of a live dataset: the fixed root-pointer
/// page, the write epoch, and memoized per-run checksums (each persisted
/// run's pages are immutable, so its checksums are computed by read-back
/// once and reused by every later manifest write).
#[derive(Debug)]
struct DurableState {
    root: PageId,
    epoch: u64,
    memo: HashMap<(PageId, u64), Vec<u64>>,
}

/// Key of the checksum memo: a persisted run is identified by its first
/// extent page and its length (pages are never rewritten, so the pair is
/// stable and unique per run).
fn run_key(stream: &ItemStream) -> (PageId, u64) {
    (
        stream.extents().first().copied().unwrap_or(u64::MAX),
        stream.len(),
    )
}

/// What [`LiveDataset::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation recorded in the recovered manifest.
    pub generation: u64,
    /// Manifest-write epoch of the recovered root pointer.
    pub epoch: u64,
    /// Runs (base + deltas) that passed checksum verification and were
    /// kept.
    pub verified_runs: usize,
    /// Delta runs dropped because a checksum mismatch was found (the
    /// mismatching run and everything younger — publication order makes
    /// younger runs unreliable once an older one is damaged).
    pub dropped_deltas: usize,
}

/// An LSM-style live dataset: immutable base + delta runs + frozen flush
/// batches + memtable.
#[derive(Debug)]
pub struct LiveDataset {
    name: String,
    generation: u64,
    /// Sweep-key-sorted persisted runs: the base first (its box is a
    /// placeholder when it is empty), then the delta runs oldest first.
    runs: Vec<SnapshotRun>,
    /// The base run's R-tree.
    tree: RTree,
    flushing: VecDeque<FlushBatch>,
    memtable: Memtable,
    compacting: bool,
    config: LiveConfig,
    stats: LiveStats,
    /// Durable-mode state; `None` for the default in-memory-only dataset.
    durable: Option<DurableState>,
}

impl LiveDataset {
    /// Creates a live dataset from an initial batch of records, written as a
    /// stream of [`LIVE_PAGES_PER_BLOCK`]-page blocks and prepared by
    /// [`from_stream`](LiveDataset::from_stream).
    pub fn create(
        env: &mut SimEnv,
        name: &str,
        base_items: &[Item],
        config: LiveConfig,
    ) -> Result<Self> {
        let stream = ItemStream::from_items_with_block(env, base_items, LIVE_PAGES_PER_BLOCK)?;
        Self::from_stream(env, name, &stream, config)
    }

    /// Creates a live dataset whose base run is `stream` externally sorted
    /// by sweep key, with the R-tree bulk-loaded over it. The sorted run
    /// keeps `stream`'s block size. An empty stream gets a unit placeholder
    /// box.
    pub fn from_stream(
        env: &mut SimEnv,
        name: &str,
        stream: &ItemStream,
        config: LiveConfig,
    ) -> Result<Self> {
        let (base, sort_stats) =
            extsort::external_sort_by_key(env, stream, Item::sweep_key, Item::cmp_by_lower_y)?;
        let bbox = if sort_stats.bbox.is_empty() {
            Rect::from_coords(0.0, 0.0, 1.0, 1.0)
        } else {
            sort_stats.bbox
        };
        let tree = RTree::bulk_load_stream(env, &base)?;
        let runs = vec![SnapshotRun::new(base, bbox)];
        Ok(Self::assemble(env, name, 0, runs, tree, config))
    }

    /// A dataset of published `runs` (base first) and the base's `tree`,
    /// with empty volatile tiers and no durability.
    fn assemble(
        env: &SimEnv,
        name: &str,
        generation: u64,
        runs: Vec<SnapshotRun>,
        tree: RTree,
        config: LiveConfig,
    ) -> Self {
        LiveDataset {
            name: name.to_string(),
            generation,
            runs,
            tree,
            flushing: VecDeque::new(),
            memtable: Memtable::new(env),
            compacting: false,
            config,
            stats: LiveStats::default(),
            durable: None,
        }
    }

    /// Creates a live dataset like [`create`](LiveDataset::create) and
    /// immediately makes it durable: allocates the root-pointer page and
    /// writes the first manifest. Returns the dataset and the root page a
    /// later [`recover`](LiveDataset::recover) starts from.
    pub fn create_durable(
        env: &mut SimEnv,
        name: &str,
        base_items: &[Item],
        config: LiveConfig,
    ) -> Result<(Self, PageId)> {
        let mut ds = Self::create(env, name, base_items, config)?;
        let root = ds.enable_durability(env)?;
        Ok((ds, root))
    }

    /// Makes an existing dataset durable: allocates the fixed root-pointer
    /// page and writes a manifest of the current published state. A no-op
    /// (returning the existing root) when already durable.
    pub fn enable_durability(&mut self, env: &mut SimEnv) -> Result<PageId> {
        if let Some(d) = &self.durable {
            return Ok(d.root);
        }
        let root = env.device.allocate(1);
        self.durable = Some(DurableState {
            root,
            epoch: 0,
            memo: HashMap::new(),
        });
        self.write_manifest(env)?;
        Ok(root)
    }

    /// Returns `true` when the dataset persists manifests.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The root-pointer page of a durable dataset.
    pub fn durable_root(&self) -> Option<PageId> {
        self.durable.as_ref().map(|d| d.root)
    }

    /// Manifest-write epoch of a durable dataset (0 before the first
    /// successful write).
    pub fn durable_epoch(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.epoch)
    }

    /// Persists the current *published* state — base run + delta runs,
    /// with per-block checksums — as a new manifest body, then atomically
    /// swings the root pointer to it. The root write is the commit point:
    /// appends acknowledged before it are durable only once it completes.
    ///
    /// The memtable and frozen flush batches are deliberately *not*
    /// covered: they are the volatile tiers a crash loses (see the failure
    /// model in ARCHITECTURE.md).
    ///
    /// The body goes to freshly allocated pages, so a torn body write
    /// damages nothing (the root still points at the previous manifest)
    /// and the caller may simply retry.
    ///
    /// # Panics
    ///
    /// Panics when the dataset is not durable — call
    /// [`enable_durability`](LiveDataset::enable_durability) first.
    pub fn write_manifest(&mut self, env: &mut SimEnv) -> Result<()> {
        let phase = env.obs_phase("live.manifest");
        let durable = self
            .durable
            .as_mut()
            .expect("write_manifest requires enable_durability");
        // Checksums by read-back, memoized per run: persisted pages are
        // immutable, so each run pays its verify-after-write scan once.
        let mut records = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            let key = run_key(run.stream());
            let checksums = match durable.memo.get(&key) {
                Some(c) => c.clone(),
                None => {
                    let fresh = manifest::run_checksums(env, run.stream())?;
                    durable.memo.insert(key, fresh.clone());
                    fresh
                }
            };
            records.push(RunRecord {
                run: run.clone(),
                checksums,
            });
        }
        // Drop memo entries for runs no longer referenced (old bases and
        // folded deltas) so the memo tracks the live run set.
        let live: std::collections::HashSet<(PageId, u64)> =
            records.iter().map(|r| run_key(r.run.stream())).collect();
        durable.memo.retain(|k, _| live.contains(k));
        let mut records = records.into_iter();
        let body = Manifest {
            generation: self.generation,
            base: records.next().expect("base record always present"),
            deltas: records.collect(),
        }
        .encode();
        let pages = (body.len() as u64).div_ceil(PAGE_SIZE as u64).max(1);
        let first = env.device.allocate(pages);
        env.device.write_pages(first, pages, &body)?;
        let epoch = durable.epoch + 1;
        let root = RootPointer {
            epoch,
            first,
            pages,
            bytes: body.len() as u64,
        };
        env.device.write_page(durable.root, &root.encode())?;
        durable.epoch = epoch;
        env.obs_close(phase);
        Ok(())
    }

    /// Rebuilds the last *published* durable state from a device: reads
    /// the root pointer, follows it to the manifest, verifies every run's
    /// checksums, and reconstructs the dataset (empty memtable, no frozen
    /// batches — those tiers are volatile by contract).
    ///
    /// A damaged **base** is unrecoverable ([`LiveError::Corrupted`]).
    /// A damaged **delta** rolls back: that run and every younger delta
    /// are dropped, restoring the newest fully-intact prefix of the
    /// publication order. The report says what was kept and dropped.
    ///
    /// The old root page usually lives in the restart's *read-only* device
    /// snapshot, so the recovered dataset is re-homed: a fresh root page
    /// is allocated on `env` and the verified state is immediately
    /// re-manifested there (epoch bumped past the recovered one). Callers
    /// that will crash again must track the new root via
    /// [`durable_root`](LiveDataset::durable_root).
    pub fn recover(
        env: &mut SimEnv,
        name: &str,
        root: PageId,
        config: LiveConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let phase = env.obs_phase("live.recover");
        let ptr = RootPointer::decode(&env.device.read_page(root)?)?;
        let raw = env.device.read_pages(ptr.first, ptr.pages)?;
        let body = raw
            .get(..ptr.bytes as usize)
            .ok_or_else(|| LiveError::Corrupted("manifest shorter than its root claims".into()))?;
        let m = Manifest::decode(body)?;
        if !manifest::verify_run(env, &m.base)? {
            return Err(LiveError::Corrupted(format!(
                "base run checksum mismatch (generation {})",
                m.generation
            )));
        }
        let mut memo = HashMap::new();
        memo.insert(run_key(m.base.run.stream()), m.base.checksums.clone());
        let mut runs = Vec::with_capacity(1 + m.deltas.len());
        runs.push(m.base.run);
        let mut dropped = 0usize;
        for (i, d) in m.deltas.iter().enumerate() {
            if manifest::verify_run(env, d)? {
                memo.insert(run_key(d.run.stream()), d.checksums.clone());
                runs.push(d.run.clone());
            } else {
                // Roll back this delta and everything younger: deltas
                // publish in order, so the intact prefix is the newest
                // consistent published state.
                dropped = m.deltas.len() - i;
                break;
            }
        }
        let verified_runs = runs.len();
        let tree = RTree::bulk_load_stream(env, runs[0].stream())?;
        let mut ds = Self::assemble(env, name, m.generation, runs, tree, config);
        ds.durable = Some(DurableState {
            root: env.device.allocate(1),
            epoch: ptr.epoch,
            memo,
        });
        // Re-commit the verified state on the new root, so the next crash
        // recovers from *this* incarnation (and a rollback is made
        // permanent rather than rediscovered every restart).
        ds.write_manifest(env)?;
        env.obs_close(phase);
        Ok((
            ds,
            RecoveryReport {
                generation: m.generation,
                epoch: ptr.epoch,
                verified_runs,
                dropped_deltas: dropped,
            },
        ))
    }

    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Generation counter: bumped by every published flush and compaction.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total records visible to a snapshot taken now.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(|r| r.stream().len()).sum::<u64>()
            + self
                .flushing
                .iter()
                .map(|b| b.items.len() as u64)
                .sum::<u64>()
            + self.memtable.len() as u64
    }

    /// Returns `true` when no record is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bounding box of everything visible (base, deltas, frozen batches and
    /// memtable).
    pub fn bbox(&self) -> Rect {
        let mut bbox = self.runs[0].bbox();
        for d in self.delta_runs() {
            bbox = bbox.union(&d.bbox());
        }
        for b in &self.flushing {
            if !b.bbox.is_empty() {
                bbox = bbox.union(&b.bbox);
            }
        }
        if !self.memtable.bbox().is_empty() {
            bbox = bbox.union(&self.memtable.bbox());
        }
        bbox
    }

    /// The base run's R-tree (rebuilt by compaction; deltas and memtable
    /// are *not* indexed — joins merge them by sweep key).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Delta runs currently awaiting compaction.
    pub fn delta_runs(&self) -> &[SnapshotRun] {
        &self.runs[1..]
    }

    /// Reads back every record in the *published* tiers (base run plus
    /// delta runs) — exactly the set a
    /// [`write_manifest`](LiveDataset::write_manifest) covers and a crash
    /// preserves. The volatile tiers (memtable, frozen flush batches) are
    /// deliberately excluded; recovery oracles compare against this.
    pub fn published_items(&self, env: &mut SimEnv) -> Result<Vec<Item>> {
        let mut out = Vec::new();
        for run in &self.runs {
            out.extend(run.stream().read_all(env)?);
        }
        Ok(out)
    }

    /// Frozen flush batches awaiting their device write.
    pub fn pending_flush_batches(&self) -> usize {
        self.flushing.len()
    }

    /// Bytes held by frozen flush batches (still charged to the gauge).
    pub fn pending_flush_bytes(&self) -> usize {
        self.flushing.iter().map(FlushBatch::bytes).sum()
    }

    /// Items currently buffered in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Returns `true` while a claimed compaction is in flight
    /// ([`begin_compaction`](LiveDataset::begin_compaction) has run but
    /// neither publish nor abort has).
    pub fn is_compacting(&self) -> bool {
        self.compacting
    }

    /// Ingestion counters.
    pub fn stats(&self) -> LiveStats {
        self.stats
    }

    /// Returns `true` when the memtable has reached the flush threshold.
    pub fn wants_freeze(&self) -> bool {
        !self.memtable.is_empty() && self.memtable.bytes() >= self.config.flush_threshold_bytes
    }

    /// Returns `true` when the delta-run count has reached the configured
    /// compaction threshold and no merge is already in flight.
    pub fn wants_compaction(&self) -> bool {
        self.config.compact_after_deltas > 0
            && self.delta_runs().len() >= self.config.compact_after_deltas
            && !self.compacting
    }

    /// Returns `true` while any maintenance is outstanding: a threshold-
    /// crossed memtable, frozen batches awaiting their write, a merge in
    /// flight, or a delta count at the compaction threshold. The background
    /// worker's quiesce loop drains until this is `false`.
    pub fn maintenance_pending(&self) -> bool {
        self.wants_freeze()
            || !self.flushing.is_empty()
            || self.compacting
            || self.wants_compaction()
    }

    /// Appends a batch of records.
    ///
    /// Inserts are buffered in the gauged memtable. In this synchronous
    /// entry point, crossing the flush threshold runs the whole maintenance
    /// pipeline inline ([`flush`](LiveDataset::flush)): freeze, persist,
    /// and compact if due — the pre-background behaviour. Callers that own
    /// a background worker use [`append_buffered`](LiveDataset::append_buffered)
    /// instead and let the worker drive the same phases.
    pub fn append(&mut self, env: &mut SimEnv, items: &[Item]) -> Result<()> {
        for &item in items {
            self.memtable.insert(item)?;
            self.stats.appended += 1;
            if self.wants_freeze() {
                self.flush(env)?;
            }
        }
        Ok(())
    }

    /// Appends records touching *only* the memtable (and, past the flush
    /// threshold, the freeze queue): no device I/O, no environment — the
    /// append path of background-maintenance mode. Returns `true` when the
    /// call left maintenance pending (the caller should nudge its worker).
    pub fn append_buffered(&mut self, items: &[Item]) -> Result<bool> {
        for &item in items {
            self.memtable.insert(item)?;
            self.stats.appended += 1;
            if self.wants_freeze() {
                self.freeze();
            }
        }
        Ok(self.maintenance_pending())
    }

    /// Freezes the memtable into the flush queue: its items (sorted), bbox
    /// and gauge reservation move into a `FlushBatch` awaiting the device
    /// write, and the memtable is left empty for new inserts. No I/O, no
    /// environment. Returns `false` (and does nothing) when the memtable is
    /// empty.
    pub fn freeze(&mut self) -> bool {
        if self.memtable.is_empty() {
            return false;
        }
        let (items, bbox, reservation) = self.memtable.freeze();
        self.flushing.push_back(FlushBatch {
            items: Arc::new(items),
            bbox,
            reservation,
        });
        true
    }

    /// Claims the oldest frozen batch for persisting: an immutable handle
    /// good for [`run_flush`](LiveDataset::run_flush) without `&self`.
    /// Returns `None` when no batch is frozen.
    pub fn begin_flush(&self) -> Option<FlushJob> {
        self.flushing.front().map(|b| FlushJob {
            items: Arc::clone(&b.items),
            bbox: b.bbox,
        })
    }

    /// Writes a claimed batch as a sorted delta run on `env`'s device
    /// (charged I/O). Needs no dataset access — this is the phase a
    /// background worker runs while appends and snapshots proceed.
    pub fn run_flush(env: &mut SimEnv, job: &FlushJob) -> Result<ItemStream> {
        let phase = env.obs_phase("live.flush");
        let mut writer = ItemStreamWriter::new(env, LIVE_PAGES_PER_BLOCK);
        for &item in job.items.iter() {
            writer.push(env, item)?;
        }
        let run = writer.finish(env)?;
        env.obs_close(phase);
        Ok(run)
    }

    /// Publishes a persisted flush: pops the frozen batch (releasing its
    /// gauge reservation), appends the delta run, and bumps the generation.
    ///
    /// Flushes publish in freeze order: the job must be the one claimed
    /// from the current queue front (there is one maintenance actor by
    /// construction — the inline caller or the single background worker).
    pub fn publish_flush(&mut self, job: FlushJob, run: ItemStream) {
        let batch = self
            .flushing
            .pop_front()
            .expect("publish_flush without a frozen batch");
        debug_assert!(
            Arc::ptr_eq(&batch.items, &job.items),
            "flushes must publish in freeze order"
        );
        self.stats.flushes += 1;
        self.stats.flushed_items += run.len();
        self.runs.push(SnapshotRun::new(run, job.bbox));
        self.generation += 1;
    }

    /// Claims a merge compaction over the current base + delta runs.
    ///
    /// Marks the dataset as compacting (a second claim returns `None`
    /// until publish/abort) and hands back immutable run handles: the merge
    /// itself ([`run_compaction`](LiveDataset::run_compaction)) needs only
    /// an environment, so flushes may *append* new delta runs while it
    /// runs — publication keeps them. Returns `None` when there is nothing
    /// to fold.
    pub fn begin_compaction(&mut self) -> Option<CompactionPlan> {
        if self.compacting || self.delta_runs().is_empty() {
            return None;
        }
        self.compacting = true;
        // An empty base carries a placeholder box, not its records' (delta
        // runs are never empty): leave it out, so the union is exactly the
        // box of what the merge reads.
        let base = &self.runs[0];
        let mut bbox = if base.stream().is_empty() {
            Rect::empty()
        } else {
            base.bbox()
        };
        for delta in self.delta_runs() {
            bbox = bbox.union(&delta.bbox());
        }
        Some(CompactionPlan {
            runs: self.runs.iter().map(|r| r.stream().clone()).collect(),
            tree: self.tree.clone(),
            bbox,
        })
    }

    /// Merge compaction work: folds the plan's base + delta runs into a new
    /// base run and rebuilds its R-tree.
    ///
    /// Every input run is already sorted on the packed sweep key, so the new
    /// base is the external sort's k-way merge and nothing else — each
    /// record is read once and written once (once per level when the runs
    /// outnumber the budget's fan-in) — phase `live.compaction.merge`.
    ///
    /// The tree is rebuilt from a merge too ([`bulk_load_merged`], phase
    /// `live.compaction.index`). While the tiers' box is the old tree's, the
    /// old tree's leaves already hold the old base in the loader's Hilbert
    /// order, so only the delta records are sorted, in memory, and merged
    /// with them. When the box grew, or the budget cannot hold the delta
    /// records' sort buffer, the whole new base is externally sorted as a
    /// fresh bulk load would, and a `live.compaction.resort` mark (value:
    /// the records sorted) says so. Either way the tree is the one a bulk
    /// load of the new base builds. All I/O is charged like any other
    /// maintenance work. The old base and tree pages stay valid on the
    /// device, which is what keeps earlier snapshots readable.
    pub fn run_compaction(env: &mut SimEnv, plan: &CompactionPlan) -> Result<CompactionOutput> {
        let phase = env.obs_phase("live.compaction");
        let merge = env.obs_phase("live.compaction.merge");
        let (base, _) = extsort::merge_sorted_runs(
            env,
            plan.runs.clone(),
            Item::sweep_key,
            Item::cmp_by_lower_y,
            LIVE_PAGES_PER_BLOCK,
        )?;
        env.obs_close(merge);
        let index = env.obs_phase("live.compaction.index");
        let (tree, how) = bulk_load_merged(
            env,
            &plan.tree,
            &base,
            &plan.runs[1..],
            plan.bbox,
            BulkLoadConfig::default(),
        )?;
        if how == MergedLoad::Resorted {
            env.obs_mark("live.compaction.resort", base.len());
        }
        env.obs_close(index);
        env.obs_close(phase);
        Ok(CompactionOutput {
            base,
            tree,
            bbox: plan.bbox,
            merged_items: plan.len(),
            folded_deltas: plan.delta_count(),
        })
    }

    /// Publishes a finished merge: swaps the new base/tree/bbox in, removes
    /// exactly the delta runs the plan folded (keeping any flushed since),
    /// clears the compacting mark, and bumps the generation.
    pub fn publish_compaction(&mut self, out: CompactionOutput) {
        debug_assert!(self.compacting, "publish_compaction without a claim");
        debug_assert!(out.folded_deltas < self.runs.len());
        self.runs
            .splice(..=out.folded_deltas, [SnapshotRun::new(out.base, out.bbox)]);
        self.tree = out.tree;
        self.generation += 1;
        self.compacting = false;
        self.stats.compactions += 1;
        self.stats.compacted_items += out.merged_items;
    }

    /// Releases a compaction claim without publishing (the merge failed or
    /// was abandoned); the dataset is unchanged and a new claim may be
    /// taken.
    pub fn abort_compaction(&mut self) {
        self.compacting = false;
    }

    /// Synchronous maintenance: freezes the memtable, persists every frozen
    /// batch into delta runs, then compacts if the delta count reached the
    /// configured threshold — the freeze/flush/compact phases composed
    /// inline.
    pub fn flush(&mut self, env: &mut SimEnv) -> Result<()> {
        self.freeze();
        while let Some(job) = self.begin_flush() {
            let run = Self::run_flush(env, &job)?;
            self.publish_flush(job, run);
        }
        if self.wants_compaction() {
            self.compact(env)?;
        }
        Ok(())
    }

    /// Synchronous merge compaction: claim, merge and publish in one call
    /// (no-op when there is nothing to fold or a merge is in flight).
    pub fn compact(&mut self, env: &mut SimEnv) -> Result<()> {
        let Some(plan) = self.begin_compaction() else {
            return Ok(());
        };
        match Self::run_compaction(env, &plan) {
            Ok(out) => {
                self.publish_compaction(out);
                Ok(())
            }
            Err(e) => {
                self.abort_compaction();
                Err(e)
            }
        }
    }

    /// Fully quiesces the dataset inline: drains the memtable and every
    /// frozen batch to delta runs, then folds everything into the base
    /// (regardless of the compaction threshold). Afterwards the dataset is
    /// a single sorted base run + R-tree with no tiers, which joins and
    /// selects exactly like a registered dataset.
    pub fn quiesce(&mut self, env: &mut SimEnv) -> Result<()> {
        self.freeze();
        while let Some(job) = self.begin_flush() {
            let run = Self::run_flush(env, &job)?;
            self.publish_flush(job, run);
        }
        self.compact(env)
    }

    /// Takes a consistent generation snapshot: immutable handles of the
    /// base and delta runs, the frozen flush batches, plus a sorted copy of
    /// the memtable.
    ///
    /// The snapshot stays valid while ingestion continues (persisted pages
    /// are never rewritten) and can be read from any environment whose
    /// device holds those pages — including a service worker's fork over a
    /// device snapshot.
    pub fn snapshot(&self) -> LiveSnapshot {
        let mut mem_runs: Vec<MemRun> = self
            .flushing
            .iter()
            .map(|b| MemRun::new(Arc::clone(&b.items), b.bbox))
            .collect();
        if !self.memtable.is_empty() {
            let items = Arc::new(frozen_sorted(self.memtable.items()));
            mem_runs.push(MemRun::new(items, self.memtable.bbox()));
        }
        LiveSnapshot {
            generation: self.generation,
            runs: self.runs.clone(),
            mem_runs,
            tree: self.tree.clone(),
            bbox: self.bbox(),
        }
    }
}

/// A consistent, immutable view of one live dataset at one generation.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    generation: u64,
    /// Sweep-key-sorted persisted runs, oldest (base) first.
    runs: Vec<SnapshotRun>,
    /// In-memory sorted runs: frozen flush batches (oldest first), then the
    /// frozen memtable copy.
    mem_runs: Vec<MemRun>,
    /// The base run's R-tree (indexes `runs[0]` only).
    tree: RTree,
    bbox: Rect,
}

impl LiveSnapshot {
    /// The generation this snapshot captured.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total records in the snapshot.
    pub fn len(&self) -> u64 {
        JoinInput::Cataloged(self.cataloged()).len()
    }

    /// Returns `true` when the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether anything beside the base is visible: delta runs, frozen
    /// batches or memtable items. A snapshot without tiers is exactly its
    /// base run and the R-tree over it.
    pub fn has_tiers(&self) -> bool {
        self.cataloged().has_tiers()
    }

    /// The persisted runs (base first), with their bounding boxes.
    pub fn runs(&self) -> &[SnapshotRun] {
        &self.runs
    }

    /// The in-memory runs (frozen batches oldest-first, memtable copy
    /// last).
    pub fn mem_runs(&self) -> &[MemRun] {
        &self.mem_runs
    }

    /// The base run's R-tree. It indexes *only* the base run
    /// (`runs()[0]`); delta and in-memory runs are routed through their
    /// bounding boxes by selection code.
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Bounding box of the snapshot.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// The snapshot as a join input: the base run and its tree, with the
    /// delta and in-memory runs as tiers. Every operator reads it; the
    /// sweep-based ones merge the runs in sweep-key order as they go,
    /// without materialising or re-sorting anything.
    pub fn cataloged(&self) -> CatalogedInput<'_> {
        CatalogedInput {
            tree: &self.tree,
            sorted: self.runs[0].stream(),
            bbox: self.bbox,
            deltas: &self.runs[1..],
            mem_runs: &self.mem_runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_io::MachineConfig;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn item(x: f32, y: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x, y, x + 2.0, y + 2.0), id)
    }

    fn batch(n: u32, id_base: u32, seed: u32) -> Vec<Item> {
        // Deterministic scattered rectangles, deliberately unsorted.
        (0..n)
            .map(|i| {
                let h = (i.wrapping_mul(2_654_435_761).wrapping_add(seed)) % 10_000;
                item((h % 97) as f32, (h % 89) as f32, id_base + i)
            })
            .collect()
    }

    fn tiny_config() -> LiveConfig {
        LiveConfig {
            flush_threshold_bytes: 64 * usj_geom::ITEM_BYTES,
            compact_after_deltas: 3,
        }
    }

    /// Every record of the snapshot, as the merge of its runs delivers it.
    fn read_merged(env: &mut SimEnv, snap: &LiveSnapshot) -> Vec<Item> {
        let input = JoinInput::Cataloged(snap.cataloged());
        let (stream, _) = input.to_sorted_stream(env, None).unwrap();
        stream.read_all(env).unwrap()
    }

    fn collect_ids(env: &mut SimEnv, snap: &LiveSnapshot) -> Vec<u32> {
        let items = read_merged(env, snap);
        assert!(items
            .windows(2)
            .all(|w| w[0].sweep_key() <= w[1].sweep_key()));
        let mut seen: Vec<u32> = items.iter().map(|it| it.id).collect();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn snapshot_merges_all_tiers_in_sweep_key_order() {
        let mut env = env();
        let base = batch(200, 0, 1);
        let mut ds = LiveDataset::create(&mut env, "live", &base, tiny_config()).unwrap();
        ds.append(&mut env, &batch(150, 10_000, 2)).unwrap();
        assert_eq!(ds.len(), 350);

        let snap = ds.snapshot();
        assert_eq!(snap.len(), 350);
        let seen = collect_ids(&mut env, &snap);
        let mut expected: Vec<u32> = (0..200).chain(10_000..10_150).collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn flush_threshold_creates_delta_runs_and_compaction_folds_them() {
        let mut env = env();
        let mut ds =
            LiveDataset::create(&mut env, "live", &batch(100, 0, 3), tiny_config()).unwrap();
        // Enough appends to cross the flush threshold several times; the
        // third flush triggers auto-compaction (compact_after_deltas = 3).
        ds.append(&mut env, &batch(400, 50_000, 4)).unwrap();
        let stats = ds.stats();
        assert!(stats.flushes >= 3, "{stats:?}");
        assert!(stats.compactions >= 1, "{stats:?}");
        assert!(ds.delta_runs().len() < 3);
        assert_eq!(ds.len(), 500);
        // The compacted tree indexes the merged base.
        assert!(ds.tree().num_items() > 100);
    }

    #[test]
    fn snapshots_are_isolated_from_later_ingestion() {
        let mut env = env();
        let mut ds =
            LiveDataset::create(&mut env, "live", &batch(120, 0, 5), tiny_config()).unwrap();
        ds.append(&mut env, &batch(30, 1_000_000, 6)).unwrap();
        let before = ds.snapshot();
        let gen_before = before.generation();
        let len_before = before.len();

        // Keep ingesting past flushes *and* a compaction.
        ds.append(&mut env, &batch(500, 2_000_000, 7)).unwrap();
        assert!(ds.generation() > gen_before);

        // The earlier snapshot still reads exactly its 150 records.
        let n = read_merged(&mut env, &before).len() as u64;
        assert_eq!(n, len_before);
        assert_eq!(n, 150);
    }

    #[test]
    fn a_tiered_input_materialises_every_record_once() {
        let mut env = env();
        let mut ds =
            LiveDataset::create(&mut env, "live", &batch(80, 0, 8), tiny_config()).unwrap();
        ds.append(&mut env, &batch(70, 5_000, 9)).unwrap();
        let snap = ds.snapshot();
        assert!(snap.has_tiers());
        let input = JoinInput::Cataloged(snap.cataloged());
        assert_eq!(input.len(), 150);
        let stream = input.to_stream(&mut env).unwrap();
        let mut ids: Vec<u32> = stream
            .read_all(&mut env)
            .unwrap()
            .iter()
            .map(|it| it.id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, collect_ids(&mut env, &snap));
        assert_eq!(ids, (0..80).chain(5_000..5_070).collect::<Vec<u32>>());
    }

    #[test]
    fn snapshots_read_from_forked_worker_environments() {
        // The service execution model: workers fork over a device snapshot.
        let mut env = env();
        let mut ds =
            LiveDataset::create(&mut env, "live", &batch(90, 0, 12), tiny_config()).unwrap();
        ds.append(&mut env, &batch(200, 40_000, 13)).unwrap();
        let snap = ds.snapshot();

        let base_pages = env.device.snapshot();
        let mut worker = env.fork_with_base(base_pages);
        assert_eq!(read_merged(&mut worker, &snap).len() as u64, snap.len());
    }

    #[test]
    fn split_phase_flush_matches_inline_flush() {
        let mut env = env();
        // Same ingestion through the inline path and the split phases.
        let items = batch(140, 0, 20);
        let extra = batch(90, 10_000, 21);
        let mut inline = LiveDataset::create(&mut env, "a", &items, tiny_config()).unwrap();
        inline.append(&mut env, &extra).unwrap();
        inline.flush(&mut env).unwrap();

        let mut phased = LiveDataset::create(&mut env, "b", &items, tiny_config()).unwrap();
        phased.append_buffered(&extra).unwrap();
        phased.freeze();
        while let Some(job) = phased.begin_flush() {
            let run = LiveDataset::run_flush(&mut env, &job).unwrap();
            phased.publish_flush(job, run);
        }
        while phased.wants_compaction() {
            let plan = phased.begin_compaction().unwrap();
            let out = LiveDataset::run_compaction(&mut env, &plan).unwrap();
            phased.publish_compaction(out);
        }

        let a = collect_ids(&mut env, &inline.snapshot());
        let b = collect_ids(&mut env, &phased.snapshot());
        assert_eq!(a, b);
        assert_eq!(inline.len(), phased.len());
    }

    #[test]
    fn frozen_batches_keep_their_gauge_reservation_until_published() {
        let mut env = env();
        let mut ds = LiveDataset::create(&mut env, "live", &[], tiny_config()).unwrap();
        ds.append_buffered(&batch(200, 0, 30)).unwrap();
        assert!(ds.pending_flush_batches() > 0, "threshold crossings freeze");
        let held = ds.pending_flush_bytes();
        assert!(held > 0);
        assert!(env.memory.current() >= held, "frozen bytes stay charged");

        while let Some(job) = ds.begin_flush() {
            let run = LiveDataset::run_flush(&mut env, &job).unwrap();
            ds.publish_flush(job, run);
        }
        assert_eq!(ds.pending_flush_bytes(), 0);
        // Only the (small) residual memtable reservation remains.
        assert!(env.memory.current() < held);
    }

    #[test]
    fn appends_during_a_claimed_compaction_survive_publication() {
        let mut env = env();
        let mut ds =
            LiveDataset::create(&mut env, "live", &batch(100, 0, 40), tiny_config()).unwrap();
        // Two delta runs, no compaction yet.
        ds.append_buffered(&batch(64, 10_000, 41)).unwrap();
        ds.append_buffered(&batch(64, 20_000, 42)).unwrap();
        ds.freeze();
        while let Some(job) = ds.begin_flush() {
            let run = LiveDataset::run_flush(&mut env, &job).unwrap();
            ds.publish_flush(job, run);
        }
        assert!(ds.delta_runs().len() >= 2);

        let plan = ds.begin_compaction().unwrap();
        assert!(ds.is_compacting());
        assert!(ds.begin_compaction().is_none(), "one claim at a time");

        // A flush lands *while* the merge is (conceptually) running.
        ds.append_buffered(&batch(64, 30_000, 43)).unwrap();
        ds.freeze();
        while let Some(job) = ds.begin_flush() {
            let run = LiveDataset::run_flush(&mut env, &job).unwrap();
            ds.publish_flush(job, run);
        }
        let pending_after_claim = ds.delta_runs().len() - plan.delta_count();
        assert!(pending_after_claim > 0, "the mid-merge flush must land");

        let out = LiveDataset::run_compaction(&mut env, &plan).unwrap();
        ds.publish_compaction(out);
        assert!(!ds.is_compacting());
        assert_eq!(
            ds.delta_runs().len(),
            pending_after_claim,
            "runs flushed during the merge survive publication"
        );
        assert_eq!(ds.len(), 100 + 64 + 64 + 64);

        // Every record is still visible exactly once.
        let seen = collect_ids(&mut env, &ds.snapshot());
        let mut expected: Vec<u32> = (0..100)
            .chain(10_000..10_064)
            .chain(20_000..20_064)
            .chain(30_000..30_064)
            .collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn snapshot_sees_frozen_batches_and_stays_isolated() {
        let mut env = env();
        let mut ds =
            LiveDataset::create(&mut env, "live", &batch(50, 0, 50), tiny_config()).unwrap();
        ds.append_buffered(&batch(80, 5_000, 51)).unwrap();
        assert!(ds.pending_flush_batches() > 0);
        let snap = ds.snapshot();
        assert_eq!(snap.len(), 130);
        assert!(!snap.mem_runs().is_empty());

        // Publishing the flushes afterwards does not disturb the snapshot.
        while let Some(job) = ds.begin_flush() {
            let run = LiveDataset::run_flush(&mut env, &job).unwrap();
            ds.publish_flush(job, run);
        }
        let seen = collect_ids(&mut env, &snap);
        let mut expected: Vec<u32> = (0..50).chain(5_000..5_080).collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn quiesce_folds_everything_into_the_base() {
        let mut env = env();
        let mut ds =
            LiveDataset::create(&mut env, "live", &batch(60, 0, 60), tiny_config()).unwrap();
        ds.append_buffered(&batch(150, 9_000, 61)).unwrap();
        assert!(ds.snapshot().has_tiers());
        ds.quiesce(&mut env).unwrap();
        assert_eq!(ds.memtable_len(), 0);
        assert_eq!(ds.pending_flush_batches(), 0);
        assert!(ds.delta_runs().is_empty());
        assert_eq!(ds.len(), 210);
        let snap = ds.snapshot();
        assert!(!snap.has_tiers());
        assert_eq!(snap.runs()[0].stream().len(), 210);
        assert_eq!(snap.tree().num_items(), 210);
        assert!(!snap.bbox().is_empty());
    }

    /// Crash simulation used by the durability tests: freeze the device
    /// and build a fresh environment layered over the snapshot — exactly
    /// what a process restart over persistent storage sees (all pages
    /// readable, in-memory state gone).
    fn crash(env: &SimEnv) -> SimEnv {
        env.fork_with_base(env.device.snapshot())
    }

    #[test]
    fn durable_dataset_recovers_its_published_generation() {
        let mut env = env();
        let (mut ds, root) =
            LiveDataset::create_durable(&mut env, "live", &batch(120, 0, 90), tiny_config())
                .unwrap();
        assert!(ds.is_durable());
        assert_eq!(ds.durable_root(), Some(root));
        // Ingest across flushes and a compaction, then drain the memtable
        // so the full record set is published before manifesting.
        ds.append(&mut env, &batch(300, 10_000, 91)).unwrap();
        ds.flush(&mut env).unwrap();
        ds.write_manifest(&mut env).unwrap();
        let published_ids = collect_ids(&mut env, &ds.snapshot());
        let generation = ds.generation();

        // Unmanifested work after the last manifest: volatile by contract.
        ds.append_buffered(&batch(40, 90_000, 92)).unwrap();

        let mut after = crash(&env);
        let (rec, report) = LiveDataset::recover(&mut after, "live", root, tiny_config()).unwrap();
        assert_eq!(report.generation, generation);
        assert_eq!(report.dropped_deltas, 0);
        assert_eq!(report.verified_runs, 1 + rec.delta_runs().len());
        assert_eq!(rec.generation(), generation);
        assert_eq!(rec.memtable_len(), 0, "memtable is volatile");
        assert_eq!(rec.pending_flush_batches(), 0);
        // The recovered pair-visible record set is exactly the manifested
        // one — the unmanifested appends are gone, nothing else is.
        assert_eq!(collect_ids(&mut after, &rec.snapshot()), published_ids);
        // The recovered dataset keeps working: append, flush, re-manifest.
        let mut rec = rec;
        rec.append(&mut after, &batch(25, 200_000, 93)).unwrap();
        rec.write_manifest(&mut after).unwrap();
        assert!(rec.durable_epoch().unwrap() > report.epoch);
    }

    #[test]
    fn recovery_rolls_back_a_corrupted_delta_and_everything_younger() {
        let mut env = env();
        let (mut ds, root) =
            LiveDataset::create_durable(&mut env, "live", &batch(80, 0, 94), tiny_config())
                .unwrap();
        // Several delta runs, no compaction in the way (freeze+publish
        // manually; how the memtable splits batches is irrelevant here).
        for (i, seed) in [(0u32, 95u32), (1, 96), (2, 97)] {
            ds.append_buffered(&batch(64, 10_000 + i * 1_000, seed))
                .unwrap();
            ds.freeze();
            while let Some(job) = ds.begin_flush() {
                let run = LiveDataset::run_flush(&mut env, &job).unwrap();
                ds.publish_flush(job, run);
            }
        }
        let delta_count = ds.delta_runs().len();
        assert!(delta_count >= 3);
        ds.write_manifest(&mut env).unwrap();

        // Records that must survive: the base plus the oldest delta only.
        let mut expected: Vec<u32> = (0..80).collect();
        let deltas = ds.delta_runs();
        expected.extend(
            deltas[0]
                .stream()
                .read_all(&mut env)
                .unwrap()
                .iter()
                .map(|it| it.id),
        );
        expected.sort_unstable();

        // Silently damage a page of the *second* delta run.
        let victim = deltas[1].stream().extents()[0];
        env.device.write_page(victim, b"rot").unwrap();

        let mut after = crash(&env);
        let (rec, report) = LiveDataset::recover(&mut after, "live", root, tiny_config()).unwrap();
        assert_eq!(
            report.dropped_deltas,
            delta_count - 1,
            "damaged delta and everything younger must go"
        );
        assert_eq!(rec.delta_runs().len(), 1, "intact prefix survives");
        assert_eq!(collect_ids(&mut after, &rec.snapshot()), expected);
    }

    #[test]
    fn recovery_fails_hard_on_a_corrupted_base() {
        let mut env = env();
        let (mut ds, root) =
            LiveDataset::create_durable(&mut env, "live", &batch(100, 0, 98), tiny_config())
                .unwrap();
        ds.write_manifest(&mut env).unwrap();
        let victim = ds.runs[0].stream().extents()[0];
        env.device.write_page(victim, b"rot").unwrap();
        let mut after = crash(&env);
        assert!(matches!(
            LiveDataset::recover(&mut after, "live", root, tiny_config()),
            Err(LiveError::Corrupted(_))
        ));
    }

    #[test]
    fn torn_manifest_body_write_leaves_the_previous_manifest_live() {
        use usj_io::{FaultConfig, FaultPlan, IoSimError};
        // No auto-compaction: every flush keeps its delta, so enough
        // appends give the manifest a multi-page body that *can* tear.
        let config = LiveConfig {
            flush_threshold_bytes: 64 * usj_geom::ITEM_BYTES,
            compact_after_deltas: 0,
        };
        let mut env = env();
        let (mut ds, root) =
            LiveDataset::create_durable(&mut env, "live", &batch(200, 0, 99), config).unwrap();
        let ids_v1 = collect_ids(&mut env, &ds.snapshot());

        ds.append(&mut env, &batch(7_500, 10_000, 100)).unwrap();
        ds.flush(&mut env).unwrap(); // drain the memtable: all 7 500 published
        assert!(
            ds.delta_runs().len() > 110,
            "need enough delta records for a multi-page manifest body"
        );
        env.install_faults(FaultPlan::new(FaultConfig {
            torn_write: 1.0,
            max_faults: 1,
            ..FaultConfig::quiet(7)
        }));
        let err = ds.write_manifest(&mut env);
        env.device.clear_faults();
        assert_eq!(
            err,
            Err(LiveError::Io(IoSimError::DeviceFault { transient: false })),
            "the multi-page body write must tear"
        );

        // Crash now: recovery lands on the previous manifest, intact.
        let mut after = crash(&env);
        let (rec, report) = LiveDataset::recover(&mut after, "live", root, config).unwrap();
        assert_eq!(report.epoch, 1, "first manifest is still the committed one");
        assert_eq!(collect_ids(&mut after, &rec.snapshot()), ids_v1);

        // And without a crash, simply retrying the write commits v2.
        ds.write_manifest(&mut env).unwrap();
        let mut after2 = crash(&env);
        let (rec2, report2) = LiveDataset::recover(&mut after2, "live", root, config).unwrap();
        assert_eq!(report2.epoch, 2);
        assert_eq!(
            collect_ids(&mut after2, &rec2.snapshot()),
            collect_ids(&mut env, &ds.snapshot())
        );
    }
}
