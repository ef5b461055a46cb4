//! The live store: the published dataset table, the storage environment
//! it is written from, and live maintenance — [`tend_live`] and the
//! background [`Maintenance`] worker. Only this module reads or writes the
//! table, so the publication order below is kept here alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use usj_geom::Item;
use usj_io::{Page, SimEnv};
use usj_live::{CompactionPlan, FlushJob, LiveConfig, LiveDataset, LiveSnapshot};

use crate::catalog::{Catalog, DatasetId};
use crate::faults::{retry_transient, FaultRetry};
use crate::obs::ServiceObs;
use crate::service::relock;
use crate::{Result, ServiceError};

/// Scoped memory budget for each live-maintenance step's transient working
/// set: flush writes and compaction merges run under [`SimEnv::with_budget`]
/// of this size, so background merges degrade (spill) at a bounded footprint
/// instead of competing unboundedly with query admission.
const MAINTENANCE_BUDGET: usize = 4 * 1024 * 1024;

/// The service's datasets and the storage they live on, behind two locks:
///
/// * `storage` — the device-owning environment. All persisted-run I/O
///   (registration, flush writes, compaction merges) happens here, so a
///   long merge never blocks appends, snapshots or queries.
/// * `published` — one [`Published`] value, taken once per query. A
///   registration swaps in its pages and pushes its slot in one hold; a
///   flush or compaction swaps in new pages and keeps the slots.
///
/// Each live dataset's [`LiveSlot`] has its own writer lock besides, held
/// only for O(in-memory) work — never across device I/O.
///
/// **Publication order**: a maintenance actor swaps the device's snapshot
/// into `published` while it still holds `storage`, right after the write,
/// and only then publishes the run in the dataset's slot. Readers do the
/// reverse — a live slot's snapshot first, then one re-read of `published`
/// (in [`LiveStore::read`]) — so every run a reader can see has its pages
/// in its fork. Pages are swapped only under `storage`, in the order they
/// were written, so they never move backwards. This rests on the device's
/// sharing contract ([`BlockDevice::snapshot`](usj_io::BlockDevice::snapshot)):
/// a snapshot shares the storage device's pages instead of copying them (a
/// pointer per page per publication), later writes un-share only the pages
/// they hit, and pages are never freed or renumbered, so each snapshot is
/// a prefix of every later one. Lock order is `storage` → `published`;
/// writer locks nest in neither, and only [`Service::with_live`](crate::Service::with_live) holds
/// several, taken in id order.
#[derive(Debug)]
pub(crate) struct LiveStore {
    storage: Mutex<SimEnv>,
    published: Mutex<Published>,
    /// The service's observability hub, which maintenance records into.
    pub(crate) obs: Arc<ServiceObs>,
    /// How registrations and maintenance steps retry transient faults.
    retry: FaultRetry,
}

/// What queries read: the device pages worker forks layer over, and every
/// dataset by id with its name — the catalog's first, then live ones in
/// registration order.
#[derive(Debug)]
struct Published {
    pages: Arc<Vec<Page>>,
    slots: Vec<(String, Slot)>,
}

/// What [`LiveStore::read`] returns for `N` datasets.
pub(crate) type Reading<const N: usize> = ([Arc<LiveSnapshot>; N], Arc<Vec<Page>>, bool);

/// One dataset of the table.
#[derive(Debug, Clone)]
enum Slot {
    /// A registered dataset: a snapshot that never changes, read with no
    /// further lock or clone.
    Sealed(Arc<LiveSnapshot>),
    /// A live dataset, behind its writer lock.
    Live(Arc<Mutex<LiveSlot>>),
}

/// A live dataset and the snapshot of its current generation.
#[derive(Debug)]
pub(crate) struct LiveSlot {
    dataset: LiveDataset,
    /// Built by the first reader after a change, shared by the later ones.
    published: Option<Arc<LiveSnapshot>>,
}

impl LiveSlot {
    /// The dataset, to read it.
    pub(crate) fn dataset(&self) -> &LiveDataset {
        &self.dataset
    }

    /// The dataset, to change it: every `&mut` access goes through here,
    /// and drops the published snapshot.
    pub(crate) fn writer(&mut self) -> &mut LiveDataset {
        self.published = None;
        &mut self.dataset
    }

    fn snapshot(&mut self) -> Arc<LiveSnapshot> {
        Arc::clone(
            self.published
                .get_or_insert_with(|| Arc::new(self.dataset.snapshot())),
        )
    }
}

impl Slot {
    fn live(&self) -> Option<&Arc<Mutex<LiveSlot>>> {
        match self {
            Slot::Live(live) => Some(live),
            Slot::Sealed(_) => None,
        }
    }

    /// The dataset as a query reads it. On the query path, so a poisoned
    /// writer refuses its own dataset's queries with a typed
    /// [`ServiceError::LockPoisoned`] instead of panicking the worker.
    fn read(self) -> Result<Arc<LiveSnapshot>> {
        match self {
            Slot::Sealed(snapshot) => Ok(snapshot),
            Slot::Live(live) => Ok(live
                .lock()
                .map_err(|_| ServiceError::LockPoisoned("live dataset"))?
                .snapshot()),
        }
    }
}

/// The values of `results`, or the first error among them.
fn all_ok<T, const N: usize>(results: [Result<T>; N]) -> Result<[T; N]> {
    if let Some(Err(e)) = results.iter().find(|r| r.is_err()) {
        return Err(e.clone());
    }
    Ok(results.map(|r| r.expect("no result is an error")))
}

impl LiveStore {
    /// A store over `env`: `catalog`'s datasets become the table's sealed
    /// slots, and the device's pages the first ones published.
    pub(crate) fn new(env: SimEnv, catalog: Catalog, retry: FaultRetry) -> Self {
        let sealed = catalog.datasets.into_iter();
        let slots = sealed
            .map(|(name, snapshot)| (name, Slot::Sealed(snapshot)))
            .collect();
        let published = Published {
            pages: env.device.snapshot(),
            slots,
        };
        LiveStore {
            storage: Mutex::new(env),
            published: Mutex::new(published),
            obs: Arc::new(ServiceObs::new()),
            retry,
        }
    }

    /// The storage environment, and the catalog of the sealed datasets.
    pub(crate) fn into_parts(self) -> (SimEnv, Catalog) {
        let slots = relock(self.published.into_inner()).slots.into_iter();
        let datasets = slots
            .filter_map(|(name, slot)| match slot {
                Slot::Sealed(snapshot) => Some((name, snapshot)),
                Slot::Live(_) => None,
            })
            .collect();
        (relock(self.storage.into_inner()), Catalog { datasets })
    }

    fn published(&self) -> MutexGuard<'_, Published> {
        relock(self.published.lock())
    }

    /// What one query over `ids` reads, without allocating: their snapshots,
    /// the pages its worker fork layers over, and whether all are sealed.
    /// The slots come from one hold of the table; a live slot's snapshot is
    /// read after it, then the pages once more: the reader half of the
    /// publication order. A query over sealed datasets locks the table once.
    pub(crate) fn read<const N: usize>(&self, ids: [DatasetId; N]) -> Result<Reading<N>> {
        let (slots, pages) = {
            let published = self.published();
            let slot = |id: DatasetId| match published.slots.get(id.0 as usize) {
                Some((_, slot)) => Ok(slot.clone()),
                None => Err(ServiceError::UnknownDataset(format!("#{}", id.0))),
            };
            (all_ok(ids.map(slot))?, Arc::clone(&published.pages))
        };
        let sealed = slots.iter().all(|slot| slot.live().is_none());
        let sources = all_ok(slots.map(Slot::read))?;
        let pages = if sealed {
            pages
        } else {
            Arc::clone(&self.published().pages)
        };
        Ok((sources, pages, sealed))
    }

    /// [`Service::register_live`](crate::Service::register_live): the name
    /// check, the creation, and the swap publishing pages and slot together.
    pub(crate) fn register(
        &self,
        name: &str,
        items: &[Item],
        config: LiveConfig,
    ) -> Result<DatasetId> {
        // Registrations hold the storage lock throughout, so no other one
        // can take the name between the check and the push.
        let mut storage = relock(self.storage.lock());
        if self.published().slots.iter().any(|(n, _)| n == name) {
            return Err(ServiceError::DuplicateDataset(name.to_string()));
        }
        let dataset = retry_transient(&self.obs, self.obs.clock().as_ref(), self.retry, |_| {
            Ok(LiveDataset::create(&mut storage, name, items, config)?)
        })?;
        let slot = Slot::Live(Arc::new(Mutex::new(LiveSlot {
            dataset,
            published: None,
        })));
        let mut published = self.published();
        published.pages = storage.device.snapshot();
        published.slots.push((name.to_string(), slot));
        Ok(DatasetId(published.slots.len() as u32 - 1))
    }

    /// Runs one maintenance step's I/O on the storage environment under
    /// the maintenance budget, retrying transient faults, and swaps its
    /// pages in within the same hold: the writer half of the publication
    /// order. The superseded pages are dropped after the table's lock.
    fn write<T>(&self, io: impl Fn(&mut SimEnv) -> usj_live::Result<T>) -> Result<T> {
        retry_transient(&self.obs, self.obs.clock().as_ref(), self.retry, |_| {
            let mut storage = relock(self.storage.lock());
            let out = storage.with_budget(MAINTENANCE_BUDGET, &io)?;
            let pages = storage.device.snapshot();
            let _superseded = std::mem::replace(&mut self.published().pages, pages);
            Ok(out)
        })
    }

    /// The live dataset registered as `name`, with its id.
    pub(crate) fn live(&self, name: &str) -> Result<(DatasetId, Arc<Mutex<LiveSlot>>)> {
        let published = self.published();
        match published
            .slots
            .iter()
            .zip(0..)
            .find(|((n, _), _)| n == name)
        {
            Some(((_, Slot::Live(live)), idx)) => Ok((DatasetId(idx), Arc::clone(live))),
            _ => Err(ServiceError::UnknownDataset(name.to_string())),
        }
    }

    /// Every live dataset with its id.
    pub(crate) fn live_slots(&self) -> Vec<(DatasetId, Arc<Mutex<LiveSlot>>)> {
        let published = self.published();
        let live = published.slots.iter().zip(0..);
        live.filter_map(|((_, slot), idx)| Some((DatasetId(idx), Arc::clone(slot.live()?))))
            .collect()
    }
}

/// A live dataset's maintenance backlog: delta runs awaiting compaction
/// plus frozen batches awaiting flush.
pub(crate) fn backlog(dataset: &LiveDataset) -> usize {
    dataset.delta_runs().len() + dataset.pending_flush_batches()
}

/// One step of live maintenance, claimed under the dataset's writer lock
/// and executed against immutable handles on the storage environment.
enum MaintStep {
    Flush(FlushJob),
    Compact(CompactionPlan),
}

/// Drives one dataset's maintenance to completion: claim a step under its
/// writer lock, run its I/O on the storage environment under the scoped
/// maintenance budget and publish its pages, publish its run, repeat until
/// nothing is pending. `full` forces a terminal freeze + compaction
/// regardless of the configured thresholds (the quiesce path); otherwise
/// the dataset's own thresholds decide.
///
/// This one function *is* live maintenance for both modes: the inline path
/// calls it on the appending thread, the background worker calls it on its
/// own — so the two modes produce identical runs by construction.
pub(crate) fn tend_live(store: &LiveStore, live: &Mutex<LiveSlot>, full: bool) -> Result<()> {
    let obs = &store.obs;
    // While tracing, route the `live.flush` / `live.compaction` spans the
    // split-phase runners emit into the shared maintenance ring. Metric
    // durations below are recorded unconditionally.
    let _trace = obs.install_maint();
    loop {
        // Claim: O(in-memory) work only under the writer lock, which a
        // dataset with nothing due leaves unchanged.
        let step = {
            let mut slot = relock(live.lock());
            let ds = &slot.dataset;
            let forced = full && (ds.memtable_len() > 0 || !ds.delta_runs().is_empty());
            if !forced && !ds.maintenance_pending() {
                return Ok(());
            }
            let ds = slot.writer();
            if (full && ds.memtable_len() > 0) || ds.wants_freeze() {
                ds.freeze();
            }
            if let Some(job) = ds.begin_flush() {
                MaintStep::Flush(job)
            } else if full && !ds.delta_runs().is_empty() || ds.wants_compaction() {
                match ds.begin_compaction() {
                    Some(plan) => MaintStep::Compact(plan),
                    None => return Ok(()),
                }
            } else {
                return Ok(());
            }
        };
        // Execute: device I/O and its pages ([`LiveStore::write`]), then
        // the run that needs them.
        match step {
            MaintStep::Flush(job) => {
                let t0 = obs.now_us();
                // Transient device faults re-run the whole flush: `begin_flush`
                // only *peeked* the batch, so a failed attempt leaves it queued
                // and a re-run writes a fresh run from the same records.
                let run = store.write(|env| LiveDataset::run_flush(env, &job))?;
                obs.metrics.maintenance_flushes.inc();
                obs.metrics
                    .maintenance_flush_us
                    .record(obs.now_us().saturating_sub(t0));
                relock(live.lock()).writer().publish_flush(job, run);
            }
            MaintStep::Compact(plan) => {
                let t0 = obs.now_us();
                let ran = store.write(|env| LiveDataset::run_compaction(env, &plan));
                obs.metrics.maintenance_compactions.inc();
                obs.metrics
                    .maintenance_compaction_us
                    .record(obs.now_us().saturating_sub(t0));
                match ran {
                    Ok(out) => relock(live.lock()).writer().publish_compaction(out),
                    Err(e) => {
                        relock(live.lock()).writer().abort_compaction();
                        return Err(e);
                    }
                }
            }
        }
    }
}

/// The background maintenance worker: one thread, an mpsc queue of the
/// live datasets to tend, and an in-flight counter so
/// [`Service::quiesce_live`](crate::Service::quiesce_live) can wait for
/// the queue to drain. Dropping it closes the queue and joins the thread —
/// the shutdown/join discipline that keeps
/// [`Service::into_parts`](crate::Service::into_parts) sound.
#[derive(Debug)]
pub(crate) struct Maintenance {
    /// `None` once dropped: the closed queue ends the worker's loop.
    tx: Option<mpsc::Sender<Arc<Mutex<LiveSlot>>>>,
    /// Jobs enqueued but not yet finished, with a condvar for waiters.
    inflight: Arc<(Mutex<u64>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Maintenance {
    pub(crate) fn spawn(store: Arc<LiveStore>) -> Self {
        let (tx, rx) = mpsc::channel::<Arc<Mutex<LiveSlot>>>();
        let inflight = Arc::new((Mutex::new(0u64), Condvar::new()));
        let worker_inflight = Arc::clone(&inflight);
        let handle = std::thread::spawn(move || {
            while let Ok(live) = rx.recv() {
                // A maintenance error (e.g. device full) leaves the dataset
                // consistent with the work still pending; the next append's
                // tend retries it. Queries and appends keep working off the
                // last published generation either way. A *panic* inside the
                // tend is contained the same way: the claimed step is
                // abandoned (its records stay in the queued tiers), the
                // poisoned locks recover via `relock`, and — crucially — the
                // in-flight count still drops, so `wait_idle` never hangs on
                // a dead job.
                let tended = catch_unwind(AssertUnwindSafe(|| {
                    let _ = tend_live(&store, &live, false);
                }));
                if tended.is_err() {
                    store.obs.metrics.faults_panics.inc();
                    store.obs.metrics.faults_injected.inc();
                }
                let (count, cv) = &*worker_inflight;
                let mut n = relock(count.lock());
                *n -= 1;
                cv.notify_all();
            }
        });
        Maintenance {
            tx: Some(tx),
            inflight,
            handle: Some(handle),
        }
    }

    /// Queues a tend for `live`; the worker coalesces naturally (a tend
    /// drains *everything* pending, so later queued tends for the same
    /// dataset fall through as no-ops).
    pub(crate) fn enqueue(&self, live: Arc<Mutex<LiveSlot>>) {
        let (count, cv) = &*self.inflight;
        *relock(count.lock()) += 1;
        if !self.tx.as_ref().is_some_and(|tx| tx.send(live).is_ok()) {
            // The worker is gone.
            *relock(count.lock()) -= 1;
            cv.notify_all();
        }
    }

    /// Blocks until every queued job has finished.
    pub(crate) fn wait_idle(&self) {
        let (count, cv) = &*self.inflight;
        let mut n = relock(count.lock());
        while *n > 0 {
            n = relock(cv.wait(n));
        }
    }
}

impl Drop for Maintenance {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{grid, service_over};
    use crate::ServiceConfig;
    use usj_geom::ITEM_BYTES;

    #[test]
    fn a_live_dataset_publishes_one_snapshot_per_change() {
        let a = grid(10, 4.0, 0.0, 0);
        let (service, ia, _) = service_over(&a, &a, ServiceConfig::default().with_workers(1));
        let config = LiveConfig {
            flush_threshold_bytes: 40 * ITEM_BYTES,
            compact_after_deltas: 0,
        };
        let la = service.register_live("live", &a[..50], config).unwrap();
        service.append_live("live", &a[50..60]).unwrap();
        let read = |id| {
            let ([source], _, _) = service.store.read([id]).unwrap();
            source
        };
        // Two queries of an unchanged dataset share one snapshot, live or
        // sealed.
        let (first, second) = (read(la), read(la));
        assert!(
            Arc::ptr_eq(&first, &second),
            "an unchanged dataset rebuilt its snapshot"
        );
        assert!(Arc::ptr_eq(&read(ia), &read(ia)));
        assert_eq!(second.len(), 60);

        // An append drops it; the next reader sees the appended records.
        service.append_live("live", &a[60..70]).unwrap();
        let third = read(la);
        assert!(!Arc::ptr_eq(&second, &third));
        assert_eq!(third.len(), 70);
        assert_eq!(service.live_stats("live").unwrap().flushes, 0);

        // A flush publishes the pages it wrote: the storage device's pages
        // at the end of the flush are exactly the published ones.
        service.append_live("live", &a[70..]).unwrap();
        assert_eq!(service.live_stats("live").unwrap().flushes, 1);
        let storage = relock(service.store.storage.lock());
        let written = storage.device.snapshot();
        let published = Arc::clone(&service.store.published().pages);
        assert_eq!(published.len(), written.len());
        assert!(published
            .iter()
            .zip(written.iter())
            .all(|(p, w)| p[..] == w[..]));
        drop(storage);
        assert_eq!(read(la).len(), 100);
        assert_eq!(read(la).runs().len(), 2, "the flushed run is visible");
    }
}
