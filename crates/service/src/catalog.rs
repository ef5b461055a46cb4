//! The dataset catalog: register once, query many.
//!
//! [`Catalog::register`] prepares a relation the way a production spatial
//! store would at load time, paying the preparation cost exactly once:
//!
//! 1. the records are externally sorted by lower y-coordinate and the sorted
//!    run is **persisted** on the device (SSSJ/PQ never re-sort),
//! 2. a packed R-tree is bulk-loaded over the sorted run and persisted (ST
//!    and the selection queries never rebuild; PQ's pruned traversal and the
//!    §6.3 cost estimator read its directory),
//! 3. a [`GridHistogram`] summary is recorded so selectivity estimation
//!    works without ever rescanning the data.
//!
//! A registered [`Dataset`] hands joins a [`JoinInput::Cataloged`], the
//! input variant every algorithm recognises as "already prepared". The whole
//! catalog serializes into an on-device directory ([`Catalog::save`]) and
//! reopens from it ([`Catalog::load`]) — including from a forked environment
//! layered over a snapshot of this device, which is how service workers see
//! the catalog.

use std::collections::HashMap;

use usj_core::{CatalogedInput, GridHistogram, JoinInput};
use usj_geom::{Item, Rect};
use usj_io::{extsort, IoSimError, ItemStream, PageId, SimEnv, PAGE_SIZE};
use usj_rtree::RTree;

use crate::{Result, ServiceError};

/// Default resolution of the per-dataset histogram summary: 64×64 cells.
pub const DEFAULT_HISTOGRAM_CELLS: usize = 64;

/// Magic number of the on-device catalog directory ("USJCAT" + version 01).
const CATALOG_MAGIC: u64 = 0x0155_534a_4341_5401;

/// Identifier of a dataset within one [`Catalog`] (its registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(pub u32);

/// One registered relation: both prepared representations plus summaries.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    sorted: ItemStream,
    tree: RTree,
    histogram: GridHistogram,
    bbox: Rect,
}

impl Dataset {
    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of records in the dataset.
    pub fn len(&self) -> u64 {
        self.sorted.len()
    }

    /// Returns `true` if the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Bounding box recorded at registration.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// The persisted y-sorted run.
    pub fn sorted(&self) -> &ItemStream {
        &self.sorted
    }

    /// The persisted packed R-tree.
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The grid-histogram summary recorded at registration.
    pub fn histogram(&self) -> &GridHistogram {
        &self.histogram
    }

    /// The dataset as a join input: every algorithm skips its preparation
    /// I/O (no re-sort, no index build, no bounding-box scan).
    pub fn input(&self) -> JoinInput<'_> {
        JoinInput::Cataloged(CatalogedInput {
            tree: &self.tree,
            sorted: &self.sorted,
            bbox: self.bbox,
        })
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        let name = self.name.as_bytes();
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        for v in [self.bbox.lo.x, self.bbox.lo.y, self.bbox.hi.x, self.bbox.hi.y] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&self.sorted.encode());
        buf.extend_from_slice(&self.tree.encode_meta());
        buf.extend_from_slice(&self.histogram.encode());
    }

    fn decode_from(buf: &[u8]) -> Result<(Dataset, usize)> {
        let truncated = || ServiceError::Io(IoSimError::CorruptRecord("catalog entry truncated"));
        let name_len = u16::from_le_bytes(
            buf.get(0..2).ok_or_else(truncated)?.try_into().expect("len"),
        ) as usize;
        let name_bytes = buf.get(2..2 + name_len).ok_or_else(truncated)?;
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| ServiceError::Io(IoSimError::CorruptRecord("catalog name not UTF-8")))?;
        let mut off = 2 + name_len;
        let mut f32_at = || -> Result<f32> {
            let v = f32::from_le_bytes(
                buf.get(off..off + 4).ok_or_else(truncated)?.try_into().expect("len"),
            );
            off += 4;
            Ok(v)
        };
        let bbox = Rect::from_coords(f32_at()?, f32_at()?, f32_at()?, f32_at()?);
        let (sorted, n) = ItemStream::decode(buf.get(off..).ok_or_else(truncated)?)?;
        off += n;
        let (tree, n) = RTree::decode_meta(buf.get(off..).ok_or_else(truncated)?)?;
        off += n;
        let (histogram, n) = GridHistogram::decode(buf.get(off..).ok_or_else(truncated)?)?;
        off += n;
        Ok((
            Dataset {
                name,
                sorted,
                tree,
                histogram,
                bbox,
            },
            off,
        ))
    }
}

/// The dataset catalog of one simulated device.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    datasets: Vec<Dataset>,
    by_name: HashMap<String, u32>,
    histogram_cells: usize,
}

impl Catalog {
    /// Creates an empty catalog with the default histogram resolution.
    pub fn new() -> Self {
        Catalog {
            datasets: Vec::new(),
            by_name: HashMap::new(),
            histogram_cells: DEFAULT_HISTOGRAM_CELLS,
        }
    }

    /// Sets the per-dataset histogram resolution (builder style; applies to
    /// subsequent registrations). Clamped to the serializable range, so a
    /// saved catalog can always be loaded back.
    pub fn with_histogram_cells(mut self, cells_per_side: usize) -> Self {
        self.histogram_cells =
            cells_per_side.clamp(1, usj_core::histogram::MAX_HISTOGRAM_CELLS);
        self
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// Returns `true` if no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }

    /// Iterates over the registered datasets in registration order.
    pub fn datasets(&self) -> impl Iterator<Item = &Dataset> {
        self.datasets.iter()
    }

    /// Looks a dataset up by identifier.
    pub fn get(&self, id: DatasetId) -> Option<&Dataset> {
        self.datasets.get(id.0 as usize)
    }

    /// Looks a dataset up by name.
    pub fn lookup(&self, name: &str) -> Option<(DatasetId, &Dataset)> {
        let idx = *self.by_name.get(name)?;
        Some((DatasetId(idx), &self.datasets[idx as usize]))
    }

    /// Registers an in-memory slice of records under `name`, materialising
    /// it as a stream first (convenience wrapper around
    /// [`register_stream`](Catalog::register_stream)).
    pub fn register(&mut self, env: &mut SimEnv, name: &str, items: &[Item]) -> Result<DatasetId> {
        if self.by_name.contains_key(name) {
            return Err(ServiceError::DuplicateDataset(name.to_string()));
        }
        let stream = ItemStream::from_items(env, items)?;
        self.register_stream(env, name, &stream)
    }

    /// Registers a stream of records under `name`: sorts it, bulk-loads the
    /// R-tree, records the histogram summary, and persists all three.
    ///
    /// Registration I/O is charged to `env` like any other work — it is the
    /// one-time preparation cost the registered queries then never pay
    /// again. Callers that want it excluded from their measurements can wrap
    /// the call in [`SimEnv::unaccounted`].
    pub fn register_stream(
        &mut self,
        env: &mut SimEnv,
        name: &str,
        stream: &ItemStream,
    ) -> Result<DatasetId> {
        if self.by_name.contains_key(name) {
            return Err(ServiceError::DuplicateDataset(name.to_string()));
        }
        let (sorted, stats) =
            extsort::external_sort_by_key(env, stream, Item::sweep_key, Item::cmp_by_lower_y)?;
        let bbox = if stats.bbox.is_empty() {
            Rect::from_coords(0.0, 0.0, 1.0, 1.0)
        } else {
            stats.bbox
        };
        let tree = RTree::bulk_load_stream(env, &sorted)?;
        let histogram = GridHistogram::from_stream(env, bbox, self.histogram_cells, &sorted)?;
        let id = DatasetId(self.datasets.len() as u32);
        self.by_name.insert(name.to_string(), id.0);
        self.datasets.push(Dataset {
            name: name.to_string(),
            sorted,
            tree,
            histogram,
            bbox,
        });
        Ok(id)
    }

    /// Adopts an already-prepared dataset — a persisted y-sorted run and
    /// its bulk-loaded R-tree — building only the missing histogram
    /// summary.
    ///
    /// This is the promotion path from the live layer: a quiesced
    /// [`LiveDataset`](usj_live::LiveDataset) is exactly a sorted base run
    /// plus a packed R-tree (compaction runs the same pipeline as
    /// [`register_stream`](Catalog::register_stream)), so promotion only
    /// pays for the histogram scan instead of re-sorting and re-indexing.
    pub fn adopt(
        &mut self,
        env: &mut SimEnv,
        name: &str,
        sorted: ItemStream,
        tree: RTree,
        bbox: Rect,
    ) -> Result<DatasetId> {
        if self.by_name.contains_key(name) {
            return Err(ServiceError::DuplicateDataset(name.to_string()));
        }
        let histogram = GridHistogram::from_stream(env, bbox, self.histogram_cells, &sorted)?;
        let id = DatasetId(self.datasets.len() as u32);
        self.by_name.insert(name.to_string(), id.0);
        self.datasets.push(Dataset {
            name: name.to_string(),
            sorted,
            tree,
            histogram,
            bbox,
        });
        Ok(id)
    }

    /// Serializes the catalog directory onto the device, returning the root
    /// page of the saved directory.
    ///
    /// Only *descriptors* are written (names, bounding boxes, stream extent
    /// lists, tree handles, histograms) — the dataset pages themselves
    /// already live on the device.
    pub fn save(&self, env: &mut SimEnv) -> Result<PageId> {
        let mut blob = Vec::new();
        blob.extend_from_slice(&(self.datasets.len() as u32).to_le_bytes());
        blob.extend_from_slice(&(self.histogram_cells as u32).to_le_bytes());
        for ds in &self.datasets {
            ds.encode_into(&mut blob);
        }
        let pages = (blob.len() as u64).div_ceil(PAGE_SIZE as u64).max(1);
        let root = env.device.allocate(1 + pages);
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&CATALOG_MAGIC.to_le_bytes());
        header.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        env.device.write_page(root, &header)?;
        env.device.write_pages(root + 1, pages, &blob)?;
        Ok(root)
    }

    /// Reopens a catalog from the directory saved at `root` — typically on a
    /// forked environment layered over a snapshot of the device the catalog
    /// was built on.
    pub fn load(env: &mut SimEnv, root: PageId) -> Result<Catalog> {
        let header = env.device.read_page(root)?;
        let magic = u64::from_le_bytes(header[0..8].try_into().expect("page size"));
        if magic != CATALOG_MAGIC {
            return Err(ServiceError::Io(IoSimError::CorruptRecord(
                "not a catalog directory page",
            )));
        }
        let blob_len = u64::from_le_bytes(header[8..16].try_into().expect("page size")) as usize;
        let pages = (blob_len as u64).div_ceil(PAGE_SIZE as u64).max(1);
        let blob = env.device.read_pages(root + 1, pages)?;
        let blob = &blob[..blob_len];
        let truncated =
            || ServiceError::Io(IoSimError::CorruptRecord("catalog directory truncated"));
        let count = u32::from_le_bytes(blob.get(0..4).ok_or_else(truncated)?.try_into().expect("len"));
        let histogram_cells =
            u32::from_le_bytes(blob.get(4..8).ok_or_else(truncated)?.try_into().expect("len"))
                as usize;
        let mut catalog = Catalog::new().with_histogram_cells(histogram_cells);
        let mut off = 8;
        for _ in 0..count {
            let (ds, n) = Dataset::decode_from(blob.get(off..).ok_or_else(truncated)?)?;
            off += n;
            catalog.by_name.insert(ds.name.clone(), catalog.datasets.len() as u32);
            catalog.datasets.push(ds);
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_core::{Algo, SpatialQuery};
    use usj_io::MachineConfig;

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn grid(n: u32, cell: f32, offset: f32, id_base: u32) -> Vec<Item> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let x = offset + i as f32 * cell;
                let y = offset + j as f32 * cell;
                out.push(Item::new(
                    Rect::from_coords(x, y, x + cell * 0.7, y + cell * 0.7),
                    id_base + i * n + j,
                ));
            }
        }
        out
    }

    #[test]
    fn registration_prepares_both_representations() {
        let mut env = env();
        let items = grid(20, 3.0, 0.0, 0);
        let mut catalog = Catalog::new();
        let id = catalog.register(&mut env, "grid", &items).unwrap();
        let ds = catalog.get(id).unwrap();
        assert_eq!(ds.len(), 400);
        assert_eq!(ds.name(), "grid");
        assert_eq!(ds.tree().num_items(), 400);
        assert_eq!(ds.histogram().total(), 400);
        for it in &items {
            assert!(ds.bbox().contains(&it.rect));
        }
        // The sorted run really is sorted.
        let sorted = ds.sorted().read_all(&mut env).unwrap();
        assert!(sorted.windows(2).all(|w| w[0].rect.lo.y <= w[1].rect.lo.y));
        // Lookup by name resolves to the same dataset.
        let (lid, lds) = catalog.lookup("grid").unwrap();
        assert_eq!(lid, id);
        assert_eq!(lds.len(), 400);
        assert!(catalog.lookup("nope").is_none());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut env = env();
        let items = grid(4, 2.0, 0.0, 0);
        let mut catalog = Catalog::new();
        catalog.register(&mut env, "a", &items).unwrap();
        assert!(matches!(
            catalog.register(&mut env, "a", &items),
            Err(ServiceError::DuplicateDataset(_))
        ));
    }

    #[test]
    fn cataloged_queries_agree_with_uncataloged_ones() {
        let mut env = env();
        let a = grid(18, 4.0, 0.0, 0);
        let b = grid(18, 4.0, 1.5, 100_000);
        let mut catalog = Catalog::new();
        let ia = catalog.register(&mut env, "a", &a).unwrap();
        let ib = catalog.register(&mut env, "b", &b).unwrap();
        let expected: u64 = a
            .iter()
            .map(|x| b.iter().filter(|y| x.rect.intersects(&y.rect)).count() as u64)
            .sum();
        for algo in [Algo::Auto, Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St] {
            let left = catalog.get(ia).unwrap().input();
            let right = catalog.get(ib).unwrap().input();
            let n = SpatialQuery::new(left, right)
                .algorithm(algo)
                .count(&mut env)
                .unwrap();
            assert_eq!(n, expected, "{algo:?}");
        }
    }

    #[test]
    fn save_load_roundtrip_reopens_every_dataset() {
        let mut env = env();
        let a = grid(15, 3.0, 0.0, 0);
        let b = grid(9, 5.0, 2.0, 50_000);
        let mut catalog = Catalog::new();
        catalog.register(&mut env, "alpha", &a).unwrap();
        catalog.register(&mut env, "beta", &b).unwrap();
        let root = catalog.save(&mut env).unwrap();

        // Reopen on a forked worker environment over a device snapshot —
        // exactly how service workers see the catalog.
        let base = env.device.snapshot();
        let mut worker = env.fork_with_base(base);
        let reopened = Catalog::load(&mut worker, root).unwrap();
        assert_eq!(reopened.len(), 2);
        let (_, ds) = reopened.lookup("alpha").unwrap();
        assert_eq!(ds.len(), a.len() as u64);
        assert_eq!(ds.bbox(), catalog.lookup("alpha").unwrap().1.bbox());
        assert_eq!(
            ds.sorted().read_all(&mut worker).unwrap(),
            catalog.lookup("alpha").unwrap().1.sorted().read_all(&mut env).unwrap()
        );
        // The reopened tree traverses the snapshot pages.
        let items = ds
            .tree()
            .window_query(&mut worker, &ds.bbox())
            .unwrap();
        assert_eq!(items.len(), a.len());
        // Garbage roots are rejected.
        let junk = worker.device.allocate(1);
        assert!(Catalog::load(&mut worker, junk).is_err());
    }

    #[test]
    fn empty_dataset_registers_cleanly() {
        let mut env = env();
        let mut catalog = Catalog::new();
        let id = catalog.register(&mut env, "empty", &[]).unwrap();
        let ds = catalog.get(id).unwrap();
        assert!(ds.is_empty());
        assert!(!ds.bbox().is_empty());
        let n = SpatialQuery::new(ds.input(), ds.input())
            .algorithm(Algo::Sssj)
            .count(&mut env)
            .unwrap();
        assert_eq!(n, 0);
    }
}
