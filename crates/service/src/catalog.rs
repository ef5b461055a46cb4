//! The dataset catalog: register once, query many.
//!
//! [`Catalog::register`] prepares a relation the way a production spatial
//! store would at load time, paying the preparation cost exactly once: it
//! builds a *sealed* [`LiveDataset`] — one that never receives appends —
//! through [`LiveDataset::from_stream`]:
//!
//! 1. the records are externally sorted by lower y-coordinate and the sorted
//!    run is **persisted** on the device (SSSJ/PQ never re-sort),
//! 2. a packed R-tree is bulk-loaded over the sorted run and persisted (ST
//!    and the selection queries never rebuild; PQ's pruned traversal and the
//!    §6.3 cost estimator read its directory).
//!
//! The catalog keeps each dataset's [`LiveSnapshot`]: a base run and its
//! tree with no tiers, which joins through
//! [`JoinInput::Cataloged`](usj_core::JoinInput::Cataloged) like any live
//! dataset — why a service turns the catalog into the sealed slots of its
//! one dataset table, numbered in one [`DatasetId`] space with the live
//! datasets registered after them. A registered dataset is durable
//! the way a live one is: [`LiveDataset::enable_durability`] before
//! [`Catalog::insert`] writes its manifest, and after a crash
//! [`LiveDataset::recover`] rebuilds it for the next `insert`.

use std::sync::Arc;

use usj_geom::Item;
use usj_io::{ItemStream, SimEnv};
use usj_live::{LiveConfig, LiveDataset, LiveSnapshot};

use crate::{Result, ServiceError};

/// Identifier of a dataset within one service: the registered datasets
/// of its catalog first, in registration order, then its live datasets.
/// Ids are never reused, so an id handed out earlier never re-points at a
/// different dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(pub u32);

/// The dataset catalog of one simulated device.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// Each dataset's name and sealed snapshot, in registration order.
    pub(crate) datasets: Vec<(String, Arc<LiveSnapshot>)>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Looks a dataset up by identifier.
    pub fn get(&self, id: DatasetId) -> Option<&LiveSnapshot> {
        self.datasets.get(id.0 as usize).map(|(_, snap)| &**snap)
    }

    /// Looks a dataset up by name.
    pub fn lookup(&self, name: &str) -> Option<(DatasetId, &LiveSnapshot)> {
        let idx = self.datasets.iter().position(|(n, _)| n == name)?;
        Some((DatasetId(idx as u32), &self.datasets[idx].1))
    }

    /// Registers an in-memory slice of records under `name`, materialising
    /// it as a stream of default-size blocks first (convenience wrapper
    /// around [`register_stream`](Catalog::register_stream)).
    pub fn register(&mut self, env: &mut SimEnv, name: &str, items: &[Item]) -> Result<DatasetId> {
        self.refuse_duplicate(name)?;
        let stream = ItemStream::from_items(env, items)?;
        self.register_stream(env, name, &stream)
    }

    /// Registers a stream of records under `name`: sorts it into a run of
    /// the stream's block size and bulk-loads the R-tree over it.
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
        self.refuse_duplicate(name)?;
        let dataset = LiveDataset::from_stream(env, name, stream, LiveConfig::default())?;
        self.insert(env, dataset)
    }

    /// Seals `dataset` into the catalog under its own name: folds any tiers
    /// into its base ([`LiveDataset::quiesce`], no I/O when there are none)
    /// and keeps its snapshot. The dataset receives no appends afterwards.
    pub fn insert(&mut self, env: &mut SimEnv, mut dataset: LiveDataset) -> Result<DatasetId> {
        self.refuse_duplicate(dataset.name())?;
        dataset.quiesce(env)?;
        let id = DatasetId(self.datasets.len() as u32);
        self.datasets
            .push((dataset.name().to_string(), Arc::new(dataset.snapshot())));
        Ok(id)
    }

    fn refuse_duplicate(&self, name: &str) -> Result<()> {
        if self.lookup(name).is_some() {
            return Err(ServiceError::DuplicateDataset(name.to_string()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_core::{Algo, JoinInput, SpatialQuery};
    use usj_geom::Rect;
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
        assert!(!ds.has_tiers());
        assert_eq!(ds.tree().num_items(), 400);
        for it in &items {
            assert!(ds.bbox().contains(&it.rect));
        }
        // The sorted run really is sorted.
        let sorted = ds.runs()[0].stream().read_all(&mut env).unwrap();
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
            let left = JoinInput::Cataloged(catalog.get(ia).unwrap().cataloged());
            let right = JoinInput::Cataloged(catalog.get(ib).unwrap().cataloged());
            let n = SpatialQuery::new(left, right)
                .algorithm(algo)
                .count(&mut env)
                .unwrap();
            assert_eq!(n, expected, "{algo:?}");
        }
    }

    #[test]
    fn empty_dataset_registers_cleanly() {
        let mut env = env();
        let mut catalog = Catalog::new();
        let id = catalog.register(&mut env, "empty", &[]).unwrap();
        let ds = catalog.get(id).unwrap();
        assert!(ds.is_empty());
        assert!(!ds.bbox().is_empty());
        let input = || JoinInput::Cataloged(ds.cataloged());
        let n = SpatialQuery::new(input(), input())
            .algorithm(Algo::Sssj)
            .count(&mut env)
            .unwrap();
        assert_eq!(n, 0);
    }
}
