//! Workload specifications and generated workloads.

use usj_geom::{Item, Rect, ITEM_BYTES};

use crate::generator::{GeneratorConfig, TigerLikeGenerator};
use crate::preset::Preset;

/// Identifier offset separating hydrography ids from road ids, so a reported
/// pair `(road_id, hydro_id)` can never be confused with a road–road pair.
pub const HYDRO_ID_BASE: u32 = 0x4000_0000;

/// A recipe for generating one of the Table 2 data sets at a chosen scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Which of the paper's data sets to emulate.
    pub preset: Preset,
    /// Divisor applied to the paper's object counts. `scale = 1` generates
    /// the full-size data set (tens of millions of rectangles); the default
    /// of 100 keeps every preset laptop-sized while preserving all ratios.
    pub scale: u64,
    /// Generator tuning parameters.
    pub config: GeneratorConfig,
}

impl WorkloadSpec {
    /// Default scale divisor applied to the paper's object counts.
    pub const DEFAULT_SCALE: u64 = 100;

    /// Creates the spec for a preset at the default scale.
    pub fn preset(preset: Preset) -> Self {
        WorkloadSpec {
            preset,
            scale: Self::DEFAULT_SCALE,
            config: GeneratorConfig::default(),
        }
    }

    /// Overrides the scale divisor (builder style).
    pub fn with_scale(mut self, scale: u64) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// Overrides the generator configuration (builder style).
    pub fn with_config(mut self, config: GeneratorConfig) -> Self {
        self.config = config;
        self
    }

    /// Number of road objects this spec will generate.
    pub fn road_count(&self) -> u64 {
        (self.preset.paper_road_objects() / self.scale).max(1)
    }

    /// Number of hydrography objects this spec will generate.
    pub fn hydro_count(&self) -> u64 {
        (self.preset.paper_hydro_objects() / self.scale).max(1)
    }

    /// The square region covered by the data set, sized so the road density
    /// is about one segment per square map unit for every preset.
    pub fn region(&self) -> Rect {
        let side = (self.road_count() as f64).sqrt().max(4.0) as f32;
        Rect::from_coords(0.0, 0.0, side, side)
    }

    /// Generates the workload deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Workload {
        let region = self.region();
        let mut gen = TigerLikeGenerator::new(seed, region, self.road_count(), self.config);
        let roads = gen.roads(self.road_count(), 0);
        let hydro = gen.hydro(self.hydro_count(), HYDRO_ID_BASE);
        Workload {
            name: self.preset.name(),
            preset: self.preset,
            scale: self.scale,
            region,
            roads,
            hydro,
        }
    }
}

/// A generated data set: the two input relations of the spatial join.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Paper-style data-set name (`"NJ"`, `"DISK1-6"`, …).
    pub name: &'static str,
    /// The preset this workload was generated from.
    pub preset: Preset,
    /// Scale divisor that was applied.
    pub scale: u64,
    /// Region covered by the data.
    pub region: Rect,
    /// Road-feature MBRs (the larger relation).
    pub roads: Vec<Item>,
    /// Hydrography-feature MBRs (the smaller relation).
    pub hydro: Vec<Item>,
}

impl Workload {
    /// Statistics of the road relation (one row of Table 2).
    pub fn road_stats(&self) -> DatasetStats {
        DatasetStats::from_items(&self.roads)
    }

    /// Statistics of the hydrography relation (one row of Table 2).
    pub fn hydro_stats(&self) -> DatasetStats {
        DatasetStats::from_items(&self.hydro)
    }

    /// Exact number of intersecting road–hydro pairs, computed with a simple
    /// grid-partitioned nested loop. Intended for tests and for reporting the
    /// output row of Table 2 at small scales; the join algorithms themselves
    /// never call this.
    pub fn reference_join_size(&self) -> u64 {
        // Partition the hydro relation into a uniform grid and probe each
        // road against the cells it overlaps, counting each pair once.
        let cells = 64usize;
        let region = self.region;
        let w = region.width().max(f32::MIN_POSITIVE);
        let h = region.height().max(f32::MIN_POSITIVE);
        let cell_of = |x: f32, y: f32| -> (usize, usize) {
            let cx =
                (((x - region.lo.x) / w) * cells as f32).clamp(0.0, cells as f32 - 1.0) as usize;
            let cy =
                (((y - region.lo.y) / h) * cells as f32).clamp(0.0, cells as f32 - 1.0) as usize;
            (cx, cy)
        };
        let mut grid: Vec<Vec<&Item>> = vec![Vec::new(); cells * cells];
        for it in &self.hydro {
            let (x0, y0) = cell_of(it.rect.lo.x, it.rect.lo.y);
            let (x1, y1) = cell_of(it.rect.hi.x, it.rect.hi.y);
            for cy in y0..=y1 {
                for cx in x0..=x1 {
                    grid[cy * cells + cx].push(it);
                }
            }
        }
        let mut pairs = 0u64;
        for road in &self.roads {
            let (x0, y0) = cell_of(road.rect.lo.x, road.rect.lo.y);
            let (x1, y1) = cell_of(road.rect.hi.x, road.rect.hi.y);
            for cy in y0..=y1 {
                for cx in x0..=x1 {
                    for hydro in &grid[cy * cells + cx] {
                        if !road.rect.intersects(&hydro.rect) {
                            continue;
                        }
                        // Count the pair only in the cell that contains the
                        // upper-left corner of the intersection, so replicas
                        // in other cells are not double counted.
                        let ix = road.rect.lo.x.max(hydro.rect.lo.x);
                        let iy = road.rect.lo.y.max(hydro.rect.lo.y);
                        if cell_of(ix, iy) == (cx, cy) {
                            pairs += 1;
                        }
                    }
                }
            }
        }
        pairs
    }
}

/// Size statistics for one relation, mirroring the rows of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of MBRs.
    pub objects: u64,
    /// Size of the 20-byte-per-record data file in bytes.
    pub data_bytes: u64,
}

impl DatasetStats {
    /// Computes the statistics of a relation.
    pub fn from_items(items: &[Item]) -> Self {
        DatasetStats {
            objects: items.len() as u64,
            data_bytes: (items.len() * ITEM_BYTES) as u64,
        }
    }

    /// Data size in megabytes (the unit Table 2 uses).
    pub fn data_mb(&self) -> f64 {
        self.data_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_counts_scale_with_divisor() {
        let s = WorkloadSpec::preset(Preset::NJ).with_scale(100);
        assert_eq!(s.road_count(), 4_144);
        assert_eq!(s.hydro_count(), 508);
        let s2 = s.with_scale(1_000);
        assert_eq!(s2.road_count(), 414);
    }

    #[test]
    fn generated_counts_match_the_spec() {
        let w = WorkloadSpec::preset(Preset::NJ).with_scale(500).generate(1);
        assert_eq!(w.roads.len() as u64, 414_442 / 500);
        assert_eq!(w.hydro.len() as u64, 50_853 / 500);
        assert_eq!(w.name, "NJ");
    }

    #[test]
    fn road_and_hydro_ids_never_collide() {
        let w = WorkloadSpec::preset(Preset::NY)
            .with_scale(1_000)
            .generate(2);
        let max_road = w.roads.iter().map(|i| i.id).max().unwrap();
        let min_hydro = w.hydro.iter().map(|i| i.id).min().unwrap();
        assert!(max_road < HYDRO_ID_BASE);
        assert!(min_hydro >= HYDRO_ID_BASE);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::preset(Preset::NJ).with_scale(1_000);
        let a = spec.generate(42);
        let b = spec.generate(42);
        assert_eq!(a.roads, b.roads);
        assert_eq!(a.hydro, b.hydro);
        let c = spec.generate(43);
        assert_ne!(a.roads, c.roads);
    }

    #[test]
    fn dataset_stats_match_item_count() {
        let w = WorkloadSpec::preset(Preset::NJ)
            .with_scale(1_000)
            .generate(3);
        let s = w.road_stats();
        assert_eq!(s.objects, w.roads.len() as u64);
        assert_eq!(s.data_bytes, (w.roads.len() * ITEM_BYTES) as u64);
        assert!(s.data_mb() > 0.0);
    }

    #[test]
    fn join_selectivity_is_in_the_tiger_ballpark() {
        // The paper's output sizes are roughly 0.3-0.5 pairs per road object.
        // The synthetic generator is tuned to land in the same order of
        // magnitude (a factor of ~3 either way is acceptable).
        let w = WorkloadSpec::preset(Preset::NJ).with_scale(50).generate(7);
        let pairs = w.reference_join_size();
        let per_road = pairs as f64 / w.roads.len() as f64;
        assert!(
            per_road > 0.05 && per_road < 3.0,
            "selectivity {per_road} pairs/road is far from the TIGER workload"
        );
    }

    #[test]
    fn reference_join_matches_brute_force_on_tiny_workload() {
        let w = WorkloadSpec::preset(Preset::NJ)
            .with_scale(3_000)
            .generate(9);
        let brute: u64 = w
            .roads
            .iter()
            .map(|r| {
                w.hydro
                    .iter()
                    .filter(|h| r.rect.intersects(&h.rect))
                    .count() as u64
            })
            .sum();
        assert_eq!(w.reference_join_size(), brute);
    }

    #[test]
    fn region_grows_with_preset_size() {
        let nj = WorkloadSpec::preset(Preset::NJ).with_scale(100).region();
        let d16 = WorkloadSpec::preset(Preset::Disk1_6)
            .with_scale(100)
            .region();
        assert!(d16.area() > 10.0 * nj.area());
    }
}
