//! The synthetic road / hydrography generators.

use crate::rng::SmallRng;
use usj_geom::{Item, Point, Rect};

/// Parameters controlling the road generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadConfig {
    /// Average length of a road-segment MBR, in map units (one map unit is
    /// roughly one road segment's worth of space; the region is sized so the
    /// overall road density is about one segment per square unit).
    pub segment_len: f32,
    /// Thickness of a road-segment MBR.
    pub thickness: f32,
    /// Average number of road segments per county cluster.
    pub segments_per_county: usize,
    /// Standard deviation of the county cluster, as a fraction of the county
    /// spacing.
    pub county_spread: f32,
}

impl Default for RoadConfig {
    fn default() -> Self {
        RoadConfig {
            segment_len: 0.9,
            thickness: 0.04,
            segments_per_county: 2_000,
            county_spread: 0.55,
        }
    }
}

/// Parameters controlling the hydrography generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HydroConfig {
    /// Length of one river-segment MBR.
    pub river_segment_len: f32,
    /// Thickness of a river-segment MBR.
    pub river_thickness: f32,
    /// Number of segments per river polyline.
    pub river_segments: usize,
    /// Side length of a lake MBR.
    pub lake_side: f32,
    /// Fraction of hydrography objects that are river segments (the rest are
    /// lakes/ponds).
    pub river_fraction: f32,
}

impl Default for HydroConfig {
    fn default() -> Self {
        HydroConfig {
            river_segment_len: 1.6,
            river_thickness: 0.08,
            river_segments: 64,
            lake_side: 0.8,
            river_fraction: 0.8,
        }
    }
}

/// Full generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeneratorConfig {
    /// Road generator parameters.
    pub roads: RoadConfig,
    /// Hydrography generator parameters.
    pub hydro: HydroConfig,
}

/// A deterministic generator for one region of TIGER-like data.
#[derive(Debug)]
pub struct TigerLikeGenerator {
    rng: SmallRng,
    region: Rect,
    config: GeneratorConfig,
    counties: Vec<Point>,
    county_sigma: f32,
}

impl TigerLikeGenerator {
    /// Creates a generator for `region`. The number of counties is derived
    /// from the expected road count so that county density stays constant
    /// across presets.
    pub fn new(seed: u64, region: Rect, expected_roads: u64, config: GeneratorConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_counties = (expected_roads as usize / config.roads.segments_per_county).max(1);
        // Counties on a jittered grid, so clusters cover the region evenly
        // the way real counties tile a state.
        let per_side = (n_counties as f64).sqrt().ceil() as usize;
        let dx = region.width() / per_side as f32;
        let dy = region.height() / per_side as f32;
        let mut counties = Vec::with_capacity(n_counties);
        'outer: for gy in 0..per_side {
            for gx in 0..per_side {
                if counties.len() >= n_counties {
                    break 'outer;
                }
                let cx = region.lo.x + (gx as f32 + 0.5 + rng.gen_range_f32(-0.25, 0.25)) * dx;
                let cy = region.lo.y + (gy as f32 + 0.5 + rng.gen_range_f32(-0.25, 0.25)) * dy;
                counties.push(Point::new(cx, cy));
            }
        }
        let county_sigma = dx.min(dy) * config.roads.county_spread;
        TigerLikeGenerator {
            rng,
            region,
            config,
            counties,
            county_sigma,
        }
    }

    /// Number of county clusters.
    pub fn county_count(&self) -> usize {
        self.counties.len()
    }

    fn clamp_point(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.region.lo.x, self.region.hi.x),
            p.y.clamp(self.region.lo.y, self.region.hi.y),
        )
    }

    /// Approximate normal sample built from uniform draws (Irwin–Hall with
    /// 4 terms), good enough for clustering and free of extra dependencies.
    fn approx_normal(&mut self, mean: f32, sigma: f32) -> f32 {
        let sum: f32 = (0..4).map(|_| self.rng.gen_range_f32(-1.0, 1.0)).sum();
        mean + sum * 0.5 * sigma * 1.73
    }

    fn random_county_point(&mut self) -> Point {
        let idx = self.rng.gen_range_usize(0, self.counties.len());
        let c = self.counties[idx];
        let sigma = self.county_sigma;
        let x = self.approx_normal(c.x, sigma);
        let y = self.approx_normal(c.y, sigma);
        self.clamp_point(Point::new(x, y))
    }

    /// Generates `count` road-segment MBRs with identifiers starting at
    /// `first_id`.
    pub fn roads(&mut self, count: u64, first_id: u32) -> Vec<Item> {
        let cfg = self.config.roads;
        let mut out = Vec::with_capacity(count as usize);
        for i in 0..count {
            let center = self.random_county_point();
            let len = cfg.segment_len * self.rng.gen_range_f32(0.4, 1.6);
            let thick = cfg.thickness * self.rng.gen_range_f32(0.5, 1.5);
            // Streets run mostly along the axes; give each a slight skew so
            // MBRs are not all perfectly degenerate.
            let horizontal = self.rng.gen_bool(0.5);
            let (w, h) = if horizontal {
                (len, thick)
            } else {
                (thick, len)
            };
            let lo = self.clamp_point(Point::new(center.x - w * 0.5, center.y - h * 0.5));
            let hi = self.clamp_point(Point::new(center.x + w * 0.5, center.y + h * 0.5));
            out.push(Item::new(Rect::from_corners(lo, hi), first_id + i as u32));
        }
        out
    }

    /// Generates `count` hydrography MBRs with identifiers starting at
    /// `first_id`.
    pub fn hydro(&mut self, count: u64, first_id: u32) -> Vec<Item> {
        let cfg = self.config.hydro;
        let mut out = Vec::with_capacity(count as usize);
        let mut id = first_id;
        let river_target = (count as f64 * f64::from(cfg.river_fraction)) as u64;
        // Rivers: meandering chains of elongated segments that start at a
        // county and drift, crossing road clusters on the way.
        while (out.len() as u64) < river_target {
            let mut pos = self.random_county_point();
            let mut heading: f32 = self.rng.gen_range_f32(0.0, std::f32::consts::TAU);
            let steps = cfg
                .river_segments
                .min((river_target - out.len() as u64) as usize);
            for _ in 0..steps {
                heading += self.rng.gen_range_f32(-0.5, 0.5);
                let len = cfg.river_segment_len * self.rng.gen_range_f32(0.6, 1.4);
                let dx = heading.cos() * len;
                let dy = heading.sin() * len;
                let next = self.clamp_point(Point::new(pos.x + dx, pos.y + dy));
                let mut rect = Rect::from_corners(pos, next);
                // A river has width: pad the segment MBR by the thickness.
                rect = Rect::from_coords(
                    rect.lo.x - cfg.river_thickness,
                    rect.lo.y - cfg.river_thickness,
                    rect.hi.x + cfg.river_thickness,
                    rect.hi.y + cfg.river_thickness,
                );
                out.push(Item::new(rect, id));
                id += 1;
                pos = next;
            }
        }
        // Lakes and ponds: compact boxes near counties.
        while (out.len() as u64) < count {
            let center = self.random_county_point();
            let side = cfg.lake_side * self.rng.gen_range_f32(0.3, 2.0);
            let lo = self.clamp_point(Point::new(center.x - side * 0.5, center.y - side * 0.5));
            let hi = self.clamp_point(Point::new(center.x + side * 0.5, center.y + side * 0.5));
            out.push(Item::new(Rect::from_corners(lo, hi), id));
            id += 1;
        }
        out.truncate(count as usize);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(side: f32) -> Rect {
        Rect::from_coords(0.0, 0.0, side, side)
    }

    #[test]
    fn generates_exact_counts_and_sequential_ids() {
        let mut g = TigerLikeGenerator::new(1, region(100.0), 5_000, GeneratorConfig::default());
        let roads = g.roads(5_000, 0);
        let hydro = g.hydro(1_200, 1_000_000);
        assert_eq!(roads.len(), 5_000);
        assert_eq!(hydro.len(), 1_200);
        assert_eq!(roads[0].id, 0);
        assert_eq!(roads[4_999].id, 4_999);
        assert_eq!(hydro[0].id, 1_000_000);
        assert_eq!(hydro[1_199].id, 1_001_199);
    }

    #[test]
    fn all_rectangles_stay_inside_the_region() {
        let r = region(50.0);
        let mut g = TigerLikeGenerator::new(2, r, 2_000, GeneratorConfig::default());
        for it in g.roads(2_000, 0) {
            assert!(
                it.rect.lo.x >= r.lo.x && it.rect.hi.x <= r.hi.x,
                "road {it:?} escapes the region"
            );
            assert!(it.rect.lo.y >= r.lo.y && it.rect.hi.y <= r.hi.y);
        }
        for it in g.hydro(500, 10_000) {
            // Rivers are padded by their thickness, so allow that margin.
            assert!(it.rect.lo.x >= r.lo.x - 0.2 && it.rect.hi.x <= r.hi.x + 0.2);
        }
    }

    #[test]
    fn same_seed_reproduces_identical_data() {
        let cfg = GeneratorConfig::default();
        let mut a = TigerLikeGenerator::new(7, region(80.0), 3_000, cfg);
        let mut b = TigerLikeGenerator::new(7, region(80.0), 3_000, cfg);
        assert_eq!(a.roads(1_000, 0), b.roads(1_000, 0));
        assert_eq!(a.hydro(300, 5_000), b.hydro(300, 5_000));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GeneratorConfig::default();
        let mut a = TigerLikeGenerator::new(1, region(80.0), 3_000, cfg);
        let mut b = TigerLikeGenerator::new(2, region(80.0), 3_000, cfg);
        assert_ne!(a.roads(100, 0), b.roads(100, 0));
    }

    #[test]
    fn roads_are_small_and_thin_hydro_is_larger() {
        let mut g = TigerLikeGenerator::new(3, region(200.0), 20_000, GeneratorConfig::default());
        let roads = g.roads(20_000, 0);
        let hydro = g.hydro(5_000, 100_000);
        let avg =
            |v: &[Item]| -> f64 { v.iter().map(|it| it.rect.area()).sum::<f64>() / v.len() as f64 };
        assert!(
            avg(&hydro) > 3.0 * avg(&roads),
            "hydro MBRs should be larger on average: {} vs {}",
            avg(&hydro),
            avg(&roads)
        );
    }

    #[test]
    fn data_is_clustered_not_uniform() {
        // Count occupied coarse grid cells: clustered data leaves a large
        // fraction of cells empty compared to a uniform scatter.
        // A 32x32 grid over 4 000 points: a uniform scatter would leave
        // almost no cell empty (expected occupancy ~98 %), while the county
        // clustering empties a visible fraction of the cells (~75-85 %
        // occupancy across seeds).
        let side = 100.0f32;
        let mut g = TigerLikeGenerator::new(4, region(side), 4_000, GeneratorConfig::default());
        let roads = g.roads(4_000, 0);
        let cells = 32usize;
        let mut occupied = vec![false; cells * cells];
        for it in &roads {
            let c = it.rect.center();
            let cx = ((c.x / side) * cells as f32).clamp(0.0, cells as f32 - 1.0) as usize;
            let cy = ((c.y / side) * cells as f32).clamp(0.0, cells as f32 - 1.0) as usize;
            occupied[cy * cells + cx] = true;
        }
        let frac = occupied.iter().filter(|&&o| o).count() as f64 / (cells * cells) as f64;
        assert!(frac < 0.9, "road data looks uniform (occupancy {frac})");
        assert!(
            frac > 0.05,
            "road data collapsed into a point (occupancy {frac})"
        );
    }

    #[test]
    fn county_count_scales_with_expected_roads() {
        let cfg = GeneratorConfig::default();
        let small = TigerLikeGenerator::new(1, region(50.0), 2_000, cfg);
        let large = TigerLikeGenerator::new(1, region(500.0), 200_000, cfg);
        assert!(large.county_count() > small.county_count());
        assert!(small.county_count() >= 1);
    }
}
