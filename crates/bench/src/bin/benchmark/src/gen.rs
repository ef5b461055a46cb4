//! Seeded inputs: everything a workload feeds the system is derived from
//! `--seed` here, each consumer on its own domain-separated SplitMix64
//! stream, so changing one mix never perturbs another's draws.

use usj_core::Algo;
use usj_datagen::rng::SmallRng;
use usj_geom::{Item, Point, Rect};

use crate::stats::Fnv;

/// Stream separators (ASCII tags).
pub const DOMAIN_TALL: u64 = 0x5441_4c4c_5f5f_5f31; // "TALL___1"
pub const DOMAIN_TRAFFIC: u64 = 0x5452_4146_4649_4331; // "TRAFFIC1"
pub const DOMAIN_ARRIVALS: u64 = 0x4152_5249_5641_4c31; // "ARRIVAL1"
pub const DOMAIN_PROBE: u64 = 0x5052_4f42_455f_5f31; // "PROBE__1"

/// An independent generator for `(seed, domain, lane)`.
pub fn rng_for(seed: u64, domain: u64, lane: u64) -> SmallRng {
    // One SplitMix64 step over the mixed key decorrelates neighbouring seeds.
    let mut mix = SmallRng::seed_from_u64(seed ^ domain ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SmallRng::seed_from_u64(mix.next_u64())
}

/// FNV-1a over the exact bits of every generated item, in order.
pub fn input_digest(relations: &[&[Item]]) -> u64 {
    let mut h = Fnv::new();
    for items in relations {
        h.eat_u64(items.len() as u64);
        for it in *items {
            h.eat_u32(it.rect.lo.x.to_bits());
            h.eat_u32(it.rect.lo.y.to_bits());
            h.eat_u32(it.rect.hi.x.to_bits());
            h.eat_u32(it.rect.hi.y.to_bits());
            h.eat_u32(it.id);
        }
    }
    h.finish()
}

/// Side of the square region the *tall* family lives in.
pub const TALL_REGION: f32 = 1000.0;

/// The adversarial *tall* family: thin rectangles, long along the sweep
/// (y) axis — heights uniform in `heights`, (20, 200) at full size — so a
/// tenth of each relation is resident at every sweep position: the geometry
/// that makes sweeps spill and PBSM go quadratic.
pub fn tall_family(
    seed: u64,
    left: usize,
    right: usize,
    heights: (f32, f32),
) -> (Vec<Item>, Vec<Item>) {
    let side = |lane: u64, n: usize, first_id: u32| {
        let mut rng = rng_for(seed, DOMAIN_TALL, lane);
        (0..n)
            .map(|i| {
                let w = rng.gen_range_f32(0.01, 0.1);
                let h = rng.gen_range_f32(heights.0, heights.1);
                let x = rng.gen_f32() * (TALL_REGION - w);
                let y = rng.gen_f32() * (TALL_REGION - h);
                Item::new(Rect::from_coords(x, y, x + w, y + h), first_id + i as u32)
            })
            .collect::<Vec<_>>()
    };
    (side(0, left, 0), side(1, right, 0x4000_0000))
}

/// What one generated request asks for (dataset ids are bound at submit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReqKind {
    Window(Rect),
    Point(Point),
    Join(Algo),
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReqSpec {
    pub kind: ReqKind,
    pub priority: u8,
    pub limit: Option<u64>,
    /// Arrives already cancelled: must resolve `Cancelled(None)` unrun.
    pub cancelled: bool,
}

impl ReqSpec {
    pub fn is_join(&self) -> bool {
        matches!(self.kind, ReqKind::Join(_))
    }
}

/// Algorithms the join share of `serve_mixed` rotates through.
pub const JOIN_ROTATION: [Algo; 5] = [Algo::Auto, Algo::Sssj, Algo::Pbsm, Algo::Pq, Algo::St];

/// The request mix of the `serve_*` workloads: `join_share` of requests are
/// joins (rotating [`JOIN_ROTATION`]); the rest are selections — 85 %
/// windows of 0.5–5 % of the region per axis, 15 % points — of which 10 %
/// carry a `LIMIT`, 3 % arrive cancelled and 20 % have priority 1–3.
pub struct Traffic {
    rng: SmallRng,
    region: Rect,
    join_share: f64,
    joins: usize,
}

impl Traffic {
    pub fn new(seed: u64, lane: u64, region: Rect, join_share: f64) -> Self {
        Traffic {
            rng: rng_for(seed, DOMAIN_TRAFFIC, lane),
            region,
            join_share,
            joins: 0,
        }
    }

    pub fn window(&mut self) -> Rect {
        window_in(&mut self.rng, self.region, 0.005, 0.05)
    }

    fn join(&mut self) -> ReqSpec {
        let algo = JOIN_ROTATION[self.joins % JOIN_ROTATION.len()];
        self.joins += 1;
        ReqSpec {
            kind: ReqKind::Join(algo),
            priority: 0,
            limit: None,
            cancelled: false,
        }
    }

    fn selection(&mut self) -> ReqSpec {
        let rng = &mut self.rng;
        let kind = if rng.gen_f64() < 0.15 {
            let x = self.region.lo.x + rng.gen_f32() * self.region.width();
            let y = self.region.lo.y + rng.gen_f32() * self.region.height();
            ReqKind::Point(Point::new(x, y))
        } else {
            ReqKind::Window(window_in(rng, self.region, 0.005, 0.05))
        };
        let priority = if rng.gen_f64() < 0.2 {
            rng.gen_range_usize(1, 4) as u8
        } else {
            0
        };
        let limit = (rng.gen_f64() < 0.1).then(|| rng.gen_range_usize(1, 64) as u64);
        let cancelled = rng.gen_f64() < 0.03;
        ReqSpec {
            kind,
            priority,
            limit,
            cancelled,
        }
    }

    /// The next `n` requests. Exactly `join_share` of them are joins, at
    /// seeded positions: joins own the CPU, so a binomial count of them
    /// would put its own 6 % seed-to-seed spread on every number of
    /// `serve_mixed`.
    pub fn batch(&mut self, n: usize) -> Vec<ReqSpec> {
        let joins = (n as f64 * self.join_share).round() as usize;
        // Selection sampling: each position is a join with probability
        // (joins still to place) / (positions left).
        let mut to_place = joins.min(n);
        (0..n)
            .map(|i| {
                if self.rng.gen_range_usize(0, n - i) < to_place {
                    to_place -= 1;
                    self.join()
                } else {
                    self.selection()
                }
            })
            .collect()
    }
}

/// A window covering `lo..hi` of `region` per axis, placed uniformly.
pub fn window_in(rng: &mut SmallRng, region: Rect, lo: f32, hi: f32) -> Rect {
    let w = region.width() * rng.gen_range_f32(lo, hi);
    let h = region.height() * rng.gen_range_f32(lo, hi);
    let x = region.lo.x + rng.gen_f32() * (region.width() - w).max(0.0);
    let y = region.lo.y + rng.gen_f32() * (region.height() - h).max(0.0);
    Rect::from_coords(x, y, x + w, y + h)
}

/// Poisson arrivals: due instants (ns from the phase start) at `rate_hz`
/// for `duration_s`, exponential gaps from the arrivals stream of `lane`.
pub fn poisson_arrivals(seed: u64, lane: u64, rate_hz: f64, duration_s: f64) -> Vec<u64> {
    let mut rng = rng_for(seed, DOMAIN_ARRIVALS, lane);
    let mut due = Vec::with_capacity((rate_hz * duration_s * 1.1) as usize + 8);
    let mut t = 0.0f64;
    loop {
        // Clamped away from ln(0).
        let u = rng.gen_f64().min(1.0 - 1e-12);
        t += -(1.0 - u).ln() / rate_hz;
        if t >= duration_s {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_replay_from_the_seed_and_differ_across_seeds() {
        let (l1, r1) = tall_family(7, 500, 100, (20.0, 200.0));
        let (l2, r2) = tall_family(7, 500, 100, (20.0, 200.0));
        assert_eq!(input_digest(&[&l1, &r1]), input_digest(&[&l2, &r2]));
        let (l3, r3) = tall_family(8, 500, 100, (20.0, 200.0));
        assert_ne!(input_digest(&[&l1, &r1]), input_digest(&[&l3, &r3]));
        assert!(l1
            .iter()
            .all(|it| it.rect.height() >= 20.0 && it.rect.width() <= 0.11));

        let region = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let a = Traffic::new(7, 0, region, 0.1).batch(400);
        assert_eq!(a, Traffic::new(7, 0, region, 0.1).batch(400));
        assert_ne!(a, Traffic::new(7, 1, region, 0.1).batch(400));
        let joins = a.iter().filter(|r| r.is_join()).count();
        assert_eq!(joins, 40, "exactly a tenth are joins");

        let due = poisson_arrivals(7, 0, 1000.0, 2.0);
        assert_eq!(due, poisson_arrivals(7, 0, 1000.0, 2.0));
        assert!((1800..=2200).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }
}
