//! The deterministic inputs of the differential suites: the friendly
//! `workload` and, beside it, the coordinate-edge and degenerate-window
//! `*_killer` families (ROADMAP 4(f)).
//!
//! Shared, by `#[path]`, with the workspace's `tests/st_coordinate_edges.rs`,
//! which runs the same families through ST on bulk-loaded trees — one
//! definition, so a family added here is fuzzed at both levels.

use usj_geom::{Item, Rect};

/// SplitMix64 — the same deterministic generator the datagen crate uses.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        let t = (self.next() >> 40) as f32 / (1u64 << 24) as f32;
        lo + t * (hi - lo)
    }
}

/// A mix of short segments (the TIGER-like common case) and a few long-lived
/// wide rectangles (the expiry/tombstone stress case).
pub fn workload(seed: u64, n: usize, id_base: u32) -> Vec<Item> {
    let mut rng = Rng(seed);
    (0..n as u32)
        .map(|i| {
            let x = rng.f32_in(-100.0, 100.0);
            let y = rng.f32_in(-100.0, 100.0);
            let (w, h) = if i % 13 == 0 {
                (rng.f32_in(20.0, 120.0), rng.f32_in(20.0, 120.0))
            } else {
                (rng.f32_in(0.0, 3.0), rng.f32_in(0.0, 3.0))
            };
            Item::new(Rect::from_coords(x, y, x + w, y + h), id_base + i)
        })
        .collect()
}

/// Brute-force pair set.
pub fn brute(left: &[Item], right: &[Item]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in left {
        for b in right.iter().filter(|b| a.rect.intersects(&b.rect)) {
            out.push((a.id, b.id));
        }
    }
    out.sort_unstable();
    out
}

pub fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
    Item::new(Rect::from_coords(x0, y0, x1, y1), id)
}

/// One input pair that stresses a kernel somewhere other than its common
/// path. `nan` marks the family whose rectangles are not all rectangles.
pub struct Family {
    pub name: &'static str,
    pub left: Vec<Item>,
    pub right: Vec<Item>,
    pub nan: bool,
}

/// Coordinate edges (ROADMAP 4(f)) and degenerate windows: the `*_killer`
/// families kept beside the friendly `workload`.
pub fn families() -> Vec<Family> {
    let mut out = Vec::new();
    let mut family = |name, left, right, nan| {
        out.push(Family {
            name,
            left,
            right,
            nan,
        })
    };
    let mut rng = Rng(0xED6E);

    // Both zeroes on every edge: -0.0 and +0.0 compare equal, key equal and
    // must expire, sort and touch alike.
    let zero = [-0.0f32, 0.0];
    let side = |base: u32| -> Vec<Item> {
        (0..64u32)
            .map(|i| {
                let z = |k: u32| zero[((i >> k) & 1) as usize];
                match i % 4 {
                    0 => item(-1.0, -1.0, z(2), z(3), base + i),
                    1 => item(z(2), z(3), 1.0, 1.0, base + i),
                    2 => item(z(2), -2.0, z(3), z(4), base + i),
                    _ => item(z(2), z(3), z(4), z(5), base + i),
                }
            })
            .collect()
    };
    family("zeroes", side(0), side(1000), false);

    // Points and segments: zero width, zero height, both.
    let mut side = |base: u32| -> Vec<Item> {
        (0..200u32)
            .map(|i| {
                let (x, y) = ((rng.next() % 12) as f32, (rng.next() % 12) as f32);
                let (w, h) = match i % 3 {
                    0 => (0.0, 0.0),
                    1 => ((rng.next() % 4) as f32, 0.0),
                    _ => (0.0, (rng.next() % 4) as f32),
                };
                item(x, y, x + w, y + h, base + i)
            })
            .collect()
    };
    family("zero_area", side(0), side(1000), false);

    // Two relations that only touch, along the line x = 10 and in the
    // corner (10, 10): the window two R-tree nodes share has no extent.
    let mut side = |x0: f32, base: u32| -> Vec<Item> {
        (0..120u32)
            .map(|i| {
                let (x, y) = ((rng.next() % 9) as f32, (rng.next() % 9) as f32);
                let (w, h) = ((rng.next() % 3) as f32, (rng.next() % 3) as f32);
                item(
                    x0 + x,
                    y,
                    x0 + (x + w).min(10.0),
                    (y + h).min(10.0),
                    base + i,
                )
            })
            .collect()
    };
    family("touching", side(0.0, 0), side(10.0, 1000), false);

    // Floods of equal upper edges (and equal lower edges): ties everywhere
    // the expiry queue and the sort look.
    let mut side = |base: u32| -> Vec<Item> {
        (0..300u32)
            .map(|i| {
                let x = (rng.next() % 50) as f32;
                let lo = (rng.next() % 4) as f32;
                let hi = 4.0 + (rng.next() % 3) as f32;
                item(x, lo, x + 2.0, hi, base + i)
            })
            .collect()
    };
    family("equal_hi_flood", side(0), side(1000), false);

    // The extremes of the format, as coordinates and as extents.
    let edge = [
        -f32::MAX,
        -1e30,
        -1.0,
        -1e-40,
        -1e-45,
        0.0,
        1e-45,
        1e-40,
        1.0,
        1e30,
        f32::MAX,
    ];
    let mut side = |base: u32| -> Vec<Item> {
        (0..150u32)
            .map(|i| {
                let mut pick = || edge[(rng.next() % edge.len() as u64) as usize];
                let (a, b, c, d) = (pick(), pick(), pick(), pick());
                item(a.min(b), c.min(d), a.max(b), c.max(d), base + i)
            })
            .collect()
    };
    family("extremes", side(0), side(1000), false);

    // NaN (of either sign) in one coordinate of a fifth of the rectangles
    // — any but the lower y, which is the sweep order itself: the drivers
    // assert it ascends. Such a rectangle intersects nothing; one with a
    // NaN upper edge is a tombstone from birth that never expires.
    let side = |seed: u64, base: u32| -> Vec<Item> {
        let mut items = workload(seed, 200, base);
        for (i, it) in items.iter_mut().enumerate().filter(|(i, _)| i % 5 == 0) {
            let nan = [f32::NAN, f32::from_bits(0xFFC0_0000)][i % 2];
            match (i / 5) % 3 {
                0 => it.rect.lo.x = nan,
                1 => it.rect.hi.x = nan,
                _ => it.rect.hi.y = nan,
            }
        }
        items
    };
    family("nan", side(7, 0), side(8, 1000), true);

    // Every rectangle the same one: nothing ever separates them.
    let same = |base: u32| {
        (0..150)
            .map(|i| item(3.0, 3.0, 5.0, 5.0, base + i))
            .collect()
    };
    family("identical", same(0), same(1000), false);

    // Tall rectangles: everything that has arrived stays alive.
    let mut side = |base: u32| -> Vec<Item> {
        (0..250u32)
            .map(|i| {
                let x = rng.f32_in(0.0, 1000.0);
                let y = rng.f32_in(0.0, 100.0);
                item(
                    x,
                    y,
                    x + rng.f32_in(0.01, 0.1),
                    y + rng.f32_in(200.0, 900.0),
                    base + i,
                )
            })
            .collect()
    };
    let (left, right) = (side(0), side(1000));
    // Their mirror image — wide and flat: the same pairs, nothing alive for
    // long. A sweep that picks its axis must not tell the two apart.
    let mirror = |items: &[Item]| items.iter().map(Item::transposed).collect();
    family("wide", mirror(&left), mirror(&right), false);
    family("tall", left, right, false);

    // One entry alive from the first arrival to the last pins the window's
    // start while thousands of short ones die inside it: a scan that did
    // not reclaim them would walk them all, for every arrival.
    let mut side = |base: u32| -> Vec<Item> {
        let mut items = vec![item(0.0, -1.0, 1000.0, 1e6, base)];
        items.extend((1..6_000u32).map(|i| {
            let x = rng.f32_in(0.0, 1000.0);
            item(x, i as f32, x + 0.5, i as f32 + 1.5, base + i)
        }));
        items
    };
    family("pinned_window", side(0), side(100_000), false);
    out
}
