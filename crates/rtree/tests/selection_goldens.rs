//! Golden answers and charged work of the R-tree's selection queries.
//!
//! The read path under a selection — the device's page read, the LRU
//! buffer pool, the node decode, the traversal's entry tests — may be
//! rebuilt for host speed as often as anyone likes, as long as nothing the
//! paper's cost model can see moves. This suite pins, per data set × case ×
//! store, at seed 42: an order-sensitive digest of the delivered ids, the
//! page I/O, every charged CPU counter and the buffer pool's hits, misses
//! and evictions. The cases are 200 windows, 50 points and 50 windows with
//! a `LIMIT 5` (the early break). Each runs once with a fresh gauged store
//! per query, as the service's selections do, and once through one shared
//! 4-page store, so that the pool evicts.
//!
//! On a mismatch the failure message prints the observed table in the
//! literal syntax below, so an *intended* change is a copy-paste plus an
//! explanation.

use std::ops::ControlFlow;

use usj_datagen::rng::SmallRng;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{Item, Point, Rect};
use usj_io::{CpuOp, MachineConfig, SimEnv, PAGE_SIZE};
use usj_rtree::{NodeStore, RTree};

/// What one case is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    /// Items delivered, over every query of the case.
    items: u64,
    /// FNV-1a over the `(query, id)` sequence, in delivery order.
    order: u64,
    /// Pages read, sequential and random read operations.
    io: [u64; 3],
    /// `Compare`, `HeapOp`, `RectTest`, `ItemMove`, `OutputPair` as charged.
    cpu: [u64; 5],
    /// Pool hits, misses and evictions, summed over the case's stores.
    pool: [u64; 3],
}

/// Order-sensitive FNV-1a digest of a `(query, id)` sequence.
struct OrderDigest(u64);

impl OrderDigest {
    fn add(&mut self, query: usize, id: u32) {
        for byte in (query as u32)
            .to_le_bytes()
            .into_iter()
            .chain(id.to_le_bytes())
        {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A data set's road tree on its own device.
struct Fixture {
    env: SimEnv,
    roads: Vec<Item>,
    tree: RTree,
}

fn fixture(preset: Preset, scale: u64) -> Fixture {
    let w = WorkloadSpec::preset(preset).with_scale(scale).generate(42);
    let mut env = SimEnv::new(MachineConfig::machine3()).with_memory_limit(16 << 20);
    let tree = env.unaccounted(|env| RTree::bulk_load(env, &w.roads).unwrap());
    Fixture {
        env,
        roads: w.roads,
        tree,
    }
}

/// `n` seeded windows inside `space`, each side up to `frac` of the box's.
fn windows(rng: &mut SmallRng, space: Rect, n: usize, frac: f32) -> Vec<Rect> {
    let (w, h) = (space.hi.x - space.lo.x, space.hi.y - space.lo.y);
    (0..n)
        .map(|_| {
            let x = rng.gen_range_f32(space.lo.x, space.hi.x);
            let y = rng.gen_range_f32(space.lo.y, space.hi.y);
            let (dx, dy) = (rng.gen_f32() * frac * w, rng.gen_f32() * frac * h);
            Rect::from_coords(x, y, x + dx, y + dy)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    Windows,
    Points,
    Limit5,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    /// A fresh gauged 256 KB store per query.
    Fresh,
    /// One 4-page store shared by every query of the case.
    Shared4,
}

const FRESH_BYTES: usize = 256 * 1024;

impl Fixture {
    fn observe(&mut self, case: Case, store: Store) -> Golden {
        let mut rng = SmallRng::seed_from_u64(42 ^ case as u64);
        let space = self.tree.bbox();
        let queries = match case {
            Case::Windows => windows(&mut rng, space, 200, 0.05),
            // The centres of seeded roads: every point stabs at least one.
            Case::Points => (0..50)
                .map(|_| {
                    let c = self.roads[rng.gen_range_usize(0, self.roads.len())]
                        .rect
                        .center();
                    Rect::from_coords(c.x, c.y, c.x, c.y)
                })
                .collect(),
            Case::Limit5 => windows(&mut rng, space, 50, 0.2),
        };
        let env = &mut self.env;
        let tree = &self.tree;
        let mut shared = NodeStore::with_capacity_bytes(4 * PAGE_SIZE);
        let mut pool = [0u64; 3];
        let mut order = OrderDigest(0xcbf2_9ce4_8422_2325);
        let mut items = 0u64;
        let m = env.begin();
        let mut run = |env: &mut SimEnv, f: &mut dyn FnMut(&mut SimEnv, &mut NodeStore)| match store
        {
            Store::Fresh => {
                let mut fresh = NodeStore::with_capacity_bytes_gauged(FRESH_BYTES, &env.memory);
                f(env, &mut fresh);
                let s = fresh.stats();
                pool = [pool[0] + s.hits, pool[1] + s.misses, pool[2] + s.evictions];
            }
            Store::Shared4 => f(env, &mut shared),
        };
        match case {
            Case::Windows | Case::Limit5 => {
                let limit = if case == Case::Limit5 { 5 } else { u64::MAX };
                for (q, window) in queries.iter().enumerate() {
                    run(env, &mut |env, store| {
                        let mut seen = 0u64;
                        tree.window_query_via(env, store, window, &mut |it: Item| {
                            if seen == limit {
                                return ControlFlow::Break(());
                            }
                            seen += 1;
                            order.add(q, it.id);
                            ControlFlow::Continue(())
                        })
                        .unwrap();
                        items += seen;
                    });
                }
            }
            Case::Points => {
                for (q, window) in queries.iter().enumerate() {
                    run(env, &mut |env, store| {
                        let point = Point::new(window.lo.x, window.lo.y);
                        for it in tree.point_query(env, store, &point).unwrap() {
                            order.add(q, it.id);
                            items += 1;
                        }
                    });
                }
            }
        }
        if store == Store::Shared4 {
            let s = shared.stats();
            pool = [s.hits, s.misses, s.evictions];
        }
        let (io, cpu) = env.since(&m);
        assert_eq!(
            env.memory.current(),
            0,
            "{case:?} / {store:?} left gauge bytes behind"
        );
        Golden {
            items,
            order: order.0,
            io: [io.pages_read, io.seq_read_ops, io.rand_read_ops],
            cpu: CpuOp::all().map(|op| cpu.get(op)),
            pool,
        }
    }
}

const CASES: [(Case, Store); 6] = [
    (Case::Windows, Store::Fresh),
    (Case::Windows, Store::Shared4),
    (Case::Points, Store::Fresh),
    (Case::Points, Store::Shared4),
    (Case::Limit5, Store::Fresh),
    (Case::Limit5, Store::Shared4),
];

#[rustfmt::skip]
const GOLDENS: [(Preset, u64, [Golden; 6]); 2] = [
    (Preset::Disk1, 200, [
        Golden { items: 3545, order: 2393824571816916260, io: [601, 0, 601], cpu: [0, 0, 174638, 174638, 0], pool: [0, 601, 0] },
        Golden { items: 3545, order: 2393824571816916260, io: [396, 0, 396], cpu: [0, 0, 174638, 174638, 0], pool: [205, 396, 392] },
        Golden { items: 122, order: 12842340207047757218, io: [121, 1, 120], cpu: [0, 0, 32096, 32096, 0], pool: [0, 121, 0] },
        Golden { items: 122, order: 12842340207047757218, io: [67, 0, 67], cpu: [0, 0, 32096, 32096, 0], pool: [54, 67, 63] },
        Golden { items: 247, order: 14202824942944907429, io: [109, 0, 109], cpu: [0, 0, 12848, 27214, 0], pool: [0, 109, 0] },
        Golden { items: 247, order: 14202824942944907429, io: [53, 0, 53], cpu: [0, 0, 12848, 27214, 0], pool: [56, 53, 49] },
    ]),
    (Preset::NY, 20, [
        Golden { items: 5215, order: 7993940398475685951, io: [606, 0, 606], cpu: [0, 0, 184100, 184100, 0], pool: [0, 606, 0] },
        Golden { items: 5215, order: 7993940398475685951, io: [400, 1, 399], cpu: [0, 0, 184100, 184100, 0], pool: [206, 400, 396] },
        Golden { items: 59, order: 9877870538532302060, io: [121, 0, 121], cpu: [0, 0, 33750, 33750, 0], pool: [0, 121, 0] },
        Golden { items: 59, order: 9877870538532302060, io: [72, 0, 72], cpu: [0, 0, 33750, 33750, 0], pool: [49, 72, 68] },
        Golden { items: 245, order: 15540945267605228432, io: [115, 0, 115], cpu: [0, 0, 17665, 31420, 0], pool: [0, 115, 0] },
        Golden { items: 245, order: 15540945267605228432, io: [63, 0, 63], cpu: [0, 0, 17665, 31420, 0], pool: [52, 63, 59] },
    ]),
];

#[test]
fn selections_deliver_and_charge_what_they_did() {
    let mut observed = String::new();
    let mut mismatches = Vec::new();
    for (preset, scale, want) in GOLDENS {
        let mut fx = fixture(preset, scale);
        observed.push_str(&format!("    (Preset::{preset:?}, {scale}, [\n"));
        for ((case, store), want) in CASES.into_iter().zip(want) {
            let got = fx.observe(case, store);
            observed.push_str(&format!("        {got:?},\n"));
            if got != want {
                mismatches.push(format!("{case:?} / {store:?} on {preset:?}"));
            }
        }
        observed.push_str("    ]),\n");
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatch for {mismatches:?}; observed table:\n{observed}"
    );
}
