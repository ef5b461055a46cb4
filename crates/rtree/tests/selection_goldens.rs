//! Golden answers and charged work of the R-tree's selection queries.
//!
//! The read path under a selection — the device's page read, the LRU
//! buffer pool, the node decode, the traversal's entry tests — may be
//! rebuilt for host speed as often as anyone likes, as long as nothing the
//! paper's cost model can see moves. `ledgers/selection_goldens.ledger`
//! pins, per data set × case × store, at seed 42: the items delivered,
//! digests of the delivered `(query, id)` sequence, the page I/O, every
//! charged CPU counter and the buffer pool's hits, misses and evictions.
//! The cases are 200 windows, 50 points and 50 windows with a `LIMIT 5`
//! (the early break). Each runs once with a fresh gauged store per query,
//! as the service's selections do, and once through one shared 4-page
//! store, so that the pool evicts.

use std::ops::ControlFlow;

use usj_datagen::rng::SmallRng;
use usj_datagen::{Preset, WorkloadSpec};
use usj_geom::{Item, Point, Rect};
use usj_io::ledger::{self, Row};
use usj_io::{MachineConfig, SimEnv, PAGE_SIZE};
use usj_rtree::{NodeStore, RTree};

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
    fn observe(&mut self, preset: Preset, case: Case, store: Store) -> Row {
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
        let mut delivered: Vec<(u32, u32)> = Vec::new();
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
                            delivered.push((q as u32, it.id));
                            ControlFlow::Continue(())
                        })
                        .unwrap();
                    });
                }
            }
            Case::Points => {
                for (q, window) in queries.iter().enumerate() {
                    run(env, &mut |env, store| {
                        let point = Point::new(window.lo.x, window.lo.y);
                        for it in tree.point_query(env, store, &point).unwrap() {
                            delivered.push((q as u32, it.id));
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
        Row::new(format!("{preset:?} {case:?} {store:?}"))
            .with("items", delivered.len() as u64)
            .digests(&delivered)
            .io(&io)
            .cpu(&cpu)
            .with("pool.hits", pool[0])
            .with("pool.misses", pool[1])
            .with("pool.evictions", pool[2])
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

#[test]
fn selections_deliver_and_charge_what_they_did() {
    let mut got = Vec::new();
    for (preset, scale) in [(Preset::Disk1, 200), (Preset::NY, 20)] {
        let mut fx = fixture(preset, scale);
        for (case, store) in CASES {
            got.push(fx.observe(preset, case, store));
        }
    }
    ledger::check(include_str!("ledgers/selection_goldens.ledger"), &got);
}
