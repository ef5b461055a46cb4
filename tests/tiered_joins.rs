//! The ledger of joins over datasets with tiers, run through the service.
//!
//! A live dataset mid-ingest is a base run with its R-tree, sorted delta
//! runs on the device, and sorted in-memory runs (frozen batches and the
//! memtable). This suite joins such datasets with each other and with a
//! registered dataset — full joins and `LIMIT` joins, under the default
//! `Algo::Auto` and with `Algo::Sssj` forced, and two live datasets under
//! `Algo::Pbsm` and `Algo::St`, which write the merge of a side's runs out
//! first — plus a pair of tall live datasets under a small budget, where
//! the sweep spills and fixes up.
//!
//! Every row of `ledgers/tiered_joins.ledger` pins the pair count, a digest
//! of the pairs in delivery order and an order-insensitive one (`set`: a
//! change of delivery order alone moves `order`, never `set`), every
//! `IoStats` field, every `CpuOp` count, the index page requests and the
//! measured memory peak. A tiered side is read through `usj_io`'s one
//! k-way merge, which charges its heap's `HeapOp` and `Compare` as the
//! external sort's merge does, so those two counters include it.
//!
//! `ledgers/tiered_registered.ledger` pins registered datasets: what
//! `Catalog::register` charges and the block layout of the sorted run it
//! leaves (64-page blocks; a run of another block size moves its read
//! operations), every algorithm joining two registered datasets, and a
//! window and a point selection.

use unified_spatial_join::geom::{Item, ITEM_BYTES};
use unified_spatial_join::io::ledger::{self, Row};
use unified_spatial_join::prelude::*;

/// Deterministic scattered rectangles; every 13th is tall, so some items
/// stay alive across many sweep positions.
fn scatter(n: u32, id_base: u32, seed: u64) -> Vec<Item> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32
    };
    (0..n)
        .map(|i| {
            let (x, y) = (next() * 200.0, next() * 200.0);
            let w = 0.5 + next() * 5.0;
            let h = if i % 13 == 0 {
                40.0
            } else {
                0.5 + next() * 5.0
            };
            Item::new(Rect::from_coords(x, y, x + w, y + h), id_base + i)
        })
        .collect()
}

/// Tall columns: nothing expires, so the resident sets grow to the input.
fn columns(n: u32, id_base: u32, shift: f32) -> Vec<Item> {
    (0..n)
        .map(|i| {
            let x = ((i % 250) as f32) * 4.0 + shift;
            Item::new(Rect::from_coords(x, 0.0, x + 1.0, 1_000.0), id_base + i)
        })
        .collect()
}

/// Registers `items[..base]` as a live dataset and appends the rest in
/// 37-record calls, leaving delta runs and a memtable behind.
fn grow(
    service: &Service,
    name: &str,
    items: &[Item],
    base: usize,
    config: LiveConfig,
) -> DatasetId {
    let id = service.register_live(name, &items[..base], config).unwrap();
    for chunk in items[base..].chunks(37) {
        service.append_live(name, chunk).unwrap();
    }
    service.with_live(|live| {
        let ds = live.get(id).unwrap();
        assert!(!ds.delta_runs().is_empty(), "{name} must hold delta runs");
        assert!(ds.memtable_len() > 0, "{name} must hold a memtable");
    });
    id
}

fn observed() -> Vec<Row> {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let reg = catalog
        .register(&mut env, "reg", &scatter(900, 500_000, 3))
        .unwrap();
    let service = Service::new(env, catalog, ServiceConfig::default().with_workers(1));
    let small = LiveConfig {
        flush_threshold_bytes: 48 * ITEM_BYTES,
        compact_after_deltas: 3,
    };
    let a = grow(&service, "a", &scatter(1_000, 0, 1), 300, small);
    let b = grow(&service, "b", &scatter(850, 100_000, 2), 250, small);
    let tall = LiveConfig {
        flush_threshold_bytes: 700 * ITEM_BYTES,
        compact_after_deltas: 3,
    };
    let ta = grow(&service, "ta", &columns(8_000, 1_000_000, 0.0), 5_000, tall);
    let tb = grow(&service, "tb", &columns(8_000, 2_000_000, 0.5), 5_000, tall);

    let mut names = Vec::new();
    let mut requests = Vec::new();
    let sweeps = [("auto", Algo::Auto), ("sssj", Algo::Sssj)];
    // PBSM and ST read a tiered side as the merge of its runs, written out.
    let all = [
        ("auto", Algo::Auto),
        ("sssj", Algo::Sssj),
        ("pbsm", Algo::Pbsm),
        ("st", Algo::St),
    ];
    for (label, left, right, algos) in [
        ("live×live", a, b, &all[..]),
        ("live×reg", a, reg, &sweeps[..]),
        ("reg×live", reg, b, &sweeps[..]),
    ] {
        for &(algo_label, algo) in algos {
            for limit in [None, Some(40)] {
                let mut request = QueryRequest::join(left, right)
                    .with_algorithm(algo)
                    .collecting();
                let mut name = format!("{label} {algo_label}");
                if let Some(k) = limit {
                    request = request.with_limit(k);
                    name += &format!(" limit {k}");
                }
                names.push(name);
                requests.push(request);
            }
        }
    }
    for (algo_label, algo) in [("auto", Algo::Auto), ("sssj", Algo::Sssj)] {
        names.push(format!("tall 512k {algo_label}"));
        requests.push(
            QueryRequest::join(ta, tb)
                .with_algorithm(algo)
                .with_memory_budget(512 * 1024)
                .collecting(),
        );
    }

    rows(&service, names, requests)
}

/// Runs `requests` as one batch and turns each outcome into a ledger row.
fn rows(service: &Service, names: Vec<String>, requests: Vec<QueryRequest>) -> Vec<Row> {
    let report = service.run(requests);
    assert_eq!(report.stats.failed, 0);
    names
        .into_iter()
        .zip(&report.outcomes)
        .map(|(name, outcome)| {
            let r = outcome.result().unwrap();
            let pairs = outcome.pairs.as_ref().unwrap();
            assert_eq!(pairs.len() as u64, r.pairs, "{name}");
            if name.starts_with("tall") {
                assert!(r.sweep.spill_runs > 0, "{name} must spill: {:?}", r.sweep);
            }
            Row::new(name)
                .with("pairs", r.pairs)
                .digests(pairs)
                .io(&r.io)
                .cpu(&r.cpu)
                .with("index_pages", r.index_page_requests)
                .with("peak", r.memory.peak_bytes as u64)
        })
        .collect()
}

/// Registers two datasets, then runs every join algorithm over them (full
/// and `LIMIT`) and a window and a point selection over one. The first two
/// rows are the registrations themselves: the records, digests of the
/// sorted run's ids in run order, the charged I/O and CPU, the tree's node
/// count, the gauge peak and the sorted run's block size and page count.
fn observed_registered() -> Vec<Row> {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let mut registrations = Vec::new();
    for (name, items) in [
        ("r1", scatter(900, 500_000, 3)),
        ("r2", scatter(700, 300_000, 4)),
    ] {
        env.memory.begin_phase();
        let measurement = env.begin();
        let id = catalog.register(&mut env, name, &items).unwrap();
        let (io, cpu) = env.since(&measurement);
        let peak = env.memory.peak();
        let ds = catalog.get(id).unwrap().cataloged();
        let ids: Vec<(u32, u32)> = ds
            .sorted
            .read_all(&mut env)
            .unwrap()
            .iter()
            .map(|it| (it.id, 0))
            .collect();
        registrations.push(
            Row::new(format!("register {name}"))
                .with("records", ids.len() as u64)
                .digests(&ids)
                .io(&io)
                .cpu(&cpu)
                .with("tree.nodes", ds.tree.nodes())
                .with("peak", peak as u64)
                .with("layout.pages_per_block", ds.sorted.pages_per_block())
                .with("layout.pages", ds.sorted.pages()),
        );
    }
    let (r1, r2) = (
        catalog.lookup("r1").unwrap().0,
        catalog.lookup("r2").unwrap().0,
    );
    let service = Service::new(env, catalog, ServiceConfig::default().with_workers(1));

    let mut names = Vec::new();
    let mut requests = Vec::new();
    for (algo_label, algo) in [
        ("auto", Algo::Auto),
        ("sssj", Algo::Sssj),
        ("pq", Algo::Pq),
        ("st", Algo::St),
    ] {
        for limit in [None, Some(40)] {
            let mut request = QueryRequest::join(r1, r2).with_algorithm(algo).collecting();
            let mut name = format!("reg×reg {algo_label}");
            if let Some(k) = limit {
                request = request.with_limit(k);
                name += &format!(" limit {k}");
            }
            names.push(name);
            requests.push(request);
        }
    }
    names.push("reg window".to_string());
    requests
        .push(QueryRequest::window(r1, Rect::from_coords(40.0, 60.0, 110.0, 90.0)).collecting());
    names.push("reg point".to_string());
    requests.push(QueryRequest::point(r1, Point::new(100.0, 100.0)).collecting());

    registrations.extend(rows(&service, names, requests));
    registrations
}

#[test]
fn tiered_joins_charge_what_is_pinned() {
    ledger::check(include_str!("ledgers/tiered_joins.ledger"), &observed());
}

#[test]
fn registered_datasets_charge_what_is_pinned() {
    ledger::check(
        include_str!("ledgers/tiered_registered.ledger"),
        &observed_registered(),
    );
}
