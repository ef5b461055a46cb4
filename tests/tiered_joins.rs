//! The ledger of joins over datasets with tiers, run through the service.
//!
//! A live dataset mid-ingest is a base run with its R-tree, sorted delta
//! runs on the device, and sorted in-memory runs (frozen batches and the
//! memtable). This suite joins such datasets with each other and with a
//! registered dataset — full joins and `LIMIT` joins, under the default
//! `Algo::Auto` and with `Algo::Sssj` forced — plus a pair of tall live
//! datasets under a small budget, where the sweep spills and fixes up.
//!
//! Every row pins the pair count, a digest of the pairs in delivery order,
//! every `IoStats` field, every `CpuOp` count, the index page requests and
//! the measured memory peak. The numbers were recorded before tiered joins
//! lowered through the operators of `usj_core`; the lowering must not move
//! any of them. On a mismatch the failure message prints the observed
//! ledger in the literal syntax below.
//!
//! The two tall rows moved once since, when the spill fix-up began to
//! stream each shadow log once per epoch and to log only the arrivals a
//! spilled rectangle can still meet: pages read / written 134 / 70 → 61 /
//! 39 (random reads 45 → 25, writes 5 → 3), rectangle tests 1 742 112 →
//! 1 634 816, item moves 76 008 → 36 540, peak 397 176 → 364 456 bytes. The
//! pairs are the parent's as a set (a digest of the sorted pairs matched);
//! their delivery order follows the new fix-up.
//!
//! A second ledger pins registered datasets: what `Catalog::register`
//! charges and the block layout of the sorted run it leaves (64-page
//! blocks), every algorithm joining two registered datasets, and a window
//! and a point selection. It was recorded while a registered dataset was
//! its own type, before registration built a sealed live dataset; a run
//! of another block size moves its read operations.

use unified_spatial_join::geom::{Item, ITEM_BYTES};
use unified_spatial_join::io::CpuOp;
use unified_spatial_join::prelude::*;

/// One join's observed accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    name: String,
    pairs: u64,
    /// FNV-1a over the delivered pairs, in delivery order.
    order: u64,
    /// Pages read, pages written, then sequential and random read
    /// operations, sequential and random write operations.
    io: [u64; 6],
    /// `Compare`, `HeapOp`, `RectTest`, `ItemMove`, `OutputPair`.
    cpu: [u64; 5],
    index_pages: u64,
    peak: usize,
}

fn row(
    name: &str,
    pairs: u64,
    order: u64,
    io: [u64; 6],
    cpu: [u64; 5],
    index_pages: u64,
    peak: usize,
) -> Row {
    Row {
        name: name.to_string(),
        pairs,
        order,
        io,
        cpu,
        index_pages,
        peak,
    }
}

fn order_digest(pairs: &[(u32, u32)]) -> u64 {
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    for (a, b) in pairs {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            d = (d ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    d
}

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
    for (label, left, right) in [
        ("live×live", a, b),
        ("live×reg", a, reg),
        ("reg×live", reg, b),
    ] {
        for (algo_label, algo) in [("auto", Algo::Auto), ("sssj", Algo::Sssj)] {
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

fn io_fields(io: IoStats) -> [u64; 6] {
    [
        io.pages_read,
        io.pages_written,
        io.seq_read_ops,
        io.rand_read_ops,
        io.seq_write_ops,
        io.rand_write_ops,
    ]
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
            Row {
                name,
                pairs: r.pairs,
                order: order_digest(pairs),
                io: io_fields(r.io),
                cpu: CpuOp::all().map(|op| r.cpu.get(op)),
                index_pages: r.index_page_requests,
                peak: r.memory.peak_bytes,
            }
        })
        .collect()
}

fn table(rows: &[Row]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "        row({:?}, {}, {}, {:?}, {:?}, {}, {}),\n",
                r.name, r.pairs, r.order, r.io, r.cpu, r.index_pages, r.peak
            )
        })
        .collect()
}

/// Registers two datasets, then runs every join algorithm over them (full
/// and `LIMIT`) and a window and a point selection over one. The first two
/// rows are the registrations themselves: the records, a digest of the
/// sorted run's ids in run order, the charged I/O and CPU, the tree's node
/// count and the gauge peak. Beside the rows come the sorted runs' block
/// size and page count.
fn observed_registered() -> (Vec<Row>, Vec<[u64; 2]>) {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let mut registrations = Vec::new();
    let mut layouts = Vec::new();
    for (name, items) in [("r1", scatter(900, 500_000, 3)), ("r2", scatter(700, 300_000, 4))] {
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
        registrations.push(Row {
            name: format!("register {name}"),
            pairs: ids.len() as u64,
            order: order_digest(&ids),
            io: io_fields(io),
            cpu: CpuOp::all().map(|op| cpu.get(op)),
            index_pages: ds.tree.nodes(),
            peak,
        });
        layouts.push([ds.sorted.pages_per_block(), ds.sorted.pages()]);
    }
    let (r1, r2) = (catalog.lookup("r1").unwrap().0, catalog.lookup("r2").unwrap().0);
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
    requests.push(QueryRequest::window(r1, Rect::from_coords(40.0, 60.0, 110.0, 90.0)).collecting());
    names.push("reg point".to_string());
    requests.push(QueryRequest::point(r1, Point::new(100.0, 100.0)).collecting());

    registrations.extend(rows(&service, names, requests));
    (registrations, layouts)
}

#[test]
fn tiered_joins_charge_what_is_pinned() {
    #[rustfmt::skip]
    let want: Vec<Row> = vec![
        row("live×live auto", 1384, 17000637542952665928, [9, 0, 2, 5, 0, 0], [1847, 0, 4353, 1837, 1384], 0, 43080),
        row("live×live auto limit 40", 40, 16802868043158664245, [8, 0, 2, 4, 0, 0], [110, 0, 143, 1728, 40], 0, 41516),
        row("live×live sssj", 1384, 17000637542952665928, [9, 0, 2, 5, 0, 0], [1847, 0, 4353, 1837, 1384], 0, 43080),
        row("live×live sssj limit 40", 40, 16802868043158664245, [8, 0, 2, 4, 0, 0], [110, 0, 143, 1728, 40], 0, 41516),
        row("live×reg auto", 1480, 7696885629038524491, [8, 0, 1, 4, 0, 0], [1899, 0, 5129, 1893, 1480], 0, 44188),
        row("live×reg auto limit 40", 40, 10448453769827908105, [7, 0, 1, 3, 0, 0], [117, 0, 163, 1784, 40], 0, 42816),
        row("live×reg sssj", 1480, 7696885629038524491, [8, 0, 1, 4, 0, 0], [1899, 0, 5129, 1893, 1480], 0, 44188),
        row("live×reg sssj limit 40", 40, 10448453769827908105, [7, 0, 1, 3, 0, 0], [117, 0, 163, 1784, 40], 0, 42816),
        row("reg×live auto", 1193, 8949281035224597437, [7, 0, 1, 3, 0, 0], [1747, 0, 3993, 1744, 1193], 0, 43260),
        row("reg×live auto limit 40", 40, 4634035702925272691, [7, 0, 1, 3, 0, 0], [126, 0, 155, 1744, 40], 0, 42196),
        row("reg×live sssj", 1193, 8949281035224597437, [7, 0, 1, 3, 0, 0], [1747, 0, 3993, 1744, 1193], 0, 43260),
        row("reg×live sssj limit 40", 40, 4634035702925272691, [7, 0, 1, 3, 0, 0], [126, 0, 155, 1744, 40], 0, 42196),
        row("tall 512k auto", 256000, 14722054413933258781, [61, 39, 3, 25, 10, 3], [15968, 0, 1634816, 36540, 256000], 0, 364456),
        row("tall 512k sssj", 256000, 14722054413933258781, [61, 39, 3, 25, 10, 3], [15968, 0, 1634816, 36540, 256000], 0, 364456),
    ];
    let got = observed();
    assert!(
        got == want,
        "tiered join ledger mismatch; observed:\n{}",
        table(&got)
    );
}

#[test]
fn registered_datasets_charge_what_is_pinned() {
    #[rustfmt::skip]
    let want: Vec<Row> = vec![
        row("register r1", 900, 3853038206018435033, [12, 13, 0, 4, 6, 1], [18000, 0, 1100, 9003, 0], 4, 552352),
        row("register r2", 700, 10687253720412555121, [8, 9, 0, 4, 5, 1], [14000, 0, 800, 7002, 0], 3, 545952),
        row("reg×reg auto", 1020, 13839701360225432921, [7, 0, 0, 4, 0, 0], [1598, 0, 3326, 1605, 1020], 0, 40400),
        row("reg×reg auto limit 40", 40, 12206749211641005429, [5, 0, 0, 2, 0, 0], [124, 0, 135, 1600, 40], 0, 39152),
        row("reg×reg sssj", 1020, 13839701360225432921, [5, 0, 0, 2, 0, 0], [1598, 0, 3321, 1600, 1020], 0, 40400),
        row("reg×reg sssj limit 40", 40, 12206749211641005429, [5, 0, 0, 2, 0, 0], [124, 0, 135, 1600, 40], 0, 39152),
        row("reg×reg pq", 1020, 13839701360225432921, [5, 0, 0, 2, 0, 0], [1598, 0, 3321, 1600, 1020], 0, 40400),
        row("reg×reg pq limit 40", 40, 12206749211641005429, [5, 0, 0, 2, 0, 0], [124, 0, 135, 1600, 40], 0, 39152),
        row("reg×reg st", 1020, 9832052306234120693, [7, 0, 0, 7, 0, 0], [2108, 0, 19941, 3905, 1020], 7, 85572),
        row("reg×reg st limit 40", 40, 6454573972055725377, [4, 0, 0, 4, 0, 0], [752, 0, 8754, 805, 40], 4, 77588),
        row("reg window", 64, 13638040824507099764, [4, 0, 0, 4, 0, 0], [0, 0, 903, 903, 64], 4, 32768),
        row("reg point", 1, 3856909303764792267, [3, 0, 0, 3, 0, 0], [0, 0, 803, 803, 1], 3, 24576),
    ];
    let want_layouts: Vec<[u64; 2]> = vec![[64, 3], [64, 2]];
    let (got, layouts) = observed_registered();
    assert!(
        got == want,
        "registered ledger mismatch; observed:\n{}",
        table(&got)
    );
    assert_eq!(layouts, want_layouts, "sorted runs: [pages per block, pages]");
}
