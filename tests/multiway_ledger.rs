//! The ledger of the §4 three-way cascade `(roads ⋈ hydro) ⋈ zones`.
//!
//! `ledgers/multiway.ledger` pins, on NJ at scale 200 (seed 42) with a
//! third relation of large lake-like zones, for all-indexed and all-stream
//! inputs, full and `LIMIT` runs: the triple count, the intermediate pairs,
//! a digest of the triples in delivery order and one of them sorted (`set`:
//! a change of delivery order alone moves `order`, never `set`), the index
//! page requests, the two sweeps' structure bytes, every `CpuOp` count,
//! every `IoStats` field and the measured memory peak. A rewrite of the
//! cascade or of the sweep under it that moves any of them is a behaviour
//! change: the failure message prints the observed ledger.

use std::ops::ControlFlow;
use std::sync::Arc;

use unified_spatial_join::datagen::generator::{GeneratorConfig, TigerLikeGenerator};
use unified_spatial_join::geom::Item;
use unified_spatial_join::io::ledger::{self, Fnv1a, Row};
use unified_spatial_join::io::{ItemStream, Page};
use unified_spatial_join::join::multiway::Triple;
use unified_spatial_join::prelude::*;

/// Triples collected up to an optional limit, after which the sink stops
/// the cascade.
struct Collect {
    triples: Vec<Triple>,
    limit: Option<usize>,
}

impl TripleSink for Collect {
    fn emit(&mut self, a: u32, b: u32, c: u32) -> ControlFlow<()> {
        if self.limit.is_some_and(|k| self.triples.len() >= k) {
            return ControlFlow::Break(());
        }
        self.triples.push((a, b, c));
        ControlFlow::Continue(())
    }
}

/// FNV-1a of `triples` in the order given.
fn digest(triples: &[Triple]) -> u64 {
    let mut h = Fnv1a::default();
    for &(a, b, c) in triples {
        for id in [a, b, c] {
            h.write(&id.to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn the_cascade_charges_what_is_pinned() {
    let w = WorkloadSpec::preset(Preset::NJ)
        .with_scale(200)
        .generate(42);
    let mut gen = TigerLikeGenerator::new(
        7,
        w.region,
        w.roads.len() as u64,
        GeneratorConfig::default(),
    );
    let zones: Vec<Item> = gen.hydro(w.hydro.len() as u64 / 4, 0x6000_0000);
    let mut env = SimEnv::new(MachineConfig::machine3());
    let relations = [&w.roads, &w.hydro, &zones];
    let trees = relations.map(|items| env.unaccounted(|env| RTree::bulk_load(env, items).unwrap()));
    let streams =
        relations.map(|items| env.unaccounted(|env| ItemStream::from_items(env, items).unwrap()));
    let base: Arc<Vec<Page>> = env.device.snapshot();

    let mut got = Vec::new();
    for (inputs, [a, b, c]) in [
        ("indexed", trees.each_ref().map(JoinInput::Indexed)),
        ("stream", streams.each_ref().map(JoinInput::Stream)),
    ] {
        for limit in [None, Some(10)] {
            let mut env = env.fork_with_base(Arc::clone(&base));
            let mut sink = Collect {
                triples: Vec::new(),
                limit,
            };
            let m = env.begin();
            let res = MultiwayJoin
                .run_with(&mut env, a, b, c, &mut sink)
                .unwrap_or_else(|e| panic!("{inputs} limit {limit:?} failed: {e}"));
            let (io, cpu) = env.since(&m);
            assert_eq!((io, cpu), (res.io, res.cpu));
            assert_eq!(res.triples, sink.triples.len() as u64);
            let mut sorted = sink.triples.clone();
            sorted.sort_unstable();
            let label = match limit {
                Some(k) => format!("NJ {inputs} limit {k}"),
                None => format!("NJ {inputs} full"),
            };
            got.push(
                Row::new(label)
                    .with("triples", res.triples)
                    .with("intermediate", res.intermediate_pairs)
                    .with("order", digest(&sink.triples))
                    .with("set", digest(&sorted))
                    .with("index_page_requests", res.index_page_requests)
                    .with("sweep_bytes", res.memory.sweep_structure_bytes as u64)
                    .cpu(&cpu)
                    .io(&io)
                    .with("peak", res.memory.peak_bytes as u64),
            );
        }
    }
    ledger::check(include_str!("ledgers/multiway.ledger"), &got);
}
