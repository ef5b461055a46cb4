//! Joins over live snapshots mid-ingest.
//!
//! A snapshot enters a join as a cataloged input with tiers
//! ([`LiveSnapshot::cataloged`](crate::LiveSnapshot::cataloged)); SSSJ
//! reads it as the merge of its runs, with no sort, and emits pairs while
//! the runs are still being scanned. These cases hold it to offline SSSJ
//! over the materialised snapshot: same pair set, exactly once, under
//! distance predicates, `LIMIT`s, either side order and memory pressure.

#[cfg(test)]
mod tests {
    use crate::catalog::{LiveConfig, LiveDataset, LiveSnapshot};
    use usj_core::{
        CollectSink, JoinInput, JoinOperator, JoinResult, LimitSink, PairSink, Predicate, SssjJoin,
    };
    use usj_geom::{Item, Rect};
    use usj_io::{MachineConfig, SimEnv};

    fn env() -> SimEnv {
        SimEnv::new(MachineConfig::machine3())
    }

    fn batch(n: u32, id_base: u32, seed: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let h = (i.wrapping_mul(2_654_435_761).wrapping_add(seed)) % 10_000;
                let x = (h % 97) as f32;
                let y = (h % 89) as f32;
                Item::new(Rect::from_coords(x, y, x + 3.0, y + 3.0), id_base + i)
            })
            .collect()
    }

    fn tall(n: u32, id_base: u32, shift: f32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let x = ((i % 250) as f32) * 4.0 + shift;
                Item::new(Rect::from_coords(x, 0.0, x + 1.0, 1_000.0), id_base + i)
            })
            .collect()
    }

    fn tiny_config() -> LiveConfig {
        LiveConfig {
            flush_threshold_bytes: 64 * usj_geom::ITEM_BYTES,
            compact_after_deltas: 3,
        }
    }

    /// Builds a live dataset mid-ingestion: base + delta runs + memtable.
    fn live_pair(env: &mut SimEnv) -> (LiveDataset, LiveDataset) {
        let mut l = LiveDataset::create(env, "l", &batch(300, 0, 1), tiny_config()).unwrap();
        l.append(env, &batch(250, 10_000, 2)).unwrap();
        let mut r = LiveDataset::create(env, "r", &batch(300, 500_000, 3), tiny_config()).unwrap();
        r.append(env, &batch(250, 600_000, 4)).unwrap();
        (l, r)
    }

    /// A registered dataset: a sealed live dataset's snapshot, a base run
    /// and its tree with no tiers.
    fn registered(env: &mut SimEnv, items: &[Item]) -> LiveSnapshot {
        LiveDataset::create(env, "registered", items, tiny_config())
            .unwrap()
            .snapshot()
    }

    fn cataloged(snap: &LiveSnapshot) -> JoinInput<'_> {
        JoinInput::Cataloged(snap.cataloged())
    }

    fn sssj(
        env: &mut SimEnv,
        predicate: Predicate,
        l: JoinInput<'_>,
        r: JoinInput<'_>,
        sink: &mut dyn PairSink,
    ) -> JoinResult {
        SssjJoin::default()
            .with_predicate(predicate)
            .run_with(env, l, r, sink)
            .unwrap()
    }

    /// Offline SSSJ over both inputs materialised as one sorted stream each.
    fn offline(
        env: &mut SimEnv,
        predicate: Predicate,
        l: JoinInput<'_>,
        r: JoinInput<'_>,
    ) -> Vec<(u32, u32)> {
        let (sl, _) = l.to_sorted_stream(env, None).unwrap();
        let (sr, _) = r.to_sorted_stream(env, None).unwrap();
        let mut sink = CollectSink::default();
        sssj(
            env,
            predicate,
            JoinInput::Stream(&sl),
            JoinInput::Stream(&sr),
            &mut sink,
        );
        sorted(sink.pairs)
    }

    fn sorted(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn streaming_join_matches_offline_sssj_on_the_same_snapshot() {
        let mut env = env();
        let (l, r) = live_pair(&mut env);
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());
        assert!(snap_l.has_tiers() && snap_r.has_tiers());

        let mut live_sink = CollectSink::default();
        let p = Predicate::default();
        let result = sssj(
            &mut env,
            p,
            cataloged(&snap_l),
            cataloged(&snap_r),
            &mut live_sink,
        );
        let offline_pairs = offline(&mut env, p, cataloged(&snap_l), cataloged(&snap_r));

        assert!(result.pairs > 0, "the workload must actually join");
        assert_eq!(result.pairs, offline_pairs.len() as u64);
        let live_sorted = sorted(live_sink.pairs);
        assert_eq!(live_sorted, offline_pairs);
        // Exactly-once: no duplicates in the streaming output.
        assert!(live_sorted.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn distance_predicate_matches_offline() {
        let mut env = env();
        let (l, r) = live_pair(&mut env);
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());
        let p = Predicate::WithinDistance(1.5);

        let mut live_sink = CollectSink::default();
        sssj(
            &mut env,
            p,
            cataloged(&snap_l),
            cataloged(&snap_r),
            &mut live_sink,
        );
        let offline_pairs = offline(&mut env, p, cataloged(&snap_l), cataloged(&snap_r));

        assert!(!offline_pairs.is_empty());
        assert_eq!(sorted(live_sink.pairs), offline_pairs);
    }

    #[test]
    fn limit_sink_terminates_the_join_early() {
        let mut env = env();
        let (l, r) = live_pair(&mut env);
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());
        let mut sink = LimitSink::new(CollectSink::default(), 7);
        let p = Predicate::default();
        let result = sssj(
            &mut env,
            p,
            cataloged(&snap_l),
            cataloged(&snap_r),
            &mut sink,
        );
        assert_eq!(result.pairs, 7);
        assert_eq!(sink.into_inner().pairs.len(), 7);
    }

    #[test]
    fn mixed_live_cataloged_join_matches_offline_sssj() {
        let mut env = env();
        let (l, _) = live_pair(&mut env);
        let snap = l.snapshot();
        let cat = registered(&mut env, &batch(400, 800_000, 9));

        let mut mixed_sink = CollectSink::default();
        let p = Predicate::default();
        let mixed = sssj(
            &mut env,
            p,
            cataloged(&snap),
            cataloged(&cat),
            &mut mixed_sink,
        );
        let offline_pairs = offline(&mut env, p, cataloged(&snap), cataloged(&cat));

        assert!(mixed.pairs > 0, "the workload must actually join");
        assert_eq!(mixed.pairs, offline_pairs.len() as u64);
        let mixed_sorted = sorted(mixed_sink.pairs);
        assert_eq!(mixed_sorted, offline_pairs);
        assert!(mixed_sorted.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn mixed_join_sides_commute_as_pair_sets() {
        // Cataloged × live delivers the same pair set as live × cataloged
        // with the ids swapped — no hidden left/right asymmetry.
        let mut env = env();
        let (l, _) = live_pair(&mut env);
        let snap = l.snapshot();
        let cat = registered(&mut env, &batch(300, 700_000, 5));

        let p = Predicate::default();
        let mut ab = CollectSink::default();
        sssj(&mut env, p, cataloged(&snap), cataloged(&cat), &mut ab);
        let mut ba = CollectSink::default();
        sssj(&mut env, p, cataloged(&cat), cataloged(&snap), &mut ba);
        let flipped: Vec<(u32, u32)> = ba.pairs.into_iter().map(|(a, b)| (b, a)).collect();
        assert!(!flipped.is_empty());
        assert_eq!(sorted(ab.pairs), sorted(flipped));
    }

    #[test]
    fn mixed_join_respects_limit_sinks() {
        let mut env = env();
        let (l, _) = live_pair(&mut env);
        let snap = l.snapshot();
        let cat = registered(&mut env, &batch(400, 800_000, 9));
        let mut sink = LimitSink::new(CollectSink::default(), 5);
        let result = sssj(
            &mut env,
            Predicate::default(),
            cataloged(&snap),
            cataloged(&cat),
            &mut sink,
        );
        assert_eq!(result.pairs, 5);
        assert_eq!(sink.into_inner().pairs.len(), 5);
    }

    #[test]
    fn mixed_join_spills_under_a_4mb_budget_and_matches_offline() {
        // Tall rectangles never expire, so the resident sets grow to the
        // whole input. The worker runs at the 4 MB service-style limit with
        // a standing reservation emulating co-resident query working sets
        // (the admission-control situation that actually squeezes a join),
        // so the driver's headroom-derived budget forces spilling — and the
        // fix-up joins must still recover every pair, byte for byte.
        let mut env = env();
        let l = LiveDataset::create(&mut env, "l", &tall(4_000, 0, 0.0), tiny_config()).unwrap();
        let snap = l.snapshot();
        let cat = registered(&mut env, &tall(4_000, 1_000_000, 0.5));

        let base = env.device.snapshot();
        let mut worker = env.fork_with_base(base);
        worker.set_memory_limit(4 * 1024 * 1024);
        let _standing = worker.memory.try_reserve(3_800_000).unwrap();
        let mut mixed_sink = CollectSink::default();
        let p = Predicate::default();
        let mixed = sssj(
            &mut worker,
            p,
            cataloged(&snap),
            cataloged(&cat),
            &mut mixed_sink,
        );
        assert!(
            mixed.sweep.spill_runs > 0,
            "the squeezed 4 MB budget must force spilling: {:?}",
            mixed.sweep
        );
        assert!(mixed.memory.peak_bytes <= 4 * 1024 * 1024);

        let offline_pairs = offline(&mut env, p, cataloged(&snap), cataloged(&cat));
        assert!(!offline_pairs.is_empty());
        assert_eq!(sorted(mixed_sink.pairs), offline_pairs);
    }

    #[test]
    fn spilling_under_a_small_memory_limit_matches_offline() {
        // Tall rectangles never expire, so the resident sets grow to the
        // whole input and blow through the governed budget: the driver must
        // spill and recover every pair via fix-up joins. The join runs on a
        // memory-limited worker fork over a device snapshot — the service
        // execution model — while dataset preparation stays unconstrained.
        let mut env = env();
        let l = LiveDataset::create(&mut env, "l", &tall(4_000, 0, 0.0), tiny_config()).unwrap();
        let r =
            LiveDataset::create(&mut env, "r", &tall(4_000, 100_000, 0.5), tiny_config()).unwrap();
        let (snap_l, snap_r) = (l.snapshot(), r.snapshot());

        let base = env.device.snapshot();
        let mut worker = env.fork_with_base(base);
        worker.set_memory_limit(128 * 1024);
        let mut live_sink = CollectSink::default();
        let p = Predicate::default();
        let result = sssj(
            &mut worker,
            p,
            cataloged(&snap_l),
            cataloged(&snap_r),
            &mut live_sink,
        );
        assert!(
            result.sweep.spill_runs > 0,
            "the budget must force spilling: {:?}",
            result.sweep
        );
        assert!(result.memory.peak_bytes <= 128 * 1024);

        let offline_pairs = offline(&mut env, p, cataloged(&snap_l), cataloged(&snap_r));
        assert!(!offline_pairs.is_empty());
        assert_eq!(sorted(live_sink.pairs), offline_pairs);
    }
}
