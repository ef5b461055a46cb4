//! Property-based tests for the workload generator, on the in-tree
//! `usj_proptest` harness.

use usj_proptest::forall;

use crate::{Preset, WorkloadSpec};

#[test]
fn every_generated_rectangle_is_valid_and_inside_the_region() {
    forall!(16, |g| {
        let seed = g.u64_in(0, 1_000);
        let preset = Preset::small()[g.usize_in(0, 3)];
        let spec = WorkloadSpec::preset(preset).with_scale(2_000);
        let w = spec.generate(seed);
        let region = w.region;
        for it in w.roads.iter().chain(w.hydro.iter()) {
            assert!(it.rect.lo.x <= it.rect.hi.x);
            assert!(it.rect.lo.y <= it.rect.hi.y);
            // Hydro segments may be padded slightly beyond the region.
            assert!(it.rect.lo.x >= region.lo.x - 1.0);
            assert!(it.rect.hi.x <= region.hi.x + 1.0);
            assert!(it.rect.lo.y >= region.lo.y - 1.0);
            assert!(it.rect.hi.y <= region.hi.y + 1.0);
        }
    });
}

#[test]
fn ids_are_unique_within_a_workload() {
    forall!(16, |g| {
        let seed = g.u64_in(0, 1_000);
        let w = WorkloadSpec::preset(Preset::NJ)
            .with_scale(1_000)
            .generate(seed);
        let mut ids: Vec<u32> = w.roads.iter().chain(w.hydro.iter()).map(|i| i.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    });
}

#[test]
fn relation_size_ratio_matches_table2() {
    forall!(16, |g| {
        let seed = g.u64_in(0, 100);
        let preset = Preset::small()[g.usize_in(0, 3)];
        let w = WorkloadSpec::preset(preset)
            .with_scale(1_000)
            .generate(seed);
        let paper_ratio = preset.paper_road_objects() as f64 / preset.paper_hydro_objects() as f64;
        let ours = w.roads.len() as f64 / w.hydro.len() as f64;
        assert!(
            (ours / paper_ratio - 1.0).abs() < 0.05,
            "road/hydro ratio {ours} deviates from the paper's {paper_ratio}"
        );
    });
}
