//! Cross-algorithm tests: all four joins must agree with each other and with
//! a brute-force join on realistic TIGER-like workloads.

use usj_datagen::{Preset, WorkloadSpec};
use usj_io::{ItemStream, MachineConfig, SimEnv};
use usj_rtree::RTree;

use crate::{JoinAlgorithm, JoinInput, JoinOperator};

fn env() -> SimEnv {
    SimEnv::new(MachineConfig::machine3())
}

fn tiny_workload() -> usj_datagen::Workload {
    WorkloadSpec::preset(Preset::NJ).with_scale(400).generate(11)
}

#[test]
fn all_four_algorithms_agree_on_a_tiger_like_workload() {
    let mut env = env();
    let w = tiny_workload();
    let expected = w.reference_join_size();
    assert!(expected > 0, "workload must produce intersections");

    let roads_tree = RTree::bulk_load(&mut env, &w.roads).unwrap();
    let hydro_tree = RTree::bulk_load(&mut env, &w.hydro).unwrap();
    let roads_stream = ItemStream::from_items(&mut env, &w.roads).unwrap();
    let hydro_stream = ItemStream::from_items(&mut env, &w.hydro).unwrap();

    for alg in JoinAlgorithm::all() {
        let (left, right) = match alg {
            // The index joins get the indexed representation, the stream
            // joins get the flat files — exactly as in the paper's setup.
            JoinAlgorithm::Pq | JoinAlgorithm::St => (
                JoinInput::Indexed(&roads_tree),
                JoinInput::Indexed(&hydro_tree),
            ),
            _ => (
                JoinInput::Stream(&roads_stream),
                JoinInput::Stream(&hydro_stream),
            ),
        };
        let res = alg.run(&mut env, left, right).unwrap();
        assert_eq!(
            res.pairs, expected,
            "{} disagrees with the reference join",
            alg.name()
        );
    }
}

#[test]
fn pq_and_st_agree_on_indexed_inputs_and_report_page_requests() {
    let mut env = env();
    let w = tiny_workload();
    let roads_tree = RTree::bulk_load(&mut env, &w.roads).unwrap();
    let hydro_tree = RTree::bulk_load(&mut env, &w.hydro).unwrap();

    let pq = crate::PqJoin::default()
        .run(
            &mut env,
            JoinInput::Indexed(&roads_tree),
            JoinInput::Indexed(&hydro_tree),
        )
        .unwrap();
    let st = crate::StJoin::default()
        .run(
            &mut env,
            JoinInput::Indexed(&roads_tree),
            JoinInput::Indexed(&hydro_tree),
        )
        .unwrap();
    assert_eq!(pq.pairs, st.pairs);
    // PQ touches every node exactly once — the "optimal" count of Table 4.
    assert_eq!(
        pq.index_page_requests,
        roads_tree.nodes() + hydro_tree.nodes()
    );
    assert!(st.index_page_requests > 0);
}

#[test]
fn identical_pair_sets_not_just_counts() {
    let mut env = env();
    let w = WorkloadSpec::preset(Preset::NJ).with_scale(1_000).generate(3);
    let roads_tree = RTree::bulk_load(&mut env, &w.roads).unwrap();
    let hydro_tree = RTree::bulk_load(&mut env, &w.hydro).unwrap();
    let roads_stream = ItemStream::from_items(&mut env, &w.roads).unwrap();
    let hydro_stream = ItemStream::from_items(&mut env, &w.hydro).unwrap();

    let (_, mut pq_pairs) = crate::PqJoin::default()
        .run_collect(
            &mut env,
            JoinInput::Indexed(&roads_tree),
            JoinInput::Indexed(&hydro_tree),
        )
        .unwrap();
    let (_, mut sssj_pairs) = crate::SssjJoin::default()
        .run_collect(
            &mut env,
            JoinInput::Stream(&roads_stream),
            JoinInput::Stream(&hydro_stream),
        )
        .unwrap();
    let (_, mut pbsm_pairs) = crate::PbsmJoin::default()
        .run_collect(
            &mut env,
            JoinInput::Stream(&roads_stream),
            JoinInput::Stream(&hydro_stream),
        )
        .unwrap();
    let (_, mut st_pairs) = crate::StJoin::default()
        .run_collect(
            &mut env,
            JoinInput::Indexed(&roads_tree),
            JoinInput::Indexed(&hydro_tree),
        )
        .unwrap();
    for v in [&mut pq_pairs, &mut sssj_pairs, &mut pbsm_pairs, &mut st_pairs] {
        v.sort_unstable();
        v.dedup();
    }
    assert_eq!(pq_pairs, sssj_pairs);
    assert_eq!(pq_pairs, pbsm_pairs);
    assert_eq!(pq_pairs, st_pairs);
}

#[test]
fn algorithm_enum_exposes_names() {
    assert_eq!(JoinAlgorithm::all().len(), 4);
    assert_eq!(JoinAlgorithm::Sssj.short_name(), "SJ");
    assert_eq!(JoinAlgorithm::Pbsm.name(), "PBSM");
    assert_eq!(JoinAlgorithm::Pq.short_name(), "PQ");
    assert_eq!(JoinAlgorithm::St.name(), "ST");
}

#[test]
fn sssj_transfers_more_pages_but_pq_issues_more_random_requests() {
    // The heart of Figure 3: SSSJ reads and writes far more data than PQ, but
    // it does so in large sequential blocks, while PQ pays one (mostly
    // random) page request per index node.
    let mut env = env();
    let w = WorkloadSpec::preset(Preset::NY).with_scale(50).generate(5);
    let roads_tree = RTree::bulk_load(&mut env, &w.roads).unwrap();
    let hydro_tree = RTree::bulk_load(&mut env, &w.hydro).unwrap();
    let roads_stream = ItemStream::from_items(&mut env, &w.roads).unwrap();
    let hydro_stream = ItemStream::from_items(&mut env, &w.hydro).unwrap();

    let sssj = crate::SssjJoin::default()
        .run(
            &mut env,
            JoinInput::Stream(&roads_stream),
            JoinInput::Stream(&hydro_stream),
        )
        .unwrap();
    let pq = crate::PqJoin::default()
        .run(
            &mut env,
            JoinInput::Indexed(&roads_tree),
            JoinInput::Indexed(&hydro_tree),
        )
        .unwrap();
    assert_eq!(sssj.pairs, pq.pairs);
    // SSSJ moves more data in total (several passes plus writes)...
    let sssj_pages = sssj.io.pages_read + sssj.io.pages_written;
    let pq_pages = pq.io.pages_read + pq.io.pages_written;
    assert!(
        sssj_pages > pq_pages,
        "SSSJ should transfer more pages ({sssj_pages} vs {pq_pages})"
    );
    // ...but PQ issues far more individual (seek-prone) read requests.
    assert!(
        pq.io.read_ops() > sssj.io.read_ops(),
        "PQ should issue more page requests ({} vs {})",
        pq.io.read_ops(),
        sssj.io.read_ops()
    );
}
