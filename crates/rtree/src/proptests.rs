//! Property-based tests on the in-tree `usj_proptest` harness: a bulk-loaded
//! tree must answer every window query exactly like a brute-force scan,
//! regardless of the data distribution, and a node read in place must be
//! the node decoding gives.

use usj_geom::{Item, Point, Rect};
use usj_io::{MachineConfig, SimEnv};
use usj_proptest::{forall, Gen};

use crate::bulk::{bulk_load, BulkLoadConfig};
use crate::node::{page_of, Node, NodeEntry, NodeKind, NodeView, MAX_FANOUT};

fn arb_items(g: &mut Gen, max_len: usize) -> Vec<Item> {
    let mut next = 0u32;
    g.vec(0, max_len, |g| {
        let x = g.f32_in(-1000.0, 1000.0);
        let y = g.f32_in(-1000.0, 1000.0);
        let w = g.f32_in(0.0, 50.0);
        let h = g.f32_in(0.0, 50.0);
        let id = next;
        next += 1;
        Item::new(Rect::from_coords(x, y, x + w, y + h), id)
    })
}

fn arb_window(g: &mut Gen) -> Rect {
    let x = g.f32_in(-1200.0, 1200.0);
    let y = g.f32_in(-1200.0, 1200.0);
    let w = g.f32_in(0.0, 800.0);
    let h = g.f32_in(0.0, 800.0);
    Rect::from_coords(x, y, x + w, y + h)
}

#[test]
fn window_query_equals_brute_force() {
    forall!(48, |g| {
        let items = arb_items(g, 600);
        let window = arb_window(g);
        let mut env = SimEnv::new(MachineConfig::machine3());
        let tree = bulk_load(&mut env, &items, BulkLoadConfig::default()).unwrap();
        let mut got: Vec<u32> = tree
            .window_query(&mut env, &window)
            .unwrap()
            .iter()
            .map(|it| it.id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<u32> = items
            .iter()
            .filter(|it| it.rect.intersects(&window))
            .map(|it| it.id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn every_item_is_reachable() {
    forall!(48, |g| {
        let items = arb_items(g, 500);
        let mut env = SimEnv::new(MachineConfig::machine3());
        let tree = bulk_load(&mut env, &items, BulkLoadConfig::default()).unwrap();
        assert_eq!(tree.num_items(), items.len() as u64);
        let mut got: Vec<u32> = tree
            .window_query(&mut env, &tree.bbox())
            .unwrap()
            .iter()
            .map(|it| it.id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<u32> = items.iter().map(|it| it.id).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn node_counts_are_within_fanout_bounds() {
    forall!(48, |g| {
        let items = arb_items(g, 800);
        if items.is_empty() {
            return;
        }
        let mut env = SimEnv::new(MachineConfig::machine3());
        let cfg = BulkLoadConfig::default();
        let tree = bulk_load(&mut env, &items, cfg).unwrap();
        // Leaves hold between fill_target (except the last) and max_fanout
        // items, so the leaf count is bounded both ways.
        let max_leaves = items.len().div_ceil(1).max(1) as u64;
        assert!(tree.num_leaves() <= max_leaves);
        let min_leaves = (items.len() as u64).div_ceil(cfg.max_fanout as u64);
        assert!(tree.num_leaves() >= min_leaves);
        assert!(tree.height() >= 1);
    });
}

/// A coordinate that is NaN one time in ten.
fn arb_coord(g: &mut Gen) -> f32 {
    if g.bool_with(0.1) {
        f32::NAN
    } else {
        g.f32_in(-1e6, 1e6)
    }
}

/// The bits of an entry: NaN coordinates compare equal to themselves.
fn entry_bits(e: &NodeEntry) -> ([u32; 4], u32) {
    let r = e.rect;
    (
        [r.lo.x, r.lo.y, r.hi.x, r.hi.y].map(f32::to_bits),
        e.payload,
    )
}

fn rect_bits(r: Rect) -> [u32; 4] {
    [r.lo.x, r.lo.y, r.hi.x, r.hi.y].map(f32::to_bits)
}

#[test]
fn a_node_view_is_the_decoded_node() {
    forall!(96, |g| {
        let kind = if g.bool_with(0.5) {
            NodeKind::Leaf
        } else {
            NodeKind::Internal
        };
        let mut node = Node::new(kind);
        // Corners drawn independently: lower above upper (inverted) as
        // often as not, and NaN here and there.
        node.entries = g.vec(0, MAX_FANOUT + 1, |g| NodeEntry {
            rect: Rect {
                lo: Point::new(arb_coord(g), arb_coord(g)),
                hi: Point::new(arb_coord(g), arb_coord(g)),
            },
            payload: g.u32(),
        });
        let buf = node.encode();
        let mut decoded = Vec::new();
        let decoded_kind = Node::decode_into(&buf, &mut decoded).unwrap();
        let view = NodeView::new(page_of(&buf)).unwrap();
        assert_eq!(view.kind(), decoded_kind);
        assert_eq!(view.len(), decoded.len());
        assert_eq!(view.is_empty(), decoded.is_empty());
        let viewed: Vec<_> = view.entries().map(|e| entry_bits(&e)).collect();
        assert_eq!(viewed, decoded.iter().map(entry_bits).collect::<Vec<_>>());
        let decoded = Node {
            kind: decoded_kind,
            entries: decoded,
        };
        assert_eq!(rect_bits(view.mbr()), rect_bits(decoded.mbr()));
    });
}
