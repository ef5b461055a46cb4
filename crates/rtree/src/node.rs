//! On-page R-tree node format.
//!
//! A node occupies exactly one 8 KiB page. The paper sets the maximum fanout
//! to 400 entries of 20 bytes each (a bounding rectangle plus either a child
//! page number or an object identifier), which leaves room for a small
//! header.

use usj_geom::{Item, Point, Rect};
use usj_io::{IoSimError, PageId, Result, PAGE_SIZE};

/// Maximum number of entries per node (the paper's fanout of 400).
pub const MAX_FANOUT: usize = 400;

/// Size of one serialized entry: 16 bytes of rectangle + 4 bytes of payload.
pub const ENTRY_BYTES: usize = 20;

/// Byte offset of the first entry (after the node header).
const HEADER_BYTES: usize = 4;

/// Whether a node is a leaf (entries point at data objects) or an internal
/// node (entries point at child pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Entries are data MBRs with object identifiers.
    Leaf,
    /// Entries are directory rectangles with child page numbers.
    Internal,
}

/// One entry of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEntry {
    /// Bounding rectangle of the entry.
    pub rect: Rect,
    /// Object identifier (leaf) or child page number (internal).
    pub payload: u32,
}

impl NodeEntry {
    /// Interprets the entry as a data item (valid for leaf entries).
    pub fn as_item(&self) -> Item {
        Item::new(self.rect, self.payload)
    }

    /// Interprets the entry's payload as a child page number.
    pub fn child_page(&self) -> PageId {
        PageId::from(self.payload)
    }
}

/// A decoded R-tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Leaf or internal.
    pub kind: NodeKind,
    /// The node's entries, at most [`MAX_FANOUT`].
    pub entries: Vec<NodeEntry>,
}

impl Node {
    /// Creates an empty node of the given kind.
    pub fn new(kind: NodeKind) -> Self {
        Node {
            kind,
            entries: Vec::new(),
        }
    }

    /// Number of entries in the node.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Directory rectangle: the union of all entry rectangles.
    pub fn mbr(&self) -> Rect {
        self.entries
            .iter()
            .fold(Rect::empty(), |acc, e| acc.union(&e.rect))
    }

    /// Serializes the node into a page-sized buffer.
    ///
    /// # Panics
    ///
    /// Panics if the node holds more than [`MAX_FANOUT`] entries.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.entries.len() <= MAX_FANOUT, "node overflows the fanout");
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = match self.kind {
            NodeKind::Leaf => 0,
            NodeKind::Internal => 1,
        };
        let count = self.entries.len() as u16;
        buf[1..3].copy_from_slice(&count.to_le_bytes());
        for (i, e) in self.entries.iter().enumerate() {
            let off = HEADER_BYTES + i * ENTRY_BYTES;
            buf[off..off + 4].copy_from_slice(&e.rect.lo.x.to_le_bytes());
            buf[off + 4..off + 8].copy_from_slice(&e.rect.lo.y.to_le_bytes());
            buf[off + 8..off + 12].copy_from_slice(&e.rect.hi.x.to_le_bytes());
            buf[off + 12..off + 16].copy_from_slice(&e.rect.hi.y.to_le_bytes());
            buf[off + 16..off + 20].copy_from_slice(&e.payload.to_le_bytes());
        }
        buf
    }

    /// Decodes a node from a page buffer.
    pub fn decode(buf: &[u8]) -> Result<Node> {
        let mut entries = Vec::new();
        let kind = Node::decode_into(buf, &mut entries)?;
        Ok(Node { kind, entries })
    }

    /// Decodes the node in `buf` into `entries` (cleared first, its
    /// allocation reused) and returns the node's kind:
    /// [`decode`](Node::decode) for a reader that visits many nodes.
    pub fn decode_into(buf: &[u8], entries: &mut Vec<NodeEntry>) -> Result<NodeKind> {
        if buf.len() < HEADER_BYTES {
            return Err(IoSimError::CorruptRecord("node page too small"));
        }
        let kind = match buf[0] {
            0 => NodeKind::Leaf,
            1 => NodeKind::Internal,
            _ => return Err(IoSimError::CorruptRecord("unknown node kind")),
        };
        let count = u16::from_le_bytes([buf[1], buf[2]]) as usize;
        if count > MAX_FANOUT || HEADER_BYTES + count * ENTRY_BYTES > buf.len() {
            return Err(IoSimError::CorruptRecord("node entry count out of range"));
        }
        let body = &buf[HEADER_BYTES..HEADER_BYTES + count * ENTRY_BYTES];
        entries.clear();
        entries.extend(body.chunks_exact(ENTRY_BYTES).map(|e| {
            let f = |o: usize| f32::from_le_bytes([e[o], e[o + 1], e[o + 2], e[o + 3]]);
            NodeEntry {
                rect: Rect {
                    lo: Point::new(f(0), f(4)),
                    hi: Point::new(f(8), f(12)),
                },
                payload: u32::from_le_bytes([e[16], e[17], e[18], e[19]]),
            }
        }));
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(x0: f32, y0: f32, x1: f32, y1: f32, payload: u32) -> NodeEntry {
        NodeEntry {
            rect: Rect::from_coords(x0, y0, x1, y1),
            payload,
        }
    }

    // 400 entries of 20 bytes plus the header must fit in one 8 KiB page.
    const _: () = assert!(HEADER_BYTES + MAX_FANOUT * ENTRY_BYTES <= PAGE_SIZE);

    #[test]
    fn fanout_matches_the_paper() {
        assert_eq!(MAX_FANOUT, 400);
    }

    #[test]
    fn encode_decode_roundtrip_leaf() {
        let mut n = Node::new(NodeKind::Leaf);
        for i in 0..37 {
            let f = i as f32;
            n.entries.push(entry(f, f * 2.0, f + 1.0, f * 2.0 + 1.0, i));
        }
        let buf = n.encode();
        assert_eq!(buf.len(), PAGE_SIZE);
        assert_eq!(Node::decode(&buf).unwrap(), n);
    }

    #[test]
    fn encode_decode_roundtrip_internal_and_full_node() {
        let mut n = Node::new(NodeKind::Internal);
        for i in 0..MAX_FANOUT as u32 {
            let f = i as f32;
            n.entries.push(entry(f, f, f + 2.0, f + 2.0, i + 100));
        }
        let decoded = Node::decode(&n.encode()).unwrap();
        assert_eq!(decoded.kind, NodeKind::Internal);
        assert_eq!(decoded.len(), MAX_FANOUT);
        assert_eq!(decoded.entries[5].child_page(), 105);
    }

    #[test]
    fn empty_node_roundtrip() {
        let n = Node::new(NodeKind::Leaf);
        let decoded = Node::decode(&n.encode()).unwrap();
        assert!(decoded.is_empty());
        assert!(decoded.mbr().is_empty());
    }

    #[test]
    fn mbr_covers_all_entries() {
        let mut n = Node::new(NodeKind::Leaf);
        n.entries.push(entry(0.0, 0.0, 1.0, 1.0, 1));
        n.entries.push(entry(5.0, -2.0, 6.0, 0.5, 2));
        let mbr = n.mbr();
        assert_eq!(mbr, Rect::from_coords(0.0, -2.0, 6.0, 1.0));
    }

    #[test]
    fn decode_into_reuses_the_buffer_and_keeps_only_the_new_entries() {
        let mut full = Node::new(NodeKind::Leaf);
        for i in 0..40 {
            full.entries.push(entry(0.0, 0.0, i as f32, 1.0, i));
        }
        let mut small = Node::new(NodeKind::Internal);
        small.entries.push(entry(1.0, 2.0, 3.0, 4.0, 9));
        let mut entries = Vec::new();
        assert_eq!(Node::decode_into(&full.encode(), &mut entries).unwrap(), NodeKind::Leaf);
        assert_eq!(entries, full.entries);
        let capacity = entries.capacity();
        assert_eq!(
            Node::decode_into(&small.encode(), &mut entries).unwrap(),
            NodeKind::Internal
        );
        assert_eq!(entries, small.entries);
        assert_eq!(entries.capacity(), capacity);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Node::decode(&[1, 2]).is_err());
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = 9; // unknown kind
        assert!(Node::decode(&buf).is_err());
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = 0;
        buf[1..3].copy_from_slice(&u16::MAX.to_le_bytes()); // absurd count
        assert!(Node::decode(&buf).is_err());
    }

    #[test]
    fn leaf_entry_converts_to_item() {
        let e = entry(1.0, 2.0, 3.0, 4.0, 77);
        let it = e.as_item();
        assert_eq!(it.id, 77);
        assert_eq!(it.rect, Rect::from_coords(1.0, 2.0, 3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "overflows the fanout")]
    fn encode_rejects_overfull_node() {
        let mut n = Node::new(NodeKind::Leaf);
        for i in 0..(MAX_FANOUT as u32 + 1) {
            n.entries.push(entry(0.0, 0.0, 1.0, 1.0, i));
        }
        let _ = n.encode();
    }
}
