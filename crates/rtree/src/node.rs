//! On-page R-tree node format.
//!
//! A node occupies exactly one 8 KiB page. The paper sets the maximum fanout
//! to 400 entries of 20 bytes each (a bounding rectangle plus either a child
//! page number or an object identifier), which leaves room for a small
//! header.
//!
//! A [`Node`] is the writer's form (the bulk loader packs entries into one
//! and [`encode`](Node::encode)s it); readers scan a [`NodeView`], the page
//! as it lies on the device, decoding one entry at a time.

use usj_geom::{Item, Point, Rect};
use usj_io::{IoSimError, Page, PageId, Result, PAGE_SIZE};

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
        assert!(
            self.entries.len() <= MAX_FANOUT,
            "node overflows the fanout"
        );
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

    /// Decodes the node in `buf` into `entries` (cleared first, its
    /// allocation reused) and returns the node's kind. The header is checked
    /// and each entry decoded exactly as a [`NodeView`] does.
    pub fn decode_into(buf: &[u8], entries: &mut Vec<NodeEntry>) -> Result<NodeKind> {
        let (kind, len) = header(buf)?;
        entries.clear();
        entries.extend(body(buf, len).map(decode_entry));
        Ok(kind)
    }
}

/// Validates a node page's header: its kind byte, and an entry count within
/// the fanout whose entries fit in `buf`.
fn header(buf: &[u8]) -> Result<(NodeKind, usize)> {
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
    Ok((kind, count))
}

/// The serialized entries of a node whose header gave `len`.
#[inline]
fn body(buf: &[u8], len: usize) -> std::slice::ChunksExact<'_, u8> {
    buf[HEADER_BYTES..HEADER_BYTES + len * ENTRY_BYTES].chunks_exact(ENTRY_BYTES)
}

/// Decodes one serialized entry. The whole-entry check is the only one:
/// every byte offset below is then in bounds by construction, which keeps
/// the decode small enough to inline into each scan.
#[inline]
fn decode_entry(e: &[u8]) -> NodeEntry {
    let e: &[u8; ENTRY_BYTES] = e.try_into().expect("a whole entry");
    let f = |o: usize| f32::from_le_bytes([e[o], e[o + 1], e[o + 2], e[o + 3]]);
    NodeEntry {
        rect: Rect {
            lo: Point::new(f(0), f(4)),
            hi: Point::new(f(8), f(12)),
        },
        payload: u32::from_le_bytes([e[16], e[17], e[18], e[19]]),
    }
}

/// A node read in place: the page it lies on, shared with the buffer pool
/// and the device rather than copied, and its header, validated as
/// [`Node::decode_into`] validates it. Entries are decoded one at a time as
/// a scan reaches them; nothing is allocated per read.
#[derive(Debug, Clone)]
pub struct NodeView {
    page: Page,
    kind: NodeKind,
    len: usize,
}

impl NodeView {
    /// Views the node on `page`, failing with the
    /// [`CorruptRecord`](IoSimError::CorruptRecord) error
    /// [`Node::decode_into`] would give when the header is invalid.
    pub fn new(page: Page) -> Result<NodeView> {
        let (kind, len) = header(&page)?;
        Ok(NodeView { page, kind, len })
    }

    /// Leaf or internal.
    #[inline]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Number of entries in the node.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the node has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The node's entries in page order, each decoded as it is reached.
    #[inline]
    pub fn entries(&self) -> impl ExactSizeIterator<Item = NodeEntry> + '_ {
        body(&self.page, self.len).map(decode_entry)
    }

    /// Directory rectangle: the union of all entry rectangles, folded in
    /// page order as [`Node::mbr`] folds them.
    pub fn mbr(&self) -> Rect {
        self.entries()
            .fold(Rect::empty(), |acc, e| acc.union(&e.rect))
    }
}

/// A page holding `buf` (at most a page), zero-padded.
#[cfg(test)]
pub(crate) fn page_of(buf: &[u8]) -> Page {
    let mut page = Page::zeroed();
    page.bytes_mut()[..buf.len()].copy_from_slice(buf);
    page
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
        let mut entries = Vec::new();
        assert_eq!(
            Node::decode_into(&buf, &mut entries).unwrap(),
            NodeKind::Leaf
        );
        assert_eq!(entries, n.entries);
        let view = NodeView::new(page_of(&buf)).unwrap();
        assert_eq!(view.kind(), NodeKind::Leaf);
        assert_eq!(view.entries().collect::<Vec<_>>(), n.entries);
        assert_eq!(view.mbr(), n.mbr());
    }

    #[test]
    fn encode_decode_roundtrip_internal_and_full_node() {
        let mut n = Node::new(NodeKind::Internal);
        for i in 0..MAX_FANOUT as u32 {
            let f = i as f32;
            n.entries.push(entry(f, f, f + 2.0, f + 2.0, i + 100));
        }
        let view = NodeView::new(page_of(&n.encode())).unwrap();
        assert_eq!(view.kind(), NodeKind::Internal);
        assert_eq!(view.len(), MAX_FANOUT);
        assert_eq!(view.entries().len(), MAX_FANOUT);
        assert_eq!(view.entries().nth(5).unwrap().child_page(), 105);
    }

    #[test]
    fn empty_node_roundtrip() {
        let n = Node::new(NodeKind::Leaf);
        let view = NodeView::new(page_of(&n.encode())).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.entries().count(), 0);
        assert!(view.mbr().is_empty());
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
        assert_eq!(
            Node::decode_into(&full.encode(), &mut entries).unwrap(),
            NodeKind::Leaf
        );
        assert_eq!(entries, full.entries);
        let capacity = entries.capacity();
        assert_eq!(
            Node::decode_into(&small.encode(), &mut entries).unwrap(),
            NodeKind::Internal
        );
        assert_eq!(entries, small.entries);
        assert_eq!(entries.capacity(), capacity);
    }

    /// A page whose header is `kind` and `count`, entries zeroed.
    fn header_page(kind: u8, count: u16) -> Page {
        let mut page = Page::zeroed();
        page.bytes_mut()[0] = kind;
        page.bytes_mut()[1..3].copy_from_slice(&count.to_le_bytes());
        page
    }

    fn corrupt_message(r: Result<impl std::fmt::Debug>) -> &'static str {
        match r {
            Err(IoSimError::CorruptRecord(msg)) => msg,
            other => panic!("expected a corrupt record, got {other:?}"),
        }
    }

    /// A view rejects exactly the headers decoding rejects, with the same
    /// messages, and accepts the counts at both ends of the fanout.
    #[test]
    fn decode_rejects_garbage() {
        let mut entries = Vec::new();
        assert_eq!(
            corrupt_message(Node::decode_into(&[1, 2], &mut entries)),
            "node page too small"
        );
        for (kind, count, msg) in [
            (2, 0, "unknown node kind"),
            (9, 3, "unknown node kind"),
            (0, 401, "node entry count out of range"),
            (1, u16::MAX, "node entry count out of range"),
        ] {
            let page = header_page(kind, count);
            assert_eq!(corrupt_message(Node::decode_into(&page, &mut entries)), msg);
            assert_eq!(corrupt_message(NodeView::new(page)), msg);
        }
        for (kind, count) in [(0, 0), (1, 0), (0, 400), (1, 400)] {
            let page = header_page(kind, count);
            let decoded = Node::decode_into(&page, &mut entries).unwrap();
            let view = NodeView::new(page).unwrap();
            assert_eq!(view.kind(), decoded);
            assert_eq!(view.len(), usize::from(count));
            assert_eq!(view.entries().collect::<Vec<_>>(), entries);
        }
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
