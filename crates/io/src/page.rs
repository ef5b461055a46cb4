//! Fixed-size pages of the simulated disk.

use std::sync::{Arc, OnceLock};

/// Size of a disk page in bytes.
///
/// The paper uses 8 KB R-tree nodes on all machines (on the one machine whose
/// native page size was 4 KB it simply requested two blocks per operation),
/// so the simulated device uses a single fixed 8 KiB page size.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page on the simulated disk.
///
/// Pages are allocated sequentially, so consecutive `PageId`s correspond to
/// physically adjacent disk blocks — exactly the property the paper exploits
/// when discussing the largely sequential layout of bulk-loaded R-trees.
pub type PageId = u64;

/// A single page worth of bytes, stored copy-on-write.
///
/// Cloning a page shares its storage (one reference-count increment, no
/// byte copied); the first [`bytes_mut`](Page::bytes_mut) on a page whose
/// storage is shared gives it a private copy. This is what makes a device
/// snapshot cost a pointer per page, a write after a snapshot cost the one
/// page it hits, and a page read cost no copy at all: readers hold a clone
/// and see its bytes through `Deref<Target = [u8]>`.
///
/// Every zero-filled page is a clone of one shared zero page, so allocating
/// pages allocates and zeroes nothing, and a page built from bytes
/// ([`from_bytes`](Page::from_bytes)) costs one copy of them.
#[derive(Clone)]
pub struct Page {
    data: Arc<[u8; PAGE_SIZE]>,
}

/// The storage every zero-filled page shares.
static ZERO_PAGE: OnceLock<Page> = OnceLock::new();

impl Page {
    /// A zero-filled page: a clone of the shared zero page.
    pub fn zeroed() -> Self {
        ZERO_PAGE
            .get_or_init(|| Page {
                data: Arc::new([0u8; PAGE_SIZE]),
            })
            .clone()
    }

    /// A page holding `bytes` (at most [`PAGE_SIZE`] of them) followed by
    /// zeros. A full page is one copy of `bytes` into fresh storage; a short
    /// one copies the zero page first, then `bytes` over its front.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than a page.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= PAGE_SIZE,
            "{} bytes overflow a page",
            bytes.len()
        );
        if bytes.len() < PAGE_SIZE {
            let mut page = Page::zeroed();
            page.bytes_mut()[..bytes.len()].copy_from_slice(bytes);
            return page;
        }
        Page {
            data: Arc::<[u8]>::from(bytes)
                .try_into()
                .expect("exactly one page"),
        }
    }

    /// Mutable view of the page contents; un-shares the storage first when
    /// a clone of this page still refers to it.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.data)[..]
    }

    /// Whether `self` and `other` are the same storage (not merely equal
    /// bytes) — how the device tests assert what a snapshot shares.
    #[cfg(test)]
    pub(crate) fn shares_storage_with(&self, other: &Page) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl std::ops::Deref for Page {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[..]
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({PAGE_SIZE} bytes)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_has_fixed_size() {
        let p = Page::zeroed();
        assert_eq!(p.len(), PAGE_SIZE);
        assert!(p.iter().all(|&b| b == 0));
    }

    #[test]
    fn page_is_mutable_and_clonable() {
        let mut p = Page::zeroed();
        p.bytes_mut()[0] = 42;
        p.bytes_mut()[PAGE_SIZE - 1] = 7;
        let q = p.clone();
        assert_eq!(q[0], 42);
        assert_eq!(q[PAGE_SIZE - 1], 7);
    }

    #[test]
    fn a_clone_shares_storage_until_either_side_writes() {
        let mut p = Page::zeroed();
        p.bytes_mut()[0] = 1;
        let q = p.clone();
        assert!(p.shares_storage_with(&q));
        p.bytes_mut()[0] = 2;
        assert!(!p.shares_storage_with(&q));
        assert_eq!((p[0], q[0]), (2, 1));
        // Unshared again, a further write stays in place.
        let before = p.as_ptr();
        p.bytes_mut()[1] = 3;
        assert_eq!(p.as_ptr(), before);
    }

    #[test]
    fn zeroed_pages_share_one_storage() {
        assert!(Page::zeroed().shares_storage_with(&Page::zeroed()));
        assert!(Page::default().shares_storage_with(&Page::zeroed()));
    }

    #[test]
    fn a_page_from_bytes_holds_them_then_zeros() {
        let full: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        assert_eq!(&Page::from_bytes(&full)[..], &full[..]);
        let short = Page::from_bytes(b"abc");
        assert_eq!(&short[..3], b"abc");
        assert!(short[3..].iter().all(|&b| b == 0));
        // The short page has storage of its own; the zero page stays zero.
        assert!(!short.shares_storage_with(&Page::zeroed()));
        assert!(Page::zeroed().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "overflow a page")]
    fn a_page_from_too_many_bytes_panics() {
        Page::from_bytes(&[0u8; PAGE_SIZE + 1]);
    }

    #[test]
    fn debug_format_mentions_size() {
        assert!(format!("{:?}", Page::zeroed()).contains("8192"));
    }
}
