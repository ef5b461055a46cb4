//! Fixed-size pages of the simulated disk.

use std::sync::Arc;

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
#[derive(Clone)]
pub struct Page {
    data: Arc<[u8; PAGE_SIZE]>,
}

impl Page {
    /// Creates a zero-filled page.
    pub fn zeroed() -> Self {
        Page {
            data: Arc::new([0u8; PAGE_SIZE]),
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
    fn debug_format_mentions_size() {
        assert!(format!("{:?}", Page::zeroed()).contains("8192"));
    }
}
