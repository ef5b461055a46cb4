//! Error type for the simulated external-memory substrate.

use std::fmt;

/// Errors produced by the simulated disk and the structures built on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoSimError {
    /// A page identifier referred to a page that was never allocated.
    PageOutOfBounds {
        /// The offending page identifier.
        page: u64,
        /// Number of pages currently allocated on the device.
        allocated: u64,
    },
    /// A read or write touched byte offsets beyond the fixed page size.
    OffsetOutOfPage {
        /// First byte offset of the access.
        offset: usize,
        /// Length of the access in bytes.
        len: usize,
    },
    /// A stream or structure was asked to hold more data than the simulated
    /// internal memory allows.
    MemoryLimitExceeded {
        /// Bytes that would have been required.
        required: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A write touched a page of the device's read-only base snapshot
    /// (shared catalog storage attached with
    /// [`BlockDevice::with_base`](crate::BlockDevice::with_base)).
    ReadOnlyPage {
        /// The page the write was addressed to.
        page: u64,
    },
    /// A record could not be decoded from its on-page representation.
    CorruptRecord(&'static str),
    /// An operation was issued against a stream in the wrong state
    /// (e.g. reading a stream that is still being written).
    InvalidStreamState(&'static str),
    /// The device failed the operation because an installed
    /// [`FaultPlan`](crate::fault::FaultPlan) scheduled a fault here.
    ///
    /// `transient: true` means a retry of the same operation may succeed
    /// (the simulated bus hiccup); `transient: false` means durable damage
    /// was done — a multi-page write was torn at a page boundary — and the
    /// caller must treat the written region as garbage.
    DeviceFault {
        /// Whether retrying the operation can succeed.
        transient: bool,
    },
}

impl fmt::Display for IoSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoSimError::PageOutOfBounds { page, allocated } => {
                write!(f, "page {page} out of bounds (allocated: {allocated})")
            }
            IoSimError::OffsetOutOfPage { offset, len } => {
                write!(
                    f,
                    "access of {len} bytes at offset {offset} exceeds the page size"
                )
            }
            IoSimError::MemoryLimitExceeded { required, limit } => {
                write!(
                    f,
                    "internal-memory limit exceeded: need {required} bytes, limit {limit}"
                )
            }
            IoSimError::ReadOnlyPage { page } => {
                write!(f, "page {page} belongs to the read-only base snapshot")
            }
            IoSimError::CorruptRecord(what) => write!(f, "corrupt record: {what}"),
            IoSimError::InvalidStreamState(what) => write!(f, "invalid stream state: {what}"),
            IoSimError::DeviceFault { transient } => {
                let kind = if *transient {
                    "transient"
                } else {
                    "torn write"
                };
                write!(f, "injected device fault ({kind})")
            }
        }
    }
}

impl std::error::Error for IoSimError {}

/// Convenience alias used throughout the substrate.
pub type Result<T> = std::result::Result<T, IoSimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = IoSimError::PageOutOfBounds {
            page: 7,
            allocated: 3,
        };
        assert!(e.to_string().contains("page 7"));
        let e = IoSimError::MemoryLimitExceeded {
            required: 10,
            limit: 5,
        };
        assert!(e.to_string().contains("limit 5"));
        let e = IoSimError::OffsetOutOfPage {
            offset: 9000,
            len: 20,
        };
        assert!(e.to_string().contains("9000"));
        let e = IoSimError::CorruptRecord("bad header");
        assert!(e.to_string().contains("bad header"));
        let e = IoSimError::InvalidStreamState("still writing");
        assert!(e.to_string().contains("still writing"));
        let e = IoSimError::ReadOnlyPage { page: 4 };
        assert!(e.to_string().contains("page 4"));
    }
}
