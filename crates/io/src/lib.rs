//! Simulated external-memory substrate.
//!
//! The paper's entire evaluation revolves around the behaviour of disk I/O:
//! how many pages each join algorithm requests, whether those requests are
//! *sequential* or *random*, and how the answer interacts with the relative
//! CPU/disk performance of three 1999-era machines (Table 1). None of that
//! hardware is available to a reproduction, so this crate builds the closest
//! synthetic equivalent:
//!
//! * [`device::BlockDevice`] — an in-memory "disk" of 8 KiB pages that records
//!   every read and write operation and classifies it as sequential or random
//!   based on the position of the previous access.
//! * [`stats::IoStats`] / [`stats::CpuCounter`] — deterministic operation
//!   counters which replace `getrusage`/`gettimeofday` measurements.
//! * [`machine::MachineConfig`] — the three hardware platforms of Table 1
//!   expressed as a cost model (CPU clock, average random-access latency,
//!   peak sequential transfer rate).
//! * [`cost::CostModel`] — converts the recorded counters into the two time
//!   measures used in the paper: the *estimated* cost (every page request
//!   charged the average random read time, Figure 2(a)–(c)) and the
//!   *observed* cost (sequential and random accesses charged differently,
//!   Figure 2(d)–(f) and Figure 3).
//! * [`fault::FaultPlan`] — seeded, deterministic fault injection (transient
//!   device errors, torn multi-page writes, injected panics) installed on a
//!   device for chaos testing; zero-cost when absent.
//! * [`buffer::LruBufferPool`] — the LRU page cache used by the ST join.
//! * [`gauge::MemoryGauge`] — the memory governor: every allocation-heavy
//!   structure registers its bytes, making the internal-memory limit a hard,
//!   measured invariant instead of an advisory sizing hint.
//! * [`stream::ItemStream`] — sequential record streams (the TPIE-style
//!   stream abstraction used by SSSJ and PBSM), with a configurable logical
//!   block size.
//! * [`extsort`] — external multiway mergesort over item streams, used by
//!   SSSJ's preprocessing and by R-tree bulk loading.
//! * [`merge::Merge`] — the one k-way merge of sorted runs, on the device or
//!   in memory: the external sort's merge passes, a live compaction's merge
//!   and every join over a relation with tiers pull from it.
//! * [`sim::SimEnv`] — bundles a device, a machine model and the CPU counter
//!   into the single environment value the join algorithms operate on.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod buffer;
pub mod cost;
pub mod device;
pub mod error;
pub mod extsort;
pub mod fault;
pub mod gauge;
pub mod ledger;
pub mod machine;
pub mod merge;
pub mod page;
pub mod sim;
pub mod stats;
pub mod stream;

pub use buffer::LruBufferPool;
pub use cost::{CostBreakdown, CostModel};
pub use device::BlockDevice;
pub use error::{IoSimError, Result};
pub use fault::{FaultConfig, FaultPlan, FaultStats};
pub use gauge::{MemoryGauge, MemoryReservation};
pub use machine::MachineConfig;
pub use page::{Page, PageId, PAGE_SIZE};
pub use sim::{ObsPhase, SimEnv};
pub use stats::{Charges, CpuCounter, CpuOp, IoStats};
pub use stream::{
    writer_pages_per_block, ItemStream, ItemStreamReader, ItemStreamWriter, ItemsView,
};
