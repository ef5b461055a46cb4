//! Deterministic I/O and CPU accounting.
//!
//! The paper reports two kinds of measurements: page-request counts
//! (Table 4) and running times split into CPU and I/O components
//! (Figures 2 and 3). Real wall-clock measurements would make this
//! reproduction unstable across host machines, so instead every algorithm
//! increments deterministic counters which the [`crate::cost::CostModel`]
//! later converts to simulated seconds using a [`crate::machine::MachineConfig`].

/// Counters describing all traffic seen by a [`crate::device::BlockDevice`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of read operations whose first page immediately followed the
    /// previously accessed page (no seek required).
    pub seq_read_ops: u64,
    /// Number of read operations that required a seek.
    pub rand_read_ops: u64,
    /// Number of write operations that followed the previous access.
    pub seq_write_ops: u64,
    /// Number of write operations that required a seek.
    pub rand_write_ops: u64,
    /// Total pages transferred by read operations.
    pub pages_read: u64,
    /// Total pages transferred by write operations.
    pub pages_written: u64,
}

impl IoStats {
    /// Total number of read operations.
    #[inline]
    pub fn read_ops(&self) -> u64 {
        self.seq_read_ops + self.rand_read_ops
    }

    /// Total number of write operations.
    #[inline]
    pub fn write_ops(&self) -> u64 {
        self.seq_write_ops + self.rand_write_ops
    }

    /// Total number of I/O operations.
    #[inline]
    pub fn total_ops(&self) -> u64 {
        self.read_ops() + self.write_ops()
    }

    /// Total bytes read.
    #[inline]
    pub fn bytes_read(&self) -> u64 {
        self.pages_read * crate::PAGE_SIZE as u64
    }

    /// Total bytes written.
    #[inline]
    pub fn bytes_written(&self) -> u64 {
        self.pages_written * crate::PAGE_SIZE as u64
    }

    /// Component-wise difference `self - earlier`, used to measure the traffic
    /// of a single phase of an algorithm.
    pub fn delta_since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seq_read_ops: self.seq_read_ops - earlier.seq_read_ops,
            rand_read_ops: self.rand_read_ops - earlier.rand_read_ops,
            seq_write_ops: self.seq_write_ops - earlier.seq_write_ops,
            rand_write_ops: self.rand_write_ops - earlier.rand_write_ops,
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
        }
    }

    /// Component-wise sum.
    pub fn combined(&self, other: &IoStats) -> IoStats {
        IoStats {
            seq_read_ops: self.seq_read_ops + other.seq_read_ops,
            rand_read_ops: self.rand_read_ops + other.rand_read_ops,
            seq_write_ops: self.seq_write_ops + other.seq_write_ops,
            rand_write_ops: self.rand_write_ops + other.rand_write_ops,
            pages_read: self.pages_read + other.pages_read,
            pages_written: self.pages_written + other.pages_written,
        }
    }

    /// Adds `other` into `self` component-wise.
    ///
    /// Used to roll the per-query statistics of forked worker environments
    /// up into one aggregate (the service's totals, the benchmark's
    /// per-phase sums).
    pub fn merge(&mut self, other: &IoStats) {
        *self = self.combined(other);
    }

    /// The four-number summary the observability layer attaches to spans
    /// (`usj_obs` sits below this crate, so it cannot carry `IoStats`
    /// itself).
    pub fn span_io(&self) -> usj_obs::SpanIo {
        usj_obs::SpanIo {
            pages_read: self.pages_read,
            pages_written: self.pages_written,
            seq_ops: self.seq_read_ops + self.seq_write_ops,
            rand_ops: self.rand_read_ops + self.rand_write_ops,
        }
    }
}

/// Kinds of CPU work tracked by the deterministic CPU model.
///
/// The weights (in CPU cycles per operation) live in
/// [`crate::machine::MachineConfig`]; the counter itself only records how many
/// operations of each kind an algorithm performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuOp {
    /// A key comparison (sorting, merging, searching).
    Compare,
    /// A priority-queue / heap insert or extract.
    HeapOp,
    /// A rectangle-rectangle intersection test.
    RectTest,
    /// A record moved, copied, encoded or decoded (20-byte item granularity).
    ItemMove,
    /// An output pair reported by the join.
    OutputPair,
}

/// Number of distinct [`CpuOp`] kinds.
pub const CPU_OP_KINDS: usize = 5;

impl CpuOp {
    /// Dense index of the operation kind, used for array-backed counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CpuOp::Compare => 0,
            CpuOp::HeapOp => 1,
            CpuOp::RectTest => 2,
            CpuOp::ItemMove => 3,
            CpuOp::OutputPair => 4,
        }
    }

    /// All operation kinds, in index order.
    pub fn all() -> [CpuOp; CPU_OP_KINDS] {
        [
            CpuOp::Compare,
            CpuOp::HeapOp,
            CpuOp::RectTest,
            CpuOp::ItemMove,
            CpuOp::OutputPair,
        ]
    }
}

/// Deterministic CPU-work counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuCounter {
    counts: [u64; CPU_OP_KINDS],
}

impl CpuCounter {
    /// A counter with all kinds at zero.
    pub fn new() -> Self {
        CpuCounter::default()
    }

    /// Records `n` operations of kind `op`.
    #[inline]
    pub fn add(&mut self, op: CpuOp, n: u64) {
        self.counts[op.index()] += n;
    }

    /// Records a single operation of kind `op`.
    #[inline]
    pub fn bump(&mut self, op: CpuOp) {
        self.add(op, 1);
    }

    /// Number of operations of kind `op` recorded so far.
    #[inline]
    pub fn get(&self, op: CpuOp) -> u64 {
        self.counts[op.index()]
    }

    /// Total operations across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Component-wise difference `self - earlier`.
    pub fn delta_since(&self, earlier: &CpuCounter) -> CpuCounter {
        let mut out = CpuCounter::default();
        for (i, c) in out.counts.iter_mut().enumerate() {
            *c = self.counts[i] - earlier.counts[i];
        }
        out
    }

    /// Component-wise sum.
    pub fn combined(&self, other: &CpuCounter) -> CpuCounter {
        let mut out = CpuCounter::default();
        for (i, c) in out.counts.iter_mut().enumerate() {
            *c = self.counts[i] + other.counts[i];
        }
        out
    }

    /// Adds `other` into `self` component-wise (see [`IoStats::merge`]).
    pub fn merge(&mut self, other: &CpuCounter) {
        *self = self.combined(other);
    }
}

/// The I/O and CPU counters of one piece of work: what it charged, or what
/// it is predicted to charge before it runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Charges {
    /// Device traffic.
    pub io: IoStats,
    /// CPU operations.
    pub cpu: CpuCounter,
}

impl Charges {
    /// Adds `other` into `self` component-wise.
    pub fn merge(&mut self, other: &Charges) {
        self.io.merge(&other.io);
        self.cpu.merge(&other.cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_stats_totals() {
        let s = IoStats {
            seq_read_ops: 3,
            rand_read_ops: 2,
            seq_write_ops: 1,
            rand_write_ops: 4,
            pages_read: 10,
            pages_written: 6,
        };
        assert_eq!(s.read_ops(), 5);
        assert_eq!(s.write_ops(), 5);
        assert_eq!(s.total_ops(), 10);
        assert_eq!(s.bytes_read(), 10 * crate::PAGE_SIZE as u64);
        assert_eq!(s.bytes_written(), 6 * crate::PAGE_SIZE as u64);
    }

    #[test]
    fn io_stats_delta_and_combine_are_inverse() {
        let a = IoStats {
            seq_read_ops: 3,
            rand_read_ops: 2,
            seq_write_ops: 1,
            rand_write_ops: 4,
            pages_read: 10,
            pages_written: 6,
        };
        let b = IoStats {
            seq_read_ops: 1,
            rand_read_ops: 1,
            seq_write_ops: 0,
            rand_write_ops: 2,
            pages_read: 4,
            pages_written: 3,
        };
        let sum = a.combined(&b);
        assert_eq!(sum.delta_since(&b), a);
        assert_eq!(sum.delta_since(&a), b);
    }

    #[test]
    fn cpu_counter_tracks_each_kind_separately() {
        let mut c = CpuCounter::new();
        c.add(CpuOp::Compare, 10);
        c.bump(CpuOp::HeapOp);
        c.add(CpuOp::OutputPair, 5);
        assert_eq!(c.get(CpuOp::Compare), 10);
        assert_eq!(c.get(CpuOp::HeapOp), 1);
        assert_eq!(c.get(CpuOp::RectTest), 0);
        assert_eq!(c.total(), 16);
    }

    #[test]
    fn merge_is_in_place_combined() {
        let mut a = IoStats {
            seq_read_ops: 3,
            rand_read_ops: 2,
            seq_write_ops: 1,
            rand_write_ops: 4,
            pages_read: 10,
            pages_written: 6,
        };
        let b = IoStats {
            seq_read_ops: 1,
            rand_read_ops: 1,
            seq_write_ops: 0,
            rand_write_ops: 2,
            pages_read: 4,
            pages_written: 3,
        };
        let combined = a.combined(&b);
        a.merge(&b);
        assert_eq!(a, combined);

        let mut c = CpuCounter::new();
        c.add(CpuOp::Compare, 5);
        let mut d = CpuCounter::new();
        d.add(CpuOp::Compare, 2);
        d.add(CpuOp::HeapOp, 1);
        let expect = c.combined(&d);
        c.merge(&d);
        assert_eq!(c, expect);
    }

    #[test]
    fn cpu_counter_delta_and_combine() {
        let mut a = CpuCounter::new();
        a.add(CpuOp::ItemMove, 100);
        let mut b = a;
        b.add(CpuOp::ItemMove, 20);
        b.add(CpuOp::Compare, 3);
        let d = b.delta_since(&a);
        assert_eq!(d.get(CpuOp::ItemMove), 20);
        assert_eq!(d.get(CpuOp::Compare), 3);
        assert_eq!(a.combined(&d), b);
    }

    #[test]
    fn op_indices_are_dense_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in CpuOp::all() {
            assert!(op.index() < CPU_OP_KINDS);
            assert!(seen.insert(op.index()));
        }
        assert_eq!(seen.len(), CPU_OP_KINDS);
    }
}
