//! The accounting summary returned by every join.

use usj_io::{CostBreakdown, CostModel, CpuCounter, IoStats, MachineConfig};
use usj_sweep::SweepJoinStats;

/// Internal-memory usage of a join, the quantity Table 3 reports for PQ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Maximum size of the priority queues (including the staged leaf
    /// buffers) in bytes. Zero for algorithms without a priority queue.
    pub priority_queue_bytes: usize,
    /// Maximum size of the sweep-line interval structures in bytes.
    pub sweep_structure_bytes: usize,
    /// Maximum size of any other in-memory working set (PBSM partition
    /// buffers, ST node pairs, …) in bytes.
    pub other_bytes: usize,
    /// *Measured* high-water mark of every gauge-registered working set
    /// during the join, as recorded by the environment's
    /// [`MemoryGauge`](usj_io::MemoryGauge).
    ///
    /// Unlike the three per-structure maxima above (which peak at different
    /// moments and therefore may sum to more than was ever held at once),
    /// this is the actual simultaneous footprint — the quantity the memory
    /// governor guarantees never exceeds `SimEnv::memory_limit`.
    pub peak_bytes: usize,
}

impl MemoryStats {
    /// Total of all tracked working sets.
    ///
    /// This sums the per-structure maxima (not
    /// [`peak_bytes`](MemoryStats::peak_bytes), which is a concurrent
    /// measurement of its own).
    pub fn total_bytes(&self) -> usize {
        self.priority_queue_bytes + self.sweep_structure_bytes + self.other_bytes
    }
}

/// Summary of one join execution.
///
/// `PartialEq` compares every counter, so equality means two executions were
/// byte-identical in accounting — the property the query-builder equivalence
/// suite asserts against the legacy entry points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinResult {
    /// Intersecting pairs reported (after duplicate elimination).
    pub pairs: u64,
    /// I/O performed by the join (delta over the simulated device).
    pub io: IoStats,
    /// Deterministic CPU work performed by the join.
    pub cpu: CpuCounter,
    /// Pages of the spatial indexes requested from disk during the join
    /// (Table 4). Zero for the non-indexed algorithms.
    pub index_page_requests: u64,
    /// Plane-sweep statistics (pairs, rectangle tests, structure sizes).
    pub sweep: SweepJoinStats,
    /// Maximum internal-memory usage (Table 3).
    pub memory: MemoryStats,
}

impl JoinResult {
    /// Observed (sequential/random aware) simulated running time on `machine`.
    pub fn observed_cost(&self, machine: &MachineConfig) -> CostBreakdown {
        CostModel::new(machine.clone()).observed(&self.io, &self.cpu)
    }

    /// Estimated running time using the "all page requests are random" model
    /// of earlier work (Figure 2(a)–(c)).
    pub fn estimated_cost(&self, machine: &MachineConfig) -> CostBreakdown {
        CostModel::new(machine.clone()).estimated(&self.io, &self.cpu)
    }

    /// Output pairs per left-input item, a rough selectivity measure.
    pub fn selectivity(&self, left_items: u64) -> f64 {
        if left_items == 0 {
            0.0
        } else {
            self.pairs as f64 / left_items as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_total_sums_components() {
        let m = MemoryStats {
            priority_queue_bytes: 100,
            sweep_structure_bytes: 50,
            other_bytes: 25,
            peak_bytes: 130,
        };
        assert_eq!(m.total_bytes(), 175, "peak_bytes is not part of the sum");
    }

    #[test]
    fn cost_helpers_use_the_given_machine() {
        let mut r = JoinResult::default();
        r.io.rand_read_ops = 100;
        r.io.pages_read = 100;
        let m1 = r.observed_cost(&MachineConfig::machine1());
        let m2 = r.observed_cost(&MachineConfig::machine2());
        // Machine 2 has a slower average access time, so the same random
        // traffic costs more there.
        assert!(m2.io_secs > m1.io_secs);
        let est = r.estimated_cost(&MachineConfig::machine1());
        assert!(est.io_secs >= m1.io_secs * 0.9);
    }

    #[test]
    fn selectivity_handles_empty_input() {
        let r = JoinResult {
            pairs: 10,
            ..JoinResult::default()
        };
        assert_eq!(r.selectivity(0), 0.0);
        assert_eq!(r.selectivity(20), 0.5);
    }
}
