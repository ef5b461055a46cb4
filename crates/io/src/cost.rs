//! Converting recorded counters into the paper's two time measures.
//!
//! Section 6.2 of the paper contrasts two ways of reporting the cost of a
//! spatial join:
//!
//! 1. **Estimated running time** — the methodology of most earlier work:
//!    count the pages requested, multiply by the *average* (i.e. random)
//!    disk read time, and add the measured CPU time (Figure 2(a)–(c)).
//! 2. **Observed running time** — what a stopwatch actually shows, which
//!    differs substantially because bulk-loaded R-trees are laid out largely
//!    sequentially and streaming algorithms read the disk sequentially
//!    (Figure 2(d)–(f), Figure 3).
//!
//! [`CostModel`] reproduces both measures from the deterministic
//! [`IoStats`]/[`CpuCounter`] recorded during a join.

use crate::machine::MachineConfig;
use crate::stats::{CpuCounter, IoStats};
use crate::PAGE_SIZE;

/// A simulated running time, split into the CPU and I/O components the
/// paper's bar charts show.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Simulated CPU seconds.
    pub cpu_secs: f64,
    /// Simulated I/O seconds.
    pub io_secs: f64,
}

impl CostBreakdown {
    /// Total simulated seconds.
    #[inline]
    pub fn total_secs(&self) -> f64 {
        self.cpu_secs + self.io_secs
    }

    /// Component-wise sum.
    pub fn combined(&self, other: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            cpu_secs: self.cpu_secs + other.cpu_secs,
            io_secs: self.io_secs + other.io_secs,
        }
    }
}

/// Cost model bound to one of the Table-1 machines.
#[derive(Debug, Clone)]
pub struct CostModel {
    machine: MachineConfig,
}

impl CostModel {
    /// Creates a cost model for `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        CostModel { machine }
    }

    /// The underlying machine configuration.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The *estimated* cost used by earlier index-join studies and by
    /// Figure 2(a)–(c): every requested page is charged the average (random)
    /// read access time, regardless of layout, plus the CPU time.
    pub fn estimated(&self, io: &IoStats, cpu: &CpuCounter) -> CostBreakdown {
        let pages = io.pages_read + io.pages_written;
        CostBreakdown {
            cpu_secs: self.machine.cpu_secs(cpu),
            io_secs: pages as f64 * self.machine.random_access_secs(),
        }
    }

    /// The *observed* cost: random operations pay a seek, sequential ones do
    /// not, and all transferred bytes pay the sequential transfer time
    /// (writes with the configured write penalty).
    pub fn observed(&self, io: &IoStats, cpu: &CpuCounter) -> CostBreakdown {
        let seeks = (io.rand_read_ops + io.rand_write_ops) as f64;
        let io_secs = seeks * self.machine.random_access_secs()
            + self
                .machine
                .read_transfer_secs(io.pages_read * PAGE_SIZE as u64)
            + self
                .machine
                .write_transfer_secs(io.pages_written * PAGE_SIZE as u64);
        CostBreakdown {
            cpu_secs: self.machine.cpu_secs(cpu),
            io_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CpuOp;

    fn sample_io(rand_reads: u64, seq_reads: u64) -> IoStats {
        IoStats {
            seq_read_ops: seq_reads,
            rand_read_ops: rand_reads,
            seq_write_ops: 0,
            rand_write_ops: 0,
            pages_read: rand_reads + seq_reads,
            pages_written: 0,
        }
    }

    #[test]
    fn estimated_ignores_access_pattern() {
        let model = CostModel::new(MachineConfig::machine3());
        let cpu = CpuCounter::new();
        let all_random = sample_io(1000, 0);
        let all_sequential = sample_io(0, 1000);
        let a = model.estimated(&all_random, &cpu);
        let b = model.estimated(&all_sequential, &cpu);
        assert!((a.io_secs - b.io_secs).abs() < 1e-12);
        assert!(a.io_secs > 0.0);
    }

    #[test]
    fn observed_rewards_sequential_access() {
        let model = CostModel::new(MachineConfig::machine3());
        let cpu = CpuCounter::new();
        let all_random = model.observed(&sample_io(1000, 0), &cpu);
        let all_sequential = model.observed(&sample_io(0, 1000), &cpu);
        assert!(
            all_random.io_secs > 5.0 * all_sequential.io_secs,
            "random I/O should be much slower: {} vs {}",
            all_random.io_secs,
            all_sequential.io_secs
        );
    }

    #[test]
    fn estimated_matches_observed_for_purely_random_page_reads() {
        // When every request is a single random page, the estimate's
        // "requests x average read time" and the observed "seeks + transfer"
        // agree up to the (small) transfer term.
        let model = CostModel::new(MachineConfig::machine1());
        let cpu = CpuCounter::new();
        let io = sample_io(500, 0);
        let est = model.estimated(&io, &cpu);
        let obs = model.observed(&io, &cpu);
        assert!(obs.io_secs >= est.io_secs);
        assert!(obs.io_secs < est.io_secs * 1.25);
    }

    #[test]
    fn cpu_component_comes_from_machine_model() {
        let model = CostModel::new(MachineConfig::machine1());
        let mut cpu = CpuCounter::new();
        cpu.add(CpuOp::Compare, 50_000_000);
        let est = model.estimated(&IoStats::default(), &cpu);
        let obs = model.observed(&IoStats::default(), &cpu);
        assert_eq!(est.cpu_secs, obs.cpu_secs);
        assert!(est.cpu_secs > 0.0);
        assert_eq!(est.io_secs, 0.0);
        assert_eq!(obs.io_secs, 0.0);
    }

    #[test]
    fn breakdown_total_and_combine() {
        let a = CostBreakdown {
            cpu_secs: 1.0,
            io_secs: 2.0,
        };
        let b = CostBreakdown {
            cpu_secs: 0.5,
            io_secs: 0.25,
        };
        assert_eq!(a.total_secs(), 3.0);
        let c = a.combined(&b);
        assert_eq!(c.cpu_secs, 1.5);
        assert_eq!(c.io_secs, 2.25);
    }

    #[test]
    fn writes_are_charged_with_penalty_in_observed() {
        let model = CostModel::new(MachineConfig::machine3());
        let cpu = CpuCounter::new();
        let reads = IoStats {
            seq_read_ops: 10,
            pages_read: 1000,
            ..Default::default()
        };
        let writes = IoStats {
            seq_write_ops: 10,
            pages_written: 1000,
            ..Default::default()
        };
        let r = model.observed(&reads, &cpu).io_secs;
        let w = model.observed(&writes, &cpu).io_secs;
        assert!((w / r - 1.5).abs() < 1e-9);
    }
}
