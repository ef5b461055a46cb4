//! Seeded, deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] is installed on a [`BlockDevice`](crate::BlockDevice)
//! (usually through [`SimEnv::install_faults`](crate::SimEnv::install_faults))
//! and decides, for every device operation, whether to inject one of three
//! failure modes:
//!
//! * **Transient errors** — the operation fails with
//!   [`IoSimError::DeviceFault { transient: true }`](crate::IoSimError::DeviceFault)
//!   before any data moves; a retry of the same request draws a fresh
//!   decision and usually succeeds. This is the simulated bus hiccup the
//!   service's retry-with-backoff path is built for.
//! * **Torn writes** — a multi-page `write_pages` is truncated at a page
//!   boundary: a strict prefix of the pages is durably written, then the
//!   operation fails with `DeviceFault { transient: false }`. This is the
//!   crash-mid-write case checksums and manifests exist to detect.
//! * **Injected panics** — the operation panics instead of returning, at an
//!   arbitrary point inside whatever operator issued it. This is how worker
//!   panic isolation is exercised deterministically: the panic surfaces deep
//!   inside join/selection code with arbitrary live state.
//!
//! Every decision is a pure function of `(seed, operation index, domain)`
//! through SplitMix64 — the same domain-separation idiom as the load
//! generator's arrival schedule — so a fault schedule replays exactly from
//! its seed regardless of what the faults do to control flow *between*
//! operations of one device. A device with no plan installed takes a single
//! `Option` branch per operation and behaves byte-identically to a
//! fault-free device.

/// Domain tags separating the per-operation decision streams. Each device
/// operation consumes one operation index; each domain hashes that index
/// independently, so e.g. the torn-write schedule does not shift when the
/// read-fault rate changes.
const DOMAIN_READ: u64 = 0x5245_4144; // "READ"
const DOMAIN_WRITE: u64 = 0x5752_4954; // "WRIT"
const DOMAIN_TORN: u64 = 0x544f_524e; // "TORN"
const DOMAIN_TORN_LEN: u64 = 0x544c_454e; // "TLEN"
const DOMAIN_PANIC: u64 = 0x504e_4943; // "PNIC"

/// One SplitMix64 output for the given state.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a well-separated child seed from a parent seed and a stream
/// index — used by callers (the service, the chaos harness) that install
/// one plan per worker from a single experiment seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// Probabilities and budget of a fault schedule. Rates are per device
/// *operation* (not per page), in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the decision streams.
    pub seed: u64,
    /// Probability that a read operation fails transiently.
    pub read_fault: f64,
    /// Probability that a write operation fails transiently (before any
    /// page is written).
    pub write_fault: f64,
    /// Probability that a multi-page write is torn: a strict prefix of its
    /// pages is durably written, then the operation fails persistently.
    /// Single-page writes are atomic and never torn.
    pub torn_write: f64,
    /// Probability that an operation panics instead of returning.
    pub panic: f64,
    /// Hard cap on the total number of injected faults (errors, tears and
    /// panics combined); once reached the device behaves normally. Keeps
    /// bounded-retry loops guaranteed to make progress.
    pub max_faults: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            read_fault: 0.0,
            write_fault: 0.0,
            torn_write: 0.0,
            panic: 0.0,
            max_faults: u64::MAX,
        }
    }
}

impl FaultConfig {
    /// A plan that never fires (useful as a base for struct update syntax).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }
}

/// Counters of what a plan actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Device operations the plan examined.
    pub ops: u64,
    /// Transient read faults injected.
    pub read_faults: u64,
    /// Transient write faults injected.
    pub write_faults: u64,
    /// Multi-page writes torn at a page boundary.
    pub torn_writes: u64,
    /// Panics injected.
    pub panics: u64,
}

impl FaultStats {
    /// Total faults injected across every mode.
    pub fn injected(&self) -> u64 {
        self.read_faults + self.write_faults + self.torn_writes + self.panics
    }

    /// Adds another stats block (per-worker plans rolling up).
    pub fn merge(&mut self, other: &FaultStats) {
        self.ops += other.ops;
        self.read_faults += other.read_faults;
        self.write_faults += other.write_faults;
        self.torn_writes += other.torn_writes;
        self.panics += other.panics;
    }
}

/// The installed fault schedule: configuration thresholds, the operation
/// counter, and the injection counters.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    read_t: u64,
    write_t: u64,
    torn_t: u64,
    panic_t: u64,
    max_faults: u64,
    ops: u64,
    stats: FaultStats,
}

/// Converts a probability into a threshold on a uniform 64-bit draw.
fn threshold(p: f64) -> u64 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        u64::MAX
    } else {
        (p * (u64::MAX as f64)) as u64
    }
}

impl FaultPlan {
    /// Builds the plan for a configuration.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            seed: config.seed,
            read_t: threshold(config.read_fault),
            write_t: threshold(config.write_fault),
            torn_t: threshold(config.torn_write),
            panic_t: threshold(config.panic),
            max_faults: config.max_faults,
            ops: 0,
            stats: FaultStats::default(),
        }
    }

    /// Counters of what the plan injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn roll(&self, op: u64, domain: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(domain) ^ op)
    }

    fn can_inject(&self) -> bool {
        self.stats.injected() < self.max_faults
    }

    /// Decision for one read operation. Consumes one operation index.
    ///
    /// # Panics
    ///
    /// Panics when the panic domain fires — that is the injected fault.
    pub(crate) fn before_read(&mut self) -> crate::error::Result<()> {
        let op = self.ops;
        self.ops += 1;
        self.stats.ops += 1;
        if !self.can_inject() {
            return Ok(());
        }
        if self.roll(op, DOMAIN_PANIC) < self.panic_t {
            self.stats.panics += 1;
            panic!("injected device fault panic (read op {op})");
        }
        if self.roll(op, DOMAIN_READ) < self.read_t {
            self.stats.read_faults += 1;
            return Err(crate::error::IoSimError::DeviceFault { transient: true });
        }
        Ok(())
    }

    /// Decision for one write operation of `n` pages. Consumes one
    /// operation index. Returns `Ok(Some(k))` when the write must be torn
    /// after `k < n` pages (the caller writes the prefix, then fails with a
    /// persistent fault), `Ok(None)` for a clean write.
    ///
    /// # Panics
    ///
    /// Panics when the panic domain fires — that is the injected fault.
    pub(crate) fn before_write(&mut self, n: u64) -> crate::error::Result<Option<u64>> {
        let op = self.ops;
        self.ops += 1;
        self.stats.ops += 1;
        if !self.can_inject() {
            return Ok(None);
        }
        if self.roll(op, DOMAIN_PANIC) < self.panic_t {
            self.stats.panics += 1;
            panic!("injected device fault panic (write op {op})");
        }
        if self.roll(op, DOMAIN_WRITE) < self.write_t {
            self.stats.write_faults += 1;
            return Err(crate::error::IoSimError::DeviceFault { transient: true });
        }
        if n >= 2 && self.roll(op, DOMAIN_TORN) < self.torn_t {
            self.stats.torn_writes += 1;
            let k = 1 + self.roll(op, DOMAIN_TORN_LEN) % (n - 1);
            return Ok(Some(k));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chatty(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            read_fault: 0.25,
            write_fault: 0.25,
            torn_write: 0.5,
            panic: 0.0,
            max_faults: u64::MAX,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(chatty(seed));
            let mut outcomes = Vec::new();
            for i in 0..200 {
                if i % 2 == 0 {
                    outcomes.push(format!("{:?}", plan.before_read()));
                } else {
                    outcomes.push(format!("{:?}", plan.before_write(4)));
                }
            }
            (outcomes, plan.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds, different schedule");
        let stats = run(42).1;
        assert!(stats.read_faults > 0 && stats.write_faults > 0 && stats.torn_writes > 0);
        assert_eq!(stats.ops, 200);
    }

    #[test]
    fn domains_are_separated() {
        // Turning one rate off must not shift the decisions of the others:
        // the op indices where read faults fire are identical whether or
        // not writes ever fault.
        let fire_ops = |cfg: FaultConfig| {
            let mut plan = FaultPlan::new(cfg);
            let mut fired = Vec::new();
            for i in 0..400u64 {
                if plan.before_read().is_err() {
                    fired.push(i);
                }
            }
            fired
        };
        let with_writes = fire_ops(chatty(7));
        let without_writes = fire_ops(FaultConfig {
            write_fault: 0.0,
            torn_write: 0.0,
            ..chatty(7)
        });
        assert_eq!(with_writes, without_writes);
        assert!(!with_writes.is_empty());
    }

    #[test]
    fn torn_writes_only_apply_to_multi_page_ops() {
        let mut plan = FaultPlan::new(FaultConfig {
            torn_write: 1.0,
            ..FaultConfig::quiet(1)
        });
        for _ in 0..50 {
            assert_eq!(
                plan.before_write(1).unwrap(),
                None,
                "single-page writes are atomic"
            );
        }
        let k = plan.before_write(8).unwrap().expect("torn at rate 1.0");
        assert!(
            (1..8).contains(&k),
            "torn prefix {k} must be a strict nonempty prefix"
        );
    }

    #[test]
    fn max_faults_budget_caps_injection() {
        let mut plan = FaultPlan::new(FaultConfig {
            read_fault: 1.0,
            max_faults: 3,
            ..FaultConfig::quiet(9)
        });
        let mut failures = 0;
        for _ in 0..50 {
            if plan.before_read().is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 3);
        assert_eq!(plan.stats().injected(), 3);
    }

    #[test]
    #[should_panic(expected = "injected device fault panic")]
    fn panic_domain_panics() {
        let mut plan = FaultPlan::new(FaultConfig {
            panic: 1.0,
            ..FaultConfig::quiet(2)
        });
        let _ = plan.before_read();
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0));
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = FaultStats {
            ops: 1,
            read_faults: 2,
            write_faults: 3,
            torn_writes: 4,
            panics: 5,
        };
        let b = FaultStats {
            ops: 10,
            read_faults: 20,
            write_faults: 30,
            torn_writes: 40,
            panics: 50,
        };
        a.merge(&b);
        assert_eq!(a.ops, 11);
        assert_eq!(a.injected(), 2 + 3 + 4 + 5 + 20 + 30 + 40 + 50);
    }
}
