//! The plan cache: memoized [`QueryPlan`]s for repeat queries.
//!
//! Planning a query is not free: resolving `Algo::Auto` prices both
//! strategies (reading index directory levels). A service seeing the same
//! query shape many times — the normal case for a catalog-backed store —
//! should pay that once. The cache keys on the *query fingerprint*
//! ([`PlanKey`]): dataset identifiers, algorithm and predicate. Hit plans
//! are replayed through
//! [`SpatialQuery::execute_planned`](usj_core::SpatialQuery::execute_planned),
//! which skips the re-estimation entirely.
//!
//! The fingerprint excludes `LIMIT`/cancellation state, which affects how
//! far execution gets, not which plan is correct. It also excludes the
//! per-query memory budget, which can affect the plan: `Algo::Auto` prices
//! the sorts' passes under the environment's memory limit, so a cached
//! `Auto` choice is the one priced under the grant of the query that
//! missed first. Plans are not keyed by grant until admission grants
//! memory from plans.

use std::collections::HashMap;

use usj_core::{Algo, Predicate, QueryPlan};

use crate::request::JoinSpec;

/// The fingerprint of a join query: everything that determines its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    left: u32,
    right: u32,
    algo: u8,
    predicate_kind: u8,
    epsilon_bits: u32,
}

impl PlanKey {
    /// Fingerprints a join specification.
    pub fn new(spec: &JoinSpec) -> Self {
        let algo = match spec.algo {
            Algo::Auto => 0,
            Algo::Sssj => 1,
            Algo::Pbsm => 2,
            Algo::Pq => 3,
            Algo::St => 4,
        };
        let (predicate_kind, epsilon_bits) = match spec.predicate {
            Predicate::Intersects => (0, 0),
            Predicate::WithinDistance(eps) => (1, eps.max(0.0).to_bits()),
            Predicate::Contains => (2, 0),
        };
        PlanKey {
            left: spec.left.0,
            right: spec.right.0,
            algo,
            predicate_kind,
            epsilon_bits,
        }
    }
}

/// A fingerprint-keyed store of completed query plans.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: HashMap<PlanKey, QueryPlan>,
    /// Highest memory-gauge peak observed for a completed, *untruncated* run
    /// of each fingerprint — feeds admission estimation on repeat workloads.
    peaks: HashMap<PlanKey, usize>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Looks a plan up, counting a hit or a miss.
    pub fn lookup(&mut self, key: &PlanKey) -> Option<QueryPlan> {
        match self.plans.get(key) {
            Some(plan) => {
                self.hits += 1;
                Some(plan.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores the plan computed for `key`.
    pub fn insert(&mut self, key: PlanKey, plan: QueryPlan) {
        self.plans.insert(key, plan);
    }

    /// Records the memory-gauge peak of a completed run of `key`,
    /// max-merged with any earlier observation. Callers must only report
    /// runs that executed to completion with no `LIMIT` and no
    /// cancellation — a truncated run's peak under-states the query's real
    /// footprint and would poison admission estimates.
    pub fn record_peak(&mut self, key: PlanKey, peak_bytes: usize) {
        let slot = self.peaks.entry(key).or_insert(0);
        *slot = (*slot).max(peak_bytes);
    }

    /// The largest observed completed-run peak for `key`, if any.
    pub fn peak(&self, key: &PlanKey) -> Option<usize> {
        self.peaks.get(key).copied()
    }

    /// Lookups satisfied from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to plan from scratch.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DatasetId;

    fn spec(left: u32, right: u32, algo: Algo) -> JoinSpec {
        JoinSpec {
            left: DatasetId(left),
            right: DatasetId(right),
            algo,
            predicate: Predicate::Intersects,
        }
    }

    #[test]
    fn fingerprints_distinguish_query_shapes() {
        let a = PlanKey::new(&spec(0, 1, Algo::Auto));
        let b = PlanKey::new(&spec(0, 1, Algo::Auto));
        assert_eq!(a, b);
        assert_ne!(a, PlanKey::new(&spec(1, 0, Algo::Auto)));
        assert_ne!(a, PlanKey::new(&spec(0, 1, Algo::Sssj)));
        let mut eps = spec(0, 1, Algo::Pq);
        eps.predicate = Predicate::WithinDistance(0.5);
        let mut eps2 = eps;
        eps2.predicate = Predicate::WithinDistance(0.25);
        assert_ne!(PlanKey::new(&eps), PlanKey::new(&eps2));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache = PlanCache::new();
        let key = PlanKey::new(&spec(0, 1, Algo::Sssj));
        assert!(cache.lookup(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // A real QueryPlan requires an environment; structural behaviour is
        // covered by the service tests — here only the bookkeeping.
    }

    #[test]
    fn peaks_max_merge_per_fingerprint() {
        let mut cache = PlanCache::new();
        let key = PlanKey::new(&spec(0, 1, Algo::Sssj));
        assert_eq!(cache.peak(&key), None);
        cache.record_peak(key, 1000);
        cache.record_peak(key, 400); // smaller later run never shrinks it
        assert_eq!(cache.peak(&key), Some(1000));
        cache.record_peak(key, 2500);
        assert_eq!(cache.peak(&key), Some(2500));
        let other = PlanKey::new(&spec(1, 0, Algo::Sssj));
        assert_eq!(cache.peak(&other), None);
    }
}
