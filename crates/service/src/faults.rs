//! The transient-fault policy: the fault stream each device draws from
//! ([`fault_plan`]), and the one loop that retries a query attempt, a
//! registration, a flush or a compaction ([`retry_transient`]).

use usj_io::{fault::derive_seed, FaultConfig, FaultPlan, IoSimError};
use usj_obs::Clock;

use crate::obs::ServiceObs;
use crate::service::ServiceConfig;
use crate::{Result, ServiceError};

/// Transient-fault retry policy: how many re-runs, and the base backoff.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultRetry {
    retries: u32,
    backoff_us: u64,
}

impl FaultRetry {
    pub(crate) fn of(config: &ServiceConfig) -> Self {
        FaultRetry {
            retries: config.fault_retries,
            backoff_us: config.fault_backoff_us,
        }
    }

    /// Backoff before retry attempt `n` (1-based): `base << (n-1)`,
    /// shift-capped so a misconfigured retry count cannot overflow.
    fn backoff_for(&self, attempt: u32) -> u64 {
        self.backoff_us
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
    }
}

/// Fault stream id for one query attempt: request index in the low half,
/// retry attempt in the high half — every (query, attempt) pair draws an
/// independent, replayable fault schedule, so a retry is not doomed to hit
/// the very fault decision that failed it.
pub(crate) fn query_fault_stream(idx: usize, attempt: u32) -> u64 {
    (idx as u64 & 0xffff_ffff) | (u64::from(attempt) << 32)
}

/// Reserved fault stream for the storage environment (registrations,
/// flushes, compactions) — far outside the per-query space.
pub(crate) const STORAGE_FAULT_STREAM: u64 = u64::MAX;

/// The plan `faults` draws on `stream`: its rates, with a seed derived for
/// the stream, so every stream replays its own independent schedule.
pub(crate) fn fault_plan(mut faults: FaultConfig, stream: u64) -> FaultPlan {
    faults.seed = derive_seed(faults.seed, stream);
    FaultPlan::new(faults)
}

/// Runs `f` (given the attempt number, 0 first), retrying transient device
/// faults per `retry` with exponential backoff on `clock`. Every observed
/// device fault bumps `faults.injected`, every re-run `faults.retries`;
/// other errors (torn writes included) surface immediately.
pub(crate) fn retry_transient<T>(
    obs: &ServiceObs,
    clock: &dyn Clock,
    retry: FaultRetry,
    mut f: impl FnMut(u32) -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match f(attempt) {
            Err(ServiceError::Io(IoSimError::DeviceFault { transient: true }))
                if attempt < retry.retries =>
            {
                attempt += 1;
                obs.metrics.faults_injected.inc();
                obs.metrics.faults_retries.inc();
                clock.wait_us(retry.backoff_for(attempt));
            }
            Err(e) => {
                if matches!(&e, ServiceError::Io(IoSimError::DeviceFault { .. })) {
                    obs.metrics.faults_injected.inc();
                }
                return Err(e);
            }
            ok => return ok,
        }
    }
}
