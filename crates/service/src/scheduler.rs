//! The session scheduler: the admission queue, the worker loop and the
//! hand-off between them.
//!
//! One [`SessionShared`] lives for one [`Service::run`] batch or
//! [`Service::with_session`] scope. A request takes the session lock twice:
//! once in [`Session::submit`], and once on the worker side, where a worker
//! gives back its previous job's slot and claims its next job in a *single*
//! hold ([`Service::claim`]). Everything else — executing the query,
//! stamping its [`QueryStats`], wrapping its trace, recording histograms,
//! folding totals, keeping the [`QueryOutcome`] — happens on the worker's
//! own stack: what the scheduler knows about a request leaves the lock as a
//! [`Ticket`], and finished outcomes collect in per-worker vectors the
//! session stitches together after the workers exit.
//!
//! **Wake rule.** Workers park on the session condvar only inside
//! [`SessionShared::park`], which counts them in `waiters` *under the
//! session lock*; a notify is issued only by a lock holder that changed
//! what a scan would find (a submit, a release or a queue exit that leaves
//! entries behind, the close) and that read `waiters > 0` in the same hold.
//! No wake-up is lost: a parked worker bumped `waiters` and released the
//! lock atomically with enqueueing on the condvar, so any holder that comes
//! later either sees the count and notifies a worker that is already
//! enqueued, or came earlier — and then the worker's own scan saw its
//! change before deciding to park.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use usj_io::{IoSimError, MemoryGauge, MemoryReservation};
use usj_obs::{Clock, QueryTrace, TraceSpan};

use crate::request::{
    QueryOutcome, QueryRequest, QueryStats, QueryStatus, ServiceReport, ServiceStats,
};
use crate::service::{relock, Service};
use crate::ServiceError;

/// How long a worker parks at most while a queued request can expire with
/// no accompanying notify (a deadline or an admission timeout: time passes,
/// no reservation is released).
const EXPIRY_POLL: Duration = Duration::from_millis(5);

/// One submitted request's scheduler-side record while it is queued.
struct Entry {
    /// The request itself; taken (moved out) when the entry is admitted,
    /// so the worker runs it without holding the queue lock.
    request: Option<QueryRequest>,
    /// Admission-gauge estimate, computed once at submission.
    estimate: usize,
    /// First-enqueue reading of the session's clock (microseconds) — the
    /// queue-wait and latency anchor. Deferrals and re-admission attempts
    /// never reset it. Reading the pluggable clock (rather than
    /// `Instant::now`) is what lets tests swap in a
    /// [`usj_obs::VirtualClock`] and assert exact waits.
    submitted_us: u64,
    deferrals: u64,
    overtaken: u64,
}

/// What the scheduler knows about a request at the moment it leaves the
/// queue, copied out under the session lock so its outcome can be assembled
/// without it. Nothing touches an entry's counters once it is off the
/// queue, so the copy is final.
struct Ticket {
    idx: usize,
    submitted_us: u64,
    deferrals: u64,
    overtaken: u64,
    /// Position in the admission order; `None` for a request that left the
    /// queue without a grant.
    admission_seq: Option<u64>,
}

/// Microseconds elapsed between two clock readings, as a [`Duration`]
/// (clamped at zero — a swapped virtual clock never yields negative waits).
fn us_between(from_us: u64, to_us: u64) -> Duration {
    Duration::from_micros(to_us.saturating_sub(from_us))
}

/// Entry indices awaiting admission, in admission order: priority
/// descending, submission order ascending within a priority. One FIFO per
/// priority seen this session, so a submit is a `push_back` and claiming
/// the head a `pop_front`; a *rank* is a position in the total order.
#[derive(Default)]
struct PendingQueue {
    /// `(priority, fifo)`, highest priority first. A drained FIFO stays (a
    /// session sees a handful of priorities at most).
    buckets: Vec<(u8, VecDeque<usize>)>,
    len: usize,
}

impl PendingQueue {
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `idx` behind everything of its priority. Entry indices grow
    /// with submission, so FIFO order *is* submission order.
    fn push(&mut self, priority: u8, idx: usize) {
        let bucket = match self.buckets.binary_search_by(|(p, _)| priority.cmp(p)) {
            Ok(bucket) => bucket,
            Err(bucket) => {
                self.buckets.insert(bucket, (priority, VecDeque::new()));
                bucket
            }
        };
        self.buckets[bucket].1.push_back(idx);
        self.len += 1;
    }

    /// Every queued entry, in admission order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.buckets
            .iter()
            .flat_map(|(_, fifo)| fifo.iter().copied())
    }

    /// Removes and returns the entry at `rank` (O(1) at the head).
    fn remove(&mut self, mut rank: usize) -> usize {
        for (_, fifo) in &mut self.buckets {
            if let Some(idx) = fifo.remove(rank) {
                self.len -= 1;
                return idx;
            }
            rank -= fifo.len();
        }
        panic!("rank {rank} past the end of the pending queue");
    }
}

/// Scheduler state shared by the workers of one batch or session.
#[derive(Default)]
struct SessionState {
    /// One entry per submitted request, in submission order.
    entries: Vec<Entry>,
    /// Indices into `entries` awaiting admission.
    pending: PendingQueue,
    /// How many of the `pending` requests carry a deadline — whether an
    /// admission scan needs the clock at all.
    queued_deadlines: usize,
    /// Queries currently holding a reservation.
    running: usize,
    /// Workers parked on the condvar (see [`SessionShared::park`]).
    waiters: usize,
    /// Set when the submitting side is done; workers drain and exit.
    closed: bool,
    next_admission_seq: u64,
    max_queue_depth: usize,
}

impl SessionState {
    /// Stamps the queue exit of `idx`, which the caller has just removed
    /// from `pending` — every entry leaves the queue through here. An
    /// `admitted` entry takes the next place in the admission order.
    fn ticket(&mut self, idx: usize, admitted: bool) -> Ticket {
        let entry = &self.entries[idx];
        if entry
            .request
            .as_ref()
            .is_some_and(|r| r.deadline_us.is_some())
        {
            self.queued_deadlines -= 1;
        }
        let admission_seq = admitted.then(|| {
            self.next_admission_seq += 1;
            self.next_admission_seq - 1
        });
        Ticket {
            idx,
            submitted_us: entry.submitted_us,
            deferrals: entry.deferrals,
            overtaken: entry.overtaken,
            admission_seq,
        }
    }

    /// [`ticket`](Self::ticket) for an admitted entry, moving its request
    /// out for execution off-lock.
    fn admit(&mut self, idx: usize) -> (Ticket, QueryRequest) {
        let ticket = self.ticket(idx, true);
        let request = self.entries[idx]
            .request
            .take()
            .expect("pending entries own their request");
        (ticket, request)
    }
}

/// The synchronization bundle shared by the workers and the submitter.
struct SessionShared {
    state: Mutex<SessionState>,
    cv: Condvar,
    gauge: MemoryGauge,
    /// The service's clock as of the session's start — waits, latencies
    /// and trace timestamps of the whole session read it without a lock.
    clock: Arc<dyn Clock>,
}

impl SessionShared {
    /// Parks the calling worker until the next notify — or, when `timed`,
    /// for [`EXPIRY_POLL`] at most. The only place a worker waits: the
    /// count brackets the wait under the session lock, which is what lets
    /// every notifier skip the syscall when nobody is parked.
    fn park<'a>(
        &self,
        mut guard: MutexGuard<'a, SessionState>,
        timed: bool,
    ) -> MutexGuard<'a, SessionState> {
        guard.waiters += 1;
        let mut guard = if timed {
            relock(self.cv.wait_timeout(guard, EXPIRY_POLL)).0
        } else {
            relock(self.cv.wait(guard))
        };
        guard.waiters -= 1;
        guard
    }
}

/// What a worker took off the queue.
enum Job {
    /// An admitted query and the reservation it runs under.
    Run {
        ticket: Ticket,
        request: QueryRequest,
        reservation: MemoryReservation,
    },
    /// A request that left the queue without a grant: cancelled while
    /// queued, or failed there. `left_us` is the clock reading the scan
    /// judged it by, when it took one.
    Resolved {
        ticket: Ticket,
        status: QueryStatus,
        left_us: Option<u64>,
    },
}

/// An open submission handle into a running [`Service::with_session`]
/// scope: a load generator's way of driving the worker pool open-loop.
///
/// Requests submitted here enter the same priority/FIFO admission queue as
/// a batch's; outcomes are collected into the session's final
/// [`ServiceReport`] in submission order. The handle also exposes the
/// instantaneous queue depth so an open-loop driver can record backlog
/// growth over time.
pub struct Session<'a> {
    service: &'a Service,
    shared: &'a SessionShared,
}

impl Session<'_> {
    /// Enqueues one request and wakes the workers, if any is parked.
    /// Returns the request's index in the session's final report.
    pub fn submit(&self, request: QueryRequest) -> usize {
        let estimate = self.service.admission_estimate(&request);
        let priority = request.priority;
        let has_deadline = request.deadline_us.is_some();
        let metrics = &self.service.obs.metrics;
        let submitted_us = self.shared.clock.now_us();
        let mut guard = relock(self.shared.state.lock());
        let state = &mut *guard;
        let idx = state.entries.len();
        state.entries.push(Entry {
            request: Some(request),
            estimate,
            submitted_us,
            deferrals: 0,
            overtaken: 0,
        });
        state.pending.push(priority, idx);
        state.queued_deadlines += usize::from(has_deadline);
        let depth = state.pending.len();
        state.max_queue_depth = state.max_queue_depth.max(depth);
        // Stored under the lock, like the workers' stores, so the gauge's
        // last value is the queue's last length.
        metrics.queue_depth.set(depth as i64);
        metrics.queue_depth_peak.set_max(depth as i64);
        let wake = state.waiters > 0;
        drop(guard);
        metrics.queries_submitted.inc();
        if wake {
            self.shared.cv.notify_all();
        }
        idx
    }

    /// Requests currently awaiting admission.
    pub fn queue_depth(&self) -> usize {
        relock(self.shared.state.lock()).pending.len()
    }

    /// Queries currently executing.
    pub fn running(&self) -> usize {
        relock(self.shared.state.lock()).running
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> usize {
        relock(self.shared.state.lock()).entries.len()
    }

    /// Bytes currently held on the session's admission gauge. The leak
    /// oracle for the chaos suite: once every submitted query has resolved
    /// — completed, failed, panicked, cancelled or timed out — this must
    /// read zero, or some failure path kept its reservation.
    pub fn admission_bytes_in_use(&self) -> usize {
        self.shared.gauge.current()
    }
}

impl Service {
    /// Executes a batch of requests on the worker pool and returns every
    /// outcome plus the service-wide roll-up.
    ///
    /// This is the closed session special case: everything is enqueued up
    /// front and the session closes immediately, so the workers drain the
    /// queue and exit.
    pub fn run(&self, requests: Vec<QueryRequest>) -> ServiceReport {
        let workers = self.config.workers.max(1).min(requests.len().max(1));
        self.session_core(requests, workers, |_| {}).1
    }

    /// Runs an *open* session: spawns the worker pool, hands the caller a
    /// [`Session`] submission handle, and keeps the workers alive until the
    /// closure returns — the open-loop load-generation mode, where arrival
    /// times follow the driver's schedule rather than the batch boundary.
    ///
    /// Returns the closure's value and the report over every request
    /// submitted during the session, in submission order.
    pub fn with_session<T>(&self, f: impl FnOnce(&Session<'_>) -> T) -> (T, ServiceReport) {
        self.session_core(Vec::new(), self.config.workers.max(1), f)
    }

    /// The shared engine under [`run`](Service::run) and
    /// [`with_session`](Service::with_session): enqueue `initial`, spawn
    /// `workers`, let `f` drive the session, close, drain, report.
    fn session_core<T>(
        &self,
        initial: Vec<QueryRequest>,
        workers: usize,
        f: impl FnOnce(&Session<'_>) -> T,
    ) -> (T, ServiceReport) {
        let shared = SessionShared {
            state: Mutex::new(SessionState::default()),
            cv: Condvar::new(),
            gauge: MemoryGauge::new(self.config.memory_limit),
            clock: self.obs.clock(),
        };
        let session = Session {
            service: self,
            shared: &shared,
        };
        for request in initial {
            session.submit(request);
        }
        let (cache_hits_before, cache_misses_before) = {
            let cache = relock(self.plan_cache.lock());
            (cache.hits(), cache.misses())
        };

        let (value, finished) = std::thread::scope(|scope| {
            let pool: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| self.worker_loop(&shared)))
                .collect();
            let value = f(&session);
            let wake = {
                let mut state = relock(shared.state.lock());
                state.closed = true;
                state.waiters > 0
            };
            if wake {
                shared.cv.notify_all();
            }
            let finished: Vec<_> = pool
                .into_iter()
                .map(|worker| {
                    worker
                        .join()
                        .expect("query panics are contained inside the worker")
                })
                .collect();
            (value, finished)
        });

        let state = relock(shared.state.into_inner());
        let cache = relock(self.plan_cache.lock());
        let mut stats = ServiceStats {
            memory_limit: self.config.memory_limit,
            workers,
            plan_cache_hits: cache.hits() - cache_hits_before,
            plan_cache_misses: cache.misses() - cache_misses_before,
            peak_admitted_bytes: shared.gauge.peak(),
            max_queue_depth: state.max_queue_depth,
            ..ServiceStats::default()
        };
        let n = state.entries.len();
        let mut slots: Vec<Option<QueryOutcome>> =
            std::iter::repeat_with(|| None).take(n).collect();
        for (outcomes, folded) in finished {
            stats.merge(&folded);
            for outcome in outcomes {
                let idx = outcome.request;
                slots[idx] = Some(outcome);
            }
        }
        let outcomes: Vec<QueryOutcome> = slots
            .into_iter()
            .map(|slot| slot.expect("every request resolves to an outcome"))
            .collect();
        (value, ServiceReport { outcomes, stats })
    }

    /// One worker: repeatedly claim the first admissible pending request (in
    /// priority/FIFO order, bounded overtake allowed), run it on a forked
    /// environment, release its budget, until the session closes and the
    /// queue drains.
    /// Returns the outcomes this worker produced and their roll-up.
    fn worker_loop(&self, shared: &SessionShared) -> (Vec<QueryOutcome>, ServiceStats) {
        let clock = &shared.clock;
        let mut done = Vec::new();
        let mut agg = ServiceStats::default();
        // Whether the previous job ran under a reservation: its bytes are
        // back on the gauge by the time `claim` gives its slot back.
        let mut release = false;
        while let Some(job) = self.claim(shared, release) {
            match job {
                Job::Run {
                    ticket,
                    request,
                    reservation,
                } => {
                    let admitted_us = clock.now_us();
                    let granted = reservation.bytes();
                    let outcome = self.execute_one(ticket.idx, &request, granted, clock);
                    drop(reservation);
                    done.push(self.finish(clock.as_ref(), ticket, admitted_us, outcome, &mut agg));
                    release = true;
                }
                Job::Resolved {
                    ticket,
                    status,
                    left_us,
                } => {
                    let left_us = left_us.unwrap_or_else(|| clock.now_us());
                    let outcome = QueryOutcome {
                        request: ticket.idx,
                        status,
                        pairs: None,
                        stats: QueryStats::default(),
                    };
                    done.push(self.finish(clock.as_ref(), ticket, left_us, outcome, &mut agg));
                    release = false;
                }
            }
        }
        (done, agg)
    }

    /// The worker side's one lock hold per job: gives back the previous
    /// job's running slot when `release` is set, then scans the pending
    /// queue for the next piece of work, parking while nothing is
    /// actionable. Returns `None` when the session is closed and the queue
    /// has drained.
    ///
    /// The scan honors the overtake bound: trying an entry that fails
    /// admission records a deferral, and once that entry has been overtaken
    /// [`ServiceConfig::max_overtakes`](crate::ServiceConfig::max_overtakes)
    /// times it becomes a barrier — the scan stops there instead of
    /// admitting anything behind it, so a heavy request's wait is bounded
    /// by K admissions rather than unbounded.
    fn claim(&self, shared: &SessionShared, release: bool) -> Option<Job> {
        /// How a scanned entry leaves the queue: with a grant, or resolved
        /// on the spot (status, and the clock reading it was judged by).
        type Exit = std::result::Result<MemoryReservation, (QueryStatus, Option<u64>)>;
        let metrics = &self.obs.metrics;
        let mut guard = relock(shared.state.lock());
        // Whether this hold gave parked workers something new to scan: the
        // released slot and bytes, or a queue exit that admitted nothing
        // (a barrier may have gone with it). This worker can run only one
        // job, so the rest is theirs — see the wake at the end.
        let mut changed = release;
        if release {
            guard.running -= 1;
        }
        let job = loop {
            let state = &mut *guard;
            if state.pending.is_empty() {
                if state.closed {
                    break None;
                }
                guard = shared.park(guard, false);
                changed = false;
                continue;
            }
            // Read the clock once per scan pass, and only when some pending
            // request can actually time out — the common no-deadline,
            // no-timeout configuration never touches the clock here.
            let need_clock =
                self.config.admission_timeout_us.is_some() || state.queued_deadlines > 0;
            let scan_now = if need_clock { shared.clock.now_us() } else { 0 };
            let mut picked: Option<(usize, Exit)> = None;
            for (rank, idx) in state.pending.iter().enumerate() {
                let entry = &mut state.entries[idx];
                let request = entry
                    .request
                    .as_ref()
                    .expect("pending entries own their request");
                if request.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                    picked = Some((rank, Err((QueryStatus::Cancelled(None), None))));
                    break;
                }
                if let Some(deadline_us) = request.deadline_us {
                    if scan_now >= deadline_us {
                        // Fire the request's own token too, so a shared
                        // external handle observes the expiry.
                        if let Some(token) = &request.cancel {
                            token.cancel();
                        }
                        metrics.faults_deadline_exceeded.inc();
                        let err = ServiceError::DeadlineExceeded {
                            deadline_us,
                            now_us: scan_now,
                        };
                        picked = Some((rank, Err((QueryStatus::Failed(err), Some(scan_now)))));
                        break;
                    }
                }
                match shared.gauge.try_reserve(entry.estimate) {
                    Ok(reservation) => {
                        picked = Some((rank, Ok(reservation)));
                        break;
                    }
                    Err(_) => {
                        entry.deferrals += 1;
                        metrics.admission_deferrals.inc();
                        if let Some(timeout_us) = self.config.admission_timeout_us {
                            // Only requests the gauge actually deferred can
                            // time out — an admissible request is admitted
                            // on this very scan regardless of its age.
                            let waited_us = scan_now.saturating_sub(entry.submitted_us);
                            if waited_us >= timeout_us {
                                metrics.faults_admission_timeouts.inc();
                                let err = ServiceError::AdmissionTimeout {
                                    timeout_us,
                                    waited_us,
                                };
                                picked =
                                    Some((rank, Err((QueryStatus::Failed(err), Some(scan_now)))));
                                break;
                            }
                        }
                        if entry.overtaken >= self.config.max_overtakes {
                            // Barrier: this entry has been overtaken its
                            // full allowance — nothing behind it may be
                            // admitted before it runs.
                            break;
                        }
                    }
                }
            }
            if picked.is_none() && state.running == 0 {
                // Nothing is running, so no reservation will ever be
                // released: the head request's budget simply does not fit
                // the shared limit. Fail it loudly to keep the queue moving.
                let head = state.pending.iter().next().expect("the queue is not empty");
                let err = ServiceError::Io(IoSimError::MemoryLimitExceeded {
                    required: state.entries[head].estimate,
                    limit: self.config.memory_limit,
                });
                picked = Some((0, Err((QueryStatus::Failed(err), None))));
            }
            let Some((rank, exit)) = picked else {
                // A deadline or admission timeout can expire with no
                // accompanying notify — poll with a short timed wait so
                // expiry is noticed promptly even on an otherwise idle
                // queue.
                guard = shared.park(guard, need_clock);
                changed = false;
                continue;
            };
            let reservation = match exit {
                Ok(reservation) => reservation,
                Err((status, left_us)) => {
                    let idx = state.pending.remove(rank);
                    changed = true;
                    break Some(Job::Resolved {
                        ticket: state.ticket(idx, false),
                        status,
                        left_us,
                    });
                }
            };
            // Everything the admitted entry jumped over was overtaken once
            // more.
            for overtaken in state.pending.iter().take(rank) {
                state.entries[overtaken].overtaken += 1;
            }
            if rank > 0 {
                metrics.admission_overtakes.add(rank as u64);
            }
            let idx = state.pending.remove(rank);
            let (ticket, request) = state.admit(idx);
            state.running += 1;
            metrics.admission_grants.inc();
            // This admission may have exhausted the shared budget for the
            // next request in line: record that head-of-queue deferral at
            // admission time, so the count reflects the queue's
            // oversubscription rather than scan timing.
            if let Some(next) = state.pending.iter().next() {
                if state.entries[next].estimate > shared.gauge.headroom() {
                    state.entries[next].deferrals += 1;
                    metrics.admission_deferrals.inc();
                }
            }
            break Some(Job::Run {
                ticket,
                request,
                reservation,
            });
        };
        // Stored under the lock, like the submitter's store, so the gauge's
        // last value is the queue's last length.
        metrics.queue_depth.set(guard.pending.len() as i64);
        // Parked workers have something to do if this worker leaves entries
        // behind in a state they have not scanned — or if it leaves for
        // good: the session is over for them too.
        let wake = guard.waiters > 0
            && match job {
                Some(_) => changed && !guard.pending.is_empty(),
                None => true,
            };
        drop(guard);
        if wake {
            shared.cv.notify_all();
        }
        job
    }

    /// Assembles one finished outcome off-lock: stamps the scheduling stats
    /// its ticket carries (the queue wait ends at `left_us`, the latency
    /// now), wraps its trace, records the terminal metrics and folds it
    /// into the worker's roll-up.
    fn finish(
        &self,
        clock: &dyn Clock,
        ticket: Ticket,
        left_us: u64,
        mut outcome: QueryOutcome,
        agg: &mut ServiceStats,
    ) -> QueryOutcome {
        debug_assert_eq!(
            ticket.idx, outcome.request,
            "the outcome answers its ticket"
        );
        outcome.stats.deferrals = ticket.deferrals;
        outcome.stats.overtaken = ticket.overtaken;
        outcome.stats.queue_wait = us_between(ticket.submitted_us, left_us);
        outcome.stats.latency = us_between(ticket.submitted_us, clock.now_us());
        outcome.stats.admission_seq = ticket.admission_seq;
        // Wrap the recorded execute tree (if this query was traced) under a
        // `query` root alongside the admission wait, synthesised from the
        // scheduler's own measurement — the wait predates the execute
        // context, so it cannot be a recorded span.
        if let Some(trace) = outcome.stats.trace.take() {
            let wait_us = u64::try_from(outcome.stats.queue_wait.as_micros()).unwrap_or(u64::MAX);
            let exec_start = trace.roots.first().map_or(0, |r| r.start_us);
            let end = trace
                .roots
                .iter()
                .map(|r| r.end_us)
                .max()
                .unwrap_or(exec_start);
            let start = exec_start.saturating_sub(wait_us);
            let mut root = TraceSpan::leaf("query", start, end);
            root.children
                .push(TraceSpan::leaf("admission.wait", start, exec_start));
            root.children.extend(trace.roots);
            outcome.stats.trace = Some(QueryTrace {
                roots: vec![root],
                orphan_marks: trace.orphan_marks,
                dropped_events: trace.dropped_events,
            });
        }
        let metrics = &self.obs.metrics;
        match &outcome.status {
            QueryStatus::Completed(_) => metrics.queries_completed.inc(),
            QueryStatus::Cancelled(_) => metrics.queries_cancelled.inc(),
            QueryStatus::Failed(_) => metrics.queries_failed.inc(),
        }
        let as_us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        metrics
            .queue_wait_us
            .record(as_us(outcome.stats.queue_wait));
        metrics
            .query_latency_us
            .record(as_us(outcome.stats.latency));
        agg.fold(&outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::PendingQueue;

    #[test]
    fn pending_queue_keeps_priority_then_submission_order() {
        let mut queue = PendingQueue::default();
        for (idx, priority) in [1u8, 0, 3, 1, 0, 3, 1].into_iter().enumerate() {
            queue.push(priority, idx);
        }
        let order = |q: &PendingQueue| q.iter().collect::<Vec<_>>();
        assert_eq!(order(&queue), [2, 5, 0, 3, 6, 1, 4]);
        assert_eq!(queue.len(), 7);

        // A rank counts across the priority classes; removing keeps the rest
        // in order.
        assert_eq!(queue.remove(3), 3);
        assert_eq!(queue.remove(0), 2);
        assert_eq!(order(&queue), [5, 0, 6, 1, 4]);

        // Draining from the head empties the classes in admission order.
        let drained: Vec<_> = (0..5).map(|_| queue.remove(0)).collect();
        assert_eq!(drained, [5, 0, 6, 1, 4]);
        assert!(queue.is_empty());

        // A drained class fills again behind nothing.
        queue.push(3, 9);
        queue.push(7, 8);
        assert_eq!(order(&queue), [8, 9]);
    }
}
