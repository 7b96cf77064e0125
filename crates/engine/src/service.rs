//! The engine's one worker pool.
//!
//! [`Engine::start`] spawns the worker pool once and keeps it alive behind an
//! [`EngineService`] handle; jobs arrive one at a time through
//! [`EngineService::try_submit`] (non-blocking — a full queue is a typed
//! [`SubmitError::Busy`], never a hang) or
//! [`EngineService::submit_blocking`] (the dispatcher path, which *wants* the
//! queue's back-pressure).  Each submitted job carries its own completion
//! callback and, optionally, a live [`SolveEvent`] observer — the hook a
//! solve daemon uses to stream convergence over a socket while the solve
//! runs.  [`Engine::run`] is a client of the same pool: it starts a service,
//! submits a batch and drains it, so batch and daemon jobs share one worker
//! loop, one panic-isolation path and one set of metric names.
//!
//! Each worker pops a job, closes its `queue-wait` span, executes it behind
//! [`std::panic::catch_unwind`] under an `execute` span on the worker's
//! lane, and hands the [`JobOutcome`] (whose `index` is the job's ticket) to
//! the job's callback.  A panicking job or callback costs one outcome, never
//! the worker.  Each worker keeps a warm solve context across jobs and counts
//! its own [`WorkerStats`], returned when it is joined.
//!
//! Shutdown is explicit and two-flavoured ([`EngineService::shutdown`]):
//!
//! * [`ShutdownMode::Drain`] — refuse new submissions, let every queued job
//!   run to completion, then join the workers (the SIGTERM path: nothing
//!   accepted is dropped);
//! * [`ShutdownMode::Abort`] — additionally trip the service-wide
//!   [`CancelToken`], so in-flight solves stop at their next iteration
//!   boundary and still-queued jobs complete as
//!   [`JobStatus::Stopped`]/[`StopReason::Cancelled`] (their callbacks still
//!   fire — nothing is silently lost).
//!
//! Dropping the handle without `shutdown` closes the queue too: the workers
//! drain what is queued, fire its callbacks and exit, unjoined.
//!
//! Metrics, when a registry is attached ([`Engine::with_metrics`]):
//! `engine.service.jobs.{submitted,ok,stopped,failed,panicked}`,
//! `engine.service.exec_seconds`, `engine.service.queue.high_water` and the
//! per-job `engine.context.{hits,misses,scratch_reallocs}` deltas.

use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::pool::Engine;
use crate::queue::{BoundedQueue, TryPushError};
use crate::report::WorkerStats;
use mffv_solver::backend::{SolveError, SolveReport};
use mffv_solver::monitor::{monitor_fn, CancelToken, Flow, SolveEvent, StopReason};
use mffv_telemetry::{MetricsRegistry, Span, Stopwatch, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How [`EngineService::shutdown`] winds the pool down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop accepting, finish everything already queued, then join.
    Drain,
    /// Stop accepting, cancel in-flight and queued jobs, then join.
    Abort,
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — typed back-pressure.  `depth` is the
    /// queue's occupancy at refusal time, `capacity` its bound.
    Busy {
        /// Items queued when the submission was refused.
        depth: usize,
        /// The queue bound.
        capacity: usize,
    },
    /// The service has begun shutting down and accepts nothing new.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { depth, capacity } => {
                write!(f, "engine queue full ({depth}/{capacity})")
            }
            SubmitError::ShuttingDown => f.write_str("engine service is shutting down"),
        }
    }
}

/// A refused submission: the error plus the job handed back, so the caller
/// can reply to its client (or retry) instead of losing the callbacks.
pub struct RejectedJob {
    /// Why the submission was refused.
    pub error: SubmitError,
    /// The job, returned unexecuted.
    pub job: ServiceJob,
}

/// A live [`SolveEvent`] observer attached to a [`ServiceJob`].
pub type EventObserver = Box<dyn FnMut(&SolveEvent) -> Flow + Send>;

/// One unit of service work: the [`JobSpec`] plus its delivery callbacks.
///
/// `on_event` (optional) observes the live [`SolveEvent`] stream on the
/// worker thread — bitwise the recorded convergence history — and may stop
/// the solve by returning [`Flow::Stop`].  `on_done` always fires exactly
/// once, on the worker, with the job's [`JobOutcome`] (its `index` is the
/// ticket the submission returned); it runs behind the same panic isolation
/// as the job itself.
pub struct ServiceJob {
    /// The solve to run.
    pub job: JobSpec,
    /// Live event observer, called at every iteration boundary.
    pub on_event: Option<EventObserver>,
    /// Completion callback (fires exactly once per accepted job).
    pub on_done: Box<dyn FnOnce(JobOutcome) + Send>,
}

impl ServiceJob {
    /// A service job delivering its outcome to `on_done`.
    pub fn new(job: JobSpec, on_done: impl FnOnce(JobOutcome) + Send + 'static) -> Self {
        Self {
            job,
            on_event: None,
            on_done: Box::new(on_done),
        }
    }

    /// Attach a live event observer.
    pub fn with_events(
        mut self,
        on_event: impl FnMut(&SolveEvent) -> Flow + Send + 'static,
    ) -> Self {
        self.on_event = Some(Box::new(on_event));
        self
    }
}

/// A queued service job plus its telemetry context.  The `queue-wait` span
/// is opened on the submitting thread and closed on the worker that pops
/// the job — span parentage travels in the value.
struct QueuedServiceJob {
    ticket: u64,
    job: ServiceJob,
    /// Started at submission; read at pop for `queue_wait_seconds`.
    queued: Stopwatch,
    /// Per-job root span, named by the job label.
    root: Span,
    /// Open `queue-wait` child, finished the moment a worker dequeues.
    wait: Span,
}

struct ServiceShared {
    queue: BoundedQueue<QueuedServiceJob>,
    /// Tripped by [`ShutdownMode::Abort`]; threaded into every job as its
    /// engine token, so in-flight solves stop at the next boundary.
    cancel: CancelToken,
    tracer: Tracer,
    /// The `engine-batch` span an [`Engine::run`] parents its jobs under;
    /// `None` for a plain [`Engine::start`], whose jobs are root spans.
    batch: Option<Span>,
    metrics: Option<MetricsRegistry>,
    next_ticket: AtomicU64,
    /// Whether workers keep warm solve contexts across jobs (see
    /// [`Engine::with_context_pooling`]).
    pooling: bool,
}

/// Handle to a started engine service: submit jobs, inspect the queue, shut
/// down.  Dropping the handle without calling
/// [`shutdown`](EngineService::shutdown) closes the queue, so the workers
/// drain what is queued and exit; explicit shutdown is the orderly path,
/// which also joins them.
pub struct EngineService {
    shared: Arc<ServiceShared>,
    workers: Vec<JoinHandle<WorkerStats>>,
}

impl Engine {
    /// Start the engine in persistent service mode: `workers()` threads over
    /// a `queue_capacity()`-bounded queue, inheriting the engine's tracer,
    /// metrics registry and (if configured) cancel token.
    pub fn start(&self) -> EngineService {
        self.spawn_service(self.workers, None)
    }

    /// [`start`](Self::start) with an explicit worker count, parenting every
    /// job's spans under `batch` when given.
    pub(crate) fn spawn_service(&self, workers: usize, batch: Option<Span>) -> EngineService {
        let shared = Arc::new(ServiceShared {
            queue: BoundedQueue::new(self.queue_capacity),
            cancel: self.cancel.clone().unwrap_or_default(),
            tracer: self.tracer.clone(),
            batch,
            metrics: self.metrics.clone(),
            next_ticket: AtomicU64::new(0),
            pooling: self.pooling,
        });
        let workers = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, worker))
            })
            .collect();
        EngineService { shared, workers }
    }
}

impl EngineService {
    /// Number of jobs currently queued (racy snapshot; excludes in-flight
    /// jobs already claimed by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// The queue bound submissions are admitted against.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Largest queue depth reached so far — final once the last submission
    /// has returned.
    pub(crate) fn queue_high_water(&self) -> usize {
        self.shared.queue.high_water()
    }

    /// Whether shutdown has begun (new submissions are refused).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.queue.is_closed()
    }

    /// The service-wide cancel token ([`ShutdownMode::Abort`] trips it; a
    /// daemon may also trip it directly for an emergency stop).
    pub fn cancel_token(&self) -> CancelToken {
        self.shared.cancel.clone()
    }

    /// Submit without blocking.  Returns the job's ticket, or hands the job
    /// back with [`SubmitError::Busy`] (queue full — the protocol reply, not
    /// a hang) / [`SubmitError::ShuttingDown`].
    // Handing the whole job back by value is the point of the Err: the
    // caller keeps its callbacks to reply/retry with.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, job: ServiceJob) -> Result<u64, RejectedJob> {
        let queued = self.enqueueable(job);
        let ticket = queued.ticket;
        match self.shared.queue.try_push(queued) {
            Ok(()) => {
                self.note_submitted();
                Ok(ticket)
            }
            Err(TryPushError::Full(item)) => Err(RejectedJob {
                error: SubmitError::Busy {
                    depth: self.shared.queue.depth(),
                    capacity: self.shared.queue.capacity(),
                },
                job: item.job,
            }),
            Err(TryPushError::Closed(item)) => Err(RejectedJob {
                error: SubmitError::ShuttingDown,
                job: item.job,
            }),
        }
    }

    /// Submit, blocking while the queue is full — the dispatcher path, which
    /// deliberately rides the queue's back-pressure.  Fails only when the
    /// service is shutting down (the job is handed back intact).
    #[allow(clippy::result_large_err)]
    pub fn submit_blocking(&self, job: ServiceJob) -> Result<u64, RejectedJob> {
        let queued = self.enqueueable(job);
        let ticket = queued.ticket;
        match self.shared.queue.push(queued) {
            Ok(()) => {
                self.note_submitted();
                Ok(ticket)
            }
            Err(item) => Err(RejectedJob {
                error: SubmitError::ShuttingDown,
                job: item.job,
            }),
        }
    }

    /// Shut the service down.  [`ShutdownMode::Drain`] finishes everything
    /// queued; [`ShutdownMode::Abort`] cancels in-flight and queued jobs
    /// (their `on_done` callbacks still fire, as `Stopped(Cancelled)`).
    /// Joins every worker before returning and hands back their
    /// [`WorkerStats`], by worker index.
    pub fn shutdown(mut self, mode: ShutdownMode) -> Vec<WorkerStats> {
        if matches!(mode, ShutdownMode::Abort) {
            self.shared.cancel.cancel();
        }
        self.shared.queue.close();
        // A worker that panicked outside job isolation has already lost its
        // thread (and its stats); joining the rest is still the right cleanup.
        std::mem::take(&mut self.workers)
            .into_iter()
            .filter_map(|handle| handle.join().ok())
            .collect()
    }

    fn enqueueable(&self, job: ServiceJob) -> QueuedServiceJob {
        let ticket = self.shared.next_ticket.fetch_add(1, Ordering::SeqCst);
        let label = job.job.label();
        let root = match &self.shared.batch {
            Some(batch) => batch.child(&label),
            None => self.shared.tracer.span(&label),
        };
        let wait = root.child("queue-wait");
        QueuedServiceJob {
            ticket,
            job,
            queued: Stopwatch::start(),
            root,
            wait,
        }
    }

    fn note_submitted(&self) {
        if let Some(metrics) = &self.shared.metrics {
            metrics.inc("engine.service.jobs.submitted");
            metrics.max_gauge(
                "engine.service.queue.high_water",
                self.shared.queue.high_water() as f64,
            );
        }
    }
}

impl Drop for EngineService {
    /// Close the queue so unjoined workers drain it and exit instead of
    /// parking on it forever.
    fn drop(&mut self) {
        self.shared.queue.close();
    }
}

fn worker_loop(shared: &ServiceShared, worker: usize) -> WorkerStats {
    let mut worker_stats = WorkerStats {
        worker,
        jobs: 0,
        busy_seconds: 0.0,
    };
    // One warm solve context per worker, kept across jobs for the lifetime
    // of the service (the steady-state serving path: after the first job of
    // a spec, repeats reuse the operator, preconditioner and CG scratch).
    let mut context_cache = shared
        .pooling
        .then(mffv_solver::context::SolveContextCache::default);
    let mut last_context_stats = mffv_solver::context::ContextStats::default();
    while let Some(item) = shared.queue.pop() {
        let QueuedServiceJob {
            ticket,
            job: service_job,
            queued,
            root,
            wait,
        } = item;
        let queue_wait_seconds = queued.elapsed_seconds();
        wait.finish();
        let ServiceJob {
            job,
            mut on_event,
            on_done,
        } = service_job;
        let label = job.label();
        let outcome = if shared.cancel.is_cancelled() {
            // A tripped token drains the queue as cancelled instead of
            // solving: queued jobs complete immediately, callbacks included,
            // with no partial state and no execution latency.
            JobOutcome {
                index: ticket as usize,
                label,
                status: JobStatus::Stopped {
                    reason: StopReason::Cancelled,
                    report: None,
                },
                queue_wait_seconds,
                exec_seconds: 0.0,
            }
        } else {
            let exec_span = root.child_on_lane("execute", worker as u32 + 1);
            let started = Stopwatch::start();
            let cache = context_cache.as_mut();
            let result = catch_unwind(AssertUnwindSafe(|| match on_event.as_mut() {
                Some(callback) => {
                    let mut streamer = monitor_fn(|event: &SolveEvent| (callback)(event));
                    job.execute_with(Some(&shared.cancel), &exec_span, Some(&mut streamer), cache)
                }
                None => job.execute_with(Some(&shared.cancel), &exec_span, None, cache),
            }));
            exec_span.finish();
            JobOutcome {
                index: ticket as usize,
                label,
                status: status_from_result(result),
                queue_wait_seconds,
                exec_seconds: started.elapsed_seconds(),
            }
        };
        root.finish();
        worker_stats.jobs += 1;
        worker_stats.busy_seconds += outcome.exec_seconds;
        if let Some(metrics) = &shared.metrics {
            let key = match &outcome.status {
                JobStatus::Completed(_) => "engine.service.jobs.ok",
                JobStatus::Stopped { .. } => "engine.service.jobs.stopped",
                JobStatus::Failed(_) => "engine.service.jobs.failed",
                JobStatus::Panicked(_) => "engine.service.jobs.panicked",
            };
            metrics.inc(key);
            metrics.observe("engine.service.exec_seconds", outcome.exec_seconds);
            if let Some(cache) = &context_cache {
                // Publish per-job context-cache deltas, so a long-lived
                // service's counters stay live rather than appearing only
                // at worker exit.
                let stats = cache.stats();
                metrics.add("engine.context.hits", stats.hits - last_context_stats.hits);
                metrics.add(
                    "engine.context.misses",
                    stats.misses - last_context_stats.misses,
                );
                metrics.add(
                    "engine.context.scratch_reallocs",
                    stats.scratch_reallocs - last_context_stats.scratch_reallocs,
                );
                last_context_stats = stats;
            }
        }
        // Completion callbacks get the same isolation as jobs: a panicking
        // callback must not take the worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(move || (on_done)(outcome)));
    }
    worker_stats
}

/// Map a panic-isolated execution result onto a [`JobStatus`]: early stops
/// (policy, deadline, cancellation) are `Stopped`, typed backend errors are
/// `Failed`, and a caught panic becomes `Panicked` with its message.
fn status_from_result(result: std::thread::Result<Result<SolveReport, SolveError>>) -> JobStatus {
    match result {
        Ok(Ok(report)) => match report.stopped {
            Some(reason) => JobStatus::Stopped {
                reason,
                report: Some(report),
            },
            None => JobStatus::Completed(report),
        },
        Ok(Err(error)) => match error.stop_reason() {
            Some(reason) => JobStatus::Stopped {
                reason,
                report: None,
            },
            None => JobStatus::Failed(error),
        },
        Err(payload) => JobStatus::Panicked(panic_message(payload.as_ref())),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use mffv_mesh::WorkloadSpec;
    use std::sync::mpsc;

    fn quick_job() -> JobSpec {
        JobSpec::new(WorkloadSpec::quickstart().scaled(2), Backend::host())
    }

    #[test]
    fn service_executes_jobs_and_delivers_outcomes() {
        let service = Engine::new(2).start();
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let tx = tx.clone();
            let submitted = service.try_submit(ServiceJob::new(quick_job(), move |outcome| {
                tx.send(outcome).ok();
            }));
            assert!(submitted.is_ok());
        }
        let outcomes: Vec<JobOutcome> = (0..4).map(|_| rx.recv().unwrap()).collect();
        assert!(outcomes.iter().all(|o| o.is_success()));
        service.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn full_queue_surfaces_as_typed_busy_not_a_hang() {
        // One worker plugged by a slow job + a capacity-1 queue: the second
        // queued submission must be refused as Busy.
        let service = Engine::new(1).with_queue_capacity(1).start();
        let (plug_tx, plug_rx) = mpsc::channel();
        let slow = JobSpec::new(
            WorkloadSpec {
                tolerance: 1e-30,
                max_iterations: 200_000,
                ..WorkloadSpec::quickstart()
            },
            Backend::host(),
        );
        let plug_started = mpsc::channel::<()>();
        let started_tx = plug_started.0.clone();
        service
            .try_submit(
                ServiceJob::new(slow.clone(), move |o| {
                    plug_tx.send(o).ok();
                })
                .with_events(move |_| {
                    started_tx.send(()).ok();
                    Flow::Continue
                }),
            )
            .ok()
            .expect("plug accepted");
        // Wait until the plug is actually executing (first event), so the
        // next submission stays queued.
        plug_started.1.recv().unwrap();
        assert!(service
            .try_submit(ServiceJob::new(quick_job(), |_| {}))
            .is_ok());
        match service.try_submit(ServiceJob::new(quick_job(), |_| {})) {
            Err(rejected) => {
                assert_eq!(
                    rejected.error,
                    SubmitError::Busy {
                        depth: 1,
                        capacity: 1
                    }
                );
            }
            Ok(_) => panic!("expected Busy"),
        }
        assert_eq!(service.queue_depth(), 1);
        service.shutdown(ShutdownMode::Abort);
        let plugged = plug_rx.recv().unwrap();
        assert!(
            matches!(
                plugged.status,
                JobStatus::Stopped {
                    reason: StopReason::Cancelled,
                    ..
                }
            ),
            "abort cancels the in-flight plug: {:?}",
            plugged.status
        );
    }

    #[test]
    fn drain_shutdown_finishes_queued_jobs() {
        let service = Engine::new(1).start();
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            // Blocking submit: this test exercises drain semantics, not
            // back-pressure, and `try_submit` races the worker's dequeue.
            service
                .submit_blocking(ServiceJob::new(quick_job(), move |o| {
                    tx.send(o).ok();
                }))
                .ok()
                .expect("accepted");
        }
        service.shutdown(ShutdownMode::Drain);
        let outcomes: Vec<JobOutcome> = rx.try_iter().collect();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.is_success()));
    }

    #[test]
    fn dropping_the_handle_lets_the_workers_drain_and_exit() {
        let service = Engine::new(2).start();
        let (tx, rx) = mpsc::channel();
        service
            .submit_blocking(ServiceJob::new(quick_job(), move |o| {
                tx.send(o).ok();
            }))
            .ok()
            .expect("accepted");
        let shared = Arc::downgrade(&service.shared);
        drop(service);
        assert!(rx.recv().unwrap().is_success(), "queued work still runs");
        // The workers hold the only other strong references: once they
        // exit, the shared state is freed.
        let waited = Stopwatch::start();
        while shared.upgrade().is_some() {
            assert!(
                waited.elapsed_seconds() < 10.0,
                "workers still parked on the queue after the handle was dropped"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    #[test]
    fn submissions_after_shutdown_begin_are_refused() {
        let service = Engine::new(1).start();
        service.shared.queue.close();
        match service.try_submit(ServiceJob::new(quick_job(), |_| {})) {
            Err(rejected) => assert_eq!(rejected.error, SubmitError::ShuttingDown),
            Ok(_) => panic!("expected ShuttingDown"),
        }
        assert!(service.is_shutting_down());
        service.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn streamed_events_match_the_recorded_history() {
        use mffv_solver::monitor::RecordingMonitor;
        let service = Engine::new(1).start();
        let (tx, rx) = mpsc::channel();
        let (ev_tx, ev_rx) = mpsc::channel();
        let job = quick_job();
        service
            .try_submit(
                ServiceJob::new(job.clone(), move |o| {
                    tx.send(o).ok();
                })
                .with_events(move |event| {
                    ev_tx.send(*event).ok();
                    Flow::Continue
                }),
            )
            .ok()
            .expect("accepted");
        let outcome = rx.recv().unwrap();
        assert!(outcome.is_success());
        service.shutdown(ShutdownMode::Drain);
        let streamed: Vec<SolveEvent> = ev_rx.try_iter().collect();
        let mut recorder = RecordingMonitor::new();
        job.execute_with(None, &Span::null(), Some(&mut recorder), None)
            .unwrap();
        assert_eq!(
            streamed, recorder.events,
            "live stream == in-process replay"
        );
    }
}
