//! The engine handle and its one-shot batch entry point.
//!
//! [`Engine`] is a builder for the worker pool in [`crate::service`]:
//! worker count, queue bound, cancel token, tracer, metrics registry and
//! context pooling.  [`Engine::start`] keeps the pool alive as a service;
//! [`Engine::run`] is that service's batch client — it starts a pool of
//! `min(workers, jobs)` workers, submits every job with back-pressure,
//! drains, and orders the delivered outcomes by ticket (= submission index)
//! into a [`BatchReport`].  So a batch runs on exactly the workers a daemon
//! runs on, with the same panic isolation, context cache and metric names.
//!
//! With a recording [`Tracer`] attached ([`Engine::with_tracer`]) the batch
//! emits a span tree — `engine-batch` → one span per job label →
//! `queue-wait` (opened at submission, closed at pop) and `execute` on the
//! executing worker's lane — whose aggregated *shape* is identical for any
//! worker count.

use crate::job::{JobOutcome, JobSpec};
use crate::report::BatchReport;
use crate::service::{ServiceJob, ShutdownMode};
use mffv_solver::monitor::CancelToken;
use mffv_telemetry::{MetricsRegistry, Stopwatch, Tracer};
use std::sync::mpsc;

/// The concurrent batch-solve engine.
#[derive(Clone, Debug)]
pub struct Engine {
    pub(crate) workers: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) tracer: Tracer,
    pub(crate) metrics: Option<MetricsRegistry>,
    pub(crate) pooling: bool,
}

impl Engine {
    /// An engine with `workers` worker threads (at least 1) and a default
    /// queue bound of twice the worker count.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            workers,
            queue_capacity: workers * 2,
            cancel: None,
            tracer: Tracer::disabled(),
            metrics: None,
            pooling: true,
        }
    }

    /// An engine sized to the machine: one worker per available hardware
    /// thread (1 when parallelism cannot be determined).
    pub fn with_available_parallelism() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(workers)
    }

    /// Override the job-queue bound (back-pressure on the submitting thread).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Watch `token` for batch-level cancellation.  When the token trips,
    /// in-flight solves stop at their next iteration boundary and every job
    /// still queued is drained as
    /// [`JobStatus::Stopped`](crate::JobStatus::Stopped) with
    /// [`StopReason::Cancelled`](crate::StopReason::Cancelled) — the pool
    /// never blocks on a cancelled batch, and [`Engine::run`] still returns
    /// a complete, submission-ordered [`BatchReport`].
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Record batch execution as a span tree under `tracer`.  A disabled
    /// tracer (the default) keeps every span operation a no-op; job results
    /// are bitwise identical either way.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Publish the workers' metrics (job counts by status, queue high-water,
    /// the execution-latency histogram, context-cache deltas) into
    /// `registry` as each job completes.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Enable or disable the per-worker solve-context pool (on by default).
    ///
    /// With pooling on, each worker keeps a warm
    /// [`SolveContextCache`](mffv_solver::context::SolveContextCache) across
    /// jobs: the stencil plan, preconditioner and CG scratch are rebuilt only
    /// when a job's cache key differs from the previous job's.  Results are
    /// **bitwise identical** either way, for any worker count — the switch
    /// exists for A/B benchmarking, not correctness.
    pub fn with_context_pooling(mut self, pooling: bool) -> Self {
        self.pooling = pooling;
        self
    }

    /// Whether workers keep warm solve contexts across jobs.
    pub fn context_pooling(&self) -> bool {
        self.pooling
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Bound of the job queue.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Execute `jobs` across the worker pool and aggregate the results.
    ///
    /// Guarantees:
    /// * **deterministic ordering** — `report.outcomes[i]` is job `i`, for
    ///   any worker count;
    /// * **failure isolation** — a job that returns an error or panics is
    ///   reported as [`JobStatus::Failed`](crate::JobStatus::Failed) /
    ///   [`JobStatus::Panicked`](crate::JobStatus::Panicked) without
    ///   affecting other jobs or the pool;
    /// * **determinism of results** — each job materialises its own workload
    ///   from its spec and seed, so its report is bitwise identical to a
    ///   serial run of the same spec.
    pub fn run(&self, jobs: Vec<JobSpec>) -> BatchReport {
        let started = Stopwatch::start();
        // An empty batch spawns no workers: a phantom worker would report a
        // `WorkerStats` row for work that never existed.
        let workers = self.workers.min(jobs.len());
        let service = self.spawn_service(workers, Some(self.tracer.span("engine-batch")));
        let (done, delivered) = mpsc::channel::<JobOutcome>();
        for job in jobs {
            let done = done.clone();
            let submitted = service.submit_blocking(ServiceJob::new(job, move |outcome| {
                done.send(outcome).ok();
            }));
            // audit: allow(panic) — invariant: only `shutdown` below closes
            // this service's queue, so a blocking submit cannot be refused.
            assert!(submitted.is_ok(), "a fresh service accepts every job");
        }
        drop(done);
        let queue_high_water = service.queue_high_water();
        let worker_stats = service.shutdown(ShutdownMode::Drain);
        // Every worker has been joined, so every callback has fired; on a
        // fresh service ticket `i` is submission index `i`.
        let mut outcomes: Vec<JobOutcome> = delivered.into_iter().collect();
        outcomes.sort_by_key(|outcome| outcome.index);
        BatchReport::new(outcomes, workers, started.elapsed_seconds())
            .with_engine_stats(worker_stats, queue_high_water)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use mffv_mesh::WorkloadSpec;

    fn tiny_jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::new(
                    WorkloadSpec::quickstart().scaled(2 + (i % 2)),
                    Backend::host(),
                )
            })
            .collect()
    }

    #[test]
    fn outcomes_keep_submission_order_for_any_worker_count() {
        let jobs = tiny_jobs(6);
        for workers in [1, 3, 8] {
            let report = Engine::new(workers).run(jobs.clone());
            assert_eq!(report.outcomes.len(), 6);
            for (i, outcome) in report.outcomes.iter().enumerate() {
                assert_eq!(outcome.index, i);
                assert_eq!(outcome.label, jobs[i].label());
                assert!(outcome.is_success(), "{:?}", outcome.failure());
            }
        }
    }

    #[test]
    fn invalid_jobs_fail_at_intake_without_stopping_the_batch() {
        let mut jobs = tiny_jobs(3);
        jobs.insert(
            1,
            JobSpec::new(
                WorkloadSpec {
                    max_iterations: 0,
                    ..WorkloadSpec::quickstart()
                },
                Backend::host(),
            ),
        );
        let report = Engine::new(2).run(jobs);
        assert_eq!(report.succeeded(), 3);
        assert_eq!(report.failed(), 1);
        let failure = report.outcomes[1].failure().unwrap();
        assert!(failure.contains("max_iterations"), "{failure}");
    }

    #[test]
    fn an_empty_batch_reports_zero_jobs_and_spawns_no_workers() {
        let report = Engine::new(4).run(Vec::new());
        assert_eq!(report.jobs(), 0);
        assert!(report.all_succeeded());
        assert_eq!(report.latency.count(), 0);
        // No phantom workers: nothing ran, so no WorkerStats rows either.
        assert_eq!(report.workers, 0);
        assert!(report.worker_stats.is_empty());
    }

    #[test]
    fn context_pooling_is_bitwise_invisible_and_counted() {
        // Two specs alternating across one worker: every switch is a cache
        // miss, every repeat a hit; outcomes must be bitwise identical to the
        // cache-off engine.
        let jobs = tiny_jobs(6);
        let registry = MetricsRegistry::new();
        let pooled = Engine::new(1)
            .with_metrics(registry.clone())
            .run(jobs.clone());
        let unpooled = Engine::new(1).with_context_pooling(false).run(jobs);
        assert!(pooled.all_succeeded() && unpooled.all_succeeded());
        for (a, b) in pooled.outcomes.iter().zip(&unpooled.outcomes) {
            let (ra, rb) = (a.report().unwrap(), b.report().unwrap());
            assert_eq!(
                ra.history.residual_norms_squared,
                rb.history.residual_norms_squared
            );
            let bits = |r: &mffv_solver::backend::SolveReport| -> Vec<u64> {
                r.pressure.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(ra), bits(rb));
        }
        // tiny_jobs alternates two specs, so a single worker alternates
        // miss/hit; at minimum the first job of each spec misses.
        let hits = registry.counter("engine.context.hits");
        let misses = registry.counter("engine.context.misses");
        assert!(misses >= 2, "misses = {misses}");
        assert_eq!(hits + misses, 2 * 6, "workload + context lookups per job");
    }

    #[test]
    fn worker_and_queue_floors() {
        let engine = Engine::new(0).with_queue_capacity(0);
        assert_eq!(engine.workers(), 1);
        assert_eq!(engine.queue_capacity(), 1);
        assert!(Engine::with_available_parallelism().workers() >= 1);
    }

    #[test]
    fn engine_stats_cover_every_worker_and_job() {
        let report = Engine::new(3).run(tiny_jobs(5));
        assert_eq!(report.worker_stats.len(), 3);
        let jobs: usize = report.worker_stats.iter().map(|w| w.jobs).sum();
        assert_eq!(jobs, 5);
        assert_eq!(report.latency.count(), 5);
        assert!(report.queue_high_water >= 1);
        assert!(report.queue_high_water <= Engine::new(3).queue_capacity());
        for (i, w) in report.worker_stats.iter().enumerate() {
            assert_eq!(w.worker, i);
            assert!(w.busy_seconds <= report.busy_seconds() + 1e-9);
        }
    }

    #[test]
    fn traced_batches_emit_a_span_per_job_with_wait_and_execute_children() {
        let tracer = Tracer::new();
        let jobs = tiny_jobs(4);
        let report = Engine::new(2).with_tracer(tracer.clone()).run(jobs.clone());
        assert!(report.all_succeeded());
        let tree = tracer.phase_tree();
        let batch = tree.find("engine-batch").expect("batch span");
        for job in &jobs {
            let job_node = batch.find(&job.label()).expect("per-job span");
            assert!(job_node.find("queue-wait").is_some());
            assert!(job_node.find("execute").is_some());
        }
    }

    #[test]
    fn metrics_registry_collects_batch_rollups() {
        let registry = MetricsRegistry::new();
        let report = Engine::new(2)
            .with_metrics(registry.clone())
            .run(tiny_jobs(3));
        assert!(report.all_succeeded());
        assert_eq!(registry.counter("engine.service.jobs.submitted"), 3);
        assert_eq!(registry.counter("engine.service.jobs.ok"), 3);
        assert_eq!(registry.counter("engine.service.jobs.failed"), 0);
        assert!(registry.gauge("engine.service.queue.high_water").unwrap() >= 1.0);
        assert_eq!(
            registry
                .histogram("engine.service.exec_seconds")
                .unwrap()
                .count(),
            3
        );
    }
}
