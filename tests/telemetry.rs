//! Telemetry integration contracts (PR 7):
//!
//! 1. **Non-interference** — a traced solve returns a bitwise-identical
//!    `SolveReport` to an untraced one, on every backend.  Tracing reads
//!    clocks and allocates span records but never touches solve arithmetic.
//! 2. **Deterministic span-tree shape** — the aggregated phase tree of a
//!    fixed 12-job sweep has the same `shape_string()` for 1, 2 and 8
//!    workers: span *timings* are scheduling-dependent, span *structure* is
//!    not.
//! 3. **Histogram merge semantics** — worker-local `LogHistogram`s merge
//!    associatively on raw bucket counts, so per-worker folds are
//!    order-independent.
//! 4. **Transient span structure** — one `step` span per executed step, with
//!    the nested CG loop spans under each.

use mffv::prelude::*;
use mffv::telemetry::{LogHistogram, Tracer};
use mffv::Simulation;

fn report_bits(report: &mffv::SolveReport) -> (Vec<u64>, Vec<u64>, u64) {
    (
        report
            .pressure
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        report
            .history
            .residual_norms_squared
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        report.final_residual_max.to_bits(),
    )
}

#[test]
fn traced_solves_are_bitwise_identical_to_untraced_on_every_backend() {
    let spec = WorkloadSpec::quickstart();
    for backend in [Backend::host(), Backend::gpu_ref(), Backend::dataflow()] {
        let untraced = Simulation::from_spec(&spec)
            .tolerance(1e-10)
            .backend(backend)
            .run()
            .unwrap();
        let tracer = Tracer::new();
        let traced = Simulation::from_spec(&spec)
            .tolerance(1e-10)
            .backend(backend)
            .tracer(tracer.clone())
            .run()
            .unwrap();
        assert_eq!(
            report_bits(&untraced),
            report_bits(&traced),
            "{} diverged under tracing",
            backend.name()
        );
        // The trace actually recorded the solve: a root span plus the CG loop.
        let tree = tracer.phase_tree();
        let root = tree
            .find(&format!("solve @ {}", backend.name()))
            .unwrap_or_else(|| panic!("no root span for {}", backend.name()));
        assert!(
            root.find("cg-loop").is_some(),
            "{}: no cg-loop span",
            backend.name()
        );
    }
}

#[test]
fn traced_monitored_sessions_match_untraced_ones_bitwise() {
    // Stop-policy sessions take the monitored path; tracing must not perturb
    // those either.
    let spec = WorkloadSpec::quickstart();
    let sim = Simulation::from_spec(&spec)
        .tolerance(1e-10)
        .stop_policy(StopPolicy::new().iteration_budget(10_000));
    let untraced = sim.clone().run().unwrap();
    let traced = sim.tracer(Tracer::new()).run().unwrap();
    assert_eq!(report_bits(&untraced), report_bits(&traced));
}

/// The fixed 12-job sweep the cross-worker shape test runs: 2 grids × 2
/// backends × 3 seeds.
fn sweep_jobs() -> Vec<JobSpec> {
    SweepBuilder::new(WorkloadSpec::quickstart())
        .grids([Dims::new(8, 8, 4), Dims::new(10, 10, 5)])
        .backends([Backend::host(), Backend::dataflow()])
        .seeds([1, 2, 3])
        .jobs()
}

#[test]
fn span_tree_shape_is_identical_across_worker_counts() {
    let mut shapes = Vec::new();
    for workers in [1usize, 2, 8] {
        let tracer = Tracer::new();
        let jobs = sweep_jobs();
        assert_eq!(jobs.len(), 12, "the sweep must stay a 12-job fixture");
        let report = Engine::new(workers).with_tracer(tracer.clone()).run(jobs);
        assert!(report.all_succeeded());
        shapes.push((workers, tracer.phase_tree().shape_string()));
    }
    let (_, reference) = &shapes[0];
    for (workers, shape) in &shapes {
        assert_eq!(
            shape, reference,
            "span-tree shape diverged at {workers} workers"
        );
    }
    // And the shape is the structure we promised: batch → per-job → children.
    assert!(reference.contains("engine-batch"), "{reference}");
    assert!(reference.contains("queue-wait"), "{reference}");
    assert!(reference.contains("execute"), "{reference}");
    assert!(reference.contains("cg-loop"), "{reference}");
    assert!(reference.contains("materialise-workload"), "{reference}");
}

#[test]
fn histogram_merge_is_associative_on_bucket_counts() {
    let samples: [&[f64]; 3] = [
        &[1e-6, 3e-4, 0.02, 0.02, 1.5],
        &[2e-5, 0.5, 64.0],
        &[1e-9, 0.125, 0.25, 7.0, 1e4],
    ];
    let hist = |xs: &[f64]| {
        let mut h = LogHistogram::new();
        for &x in xs {
            h.record(x);
        }
        h
    };
    let [a, b, c] = samples.map(hist);
    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), bucket by bucket.
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left.bucket_counts(), right.bucket_counts());
    assert_eq!(left.count(), right.count());
    assert_eq!(left.min_seconds().to_bits(), right.min_seconds().to_bits());
    assert_eq!(left.max_seconds().to_bits(), right.max_seconds().to_bits());
}

#[test]
fn transient_runs_emit_one_step_span_per_executed_step() {
    let workload = WorkloadSpec {
        name: "telemetry-transient".into(),
        boundary: mffv::mesh::workload::BoundarySpec::None,
        dims: Dims::new(5, 4, 3),
        tolerance: 1e-14,
        ..WorkloadSpec::quickstart()
    }
    .build();
    let spec = TransientSpec::new(1.0, 0.25, 1e-3)
        .with_wells(WellSet::empty().with(Well::rate("inj", CellIndex::new(2, 2, 1), 1.0)))
        .with_initial_pressure(1.0);
    for kind in [PreconditionerKind::None, PreconditionerKind::Mg] {
        let tracer = Tracer::new();
        let report = Simulation::new(workload.clone())
            .preconditioner(kind)
            .tracer(tracer.clone())
            .transient(&spec)
            .unwrap();
        assert_eq!(report.num_steps(), 4);
        let tree = tracer.phase_tree();
        let root = tree.find("transient @ host-f64").expect("transient root");
        let step = root.find("step").expect("step spans");
        assert_eq!(step.count, 4, "{kind:?}: one step span per executed step");
        assert!(
            step.find("cg-loop").is_some(),
            "{kind:?}: CG spans nest under steps"
        );
        if kind == PreconditionerKind::Mg {
            assert!(
                step.find("mg.vcycle").is_some(),
                "V-cycle spans nest under steps"
            );
        }
    }
}

#[test]
fn batch_reports_carry_the_latency_split_and_worker_stats() {
    let report = Engine::new(2).run(sweep_jobs());
    assert!(report.all_succeeded());
    for outcome in &report.outcomes {
        assert!(outcome.queue_wait_seconds >= 0.0);
        assert!(outcome.exec_seconds > 0.0, "{}", outcome.label);
    }
    assert_eq!(report.worker_stats.len(), 2);
    assert_eq!(report.latency.count() as usize, report.jobs());
    assert!(report.queue_high_water >= 1);
    let busy: f64 = report.busy_seconds();
    let per_worker = report.worker_stats.iter().map(|w| w.busy_seconds);
    assert!((mffv::mesh::seq_sum(per_worker) - busy).abs() <= 1e-9 * busy.max(1.0));
    let text = report.to_string();
    assert!(text.contains("Queue [s]"), "{text}");
    assert!(text.contains("Exec [s]"), "{text}");
    assert!(text.contains("worker 0:"), "{text}");
    assert!(text.contains("high-water"), "{text}");
}
