//! The host backend's one solve path, pinned against an independent
//! reference and for its span shape.
//!
//! 1. **Independent reference** — `HostBackend::solve` runs every solve on a
//!    `SolveContext` (the request's cache, or a fresh one-shot context).  The
//!    allocate-per-solve Newton solve of `mffv_solver::newton` shares none
//!    of its buffers, keying or Krylov entry points, so it is the reference:
//!    history, pressure and `final_residual_max` must match it bitwise for
//!    every preconditioner at both precisions, with and without a cache.
//! 2. **Span shape** — a traced host solve records the same phase tree
//!    whether its context is fresh, cold-cached or warm-cached, and a solve
//!    under a null span records nothing.

use mffv::prelude::*;
use mffv::solver::backend::final_residual_max_f64;
use mffv::solver::newton::solve_pressure_monitored;
use mffv::telemetry::Tracer;

/// Bit patterns of a report's pressure, history and final residual.
type Bits = (Vec<u64>, Vec<u64>, u64);

fn bits(pressure: &CellField<f64>, history: &ConvergenceHistory, residual: f64) -> Bits {
    (
        pressure.as_slice().iter().map(|v| v.to_bits()).collect(),
        history
            .residual_norms_squared
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        residual.to_bits(),
    )
}

fn report_bits(report: &SolveReport) -> Bits {
    bits(&report.pressure, &report.history, report.final_residual_max)
}

/// The `newton.rs` solve at precision `T` on a planned `MatrixFreeOperator`
/// with the config's thread count, in the report's `f64` terms.
fn newton_reference<T: Scalar>(workload: &Workload, config: &SolveConfig) -> Bits {
    let tolerance = config.effective_tolerance(workload);
    let max_iterations = config.effective_max_iterations(workload);
    let threads = config.effective_threads();
    let operator = MatrixFreeOperator::<T>::from_workload(workload).with_threads(threads);
    let pcg = PreconditionedConjugateGradient::with_tolerance(tolerance, max_iterations);
    let solution: PressureSolution<T> = match config.preconditioner {
        PreconditionerKind::None => solve_pressure_monitored(
            workload,
            &operator,
            &ConjugateGradient::with_tolerance(tolerance, max_iterations),
            &mut NullMonitor,
        ),
        PreconditionerKind::Jacobi => solve_pressure_preconditioned(
            workload,
            &operator,
            &JacobiPreconditioner::from_coefficients(operator.coefficients(), workload.dirichlet()),
            &pcg,
            &mut NullMonitor,
            &Span::null(),
        ),
        PreconditionerKind::Mg => solve_pressure_preconditioned(
            workload,
            &operator,
            &MultigridVcycle::<T>::from_workload(workload, threads, MgConfig::default()),
            &pcg,
            &mut NullMonitor,
            &Span::null(),
        ),
    };
    assert!(solution.history.converged);
    let pressure: CellField<f64> = solution.pressure.convert();
    // The report contract evaluates the residual in f64; the f64 solve
    // already did, the f32 one evaluated it in f32.
    let residual = match config.precision {
        Precision::F64 => solution.final_residual_max,
        Precision::F32 => final_residual_max_f64(workload, &pressure),
    };
    bits(&pressure, &solution.history, residual)
}

#[test]
fn host_backend_matches_the_newton_solve_bitwise_with_and_without_a_cache() {
    let workload = WorkloadSpec::quickstart().build();
    for precision in [Precision::F64, Precision::F32] {
        for kind in PreconditionerKind::ALL {
            let config = SolveConfig {
                precision,
                threads: Some(2),
                preconditioner: kind,
                ..SolveConfig::default()
            };
            let expected = match precision {
                Precision::F64 => newton_reference::<f64>(&workload, &config),
                Precision::F32 => newton_reference::<f32>(&workload, &config),
            };
            let backend = HostBackend { precision };
            let fresh = backend
                .solve(SolveRequest::new(&workload, &config))
                .unwrap();
            assert_eq!(
                report_bits(&fresh),
                expected,
                "{precision:?} {kind:?}: one-shot solve diverged from the newton.rs solve"
            );
            let mut cache = SolveContextCache::new();
            for round in ["cold", "warm"] {
                let cached = backend
                    .solve(SolveRequest::new(&workload, &config).with_cache(&mut cache))
                    .unwrap();
                assert_eq!(
                    report_bits(&cached),
                    expected,
                    "{precision:?} {kind:?}: {round} cached solve diverged from the newton.rs solve"
                );
            }
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses), (1, 1), "{precision:?} {kind:?}");
        }
    }
}

#[test]
fn host_span_tree_is_the_same_with_and_without_a_cache() {
    let workload = WorkloadSpec::quickstart().build();
    let config = SolveConfig {
        preconditioner: PreconditionerKind::Mg,
        ..SolveConfig::default()
    };
    let backend = HostBackend::oracle();
    let traced_shape = |cache: Option<&mut SolveContextCache>| {
        let tracer = Tracer::new();
        let root = tracer.span("solve");
        let mut request = SolveRequest::new(&workload, &config).with_span(&root);
        request.cache = cache;
        backend.solve(request).unwrap();
        root.finish();
        tracer.phase_tree()
    };

    let fresh = traced_shape(None);
    let mut cache = SolveContextCache::new();
    let cold = traced_shape(Some(&mut cache));
    let warm = traced_shape(Some(&mut cache));
    assert_eq!(cold.shape_string(), fresh.shape_string(), "cold cache");
    assert_eq!(warm.shape_string(), fresh.shape_string(), "warm cache");
    let solve = fresh.find("solve").expect("root span");
    for phase in ["build-operator", "mg.build", "cg-loop"] {
        assert!(solve.find(phase).is_some(), "no {phase} span");
    }
    assert!(solve
        .find("cg-loop")
        .and_then(|cg| cg.find("iters"))
        .is_some());

    // Under a null span the solve records nothing, even with a live tracer
    // in the process, and its report is bitwise the traced one's.
    let tracer = Tracer::new();
    let root = tracer.span("solve");
    let traced = backend
        .solve(SolveRequest::new(&workload, &config).with_span(&root))
        .unwrap();
    root.finish();
    let recorded = tracer.records().len();
    let untraced = backend
        .solve(SolveRequest::new(&workload, &config).with_span(&Span::null()))
        .unwrap();
    assert_eq!(tracer.records().len(), recorded, "a null span recorded");
    assert_eq!(report_bits(&untraced), report_bits(&traced));
}
