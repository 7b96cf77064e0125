//! One-Newton-step pressure solve driver.
//!
//! The single-phase incompressible problem of Eq. (1)–(3) is linear, so a single
//! Newton step solves it exactly: evaluate the residual at the initial pressure,
//! solve `A δp = b` with (optionally preconditioned) CG, and update.  It
//! allocates every buffer per solve and runs on any [`LinearOperator`] (the
//! assembled CSR baseline, the GPU reference's kernels, …).  The host
//! backend's pooled pipeline,
//! [`SolveContext::solve`](crate::context::SolveContext::solve), runs the same
//! CG loop but shares none of this module's buffers, cache keying or Newton
//! assembly, so this module is that pipeline's independent reference: on the
//! same planned operator and thread count both give bitwise the same history,
//! pressure and final residual (pinned by `tests/host_reference.rs`).

use crate::cg::ConjugateGradient;
use crate::convergence::ConvergenceHistory;
use crate::monitor::{NullMonitor, SolveMonitor, StopReason};
use mffv_fv::residual::{newton_rhs, residual};
use mffv_fv::{LinearOperator, MatrixFreeOperator, Preconditioner};
use mffv_mesh::{CellField, Scalar, Workload};
use mffv_telemetry::Span;

/// A converged pressure field with its solver statistics.
#[derive(Clone, Debug)]
pub struct PressureSolution<T: Scalar> {
    /// The pressure field after the Newton update.
    pub pressure: CellField<T>,
    /// Convergence history of the CG solve.
    pub history: ConvergenceHistory,
    /// Max-norm of the residual evaluated at the returned pressure (a direct check
    /// of Eq. (3), independent of the CG stopping criterion).
    pub final_residual_max: f64,
    /// `Some(reason)` when a monitor or stop policy ended the CG solve early;
    /// the pressure then carries the partial Newton update reached so far.
    pub stopped: Option<StopReason>,
}

/// Solve a workload's pressure problem with CG on an arbitrary operator,
/// optionally preconditioned (Jacobi, the multigrid V-cycle, …).
///
/// The operator must be the SPD Newton operator consistent with the workload's
/// transmissibilities and Dirichlet set (e.g. [`MatrixFreeOperator::from_workload`],
/// the assembled baseline, the GPU reference or the dataflow fabric operator).
/// `monitor` sees every iteration boundary of the inner CG loop and may stop
/// the solve, in which case the partial pressure update and history are still
/// returned (with [`PressureSolution::stopped`] set).  `span` scopes the
/// solve's telemetry (the `cg-loop` span and the preconditioner's
/// `mg.vcycle` / `mg.level`); pass [`Span::null`] when not tracing.  The
/// recorded history carries the *unpreconditioned* `rᵀr`, so it is directly
/// comparable across preconditioners.
pub fn solve_pressure_with<T: Scalar, Op: LinearOperator<T>>(
    workload: &Workload,
    operator: &Op,
    preconditioner: Option<&dyn Preconditioner<T>>,
    solver: &ConjugateGradient,
    monitor: &mut dyn SolveMonitor,
    span: &Span,
) -> PressureSolution<T> {
    let coeffs = workload.transmissibility().convert::<T>();
    let p0: CellField<T> = workload.initial_pressure();
    let r0 = residual(&p0, &coeffs, workload.dirichlet());
    let b = newton_rhs(&r0, workload.dirichlet());
    let outcome = solver.solve(operator, preconditioner, &b, None, monitor, span);

    let mut pressure = p0;
    pressure.axpy(T::ONE, &outcome.solution);
    let r_final = residual(&pressure, &coeffs, workload.dirichlet());
    PressureSolution {
        pressure,
        history: outcome.history,
        final_residual_max: r_final.max_abs().to_f64(),
        stopped: outcome.stopped,
    }
}

/// Solve a workload's pressure problem with the sequential matrix-free operator and
/// the workload's own tolerance settings.
pub fn solve_pressure<T: Scalar>(workload: &Workload) -> PressureSolution<T> {
    let operator = MatrixFreeOperator::<T>::from_workload(workload);
    let solver = ConjugateGradient::with_tolerance(workload.tolerance(), workload.max_iterations());
    solve_pressure_with(
        workload,
        &operator,
        None,
        &solver,
        &mut NullMonitor,
        &Span::null(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_fv::csr::AssembledOperator;
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_mesh::{CellIndex, Dims};

    #[test]
    fn quickstart_pressure_is_bounded_by_dirichlet_values() {
        let w = WorkloadSpec::quickstart().build();
        let sol = solve_pressure::<f64>(&w);
        assert!(sol.history.converged);
        assert!(sol.final_residual_max < 1e-6);
        // Discrete maximum principle: interior pressures stay within the range of
        // the boundary values.
        for &p in sol.pressure.as_slice() {
            assert!(
                (-1e-9..=1.0 + 1e-9).contains(&p),
                "pressure {p} outside [0, 1]"
            );
        }
        // Monotone decay away from the source towards the producer.
        let d = w.dims();
        let near_source = sol.pressure.at(CellIndex::new(1, 1, 0));
        let near_producer = sol.pressure.at(CellIndex::new(d.nx - 2, d.ny - 2, 0));
        assert!(near_source > near_producer);
    }

    #[test]
    fn matrix_free_and_assembled_drivers_agree() {
        let w = WorkloadSpec::fig5(Dims::new(8, 7, 5)).build();
        let mf = solve_pressure::<f64>(&w);
        let asm_op = AssembledOperator::<f64>::from_workload(&w);
        let solver = ConjugateGradient::with_tolerance(w.tolerance(), w.max_iterations());
        let asm = solve_pressure_with(&w, &asm_op, None, &solver, &mut NullMonitor, &Span::null());
        assert!(mf.history.converged && asm.history.converged);
        let rel = mf.pressure.max_abs_diff(&asm.pressure) / mf.pressure.max_abs();
        assert!(rel < 1e-9, "relative mismatch {rel}");
    }

    #[test]
    fn f32_solution_tracks_f64_solution() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let s64 = solve_pressure::<f64>(&w);
        // The paper's f32 device precision: tolerance loosened to what f32 can reach.
        let op32 = MatrixFreeOperator::<f32>::from_workload(&w);
        let solver = ConjugateGradient::with_tolerance(1e-10, 5000);
        let s32 = solve_pressure_with::<f32, _>(
            &w,
            &op32,
            None,
            &solver,
            &mut NullMonitor,
            &Span::null(),
        );
        assert!(s32.history.converged);
        let diff = s64.pressure.max_abs_diff(&s32.pressure.convert());
        assert!(diff < 1e-4, "f32 vs f64 gap {diff}");
    }

    #[test]
    fn final_residual_tracks_tolerance() {
        let w = WorkloadSpec::quickstart().build();
        let loose = solve_pressure_with::<f64, _>(
            &w,
            &MatrixFreeOperator::<f64>::from_workload(&w),
            None,
            &ConjugateGradient::with_tolerance(1e-4, 10_000),
            &mut NullMonitor,
            &Span::null(),
        );
        let tight = solve_pressure_with::<f64, _>(
            &w,
            &MatrixFreeOperator::<f64>::from_workload(&w),
            None,
            &ConjugateGradient::with_tolerance(1e-18, 10_000),
            &mut NullMonitor,
            &Span::null(),
        );
        assert!(tight.final_residual_max <= loose.final_residual_max);
    }
}
