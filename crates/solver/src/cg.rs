//! The conjugate-gradient method of the paper's Algorithm 1.
//!
//! The loop body is the textbook CG recurrence the paper lists (with its `x` being
//! the search direction and `y` the iterate; here they are called `direction` and
//! `solution`):
//!
//! ```text
//! α_k  = rᵀr / dᵀ(A d)
//! x_{k+1} = x_k + α_k d_k
//! r_{k+1} = r_k − α_k (A d_k)
//! exit if rᵀr < ε
//! β_k  = r_{k+1}ᵀ r_{k+1} / r_kᵀ r_k
//! d_{k+1} = r_{k+1} + β_k d_k
//! ```
//!
//! One operator application and two dot products per iteration — exactly the
//! structure the dataflow implementation reproduces with Algorithm 2 for `A d` and
//! the whole-fabric all-reduce for the dot products.
//!
//! The same loop runs preconditioned CG when given a [`Preconditioner`] `M⁻¹`
//! (Jacobi, the multigrid V-cycle): `z = M⁻¹ r` replaces `r` in the direction
//! update and `ρ = rᵀz` replaces `rᵀr` in `α` and `β`, at the cost of one
//! preconditioner application and one extra dot product per iteration.  The
//! convergence test always uses the *unpreconditioned* `rᵀr`, so histories
//! stay comparable across preconditioners.  Without a preconditioner the loop
//! does no extra work: `ρ` is the `rᵀr` the update kernel already computed.
//!
//! The host loop executes those passes through the two **fused kernels** of
//! [`LinearOperator`]: [`apply_dot`](LinearOperator::apply_dot) computes `A d`
//! and `dᵀ(A d)` in one sweep, and [`cg_update`](LinearOperator::cg_update)
//! performs both axpy updates and the new `rᵀr` in a second sweep.  Every
//! reduction uses the deterministic slab order of [`mffv_fv::plan`], so the
//! history is bitwise identical whether the operator runs the fused planned
//! kernels (on any thread count) or the unfused defaults.
//!
//! Note on reduction order: on grids larger than
//! [`SLAB_CELLS`](mffv_fv::SLAB_CELLS) cells the slab-ordered reductions
//! associate differently from the single global FMA chain earlier releases
//! used, so recorded residual trajectories are not bit-comparable across that
//! boundary (they are within solver precision of each other).  This is the
//! deliberate trade that makes histories *thread-count independent*: a global
//! FMA chain cannot be split across threads without changing its value.
//! Grids of at most `SLAB_CELLS` cells have a single slab and are bitwise
//! unchanged.

use crate::context::CgScratch;
use crate::convergence::{ConvergenceHistory, StoppingCriterion};
use crate::monitor::{Flow, SolveEvent, SolveMonitor, StopReason};
use crate::trace::TraceMonitor;
use mffv_fv::plan::{det_dot, det_norm_squared};
use mffv_fv::{LinearOperator, Preconditioner};
use mffv_mesh::{CellField, Scalar};
use mffv_telemetry::Span;

/// Result of a CG solve.
#[derive(Clone, Debug)]
pub struct SolveOutcome<T: Scalar> {
    /// The computed solution.
    pub solution: CellField<T>,
    /// Convergence record.
    pub history: ConvergenceHistory,
    /// `Some(reason)` when a [`SolveMonitor`] or stop policy ended the solve
    /// early; `None` when it converged or exhausted its own iteration cap.
    pub stopped: Option<StopReason>,
}

/// Conjugate-gradient solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct ConjugateGradient {
    /// Stopping criterion (tolerance on the unpreconditioned `rᵀr` and
    /// iteration cap).
    pub criterion: StoppingCriterion,
}

impl ConjugateGradient {
    /// A solver with an explicit criterion.
    pub fn new(criterion: StoppingCriterion) -> Self {
        Self { criterion }
    }

    /// The paper's evaluation setting.
    pub fn paper() -> Self {
        Self {
            criterion: StoppingCriterion::paper(),
        }
    }

    /// A solver with the given tolerance on `rᵀr` and iteration cap.
    pub fn with_tolerance(tolerance: f64, max_iterations: usize) -> Self {
        Self {
            criterion: StoppingCriterion::new(tolerance, max_iterations),
        }
    }

    /// [`solve_into`](Self::solve_into) on freshly allocated scratch,
    /// returning the solution together with the convergence history.
    pub fn solve<T: Scalar, Op: LinearOperator<T>>(
        &self,
        operator: &Op,
        preconditioner: Option<&dyn Preconditioner<T>>,
        rhs: &CellField<T>,
        x0: Option<&CellField<T>>,
        monitor: &mut dyn SolveMonitor,
        span: &Span,
    ) -> SolveOutcome<T> {
        let mut scratch = CgScratch::new(operator.dims());
        let stopped = self.solve_into(
            operator,
            preconditioner,
            rhs,
            x0,
            monitor,
            span,
            &mut scratch,
        );
        SolveOutcome {
            solution: scratch.solution,
            history: scratch.history,
            stopped,
        }
    }

    /// Solve `A x = b` into a caller-owned [`CgScratch`], optionally
    /// preconditioned by `M⁻¹` — the zero-allocation form of the pooled
    /// serving path.
    ///
    /// `A` must be symmetric positive definite over the non-Dirichlet degrees
    /// of freedom (see `mffv-fv`'s sign convention), and so must `M⁻¹`.
    /// `x0 = None` starts from the zero vector (the Newton-step convention)
    /// without needing a zeros field.  Every scratch buffer is fully
    /// overwritten before it is read, so the recorded history and the
    /// solution left in `scratch` are bitwise identical to a fresh-allocation
    /// solve.
    ///
    /// `monitor` receives a [`SolveEvent`] at every iteration boundary — the
    /// `rr` payloads are bitwise identical to the entries recorded in the
    /// history — and may end the solve early by returning [`Flow::Stop`]; the
    /// partial solution and history stay in `scratch` and the reason is
    /// returned.  The events reach `monitor` through a [`TraceMonitor`]
    /// under `span`, which opens the `cg-loop` span, and every
    /// preconditioner application runs under `span`, so structured
    /// preconditioners (the multigrid V-cycle) emit their `mg.vcycle` /
    /// `mg.level` spans.  Under a null span both record nothing.  Neither
    /// monitoring nor tracing touches the arithmetic.  On a numerical
    /// breakdown (non-positive or non-finite `dᵀ(A d)`) the solve ends with
    /// a terminal [`SolveEvent::Stopped`]`(`[`StopReason::Breakdown`]`)` and
    /// returns that reason.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_into<T: Scalar, Op: LinearOperator<T>>(
        &self,
        operator: &Op,
        preconditioner: Option<&dyn Preconditioner<T>>,
        rhs: &CellField<T>,
        x0: Option<&CellField<T>>,
        monitor: &mut dyn SolveMonitor,
        span: &Span,
        scratch: &mut CgScratch<T>,
    ) -> Option<StopReason> {
        let monitor = &mut TraceMonitor::new(span, monitor);
        let dims = operator.dims();
        assert_eq!(rhs.dims(), dims, "rhs dimension mismatch");
        assert_eq!(scratch.dims(), dims, "scratch dimension mismatch");
        match x0 {
            Some(x0) => {
                assert_eq!(x0.dims(), dims, "initial guess dimension mismatch");
                scratch.solution.copy_from(x0);
            }
            None => scratch.solution.fill(T::ZERO),
        }
        // r_0 = b − A x_0 (the `ad` buffer holds A x_0 for a moment; `apply`
        // overwrites it fully, so its previous contents never matter).
        scratch.residual.copy_from(rhs);
        operator.apply(&scratch.solution, &mut scratch.ad);
        scratch.residual.axpy(-T::ONE, &scratch.ad);
        let rr0 = det_norm_squared(&scratch.residual).to_f64();
        // d_0 = z_0 = M⁻¹ r_0 and ρ = r_0ᵀ z_0 (z_0 = r_0 without M⁻¹).
        let mut rho = match preconditioner {
            None => {
                scratch.direction.copy_from(&scratch.residual);
                rr0
            }
            Some(pc) => {
                assert_eq!(pc.dims(), dims, "preconditioner dimension mismatch");
                pc.apply_traced(&scratch.residual, &mut scratch.z, span);
                scratch.direction.copy_from(&scratch.z);
                det_dot(&scratch.residual, &scratch.z).to_f64()
            }
        };

        scratch.history.reset_from(rr0);
        if self.criterion.is_converged(rr0) {
            scratch.history.converged = true;
            monitor.on_event(&SolveEvent::Started { initial_rr: rr0 });
            monitor.on_event(&SolveEvent::Converged {
                iterations: 0,
                rr: rr0,
            });
            return None;
        }
        if let Flow::Stop(reason) = monitor.on_event(&SolveEvent::Started { initial_rr: rr0 }) {
            monitor.on_event(&SolveEvent::Stopped(reason));
            return Some(reason);
        }

        let mut stopped = None;
        for _ in 0..self.criterion.max_iterations {
            // Fused kernel 1: A d and dᵀ(A d) in one pass.
            let d_ad = operator
                .apply_dot(&scratch.direction, &mut scratch.ad)
                .to_f64();
            if d_ad <= 0.0 || !d_ad.is_finite() {
                // Operator is not positive definite along this direction (or
                // numerics broke down); stop rather than produce garbage, and
                // say so — streams must always end with a terminal event.
                monitor.on_event(&SolveEvent::Stopped(StopReason::Breakdown));
                stopped = Some(StopReason::Breakdown);
                break;
            }
            let alpha = T::from_f64(rho / d_ad);
            // Fused kernel 2: x += α d, r −= α (A d), and the new rᵀr.
            let rr = operator
                .cg_update(
                    alpha,
                    &scratch.direction,
                    &scratch.ad,
                    &mut scratch.solution,
                    &mut scratch.residual,
                )
                .to_f64();
            scratch.history.record(rr);
            if self.criterion.is_converged(rr) {
                scratch.history.converged = true;
                monitor.on_event(&SolveEvent::Iteration {
                    k: scratch.history.iterations,
                    rr,
                });
                monitor.on_event(&SolveEvent::Converged {
                    iterations: scratch.history.iterations,
                    rr,
                });
                break;
            }
            if let Flow::Stop(reason) = monitor.on_event(&SolveEvent::Iteration {
                k: scratch.history.iterations,
                rr,
            }) {
                monitor.on_event(&SolveEvent::Stopped(reason));
                stopped = Some(reason);
                break;
            }
            // d = z + β d with z = M⁻¹ r, β = ρ_new / ρ.
            let (rho_new, z) = match preconditioner {
                None => (rr, &scratch.residual),
                Some(pc) => {
                    pc.apply_traced(&scratch.residual, &mut scratch.z, span);
                    (det_dot(&scratch.residual, &scratch.z).to_f64(), &scratch.z)
                }
            };
            scratch.direction.xpby(z, T::from_f64(rho_new / rho));
            rho = rho_new;
        }
        stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;
    use crate::pcg::JacobiPreconditioner;
    use mffv_fv::csr::AssembledOperator;
    use mffv_fv::matrix_free::MatrixFreeOperator;
    use mffv_fv::operator::ScaledIdentity;
    use mffv_fv::residual::{newton_rhs, residual};
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_mesh::{Dims, DirichletSet, Transmissibilities};

    /// An unmonitored, untraced, unpreconditioned solve from zero.
    fn plain<T: Scalar, Op: LinearOperator<T>>(
        solver: ConjugateGradient,
        op: &Op,
        b: &CellField<T>,
    ) -> SolveOutcome<T> {
        solver.solve(op, None, b, None, &mut NullMonitor, &Span::null())
    }

    #[test]
    fn identity_system_converges_in_one_iteration() {
        let dims = Dims::new(4, 4, 2);
        let op = ScaledIdentity::new(dims, 2.0f64);
        let b = CellField::from_fn(dims, |c| (c.x + c.y) as f64);
        let out = plain(ConjugateGradient::with_tolerance(1e-24, 10), &op, &b);
        assert!(out.history.converged);
        assert!(out.history.iterations <= 1);
        for i in 0..b.len() {
            assert!((out.solution.get(i) - b.get(i) / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_with_dirichlet_converges_to_linear_profile() {
        // Fixed pressures on the X faces, homogeneous coefficients: the solution of
        // the full Newton system is the linear pressure drop.
        let dims = Dims::new(9, 4, 3);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let dirichlet = DirichletSet::x_faces(dims, 1.0, 0.0);
        let op = MatrixFreeOperator::new(coeffs.clone(), &dirichlet);

        let mut p0 = CellField::constant(dims, 0.5);
        dirichlet.impose(&mut p0);
        let r = residual(&p0, &coeffs, &dirichlet);
        let b = newton_rhs(&r, &dirichlet);
        let out = plain(ConjugateGradient::with_tolerance(1e-20, 500), &op, &b);
        assert!(
            out.history.converged,
            "CG did not converge: {:?}",
            out.history
        );

        let mut p = p0.clone();
        p.axpy(1.0, &out.solution);
        let exact = CellField::from_fn(dims, |c| 1.0 - c.x as f64 / (dims.nx - 1) as f64);
        assert!(
            p.max_abs_diff(&exact) < 1e-8,
            "max error {}",
            p.max_abs_diff(&exact)
        );
    }

    #[test]
    fn matrix_free_and_assembled_produce_identical_iterates() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let mf = MatrixFreeOperator::<f64>::from_workload(&w);
        let asm = AssembledOperator::<f64>::from_workload(&w);
        let p0: CellField<f64> = w.initial_pressure();
        let r = residual(&p0, w.transmissibility(), w.dirichlet());
        let b = newton_rhs(&r, w.dirichlet());
        let solver = ConjugateGradient::with_tolerance(1e-18, 500);
        let out_mf = plain(solver, &mf, &b);
        let out_asm = plain(solver, &asm, &b);
        assert_eq!(out_mf.history.iterations, out_asm.history.iterations);
        assert!(out_mf.solution.max_abs_diff(&out_asm.solution) < 1e-10);
    }

    #[test]
    fn respects_iteration_cap() {
        let dims = Dims::new(12, 12, 4);
        let coeffs = Transmissibilities::<f64>::uniform(dims, 1.0);
        let dirichlet = DirichletSet::source_producer(dims, 1.0, 0.0);
        let op = MatrixFreeOperator::new(coeffs, &dirichlet);
        let b = CellField::constant(dims, 1.0);
        let out = plain(ConjugateGradient::with_tolerance(1e-30, 3), &op, &b);
        assert!(!out.history.converged);
        assert_eq!(out.history.iterations, 3);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let dims = Dims::new(4, 4, 4);
        let op = ScaledIdentity::new(dims, 1.0f64);
        let out = plain(ConjugateGradient::paper(), &op, &CellField::zeros(dims));
        assert!(out.history.converged);
        assert_eq!(out.history.iterations, 0);
        assert_eq!(out.solution.max_abs(), 0.0);
    }

    #[test]
    fn residual_history_is_broadly_decreasing() {
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let p0: CellField<f64> = w.initial_pressure();
        let r = residual(&p0, w.transmissibility(), w.dirichlet());
        let b = newton_rhs(&r, w.dirichlet());
        let out = plain(ConjugateGradient::with_tolerance(1e-16, 2000), &op, &b);
        assert!(out.history.converged);
        assert!(out.history.is_broadly_decreasing(50.0));
    }

    #[test]
    fn monitored_solve_is_bitwise_identical_and_streams_the_history() {
        use crate::monitor::{RecordingMonitor, SolveEvent};
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let p0: CellField<f64> = w.initial_pressure();
        let r = residual(&p0, w.transmissibility(), w.dirichlet());
        let b = newton_rhs(&r, w.dirichlet());
        let solver = ConjugateGradient::with_tolerance(1e-12, 2000);
        let x0 = CellField::zeros(w.dims());

        let plain = plain(solver, &op, &b);
        let mut recorder = RecordingMonitor::new();
        let monitored = solver.solve(&op, None, &b, Some(&x0), &mut recorder, &Span::null());

        assert_eq!(plain.history, monitored.history);
        assert_eq!(monitored.stopped, None);
        for i in 0..plain.solution.len() {
            assert_eq!(
                plain.solution.get(i).to_bits(),
                monitored.solution.get(i).to_bits()
            );
        }
        let streamed: Vec<u64> = recorder
            .iteration_rrs()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let recorded: Vec<u64> = monitored.history.residual_norms_squared[1..]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(streamed, recorded);
        assert!(matches!(
            recorder.terminal(),
            Some(SolveEvent::Converged { .. })
        ));
    }

    #[test]
    fn policy_session_stops_the_solve_with_partial_history() {
        use crate::monitor::{StopPolicy, StopReason};
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let b = CellField::constant(w.dims(), 1.0);
        let solver = ConjugateGradient::with_tolerance(1e-20, 2000);
        let mut session = StopPolicy::new().iteration_budget(5).session();
        let out = solver.solve(&op, None, &b, None, &mut session, &Span::null());
        assert_eq!(out.stopped, Some(StopReason::IterationBudget));
        assert!(!out.history.converged);
        assert_eq!(out.history.iterations, 5);
        assert_eq!(out.history.residual_norms_squared.len(), 6);
    }

    #[test]
    fn breakdown_on_indefinite_operator_emits_terminal_stopped_event() {
        use crate::monitor::{RecordingMonitor, SolveEvent, StopReason};
        // A negative-definite operator makes dᵀ(A d) < 0 on the very first
        // direction: the solve must stop, report Breakdown, and terminate the
        // event stream with a Stopped event (it used to end silently) — with
        // and without a preconditioner.
        let dims = Dims::new(4, 4, 2);
        let op = ScaledIdentity::new(dims, -1.0f64);
        let jacobi = JacobiPreconditioner::from_diagonal(&CellField::constant(dims, 1.0));
        let b = CellField::constant(dims, 1.0);
        let solver = ConjugateGradient::with_tolerance(1e-20, 50);
        for pc in [None, Some(&jacobi as &dyn Preconditioner<f64>)] {
            let mut recorder = RecordingMonitor::new();
            let out = solver.solve(&op, pc, &b, None, &mut recorder, &Span::null());
            assert_eq!(out.stopped, Some(StopReason::Breakdown));
            assert!(!out.history.converged);
            assert_eq!(out.history.iterations, 0);
            assert!(matches!(
                recorder.terminal(),
                Some(SolveEvent::Stopped(StopReason::Breakdown))
            ));
        }
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical_across_solves() {
        let w = WorkloadSpec::quickstart().build();
        let op = MatrixFreeOperator::<f64>::from_workload(&w);
        let p0: CellField<f64> = w.initial_pressure();
        let r = residual(&p0, w.transmissibility(), w.dirichlet());
        let b = newton_rhs(&r, w.dirichlet());
        let solver = ConjugateGradient::with_tolerance(1e-12, 2000);
        let fresh = plain(solver, &op, &b);

        // One scratch, three solves: the second and third start from dirty
        // buffers and a used history, and must still reproduce every bit.
        let mut scratch = CgScratch::new(w.dims());
        for round in 0..3 {
            let stopped = solver.solve_into(
                &op,
                None,
                &b,
                None,
                &mut NullMonitor,
                &Span::null(),
                &mut scratch,
            );
            assert_eq!(stopped, None);
            assert_eq!(
                scratch.history(),
                &fresh.history,
                "round {round}: history must be bitwise identical"
            );
            for i in 0..fresh.solution.len() {
                assert_eq!(
                    scratch.solution().get(i).to_bits(),
                    fresh.solution.get(i).to_bits(),
                    "round {round}, cell {i}"
                );
            }
        }
    }

    #[test]
    fn f32_solve_reaches_single_precision_accuracy() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let op = MatrixFreeOperator::<f32>::from_workload(&w);
        let p0: CellField<f32> = w.initial_pressure();
        let r = residual(&p0, &w.transmissibility().convert(), w.dirichlet());
        let b = newton_rhs(&r, w.dirichlet());
        let out = plain(ConjugateGradient::with_tolerance(1e-10, 2000), &op, &b);
        assert!(out.history.converged);
        assert!(out.solution.all_finite());
    }
}
