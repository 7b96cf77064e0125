//! Pooled solve contexts: the host's one operator/preconditioner cache.
//!
//! A service worker solving the same problem family job after job should not
//! rebuild the stencil plan, the preconditioner, or the five CG work vectors
//! on every request, and a transient run should not rebuild them on every
//! time step.  [`SolveContext`] keeps all of that warm, keyed by
//! [`ContextKey`]: identical dims + Dirichlet topology + transmissibility
//! values + diagonal shift ⇒ reuse; a change in the diagonal shift alone ⇒
//! swap the shift in place; anything else ⇒ rebuild.  A warm context is
//! **bitwise identical** to a fresh one — every reused buffer is fully
//! overwritten before it is read (see [`CgScratch`]) — so turning the cache on
//! or off never changes a residual history.
//!
//! [`SolveContext::solve`] is the host's one steady solve pipeline:
//! [`HostBackend`](crate::backend::HostBackend) runs every solve through it,
//! on a cached context or on a fresh one-shot context that skips the key
//! fingerprints.  The allocate-per-solve Newton solve of [`crate::newton`] is
//! its independent reference.  [`SolveContext::step`] is the transient
//! counterpart: [`run_transient`](crate::transient::run_transient) steps a
//! whole run on one context, and both share one Krylov call.
//!
//! [`SolveContextCache`] bundles one context per host precision plus a
//! spec-keyed [`Workload`] cache; the engine gives each worker one and hands
//! it to the backend in [`SolveRequest::cache`](crate::backend::SolveRequest::cache).

use crate::backend::{PreconditionerKind, SolveConfig};
use crate::cg::ConjugateGradient;
use crate::convergence::{ConvergenceHistory, StoppingCriterion};
use crate::monitor::{SolveMonitor, StopReason};
use crate::pcg::JacobiPreconditioner;
use crate::transient::{StepOutcome, StepRequest};
use mffv_fv::residual::{newton_rhs, residual};
use mffv_fv::{
    newton_rhs_into, residual_into, MatrixFreeOperator, MgConfig, MultigridVcycle, Preconditioner,
};
use mffv_mesh::{CellField, Dims, Fnv1a, Scalar, Workload, WorkloadSpec};
use mffv_telemetry::Span;

/// Reusable work vectors of one Krylov solve.
///
/// Holds exactly the five fields the CG loop historically allocated per
/// solve (`solution`, `residual`, `direction`, `ad`, `z`) plus the
/// [`ConvergenceHistory`] entry buffer.  Every field is fully overwritten by
/// the solver before it is read — `copy_from` replaces `clone()`, a full
/// `apply` overwrite replaces `apply_new`, [`ConvergenceHistory::reset_from`]
/// replaces `starting_from` — so reuse is bitwise invisible.
#[derive(Clone, Debug)]
pub struct CgScratch<T: Scalar> {
    pub(crate) solution: CellField<T>,
    pub(crate) residual: CellField<T>,
    pub(crate) direction: CellField<T>,
    /// The `A·d` product; also reused for the initial `A·x₀`.
    pub(crate) ad: CellField<T>,
    /// The preconditioned residual (only touched under a preconditioner).
    pub(crate) z: CellField<T>,
    pub(crate) history: ConvergenceHistory,
}

impl<T: Scalar> CgScratch<T> {
    /// Allocate scratch for `dims`-shaped solves.
    pub fn new(dims: Dims) -> Self {
        Self {
            solution: CellField::zeros(dims),
            residual: CellField::zeros(dims),
            direction: CellField::zeros(dims),
            ad: CellField::zeros(dims),
            z: CellField::zeros(dims),
            history: ConvergenceHistory::default(),
        }
    }

    /// The grid shape this scratch serves.
    pub fn dims(&self) -> Dims {
        self.solution.dims()
    }

    /// Make the scratch fit `dims`, reallocating only on a shape change.
    /// Returns `true` when a reallocation happened (an allocation-counter
    /// signal for the steady-state metrics).
    pub fn ensure(&mut self, dims: Dims) -> bool {
        if self.dims() == dims {
            return false;
        }
        *self = Self::new(dims);
        true
    }

    /// The solution vector of the last solve run on this scratch.
    pub fn solution(&self) -> &CellField<T> {
        &self.solution
    }

    /// The convergence history of the last solve run on this scratch.
    pub fn history(&self) -> &ConvergenceHistory {
        &self.history
    }
}

/// Reusable buffers of the outer Newton step (one linear step for the paper's
/// linear problem): initial pressure, residual, and CG right-hand side.
#[derive(Clone, Debug)]
struct NewtonScratch<T: Scalar> {
    pressure: CellField<T>,
    residual: CellField<T>,
    rhs: CellField<T>,
}

impl<T: Scalar> NewtonScratch<T> {
    fn new(dims: Dims) -> Self {
        Self {
            pressure: CellField::zeros(dims),
            residual: CellField::zeros(dims),
            rhs: CellField::zeros(dims),
        }
    }
}

/// The reuse key of a cached operator + preconditioner pair.
///
/// Two solves may share a context exactly when every field matches: the grid
/// shape, the apply thread count (threads change work *partitioning*, and the
/// planned operator bakes its slab schedule in), the preconditioner kind, the
/// Dirichlet set (indices *and* values), the transmissibility table, and the
/// diagonal shift.  Value equality is tracked by FNV-1a fingerprints over the
/// exact bit patterns ([`mffv_mesh::Fnv1a`]) — a collision could only alias
/// two different workloads onto one operator, and 64-bit FNV over
/// deterministic inputs makes that vanishingly unlikely while keeping the key
/// `Copy` and comparison O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContextKey {
    /// Grid shape.
    pub dims: Dims,
    /// Apply thread count baked into the planned operator.
    pub threads: usize,
    /// Which preconditioner the cached pair was built for.
    pub kind: PreconditionerKind,
    /// Fingerprint of the Dirichlet cells (sorted indices + values).
    pub dirichlet_fp: u64,
    /// Fingerprint of the transmissibility table (all face coefficients).
    pub transmissibility_fp: u64,
    /// Fingerprint of the diagonal shift, when one is applied (transient
    /// steps); `None` for steady solves.
    pub shift_fp: Option<u64>,
}

impl ContextKey {
    /// Compute the key for `workload` under the given solve knobs.
    pub fn of(
        workload: &Workload,
        threads: usize,
        kind: PreconditionerKind,
        shift: Option<&CellField<f64>>,
    ) -> Self {
        Self {
            dims: workload.dims(),
            threads,
            kind,
            dirichlet_fp: workload.dirichlet().fingerprint(),
            transmissibility_fp: workload.transmissibility().fingerprint(),
            shift_fp: shift.map(|s| {
                let mut hash = Fnv1a::new();
                for &v in s.as_slice() {
                    hash.write_f64(v);
                }
                hash.finish()
            }),
        }
    }
}

/// The preconditioner half of a cached context.
enum ContextPrecond<T: Scalar> {
    None,
    Jacobi(JacobiPreconditioner<T>),
    Mg(MultigridVcycle<T>),
}

impl<T: Scalar> ContextPrecond<T> {
    fn as_dyn(&self) -> Option<&dyn Preconditioner<T>> {
        match self {
            ContextPrecond::None => None,
            ContextPrecond::Jacobi(pc) => Some(pc),
            ContextPrecond::Mg(pc) => Some(pc),
        }
    }
}

/// The stopping criterion `config` sets for `workload`.
fn criterion(config: &SolveConfig, workload: &Workload) -> StoppingCriterion {
    StoppingCriterion::new(
        config.effective_tolerance(workload),
        config.effective_max_iterations(workload),
    )
}

/// Jacobi on the shifted operator: the raw coefficient row sums plus the
/// shift, and 1 on Dirichlet rows.  Boundary faces carry zero coefficients,
/// so the raw row sum is exactly the operator diagonal.
fn shifted_jacobi<T: Scalar>(
    operator: &MatrixFreeOperator<T>,
    shift: &CellField<f64>,
) -> JacobiPreconditioner<T> {
    let dims = shift.dims();
    let coeffs = operator.coefficients();
    let diagonal = CellField::from_fn(dims, |c| {
        let k = dims.linear(c);
        if operator.is_dirichlet(k) {
            T::ONE
        } else {
            coeffs.row_sum(k) + T::from_f64(shift.get(k))
        }
    });
    JacobiPreconditioner::from_diagonal(&diagonal)
}

/// A cached operator + preconditioner pair and the key it was built for
/// (`None` on a one-shot context, which is never compared).
struct ContextState<T: Scalar> {
    key: Option<ContextKey>,
    operator: MatrixFreeOperator<T>,
    precond: ContextPrecond<T>,
}

impl<T: Scalar> ContextState<T> {
    /// The host's one Krylov call: CG under the cached preconditioner (if
    /// any), traced under `span`.  `x0 = None` starts from zero.
    fn krylov(
        &self,
        criterion: StoppingCriterion,
        rhs: &CellField<T>,
        x0: Option<&CellField<T>>,
        monitor: &mut dyn SolveMonitor,
        span: &Span,
        scratch: &mut CgScratch<T>,
    ) -> Option<StopReason> {
        ConjugateGradient::new(criterion).solve_into(
            &self.operator,
            self.precond.as_dyn(),
            rhs,
            x0,
            monitor,
            span,
            scratch,
        )
    }
}

/// Cache-behaviour counters of a [`SolveContext`] (and, summed, of a
/// [`SolveContextCache`]).  All monotone; the engine surfaces them in
/// `MetricsRegistry` as `engine.context.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Solves that reused the cached operator + preconditioner.
    pub hits: u64,
    /// Solves that had to (re)build them.
    pub misses: u64,
    /// Times the CG scratch arena had to reallocate for a new shape.
    pub scratch_reallocs: u64,
}

impl ContextStats {
    /// Component-wise sum.
    pub fn merged(self, other: ContextStats) -> ContextStats {
        ContextStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            scratch_reallocs: self.scratch_reallocs + other.scratch_reallocs,
        }
    }
}

/// A warm, reusable solve context at one precision, for steady solves
/// ([`solve`](Self::solve)) and transient steps ([`step`](Self::step)).
///
/// Owns the keyed operator/preconditioner cache, the [`CgScratch`] arena and
/// the Newton buffers.  After the first solve of a given shape ("warmup"),
/// [`solve`](Self::solve) performs **zero heap allocations** for the
/// `None`/`Jacobi` preconditioner kinds (the MG V-cycle's coarse solve still
/// allocates internally), and its pressure, history and final residual are
/// bitwise identical to a cold context's and to the allocate-per-solve
/// [`crate::newton`] solve — pinned by `tests/alloc_regression.rs`,
/// `tests/host_reference.rs` and the cache equivalence tests.
#[derive(Default)]
pub struct SolveContext<T: Scalar> {
    state: Option<ContextState<T>>,
    scratch: Option<CgScratch<T>>,
    newton: Option<NewtonScratch<T>>,
    stats: ContextStats,
    /// Set on a context built for a single solve: it is never compared, so
    /// [`prepare`](Self::prepare) skips the [`ContextKey`] fingerprints.
    one_shot: bool,
}

impl<T: Scalar> SolveContext<T> {
    /// A cold context: first solve builds everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context for exactly one solve.  It never compares keys, so it
    /// skips the fingerprints (O(cells) per solve) that only pay off on
    /// reuse; its results are bitwise identical to a [`new`](Self::new) one.
    pub(crate) fn one_shot() -> Self {
        Self {
            one_shot: true,
            ..Self::default()
        }
    }

    /// Cache-behaviour counters accumulated by this context.
    pub fn stats(&self) -> ContextStats {
        self.stats
    }

    /// Ensure the cached operator + preconditioner match `workload` under the
    /// given knobs.  Returns `true` on a cache hit.  When the cached key
    /// differs only in its diagonal shift and `shift` is `Some` (the next
    /// step of a transient run), the shift is swapped in place — on the
    /// operator, into a rebuilt Jacobi diagonal, or down the multigrid
    /// hierarchy — without rebuilding the stencil plan or the hierarchy;
    /// this counts as a miss.  Any other key mismatch rebuilds.
    ///
    /// Build-phase spans (`build-operator`, `mg.build`) are recorded under
    /// `span` on hits and misses alike — on a hit they close immediately,
    /// so span-tree *shape* stays independent of cache warmth (job-to-worker
    /// assignment varies with worker count, and shape is pinned across
    /// worker counts by `tests/telemetry.rs`).  The cache counters, not span
    /// presence, are the reuse observable; a hit costs the key fingerprints
    /// and a key compare.  A one-shot context always rebuilds and computes
    /// no key.
    pub fn prepare(
        &mut self,
        workload: &Workload,
        threads: usize,
        kind: PreconditionerKind,
        shift: Option<&CellField<f64>>,
        span: &Span,
    ) -> bool {
        let key = (!self.one_shot).then(|| ContextKey::of(workload, threads, kind, shift));
        if let (Some(state), Some(key)) = (&mut self.state, key) {
            if state.key == Some(key) {
                self.stats.hits += 1;
                // Emit the build-phase skeleton even when nothing rebuilds:
                // a null span makes these free, and a recording span keeps
                // the tree shape identical whether this worker's cache was
                // warm or cold.
                span.child("build-operator").finish();
                if matches!(kind, PreconditionerKind::Mg) {
                    span.child("mg.build").finish();
                }
                return true;
            }
            let only_shift_differs = state.key.map(|cached| ContextKey {
                shift_fp: key.shift_fp,
                ..cached
            }) == Some(key);
            if let (true, Some(diag)) = (only_shift_differs, shift) {
                self.stats.misses += 1;
                let build = span.child("build-operator");
                state.operator.set_diagonal_shift(diag);
                build.finish();
                match &mut state.precond {
                    ContextPrecond::None => {}
                    ContextPrecond::Jacobi(pc) => *pc = shifted_jacobi(&state.operator, diag),
                    ContextPrecond::Mg(mg) => {
                        let mg_build = span.child("mg.build");
                        mg.set_diagonal_shift(diag);
                        mg_build.finish();
                    }
                }
                state.key = Some(key);
                return false;
            }
        }
        self.stats.misses += 1;
        let build = span.child("build-operator");
        let mut operator = MatrixFreeOperator::<T>::from_workload(workload).with_threads(threads);
        if let Some(diag) = shift {
            operator.set_diagonal_shift(diag);
        }
        build.finish();
        let precond = match kind {
            PreconditionerKind::None => ContextPrecond::None,
            PreconditionerKind::Jacobi => ContextPrecond::Jacobi(match shift {
                None => JacobiPreconditioner::from_coefficients(
                    operator.coefficients(),
                    workload.dirichlet(),
                ),
                Some(diag) => shifted_jacobi(&operator, diag),
            }),
            PreconditionerKind::Mg => {
                let mg_build = span.child("mg.build");
                let mut mg =
                    MultigridVcycle::<T>::from_workload(workload, threads, MgConfig::default());
                if let Some(diag) = shift {
                    mg.set_diagonal_shift(diag);
                }
                mg_build.finish();
                ContextPrecond::Mg(mg)
            }
        };
        self.state = Some(ContextState {
            key,
            operator,
            precond,
        });
        false
    }

    /// Run one steady pressure solve on the context: one Newton step whose
    /// Krylov loop (CG, preconditioned when so configured) reports to
    /// `monitor`, traced under `span`.  Results stay in the context's own
    /// buffers — read them through
    /// [`pressure`](Self::pressure), [`history`](Self::history) and
    /// [`final_residual_max`](Self::final_residual_max).
    pub fn solve(
        &mut self,
        workload: &Workload,
        config: &SolveConfig,
        monitor: &mut dyn SolveMonitor,
        span: &Span,
    ) -> Option<StopReason> {
        let dims = workload.dims();
        self.prepare(
            workload,
            config.effective_threads(),
            config.preconditioner,
            None,
            span,
        );
        self.ensure_scratch(dims);
        if self
            .newton
            .as_ref()
            .map(|n| n.pressure.dims() != dims)
            .unwrap_or(true)
        {
            self.newton = Some(NewtonScratch::new(dims));
        }

        // `state` was just prepared; split the borrows so the operator (shared)
        // and the scratch buffers (exclusive) can be used together.
        // audit: allow(panic) — invariant: `prepare` above always sets `state`
        let state = self.state.as_ref().expect("prepare populated the state");
        // audit: allow(panic) — invariant: `ensure_scratch` above always sets `scratch`
        let scratch = self.scratch.as_mut().expect("scratch was just ensured");
        // audit: allow(panic) — invariant: the block above always sets `newton`
        let newton = self.newton.as_mut().expect("newton was just ensured");

        // The Newton step of `solve_pressure_with`, on reused buffers:
        // every `_into` target is fully overwritten.
        workload.initial_pressure_into(&mut newton.pressure);
        residual_into(
            &newton.pressure,
            state.operator.coefficients(),
            workload.dirichlet(),
            &mut newton.residual,
        );
        newton_rhs_into(&newton.residual, workload.dirichlet(), &mut newton.rhs);

        let stopped = state.krylov(
            criterion(config, workload),
            &newton.rhs,
            None,
            monitor,
            span,
            scratch,
        );

        newton.pressure.axpy(T::ONE, &scratch.solution);
        residual_into(
            &newton.pressure,
            state.operator.coefficients(),
            workload.dirichlet(),
            &mut newton.residual,
        );
        stopped
    }

    /// Advance one backward-Euler step of a transient run (see
    /// [`crate::transient`]): solve `(A + D + W) δ = r(pⁿ) + q(pⁿ)` for the
    /// pressure update `δ` and return `p^{n+1} = pⁿ + δ`.
    ///
    /// The step diagonal `D + W` (accumulation everywhere, plus the
    /// productivity index of every active BHP well) goes through
    /// [`prepare`](Self::prepare) as the operator's diagonal shift, so
    /// consecutive steps of one run share the stencil plan and the
    /// preconditioner and swap only the shift when `Δt` or the active well
    /// set changes it.  The Krylov loop starts from the request's warm
    /// `δ` (or zero) and runs through the same Krylov call as
    /// [`solve`](Self::solve).  Dirichlet rows are pinned to `δ = 0`,
    /// keeping boundary pressures exact.  The system is
    /// SPD for any `Δt > 0`, even without Dirichlet cells: the accumulation
    /// diagonal regularises the pure-Neumann operator.
    ///
    /// The outcome is bitwise identical on a fresh and on a reused context.
    pub fn step(
        &mut self,
        request: &StepRequest<'_>,
        config: &SolveConfig,
        monitor: &mut dyn SolveMonitor,
        span: &Span,
    ) -> StepOutcome {
        let workload = request.workload;
        let dims = workload.dims();
        let active = request.active_wells();
        // `set_diagonal_shift` zeroes the Dirichlet rows of this shift.
        let mut shift = CellField::constant(dims, request.accumulation_coefficient());
        for &(k, well) in &active {
            shift.set(k, shift.get(k) + well.diagonal_coefficient());
        }
        self.prepare(
            workload,
            config.effective_threads(),
            config.preconditioner,
            Some(&shift),
            span,
        );
        self.ensure_scratch(dims);
        // audit: allow(panic) — invariant: `prepare` above always sets `state`
        let state = self.state.as_ref().expect("prepare populated the state");
        // audit: allow(panic) — invariant: `ensure_scratch` above always sets `scratch`
        let scratch = self.scratch.as_mut().expect("scratch was just ensured");

        // RHS: flux residual at pⁿ (Dirichlet rows zeroed) plus well sources.
        let p_n: CellField<T> = request.pressure.convert();
        let r = residual(&p_n, state.operator.coefficients(), workload.dirichlet());
        let mut b = newton_rhs(&r, workload.dirichlet());
        for &(k, well) in &active {
            b.set(
                k,
                b.get(k) + T::from_f64(well.rate_at(request.pressure.get(k))),
            );
        }
        let x0: Option<CellField<T>> = request.warm_delta.map(CellField::convert);
        let stopped = state.krylov(
            criterion(config, workload),
            &b,
            x0.as_ref(),
            monitor,
            span,
            scratch,
        );

        let delta: CellField<f64> = scratch.solution.convert();
        let mut pressure = request.pressure.clone();
        pressure.axpy(1.0, &delta);
        let well_rates = request
            .spec
            .wells
            .wells()
            .iter()
            .map(|w| {
                if w.is_active(request.time) {
                    w.rate_at(pressure.get(dims.linear(w.cell)))
                } else {
                    0.0
                }
            })
            .collect();
        StepOutcome {
            pressure,
            delta,
            history: scratch.history.clone(),
            stopped,
            well_rates,
        }
    }

    /// Make the CG scratch fit `dims`, counting a reallocation.
    fn ensure_scratch(&mut self, dims: Dims) {
        if self
            .scratch
            .get_or_insert_with(|| CgScratch::new(dims))
            .ensure(dims)
        {
            self.stats.scratch_reallocs += 1;
        }
    }

    /// The pressure field of the last [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// If no solve has run on this context yet.
    pub fn pressure(&self) -> &CellField<T> {
        &self
            .newton
            .as_ref()
            // audit: allow(panic) — invariant: documented accessor contract, callers read results only after `solve`
            .expect("no solve has run on this context")
            .pressure
    }

    /// The convergence history of the last [`solve`](Self::solve) or
    /// [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// If no solve has run on this context yet.
    pub fn history(&self) -> &ConvergenceHistory {
        self.scratch
            .as_ref()
            // audit: allow(panic) — invariant: documented accessor contract, callers read results only after `solve`
            .expect("no solve has run on this context")
            .history()
    }

    /// Max-norm of the Eq. (3) residual at the last solve's pressure,
    /// evaluated at this context's precision (`HostBackend` re-evaluates it
    /// in `f64` for `f32` contexts).
    ///
    /// # Panics
    ///
    /// If no solve has run on this context yet.
    pub fn final_residual_max(&self) -> f64 {
        self.newton
            .as_ref()
            // audit: allow(panic) — invariant: documented accessor contract, callers read results only after `solve`
            .expect("no solve has run on this context")
            .residual
            .max_abs()
            .to_f64()
    }
}

/// Everything one engine worker keeps warm between jobs: a [`SolveContext`]
/// per host precision plus a spec-keyed [`Workload`] cache
/// ([`Workload::try_from_spec`] is deterministic, so replaying a cached
/// workload is bitwise identical to rebuilding it).
#[derive(Default)]
pub struct SolveContextCache {
    /// Warm context for `f64` host solves.
    pub f64_context: SolveContext<f64>,
    /// Warm context for `f32` host solves.
    pub f32_context: SolveContext<f32>,
    workload: Option<(WorkloadSpec, Workload)>,
    workload_hits: u64,
    workload_misses: u64,
}

impl SolveContextCache {
    /// A cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the materialised workload for `spec` out of the cache (moving it,
    /// no clone) when the cached spec matches, or materialise a fresh one via
    /// [`Workload::try_from_spec`].  The caller owns the workload for the
    /// duration of the solve — which is what lets it borrow the cache's
    /// contexts mutably at the same time — and hands it back with
    /// [`checkin_workload`](Self::checkin_workload) afterwards.
    /// `try_from_spec` is deterministic, so a cached workload is bitwise
    /// identical to a rebuilt one.
    pub fn checkout_workload(
        &mut self,
        spec: &WorkloadSpec,
    ) -> Result<Workload, mffv_mesh::workload::WorkloadError> {
        match self.workload.take() {
            Some((cached, workload)) if &cached == spec => {
                self.workload_hits += 1;
                Ok(workload)
            }
            _ => {
                self.workload_misses += 1;
                Workload::try_from_spec(spec)
            }
        }
    }

    /// Return a checked-out (or freshly built) workload to the cache for the
    /// next job with the same spec.
    pub fn checkin_workload(&mut self, spec: WorkloadSpec, workload: Workload) {
        self.workload = Some((spec, workload));
    }

    /// Cache counters summed over both precision contexts; workload-cache
    /// hits/misses fold into `hits`/`misses`.
    pub fn stats(&self) -> ContextStats {
        let mut stats = self.f64_context.stats().merged(self.f32_context.stats());
        stats.hits += self.workload_hits;
        stats.misses += self.workload_misses;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::WorkloadSpec;

    fn workload() -> Workload {
        WorkloadSpec::quickstart().build()
    }

    #[test]
    fn same_topology_hits_different_shift_misses() {
        let w = workload();
        let mut ctx = SolveContext::<f64>::new();
        let span = Span::null();
        assert!(!ctx.prepare(&w, 1, PreconditionerKind::None, None, &span));
        assert!(ctx.prepare(&w, 1, PreconditionerKind::None, None, &span));
        // A diagonal shift is part of the operator: same topology, new key.
        let shift = CellField::constant(w.dims(), 0.25);
        assert!(!ctx.prepare(&w, 1, PreconditionerKind::None, Some(&shift), &span));
        // Different shift *values* also miss.
        let shift2 = CellField::constant(w.dims(), 0.5);
        assert!(!ctx.prepare(&w, 1, PreconditionerKind::None, Some(&shift2), &span));
        // Back to the first shift: the cache keeps only one entry, so this
        // rebuilds — the key contract is equality, not history.
        assert!(!ctx.prepare(&w, 1, PreconditionerKind::None, Some(&shift), &span));
        assert!(ctx.prepare(&w, 1, PreconditionerKind::None, Some(&shift), &span));
        assert_eq!(ctx.stats().hits, 2);
        assert_eq!(ctx.stats().misses, 4);
    }

    #[test]
    fn thread_count_and_preconditioner_are_part_of_the_key() {
        let w = workload();
        let mut ctx = SolveContext::<f64>::new();
        let span = Span::null();
        assert!(!ctx.prepare(&w, 1, PreconditionerKind::None, None, &span));
        assert!(!ctx.prepare(&w, 2, PreconditionerKind::None, None, &span));
        assert!(!ctx.prepare(&w, 2, PreconditionerKind::Jacobi, None, &span));
        assert!(ctx.prepare(&w, 2, PreconditionerKind::Jacobi, None, &span));
    }

    #[test]
    fn transmissibility_and_dirichlet_changes_miss() {
        let spec = WorkloadSpec::quickstart();
        let w1 = spec.build();
        let mut thick = spec.clone();
        thick.viscosity *= 2.0;
        let w2 = thick.build();
        let mut ctx = SolveContext::<f64>::new();
        let span = Span::null();
        assert!(!ctx.prepare(&w1, 1, PreconditionerKind::None, None, &span));
        assert!(!ctx.prepare(&w2, 1, PreconditionerKind::None, None, &span));
        assert!(ctx.prepare(&w2, 1, PreconditionerKind::None, None, &span));
    }

    #[test]
    fn pooled_solve_matches_unpooled_bitwise_and_reuses_context() {
        use crate::backend::{HostBackend, SolveBackend, SolveRequest};
        use crate::monitor::NullMonitor;

        let w = workload();
        let config = SolveConfig::default();
        let reference = HostBackend::oracle()
            .solve(SolveRequest::new(&w, &config))
            .unwrap();

        let mut ctx = SolveContext::<f64>::new();
        for round in 0..3 {
            let stopped = ctx.solve(&w, &config, &mut NullMonitor, &Span::null());
            assert_eq!(stopped, None);
            assert_eq!(
                ctx.history().residual_norms_squared,
                reference.history.residual_norms_squared,
                "round {round}: pooled history must be bitwise identical"
            );
            assert_eq!(ctx.pressure().as_slice(), reference.pressure.as_slice());
            assert_eq!(ctx.final_residual_max(), reference.final_residual_max);
        }
        assert_eq!(ctx.stats().hits, 2);
        assert_eq!(ctx.stats().misses, 1);
        assert_eq!(ctx.stats().scratch_reallocs, 0);
    }

    #[test]
    fn pooled_jacobi_and_mg_match_unpooled_bitwise() {
        use crate::backend::{HostBackend, SolveBackend, SolveRequest};
        use crate::monitor::NullMonitor;

        for kind in [PreconditionerKind::Jacobi, PreconditionerKind::Mg] {
            let w = workload();
            let config = SolveConfig {
                preconditioner: kind,
                ..SolveConfig::default()
            };
            let reference = HostBackend::oracle()
                .solve(SolveRequest::new(&w, &config))
                .unwrap();
            let mut ctx = SolveContext::<f64>::new();
            for _ in 0..2 {
                ctx.solve(&w, &config, &mut NullMonitor, &Span::null());
                assert_eq!(
                    ctx.history().residual_norms_squared,
                    reference.history.residual_norms_squared,
                    "{kind:?}: pooled history must be bitwise identical"
                );
                assert_eq!(ctx.pressure().as_slice(), reference.pressure.as_slice());
            }
        }
    }

    #[test]
    fn workload_cache_replays_bitwise_identical_workloads() {
        let mut cache = SolveContextCache::new();
        let spec = WorkloadSpec::quickstart();
        let fresh = Workload::try_from_spec(&spec).unwrap();
        let first = cache.checkout_workload(&spec).unwrap();
        assert_eq!(
            first.transmissibility().fingerprint(),
            fresh.transmissibility().fingerprint()
        );
        cache.checkin_workload(spec.clone(), first);
        let again = cache.checkout_workload(&spec).unwrap();
        assert_eq!(
            again.dirichlet().fingerprint(),
            fresh.dirichlet().fingerprint()
        );
        cache.checkin_workload(spec.clone(), again);
        // A different spec misses and drops the stale entry.
        let mut other = spec.clone();
        other.viscosity *= 3.0;
        let w2 = cache.checkout_workload(&other).unwrap();
        cache.checkin_workload(other, w2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }
}
