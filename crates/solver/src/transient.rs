//! Backward-Euler transient simulation: implicit time stepping with wells.
//!
//! The steady solves of this workspace answer "what pressure field balances
//! the wells?" once.  This module chains them in time: the slightly
//! compressible mass balance
//!
//! ```text
//! V_K · c_t · (p_K^{n+1} − p_K^n) / Δt  =  Σ_L Υλ (p_L^{n+1} − p_K^{n+1})  +  q_K(p^{n+1})
//! ```
//!
//! is discretised with backward Euler (unconditionally stable for any
//! `Δt > 0`) and solved per step for the pressure update `δ = p^{n+1} − p^n`:
//!
//! ```text
//! (A + D + W) δ = r(pⁿ) + q(pⁿ)
//! ```
//!
//! where `A` is the existing SPD flux operator, `D = diag(V·c_t/Δt)` the
//! accumulation term and `W = diag(Σ WI)` the productivity indices of active
//! BHP wells — both folded into the planned stencil kernels as the
//! operator's diagonal shift
//! ([`MatrixFreeOperator::set_diagonal_shift`](mffv_fv::MatrixFreeOperator::set_diagonal_shift)),
//! so the branch-free, fused, multithreaded apply path (and its bitwise
//! thread-count independence) carries over unchanged to every step.
//!
//! Steps **warm-start**: each CG solve begins from the previous step's `δ`
//! (successive updates are similar for smooth schedules), which measurably
//! reduces total CG iterations against cold zero starts while remaining
//! fully deterministic.  [`run_transient`] drives the schedule of a
//! [`TransientSpec`] through [`SolveContext::step`] — one host context per
//! run, at the backend's [`step_precision`](SolveBackend::step_precision),
//! so the operator and preconditioner are reused across steps and only the
//! diagonal shift is swapped — and assembles the [`TransientReport`]:
//! per-step [`SolveReport`]s, requested pressure snapshots, and cumulative
//! per-well volumes.

use crate::backend::{Precision, SolveBackend, SolveConfig, SolveError, SolveReport};
use crate::context::SolveContext;
use crate::convergence::ConvergenceHistory;
use crate::monitor::{with_composed_monitor, SolveMonitor, StopPolicy, StopReason};
use mffv_fv::residual::{interior_mass_imbalance, residual};
use mffv_mesh::{CellField, Scalar, TransientSpec, Well, Workload};
use mffv_telemetry::{Span, Stopwatch};

/// Everything one backward-Euler step needs, borrowed from the driver's
/// state: the (steady) workload, the transient spec, the current pressure
/// `pⁿ` and the optional warm-start update from the previous step.
#[derive(Clone, Copy, Debug)]
pub struct StepRequest<'a> {
    /// The steady problem (grid, transmissibilities, Dirichlet set).
    pub workload: &'a Workload,
    /// The transient scenario (compressibility, wells, warm-start flag).
    pub spec: &'a TransientSpec,
    /// Pressure at the start of the step, `pⁿ` (Dirichlet values imposed).
    pub pressure: &'a CellField<f64>,
    /// The previous step's `δ`, when warm starting; `None` starts CG from
    /// zero.
    pub warm_delta: Option<&'a CellField<f64>>,
    /// Step start time, seconds (well schedules are evaluated here).
    pub time: f64,
    /// Step size, seconds.
    pub dt: f64,
}

impl StepRequest<'_> {
    /// The accumulation diagonal coefficient `V·c_t/Δt` (uniform over the
    /// grid: the mesh has uniform spacing).
    pub fn accumulation_coefficient(&self) -> f64 {
        self.workload.mesh().cell_volume() * self.spec.total_compressibility / self.dt
    }

    /// The wells active during this step, with their completion cells'
    /// linear indices (schedule evaluated at the step start time).
    pub fn active_wells(&self) -> Vec<(usize, &Well)> {
        let dims = self.workload.dims();
        self.spec
            .wells
            .wells()
            .iter()
            .filter(|w| w.is_active(self.time))
            .map(|w| (dims.linear(w.cell), w))
            .collect()
    }
}

/// What one backward-Euler step produced.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// Pressure at the end of the step, `p^{n+1}`, in canonical `f64`.
    pub pressure: CellField<f64>,
    /// The update `δ = p^{n+1} − pⁿ` (the next step's warm start).
    pub delta: CellField<f64>,
    /// Convergence history of the step's CG solve.
    pub history: ConvergenceHistory,
    /// `Some(reason)` when a stop policy or monitor ended the solve early;
    /// `pressure` then carries the partial update reached at the boundary.
    pub stopped: Option<StopReason>,
    /// Per-well volumetric rate (m³/s, positive = injection) evaluated at
    /// `p^{n+1}`, in the spec's well order; zero for inactive wells.
    pub well_rates: Vec<f64>,
}

/// One completed (or stopped) step of a transient run.
#[derive(Clone, Debug)]
pub struct TransientStep {
    /// 0-based step index.
    pub index: usize,
    /// Step start time, seconds.
    pub start_time: f64,
    /// Step size, seconds.
    pub dt: f64,
    /// The step's unified solve report: `pressure` is `p^{n+1}`, `history`
    /// the step's CG record, and `final_residual_max` the max-norm residual
    /// of the **transient** equation `D δ − r(p^{n+1}) − q(p^{n+1})` over
    /// non-Dirichlet cells (m³/s).
    pub report: SolveReport,
    /// Per-well volumetric rate at `p^{n+1}` (m³/s, positive = injection),
    /// in spec order; zero while a well is off-schedule.
    pub well_rates: Vec<f64>,
    /// Net accumulation rate `Σ_K V·c_t/Δt · δ_K` over non-Dirichlet cells
    /// (m³/s) — the volume the reservoir stores during this step, per
    /// second.
    pub accumulation_rate: f64,
    /// Net inflow through Dirichlet boundary cells at `p^{n+1}` (m³/s).
    pub boundary_inflow: f64,
}

impl TransientStep {
    /// Step end time, seconds.
    pub fn end_time(&self) -> f64 {
        self.start_time + self.dt
    }

    /// Total well inflow during the step (m³/s; production counts negative).
    pub fn well_inflow(&self) -> f64 {
        mffv_fv::seq_sum(self.well_rates.iter().copied())
    }

    /// Discrete mass-balance defect of the step (m³/s): accumulation minus
    /// well and boundary inflow.  Zero up to the CG tolerance for a
    /// converged step.
    pub fn mass_balance_error(&self) -> f64 {
        self.accumulation_rate - self.well_inflow() - self.boundary_inflow
    }
}

/// A full pressure field captured for a requested snapshot time.
#[derive(Clone, Debug)]
pub struct PressureSnapshot {
    /// The time the snapshot was requested at (seconds).
    pub requested_time: f64,
    /// The time the captured field actually corresponds to: the end of the
    /// first step reaching the requested time.  Equal to `requested_time`
    /// when the request lands on a step boundary; later (never earlier)
    /// when it falls inside a step — e.g. under a ramped dt.
    pub time: f64,
    /// The captured pressure field, `p(time)`.
    pub pressure: CellField<f64>,
}

/// Cumulative volume exchanged by one well over the run.
#[derive(Clone, Debug)]
pub struct WellTotal {
    /// The well's name.
    pub name: String,
    /// Net volume (m³, positive = injected into the reservoir).
    pub net_volume: f64,
    /// Volume injected while the well's rate was positive (m³, ≥ 0).
    pub injected: f64,
    /// Volume produced while the well's rate was negative (m³, ≥ 0).
    pub produced: f64,
}

/// The result of a transient run: per-step reports, snapshots, well totals.
#[derive(Clone, Debug)]
pub struct TransientReport {
    /// Name of the backend that stepped the run.
    pub backend: String,
    /// Every executed step, in time order.  A stopped run keeps the partial
    /// final step (its report has `stopped` set).
    pub steps: Vec<TransientStep>,
    /// Pressure snapshots at the spec's requested times, in request order
    /// (a stopped run carries only the times its completed steps reached).
    pub snapshots: Vec<PressureSnapshot>,
    /// Cumulative per-well volumes, in the spec's well order.  Only
    /// *completed* steps are billed: a stopped run's partial final step
    /// contributes nothing to the ledger.
    pub wells: Vec<WellTotal>,
    /// The initial pressure field `p⁰`.
    pub initial_pressure: CellField<f64>,
    /// `Some(reason)` when a stop policy ended the run before its horizon;
    /// `steps` then holds the state reached so far.
    pub stopped: Option<StopReason>,
    /// Wall-clock seconds of the whole run on the host.
    pub host_wall_seconds: f64,
}

impl TransientReport {
    /// Pressure at the end of the run (the initial field when the run was
    /// stopped before its first step completed).
    pub fn final_pressure(&self) -> &CellField<f64> {
        self.steps
            .last()
            .map(|s| &s.report.pressure)
            .unwrap_or(&self.initial_pressure)
    }

    /// Number of executed steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total CG iterations across all steps.
    pub fn total_iterations(&self) -> usize {
        self.steps.iter().map(|s| s.report.iterations()).sum()
    }

    /// Whether every step's CG met its tolerance.
    pub fn all_converged(&self) -> bool {
        self.stopped.is_none() && self.steps.iter().all(|s| s.report.converged())
    }

    /// Simulated seconds actually covered: a stopped run's partial final
    /// step counts only up to its start (its pressure never reached the
    /// step's end state).
    pub fn simulated_time(&self) -> f64 {
        self.steps
            .last()
            .map(|s| {
                if s.report.stopped.is_none() {
                    s.end_time()
                } else {
                    s.start_time
                }
            })
            .unwrap_or(0.0)
    }

    /// Total volume injected by all wells (m³, ≥ 0).
    pub fn total_injected(&self) -> f64 {
        mffv_fv::seq_sum(self.wells.iter().map(|w| w.injected))
    }

    /// Total volume produced by all wells (m³, ≥ 0).
    pub fn total_produced(&self) -> f64 {
        mffv_fv::seq_sum(self.wells.iter().map(|w| w.produced))
    }

    /// The worst per-step mass-balance defect (m³/s).
    pub fn max_mass_balance_error(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| s.mass_balance_error().abs())
            // audit: allow(float-reduction) — reassociation-safe: max is
            // associative and commutative over the non-NaN values here.
            .fold(0.0, f64::max)
    }

    /// All step histories concatenated into one [`ConvergenceHistory`]:
    /// starts from the first step's initial `rᵀr` and records every CG
    /// iteration of every step, so `iterations` is the run total.
    /// `converged` means the run finished and every step converged.
    pub fn merged_history(&self) -> ConvergenceHistory {
        let mut merged = match self.steps.first() {
            Some(first) => ConvergenceHistory::starting_from(first.report.history.initial_rr()),
            None => return ConvergenceHistory::default(),
        };
        for step in &self.steps {
            for &rr in &step.report.history.residual_norms_squared[1..] {
                merged.record(rr);
            }
        }
        merged.converged = self.all_converged();
        merged
    }

    /// Condense the run into one [`SolveReport`] (the shape engine batches
    /// and agreement tables understand): the final pressure with the merged
    /// history, the last step's transient-equation residual, and the run's
    /// stop state.
    pub fn summary_report(&self) -> SolveReport {
        SolveReport {
            backend: self.backend.clone(),
            pressure: self.final_pressure().clone(),
            history: self.merged_history(),
            final_residual_max: self
                .steps
                .last()
                .map(|s| s.report.final_residual_max)
                .unwrap_or(0.0),
            host_wall_seconds: self.host_wall_seconds,
            device: None,
            stopped: self.stopped,
        }
    }
}

impl std::fmt::Display for TransientReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "transient @ {}: {} steps over {:.4e} s, {} CG iterations total{}",
            self.backend,
            self.num_steps(),
            self.simulated_time(),
            self.total_iterations(),
            match self.stopped {
                Some(reason) => format!(" (stopped: {reason})"),
                None => String::new(),
            }
        )?;
        for well in &self.wells {
            writeln!(
                f,
                "  well {:12} net {:+.4e} m³ (injected {:.4e}, produced {:.4e})",
                well.name, well.net_volume, well.injected, well.produced
            )?;
        }
        Ok(())
    }
}

/// Drive a [`TransientSpec`]'s full schedule through `backend`,
/// warm-starting successive steps and threading `policy` through every
/// per-step session (one shared wall-clock deadline; per-step budgets and
/// stagnation rules).
///
/// Every step runs [`SolveContext::step`] on one context at the backend's
/// [`step_precision`](SolveBackend::step_precision), owned by the run: the
/// planned operator and the preconditioner are built once and only the
/// `Δt`/well-dependent diagonal shift is swapped when the schedule changes
/// it.
///
/// Each time step records a `step` span under `span`, with the step's
/// build, Krylov and preconditioner spans beneath it (see [`crate::trace`])
/// and the mass-ledger/residual bookkeeping in an `accounting` child.
/// Tracing never perturbs the numerics: traced and untraced trajectories
/// are bitwise identical.
///
/// `observer`, when attached, sees the concatenated
/// [`SolveEvent`](crate::monitor::SolveEvent) stream of every per-step
/// Krylov session — each step re-emits `Started` with its own initial
/// residual, then its iterations — exactly as the per-step histories record
/// them (bitwise).  It observes and controls: a
/// [`Flow::Stop`](crate::monitor::Flow::Stop) it returns ends the current
/// step (and thereby the run) at the next iteration boundary, exactly like a
/// policy stop.  This is the serving path: a daemon streams the events over
/// a socket while the shared `policy` keeps its one deadline across steps.
///
/// A stopped step truncates the run: the partial step is kept and the
/// report's `stopped` is set.  Invalid specs (bad dt policy, wells outside
/// the grid or completing in Dirichlet cells) fail up front with a
/// [`SolveError`].
pub fn run_transient(
    backend: &dyn SolveBackend,
    workload: &Workload,
    spec: &TransientSpec,
    config: &SolveConfig,
    policy: &StopPolicy,
    span: &Span,
    observer: Option<&mut dyn SolveMonitor>,
) -> Result<TransientReport, SolveError> {
    match backend.step_precision() {
        Precision::F64 => {
            run_transient_at::<f64>(backend, workload, spec, config, policy, span, observer)
        }
        Precision::F32 => {
            run_transient_at::<f32>(backend, workload, spec, config, policy, span, observer)
        }
    }
}

/// [`run_transient`] with every step on one `T`-precision [`SolveContext`].
fn run_transient_at<T: Scalar>(
    backend: &dyn SolveBackend,
    workload: &Workload,
    spec: &TransientSpec,
    config: &SolveConfig,
    policy: &StopPolicy,
    span: &Span,
    mut observer: Option<&mut dyn SolveMonitor>,
) -> Result<TransientReport, SolveError> {
    let name = backend.name();
    let dims = workload.dims();
    spec.validate(dims)
        .map_err(|e| SolveError::new(&name, format!("invalid transient spec: {e}")))?;
    for well in spec.wells.wells() {
        if workload.dirichlet().contains_linear(dims.linear(well.cell)) {
            return Err(SolveError::new(
                &name,
                format!(
                    "well `{}` completes in a Dirichlet cell; its source term would be \
                     discarded by the pinned boundary row",
                    well.name
                ),
            ));
        }
    }

    // Anchors the run's shared StopPolicy deadline (consume_deadline) and
    // elapsed-seconds telemetry; it never feeds the numerics of a step.
    let started = Stopwatch::start();
    let mut pressure: CellField<f64> = match spec.initial_pressure {
        Some(p0) => {
            let mut field = CellField::constant(dims, p0);
            workload.dirichlet().impose(&mut field);
            field
        }
        None => workload.initial_pressure(),
    };
    let initial_pressure = pressure.clone();

    let acc_rate = |delta: &CellField<f64>, dt: f64| -> f64 {
        let coeff = workload.mesh().cell_volume() * spec.total_compressibility / dt;
        let mut sum = 0.0;
        for k in 0..dims.num_cells() {
            if !workload.dirichlet().contains_linear(k) {
                sum += delta.get(k);
            }
        }
        coeff * sum
    };

    let mut steps: Vec<TransientStep> = Vec::new();
    let mut warm: Option<CellField<f64>> = None;
    // One slot per requested time, filled at capture and flattened in
    // request order at the end.
    let mut snapshots: Vec<Option<PressureSnapshot>> = vec![None; spec.snapshot_times.len()];
    let mut totals: Vec<WellTotal> = spec
        .wells
        .wells()
        .iter()
        .map(|w| WellTotal {
            name: w.name.clone(),
            net_volume: 0.0,
            injected: 0.0,
            produced: 0.0,
        })
        .collect();
    let mut run_stopped = None;

    // One context for the whole run: the operator and preconditioner are
    // built on the first step, and later steps swap only the shift.
    let mut ctx = SolveContext::<T>::new();
    for (index, (time, dt)) in spec.schedule().into_iter().enumerate() {
        let request = StepRequest {
            workload,
            spec,
            pressure: &pressure,
            warm_delta: if spec.warm_start { warm.as_ref() } else { None },
            time,
            dt,
        };
        let step_span = span.child("step");
        let step_started = Stopwatch::start();
        // One monitor per step: the armed policy session (when any rule is
        // configured) composed with the external observer (when one is
        // attached); the step traces it under the step span.
        let mut session =
            (!policy.is_empty()).then(|| policy.consume_deadline(started.elapsed()).session());
        let outcome = with_composed_monitor(session.as_mut(), observer.as_deref_mut(), |monitor| {
            ctx.step(&request, config, monitor, &step_span)
        });
        let step_wall = step_started.elapsed_seconds();
        let accounting = step_span.child("accounting");

        // Transient-equation residual and boundary inflow at p^{n+1}.
        let r_new = residual(
            &outcome.pressure,
            workload.transmissibility(),
            workload.dirichlet(),
        );
        let boundary_inflow = interior_mass_imbalance(&r_new, workload.dirichlet());
        let accumulation_rate = acc_rate(&outcome.delta, dt);
        let acc_coeff = workload.mesh().cell_volume() * spec.total_compressibility / dt;
        let mut step_residual_max = 0.0f64;
        {
            let mut q = vec![0.0f64; dims.num_cells()];
            for (well, &rate) in spec.wells.wells().iter().zip(&outcome.well_rates) {
                q[dims.linear(well.cell)] += rate;
            }
            for (k, &qk) in q.iter().enumerate() {
                if !workload.dirichlet().contains_linear(k) {
                    let defect = acc_coeff * outcome.delta.get(k) - r_new.get(k) - qk;
                    step_residual_max = step_residual_max.max(defect.abs());
                }
            }
        }

        let stopped = outcome.stopped;
        // The well ledger and snapshots only credit *completed* steps: a
        // stopped step's pressure is an unconverged partial iterate, so
        // billing its full dt of well volume would overstate what was
        // simulated (the partial step stays inspectable in `steps`).
        if stopped.is_none() {
            for (total, &rate) in totals.iter_mut().zip(&outcome.well_rates) {
                let volume = rate * dt;
                total.net_volume += volume;
                if volume >= 0.0 {
                    total.injected += volume;
                } else {
                    total.produced -= volume;
                }
            }
        }
        steps.push(TransientStep {
            index,
            start_time: time,
            dt,
            report: SolveReport {
                backend: name.clone(),
                pressure: outcome.pressure.clone(),
                history: outcome.history,
                final_residual_max: step_residual_max,
                host_wall_seconds: step_wall,
                device: None,
                stopped,
            },
            well_rates: outcome.well_rates,
            accumulation_rate,
            boundary_inflow,
        });
        pressure = outcome.pressure;
        warm = Some(outcome.delta);

        // Relative guard so a requested time equal to the horizon (or a step
        // boundary) is captured despite float dust in the accumulated time.
        // Stopped (partial) steps capture nothing.
        let snap_eps = spec.total_time * 1e-9;
        if stopped.is_none() {
            for (slot, &ts) in snapshots.iter_mut().zip(&spec.snapshot_times) {
                if slot.is_none() && time + dt >= ts - snap_eps {
                    *slot = Some(PressureSnapshot {
                        requested_time: ts,
                        // Label the field with the time it actually
                        // corresponds to — the step end — not the request.
                        time: time + dt,
                        pressure: pressure.clone(),
                    });
                }
            }
        }

        accounting.finish();

        if let Some(reason) = stopped {
            run_stopped = Some(reason);
            break;
        }
    }

    Ok(TransientReport {
        backend: name,
        steps,
        snapshots: snapshots.into_iter().flatten().collect(),
        wells: totals,
        initial_pressure,
        stopped: run_stopped,
        host_wall_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{HostBackend, PreconditionerKind};
    use crate::monitor::NullMonitor;
    use mffv_mesh::workload::{BoundarySpec, WorkloadSpec};
    use mffv_mesh::{CellIndex, Dims, WellSet};

    fn closed_workload(dims: Dims) -> Workload {
        WorkloadSpec {
            name: format!("closed-{dims}"),
            boundary: BoundarySpec::None,
            dims,
            ..WorkloadSpec::quickstart()
        }
        .build()
    }

    #[test]
    fn single_cell_bhp_decay_matches_the_discrete_rate() {
        // One cell, one BHP well, no Dirichlet: backward Euler gives the
        // exact recurrence p^{n+1} = (D pⁿ + WI·p_bhp) / (D + WI).
        let workload = closed_workload(Dims::new(1, 1, 1));
        let (p_bhp, wi, ct, dt) = (5.0, 0.25, 2.0, 0.5);
        let spec = TransientSpec::new(5.0 * dt, dt, ct)
            .with_wells(WellSet::empty().with(mffv_mesh::Well::bhp(
                "w",
                CellIndex::new(0, 0, 0),
                p_bhp,
                wi,
            )))
            .with_initial_pressure(1.0);
        let config = SolveConfig {
            tolerance: Some(1e-28),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &Span::null(),
            None,
        )
        .unwrap();
        assert_eq!(report.num_steps(), 5);
        let d = workload.mesh().cell_volume() * ct / dt;
        let mut p = 1.0f64;
        for step in &report.steps {
            p = (d * p + wi * p_bhp) / (d + wi);
            let got = step.report.pressure.get(0);
            assert!(
                (got - p).abs() < 1e-12,
                "step {}: {} vs exact {}",
                step.index,
                got,
                p
            );
        }
        // Monotone relaxation towards the BHP.
        assert!(report.final_pressure().get(0) > 1.0);
        assert!(report.final_pressure().get(0) < p_bhp);
    }

    #[test]
    fn mass_balance_closes_on_a_sealed_reservoir() {
        let workload = closed_workload(Dims::new(6, 5, 4));
        let dims = workload.dims();
        let spec = TransientSpec::new(4.0, 0.5, 1e-3)
            .with_wells(
                WellSet::empty()
                    .with(mffv_mesh::Well::rate("inj", CellIndex::new(0, 0, 0), 2.0))
                    .with(mffv_mesh::Well::rate(
                        "prod",
                        CellIndex::new(dims.nx - 1, dims.ny - 1, dims.nz - 1),
                        -1.25,
                    )),
            )
            .with_initial_pressure(10.0);
        let config = SolveConfig {
            tolerance: Some(1e-24),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &Span::null(),
            None,
        )
        .unwrap();
        assert!(report.all_converged());
        assert_eq!(report.num_steps(), 8);
        // No boundary: injected − produced must equal stored volume.
        for step in &report.steps {
            assert!(step.boundary_inflow.abs() < 1e-9);
            assert!(
                step.mass_balance_error().abs() < 1e-8,
                "step {}: {}",
                step.index,
                step.mass_balance_error()
            );
        }
        assert!((report.total_injected() - 2.0 * 4.0).abs() < 1e-9);
        assert!((report.total_produced() - 1.25 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn snapshots_and_schedules_are_honoured() {
        let workload = closed_workload(Dims::new(4, 4, 2));
        let spec = TransientSpec::new(2.0, 0.25, 1e-3)
            .with_wells(WellSet::empty().with(
                mffv_mesh::Well::rate("inj", CellIndex::new(0, 0, 0), 1.0).scheduled(0.0, 1.0),
            ))
            .with_initial_pressure(0.0)
            .with_snapshots([0.5, 2.0]);
        let config = SolveConfig {
            tolerance: Some(1e-24),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &Span::null(),
            None,
        )
        .unwrap();
        assert_eq!(report.snapshots.len(), 2);
        assert_eq!(report.snapshots[0].requested_time, 0.5);
        assert_eq!(report.snapshots[0].time, 0.5);
        // The well shuts in at t = 1: later steps exchange nothing.
        for step in &report.steps {
            if step.start_time >= 1.0 {
                assert_eq!(step.well_rates[0], 0.0);
            } else {
                assert_eq!(step.well_rates[0], 1.0);
            }
        }
        assert!((report.wells[0].net_volume - 1.0).abs() < 1e-12);
        // Sealed reservoir + shut-in well: pressure settles and stays.
        assert!(report.all_converged());
    }

    #[test]
    fn wells_in_dirichlet_cells_are_rejected() {
        let workload = WorkloadSpec::quickstart().build();
        let spec = TransientSpec::new(1.0, 0.5, 1e-9).with_wells(
            WellSet::empty().with(mffv_mesh::Well::rate("w", CellIndex::new(0, 0, 0), 1.0)),
        );
        let err = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &SolveConfig::default(),
            &StopPolicy::new(),
            &Span::null(),
            None,
        )
        .unwrap_err();
        assert!(err.detail().contains("Dirichlet"), "{}", err.detail());
    }

    #[test]
    fn merged_history_and_summary_report_aggregate_the_run() {
        let workload = closed_workload(Dims::new(4, 3, 2));
        let spec = TransientSpec::new(1.0, 0.25, 1e-3)
            .with_wells(WellSet::empty().with(mffv_mesh::Well::rate(
                "inj",
                CellIndex::new(1, 1, 1),
                0.5,
            )))
            .with_initial_pressure(1.0);
        let config = SolveConfig {
            tolerance: Some(1e-20),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &Span::null(),
            None,
        )
        .unwrap();
        let merged = report.merged_history();
        assert_eq!(merged.iterations, report.total_iterations());
        assert_eq!(
            merged.residual_norms_squared.len(),
            report.total_iterations() + 1
        );
        assert!(merged.converged);
        let summary = report.summary_report();
        assert_eq!(summary.backend, "host-f64");
        assert_eq!(summary.iterations(), report.total_iterations());
        assert_eq!(
            summary.pressure.as_slice(),
            report.final_pressure().as_slice()
        );
        assert!(report.to_string().contains("well"));
    }

    #[test]
    fn iteration_budget_policy_stops_the_run_with_partial_state() {
        let workload = closed_workload(Dims::new(8, 8, 4));
        let spec = TransientSpec::new(10.0, 1.0, 1e-6).with_wells(
            WellSet::empty().with(mffv_mesh::Well::rate("inj", CellIndex::new(4, 4, 2), 1.0)),
        );
        let config = SolveConfig {
            tolerance: Some(1e-30),
            ..SolveConfig::default()
        };
        let policy = StopPolicy::new().iteration_budget(2);
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &policy,
            &Span::null(),
            None,
        )
        .unwrap();
        assert_eq!(report.stopped, Some(StopReason::IterationBudget));
        assert_eq!(report.num_steps(), 1);
        assert_eq!(report.steps[0].report.iterations(), 2);
        assert!(report.steps[0].report.was_stopped());
        assert!(!report.all_converged());
        // A partial step is not billed: no well volume, no simulated time.
        assert_eq!(report.total_injected(), 0.0);
        assert_eq!(report.wells[0].net_volume, 0.0);
        assert_eq!(report.simulated_time(), 0.0);
    }

    #[test]
    fn snapshots_come_back_in_request_order_even_when_unsorted() {
        let workload = closed_workload(Dims::new(4, 4, 2));
        let spec = TransientSpec::new(2.0, 0.25, 1e-3)
            .with_wells(WellSet::empty().with(mffv_mesh::Well::rate(
                "inj",
                CellIndex::new(1, 1, 1),
                0.5,
            )))
            .with_initial_pressure(1.0)
            .with_snapshots([2.0, 0.5]);
        let config = SolveConfig {
            tolerance: Some(1e-24),
            ..SolveConfig::default()
        };
        let report = run_transient(
            &HostBackend::oracle(),
            &workload,
            &spec,
            &config,
            &StopPolicy::new(),
            &Span::null(),
            None,
        )
        .unwrap();
        let requested: Vec<f64> = report.snapshots.iter().map(|s| s.requested_time).collect();
        assert_eq!(
            requested,
            vec![2.0, 0.5],
            "request order, not capture order"
        );
        // Both requests land on step boundaries, so capture times match.
        let captured: Vec<f64> = report.snapshots.iter().map(|s| s.time).collect();
        assert_eq!(captured, vec![2.0, 0.5]);
    }

    #[test]
    fn a_reused_context_steps_bitwise_like_a_fresh_context_per_step() {
        // Ramp dt plus a BHP well that switches on mid-run: Δt and W change
        // the shift on most steps and repeat it on the late fixed-size
        // ones, so the reused context exercises the swap and the hit paths.
        let workload = WorkloadSpec {
            name: "ramp".into(),
            boundary: BoundarySpec::XFaces {
                left_pressure: 10.0,
                right_pressure: 8.0,
            },
            dims: Dims::new(20, 16, 14),
            ..WorkloadSpec::quickstart()
        }
        .build();
        let spec = TransientSpec::new(6.0, 0.1, 1e-3)
            .with_dt_policy(mffv_mesh::DtPolicy::ramp(0.1, 1.5, 1.0))
            .with_wells(
                WellSet::empty()
                    .with(mffv_mesh::Well::rate("inj", CellIndex::new(8, 8, 6), 1.5))
                    .with(
                        mffv_mesh::Well::bhp("prod", CellIndex::new(15, 5, 3), 6.0, 0.8)
                            .scheduled(2.0, 10.0),
                    ),
            );
        let bits =
            |f: &CellField<f64>| -> Vec<u64> { f.as_slice().iter().map(|v| v.to_bits()).collect() };
        for kind in PreconditionerKind::ALL {
            let config = SolveConfig {
                tolerance: Some(1e-18),
                preconditioner: kind,
                ..SolveConfig::default()
            };
            let mut reused = SolveContext::<f64>::new();
            let mut pressure: CellField<f64> = CellField::constant(workload.dims(), 9.0);
            workload.dirichlet().impose(&mut pressure);
            let mut warm: Option<CellField<f64>> = None;
            for (index, (time, dt)) in spec.schedule().into_iter().enumerate() {
                let request = StepRequest {
                    workload: &workload,
                    spec: &spec,
                    pressure: &pressure,
                    warm_delta: warm.as_ref(),
                    time,
                    dt,
                };
                let cached = reused.step(&request, &config, &mut NullMonitor, &Span::null());
                let fresh = SolveContext::<f64>::new().step(
                    &request,
                    &config,
                    &mut NullMonitor,
                    &Span::null(),
                );
                assert!(cached.history.converged, "{kind:?} step {index}");
                assert_eq!(
                    bits(&cached.pressure),
                    bits(&fresh.pressure),
                    "{kind:?} step {index}: pressure"
                );
                assert_eq!(cached.history, fresh.history, "{kind:?} step {index}");
                pressure = cached.pressure;
                warm = Some(cached.delta);
            }
            // Steps 7 and 8 repeat step 6's shift; every other step swaps.
            let stats = reused.stats();
            assert_eq!((stats.hits, stats.misses), (2, 8), "{kind:?}");
        }
    }
}
