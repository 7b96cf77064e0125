//! The backend-agnostic solve abstraction behind the `mffv::Simulation` facade.
//!
//! The paper's central experiment runs the *same* matrix-free FV pressure solve
//! on three targets — a host f64 oracle, a GPU-style reference and the simulated
//! dataflow fabric — and compares results (§V-B).  Historically every target had
//! its own entry point, option struct and report type; this module defines the
//! shared contract they all implement instead:
//!
//! * [`SolveConfig`] — the normalized cross-backend settings (tolerance,
//!   iteration cap, host precision), with `None` meaning "use the workload's
//!   own defaults";
//! * [`SolveRequest`] — one solve's inputs: workload, config, monitor, span
//!   and an optional warm [`SolveContextCache`];
//! * [`SolveBackend`] — one object-safe trait every solver implements, with
//!   one solve entry point, [`SolveBackend::solve`];
//! * [`SolveReport`] — one report shape: pressure normalized to `f64`,
//!   convergence history, final residual, and an optional [`DeviceSection`]
//!   for backends that model device time;
//! * [`SolveError`] — one error type (backends with richer internal errors,
//!   like the fabric simulator, stringify into it);
//! * [`HostBackend`] — the host oracle, implemented right here on
//!   [`SolveContext`].
//!
//! The GPU-style reference and the dataflow solver implement [`SolveBackend`]
//! in their own crates (`mffv-gpu-ref`, `mffv-core`); the umbrella `mffv` crate
//! wires all three into the `Simulation` builder.

use crate::context::{SolveContext, SolveContextCache};
use crate::convergence::ConvergenceHistory;
use crate::monitor::{NullMonitor, SolveMonitor, StopReason};
use crate::transient::{PlannedStepper, StepOutcome, StepRequest, TransientStepper};
use mffv_fv::residual::residual;
use mffv_mesh::{CellField, Scalar, Workload};
use mffv_telemetry::{Span, Stopwatch};

/// Floating-point precision of a host solve.  The device-style backends are
/// `f32` by construction (the paper's machines compute in single precision);
/// the host oracle can run either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// IEEE single precision (the device precision of the paper).
    F32,
    /// IEEE double precision (the oracle precision of §V-B).
    #[default]
    F64,
}

impl Precision {
    /// Short label used in backend names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F64 => "f64",
        }
    }
}

/// Which preconditioner a backend's Krylov loop runs under.
///
/// The default is [`PreconditionerKind::None`] — plain CG, the paper's
/// Algorithm 1 — so existing configurations and histories are unchanged.
/// All three backends honour the selection; histories always record the
/// *unpreconditioned* `rᵀr`, so convergence curves stay comparable across
/// kinds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PreconditionerKind {
    /// Plain CG (Algorithm 1 of the paper).
    #[default]
    None,
    /// Diagonal (Jacobi) scaling.
    Jacobi,
    /// The geometric-multigrid V-cycle of [`mffv_fv::mg`]: iteration counts
    /// roughly flat in grid size.
    Mg,
}

impl PreconditionerKind {
    /// Every kind, in declaration order (sweep axes iterate this).
    pub const ALL: [PreconditionerKind; 3] = [
        PreconditionerKind::None,
        PreconditionerKind::Jacobi,
        PreconditionerKind::Mg,
    ];

    /// Short stable label used in spec files, CLI flags and sweep names.
    pub fn label(&self) -> &'static str {
        match self {
            PreconditionerKind::None => "none",
            PreconditionerKind::Jacobi => "jacobi",
            PreconditionerKind::Mg => "mg",
        }
    }

    /// Parse a [`label`](Self::label) back into a kind.
    pub fn parse(s: &str) -> Option<PreconditionerKind> {
        match s {
            "none" => Some(PreconditionerKind::None),
            "jacobi" => Some(PreconditionerKind::Jacobi),
            "mg" => Some(PreconditionerKind::Mg),
            _ => None,
        }
    }
}

/// Cross-backend solve settings.
///
/// `None` fields fall back to the workload's own tolerance / iteration cap, so
/// a default `SolveConfig` reproduces each backend's historical defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveConfig {
    /// Convergence tolerance on `rᵀr` (the paper's Algorithm 1, line 8).
    pub tolerance: Option<f64>,
    /// Iteration cap (`k_max`).
    pub max_iterations: Option<usize>,
    /// Host-solve precision; device-style backends always compute in `f32`.
    pub precision: Precision,
    /// Scoped threads for the host backend's planned stencil kernels (`None`
    /// = 1, the sequential path).  Results are bitwise identical for every
    /// thread count; device-style backends model their own parallelism and
    /// ignore this knob.
    pub threads: Option<usize>,
    /// Preconditioner of the Krylov loop (default: none, plain CG).
    pub preconditioner: PreconditionerKind,
}

impl SolveConfig {
    /// The tolerance to use for `workload`.
    pub fn effective_tolerance(&self, workload: &Workload) -> f64 {
        self.tolerance.unwrap_or_else(|| workload.tolerance())
    }

    /// The iteration cap to use for `workload`.
    pub fn effective_max_iterations(&self, workload: &Workload) -> usize {
        self.max_iterations
            .unwrap_or_else(|| workload.max_iterations())
    }

    /// The host apply-thread count (at least 1).
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or(1).max(1)
    }
}

/// Device-side section of a [`SolveReport`], for backends that model a device
/// (modelled seconds plus backend-specific counters).
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSection {
    /// Human-readable device description ("A100", "CS-2 region 16x16", …).
    pub device: String,
    /// Modelled device time of the solve, seconds.
    pub modelled_time_seconds: f64,
    /// Backend-specific named counters (fabric bytes, transfer bytes, FLOPs…).
    pub counters: Vec<(String, f64)>,
}

impl DeviceSection {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The unified result every backend produces.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Name of the backend that produced this report (unique within a run set).
    pub backend: String,
    /// The converged pressure field, normalized to `f64` for comparison across
    /// backends regardless of their native precision.
    pub pressure: CellField<f64>,
    /// Convergence history of the underlying Krylov solve.
    pub history: ConvergenceHistory,
    /// Max-norm of the residual of Eq. (3) at the returned pressure, evaluated
    /// on the host in `f64` — a backend-independent quality check.
    pub final_residual_max: f64,
    /// Wall-clock seconds of the host-side execution (not device time).
    pub host_wall_seconds: f64,
    /// Device-time model and counters, for backends that have one.
    pub device: Option<DeviceSection>,
    /// `Some(reason)` when a [`SolveMonitor`] or stop policy ended the solve
    /// early; the pressure and history then carry the partial state reached
    /// at the stop boundary.  `None` for solves that converged or exhausted
    /// their own iteration cap.
    pub stopped: Option<StopReason>,
}

impl SolveReport {
    /// Iterations performed by the underlying solve.
    pub fn iterations(&self) -> usize {
        self.history.iterations
    }

    /// Whether the solve met its tolerance before the iteration cap.
    pub fn converged(&self) -> bool {
        self.history.converged
    }

    /// Why the solve was stopped early, when it was.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stopped
    }

    /// Whether a monitor or stop policy ended the solve early.
    pub fn was_stopped(&self) -> bool {
        self.stopped.is_some()
    }

    /// Treat an early stop as an error: returns the report unchanged when the
    /// solve ran to its natural end, or [`SolveError::Stopped`] otherwise —
    /// the `?`-friendly strict form for callers that cannot use partial
    /// results.
    pub fn require_completed(self) -> Result<SolveReport, SolveError> {
        match self.stopped {
            None => Ok(self),
            Some(reason) => Err(SolveError::stopped(self.backend, reason)),
        }
    }

    /// Modelled device seconds, when the backend models a device.
    pub fn modelled_time(&self) -> Option<f64> {
        self.device.as_ref().map(|d| d.modelled_time_seconds)
    }

    /// Maximum absolute pressure difference against another backend's report.
    pub fn max_abs_diff(&self, other: &SolveReport) -> f64 {
        self.pressure.max_abs_diff(&other.pressure)
    }
}

/// Unified error type of the facade.
///
/// [`SolveError::Backend`] is a genuine failure: backends with structured
/// internal errors (the fabric simulator's `FabricError`) stringify into its
/// `detail`, and the backend name says where the failure came from.
/// [`SolveError::Stopped`] is the strict-caller form of an early stop (see
/// [`SolveReport::require_completed`]): not a failure of the backend, but an
/// error for code paths that need a completed solve.
///
/// Implements [`std::error::Error`], so `?` works against
/// `Box<dyn std::error::Error>`:
///
/// ```
/// use mffv_solver::backend::{HostBackend, SolveBackend, SolveConfig, SolveRequest};
/// use mffv_mesh::WorkloadSpec;
///
/// fn main() -> Result<(), Box<dyn std::error::Error>> {
///     let w = WorkloadSpec::quickstart().build();
///     let config = SolveConfig::default();
///     let report = HostBackend::oracle().solve(SolveRequest::new(&w, &config))?;
///     assert!(report.converged());
///     Ok(())
/// }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The backend failed to produce a report.
    Backend {
        /// Name of the failing backend.
        backend: String,
        /// Human-readable failure description.
        detail: String,
    },
    /// The solve was stopped early by a monitor, stop policy or cancellation
    /// — before it could run to its natural end.
    Stopped {
        /// Name of the stopped backend.
        backend: String,
        /// Why the session ended.
        reason: StopReason,
    },
}

impl SolveError {
    /// Build a failure error for `backend`.
    pub fn new(backend: impl Into<String>, detail: impl Into<String>) -> Self {
        SolveError::Backend {
            backend: backend.into(),
            detail: detail.into(),
        }
    }

    /// Build a stopped-session error for `backend`.
    pub fn stopped(backend: impl Into<String>, reason: StopReason) -> Self {
        SolveError::Stopped {
            backend: backend.into(),
            reason,
        }
    }

    /// Name of the backend the error came from.
    pub fn backend_name(&self) -> &str {
        match self {
            SolveError::Backend { backend, .. } | SolveError::Stopped { backend, .. } => backend,
        }
    }

    /// Human-readable description of what went wrong.
    pub fn detail(&self) -> String {
        match self {
            SolveError::Backend { detail, .. } => detail.clone(),
            SolveError::Stopped { reason, .. } => reason.to_string(),
        }
    }

    /// The stop reason, when this error records an early stop rather than a
    /// backend failure.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            SolveError::Backend { .. } => None,
            SolveError::Stopped { reason, .. } => Some(*reason),
        }
    }

    /// Whether this error records an early stop (cancellation, deadline, …)
    /// rather than a backend failure.
    pub fn is_stopped(&self) -> bool {
        matches!(self, SolveError::Stopped { .. })
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Backend { backend, detail } => {
                write!(f, "backend `{backend}` failed: {detail}")
            }
            SolveError::Stopped { backend, reason } => {
                write!(f, "backend `{backend}` stopped: {reason}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Max-norm of the Eq. (3) residual at `pressure`, evaluated in `f64` with the
/// workload's native `f64` coefficients — the backend-independent quality
/// check every [`SolveReport`] must carry regardless of solve precision.
pub fn final_residual_max_f64(workload: &Workload, pressure: &CellField<f64>) -> f64 {
    residual(pressure, workload.transmissibility(), workload.dirichlet()).max_abs()
}

/// Everything one solve takes: the problem, the settings, and how the caller
/// watches it.
///
/// [`SolveRequest::new`] is the plain one-shot form: a null monitor, a null
/// span and no cache.  The `with_*` methods attach each of the three.
///
/// ```
/// use mffv_solver::backend::{HostBackend, SolveBackend, SolveConfig, SolveRequest};
/// use mffv_solver::monitor::RecordingMonitor;
/// use mffv_mesh::WorkloadSpec;
///
/// let w = WorkloadSpec::quickstart().build();
/// let config = SolveConfig::default();
/// let mut recorder = RecordingMonitor::new();
/// let report = HostBackend::oracle()
///     .solve(SolveRequest::new(&w, &config).with_monitor(&mut recorder))
///     .unwrap();
/// assert_eq!(recorder.iteration_rrs().len(), report.iterations());
/// ```
pub struct SolveRequest<'a> {
    /// The problem to solve.
    pub workload: &'a Workload,
    /// Cross-backend solve settings.
    pub config: &'a SolveConfig,
    /// Receives a [`SolveEvent`](crate::monitor::SolveEvent) at every
    /// iteration boundary, with `rr` payloads bitwise identical to the
    /// report's `ConvergenceHistory` entries, and may stop the solve by
    /// returning [`Flow::Stop`](crate::monitor::Flow::Stop).  A stopped
    /// solve returns its partial report with [`SolveReport::stopped`] set.
    pub monitor: &'a mut dyn SolveMonitor,
    /// Phase spans are recorded under this span (see [`crate::trace`]); a
    /// null span records nothing.  Tracing never touches solve arithmetic:
    /// traced and untraced reports are bitwise identical.
    pub span: &'a Span,
    /// A worker-owned warm cache.  The host backend solves on its contexts
    /// (bitwise identical to a fresh context); device-style backends ignore
    /// it.
    pub cache: Option<&'a mut SolveContextCache>,
}

/// The span of an untraced request.
static NULL_SPAN: Span = Span::null();

impl<'a> SolveRequest<'a> {
    /// An unmonitored, untraced request that uses no cache.
    pub fn new(workload: &'a Workload, config: &'a SolveConfig) -> Self {
        Self {
            workload,
            config,
            // `NullMonitor` is zero-sized: boxing it allocates nothing, so
            // leaking the box is free.
            monitor: Box::leak(Box::new(NullMonitor)),
            span: &NULL_SPAN,
            cache: None,
        }
    }

    /// Observe (and possibly stop) the solve through `monitor`.
    pub fn with_monitor(mut self, monitor: &'a mut dyn SolveMonitor) -> Self {
        self.monitor = monitor;
        self
    }

    /// Record phase spans under `span`.
    pub fn with_span(mut self, span: &'a Span) -> Self {
        self.span = span;
        self
    }

    /// Solve on the worker-owned warm `cache`.
    pub fn with_cache(mut self, cache: &'a mut SolveContextCache) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// One pressure-solve target: host oracle, GPU-style reference, dataflow
/// fabric, or anything future PRs register.
///
/// The trait is object-safe.  [`solve`](Self::solve) is its one solve entry
/// point; every backend threads the request's monitor through its live inner
/// loop, so deadlines and cancellation take effect within one iteration
/// boundary.
pub trait SolveBackend {
    /// Unique, stable name ("host-f64", "gpu-ref-A100", "dataflow"…).
    fn name(&self) -> String;

    /// Solve `request.workload`'s pressure problem under `request.config`,
    /// reporting every iteration boundary to `request.monitor` and recording
    /// phase spans under `request.span`.  The monitor is wrapped in a
    /// [`TraceMonitor`](crate::trace::TraceMonitor), which mirrors the event
    /// stream into a `cg-loop` span with per-chunk `iters` children; backends
    /// add their own build spans (the host adds `build-operator`).
    fn solve(&self, request: SolveRequest<'_>) -> Result<SolveReport, SolveError>;

    /// The arithmetic precision this backend steps transient systems at.
    ///
    /// Defaults to `f64`; device-style backends (the paper's machines
    /// compute in single precision) override it to [`Precision::F32`], and
    /// the host backend reports its configured precision.
    fn step_precision(&self) -> Precision {
        Precision::F64
    }

    /// Advance one backward-Euler step of a transient scenario (see
    /// [`crate::transient`]): solve `(A + D + W) δ = r(pⁿ) + q(pⁿ)` and
    /// return `p^{n+1}`, with `monitor` threaded through the step's inner
    /// CG loop exactly like [`SolveRequest::monitor`].
    ///
    /// The default implementation runs the shared shifted-CG step on the
    /// host's planned stencil kernels at [`step_precision`](Self::step_precision)
    /// — every backend therefore supports transient simulation out of the
    /// box, in its native arithmetic, with the same bitwise thread-count
    /// independence as steady solves.  Backends with genuinely different
    /// stepping machinery can override it.
    fn step(
        &self,
        request: &StepRequest<'_>,
        config: &SolveConfig,
        monitor: &mut dyn SolveMonitor,
    ) -> Result<StepOutcome, SolveError> {
        self.transient_session(request.workload, config)?
            .step(request, config, monitor)
    }

    /// Arm a stepping session for a whole transient run: the returned
    /// [`TransientStepper`] may cache per-run kernel state (the default one
    /// builds the planned operator once and swaps only the `Δt`-dependent
    /// diagonal between steps), producing outcomes bitwise identical to
    /// repeated [`step`](Self::step) calls.
    /// [`run_transient`](crate::transient::run_transient) drives the
    /// schedule through one session.
    fn transient_session(
        &self,
        workload: &Workload,
        config: &SolveConfig,
    ) -> Result<Box<dyn TransientStepper>, SolveError> {
        Ok(match self.step_precision() {
            Precision::F64 => Box::new(PlannedStepper::<f64>::new(workload, config)),
            Precision::F32 => Box::new(PlannedStepper::<f32>::new(workload, config)),
        })
    }
}

/// The host oracle: matrix-free CG or PCG at a selectable precision, no
/// device model.  Every solve runs [`SolveContext::solve`], on the request's
/// cache when it carries one and on a fresh one-shot context otherwise.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostBackend {
    /// Arithmetic precision of the solve.
    pub precision: Precision,
}

impl HostBackend {
    /// The §V-B oracle configuration: `f64`.
    pub fn oracle() -> Self {
        Self {
            precision: Precision::F64,
        }
    }

    /// A host solve at the paper's device precision, `f32`.
    pub fn f32() -> Self {
        Self {
            precision: Precision::F32,
        }
    }

    /// Run one solve on `ctx` and assemble its report.
    fn solve_on<T: Scalar>(
        &self,
        ctx: &mut SolveContext<T>,
        workload: &Workload,
        config: &SolveConfig,
        monitor: &mut dyn SolveMonitor,
        span: &Span,
    ) -> SolveReport {
        let start = Stopwatch::start();
        let stopped = ctx.solve(workload, config, monitor, span);
        let pressure: CellField<f64> = ctx.pressure().convert();
        let final_residual_max = match self.precision {
            Precision::F64 => ctx.final_residual_max(),
            // Re-evaluate the residual in f64 so the field keeps its
            // backend-independent contract (the f32 solve evaluated it in
            // device precision).
            Precision::F32 => final_residual_max_f64(workload, &pressure),
        };
        SolveReport {
            backend: self.name(),
            pressure,
            history: ctx.history().clone(),
            final_residual_max,
            host_wall_seconds: start.elapsed().as_secs_f64(),
            device: None,
            stopped,
        }
    }
}

impl SolveBackend for HostBackend {
    fn name(&self) -> String {
        format!("host-{}", self.precision.label())
    }

    fn step_precision(&self) -> Precision {
        self.precision
    }

    fn solve(&self, request: SolveRequest<'_>) -> Result<SolveReport, SolveError> {
        let SolveRequest {
            workload,
            config,
            monitor,
            span,
            cache,
        } = request;
        Ok(match (self.precision, cache) {
            (Precision::F64, Some(cache)) => {
                self.solve_on(&mut cache.f64_context, workload, config, monitor, span)
            }
            (Precision::F32, Some(cache)) => {
                self.solve_on(&mut cache.f32_context, workload, config, monitor, span)
            }
            (Precision::F64, None) => self.solve_on(
                &mut SolveContext::<f64>::one_shot(),
                workload,
                config,
                monitor,
                span,
            ),
            (Precision::F32, None) => self.solve_on(
                &mut SolveContext::<f32>::one_shot(),
                workload,
                config,
                monitor,
                span,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::workload::WorkloadSpec;

    #[test]
    fn default_config_uses_workload_settings() {
        let w = WorkloadSpec::quickstart().build();
        let c = SolveConfig::default();
        assert_eq!(c.effective_tolerance(&w), w.tolerance());
        assert_eq!(c.effective_max_iterations(&w), w.max_iterations());
        let tight = SolveConfig {
            tolerance: Some(1e-14),
            max_iterations: Some(7),
            ..c
        };
        assert_eq!(tight.effective_tolerance(&w), 1e-14);
        assert_eq!(tight.effective_max_iterations(&w), 7);
    }

    #[test]
    fn host_backend_solves_and_reports() {
        let w = WorkloadSpec::quickstart().build();
        let report = HostBackend::oracle()
            .solve(SolveRequest::new(&w, &SolveConfig::default()))
            .unwrap();
        assert_eq!(report.backend, "host-f64");
        assert!(report.converged());
        assert!(report.iterations() > 0);
        assert!(report.final_residual_max < 1e-6);
        assert!(report.device.is_none());
        assert!(report.modelled_time().is_none());
    }

    #[test]
    fn host_precisions_agree_to_single_precision() {
        let w = WorkloadSpec::quickstart().build();
        let config = SolveConfig {
            tolerance: Some(1e-10),
            ..SolveConfig::default()
        };
        let f64_report = HostBackend::oracle()
            .solve(SolveRequest::new(&w, &config))
            .unwrap();
        let f32_report = HostBackend::f32()
            .solve(SolveRequest::new(&w, &config))
            .unwrap();
        assert_eq!(f32_report.backend, "host-f32");
        assert!(f64_report.max_abs_diff(&f32_report) < 1e-3);
    }

    #[test]
    fn device_section_counter_lookup() {
        let section = DeviceSection {
            device: "test".into(),
            modelled_time_seconds: 1.0,
            counters: vec![("flops".into(), 42.0)],
        };
        assert_eq!(section.counter("flops"), Some(42.0));
        assert_eq!(section.counter("missing"), None);
    }

    #[test]
    fn solve_error_displays_backend_and_detail() {
        let e = SolveError::new("dataflow", "out of local memory");
        let msg = e.to_string();
        assert!(msg.contains("dataflow") && msg.contains("out of local memory"));
        assert_eq!(e.backend_name(), "dataflow");
        assert!(!e.is_stopped());
        let s = SolveError::stopped("host-f64", StopReason::DeadlineExpired);
        assert_eq!(s.stop_reason(), Some(StopReason::DeadlineExpired));
        assert!(s.to_string().contains("stopped: deadline expired"), "{s}");
        // Both variants box into std::error::Error.
        let _: Box<dyn std::error::Error> = Box::new(s);
    }

    #[test]
    fn host_backend_reports_a_deadline_stop_with_partial_state() {
        use crate::monitor::StopPolicy;
        let w = WorkloadSpec::quickstart().build();
        let config = SolveConfig {
            tolerance: Some(1e-14),
            ..SolveConfig::default()
        };
        let mut session = StopPolicy::new()
            .deadline(std::time::Duration::ZERO)
            .session();
        let report = HostBackend::oracle()
            .solve(SolveRequest::new(&w, &config).with_monitor(&mut session))
            .unwrap();
        assert_eq!(report.stopped, Some(StopReason::DeadlineExpired));
        assert!(!report.converged());
        assert_eq!(report.iterations(), 0);
        assert!(report.history.initial_rr() > 0.0);
        let err = report.require_completed().unwrap_err();
        assert_eq!(err.stop_reason(), Some(StopReason::DeadlineExpired));
    }
}
