//! [`SolveBackend`] implementation for the dataflow-fabric solver.
//!
//! This is the *only* module that constructs [`DataflowFvSolver`] directly;
//! everything else (examples, benches, tests) goes through the `mffv`
//! `Simulation` facade, which instantiates this backend.  The facade's
//! [`SolveConfig`](mffv_solver::backend::SolveConfig) carries the
//! cross-backend tolerance/iteration settings and takes precedence over any
//! overrides already present in the dataflow-specific [`SolverOptions`].

use crate::options::SolverOptions;
use crate::solver::{DataflowFvSolver, DataflowSolveReport};
use mffv_fabric::WseSpec;
use mffv_solver::backend::{
    DeviceSection, Precision, PreconditionerKind, SolveBackend, SolveError, SolveReport,
    SolveRequest,
};
use mffv_solver::trace::TraceMonitor;

/// The simulated WSE-2 dataflow fabric as a facade backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataflowBackend {
    /// The §III-E optimisation toggles (buffer reuse, overlap, vectorisation,
    /// communication-only mode).
    pub options: SolverOptions,
    /// Machine spec for the device-time model; `None` models a CS-2 region
    /// matching the problem's fabric footprint (the historical default).
    pub spec: Option<WseSpec>,
}

impl DataflowBackend {
    /// The paper's production configuration: every optimisation on, device time
    /// modelled on a problem-sized CS-2 region.
    pub fn paper() -> Self {
        Self {
            options: SolverOptions::paper(),
            spec: None,
        }
    }

    /// A backend with explicit dataflow options.
    pub fn with_options(options: SolverOptions) -> Self {
        Self {
            options,
            spec: None,
        }
    }

    /// Override the machine spec used by the device-time model.
    pub fn with_spec(mut self, spec: WseSpec) -> Self {
        self.spec = Some(spec);
        self
    }
}

impl DataflowBackend {
    /// Wrap the internal [`DataflowSolveReport`] into the unified shape.
    fn unify(&self, spec: WseSpec, report: DataflowSolveReport) -> SolveReport {
        let device = DeviceSection {
            device: format!("CS-2 region {}x{}", spec.fabric.width, spec.fabric.height),
            modelled_time_seconds: report.modelled_time.total,
            counters: vec![
                (
                    "total_flops".to_string(),
                    report.stats.total_compute.flops as f64,
                ),
                (
                    "total_mem_bytes".to_string(),
                    report.stats.total_compute.mem_bytes() as f64,
                ),
                (
                    "total_fabric_recv_wavelets".to_string(),
                    report.stats.total_compute.fabric_recv_wavelets as f64,
                ),
                (
                    "fabric_link_bytes".to_string(),
                    report.stats.fabric.link_bytes as f64,
                ),
                (
                    "fabric_messages".to_string(),
                    report.stats.fabric.messages_sent as f64,
                ),
                (
                    "critical_path_hops".to_string(),
                    report.stats.critical_path_hops as f64,
                ),
                (
                    "memory_plan_bytes".to_string(),
                    report.memory_plan.data_bytes() as f64,
                ),
                (
                    "compute_time_seconds".to_string(),
                    report.modelled_time.compute_time,
                ),
                (
                    "fabric_time_seconds".to_string(),
                    report.modelled_time.fabric_time,
                ),
                (
                    "latency_time_seconds".to_string(),
                    report.modelled_time.latency_time,
                ),
            ],
        };
        SolveReport {
            backend: self.name(),
            pressure: report.pressure.convert(),
            history: report.history,
            final_residual_max: report.final_residual_max,
            host_wall_seconds: report.stats.host_wall_seconds,
            device: Some(device),
            stopped: report.stopped,
        }
    }
}

impl SolveBackend for DataflowBackend {
    fn name(&self) -> String {
        "dataflow".to_string()
    }

    /// Transient steps run at the fabric's native precision (`f32`, §III —
    /// the PEs compute in single precision).
    fn step_precision(&self) -> Precision {
        Precision::F32
    }

    /// Run the solve behind the facade's config, threading the request's
    /// monitor through the state machine.  The facade's settings win over
    /// any overrides baked into the options; communication-only runs keep
    /// their forced iteration count.
    fn solve(&self, request: SolveRequest<'_>) -> Result<SolveReport, SolveError> {
        let SolveRequest {
            workload,
            config,
            monitor,
            span,
            ..
        } = request;
        let mut options = self.options;
        if let Some(tolerance) = config.tolerance {
            options = options.with_tolerance(tolerance);
        }
        if let Some(max_iterations) = config.max_iterations {
            options = options.with_max_iterations(max_iterations);
        }
        // An explicit facade selection wins; the default (`None`) leaves any
        // dataflow-specific choice in place.
        if config.preconditioner != PreconditionerKind::None {
            options = options.with_preconditioner(config.preconditioner);
        }
        let build = span.child("build-fabric-program");
        let solver = match self.spec {
            Some(spec) => DataflowFvSolver::with_spec(workload, options, spec),
            None => DataflowFvSolver::new(workload, options),
        };
        build.finish();
        let spec = *solver.spec();
        let report = solver
            .solve(&mut TraceMonitor::new(span, monitor))
            .map_err(|e| SolveError::new(self.name(), e.to_string()))?;
        Ok(self.unify(spec, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_solver::backend::{HostBackend, SolveConfig};

    #[test]
    fn backend_solves_and_matches_the_host_oracle() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let config = SolveConfig {
            tolerance: Some(1e-10),
            ..SolveConfig::default()
        };
        let dataflow = DataflowBackend::paper()
            .solve(SolveRequest::new(&w, &config))
            .unwrap();
        let oracle = HostBackend::oracle()
            .solve(SolveRequest::new(&w, &config))
            .unwrap();
        assert!(dataflow.converged());
        assert!(dataflow.max_abs_diff(&oracle) < 1e-3);
        let device = dataflow
            .device
            .expect("dataflow backend must model a device");
        assert!(device.modelled_time_seconds > 0.0);
        assert!(device.counter("fabric_link_bytes").unwrap() > 0.0);
        assert!(device.counter("critical_path_hops").unwrap() > 0.0);
        assert!(device.device.starts_with("CS-2 region"));
    }

    #[test]
    fn communication_only_mode_survives_the_facade_config() {
        let w = WorkloadSpec::quickstart().scaled(2).build();
        let backend = DataflowBackend::with_options(SolverOptions::communication_only(5));
        let report = backend
            .solve(SolveRequest::new(&w, &SolveConfig::default()))
            .unwrap();
        assert_eq!(report.iterations(), 5);
        let device = report.device.unwrap();
        assert!(device.counter("fabric_link_bytes").unwrap() > 0.0);
    }

    #[test]
    fn explicit_spec_changes_the_device_label() {
        let w = WorkloadSpec::quickstart().scaled(4).build();
        let backend = DataflowBackend::paper().with_spec(WseSpec::cs2());
        let report = backend
            .solve(SolveRequest::new(&w, &SolveConfig::default()))
            .unwrap();
        assert_eq!(report.device.unwrap().device, "CS-2 region 750x994");
    }
}
