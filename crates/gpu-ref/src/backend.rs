//! [`SolveBackend`] implementation for the GPU-style reference (§IV).
//!
//! The paper's reference keeps the CG loop on the host and launches one kernel
//! per operator application; dot products and vector updates are further device
//! kernels.  [`GpuRefBackend::solve`] expresses the same structure by running
//! `mffv_solver`'s CG on top of [`GpuMatrixFreeOperator`], counting the
//! host ↔ device bytes alongside.  It is the crate's only solve entry point;
//! examples, benches and tests reach it through the `mffv` `Simulation` facade
//! or the engine.
//!
//! "Memory is allocated on both host and device memory … we copy all data from
//! host to device memory … we avoid … frequent data transfers between host and
//! device memory" (§IV): the problem is uploaded once up front and the solution
//! downloaded once at the end.  Only the host-assisted multigrid V-cycle moves
//! data per iteration.

use crate::device_model::{GpuSpec, GpuTimeModel};
use crate::kernel::GpuMatrixFreeOperator;
use mffv_mesh::CellField;
use mffv_solver::backend::{
    final_residual_max_f64, DeviceSection, Precision, PreconditionerKind, SolveBackend, SolveError,
    SolveReport, SolveRequest,
};
use mffv_solver::cg::ConjugateGradient;
use mffv_solver::monitor::StopReason;
use mffv_solver::newton::solve_pressure_with;
use mffv_solver::pcg::JacobiPreconditioner;
use mffv_solver::{MgConfig, MultigridVcycle, Preconditioner};

/// The GPU-style reference as a facade backend: the CUDA block/thread kernel
/// structure executed on the host, with device time modelled on `spec`.
#[derive(Clone, Copy, Debug)]
pub struct GpuRefBackend {
    /// The modelled GPU.
    pub spec: GpuSpec,
}

impl GpuRefBackend {
    /// Reference backend on a given modelled GPU.
    pub fn new(spec: GpuSpec) -> Self {
        Self { spec }
    }

    /// The paper's primary comparison GPU, the A100.
    pub fn a100() -> Self {
        Self::new(GpuSpec::a100())
    }

    /// The paper's H100 configuration.
    pub fn h100() -> Self {
        Self::new(GpuSpec::h100())
    }
}

impl Default for GpuRefBackend {
    fn default() -> Self {
        Self::a100()
    }
}

impl SolveBackend for GpuRefBackend {
    fn name(&self) -> String {
        format!("gpu-ref-{}", self.spec.name)
    }

    /// Transient steps run at the device precision (`f32`), like every other
    /// computation this backend models.
    fn step_precision(&self) -> Precision {
        Precision::F32
    }

    /// Run the reference solve as an observable, cancellable session: the
    /// host-resident CG loop reports every iteration boundary to the
    /// request's monitor, which may stop the solve early.  The partial
    /// pressure and history are still downloaded and reported.  Jacobi is one
    /// extra elementwise device kernel per iteration; the multigrid V-cycle
    /// runs host-assisted, with the residual downloaded and the correction
    /// uploaded per application.
    fn solve(&self, request: SolveRequest<'_>) -> Result<SolveReport, SolveError> {
        let SolveRequest {
            workload,
            config,
            monitor,
            span,
            ..
        } = request;
        // audit: allow(wall-clock) — telemetry: feeds the report's elapsed
        // seconds, never a numeric decision.
        #[allow(clippy::disallowed_methods)]
        let start = std::time::Instant::now();
        let dims = workload.dims();
        let column_bytes = dims.num_cells() * 4;

        let build = span.child("build-device-model");
        let operator = GpuMatrixFreeOperator::from_workload(workload);
        // Initial upload: coefficients, mask, pressure and rhs.
        let mut host_to_device_bytes = operator.device_arrays().bytes() + 2 * column_bytes;
        let (jacobi, mg);
        let preconditioner: Option<&dyn Preconditioner<f32>> = match config.preconditioner {
            PreconditionerKind::None => None,
            PreconditionerKind::Jacobi => {
                // The inverse diagonal lives on the device: one extra upload,
                // no per-iteration transfers.
                host_to_device_bytes += column_bytes;
                let coeffs = workload.transmissibility().convert::<f32>();
                jacobi = JacobiPreconditioner::from_coefficients(&coeffs, workload.dirichlet());
                Some(&jacobi)
            }
            PreconditionerKind::Mg => {
                mg = MultigridVcycle::<f32>::from_workload(workload, 1, MgConfig::default());
                Some(&mg)
            }
        };
        build.finish();

        let solver = ConjugateGradient::with_tolerance(
            config.effective_tolerance(workload),
            config.effective_max_iterations(workload),
        );
        let solution = solve_pressure_with::<f32, _>(
            workload,
            &operator,
            preconditioner,
            &solver,
            monitor,
            span,
        );
        let iterations = solution.history.iterations;
        // Final download of the pressure field.
        let mut device_to_host_bytes = column_bytes;
        if config.preconditioner == PreconditionerKind::Mg {
            // Each V-cycle downloads the residual and uploads the correction.
            // CG applies M⁻¹ for z₀ and after every iteration that neither
            // converged nor was stopped by the monitor, so a solve that ended
            // at an iteration boundary k ≥ 1 made k applies; a cap-exhausted
            // or broken-down one made k + 1.
            let ended_at_boundary = iterations >= 1
                && (solution.history.converged
                    || solution
                        .stopped
                        .is_some_and(|reason| reason != StopReason::Breakdown));
            let applies = if ended_at_boundary {
                iterations
            } else {
                iterations + 1
            };
            device_to_host_bytes += applies * column_bytes;
            host_to_device_bytes += applies * column_bytes;
        }

        let pressure: CellField<f64> = solution.pressure.convert();
        // The solve evaluated its residual in device (f32) precision;
        // re-evaluate in f64 so the report stays backend-independent.
        let final_residual_max = final_residual_max_f64(workload, &pressure);
        let device = DeviceSection {
            device: self.spec.name.to_string(),
            modelled_time_seconds: GpuTimeModel::new(self.spec).cg_time(dims, iterations),
            counters: vec![
                (
                    "host_to_device_bytes".to_string(),
                    host_to_device_bytes as f64,
                ),
                (
                    "device_to_host_bytes".to_string(),
                    device_to_host_bytes as f64,
                ),
            ],
        };
        Ok(SolveReport {
            backend: self.name(),
            pressure,
            history: solution.history,
            final_residual_max,
            host_wall_seconds: start.elapsed().as_secs_f64(),
            device: Some(device),
            stopped: solution.stopped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::workload::WorkloadSpec;
    use mffv_mesh::Dims;
    use mffv_solver::backend::{HostBackend, SolveConfig};
    use mffv_solver::monitor::{NullMonitor, SolveMonitor, StopPolicy};

    fn config(tolerance: f64, preconditioner: PreconditionerKind) -> SolveConfig {
        SolveConfig {
            tolerance: Some(tolerance),
            preconditioner,
            ..SolveConfig::default()
        }
    }

    fn counter(report: &SolveReport, name: &str) -> f64 {
        report.device.as_ref().unwrap().counter(name).unwrap()
    }

    #[test]
    fn backend_names_identify_the_gpu() {
        assert_eq!(GpuRefBackend::a100().name(), "gpu-ref-A100");
        assert_eq!(GpuRefBackend::h100().name(), "gpu-ref-H100");
    }

    #[test]
    fn backend_report_matches_host_oracle_and_models_the_device() {
        let w = WorkloadSpec::quickstart().build();
        let config = config(1e-10, PreconditionerKind::None);
        let gpu = GpuRefBackend::a100()
            .solve(SolveRequest::new(&w, &config))
            .unwrap();
        let oracle = HostBackend::oracle()
            .solve(SolveRequest::new(&w, &config))
            .unwrap();
        assert!(gpu.converged());
        assert!(gpu.max_abs_diff(&oracle) < 1e-3);
        assert!(gpu.final_residual_max < 1e-3);
        let device = gpu
            .device
            .as_ref()
            .expect("gpu backend must model a device");
        assert_eq!(device.device, "A100");
        assert!(device.modelled_time_seconds > 0.0);
        assert!(counter(&gpu, "host_to_device_bytes") > 0.0);
        assert!(counter(&gpu, "device_to_host_bytes") > 0.0);
    }

    #[test]
    fn preconditioned_paths_match_the_unpreconditioned_solve() {
        let w = WorkloadSpec::quickstart().build();
        let base = GpuRefBackend::a100()
            .solve(SolveRequest::new(
                &w,
                &config(1e-12, PreconditionerKind::None),
            ))
            .unwrap();
        for kind in [PreconditionerKind::Jacobi, PreconditionerKind::Mg] {
            let report = GpuRefBackend::a100()
                .solve(SolveRequest::new(&w, &config(1e-12, kind)))
                .unwrap();
            assert!(report.converged(), "{} did not converge", kind.label());
            let diff = report.max_abs_diff(&base);
            assert!(diff < 1e-3, "{} pressure gap {diff}", kind.label());
        }
    }

    #[test]
    fn multigrid_transfers_count_one_round_trip_per_v_cycle() {
        let w = WorkloadSpec::quickstart().build();
        let column_bytes = (w.dims().num_cells() * 4) as f64;
        let solve = |kind, monitor: &mut dyn SolveMonitor| {
            GpuRefBackend::a100()
                .solve(SolveRequest::new(&w, &config(1e-12, kind)).with_monitor(monitor))
                .unwrap()
        };
        let none = solve(PreconditionerKind::None, &mut NullMonitor);
        let extra = |report: &SolveReport| {
            (
                counter(report, "device_to_host_bytes") - counter(&none, "device_to_host_bytes"),
                counter(report, "host_to_device_bytes") - counter(&none, "host_to_device_bytes"),
            )
        };

        // Converged at k: z₀ plus one apply after each of the k − 1
        // non-final iterations.
        let converged = solve(PreconditionerKind::Mg, &mut NullMonitor);
        assert!(converged.converged());
        let k = converged.iterations() as f64;
        assert!(k >= 2.0, "{k}");
        assert_eq!(extra(&converged), (k * column_bytes, k * column_bytes));

        // Stopped by an iteration budget at an iteration boundary: the same.
        let mut session = StopPolicy::new().iteration_budget(1).session();
        let stopped = solve(PreconditionerKind::Mg, &mut session);
        assert_eq!(stopped.stopped, Some(StopReason::IterationBudget));
        assert_eq!(stopped.iterations(), 1);
        assert_eq!(extra(&stopped), (column_bytes, column_bytes));

        // Exhausting the iteration cap applies M⁻¹ after the last iteration
        // too.
        let capped_config = SolveConfig {
            max_iterations: Some(2),
            ..config(1e-30, PreconditionerKind::Mg)
        };
        let capped = GpuRefBackend::a100()
            .solve(SolveRequest::new(&w, &capped_config))
            .unwrap();
        assert!(!capped.converged() && capped.stopped.is_none());
        assert_eq!(extra(&capped), (3.0 * column_bytes, 3.0 * column_bytes));
    }

    #[test]
    fn transfers_and_model_are_populated() {
        let w = WorkloadSpec::fig5(Dims::new(8, 6, 5)).build();
        let report = GpuRefBackend::h100()
            .solve(SolveRequest::new(
                &w,
                &config(1e-12, PreconditionerKind::None),
            ))
            .unwrap();
        assert!(counter(&report, "host_to_device_bytes") > 0.0);
        assert!(counter(&report, "device_to_host_bytes") > 0.0);
        assert!(report.device.as_ref().unwrap().modelled_time_seconds > 0.0);
        assert!(report.host_wall_seconds > 0.0);
    }

    #[test]
    fn a100_is_modelled_slower_than_h100() {
        let w = WorkloadSpec::quickstart().build();
        let config = config(1e-8, PreconditionerKind::None);
        let a = GpuRefBackend::a100()
            .solve(SolveRequest::new(&w, &config))
            .unwrap();
        let h = GpuRefBackend::h100()
            .solve(SolveRequest::new(&w, &config))
            .unwrap();
        assert!(a.modelled_time().unwrap() > h.modelled_time().unwrap());
    }
}
