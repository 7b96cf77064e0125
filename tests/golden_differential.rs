//! Golden/differential tests: host vs gpu-ref vs dataflow transient
//! trajectories compared against each other and against pinned fixtures,
//! plus pinned steady solves for every host Krylov configuration and the
//! preconditioned device paths.
//!
//! The long per-step solve chains of transient simulation are where silent
//! numerical drift hides; these tests pin the full 50-step trajectories as
//! bitwise checksums under `tests/golden/` (regenerate with
//! `MFFV_BLESS=1 cargo test`, see `tests/common/mod.rs`) and assert the
//! cross-backend agreement tolerances stated inline.

use mffv::prelude::*;
use mffv_mesh::permeability::PermeabilityModel;
use mffv_mesh::workload::BoundarySpec;
use mffv_mesh::CellIndex;

mod common;

/// The shared 50-step well-driven scenario: producer boundary pressure on
/// the X faces, a scheduled rate injector and a BHP producer.
fn scenario() -> (Workload, TransientSpec) {
    let dims = Dims::new(10, 8, 6);
    let workload = WorkloadSpec {
        name: "golden-transient".into(),
        boundary: BoundarySpec::XFaces {
            left_pressure: 10.0,
            right_pressure: 8.0,
        },
        dims,
        tolerance: 1e-9,
        ..WorkloadSpec::quickstart()
    }
    .build();
    let spec = TransientSpec::new(10.0, 0.2, 1e-3)
        .with_wells(
            WellSet::empty()
                .with(Well::rate("inj", CellIndex::new(4, 4, 3), 1.5).scheduled(0.0, 6.0))
                .with(Well::bhp("prod", CellIndex::new(7, 2, 1), 6.0, 0.8)),
        )
        .with_initial_pressure(9.0)
        .with_snapshots([2.0, 10.0]);
    (workload, spec)
}

fn run(backend: Backend) -> TransientReport {
    let (workload, spec) = scenario();
    Simulation::new(workload)
        .backend(backend)
        .transient(&spec)
        .unwrap()
}

fn golden_record(name: &str, report: &TransientReport) -> common::Golden {
    common::Golden::new(name)
        .str("backend", &report.backend)
        .int("steps", report.num_steps())
        .int("total_iterations", report.total_iterations())
        .str(
            "trajectory_checksum",
            common::fields_checksum(report.steps.iter().map(|s| &s.report.pressure)),
        )
        .str(
            "final_pressure_checksum",
            common::field_checksum(report.final_pressure()),
        )
        .num("injected_m3", report.total_injected())
        .num("produced_m3", report.total_produced())
}

#[test]
fn host_transient_trajectory_matches_the_pinned_fixture() {
    let report = run(Backend::host());
    assert_eq!(report.num_steps(), 50);
    assert!(report.all_converged());
    golden_record("transient_host_f64", &report).check();
}

#[test]
fn device_transient_trajectory_matches_the_pinned_fixture() {
    // gpu-ref steps at the device precision (f32); its trajectory is pinned
    // separately from the f64 oracle.
    let report = run(Backend::gpu_ref());
    assert_eq!(report.num_steps(), 50);
    assert!(report.all_converged());
    golden_record("transient_gpu_ref", &report).check();
}

/// A ramp-dt scenario whose BHP producer switches on mid-run, so both Δt and
/// the well productivity change the step diagonal between steps (and the
/// late fixed-size steps repeat it).  The grid is large enough for a
/// two-level multigrid hierarchy.
fn ramp_scenario() -> (Workload, TransientSpec) {
    let workload = WorkloadSpec {
        name: "golden-ramp".into(),
        boundary: BoundarySpec::XFaces {
            left_pressure: 10.0,
            right_pressure: 8.0,
        },
        dims: Dims::new(24, 16, 12),
        ..WorkloadSpec::quickstart()
    }
    .build();
    let spec = TransientSpec::new(6.0, 0.1, 1e-3)
        .with_dt_policy(DtPolicy::ramp(0.1, 1.5, 1.0))
        .with_wells(
            WellSet::empty()
                .with(Well::rate("inj", CellIndex::new(8, 8, 6), 1.5))
                .with(Well::bhp("prod", CellIndex::new(17, 5, 3), 6.0, 0.8).scheduled(2.0, 10.0)),
        )
        .with_initial_pressure(9.0);
    (workload, spec)
}

#[test]
fn preconditioned_transient_trajectories_match_the_pinned_fixtures() {
    let (workload, spec) = ramp_scenario();
    for (name, precision, kind) in [
        (
            "transient_host_f64_jacobi",
            Precision::F64,
            PreconditionerKind::Jacobi,
        ),
        (
            "transient_host_f64_mg",
            Precision::F64,
            PreconditionerKind::Mg,
        ),
        (
            "transient_host_f32_jacobi",
            Precision::F32,
            PreconditionerKind::Jacobi,
        ),
    ] {
        let report = Simulation::new(workload.clone())
            .tolerance(1e-18)
            .precision(precision)
            .preconditioner(kind)
            .transient(&spec)
            .unwrap();
        assert_eq!(report.num_steps(), 10, "{name}");
        assert!(report.all_converged(), "{name}");
        golden_record(name, &report).check();
    }
}

/// A small heterogeneous steady problem: log-normal permeability over a
/// grid large enough for a two-level multigrid hierarchy.
fn steady_workload() -> Workload {
    WorkloadSpec {
        name: "golden-steady".into(),
        dims: Dims::new(24, 16, 12),
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 1.5,
            seed: 7,
        },
        ..WorkloadSpec::quickstart()
    }
    .build()
}

#[test]
fn steady_solves_match_the_pinned_fixtures() {
    let workload = steady_workload();
    for (name, backend, tolerance, kind) in [
        (
            "steady_host_f64_none",
            Backend::host(),
            1e-18,
            PreconditionerKind::None,
        ),
        (
            "steady_host_f64_jacobi",
            Backend::host(),
            1e-18,
            PreconditionerKind::Jacobi,
        ),
        (
            "steady_host_f64_mg",
            Backend::host(),
            1e-18,
            PreconditionerKind::Mg,
        ),
        (
            "steady_host_f32_none",
            Backend::host_f32(),
            1e-10,
            PreconditionerKind::None,
        ),
        (
            "steady_host_f32_jacobi",
            Backend::host_f32(),
            1e-10,
            PreconditionerKind::Jacobi,
        ),
        (
            "steady_gpu_ref_none",
            Backend::gpu_ref(),
            1e-10,
            PreconditionerKind::None,
        ),
        (
            "steady_gpu_ref_jacobi",
            Backend::gpu_ref(),
            1e-10,
            PreconditionerKind::Jacobi,
        ),
        (
            "steady_gpu_ref_mg",
            Backend::gpu_ref(),
            1e-10,
            PreconditionerKind::Mg,
        ),
        (
            "steady_dataflow_jacobi",
            Backend::dataflow(),
            1e-10,
            PreconditionerKind::Jacobi,
        ),
        (
            "steady_dataflow_mg",
            Backend::dataflow(),
            1e-10,
            PreconditionerKind::Mg,
        ),
    ] {
        let report = Simulation::new(workload.clone())
            .tolerance(tolerance)
            .preconditioner(kind)
            .run_backend(&backend)
            .unwrap();
        assert!(report.converged(), "{name}");
        let mut golden = common::Golden::new(name)
            .str("backend", &report.backend)
            .int("iterations", report.iterations())
            .num("final_rr", report.history.final_rr())
            .str(
                "pressure_checksum",
                common::field_checksum(&report.pressure),
            )
            .num("final_residual_max", report.final_residual_max);
        // The dataflow entries also pin the modelled device time and every
        // device counter, in report order.  The gpu-ref entries leave their
        // host/device transfer counters out.
        if report.backend == "dataflow" {
            let device = report.device.as_ref().expect("dataflow models a device");
            golden = golden.num("modelled_time_seconds", device.modelled_time_seconds);
            for (counter, value) in &device.counters {
                golden = golden.num(counter, *value);
            }
        }
        golden.check();
    }
}

#[test]
fn cross_backend_transient_trajectories_agree_within_tolerance() {
    let (workload, spec) = scenario();
    let outcomes = Simulation::new(workload).transient_all(&spec);
    assert_eq!(outcomes.len(), 3);
    let reports: Vec<&TransientReport> = outcomes
        .iter()
        .map(|(b, o)| o.as_ref().unwrap_or_else(|e| panic!("{}: {e}", b.name())))
        .collect();
    let host = reports[0];
    assert_eq!(host.backend, "host-f64");

    // Stated tolerance: pressures are O(10) Pa in this scenario and the
    // device backends integrate 50 steps in f32, so trajectories may drift
    // by single-precision accumulation — 5e-3 absolute per cell, per step.
    const TOLERANCE: f64 = 5e-3;
    for report in &reports[1..] {
        assert_eq!(report.num_steps(), host.num_steps(), "{}", report.backend);
        for (h, d) in host.steps.iter().zip(report.steps.iter()) {
            let diff = h.report.pressure.max_abs_diff(&d.report.pressure);
            assert!(
                diff < TOLERANCE,
                "{} step {}: |Δp|∞ = {diff}",
                report.backend,
                h.index
            );
        }
        // Cumulative well ledgers agree to the same order.
        assert!((report.total_injected() - host.total_injected()).abs() < 1e-2);
        assert!((report.total_produced() - host.total_produced()).abs() < 1e-2);
    }

    // Both device-style backends inherit the default f32 step and must agree
    // with each other *bitwise* — any divergence means one of them grew a
    // different stepping path without its own golden coverage.
    let gpu = reports
        .iter()
        .find(|r| r.backend.starts_with("gpu-ref"))
        .unwrap();
    let dataflow = reports.iter().find(|r| r.backend == "dataflow").unwrap();
    assert_eq!(
        common::fields_checksum(gpu.steps.iter().map(|s| &s.report.pressure)),
        common::fields_checksum(dataflow.steps.iter().map(|s| &s.report.pressure)),
        "gpu-ref and dataflow default f32 steps must stay bitwise identical"
    );
}

#[test]
fn snapshots_capture_the_requested_times_identically_across_backends() {
    let host = run(Backend::host());
    let gpu = run(Backend::gpu_ref());
    assert_eq!(host.snapshots.len(), 2);
    assert_eq!(gpu.snapshots.len(), 2);
    for (h, g) in host.snapshots.iter().zip(gpu.snapshots.iter()) {
        assert_eq!(h.time, g.time);
        assert!(h.pressure.max_abs_diff(&g.pressure) < 5e-3);
    }
}
