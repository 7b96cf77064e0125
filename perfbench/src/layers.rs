//! Per-layer probes: timed calls into each layer's public functions, made
//! from the benchmark on the workload's own generated specs.  No span or
//! knob is added to the program; everything here wraps existing `pub` items.

use crate::alloc::thread_allocations;
use crate::gen::Job;
use crate::stats::median;
use mffv_fv::{LinearOperator, MatrixFreeOperator, MgConfig, MultigridVcycle};
use mffv_mesh::{CellField, Scalar, Workload};
use mffv_serve::Frame;
use mffv_solver::backend::{PreconditionerKind, SolveConfig};
use mffv_solver::context::{ContextKey, SolveContext};
use mffv_solver::monitor::NullMonitor;
use mffv_telemetry::Span;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `f`, called at least `min_reps` times and until
/// `budget_s` has passed (at most `max_reps` times).
pub fn time_median(budget_s: f64, min_reps: usize, max_reps: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < max_reps && started.elapsed().as_secs_f64() < budget_s)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Codec timings of the `serve` layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecProbe {
    /// Median seconds to encode a `Submit` frame.
    pub submit_encode_s: f64,
    /// Median seconds to encode a `Done` frame.
    pub report_encode_s: f64,
    /// Median seconds to decode a `Done` frame.
    pub report_decode_s: f64,
}

/// Time the frame codec on the workload's submits and on `Done` frames the
/// daemon actually sent.
pub fn probe_codec(jobs: &[Job], done: &[Frame]) -> CodecProbe {
    let submit: Vec<f64> = jobs
        .iter()
        .map(|job| {
            let frame = Frame::Submit {
                job_id: 1,
                spec: Box::new(job.spec.clone()),
            };
            time_median(0.02, 5, 2000, || {
                black_box(frame.to_wire_bytes());
            })
        })
        .collect();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for frame in done {
        encode.push(time_median(0.1, 3, 1000, || {
            black_box(frame.to_wire_bytes());
        }));
        let bytes = frame.to_wire_bytes();
        decode.push(time_median(0.1, 3, 1000, || {
            black_box(Frame::from_wire_bytes(&bytes).expect("a frame the daemon sent decodes"));
        }));
    }
    CodecProbe {
        submit_encode_s: median(&submit),
        report_encode_s: median(&encode),
        report_decode_s: median(&decode),
    }
}

/// Mesh, solver and fv timings of one steady host job.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostProbe {
    /// Cells of the grid.
    pub cells: usize,
    /// `WorkloadSpec::build` seconds.
    pub build_s: f64,
    /// `ContextKey::of` seconds.
    pub key_s: f64,
    /// `SolveContext::prepare` seconds on a cold context.
    pub prepare_miss_s: f64,
    /// `SolveContext::prepare` seconds on a warm context.
    pub prepare_hit_s: f64,
    /// Seconds per Krylov iteration (slope of two capped warm solves).
    pub iteration_s: f64,
    /// Seconds of a warm solve outside its iterations (the intercept).
    pub fixed_s: f64,
    /// Allocations on this thread during one warm solve.
    pub warm_allocs: u64,
    /// Fused `apply_dot` seconds.
    pub apply_dot_s: f64,
    /// Fused `cg_update` seconds.
    pub cg_update_s: f64,
    /// Planned `apply` seconds.
    pub apply_s: f64,
    /// Computed bytes one `apply_dot` moves.
    pub apply_dot_bytes: f64,
    /// Share of cells on the branch-free interior runs.
    pub run_fraction: f64,
    /// Multigrid levels of the job's grid.
    pub mg_levels: usize,
    /// One V-cycle, seconds.
    pub mg_cycle_s: f64,
}

/// Probe one steady host job at its own precision, threads and
/// preconditioner.  `budget_s` bounds each timing loop.
pub fn probe_host(job: &Job, budget_s: f64) -> HostProbe {
    let spec = job.spec.to_job_spec(None).effective_spec();
    let build_s = time_median(budget_s, 2, 200, || {
        black_box(spec.build());
    });
    let workload = spec.build();
    let config = job.spec.config;
    let mut probe = match config.precision {
        mffv_solver::backend::Precision::F32 => probe_typed::<f32>(&workload, &config, budget_s),
        mffv_solver::backend::Precision::F64 => probe_typed::<f64>(&workload, &config, budget_s),
    };
    probe.build_s = build_s;
    probe
}

fn warm_solve<T: Scalar>(
    ctx: &mut SolveContext<T>,
    workload: &Workload,
    config: &SolveConfig,
) -> usize {
    ctx.solve(workload, config, &mut NullMonitor, &Span::null());
    ctx.history().iterations
}

fn probe_typed<T: Scalar>(workload: &Workload, config: &SolveConfig, budget_s: f64) -> HostProbe {
    let threads = config.effective_threads();
    let kind = config.preconditioner;
    let dims = workload.dims();
    let cells = dims.num_cells();
    let key_s = time_median(budget_s, 5, 10_000, || {
        black_box(ContextKey::of(workload, threads, kind, None));
    });

    let mut misses = Vec::new();
    let started = Instant::now();
    while misses.len() < 2 || (misses.len() < 100 && started.elapsed().as_secs_f64() < budget_s) {
        let mut cold = SolveContext::<T>::new();
        let t = Instant::now();
        black_box(cold.prepare(workload, threads, kind, None, &Span::null()));
        misses.push(t.elapsed().as_secs_f64());
    }
    let mut ctx = SolveContext::<T>::new();
    ctx.prepare(workload, threads, kind, None, &Span::null());
    let prepare_hit_s = time_median(budget_s, 5, 10_000, || {
        black_box(ctx.prepare(workload, threads, kind, None, &Span::null()));
    });

    // The natural solve, capped so that a paper-size probe stays short: the
    // first warm solve with a small cap estimates the per-iteration cost.
    let cap = config.effective_max_iterations(workload);
    let mut capped = *config;
    capped.max_iterations = Some(cap.min(4));
    let t = Instant::now();
    let first = warm_solve(&mut ctx, workload, &capped);
    let estimate = t.elapsed().as_secs_f64() / first.max(1) as f64;
    let mut hi = *config;
    let affordable = ((budget_s * 4.0 / estimate.max(1e-9)) as usize).max(8);
    if cap > affordable {
        hi.max_iterations = Some(affordable);
    }
    if warm_solve(&mut ctx, workload, &hi) < 4 {
        // Too few iterations for a slope (the one-level MG case): force a
        // few more by asking for an unreachable tolerance.
        hi.tolerance = Some(f64::MIN_POSITIVE);
        hi.max_iterations = Some(4);
    }
    let mut lo = hi;
    let n_hi = warm_solve(&mut ctx, workload, &hi);
    lo.max_iterations = Some((n_hi / 4).max(1));
    let n_lo = warm_solve(&mut ctx, workload, &lo);
    let t_hi = time_median(budget_s, 2, 500, || {
        warm_solve(&mut ctx, workload, &hi);
    });
    let t_lo = time_median(budget_s, 2, 500, || {
        warm_solve(&mut ctx, workload, &lo);
    });
    let iteration_s = if n_hi > n_lo {
        ((t_hi - t_lo) / (n_hi - n_lo) as f64).max(0.0)
    } else {
        t_hi / n_hi.max(1) as f64
    };
    let fixed_s = t_hi - n_hi as f64 * iteration_s;
    let before = thread_allocations();
    warm_solve(&mut ctx, workload, &hi);
    let warm_allocs = thread_allocations() - before;

    let op = MatrixFreeOperator::<T>::from_workload(workload).with_threads(threads);
    let d = CellField::from_fn(dims, |c| {
        T::from_f64(1.0 + ((c.x + 2 * c.y + 3 * c.z) % 7) as f64)
    });
    let mut ad = CellField::<T>::zeros(dims);
    let mut x = CellField::<T>::zeros(dims);
    let mut r = d.clone();
    let apply_dot_s = time_median(budget_s, 5, 100_000, || {
        black_box(op.apply_dot(&d, &mut ad));
    });
    let alpha = T::from_f64(1e-12);
    let cg_update_s = time_median(budget_s, 5, 100_000, || {
        black_box(op.cg_update(alpha, &d, &ad, &mut x, &mut r));
    });
    let apply_s = time_median(budget_s, 5, 100_000, || {
        op.apply(&d, &mut ad);
        black_box(&ad);
    });
    let scalar = std::mem::size_of::<T>() as f64;
    // Six face coefficients, the direction read and the product written,
    // plus the one-byte Dirichlet mask, per cell.
    let apply_dot_bytes = cells as f64 * (8.0 * scalar + 1.0);

    let mg = MultigridVcycle::<T>::from_workload(workload, threads, MgConfig::default());
    let mut z = CellField::<T>::zeros(dims);
    let mg_cycle_s = time_median(budget_s, 2, 10_000, || {
        mg.apply_cycle(&d, &mut z, &Span::null());
        black_box(&z);
    });

    HostProbe {
        cells,
        build_s: 0.0,
        key_s,
        prepare_miss_s: median(&misses),
        prepare_hit_s,
        iteration_s,
        fixed_s,
        warm_allocs,
        apply_dot_s,
        cg_update_s,
        apply_s,
        apply_dot_bytes,
        run_fraction: op.plan_stats().run_fraction(),
        mg_levels: mg.num_levels(),
        mg_cycle_s,
    }
}

/// Whether `job` is a steady solve on the host backend (the jobs the
/// solver/fv probes apply to).
pub fn is_host_steady(job: &Job) -> bool {
    job.spec.transient.is_none()
        && matches!(
            job.spec.backend,
            mffv_serve::BackendSel::HostF64 | mffv_serve::BackendSel::HostF32
        )
}

/// Whether `job` runs the multigrid preconditioner.
pub fn is_mg(job: &Job) -> bool {
    job.spec.config.preconditioner == PreconditionerKind::Mg
}
