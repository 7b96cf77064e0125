//! Scenario-sweep throughput report: the `mffv-engine` batch executor driven
//! the way the paper's evaluation drives the machine — many configurations of
//! one problem family under a single harness.
//!
//! A `SweepBuilder` fans a log-normal-permeability base workload across three
//! grid sizes × two backends × two permeability seeds (12 jobs), the engine
//! executes the batch on a worker pool, and the `BatchReport` prints per-job
//! status plus aggregate throughput and latency percentiles.  A second pass
//! re-runs the host-backend jobs at worker counts 1, 2 and 8 to measure the
//! pool's wall-clock scaling on this machine.
//!
//! Run with `cargo run --release -p mffv-bench --bin sweep_report`.

use mffv::prelude::*;
use mffv_perf::report::format_table;

/// The sweep base: quickstart-like physics with a stochastic permeability
/// field, so the seed axis produces genuinely different scenarios.
fn sweep_base() -> WorkloadSpec {
    WorkloadSpec {
        name: "sweep".to_string(),
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 0.5,
            seed: 0,
        },
        tolerance: 1e-8,
        ..WorkloadSpec::quickstart()
    }
}

fn grids() -> [Dims; 3] {
    [
        Dims::new(12, 10, 8),
        Dims::new(16, 12, 10),
        Dims::new(20, 16, 12),
    ]
}

fn main() {
    // 1. The full sweep: 3 grids × 2 seeds × 2 backends = 12 jobs.
    let sweep = SweepBuilder::new(sweep_base())
        .grids(grids())
        .seeds([1, 2])
        .backends([Backend::host(), Backend::gpu_ref()]);
    println!(
        "Scenario sweep: {} jobs (3 grids x 2 seeds x 2 backends)\n",
        sweep.job_count()
    );
    let engine = Engine::with_available_parallelism();
    let batch = engine.run(sweep.jobs());
    println!("{batch}\n");
    assert!(batch.all_succeeded(), "sweep jobs must all complete");
    assert_eq!(batch.jobs(), 12);

    // 2. Worker scaling on the host backend: the same 3 grids × 2 seeds at
    //    1, 2 and 8 workers.  Results are bitwise identical at every worker
    //    count; only the wall clock changes.
    let host_jobs = SweepBuilder::new(sweep_base())
        .grids(grids())
        .seeds([1, 2])
        .backends([Backend::host()])
        .jobs();
    println!(
        "Worker scaling (host backend, {} jobs per batch):\n",
        host_jobs.len()
    );
    let mut rows = Vec::new();
    let mut baseline_wall = None;
    let mut speedup_at_8 = 1.0;
    for workers in [1usize, 2, 8] {
        let report = Engine::new(workers).run(host_jobs.clone());
        assert!(report.all_succeeded());
        let baseline = *baseline_wall.get_or_insert(report.wall_seconds);
        let speedup = baseline / report.wall_seconds;
        if workers == 8 {
            speedup_at_8 = speedup;
        }
        rows.push(vec![
            workers.to_string(),
            format!("{:.3}", report.wall_seconds),
            format!("{:.2}", report.jobs_per_second()),
            format!("{:.3e}", report.latency.p50()),
            format!("{:.3e}", report.latency.p95()),
            format!("{speedup:.2}x"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Workers",
                "Wall [s]",
                "Jobs/s",
                "p50 [s]",
                "p95 [s]",
                "Speedup vs 1"
            ],
            &rows
        )
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("Available hardware threads: {cores}; measured 8-worker speedup: {speedup_at_8:.2}x");
    if cores == 1 {
        println!("(single hardware thread — worker scaling cannot exceed ~1x on this machine)");
    }
}
