//! Weak-scaling study (the Table-III experiment): grow the fabric X/Y extents at a
//! fixed column depth and watch how the Algorithm-2 sweep stays flat while the full
//! Algorithm-1 iteration picks up reduction cost.
//!
//! Run with `cargo run --release --example weak_scaling`.

use mffv::prelude::*;
use mffv_perf::report::{fmt_gcells, fmt_seconds, format_table};

fn main() {
    // Analytic model at the paper's full sizes.
    println!("Analytic model at the paper's grid family (Nz = 922, 225 steps):\n");
    let model = AnalyticTiming::paper();
    let mut rows = Vec::new();
    for (nx, ny, nz) in WorkloadSpec::table3_grids() {
        let dims = Dims::new(nx, ny, nz);
        let row = model.scaling_row(dims, 225);
        rows.push(vec![
            format!("{nx} x {ny} x {nz}"),
            fmt_seconds(row.cs2_alg2_time),
            fmt_seconds(row.cs2_alg1_time),
            fmt_gcells(row.cs2_alg1_throughput),
            fmt_seconds(row.a100_alg1_time),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Grid",
                "CS-2 Alg2 [s]",
                "CS-2 Alg1 [s]",
                "Alg1 thpt [Gcell/s]",
                "A100 Alg1 [s]"
            ],
            &rows
        )
    );

    // Executed sweep on the simulated fabric at small sizes with a fixed iteration
    // count, reporting the measured critical-path growth that causes the Alg-1 trend.
    // The grid family is generated with `SweepBuilder` and the four solves run
    // concurrently on the `mffv-engine` worker pool.
    println!("Executed sweep (simulated fabric, 15 iterations, Nz = 24):\n");
    let base = WorkloadSpec {
        name: "weak-scaling".to_string(),
        tolerance: 1e-30, // unreachable: run exactly max_iterations steps
        max_iterations: 15,
        ..WorkloadSpec::paper_grid(6, 6, 24)
    };
    let jobs = SweepBuilder::new(base)
        .grids([6usize, 10, 14, 18].map(|side| Dims::new(side, side, 24)))
        .backends([Backend::dataflow()])
        .jobs();
    let engine = Engine::with_available_parallelism();
    let batch = engine.run(jobs);
    let mut rows = Vec::new();
    for outcome in &batch.outcomes {
        let report = outcome
            .report()
            .unwrap_or_else(|| panic!("{}: {:?}", outcome.label, outcome.failure()));
        let device = report.device.as_ref().expect("dataflow models a device");
        rows.push(vec![
            format!("{}", report.pressure.dims()),
            format!("{}", report.iterations()),
            format!("{}", device.counter("critical_path_hops").unwrap_or(0.0)),
            format!("{}", device.counter("fabric_link_bytes").unwrap_or(0.0)),
            format!("{:.3e}", device.modelled_time_seconds),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Grid",
                "Iterations",
                "Critical-path hops",
                "Fabric bytes",
                "Modelled time [s]"
            ],
            &rows
        )
    );
    println!(
        "Engine: {} jobs on {} workers in {:.3} s wall ({:.2} jobs/s, p95 latency {:.3e} s)\n",
        batch.jobs(),
        batch.workers,
        batch.wall_seconds,
        batch.jobs_per_second(),
        batch.latency.p95(),
    );
    println!("The critical-path hop count grows with the fabric perimeter — the reduction cost");
    println!(
        "that makes Algorithm 1 scale sub-linearly in Table III while Algorithm 2 stays flat."
    );
}
