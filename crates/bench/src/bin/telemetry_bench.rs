//! Telemetry overhead benchmark: untraced vs null-traced vs fully-traced.
//!
//! Measures the two overhead budgets the telemetry subsystem promises
//! (see README "Telemetry & tracing"):
//!
//! * **null path** — a solve request carrying an explicit null span must
//!   stay within noise of a plain request (<1%; the bench warns above 1%
//!   and `--check` fails above 5%, both on the median overhead).  Both take
//!   the one solve entry point, whose monitor is always wrapped in a
//!   null-parent `TraceMonitor`, so this figure tracks run-to-run noise;
//! * **full tracing** — a recording tracer (spans + per-chunk CG iteration
//!   marks) must cost <5% on a 64³ host solve and on an engine batch.
//!
//! The three solve variants (untraced, null span, traced) take turns within
//! each rep, as do the two batch variants (untraced, traced); every rep is
//! timed, and the JSON records median/min/max and the spread
//! `(max − min) / median` of each variant.  Both solve overheads compare
//! medians against the one untraced solve series (the `*_median_seconds`
//! keys); the batch's `*_seconds` keys are best-of.  An overhead figure
//! means something only when the untraced spread sits below the 5% budget
//! (the bench warns otherwise).
//! The default `--jobs` makes one batch rep a few hundred milliseconds, so
//! pool start-up is not what spreads it; on a shared 2-core VM, tenant
//! noise still spread it 7–18%.
//!
//! Emits machine-readable `BENCH_telemetry.json`:
//!
//! ```text
//! cargo run --release -p mffv-bench --bin telemetry_bench -- \
//!     --nx 64 --ny 64 --nz 64 --jobs 384 --workers 4 --reps 5 \
//!     --out BENCH_telemetry.json [--check]
//! ```

use mffv::prelude::*;
use mffv::telemetry::{Span, Stopwatch, Tracer};

struct Args {
    nx: usize,
    ny: usize,
    nz: usize,
    jobs: usize,
    workers: usize,
    reps: usize,
    out: String,
    check: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            nx: 64,
            ny: 64,
            nz: 64,
            jobs: 384,
            workers: 4,
            reps: 5,
            out: "BENCH_telemetry.json".to_string(),
            check: false,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            if flag == "--check" {
                args.check = true;
                continue;
            }
            let mut value = || {
                iter.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--nx" => args.nx = value().parse().expect("--nx"),
                "--ny" => args.ny = value().parse().expect("--ny"),
                "--nz" => args.nz = value().parse().expect("--nz"),
                "--jobs" => args.jobs = value().parse::<usize>().expect("--jobs").max(1),
                "--workers" => args.workers = value().parse::<usize>().expect("--workers").max(1),
                "--reps" => args.reps = value().parse::<usize>().expect("--reps").max(1),
                "--out" => args.out = value(),
                other => panic!(
                    "unknown flag {other} (use --nx --ny --nz --jobs --workers --reps --out --check)"
                ),
            }
        }
        args
    }
}

fn overhead_pct(base: f64, variant: f64) -> f64 {
    if base > 0.0 {
        (variant / base - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Wall seconds of each of `reps` runs of every variant, after one untimed
/// warmup each.  The variants take turns within a rep, and the one that goes
/// first rotates from rep to rep, so drift in the machine's load lands on
/// all of them alike.
fn time_alternating<const N: usize>(
    reps: usize,
    mut variants: [&mut dyn FnMut(); N],
) -> [Vec<f64>; N] {
    for f in variants.iter_mut() {
        f();
    }
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for rep in 0..reps {
        for turn in 0..N {
            let i = (rep + turn) % N;
            let watch = Stopwatch::start();
            variants[i]();
            times[i].push(watch.elapsed_seconds());
        }
    }
    times
}

/// Best-of (= min), median and max of a set of rep times, plus the spread
/// `(max − min) / median` in percent.
struct RepStats {
    min: f64,
    median: f64,
    max: f64,
}

impl RepStats {
    fn of(mut times: Vec<f64>) -> RepStats {
        times.sort_by(f64::total_cmp);
        // The upper median for an even count.
        let median = times[times.len() / 2];
        RepStats {
            min: times[0],
            median,
            max: times[times.len() - 1],
        }
    }

    fn spread_pct(&self) -> f64 {
        if self.median > 0.0 {
            (self.max - self.min) / self.median * 100.0
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"min\": {:.6e}, \"median\": {:.6e}, \"max\": {:.6e}, \"spread_pct\": {:.3}}}",
            self.min,
            self.median,
            self.max,
            self.spread_pct()
        )
    }
}

fn sweep_jobs(n: usize) -> Vec<JobSpec> {
    SweepBuilder::new(WorkloadSpec::quickstart())
        .grids([Dims::new(12, 12, 6), Dims::new(16, 16, 8)])
        .seeds((0..n.div_ceil(2) as u64).collect::<Vec<_>>())
        .jobs()
        .into_iter()
        .take(n)
        .collect()
}

fn main() {
    let args = Args::parse();
    let dims = Dims::new(args.nx, args.ny, args.nz);
    // A fixed iteration budget keeps the measured work identical across the
    // three variants whether or not the solve converges at this size.
    let workload = WorkloadSpec::paper_grid(args.nx, args.ny, args.nz).build();
    let config = SolveConfig {
        tolerance: Some(1e-12),
        max_iterations: Some(200),
        ..SolveConfig::default()
    };
    let backend = Backend::host().instantiate();
    println!(
        "telemetry bench: {dims} host solve ({} cells, <=200 iters), {} jobs on {} workers, {} alternating reps",
        dims.num_cells(),
        args.jobs,
        args.workers,
        args.reps
    );

    // --- solve: untraced / null span / recording tracer ---------------------
    // The untraced and null-span requests take the identical code path, so
    // the null figure is pure noise unless the reps interleave: the three
    // variants take turns, and both overheads compare medians against the
    // one untraced series.
    let mut untraced = || {
        backend
            .solve(SolveRequest::new(&workload, &config))
            .expect("solve");
    };
    let mut null = || {
        backend
            .solve(SolveRequest::new(&workload, &config).with_span(&Span::null()))
            .expect("solve");
    };
    let mut traced = || {
        let tracer = Tracer::new();
        let span = tracer.span("solve @ host-f64");
        backend
            .solve(SolveRequest::new(&workload, &config).with_span(&span))
            .expect("solve");
        span.finish();
    };
    let [solve_untraced, solve_null, solve_traced] =
        time_alternating(args.reps, [&mut untraced, &mut null, &mut traced]).map(RepStats::of);
    let trace_spans = {
        let tracer = Tracer::new();
        let span = tracer.span("solve @ host-f64");
        backend
            .solve(SolveRequest::new(&workload, &config).with_span(&span))
            .expect("solve");
        span.finish();
        tracer.records().len()
    };
    let solve_null_pct = overhead_pct(solve_untraced.median, solve_null.median);
    let solve_full_pct = overhead_pct(solve_untraced.median, solve_traced.median);
    println!(
        "  solve (medians): untraced {:.3} ms (spread {:.2}%) | null {:.3} ms ({:+.2}%) | \
         traced {:.3} ms ({:+.2}%, {} spans)",
        solve_untraced.median * 1e3,
        solve_untraced.spread_pct(),
        solve_null.median * 1e3,
        solve_null_pct,
        solve_traced.median * 1e3,
        solve_full_pct,
        trace_spans
    );

    // --- engine batch: untraced / traced ------------------------------------
    let jobs = sweep_jobs(args.jobs);
    let mut untraced = || {
        let report = Engine::new(args.workers).run(jobs.clone());
        assert!(report.all_succeeded());
    };
    let mut traced = || {
        let report = Engine::new(args.workers)
            .with_tracer(Tracer::new())
            .run(jobs.clone());
        assert!(report.all_succeeded());
    };
    let [batch_untraced, batch_traced] =
        time_alternating(args.reps, [&mut untraced, &mut traced]).map(RepStats::of);
    let batch_pct = overhead_pct(batch_untraced.min, batch_traced.min);
    let batch_median_pct = overhead_pct(batch_untraced.median, batch_traced.median);
    println!(
        "  batch: untraced {:.3} ms (median {:.3}, spread {:.2}%) | traced {:.3} ms \
         (median {:.3}, spread {:.2}%) ({:+.2}% best-of, {:+.2}% median)",
        batch_untraced.min * 1e3,
        batch_untraced.median * 1e3,
        batch_untraced.spread_pct(),
        batch_traced.min * 1e3,
        batch_traced.median * 1e3,
        batch_traced.spread_pct(),
        batch_pct,
        batch_median_pct
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"dims\": {{\"nx\": {}, \"ny\": {}, \"nz\": {}}},\n  \
         \"cells\": {},\n  \"reps\": {},\n  \"budgets_pct\": {{\"null_warn\": 1.0, \"null_fail\": 5.0, \"full\": 5.0}},\n  \
         \"solve\": {{\"untraced_median_seconds\": {:.6e}, \
         \"null_traced_median_seconds\": {:.6e}, \"full_traced_median_seconds\": {:.6e}, \"null_overhead_pct\": {:.3}, \
         \"full_overhead_pct\": {:.3}, \"spans_recorded\": {},\n    \"untraced_reps\": {},\n    \
         \"null_reps\": {},\n    \"traced_reps\": {}}},\n  \
         \"engine\": {{\"jobs\": {}, \"workers\": {}, \"untraced_seconds\": {:.6e}, \
         \"traced_seconds\": {:.6e}, \"traced_overhead_pct\": {:.3}, \
         \"traced_overhead_median_pct\": {:.3},\n    \"untraced_reps\": {},\n    \
         \"traced_reps\": {}}}\n}}\n",
        args.nx,
        args.ny,
        args.nz,
        dims.num_cells(),
        args.reps,
        solve_untraced.median,
        solve_null.median,
        solve_traced.median,
        solve_null_pct,
        solve_full_pct,
        trace_spans,
        solve_untraced.json(),
        solve_null.json(),
        solve_traced.json(),
        args.jobs,
        args.workers,
        batch_untraced.min,
        batch_traced.min,
        batch_pct,
        batch_median_pct,
        batch_untraced.json(),
        batch_traced.json(),
    );
    std::fs::write(&args.out, &json).expect("write JSON report");
    println!("wrote {}", args.out);

    if batch_untraced.spread_pct() > 5.0 {
        println!(
            "WARN: untraced batch spread {:.2}% exceeds the 5% budget; the batch overhead \
             figure is within noise (raise --jobs or --reps)",
            batch_untraced.spread_pct()
        );
    }
    if solve_untraced.spread_pct() > 5.0 {
        println!(
            "WARN: untraced solve spread {:.2}% exceeds the 5% budget; the null-span \
             figure is within noise (raise --reps)",
            solve_untraced.spread_pct()
        );
    }
    if solve_null_pct > 1.0 {
        println!("WARN: null-span solve overhead {solve_null_pct:.2}% exceeds the 1% budget");
    }
    if args.check && solve_null_pct > 5.0 {
        eprintln!("FAIL: null-span solve overhead {solve_null_pct:.2}% exceeds the 5% hard budget");
        std::process::exit(1);
    }
}
