//! One benchmark run: set-up, the measured window, the correctness gate and
//! (traced runs) the per-layer ledger.

use crate::drive::{drive, DriveOptions, DriveResult, JobRecord};
use crate::gen::{Job, JobStream, Workload, SETUP_CONNECTIONS};
use crate::header::peak_rss_mb;
use crate::layers::{is_host_steady, is_mg, probe_codec, probe_host, HostProbe};
use crate::ledger::{span_totals, Ledger, LedgerInputs, PREPARE_SPANS};
use crate::stats::{mean, median, percentile};
use crate::verify::{Gate, Verdict};
use mffv_serve::{RunningServer, ServeConfig, Server, WireShutdownMode};
use mffv_telemetry::{MetricsRegistry, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Command-line arguments.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the job stream.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".to_string());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace is 0 or 1".to_string()),
                    })
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The per-job (or per-set-up) samples the value summarises, when it
    /// summarises any; the header reports their median and quartiles.
    pub samples: Vec<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: Vec::new(),
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Jobs attempted (set-up and measured).
    pub attempted: usize,
    /// Jobs that did not end in a verified `Done`.
    pub failed: usize,
    /// Jobs measured in the window(s).
    pub measured: usize,
    /// Fresh daemons set up.
    pub setups: usize,
    /// Jobs re-solved in-process by the gate.
    pub compared: usize,
    /// The ledger (traced runs).
    pub ledger: Option<Ledger>,
    /// Why jobs failed (first few).
    pub failures: Vec<String>,
}

fn bind(tracer: Option<(&Tracer, &MetricsRegistry)>) -> RunningServer {
    // The daemon's defaults: 2 workers, queue of 4, session window of 2.
    let mut server = Server::new(ServeConfig::default());
    if let Some((tracer, metrics)) = tracer {
        server = server
            .with_tracer(tracer.clone())
            .with_metrics(metrics.clone());
    }
    server.bind().expect("bind a loopback daemon")
}

/// Submit `job` once on each of [`SETUP_CONNECTIONS`] connections.
fn first_jobs(server: &RunningServer, job: &Job) -> DriveResult {
    let options = DriveOptions {
        connections: SETUP_CONNECTIONS,
        window: 1,
        jobs_per_connection: Some(1),
        deadline: None,
        traced: false,
    };
    drive(server.local_addr(), options, &|| Some(job.clone()))
}

/// The measured window: the stream from index 0 for `seconds` (see
/// [`DriveOptions::deadline`]); jobs in flight at the deadline run to their
/// terminal frame.
fn window(server: &RunningServer, stream: &JobStream, seconds: f64, traced: bool) -> DriveResult {
    let workload = stream.workload();
    let next = AtomicUsize::new(0);
    let options = DriveOptions {
        connections: workload.connections(),
        window: workload.window(),
        jobs_per_connection: None,
        deadline: Some(Instant::now() + Duration::from_secs_f64(seconds)),
        traced,
    };
    drive(server.local_addr(), options, &|| {
        Some(stream.job(next.fetch_add(1, Ordering::SeqCst)))
    })
}

fn ok_latencies(records: &[JobRecord]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.verdict.is_ok())
        .map(|r| r.latency_s)
        .collect()
}

fn tally(outcome: &mut Outcome, records: &[JobRecord]) {
    outcome.attempted += records.len();
    for r in records {
        if let Verdict::Failed(why) = &r.verdict {
            outcome.failed += 1;
            if outcome.failures.len() < 8 {
                outcome.failures.push(format!("job {}: {why}", r.job.index));
            }
        }
    }
}

/// Run the benchmark.
pub fn run(args: Args) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: Args) -> Outcome {
    let stream = JobStream::new(args.workload, args.seed);
    let setup_job = stream.setup_job();
    let mut setup_records = Vec::new();
    let mut setup_times = Vec::new();
    let mut server: Option<RunningServer> = None;
    for _ in 0..args.workload.setups() {
        if let Some(previous) = server.take() {
            previous.shutdown(WireShutdownMode::Drain);
        }
        let started = Instant::now();
        let fresh = bind(None);
        let first = first_jobs(&fresh, &setup_job);
        setup_times.push(started.elapsed().as_secs_f64());
        setup_records.extend(first.records);
        server = Some(fresh);
    }
    let server = server.expect("at least one set-up");
    let measured = window(&server, &stream, args.seconds, false);
    let rss = peak_rss_mb();
    server.shutdown(WireShutdownMode::Drain);

    let mut records = measured.records;
    let mut outcome = Outcome {
        setups: setup_times.len(),
        ..Outcome::default()
    };
    let mut gate = Gate::new(args.seed);
    gate.check(&mut setup_records);
    gate.check(&mut records);
    outcome.compared = gate.compared;
    tally(&mut outcome, &setup_records);
    tally(&mut outcome, &records);
    outcome.measured = records.len();

    let latencies_ms: Vec<f64> = ok_latencies(&records).iter().map(|s| s * 1e3).collect();
    let ok = latencies_ms.len();
    // A paper-size run completes two or three jobs, so no percentile above
    // the median has samples beyond it: that workload reports its median.
    let tail = match args.workload {
        Workload::PaperCg => median(&latencies_ms),
        Workload::ServeHot | Workload::ServeMixed => percentile(&latencies_ms, 0.99),
    };
    outcome.metrics = vec![
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: median(&latencies_ms),
            samples: latencies_ms.clone(),
        },
        Metric {
            name: "latency_p99_ms",
            unit: "ms",
            value: tail,
            samples: latencies_ms.clone(),
        },
        metric("jobs_per_s", "1/s", ok as f64 / measured.wall_s.max(1e-9)),
        Metric {
            name: "solve_s",
            unit: "s",
            value: median(&latencies_ms) / 1e3,
            samples: latencies_ms.iter().map(|ms| ms / 1e3).collect(),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setup_times),
            samples: setup_times,
        },
        metric("peak_rss_mb", "MiB", rss),
    ];
    outcome
}

/// The dataflow or gpu-ref job of the mixed stream under this seed, for
/// workloads whose own stream has none.
fn backend_reference(seed: u64, backend: &str) -> BackendStats {
    let mixed = JobStream::new(Workload::ServeMixed, seed);
    let class = format!("{backend} 16");
    let index = (0..16)
        .find(|&i| mixed.mixed_class(i) == class)
        .expect("every cycle holds each class once");
    let job = mixed.job(index);
    let report = job
        .spec
        .to_job_spec(None)
        .execute()
        .expect("reference backend solve");
    BackendStats {
        host_ms_per_iteration: report.host_wall_seconds * 1e3 / report.iterations().max(1) as f64,
        modelled_s: report.modelled_time().unwrap_or(0.0),
    }
}

/// Host cost and modelled device time of one device-style backend.
struct BackendStats {
    host_ms_per_iteration: f64,
    modelled_s: f64,
}

/// `backend`'s jobs among `records`, or its reference job when there are
/// none.
fn backend_stats(records: &[JobRecord], backend: &str, seed: u64) -> BackendStats {
    let mine: Vec<&JobRecord> = records
        .iter()
        .filter(|r| r.verdict.is_ok() && r.backend.starts_with(backend))
        .collect();
    if mine.is_empty() {
        return backend_reference(seed, backend);
    }
    let per_iteration: Vec<f64> = mine
        .iter()
        .map(|r| r.host_wall_s * 1e3 / r.iterations.max(1) as f64)
        .collect();
    let modelled: Vec<f64> = mine.iter().filter_map(|r| r.modelled_s).collect();
    BackendStats {
        host_ms_per_iteration: median(&per_iteration),
        modelled_s: median(&modelled),
    }
}

fn run_traced(args: Args) -> Outcome {
    let stream = JobStream::new(args.workload, args.seed);
    let setup_job = stream.setup_job();
    let half = args.seconds / 2.0;
    let mut outcome = Outcome::default();

    // Window A: the untraced daemon, for the tracing overhead.
    let plain = bind(None);
    let mut warm_a = first_jobs(&plain, &setup_job).records;
    let a = window(&plain, &stream, half, false);
    plain.shutdown(WireShutdownMode::Drain);

    // Window B: the same stream on a daemon with its tracer and metrics on.
    let tracer = Tracer::new();
    let registry = MetricsRegistry::new();
    let traced = bind(Some((&tracer, &registry)));
    let mut warm_b = first_jobs(&traced, &setup_job).records;
    let exec_before = registry.histogram("engine.service.exec_seconds");
    let hits_before = registry.counter("engine.context.hits");
    let misses_before = registry.counter("engine.context.misses");
    tracer.clear();
    let b = window(&traced, &stream, half, true);
    let spans = tracer.records();
    traced.shutdown(WireShutdownMode::Drain);
    outcome.setups = 2;

    let mut a_records = a.records;
    let mut b_records = b.records;
    let mut gate = Gate::new(args.seed);
    for records in [&mut warm_a, &mut a_records, &mut warm_b, &mut b_records] {
        gate.check(records);
        tally(&mut outcome, records);
    }
    outcome.compared = gate.compared;
    outcome.measured = a_records.len() + b_records.len();

    // The ledger over window B.
    let ok_b: Vec<&JobRecord> = b_records.iter().filter(|r| r.verdict.is_ok()).collect();
    let jobs = ok_b.len().max(1) as f64;
    let totals = span_totals(&spans);
    let span_ms = |name: &str| totals.get(name).copied().unwrap_or(0.0) * 1e3 / jobs;
    let latency_b = mean(&ok_b.iter().map(|r| r.latency_s * 1e3).collect::<Vec<_>>());
    let inputs = LedgerInputs {
        latency_ms: latency_b,
        host_wall_ms: mean(&ok_b.iter().map(|r| r.host_wall_s * 1e3).collect::<Vec<_>>()),
        queue_wait_ms: span_ms("queue-wait"),
        execute_ms: span_ms("execute"),
        materialise_ms: span_ms("materialise-workload"),
        prepare_ms: PREPARE_SPANS.iter().map(|n| span_ms(n)).sum(),
        krylov_ms: span_ms("cg-loop"),
    };
    let ledger = Ledger::new(inputs);
    let latency_a = mean(&ok_latencies(&a_records)) * 1e3;

    // Engine counters over window B only.
    let exec_after = registry.histogram("engine.service.exec_seconds");
    let (exec_sum, exec_count) = match (&exec_before, &exec_after) {
        (Some(before), Some(after)) => (after.sum() - before.sum(), after.count() - before.count()),
        (None, Some(after)) => (after.sum(), after.count()),
        _ => (0.0, 0),
    };
    let hits = registry.counter("engine.context.hits") - hits_before;
    let misses = registry.counter("engine.context.misses") - misses_before;

    // Layer probes on the workload's own specs.
    let probe_jobs: Vec<Job> = match args.workload {
        Workload::ServeMixed => (0..16).map(|i| stream.job(i)).collect(),
        Workload::ServeHot | Workload::PaperCg => vec![stream.job(0)],
    };
    let codec = probe_codec(&probe_jobs, &b.done_frames);
    let budget = match args.workload {
        Workload::PaperCg => 0.3,
        Workload::ServeHot | Workload::ServeMixed => 0.05,
    };
    let host: Vec<(bool, HostProbe)> = probe_jobs
        .iter()
        .filter(|j| is_host_steady(j))
        .map(|j| (is_mg(j), probe_host(j, budget)))
        .collect();
    let over =
        |f: &dyn Fn(&HostProbe) -> f64| median(&host.iter().map(|(_, p)| f(p)).collect::<Vec<_>>());
    let mg_probes: Vec<&HostProbe> = if host.iter().any(|(mg, _)| *mg) {
        host.iter().filter(|(mg, _)| *mg).map(|(_, p)| p).collect()
    } else {
        host.iter().map(|(_, p)| p).collect()
    };
    let mg_over =
        |f: &dyn Fn(&HostProbe) -> f64| median(&mg_probes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let ns_per_cell = |s: f64, p: &HostProbe| s * 1e9 / p.cells as f64;
    let dataflow = backend_stats(&b_records, "dataflow", args.seed);
    let gpu = backend_stats(&b_records, "gpu-ref", args.seed);
    let frames: Vec<f64> = ok_b.iter().map(|r| r.frames as f64).collect();
    let bytes: Vec<f64> = ok_b.iter().map(|r| r.bytes as f64).collect();
    let iterations: Vec<f64> = ok_b.iter().map(|r| r.iterations as f64).collect();
    let outside: Vec<f64> = ok_b
        .iter()
        .map(|r| (r.latency_s - r.host_wall_s) * 1e3)
        .collect();

    outcome.metrics = vec![
        Metric {
            name: "serve.outside_exec_ms",
            unit: "ms",
            value: ledger.get("serve.outside_exec_ms").unwrap_or(0.0),
            samples: outside,
        },
        metric(
            "serve.transport_ms",
            "ms",
            ledger.get("serve.transport_ms").unwrap_or(0.0),
        ),
        Metric {
            name: "serve.frames_per_job",
            unit: "count",
            value: mean(&frames),
            samples: frames,
        },
        Metric {
            name: "serve.bytes_per_job",
            unit: "B",
            value: mean(&bytes),
            samples: bytes,
        },
        metric(
            "serve.busy_ratio",
            "ratio",
            b.busy as f64 / b.submitted.max(1) as f64,
        ),
        metric("serve.submit_encode_us", "us", codec.submit_encode_s * 1e6),
        metric("serve.report_encode_ms", "ms", codec.report_encode_s * 1e3),
        metric("serve.report_decode_ms", "ms", codec.report_decode_s * 1e3),
        metric(
            "engine.exec_ms",
            "ms",
            exec_sum * 1e3 / exec_count.max(1) as f64,
        ),
        metric("engine.queue_wait_ms", "ms", inputs.queue_wait_ms),
        metric(
            "engine.context_hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        metric(
            "engine.queue_high_water",
            "count",
            registry
                .gauge("engine.service.queue.high_water")
                .unwrap_or(0.0),
        ),
        metric("mesh.workload_build_ms", "ms", over(&|p| p.build_s * 1e3)),
        metric("mesh.context_key_us", "us", over(&|p| p.key_s * 1e6)),
        metric(
            "solver.prepare_miss_ms",
            "ms",
            over(&|p| p.prepare_miss_s * 1e3),
        ),
        metric(
            "solver.prepare_hit_us",
            "us",
            over(&|p| p.prepare_hit_s * 1e6),
        ),
        Metric {
            name: "solver.iterations",
            unit: "count",
            value: mean(&iterations),
            samples: iterations,
        },
        metric("solver.iteration_us", "us", over(&|p| p.iteration_s * 1e6)),
        metric("solver.fixed_us", "us", over(&|p| p.fixed_s * 1e6)),
        metric(
            "solver.cell_iters_per_s",
            "1/s",
            over(&|p| p.cells as f64 / p.iteration_s.max(1e-12)),
        ),
        metric(
            "solver.allocs_per_warm_solve",
            "count",
            host.iter()
                .map(|(_, p)| p.warm_allocs as f64)
                .fold(0.0, f64::max),
        ),
        metric(
            "fv.apply_dot_ns_per_cell",
            "ns",
            over(&|p| ns_per_cell(p.apply_dot_s, p)),
        ),
        metric(
            "fv.cg_update_ns_per_cell",
            "ns",
            over(&|p| ns_per_cell(p.cg_update_s, p)),
        ),
        metric(
            "fv.apply_ns_per_cell",
            "ns",
            over(&|p| ns_per_cell(p.apply_s, p)),
        ),
        metric(
            "fv.iteration_other_ns_per_cell",
            "ns",
            over(&|p| ns_per_cell(p.iteration_s - p.apply_dot_s - p.cg_update_s, p)),
        ),
        metric(
            "fv.computed_gb_s",
            "GB/s",
            over(&|p| p.apply_dot_bytes / p.apply_dot_s.max(1e-12) / 1e9),
        ),
        metric("fv.run_fraction", "ratio", over(&|p| p.run_fraction)),
        metric("fv.mg_levels", "count", mg_over(&|p| p.mg_levels as f64)),
        metric("fv.mg_cycle_ms", "ms", mg_over(&|p| p.mg_cycle_s * 1e3)),
        metric(
            "dataflow.host_ms_per_iteration",
            "ms",
            dataflow.host_ms_per_iteration,
        ),
        metric("dataflow.modelled_s", "s", dataflow.modelled_s),
        metric(
            "gpu_ref.host_ms_per_iteration",
            "ms",
            gpu.host_ms_per_iteration,
        ),
        metric(
            "ledger.unattributed_ms",
            "ms",
            ledger.get("unattributed_ms").unwrap_or(0.0),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            (latency_b / latency_a.max(1e-12) - 1.0) * 100.0,
        ),
    ];
    outcome.ledger = Some(ledger);
    outcome
}
