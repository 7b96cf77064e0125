use mffv_perfbench::alloc::CountingAlloc;
use mffv_perfbench::bench::{run, Args, Outcome};
use mffv_perfbench::header::{json_str, CpuTimes, Machine};
use mffv_perfbench::stats::quartiles;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn print_report(args: &Args, machine: &Machine, outcome: &Outcome, steal_pct: f64) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "machine: available_parallelism={} cpu=\"{}\" rustc=\"{}\" git_rev={} cpu_steal_pct={steal_pct:.2}",
        machine.available_parallelism, machine.cpu_model, machine.rustc, machine.git_rev
    );
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "jobs: attempted={} measured={} setups={} compared_in_process={} failed={} failed_ratio={failed_ratio}",
        outcome.attempted, outcome.measured, outcome.setups, outcome.compared, outcome.failed
    );
    for why in &outcome.failures {
        println!("  failure: {why}");
    }
    println!(
        "{:<34} {:>16} {:<6} {:>7} {:>14} {:>14} {:>14}",
        "metric", "value", "unit", "n", "q1", "median", "q3"
    );
    for m in &outcome.metrics {
        if m.samples.is_empty() {
            println!("{:<34} {:>16.6} {:<6}", m.name, m.value, m.unit);
        } else {
            let [q1, q2, q3] = quartiles(&m.samples);
            println!(
                "{:<34} {:>16.6} {:<6} {:>7} {:>14.6} {:>14.6} {:>14.6}",
                m.name,
                m.value,
                m.unit,
                m.samples.len(),
                q1,
                q2,
                q3
            );
        }
    }
    if let Some(ledger) = &outcome.ledger {
        println!("ledger (mean per job, traced daemon):");
        print!("{}", ledger.render());
    }
    // The run header as one JSON line.
    let stats: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let [q1, q2, q3] = if m.samples.is_empty() {
                [m.value; 3]
            } else {
                quartiles(&m.samples)
            };
            format!(
                "{}: {{\"unit\": {}, \"value\": {}, \"n\": {}, \"q1\": {q1}, \"median\": {q2}, \"q3\": {q3}}}",
                json_str(m.name),
                json_str(m.unit),
                m.value,
                m.samples.len()
            )
        })
        .collect();
    println!(
        "{{\"header\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \
         \"cpu_steal_pct\": {steal_pct}, \"jobs_attempted\": {}, \"jobs_measured\": {}, \"setups\": {}, \"failed_ratio\": {failed_ratio}, \
         \"metrics\": {{{}}}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        machine.available_parallelism,
        json_str(&machine.cpu_model),
        json_str(&machine.rustc),
        json_str(&machine.git_rev),
        outcome.attempted,
        outcome.measured,
        outcome.setups,
        stats.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-hot|serve-mixed|paper-cg> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let machine = Machine::probe();
    let cpu_before = CpuTimes::read();
    let outcome = run(args);
    let steal_pct = match (cpu_before, CpuTimes::read()) {
        (Some(before), Some(after)) => after.steal_pct_since(&before),
        _ => 0.0,
    };
    print_report(&args, &machine, &outcome, steal_pct);
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && finite && outcome.attempted > 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
