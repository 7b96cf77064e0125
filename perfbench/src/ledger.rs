//! The per-job latency ledger of a traced run.
//!
//! The daemon's existing spans (`queue-wait`, `execute`,
//! `materialise-workload`, the operator/preconditioner build spans and
//! `cg-loop`) and the report's `host_wall_seconds` split the client-observed
//! per-job time into disjoint layer self times.  Whatever no span covers is
//! an explicit `unattributed` row, so the rows always sum to the whole.

use mffv_telemetry::SpanRecord;
use std::collections::BTreeMap;

/// Span names whose time is operator/preconditioner preparation.
pub const PREPARE_SPANS: [&str; 4] = [
    "build-operator",
    "mg.build",
    "build-fabric-program",
    "build-device-model",
];

/// Mean per-job inputs of the ledger, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LedgerInputs {
    /// Client-observed latency (`Submit` written to terminal frame read).
    pub latency_ms: f64,
    /// The report's `host_wall_seconds`: the backend's solve call.
    pub host_wall_ms: f64,
    /// `queue-wait` spans: admitted to the engine queue until a worker took it.
    pub queue_wait_ms: f64,
    /// `execute` spans: the job on its worker.
    pub execute_ms: f64,
    /// `materialise-workload` spans: workload checkout or build.
    pub materialise_ms: f64,
    /// Operator/preconditioner build spans (inside the solve call).
    pub prepare_ms: f64,
    /// `cg-loop` spans: the Krylov iterations (inside the solve call).
    pub krylov_ms: f64,
}

/// One ledger row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric-style name, `layer.part_ms`.
    pub name: &'static str,
    /// Mean milliseconds per job.
    pub ms: f64,
    /// 0 for a top-level row (the top-level rows sum to the latency); 1 for
    /// a part of the row above it (the parts sum to that row).
    pub depth: u8,
    /// How the row is measured.
    pub how: &'static str,
}

/// The ledger of one traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// The rows, top-level rows followed by their parts.
    pub rows: Vec<Row>,
    /// The whole: mean client latency per job.
    pub latency_ms: f64,
}

impl Ledger {
    /// Split `inputs.latency_ms` into layer self times.
    pub fn new(inputs: LedgerInputs) -> Self {
        let i = inputs;
        let outside = i.latency_ms - i.host_wall_ms;
        let intake = i.execute_ms - i.materialise_ms - i.host_wall_ms;
        let transport = outside - i.queue_wait_ms - i.materialise_ms - intake;
        let rows = vec![
            Row {
                name: "serve.outside_exec_ms",
                ms: outside,
                depth: 0,
                how: "client latency - report host_wall_seconds",
            },
            Row {
                name: "serve.transport_ms",
                ms: transport,
                depth: 1,
                how: "socket, frame codec, dispatch: the rest of outside_exec",
            },
            Row {
                name: "engine.queue_wait_ms",
                ms: i.queue_wait_ms,
                depth: 1,
                how: "queue-wait spans",
            },
            Row {
                name: "mesh.checkout_ms",
                ms: i.materialise_ms,
                depth: 1,
                how: "materialise-workload spans",
            },
            Row {
                name: "engine.intake_ms",
                ms: intake,
                depth: 1,
                how: "execute - materialise - host_wall (validation, report assembly)",
            },
            Row {
                name: "solver.prepare_ms",
                ms: i.prepare_ms,
                depth: 0,
                how: "operator/preconditioner build spans",
            },
            Row {
                name: "solver.krylov_ms",
                ms: i.krylov_ms,
                depth: 0,
                how: "cg-loop spans",
            },
            Row {
                name: "unattributed_ms",
                ms: i.host_wall_ms - i.prepare_ms - i.krylov_ms,
                depth: 0,
                how: "host_wall - prepare - krylov (Newton set-up, residual, report)",
            },
        ];
        Ledger {
            rows,
            latency_ms: i.latency_ms,
        }
    }

    /// Milliseconds of the row `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.ms)
    }

    /// Sum of the top-level rows (equals [`latency_ms`](Self::latency_ms) up
    /// to rounding).
    pub fn top_level_sum(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.depth == 0)
            .fold(0.0, |acc, r| acc + r.ms)
    }

    /// Text table, one row per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let indent = if row.depth == 0 { "" } else { "  - " };
            out.push_str(&format!(
                "  {:<30} {:>12.4} ms  {}\n",
                format!("{indent}{}", row.name),
                row.ms,
                row.how
            ));
        }
        out.push_str(&format!(
            "  {:<30} {:>12.4} ms  mean client latency per job (top-level rows sum to it)\n",
            "= e2e per job", self.latency_ms
        ));
        out
    }
}

/// Total seconds per span name, counting a span only when no ancestor has
/// the same name (so nested spans of one kind are not counted twice).
pub fn span_totals(records: &[SpanRecord]) -> BTreeMap<String, f64> {
    let by_id: BTreeMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut totals = BTreeMap::new();
    for record in records {
        let mut parent = record.parent;
        let mut nested = false;
        while let Some(id) = parent {
            match by_id.get(&id) {
                Some(p) if p.name == record.name => {
                    nested = true;
                    break;
                }
                Some(p) => parent = p.parent,
                None => break,
            }
        }
        if !nested {
            *totals.entry(record.name.clone()).or_insert(0.0) += record.duration_seconds;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> LedgerInputs {
        LedgerInputs {
            latency_ms: 44.0,
            host_wall_ms: 2.5,
            queue_wait_ms: 0.05,
            execute_ms: 2.7,
            materialise_ms: 0.02,
            prepare_ms: 0.01,
            krylov_ms: 2.2,
        }
    }

    #[test]
    fn top_level_rows_sum_to_the_latency() {
        let ledger = Ledger::new(inputs());
        assert!((ledger.top_level_sum() - 44.0).abs() < 1e-9);
    }

    #[test]
    fn parts_sum_to_outside_exec() {
        let ledger = Ledger::new(inputs());
        let parts = ledger
            .rows
            .iter()
            .filter(|r| r.depth == 1)
            .fold(0.0, |acc, r| acc + r.ms);
        let outside = ledger.get("serve.outside_exec_ms").expect("row present");
        assert!((parts - outside).abs() < 1e-9);
    }

    #[test]
    fn outside_exec_is_its_own_top_level_row() {
        let ledger = Ledger::new(inputs());
        let row = ledger
            .rows
            .iter()
            .find(|r| r.name == "serve.outside_exec_ms")
            .expect("serve.outside_exec_ms is reported");
        assert_eq!(row.depth, 0);
        assert!((row.ms - (44.0 - 2.5)).abs() < 1e-12);
        // Nothing else absorbs it: the unattributed remainder covers only
        // the inside of the solve call.
        let unattributed = ledger.get("unattributed_ms").expect("row present");
        assert!((unattributed - (2.5 - 0.01 - 2.2)).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_of_one_name_count_once() {
        let span = |id, parent, name: &str, d| SpanRecord {
            id,
            parent,
            name: name.to_string(),
            lane: 0,
            start_seconds: 0.0,
            duration_seconds: d,
        };
        let records = vec![
            span(1, None, "execute", 1.0),
            span(2, Some(1), "cg-loop", 0.5),
            span(3, Some(2), "cg-loop", 0.2),
            span(4, Some(1), "cg-loop", 0.25),
        ];
        let totals = span_totals(&records);
        assert_eq!(totals["cg-loop"], 0.75);
        assert_eq!(totals["execute"], 1.0);
    }
}
