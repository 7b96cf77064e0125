//! The correctness gate.
//!
//! Every `Done` is checked as it arrives: converged, not stopped, and (for
//! steady jobs) its `final_residual_max` recomputed on the client from the
//! returned pressure must be bitwise the reported value and within the
//! tolerance bound.  After the run, a seeded sample of jobs is solved again
//! in-process on an [`Engine`], and the wire pressure field and convergence
//! history must be bitwise equal to it (the repository's wire vs in-process
//! contract).  Every mismatch is a failed job.

use crate::drive::JobRecord;
use crate::gen::{mix64, Job};
use mffv_engine::Engine;
use mffv_mesh::{Fnv1a, Workload, WorkloadSpec};
use mffv_solver::backend::{final_residual_max_f64, SolveReport};
use std::collections::BTreeMap;

/// How a job ended, as far as the gate is concerned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A verified `Done`, with the fingerprint of its pressure and history.
    Ok {
        /// FNV-1a over the pressure and history bits.
        fingerprint: u64,
    },
    /// Anything else, with the reason.
    Failed(String),
}

impl Verdict {
    /// Whether the job passed the gate.
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Ok { .. })
    }
}

/// The max-norm residual a converged steady solve may leave: CG stops when
/// `rᵀr ≤ tol`, which bounds every residual entry by `√tol`; the factor 10
/// covers evaluating an `f32` pressure in `f64`.
pub fn residual_bound(tolerance: f64) -> f64 {
    10.0 * tolerance.sqrt()
}

/// The last workload the client built, reused while the spec repeats.
#[derive(Default)]
pub struct WorkloadCache {
    last: Option<(WorkloadSpec, Workload)>,
}

impl WorkloadCache {
    fn get(&mut self, spec: &WorkloadSpec) -> &Workload {
        if self.last.as_ref().is_none_or(|(s, _)| s != spec) {
            self.last = Some((spec.clone(), spec.build()));
        }
        &self.last.as_ref().expect("just filled").1
    }
}

/// FNV-1a over the bits of a report's pressure field and history.
pub fn fingerprint(report: &SolveReport) -> u64 {
    let mut hash = Fnv1a::new();
    for &p in report.pressure.as_slice() {
        hash.write_f64(p);
    }
    hash.write_usize(report.history.iterations);
    hash.write_u64(u64::from(report.history.converged));
    for &rr in &report.history.residual_norms_squared {
        hash.write_f64(rr);
    }
    hash.finish()
}

/// Check one `Done` report of `job`.
pub fn check_done(job: &Job, report: &SolveReport, cache: &mut WorkloadCache) -> Verdict {
    if !report.converged() || report.was_stopped() {
        return Verdict::Failed(format!(
            "not converged after {} iterations (stopped: {:?})",
            report.iterations(),
            report.stop_reason()
        ));
    }
    if job.spec.transient.is_none() {
        let spec = job.spec.to_job_spec(None).effective_spec();
        let recomputed = final_residual_max_f64(cache.get(&spec), &report.pressure);
        if recomputed.to_bits() != report.final_residual_max.to_bits() {
            return Verdict::Failed(format!(
                "reported residual {:e} != recomputed {recomputed:e}",
                report.final_residual_max
            ));
        }
        let tolerance = job.spec.config.tolerance.unwrap_or(spec.tolerance);
        if recomputed.is_nan() || recomputed > residual_bound(tolerance) {
            return Verdict::Failed(format!(
                "residual {recomputed:e} above bound {:e}",
                residual_bound(tolerance)
            ));
        }
    } else if !report.final_residual_max.is_finite() {
        return Verdict::Failed("non-finite final residual".to_string());
    }
    Verdict::Ok {
        fingerprint: fingerprint(report),
    }
}

/// Whether job `index` joins the in-process sample: the first job, every
/// transient job (its residual cannot be recomputed on the client), and a
/// seeded one in sixteen of the rest.
pub fn sampled(job: &Job, seed: u64) -> bool {
    job.index == 0
        || job.spec.transient.is_some()
        || mix64(seed ^ mix64(job.index as u64)).is_multiple_of(16)
}

/// Re-solves sampled jobs in-process on an [`Engine`] and fails every
/// record whose wire result differs bitwise.  References are cached by spec
/// text for the whole run, and a job whose spec text was already solved is
/// always compared, so a stream of one repeated spec is checked in full for
/// the price of one in-process solve.
pub struct Gate {
    engine: Engine,
    seed: u64,
    reference: BTreeMap<String, Result<u64, String>>,
    /// Jobs compared so far.
    pub compared: usize,
}

impl Gate {
    /// A gate for the stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Gate {
            engine: Engine::new(1),
            seed,
            reference: BTreeMap::new(),
            compared: 0,
        }
    }

    /// Compare the sampled jobs of `records`.
    pub fn check(&mut self, records: &mut [JobRecord]) {
        for record in records.iter_mut() {
            let Verdict::Ok { fingerprint: wire } = record.verdict else {
                continue;
            };
            if !self.reference.contains_key(&record.job.text) && !sampled(&record.job, self.seed) {
                continue;
            }
            let engine = &self.engine;
            let expected = self
                .reference
                .entry(record.job.text.clone())
                .or_insert_with(|| {
                    let batch = engine.run(vec![record.job.spec.to_job_spec(None)]);
                    match batch.outcomes.first().and_then(|o| o.report()) {
                        Some(report) => Ok(fingerprint(report)),
                        None => Err("in-process solve did not complete".to_string()),
                    }
                })
                .clone();
            self.compared += 1;
            match expected {
                Ok(fp) if fp == wire => {}
                Ok(_) => {
                    record.verdict =
                        Verdict::Failed("wire result differs bitwise from in-process".to_string())
                }
                Err(why) => record.verdict = Verdict::Failed(why),
            }
        }
    }
}
