#![forbid(unsafe_code)]
//! # mffv-solver
//!
//! The Krylov solver for the FV linear systems: one conjugate-gradient loop
//! ([`ConjugateGradient`]) implementing the paper's Algorithm 1, which also runs
//! preconditioned CG under any [`Preconditioner`] — the Jacobi preconditioner of
//! [`pcg`] or the multigrid V-cycle (natural extensions the paper leaves for
//! future work).  Around it: deterministic reduction utilities matching the
//! order of the whole-fabric all-reduce (§III-C), a one-Newton-step driver that
//! turns a workload into a converged pressure field, and the pooled host solve
//! pipeline of [`context`].
//!
//! The loop is written against the [`mffv_fv::LinearOperator`] abstraction so
//! the identical iteration runs on the sequential matrix-free kernel, the assembled
//! CSR baseline and the GPU-style reference; the dataflow fabric re-implements it
//! as a state machine.

pub mod backend;
pub mod cg;
pub mod context;
pub mod convergence;
pub mod monitor;
pub mod newton;
pub mod pcg;
pub mod reduction;
pub mod trace;
pub mod transient;

pub use backend::{
    DeviceSection, HostBackend, Precision, PreconditionerKind, SolveBackend, SolveConfig,
    SolveError, SolveReport, SolveRequest,
};
pub use cg::{ConjugateGradient, SolveOutcome};
pub use context::{CgScratch, ContextKey, ContextStats, SolveContext, SolveContextCache};
pub use convergence::{ConvergenceHistory, StoppingCriterion};
pub use mffv_fv::{MgConfig, MultigridVcycle, Preconditioner};
pub use monitor::{
    monitor_fn, CancelToken, Flow, FnMonitor, MonitorFanout, NullMonitor, PolicySession,
    RecordingMonitor, SolveEvent, SolveMonitor, StopPolicy, StopReason,
};
pub use newton::{solve_pressure, PressureSolution};
pub use pcg::JacobiPreconditioner;
pub use trace::{TraceMonitor, TRACE_CHUNK_ITERS};
pub use transient::{
    run_transient, PressureSnapshot, StepOutcome, StepRequest, TransientReport, TransientStep,
    WellTotal,
};

/// Convenient glob import.
pub mod prelude {
    pub use crate::backend::{
        DeviceSection, HostBackend, Precision, PreconditionerKind, SolveBackend, SolveConfig,
        SolveError, SolveReport, SolveRequest,
    };
    pub use crate::cg::{ConjugateGradient, SolveOutcome};
    pub use crate::context::{
        CgScratch, ContextKey, ContextStats, SolveContext, SolveContextCache,
    };
    pub use crate::convergence::{ConvergenceHistory, StoppingCriterion};
    pub use crate::monitor::{
        monitor_fn, CancelToken, Flow, FnMonitor, MonitorFanout, NullMonitor, PolicySession,
        RecordingMonitor, SolveEvent, SolveMonitor, StopPolicy, StopReason,
    };
    pub use crate::newton::{solve_pressure, PressureSolution};
    pub use crate::pcg::JacobiPreconditioner;
    pub use crate::reduction::{fabric_ordered_dot, fabric_ordered_sum};
    pub use crate::trace::{TraceMonitor, TRACE_CHUNK_ITERS};
    pub use crate::transient::{
        run_transient, PressureSnapshot, StepOutcome, StepRequest, TransientReport, TransientStep,
        WellTotal,
    };
    pub use mffv_fv::{MgConfig, MultigridVcycle, Preconditioner};
}
