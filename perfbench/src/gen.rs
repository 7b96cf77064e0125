//! The seeded job-stream generator: every job the daemon sees is a `.mffv`
//! spec text produced here from `(workload, seed, index)` and parsed by the
//! daemon's own spec parser.

use mffv_mesh::workload::PAPER_TOLERANCE;
use mffv_serve::{parse_spec, WireJobSpec};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 2 connections, one job each in flight; every job is the
    /// same serving-size CG spec, so every job after the first is a
    /// context-cache hit.
    ServeHot,
    /// 2 connections keeping their session windows full with a stream of
    /// distinct specs (a fresh seeded permeability on every job): cache
    /// misses, queueing and slow backends.
    ServeMixed,
    /// One connection, one 128³ paper-tolerance f32 CG job at a time.
    PaperCg,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 3] = [Workload::ServeHot, Workload::ServeMixed, Workload::PaperCg];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeMixed => "serve-mixed",
            Workload::PaperCg => "paper-cg",
        }
    }

    /// Loopback connections the client opens.
    pub fn connections(self) -> usize {
        match self {
            Workload::ServeHot | Workload::ServeMixed => 2,
            Workload::PaperCg => 1,
        }
    }

    /// Jobs each connection keeps in flight (the mixed stream fills the
    /// daemon's default session window of 2).
    pub fn window(self) -> usize {
        match self {
            Workload::ServeMixed => 2,
            Workload::ServeHot | Workload::PaperCg => 1,
        }
    }

    /// Fresh daemons set up per run to time `setup_s`.  A paper-size cold
    /// start is two concurrent 128³ solves, so that workload sets up once.
    pub fn setups(self) -> usize {
        match self {
            Workload::ServeHot | Workload::ServeMixed => 9,
            Workload::PaperCg => 1,
        }
    }
}

/// Connections that submit the set-up job to a fresh daemon, one per worker
/// of the daemon's default configuration.  The set-up job then runs on both
/// workers at once, so set-up times the cold start of the whole daemon and
/// leaves every worker's context cache warm: no measured job pays a cold
/// start that depends on which worker happens to pick it up.
pub const SETUP_CONNECTIONS: usize = 2;

/// The job classes of the mixed stream, one cycle.  The stream repeats the
/// cycle, so every run sees the same mix; the four heavy classes (32×32×16
/// and dataflow, ~100 ms each) are spread out so that how often they queue
/// behind each other does not depend on the seed.
const MIXED_CYCLE: [&str; 16] = [
    "host 32 none",
    "host 16 none",
    "transient 16",
    "gpu-ref 16",
    "host 16 jacobi",
    "dataflow 16",
    "host 16 mg",
    "host 16 none",
    "host 32 jacobi",
    "transient 16",
    "host-f32 16 jacobi",
    "gpu-ref 16",
    "host 32 mg",
    "host 16 jacobi",
    "host 16 mg",
    "host 16 none",
];

/// One generated job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Position in the stream.
    pub index: usize,
    /// The `.mffv` text (what the stream's byte identity is defined over).
    pub text: String,
    /// The parsed spec the client submits.
    pub spec: WireJobSpec,
}

/// The deterministic job stream of one workload under one seed.
#[derive(Clone, Copy, Debug)]
pub struct JobStream {
    workload: Workload,
    seed: u64,
}

/// SplitMix64 finaliser: decorrelates `(seed, index)` pairs.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl JobStream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self { workload, seed }
    }

    /// The workload this stream belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Job `index` of the stream.
    pub fn job(&self, index: usize) -> Job {
        let text = self.text(index);
        let spec = parse_spec(&text).unwrap_or_else(|e| panic!("generated spec is invalid: {e}"));
        Job { index, text, spec }
    }

    /// The job each connection submits to a freshly bound daemon to time
    /// set-up: the stream's first job, except on the mixed stream, where it
    /// is the cycle's 16×16×8 multigrid job, whose cold start builds every
    /// kind of state a worker caches (workload, operator and hierarchy) at
    /// the size most of the stream's jobs have.
    pub fn setup_job(&self) -> Job {
        let index = match self.workload {
            Workload::ServeMixed => (0..MIXED_CYCLE.len())
                .find(|&i| self.mixed_class(i) == "host 16 mg")
                .expect("every cycle holds each class once"),
            Workload::ServeHot | Workload::PaperCg => 0,
        };
        self.job(index)
    }

    /// The `.mffv` text of job `index`.
    pub fn text(&self, index: usize) -> String {
        let seed = self.seed;
        match self.workload {
            Workload::ServeHot => format!(
                "name = serve-hot-s{seed}\ndims = 16 16 8\nbackend = host\n\
                 permeability = homogeneous 1\nboundary = source-producer 1 0\n\
                 tolerance = 1e-10\nmax_iterations = 2000\n"
            ),
            Workload::PaperCg => format!(
                "name = paper-cg-s{seed}\ndims = 128 128 128\nbackend = host-f32\n\
                 precision = f32\nthreads = 2\npermeability = homogeneous 1\n\
                 boundary = source-producer 1 0\ntolerance = {PAPER_TOLERANCE:e}\n\
                 max_iterations = 10000\n"
            ),
            Workload::ServeMixed => self.mixed_text(index),
        }
    }

    /// The class of mixed job `index`.
    pub fn mixed_class(&self, index: usize) -> &'static str {
        MIXED_CYCLE[index % MIXED_CYCLE.len()]
    }

    fn mixed_text(&self, index: usize) -> String {
        let class = self.mixed_class(index);
        // A fresh permeability realisation on every job: no two jobs share
        // an operator, so every job misses the worker's context cache.
        let perm_seed =
            mix64(self.seed.wrapping_mul(0x1000_0000_01B3) ^ index as u64) % 1_000_000_007;
        let parts: Vec<&str> = class.split(' ').collect();
        let name = format!("mixed-{index}-{}", class.replace(' ', "-"));
        if parts[0] == "transient" {
            return format!(
                "name = {name}\ndims = 16 16 8\nspacing = 10 10 5\nbackend = host\n\
                 permeability = lognormal -29.9 0.5 {perm_seed}\nboundary = none\n\
                 tolerance = 1e-9\nmax_iterations = 4000\n\n[transient]\n\
                 total_time = 30\ndt = ramp 0.5 1.5 4\ntotal_compressibility = 1e-9\n\
                 initial_pressure = 1.5e7\nwell = inj rate 2 3 1 0.25\n\
                 well = prod bhp 12 12 6 1e6 1e-9\n"
            );
        }
        let dims = if parts[1] == "32" {
            "32 32 16"
        } else {
            "16 16 8"
        };
        let mut text = format!(
            "name = {name}\ndims = {dims}\nbackend = {}\n\
             permeability = lognormal 0 0.5 {perm_seed}\nboundary = source-producer 1 0\n\
             tolerance = 1e-10\nmax_iterations = 4000\n",
            parts[0]
        );
        if parts[0] == "host-f32" {
            text.push_str("precision = f32\n");
        }
        if let Some(pc) = parts.get(2) {
            text.push_str(&format!("preconditioner = {pc}\n"));
        }
        text
    }
}
