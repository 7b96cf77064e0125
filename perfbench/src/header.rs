//! The run header: what machine and toolchain produced a result.

use std::process::Command;

/// Machine and build facts recorded with every result.
#[derive(Clone, Debug)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
}

fn first_line_of(command: &mut Command) -> Option<String> {
    // `output` waits for the child, so no process outlives the call.
    let output = command.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

impl Machine {
    /// Probe the current machine.
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Machine {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model,
            rustc: first_line_of(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".to_string()),
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The commit of the working directory's own checkout.  The ceiling keeps
/// git from searching parent directories for some other repository.
fn git_rev() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = cwd.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line_of(&mut git)
}

/// Aggregate CPU time counters of the machine (`/proc/stat`), to report how
/// much of a run the hypervisor took away (steal time).
#[derive(Clone, Copy, Debug)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Read the counters now (`None` without `/proc/stat`).
    pub fn read() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some(CpuTimes {
            // user nice system idle iowait irq softirq steal …
            steal: *fields.get(7)?,
            total: fields.iter().take(8).sum(),
        })
    }

    /// Percent of all CPU time since `earlier` that was stolen.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total).max(1);
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minimal JSON string escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
