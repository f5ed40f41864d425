//! Run metadata: the commit measured, a host fingerprint, and the
//! process's peak resident memory.

use std::fs;
use std::path::Path;
use std::process::Command;

/// What a result must be stamped with so that runs compare like with like.
#[derive(Debug, Clone)]
pub struct Host {
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// CPUs available to the process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// Clock ticks per second of the kernel's CPU accounting.
    pub clk_tck: String,
    /// Size of the last-level cache in bytes, if the host reports one.
    pub llc_bytes: Option<usize>,
}

impl Host {
    /// Probe the host; `root` is the checkout the benchmark runs in.
    pub fn probe(root: &Path) -> Host {
        Host {
            commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            clk_tck: Command::new("getconf")
                .arg("CLK_TCK")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map_or_else(
                    || "unknown".into(),
                    |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
                ),
            llc_bytes: llc_bytes(),
        }
    }
}

/// Resolve `HEAD` from the checkout's `.git` directory without running
/// git, which would search directories above the checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// The largest cache CPU 0 reports: the last-level cache.
fn llc_bytes() -> Option<usize> {
    let dir = fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let size = fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let size = size.trim();
        let (digits, mult) = match size.chars().last()? {
            'K' => (&size[..size.len() - 1], 1 << 10),
            'M' => (&size[..size.len() - 1], 1 << 20),
            'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        digits.parse::<usize>().ok().map(|n| n * mult)
    })
    .max()
}

/// Per-CPU `(steal, total)` CPU time counters in clock ticks, from the
/// `cpuN` lines of `/proc/stat`.  Time stolen from a virtual machine's CPUs
/// by its host slows every timed phase, so runs measure the share stolen.
#[derive(Debug, Clone)]
pub struct CpuTicks(Vec<(u64, u64)>);

impl CpuTicks {
    /// Read the counters now; `None` where `/proc/stat` is unreadable.
    pub fn read() -> Option<CpuTicks> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let cpus = stat
            .lines()
            .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
            .map(|l| {
                let ticks: Vec<u64> = l
                    .split_whitespace()
                    .skip(1)
                    .map(|t| t.parse().ok())
                    .collect::<Option<_>>()?;
                Some((*ticks.get(7)?, ticks.iter().sum()))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(CpuTicks(cpus))
    }
}

/// Per CPU, the share of its time between two readings that it kept (was
/// not stolen), for the CPUs on which a tick passed; empty when either
/// reading is missing.
fn kept_shares(before: &Option<CpuTicks>, after: &Option<CpuTicks>) -> Vec<f64> {
    let (Some(CpuTicks(b)), Some(CpuTicks(a))) = (before, after) else {
        return Vec::new();
    };
    b.iter()
        .zip(a)
        .filter(|((_, t0), (_, t1))| t1 > t0)
        .map(|((s0, t0), (s1, t1))| 1.0 - (s1 - s0) as f64 / (t1 - t0) as f64)
        .collect()
}

/// Share of all CPUs' time between two readings that was not stolen.
pub fn mean_kept(before: &Option<CpuTicks>, after: &Option<CpuTicks>) -> Option<f64> {
    let kept = kept_shares(before, after);
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Share of the time between two readings during which every CPU ran,
/// taking each CPU's steal as independent: the product of the shares each
/// kept, 1 when unknown.  Stages that hand buffers to each other across
/// every CPU run at full speed only while all of them run.
pub fn all_kept(before: &Option<CpuTicks>, after: &Option<CpuTicks>) -> f64 {
    kept_shares(before, after).iter().product()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
