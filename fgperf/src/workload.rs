//! The three sort workloads, the real-work guard, and one verified
//! closed-loop iteration.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fg_cluster::NetCfg;
use fg_pdm::{DiskCfg, DiskRef};
use fg_sort::csort::{run_csort, CsortReport};
use fg_sort::dsort::{run_dsort, DsortReport};
use fg_sort::input::try_provision;
use fg_sort::verify::{verify_output, Strictness};
use fg_sort::{DiskBackend, KeyDist, SortConfig};

use crate::host::{all_kept, mean_kept, CpuTicks};
use crate::trace::{DiskTally, SpanLog, TimedDisk};

/// Which sorting program a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    /// The paper's two-pass distribution sort.
    Dsort,
    /// The three-pass columnsort baseline.
    Csort,
}

/// One benchmark workload: a program, a key distribution, a buffer
/// geometry and a storage backend.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Program run every iteration.
    pub prog: Prog,
    /// Input key distribution.
    pub dist: KeyDist,
    /// Disk block and message batch size.
    pub block_bytes: usize,
    /// Real files through `OsDisk` and `IoScheduler` instead of `SimDisk`.
    pub os_files: bool,
    /// Input per node, in MiB of REC16 records.
    pub mib_per_node: usize,
}

/// Why each workload is here:
///
/// * `dsort-uniform` is the paper's headline program on real compute only;
///   pass 2's 256-run merge is most of its time, so `merge` and `kernels`
///   do most of the work and `pdm` is a memcpy.
/// * `dsort-poisson-2k` runs the same code with 8x the buffers and
///   messages and skewed partitions, so per-buffer `core` and `cluster`
///   cost dominates and a merge tuned only for large uniform buffers shows.
///   It runs 4 MiB per node: at 16 MiB one sort takes seconds and a run
///   holds too few of them to be steady.
/// * `csort-os` is the oblivious baseline and the only workload with real
///   file I/O, balanced all-to-all exchange and whole-column sorts; it
///   bypasses the k-way merge.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dsort-uniform",
        prog: Prog::Dsort,
        dist: KeyDist::Uniform,
        block_bytes: 16 << 10,
        os_files: false,
        mib_per_node: 16,
    },
    Workload {
        name: "dsort-poisson-2k",
        prog: Prog::Dsort,
        dist: KeyDist::Poisson,
        block_bytes: 2 << 10,
        os_files: false,
        mib_per_node: 4,
    },
    Workload {
        name: "csort-os",
        prog: Prog::Csort,
        dist: KeyDist::Uniform,
        block_bytes: 16 << 10,
        os_files: true,
        mib_per_node: 16,
    },
];

/// Cluster size of every workload.
pub const NODES: usize = 4;
/// dsort pass-1 run size of every workload.
pub const RUN_BYTES: usize = 64 << 10;
/// Read-ahead depth of the `IoScheduler` on real files.
pub const IO_DEPTH: usize = 4;

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// REC16 records per node at full scale.
    pub fn records_per_node(&self) -> usize {
        (self.mib_per_node << 20) / 16
    }

    /// The sort configuration for `records_per_node` REC16 records per
    /// node: zero-cost disk and network models, nothing instrumented.
    /// `os_dir` is the directory real-file workloads put their disks in.
    pub fn config(&self, records_per_node: usize, seed: u64, os_dir: Option<&Path>) -> SortConfig {
        let mut cfg = SortConfig::test_default(NODES, records_per_node);
        cfg.dist = self.dist;
        cfg.seed = seed;
        cfg.block_bytes = self.block_bytes;
        cfg.run_bytes = RUN_BYTES;
        cfg.vertical_buf_bytes = self.block_bytes / 2;
        if self.os_files {
            let dir = os_dir.expect("real-file workloads need a directory");
            cfg.backend = DiskBackend::Os {
                dir: dir.to_path_buf(),
            };
            cfg.io_depth = IO_DEPTH;
        }
        cfg
    }

    /// Disk bytes read plus written per input byte, fixed by the
    /// algorithm: dsort reads and writes every record twice, csort three
    /// times.
    pub fn expected_disk_io_x(&self) -> f64 {
        match self.prog {
            Prog::Dsort => 4.0,
            Prog::Csort => 6.0,
        }
    }
}

/// Refuse any configuration that would time cost-model sleeps or
/// instrumentation instead of real work.
pub fn guard(cfg: &SortConfig) -> Result<(), String> {
    if cfg.disk != DiskCfg::zero() {
        return Err(format!(
            "disk cost model {:?} is not zero: it would time sleeps",
            cfg.disk
        ));
    }
    if cfg.net != NetCfg::zero() {
        return Err(format!(
            "network cost model {:?} is not zero: it would time sleeps",
            cfg.net
        ));
    }
    if cfg.trace
        || cfg.trace_sink.is_some()
        || cfg.watchdog.is_some()
        || cfg.autotune.is_some()
        || cfg.metrics.is_some()
        || cfg.ledger.is_some()
        || cfg.pin.is_some()
    {
        return Err("the untraced configuration must carry no instrumentation".into());
    }
    Ok(())
}

/// The report of either program.
#[derive(Debug, Clone)]
pub enum SortReport {
    /// From `run_dsort`.
    Dsort(Box<DsortReport>),
    /// From `run_csort`.
    Csort(CsortReport),
}

impl SortReport {
    fn disk_bytes(&self) -> u64 {
        let stats = match self {
            SortReport::Dsort(r) => &r.disk_stats,
            SortReport::Csort(r) => &r.disk_stats,
        };
        stats.iter().map(|s| s.bytes_total()).sum()
    }

    fn net_bytes(&self) -> u64 {
        match self {
            SortReport::Dsort(r) => r.bytes_sent.iter().sum(),
            SortReport::Csort(r) => r.bytes_sent.iter().sum(),
        }
    }
}

/// Tracing attached to one iteration.
pub struct Tracer<'a> {
    /// Where spans go.
    pub log: &'a Arc<SpanLog>,
    /// The iteration span disk spans hang under.
    pub parent: u64,
}

/// One verified sort.
#[derive(Debug)]
pub struct Iteration {
    /// Input generation plus disk provisioning.
    pub setup: Duration,
    /// Share of the CPUs' time during set-up that was not stolen (1 where
    /// `/proc/stat` is unreadable); set-up runs on one thread.
    pub setup_kept: f64,
    /// Wall time of the `run_dsort`/`run_csort` call.
    pub wall: Duration,
    /// Share of the sort's wall during which no CPU was stolen (1 where
    /// `/proc/stat` is unreadable); the sort's stages span every CPU.
    pub sort_kept: f64,
    /// Disk bytes read plus written per input byte.
    pub disk_io_x: f64,
    /// Fabric bytes sent per input byte.
    pub net_io_x: f64,
    /// The process's peak resident memory so far, read right after the
    /// sort and before verification.
    pub peak_rss_mib: f64,
    /// The program's own report.
    pub report: SortReport,
    /// What the timing wrappers saw, when traced.
    pub tally: Option<DiskTally>,
}

/// Run one closed-loop iteration: provision fresh disks from the seed
/// (timed as set-up), sort them (timed), read the process's peak resident
/// memory, then verify the output and the I/O counts (untimed).  `inject`
/// arms `fail_after_ops` on node 0's disk before the sort, through the
/// wrapper when traced.  Any error, failed verification or count outside
/// 1% of the algorithm's I/O volume is returned as `Err`.
pub fn iterate(
    w: &Workload,
    cfg: &SortConfig,
    tracer: Option<Tracer<'_>>,
    inject: Option<u64>,
) -> Result<Iteration, String> {
    let ticks0 = CpuTicks::read();
    let t0 = Instant::now();
    let disks = try_provision(cfg).map_err(|e| format!("provisioning: {e}"))?;
    let setup = t0.elapsed();
    let setup_kept = mean_kept(&ticks0, &CpuTicks::read()).unwrap_or(1.0);

    let tally = Arc::new(Mutex::new(DiskTally::default()));
    let run_disks: Vec<DiskRef> = match &tracer {
        Some(t) => {
            t.log.set_current(t.parent);
            disks
                .iter()
                .enumerate()
                .map(|(rank, d)| {
                    TimedDisk::wrap(Arc::clone(d), rank, Arc::clone(t.log), Arc::clone(&tally))
                })
                .collect()
        }
        None => disks.clone(),
    };
    if let Some(ops) = inject {
        run_disks[0].fail_after_ops(ops);
    }

    let sort = || match w.prog {
        Prog::Dsort => run_dsort(cfg, &run_disks).map(|r| SortReport::Dsort(Box::new(r))),
        Prog::Csort => run_csort(cfg, &run_disks).map(SortReport::Csort),
    };
    let ticks1 = CpuTicks::read();
    let t1 = Instant::now();
    let res = match &tracer {
        Some(t) => t.log.time(
            match w.prog {
                Prog::Dsort => "run_dsort",
                Prog::Csort => "run_csort",
            },
            t.parent,
            |id| {
                t.log.set_current(id);
                sort()
            },
        ),
        None => sort(),
    };
    let wall = t1.elapsed();
    let sort_kept = all_kept(&ticks1, &CpuTicks::read());
    let report = res.map_err(|e| format!("sort: {e}"))?;
    let peak_rss_mib = crate::host::peak_rss_mib().ok_or("VmHWM is not readable")?;

    verify_output(cfg, &disks, Strictness::Fingerprint).map_err(|e| e.to_string())?;
    let input = cfg.total_bytes() as f64;
    let disk_io_x = report.disk_bytes() as f64 / input;
    let net_io_x = report.net_bytes() as f64 / input;
    let want = w.expected_disk_io_x();
    if (disk_io_x - want).abs() > 0.01 * want {
        return Err(format!("disk_io_x {disk_io_x} is not within 1% of {want}"));
    }
    if net_io_x <= 0.0 {
        return Err("the sort sent nothing over the fabric".into());
    }
    let tally = tracer
        .is_some()
        .then(|| tally.lock().expect("disk tally poisoned").clone());
    Ok(Iteration {
        setup,
        setup_kept,
        wall,
        sort_kept,
        disk_io_x,
        net_io_x,
        peak_rss_mib,
        report,
        tally,
    })
}
