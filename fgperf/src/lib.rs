//! # fgperf: the real-work benchmark of the FG sorts
//!
//! Each run sorts one workload in a closed loop — one sort at a time,
//! driven from one thread, on freshly provisioned disks every iteration —
//! with zero-cost disk and network models, so only real work is timed.
//! Every sorted output is verified outside the timed region.
//!
//! * `--trace 0` prints the end-to-end metrics ([`report::END_TO_END`]).
//! * `--trace 1` alternates untraced and traced sorts, times calls into
//!   each layer from outside (a timing [`Disk`](fg_pdm::Disk) wrapper, the
//!   programs' reports, one micro-benchmark per layer next to a same-host
//!   hardware reference) and prints the per-layer metrics
//!   ([`report::PER_LAYER`]).  Its spans are written to
//!   `.fgperf/spans-<workload>.json`, replacing the previous run's.

#![forbid(unsafe_code)]

pub mod host;
pub mod micro;
pub mod report;
pub mod trace;
pub mod workload;

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_core::analyze::{STAGE_BACKPRESSURED_PREFIX, STAGE_BUSY_PREFIX, STAGE_STARVED_PREFIX};
use fg_core::metrics::MetricsRegistry;
use fg_pdm::ScratchDir;
use fg_sort::{Matrix, SortConfig};

use host::Host;
use report::{median, quantile, unstolen_wall, Outcome};
use trace::{DiskTally, SpanLog};
use workload::{guard, iterate, Iteration, Prog, SortReport, Tracer, Workload, NODES};

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark: each workload's own input size.
    Full,
    /// Seconds-long, for the package's own tests.
    Smoke,
}

impl Scale {
    fn records_per_node(self, w: &Workload) -> usize {
        match self {
            Scale::Full => w.records_per_node(),
            Scale::Smoke => 1 << 14,
        }
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Work per run.
    pub scale: Scale,
}

/// Sorts run and discarded before timing: the first sort in a process is
/// slower than the steady state.
const WARMUP: usize = 1;

/// Run the benchmark in `root` (the checkout), writing only under
/// `root/.fgperf`.
pub fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let work = root.join(".fgperf");
    let tmp = work.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    // ScratchDir creates its directory under temp_dir(); point that inside
    // the checkout so the benchmark writes nowhere else.  No other thread
    // exists yet.
    std::env::set_var("TMPDIR", &tmp);
    let scratch = ScratchDir::new(args.workload.name)
        .map_err(|e| format!("creating a scratch directory: {e}"))?;
    let res = run_in(args, root, &work, scratch.path());
    drop(scratch);
    let _ = std::fs::remove_dir(&tmp);
    res
}

fn run_in(args: &Args, root: &Path, work: &Path, scratch: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let host = Host::probe(root);
    let cfg = w.config(args.scale.records_per_node(w), args.seed, Some(scratch));
    guard(&cfg)?;
    let mut out = Outcome::default();
    let mut counts: Option<(f64, f64)> = None;
    let mut check = |out: &mut Outcome, res: Result<Iteration, String>| {
        out.record(res.and_then(|it| {
            // The I/O volume of a sort is fixed by its input: any drift
            // between iterations of one seed is a defect.
            let c = (it.disk_io_x, it.net_io_x);
            match counts {
                Some(first) if first != c => Err(format!(
                    "I/O counts changed between iterations: {first:?} then {c:?}"
                )),
                _ => {
                    counts = Some(c);
                    Ok(it)
                }
            }
        }))
    };
    // Memory is measured on the first sort of the process: later sorts
    // start from whatever the allocator retained from earlier ones, so
    // their watermark creeps up with the number of sorts in the run.
    let mut first_rss = None;
    for _ in 0..WARMUP {
        if let Some(it) = check(&mut out, iterate(w, &cfg, None, None)) {
            first_rss.get_or_insert(it.peak_rss_mib);
        }
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let ticks0 = host::CpuTicks::read();
    let t0 = Instant::now();
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<(Iteration, Stages)> = Vec::new();
    let log = Arc::new(SpanLog::default());
    while t0.elapsed() < budget || untraced.is_empty() || (args.trace && traced.is_empty()) {
        // Keep going past the budget until a sort verifies, but not forever.
        if out.attempted >= 10 && out.failed * 2 > out.attempted {
            break;
        }
        if let Some(it) = check(&mut out, iterate(w, &cfg, None, None)) {
            first_rss.get_or_insert(it.peak_rss_mib);
            untraced.push(it);
        }
        if args.trace {
            let registry = Arc::new(MetricsRegistry::new());
            let mut traced_cfg = cfg.clone();
            traced_cfg.metrics = Some(Arc::clone(&registry));
            let res = log.time("iteration", 0, |id| {
                iterate(
                    w,
                    &traced_cfg,
                    Some(Tracer {
                        log: &log,
                        parent: id,
                    }),
                    None,
                )
            });
            if let Some(it) = check(&mut out, res) {
                traced.push((it, Stages::from_registry(&registry)));
            }
        }
    }
    let measured = t0.elapsed();
    let steal = host::mean_kept(&ticks0, &host::CpuTicks::read())
        .map_or("unknown".into(), |k| format!("{:.4}", 1.0 - k));
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        return Err(format!(
            "no sort verified; first errors: {}",
            out.errors.join("; ")
        ));
    }
    let (disk_io_x, net_io_x) = counts.expect("a verified iteration set the counts");

    let walls: Vec<f64> = untraced.iter().map(|i| i.wall.as_secs_f64()).collect();
    let unstolen = unstolen_wall(
        &untraced
            .iter()
            .map(|i| (i.wall.as_secs_f64(), i.sort_kept))
            .collect::<Vec<_>>(),
    );
    let setups: Vec<f64> = untraced
        .iter()
        .map(|i| i.setup.as_secs_f64() * i.setup_kept)
        .collect();
    let total_records = cfg.total_records() as f64;
    out.meta = vec![
        ("workload", w.name.to_string()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", host.commit.clone()),
        ("nproc", host.nproc.to_string()),
        ("kernel", host.kernel.clone()),
        ("clk_tck", host.clk_tck.clone()),
        (
            "llc_bytes",
            host.llc_bytes.map_or("unknown".into(), |b| b.to_string()),
        ),
        ("nodes", NODES.to_string()),
        ("records_per_node", cfg.records_per_node.to_string()),
        ("block_bytes", cfg.block_bytes.to_string()),
        ("timed_sorts", walls.len().to_string()),
        ("wall_s_p25", quantile(&walls, 0.25).to_string()),
        ("wall_s_p50", median(&walls).to_string()),
        ("wall_s_p75", quantile(&walls, 0.75).to_string()),
        ("measured_s", measured.as_secs_f64().to_string()),
        ("walls_s", format!("{walls:.4?}")),
        (
            "sorts_kept",
            format!(
                "{:.3?}",
                untraced.iter().map(|i| i.sort_kept).collect::<Vec<_>>()
            ),
        ),
        ("unstolen_wall_s", unstolen.to_string()),
        ("steal_frac", steal),
    ];

    if !args.trace {
        out.metrics = vec![
            ("mrec_per_s", total_records / unstolen / 1e6),
            ("setup_s", median(&setups)),
            (
                "peak_rss_mib",
                first_rss.expect("a verified sort read the watermark"),
            ),
            ("disk_io_x", disk_io_x),
            ("net_io_x", net_io_x),
            ("verified_frac", out.verified_frac()),
        ];
        return Ok(out);
    }

    let traced_walls: Vec<f64> = traced.iter().map(|(i, _)| i.wall.as_secs_f64()).collect();
    let overhead = median(&traced_walls) / median(&walls) - 1.0;
    let mut metrics = layer_metrics(&traced);
    metrics.push(("trace.overhead_frac", overhead));
    let (micro, micro_meta) = micro_metrics(args, &cfg, &log, scratch, &host, &traced)?;
    metrics.extend(micro);
    out.metrics = metrics;
    out.meta.extend(micro_meta);
    out.meta.push(("traced_sorts", traced.len().to_string()));
    let unmapped: BTreeSet<&String> = traced.iter().flat_map(|(_, s)| &s.1).collect();
    out.meta.push(("unmapped_stages", format!("{unmapped:?}")));

    let spans = format!("spans-{}.json", w.name);
    let written = log
        .write_json(&work.join(&spans))
        .map_err(|e| format!("writing {spans}: {e}"))?;
    out.meta.push(("spans", format!(".fgperf/{spans}")));
    out.meta.push(("span_count", written.to_string()));
    Ok(out)
}

/// `(name, value)` pairs in print order.
type Named<T> = Vec<(&'static str, T)>;

/// The per-role stage metrics, `[busy, blocked accept, blocked convey]`,
/// and the stage names each role covers; dsort and csort name their
/// communication stages differently.
const ROLES: [([&str; 3], &[&str]); 6] = [
    (
        [
            "stage.read.busy_s",
            "stage.read.blocked_accept_s",
            "stage.read.blocked_convey_s",
        ],
        &["read"],
    ),
    (
        [
            "stage.permute.busy_s",
            "stage.permute.blocked_accept_s",
            "stage.permute.blocked_convey_s",
        ],
        &["permute"],
    ),
    (
        [
            "stage.sort.busy_s",
            "stage.sort.blocked_accept_s",
            "stage.sort.blocked_convey_s",
        ],
        &["sort"],
    ),
    (
        [
            "stage.comm.busy_s",
            "stage.comm.blocked_accept_s",
            "stage.comm.blocked_convey_s",
        ],
        &["send", "receive", "communicate", "exchange", "stripe"],
    ),
    (
        [
            "stage.merge.busy_s",
            "stage.merge.blocked_accept_s",
            "stage.merge.blocked_convey_s",
        ],
        &["merge"],
    ),
    (
        [
            "stage.write.busy_s",
            "stage.write.blocked_accept_s",
            "stage.write.blocked_convey_s",
        ],
        &["write"],
    ),
];

/// Per-role stage time of one traced sort, in seconds per node, indexed
/// like [`ROLES`], and the stage names no role covers.
#[derive(Debug, Clone)]
struct Stages([[f64; 3]; 6], BTreeSet<String>);

impl Stages {
    /// Sum the registry's per-stage counters (every node and pass of the
    /// sort records into it) by role.
    fn from_registry(registry: &MetricsRegistry) -> Stages {
        let mut s = Stages([[0.0; 3]; 6], BTreeSet::new());
        for (name, ns) in &registry.snapshot().counters {
            for (k, prefix) in [
                STAGE_BUSY_PREFIX,
                STAGE_STARVED_PREFIX,
                STAGE_BACKPRESSURED_PREFIX,
            ]
            .into_iter()
            .enumerate()
            {
                let Some(stage) = name.strip_prefix(prefix) else {
                    continue;
                };
                let base = stage.trim_end_matches(|c: char| c.is_ascii_digit() || c == '#');
                match ROLES.iter().position(|(_, names)| names.contains(&base)) {
                    Some(r) => s.0[r][k] += *ns as f64 / 1e9 / NODES as f64,
                    None => {
                        s.1.insert(stage.to_string());
                    }
                }
            }
        }
        s
    }
}

/// Per-layer figures read from the traced sorts: medians over iterations.
fn layer_metrics(traced: &[(Iteration, Stages)]) -> Named<f64> {
    let med = |f: &dyn Fn(&Iteration, &Stages) -> f64| {
        median(&traced.iter().map(|(i, s)| f(i, s)).collect::<Vec<_>>())
    };
    let tally = |i: &Iteration| -> DiskTally { i.tally.clone().unwrap_or_default() };
    let pct = |i: &Iteration, write: bool, q: f64| {
        let t = tally(i);
        let lat = if write { t.write.lat_ns } else { t.read.lat_ns };
        if lat.is_empty() {
            return 0.0;
        }
        quantile(&lat.iter().map(|&n| n as f64).collect::<Vec<_>>(), q) / 1e3
    };
    let mut v: Named<f64> = vec![
        (
            "sort.pass1_s",
            med(&|i, _| match &i.report {
                SortReport::Dsort(r) => r.pass1.as_secs_f64(),
                SortReport::Csort(r) => r.pass[0].as_secs_f64(),
            }),
        ),
        (
            "sort.pass2_s",
            med(&|i, _| match &i.report {
                SortReport::Dsort(r) => r.pass2.as_secs_f64(),
                SortReport::Csort(r) => r.pass[1].as_secs_f64(),
            }),
        ),
        (
            "sort.rest_s",
            med(&|i, _| match &i.report {
                SortReport::Dsort(r) => r.sampling.as_secs_f64(),
                SortReport::Csort(r) => r.pass[2].as_secs_f64(),
            }),
        ),
        (
            "sort.partition_skew",
            med(&|i, _| match &i.report {
                SortReport::Dsort(r) => {
                    let p = &r.partition_records;
                    let mean = p.iter().sum::<u64>() as f64 / p.len() as f64;
                    *p.iter().max().unwrap_or(&0) as f64 / mean
                }
                SortReport::Csort(_) => 1.0,
            }),
        ),
        (
            "sort.runs_per_node",
            med(&|i, _| match &i.report {
                SortReport::Dsort(r) => {
                    r.runs_per_node.iter().sum::<u64>() as f64 / r.runs_per_node.len() as f64
                }
                SortReport::Csort(_) => 0.0,
            }),
        ),
        (
            "core.threads_per_pass",
            med(&|i, _| match &i.report {
                SortReport::Dsort(r) => r.node0_reports.as_ref().map_or(0.0, |(p1, p2)| {
                    (p1.threads_spawned + p2.threads_spawned) as f64 / 2.0
                }),
                SortReport::Csort(_) => 0.0,
            }),
        ),
        ("pdm.read_ops", med(&|i, _| tally(i).read.ops as f64)),
        ("pdm.write_ops", med(&|i, _| tally(i).write.ops as f64)),
        (
            "pdm.read_mib",
            med(&|i, _| tally(i).read.bytes as f64 / (1 << 20) as f64),
        ),
        (
            "pdm.write_mib",
            med(&|i, _| tally(i).write.bytes as f64 / (1 << 20) as f64),
        ),
        (
            "pdm.read_busy_s",
            med(&|i, _| tally(i).read.lat_ns.iter().sum::<u64>() as f64 / 1e9),
        ),
        (
            "pdm.write_busy_s",
            med(&|i, _| tally(i).write.lat_ns.iter().sum::<u64>() as f64 / 1e9),
        ),
        ("pdm.read_us_p50", med(&|i, _| pct(i, false, 0.5))),
        ("pdm.read_us_p99", med(&|i, _| pct(i, false, 0.99))),
        ("pdm.write_us_p50", med(&|i, _| pct(i, true, 0.5))),
        ("pdm.write_us_p99", med(&|i, _| pct(i, true, 0.99))),
        ("pdm.flush_s", med(&|i, _| tally(i).flush_ns as f64 / 1e9)),
        ("pdm.errors", med(&|i, _| tally(i).errors as f64)),
    ];
    for (r, (names, _)) in ROLES.iter().enumerate() {
        for (k, name) in names.iter().enumerate() {
            v.push((name, med(&|_, s| s.0[r][k])));
        }
    }
    v
}

/// The layer micro-benchmarks and hardware references, shaped like the
/// workload, each next to its reference.
fn micro_metrics(
    args: &Args,
    cfg: &SortConfig,
    log: &SpanLog,
    scratch: &Path,
    host: &Host,
    traced: &[(Iteration, Stages)],
) -> Result<(Named<f64>, Named<String>), String> {
    let smoke = args.scale == Scale::Smoke;
    let rb = cfg.record.record_bytes;
    let block = cfg.block_bytes;
    // The memcpy working set follows the >= 4x LLC rule.
    let set = if smoke {
        16 << 20
    } else {
        (4 * host.llc_bytes.unwrap_or(32 << 20)).max(64 << 20)
    };
    let file_bytes = if smoke { 4 << 20 } else { 64 << 20 };
    let (budget, rounds) = if smoke {
        (Duration::from_millis(20), 500)
    } else {
        (Duration::from_millis(400), 5_000)
    };
    // dsort sorts runs and merges a node's runs; csort sorts whole columns
    // and its pass 3 merges two half columns.
    let (sort_records, k, run_records) = match args.workload.prog {
        Prog::Dsort => {
            let runs = traced
                .iter()
                .map(|(i, _)| match &i.report {
                    SortReport::Dsort(r) => {
                        r.runs_per_node.iter().sum::<u64>() as f64 / NODES as f64
                    }
                    SortReport::Csort(_) => 0.0,
                })
                .collect::<Vec<_>>();
            let run = cfg.run_bytes / rb;
            (run, median(&runs).round().max(2.0) as usize, run)
        }
        Prog::Csort => {
            let r = Matrix::choose(cfg.total_records(), NODES)
                .map_err(|e| e.to_string())?
                .r;
            (r, 2, r / 2)
        }
    };

    log.time("micro", 0, |p| {
        let memcpy = micro::memcpy_gbs(log, p, set);
        let [hw_w, hw_r, os_w, os_r] = micro::file_mbs(log, p, scratch, block, file_bytes)?;
        let sort = micro::sort_mrec_s(log, p, cfg, sort_records, budget);
        let merge = micro::merge_mrec_s(log, p, cfg, k, run_records, budget)?;
        let hop = micro::hop_us(log, p, cfg.pipeline_buffers, block, rounds as u64)?;
        let msg = micro::msg_us(log, p, block, rounds)?;
        let xchg = micro::exchange_gbs(log, p, block, rounds)?;
        let vs_memcpy = |mrec_s: f64| mrec_s * 1e6 * rb as f64 / (memcpy * 1e9);
        Ok((
            vec![
                ("core.hop_us", hop),
                ("kernels.sort_mrec_s", sort),
                ("kernels.sort_vs_memcpy", vs_memcpy(sort)),
                ("merge.kway_mrec_s", merge),
                ("merge.kway_vs_memcpy", vs_memcpy(merge)),
                ("cluster.msg_us", msg),
                ("cluster.exchange_gbs", xchg),
                ("cluster.exchange_vs_memcpy", xchg / memcpy),
                ("pdm.osdisk_write_mbs", os_w),
                ("pdm.osdisk_read_mbs", os_r),
                ("pdm.osdisk_write_vs_hw", os_w / hw_w),
                ("pdm.osdisk_read_vs_hw", os_r / hw_r),
                ("hw.memcpy_gbs", memcpy),
                ("hw.file_write_mbs", hw_w),
                ("hw.file_read_mbs", hw_r),
            ],
            vec![
                ("memcpy_set_bytes", set.to_string()),
                ("file_bytes", file_bytes.to_string()),
                ("kernel_buf_records", sort_records.to_string()),
                ("merge_runs", k.to_string()),
                ("merge_run_records", run_records.to_string()),
            ],
        ))
    })
}
