//! dsort: the paper's two-pass out-of-core distribution sort (§V).
//!
//! Phases, per node, with cluster-wide barriers and max-reductions around
//! each so reported times match the paper's per-pass accounting:
//!
//! 1. **Sampling** (preprocessing): select `P−1` splitters by oversampling
//!    with extended keys ([`sampling`]).
//! 2. **Pass 1**: partition and distribute — disjoint send/receive FG
//!    pipelines ([`pass1`]); each node ends with sorted runs on disk.
//! 3. **Pass 2**: merge runs (intersecting pipelines, virtual read stages),
//!    load-balance, and stripe the output ([`pass2`]).

pub mod pass1;
pub mod pass2;
pub mod sampling;

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_cluster::{Cluster, ClusterCfg, ClusterError, ClusterObs, Communicator};
use fg_core::cluster_report::{ClusterReport, RankReport};
use fg_core::metrics::{MetricsRegistry, MetricsSnapshot};
use fg_pdm::{DiskRef, DiskStats};

use crate::config::SortConfig;
use crate::SortError;

/// First payload byte of a pass-1 or pass-2 message: data follows.
pub const MSG_DATA: u8 = 0;
/// First payload byte: the sender finished the pass.
pub const MSG_DONE: u8 = 1;
/// First payload byte: the sender's pass failed and it sends nothing more.
pub const MSG_ABORT: u8 = 2;

/// End a send stage whose body returned `sent`: tell every node the
/// sender is done (after `Ok`) or aborted (after any error, the teardown
/// `Cancelled` included), so no receive stage waits in the fabric —
/// outside any FG queue teardown could close — for a sender that is
/// gone.  On the error path a failed marker send is ignored and the
/// body's error returned.
fn end_sends(comm: &Communicator, tag: u64, sent: fg_core::Result<()>) -> fg_core::Result<()> {
    let marker = if sent.is_ok() { MSG_DONE } else { MSG_ABORT };
    for dst in 0..comm.nodes() {
        let told = comm.send(dst, tag, vec![marker]);
        if sent.is_ok() {
            told.map_err(SortError::from)?;
        }
    }
    sent
}

/// Timings and counters from one dsort run.
#[derive(Debug, Clone)]
pub struct DsortReport {
    /// Max-across-nodes wall time of the sampling phase.
    pub sampling: Duration,
    /// Max-across-nodes wall time of pass 1.
    pub pass1: Duration,
    /// Max-across-nodes wall time of pass 2.
    pub pass2: Duration,
    /// Records each node's partition received (T2's balance data).
    pub partition_records: Vec<u64>,
    /// Sorted runs each node merged in pass 2.
    pub runs_per_node: Vec<u64>,
    /// OS threads each node's pass-2 FG program spawned (A2's data).
    pub pass2_threads: Vec<u64>,
    /// Per-node disk stats accumulated over the whole run.
    pub disk_stats: Vec<DiskStats>,
    /// Per-node bytes sent over the interconnect.
    pub bytes_sent: Vec<u64>,
    /// Node 0's FG reports for both passes (with spans when
    /// `SortConfig::trace` was set) — render with
    /// [`fg_core::Report::render_gantt`].
    pub node0_reports: Option<(fg_core::Report, fg_core::Report)>,
    /// Snapshot of the metrics registry passed via
    /// [`DsortOptions::metrics`] (`comm/…` traffic and collective
    /// latencies, plus `disk/…` I/O when the disks were provisioned with
    /// [`provision_with_metrics`](crate::input::provision_with_metrics));
    /// empty when no registry was attached.
    pub metrics: MetricsSnapshot,
    /// The merged cluster report (every rank's FG reports, wall time, and
    /// registry snapshot) when the run was launched with
    /// [`DsortOptions::observe`]; feed it to
    /// [`fg_core::diagnose_cluster`] for straggler/skew analysis.
    pub cluster: Option<ClusterReport>,
}

impl DsortReport {
    /// Total wall time (sampling + both passes).
    pub fn total(&self) -> Duration {
        self.sampling + self.pass1 + self.pass2
    }
}

/// Options tweaking dsort's structure (for ablations) and instrumentation.
#[derive(Debug, Clone)]
pub struct DsortOptions {
    /// Use virtual vertical read stages in pass 2 (the default).  Disabled
    /// by ablation A2 to measure the thread explosion virtual stages avoid.
    pub virtual_reads: bool,
    /// When set, every node's communicator records per-peer traffic and
    /// collective latencies into this registry, and
    /// [`DsortReport::metrics`] carries the final snapshot.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Full per-node observability: each rank gets its *own* metrics
    /// registry (its FG programs and communicator record into it), every
    /// rank's FG reports are collected, and [`DsortReport::cluster`]
    /// carries the merged [`ClusterReport`].  When the config also sets a
    /// `trace_sink`, each rank's spans land in that rank's track group and
    /// sends carry their buffer's trace id across the wire.  Supersedes
    /// [`DsortOptions::metrics`] when both are set.
    pub observe: bool,
}

impl Default for DsortOptions {
    fn default() -> Self {
        DsortOptions {
            virtual_reads: true,
            metrics: None,
            observe: false,
        }
    }
}

/// Run dsort on the provisioned `disks`; leaves striped output in
/// `output` on every disk.
pub fn run_dsort(cfg: &SortConfig, disks: &[DiskRef]) -> Result<DsortReport, SortError> {
    run_dsort_with(cfg, disks, DsortOptions::default())
}

/// [`run_dsort`] with explicit structural options.
pub fn run_dsort_with(
    cfg: &SortConfig,
    disks: &[DiskRef],
    opts: DsortOptions,
) -> Result<DsortReport, SortError> {
    cfg.validate()?;
    if disks.len() != cfg.nodes {
        return Err(SortError::Config(format!(
            "need {} disks, got {}",
            cfg.nodes,
            disks.len()
        )));
    }
    let cfg = cfg.clone();
    let disks_arc: Vec<DiskRef> = disks.to_vec();

    #[derive(Debug)]
    struct NodeOut {
        times: [Duration; 3],
        wall: Duration,
        partitions: Vec<u64>,
        runs: Vec<u64>,
        threads: Vec<u64>,
        reports: Option<(fg_core::Report, fg_core::Report)>,
    }

    let cluster_cfg = ClusterCfg {
        nodes: cfg.nodes,
        net: cfg.net,
    };
    let registry = opts.metrics.clone();
    let virtual_reads = opts.virtual_reads;
    let observed = opts.observe;
    let trace_sink = cfg.trace_sink.clone();
    let node_fn = move |node: fg_cluster::NodeCtx| -> Result<NodeOut, ClusterError> {
        let rank = node.rank();
        let comm = node.comm().clone();
        let disk = Arc::clone(&disks_arc[rank]);
        let wall_start = Instant::now();
        // Observed runs give each rank its own registry and track group:
        // the rank's FG programs record next to its communicator.
        let cfg = if observed {
            let mut cfg = cfg.clone();
            cfg.metrics = node.registry().cloned();
            cfg.trace_group = Some(rank as u32);
            cfg
        } else {
            cfg.clone()
        };

        // Phase 0: sampling.
        comm.barrier()?;
        let t0 = Instant::now();
        let splitters =
            sampling::select_splitters(&cfg, rank, &comm, &disk).map_err(ClusterError::from)?;
        comm.barrier()?;
        let sampling_ns = comm.allreduce_max(t0.elapsed().as_nanos() as u64)?;

        // Pass 1: partition and distribute.
        comm.barrier()?;
        let t1 = Instant::now();
        let p1 = pass1::pass1(&cfg, rank, &comm, &disk, &splitters).map_err(ClusterError::from)?;
        comm.barrier()?;
        let pass1_ns = comm.allreduce_max(t1.elapsed().as_nanos() as u64)?;

        // Pass 2: merge, load-balance, stripe.  The exchange of
        // partition sizes (needed for global rank offsets) is part of
        // the pass.
        comm.barrier()?;
        let t2 = Instant::now();
        let partitions = comm.allgather_u64(p1.received_records)?;
        let rank_offset: u64 = partitions[..rank].iter().sum(); // records
        let p2 = pass2::pass2(
            &cfg,
            rank,
            &comm,
            &disk,
            &p1.run_lens,
            rank_offset,
            virtual_reads,
        )
        .map_err(ClusterError::from)?;
        comm.barrier()?;
        let pass2_ns = comm.allreduce_max(t2.elapsed().as_nanos() as u64)?;

        let runs = comm.allgather_u64(p1.run_lens.len() as u64)?;
        let threads = comm.allgather_u64(p2.threads as u64)?;

        Ok(NodeOut {
            times: [
                Duration::from_nanos(sampling_ns),
                Duration::from_nanos(pass1_ns),
                Duration::from_nanos(pass2_ns),
            ],
            wall: wall_start.elapsed(),
            partitions,
            runs,
            threads,
            reports: (rank == 0 || observed).then(|| (p1.report.clone(), p2.report.clone())),
        })
    };
    let run = if observed {
        let mut obs = ClusterObs::per_node(cluster_cfg.nodes);
        if let Some(sink) = &trace_sink {
            obs = obs.with_trace(Arc::clone(sink));
        }
        Cluster::run_observed(cluster_cfg, obs, node_fn)
    } else {
        match registry {
            Some(reg) => Cluster::run_with_metrics(cluster_cfg, reg, node_fn),
            None => Cluster::run(cluster_cfg, node_fn),
        }
    }
    .map_err(|e| SortError::Comm(e.to_string()))?;

    let cluster = observed.then(|| {
        let mut cr = ClusterReport::new(cluster_cfg.nodes);
        for (rank, out) in run.results.iter().enumerate() {
            let reports = out
                .reports
                .as_ref()
                .map(|(p1, p2)| vec![p1.clone(), p2.clone()])
                .unwrap_or_default();
            cr.push(RankReport {
                rank,
                wall: out.wall,
                reports,
                metrics: run.node_metrics.get(rank).cloned().unwrap_or_default(),
            });
        }
        cr
    });
    let node0 = &run.results[0];
    Ok(DsortReport {
        sampling: node0.times[0],
        pass1: node0.times[1],
        pass2: node0.times[2],
        partition_records: node0.partitions.clone(),
        runs_per_node: node0.runs.clone(),
        pass2_threads: node0.threads.clone(),
        disk_stats: disks.iter().map(|d| d.stats()).collect(),
        bytes_sent: run.traffic.iter().map(|t| t.bytes_sent).collect(),
        node0_reports: run.results[0].reports.clone(),
        metrics: run.metrics,
        cluster,
    })
}
