//! One micro-benchmark per layer, each shaped like the workload, and the
//! same-host hardware references they are compared with.
//!
//! Every timed call is recorded as a span under the caller's parent.  Each
//! figure is the median over repetitions, so one preempted repetition on a
//! shared host does not move it.

use std::fs::File;
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use fg_cluster::{Cluster, ClusterCfg, ClusterError};
use fg_core::{map_stage, run_linear, PipelineCfg, Rounds};
use fg_pdm::{Disk, OsDisk};
use fg_sort::input::generate_node_input;
use fg_sort::kernels::{sort_records, SortScratch};
use fg_sort::merge::merge_runs;
use fg_sort::SortConfig;

use crate::report::median;
use crate::trace::SpanLog;

/// User tag of the fabric micro-benchmarks' messages.
const TAG: u64 = 7;

/// Run `f` (which returns one measurement) at least `min_reps` times and
/// until `budget` has passed, recording a span per call; the median.
fn repeat(
    log: &SpanLog,
    name: &'static str,
    parent: u64,
    budget: Duration,
    min_reps: usize,
    mut f: impl FnMut() -> f64,
) -> f64 {
    let t0 = Instant::now();
    let mut values = Vec::new();
    while values.len() < min_reps || t0.elapsed() < budget {
        values.push(log.time(name, parent, |_| f()));
    }
    median(&values)
}

/// `n` REC16 records of the configured distribution.
fn records(cfg: &SortConfig, n: usize) -> Vec<u8> {
    let mut c = cfg.clone();
    c.records_per_node = n;
    generate_node_input(&c, 0)
}

/// Copy bandwidth in GB/s over a working set of `set_bytes` (half source,
/// half destination).
pub fn memcpy_gbs(log: &SpanLog, parent: u64, set_bytes: usize) -> f64 {
    let half = set_bytes / 2;
    let src = vec![0x5Au8; half];
    let mut dst = vec![0u8; half];
    dst.copy_from_slice(&src); // fault the destination in, untimed
    repeat(log, "hw.memcpy", parent, Duration::ZERO, 5, || {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        half as f64 / t.elapsed().as_secs_f64() / 1e9
    })
}

/// Sequential throughput in MB/s of plain `std::fs` files and of `OsDisk`
/// `append`/`read_at`, both in `dir` at `block` bytes per call over
/// `total` bytes: `[hw write, hw read, osdisk write, osdisk read]`.
/// The two alternate, so drift on the host hits both alike.
pub fn file_mbs(
    log: &SpanLog,
    parent: u64,
    dir: &Path,
    block: usize,
    total: usize,
) -> Result<[f64; 4], String> {
    let blocks = total / block;
    let bytes = (blocks * block) as f64;
    let mut buf = vec![0xA5u8; block];
    let path = dir.join("hw.dat");
    let disk = OsDisk::new(dir.join("osdisk")).map_err(|e| e.to_string())?;
    let rate = |t: Instant| bytes / t.elapsed().as_secs_f64() / 1e6;
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..3 {
        log.time("hw.file", parent, |_| -> std::io::Result<()> {
            let t = Instant::now();
            let mut f = File::create(&path)?;
            for _ in 0..blocks {
                f.write_all(&buf)?;
            }
            drop(f);
            samples[0].push(rate(t));
            let t = Instant::now();
            let mut f = File::open(&path)?;
            for _ in 0..blocks {
                f.read_exact(&mut buf)?;
                black_box(&buf);
            }
            samples[1].push(rate(t));
            std::fs::remove_file(&path)
        })
        .map_err(|e| format!("hw file reference: {e}"))?;
        log.time("pdm.osdisk", parent, |_| -> Result<(), fg_pdm::PdmError> {
            let t = Instant::now();
            for _ in 0..blocks {
                disk.append("seq", &buf)?;
            }
            samples[2].push(rate(t));
            let t = Instant::now();
            for i in 0..blocks {
                disk.read_at("seq", (i * block) as u64, &mut buf)?;
                black_box(&buf);
            }
            samples[3].push(rate(t));
            disk.delete("seq");
            Ok(())
        })
        .map_err(|e| format!("OsDisk micro-benchmark: {e}"))?;
    }
    Ok(samples.map(|s| median(&s)))
}

/// `sort_records` throughput in million records/s on buffers of
/// `buf_records` records of the workload's key distribution.
pub fn sort_mrec_s(
    log: &SpanLog,
    parent: u64,
    cfg: &SortConfig,
    buf_records: usize,
    budget: Duration,
) -> f64 {
    let rb = cfg.record.record_bytes;
    let pool_bufs = 8;
    let pool = records(cfg, buf_records * pool_bufs);
    let mut work = vec![0u8; buf_records * rb];
    let mut scratch = SortScratch::new();
    let mut i = 0;
    repeat(log, "kernels.sort_records", parent, budget, 5, || {
        let len = work.len();
        let off = (i % pool_bufs) * len;
        i += 1;
        work.copy_from_slice(&pool[off..off + len]);
        let t = Instant::now();
        sort_records(cfg.record, black_box(&mut work), &mut scratch);
        let secs = t.elapsed().as_secs_f64();
        debug_assert!(cfg.record.is_sorted(&work));
        buf_records as f64 / secs / 1e6
    })
}

/// `merge_runs` throughput in million records/s over `k` sorted runs of
/// `run_records` records each.
pub fn merge_mrec_s(
    log: &SpanLog,
    parent: u64,
    cfg: &SortConfig,
    k: usize,
    run_records: usize,
    budget: Duration,
) -> Result<f64, String> {
    let rb = cfg.record.record_bytes;
    let mut data = records(cfg, k * run_records);
    let mut scratch = SortScratch::new();
    for run in data.chunks_mut(run_records * rb) {
        sort_records(cfg.record, run, &mut scratch);
    }
    let runs: Vec<&[u8]> = data.chunks(run_records * rb).collect();
    let merged = merge_runs(cfg.record, &runs);
    if merged.len() != data.len() || !cfg.record.is_sorted(&merged) {
        return Err("merge_runs returned an unsorted or short output".into());
    }
    Ok(repeat(log, "merge.merge_runs", parent, budget, 3, || {
        let t = Instant::now();
        let out = merge_runs(cfg.record, black_box(&runs));
        let secs = t.elapsed().as_secs_f64();
        black_box(out);
        (k * run_records) as f64 / secs / 1e6
    }))
}

/// Per-buffer, per-hop latency in microseconds through a pass-through
/// `Program`: four no-op stages between source and sink, so each round
/// makes five queue hand-offs.
pub fn hop_us(
    log: &SpanLog,
    parent: u64,
    buffers: usize,
    block: usize,
    rounds: u64,
) -> Result<f64, String> {
    const STAGES: usize = 4;
    let mut err = None;
    let v = repeat(log, "core.program_run", parent, Duration::ZERO, 3, || {
        let stages = (0..STAGES)
            .map(|_| ("pass", map_stage(|_, _| Ok(()))))
            .collect();
        let t = Instant::now();
        let res = run_linear(
            "hop",
            PipelineCfg::new("hop", buffers, block).rounds(Rounds::Count(rounds)),
            stages,
        );
        let secs = t.elapsed().as_secs_f64();
        if let Err(e) = res {
            err = Some(e.to_string());
        }
        secs * 1e6 / (rounds as f64 * (STAGES + 1) as f64)
    });
    err.map_or(Ok(v), Err)
}

/// One-way message latency in microseconds: block-sized ping-pong between
/// two ranks of a zero-cost fabric.
pub fn msg_us(log: &SpanLog, parent: u64, block: usize, msgs: usize) -> Result<f64, String> {
    let mut err = None;
    let v = repeat(log, "cluster.ping_pong", parent, Duration::ZERO, 3, || {
        let run = Cluster::run(ClusterCfg::zero_cost(2), move |node| {
            let comm = node.comm();
            let peer = 1 - node.rank();
            let mut payload = vec![0u8; block];
            comm.barrier()?;
            let t = Instant::now();
            for _ in 0..msgs {
                if node.rank() == 0 {
                    comm.send(peer, TAG, payload)?;
                    payload = comm.recv(Some(peer), TAG)?.payload;
                } else {
                    payload = comm.recv(Some(peer), TAG)?.payload;
                    comm.send(peer, TAG, payload)?;
                    payload = Vec::new();
                }
            }
            Ok::<_, ClusterError>(t.elapsed())
        });
        match run {
            Ok(r) => r.results[0].as_secs_f64() * 1e6 / (2 * msgs) as f64,
            Err(e) => {
                err = Some(e.to_string());
                f64::NAN
            }
        }
    });
    err.map_or(Ok(v), Err)
}

/// Exchange bandwidth in GB/s: two ranks swap block-sized buffers with
/// `sendrecv_replace`, copying out of a source buffer and into a
/// destination buffer as the sort stages do.
pub fn exchange_gbs(
    log: &SpanLog,
    parent: u64,
    block: usize,
    rounds: usize,
) -> Result<f64, String> {
    let mut err = None;
    let v = repeat(log, "cluster.exchange", parent, Duration::ZERO, 3, || {
        let run = Cluster::run(ClusterCfg::zero_cost(2), move |node| {
            let comm = node.comm();
            let peer = 1 - node.rank();
            let src = vec![node.rank() as u8; block];
            let mut dst = vec![0u8; block];
            comm.barrier()?;
            let t = Instant::now();
            for _ in 0..rounds {
                let got = comm.sendrecv_replace(src.clone(), peer, peer, TAG)?;
                dst.copy_from_slice(&got);
            }
            comm.barrier()?;
            let secs = t.elapsed();
            if dst.iter().any(|&b| b != peer as u8) {
                return Err(ClusterError::Node {
                    rank: node.rank(),
                    message: "exchange delivered the wrong bytes".into(),
                });
            }
            Ok(secs)
        });
        match run {
            Ok(r) => (2 * block * rounds) as f64 / r.results[0].as_secs_f64() / 1e9,
            Err(e) => {
                err = Some(e.to_string());
                f64::NAN
            }
        }
    });
    err.map_or(Ok(v), Err)
}
