//! dsort-linear: the ablation the paper's conclusion calls for.
//!
//! "An obvious question would be how much faster dsort runs with multiple
//! pipelines on each node compared with an implementation restricted to
//! single, linear pipelines on each node" (§VIII).  This module is that
//! restricted implementation:
//!
//! * **Pass 1** is one linear pipeline `read → permute → exchange → sort →
//!   write`.  Without disjoint send/receive pipelines, distribution must be
//!   synchronous: every round, all nodes exchange that round's records with
//!   a blocking `alltoallv`, so a node's send rate is locked to its receive
//!   rate and to every other node's progress.  Each round's received batch
//!   becomes one sorted run (runs are smaller and more numerous than
//!   dsort's, and their sizes vary with the data).
//! * **Pass 2** is one linear pipeline `merge-read → exchange → write`.
//!   Without intersecting pipelines there is no read-ahead on the runs: the
//!   merge stage performs synchronous disk reads inline.  Without disjoint
//!   pipelines the striping exchange is again a per-round `alltoallv`,
//!   padded to the cluster-wide maximum round count so the collective
//!   stays aligned.
//!
//! The "extensive bookkeeping" the paper predicts shows up as exactly this
//! padding, carry, and lockstep logic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_cluster::{Cluster, ClusterCfg, ClusterError, Communicator};
use fg_core::{map_stage, PipelineCfg, Program, Rounds};
use fg_pdm::{DiskRef, Striping};
use parking_lot::Mutex;

use crate::chunks::{self, CHUNK_HEADER_BYTES};
use crate::config::SortConfig;
use crate::dsort::sampling;
use crate::input::INPUT_FILE;
use crate::merge::FrontierMerge;
use crate::record::{partition_of, ExtKey};
use crate::verify::OUTPUT_FILE;
use crate::SortError;

/// Runs file for the linear variant.
pub const RUNS_FILE: &str = "dsort_linear_runs";

/// Timings from one dsort-linear run.
#[derive(Debug, Clone)]
pub struct DsortLinearReport {
    /// Max-across-nodes wall time of the sampling phase.
    pub sampling: Duration,
    /// Max-across-nodes wall time of pass 1.
    pub pass1: Duration,
    /// Max-across-nodes wall time of pass 2.
    pub pass2: Duration,
}

impl DsortLinearReport {
    /// Total wall time.
    pub fn total(&self) -> Duration {
        self.sampling + self.pass1 + self.pass2
    }
}

/// Run the single-linear-pipeline dsort variant.
pub fn run_dsort_linear(
    cfg: &SortConfig,
    disks: &[DiskRef],
) -> Result<DsortLinearReport, SortError> {
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

    let run = Cluster::run(
        ClusterCfg {
            nodes: cfg.nodes,
            net: cfg.net,
        },
        move |node| -> Result<[Duration; 3], ClusterError> {
            let rank = node.rank();
            let comm = node.comm().clone();
            let disk = Arc::clone(&disks_arc[rank]);

            comm.barrier()?;
            let t0 = Instant::now();
            let splitters =
                sampling::select_splitters(&cfg, rank, &comm, &disk).map_err(ClusterError::from)?;
            comm.barrier()?;
            let sampling_ns = comm.allreduce_max(t0.elapsed().as_nanos() as u64)?;

            comm.barrier()?;
            let t1 = Instant::now();
            let (run_lens, received) =
                pass1_linear(&cfg, rank, &comm, &disk, &splitters).map_err(ClusterError::from)?;
            comm.barrier()?;
            let pass1_ns = comm.allreduce_max(t1.elapsed().as_nanos() as u64)?;

            comm.barrier()?;
            let t2 = Instant::now();
            let partitions = comm.allgather_u64(received)?;
            let rank_offset: u64 = partitions[..rank].iter().sum();
            pass2_linear(
                &cfg,
                rank,
                &comm,
                &disk,
                &run_lens,
                rank_offset,
                &partitions,
            )
            .map_err(ClusterError::from)?;
            comm.barrier()?;
            let pass2_ns = comm.allreduce_max(t2.elapsed().as_nanos() as u64)?;

            Ok([
                Duration::from_nanos(sampling_ns),
                Duration::from_nanos(pass1_ns),
                Duration::from_nanos(pass2_ns),
            ])
        },
    )
    .map_err(|e| SortError::Comm(e.to_string()))?;

    let t = run.results[0];
    Ok(DsortLinearReport {
        sampling: t[0],
        pass1: t[1],
        pass2: t[2],
    })
}

/// Pass 1 on one node: synchronous distribution, one run per round.
fn pass1_linear(
    cfg: &SortConfig,
    rank: usize,
    comm: &Communicator,
    disk: &DiskRef,
    splitters: &[ExtKey],
) -> Result<(Vec<u64>, u64), SortError> {
    let nodes = cfg.nodes;
    let rb = cfg.record.record_bytes;
    let input_bytes = cfg.bytes_per_node() as usize;
    let nblocks = input_bytes.div_ceil(cfg.block_bytes) as u64;
    // Worst case a node receives everything every round.
    let buf_bytes = nodes * cfg.block_bytes + nodes * CHUNK_HEADER_BYTES + 64;

    let mut prog = Program::new(format!("dsortlin-p1-n{rank}"));
    cfg.instrument(&mut prog);

    let read_disk = Arc::clone(disk);
    let block_bytes = cfg.block_bytes;
    let read = prog.add_stage(
        "read",
        map_stage(move |buf, _ctx| {
            let off = buf.round() * block_bytes as u64;
            let want = block_bytes.min(input_bytes - off as usize);
            read_disk
                .read_at(INPUT_FILE, off, &mut buf.space_mut()[..want])
                .map_err(SortError::from)?;
            buf.set_filled(want);
            Ok(())
        }),
    );

    let fmt = cfg.record;
    let splits = splitters.to_vec();
    let records_per_block = cfg.records_per_block();
    let permute = prog.add_stage(
        "permute",
        map_stage(move |buf, ctx| {
            let base_seq = buf.round() * records_per_block as u64;
            let n = fmt.count(buf.filled());
            let mut groups: Vec<Vec<u8>> = vec![Vec::new(); nodes];
            for (i, rec) in fmt.records(buf.filled()).enumerate() {
                let e = ExtKey {
                    key: fmt.key(rec),
                    node: rank as u32,
                    seq: base_seq + i as u64,
                };
                groups[partition_of(&splits, e)].extend_from_slice(rec);
            }
            let mut packed = Vec::with_capacity(buf.len() + nodes * CHUNK_HEADER_BYTES);
            for (d, g) in groups.iter().enumerate() {
                chunks::push_chunk(&mut packed, d as u64, 0, g);
            }
            let _ = (ctx, n);
            buf.copy_from(&packed);
            Ok(())
        }),
    );

    // exchange: blocking alltoallv per round — send rate chained to receive
    // rate, all nodes in lockstep.
    let comm2 = comm.clone();
    let exchange = prog.add_stage(
        "exchange",
        map_stage(move |buf, _ctx| {
            let mut parts: Vec<Vec<u8>> = vec![Vec::new(); nodes];
            for chunk in chunks::iter_chunks(buf.filled()) {
                let chunk = chunk?;
                parts[chunk.a as usize] = chunk.data.to_vec();
            }
            let received = comm2.alltoallv(parts).map_err(SortError::from)?;
            buf.clear();
            for part in received {
                let n = buf.append(&part);
                debug_assert_eq!(n, part.len(), "linear pass-1 buffer overflow");
            }
            Ok(())
        }),
    );

    let fmt2 = cfg.record;
    let sort = prog.add_stage("sort", {
        let mut scratch = cfg.sort_scratch();
        map_stage(move |buf, _ctx| {
            fmt2.sort_bytes_with(buf.filled_mut(), &mut scratch);
            Ok(())
        })
    });

    let run_lens = Arc::new(Mutex::new(Vec::<u64>::new()));
    let rl = Arc::clone(&run_lens);
    let received_total = Arc::new(Mutex::new(0u64));
    let rt = Arc::clone(&received_total);
    let write_disk = Arc::clone(disk);
    let write = prog.add_stage(
        "write",
        map_stage(move |buf, _ctx| {
            if !buf.is_empty() {
                write_disk
                    .append(RUNS_FILE, buf.filled())
                    .map_err(SortError::from)?;
                rl.lock().push(buf.len() as u64);
                *rt.lock() += (buf.len() / rb) as u64;
            }
            Ok(())
        }),
    );

    prog.add_pipeline(
        PipelineCfg::new("pass1", cfg.pipeline_buffers, buf_bytes).rounds(Rounds::Count(nblocks)),
        &[read, permute, exchange, sort, write],
    )?;
    prog.run()?;
    // Write barrier: pass 2 reads the run file this pass appended.
    disk.flush().map_err(SortError::from)?;

    let lens = run_lens.lock().clone();
    let total = *received_total.lock();
    Ok((lens, total))
}

/// Pass 2 on one node: inline synchronous merge, lockstep striping.
#[allow(clippy::too_many_arguments)]
fn pass2_linear(
    cfg: &SortConfig,
    rank: usize,
    comm: &Communicator,
    disk: &DiskRef,
    run_lens: &[u64],
    rank_offset: u64,
    partitions: &[u64],
) -> Result<(), SortError> {
    let nodes = cfg.nodes;
    let rb = cfg.record.record_bytes;
    let block = cfg.block_bytes;
    // Lockstep round count: enough rounds for the largest partition.
    let max_records = partitions.iter().copied().max().unwrap_or(0);
    let rounds = (max_records * rb as u64).div_ceil(block as u64).max(1);
    let striping = Striping::new(nodes, block);
    let buf_bytes = nodes * block + nodes * 4 * CHUNK_HEADER_BYTES + 64;

    let mut prog = Program::new(format!("dsortlin-p2-n{rank}"));
    cfg.instrument(&mut prog);

    // merge-read: synchronous inline k-way merge, one output block per
    // round (possibly empty padding rounds at the end).
    let merge_disk = Arc::clone(disk);
    let fmt = cfg.record;
    let run_lens_v = run_lens.to_vec();
    let mergeread = prog.add_stage("mergeread", {
        let offsets: Vec<u64> = {
            let mut acc = 0u64;
            run_lens_v
                .iter()
                .map(|&l| {
                    let o = acc;
                    acc += l;
                    o
                })
                .collect()
        };
        let k = run_lens_v.len();
        let mut consumed: Vec<u64> = vec![0; k];
        // One-block window per run, refilled synchronously in the
        // pipeline's only thread: deliberately no read-ahead (this is the
        // ablation), but not record-by-record reads either.
        let mut caches: Vec<Vec<u8>> = vec![Vec::new(); k];
        let mut merge = FrontierMerge::new(fmt, k);
        // A batch's records past the end of the round's block, emitted
        // first next round.
        let mut carry: Vec<u8> = Vec::new();
        let mut carry_pos = 0usize;
        let mut produced = 0u64;
        map_stage(move |buf, _ctx| {
            buf.clear();
            buf.meta = rank_offset + produced;
            // One stripe block of output per round (the buffer itself is
            // larger: it must also hold the round's *received* pieces).
            let n = block.min(carry.len() - carry_pos);
            buf.append(&carry[carry_pos..carry_pos + n]);
            carry_pos += n;
            while buf.len() < block {
                while let Some(j) = merge.pop_drained() {
                    let remaining = run_lens_v[j] - consumed[j];
                    let want = (block as u64).min(remaining) as usize;
                    caches[j] = if want == 0 {
                        Vec::new()
                    } else {
                        merge_disk
                            .read_up_to(RUNS_FILE, offsets[j] + consumed[j], want)
                            .map_err(SortError::from)?
                    };
                    consumed[j] += caches[j].len() as u64;
                    if caches[j].is_empty() {
                        merge.close(j);
                    } else {
                        merge.open(j, &caches[j]);
                    }
                }
                let Some(batch) = merge.step(|j| &caches[j]) else {
                    break;
                };
                let n = (block - buf.len()).min(batch.len());
                buf.append(&batch[..n]);
                carry.clear();
                carry.extend_from_slice(&batch[n..]);
                carry_pos = 0;
            }
            produced += (buf.len() / rb) as u64;
            Ok(())
        })
    });

    // exchange: per-round alltoallv of stripe pieces (padded rounds send
    // nothing but still participate).
    let comm2 = comm.clone();
    let exchange = prog.add_stage(
        "exchange",
        map_stage(move |buf, _ctx| {
            let goff = buf.meta * rb as u64;
            let mut parts: Vec<Vec<u8>> = vec![Vec::new(); nodes];
            {
                let data = buf.filled();
                for (dest, _local, range) in striping.split_range(goff, data.len()) {
                    chunks::push_chunk(
                        &mut parts[dest],
                        goff + range.start as u64,
                        0,
                        &data[range],
                    );
                }
            }
            let received = comm2.alltoallv(parts).map_err(SortError::from)?;
            buf.clear();
            for part in received {
                let n = buf.append(&part);
                debug_assert_eq!(n, part.len(), "linear pass-2 buffer overflow");
            }
            Ok(())
        }),
    );

    let write_disk = Arc::clone(disk);
    let striping_w = Striping::new(nodes, block);
    let write = prog.add_stage("write", {
        let mut relocated: Vec<u8> = Vec::new();
        let mut runs = Vec::new();
        let mut scratch = Vec::new();
        map_stage(move |buf, _ctx| {
            relocated.clear();
            for chunk in chunks::iter_chunks(buf.filled()) {
                let chunk = chunk?;
                let (dest, local) = striping_w.locate_byte(chunk.a);
                debug_assert_eq!(dest, rank);
                chunks::push_chunk(&mut relocated, local, 0, chunk.data);
            }
            chunks::for_each_coalesced_write(&relocated, &mut runs, &mut scratch, |off, data| {
                write_disk
                    .write_at(OUTPUT_FILE, off, data)
                    .map_err(SortError::from)?;
                Ok(())
            })
        })
    });

    prog.add_pipeline(
        PipelineCfg::new("pass2", cfg.pipeline_buffers, buf_bytes).rounds(Rounds::Count(rounds)),
        &[mergeread, exchange, write],
    )?;
    prog.run()?;
    disk.flush().map_err(SortError::from)?;
    Ok(())
}
