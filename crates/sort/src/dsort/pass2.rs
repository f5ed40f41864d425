//! dsort pass 2: merging, load-balancing, and striping (§V, Figure 7).
//!
//! Each node merges its sorted runs into one sorted stream and the streams
//! are re-striped across the cluster.  The pipeline structure combines both
//! FG extensions:
//!
//! * **k intersecting vertical pipelines** — one per sorted run — feed the
//!   common **merge stage**.  Their `read` stages are **virtual**: FG runs
//!   all of them (and their sources and sinks) on three shared threads, no
//!   matter how many runs pass 1 produced (§IV, Figure 5(b)).  Vertical
//!   buffers are small; the single horizontal pipeline's buffers are large
//!   (§IV: "buffers in the vertical pipelines might be relatively small ...
//!   the horizontal pipeline's can be much larger").
//! * The merge stage runs the frontier-batch kernel
//!   ([`crate::merge::FrontierMerge`]) over each run's head vertical
//!   buffer: every step emits, as one radix-sorted batch, the buffered
//!   records that precede everything still on disk, and drains one head
//!   buffer, which is discarded and replaced by the run's next.  It fills
//!   horizontal buffers with the globally-ranked output (this node's
//!   merged stream covers ranks `[offset, offset + n)` where `offset`
//!   comes from an exchange of partition sizes) and a **send stage**
//!   splits each buffer along PDM stripe boundaries and doles the pieces
//!   out — unbalanced communication again, so a **disjoint receive
//!   pipeline** (`receive → write`) accepts whatever stripe pieces arrive
//!   and writes them to the local stripe file.
//! * The send stage ends by telling every node it is done, or that it
//!   aborted when the pass failed, so a receive stage never waits in the
//!   fabric for a sender that is gone; an abort becomes
//!   [`SortError::PeerAborted`] on the receiving node.

use std::sync::Arc;

use fg_cluster::{Communicator, Message};
use fg_core::{map_stage, Buffer, FgError, PipelineCfg, Program, Rounds, Stage, StageCtx};
use fg_pdm::{DiskRef, Striping};

use crate::chunks::{self, CHUNK_HEADER_BYTES};
use crate::config::SortConfig;
use crate::dsort::end_sends;
use crate::dsort::pass1::RUNS_FILE;
use crate::merge::FrontierMerge;
use crate::verify::OUTPUT_FILE;
use crate::SortError;

/// Message tag for pass-2 traffic.
pub const TAG_PASS2: u64 = 0x0D50_0002;
/// First payload byte of a pass-2 message: [`MSG_DATA`] precedes a stripe
/// piece (8-byte global offset, data); [`MSG_DONE`] and [`MSG_ABORT`] end
/// a sender's stream.
pub use crate::dsort::{MSG_ABORT, MSG_DATA, MSG_DONE};

/// Outcome of pass 2 on one node.
#[derive(Debug, Clone)]
pub struct Pass2Out {
    /// OS threads the pass's FG program spawned (experiment A2 measures
    /// how virtual stages keep this flat as the run count grows).
    pub threads: usize,
    /// Number of vertical (run) pipelines merged.
    pub runs_merged: usize,
    /// The FG report of this node's pass-2 program.
    pub report: fg_core::Report,
}

/// Run pass 2 on node `rank`.  `run_lens` are this node's sorted run
/// lengths from pass 1; `rank_offset` is the global rank of this node's
/// first merged record; `total_records` the cluster-wide record count.
pub fn pass2(
    cfg: &SortConfig,
    rank: usize,
    comm: &Communicator,
    disk: &DiskRef,
    run_lens: &[u64],
    rank_offset: u64,
    use_virtual_reads: bool,
) -> Result<Pass2Out, SortError> {
    let nodes = cfg.nodes;
    let rb = cfg.record.record_bytes;
    let k = run_lens.len();
    let vert_buf = cfg.vertical_buf_bytes;
    let striping = Striping::new(nodes, cfg.block_bytes);

    let mut prog = Program::new(format!("dsort-p2-n{rank}"));
    cfg.instrument(&mut prog);

    // ---- vertical read stage(s) ----
    // Run j occupies bytes [run_off[j], run_off[j] + run_lens[j]) of the
    // runs file; the read stage streams it in vertical-buffer chunks.
    let mut run_off = Vec::with_capacity(k);
    let mut acc = 0u64;
    for &l in run_lens {
        run_off.push(acc);
        acc += l;
    }

    let make_reader = |lane_fixed: Option<usize>| {
        let disk = Arc::clone(disk);
        let run_off = run_off.clone();
        let run_lens = run_lens.to_vec();
        let mut cursors = vec![0u64; k];
        map_stage(move |buf: &mut Buffer, ctx: &mut StageCtx| {
            let lane = match lane_fixed {
                Some(l) => l,
                None => ctx.lane(buf.pipeline())?,
            };
            let want = (vert_buf as u64).min(run_lens[lane] - cursors[lane]) as usize;
            disk.read_at(
                RUNS_FILE,
                run_off[lane] + cursors[lane],
                &mut buf.space_mut()[..want],
            )
            .map_err(SortError::from)?;
            cursors[lane] += want as u64;
            buf.set_filled(want);
            Ok(())
        })
    };

    let read_ids: Vec<_> = if use_virtual_reads {
        if k > 0 {
            vec![prog.add_virtual_stage("read", make_reader(None))]
        } else {
            vec![]
        }
    } else {
        (0..k)
            .map(|j| prog.add_stage(format!("read{j}"), make_reader(Some(j))))
            .collect()
    };

    // ---- merge stage (common to all verticals + the horizontal) ----
    let fmt = cfg.record;
    let batch_hist = cfg
        .metrics
        .as_ref()
        .map(|r| r.histogram("kernel/merge_batch_records"));
    let merge = prog.add_stage(
        "merge",
        Box::new(move |ctx: &mut StageCtx| {
            let pids: Vec<_> = ctx.pipelines().collect();
            let (verticals, horizontal) = pids.split_at(pids.len() - 1);
            let horizontal = horizontal[0];

            // Each lane's window is its head vertical buffer.
            let mut merge = FrontierMerge::new(fmt, verticals.len());
            let mut heads: Vec<Option<Buffer>> = verticals.iter().map(|_| None).collect();
            refill(ctx, verticals, &mut merge, &mut heads)?;

            // The horizontal source runs until stopped, so its queue ends
            // early only when the program is torn down.
            let mut out = ctx.accept_from(horizontal)?.ok_or(FgError::Cancelled)?;
            out.clear();
            let mut produced = 0u64; // records emitted so far
            out.meta = rank_offset; // global rank of this buffer's first record

            while let Some(mut batch) =
                merge.step(|j| heads[j].as_ref().expect("live lane has a window").filled())
            {
                if let Some(h) = &batch_hist {
                    h.record((batch.len() / rb) as u64);
                }
                while !batch.is_empty() {
                    let n = out.append(batch);
                    batch = &batch[n..];
                    produced += (n / rb) as u64;
                    if out.remaining() == 0 {
                        ctx.convey(out)?;
                        out = ctx.accept_from(horizontal)?.ok_or(FgError::Cancelled)?;
                        out.clear();
                        out.meta = rank_offset + produced;
                    }
                }
                refill(ctx, verticals, &mut merge, &mut heads)?;
            }
            if out.is_empty() {
                ctx.discard(out)?;
            } else {
                ctx.convey(out)?;
            }
            ctx.stop(horizontal)?;
            Ok(())
        }) as Box<dyn Stage>,
    );

    // ---- horizontal send stage ----
    let comm_send = comm.clone();
    let send = prog.add_stage(
        "send",
        Box::new(move |ctx: &mut StageCtx| {
            let sent: fg_core::Result<()> = (|| {
                while let Some(buf) = ctx.accept()? {
                    let goff = buf.meta * rb as u64;
                    let data = buf.filled();
                    for (dest, _local, range) in striping.split_range(goff, data.len()) {
                        let mut payload = Vec::with_capacity(9 + range.len());
                        payload.push(MSG_DATA);
                        payload.extend_from_slice(&(goff + range.start as u64).to_le_bytes());
                        payload.extend_from_slice(&data[range]);
                        comm_send
                            .send(dest, TAG_PASS2, payload)
                            .map_err(SortError::from)?;
                    }
                    ctx.convey(buf)?;
                }
                Ok(())
            })();
            end_sends(&comm_send, TAG_PASS2, sent)
        }) as Box<dyn Stage>,
    );

    // ---- receive pipeline ----
    let comm_recv = comm.clone();
    let receive = prog.add_stage(
        "receive",
        Box::new(move |ctx: &mut StageCtx| {
            let pid = ctx.pipelines().next().expect("receive pipeline");
            let mut dones = 0usize;
            // A received stripe piece not yet packed: its global byte
            // offset and the message whose payload holds it from byte 9.
            let mut pending: Option<(u64, Message)> = None;
            loop {
                let mut buf = match ctx.accept()? {
                    Some(b) => b,
                    None => return Ok(()),
                };
                buf.clear();
                loop {
                    if let Some((goff, msg)) = pending.take() {
                        let data = &msg.payload[9..];
                        if chunks::chunk_size(data.len()) > buf.remaining() {
                            pending = Some((goff, msg));
                            break; // convey this buffer, chunk goes in next
                        }
                        buf.append(&chunks::chunk_header(goff, 0, data.len()));
                        buf.append(data);
                        continue;
                    }
                    if dones == nodes {
                        break;
                    }
                    let msg = comm_recv.recv(None, TAG_PASS2).map_err(SortError::from)?;
                    match msg.payload.first() {
                        Some(&MSG_DONE) => dones += 1,
                        Some(&MSG_DATA) => {
                            if msg.payload.len() < 9 {
                                return Err(
                                    SortError::Corrupt("short pass-2 data message".into()).into()
                                );
                            }
                            let goff =
                                u64::from_le_bytes(msg.payload[1..9].try_into().expect("8 bytes"));
                            pending = Some((goff, msg));
                        }
                        Some(&MSG_ABORT) => {
                            return Err(SortError::PeerAborted { node: msg.src }.into())
                        }
                        _ => return Err(SortError::Corrupt("empty pass-2 message".into()).into()),
                    }
                }
                if buf.is_empty() {
                    ctx.discard(buf)?;
                } else {
                    ctx.convey(buf)?;
                }
                if dones == nodes && pending.is_none() {
                    ctx.stop(pid)?;
                    return Ok(());
                }
            }
        }) as Box<dyn Stage>,
    );

    let write_disk = Arc::clone(disk);
    let striping_w = Striping::new(nodes, cfg.block_bytes);
    let write = prog.add_stage("write", {
        let mut relocated: Vec<u8> = Vec::new();
        let mut runs = Vec::new();
        let mut scratch = Vec::new();
        map_stage(move |buf, _ctx| {
            relocated.clear();
            for chunk in chunks::iter_chunks(buf.filled()) {
                let chunk = chunk?;
                let (dest, local) = striping_w.locate_byte(chunk.a);
                debug_assert_eq!(dest, rank, "stripe piece landed on wrong node");
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

    // ---- pipelines ----
    for (j, &len) in run_lens.iter().enumerate() {
        let rounds = len.div_ceil(vert_buf as u64);
        let stage = if use_virtual_reads {
            read_ids[0]
        } else {
            read_ids[j]
        };
        prog.add_pipeline(
            PipelineCfg::new(format!("run{j}"), cfg.vertical_buffers, vert_buf)
                .rounds(Rounds::Count(rounds)),
            &[stage, merge],
        )?;
    }
    prog.add_pipeline(
        PipelineCfg::new("merged", cfg.pipeline_buffers, cfg.block_bytes)
            .rounds(Rounds::UntilStopped),
        &[merge, send],
    )?;
    let recv_buf = 2 * cfg.block_bytes + 2 * CHUNK_HEADER_BYTES + 64;
    prog.add_pipeline(
        PipelineCfg::new("recv", cfg.pipeline_buffers, recv_buf).rounds(Rounds::UntilStopped),
        &[receive, write],
    )?;
    let report = prog.run()?;
    // Write barrier: verification reads the striped output after the run.
    disk.flush().map_err(SortError::from)?;

    Ok(Pass2Out {
        threads: report.threads_spawned,
        runs_merged: k,
        report,
    })
}

/// Give every lane the merge drained its next window: discard the lane's
/// spent head buffer and accept the next non-empty one from its vertical
/// pipeline, or close the lane once the pipeline is exhausted.
fn refill(
    ctx: &mut StageCtx,
    verticals: &[fg_core::PipelineId],
    merge: &mut FrontierMerge,
    heads: &mut [Option<Buffer>],
) -> fg_core::Result<()> {
    while let Some(j) = merge.pop_drained() {
        if let Some(spent) = heads[j].take() {
            ctx.discard(spent)?;
        }
        loop {
            match ctx.accept_from(verticals[j])? {
                None => {
                    merge.close(j);
                    break;
                }
                Some(b) if b.is_empty() => ctx.discard(b)?,
                Some(b) => {
                    merge.open(j, b.filled());
                    heads[j] = Some(b);
                    break;
                }
            }
        }
    }
    Ok(())
}
