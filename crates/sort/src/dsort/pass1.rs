//! dsort pass 1: partitioning and distribution (§V, Figure 6).
//!
//! Communication in this pass is *unbalanced*: how much a node sends at any
//! moment almost certainly differs from how much it receives.  Each node
//! therefore runs **two disjoint FG pipelines**:
//!
//! * the **send pipeline** `read → permute → send` streams the node's local
//!   input: the permute stage groups each block's records by destination
//!   partition (splitters compared against *extended* keys, out of place
//!   via the auxiliary buffer), and the send stage doles the groups out to
//!   their target nodes;
//! * the **receive pipeline** `receive → sort → write` assembles incoming
//!   records into run-sized buffers, sorts each (by the original,
//!   non-extended keys), and appends it to the node's run file — one sorted
//!   run per buffer.
//!
//! The pipelines progress at independent rates; only messages connect them.
//! The receive pipeline's length is data-dependent, so it runs
//! `UntilStopped`: after a `DONE` marker from every sender and an empty
//! carry, the receive stage conveys the final partial run and stops the
//! pipeline.  A send stage that fails, or is torn down because another
//! stage failed, sends an `ABORT` marker instead, which the receivers
//! turn into [`SortError::PeerAborted`].

use std::sync::Arc;

use fg_cluster::Communicator;
use fg_core::{map_stage, PipelineCfg, Program, Rounds, Stage, StageCtx};
use fg_pdm::DiskRef;
use parking_lot::Mutex;

use crate::chunks::{self, CHUNK_HEADER_BYTES};
use crate::config::SortConfig;
use crate::dsort::end_sends;
use crate::input::INPUT_FILE;
use crate::record::{partition_of, ExtKey};
use crate::SortError;

/// Message tag for pass-1 traffic.
pub const TAG_PASS1: u64 = 0x0D50_0001;
/// First payload byte of a pass-1 message: [`MSG_DATA`] precedes record
/// data; [`MSG_DONE`] and [`MSG_ABORT`] end a sender's stream.
pub use crate::dsort::{MSG_ABORT, MSG_DATA, MSG_DONE};

/// Name of the file holding this node's sorted runs.
pub const RUNS_FILE: &str = "dsort_runs";

/// Outcome of pass 1 on one node.
#[derive(Debug, Clone)]
pub struct Pass1Out {
    /// Byte length of each sorted run, in file order.
    pub run_lens: Vec<u64>,
    /// Records this node's partition received.
    pub received_records: u64,
    /// OS threads the pass's FG program spawned.
    pub threads: usize,
    /// The FG report of this node's pass-1 program.
    pub report: fg_core::Report,
}

/// Run pass 1 on node `rank`.
pub fn pass1(
    cfg: &SortConfig,
    rank: usize,
    comm: &Communicator,
    disk: &DiskRef,
    splitters: &[ExtKey],
) -> Result<Pass1Out, SortError> {
    let nodes = cfg.nodes;
    let rb = cfg.record.record_bytes;
    let input_bytes = cfg.bytes_per_node() as usize;
    let nblocks = input_bytes.div_ceil(cfg.block_bytes) as u64;
    let send_buf = cfg.block_bytes + nodes * CHUNK_HEADER_BYTES + 64;

    let mut prog = Program::new(format!("dsort-p1-n{rank}"));
    cfg.instrument(&mut prog);

    // ---- send pipeline ----
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
    let permute = prog.add_stage("permute", {
        // Per-block scratch, sized for the worst case up front and kept
        // across blocks, so a block allocates nothing: each record's
        // destination partition, the records grouped by destination (one
        // group may take the whole block), and the packed chunk image.
        let mut dest: Vec<usize> = Vec::with_capacity(records_per_block);
        let mut groups: Vec<Vec<u8>> = (0..nodes)
            .map(|_| Vec::with_capacity(block_bytes))
            .collect();
        let mut packed: Vec<u8> = Vec::with_capacity(send_buf);
        map_stage(move |buf, _ctx| {
            // Destination partition of each record, via extended keys.
            let base_seq = buf.round() * records_per_block as u64;
            dest.clear();
            for (i, rec) in fmt.records(buf.filled()).enumerate() {
                let e = ExtKey {
                    key: fmt.key(rec),
                    node: rank as u32,
                    seq: base_seq + i as u64,
                };
                dest.push(partition_of(&splits, e));
            }
            // Group records by destination, out of place (the auxiliary-
            // buffer pattern), and rewrite the buffer as (dest, records)
            // chunks.
            for group in &mut groups {
                group.clear();
            }
            for (rec, &d) in fmt.records(buf.filled()).zip(&dest) {
                groups[d].extend_from_slice(rec);
            }
            packed.clear();
            for (d, group) in groups.iter().enumerate() {
                if !group.is_empty() {
                    chunks::push_chunk(&mut packed, d as u64, 0, group);
                }
            }
            buf.copy_from(&packed);
            Ok(())
        })
    });

    let comm_send = comm.clone();
    let send = prog.add_stage(
        "send",
        Box::new(move |ctx: &mut StageCtx| {
            let sent: fg_core::Result<()> = (|| {
                while let Some(buf) = ctx.accept()? {
                    // Propagate the buffer's trace id with each chunk so the
                    // receiving rank's comm-recv span joins this buffer's
                    // flow in the merged Chrome export.
                    let trace_id = buf.trace_id();
                    for chunk in chunks::iter_chunks(buf.filled()) {
                        let chunk = chunk?;
                        let mut payload = Vec::with_capacity(1 + chunk.data.len());
                        payload.push(MSG_DATA);
                        payload.extend_from_slice(chunk.data);
                        comm_send
                            .send_traced(chunk.a as usize, TAG_PASS1, payload, trace_id)
                            .map_err(SortError::from)?;
                    }
                    ctx.convey(buf)?;
                }
                Ok(())
            })();
            // All local input distributed, or the pass failed: tell every
            // node either way.
            end_sends(&comm_send, TAG_PASS1, sent)
        }) as Box<dyn Stage>,
    );

    // ---- receive pipeline ----
    let received_records = Arc::new(Mutex::new(0u64));
    let comm_recv = comm.clone();
    let rr = Arc::clone(&received_records);
    let receive = prog.add_stage(
        "receive",
        Box::new(move |ctx: &mut StageCtx| {
            let pid = ctx.pipelines().next().expect("receive pipeline");
            let mut carry: Vec<u8> = Vec::new();
            let mut dones = 0usize;
            loop {
                let mut buf = match ctx.accept()? {
                    Some(b) => b,
                    None => return Ok(()),
                };
                buf.clear();
                while buf.remaining() > 0 {
                    if !carry.is_empty() {
                        let n = buf.append(&carry);
                        carry.drain(..n);
                        continue;
                    }
                    if dones == nodes {
                        break;
                    }
                    let msg = comm_recv.recv(None, TAG_PASS1).map_err(SortError::from)?;
                    match msg.payload.first() {
                        Some(&MSG_DONE) => dones += 1,
                        Some(&MSG_DATA) => {
                            let data = &msg.payload[1..];
                            let n = buf.append(data);
                            carry.extend_from_slice(&data[n..]);
                        }
                        Some(&MSG_ABORT) => {
                            return Err(SortError::PeerAborted { node: msg.src }.into())
                        }
                        _ => return Err(SortError::Corrupt("empty pass-1 message".into()).into()),
                    }
                }
                if buf.is_empty() {
                    ctx.discard(buf)?;
                } else {
                    *rr.lock() += (buf.len() / rb) as u64;
                    ctx.convey(buf)?;
                }
                if dones == nodes && carry.is_empty() {
                    ctx.stop(pid)?;
                    return Ok(());
                }
            }
        }) as Box<dyn Stage>,
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
    let write_disk = Arc::clone(disk);
    let write = prog.add_stage(
        "write",
        map_stage(move |buf, _ctx| {
            write_disk
                .append(RUNS_FILE, buf.filled())
                .map_err(SortError::from)?;
            rl.lock().push(buf.len() as u64);
            Ok(())
        }),
    );

    prog.add_pipeline(
        PipelineCfg::new("send", cfg.pipeline_buffers, send_buf).rounds(Rounds::Count(nblocks)),
        &[read, permute, send],
    )?;
    prog.add_pipeline(
        PipelineCfg::new("recv", cfg.pipeline_buffers, cfg.run_bytes).rounds(Rounds::UntilStopped),
        &[receive, sort, write],
    )?;
    let report = prog.run()?;
    // Write barrier: pass 2 reads the run file this pass appended behind
    // any write-behind queue; surface deferred errors here.
    disk.flush().map_err(SortError::from)?;

    let out = Pass1Out {
        run_lens: run_lens.lock().clone(),
        received_records: *received_records.lock(),
        threads: report.threads_spawned,
        report,
    };
    Ok(out)
}
