//! Intersecting pipelines with virtual stages: merging many sorted event
//! streams into one timeline.
//!
//! The shape of Figure 5: k vertical pipelines (one per input stream) feed
//! a common merge stage that emits into a single horizontal pipeline.  The
//! vertical `fetch` stages are *virtual* — FG runs all k of them on one
//! shared thread, whose shared input queue is also every stream's buffer
//! pool, so the program scales to hundreds of streams without hundreds of
//! threads: three threads in all (fetch, merge, collect).
//!
//! ```text
//! cargo run --release --example merge_streams
//! ```

use std::sync::{Arc, Mutex};

use fg::core::{map_stage, Buffer, PipelineCfg, Program, Rounds, Stage, StageCtx};

const STREAMS: usize = 48;
const EVENTS_PER_STREAM: usize = 500;
const EVENT_BYTES: usize = 16; // 8-byte timestamp + 8-byte payload

/// A sorted stream of synthetic (timestamp, payload) events.
fn make_stream(lane: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(EVENTS_PER_STREAM * EVENT_BYTES);
    let mut ts = (lane as u64) * 17 % 101;
    for i in 0..EVENTS_PER_STREAM {
        ts += 1 + ((lane as u64 * 31 + i as u64 * 7) % 13);
        out.extend_from_slice(&ts.to_le_bytes());
        out.extend_from_slice(&((lane as u64) << 32 | i as u64).to_le_bytes());
    }
    out
}

struct MergeStage;

impl Stage for MergeStage {
    fn run(&mut self, ctx: &mut StageCtx) -> fg::core::Result<()> {
        let pids: Vec<_> = ctx.pipelines().collect();
        let (verticals, horizontal) = pids.split_at(pids.len() - 1);
        let verticals = verticals.to_vec();
        let horizontal = horizontal[0];

        // Pull the next non-empty buffer of a vertical, or None at its end.
        fn next_head(
            ctx: &mut StageCtx,
            v: fg::core::PipelineId,
        ) -> fg::core::Result<Option<(Buffer, usize)>> {
            loop {
                match ctx.accept_from(v)? {
                    None => return Ok(None),
                    Some(b) if b.is_empty() => ctx.discard(b)?,
                    Some(b) => return Ok(Some((b, 0))),
                }
            }
        }
        let ts_of = |b: &Buffer, off: usize| {
            u64::from_le_bytes(b.filled()[off..off + 8].try_into().expect("ts"))
        };

        let mut heads = Vec::new();
        for &v in &verticals {
            heads.push(next_head(ctx, v)?);
        }
        let mut out = ctx
            .accept_from(horizontal)?
            .expect("horizontal supplies buffers");
        out.clear();
        loop {
            // Smallest timestamp among stream heads.
            let mut best: Option<(usize, u64)> = None;
            for (i, h) in heads.iter().enumerate() {
                if let Some((b, off)) = h {
                    let ts = ts_of(b, *off);
                    if best.map(|(_, t)| ts < t).unwrap_or(true) {
                        best = Some((i, ts));
                    }
                }
            }
            let (i, _) = match best {
                Some(b) => b,
                None => break,
            };
            let (b, off) = heads[i].take().expect("head");
            let event = b.filled()[off..off + EVENT_BYTES].to_vec();
            if out.remaining() < EVENT_BYTES {
                ctx.convey(out)?;
                out = ctx
                    .accept_from(horizontal)?
                    .expect("horizontal stopped early");
                out.clear();
            }
            out.append(&event);
            let noff = off + EVENT_BYTES;
            if noff < b.len() {
                heads[i] = Some((b, noff));
            } else {
                ctx.discard(b)?;
                heads[i] = next_head(ctx, verticals[i])?;
            }
        }
        if out.is_empty() {
            ctx.discard(out)?;
        } else {
            ctx.convey(out)?;
        }
        ctx.stop(horizontal)?;
        Ok(())
    }
}

fn main() {
    let streams: Vec<Vec<u8>> = (0..STREAMS).map(make_stream).collect();
    let vertical_buf = 32 * EVENT_BYTES;

    let mut prog = Program::new("merge-streams");

    // One *virtual* fetch stage serves every stream: FG creates a single
    // thread and a single shared input queue for all 48 lanes.
    let streams2 = streams.clone();
    let mut cursors = vec![0usize; STREAMS];
    let fetch = prog.add_virtual_stage(
        "fetch",
        map_stage(move |buf: &mut Buffer, ctx: &mut StageCtx| {
            let lane = ctx.lane(buf.pipeline())?;
            let src = &streams2[lane];
            let take = buf.capacity().min(src.len() - cursors[lane]);
            buf.copy_from(&src[cursors[lane]..cursors[lane] + take]);
            cursors[lane] += take;
            Ok(())
        }),
    );

    let merge = prog.add_stage("merge", Box::new(MergeStage));

    let merged = Arc::new(Mutex::new(Vec::<u8>::new()));
    let m2 = Arc::clone(&merged);
    let collect = prog.add_stage(
        "collect",
        map_stage(move |buf, _ctx| {
            m2.lock().unwrap().extend_from_slice(buf.filled());
            Ok(())
        }),
    );

    for (lane, stream) in streams.iter().enumerate() {
        let rounds = stream.len().div_ceil(vertical_buf) as u64;
        prog.add_pipeline(
            PipelineCfg::new(format!("stream{lane}"), 2, vertical_buf)
                .rounds(Rounds::Count(rounds)),
            &[fetch, merge],
        )
        .unwrap();
    }
    prog.add_pipeline(
        PipelineCfg::new("timeline", 3, 256 * EVENT_BYTES).rounds(Rounds::UntilStopped),
        &[merge, collect],
    )
    .unwrap();

    let report = prog.run().expect("merge program");
    let merged = merged.lock().unwrap();

    let total_events = merged.len() / EVENT_BYTES;
    let mut prev = 0u64;
    let mut ordered = true;
    for ev in merged.chunks_exact(EVENT_BYTES) {
        let ts = u64::from_le_bytes(ev[..8].try_into().unwrap());
        ordered &= ts >= prev;
        prev = ts;
    }
    println!(
        "merged {STREAMS} sorted streams x {EVENTS_PER_STREAM} events -> {total_events} events"
    );
    println!("globally ordered: {ordered}");
    println!(
        "threads spawned: {} (vs {} if every stream had its own fetch thread)",
        report.threads_spawned,
        STREAMS + 2,
    );
    assert!(ordered);
    assert_eq!(total_events, STREAMS * EVENTS_PER_STREAM);
}
