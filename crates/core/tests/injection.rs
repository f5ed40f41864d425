//! The folded source and sink: a pipeline's buffer pool lives in its first
//! stage's input queue, the first stage begins every round, and the last
//! stage's convey returns the buffer to the pool.  Every shape below runs
//! on its own thread under a 20 s deadline, so a hang fails fast; each must
//! process every round it began exactly once, or return a typed error, and
//! spawn exactly one thread per stage (replicas counted).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fg_core::{
    map_stage, Buffer, ControllerCfg, FgError, MetricsRegistry, PipelineCfg, PipelineId, Program,
    Report, Rounds, Stage, StageCtx,
};

/// Run `f` on its own thread and wait at most 20 s for its result.
fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("program hung (or panicked) instead of finishing within 20 s")
}

type Seen = Arc<Mutex<Vec<u64>>>;

/// A stage that records every round it sees, then conveys the buffer.
fn record(seen: &Seen) -> Box<dyn Stage> {
    let seen = Arc::clone(seen);
    map_stage(move |buf, _| {
        seen.lock().unwrap().push(buf.round());
        Ok(())
    })
}

/// A stage that records every `(pipeline, round)` it sees.
fn record_lanes(seen: &Arc<Mutex<Vec<(PipelineId, u64)>>>) -> Box<dyn Stage> {
    let seen = Arc::clone(seen);
    map_stage(move |buf, _| {
        seen.lock().unwrap().push((buf.pipeline(), buf.round()));
        Ok(())
    })
}

fn pass() -> Box<dyn Stage> {
    map_stage(|_, _| Ok(()))
}

fn rounds_of(seen: &Seen) -> Vec<u64> {
    seen.lock().unwrap().clone()
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn upto(n: u64) -> Vec<u64> {
    (0..n).collect()
}

#[test]
fn linear_pipeline_begins_every_round_at_its_first_stage() {
    let (report, first, last) = within(|| {
        let (first, last): (Seen, Seen) = Default::default();
        let mut prog = Program::new("linear");
        let a = prog.add_stage("a", record(&first));
        let b = prog.add_stage("b", pass());
        let c = prog.add_stage("c", record(&last));
        prog.add_pipeline(PipelineCfg::new("p", 3, 16).count(100), &[a, b, c])
            .unwrap();
        (prog.run().unwrap(), first, last)
    });
    assert_eq!(rounds_of(&first), upto(100));
    assert_eq!(rounds_of(&last), upto(100));
    assert_eq!(report.threads_spawned, 3);
    for stage in ["a", "b", "c"] {
        let s = report.stage(stage).unwrap();
        assert_eq!((s.buffers_in, s.buffers_out), (100, 100), "{stage}");
    }
}

#[test]
fn zero_rounds_end_at_once() {
    let (report, seen) = within(|| {
        let seen: Seen = Default::default();
        let mut prog = Program::new("zero");
        let a = prog.add_stage("a", record(&seen));
        let b = prog.add_stage("b", record(&seen));
        prog.add_pipeline(PipelineCfg::new("p", 2, 16).count(0), &[a, b])
            .unwrap();
        (prog.run().unwrap(), seen)
    });
    assert!(rounds_of(&seen).is_empty());
    assert_eq!(report.threads_spawned, 2);
    assert_eq!(report.stage("a").unwrap().buffers_in, 0);
}

#[test]
fn single_stage_pipeline_recycles_into_its_own_input() {
    let (report, seen) = within(|| {
        let seen: Seen = Default::default();
        let mut prog = Program::new("single");
        let s = prog.add_stage("s", record(&seen));
        prog.add_pipeline(PipelineCfg::new("p", 2, 16).count(50), &[s])
            .unwrap();
        (prog.run().unwrap(), seen)
    });
    assert_eq!(rounds_of(&seen), upto(50));
    assert_eq!(report.threads_spawned, 1);
    // The only queue is the pipeline's pool: room for both buffers, the
    // caboose and a relay.
    assert_eq!(report.queues.len(), 1);
    assert_eq!(report.queues[0].name, "p[0]");
    assert_eq!(report.queues[0].capacity, 4);
    assert!(report.queues[0].max_depth <= 4);
}

#[test]
fn virtual_stage_first_in_its_pipelines_serves_every_lane() {
    const COUNTS: [u64; 4] = [0, 1, 7, 20];
    let (report, seen) = within(|| {
        let seen: Arc<Mutex<Vec<(PipelineId, u64)>>> = Default::default();
        let mut prog = Program::new("virtual-first");
        let v = prog.add_virtual_stage("v", pass());
        let downs: Vec<_> = (0..COUNTS.len())
            .map(|i| prog.add_stage(format!("d{i}"), record_lanes(&seen)))
            .collect();
        for (i, &n) in COUNTS.iter().enumerate() {
            prog.add_pipeline(
                PipelineCfg::new(format!("p{i}"), 2, 8).count(n),
                &[v, downs[i]],
            )
            .unwrap();
        }
        (prog.run().unwrap(), seen)
    });
    let seen = seen.lock().unwrap().clone();
    for (i, &n) in COUNTS.iter().enumerate() {
        let lane: Vec<u64> = seen
            .iter()
            .filter(|(p, _)| p.index() == i)
            .map(|(_, r)| *r)
            .collect();
        assert_eq!(lane, upto(n), "lane {i}");
    }
    // One shared thread for the virtual stage, one per downstream stage.
    assert_eq!(report.threads_spawned, 1 + COUNTS.len());
    // The shared input is every lane's pool.
    let pool = report.queues.iter().find(|q| q.name == "in/v").unwrap();
    assert_eq!(pool.capacity, COUNTS.len() * (2 + 2));
}

#[test]
fn virtual_stage_mid_chain_sees_every_lane_once() {
    const K: usize = 5;
    const ROUNDS: u64 = 15;
    let (report, seen) = within(|| {
        let seen: Arc<Mutex<Vec<(PipelineId, u64)>>> = Default::default();
        let mut prog = Program::new("virtual-mid");
        let feeders: Vec<_> = (0..K)
            .map(|i| prog.add_stage(format!("f{i}"), pass()))
            .collect();
        let v = prog.add_virtual_stage("v", record_lanes(&seen));
        for (i, f) in feeders.iter().enumerate() {
            prog.add_pipeline(
                PipelineCfg::new(format!("p{i}"), 2, 8).count(ROUNDS),
                &[*f, v],
            )
            .unwrap();
        }
        (prog.run().unwrap(), seen)
    });
    let seen = seen.lock().unwrap().clone();
    for i in 0..K {
        let lane: Vec<u64> = seen
            .iter()
            .filter(|(p, _)| p.index() == i)
            .map(|(_, r)| *r)
            .collect();
        assert_eq!(lane, upto(ROUNDS), "lane {i}");
    }
    assert_eq!(report.threads_spawned, K + 1);
}

#[test]
fn ordered_farm_at_position_zero_emits_rounds_in_order() {
    let (report, seen, begun) = within(|| {
        let (seen, begun): (Seen, Seen) = Default::default();
        let mut prog = Program::new("farm-first");
        let b2 = Arc::clone(&begun);
        let work = prog.workers("work", 3, move |_| {
            let begun = Arc::clone(&b2);
            map_stage(move |buf, _| {
                begun.lock().unwrap().push(buf.round());
                std::thread::sleep(Duration::from_micros(50 * (buf.round() % 4)));
                Ok(())
            })
        });
        let check = prog.add_stage("check", record(&seen));
        prog.add_pipeline(PipelineCfg::new("p", 6, 16).count(60), &[work, check])
            .unwrap();
        (prog.run().unwrap(), seen, begun)
    });
    assert_eq!(rounds_of(&seen), upto(60));
    assert_eq!(sorted(rounds_of(&begun)), upto(60));
    assert_eq!(report.threads_spawned, 4);
}

#[test]
fn unordered_farm_at_position_zero_processes_each_round_once() {
    let (report, seen) = within(|| {
        let seen: Seen = Default::default();
        let mut prog = Program::new("replicas-first");
        let work = prog.add_replicated_stage("work", 3, |_| pass());
        let collect = prog.add_stage("collect", record(&seen));
        prog.add_pipeline(PipelineCfg::new("p", 4, 16).count(80), &[work, collect])
            .unwrap();
        (prog.run().unwrap(), seen)
    });
    assert_eq!(sorted(rounds_of(&seen)), upto(80));
    assert_eq!(report.threads_spawned, 4);
    let (rolled, n) = report.stage_rollup("work").unwrap();
    assert_eq!((n, rolled.buffers_in, rolled.buffers_out), (3, 80, 80));
}

#[test]
fn accept_many_at_a_first_stage_begins_each_round_once() {
    for rounds in [0u64, 1, 5, 23] {
        let (report, seen) = within(move || {
            let seen: Seen = Default::default();
            let mut prog = Program::new("batched-first");
            let batched = prog.add_stage(
                "batched",
                Box::new(|ctx: &mut StageCtx| {
                    let mut batch: Vec<Buffer> = Vec::new();
                    while ctx.accept_many(4, &mut batch)? > 0 {
                        for buf in batch.drain(..) {
                            ctx.convey(buf)?;
                        }
                    }
                    Ok(())
                }),
            );
            let check = prog.add_stage("check", record(&seen));
            prog.add_pipeline(
                PipelineCfg::new("p", 6, 16).count(rounds),
                &[batched, check],
            )
            .unwrap();
            (prog.run().unwrap(), seen)
        });
        assert_eq!(rounds_of(&seen), upto(rounds), "{rounds} rounds");
        assert_eq!(report.threads_spawned, 2);
    }
}

/// An `UntilStopped` pipeline `first → mid → last` in which stage
/// `stopper` stops the pipeline once it sees round 20.  Returns the rounds
/// the last stage saw.
fn stopped_by(stopper: &'static str) -> (Report, Vec<u64>) {
    within(move || {
        let seen: Seen = Default::default();
        let mut prog = Program::new("until-stopped");
        let stage = |name: &'static str| {
            let seen = Arc::clone(&seen);
            map_stage(move |buf: &mut Buffer, ctx: &mut StageCtx| {
                if name == "last" {
                    seen.lock().unwrap().push(buf.round());
                }
                if name == stopper && buf.round() == 20 {
                    ctx.stop(buf.pipeline())?;
                }
                Ok(())
            })
        };
        let first = prog.add_stage("first", stage("first"));
        let mid = prog.add_stage("mid", stage("mid"));
        let last = prog.add_stage("last", stage("last"));
        prog.add_pipeline(
            PipelineCfg::new("p", 3, 16).rounds(Rounds::UntilStopped),
            &[first, mid, last],
        )
        .unwrap();
        let report = prog.run().unwrap();
        let seen = seen.lock().unwrap().clone();
        (report, seen)
    })
}

#[test]
fn until_stopped_ends_when_any_stage_stops_it() {
    for stopper in ["first", "mid", "last"] {
        let (report, seen) = stopped_by(stopper);
        // Rounds begun before the stop landed still flow, in order and
        // once each; nothing after them.
        assert!(seen.len() > 20, "{stopper}: stopped before round 20");
        assert_eq!(seen, upto(seen.len() as u64), "{stopper}");
        // A stop at the first stage lands before it begins another round.
        if stopper == "first" {
            assert_eq!(seen.len(), 21);
        }
        assert_eq!(report.threads_spawned, 3, "{stopper}");
    }
}

#[test]
fn first_stage_returning_early_ends_the_stream() {
    let (report, seen) = within(|| {
        let seen: Seen = Default::default();
        let mut prog = Program::new("early");
        let first = prog.add_stage(
            "first",
            Box::new(|ctx: &mut StageCtx| {
                for _ in 0..10 {
                    match ctx.accept()? {
                        Some(buf) => ctx.convey(buf)?,
                        None => break,
                    }
                }
                Ok(())
            }),
        );
        let last = prog.add_stage("last", record(&seen));
        prog.add_pipeline(PipelineCfg::new("p", 2, 16).count(100), &[first, last])
            .unwrap();
        (prog.run().unwrap(), seen)
    });
    assert_eq!(rounds_of(&seen), upto(10));
    assert_eq!(report.threads_spawned, 2);
}

#[test]
fn replica_returning_early_at_position_zero_ends_the_farm_cleanly() {
    let (report, seen, begun) = within(|| {
        let (seen, begun): (Seen, Seen) = Default::default();
        let mut prog = Program::new("farm-early");
        let b2 = Arc::clone(&begun);
        let work = prog.add_replicated_stage("work", 3, move |i| {
            let begun = Arc::clone(&b2);
            Box::new(move |ctx: &mut StageCtx| {
                while let Some(buf) = ctx.accept()? {
                    begun.lock().unwrap().push(buf.round());
                    ctx.convey(buf)?;
                    // Replica 0 leaves after one round.
                    if i == 0 {
                        return Ok(());
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Ok(())
            }) as Box<dyn Stage>
        });
        let collect = prog.add_stage("collect", record(&seen));
        prog.add_pipeline(PipelineCfg::new("p", 4, 16).count(200), &[work, collect])
            .unwrap();
        (prog.run().unwrap(), seen, begun)
    });
    // The first stage ending a replica ends the stream: every round begun
    // reached the collector exactly once, and they form a prefix.
    let begun = sorted(rounds_of(&begun));
    assert!(!begun.is_empty());
    assert_eq!(begun, upto(begun.len() as u64));
    assert_eq!(sorted(rounds_of(&seen)), begun);
    assert_eq!(report.threads_spawned, 4);
}

#[test]
fn replicas_leaving_at_position_zero_never_wedge_the_last_stage() {
    // Replica 0 begins both rounds the pool allows and conveys them to a
    // slow last stage; then the other five replicas return at once.  Their
    // end-of-stream relays fill the pool queue with cabooses, and the last
    // stage must still hand both buffers back without blocking.
    const REPLICAS: usize = 6;
    let (report, seen) = within(|| {
        let seen: Seen = Default::default();
        let conveyed = Arc::new(AtomicUsize::new(0));
        let mut prog = Program::new("farm-leave");
        let c2 = Arc::clone(&conveyed);
        let work = prog.add_replicated_stage("work", REPLICAS, move |i| {
            let conveyed = Arc::clone(&c2);
            Box::new(move |ctx: &mut StageCtx| {
                if i > 0 {
                    while conveyed.load(Ordering::SeqCst) < 2 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return Ok(());
                }
                while let Some(buf) = ctx.accept()? {
                    ctx.convey(buf)?;
                    conveyed.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            }) as Box<dyn Stage>
        });
        let s2 = Arc::clone(&seen);
        let last = prog.add_stage(
            "last",
            map_stage(move |buf, _| {
                std::thread::sleep(Duration::from_millis(50));
                s2.lock().unwrap().push(buf.round());
                Ok(())
            }),
        );
        prog.add_pipeline(PipelineCfg::new("p", 2, 16).count(100), &[work, last])
            .unwrap();
        (prog.run().unwrap(), seen)
    });
    let seen = sorted(rounds_of(&seen));
    assert!(seen.len() >= 2, "{seen:?}");
    assert_eq!(seen, upto(seen.len() as u64));
    assert_eq!(report.threads_spawned, REPLICAS + 1);
}

#[test]
fn first_stage_panic_is_a_typed_error() {
    let (err, seen) = within(|| {
        let seen: Seen = Default::default();
        let mut prog = Program::new("panic-first");
        let first = prog.add_stage(
            "first",
            map_stage(|buf, _| {
                assert!(buf.round() < 5, "first stage gives up at round 5");
                Ok(())
            }),
        );
        let last = prog.add_stage("last", record(&seen));
        prog.add_pipeline(PipelineCfg::new("p", 2, 16).count(100), &[first, last])
            .unwrap();
        (prog.run().unwrap_err(), seen)
    });
    match err {
        FgError::Panic { stage, message } => {
            assert_eq!(stage, "first");
            assert!(message.contains("round 5"), "{message}");
        }
        other => panic!("expected a panic error, got {other:?}"),
    }
    let seen = rounds_of(&seen);
    assert_eq!(seen, upto(seen.len() as u64));
    assert!(seen.len() <= 5);
}

#[test]
fn controller_grows_the_pool_at_the_first_stage() {
    const ROUNDS: u64 = 400;
    let (report, seen, peak) = within(|| {
        let seen: Seen = Default::default();
        // Rounds begun at `a` and not yet finished at `b`: more than one
        // means the pool outgrew its single starting buffer.
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut prog = Program::new("grow");
        prog.set_metrics(Arc::new(MetricsRegistry::new()));
        prog.set_controller(ControllerCfg {
            sample_interval: Duration::from_millis(2),
            decide_interval: Duration::from_millis(10),
            ..ControllerCfg::default()
        });
        let (f2, p2) = (Arc::clone(&in_flight), Arc::clone(&peak));
        let a = prog.add_stage(
            "a",
            map_stage(move |_, _| {
                let now = f2.fetch_add(1, Ordering::SeqCst) + 1;
                p2.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(500));
                Ok(())
            }),
        );
        let (f3, s3) = (Arc::clone(&in_flight), Arc::clone(&seen));
        let b = prog.add_stage(
            "b",
            map_stage(move |buf, _| {
                std::thread::sleep(Duration::from_micros(500));
                s3.lock().unwrap().push(buf.round());
                f3.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            }),
        );
        prog.add_pipeline(
            PipelineCfg::new("p", 1, 16).count(ROUNDS).max_buffers(4),
            &[a, b],
        )
        .unwrap();
        (prog.run().unwrap(), seen, peak)
    });
    assert_eq!(rounds_of(&seen), upto(ROUNDS));
    assert_eq!(report.threads_spawned, 2);
    let log = report.controller.expect("controller ran");
    assert!(
        log.decisions
            .iter()
            .any(|d| d.action.starts_with("grow pool `p`")),
        "{:?}",
        log.decisions
    );
    assert!(
        peak.load(Ordering::SeqCst) > 1,
        "the grown pool never circulated"
    );
    let target = report.metrics.gauge("controller/pool_target/p").unwrap();
    assert!(target.value > 1);
}

#[test]
fn every_round_is_begun_exactly_once_across_lanes_and_stops() {
    // A common stage that begins one pipeline and ends another, with an
    // upstream that stops its own pipeline: both streams end cleanly.
    let (report, horizontal) = within(|| {
        let horizontal: Seen = Default::default();
        let got = Arc::new(AtomicU64::new(0));
        let mut prog = Program::new("common");
        let feed = prog.add_stage("feed", pass());
        let g2 = Arc::clone(&got);
        let join = prog.add_stage(
            "join",
            Box::new(move |ctx: &mut StageCtx| {
                let pids: Vec<_> = ctx.pipelines().collect();
                let (vertical, out) = (pids[0], pids[1]);
                while let Some(v) = ctx.accept_from(vertical)? {
                    ctx.discard(v)?;
                    g2.fetch_add(1, Ordering::SeqCst);
                    let o = ctx.accept_from(out)?.ok_or(FgError::Cancelled)?;
                    ctx.convey(o)?;
                }
                ctx.stop(out)?;
                Ok(())
            }),
        );
        let write = prog.add_stage("write", record(&horizontal));
        prog.add_pipeline(PipelineCfg::new("in", 2, 8).count(30), &[feed, join])
            .unwrap();
        prog.add_pipeline(
            PipelineCfg::new("out", 2, 8).rounds(Rounds::UntilStopped),
            &[join, write],
        )
        .unwrap();
        let report = prog.run().unwrap();
        assert_eq!(got.load(Ordering::SeqCst), 30);
        (report, horizontal)
    });
    assert_eq!(rounds_of(&horizontal), upto(30));
    assert_eq!(report.threads_spawned, 3);
}
