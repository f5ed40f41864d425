//! Tests for ordered worker farms (`Program::workers`): downstream order
//! without a reorder stage, batched accept, SPSC specialization of plain
//! chain queues, and prompt teardown on error/stop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use fg_core::{map_stage, FgError, PipelineCfg, Program, Rounds, Stage, StageCtx};

#[test]
fn workers_emit_rounds_in_order_without_reorder_stage() {
    let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
    let mut prog = Program::new("farm");
    // Data-dependent jitter so replicas finish rounds out of order; the
    // ordered emission gate must still present them in order downstream.
    let work = prog.workers("work", 4, |_i| {
        map_stage(|buf, _| {
            let jitter = (buf.round() * 7) % 5;
            std::thread::sleep(Duration::from_micros(200 * jitter));
            Ok(())
        })
    });
    let s2 = Arc::clone(&seen);
    let check = prog.add_stage(
        "check",
        map_stage(move |buf, _| {
            s2.lock().unwrap().push(buf.round());
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 8, 16).rounds(Rounds::Count(100)),
        &[work, check],
    )
    .unwrap();
    let report = prog.run().unwrap();
    assert_eq!(seen.lock().unwrap().clone(), (0..100).collect::<Vec<u64>>());
    // 4 worker threads + check.
    assert_eq!(report.threads_spawned, 5);
    // Per-replica rows roll up under the base name.
    let (rolled, n) = report.stage_rollup("work").unwrap();
    assert_eq!(n, 4);
    assert_eq!(rolled.buffers_in, 100);
}

#[test]
fn farm_mid_pipeline_preserves_data_and_order() {
    let sum = Arc::new(AtomicU64::new(0));
    let next = Arc::new(AtomicU64::new(0));
    let mut prog = Program::new("mid");
    let fill = prog.add_stage(
        "fill",
        map_stage(|buf, _| {
            let r = buf.round();
            buf.copy_from(&r.to_le_bytes());
            Ok(())
        }),
    );
    let double = prog.workers("double", 3, |_| {
        map_stage(|buf, _| {
            let v = u64::from_le_bytes(buf.filled().try_into().unwrap()) * 2;
            buf.copy_from(&v.to_le_bytes());
            Ok(())
        })
    });
    let s2 = Arc::clone(&sum);
    let n2 = Arc::clone(&next);
    let take = prog.add_stage(
        "take",
        map_stage(move |buf, _| {
            assert_eq!(buf.round(), n2.fetch_add(1, Ordering::Relaxed));
            s2.fetch_add(
                u64::from_le_bytes(buf.filled().try_into().unwrap()),
                Ordering::Relaxed,
            );
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 6, 16).rounds(Rounds::Count(50)),
        &[fill, double, take],
    )
    .unwrap();
    prog.run().unwrap();
    assert_eq!(sum.load(Ordering::Relaxed), 2 * (49 * 50 / 2));
}

#[test]
fn single_worker_farm_degenerates_to_plain_stage() {
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let mut prog = Program::new("one");
    let s = prog.workers("s", 1, move |_| {
        let c = Arc::clone(&c);
        map_stage(move |_, _| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    });
    prog.add_pipeline(PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(17)), &[s])
        .unwrap();
    let report = prog.run().unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 17);
    // No replica suffix: it runs as an ordinary stage.
    assert!(report.stage("s").is_some());
    assert!(report.stage_rollup("s").is_none());
}

#[test]
fn worker_error_cancels_farm_promptly() {
    // The replica holding round 5 fails *before* emitting, so replicas
    // holding rounds 6.. are parked in the emission gate; cancellation must
    // wake them or join() hangs.
    let t0 = Instant::now();
    let mut prog = Program::new("failfarm");
    let work = prog.workers("work", 4, |_| {
        map_stage(|buf, _| {
            if buf.round() == 5 {
                return Err(FgError::stage("work", "replica failure"));
            }
            std::thread::sleep(Duration::from_micros(300));
            Ok(())
        })
    });
    prog.add_pipeline(
        PipelineCfg::new("p", 6, 16).rounds(Rounds::Count(10_000)),
        &[work],
    )
    .unwrap();
    let err = prog.run().unwrap_err();
    assert!(matches!(err, FgError::Stage { .. }), "got {err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "cancellation took {:?}",
        t0.elapsed()
    );
}

#[test]
fn stop_tears_down_farm_and_spsc_spinners_promptly() {
    // A downstream stage stops the pipeline mid-stream: the source emits
    // the caboose, the farm's poison-pill handoff retires every worker, and
    // SPSC pushers/poppers spinning on queues observe the close.
    let t0 = Instant::now();
    struct StopAt(u64);
    impl Stage for StopAt {
        fn run(&mut self, ctx: &mut StageCtx) -> fg_core::Result<()> {
            while let Some(buf) = ctx.accept()? {
                let stop = buf.round() >= self.0;
                let p = buf.pipeline();
                ctx.convey(buf)?;
                if stop {
                    ctx.stop(p)?;
                    break;
                }
            }
            Ok(())
        }
    }
    let mut prog = Program::new("stopfarm");
    let work = prog.workers("work", 3, |_| map_stage(|_, _| Ok(())));
    let gate = prog.add_stage("gate", Box::new(StopAt(20)));
    prog.add_pipeline(
        PipelineCfg::new("p", 4, 16).rounds(Rounds::UntilStopped),
        &[work, gate],
    )
    .unwrap();
    prog.run().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "stop took {:?}",
        t0.elapsed()
    );
}

#[test]
fn accept_many_sees_every_buffer_in_order() {
    // A batched consumer downstream of a farm: pop_many hands it runs of
    // buffers without re-locking per item, still in round order.
    let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
    let batches = Arc::new(AtomicU64::new(0));
    struct Batched {
        seen: Arc<Mutex<Vec<u64>>>,
        batches: Arc<AtomicU64>,
    }
    impl Stage for Batched {
        fn run(&mut self, ctx: &mut StageCtx) -> fg_core::Result<()> {
            let mut out = Vec::new();
            loop {
                let n = ctx.accept_many(8, &mut out)?;
                if n == 0 {
                    return Ok(());
                }
                self.batches.fetch_add(1, Ordering::Relaxed);
                for buf in out.drain(..) {
                    self.seen.lock().unwrap().push(buf.round());
                    ctx.convey(buf)?;
                }
            }
        }
    }
    let mut prog = Program::new("batch");
    let work = prog.workers("work", 2, |_| map_stage(|_, _| Ok(())));
    let sink = prog.add_stage(
        "collect",
        Box::new(Batched {
            seen: Arc::clone(&seen),
            batches: Arc::clone(&batches),
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 6, 16).rounds(Rounds::Count(120)),
        &[work, sink],
    )
    .unwrap();
    prog.run().unwrap();
    assert_eq!(seen.lock().unwrap().clone(), (0..120).collect::<Vec<u64>>());
    // Batching actually batched: far fewer accepts than buffers.
    assert!(batches.load(Ordering::Relaxed) < 120);
}

#[test]
fn spsc_detection_specializes_plain_chains_only() {
    // One program exercising all three consumer kinds: a plain chain (SPSC
    // eligible), a farm (its input is shared by replicas re-pushing the
    // caboose), and a virtual stage shared by two pipelines (many
    // producers).  Only the plain chain's queues may specialize.
    let mut prog = Program::new("flavors");
    let a = prog.add_stage("a", map_stage(|_, _| Ok(())));
    let farm = prog.workers("farm", 2, |_| map_stage(|_, _| Ok(())));
    let b = prog.add_stage("b", map_stage(|_, _| Ok(())));
    let c = prog.add_stage("c", map_stage(|_, _| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 3, 16).rounds(Rounds::Count(10)),
        &[a, farm, b, c],
    )
    .unwrap();
    let v = prog.add_virtual_stage("v", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("q", 2, 16).rounds(Rounds::Count(5)), &[v])
        .unwrap();
    prog.add_pipeline(PipelineCfg::new("r", 2, 16).rounds(Rounds::Count(5)), &[v])
        .unwrap();
    let report = prog.run().unwrap();
    let flavor = |name: &str| {
        let q = report
            .queues
            .iter()
            .find(|q| q.name == name)
            .unwrap_or_else(|| panic!("queue {name} missing"));
        assert_eq!(q.spsc, q.flavor == "spsc", "spsc bool disagrees with label");
        q.flavor.clone()
    };
    // p's pool: the last stage conveys and any stage may discard into it.
    assert_eq!(flavor("p[0]"), "lockfree");
    // a -> farm: the farm's replicas also push (caboose handoff): MPMC,
    // on the lock-free ring.
    assert_eq!(flavor("p[1]"), "lockfree");
    // farm -> b: two replica producers: MPMC.
    assert_eq!(flavor("p[2]"), "lockfree");
    // Shared virtual input, the pool of two pipelines: MPMC.
    assert_eq!(flavor("in/v"), "lockfree");
    // b -> c: one producer, one consumer.
    assert_eq!(flavor("p[3]"), "spsc");
    // No other queues: the pools are the first stages' inputs.
    assert_eq!(report.queues.len(), 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Ordered emission holds for any per-replica delay profile: however
    /// the scheduler and sleeps interleave the workers, downstream sees
    /// rounds 0..n in order.
    #[test]
    fn farm_order_holds_under_random_replica_delays(
        delays in proptest::collection::vec(0u64..400, 4),
        rounds in 1u64..40,
    ) {
        let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
        let mut prog = Program::new("prop-farm");
        let d = delays.clone();
        let work = prog.workers("work", delays.len(), move |i| {
            let us = d[i];
            map_stage(move |_, _| {
                if us > 0 {
                    std::thread::sleep(Duration::from_micros(us));
                }
                Ok(())
            })
        });
        let s2 = Arc::clone(&seen);
        let check = prog.add_stage(
            "check",
            map_stage(move |buf, _| {
                s2.lock().unwrap().push(buf.round());
                Ok(())
            }),
        );
        prog.add_pipeline(
            PipelineCfg::new("p", 6, 16).rounds(Rounds::Count(rounds)),
            &[work, check],
        )
        .unwrap();
        prog.run().unwrap();
        let expect: Vec<u64> = (0..rounds).collect();
        prop_assert_eq!(seen.lock().unwrap().clone(), expect);
    }
}
