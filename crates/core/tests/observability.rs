//! End-to-end tests of the observability layer: the flight recorder's
//! span log, the metrics registry, queue-depth reporting, and the JSON /
//! Chrome-trace exports.

use std::sync::Arc;
use std::time::Duration;

use fg_core::{
    map_stage, Json, MetricsRegistry, PipelineCfg, Program, Report, Rounds, ThreadLog, TraceKind,
    TraceSink,
};

const ROUNDS: u64 = 25;

fn two_stage_program() -> Program {
    let mut prog = Program::new("obs");
    let fill = prog.add_stage(
        "fill",
        map_stage(|buf, _ctx| {
            buf.space_mut()[0] = buf.round() as u8;
            buf.set_filled(1);
            Ok(())
        }),
    );
    let check = prog.add_stage(
        "check",
        map_stage(|buf, _ctx| {
            assert_eq!(buf.filled()[0], buf.round() as u8);
            Ok(())
        }),
    );
    let cfg = PipelineCfg::new("p", 3, 64).rounds(Rounds::Count(ROUNDS));
    prog.add_pipeline(cfg, &[fill, check]).unwrap();
    prog
}

/// How many spans of `kind` carrying a buffer (non-zero trace id) the
/// thread whose task name is `task` recorded.
fn buffer_spans(logs: &[ThreadLog], task: &str, kind: TraceKind) -> usize {
    logs.iter()
        .filter(|l| l.task() == task)
        .flat_map(|l| &l.spans)
        .filter(|s| s.kind == kind && s.trace_id != 0)
        .count()
}

#[test]
fn flight_recorder_sees_every_transition() {
    let sink = TraceSink::new();
    let mut prog = two_stage_program();
    prog.set_trace_sink(Arc::clone(&sink));
    let report = prog.run().unwrap();
    let logs = sink.collect();

    // Both stage threads ran and exited; there is no other thread.
    assert_eq!(report.stages.len(), 2);
    assert_eq!(logs.len(), 2);
    // `fill` begins every round (its accept of a free buffer is the
    // round's inject) and conveys it; `check` accepts it and returns it to
    // the pool (its convey is the round's recycle).
    let each = ROUNDS as usize;
    assert_eq!(buffer_spans(&logs, "fill", TraceKind::SourceInject), each);
    assert_eq!(buffer_spans(&logs, "fill", TraceKind::Accept), 0);
    assert_eq!(buffer_spans(&logs, "fill", TraceKind::Convey), each);
    assert_eq!(buffer_spans(&logs, "check", TraceKind::Accept), each);
    assert_eq!(buffer_spans(&logs, "check", TraceKind::Convey), 0);
    assert_eq!(buffer_spans(&logs, "check", TraceKind::Recycle), each);

    // The span log agrees with the report's own accounting.
    for stage in ["fill", "check"] {
        let s = report.stage(stage).unwrap();
        assert_eq!((s.buffers_in, s.buffers_out), (ROUNDS, ROUNDS));
    }
}

#[test]
fn metrics_registry_collects_core_metrics_and_queue_depths() {
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = two_stage_program();
    prog.set_metrics(Arc::clone(&registry));
    let report = prog.run().unwrap();

    for stage in ["fill", "check"] {
        let rounds = report
            .metrics
            .counter(&format!("core/stage_rounds/{stage}"));
        assert_eq!(rounds, Some(ROUNDS), "{stage}");
        let accepted = report
            .metrics
            .counter(&format!("core/stage_buffers/{stage}"));
        assert_eq!(accepted, Some(ROUNDS), "{stage}");
    }

    // Every wired queue reports depth statistics and a live gauge.
    assert!(!report.queues.is_empty());
    for q in &report.queues {
        assert!(q.max_depth <= q.capacity, "{q:?}");
        assert!(q.max_depth > 0, "every queue carried traffic: {q:?}");
        let gauge = report
            .metrics
            .gauge(&format!("core/queue_depth/{}", q.name))
            .unwrap_or_else(|| panic!("no gauge for queue {:?}", q.name));
        assert_eq!(gauge.peak as usize, q.max_depth);
    }

    // The dashboard renders every section for this run.
    let dash = report.render_dashboard();
    assert!(dash.contains("== queues =="));
    assert!(dash.contains("== metrics: core =="));
    assert!(dash.contains("core/stage_rounds/fill = 25"));
}

#[test]
fn uninstrumented_run_reports_empty_metrics() {
    let report = two_stage_program().run().unwrap();
    assert!(report.metrics.is_empty());
    // Queue high-water marks are tracked unconditionally (they live inside
    // the queue's existing lock), so they appear even without a registry.
    assert!(!report.queues.is_empty());
}

#[test]
fn report_json_round_trips() {
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = two_stage_program();
    prog.enable_tracing();
    prog.set_metrics(Arc::clone(&registry));
    let report = prog.run().unwrap();

    let text = report.to_json();
    let parsed = Report::from_json(&text).expect("report JSON parses");
    assert_eq!(parsed, report);
}

#[test]
fn chrome_trace_is_valid_and_slices_do_not_overlap() {
    let sink = TraceSink::new();
    let mut prog = two_stage_program();
    prog.set_trace_sink(Arc::clone(&sink));
    let report = prog.run().unwrap();

    let trace = sink.to_chrome_trace();
    let json = Json::parse(&trace).expect("chrome trace parses as JSON");
    let events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("trace has an event array");
    assert!(!events.is_empty());

    // One thread-name metadata event per runtime thread (stages + source +
    // sink), each with a distinct tid.
    let mut tids = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        match ph {
            "M" => {
                assert_eq!(e.get("name").and_then(Json::as_str), Some("thread_name"));
                tids.push(e.get("tid").and_then(Json::as_u64).unwrap());
            }
            "X" => {
                let name = e.get("name").and_then(Json::as_str).unwrap();
                assert!(
                    matches!(name, "inject" | "accept" | "work" | "convey" | "recycle"),
                    "unexpected slice {name:?}"
                );
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
                assert!(e.get("tid").and_then(Json::as_u64).is_some());
            }
            "s" | "t" | "f" => assert_eq!(e.get("cat").and_then(Json::as_str), Some("flow")),
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(tids.len(), report.stages.len());
    let mut sorted = tids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), tids.len(), "tids must be distinct");

    // Per tid, slices tile the timeline without overlapping.  The exporter
    // floors each slice at 1 ns (0.001 us) so zero-length spans stay
    // visible; allow that much.
    for tid in tids {
        let mut slices: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("tid").and_then(Json::as_u64) == Some(tid)
            })
            .map(|e| {
                (
                    e.get("ts").and_then(Json::as_f64).unwrap(),
                    e.get("dur").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        slices.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in slices.windows(2) {
            let (ts0, dur0) = w[0];
            let (ts1, _) = w[1];
            assert!(
                ts0 + dur0 <= ts1 + 0.001 + 1e-9,
                "overlapping slices on tid {tid}: {w:?}"
            );
        }
    }
}

#[test]
fn stage_exit_is_recorded_on_the_error_path() {
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = Program::new("err");
    let boom = prog.add_stage(
        "boom",
        map_stage(|buf, _ctx| {
            if buf.round() == 3 {
                Err(fg_core::FgError::Stage {
                    stage: "boom".into(),
                    message: "synthetic".into(),
                })
            } else {
                Ok(())
            }
        }),
    );
    let cfg = PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(100));
    prog.add_pipeline(cfg, &[boom]).unwrap();
    prog.set_metrics(Arc::clone(&registry));
    assert!(prog.run().is_err());
    // Even on the error path the stage thread publishes its exit totals:
    // rounds 0..=3 were accepted and 0..=2 conveyed before the failure.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("core/stage_buffers/boom"), Some(4));
    assert_eq!(snap.counter("core/stage_rounds/boom"), Some(3));
}

#[test]
fn accept_spans_record_plausible_latencies() {
    let sink = TraceSink::new();
    let mut prog = Program::new("lat");
    let slow = prog.add_stage(
        "slow",
        map_stage(|_buf, _ctx| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(())
        }),
    );
    let fast = prog.add_stage("fast", map_stage(|_buf, _ctx| Ok(())));
    let cfg = PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(10));
    prog.add_pipeline(cfg, &[slow, fast]).unwrap();
    prog.set_trace_sink(Arc::clone(&sink));
    prog.run().unwrap();

    // `fast` starves behind `slow`, so some of its accept waits must be
    // near 1ms.
    let logs = sink.collect();
    let waits: Vec<u64> = logs
        .iter()
        .filter(|l| l.task() == "fast")
        .flat_map(|l| &l.spans)
        .filter(|s| s.kind == TraceKind::Accept && s.trace_id != 0)
        .map(|s| s.dur_ns())
        .collect();
    assert_eq!(waits.len(), 10);
    let max = waits.iter().copied().max().unwrap();
    assert!(
        max >= 100_000,
        "expected some waits >= 0.1ms, max was {max}ns"
    );
}
