//! Tests for span tracing and the Gantt renderer.

use std::time::Duration;

use fg_core::{map_stage, PipelineCfg, Program, Rounds, SpanKind};

fn traced_program() -> fg_core::Report {
    let mut prog = Program::new("traced");
    prog.enable_tracing();
    let slow = prog.add_stage(
        "slow",
        map_stage(|_, _| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(())
        }),
    );
    let fast = prog.add_stage("fast", map_stage(|_, _| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 16).rounds(Rounds::Count(20)),
        &[slow, fast],
    )
    .unwrap();
    prog.run().unwrap()
}

#[test]
fn tracing_records_spans() {
    let report = traced_program();
    let fast = report.stage("fast").unwrap();
    assert!(
        !fast.spans.is_empty(),
        "starved stage must record accept spans"
    );
    // Spans are well-formed and within the program's wall time.
    let wall_ns = report.wall.as_nanos() as u64;
    for span in &fast.spans {
        assert!(span.start_ns <= span.end_ns);
        assert!(span.end_ns <= wall_ns + 1_000_000, "span past wall time");
    }
    // The fast stage is starved: accept spans dominate.
    let accept_ns: u64 = fast
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Accept)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    assert!(
        accept_ns > wall_ns / 2,
        "fast stage should spend most time starved: {accept_ns} of {wall_ns}"
    );
}

#[test]
fn tracing_off_means_no_spans() {
    let mut prog = Program::new("untraced");
    let s = prog.add_stage("s", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 2, 16).rounds(Rounds::Count(5)), &[s])
        .unwrap();
    let report = prog.run().unwrap();
    assert!(report.stage("s").unwrap().spans.is_empty());
}

#[test]
fn gantt_renders_all_stages() {
    let report = traced_program();
    let gantt = report.render_gantt(40);
    assert!(gantt.contains("slow"));
    assert!(gantt.contains("fast"));
    // The starved fast stage's traced row should be mostly dots.
    let fast_row = gantt
        .lines()
        .find(|l| l.starts_with("fast"))
        .expect("fast row");
    let dots = fast_row.matches('.').count();
    assert!(dots > 20, "fast row should be mostly starved: {fast_row}");
    // Every thread is a stage with its own spans: no row falls back to
    // an aggregate (~) bar.
    assert!(!gantt.contains('~'), "every row is traced: {gantt}");
    assert_eq!(gantt.lines().count(), 3, "header + one row per stage");
}

#[test]
fn gantt_handles_empty_report() {
    let gantt = fg_core::Report::default().render_gantt(30);
    assert!(gantt.contains("gantt over"));
}
