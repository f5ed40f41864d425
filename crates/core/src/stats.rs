//! Per-stage timing statistics.
//!
//! FG's value proposition is *overlap*: while one stage blocks on a
//! high-latency operation, other stages' threads make progress.  To make that
//! overlap observable (and to power the paper's per-pass breakdowns without
//! an external profiler), the runtime records, for every stage:
//!
//! * time spent blocked waiting to **accept** a buffer (starved),
//! * time spent blocked waiting to **convey** a buffer (backpressured),
//! * the remaining wall time, which is the stage's own **busy** time, and
//! * how many buffers it processed.

use std::time::Duration;

use crate::metrics::MetricsSnapshot;

/// What a traced stage was doing during a [`Span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Blocked waiting to accept a buffer (starved).
    Accept,
    /// Blocked waiting to convey a buffer (backpressured).
    Convey,
}

/// One blocked interval of a traced stage, in nanoseconds since the
/// program's start.  The gaps between blocked spans are the stage's busy
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the stage was waiting on.
    pub kind: SpanKind,
    /// Nanoseconds since program start when the wait began.
    pub start_ns: u64,
    /// Nanoseconds since program start when the wait ended.
    pub end_ns: u64,
}

/// Timing record for one stage thread of a finished program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name as given at construction.
    pub name: String,
    /// CPU core this stage's thread was pinned to, when the program ran
    /// with [`Program::set_pinning`](crate::Program::set_pinning) and the
    /// affinity change took hold; `None` for unpinned runs and on hosts
    /// where pinning degraded to a no-op.
    pub core: Option<usize>,
    /// Wall-clock time from thread start to thread exit.
    pub wall: Duration,
    /// Time blocked inside `accept`/`accept_from`/`accept_any`.
    pub blocked_accept: Duration,
    /// Time blocked inside `convey`/`discard` (downstream queue full, or
    /// an ordered farm waiting for the round's turn).
    pub blocked_convey: Duration,
    /// Time a farm replica spent parked at the admission gate while the
    /// controller held the farm below its declared width.  Idle capacity:
    /// counted as neither busy nor starved.
    pub parked: Duration,
    /// Buffers this stage accepted.
    pub buffers_in: u64,
    /// Buffers this stage conveyed.
    pub buffers_out: u64,
    /// Blocked intervals, present on stage rows when the program ran with
    /// [`Program::enable_tracing`](crate::Program::enable_tracing): read
    /// off the stage's flight-recorder ring at thread exit, so they cover
    /// its most recent transitions only.
    pub spans: Vec<Span>,
}

impl StageStats {
    /// Time the stage spent doing its own work (wall minus blocking).
    pub fn busy(&self) -> Duration {
        self.wall
            .saturating_sub(self.blocked_accept)
            .saturating_sub(self.blocked_convey)
            .saturating_sub(self.parked)
    }

    /// Fraction of wall time spent busy, in `[0, 1]`; zero for a zero-wall
    /// stage.
    pub fn utilization(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.busy().as_secs_f64() / wall
        }
    }
}

/// Lifetime depth statistics of one queue of a finished program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueDepth {
    /// Queue name as assigned during wiring (e.g. `p[0]`, `in/read`).
    pub name: String,
    /// Maximum number of items the queue could hold.
    pub capacity: usize,
    /// High-water mark of the queue's depth.  A queue pinned at capacity
    /// marks a backpressure boundary; one pinned near zero marks a starved
    /// consumer.
    pub max_depth: usize,
    /// Whether the planner specialized this queue to the single-producer
    /// single-consumer ring.
    pub spsc: bool,
    /// Queue implementation label (`"mutex"`, `"lockfree"`, or `"spsc"`);
    /// redundant with [`spsc`](QueueDepth::spsc) for the SPSC ring but the
    /// only way to tell the two MPMC flavors apart.
    pub flavor: String,
}

/// The stage chain of one pipeline, recorded so post-run analysis can tell
/// which stages are upstream or downstream of one another.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineShape {
    /// Pipeline name as declared.
    pub name: String,
    /// Stage names in chain order.
    pub stages: Vec<String>,
}

/// Report produced by a finished [`Program`](crate::Program) run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Wall-clock duration of the whole program (all pipelines).
    pub wall: Duration,
    /// One entry per stage thread (each replica of a farm included), in
    /// declaration order.
    pub stages: Vec<StageStats>,
    /// Number of OS threads the program created: one per stage, replicas
    /// counted.
    /// Virtual stages and virtual pipelines reduce this count; experiment A2
    /// measures exactly this field.
    pub threads_spawned: usize,
    /// Depth statistics of every queue the program wired, in creation
    /// order.
    pub queues: Vec<QueueDepth>,
    /// Each pipeline's stage chain, in declaration order — the topology
    /// [`diagnose`](crate::analyze::diagnose) uses to attribute blockage
    /// upstream or downstream of the limiting stage.
    pub pipelines: Vec<PipelineShape>,
    /// Snapshot of the program's
    /// [`MetricsRegistry`](crate::metrics::MetricsRegistry), when one was
    /// attached with [`Program::set_metrics`](crate::Program::set_metrics);
    /// other layers (communicators, simulated disks) may merge their own
    /// snapshots in before rendering or export.
    pub metrics: MetricsSnapshot,
    /// The autotuning controller's decision audit log, when the program
    /// ran with a [`Controller`](crate::controller::Controller) attached.
    pub controller: Option<crate::controller::ControllerLog>,
    /// Final resource attribution (per-thread CPU, RSS, allocator
    /// counters, buffer ledger), when the run sampled one — see
    /// [`ResourceReport`](crate::profile::ResourceReport).
    pub resources: Option<crate::profile::ResourceReport>,
}

impl Report {
    /// Look up the stats of a stage by name (first match).
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Roll up the per-replica rows (`base#0`, `base#1`, …) of a
    /// replicated stage into one aggregate: wall is the slowest replica's
    /// wall (replicas run concurrently), blocked times and buffer counts
    /// are summed.  Returns `None` when no replica row matches, and the
    /// replica count alongside the aggregate otherwise.  Spans are not
    /// merged (per-replica spans stay on the individual rows).
    pub fn stage_rollup(&self, base: &str) -> Option<(StageStats, usize)> {
        let prefix = format!("{base}#");
        let mut agg: Option<StageStats> = None;
        let mut n = 0;
        for s in self.stages.iter().filter(|s| {
            s.name
                .strip_prefix(&prefix)
                .is_some_and(|rest| rest.chars().all(|c| c.is_ascii_digit()))
        }) {
            n += 1;
            let a = agg.get_or_insert_with(|| StageStats {
                name: base.to_string(),
                ..StageStats::default()
            });
            a.wall = a.wall.max(s.wall);
            a.blocked_accept += s.blocked_accept;
            a.blocked_convey += s.blocked_convey;
            a.buffers_in += s.buffers_in;
            a.buffers_out += s.buffers_out;
        }
        agg.map(|a| (a, n))
    }

    /// Sum of busy time across all stages — a proxy for total work performed.
    pub fn total_busy(&self) -> Duration {
        self.stages.iter().map(|s| s.busy()).sum()
    }

    /// Overlap factor: total busy time divided by wall time.  A value close
    /// to the number of concurrently-busy stages indicates good overlap; a
    /// value near 1.0 means execution was effectively serial.
    pub fn overlap_factor(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.total_busy().as_secs_f64() / wall
        }
    }

    /// The largest busy time of any single stage — a lower bound on the
    /// program's wall time no matter how the other stages are tuned.
    pub fn max_busy(&self) -> Duration {
        self.stages
            .iter()
            .map(|s| s.busy())
            .max()
            .unwrap_or_default()
    }

    /// Overlap *efficiency*: [`Report::max_busy`] over wall time, in
    /// `(0, 1]`.  Where [`Report::overlap_factor`] says how much work ran
    /// concurrently, efficiency says how close the run came to its
    /// bottleneck bound — 1.0 means wall time equals the limiting stage's
    /// busy time, i.e. every other stage hid completely behind it;
    /// [`analyze::diagnose`](crate::analyze::diagnose) warns when this
    /// drops low.
    pub fn overlap_efficiency(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            (self.max_busy().as_secs_f64() / wall).clamp(0.0, 1.0)
        }
    }

    /// Render a text Gantt chart of the traced stages: one row per stage,
    /// `width` time buckets across the program's wall time, with `#` for
    /// busy, `.` for starved (waiting to accept), and `o` for
    /// backpressured (waiting to convey).  Stages without spans (tracing
    /// disabled) are drawn from their aggregate numbers as a single
    /// proportion bar prefixed with `~`.
    ///
    /// Requires the program to have run with
    /// [`Program::enable_tracing`](crate::Program::enable_tracing) for
    /// per-interval resolution.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let wall_ns = self.wall.as_nanos() as u64;
        let mut out = String::new();
        out.push_str(&format!(
            "gantt over {:.3}s, {} buckets ('#' busy, '.' starved, 'o' backpressured)\n",
            self.wall.as_secs_f64(),
            width
        ));
        let name_w = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        for s in &self.stages {
            let mut row = vec![b'#'; width];
            // One marker column between name and bar keeps every bar
            // starting at the same column: `~` flags an approximate
            // (untraced, proportion-drawn) row, space an exact one.
            let marker;
            if s.spans.is_empty() {
                marker = '~';
                // No trace: render aggregate proportions, left-to-right.
                let total = s.wall.as_secs_f64().max(1e-12);
                let acc = ((s.blocked_accept.as_secs_f64() / total) * width as f64) as usize;
                let conv = ((s.blocked_convey.as_secs_f64() / total) * width as f64) as usize;
                for slot in row.iter_mut().take(acc.min(width)) {
                    *slot = b'.';
                }
                for slot in row.iter_mut().skip(width.saturating_sub(conv.min(width))) {
                    *slot = b'o';
                }
            } else {
                marker = ' ';
                if wall_ns > 0 {
                    for span in &s.spans {
                        // Bucket math in u128: start_ns * width overflows
                        // u64 for runs past ~3 hours at width 100.  A span
                        // ending exactly at wall_ns maps to bucket `width`,
                        // which must clamp into the last bucket.
                        let a = ((u128::from(span.start_ns.min(wall_ns)) * width as u128)
                            / u128::from(wall_ns)) as usize;
                        let b = ((u128::from(span.end_ns.min(wall_ns)) * width as u128)
                            / u128::from(wall_ns)) as usize;
                        let (a, b) = (a.min(width - 1), b.min(width - 1));
                        let ch = match span.kind {
                            SpanKind::Accept => b'.',
                            SpanKind::Convey => b'o',
                        };
                        for slot in row.iter_mut().take(b + 1).skip(a) {
                            *slot = ch;
                        }
                    }
                }
            }
            out.push_str(&format!(
                "{:<name_w$} {marker}{}\n",
                s.name,
                String::from_utf8(row).expect("ascii")
            ));
        }
        out
    }

    /// Render the report as an aligned text table: one row per stage with
    /// busy / starved / backpressured times, utilization, and buffer
    /// counts.  Useful for eyeballing where a pipeline's time goes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "wall {:.3}s, {} threads, overlap factor {:.2}\n",
            self.wall.as_secs_f64(),
            self.threads_spawned,
            self.overlap_factor()
        ));
        let name_w = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        // The core column only exists when some thread was actually
        // pinned; unpinned runs keep the historical table shape.
        let pinned = self.stages.iter().any(|s| s.core.is_some());
        out.push_str(&format!(
            "{:<name_w$} {:>9} {:>9} {:>9} {:>6} {:>8} {:>8}",
            "stage", "busy ms", "starve ms", "backp ms", "util", "bufs in", "bufs out",
        ));
        if pinned {
            out.push_str(&format!(" {:>4}", "core"));
        }
        out.push('\n');
        for s in &self.stages {
            out.push_str(&format!(
                "{:<name_w$} {:>9.1} {:>9.1} {:>9.1} {:>5.0}% {:>8} {:>8}",
                s.name,
                s.busy().as_secs_f64() * 1e3,
                s.blocked_accept.as_secs_f64() * 1e3,
                s.blocked_convey.as_secs_f64() * 1e3,
                s.utilization() * 100.0,
                s.buffers_in,
                s.buffers_out,
            ));
            if pinned {
                match s.core {
                    Some(c) => out.push_str(&format!(" {c:>4}")),
                    None => out.push_str(&format!(" {:>4}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render a full-run dashboard: the stage table, the Gantt chart, a
    /// queue-depth table, and — when a
    /// [`MetricsRegistry`](crate::metrics::MetricsRegistry) was attached —
    /// one metrics section per layer, grouped by the first segment of each
    /// metric name (`core/…`, `comm/…`, `disk/…`).
    pub fn render_dashboard(&self) -> String {
        let mut out = String::new();
        out.push_str("== stages ==\n");
        out.push_str(&self.render());
        out.push_str("\n== gantt ==\n");
        out.push_str(&self.render_gantt(60));
        if !self.queues.is_empty() {
            out.push_str("\n== queues ==\n");
            let name_w = self
                .queues
                .iter()
                .map(|q| q.name.len())
                .max()
                .unwrap_or(5)
                .max(5);
            out.push_str(&format!(
                "{:<name_w$} {:>8} {:>9} {:>6} {:>8}\n",
                "queue", "capacity", "max depth", "fill", "flavor"
            ));
            for q in &self.queues {
                let fill = if q.capacity == 0 {
                    0.0
                } else {
                    q.max_depth as f64 / q.capacity as f64 * 100.0
                };
                out.push_str(&format!(
                    "{:<name_w$} {:>8} {:>9} {:>5.0}% {:>8}\n",
                    q.name, q.capacity, q.max_depth, fill, q.flavor
                ));
            }
        }
        // The resource section: the report's own final snapshot when it
        // has one, else whatever `resource/*` gauges a profiler published
        // into the metrics snapshot.
        let resources = self
            .resources
            .clone()
            .or_else(|| crate::profile::ResourceReport::from_metrics(&self.metrics));
        if let Some(resources) = resources.filter(|r| !r.is_empty()) {
            out.push_str("\n== resources ==\n");
            out.push_str(&resources.render());
        }
        // When the metrics carry per-peer traffic counters (a cluster
        // run's `comm/bytes/{src}->{dst}` names), render them as a matrix
        // heatmap and roll the per-rank comm histograms up into one table.
        let peers: Vec<(usize, usize, u64)> = self
            .metrics
            .counters
            .iter()
            .filter_map(|(k, v)| {
                crate::cluster_report::parse_peer_counter(k, "comm/bytes/").map(|(s, d)| (s, d, *v))
            })
            .collect();
        if !peers.is_empty() {
            let nodes = peers.iter().map(|&(s, d, _)| s.max(d) + 1).max().unwrap();
            let mut matrix = vec![vec![0u64; nodes]; nodes];
            for (s, d, v) in peers {
                matrix[s][d] = matrix[s][d].max(v);
            }
            out.push_str("\n== traffic ==\n");
            out.push_str(&crate::cluster_report::render_traffic_matrix(&matrix));
            let mut rollup = String::new();
            for rank in 0..nodes {
                let mut cells = Vec::new();
                for op in [
                    "send",
                    "recv_wait",
                    "barrier",
                    "broadcast",
                    "allgather",
                    "alltoallv",
                ] {
                    if let Some(h) = self.metrics.histogram(&format!("comm/{op}_ns/r{rank}")) {
                        if h.count > 0 {
                            cells.push(format!(
                                "{op} n={} total={}",
                                h.count,
                                crate::cluster_report::fmt_dur_ns(h.sum)
                            ));
                        }
                    }
                }
                if !cells.is_empty() {
                    rollup.push_str(&format!("  r{rank}: {}\n", cells.join(", ")));
                }
            }
            if !rollup.is_empty() {
                out.push_str("per-rank comm time:\n");
                out.push_str(&rollup);
            }
        }
        if !self.metrics.is_empty() {
            // Group by the metric name's first path segment so each layer
            // (core, comm, disk, …) renders as its own section.
            let group_of = |name: &str| name.split('/').next().unwrap_or(name).to_string();
            let mut groups: Vec<String> = self
                .metrics
                .counters
                .iter()
                .map(|(k, _)| group_of(k))
                .chain(self.metrics.gauges.iter().map(|(k, _)| group_of(k)))
                .chain(self.metrics.histograms.iter().map(|(k, _)| group_of(k)))
                .collect();
            groups.sort();
            groups.dedup();
            for g in groups {
                out.push_str(&format!("\n== metrics: {g} ==\n"));
                for (k, v) in self
                    .metrics
                    .counters
                    .iter()
                    .filter(|(k, _)| group_of(k) == g)
                {
                    out.push_str(&format!("{k} = {v}\n"));
                }
                for (k, gauge) in self.metrics.gauges.iter().filter(|(k, _)| group_of(k) == g) {
                    out.push_str(&format!("{k} = {} (peak {})\n", gauge.value, gauge.peak));
                }
                for (k, h) in self
                    .metrics
                    .histograms
                    .iter()
                    .filter(|(k, _)| group_of(k) == g)
                {
                    out.push_str(&format!(
                        "{k}: n={} mean={:.0} p50<={} p99<={} max={}\n",
                        h.count,
                        h.mean(),
                        h.percentile(0.5),
                        h.percentile(0.99),
                        h.max
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(wall_ms: u64, acc_ms: u64, conv_ms: u64) -> StageStats {
        StageStats {
            name: "s".into(),
            wall: Duration::from_millis(wall_ms),
            blocked_accept: Duration::from_millis(acc_ms),
            blocked_convey: Duration::from_millis(conv_ms),
            buffers_in: 1,
            buffers_out: 1,
            ..StageStats::default()
        }
    }

    #[test]
    fn busy_subtracts_blocking() {
        let s = stats(100, 30, 20);
        assert_eq!(s.busy(), Duration::from_millis(50));
        assert!((s.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_saturates_at_zero() {
        let s = stats(10, 30, 20);
        assert_eq!(s.busy(), Duration::ZERO);
    }

    #[test]
    fn report_lookup_and_overlap() {
        let report = Report {
            wall: Duration::from_millis(100),
            stages: vec![
                StageStats {
                    name: "read".into(),
                    ..stats(100, 0, 0)
                },
                StageStats {
                    name: "write".into(),
                    ..stats(100, 50, 0)
                },
            ],
            threads_spawned: 2,
            ..Report::default()
        };
        assert!(report.stage("read").is_some());
        assert!(report.stage("nope").is_none());
        assert_eq!(report.total_busy(), Duration::from_millis(150));
        assert!((report.overlap_factor() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_edge_cases() {
        let s = stats(0, 0, 0);
        assert_eq!(s.utilization(), 0.0);
        let r = Report::default();
        assert_eq!(r.overlap_factor(), 0.0);
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_contains_all_stages_and_header() {
        let report = Report {
            wall: Duration::from_millis(250),
            stages: vec![
                StageStats {
                    name: "reader".into(),
                    wall: Duration::from_millis(250),
                    blocked_accept: Duration::from_millis(50),
                    blocked_convey: Duration::from_millis(25),
                    buffers_in: 10,
                    buffers_out: 10,
                    ..StageStats::default()
                },
                StageStats {
                    name: "a-much-longer-stage-name".into(),
                    wall: Duration::from_millis(250),
                    blocked_accept: Duration::ZERO,
                    blocked_convey: Duration::ZERO,
                    buffers_in: 10,
                    buffers_out: 10,
                    ..StageStats::default()
                },
            ],
            threads_spawned: 4,
            ..Report::default()
        };
        let text = report.render();
        assert!(text.contains("reader"));
        assert!(text.contains("a-much-longer-stage-name"));
        assert!(text.contains("overlap factor"));
        assert!(text.contains("busy ms"));
        // All rows align: every line has the same field count layout; just
        // sanity-check line count = header + 2 stages + summary.
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn render_empty_report() {
        let text = Report::default().render();
        assert!(text.contains("0 threads"));
        assert_eq!(text.lines().count(), 2);
    }

    fn gantt_report() -> Report {
        Report {
            wall: Duration::from_nanos(1_000),
            stages: vec![
                StageStats {
                    name: "traced".into(),
                    wall: Duration::from_nanos(1_000),
                    buffers_in: 1,
                    buffers_out: 1,
                    spans: vec![Span {
                        kind: SpanKind::Accept,
                        start_ns: 900,
                        end_ns: 1_000, // ends exactly at wall
                    }],
                    ..StageStats::default()
                },
                StageStats {
                    name: "untraced".into(),
                    wall: Duration::from_nanos(1_000),
                    blocked_accept: Duration::from_nanos(500),
                    buffers_in: 1,
                    buffers_out: 1,
                    ..StageStats::default()
                },
            ],
            threads_spawned: 2,
            ..Report::default()
        }
    }

    #[test]
    fn gantt_clamps_span_ending_at_wall_into_last_bucket() {
        let text = gantt_report().render_gantt(10);
        let traced = text.lines().find(|l| l.starts_with("traced")).unwrap();
        // The 900..1000ns accept span must fill exactly the last bucket and
        // not be lost to an out-of-range index.
        assert!(traced.ends_with("#########."), "row was {traced:?}");
    }

    #[test]
    fn gantt_rows_align_between_traced_and_untraced_stages() {
        let text = gantt_report().render_gantt(10);
        let bars: Vec<usize> = text
            .lines()
            .skip(1) // header
            .map(|l| {
                l.char_indices()
                    .rev()
                    .take(10)
                    .last()
                    .map(|(i, _)| i)
                    .unwrap()
            })
            .collect();
        // Every bar (the last 10 chars of each row) starts at the same
        // column regardless of the `~` approximate marker.
        assert_eq!(bars.len(), 2);
        assert_eq!(bars[0], bars[1], "bars misaligned in:\n{text}");
        // The untraced row is flagged, the traced row is not.
        assert!(text.lines().any(|l| l.contains(" ~")));
    }

    #[test]
    fn gantt_survives_long_runs_without_overflow() {
        // 4 hours in ns * width 100 overflows u64; the u128 bucket math
        // must keep the row correct.
        let four_hours_ns = 4 * 3600 * 1_000_000_000u64;
        let report = Report {
            wall: Duration::from_nanos(four_hours_ns),
            stages: vec![StageStats {
                name: "s".into(),
                wall: Duration::from_nanos(four_hours_ns),
                spans: vec![Span {
                    kind: SpanKind::Convey,
                    start_ns: four_hours_ns / 2,
                    end_ns: four_hours_ns,
                }],
                ..StageStats::default()
            }],
            threads_spawned: 1,
            ..Report::default()
        };
        let text = report.render_gantt(100);
        let row = text.lines().nth(1).unwrap();
        let bar: String = row.chars().rev().take(100).collect();
        assert_eq!(bar.chars().filter(|&c| c == 'o').count(), 50);
    }

    #[test]
    fn dashboard_sections_render() {
        let mut report = gantt_report();
        report.queues.push(QueueDepth {
            name: "p[1]".into(),
            capacity: 4,
            max_depth: 3,
            spsc: true,
            flavor: "spsc".into(),
        });
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter("core/accepts").add(7);
        reg.histogram("disk/read_ns").record(1_000);
        reg.gauge("comm/inflight").set(2);
        report.metrics = reg.snapshot();
        let text = report.render_dashboard();
        for section in [
            "== stages ==",
            "== gantt ==",
            "== queues ==",
            "== metrics: core ==",
            "== metrics: disk ==",
            "== metrics: comm ==",
        ] {
            assert!(text.contains(section), "missing {section} in:\n{text}");
        }
        assert!(text.contains("core/accepts = 7"));
        assert!(text.contains("p[1]"));
        // No per-peer counters -> no traffic section.
        assert!(!text.contains("== traffic =="));
    }

    #[test]
    fn dashboard_renders_traffic_matrix_from_peer_counters() {
        let mut report = gantt_report();
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter("comm/bytes/0->1").add(4096);
        reg.counter("comm/bytes/1->0").add(1024);
        reg.histogram("comm/send_ns/r0").record(2_000_000);
        reg.histogram("comm/barrier_ns/r1").record(500_000);
        report.metrics = reg.snapshot();
        let text = report.render_dashboard();
        assert!(text.contains("== traffic =="), "missing section:\n{text}");
        assert!(text.contains("traffic matrix"), "missing matrix:\n{text}");
        assert!(text.contains("4.0K"), "missing cell:\n{text}");
        assert!(
            text.contains("per-rank comm time:"),
            "missing rollup:\n{text}"
        );
        assert!(text.contains("r0: send n=1"), "missing r0 row:\n{text}");
        assert!(text.contains("r1: barrier n=1"), "missing r1 row:\n{text}");
    }
}
