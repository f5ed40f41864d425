//! Critical-path reconstruction from flight-recorder span logs.
//!
//! The flight recorder ([`crate::trace`]) gives every traced buffer a
//! per-round causal id and logs a [`SpanRec`] for each transition the
//! buffer makes — the first stage's inject, each later stage's accept, a
//! stage's own work, the convey, the last stage's recycle.
//! [`critical_path`] inverts that log: it
//! regroups spans by trace id to rebuild each buffer's **round timeline**
//! across threads, then attributes the round's end-to-end latency to the
//! stages on it with a priority sweep: every instant of the round is
//! credited to exactly one covering span, and *active* spans (work,
//! convey, recycle) always outrank *wait* spans (inject, accept,
//! turnstile) — a consumer's blocked accept overlaps the producer's work
//! on the very buffer it is waiting for, and the work is where the time
//! really went.  Within a class the earlier span wins, so nested
//! overlaps (a turnstile wait inside a convey, say) are never
//! double-counted.
//!
//! The result answers the question averages cannot: not "which stage was
//! busiest over the run" but "which stage's spans sit on the longest
//! buffer journeys, and in which concrete rounds".
//! [`diagnose_with_trace`](crate::analyze::diagnose_with_trace) folds the
//! answer into the bottleneck diagnosis so its verdicts cite rounds.
//!
//! Spans with `trace_id == 0` (caboose handling, untraced I/O) and spans
//! on the [`IO_PIPELINE`] sentinel are not part of any buffer's journey
//! and are skipped.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::trace::{SpanRec, ThreadLog, TraceKind, IO_PIPELINE};

/// One span on a round's timeline, with its non-overlapped contribution
/// to the round's end-to-end latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Task name of the thread that recorded the span (`read`, `sort#1`,
    /// …).
    pub stage: String,
    /// What happened.
    pub kind: TraceKind,
    /// Span start, nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// Span end, nanoseconds since the sink's epoch.
    pub end_ns: u64,
    /// The part of `[start_ns, end_ns]` this segment won in the round's
    /// priority sweep — its share of the round's critical path.  Active
    /// spans outrank blocked waits wherever they overlap.
    pub contribution_ns: u64,
}

/// One buffer's reconstructed journey: every span that carried its trace
/// id, in timeline order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPath {
    /// Pipeline the buffer belongs to.
    pub pipeline: u32,
    /// Round the pipeline's first stage began with it.
    pub round: u64,
    /// The causal id stitching the segments together.
    pub trace_id: u64,
    /// Earliest segment start (normally the first stage's inject).
    pub start_ns: u64,
    /// Latest segment end (normally the last stage's recycle).
    pub end_ns: u64,
    /// Segments in timeline order (by start, then end).
    pub segments: Vec<PathSegment>,
}

impl RoundPath {
    /// End-to-end latency of this round's buffer.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Nanoseconds of this round not covered by any span: the buffer sat
    /// in a queue while its next stage was off working on another round.
    pub fn queued_ns(&self) -> u64 {
        self.dur_ns()
            .saturating_sub(self.segments.iter().map(|s| s.contribution_ns).sum())
    }

    /// The stage contributing the most non-overlapped time to this round,
    /// with its total contribution.  Ties keep the earlier stage.
    pub fn dominant(&self) -> Option<(&str, u64)> {
        let mut totals: Vec<(&str, u64)> = Vec::new();
        for seg in &self.segments {
            match totals.iter_mut().find(|(name, _)| *name == seg.stage) {
                Some((_, t)) => *t += seg.contribution_ns,
                None => totals.push((&seg.stage, seg.contribution_ns)),
            }
        }
        totals
            .into_iter()
            .reduce(|best, cur| if cur.1 > best.1 { cur } else { best })
    }
}

/// The program-wide critical-path reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Every reconstructed round, ordered by `(pipeline, round)`.
    pub rounds: Vec<RoundPath>,
    /// Per-stage contribution summed across all rounds, largest first.
    pub stage_totals: Vec<(String, u64)>,
    /// Sum of all rounds' end-to-end latencies (rounds overlap in wall
    /// time, so this is path time, not wall time).
    pub total_ns: u64,
}

impl CriticalPath {
    /// The stage carrying the most path time overall.
    pub fn dominant_stage(&self) -> Option<&str> {
        self.stage_totals.first().map(|(name, _)| name.as_str())
    }

    /// The round with the longest end-to-end latency.
    pub fn slowest_round(&self) -> Option<&RoundPath> {
        self.rounds.iter().reduce(|best, cur| {
            if cur.dur_ns() > best.dur_ns() {
                cur
            } else {
                best
            }
        })
    }

    /// Total contribution of one `(stage, kind)` pair across all rounds —
    /// e.g. how much of the path is `sort`'s `Work` spans.
    pub fn kind_total(&self, stage: &str, kind: TraceKind) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| &r.segments)
            .filter(|s| s.stage == stage && s.kind == kind)
            .map(|s| s.contribution_ns)
            .sum()
    }

    /// Render as text: stage totals, then the slowest round's timeline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== critical path ==\n");
        if self.rounds.is_empty() {
            out.push_str("no traced rounds\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{} traced rounds, {:.3} ms of path time",
            self.rounds.len(),
            self.total_ns as f64 / 1e6
        );
        let name_w = self
            .stage_totals
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(5)
            .max(5);
        for (name, ns) in &self.stage_totals {
            let pct = if self.total_ns == 0 {
                0.0
            } else {
                *ns as f64 / self.total_ns as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "{name:<name_w$} {:>10.3} ms {pct:>5.1}%",
                *ns as f64 / 1e6
            );
        }
        if let Some(slow) = self.slowest_round() {
            let _ = writeln!(
                out,
                "slowest round: pipeline#{} round {} (trace id {}): {:.3} ms ({:.3} ms queued)",
                slow.pipeline,
                slow.round,
                slow.trace_id,
                slow.dur_ns() as f64 / 1e6,
                slow.queued_ns() as f64 / 1e6
            );
            for seg in &slow.segments {
                let _ = writeln!(
                    out,
                    "  {:<name_w$} {:<12} +{:>10.3} ms (at {:.3}..{:.3} ms)",
                    seg.stage,
                    seg.kind.label(),
                    seg.contribution_ns as f64 / 1e6,
                    seg.start_ns as f64 / 1e6,
                    seg.end_ns as f64 / 1e6
                );
            }
        }
        out
    }
}

/// Rebuild every traced buffer's round timeline from the per-thread span
/// logs and attribute each round's latency to the stages on it.
///
/// `logs` is what [`TraceSink::collect`](crate::trace::TraceSink::collect)
/// returns (or a hand-built log in tests).  Because each ring is bounded
/// and overwrites its oldest records, very long runs keep only the most
/// recent rounds — exactly the ones a post-mortem cares about.
pub fn critical_path(logs: &[ThreadLog]) -> CriticalPath {
    let mut by_id: HashMap<u64, Vec<(usize, SpanRec)>> = HashMap::new();
    for (i, log) in logs.iter().enumerate() {
        for s in &log.spans {
            if s.trace_id == 0 || s.pipeline == IO_PIPELINE {
                continue;
            }
            by_id.entry(s.trace_id).or_default().push((i, *s));
        }
    }

    // Wait spans measure a thread being blocked; whatever overlaps them
    // (typically the upstream stage's work on this very buffer) is where
    // the time actually went.
    let is_wait = |k: TraceKind| {
        matches!(
            k,
            TraceKind::SourceInject | TraceKind::Accept | TraceKind::TurnWait
        )
    };

    let mut rounds: Vec<RoundPath> = Vec::with_capacity(by_id.len());
    for (trace_id, mut spans) in by_id {
        spans.sort_by_key(|(_, s)| (s.start_ns, s.end_ns));
        let start_ns = spans[0].1.start_ns;
        let (pipeline, round) = (spans[0].1.pipeline, spans[0].1.round);
        let end_ns = spans
            .iter()
            .map(|(_, s)| s.end_ns)
            .max()
            .unwrap_or(start_ns);

        // Priority sweep: split the round into elementary intervals at
        // every span boundary and credit each interval to its best cover
        // (active beats wait; within a class, sorted order — earlier
        // start — wins).  Groups are a handful of spans, so the quadratic
        // scan is cheap.
        let mut bounds: Vec<u64> = spans
            .iter()
            .flat_map(|(_, s)| [s.start_ns, s.end_ns])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut contrib = vec![0u64; spans.len()];
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let covering = |&(_, s): &&(usize, SpanRec)| s.start_ns <= lo && s.end_ns >= hi;
            let winner = spans
                .iter()
                .position(|p| !is_wait(p.1.kind) && covering(&p))
                .or_else(|| spans.iter().position(|p| covering(&p)));
            if let Some(k) = winner {
                contrib[k] += hi - lo;
            }
        }

        let segments = spans
            .iter()
            .zip(&contrib)
            .map(|((i, s), c)| PathSegment {
                stage: logs[*i].task().to_string(),
                kind: s.kind,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                contribution_ns: *c,
            })
            .collect();
        rounds.push(RoundPath {
            pipeline,
            round,
            trace_id,
            start_ns,
            end_ns,
            segments,
        });
    }
    rounds.sort_by_key(|r| (r.pipeline, r.round, r.trace_id));

    let mut totals: HashMap<&str, u64> = HashMap::new();
    for r in &rounds {
        for seg in &r.segments {
            *totals.entry(&seg.stage).or_default() += seg.contribution_ns;
        }
    }
    let mut stage_totals: Vec<(String, u64)> = totals
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns))
        .collect();
    stage_totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let total_ns = rounds.iter().map(|r| r.dur_ns()).sum();

    CriticalPath {
        rounds,
        stage_totals,
        total_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(thread: &str, spans: Vec<SpanRec>) -> ThreadLog {
        ThreadLog {
            thread: thread.to_string(),
            spans,
        }
    }

    fn span(
        kind: TraceKind,
        pipeline: u32,
        round: u64,
        trace_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRec {
        SpanRec {
            kind,
            pipeline,
            round,
            trace_id,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn empty_logs_yield_empty_path() {
        let cp = critical_path(&[]);
        assert!(cp.rounds.is_empty());
        assert_eq!(cp.dominant_stage(), None);
        assert!(cp.render().contains("no traced rounds"));
    }

    #[test]
    fn untraced_and_io_spans_are_skipped() {
        let logs = vec![log(
            "p/read",
            vec![
                span(TraceKind::Accept, 0, 0, 0, 0, 10),
                span(TraceKind::PrefetchMiss, IO_PIPELINE, 3, 5, 0, 10),
            ],
        )];
        assert!(critical_path(&logs).rounds.is_empty());
    }

    #[test]
    fn overlapping_spans_are_not_double_counted() {
        // A convey (100..200) with a turnstile wait inside it (120..180):
        // the round's path is 100ns, not 180ns.
        let logs = vec![log(
            "p/emit",
            vec![
                span(TraceKind::Convey, 0, 0, 1, 100, 200),
                span(TraceKind::TurnWait, 0, 0, 1, 120, 180),
            ],
        )];
        let cp = critical_path(&logs);
        assert_eq!(cp.rounds.len(), 1);
        let r = &cp.rounds[0];
        assert_eq!(r.dur_ns(), 100);
        // Segments are timeline-ordered; the nested wait contributes 0.
        assert_eq!(r.segments[0].kind, TraceKind::Convey);
        assert_eq!(r.segments[0].contribution_ns, 100);
        assert_eq!(r.segments[1].contribution_ns, 0);
        assert_eq!(cp.total_ns, 100);
    }

    #[test]
    fn gap_between_spans_counts_as_queued_time() {
        // convey ends at 200, downstream accept only starts at 350: the
        // buffer sat queued for 150ns while the consumer chewed on an
        // earlier round.
        let logs = vec![
            log("p/up", vec![span(TraceKind::Convey, 0, 4, 9, 100, 200)]),
            log("p/down", vec![span(TraceKind::Accept, 0, 4, 9, 350, 400)]),
        ];
        let cp = critical_path(&logs);
        let r = &cp.rounds[0];
        assert_eq!(r.dur_ns(), 300);
        assert_eq!(r.queued_ns(), 150);
    }

    /// A 3-stage pipeline whose middle stage is deliberately slow.  Two
    /// rounds, hand-built with realistic inject → work → convey → accept
    /// → … → recycle timelines: `read` begins each round and `write`
    /// returns its buffer to the pool.
    fn slow_middle_logs() -> Vec<ThreadLog> {
        let mut read = Vec::new();
        let mut slow = Vec::new();
        let mut write = Vec::new();
        for round in 0..2u64 {
            let tid = round + 1;
            let t = round * 10_000; // rounds pipeline 10µs apart
            read.push(span(TraceKind::SourceInject, 0, round, tid, t, t + 200));
            read.push(span(TraceKind::Work, 0, round, tid, t + 200, t + 700));
            read.push(span(TraceKind::Convey, 0, round, tid, t + 700, t + 800));
            slow.push(span(TraceKind::Accept, 0, round, tid, t + 800, t + 900));
            // The middle stage's own computation dominates the round.
            slow.push(span(TraceKind::Work, 0, round, tid, t + 900, t + 7_900));
            slow.push(span(TraceKind::Convey, 0, round, tid, t + 7_900, t + 8_000));
            write.push(span(TraceKind::Accept, 0, round, tid, t + 8_000, t + 8_100));
            write.push(span(TraceKind::Work, 0, round, tid, t + 8_100, t + 8_600));
            write.push(span(
                TraceKind::Recycle,
                0,
                round,
                tid,
                t + 8_600,
                t + 8_700,
            ));
        }
        vec![
            log("p/read", read),
            log("p/slow", slow),
            log("p/write", write),
        ]
    }

    #[test]
    fn slow_middle_stage_dominates_the_critical_path() {
        let cp = critical_path(&slow_middle_logs());
        assert_eq!(cp.rounds.len(), 2);
        for (i, r) in cp.rounds.iter().enumerate() {
            assert_eq!(r.round, i as u64);
            assert_eq!(r.dur_ns(), 8_700);
            // The journey starts at the first stage's inject and ends at
            // the last stage's recycle.
            assert_eq!(r.segments[0].kind, TraceKind::SourceInject);
            assert_eq!(r.segments[0].stage, "read");
            let last = r.segments.last().unwrap();
            assert_eq!(
                (last.stage.as_str(), last.kind),
                ("write", TraceKind::Recycle)
            );
            assert_eq!(r.queued_ns(), 0);
            let (stage, ns) = r.dominant().unwrap();
            assert_eq!(stage, "slow");
            assert_eq!(ns, 7_200); // accept 100 + work 7000 + convey 100
        }
        assert_eq!(cp.dominant_stage(), Some("slow"));
        assert_eq!(cp.total_ns, 17_400);
        // Specifically the *work* spans carry the path, not its queue ops.
        assert_eq!(cp.kind_total("slow", TraceKind::Work), 14_000);
        assert!(cp.kind_total("slow", TraceKind::Work) > cp.total_ns / 2);
        assert_eq!(cp.kind_total("read", TraceKind::Work), 1_000);
        // stage_totals is sorted: `slow` first.
        assert_eq!(cp.stage_totals[0].0, "slow");
        let text = cp.render();
        assert!(text.contains("2 traced rounds"));
        assert!(text.contains("slowest round: pipeline#0 round"));
        assert!(text.contains("slow"));
    }

    #[test]
    fn slowest_round_names_the_concrete_round() {
        let mut logs = slow_middle_logs();
        // Stretch round 1's middle work by 5µs: it becomes the slowest.
        for s in &mut logs[1].spans {
            if s.round == 1 && s.kind == TraceKind::Work {
                s.end_ns += 5_000;
            }
        }
        // Shift the rest of round 1 later so the timeline stays ordered.
        for l in logs.iter_mut() {
            for s in &mut l.spans {
                if s.round == 1 && s.start_ns >= 17_900 {
                    s.start_ns += 5_000;
                    s.end_ns += 5_000;
                }
            }
        }
        let cp = critical_path(&logs);
        let slow = cp.slowest_round().unwrap();
        assert_eq!(slow.round, 1);
        assert_eq!(slow.dur_ns(), 13_700);
    }
}
