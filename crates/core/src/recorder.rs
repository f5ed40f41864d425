//! The one place a runtime thread records its transitions.
//!
//! Every stage thread (each replica of a farm included) owns a
//! [`Recorder`].  Each queue operation goes through it once, and it feeds
//! every instrument from that single call: the always-on totals behind the
//! thread's [`StageStats`] row, the optional flight-recorder ring, the
//! optional live `core/stage_*` counters, and the optional memory-ledger
//! row.  An instrument that is not attached costs one never-taken branch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::buffer::PipelineId;
use crate::metrics::{Counter, MetricsRegistry};
use crate::profile::StageLedger;
use crate::queue::Item;
use crate::stats::{Span, SpanKind, StageStats};
use crate::trace::{SpanRing, ThreadState, TraceKind};

/// Live per-stage counters, published after every accept and convey so a
/// mid-run sampler sees the stage's busy/starved profile as it evolves.
/// Deltas are tracked against already-published totals, so the final
/// counter values equal the end-of-run totals exactly.
struct LiveCounters {
    busy: Arc<Counter>,
    starved: Arc<Counter>,
    backpressured: Arc<Counter>,
    rounds: Arc<Counter>,
    pub_busy: u64,
    pub_starved: u64,
    pub_backp: u64,
}

/// A runtime thread's transition recorder (see the module docs).
pub(crate) struct Recorder {
    started: Instant,
    pub(crate) blocked_accept: Duration,
    pub(crate) blocked_convey: Duration,
    /// Time parked at a farm's admission gate — idle capacity, neither
    /// busy nor starved.
    pub(crate) parked: Duration,
    pub(crate) buffers_in: u64,
    pub(crate) buffers_out: u64,
    ring: Option<Arc<SpanRing>>,
    live: Option<LiveCounters>,
    ledger: Option<Arc<StageLedger>>,
    /// End of this thread's last recorded transition (ns since the ring's
    /// epoch); the gap to the next emit is recorded as a `Work` span.
    last_end_ns: u64,
}

impl Recorder {
    /// A recorder for the calling thread, started now.
    pub(crate) fn new(ring: Option<Arc<SpanRing>>) -> Recorder {
        let rec = Recorder {
            started: Instant::now(),
            blocked_accept: Duration::ZERO,
            blocked_convey: Duration::ZERO,
            parked: Duration::ZERO,
            buffers_in: 0,
            buffers_out: 0,
            ring,
            live: None,
            ledger: None,
            last_end_ns: 0,
        };
        rec.set_state(ThreadState::Busy);
        rec
    }

    /// Publish this thread's totals incrementally into `registry` under
    /// the `core/stage_*` prefixes with task name `name`.
    pub(crate) fn with_live(mut self, registry: &MetricsRegistry, name: &str) -> Recorder {
        use crate::analyze::{
            STAGE_BACKPRESSURED_PREFIX, STAGE_BUSY_PREFIX, STAGE_ROUNDS_PREFIX,
            STAGE_STARVED_PREFIX,
        };
        self.live = Some(LiveCounters {
            busy: registry.counter(&format!("{STAGE_BUSY_PREFIX}{name}")),
            starved: registry.counter(&format!("{STAGE_STARVED_PREFIX}{name}")),
            backpressured: registry.counter(&format!("{STAGE_BACKPRESSURED_PREFIX}{name}")),
            rounds: registry.counter(&format!("{STAGE_ROUNDS_PREFIX}{name}")),
            pub_busy: 0,
            pub_starved: 0,
            pub_backp: 0,
        });
        self
    }

    /// Charge accepted buffers to `ledger` and credit emitted ones back.
    pub(crate) fn with_ledger(mut self, ledger: Option<Arc<StageLedger>>) -> Recorder {
        self.ledger = ledger;
        self
    }

    /// Advertise what this thread is doing (for watchdog post-mortems).
    pub(crate) fn set_state(&self, state: ThreadState) {
        if let Some(ring) = &self.ring {
            ring.set_state(state);
        }
    }

    /// Run a blocking queue operation while advertising `state`, and
    /// charge the wait to starvation (`BlockedAccept`) or backpressure
    /// (any other state).  Returns the result with the wait's bounds.
    pub(crate) fn blocked<T>(
        &mut self,
        state: ThreadState,
        op: impl FnOnce() -> T,
    ) -> (T, Instant, Instant) {
        self.set_state(state);
        let t0 = Instant::now();
        let out = op();
        let t1 = Instant::now();
        if state == ThreadState::BlockedAccept {
            self.blocked_accept += t1 - t0;
        } else {
            self.blocked_convey += t1 - t0;
        }
        self.publish_live();
        (out, t0, t1)
    }

    /// Record an item popped between `t0` and `t1` as a `kind` span
    /// (`Accept`, or `SourceInject` for a round begun at a first stage): a
    /// buffer is charged to this thread, and a caboose is still progress
    /// for the watchdog.
    pub(crate) fn accepted(&mut self, item: &Item, kind: TraceKind, t0: Instant, t1: Instant) {
        let (pipeline, round, tid) = match item {
            Item::Buf(b) => {
                self.buffers_in += 1;
                if let Some(l) = &self.ledger {
                    l.acquire(b.capacity());
                }
                (b.pipeline(), b.round(), b.trace_id())
            }
            Item::Caboose(p) => (*p, 0, 0),
        };
        self.span(kind, pipeline, round, tid, t0, t1);
    }

    /// A buffer of `bytes` capacity is leaving this thread.
    pub(crate) fn released(&self, bytes: usize) {
        if let Some(l) = &self.ledger {
            l.release(bytes);
        }
    }

    /// Record the thread's own computation on a buffer about to be
    /// emitted: the gap since its last transition, as a `Work` span.
    pub(crate) fn work(&self, pipeline: PipelineId, round: u64, tid: u64) {
        if let Some(ring) = &self.ring {
            let now = ring.now_ns();
            if self.last_end_ns > 0 && now > self.last_end_ns {
                ring.record(
                    TraceKind::Work,
                    pipeline.0,
                    round,
                    tid,
                    self.last_end_ns,
                    now,
                );
            }
        }
    }

    /// Record a buffer handed on between `t0` and `t1` — conveyed
    /// downstream, or returned to its pool.  Either way its round is
    /// complete on this thread.
    pub(crate) fn emitted(
        &mut self,
        kind: TraceKind,
        pipeline: PipelineId,
        round: u64,
        tid: u64,
        t0: Instant,
        t1: Instant,
    ) {
        if let Some(l) = &self.live {
            l.rounds.inc();
        }
        self.span(kind, pipeline, round, tid, t0, t1);
    }

    /// Flight-record one transition and flip the thread back to busy.
    pub(crate) fn span(
        &mut self,
        kind: TraceKind,
        pipeline: PipelineId,
        round: u64,
        tid: u64,
        t0: Instant,
        t1: Instant,
    ) {
        if let Some(ring) = &self.ring {
            let end = ring.ns_of(t1);
            ring.record(kind, pipeline.0, round, tid, ring.ns_of(t0), end);
            ring.set_state(ThreadState::Busy);
            self.last_end_ns = end;
        }
    }

    /// Publish the delta between current totals and what was already
    /// published: a few relaxed atomic adds.
    pub(crate) fn publish_live(&mut self) {
        let Some(l) = &mut self.live else {
            return;
        };
        let wall = self.started.elapsed().as_nanos() as u64;
        let acc = self.blocked_accept.as_nanos() as u64;
        let conv = self.blocked_convey.as_nanos() as u64;
        let parked = self.parked.as_nanos() as u64;
        let busy = wall.saturating_sub(acc + conv + parked);
        if busy > l.pub_busy {
            l.busy.add(busy - l.pub_busy);
            l.pub_busy = busy;
        }
        if acc > l.pub_starved {
            l.starved.add(acc - l.pub_starved);
            l.pub_starved = acc;
        }
        if conv > l.pub_backp {
            l.backpressured.add(conv - l.pub_backp);
            l.pub_backp = conv;
        }
    }

    /// Close the recorder at thread exit: mark the thread done, converge
    /// the live counters on the exact totals, and build the thread's
    /// report row.  With `gantt` (the program's start) the row carries
    /// Gantt spans derived from the ring.
    pub(crate) fn finish(
        mut self,
        name: String,
        core: Option<usize>,
        gantt: Option<Instant>,
    ) -> StageStats {
        self.set_state(ThreadState::Done);
        self.publish_live();
        let spans = match (&self.ring, gantt) {
            (Some(ring), Some(origin)) => gantt_spans(ring, origin),
            _ => Vec::new(),
        };
        StageStats {
            name,
            core,
            wall: self.started.elapsed(),
            blocked_accept: self.blocked_accept,
            blocked_convey: self.blocked_convey,
            parked: self.parked,
            buffers_in: self.buffers_in,
            buffers_out: self.buffers_out,
            spans,
        }
    }
}

/// The ring's blocked intervals as Gantt spans, in ns since `origin`:
/// accepts (and a first stage's injects) are starvation, conveys (and
/// recycles) backpressure.  An ordered farm's `TurnWait` and the push
/// after it form one convey.
fn gantt_spans(ring: &SpanRing, origin: Instant) -> Vec<Span> {
    let origin = ring.ns_of(origin);
    let mut spans: Vec<Span> = Vec::new();
    let mut after_turn = false;
    for r in ring.snapshot() {
        let kind = match r.kind {
            TraceKind::Accept | TraceKind::SourceInject => SpanKind::Accept,
            TraceKind::Convey | TraceKind::Recycle | TraceKind::TurnWait => SpanKind::Convey,
            _ => {
                after_turn = false;
                continue;
            }
        };
        let span = Span {
            kind,
            start_ns: r.start_ns.saturating_sub(origin),
            end_ns: r.end_ns.saturating_sub(origin),
        };
        match spans.last_mut() {
            Some(last) if after_turn && kind == SpanKind::Convey => last.end_ns = span.end_ns,
            // A batched accept records each buffer over the same pop.
            Some(last) if *last == span => {}
            _ => spans.push(span),
        }
        after_turn = r.kind == TraceKind::TurnWait;
    }
    spans
}
