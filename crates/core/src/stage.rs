//! Stages and the context through which they accept and convey buffers.
//!
//! The programmer writes a *synchronous* stage — a plain function or a
//! [`Stage`] implementation whose `run` method loops accepting buffers,
//! working on them, and conveying them downstream.  FG runs every stage in
//! its own thread, so stages execute asynchronously and a stage blocked on a
//! high-latency operation (or on an empty queue) yields the CPU to the other
//! stages (the paper, §II).
//!
//! Three accept flavors mirror the paper's three pipeline shapes:
//!
//! * [`StageCtx::accept`] — the stage belongs to exactly one pipeline
//!   (ordinary linear pipelines, §II).
//! * [`StageCtx::accept_from`] — the stage is a *common stage* of several
//!   intersecting pipelines and must name the pipeline to accept from (§IV:
//!   "because the common stage has multiple predecessors, in order to accept
//!   a buffer, it must specify which pipeline to accept from").
//! * [`StageCtx::accept_any`] — the stage is *virtual*: many identical
//!   stages share one thread and one input queue, and buffers from any of
//!   the member pipelines arrive interleaved (§IV, Figure 5(b)).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::buffer::{Buffer, PipelineId};
use crate::error::{FgError, Result};
use crate::queue::{Item, Queue};
use crate::recorder::Recorder;
use crate::trace::{ThreadState, TraceKind};

/// How many rounds a pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounds {
    /// The first stage begins exactly this many rounds, then the caboose
    /// follows the last.
    Count(u64),
    /// The first stage keeps beginning rounds with recycled buffers until
    /// some stage calls [`StageCtx::stop`] for this pipeline (used when the
    /// stream length is known only dynamically, e.g. a receive pipeline).
    UntilStopped,
}

/// A pipeline stage.
///
/// `run` is called exactly once, on the stage's own thread.  It should loop
/// accepting buffers until the stream ends (accept returns `Ok(None)`), then
/// return.  Returning early is allowed: the runtime stops `UntilStopped`
/// pipelines the stage belongs to, drains its inputs, and propagates the
/// caboose downstream.
pub trait Stage: Send {
    /// Execute the stage to completion.
    fn run(&mut self, ctx: &mut StageCtx) -> Result<()>;
}

impl<F> Stage for F
where
    F: FnMut(&mut StageCtx) -> Result<()> + Send,
{
    fn run(&mut self, ctx: &mut StageCtx) -> Result<()> {
        self(ctx)
    }
}

/// A per-buffer stage: the classic FG programming model.
///
/// The runtime loops `accept → f(buffer, ctx) → convey` until the stream
/// ends.  Works unchanged for ordinary and virtual stages (it uses
/// [`StageCtx::accept_auto`]).
pub struct MapStage<F> {
    f: F,
}

impl<F> Stage for MapStage<F>
where
    F: FnMut(&mut Buffer, &mut StageCtx) -> Result<()> + Send,
{
    fn run(&mut self, ctx: &mut StageCtx) -> Result<()> {
        while let Some(mut buf) = ctx.accept_auto()? {
            (self.f)(&mut buf, ctx)?;
            ctx.convey(buf)?;
        }
        Ok(())
    }
}

/// Build a boxed per-buffer stage from a closure.
///
/// ```
/// use fg_core::{map_stage, Buffer, StageCtx};
/// let double = map_stage(|buf: &mut Buffer, _ctx: &mut StageCtx| {
///     for b in buf.filled_mut() {
///         *b = b.wrapping_mul(2);
///     }
///     Ok(())
/// });
/// # let _ = double;
/// ```
pub fn map_stage<F>(f: F) -> Box<dyn Stage>
where
    F: FnMut(&mut Buffer, &mut StageCtx) -> Result<()> + Send + 'static,
{
    Box::new(MapStage { f })
}

/// A stage that restores round order downstream of a *replicated* stage.
///
/// Replicas finish buffers out of order; this stage stashes early arrivals
/// and conveys rounds `0, 1, 2, ...` in order (FG's join).  It requires
/// every round to arrive exactly once (replicated map stages guarantee
/// that), and its pipeline needs enough buffers for the stash — at least
/// the replica count.
pub fn reorder_stage() -> Box<dyn Stage> {
    let mut stash: std::collections::HashMap<u64, Buffer> = std::collections::HashMap::new();
    let mut next = 0u64;
    Box::new(move |ctx: &mut StageCtx| loop {
        match ctx.accept()? {
            Some(buf) => {
                stash.insert(buf.round(), buf);
                while let Some(b) = stash.remove(&next) {
                    ctx.convey(b)?;
                    next += 1;
                }
            }
            None => {
                if !stash.is_empty() {
                    return Err(FgError::Usage(format!(
                        "reorder stage ended with {} stashed rounds \
                         (round {} never arrived)",
                        stash.len(),
                        next
                    )));
                }
                return Ok(());
            }
        }
    })
}

/// Shared shutdown machinery: set once a stage fails, and closes every queue
/// in the program so all threads unblock.
pub(crate) struct Registry {
    queues: parking_lot::Mutex<Vec<Arc<Queue>>>,
    /// Replica groups whose ordered-emission waiters must be woken on
    /// cancel (they park on the group's condvar, not on a queue).
    groups: parking_lot::Mutex<Vec<Arc<ReplicaGroup>>>,
    cancelled: AtomicBool,
    error: parking_lot::Mutex<Option<FgError>>,
}

impl Registry {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Registry {
            queues: parking_lot::Mutex::new(Vec::new()),
            groups: parking_lot::Mutex::new(Vec::new()),
            cancelled: AtomicBool::new(false),
            error: parking_lot::Mutex::new(None),
        })
    }

    pub(crate) fn register(&self, q: Arc<Queue>) {
        self.queues.lock().push(q);
    }

    pub(crate) fn register_group(&self, g: Arc<ReplicaGroup>) {
        self.groups.lock().push(g);
    }

    /// Record the root-cause error (first wins) and tear everything down.
    pub(crate) fn cancel(&self, err: FgError) {
        {
            let mut slot = self.error.lock();
            if slot.is_none() && !err.is_cancelled() {
                *slot = Some(err);
            }
        }
        self.cancelled.store(true, Ordering::SeqCst);
        for q in self.queues.lock().iter() {
            q.close();
        }
        for g in self.groups.lock().iter() {
            g.cancel_wake();
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    pub(crate) fn take_error(&self) -> Option<FgError> {
        self.error.lock().take()
    }

    /// Depth statistics of every queue the program created, for the final
    /// [`Report`](crate::Report).
    pub(crate) fn queue_depths(&self) -> Vec<crate::stats::QueueDepth> {
        self.queues
            .lock()
            .iter()
            .map(|q| crate::stats::QueueDepth {
                name: q.name().to_string(),
                capacity: q.capacity(),
                max_depth: q.max_depth(),
                spsc: q.is_spsc(),
                flavor: q.flavor_label().to_string(),
            })
            .collect()
    }

    /// Live (approximate) depth of every queue, for watchdog post-mortems.
    pub(crate) fn live_queue_depths(&self) -> Vec<crate::trace::QueuePostmortem> {
        self.queues
            .lock()
            .iter()
            .map(|q| crate::trace::QueuePostmortem {
                queue: q.name().to_string(),
                depth: q.depth(),
                capacity: q.capacity(),
            })
            .collect()
    }

    /// Every ordered farm's turnstile position, for watchdog post-mortems.
    pub(crate) fn turnstiles(&self) -> Vec<crate::trace::TurnstilePostmortem> {
        self.groups
            .lock()
            .iter()
            .flat_map(|g| {
                let group = g.name().to_string();
                g.turnstile_positions()
                    .into_iter()
                    .map(move |(p, next_round)| crate::trace::TurnstilePostmortem {
                        group: group.clone(),
                        pipeline: p.0,
                        next_round,
                    })
            })
            .collect()
    }
}

/// What a pipeline's first stage makes of a buffer popped from the pool.
pub(crate) enum Admit {
    /// The buffer begins a new round; `last` when it is the final round
    /// of a [`Rounds::Count`] pipeline.
    Round { buf: Buffer, last: bool },
    /// The pool shrank by this buffer: pop again.
    Shrunk,
    /// The pipeline's rounds are spent or it was stopped: the buffer is
    /// released and stands for the caboose.
    End,
}

/// A pipeline's source, folded into its first stage (FG's implicit
/// source, §II), and shared by every stage of the pipeline.  The
/// pipeline's buffer pool lives in the first stage's input queue: the last
/// stage's convey and every stage's discard land there, and the first
/// stage's accept turns each free buffer it pops into the next round
/// (replicas of a farm at position 0 share the count).  Any stage may stop
/// the pipeline.
pub(crate) struct Injector {
    pipeline: PipelineId,
    pub(crate) rounds: Rounds,
    /// The pool: the first stage's input queue.
    pub(crate) pool_queue: Arc<Queue>,
    stopped: AtomicBool,
    buffer_size: usize,
    /// Live pool handle when a controller may resize this pool.
    pool: Option<Arc<crate::controller::PoolControl>>,
    /// Charged as pool buffers are born and credited as they retire.
    ledger: Option<Arc<crate::profile::MemoryLedger>>,
    /// The program's effective trace sink: each round gets a fresh id.
    trace: Option<Arc<crate::trace::TraceSink>>,
    /// Rounds begun so far.
    begun: AtomicU64,
}

impl Injector {
    /// The source of pipeline `pipeline`, declared by `spec`, with its pool
    /// queue seeded with the pipeline's buffers.
    pub(crate) fn seeded(
        pipeline: PipelineId,
        spec: &crate::program::PipeSpec,
        pool_queue: Arc<Queue>,
        pool: Option<Arc<crate::controller::PoolControl>>,
        ledger: Option<Arc<crate::profile::MemoryLedger>>,
        trace: Option<Arc<crate::trace::TraceSink>>,
    ) -> Arc<Self> {
        let inj = Injector {
            pipeline,
            rounds: spec.rounds,
            pool_queue,
            stopped: AtomicBool::new(false),
            buffer_size: spec.buffer_size,
            pool,
            ledger,
            trace,
            begun: AtomicU64::new(0),
        };
        for _ in 0..spec.buffers {
            inj.add_buffer();
        }
        Arc::new(inj)
    }

    /// Put one fresh buffer into the pool.
    fn add_buffer(&self) {
        if let Some(l) = &self.ledger {
            l.charge_pool(self.buffer_size as u64);
        }
        // Sized for the pool ceiling: a push can only fail on teardown.
        let _ = self
            .pool_queue
            .try_push(Item::Buf(Buffer::new(self.buffer_size, self.pipeline)));
    }

    /// Begin no further rounds.  The caboose dropped into the pool wakes a
    /// first stage waiting for a free buffer.  Idempotent.
    pub(crate) fn stop(&self) {
        if !self.stopped.swap(true, Ordering::SeqCst) {
            // Pool queues hold the pool ceiling plus two items, so this
            // never finds the queue full; if it ever did, every queued
            // buffer already stands for the caboose.
            let _ = self.pool_queue.try_push(Item::Caboose(self.pipeline));
        }
    }

    /// Turn a buffer popped from the pool into the next round, the
    /// caboose, or a retired buffer (see [`Admit`]).  Pool resizes land
    /// here, at a round boundary, so no buffer a stage holds is touched.
    pub(crate) fn admit(&self, mut buf: Buffer) -> Admit {
        if self.pool.as_ref().is_some_and(|p| p.try_shrink()) {
            if let Some(l) = &self.ledger {
                l.credit_pool(buf.capacity() as u64);
            }
            return Admit::Shrunk;
        }
        if self.stopped.load(Ordering::SeqCst) {
            return Admit::End;
        }
        let round = match self.rounds {
            Rounds::Count(n) => self
                .begun
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| {
                    (r < n).then_some(r + 1)
                })
                .ok(),
            Rounds::UntilStopped => Some(self.begun.fetch_add(1, Ordering::SeqCst)),
        };
        let Some(round) = round else {
            return Admit::End;
        };
        if let Some(pool) = &self.pool {
            while pool.try_grow() {
                self.add_buffer();
            }
        }
        buf.begin_round(round);
        if let Some(s) = &self.trace {
            buf.set_trace_id(s.next_trace_id());
        }
        let last = self.rounds == Rounds::Count(round + 1);
        Admit::Round { buf, last }
    }
}

/// Shared state of a *replicated* stage (FG's fork–join): n replica
/// threads share the stage's input and output queues, so buffers fan out
/// to whichever replica is free and rejoin downstream.  The caboose must
/// only travel downstream after *every* replica has finished, so replicas
/// pass it around like a poison pill until the last one consumes it.
///
/// An *ordered* group (a worker farm built with
/// [`Program::workers`](crate::Program::workers)) additionally serializes
/// emission: each replica, before conveying (or discarding) round `r`,
/// waits until every earlier round has been emitted, so downstream stages
/// observe rounds in order without a separate [`reorder_stage`].  An
/// unordered group (built with `add_replicated_stage`) emits as replicas
/// finish, out of round order.
pub(crate) struct ReplicaGroup {
    /// Stage name the group replicates (diagnostics).
    name: String,
    /// Per pipeline: how many replicas have not yet seen the caboose.
    remaining: parking_lot::Mutex<std::collections::HashMap<PipelineId, usize>>,
    pub(crate) replicas: usize,
    /// Whether emission is round-ordered (worker farm) or free-for-all.
    ordered: bool,
    /// Per pipeline: the next round allowed to emit (ordered groups only).
    next_round: parking_lot::Mutex<std::collections::HashMap<PipelineId, u64>>,
    emit_turn: parking_lot::Condvar,
    /// Set on program teardown so emission waiters unblock.
    cancelled: AtomicBool,
    /// How many replicas are currently *admitted* to pop input (the farm's
    /// live width).  Replicas with index `>= active` park at the admission
    /// gate between rounds, so a controller can grow or shrink the farm at
    /// round boundaries without touching threads.
    active: AtomicUsize,
    /// Set once any replica observes a caboose: parked replicas must wake
    /// and join the poison-pill relay so end-of-stream reaches all of them.
    draining: AtomicBool,
    /// Guards the admission gate's condvar.
    admission: parking_lot::Mutex<()>,
    admit: parking_lot::Condvar,
}

impl ReplicaGroup {
    pub(crate) fn new(name: impl Into<String>, replicas: usize, ordered: bool) -> Arc<Self> {
        Arc::new(ReplicaGroup {
            name: name.into(),
            remaining: parking_lot::Mutex::new(std::collections::HashMap::new()),
            replicas,
            ordered,
            next_round: parking_lot::Mutex::new(std::collections::HashMap::new()),
            emit_turn: parking_lot::Condvar::new(),
            cancelled: AtomicBool::new(false),
            active: AtomicUsize::new(replicas),
            draining: AtomicBool::new(false),
            admission: parking_lot::Mutex::new(()),
            admit: parking_lot::Condvar::new(),
        })
    }

    /// The declared replica count (the farm's maximum width).
    pub(crate) fn replica_count(&self) -> usize {
        self.replicas
    }

    /// How many replicas are currently admitted.
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Set the live width to `n` (clamped to `1..=replicas`), waking any
    /// replica the new width admits.  Shrinking never interrupts a replica
    /// mid-buffer: a demoted replica finishes (and emits) the round it
    /// holds, then parks before its next accept — so width changes land
    /// exactly at round boundaries.  Returns the applied width.
    pub(crate) fn set_active(&self, n: usize) -> usize {
        let n = n.clamp(1, self.replicas);
        self.active.store(n, Ordering::SeqCst);
        let _guard = self.admission.lock();
        self.admit.notify_all();
        n
    }

    /// Block replica `index` until it is admitted (its index is below the
    /// live width), the group starts draining, or the program is torn down.
    fn await_admission(&self, index: usize) -> Result<()> {
        let admitted = |g: &Self| {
            index < g.active()
                || g.draining.load(Ordering::SeqCst)
                || g.cancelled.load(Ordering::SeqCst)
        };
        if admitted(self) {
            // Fast path: no lock when running at full width.
        } else {
            let mut guard = self.admission.lock();
            while !admitted(self) {
                self.admit.wait(&mut guard);
            }
        }
        if self.cancelled.load(Ordering::SeqCst) {
            return Err(FgError::Cancelled);
        }
        Ok(())
    }

    /// Wake parked replicas so they can relay the caboose.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let _guard = self.admission.lock();
            self.admit.notify_all();
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// `(pipeline, next round allowed to emit)` for every pipeline an
    /// ordered group has seen; empty for unordered groups.
    pub(crate) fn turnstile_positions(&self) -> Vec<(PipelineId, u64)> {
        if !self.ordered {
            return Vec::new();
        }
        self.next_round
            .lock()
            .iter()
            .map(|(p, r)| (*p, *r))
            .collect()
    }

    /// Record that one replica observed pipeline `p`'s caboose; returns
    /// true iff it was the last replica (which then owns forwarding).
    fn observe_caboose(&self, p: PipelineId) -> bool {
        // End of stream: every replica — parked ones included — must see
        // the caboose for the poison-pill relay to terminate.
        self.begin_drain();
        let mut remaining = self.remaining.lock();
        let slot = remaining.entry(p).or_insert(self.replicas);
        *slot -= 1;
        *slot == 0
    }

    /// Block until round `round` of pipeline `p` is the next to emit.
    /// No-op for unordered groups.
    fn await_turn(&self, stage: &str, p: PipelineId, round: u64) -> Result<()> {
        if !self.ordered {
            return Ok(());
        }
        let mut next = self.next_round.lock();
        loop {
            let turn = *next.entry(p).or_insert(0);
            if round < turn {
                return Err(FgError::Usage(format!(
                    "replicated stage `{stage}` emitted round {round} of {p} \
                     twice (round {turn} is next); ordered farms emit exactly \
                     one buffer per round"
                )));
            }
            if round == turn {
                return Ok(());
            }
            if self.cancelled.load(Ordering::SeqCst) {
                return Err(FgError::Cancelled);
            }
            self.emit_turn.wait(&mut next);
        }
    }

    /// Mark round `round` of pipeline `p` emitted, releasing the waiter for
    /// the next round.  No-op for unordered groups.
    fn finish_turn(&self, p: PipelineId, round: u64) {
        if !self.ordered {
            return;
        }
        let mut next = self.next_round.lock();
        next.insert(p, round + 1);
        drop(next);
        self.emit_turn.notify_all();
    }

    /// Wake every replica parked on the emission or admission gate
    /// (program teardown).
    pub(crate) fn cancel_wake(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        {
            let _guard = self.next_round.lock();
            self.emit_turn.notify_all();
        }
        let _guard = self.admission.lock();
        self.admit.notify_all();
    }
}

/// One pipeline membership of a stage.
pub(crate) struct Port {
    pub(crate) pipeline: PipelineId,
    /// Input queue; `None` for virtual stages, which use the shared input.
    pub(crate) input: Option<Arc<Queue>>,
    /// Downstream queue; the pipeline's pool queue at its last stage.
    pub(crate) output: Arc<Queue>,
    /// The pipeline's source, shared by all its stages.
    pub(crate) injector: Arc<Injector>,
    /// Whether this stage is the pipeline's first, which begins rounds.
    pub(crate) first: bool,
    pub(crate) eos: bool,
    pub(crate) forwarded: bool,
    /// End of stream seen but not yet observed: a caboose popped by
    /// `accept_many` in the same batch as preceding buffers, or the final
    /// round of a counted pipeline just begun at its first stage.
    /// Observing it at once would mark end-of-stream before the stage
    /// conveys those buffers, so it is observed on the next accept (or
    /// during `finish`).
    pub(crate) deferred_caboose: bool,
}

impl Port {
    /// Whether this stage is the pipeline's last: it conveys into the pool.
    fn is_last(&self) -> bool {
        Arc::ptr_eq(&self.output, &self.injector.pool_queue)
    }

    /// Duplicate this port for another replica of the same stage (shared
    /// queues and injector, fresh end-of-stream flags).
    pub(crate) fn clone_for_replica(&self) -> Port {
        Port {
            pipeline: self.pipeline,
            input: self.input.clone(),
            output: Arc::clone(&self.output),
            injector: Arc::clone(&self.injector),
            first: self.first,
            eos: false,
            forwarded: false,
            deferred_caboose: false,
        }
    }
}

/// The handle through which a stage interacts with its pipelines.
pub struct StageCtx {
    name: String,
    ports: Vec<Port>,
    /// Present iff the stage is virtual: the single queue shared by all
    /// member pipelines (Figure 5(b)).
    shared_input: Option<Arc<Queue>>,
    /// Present iff the stage is replicated: shared caboose bookkeeping.
    replica_group: Option<Arc<ReplicaGroup>>,
    /// This replica's index within its group (0 for ordinary stages);
    /// compared against the group's live width at the admission gate.
    replica_index: usize,
    aux: Vec<u8>,
    /// Reusable scratch for [`StageCtx::accept_many`] batches.
    batch: Vec<Item>,
    registry: Arc<Registry>,
    pub(crate) rec: Recorder,
}

impl StageCtx {
    pub(crate) fn new(
        name: String,
        ports: Vec<Port>,
        shared_input: Option<Arc<Queue>>,
        registry: Arc<Registry>,
        rec: Recorder,
    ) -> Self {
        StageCtx {
            name,
            ports,
            shared_input,
            replica_group: None,
            replica_index: 0,
            aux: Vec::new(),
            batch: Vec::new(),
            registry,
            rec,
        }
    }

    pub(crate) fn set_replica_group(&mut self, group: Arc<ReplicaGroup>, index: usize) {
        self.replica_group = Some(group);
        self.replica_index = index;
    }

    /// Park at the farm's admission gate when this replica's index is
    /// above the live width.  Called before every input pop, so width
    /// changes land exactly at round boundaries; parked time is `parked`
    /// in the stats — neither busy nor starved.
    fn await_admission(&mut self) -> Result<()> {
        if let Some(group) = self.replica_group.clone() {
            if self.replica_index >= group.active() {
                let t0 = Instant::now();
                let res = group.await_admission(self.replica_index);
                self.rec.parked += t0.elapsed();
                self.rec.publish_live();
                res?;
            }
        }
        Ok(())
    }

    /// Name of this stage.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pipelines this stage belongs to, in membership (lane) order.
    pub fn pipelines(&self) -> impl Iterator<Item = PipelineId> + '_ {
        self.ports.iter().map(|p| p.pipeline)
    }

    /// Number of pipelines this stage belongs to.
    pub fn lanes(&self) -> usize {
        self.ports.len()
    }

    /// Lane index (0-based membership order) of a pipeline.
    pub fn lane(&self, pipeline: PipelineId) -> Result<usize> {
        self.port_index(pipeline)
    }

    /// True once the program is being torn down because some stage failed.
    pub fn is_cancelled(&self) -> bool {
        self.registry.is_cancelled()
    }

    fn port_index(&self, pipeline: PipelineId) -> Result<usize> {
        self.ports
            .iter()
            .position(|p| p.pipeline == pipeline)
            .ok_or_else(|| {
                FgError::Usage(format!(
                    "stage `{}` does not belong to {pipeline}",
                    self.name
                ))
            })
    }

    /// Fail unless this stage is ordinary and belongs to one pipeline.
    fn check_single_pipeline(&self) -> Result<()> {
        if self.shared_input.is_some() {
            return Err(FgError::Usage(format!(
                "stage `{}` is virtual; use accept_any()",
                self.name
            )));
        }
        if self.ports.len() != 1 {
            return Err(FgError::Usage(format!(
                "stage `{}` belongs to {} pipelines; use accept_from()",
                self.name,
                self.ports.len()
            )));
        }
        Ok(())
    }

    /// The direct input queue of port `idx`.
    fn input(&self, idx: usize) -> Result<Arc<Queue>> {
        self.ports[idx].input.clone().ok_or_else(|| {
            FgError::Usage(format!(
                "stage `{}` has no direct input queue for {}",
                self.name, self.ports[idx].pipeline
            ))
        })
    }

    /// Accept the next buffer; only valid for a stage that belongs to
    /// exactly one pipeline.  Returns `Ok(None)` once at end of stream.
    pub fn accept(&mut self) -> Result<Option<Buffer>> {
        self.check_single_pipeline()?;
        self.pop_port(0)
    }

    /// Accept up to `max` buffers in one batch, amortizing queue-lock
    /// acquisitions; only valid for a stage that belongs to exactly one
    /// pipeline.  Appends the buffers to `out` and returns how many
    /// arrived; `Ok(0)` means end of stream.  Blocks until at least one
    /// buffer is available (or the stream ends), like [`StageCtx::accept`].
    pub fn accept_many(&mut self, max: usize, out: &mut Vec<Buffer>) -> Result<usize> {
        self.check_single_pipeline()?;
        if max == 0 {
            return Err(FgError::Usage(format!(
                "stage `{}` called accept_many with a zero batch size",
                self.name
            )));
        }
        loop {
            self.take_deferred_caboose(0)?;
            if self.ports[0].eos {
                return Ok(0);
            }
            self.await_admission()?;
            let input = self.input(0)?;
            let mut items = std::mem::take(&mut self.batch);
            debug_assert!(items.is_empty());
            let (res, t0, t1) = self.rec.blocked(ThreadState::BlockedAccept, || {
                input.pop_many(max, &mut items)
            });
            if res.is_err() {
                self.batch = items;
                return Err(FgError::Cancelled);
            }
            let mut got = 0;
            let mut caboose = None;
            for item in items.drain(..) {
                let Some((item, kind)) = self.admit(0, item) else {
                    continue;
                };
                self.rec.accepted(&item, kind, t0, t1);
                match item {
                    Item::Buf(b) => {
                        out.push(b);
                        got += 1;
                    }
                    // The queue ends a batch at a caboose; at a first
                    // stage, buffers after the final round end it too.
                    Item::Caboose(p) => caboose = Some(p),
                }
            }
            self.batch = items;
            if let Some(p) = caboose {
                debug_assert_eq!(p, self.ports[0].pipeline);
                if got > 0 {
                    // Buffers precede the caboose in this batch; hold the
                    // caboose so the stage can still convey them.
                    self.ports[0].deferred_caboose = true;
                } else {
                    self.observe_caboose(0, p)?;
                }
            }
            if got > 0 {
                return Ok(got);
            }
            // Caboose-only batch: the port is now at end of stream, so the
            // next loop iteration returns Ok(0).
        }
    }

    /// Accept the next buffer from a specific pipeline (common stage of
    /// intersecting pipelines).  Returns `Ok(None)` once that pipeline's
    /// stream has ended.
    pub fn accept_from(&mut self, pipeline: PipelineId) -> Result<Option<Buffer>> {
        if self.shared_input.is_some() {
            return Err(FgError::Usage(format!(
                "stage `{}` is virtual; use accept_any()",
                self.name
            )));
        }
        let idx = self.port_index(pipeline)?;
        self.pop_port(idx)
    }

    /// Accept the next buffer from whichever member pipeline has one ready
    /// (virtual stages only).  Returns `Ok(None)` once *all* member
    /// pipelines have ended.
    pub fn accept_any(&mut self) -> Result<Option<Buffer>> {
        let shared = match &self.shared_input {
            Some(q) => Arc::clone(q),
            None => {
                return Err(FgError::Usage(format!(
                    "stage `{}` is not virtual; use accept()/accept_from()",
                    self.name
                )))
            }
        };
        loop {
            for idx in 0..self.ports.len() {
                self.take_deferred_caboose(idx)?;
            }
            if self.ports.iter().all(|p| p.eos) {
                return Ok(None);
            }
            match self.pop(&shared, None)? {
                Item::Buf(b) => return Ok(Some(b)),
                // Keep waiting: other member pipelines may still flow.
                Item::Caboose(p) => self.mark_eos_and_forward(p)?,
            }
        }
    }

    /// Accept using whatever mode fits this stage: `accept_any` when
    /// virtual, `accept` when it has a single pipeline.  Used by
    /// [`map_stage`] so the same closure works in both settings.
    pub fn accept_auto(&mut self) -> Result<Option<Buffer>> {
        if self.shared_input.is_some() {
            self.accept_any()
        } else {
            self.accept()
        }
    }

    /// Observe a caboose held back by a mixed `accept_many` batch, now
    /// that the stage has had the chance to convey the batch's buffers.
    fn take_deferred_caboose(&mut self, idx: usize) -> Result<()> {
        if self.ports[idx].deferred_caboose {
            self.ports[idx].deferred_caboose = false;
            let p = self.ports[idx].pipeline;
            self.observe_caboose(idx, p)?;
        }
        Ok(())
    }

    fn pop_port(&mut self, idx: usize) -> Result<Option<Buffer>> {
        self.take_deferred_caboose(idx)?;
        if self.ports[idx].eos {
            return Ok(None);
        }
        self.await_admission()?;
        let input = self.input(idx)?;
        match self.pop(&input, Some(idx))? {
            Item::Buf(b) => Ok(Some(b)),
            Item::Caboose(p) => {
                debug_assert_eq!(p, self.ports[idx].pipeline);
                self.observe_caboose(idx, p)?;
                Ok(None)
            }
        }
    }

    /// Pop the next item from `input` (the input of port `idx`, or the
    /// shared input of a virtual stage), charging the wait to starvation
    /// and recording what arrived.
    fn pop(&mut self, input: &Queue, idx: Option<usize>) -> Result<Item> {
        loop {
            let (popped, t0, t1) = self.rec.blocked(ThreadState::BlockedAccept, || input.pop());
            let item = popped.map_err(|_| FgError::Cancelled)?;
            let idx = match (&item, idx) {
                (Item::Buf(b), None) => Some(self.port_index(b.pipeline())?),
                (_, idx) => idx,
            };
            let admitted = match idx {
                Some(idx) => self.admit(idx, item),
                None => Some((item, TraceKind::Accept)),
            };
            if let Some((item, kind)) = admitted {
                self.rec.accepted(&item, kind, t0, t1);
                return Ok(item);
            }
        }
    }

    /// Pass an item popped for port `idx` through the pipeline's injector
    /// when this stage is the pipeline's first: a free buffer begins the
    /// next round (recorded as an `inject` span), or stands for the
    /// caboose once the rounds are spent or the pipeline stopped.  `None`
    /// when the buffer left the pool and there is nothing to accept.
    fn admit(&mut self, idx: usize, item: Item) -> Option<(Item, TraceKind)> {
        let port = &mut self.ports[idx];
        match item {
            Item::Buf(buf) if port.first => match port.injector.admit(buf) {
                Admit::Round { buf, last } => {
                    port.deferred_caboose |= last;
                    Some((Item::Buf(buf), TraceKind::SourceInject))
                }
                Admit::Shrunk => None,
                Admit::End if port.eos || port.deferred_caboose => None,
                Admit::End => Some((Item::Caboose(port.pipeline), TraceKind::Accept)),
            },
            item => Some((item, TraceKind::Accept)),
        }
    }

    /// Handle a caboose popped from port `idx`: in a replica group, only
    /// the last replica to see it forwards it downstream — the others mark
    /// their own end of stream and hand the caboose to a sibling.
    fn observe_caboose(&mut self, idx: usize, p: PipelineId) -> Result<()> {
        if let Some(group) = self.replica_group.clone() {
            if !group.observe_caboose(p) {
                self.ports[idx].eos = true;
                self.ports[idx].forwarded = true;
                // Non-blocking.  Past position 0 a relay follows the pop
                // of the caboose it replaces, so there is room.  A pool
                // queue that is full holds nothing but items that stand
                // for the caboose, one for every sibling.
                if let Some(input) = self.ports[idx].input.clone() {
                    let _ = input.try_push(Item::Caboose(p));
                }
                return Ok(());
            }
        }
        self.mark_eos_and_forward(p)
    }

    /// Convey a buffer to its pipeline's next stage.  The routing is
    /// determined by the buffer's pipeline tag; buffers cannot jump
    /// pipelines.
    pub fn convey(&mut self, buf: Buffer) -> Result<()> {
        let idx = self.port_index(buf.pipeline())?;
        if self.ports[idx].eos {
            return Err(FgError::Usage(format!(
                "stage `{}` conveyed a buffer on {} after observing its end \
                 of stream; convey or discard held buffers before accepting \
                 past the caboose",
                self.name,
                buf.pipeline()
            )));
        }
        if self.emit(idx, buf, true)? {
            Ok(())
        } else {
            Err(FgError::Cancelled)
        }
    }

    /// Return a buffer straight to its pipeline's buffer pool without
    /// passing it downstream (e.g. a spent input buffer the stage consumed
    /// wholesale).  Equivalent to conveying it when this stage is the last
    /// stage of that pipeline.
    pub fn discard(&mut self, buf: Buffer) -> Result<()> {
        let idx = self.port_index(buf.pipeline())?;
        self.emit(idx, buf, false).map(drop)
    }

    /// Hand `buf` on from port `idx` — downstream when `conveyed`, back to
    /// the pool otherwise — and record the hand-off.  A convey out of the
    /// pipeline's last stage lands in the pool too, so it is recorded as
    /// the round's `recycle`.  Returns whether the buffer landed.
    fn emit(&mut self, idx: usize, buf: Buffer, conveyed: bool) -> Result<bool> {
        let (pipeline, round, tid) = (buf.pipeline(), buf.round(), buf.trace_id());
        // Credit the ledger up front: the buffer leaves this stage whether
        // the push lands or the program is cancelled underneath it.
        self.rec.released(buf.capacity());
        self.rec.work(pipeline, round, tid);
        // In an ordered farm, wait until every earlier round has been
        // emitted so downstream stages see rounds in order; a discarded
        // round produces nothing downstream, but later rounds may only
        // emit after it.  The wait counts as blocked-convey time: the
        // replica is done computing and is stalled on downstream ordering.
        if let Some(group) = self.replica_group.clone().filter(|g| g.is_ordered()) {
            let (turn, t0, t1) = self.rec.blocked(ThreadState::TurnWait, || {
                group.await_turn(&self.name, pipeline, round)
            });
            turn?;
            self.rec
                .span(TraceKind::TurnWait, pipeline, round, tid, t0, t1);
        }
        let port = &self.ports[idx];
        let recycled = !conveyed || port.is_last();
        let queue = if recycled {
            &port.injector.pool_queue
        } else {
            &port.output
        };
        let (landed, t0, t1) = self.rec.blocked(ThreadState::BlockedConvey, || {
            if recycled {
                // Never blocks: while the pipeline runs, its pool has room
                // for every buffer.  A pool that is full holds the
                // cabooses of a pipeline that has ended (and a closed one
                // a program torn down), so the buffer is simply released.
                let _ = queue.try_push(Item::Buf(buf));
                true
            } else {
                queue.push(Item::Buf(buf)).is_ok()
            }
        });
        if landed {
            let kind = if recycled {
                TraceKind::Recycle
            } else {
                TraceKind::Convey
            };
            if let Some(group) = &self.replica_group {
                group.finish_turn(pipeline, round);
            }
            self.rec.buffers_out += u64::from(conveyed);
            self.rec.emitted(kind, pipeline, round, tid, t0, t1);
        }
        Ok(landed)
    }

    /// Stop an [`Rounds::UntilStopped`] pipeline: its first stage begins
    /// no further rounds and passes the caboose downstream.  Idempotent.
    pub fn stop(&mut self, pipeline: PipelineId) -> Result<()> {
        let idx = self.port_index(pipeline)?;
        self.ports[idx].injector.stop();
        Ok(())
    }

    /// A scratch buffer of at least `len` bytes, reused across calls (FG's
    /// auxiliary buffer, used e.g. for out-of-place permutations).
    pub fn aux(&mut self, len: usize) -> &mut [u8] {
        if self.aux.len() < len {
            self.aux.resize(len, 0);
        }
        &mut self.aux[..len]
    }

    fn mark_eos_and_forward(&mut self, pipeline: PipelineId) -> Result<()> {
        let idx = self.port_index(pipeline)?;
        self.ports[idx].eos = true;
        let port = &mut self.ports[idx];
        // The last stage has nothing downstream: its output is the pool.
        let forward = !port.forwarded && !port.is_last();
        port.forwarded = true;
        if forward
            && port.output.push(Item::Caboose(pipeline)).is_err()
            && !self.registry.is_cancelled()
        {
            return Err(FgError::Cancelled);
        }
        Ok(())
    }

    /// Post-run cleanup executed by the runtime: stop `UntilStopped`
    /// pipelines and the pipelines this stage begins, drain unconsumed
    /// inputs (recycling their buffers), and guarantee exactly one caboose
    /// went downstream per pipeline.
    pub(crate) fn finish(&mut self) {
        for idx in 0..self.ports.len() {
            let first = self.ports[idx].first;
            if first || matches!(self.ports[idx].injector.rounds, Rounds::UntilStopped) {
                self.ports[idx].injector.stop();
            }
            // Nothing is upstream of a first stage: its pipeline's stream
            // ends here.
            if first && !self.ports[idx].eos {
                self.ports[idx].deferred_caboose = false;
                let p = self.ports[idx].pipeline;
                let _ = self.observe_caboose(idx, p);
            }
        }
        // Drain the shared input (virtual stage) until every lane ends.
        if let Some(shared) = self.shared_input.clone() {
            while self.ports.iter().any(|p| !p.eos) {
                match shared.pop() {
                    Ok(Item::Buf(b)) => {
                        // Free buffers of the lanes this stage begins are
                        // released; the rest go back to their pools.
                        let idx = self.port_index(b.pipeline());
                        if idx.is_ok_and(|i| !self.ports[i].first) {
                            let _ = self.discard(b);
                        }
                    }
                    Ok(Item::Caboose(p)) => {
                        let _ = self.mark_eos_and_forward(p);
                    }
                    Err(_) => break,
                }
            }
        }
        // Drain per-pipeline inputs.
        for idx in 0..self.ports.len() {
            let _ = self.take_deferred_caboose(idx);
            while !self.ports[idx].eos {
                let input = match &self.ports[idx].input {
                    Some(q) => Arc::clone(q),
                    None => break,
                };
                match input.pop() {
                    Ok(Item::Buf(b)) => {
                        // Back to the pool, never blocking (see `emit`).
                        let _ = self.ports[idx].injector.pool_queue.try_push(Item::Buf(b));
                    }
                    Ok(Item::Caboose(p)) => {
                        let _ = self.observe_caboose(idx, p);
                    }
                    Err(_) => break,
                }
            }
        }
        // Last resort (queues closed mid-drain): make sure a caboose was at
        // least attempted downstream for every pipeline.
        for port in &mut self.ports {
            if !port.forwarded && !port.is_last() {
                let _ = port.output.try_push(Item::Caboose(port.pipeline));
            }
            port.forwarded = true;
        }
    }
}
