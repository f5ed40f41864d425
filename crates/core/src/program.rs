//! Declaring and running FG programs.
//!
//! A [`Program`] is a set of pipelines over a set of stages, all running on
//! one node.  Declare stages with [`Program::add_stage`] (or
//! [`Program::add_virtual_stage`]), declare pipelines with
//! [`Program::add_pipeline`] giving each its chain of stages, then call
//! [`Program::run`], which:
//!
//! * puts a bounded queue in front of every stage of every pipeline,
//! * allocates each pipeline's buffer pool into its first stage's input
//!   queue: FG's **source** and **sink** (§II) are folded into the first
//!   and last stages, so the first stage begins a round with every free
//!   buffer it accepts and the last stage's convey recycles the buffer —
//!   memory stays fixed with no thread of plumbing per pipeline,
//! * treats a stage appearing in several pipelines as the **common stage**
//!   of intersecting pipelines (§IV),
//! * collapses stages declared *virtual* onto single shared threads and a
//!   single shared input queue (§IV, Figure 5(b)),
//! * spawns one thread per (non-virtualized) stage, runs the program to
//!   completion, and returns a timing [`Report`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::affinity::PinMode;
use crate::buffer::{PipelineId, StageId};
use crate::error::{FgError, Result};
use crate::queue::{FlavorKind, Queue, QueueMetrics};
use crate::runtime;
use crate::stage::{Injector, Port, Registry, ReplicaGroup, Rounds, Stage};
use crate::stats::Report;

/// Configuration of one pipeline: its buffer pool and round policy.
#[derive(Debug, Clone)]
pub struct PipelineCfg {
    pub(crate) name: String,
    pub(crate) buffers: usize,
    pub(crate) buffer_size: usize,
    pub(crate) rounds: Rounds,
    pub(crate) max_buffers: Option<usize>,
}

impl PipelineCfg {
    /// A pipeline with `buffers` buffers of `buffer_size` bytes each.
    ///
    /// The buffer size typically equals the block size of the high-latency
    /// transfers the pipeline performs (§II).
    pub fn new(name: impl Into<String>, buffers: usize, buffer_size: usize) -> Self {
        PipelineCfg {
            name: name.into(),
            buffers,
            buffer_size,
            rounds: Rounds::UntilStopped,
            max_buffers: None,
        }
    }

    /// Allow a controller to grow this pipeline's buffer pool up to `n`
    /// buffers at runtime (queues are pre-sized to admit the ceiling).
    /// Values below `buffers` are treated as `buffers`.  Without a
    /// controller the pool stays at `buffers`.
    pub fn max_buffers(mut self, n: usize) -> Self {
        self.max_buffers = Some(n);
        self
    }

    /// Set how many rounds the pipeline runs (default: until stopped).
    pub fn rounds(mut self, rounds: Rounds) -> Self {
        self.rounds = rounds;
        self
    }

    /// Shorthand for `.rounds(Rounds::Count(n))`.
    pub fn count(mut self, n: u64) -> Self {
        self.rounds = Rounds::Count(n);
        self
    }
}

pub(crate) struct StageSlot {
    pub(crate) name: String,
    /// One object per replica (length 1 for ordinary stages).
    pub(crate) stages: Vec<Box<dyn Stage>>,
    pub(crate) is_virtual: bool,
    /// Replicated stages only: whether emission is serialized by round
    /// (a worker farm built with [`Program::workers`]).
    pub(crate) ordered: bool,
}

pub(crate) struct PipeSpec {
    pub(crate) name: String,
    pub(crate) buffers: usize,
    pub(crate) buffer_size: usize,
    pub(crate) rounds: Rounds,
    pub(crate) chain: Vec<StageId>,
    pub(crate) max_buffers: Option<usize>,
}

impl PipeSpec {
    /// Pool ceiling the queues must admit: the declared `max_buffers` when
    /// at least `buffers`, else `buffers`.
    fn pool_ceiling(&self) -> usize {
        self.max_buffers.unwrap_or(self.buffers).max(self.buffers)
    }

    /// Room this pipeline needs in the input queue of its stage at `pos`:
    /// every buffer of the pool plus the caboose, and at position 0 (the
    /// pool) one more for a farm's caboose relay, so no push there blocks.
    fn queue_capacity(&self, pos: usize) -> usize {
        self.pool_ceiling() + if pos == 0 { 2 } else { 1 }
    }
}

/// A declared FG program: pipelines of stages on one node.
pub struct Program {
    name: String,
    stages: Vec<StageSlot>,
    pipelines: Vec<PipeSpec>,
    trace: bool,
    metrics: Option<Arc<crate::metrics::MetricsRegistry>>,
    trace_sink: Option<Arc<crate::trace::TraceSink>>,
    trace_group: Option<u32>,
    watchdog: Option<crate::trace::WatchdogCfg>,
    controller: Option<crate::controller::ControllerCfg>,
    depth_actuators: Vec<Arc<dyn crate::controller::DepthActuator>>,
    pin: Option<PinMode>,
    ledger: Option<Arc<crate::profile::MemoryLedger>>,
}

impl Program {
    /// Create an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            stages: Vec::new(),
            pipelines: Vec::new(),
            trace: false,
            metrics: None,
            trace_sink: None,
            trace_group: None,
            watchdog: None,
            controller: None,
            depth_actuators: Vec::new(),
            pin: None,
            ledger: None,
        }
    }

    /// Pin every stage thread (replicas included) to a core chosen by
    /// `mode` at spawn.  Placement is recorded per thread in the
    /// [`Report`](crate::Report)
    /// ([`StageStats::core`](crate::StageStats)).  On hosts where
    /// affinity cannot be changed (non-Linux, no `taskset`) threads run
    /// unpinned and record no placement.  Off by default: the OS
    /// scheduler usually wins until queue contention dominates — see
    /// `diagnose`'s contention findings for when to turn this on.
    pub fn set_pinning(&mut self, mode: PinMode) {
        self.pin = Some(mode);
    }

    /// Give every stage's [`StageStats`](crate::StageStats) row its
    /// blocked intervals, so the finished [`Report`](crate::Report) can
    /// render a Gantt chart
    /// ([`Report::render_gantt`](crate::Report::render_gantt)).  The spans
    /// are read off the flight recorder at thread exit (an internal
    /// [`TraceSink`](crate::trace::TraceSink) when none is installed), so
    /// they cover each stage's last
    /// [`DEFAULT_RING_CAPACITY`](crate::trace::DEFAULT_RING_CAPACITY)
    /// (4096) transitions — the installed sink's ring capacity, if
    /// different — not the whole run.  (Earlier versions kept each
    /// stage's first 100 000 blocked intervals instead.)  Off by default.
    pub fn enable_tracing(&mut self) {
        self.trace = true;
    }

    /// Attach a [`MetricsRegistry`](crate::metrics::MetricsRegistry):
    /// every queue samples its depth into a
    /// `core/queue_depth/<queue>` gauge, and the registry's snapshot is
    /// embedded in the final [`Report`](crate::Report) (rendered by
    /// [`Report::render_dashboard`](crate::Report::render_dashboard) and
    /// exported by [`Report::to_json`](crate::Report::to_json)).  Other
    /// layers (communicators, disks) may record into the same registry to
    /// land in the same report.
    pub fn set_metrics(&mut self, metrics: Arc<crate::metrics::MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// Attach a [`MemoryLedger`](crate::profile::MemoryLedger): each
    /// pipeline's pool is charged as buffers join it (and credited as they
    /// retire), and every stage charges/credits its per-stage residency
    /// row as buffers flow through — so at any instant the ledger says
    /// which stage holds how much of the pool, against the ledger's
    /// budget.  Share one ledger across programs to account for a whole
    /// process.  The ledger rows
    /// land in [`ResourceReport`](crate::profile::ResourceReport) samples
    /// (`GET /resources`, `fgsort --profile`, the watchdog post-mortem).
    pub fn set_memory_ledger(&mut self, ledger: Arc<crate::profile::MemoryLedger>) {
        self.ledger = Some(ledger);
    }

    /// Install a [`TraceSink`](crate::trace::TraceSink): every stage
    /// thread (replicas included) gets a flight-recorder ring and records
    /// a causal span per transition, and every round's buffer carries a
    /// fresh trace id.  Without a sink the hook sites
    /// cost a single never-taken branch.  The sink outlives the run: collect
    /// the log afterwards with
    /// [`TraceSink::collect`](crate::trace::TraceSink::collect) or export
    /// it with
    /// [`TraceSink::to_chrome_trace`](crate::trace::TraceSink::to_chrome_trace).
    pub fn set_trace_sink(&mut self, sink: Arc<crate::trace::TraceSink>) {
        self.trace_sink = Some(sink);
    }

    /// Put every thread this program registers with its trace sink into
    /// track group `group` (a cluster rank): the Chrome export then renders
    /// this program's threads under a per-node `node{group}` track group.
    /// No effect without a trace sink.
    pub fn set_trace_group(&mut self, group: u32) {
        self.trace_group = Some(group);
    }

    /// Arm the stall watchdog: if no span is recorded pipeline-wide for
    /// `cfg.timeout`, a [`Postmortem`](crate::trace::Postmortem) is
    /// rendered to stderr (and optionally a JSON artifact), then the
    /// program is aborted with
    /// [`FgError::Stalled`](crate::FgError::Stalled) — or left running,
    /// per [`WatchdogAction`](crate::trace::WatchdogAction).  Implies an
    /// internal trace sink when none is installed.
    pub fn set_watchdog(&mut self, cfg: crate::trace::WatchdogCfg) {
        self.watchdog = Some(cfg);
    }

    /// Shorthand: arm an abort-on-stall watchdog with `timeout`.
    pub fn with_watchdog(&mut self, timeout: std::time::Duration) {
        self.set_watchdog(crate::trace::WatchdogCfg::new(timeout));
    }

    /// Attach a closed-loop controller
    /// ([`Controller`](crate::controller::Controller)): during the run it
    /// samples the metrics registry, diagnoses a sliding window, and
    /// actuates farm widths, buffer pools, and registered I/O depths.
    /// Requires [`Program::set_metrics`]; without a registry the
    /// controller is silently skipped (it would have nothing to observe).
    /// The decision audit log lands in
    /// [`Report::controller`](crate::Report).
    pub fn set_controller(&mut self, cfg: crate::controller::ControllerCfg) {
        self.controller = Some(cfg);
    }

    /// Register a resizable read-ahead depth (e.g. an I/O scheduler) for
    /// the controller to actuate.  No-op unless
    /// [`Program::set_controller`] is also called.
    pub fn add_depth_actuator(&mut self, actuator: Arc<dyn crate::controller::DepthActuator>) {
        self.depth_actuators.push(actuator);
    }

    /// Program name (used in thread names and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declare a stage.  The same [`StageId`] may be placed in several
    /// pipelines' chains, making those pipelines intersect at this stage.
    pub fn add_stage(&mut self, name: impl Into<String>, stage: Box<dyn Stage>) -> StageId {
        self.push_stage(name.into(), stage, false)
    }

    /// Declare a *virtual* stage: if placed in k pipelines, FG creates one
    /// thread and one shared input queue instead of k of each.
    pub fn add_virtual_stage(&mut self, name: impl Into<String>, stage: Box<dyn Stage>) -> StageId {
        self.push_stage(name.into(), stage, true)
    }

    fn push_stage(&mut self, name: String, stage: Box<dyn Stage>, is_virtual: bool) -> StageId {
        let id = StageId(self.stages.len() as u32);
        self.stages.push(StageSlot {
            name,
            stages: vec![stage],
            is_virtual,
            ordered: false,
        });
        id
    }

    /// Declare a *replicated* stage: `n` copies (built by `factory`) share
    /// the stage's position in a pipeline, its input queue, and its output
    /// queue, so buffers fan out to whichever replica is free and rejoin
    /// downstream — FG's fork–join, used to parallelize a slow stage.
    ///
    /// Buffers rejoin *out of round order*; place a
    /// [`reorder_stage`](crate::reorder_stage) downstream if order matters.
    /// A replicated stage must belong to exactly one pipeline and cannot
    /// be virtual.
    pub fn add_replicated_stage<F>(
        &mut self,
        name: impl Into<String>,
        replicas: usize,
        factory: F,
    ) -> StageId
    where
        F: Fn(usize) -> Box<dyn Stage>,
    {
        assert!(replicas > 0, "need at least one replica");
        let id = StageId(self.stages.len() as u32);
        self.stages.push(StageSlot {
            name: name.into(),
            stages: (0..replicas).map(factory).collect(),
            is_virtual: false,
            ordered: false,
        });
        id
    }

    /// Declare a *worker farm*: an ordered replicated stage.  `n` worker
    /// threads (built by `factory`, which receives the worker index) share
    /// the stage's position in a pipeline and its input queue, so rounds
    /// fan out to whichever worker is free — but unlike
    /// [`Program::add_replicated_stage`], emission is serialized by round:
    /// a worker holding round `r` waits (inside `convey`/`discard`) until
    /// rounds `0..r` have been emitted, so downstream stages observe rounds
    /// in order with no [`reorder_stage`](crate::reorder_stage) and no
    /// stash buffers.
    ///
    /// Each accepted round must be conveyed or discarded exactly once
    /// (the natural shape of a [`map_stage`](crate::map_stage)); a farm
    /// stage that emits twice for one round fails with a usage error.
    /// Caboose, error, and shutdown semantics are those of a replicated
    /// stage: the caboose travels downstream only after every worker has
    /// finished, and teardown wakes workers parked on the ordering gate.
    /// A farm must belong to exactly one pipeline and cannot be virtual.
    /// `workers(name, 1, factory)` degenerates to an ordinary stage with
    /// zero ordering overhead.
    pub fn workers<F>(&mut self, name: impl Into<String>, n: usize, factory: F) -> StageId
    where
        F: Fn(usize) -> Box<dyn Stage>,
    {
        assert!(n > 0, "need at least one worker");
        let id = StageId(self.stages.len() as u32);
        self.stages.push(StageSlot {
            name: name.into(),
            stages: (0..n).map(factory).collect(),
            is_virtual: false,
            ordered: true,
        });
        id
    }

    /// Declare a pipeline running `chain`.  Its first stage begins the
    /// rounds and its last stage returns each buffer to the pool.
    pub fn add_pipeline(&mut self, cfg: PipelineCfg, chain: &[StageId]) -> Result<PipelineId> {
        if chain.is_empty() {
            return Err(FgError::Config(format!(
                "pipeline `{}` has an empty stage chain",
                cfg.name
            )));
        }
        if cfg.buffers == 0 {
            return Err(FgError::Config(format!(
                "pipeline `{}` must have at least one buffer",
                cfg.name
            )));
        }
        if cfg.buffer_size == 0 {
            return Err(FgError::Config(format!(
                "pipeline `{}` must have a positive buffer size",
                cfg.name
            )));
        }
        for (i, s) in chain.iter().enumerate() {
            if s.index() >= self.stages.len() {
                return Err(FgError::Config(format!(
                    "pipeline `{}` references unknown {s}",
                    cfg.name
                )));
            }
            if chain[..i].contains(s) {
                return Err(FgError::Config(format!(
                    "pipeline `{}` lists stage `{}` twice",
                    cfg.name,
                    self.stages[s.index()].name
                )));
            }
        }
        let id = PipelineId(self.pipelines.len() as u32);
        self.pipelines.push(PipeSpec {
            name: cfg.name,
            buffers: cfg.buffers,
            buffer_size: cfg.buffer_size,
            rounds: cfg.rounds,
            chain: chain.to_vec(),
            max_buffers: cfg.max_buffers,
        });
        Ok(id)
    }

    /// Number of declared pipelines.
    pub fn pipeline_count(&self) -> usize {
        self.pipelines.len()
    }

    /// Validate, wire, spawn, and run the program to completion.
    pub fn run(mut self) -> Result<Report> {
        self.validate()?;
        let plan = self.wire()?;
        runtime::execute(self.name, plan)
    }

    fn validate(&self) -> Result<()> {
        for (i, slot) in self.stages.iter().enumerate() {
            let used = self
                .pipelines
                .iter()
                .any(|p| p.chain.contains(&StageId(i as u32)));
            if !used {
                return Err(FgError::Config(format!(
                    "stage `{}` is not part of any pipeline",
                    slot.name
                )));
            }
        }
        if self.pipelines.is_empty() {
            return Err(FgError::Config("program has no pipelines".into()));
        }
        for (i, slot) in self.stages.iter().enumerate() {
            if slot.stages.len() > 1 {
                let memberships = self
                    .pipelines
                    .iter()
                    .filter(|p| p.chain.contains(&StageId(i as u32)))
                    .count();
                if memberships != 1 {
                    return Err(FgError::Config(format!(
                        "replicated stage `{}` must belong to exactly one \
                         pipeline (found {memberships})",
                        slot.name
                    )));
                }
            }
        }
        // Pipelines sharing a virtual stage form a virtual group, whose
        // lanes end by count, not by stop().
        let groups = self.virtual_groups();
        for (gi, members) in groups.iter().enumerate() {
            if members.len() > 1 {
                for &p in members {
                    if !matches!(self.pipelines[p].rounds, Rounds::Count(_)) {
                        return Err(FgError::Config(format!(
                            "pipeline `{}` is in virtual group {gi} and must \
                             use Rounds::Count",
                            self.pipelines[p].name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Partition pipelines: pipelines sharing any virtual stage land in the
    /// same group (union-find).  Returns disjoint member lists covering all
    /// pipelines (singletons for ungrouped ones), in pipeline order.
    fn virtual_groups(&self) -> Vec<Vec<usize>> {
        let n = self.pipelines.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for (sid, slot) in self.stages.iter().enumerate() {
            if !slot.is_virtual {
                continue;
            }
            let members: Vec<usize> = self
                .pipelines
                .iter()
                .enumerate()
                .filter(|(_, p)| p.chain.contains(&StageId(sid as u32)))
                .map(|(i, _)| i)
                .collect();
            for w in members.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut by_root: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            by_root.entry(r).or_default().push(i);
        }
        let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }

    /// Build every queue, port, and injector.
    fn wire(&mut self) -> Result<runtime::Plan> {
        let registry = Registry::new();
        // The watchdog needs the flight recorder's activity clock and the
        // Gantt spans of `enable_tracing` are read off it, so either
        // implies an (internal, never-exported) sink when none was
        // installed.
        let trace_sink = match &self.trace_sink {
            None if self.trace || self.watchdog.is_some() => Some(crate::trace::TraceSink::new()),
            sink => sink.clone(),
        };

        // Build a queue, register it for shutdown, and — when a metrics
        // registry is attached — wire up its depth gauge, contention
        // counters, and capacity (so windowed diagnosis can tell "full"
        // without a Report).  `FlavorKind::Spsc` may only be passed for
        // stage-to-stage links the planner has proven exclusive; every
        // other queue takes the lock-free MPMC ring (the mutex flavor
        // survives as the property-test oracle and `Queue::new` default).
        let metrics = self.metrics.clone();
        let reg = |name: String, cap: usize, kind: FlavorKind| {
            let gauge = metrics.as_ref().map(|m| {
                m.gauge(&format!("{}{name}", crate::analyze::QUEUE_CAPACITY_PREFIX))
                    .set(cap as u64);
                m.gauge(&format!("{}{name}", crate::analyze::QUEUE_DEPTH_PREFIX))
            });
            let qmetrics = metrics.as_ref().map(|m| QueueMetrics {
                cas_retries: m
                    .counter(&format!("{}{name}", crate::analyze::QUEUE_CAS_RETRY_PREFIX)),
                push_parks: m.counter(&format!("{}{name}", crate::analyze::QUEUE_PUSH_PARK_PREFIX)),
                pop_parks: m.counter(&format!("{}{name}", crate::analyze::QUEUE_POP_PARK_PREFIX)),
                wakes: m.counter(&format!("{}{name}", crate::analyze::QUEUE_WAKE_PREFIX)),
                items: m.counter(&format!("{}{name}", crate::analyze::QUEUE_ITEMS_PREFIX)),
            });
            let q = Queue::flavored(name, cap, kind, gauge, qmetrics);
            registry.register(Arc::clone(&q));
            q
        };

        // Shared input queues for virtual stages.  A virtual stage that
        // begins some of its pipelines holds their pools too.
        let mut shared_in: HashMap<usize, Arc<Queue>> = HashMap::new();
        for (sid, slot) in self.stages.iter().enumerate() {
            if slot.is_virtual {
                let cap: usize = self
                    .pipelines
                    .iter()
                    .filter_map(|p| {
                        let pos = p.chain.iter().position(|s| s.index() == sid)?;
                        Some(p.queue_capacity(pos))
                    })
                    .sum();
                // Shared (virtual) inputs are fed by many pipelines'
                // upstreams: never SPSC.  Floor at 2: the lock-free ring
                // needs at least two slots (`Queue::flavored` would fall
                // back to the mutex flavor for a capacity-1 request).
                shared_in.insert(
                    sid,
                    reg(
                        format!("in/{}", slot.name),
                        cap.max(2),
                        FlavorKind::LockFree,
                    ),
                );
            }
        }

        // Queues along each pipeline.  into_q[p][i] feeds stage i of
        // pipeline p; into_q[p][0] is also the pipeline's buffer pool,
        // where the last stage conveys and every stage discards.  A
        // per-stage queue past position 0 is specialized to the SPSC ring
        // when exactly one thread pushes and one pops: the consumer stage
        // has a single replica (replicas also *push* — they hand the
        // caboose around their own input queue), and so does the upstream
        // stage.  Virtual stages are excluded on both sides by
        // construction (their shared queue is built above).
        let mut into_q: Vec<Vec<Arc<Queue>>> = Vec::new();
        for pipe in &self.pipelines {
            let mut qs = Vec::with_capacity(pipe.chain.len());
            for (pos, sid) in pipe.chain.iter().enumerate() {
                let q = if self.stages[sid.index()].is_virtual {
                    Arc::clone(&shared_in[&sid.index()])
                } else {
                    // Proven-exclusive links get the SPSC ring; the rest —
                    // pools, farm inputs/outputs — get the lock-free MPMC
                    // ring.
                    let exclusive = pos > 0
                        && self.stages[sid.index()].stages.len() == 1
                        && self.stages[pipe.chain[pos - 1].index()].stages.len() == 1;
                    let kind = if exclusive {
                        FlavorKind::Spsc
                    } else {
                        FlavorKind::LockFree
                    };
                    reg(
                        format!("{}[{}]", pipe.name, pos),
                        pipe.queue_capacity(pos),
                        kind,
                    )
                };
                qs.push(q);
            }
            into_q.push(qs);
        }

        // Live buffer-pool handles, one per pipeline, only when a
        // controller will drive them (otherwise pools stay at their
        // declared size and the handles would be dead weight).
        let pools: Vec<Option<Arc<crate::controller::PoolControl>>> = self
            .pipelines
            .iter()
            .enumerate()
            .map(|(pi, pipe)| {
                self.controller.as_ref().map(|_| {
                    crate::controller::PoolControl::new(
                        pipe.name.clone(),
                        into_q[pi][0].name(),
                        pipe.buffers,
                        1,
                        pipe.pool_ceiling(),
                    )
                })
            })
            .collect();

        // Ports for every stage, in pipeline declaration order, sharing
        // their pipeline's injector, which seeds the pool.
        let mut ports: Vec<Vec<Port>> = (0..self.stages.len()).map(|_| Vec::new()).collect();
        for (pi, pipe) in self.pipelines.iter().enumerate() {
            let pipeline = PipelineId(pi as u32);
            let injector = Injector::seeded(
                pipeline,
                pipe,
                Arc::clone(&into_q[pi][0]),
                pools[pi].clone(),
                self.ledger.clone(),
                trace_sink.clone(),
            );
            for (pos, sid) in pipe.chain.iter().enumerate() {
                let is_virtual = self.stages[sid.index()].is_virtual;
                ports[sid.index()].push(Port {
                    pipeline,
                    input: (!is_virtual).then(|| Arc::clone(&into_q[pi][pos])),
                    // The last stage conveys into the pool.
                    output: Arc::clone(&into_q[pi][(pos + 1) % pipe.chain.len()]),
                    injector: Arc::clone(&injector),
                    first: pos == 0,
                    eos: false,
                    forwarded: false,
                    deferred_caboose: false,
                });
            }
        }

        // Stage tasks (one per replica; ordinary stages have one replica).
        let mut tasks = Vec::new();
        let mut farms: Vec<Arc<ReplicaGroup>> = Vec::new();
        for (sid, slot) in self.stages.iter_mut().enumerate() {
            let shared_input = shared_in.get(&sid).map(Arc::clone);
            let replicas = slot.stages.len();
            let group = if replicas > 1 {
                let g = ReplicaGroup::new(slot.name.clone(), replicas, slot.ordered);
                registry.register_group(Arc::clone(&g));
                farms.push(Arc::clone(&g));
                Some(g)
            } else {
                None
            };
            let base_ports = std::mem::take(&mut ports[sid]);
            for (i, stage) in slot.stages.drain(..).enumerate() {
                let task_ports = base_ports.iter().map(|p| p.clone_for_replica()).collect();
                tasks.push(runtime::StageTask {
                    name: if replicas > 1 {
                        format!("{}#{i}", slot.name)
                    } else {
                        slot.name.clone()
                    },
                    stage,
                    ports: task_ports,
                    shared_input: shared_input.clone(),
                    replica_group: group.clone(),
                    replica_index: i,
                });
            }
        }

        Ok(runtime::Plan {
            registry,
            tasks,
            trace: self.trace,
            metrics: self.metrics.clone(),
            trace_sink,
            trace_group: self.trace_group,
            watchdog: self.watchdog.clone(),
            controller: self.controller.clone(),
            pools: pools.into_iter().flatten().collect(),
            farms,
            depth_actuators: self.depth_actuators.clone(),
            pin: self.pin.clone(),
            ledger: self.ledger.clone(),
            pipelines: self
                .pipelines
                .iter()
                .map(|p| crate::stats::PipelineShape {
                    name: p.name.clone(),
                    stages: p
                        .chain
                        .iter()
                        .map(|sid| self.stages[sid.index()].name.clone())
                        .collect(),
                })
                .collect(),
        })
    }
}

/// Convenience: run a single linear pipeline of `stages` to completion.
///
/// This is the shape of every program writable in FG's original release
/// (§II): one copy of one linear pipeline.
pub fn run_linear(
    name: impl Into<String>,
    cfg: PipelineCfg,
    stages: Vec<(&str, Box<dyn Stage>)>,
) -> Result<Report> {
    let mut prog = Program::new(name);
    let ids: Vec<StageId> = stages
        .into_iter()
        .map(|(n, s)| prog.add_stage(n, s))
        .collect();
    prog.add_pipeline(cfg, &ids)?;
    prog.run()
}
