//! Bottleneck analysis: turn a [`Report`] and a telemetry time series into
//! a [`Diagnosis`] that names the limiting stage and says what to do about
//! it.
//!
//! FG's premise is that a pipeline runs as fast as its slowest stage while
//! everything else overlaps (§II); the tuning loop the paper implies —
//! find the limiting stage, then widen a queue, split the stage, or grow a
//! buffer pool — is manual.  [`diagnose`] automates the diagnosis half:
//!
//! * each stage's wall time splits into **busy** / **starved** (blocked in
//!   accept) / **backpressured** (blocked in convey) fractions, with the
//!   dominant one as its [`StageVerdict`] — refined by topology: a starved
//!   stage *upstream* of the limiting stage is reported as backpressured,
//!   because its missing buffers are the ones the bottleneck has yet to
//!   push around the recycle loop;
//! * the stage with the most busy time is the **limiting stage**: its busy
//!   time lower-bounds the program's wall time no matter how the other
//!   stages are tuned;
//! * **overlap efficiency** compares that bound against the achieved wall
//!   time ([`Report::overlap_efficiency`]) — near 1.0 means the pipeline
//!   already hides every other stage behind the bottleneck;
//! * queue-depth gauge series from a
//!   [`Sampler`](crate::telemetry::Sampler) show which queues sat pinned
//!   at capacity (a backpressure boundary) and which buffer pools ran dry
//!   (an under-provisioned pipeline), findings a single end-of-run
//!   high-water mark cannot distinguish from a momentary spike.

use std::time::Duration;

use crate::stats::Report;
use crate::telemetry::TimestampedSnapshot;

/// A stage's dominant state over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageVerdict {
    /// Mostly doing its own work — a bottleneck candidate.
    Busy,
    /// Mostly blocked waiting to accept: its upstream cannot keep up.
    Starved,
    /// Mostly blocked by the stages after it — waiting to convey into a
    /// full queue, or (upstream of the limiting stage) waiting to accept a
    /// buffer the bottleneck has yet to release back into the recycle loop.
    Backpressured,
}

impl StageVerdict {
    /// Lowercase label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            StageVerdict::Busy => "busy",
            StageVerdict::Starved => "starved",
            StageVerdict::Backpressured => "backpressured",
        }
    }
}

/// Wall-time attribution for one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDiagnosis {
    /// Stage name from the [`Report`].  Replicated stages appear once
    /// under their base name, with the per-replica rows (`name#0`,
    /// `name#1`, …) rolled up.
    pub name: String,
    /// The stage's wall time (the slowest replica's, for a farm).
    pub wall: Duration,
    /// Fraction of wall spent doing its own work.  For a farm, fractions
    /// are taken against the summed replica wall, so two busy workers next
    /// to two idle ones read as 50% busy / 50% starved rather than four
    /// rows at the extremes.
    pub busy_frac: f64,
    /// Fraction of wall blocked in accept.
    pub starved_frac: f64,
    /// Fraction of wall blocked in convey.
    pub backpressured_frac: f64,
    /// The dominant of the three fractions.
    pub verdict: StageVerdict,
    /// Replica count: 1 for ordinary stages, `n` for a stage declared with
    /// `workers(n)` / `add_replicated_stage`.
    pub workers: usize,
}

/// Aggregate read-ahead effectiveness across every scheduled disk, folded
/// from the `disk/*/prefetch_hit` and `disk/*/prefetch_miss` counters in
/// the report's metrics snapshot.  Absent when no disk ran behind an I/O
/// scheduler (no such counters, or no reads at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchFinding {
    /// Reads served from a completed prefetch.
    pub hits: u64,
    /// Reads that went to the backend synchronously.
    pub misses: u64,
}

impl PrefetchFinding {
    /// Fraction of reads served from the prefetcher.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A queue-level finding from the depth-gauge time series.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueFinding {
    /// Queue name as wired (`p[0]`, `p[1]`, `in/read`, …).
    pub name: String,
    /// The queue's capacity.
    pub capacity: usize,
    /// Fraction of telemetry samples with the queue at capacity.
    pub full_frac: f64,
    /// Fraction of telemetry samples with the queue empty.
    pub empty_frac: f64,
}

/// Contention profile of one queue, folded from the
/// `core/queue_cas_retries/*`, `core/queue_*_parks/*`, and
/// `core/queue_items/*` counters the queue layer publishes.  Separates
/// "the queue itself is the fight" (CAS retries on the lock-free ring,
/// park storms) from "a stage is slow" (which shows up as depth pinning,
/// not retries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionFinding {
    /// Queue name as wired (`csort/in`, `p[0]`, `in/read`, …).
    pub name: String,
    /// Failed position CASes on the lock-free ring.
    pub cas_retries: u64,
    /// Producer condvar waits.
    pub push_parks: u64,
    /// Consumer condvar waits.
    pub pop_parks: u64,
    /// Slow-path notifications issued for advertised sleepers.
    pub wakes: u64,
    /// Successful pushes — the per-item denominator.
    pub items: u64,
}

impl ContentionFinding {
    /// CAS retries per successfully pushed item; zero when nothing flowed.
    pub fn retries_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.cas_retries as f64 / self.items as f64
        }
    }
}

/// Why [`diagnose`] raised a [`ResourceFinding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceFindingKind {
    /// Peak memory came within [`MEMORY_BOUND_FRAC`] of the configured
    /// ledger budget — the run is memory-bound, not compute-bound.
    MemoryBound,
    /// A stage allocated heap memory at a high rate in its steady state
    /// (tracked by [`FgAlloc`](crate::alloc::FgAlloc) when installed).
    AllocChurn,
    /// A thread was involuntarily descheduled at a high rate — more
    /// runnable threads than cores to run them on.
    Oversubscribed,
}

/// A resource-level observation from the run's [`ResourceReport`]
/// (per-thread CPU attribution, the tracking allocator, and the memory
/// ledger): memory pressure, allocation churn, or core oversubscription.
///
/// [`ResourceReport`]: crate::profile::ResourceReport
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceFinding {
    /// What class of problem this is.
    pub kind: ResourceFindingKind,
    /// What the finding is about: a stage name, a thread name, or
    /// `"process"` for whole-process findings.
    pub subject: String,
    /// Human-readable evidence with the numbers that triggered it.
    pub detail: String,
}

/// What [`diagnose`] concluded about a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Per-stage attribution, in the report's stage order.
    pub stages: Vec<StageDiagnosis>,
    /// Name of the limiting stage (most busy time among real pipeline
    /// stages), when any stage did work.
    pub limiting: Option<String>,
    /// [`Report::overlap_factor`]: total busy across stages over wall.
    pub overlap_factor: f64,
    /// [`Report::overlap_efficiency`]: the limiting stage's busy time over
    /// wall — 1.0 means the run was exactly as fast as its bottleneck.
    pub overlap_efficiency: f64,
    /// Queues that spent most of the sampled run pinned full or empty.
    pub queue_findings: Vec<QueueFinding>,
    /// Queues whose producers/consumers collided hard enough to matter
    /// (CAS-retry rate above [`CONTENTION_WARN`] with meaningful traffic),
    /// sorted by retry rate descending.
    pub contention: Vec<ContentionFinding>,
    /// Read-ahead effectiveness, when any disk ran behind an I/O scheduler.
    pub prefetch: Option<PrefetchFinding>,
    /// Per-round critical-path reconstruction, when flight-recorder logs
    /// were supplied (see [`diagnose_with_trace`]).
    pub critical_path: Option<crate::critical_path::CriticalPath>,
    /// Resource-level findings (memory-bound, allocation churn, core
    /// oversubscription), when the run carried a
    /// [`ResourceReport`](crate::profile::ResourceReport).
    pub resources: Vec<ResourceFinding>,
    /// Human-readable tuning recommendations, most important first.
    pub recommendations: Vec<String>,
}

/// A stage blocked (or busy) for more than this fraction of its wall time
/// is worth a recommendation.
pub(crate) const DOMINANT_FRAC: f64 = 0.5;

/// A queue pinned full/empty in more than this fraction of samples marks a
/// backpressure boundary / dry pool.
pub(crate) const PINNED_FRAC: f64 = 0.5;

/// Below this overlap efficiency the pipeline is leaving the bottleneck
/// idle — time is going somewhere other than the limiting stage.
const EFFICIENCY_WARN: f64 = 0.6;

/// Below this prefetch hit rate the I/O scheduler's read-ahead is not
/// keeping up with the read stream — most reads go cold to the backend.
pub(crate) const PREFETCH_WARN: f64 = 0.5;

/// A lock-free queue averaging more failed CASes than this per pushed item
/// is contended: producers/consumers are fighting over the ring's position
/// words rather than the data being slow to arrive.
pub(crate) const CONTENTION_WARN: f64 = 0.5;

/// Ignore contention on queues that moved fewer items than this — retry
/// rates over a handful of pushes are noise, not a bottleneck.
pub(crate) const CONTENTION_MIN_ITEMS: u64 = 100;

/// Peak memory above this fraction of a configured ledger budget means
/// the run is operating at the edge of its memory allowance: the next
/// buffer-count or record-size bump tips it over.
pub(crate) const MEMORY_BOUND_FRAC: f64 = 0.85;

/// A stage allocating faster than this in its steady state is churning
/// the heap inside the hot loop — the FG discipline is to preallocate
/// buffers up front and reuse scratch space across rounds.
pub(crate) const ALLOC_CHURN_PER_SEC: f64 = 1_000.0;

/// A thread involuntarily descheduled more often than this per second is
/// fighting other runnable threads for a core: the OS is time-slicing
/// where the plan assumed dedicated cores.
pub(crate) const OVERSUBSCRIBED_SWITCH_RATE: f64 = 500.0;

/// Whether `queue` holds a pipeline's free buffers: the input of the
/// pipeline's first stage, `<pipeline>[0]`, or `in/<stage>` when that
/// stage is virtual.
fn is_pool_queue(report: &Report, queue: &str) -> bool {
    report.pipelines.iter().any(|p| {
        queue.strip_suffix("[0]") == Some(p.name.as_str())
            || p.stages.first().map(|s| format!("in/{s}")).as_deref() == Some(queue)
    })
}

/// Metric-name prefix of the live per-stage busy counter (nanoseconds).
pub const STAGE_BUSY_PREFIX: &str = "core/stage_busy_ns/";
/// Metric-name prefix of the live per-stage blocked-accept counter.
pub const STAGE_STARVED_PREFIX: &str = "core/stage_blocked_accept_ns/";
/// Metric-name prefix of the live per-stage blocked-convey counter.
pub const STAGE_BACKPRESSURED_PREFIX: &str = "core/stage_blocked_convey_ns/";
/// Metric-name prefix of the live per-stage buffers-processed counter.
pub const STAGE_ROUNDS_PREFIX: &str = "core/stage_rounds/";
/// Metric-name prefix of the per-queue depth gauges.
pub const QUEUE_DEPTH_PREFIX: &str = "core/queue_depth/";
/// Metric-name prefix of the per-queue capacity gauges (set once at wire
/// time so windowed diagnosis can tell "full" without a [`Report`]).
pub const QUEUE_CAPACITY_PREFIX: &str = "core/queue_capacity/";
/// Metric-name prefix of the per-queue failed-CAS counters (lock-free
/// flavor only; each count is one producer/consumer collision on the
/// ring's position words).
pub const QUEUE_CAS_RETRY_PREFIX: &str = "core/queue_cas_retries/";
/// Metric-name prefix of the per-queue producer condvar-wait counters.
pub const QUEUE_PUSH_PARK_PREFIX: &str = "core/queue_push_parks/";
/// Metric-name prefix of the per-queue consumer condvar-wait counters.
pub const QUEUE_POP_PARK_PREFIX: &str = "core/queue_pop_parks/";
/// Metric-name prefix of the per-queue slow-path wake counters.
pub const QUEUE_WAKE_PREFIX: &str = "core/queue_wakes/";
/// Metric-name prefix of the per-queue successful-push counters — the
/// denominator that turns CAS retries into a per-item collision rate.
pub const QUEUE_ITEMS_PREFIX: &str = "core/queue_items/";

/// One stage's time attribution over some span (a whole run or a sliding
/// window), before fractions and verdicts are derived.  The shared input
/// to the verdict logic used by both [`diagnose`] and [`diagnose_window`].
struct Row {
    name: String,
    wall: Duration,
    busy: Duration,
    starved: Duration,
    backpressured: Duration,
    /// Denominator for the fractions: the summed replica wall for a
    /// farm, the stage's own wall otherwise.
    denom: Duration,
    workers: usize,
}

/// Derive per-stage fractions and verdicts from attribution rows — the
/// verdict core shared by end-of-run and windowed diagnosis.
fn stage_diagnoses(rows: &[Row]) -> Vec<StageDiagnosis> {
    rows.iter()
        .map(|r| {
            let denom = r.denom.as_secs_f64();
            let frac = |d: Duration| {
                if denom == 0.0 {
                    0.0
                } else {
                    (d.as_secs_f64() / denom).clamp(0.0, 1.0)
                }
            };
            let starved_frac = frac(r.starved);
            let backpressured_frac = frac(r.backpressured);
            let busy_frac = frac(r.busy);
            let verdict = if busy_frac >= starved_frac && busy_frac >= backpressured_frac {
                StageVerdict::Busy
            } else if starved_frac >= backpressured_frac {
                StageVerdict::Starved
            } else {
                StageVerdict::Backpressured
            };
            StageDiagnosis {
                name: r.name.clone(),
                wall: r.wall,
                busy_frac,
                starved_frac,
                backpressured_frac,
                verdict,
                workers: r.workers,
            }
        })
        .collect()
}

/// Name the limiting stage among attribution rows.  A farm's workers
/// overlap with each other, so its bound on wall time is the summed busy
/// divided by the worker count, not the sum itself.
fn limiting_stage(rows: &[Row]) -> Option<String> {
    rows.iter()
        .max_by_key(|r| r.busy / r.workers.max(1) as u32)
        .filter(|r| r.busy > Duration::ZERO)
        .map(|r| r.name.clone())
}

/// Attribute each stage's wall time, name the limiting stage, and read
/// backpressure boundaries out of the queue-depth time series.
///
/// `series` may be empty (no sampler attached): stage attribution and the
/// limiting stage still work from the report alone; only the queue
/// findings need the time series (the report's high-water marks cannot
/// tell "pinned at capacity" from "touched capacity once").
pub fn diagnose(report: &Report, series: &[TimestampedSnapshot]) -> Diagnosis {
    // Fold per-replica rows (`base#i`) into one farm row per base.  The
    // base must itself be a stage named in the report's pipeline topology,
    // so a user-chosen stage name that happens to contain `#` is never
    // misread as a replica of something else.
    let topo: std::collections::HashSet<&str> = report
        .pipelines
        .iter()
        .flat_map(|p| p.stages.iter().map(String::as_str))
        .collect();
    fn replica_base<'a>(name: &'a str, topo: &std::collections::HashSet<&str>) -> Option<&'a str> {
        let (base, idx) = name.rsplit_once('#')?;
        (!idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) && topo.contains(base))
            .then_some(base)
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    for s in &report.stages {
        match replica_base(&s.name, &topo) {
            Some(base) => {
                if !seen.insert(base.to_string()) {
                    continue;
                }
                let mut row = Row {
                    name: base.to_string(),
                    wall: Duration::ZERO,
                    busy: Duration::ZERO,
                    starved: Duration::ZERO,
                    backpressured: Duration::ZERO,
                    denom: Duration::ZERO,
                    workers: 0,
                };
                for r in report
                    .stages
                    .iter()
                    .filter(|r| replica_base(&r.name, &topo) == Some(base))
                {
                    row.workers += 1;
                    row.wall = row.wall.max(r.wall);
                    row.busy += r.busy();
                    row.starved += r.blocked_accept;
                    row.backpressured += r.blocked_convey;
                    row.denom += r.wall;
                }
                rows.push(row);
            }
            None => rows.push(Row {
                name: s.name.clone(),
                wall: s.wall,
                busy: s.busy(),
                starved: s.blocked_accept,
                backpressured: s.blocked_convey,
                denom: s.wall,
                workers: 1,
            }),
        }
    }

    let mut stages: Vec<StageDiagnosis> = stage_diagnoses(&rows);
    let limiting = limiting_stage(&rows);

    // A starved stage upstream of the limiting stage in the same chain is
    // effectively backpressured: FG provisions every queue above the buffer
    // pool size, so congestion at the bottleneck never fills a queue — it
    // drains the recycle loop instead, and the shortage surfaces upstream
    // as blocked accepts.  Reattribute those so the verdict names the
    // cause, not the symptom.
    if let Some(lim) = &limiting {
        for chain in &report.pipelines {
            let Some(pos) = chain.stages.iter().position(|s| s == lim) else {
                continue;
            };
            for name in &chain.stages[..pos] {
                if let Some(d) = stages.iter_mut().find(|d| &d.name == name) {
                    if d.verdict == StageVerdict::Starved {
                        d.verdict = StageVerdict::Backpressured;
                    }
                }
            }
        }
    }

    let queue_findings = queue_findings(report, series);
    let contention = contention_findings(report);
    let prefetch = prefetch_finding(report);
    let resources = resource_findings(report);

    let mut recommendations = Vec::new();
    if let Some(name) = &limiting {
        let d = stages
            .iter()
            .find(|d| &d.name == name)
            .expect("limiting stage is in stages");
        // Where the limiting stage physically ran, when the run was pinned
        // — lets the reader connect "this stage bounds the run" with the
        // core layout they asked for.
        let placement = report
            .stage(name)
            .and_then(|s| s.core)
            .map(|c| format!(" (pinned to core {c})"))
            .unwrap_or_default();
        if d.workers > 1 {
            recommendations.push(format!(
                "stage `{name}`{placement} is the limiting stage (busy {:.0}% across its {} workers): \
                 raise its worker count (`workers({})`), split it into substages, or \
                 reduce its per-buffer work",
                d.busy_frac * 100.0,
                d.workers,
                d.workers * 2
            ));
        } else {
            recommendations.push(format!(
                "stage `{name}`{placement} is the limiting stage (busy {:.0}% of its wall time): \
                 its busy time bounds the whole pipeline — farm it across replicas \
                 (`workers(n)`), split it into substages, or reduce its per-buffer work",
                d.busy_frac * 100.0
            ));
        }
    }
    for d in &stages {
        if Some(&d.name) == limiting.as_ref() {
            continue;
        }
        if d.backpressured_frac > DOMINANT_FRAC {
            recommendations.push(format!(
                "stage `{}` is backpressured {:.0}% of its wall time — its downstream \
                 cannot keep up; widen the downstream queue or speed up (split) the \
                 stage after it",
                d.name,
                d.backpressured_frac * 100.0
            ));
        } else if d.verdict == StageVerdict::Backpressured && d.starved_frac > DOMINANT_FRAC {
            recommendations.push(format!(
                "stage `{}` is upstream of the limiting stage and blocked {:.0}% of \
                 its wall time waiting for buffers the bottleneck has yet to recycle — \
                 speeding up the limiting stage or adding buffers to the pipeline \
                 would unblock it",
                d.name,
                d.starved_frac * 100.0
            ));
        } else if d.starved_frac > DOMINANT_FRAC {
            recommendations.push(format!(
                "stage `{}` is starved {:.0}% of its wall time — its upstream cannot \
                 keep up; this is expected downstream of the limiting stage",
                d.name,
                d.starved_frac * 100.0
            ));
        }
    }
    for q in &queue_findings {
        if q.full_frac > PINNED_FRAC {
            recommendations.push(format!(
                "queue `{}` sat at capacity ({}) in {:.0}% of samples — a backpressure \
                 boundary; its consumer is the local bottleneck",
                q.name,
                q.capacity,
                q.full_frac * 100.0
            ));
        }
        if q.empty_frac > PINNED_FRAC && is_pool_queue(report, &q.name) {
            recommendations.push(format!(
                "pool queue `{}` was empty in {:.0}% of samples — every buffer was \
                 in flight; the pool may be under-provisioned (add buffers to the \
                 pipeline)",
                q.name,
                q.empty_frac * 100.0
            ));
        }
    }
    for c in &contention {
        let pinned = report.stages.iter().any(|s| s.core.is_some());
        recommendations.push(format!(
            "queue `{}` is contended, not its stages busy: {} CAS retries over {} \
             pushes (~{:.1} per item), {} producer and {} consumer parks — the \
             threads are fighting over the queue itself{}",
            c.name,
            c.cas_retries,
            c.items,
            c.retries_per_item(),
            c.push_parks,
            c.pop_parks,
            if pinned {
                "; the run was already pinned, so reduce the number of threads \
                 sharing this queue or batch more work per buffer"
            } else {
                "; pin stage threads to distinct cores (`--pin` / \
                 `Program::set_pinning`) to stop the cache line ping-ponging"
            }
        ));
    }
    if let Some(p) = &prefetch {
        if p.hit_rate() < PREFETCH_WARN {
            recommendations.push(format!(
                "disk read-ahead hit rate is {:.0}% ({} of {} reads went cold to the \
                 backend): the prefetcher is not staying ahead of the read stream — \
                 raise the I/O scheduler depth (`--io-depth`) or check that reads are \
                 sequential within each file",
                p.hit_rate() * 100.0,
                p.misses,
                p.hits + p.misses
            ));
        }
    }
    for f in &resources {
        match f.kind {
            ResourceFindingKind::MemoryBound => recommendations.push(format!(
                "{} — the run is memory-bound: raise the budget (`--mem-budget`) \
                 or reduce the buffer count / buffer size so the working set fits",
                f.detail
            )),
            ResourceFindingKind::AllocChurn => recommendations.push(format!(
                "{} — the hot loop is churning the heap: preallocate scratch \
                 space once per replica and reuse it across rounds",
                f.detail
            )),
            ResourceFindingKind::Oversubscribed => recommendations.push(format!(
                "{} — more runnable threads than cores: reduce `--workers`, or \
                 pin stages to distinct cores (`--pin` / `Program::set_pinning`) \
                 so the scheduler stops migrating them",
                f.detail
            )),
        }
    }
    let overlap_efficiency = report.overlap_efficiency();
    if limiting.is_some() && overlap_efficiency < EFFICIENCY_WARN {
        recommendations.push(format!(
            "overlap efficiency is {:.0}%: wall time is {:.1}x the limiting stage's \
             busy time, so stages are waiting on each other rather than overlapping — \
             check the queue findings above and the per-pipeline buffer counts",
            overlap_efficiency * 100.0,
            if overlap_efficiency > 0.0 {
                1.0 / overlap_efficiency
            } else {
                f64::INFINITY
            }
        ));
    }

    Diagnosis {
        stages,
        limiting,
        overlap_factor: report.overlap_factor(),
        overlap_efficiency,
        queue_findings,
        contention,
        prefetch,
        critical_path: None,
        resources,
        recommendations,
    }
}

/// [`diagnose`], sharpened with flight-recorder span logs: reconstructs
/// each traced buffer's round timeline
/// ([`critical_path`](crate::critical_path::critical_path)) and adds
/// findings that cite **concrete rounds** — the slowest buffer journey
/// and the stage whose spans dominate it — instead of run-wide averages.
///
/// `logs` is what [`TraceSink::collect`](crate::trace::TraceSink::collect)
/// returns after a run.  With no traced rounds in the logs, the result is
/// identical to [`diagnose`].
pub fn diagnose_with_trace(
    report: &Report,
    series: &[TimestampedSnapshot],
    logs: &[crate::trace::ThreadLog],
) -> Diagnosis {
    let mut d = diagnose(report, series);
    let cp = crate::critical_path::critical_path(logs);
    if cp.rounds.is_empty() {
        return d;
    }
    if let Some(slow) = cp.slowest_round() {
        if let Some((stage, ns)) = slow.dominant() {
            d.recommendations.push(format!(
                "critical path ({} traced rounds): the slowest buffer journey is \
                 pipeline#{} round {} at {:.3} ms, {:.3} ms of it in stage `{}` \
                 ({:.3} ms queued) — profile that round first",
                cp.rounds.len(),
                slow.pipeline,
                slow.round,
                slow.dur_ns() as f64 / 1e6,
                ns as f64 / 1e6,
                stage,
                slow.queued_ns() as f64 / 1e6
            ));
        }
    }
    if let Some(stage) = cp.dominant_stage() {
        let ns = cp.stage_totals[0].1;
        let pct = if cp.total_ns == 0 {
            0.0
        } else {
            ns as f64 / cp.total_ns as f64 * 100.0
        };
        // Only worth a line when one stage really owns the path.
        if pct > DOMINANT_FRAC * 100.0 {
            d.recommendations.push(format!(
                "stage `{stage}` carries {pct:.0}% of the end-to-end critical path \
                 across the traced rounds — per-round evidence agreeing with (or \
                 overriding) the busy-time averages above"
            ));
        }
    }
    d.critical_path = Some(cp);
    d
}

/// What [`diagnose_window`] concluded about a sliding window of telemetry
/// samples taken *during* a run — the live counterpart of [`Diagnosis`],
/// built from counter deltas instead of a finished [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDiagnosis {
    /// The window's span (last sample's elapsed minus the first's).
    pub window: Duration,
    /// Per-stage attribution over the window.  Farm rows are folded under
    /// their base name; `workers` counts the replicas that showed any
    /// activity in the window (the farm's *active* width).
    pub stages: Vec<StageDiagnosis>,
    /// The limiting stage within the window, by the same busy-per-worker
    /// rule as [`diagnose`].
    pub limiting: Option<String>,
    /// Queues pinned full/empty across the window's samples (capacities
    /// read from the `core/queue_capacity/*` gauges).
    pub queue_findings: Vec<QueueFinding>,
    /// Read-ahead effectiveness over the window (hit/miss deltas).
    pub prefetch: Option<PrefetchFinding>,
    /// Buffers per second through the fastest stage in the window — the
    /// controller's "is it going faster now?" yardstick.
    pub throughput: f64,
    /// Per-stage buffer counts over the window (farm rows folded).
    pub stage_rounds: Vec<(String, u64)>,
}

/// The verdict half of [`diagnose`], run on a **sliding window** of
/// [`TimestampedSnapshot`]s mid-run: stage attribution and the limiting
/// stage come from deltas of the live `core/stage_*` counters between the
/// window's first and last samples, queue findings from the depth gauges
/// across the window, and prefetch effectiveness from hit/miss deltas.
///
/// Returns `None` when the window holds fewer than two samples or spans
/// zero time.  Replica rows (`base#i`) are folded by name; because the
/// live counters carry no topology, the fold applies to any numeric `#`
/// suffix shared by two or more stages (or idle farms parked to width 1).
pub fn diagnose_window(window: &[TimestampedSnapshot]) -> Option<WindowDiagnosis> {
    let first = window.first()?;
    let last = window.last()?;
    let span = last.elapsed.checked_sub(first.elapsed)?;
    if span.is_zero() || window.len() < 2 {
        return None;
    }

    let delta = |name: &str| -> u64 {
        let a = first.snapshot.counter(name).unwrap_or(0);
        let b = last.snapshot.counter(name).unwrap_or(0);
        b.saturating_sub(a)
    };

    // Every stage that has published a busy counter by the window's end.
    let names: Vec<String> = last
        .snapshot
        .counters
        .iter()
        .filter_map(|(n, _)| n.strip_prefix(STAGE_BUSY_PREFIX))
        .map(str::to_string)
        .collect();

    // Fold `base#i` replicas.  Without a Report there is no topology to
    // check the base against; fold any group of stages sharing a base with
    // a numeric suffix (farms always name replicas this way).
    fn base_of(name: &str) -> Option<&str> {
        let (base, idx) = name.rsplit_once('#')?;
        (!base.is_empty() && !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()))
            .then_some(base)
    }
    let mut grouped: Vec<(String, Vec<&str>)> = Vec::new();
    for n in &names {
        let key = base_of(n).unwrap_or(n).to_string();
        match grouped.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(n),
            None => grouped.push((key, vec![n])),
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut stage_rounds: Vec<(String, u64)> = Vec::new();
    for (key, members) in &grouped {
        let mut busy = 0u64;
        let mut starved = 0u64;
        let mut backp = 0u64;
        let mut rounds = 0u64;
        let mut active = 0usize;
        for m in members {
            let b = delta(&format!("{STAGE_BUSY_PREFIX}{m}"));
            let s = delta(&format!("{STAGE_STARVED_PREFIX}{m}"));
            let c = delta(&format!("{STAGE_BACKPRESSURED_PREFIX}{m}"));
            rounds += delta(&format!("{STAGE_ROUNDS_PREFIX}{m}"));
            if b + s + c > 0 {
                active += 1;
            }
            busy += b;
            starved += s;
            backp += c;
        }
        let workers = if members.len() > 1 { active.max(1) } else { 1 };
        rows.push(Row {
            name: key.clone(),
            wall: span,
            busy: Duration::from_nanos(busy),
            starved: Duration::from_nanos(starved),
            backpressured: Duration::from_nanos(backp),
            denom: span * workers as u32,
            workers,
        });
        stage_rounds.push((key.clone(), rounds));
    }

    let stages = stage_diagnoses(&rows);
    let limiting = limiting_stage(&rows);

    // Queue findings across the window, capacities from the wire-time
    // capacity gauges.
    let queue_findings: Vec<QueueFinding> = last
        .snapshot
        .gauges
        .iter()
        .filter_map(|(name, cap)| {
            let qname = name.strip_prefix(QUEUE_CAPACITY_PREFIX)?;
            let capacity = cap.value as usize;
            if capacity == 0 {
                return None;
            }
            let depth_name = format!("{QUEUE_DEPTH_PREFIX}{qname}");
            let mut samples = 0u64;
            let mut full = 0u64;
            let mut empty = 0u64;
            for point in window {
                let Some(g) = point.snapshot.gauge(&depth_name) else {
                    continue;
                };
                samples += 1;
                if g.value as usize >= capacity {
                    full += 1;
                }
                if g.value == 0 {
                    empty += 1;
                }
            }
            (samples > 0).then(|| QueueFinding {
                name: qname.to_string(),
                capacity,
                full_frac: full as f64 / samples as f64,
                empty_frac: empty as f64 / samples as f64,
            })
        })
        .collect();

    // Prefetch hit/miss deltas across every scheduled disk.
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut seen = false;
    for (name, _) in &last.snapshot.counters {
        if !name.starts_with("disk/") {
            continue;
        }
        if name.ends_with("/prefetch_hit") {
            hits += delta(name);
            seen = true;
        } else if name.ends_with("/prefetch_miss") {
            misses += delta(name);
            seen = true;
        }
    }
    let prefetch = (seen && hits + misses > 0).then_some(PrefetchFinding { hits, misses });

    let throughput = stage_rounds
        .iter()
        .map(|(_, r)| *r as f64 / span.as_secs_f64())
        .fold(0.0, f64::max);

    Some(WindowDiagnosis {
        window: span,
        stages,
        limiting,
        queue_findings,
        prefetch,
        throughput,
        stage_rounds,
    })
}

impl WindowDiagnosis {
    /// The window row for `name`, if present.
    pub fn stage(&self, name: &str) -> Option<&StageDiagnosis> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Buffers conveyed by stage `name` over the window.
    pub fn rounds(&self, name: &str) -> u64 {
        self.stage_rounds
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| *r)
            .unwrap_or(0)
    }
}

/// Fold the per-disk `disk/*/prefetch_hit` / `disk/*/prefetch_miss`
/// counters into one cluster-wide [`PrefetchFinding`].
fn prefetch_finding(report: &Report) -> Option<PrefetchFinding> {
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut seen = false;
    for (name, v) in &report.metrics.counters {
        if !name.starts_with("disk/") {
            continue;
        }
        if name.ends_with("/prefetch_hit") {
            hits += v;
            seen = true;
        } else if name.ends_with("/prefetch_miss") {
            misses += v;
            seen = true;
        }
    }
    (seen && hits + misses > 0).then_some(PrefetchFinding { hits, misses })
}

/// Fold the per-queue contention counters into [`ContentionFinding`]s for
/// every queue whose CAS-retry rate crosses [`CONTENTION_WARN`] with at
/// least [`CONTENTION_MIN_ITEMS`] items of traffic, sorted worst first.
fn contention_findings(report: &Report) -> Vec<ContentionFinding> {
    let counter = |prefix: &str, name: &str| {
        report
            .metrics
            .counter(&format!("{prefix}{name}"))
            .unwrap_or(0)
    };
    let mut findings: Vec<ContentionFinding> = report
        .queues
        .iter()
        .filter_map(|q| {
            let f = ContentionFinding {
                name: q.name.clone(),
                cas_retries: counter(QUEUE_CAS_RETRY_PREFIX, &q.name),
                push_parks: counter(QUEUE_PUSH_PARK_PREFIX, &q.name),
                pop_parks: counter(QUEUE_POP_PARK_PREFIX, &q.name),
                wakes: counter(QUEUE_WAKE_PREFIX, &q.name),
                items: counter(QUEUE_ITEMS_PREFIX, &q.name),
            };
            (f.items >= CONTENTION_MIN_ITEMS && f.retries_per_item() >= CONTENTION_WARN)
                .then_some(f)
        })
        .collect();
    findings.sort_by(|a, b| {
        b.retries_per_item()
            .partial_cmp(&a.retries_per_item())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    findings
}

/// Fold the `core/queue_depth/<name>` gauge series into per-queue
/// full/empty fractions, matched against the report's queue capacities.
fn queue_findings(report: &Report, series: &[TimestampedSnapshot]) -> Vec<QueueFinding> {
    if series.is_empty() {
        return Vec::new();
    }
    report
        .queues
        .iter()
        .filter(|q| q.capacity > 0)
        .filter_map(|q| {
            let gauge_name = format!("core/queue_depth/{}", q.name);
            let mut samples = 0u64;
            let mut full = 0u64;
            let mut empty = 0u64;
            for point in series {
                let Some(g) = point.snapshot.gauge(&gauge_name) else {
                    continue;
                };
                samples += 1;
                if g.value as usize >= q.capacity {
                    full += 1;
                }
                if g.value == 0 {
                    empty += 1;
                }
            }
            (samples > 0).then(|| QueueFinding {
                name: q.name.clone(),
                capacity: q.capacity,
                full_frac: full as f64 / samples as f64,
                empty_frac: empty as f64 / samples as f64,
            })
        })
        .collect()
}

/// Resource-level findings from the run's [`ResourceReport`]: memory
/// pressure against the ledger budget, steady-state allocation churn
/// (warmup-tagged and assertion-scoped counts are excluded), and
/// involuntary-context-switch storms.  Empty when the run carried no
/// resource data — the profiler is opt-in and degrades to silence.
///
/// [`ResourceReport`]: crate::profile::ResourceReport
fn resource_findings(report: &Report) -> Vec<ResourceFinding> {
    let Some(res) = report
        .resources
        .clone()
        .or_else(|| crate::profile::ResourceReport::from_metrics(&report.metrics))
    else {
        return Vec::new();
    };
    let wall = report.wall.as_secs_f64();
    let mut findings = Vec::new();
    if let Some(ledger) = &res.ledger {
        if ledger.budget_bytes > 0 {
            // Whichever peak is larger: process RSS (everything) or the
            // ledger's own accounting (pool buffers only).  RSS can be
            // zero when /proc was unreadable.
            let used = res.rss_peak_bytes.max(ledger.peak_bytes);
            let frac = used as f64 / ledger.budget_bytes as f64;
            if frac >= MEMORY_BOUND_FRAC {
                findings.push(ResourceFinding {
                    kind: ResourceFindingKind::MemoryBound,
                    subject: "process".into(),
                    detail: format!(
                        "peak memory {:.1} MiB is {:.0}% of the {:.1} MiB budget",
                        used as f64 / (1 << 20) as f64,
                        frac * 100.0,
                        ledger.budget_bytes as f64 / (1 << 20) as f64
                    ),
                });
            }
        }
    }
    if res.alloc_tracking && wall > 0.0 {
        for a in &res.alloc {
            // Warmup-tagged counts are first-call setup by design, and
            // `assert/…` tags belong to explicit steady-state assertions.
            if a.stage.starts_with("assert/") || a.stage.ends_with("/warmup") {
                continue;
            }
            let rate = a.allocs as f64 / wall;
            if rate >= ALLOC_CHURN_PER_SEC {
                findings.push(ResourceFinding {
                    kind: ResourceFindingKind::AllocChurn,
                    subject: a.stage.clone(),
                    detail: format!(
                        "stage `{}` made {} heap allocations ({} bytes) in steady \
                         state (~{:.0} allocs/s)",
                        a.stage, a.allocs, a.bytes, rate
                    ),
                });
            }
        }
    }
    if wall > 0.0 {
        for t in &res.threads {
            let rate = t.invol_switches as f64 / wall;
            if rate >= OVERSUBSCRIBED_SWITCH_RATE {
                findings.push(ResourceFinding {
                    kind: ResourceFindingKind::Oversubscribed,
                    subject: t.name.clone(),
                    detail: format!(
                        "thread `{}` was involuntarily switched out {} times \
                         (~{:.0}/s)",
                        t.name, t.invol_switches, rate
                    ),
                });
            }
        }
    }
    findings
}

impl Diagnosis {
    /// Render the diagnosis as text: a stage-attribution table, the
    /// limiting stage and overlap numbers, pinned queues, and the
    /// recommendation list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== diagnosis ==\n");
        let display = |s: &StageDiagnosis| {
            if s.workers > 1 {
                format!("{} x{}", s.name, s.workers)
            } else {
                s.name.clone()
            }
        };
        let name_w = self
            .stages
            .iter()
            .map(|s| display(s).len())
            .max()
            .unwrap_or(5)
            .max(5);
        out.push_str(&format!(
            "{:<name_w$} {:>7} {:>8} {:>8} {:>6}  verdict\n",
            "stage", "busy%", "starve%", "backp%", "wall s"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<name_w$} {:>6.0}% {:>7.0}% {:>7.0}% {:>6.3}  {}\n",
                display(s),
                s.busy_frac * 100.0,
                s.starved_frac * 100.0,
                s.backpressured_frac * 100.0,
                s.wall.as_secs_f64(),
                s.verdict.label()
            ));
        }
        match &self.limiting {
            Some(name) => out.push_str(&format!(
                "limiting stage: `{name}`, overlap factor {:.2}, overlap efficiency {:.0}%\n",
                self.overlap_factor,
                self.overlap_efficiency * 100.0
            )),
            None => out.push_str("no stage did measurable work\n"),
        }
        if let Some(p) = &self.prefetch {
            out.push_str(&format!(
                "disk read-ahead: {:.0}% hit rate ({} hits, {} misses)\n",
                p.hit_rate() * 100.0,
                p.hits,
                p.misses
            ));
        }
        for q in &self.queue_findings {
            if q.full_frac > PINNED_FRAC || q.empty_frac > PINNED_FRAC {
                out.push_str(&format!(
                    "queue {:<12} cap {:>3}  full {:>3.0}%  empty {:>3.0}% of samples\n",
                    q.name,
                    q.capacity,
                    q.full_frac * 100.0,
                    q.empty_frac * 100.0
                ));
            }
        }
        for c in &self.contention {
            out.push_str(&format!(
                "queue {:<12} contended: {:.1} CAS retries/item ({} over {} pushes), \
                 parks {}+{}\n",
                c.name,
                c.retries_per_item(),
                c.cas_retries,
                c.items,
                c.push_parks,
                c.pop_parks
            ));
        }
        for f in &self.resources {
            let label = match f.kind {
                ResourceFindingKind::MemoryBound => "memory-bound",
                ResourceFindingKind::AllocChurn => "alloc churn",
                ResourceFindingKind::Oversubscribed => "oversubscribed",
            };
            out.push_str(&format!("resource [{label}]: {}\n", f.detail));
        }
        if !self.recommendations.is_empty() {
            out.push_str("recommendations:\n");
            for r in &self.recommendations {
                out.push_str(&format!("  - {r}\n"));
            }
        }
        if let Some(cp) = &self.critical_path {
            out.push_str(&cp.render());
        }
        out
    }
}

/// A rank's wall time must exceed the cluster mean by this ratio to be
/// called a straggler.
pub(crate) const STRAGGLER_RATIO: f64 = 1.25;

/// A rank must receive this many times the mean bytes to be called the hot
/// rank of a skewed exchange.
pub(crate) const SKEW_RATIO: f64 = 1.5;

/// A rank spending more than this fraction of its wall time inside
/// communicator operations is comm-bound.
pub(crate) const COMM_BOUND_FRAC: f64 = 0.5;

/// One rank's attribution inside a [`ClusterDiagnosis`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankVerdict {
    /// The rank.
    pub rank: usize,
    /// The rank's node-function wall time.
    pub wall: Duration,
    /// Total stage busy time across the rank's FG programs.
    pub busy: Duration,
    /// Time inside communicator operations (user sends, blocked receives,
    /// collectives), ns.
    pub comm_ns: u64,
    /// Of [`RankVerdict::comm_ns`], time blocked in `recv` — waiting on a
    /// peer rather than moving bytes.
    pub recv_wait_ns: u64,
    /// Bytes this rank sent (traffic-matrix row sum).
    pub bytes_sent: u64,
    /// Bytes this rank received (traffic-matrix column sum).
    pub bytes_recv: u64,
    /// Whether communication dominates the rank's wall time
    /// (`comm_ns > `[`COMM_BOUND_FRAC`]` * wall`).
    pub comm_bound: bool,
}

/// What [`diagnose_cluster`] concluded about a cluster run: which rank (if
/// any) drags the run, whether the exchange pattern is skewed, and whether
/// ranks are comm- or compute-bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDiagnosis {
    /// Per-rank attribution, in rank order.
    pub ranks: Vec<RankVerdict>,
    /// The straggler rank, when one rank's wall time exceeds the mean by
    /// [`STRAGGLER_RATIO`] — the whole run ends when it does.
    pub straggler: Option<usize>,
    /// The hot rank of a skewed exchange, when one rank receives more than
    /// [`SKEW_RATIO`] times the mean bytes.
    pub hot_rank: Option<usize>,
    /// Human-readable findings, most important first.
    pub recommendations: Vec<String>,
}

/// Diagnose a cluster run from its merged [`ClusterReport`]: straggler
/// detection from per-rank wall imbalance, exchange skew from the traffic
/// matrix, and comm-bound vs compute-bound attribution per rank.
pub fn diagnose_cluster(report: &crate::cluster_report::ClusterReport) -> ClusterDiagnosis {
    let sent = report.bytes_sent();
    let recv = report.bytes_received();
    let ranks: Vec<RankVerdict> = report
        .ranks
        .iter()
        .map(|r| {
            let recv_wait_ns = r.recv_wait_ns();
            let comm_ns = r.send_ns() + recv_wait_ns + r.collective_ns();
            RankVerdict {
                rank: r.rank,
                wall: r.wall,
                busy: r.busy(),
                comm_ns,
                recv_wait_ns,
                bytes_sent: sent.get(r.rank).copied().unwrap_or(0),
                bytes_recv: recv.get(r.rank).copied().unwrap_or(0),
                comm_bound: comm_ns as f64 > COMM_BOUND_FRAC * r.wall.as_nanos() as f64,
            }
        })
        .collect();
    let mut recommendations = Vec::new();

    // Straggler: the run ends when the slowest rank does, so one rank with
    // outsized wall time caps the whole cluster.
    let straggler = argmax_over_mean(
        ranks.iter().map(|r| r.wall.as_nanos() as f64),
        STRAGGLER_RATIO,
    )
    .map(|i| ranks[i].rank);
    if let Some(rank) = straggler {
        let v = ranks.iter().find(|r| r.rank == rank).unwrap();
        let mean = ranks.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>() / ranks.len() as f64;
        recommendations.push(format!(
            "rank {rank} is a straggler: its wall time ({:.3}s) is {:.1}x the cluster \
             mean ({mean:.3}s) — every other rank waits for it at the next collective",
            v.wall.as_secs_f64(),
            v.wall.as_secs_f64() / mean.max(f64::MIN_POSITIVE),
        ));
    }

    // Exchange skew: one rank receiving an outsized share of the bytes.
    let hot_rank = argmax_over_mean(ranks.iter().map(|r| r.bytes_recv as f64), SKEW_RATIO)
        .map(|i| ranks[i].rank);
    if let Some(rank) = hot_rank {
        let v = ranks.iter().find(|r| r.rank == rank).unwrap();
        let mean = ranks.iter().map(|r| r.bytes_recv as f64).sum::<f64>() / ranks.len() as f64;
        recommendations.push(format!(
            "the exchange is skewed: rank {rank} receives {} — {:.1}x the mean — so its \
             receive pipeline (and the senders blocked on it) governs the exchange; \
             rebalance the partition (e.g. sample splitters from more data) or give \
             rank {rank}'s receive pipeline more buffers",
            crate::cluster_report::fmt_bytes(v.bytes_recv),
            v.bytes_recv as f64 / mean.max(f64::MIN_POSITIVE),
        ));
    }

    // Comm- vs compute-bound attribution.
    let comm_bound: Vec<usize> = ranks
        .iter()
        .filter(|r| r.comm_bound)
        .map(|r| r.rank)
        .collect();
    if !comm_bound.is_empty() && comm_bound.len() < ranks.len() {
        for &rank in &comm_bound {
            let v = ranks.iter().find(|r| r.rank == rank).unwrap();
            let wait_frac = if v.comm_ns > 0 {
                v.recv_wait_ns as f64 / v.comm_ns as f64
            } else {
                0.0
            };
            if wait_frac > 0.5 {
                recommendations.push(format!(
                    "rank {rank} is comm-bound and mostly *waiting* ({:.0}% of its comm \
                     time is blocked receives): it is starved by a slow or overloaded \
                     peer, not by its own traffic",
                    wait_frac * 100.0
                ));
            } else {
                recommendations.push(format!(
                    "rank {rank} is comm-bound ({:.0}% of wall inside communicator \
                     operations): overlap the exchange with compute by splitting \
                     send/receive into disjoint pipelines",
                    100.0 * v.comm_ns as f64 / (v.wall.as_nanos() as f64).max(1.0)
                ));
            }
        }
    } else if !ranks.is_empty() && comm_bound.len() == ranks.len() {
        recommendations.push(
            "every rank is comm-bound: the interconnect (or the exchange pattern) limits \
             the run — reduce bytes on the wire or raise effective bandwidth before \
             tuning pipelines"
                .into(),
        );
    }
    if straggler.is_none() && hot_rank.is_none() && comm_bound.is_empty() && ranks.len() > 1 {
        recommendations.push(
            "the cluster is balanced and compute-bound: per-rank pipeline tuning (see \
             per-rank diagnoses) is the next lever"
                .into(),
        );
    }

    ClusterDiagnosis {
        ranks,
        straggler,
        hot_rank,
        recommendations,
    }
}

/// Index of the maximum of `vals` when it exceeds `ratio` times the mean;
/// `None` for empty/degenerate inputs or a balanced distribution.
fn argmax_over_mean(vals: impl Iterator<Item = f64>, ratio: f64) -> Option<usize> {
    let vals: Vec<f64> = vals.collect();
    if vals.len() < 2 {
        return None;
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    if mean <= 0.0 {
        return None;
    }
    let (i, &max) = vals.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
    (max > ratio * mean).then_some(i)
}

impl ClusterDiagnosis {
    /// Render the cluster diagnosis as text: a per-rank attribution table
    /// and the recommendation list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== cluster diagnosis ==\n");
        out.push_str(&format!(
            "{:<6} {:>8} {:>8} {:>7} {:>10} {:>10}  verdict\n",
            "rank", "wall s", "busy s", "comm%", "sent", "recv"
        ));
        for v in &self.ranks {
            let comm_frac = if v.wall.as_nanos() > 0 {
                v.comm_ns as f64 / v.wall.as_nanos() as f64
            } else {
                0.0
            };
            let mut verdict = if v.comm_bound {
                "comm-bound"
            } else {
                "compute-bound"
            }
            .to_string();
            if self.straggler == Some(v.rank) {
                verdict.push_str(", straggler");
            }
            if self.hot_rank == Some(v.rank) {
                verdict.push_str(", hot");
            }
            out.push_str(&format!(
                "{:<6} {:>8.3} {:>8.3} {:>6.0}% {:>10} {:>10}  {}\n",
                format!("r{}", v.rank),
                v.wall.as_secs_f64(),
                v.busy.as_secs_f64(),
                comm_frac * 100.0,
                crate::cluster_report::fmt_bytes(v.bytes_sent),
                crate::cluster_report::fmt_bytes(v.bytes_recv),
                verdict,
            ));
        }
        if !self.recommendations.is_empty() {
            out.push_str("recommendations:\n");
            for r in &self.recommendations {
                out.push_str(&format!("  - {r}\n"));
            }
        }
        out
    }

    /// The diagnosis as a [`Json`] value (the `hot_rank` / `straggler`
    /// fields are what CI gates assert against).
    pub fn to_json_value(&self) -> crate::json::Json {
        use crate::json::{obj, Json};
        let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
        obj(vec![
            (
                "ranks",
                Json::Arr(
                    self.ranks
                        .iter()
                        .map(|v| {
                            obj(vec![
                                ("rank", Json::from(v.rank)),
                                ("wall_ns", Json::from(v.wall.as_nanos() as u64)),
                                ("busy_ns", Json::from(v.busy.as_nanos() as u64)),
                                ("comm_ns", Json::from(v.comm_ns)),
                                ("recv_wait_ns", Json::from(v.recv_wait_ns)),
                                ("bytes_sent", Json::from(v.bytes_sent)),
                                ("bytes_recv", Json::from(v.bytes_recv)),
                                ("comm_bound", Json::Bool(v.comm_bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("straggler", opt(self.straggler)),
            ("hot_rank", opt(self.hot_rank)),
            (
                "recommendations",
                Json::Arr(
                    self.recommendations
                        .iter()
                        .map(|r| Json::from(r.as_str()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StageStats;

    fn stage(name: &str, wall_ms: u64, acc_ms: u64, conv_ms: u64) -> StageStats {
        StageStats {
            name: name.into(),
            wall: Duration::from_millis(wall_ms),
            blocked_accept: Duration::from_millis(acc_ms),
            blocked_convey: Duration::from_millis(conv_ms),
            buffers_in: 1,
            buffers_out: 1,
            ..StageStats::default()
        }
    }

    fn report() -> Report {
        Report {
            wall: Duration::from_millis(100),
            stages: vec![
                stage("fast-up", 100, 5, 80),   // backpressured by the slow stage
                stage("slow", 100, 5, 5),       // the bottleneck
                stage("fast-down", 100, 80, 5), // starved behind it
            ],
            threads_spawned: 3,
            ..Report::default()
        }
    }

    #[test]
    fn names_busy_stage_as_limiting_and_attributes_neighbors() {
        let d = diagnose(&report(), &[]);
        assert_eq!(d.limiting.as_deref(), Some("slow"));
        let by_name = |n: &str| d.stages.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("slow").verdict, StageVerdict::Busy);
        assert_eq!(by_name("fast-up").verdict, StageVerdict::Backpressured);
        assert_eq!(by_name("fast-down").verdict, StageVerdict::Starved);
        assert!(d.recommendations.iter().any(|r| r.contains("`slow`")));
        // Unfarmed busy-bound bottleneck: the fix on offer is `workers(n)`.
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("`slow`") && r.contains("workers(n)")));
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("`fast-up`") && r.contains("backpressured")));
        // The bottleneck ran 90% busy against a 100ms wall: efficiency ~0.9.
        assert!((d.overlap_efficiency - 0.9).abs() < 1e-9);
        let text = d.render();
        assert!(text.contains("limiting stage: `slow`"));
    }

    #[test]
    fn resource_findings_flag_pressure_churn_and_oversubscription() {
        use crate::profile::{AllocResources, LedgerSnapshot, ResourceReport, ThreadResources};
        let mut r = report();
        r.resources = Some(ResourceReport {
            rss_bytes: 900 << 20,
            rss_peak_bytes: 950 << 20,
            threads: vec![
                ThreadResources {
                    name: "slow".into(),
                    utime_ns: 90_000_000,
                    stime_ns: 1_000_000,
                    vol_switches: 10,
                    invol_switches: 500, // 5000/s over the 100ms wall
                },
                ThreadResources {
                    name: "fast-up".into(),
                    utime_ns: 5_000_000,
                    stime_ns: 0,
                    vol_switches: 3,
                    invol_switches: 1, // 10/s: fine
                },
            ],
            alloc_tracking: true,
            alloc: vec![
                AllocResources {
                    stage: "slow".into(),
                    allocs: 50_000, // 500k/s: churn
                    frees: 50_000,
                    bytes: 1 << 20,
                    freed_bytes: 1 << 20,
                },
                AllocResources {
                    stage: "sort/warmup".into(),
                    allocs: 1_000_000, // warmup is setup by design: excluded
                    frees: 0,
                    bytes: 1 << 30,
                    freed_bytes: 0,
                },
            ],
            ledger: Some(LedgerSnapshot {
                budget_bytes: 1024 << 20,
                total_bytes: 800 << 20,
                peak_bytes: 900 << 20,
                total_buffers: 8,
                stages: Vec::new(),
            }),
            ..ResourceReport::default()
        });
        let d = diagnose(&r, &[]);
        let kinds: Vec<_> = d.resources.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ResourceFindingKind::MemoryBound,
                ResourceFindingKind::AllocChurn,
                ResourceFindingKind::Oversubscribed,
            ]
        );
        // Only the genuinely oversubscribed thread and the churning stage
        // are named; warmup counts never surface.
        assert!(d.resources.iter().all(|f| f.subject != "fast-up"));
        assert!(d.resources.iter().all(|f| !f.subject.contains("warmup")));
        assert!(d.recommendations.iter().any(|r| r.contains("--mem-budget")));
        assert!(d.recommendations.iter().any(|r| r.contains("preallocate")));
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("--workers") || r.contains("--pin")));
        let text = d.render();
        assert!(text.contains("resource [memory-bound]:"));
        assert!(text.contains("resource [alloc churn]:"));
        assert!(text.contains("resource [oversubscribed]: thread `slow`"));
    }

    #[test]
    fn no_resource_data_means_no_resource_findings() {
        let d = diagnose(&report(), &[]);
        assert!(d.resources.is_empty());
        assert!(!d.render().contains("resource ["));
    }

    #[test]
    fn upstream_starvation_is_reattributed_as_backpressure() {
        use crate::stats::PipelineShape;
        // `up` measures as starved (the recycle loop ran dry behind the
        // bottleneck), but topology says it sits upstream of `slow`, so the
        // verdict names the cause.  `other`, in a different pipeline, keeps
        // its measured verdict.
        let r = Report {
            wall: Duration::from_millis(100),
            stages: vec![
                stage("up", 100, 90, 0),
                stage("slow", 100, 5, 5),
                stage("down", 100, 85, 0),
                stage("other", 100, 90, 0),
            ],
            pipelines: vec![
                PipelineShape {
                    name: "p".into(),
                    stages: vec!["up".into(), "slow".into(), "down".into()],
                },
                PipelineShape {
                    name: "q".into(),
                    stages: vec!["other".into()],
                },
            ],
            threads_spawned: 4,
            ..Report::default()
        };
        let d = diagnose(&r, &[]);
        assert_eq!(d.limiting.as_deref(), Some("slow"));
        let by_name = |n: &str| d.stages.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("up").verdict, StageVerdict::Backpressured);
        assert_eq!(by_name("down").verdict, StageVerdict::Starved);
        assert_eq!(by_name("other").verdict, StageVerdict::Starved);
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("`up`") && r.contains("upstream of the limiting stage")));
    }

    #[test]
    fn farm_replicas_roll_up_into_one_row() {
        use crate::stats::PipelineShape;
        // A 4-worker farm: two workers carried most of the rounds, two sat
        // mostly idle.  The diagnosis must show one `sort` row (no `#`
        // names anywhere), attribute fractions against the summed replica
        // wall so the idle pair doesn't read as phantom starvation, and —
        // since the farm is still busy-bound and limiting — recommend
        // raising the worker count rather than `workers(n)` from scratch.
        let r = Report {
            wall: Duration::from_millis(100),
            stages: vec![
                stage("read", 100, 80, 10),
                stage("sort#0", 100, 5, 5),
                stage("sort#1", 100, 5, 5),
                stage("sort#2", 100, 60, 0),
                stage("sort#3", 100, 60, 0),
                stage("write", 100, 90, 0),
            ],
            pipelines: vec![PipelineShape {
                name: "p".into(),
                stages: vec!["read".into(), "sort".into(), "write".into()],
            }],
            threads_spawned: 6,
            ..Report::default()
        };
        let d = diagnose(&r, &[]);
        assert!(d.stages.iter().all(|s| !s.name.contains('#')));
        let sort = d.stages.iter().find(|s| s.name == "sort").unwrap();
        assert_eq!(sort.workers, 4);
        assert_eq!(sort.wall, Duration::from_millis(100));
        // busy = (90 + 90 + 40 + 40) / 400, starved = (5 + 5 + 60 + 60) / 400.
        assert!((sort.busy_frac - 0.65).abs() < 1e-9);
        assert!((sort.starved_frac - 0.325).abs() < 1e-9);
        assert_eq!(sort.verdict, StageVerdict::Busy);
        // Effective busy 65ms beats read/write at 10ms each.
        assert_eq!(d.limiting.as_deref(), Some("sort"));
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("`sort`") && r.contains("4 workers") && r.contains("workers(8)")));
        // No recommendation names an individual replica.
        assert!(d.recommendations.iter().all(|r| !r.contains('#')));
        assert!(d.render().contains("sort x4"));
    }

    #[test]
    fn farm_limits_by_effective_busy_not_summed_busy() {
        use crate::stats::PipelineShape;
        // The farm's four workers sum to 200ms busy, but they overlap: the
        // bound they place on wall time is 50ms.  The 80ms-busy plain stage
        // is the real bottleneck.
        let r = Report {
            wall: Duration::from_millis(100),
            stages: vec![
                stage("work#0", 100, 50, 0),
                stage("work#1", 100, 50, 0),
                stage("work#2", 100, 50, 0),
                stage("work#3", 100, 50, 0),
                stage("heavy", 100, 10, 10),
            ],
            pipelines: vec![PipelineShape {
                name: "p".into(),
                stages: vec!["work".into(), "heavy".into()],
            }],
            threads_spawned: 5,
            ..Report::default()
        };
        let d = diagnose(&r, &[]);
        assert_eq!(d.limiting.as_deref(), Some("heavy"));
    }

    #[test]
    fn hash_in_name_without_topology_match_is_not_a_replica() {
        // No pipeline names a `map` stage, so `map#1` is just a stage with
        // a `#` in its name: it stays its own row with workers == 1.
        let r = Report {
            wall: Duration::from_millis(100),
            stages: vec![stage("map#1", 100, 5, 5)],
            threads_spawned: 1,
            ..Report::default()
        };
        let d = diagnose(&r, &[]);
        assert_eq!(d.stages.len(), 1);
        assert_eq!(d.stages[0].name, "map#1");
        assert_eq!(d.stages[0].workers, 1);
        assert_eq!(d.limiting.as_deref(), Some("map#1"));
    }

    #[test]
    fn idle_stages_never_limit() {
        // Stages that spent all their time waiting did no work that could
        // bound the pipeline.
        let r = Report {
            wall: Duration::from_millis(100),
            stages: vec![stage("fill", 100, 100, 0), stage("drain", 100, 40, 60)],
            threads_spawned: 2,
            ..Report::default()
        };
        assert_eq!(diagnose(&r, &[]).limiting, None);
    }

    #[test]
    fn empty_report_is_inert() {
        let d = diagnose(&Report::default(), &[]);
        assert!(d.stages.is_empty());
        assert_eq!(d.limiting, None);
        assert!(d.queue_findings.is_empty());
        assert!(d.render().contains("no stage did measurable work"));
    }

    #[test]
    fn queue_series_distinguishes_pinned_from_spike() {
        use crate::stats::QueueDepth;
        let mut r = report();
        r.queues = vec![
            QueueDepth {
                name: "p[1]".into(),
                capacity: 3,
                max_depth: 3,
                spsc: false,
                flavor: "mutex".into(),
            },
            QueueDepth {
                name: "p[2]".into(),
                capacity: 3,
                max_depth: 3,
                spsc: false,
                flavor: "mutex".into(),
            },
        ];
        // p[1] pinned at capacity in every sample; p[2] touched it once.
        let point = |d1: u64, d2: u64, ms: u64| {
            let reg = crate::metrics::MetricsRegistry::new();
            reg.gauge("core/queue_depth/p[1]").set(d1);
            reg.gauge("core/queue_depth/p[2]").set(d2);
            TimestampedSnapshot {
                elapsed: Duration::from_millis(ms),
                snapshot: reg.snapshot(),
            }
        };
        let series = vec![
            point(3, 3, 0),
            point(3, 0, 1),
            point(3, 1, 2),
            point(3, 0, 3),
        ];
        let d = diagnose(&r, &series);
        let f = |n: &str| d.queue_findings.iter().find(|q| q.name == n).unwrap();
        assert_eq!(f("p[1]").full_frac, 1.0);
        assert_eq!(f("p[2]").full_frac, 0.25);
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("`p[1]`") && r.contains("capacity")));
        assert!(!d
            .recommendations
            .iter()
            .any(|r| r.contains("`p[2]`") && r.contains("capacity")));
        // Without a time series there is nothing to distinguish: no
        // findings at all, rather than findings from high-water marks.
        assert!(diagnose(&r, &[]).queue_findings.is_empty());
    }

    /// A report whose metrics carry prefetch counters for two disks.
    fn report_with_prefetch(hits: &[(u64, u64)]) -> Report {
        let reg = crate::metrics::MetricsRegistry::new();
        for (i, (h, m)) in hits.iter().enumerate() {
            reg.counter(&format!("disk/d{i}/prefetch_hit")).add(*h);
            reg.counter(&format!("disk/d{i}/prefetch_miss")).add(*m);
        }
        let mut r = report();
        r.metrics = reg.snapshot();
        r
    }

    #[test]
    fn cold_prefetch_recommends_raising_io_depth() {
        let d = diagnose(&report_with_prefetch(&[(1, 9), (2, 8)]), &[]);
        let p = d.prefetch.expect("prefetch counters present");
        assert_eq!(p.hits, 3);
        assert_eq!(p.misses, 17);
        assert!((p.hit_rate() - 0.15).abs() < 1e-9);
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("read-ahead hit rate") && r.contains("--io-depth")));
        assert!(d.render().contains("disk read-ahead: 15% hit rate"));
    }

    #[test]
    fn warm_prefetch_reported_without_recommendation() {
        let d = diagnose(&report_with_prefetch(&[(9, 1), (10, 0)]), &[]);
        let p = d.prefetch.expect("prefetch counters present");
        assert!(p.hit_rate() > 0.9);
        assert!(!d.recommendations.iter().any(|r| r.contains("--io-depth")));
        assert!(d.render().contains("disk read-ahead: 95% hit rate"));
    }

    #[test]
    fn no_scheduler_means_no_prefetch_finding() {
        let d = diagnose(&report(), &[]);
        assert_eq!(d.prefetch, None);
        assert!(!d.render().contains("read-ahead"));
    }

    #[test]
    fn dry_recycle_pool_flagged() {
        use crate::stats::QueueDepth;
        let mut r = report();
        // The pool is the first stage's input queue; `p[1]` is a plain
        // link whose emptiness says nothing about the pool.
        r.pipelines = vec![crate::stats::PipelineShape {
            name: "p".into(),
            stages: vec!["fast-up".into(), "slow".into(), "fast-down".into()],
        }];
        r.queues = ["p[0]", "p[1]"]
            .map(|name| QueueDepth {
                name: name.into(),
                capacity: 4,
                max_depth: 4,
                spsc: false,
                flavor: "lockfree".into(),
            })
            .to_vec();
        let point = |depth: u64, ms: u64| {
            let reg = crate::metrics::MetricsRegistry::new();
            reg.gauge("core/queue_depth/p[0]").set(depth);
            reg.gauge("core/queue_depth/p[1]").set(depth);
            TimestampedSnapshot {
                elapsed: Duration::from_millis(ms),
                snapshot: reg.snapshot(),
            }
        };
        let series = vec![point(0, 0), point(0, 1), point(1, 2), point(0, 3)];
        let d = diagnose(&r, &series);
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("p[0]") && r.contains("under-provisioned")));
        assert!(!d.recommendations.iter().any(|r| r.contains("p[1]")));
    }

    fn report_with_contention(retries: u64, items: u64) -> Report {
        use crate::stats::QueueDepth;
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter("core/queue_cas_retries/in/sort").add(retries);
        reg.counter("core/queue_items/in/sort").add(items);
        reg.counter("core/queue_push_parks/in/sort").add(7);
        reg.counter("core/queue_pop_parks/in/sort").add(3);
        reg.counter("core/queue_wakes/in/sort").add(10);
        let mut r = report();
        r.queues = vec![QueueDepth {
            name: "in/sort".into(),
            capacity: 8,
            max_depth: 8,
            spsc: false,
            flavor: "lockfree".into(),
        }];
        r.metrics = reg.snapshot();
        r
    }

    #[test]
    fn contended_queue_flagged_with_pin_recommendation() {
        let d = diagnose(&report_with_contention(900, 1000), &[]);
        assert_eq!(d.contention.len(), 1);
        let c = &d.contention[0];
        assert_eq!(c.name, "in/sort");
        assert_eq!(
            (c.cas_retries, c.items, c.push_parks, c.pop_parks),
            (900, 1000, 7, 3)
        );
        assert!((c.retries_per_item() - 0.9).abs() < 1e-9);
        // Unpinned run: the fix on offer is pinning, and the verdict names
        // the queue, not a stage, as the fight.
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("`in/sort`") && r.contains("contended") && r.contains("--pin")));
        assert!(d.render().contains("contended: 0.9 CAS retries/item"));
    }

    #[test]
    fn contended_queue_on_pinned_run_suggests_fewer_threads() {
        let mut r = report_with_contention(900, 1000);
        r.stages[0].core = Some(2);
        let d = diagnose(&r, &[]);
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("already pinned")));
        assert!(!d.recommendations.iter().any(|r| r.contains("--pin")));
    }

    #[test]
    fn quiet_queues_produce_no_contention_finding() {
        // Below the traffic floor: 90 retries over 99 pushes is a hot rate
        // but too few items to trust.
        assert!(diagnose(&report_with_contention(90, 99), &[])
            .contention
            .is_empty());
        // Plenty of traffic, low rate.
        assert!(diagnose(&report_with_contention(100, 1000), &[])
            .contention
            .is_empty());
    }

    /// Build a window sample: `(stage, busy_ms, starved_ms, backp_ms,
    /// rounds)` rows as cumulative counters at `elapsed` ms.
    fn window_point(ms: u64, rows: &[(&str, u64, u64, u64, u64)]) -> TimestampedSnapshot {
        let reg = crate::metrics::MetricsRegistry::new();
        for (name, busy, starved, backp, rounds) in rows {
            reg.counter(&format!("{STAGE_BUSY_PREFIX}{name}"))
                .add(busy * 1_000_000);
            reg.counter(&format!("{STAGE_STARVED_PREFIX}{name}"))
                .add(starved * 1_000_000);
            reg.counter(&format!("{STAGE_BACKPRESSURED_PREFIX}{name}"))
                .add(backp * 1_000_000);
            reg.counter(&format!("{STAGE_ROUNDS_PREFIX}{name}"))
                .add(*rounds);
        }
        TimestampedSnapshot {
            elapsed: Duration::from_millis(ms),
            snapshot: reg.snapshot(),
        }
    }

    #[test]
    fn window_needs_two_samples_and_nonzero_span() {
        assert_eq!(diagnose_window(&[]), None);
        let p = window_point(5, &[("a", 1, 0, 0, 1)]);
        assert_eq!(diagnose_window(std::slice::from_ref(&p)), None);
        assert_eq!(diagnose_window(&[p.clone(), p]), None);
    }

    #[test]
    fn window_names_limiting_stage_from_counter_deltas() {
        let w = vec![
            window_point(0, &[("up", 10, 0, 0, 5), ("slow", 10, 0, 0, 5)]),
            window_point(100, &[("up", 20, 0, 80, 10), ("slow", 105, 5, 0, 10)]),
        ];
        let d = diagnose_window(&w).unwrap();
        assert_eq!(d.window, Duration::from_millis(100));
        assert_eq!(d.limiting.as_deref(), Some("slow"));
        assert_eq!(d.stage("slow").unwrap().verdict, StageVerdict::Busy);
        assert_eq!(d.stage("up").unwrap().verdict, StageVerdict::Backpressured);
        assert_eq!(d.rounds("slow"), 5);
        // 5 buffers / 0.1 s.
        assert!((d.throughput - 50.0).abs() < 1e-9);
    }

    #[test]
    fn window_folds_replicas_and_counts_active_workers() {
        // Farm `w` declared with three replicas; only two did anything in
        // the window, so the farm reads as two workers wide.
        let w = vec![
            window_point(
                0,
                &[
                    ("w#0", 0, 0, 0, 0),
                    ("w#1", 0, 0, 0, 0),
                    ("w#2", 0, 0, 0, 0),
                ],
            ),
            window_point(
                100,
                &[
                    ("w#0", 90, 10, 0, 4),
                    ("w#1", 80, 20, 0, 4),
                    ("w#2", 0, 0, 0, 0),
                ],
            ),
        ];
        let d = diagnose_window(&w).unwrap();
        let farm = d.stage("w").unwrap();
        assert_eq!(farm.workers, 2);
        // 170 ms busy over a 2-worker 100 ms window.
        assert!((farm.busy_frac - 0.85).abs() < 1e-9);
        assert_eq!(d.rounds("w"), 8);
        assert_eq!(d.limiting.as_deref(), Some("w"));
    }

    #[test]
    fn window_reads_queue_capacity_gauges_and_prefetch_deltas() {
        let point = |ms: u64, depth: u64, hits: u64, misses: u64| {
            let reg = crate::metrics::MetricsRegistry::new();
            reg.counter(&format!("{STAGE_BUSY_PREFIX}s"))
                .add(ms * 500_000);
            reg.gauge(&format!("{QUEUE_CAPACITY_PREFIX}p[0]")).set(4);
            reg.gauge(&format!("{QUEUE_DEPTH_PREFIX}p[0]")).set(depth);
            reg.counter("disk/d0/prefetch_hit").add(hits);
            reg.counter("disk/d0/prefetch_miss").add(misses);
            TimestampedSnapshot {
                elapsed: Duration::from_millis(ms),
                snapshot: reg.snapshot(),
            }
        };
        let w = vec![
            point(0, 0, 10, 10),
            point(50, 0, 10, 30),
            point(100, 4, 10, 50),
        ];
        let d = diagnose_window(&w).unwrap();
        let q = &d.queue_findings[0];
        assert_eq!((q.name.as_str(), q.capacity), ("p[0]", 4));
        assert!((q.empty_frac - 2.0 / 3.0).abs() < 1e-9);
        assert!((q.full_frac - 1.0 / 3.0).abs() < 1e-9);
        // Only the window's deltas count: 0 hits, 40 misses.
        let p = d.prefetch.unwrap();
        assert_eq!((p.hits, p.misses), (0, 40));
        assert!(p.hit_rate() < PREFETCH_WARN);
    }

    /// Build a rank report with given wall time and received-byte counters
    /// credited to it by its peers.
    fn cluster_rank(
        rank: usize,
        nodes: usize,
        wall_ms: u64,
        send_to_next: u64,
        comm_ms: u64,
    ) -> crate::cluster_report::RankReport {
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter(&format!("comm/bytes/{rank}->{}", (rank + 1) % nodes))
            .add(send_to_next);
        reg.histogram(&format!("comm/send_ns/r{rank}"))
            .record(comm_ms * 1_000_000);
        crate::cluster_report::RankReport {
            rank,
            wall: Duration::from_millis(wall_ms),
            reports: Vec::new(),
            metrics: reg.snapshot(),
        }
    }

    #[test]
    fn cluster_diagnosis_names_the_straggler() {
        let mut cr = crate::cluster_report::ClusterReport::new(4);
        for rank in 0..4 {
            let wall = if rank == 2 { 400 } else { 100 };
            cr.push(cluster_rank(rank, 4, wall, 1000, 1));
        }
        let d = diagnose_cluster(&cr);
        assert_eq!(d.straggler, Some(2));
        assert_eq!(d.hot_rank, None);
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("rank 2 is a straggler")));
        assert!(d.render().contains("straggler"));
    }

    #[test]
    fn cluster_diagnosis_names_the_hot_rank_of_a_skewed_exchange() {
        let mut cr = crate::cluster_report::ClusterReport::new(4);
        for rank in 0..4 {
            // Everyone sends to its neighbor; rank 3 sends a flood to rank 0.
            let bytes = if rank == 3 { 100_000 } else { 1000 };
            cr.push(cluster_rank(rank, 4, 100, bytes, 1));
        }
        let d = diagnose_cluster(&cr);
        assert_eq!(d.hot_rank, Some(0));
        assert_eq!(d.straggler, None);
        let json = d.to_json_value();
        assert_eq!(
            json.get("hot_rank").and_then(crate::json::Json::as_u64),
            Some(0)
        );
        assert!(json.get("straggler").is_some());
    }

    #[test]
    fn cluster_diagnosis_flags_comm_bound_ranks() {
        let mut cr = crate::cluster_report::ClusterReport::new(2);
        // Rank 0 spends 80 of its 100ms wall inside sends; rank 1 does not.
        cr.push(cluster_rank(0, 2, 100, 1000, 80));
        cr.push(cluster_rank(1, 2, 100, 1000, 1));
        let d = diagnose_cluster(&cr);
        assert!(d.ranks[0].comm_bound);
        assert!(!d.ranks[1].comm_bound);
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("rank 0 is comm-bound")));
    }

    #[test]
    fn balanced_cluster_diagnosis_is_quiet() {
        let mut cr = crate::cluster_report::ClusterReport::new(3);
        for rank in 0..3 {
            cr.push(cluster_rank(rank, 3, 100, 1000, 1));
        }
        let d = diagnose_cluster(&cr);
        assert_eq!(d.straggler, None);
        assert_eq!(d.hot_rank, None);
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.contains("balanced and compute-bound")));
    }
}
