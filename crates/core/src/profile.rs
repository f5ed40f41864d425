//! Resource observability: per-thread CPU attribution, process memory,
//! allocation counters, and a buffer-pool residency ledger.
//!
//! The rest of the observability stack measures *pipeline* behavior —
//! where stage time went, how deep queues ran, what the controller did.
//! This module measures the *machine underneath it*:
//!
//! * every runtime thread registers its kernel TID at spawn
//!   ([`register_current_thread`]); a [`ResourceProfiler`] sampler thread
//!   (same condvar cadence machinery as the telemetry
//!   [`Sampler`](crate::telemetry::Sampler)) reads
//!   `/proc/self/task/<tid>/stat` + `status` and publishes
//!   `resource/thread/<name>/{utime_ns,stime_ns,vol_switches,invol_switches}`
//!   gauges, plus `resource/process/{rss_bytes,rss_peak_bytes}` from
//!   `/proc/self/statm` and `VmHWM`;
//! * the opt-in tracking allocator's per-stage counters
//!   ([`alloc`](crate::alloc)) surface as
//!   `resource/alloc/<stage>/{count,bytes,frees,freed_bytes}`;
//! * a [`MemoryLedger`] tracks buffer-pool residency — buffers and bytes
//!   outstanding per stage, and the pool total against a configurable
//!   budget — the accounting primitive admission control (ROADMAP item 2)
//!   will consume.
//!
//! Everything funnels through one value type, [`ResourceReport`]: sampled
//! live ([`ResourceReport::sample_now`]) by `GET /resources` and the
//! watchdog post-mortem, published as registry gauges by the profiler
//! tick, reconstructed from a snapshot ([`ResourceReport::from_metrics`])
//! by the dashboard, and embedded as the report JSON's `resources`
//! member.
//!
//! Like core pinning ([`affinity`](crate::affinity)), all of this is
//! Linux-`/proc` shaped and degrades gracefully elsewhere: the first
//! failed sample warns once ([`WarnOnce`]) and CPU/RSS rows simply stay
//! absent — allocator and ledger accounting (plain atomics) keep working
//! everywhere.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::degrade::WarnOnce;
use crate::json::{obj, Json};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Prefix of per-thread CPU gauges (`resource/thread/<name>/utime_ns`, …).
pub const RESOURCE_THREAD_PREFIX: &str = "resource/thread/";
/// Prefix of process memory gauges (`resource/process/rss_bytes`, …).
pub const RESOURCE_PROCESS_PREFIX: &str = "resource/process/";
/// Prefix of allocator gauges (`resource/alloc/<stage>/count`, …).
pub const RESOURCE_ALLOC_PREFIX: &str = "resource/alloc/";
/// Prefix of ledger gauges (`resource/ledger/<stage>/bytes`, …).
pub const RESOURCE_LEDGER_PREFIX: &str = "resource/ledger/";

static PROC_WARN: WarnOnce = WarnOnce::new();

// ---------------------------------------------------------------------------
// Thread registry
// ---------------------------------------------------------------------------

struct ThreadEntry {
    key: u64,
    name: String,
    tid: u64,
}

fn threads() -> &'static Mutex<Vec<ThreadEntry>> {
    static THREADS: Mutex<Vec<ThreadEntry>> = Mutex::new(Vec::new());
    &THREADS
}

static REG_SEQ: AtomicU64 = AtomicU64::new(1);

/// Guard for a registered runtime thread; deregisters on drop, so a
/// finished stage thread's row disappears from subsequent samples.
pub struct ThreadRegistration {
    key: u64,
}

impl Drop for ThreadRegistration {
    fn drop(&mut self) {
        let mut t = threads().lock().unwrap_or_else(|e| e.into_inner());
        t.retain(|e| e.key != self.key);
    }
}

/// Register the calling thread under `name` for per-thread CPU sampling.
/// The runtime calls this for every thread it spawns (stages, replicas,
/// controller, watchdog, samplers); embedders running
/// their own worker threads (e.g. the I/O scheduler) should too.  Where
/// `/proc/thread-self` is unavailable the registration is inert: the row
/// exists but never gains CPU numbers.
pub fn register_current_thread(name: impl Into<String>) -> ThreadRegistration {
    let key = REG_SEQ.fetch_add(1, Relaxed);
    let tid = current_tid().unwrap_or(0);
    let entry = ThreadEntry {
        key,
        name: name.into(),
        tid,
    };
    threads()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(entry);
    ThreadRegistration { key }
}

/// `(name, tid)` of every currently registered runtime thread, in
/// registration order.  A tid of 0 means the TID could not be learned
/// (non-Linux hosts); such rows are skipped by the sampler.
pub fn registered_threads() -> Vec<(String, u64)> {
    threads()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|e| (e.name.clone(), e.tid))
        .collect()
}

/// The calling thread's kernel TID, via the `/proc/thread-self` symlink
/// (`<pid>/task/<tid>`).  Linux-only by construction; elsewhere the
/// readlink fails and the caller degrades to a no-op.
pub(crate) fn current_tid() -> Result<u64, String> {
    let link = std::fs::read_link("/proc/thread-self")
        .map_err(|e| format!("/proc/thread-self unavailable: {e}"))?;
    link.to_str()
        .and_then(|s| s.rsplit('/').next())
        .and_then(|tid| tid.parse().ok())
        .ok_or_else(|| format!("unparseable /proc/thread-self target {link:?}"))
}

// ---------------------------------------------------------------------------
// /proc sampling
// ---------------------------------------------------------------------------

/// `getconf name`, mirroring `affinity`'s `taskset(1)` delegation: the
/// crate forbids direct `sysconf(3)` (that would need `libc`/unsafe).
fn getconf(name: &str) -> Option<u64> {
    let out = std::process::Command::new("getconf")
        .arg(name)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout).trim().parse().ok()
}

/// Kernel clock ticks per second (`utime`/`stime` unit); cached once.
fn clk_tck() -> u64 {
    static V: OnceLock<u64> = OnceLock::new();
    *V.get_or_init(|| getconf("CLK_TCK").filter(|&v| v > 0).unwrap_or(100))
}

/// Page size in bytes (`statm` unit); cached once.
fn page_size() -> u64 {
    static V: OnceLock<u64> = OnceLock::new();
    *V.get_or_init(|| getconf("PAGESIZE").filter(|&v| v > 0).unwrap_or(4096))
}

/// Where resource samples come from.  Production uses `/proc`; tests
/// point the root at a directory that doesn't exist to exercise the
/// degraded path deterministically.
pub(crate) struct ProcSource {
    root: PathBuf,
    clk_tck: u64,
    page_size: u64,
}

impl ProcSource {
    pub(crate) fn system() -> ProcSource {
        ProcSource {
            root: PathBuf::from("/proc"),
            clk_tck: clk_tck(),
            page_size: page_size(),
        }
    }

    #[cfg(test)]
    pub(crate) fn with_root(root: impl Into<PathBuf>) -> ProcSource {
        ProcSource {
            root: root.into(),
            clk_tck: 100,
            page_size: 4096,
        }
    }

    /// Process RSS and peak RSS in bytes, from `statm` and `status`
    /// (`statm` has no high-water mark; that lives in `VmHWM`).
    fn process_memory(&self) -> Option<(u64, u64)> {
        let statm = std::fs::read_to_string(self.root.join("self/statm")).ok()?;
        let rss_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
        let rss = rss_pages * self.page_size;
        let peak = std::fs::read_to_string(self.root.join("self/status"))
            .ok()
            .and_then(|s| parse_status_kb(&s, "VmHWM:"))
            .map_or(rss, |kb| (kb * 1024).max(rss));
        Some((rss, peak))
    }

    /// CPU time and context-switch counts of one thread.  `stat` carries
    /// utime/stime; the switch counters live in `status`.
    fn thread_cpu(&self, name: &str, tid: u64) -> Option<ThreadResources> {
        let task = self.root.join(format!("self/task/{tid}"));
        let stat = std::fs::read_to_string(task.join("stat")).ok()?;
        let (utime_ticks, stime_ticks) = parse_stat_times(&stat)?;
        let per_tick = 1_000_000_000 / self.clk_tck.max(1);
        let status = std::fs::read_to_string(task.join("status")).unwrap_or_default();
        Some(ThreadResources {
            name: name.to_string(),
            utime_ns: utime_ticks * per_tick,
            stime_ns: stime_ticks * per_tick,
            vol_switches: parse_status_count(&status, "voluntary_ctxt_switches:").unwrap_or(0),
            invol_switches: parse_status_count(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0),
        })
    }
}

/// `(utime, stime)` in clock ticks from a `/proc/.../stat` line.  The
/// comm field `(…)` may itself contain spaces and parentheses, so parsing
/// starts after the *last* `)`; utime/stime are then fields 12 and 13 of
/// the remainder (fields 14 and 15 of the full line).
fn parse_stat_times(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The `123` of a `key:\t123 kB` line in a `/proc/.../status` file.
fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The `123` of a `key:\t123` line in a `/proc/.../status` file.
fn parse_status_count(status: &str, key: &str) -> Option<u64> {
    parse_status_kb(status, key)
}

// ---------------------------------------------------------------------------
// Memory ledger
// ---------------------------------------------------------------------------

/// Per-stage buffer residency counters; obtained from
/// [`MemoryLedger::stage`] and updated by the runtime on every buffer
/// accept/convey.  Signed: teardown drains recycle buffers a stage never
/// formally accepted, and a momentarily negative residency must clamp,
/// not wrap.
pub struct StageLedger {
    buffers: AtomicI64,
    bytes: AtomicI64,
}

impl StageLedger {
    /// Charge one accepted buffer of `bytes` capacity to this stage.
    pub fn acquire(&self, bytes: usize) {
        self.buffers.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes as i64, Relaxed);
    }

    /// Credit one conveyed/discarded buffer of `bytes` capacity.
    pub fn release(&self, bytes: usize) {
        self.buffers.fetch_sub(1, Relaxed);
        self.bytes.fetch_sub(bytes as i64, Relaxed);
    }

    /// `(buffers, bytes)` currently resident in this stage (clamped at 0).
    pub fn resident(&self) -> (u64, u64) {
        (
            self.buffers.load(Relaxed).max(0) as u64,
            self.bytes.load(Relaxed).max(0) as u64,
        )
    }
}

/// Buffer-pool residency accounting: which stage currently holds how many
/// pool buffers (and bytes), and the pool total against an optional
/// budget.  Attach one to a [`Program`](crate::Program) with
/// [`Program::set_memory_ledger`](crate::Program::set_memory_ledger);
/// first stages charge the pool as they create/retire buffers, and every stage
/// charges/credits its own row as buffers flow through.  This is the
/// accounting primitive a daemon's admission control builds on: admit a
/// program only when `budget - total` covers its pool.
#[derive(Default)]
pub struct MemoryLedger {
    /// Budget in bytes; 0 means unbudgeted (accounting only).
    budget_bytes: AtomicU64,
    total_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    total_buffers: AtomicU64,
    stages: Mutex<BTreeMap<String, Arc<StageLedger>>>,
}

impl std::fmt::Debug for MemoryLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryLedger")
            .field("budget_bytes", &self.budget())
            .field("total_bytes", &self.total_bytes())
            .finish_non_exhaustive()
    }
}

impl MemoryLedger {
    /// An unbudgeted ledger (accounting only).
    pub fn new() -> MemoryLedger {
        MemoryLedger::default()
    }

    /// A ledger with a `budget` in bytes; [`diagnose`](crate::diagnose)
    /// reports a memory-bound finding when process RSS approaches it.
    pub fn with_budget(budget: u64) -> MemoryLedger {
        let l = MemoryLedger::new();
        l.budget_bytes.store(budget, Relaxed);
        l
    }

    /// The configured budget in bytes (0 = unbudgeted).
    pub fn budget(&self) -> u64 {
        self.budget_bytes.load(Relaxed)
    }

    /// Set or change the budget.
    pub fn set_budget(&self, budget: u64) {
        self.budget_bytes.store(budget, Relaxed);
    }

    /// The residency row for `stage`, creating it on first use.
    pub fn stage(&self, stage: &str) -> Arc<StageLedger> {
        let mut stages = self.stages.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(stages.entry(stage.to_string()).or_insert_with(|| {
            Arc::new(StageLedger {
                buffers: AtomicI64::new(0),
                bytes: AtomicI64::new(0),
            })
        }))
    }

    /// Charge one pool buffer of `bytes` capacity (a pipeline's pool
    /// gained it).
    pub fn charge_pool(&self, bytes: u64) {
        self.total_buffers.fetch_add(1, Relaxed);
        let now = self.total_bytes.fetch_add(bytes, Relaxed) + bytes;
        self.peak_bytes.fetch_max(now, Relaxed);
    }

    /// Credit one pool buffer of `bytes` capacity (retired on shrink).
    pub fn credit_pool(&self, bytes: u64) {
        self.total_buffers
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)))
            .ok();
        self.total_bytes
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(bytes)))
            .ok();
    }

    /// Pool bytes currently outstanding.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Relaxed)
    }

    /// True when the pool total exceeds a nonzero budget.
    pub fn over_budget(&self) -> bool {
        let budget = self.budget();
        budget > 0 && self.total_bytes() > budget
    }

    /// Point-in-time copy of the whole ledger.
    pub fn snapshot(&self) -> LedgerSnapshot {
        let stages = self.stages.lock().unwrap_or_else(|e| e.into_inner());
        LedgerSnapshot {
            budget_bytes: self.budget(),
            total_bytes: self.total_bytes.load(Relaxed),
            peak_bytes: self.peak_bytes.load(Relaxed),
            total_buffers: self.total_buffers.load(Relaxed),
            stages: stages
                .iter()
                .map(|(name, l)| {
                    let (buffers, bytes) = l.resident();
                    StageResidency {
                        stage: name.clone(),
                        buffers,
                        bytes,
                    }
                })
                .collect(),
        }
    }
}

/// One stage's buffer residency at a point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageResidency {
    /// Stage base name (replicas fold into one row).
    pub stage: String,
    /// Buffers currently held by the stage.
    pub buffers: u64,
    /// Bytes currently held by the stage.
    pub bytes: u64,
}

/// A [`MemoryLedger`] at a point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Configured budget in bytes (0 = unbudgeted).
    pub budget_bytes: u64,
    /// Pool bytes currently outstanding.
    pub total_bytes: u64,
    /// High-water mark of `total_bytes`.
    pub peak_bytes: u64,
    /// Pool buffers currently outstanding.
    pub total_buffers: u64,
    /// Per-stage residency rows, sorted by stage name.
    pub stages: Vec<StageResidency>,
}

// ---------------------------------------------------------------------------
// ResourceReport
// ---------------------------------------------------------------------------

/// One registered thread's CPU attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadResources {
    /// Registered thread name (`program/stage`, `io/<label>`, …).
    pub name: String,
    /// User CPU time, nanoseconds (clock-tick resolution).
    pub utime_ns: u64,
    /// System CPU time, nanoseconds (clock-tick resolution).
    pub stime_ns: u64,
    /// Voluntary context switches (blocking waits).
    pub vol_switches: u64,
    /// Involuntary context switches (preemptions — the oversubscription
    /// signal [`diagnose`](crate::diagnose) watches).
    pub invol_switches: u64,
}

/// One allocator tag's counters (see [`alloc`](crate::alloc)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocResources {
    /// Stage tag (stage base name, or refinements like `sort/steady`).
    pub stage: String,
    /// Allocations charged to the tag, cumulative.
    pub allocs: u64,
    /// Frees charged to the tag, cumulative.
    pub frees: u64,
    /// Bytes allocated, cumulative.
    pub bytes: u64,
    /// Bytes freed, cumulative.
    pub freed_bytes: u64,
}

/// Point-in-time resource attribution: per-thread CPU, process memory,
/// allocator counters, and the buffer ledger.  See the module docs for
/// the surfaces this feeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceReport {
    /// Process resident set size in bytes (0 when `/proc` is unavailable).
    pub rss_bytes: u64,
    /// Process peak RSS (`VmHWM`) in bytes.
    pub rss_peak_bytes: u64,
    /// Per-thread CPU rows for every registered thread, in registration
    /// order; empty when `/proc` is unavailable.
    pub threads: Vec<ThreadResources>,
    /// True when the tracking allocator served the process — without it
    /// the `alloc` rows mean "no data", not "zero allocations".
    pub alloc_tracking: bool,
    /// Per-stage allocator counters (only tags with activity).
    pub alloc: Vec<AllocResources>,
    /// Live heap bytes across all tags (tracking allocator only).
    pub alloc_current_bytes: u64,
    /// Peak heap bytes across all tags (tracking allocator only).
    pub alloc_peak_bytes: u64,
    /// Buffer-pool ledger, when a [`MemoryLedger`] was attached.
    pub ledger: Option<LedgerSnapshot>,
}

impl ResourceReport {
    /// Sample the process right now: registered threads' CPU from
    /// `/proc`, RSS/peak, the allocator counters, and `ledger` if given.
    /// Where `/proc` is unavailable this degrades (with a single warning
    /// per process) to an allocator/ledger-only report.
    pub fn sample_now(ledger: Option<&MemoryLedger>) -> ResourceReport {
        Self::collect(&ProcSource::system(), ledger)
    }

    pub(crate) fn collect(source: &ProcSource, ledger: Option<&MemoryLedger>) -> ResourceReport {
        let mut report = ResourceReport {
            alloc_tracking: crate::alloc::installed(),
            ledger: ledger.map(MemoryLedger::snapshot),
            ..ResourceReport::default()
        };
        for (stage, c) in crate::alloc::snapshot() {
            report.alloc.push(AllocResources {
                stage,
                allocs: c.allocs,
                frees: c.frees,
                bytes: c.bytes,
                freed_bytes: c.freed_bytes,
            });
        }
        let (current, peak) = crate::alloc::process_bytes();
        report.alloc_current_bytes = current;
        report.alloc_peak_bytes = peak;
        match source.process_memory() {
            Some((rss, rss_peak)) => {
                report.rss_bytes = rss;
                report.rss_peak_bytes = rss_peak;
                for (name, tid) in registered_threads() {
                    if tid == 0 {
                        continue;
                    }
                    // A thread may exit between registration cleanup and
                    // this read; its row is simply absent from this sample.
                    if let Some(row) = source.thread_cpu(&name, tid) {
                        report.threads.push(row);
                    }
                }
            }
            None => {
                PROC_WARN.warn(|| {
                    format!(
                        "fg: resource profiler degraded, no CPU/RSS attribution \
                         ({} unreadable)",
                        source.root.display()
                    )
                });
            }
        }
        report
    }

    /// True when the report carries no data at all (nothing sampled,
    /// nothing tracked).
    pub fn is_empty(&self) -> bool {
        self.rss_bytes == 0
            && self.threads.is_empty()
            && self.alloc.is_empty()
            && self.ledger.is_none()
    }

    /// Publish every row as gauges under the `resource/` prefixes — the
    /// profiler tick, feeding `/metrics` scrapes and snapshot merges.
    pub fn publish(&self, registry: &MetricsRegistry) {
        if self.rss_bytes > 0 {
            registry
                .gauge("resource/process/rss_bytes")
                .set(self.rss_bytes);
            registry
                .gauge("resource/process/rss_peak_bytes")
                .set(self.rss_peak_bytes);
        }
        for t in &self.threads {
            publish_thread_row(t, registry);
        }
        if self.alloc_tracking {
            registry.gauge("resource/alloc/tracking").set(1);
            registry
                .gauge("resource/alloc/current_bytes")
                .set(self.alloc_current_bytes);
            registry
                .gauge("resource/alloc/peak_bytes")
                .set(self.alloc_peak_bytes);
            for a in &self.alloc {
                let base = format!("{RESOURCE_ALLOC_PREFIX}{}", a.stage);
                registry.gauge(&format!("{base}/count")).set(a.allocs);
                registry.gauge(&format!("{base}/frees")).set(a.frees);
                registry.gauge(&format!("{base}/bytes")).set(a.bytes);
                registry
                    .gauge(&format!("{base}/freed_bytes"))
                    .set(a.freed_bytes);
            }
        }
        if let Some(ledger) = &self.ledger {
            registry
                .gauge("resource/ledger/budget_bytes")
                .set(ledger.budget_bytes);
            registry
                .gauge("resource/ledger/total_bytes")
                .set(ledger.total_bytes);
            registry
                .gauge("resource/ledger/peak_bytes")
                .set(ledger.peak_bytes);
            registry
                .gauge("resource/ledger/total_buffers")
                .set(ledger.total_buffers);
            for s in &ledger.stages {
                let base = format!("{RESOURCE_LEDGER_PREFIX}{}", s.stage);
                registry.gauge(&format!("{base}/buffers")).set(s.buffers);
                registry.gauge(&format!("{base}/bytes")).set(s.bytes);
            }
        }
    }

    /// Reassemble a report from `resource/*` gauges in a snapshot — the
    /// inverse of [`ResourceReport::publish`], used by the dashboard and
    /// by [`diagnose`](crate::diagnose) when the report itself carries no
    /// `resources` member.  Returns `None` when the snapshot has no
    /// resource gauges at all.
    pub fn from_metrics(m: &MetricsSnapshot) -> Option<ResourceReport> {
        let gauge = |name: &str| m.gauge(name).map(|g| g.value);
        let mut report = ResourceReport {
            rss_bytes: gauge("resource/process/rss_bytes").unwrap_or(0),
            rss_peak_bytes: gauge("resource/process/rss_peak_bytes").unwrap_or(0),
            alloc_tracking: gauge("resource/alloc/tracking").unwrap_or(0) != 0,
            alloc_current_bytes: gauge("resource/alloc/current_bytes").unwrap_or(0),
            alloc_peak_bytes: gauge("resource/alloc/peak_bytes").unwrap_or(0),
            ..ResourceReport::default()
        };
        // Group multi-suffix families by their row name.  Gauges are
        // sorted, so rows come out deterministically ordered by name.
        let mut threads: BTreeMap<String, ThreadResources> = BTreeMap::new();
        let mut allocs: BTreeMap<String, AllocResources> = BTreeMap::new();
        let mut ledger_stages: BTreeMap<String, StageResidency> = BTreeMap::new();
        let mut saw_ledger = false;
        let mut any = false;
        for (name, g) in &m.gauges {
            if let Some(rest) = name.strip_prefix(RESOURCE_THREAD_PREFIX) {
                any = true;
                if let Some((thread, field)) = rest.rsplit_once('/') {
                    let row = threads.entry(thread.to_string()).or_default();
                    row.name = thread.to_string();
                    match field {
                        "utime_ns" => row.utime_ns = g.value,
                        "stime_ns" => row.stime_ns = g.value,
                        "vol_switches" => row.vol_switches = g.value,
                        "invol_switches" => row.invol_switches = g.value,
                        _ => {}
                    }
                }
            } else if let Some(rest) = name.strip_prefix(RESOURCE_ALLOC_PREFIX) {
                any = true;
                if let Some((stage, field)) = rest.rsplit_once('/') {
                    let row = allocs.entry(stage.to_string()).or_default();
                    row.stage = stage.to_string();
                    match field {
                        "count" => row.allocs = g.value,
                        "frees" => row.frees = g.value,
                        "bytes" => row.bytes = g.value,
                        "freed_bytes" => row.freed_bytes = g.value,
                        _ => {}
                    }
                }
            } else if let Some(rest) = name.strip_prefix(RESOURCE_LEDGER_PREFIX) {
                any = true;
                saw_ledger = true;
                if let Some((stage, field)) = rest.rsplit_once('/') {
                    let row = ledger_stages.entry(stage.to_string()).or_default();
                    row.stage = stage.to_string();
                    match field {
                        "buffers" => row.buffers = g.value,
                        "bytes" => row.bytes = g.value,
                        _ => {}
                    }
                }
            } else if name.starts_with(RESOURCE_PROCESS_PREFIX) {
                any = true;
            }
        }
        if !any {
            return None;
        }
        report.threads = threads.into_values().collect();
        report.alloc = allocs.into_values().collect();
        if saw_ledger {
            report.ledger = Some(LedgerSnapshot {
                budget_bytes: gauge("resource/ledger/budget_bytes").unwrap_or(0),
                total_bytes: gauge("resource/ledger/total_bytes").unwrap_or(0),
                peak_bytes: gauge("resource/ledger/peak_bytes").unwrap_or(0),
                total_buffers: gauge("resource/ledger/total_buffers").unwrap_or(0),
                stages: ledger_stages.into_values().collect(),
            });
        }
        Some(report)
    }

    /// The report as a JSON object; inverse of
    /// [`ResourceReport::from_json_value`].
    pub fn to_json_value(&self) -> Json {
        let mut members = vec![
            ("rss_bytes", Json::from(self.rss_bytes)),
            ("rss_peak_bytes", Json::from(self.rss_peak_bytes)),
            (
                "threads",
                Json::Arr(
                    self.threads
                        .iter()
                        .map(|t| {
                            obj(vec![
                                ("name", Json::from(t.name.as_str())),
                                ("utime_ns", Json::from(t.utime_ns)),
                                ("stime_ns", Json::from(t.stime_ns)),
                                ("vol_switches", Json::from(t.vol_switches)),
                                ("invol_switches", Json::from(t.invol_switches)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("alloc_tracking", Json::Bool(self.alloc_tracking)),
            (
                "alloc",
                Json::Arr(
                    self.alloc
                        .iter()
                        .map(|a| {
                            obj(vec![
                                ("stage", Json::from(a.stage.as_str())),
                                ("count", Json::from(a.allocs)),
                                ("frees", Json::from(a.frees)),
                                ("bytes", Json::from(a.bytes)),
                                ("freed_bytes", Json::from(a.freed_bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("alloc_current_bytes", Json::from(self.alloc_current_bytes)),
            ("alloc_peak_bytes", Json::from(self.alloc_peak_bytes)),
        ];
        if let Some(ledger) = &self.ledger {
            members.push((
                "ledger",
                obj(vec![
                    ("budget_bytes", Json::from(ledger.budget_bytes)),
                    ("total_bytes", Json::from(ledger.total_bytes)),
                    ("peak_bytes", Json::from(ledger.peak_bytes)),
                    ("total_buffers", Json::from(ledger.total_buffers)),
                    (
                        "stages",
                        Json::Arr(
                            ledger
                                .stages
                                .iter()
                                .map(|s| {
                                    obj(vec![
                                        ("stage", Json::from(s.stage.as_str())),
                                        ("buffers", Json::from(s.buffers)),
                                        ("bytes", Json::from(s.bytes)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        obj(members)
    }

    /// Parse a report written by [`ResourceReport::to_json_value`].
    pub fn from_json_value(j: &Json) -> Result<ResourceReport, String> {
        let u = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        let s = |j: &Json, k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("resources: missing string member {k}"))
        };
        let threads = j
            .get("threads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|t| {
                Ok(ThreadResources {
                    name: s(t, "name")?,
                    utime_ns: u(t, "utime_ns"),
                    stime_ns: u(t, "stime_ns"),
                    vol_switches: u(t, "vol_switches"),
                    invol_switches: u(t, "invol_switches"),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let alloc = j
            .get("alloc")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|a| {
                Ok(AllocResources {
                    stage: s(a, "stage")?,
                    allocs: u(a, "count"),
                    frees: u(a, "frees"),
                    bytes: u(a, "bytes"),
                    freed_bytes: u(a, "freed_bytes"),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let ledger = match j.get("ledger") {
            Some(l) => Some(LedgerSnapshot {
                budget_bytes: u(l, "budget_bytes"),
                total_bytes: u(l, "total_bytes"),
                peak_bytes: u(l, "peak_bytes"),
                total_buffers: u(l, "total_buffers"),
                stages: l
                    .get("stages")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|r| {
                        Ok(StageResidency {
                            stage: s(r, "stage")?,
                            buffers: u(r, "buffers"),
                            bytes: u(r, "bytes"),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            None => None,
        };
        Ok(ResourceReport {
            rss_bytes: u(j, "rss_bytes"),
            rss_peak_bytes: u(j, "rss_peak_bytes"),
            threads,
            alloc_tracking: matches!(j.get("alloc_tracking"), Some(Json::Bool(true))),
            alloc,
            alloc_current_bytes: u(j, "alloc_current_bytes"),
            alloc_peak_bytes: u(j, "alloc_peak_bytes"),
            ledger,
        })
    }

    /// Human-readable rendering — the `== resources ==` dashboard section.
    pub fn render(&self) -> String {
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        let mut out = String::new();
        if self.rss_bytes > 0 {
            out.push_str(&format!(
                "process rss {:.1} MiB (peak {:.1} MiB)\n",
                mb(self.rss_bytes),
                mb(self.rss_peak_bytes)
            ));
        }
        if self.alloc_tracking {
            out.push_str(&format!(
                "heap live {:.1} MiB (peak {:.1} MiB), tracking allocator on\n",
                mb(self.alloc_current_bytes),
                mb(self.alloc_peak_bytes)
            ));
        }
        if !self.threads.is_empty() {
            let name_w = self
                .threads
                .iter()
                .map(|t| t.name.len())
                .max()
                .unwrap_or(6)
                .max(6);
            out.push_str(&format!(
                "{:<name_w$} {:>9} {:>9} {:>8} {:>8}\n",
                "thread", "user ms", "sys ms", "vol cs", "invol cs"
            ));
            for t in &self.threads {
                out.push_str(&format!(
                    "{:<name_w$} {:>9.1} {:>9.1} {:>8} {:>8}\n",
                    t.name,
                    t.utime_ns as f64 / 1e6,
                    t.stime_ns as f64 / 1e6,
                    t.vol_switches,
                    t.invol_switches
                ));
            }
        }
        if !self.alloc.is_empty() {
            let name_w = self
                .alloc
                .iter()
                .map(|a| a.stage.len())
                .max()
                .unwrap_or(5)
                .max(5);
            out.push_str(&format!(
                "{:<name_w$} {:>10} {:>10} {:>12} {:>12}\n",
                "alloc", "count", "frees", "bytes", "freed"
            ));
            for a in &self.alloc {
                out.push_str(&format!(
                    "{:<name_w$} {:>10} {:>10} {:>12} {:>12}\n",
                    a.stage, a.allocs, a.frees, a.bytes, a.freed_bytes
                ));
            }
        }
        if let Some(ledger) = &self.ledger {
            let budget = if ledger.budget_bytes > 0 {
                format!(" of {:.1} MiB budget", mb(ledger.budget_bytes))
            } else {
                String::new()
            };
            out.push_str(&format!(
                "ledger: {} buffers, {:.1} MiB outstanding (peak {:.1} MiB){budget}\n",
                ledger.total_buffers,
                mb(ledger.total_bytes),
                mb(ledger.peak_bytes)
            ));
            for s in &ledger.stages {
                out.push_str(&format!(
                    "  {:<12} {:>4} buffers {:>10} bytes\n",
                    s.stage, s.buffers, s.bytes
                ));
            }
        }
        if out.is_empty() {
            out.push_str("no resource data\n");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// ResourceProfiler
// ---------------------------------------------------------------------------

/// Publish one thread's CPU row as `resource/thread/<name>/*` gauges.
fn publish_thread_row(t: &ThreadResources, registry: &MetricsRegistry) {
    let base = format!("{RESOURCE_THREAD_PREFIX}{}", t.name);
    registry.gauge(&format!("{base}/utime_ns")).set(t.utime_ns);
    registry.gauge(&format!("{base}/stime_ns")).set(t.stime_ns);
    registry
        .gauge(&format!("{base}/vol_switches"))
        .set(t.vol_switches);
    registry
        .gauge(&format!("{base}/invol_switches"))
        .set(t.invol_switches);
}

/// Publish the calling thread's **final** CPU numbers into `registry`.
/// The runtime calls this as each stage thread exits: a
/// thread that lived shorter than the profiler cadence (or ran with no
/// profiler attached at all) still leaves its CPU attribution behind,
/// which is what keeps per-stage rows present for fast runs.  Costs two
/// small `/proc` reads once per thread lifetime; degrades to a no-op off
/// Linux.
pub fn publish_exit_sample(name: &str, registry: &MetricsRegistry) {
    let Ok(tid) = current_tid() else { return };
    if let Some(row) = ProcSource::system().thread_cpu(name, tid) {
        publish_thread_row(&row, registry);
    }
}

/// Sampling cadence of a [`ResourceProfiler`].
#[derive(Debug, Clone, Copy)]
pub struct ProfilerCfg {
    /// Interval between samples.
    pub interval: Duration,
}

impl Default for ProfilerCfg {
    /// 100 ms cadence, matching
    /// [`SamplerCfg`](crate::telemetry::SamplerCfg): one `/proc` sweep
    /// (two small files per registered thread plus two per process) every
    /// tenth of a second — bounded, workload-independent cost.
    fn default() -> Self {
        ProfilerCfg {
            interval: Duration::from_millis(100),
        }
    }
}

/// A background thread that samples [`ResourceReport`]s on a fixed
/// interval and publishes them as `resource/*` gauges — the live half of
/// resource observability, feeding `/metrics`, `/resources`, the
/// telemetry sampler's time series, and [`diagnose`](crate::diagnose).
///
/// ```
/// use std::sync::Arc;
/// use fg_core::{MetricsRegistry, profile::ResourceProfiler};
///
/// let registry = Arc::new(MetricsRegistry::new());
/// let profiler = ResourceProfiler::start(Arc::clone(&registry));
/// // … run pipelines …
/// let final_report = profiler.stop();
/// # let _ = final_report;
/// ```
pub struct ResourceProfiler {
    cadence: Arc<crate::telemetry::Cadence>,
    registry: Arc<MetricsRegistry>,
    ledger: Option<Arc<MemoryLedger>>,
    handle: Option<JoinHandle<()>>,
}

impl ResourceProfiler {
    /// Spawn the sampling thread with the default cadence and no ledger.
    pub fn start(registry: Arc<MetricsRegistry>) -> ResourceProfiler {
        Self::start_with(registry, ProfilerCfg::default(), None)
    }

    /// Spawn the sampling thread; `ledger` rows are included in every
    /// sample when given.
    pub fn start_with(
        registry: Arc<MetricsRegistry>,
        cfg: ProfilerCfg,
        ledger: Option<Arc<MemoryLedger>>,
    ) -> ResourceProfiler {
        let cadence = Arc::new(crate::telemetry::Cadence::new());
        let worker_cadence = Arc::clone(&cadence);
        let worker_registry = Arc::clone(&registry);
        let worker_ledger = ledger.clone();
        let interval = cfg.interval.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("fg-resource-profiler".into())
            .spawn(move || {
                let _reg = register_current_thread("profiler");
                let source = ProcSource::system();
                worker_cadence.run(interval, || {
                    ResourceReport::collect(&source, worker_ledger.as_deref())
                        .publish(&worker_registry);
                });
            })
            .expect("spawn resource profiler");
        ResourceProfiler {
            cadence,
            registry,
            ledger,
            handle: Some(handle),
        }
    }

    /// Stop the sampling thread, take one final sample, publish it, and
    /// return it — so end-of-run totals (not the last interval's) land in
    /// the registry and the report.
    pub fn stop(mut self) -> ResourceReport {
        self.join();
        let report = ResourceReport::sample_now(self.ledger.as_deref());
        report.publish(&self.registry);
        report
    }

    fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.cadence.stop();
            let _ = handle.join();
        }
    }
}

impl Drop for ResourceProfiler {
    fn drop(&mut self) {
        self.join();
    }
}

/// A replicated stage's base name: `sort#3` → `sort` (attribution folds
/// replicas into one row, like
/// [`Report::stage_rollup`](crate::Report::stage_rollup)).
pub(crate) fn replica_base(name: &str) -> &str {
    match name.rsplit_once('#') {
        Some((base, idx)) if !idx.is_empty() && idx.chars().all(|c| c.is_ascii_digit()) => base,
        _ => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_handles_hostile_comm() {
        let line = "1234 (a (we)ird) name) R 1 1 1 0 -1 4194560 100 0 0 0 \
                    250 75 0 0 20 0 1 0 100 1000000 50 18446744073709551615";
        let (utime, stime) = parse_stat_times(line).expect("parseable");
        assert_eq!((utime, stime), (250, 75));
    }

    #[test]
    fn status_parsing_extracts_fields() {
        let status = "Name:\tfgsort\nVmHWM:\t    5280 kB\nVmRSS:\t    4000 kB\n\
                      voluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(5280));
        assert_eq!(
            parse_status_count(status, "voluntary_ctxt_switches:"),
            Some(42)
        );
        assert_eq!(
            parse_status_count(status, "nonvoluntary_ctxt_switches:"),
            Some(7)
        );
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn unreadable_proc_degrades_to_inert_report() {
        let _reg = register_current_thread("degraded-test");
        let source = ProcSource::with_root("/nonexistent-fg-proc-root");
        let report = ResourceReport::collect(&source, None);
        assert_eq!(report.rss_bytes, 0);
        assert!(report.threads.is_empty());
        // Publishing a degraded report must not invent process gauges.
        let registry = MetricsRegistry::new();
        report.publish(&registry);
        let snap = registry.snapshot();
        assert!(snap.gauge("resource/process/rss_bytes").is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_sample_sees_registered_threads() {
        let _reg = register_current_thread("profile-test-live");
        // Burn a little CPU so utime has a chance to be nonzero (not
        // asserted — tick granularity is 10ms).
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let report = ResourceReport::sample_now(None);
        assert!(report.rss_bytes > 0, "linux must report RSS");
        assert!(report.rss_peak_bytes >= report.rss_bytes);
        assert!(
            report.threads.iter().any(|t| t.name == "profile-test-live"),
            "registered thread row missing: {:?}",
            report.threads
        );
    }

    #[test]
    fn registration_guard_removes_entry() {
        let before = registered_threads().len();
        let reg = register_current_thread("guard-test");
        assert_eq!(registered_threads().len(), before + 1);
        drop(reg);
        assert!(registered_threads()
            .iter()
            .all(|(name, _)| name != "guard-test"));
    }

    #[test]
    fn ledger_accounts_and_clamps() {
        let ledger = MemoryLedger::with_budget(1024);
        ledger.charge_pool(600);
        ledger.charge_pool(600);
        assert!(ledger.over_budget());
        ledger.credit_pool(600);
        assert!(!ledger.over_budget());
        let sort = ledger.stage("sort");
        sort.acquire(4096);
        sort.acquire(4096);
        sort.release(4096);
        // Teardown drains can release buffers a stage never acquired;
        // residency clamps at zero instead of wrapping.
        let merge = ledger.stage("merge");
        merge.release(4096);
        let snap = ledger.snapshot();
        assert_eq!(snap.budget_bytes, 1024);
        assert_eq!(snap.total_buffers, 1);
        assert_eq!(snap.peak_bytes, 1200);
        let row = |n: &str| snap.stages.iter().find(|s| s.stage == n).unwrap();
        assert_eq!((row("sort").buffers, row("sort").bytes), (1, 4096));
        assert_eq!((row("merge").buffers, row("merge").bytes), (0, 0));
    }

    #[test]
    fn report_json_round_trip() {
        let report = ResourceReport {
            rss_bytes: 10 << 20,
            rss_peak_bytes: 12 << 20,
            threads: vec![ThreadResources {
                name: "csort/sort#0".into(),
                utime_ns: 1_500_000_000,
                stime_ns: 250_000_000,
                vol_switches: 42,
                invol_switches: 7,
            }],
            alloc_tracking: true,
            alloc: vec![AllocResources {
                stage: "sort/steady".into(),
                allocs: 0,
                frees: 3,
                bytes: 0,
                freed_bytes: 128,
            }],
            alloc_current_bytes: 1 << 20,
            alloc_peak_bytes: 2 << 20,
            ledger: Some(LedgerSnapshot {
                budget_bytes: 64 << 20,
                total_bytes: 8 << 20,
                peak_bytes: 8 << 20,
                total_buffers: 4,
                stages: vec![StageResidency {
                    stage: "sort".into(),
                    buffers: 2,
                    bytes: 4 << 20,
                }],
            }),
        };
        let text = report.to_json_value().to_string();
        let parsed = ResourceReport::from_json_value(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn publish_and_from_metrics_round_trip() {
        let report = ResourceReport {
            rss_bytes: 10 << 20,
            rss_peak_bytes: 12 << 20,
            threads: vec![
                ThreadResources {
                    name: "csort/read".into(),
                    utime_ns: 100,
                    stime_ns: 200,
                    vol_switches: 3,
                    invol_switches: 4,
                },
                ThreadResources {
                    name: "csort/sort#1".into(),
                    utime_ns: 500,
                    stime_ns: 600,
                    vol_switches: 7,
                    invol_switches: 8,
                },
            ],
            alloc_tracking: true,
            alloc: vec![AllocResources {
                stage: "sort".into(),
                allocs: 5,
                frees: 5,
                bytes: 4096,
                freed_bytes: 4096,
            }],
            alloc_current_bytes: 77,
            alloc_peak_bytes: 99,
            ledger: Some(LedgerSnapshot {
                budget_bytes: 0,
                total_bytes: 1 << 20,
                peak_bytes: 1 << 20,
                total_buffers: 2,
                stages: vec![StageResidency {
                    stage: "read".into(),
                    buffers: 1,
                    bytes: 1 << 19,
                }],
            }),
        };
        let registry = MetricsRegistry::new();
        report.publish(&registry);
        let rebuilt = ResourceReport::from_metrics(&registry.snapshot()).expect("gauges present");
        assert_eq!(rebuilt, report);
        assert!(ResourceReport::from_metrics(&MetricsSnapshot::default()).is_none());
    }

    #[test]
    fn replica_base_folds_indices() {
        assert_eq!(replica_base("sort#12"), "sort");
        assert_eq!(replica_base("sort"), "sort");
        assert_eq!(replica_base("a#b"), "a#b");
        assert_eq!(replica_base("csort/sort#0"), "csort/sort");
    }

    #[test]
    fn render_mentions_every_section() {
        let report = ResourceReport {
            rss_bytes: 1 << 20,
            rss_peak_bytes: 1 << 20,
            threads: vec![ThreadResources {
                name: "t".into(),
                ..ThreadResources::default()
            }],
            alloc_tracking: true,
            alloc: vec![AllocResources {
                stage: "sort".into(),
                allocs: 1,
                ..AllocResources::default()
            }],
            ledger: Some(LedgerSnapshot::default()),
            ..ResourceReport::default()
        };
        let text = report.render();
        assert!(text.contains("process rss"));
        assert!(text.contains("thread"));
        assert!(text.contains("alloc"));
        assert!(text.contains("ledger:"));
        assert_eq!(ResourceReport::default().render(), "no resource data\n");
    }
}
