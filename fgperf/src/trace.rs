//! The traced run's instruments: an in-memory span log and a timing
//! [`Disk`] wrapper.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; nothing inside the program is changed.
//! They stay in memory and are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fg_core::controller::DepthActuator;
use fg_pdm::{Disk, DiskRef, DiskStats, PdmError};

/// Disk spans kept per run; later ones are counted in `dropped` only, so a
/// long run cannot grow the log without bound.  Structural spans
/// (iterations, sorts, micro-benchmarks) are always kept.
const MAX_DISK_SPANS: usize = 50_000;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// What was timed, e.g. `run_dsort` or `disk.read_at`.
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
    /// Node rank, for disk calls.
    pub rank: Option<usize>,
    /// Bytes moved, for disk calls.
    pub bytes: u64,
}

/// An in-memory span log shared by every instrument of one run.
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    /// Parent of the disk spans recorded while a sort is running.
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
    disk_spans: AtomicU64,
    dropped: AtomicU64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            disk_spans: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Time `f` as a span named `name` under `parent`; `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: self.now_ns(),
            rank: None,
            bytes: 0,
        });
        out
    }

    /// Make `id` the parent of disk spans recorded from now on.
    pub fn set_current(&self, id: u64) {
        self.current.store(id, Ordering::Relaxed);
    }

    fn record_disk(&self, name: &'static str, rank: usize, bytes: u64, start_ns: u64) {
        let end_ns = self.now_ns();
        if self.disk_spans.fetch_add(1, Ordering::Relaxed) >= MAX_DISK_SPANS as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
            rank: Some(rank),
            bytes,
        });
    }

    /// Disk spans not kept because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Write the log as one JSON document: `{"dropped_disk_spans": n,
    /// "spans": [{"id", "parent", "name", "start_ns", "end_ns", "rank",
    /// "bytes"}, ...]}`, in completion order; returns the spans written.
    pub fn write_json(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"dropped_disk_spans\":{},\"spans\":[",
            self.dropped()
        )?;
        for (i, s) in spans.iter().enumerate() {
            let rank = s.rank.map_or("null".to_string(), |r| r.to_string());
            write!(
                out,
                "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"rank\":{},\"bytes\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                rank,
                s.bytes
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()?;
        Ok(spans.len())
    }
}

/// Per-direction tally of a disk's timed operations.
#[derive(Debug, Clone, Default)]
pub struct OpTally {
    /// Operations completed (successfully or not).
    pub ops: u64,
    /// Bytes moved by successful operations.
    pub bytes: u64,
    /// Per-operation latency in nanoseconds; their sum is the busy time.
    pub lat_ns: Vec<u64>,
}

/// Everything the timing wrappers of one sort measured, summed over nodes.
#[derive(Debug, Clone, Default)]
pub struct DiskTally {
    /// `read_at` and `read_up_to`.
    pub read: OpTally,
    /// `write_at` and `append`.
    pub write: OpTally,
    /// Time spent in `flush`.
    pub flush_ns: u64,
    /// Calls that returned an error.
    pub errors: u64,
}

#[derive(Clone, Copy)]
enum Op {
    Read,
    Write,
    Flush,
}

/// A [`Disk`] that forwards every call to `inner`, recording a span per
/// call and tallying reads, writes, flushes and errors.
///
/// Every trait method is forwarded explicitly, including the ones with
/// defaults: the default `flush` returns `Ok(())` and would swallow an
/// [`IoScheduler`](fg_pdm::IoScheduler)'s deferred-write errors, and the
/// default `depth_actuator` would hide its read-ahead actuator.
pub struct TimedDisk {
    inner: DiskRef,
    rank: usize,
    log: Arc<SpanLog>,
    tally: Arc<Mutex<DiskTally>>,
}

impl TimedDisk {
    /// Wrap node `rank`'s disk, recording into `log` and `tally`.
    pub fn wrap(
        inner: DiskRef,
        rank: usize,
        log: Arc<SpanLog>,
        tally: Arc<Mutex<DiskTally>>,
    ) -> DiskRef {
        Arc::new(TimedDisk {
            inner,
            rank,
            log,
            tally,
        })
    }

    fn io<T>(
        &self,
        name: &'static str,
        op: Op,
        f: impl FnOnce() -> Result<T, PdmError>,
        bytes: impl FnOnce(&T) -> u64,
    ) -> Result<T, PdmError> {
        let t0 = Instant::now();
        let start_ns = self.log.now_ns();
        let res = f();
        let lat = t0.elapsed().as_nanos() as u64;
        let moved = res.as_ref().map_or(0, bytes);
        {
            let mut t = self.tally.lock().expect("disk tally poisoned");
            if res.is_err() {
                t.errors += 1;
            }
            match op {
                Op::Read | Op::Write => {
                    let d = if matches!(op, Op::Read) {
                        &mut t.read
                    } else {
                        &mut t.write
                    };
                    d.ops += 1;
                    d.bytes += moved;
                    d.lat_ns.push(lat);
                }
                Op::Flush => t.flush_ns += lat,
            }
        }
        self.log.record_disk(name, self.rank, moved, start_ns);
        res
    }

    fn meta<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.log.now_ns();
        let out = f();
        self.log.record_disk(name, self.rank, 0, start_ns);
        out
    }
}

impl Disk for TimedDisk {
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
        let n = data.len() as u64;
        self.io(
            "disk.write_at",
            Op::Write,
            || self.inner.write_at(name, offset, data),
            |_| n,
        )
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
        let n = data.len() as u64;
        self.io(
            "disk.append",
            Op::Write,
            || self.inner.append(name, data),
            |_| n,
        )
    }

    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError> {
        let n = out.len() as u64;
        self.io(
            "disk.read_at",
            Op::Read,
            || self.inner.read_at(name, offset, out),
            |_| n,
        )
    }

    fn read_up_to(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, PdmError> {
        self.io(
            "disk.read_up_to",
            Op::Read,
            || self.inner.read_up_to(name, offset, len),
            |v| v.len() as u64,
        )
    }

    fn load(&self, name: &str, bytes: Vec<u8>) {
        self.meta("disk.load", || self.inner.load(name, bytes))
    }

    fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        self.meta("disk.snapshot", || self.inner.snapshot(name))
    }

    fn len(&self, name: &str) -> Option<u64> {
        self.meta("disk.len", || self.inner.len(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.meta("disk.exists", || self.inner.exists(name))
    }

    fn delete(&self, name: &str) -> bool {
        self.meta("disk.delete", || self.inner.delete(name))
    }

    fn list(&self) -> Vec<String> {
        self.meta("disk.list", || self.inner.list())
    }

    fn stats(&self) -> DiskStats {
        self.meta("disk.stats", || self.inner.stats())
    }

    fn reset_stats(&self) {
        self.meta("disk.reset_stats", || self.inner.reset_stats())
    }

    fn fail_after_ops(&self, ops: u64) {
        self.meta("disk.fail_after_ops", || self.inner.fail_after_ops(ops))
    }

    fn flush(&self) -> Result<(), PdmError> {
        self.io("disk.flush", Op::Flush, || self.inner.flush(), |_| 0)
    }

    fn depth_actuator(self: Arc<Self>) -> Option<Arc<dyn DepthActuator>> {
        Arc::clone(&self.inner).depth_actuator()
    }
}
