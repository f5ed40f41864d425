//! Queue contention smoke benchmark: the lock-free MPMC ring vs the
//! mutex-deque baseline under the farm and recycle traffic shapes.
//!
//! The criterion bench (`benches/queue_throughput.rs`) is the full local
//! grid; this module is the CI-sized cut — one best-of-N wall timing per
//! cell — whose artifact the perf gate consumes (`queue-bench`
//! experiments subcommand).  CI additionally gates the lock-free flavor
//! at ≥1.2× over the mutex flavor on the 4×4 cell, but only on hosts
//! with at least 4 cores: below that the 8 threads of the gated cell
//! mostly take turns on the scheduler (on 2 shared cores the 1.2× bar is
//! intermittently missed even best-of-N), so
//! [`QueueBenchResult::gate_eligible`] lets the job skip with a notice
//! instead of gating noise.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fg_core::qbench::BenchQueue;

/// Queue capacity, matching a typical pipeline's buffer pool.
const CAP: usize = 8;
/// Payload bytes; small so queue overhead dominates the measurement.
const BUF_BYTES: usize = 64;

/// One producers × consumers cell, timed for both MPMC flavors.
#[derive(Debug)]
pub struct QueueCell {
    /// Producer thread count.
    pub producers: usize,
    /// Consumer thread count.
    pub consumers: usize,
    /// Buffers transferred per timing.
    pub items: usize,
    /// Mutex-deque flavor wall time (best-of-N).
    pub mutex: Duration,
    /// Lock-free ring flavor wall time (best-of-N).
    pub lock_free: Duration,
}

impl QueueCell {
    /// Mutex time over lock-free time — above 1.0 the ring wins.
    pub fn speedup(&self) -> f64 {
        self.mutex.as_secs_f64() / self.lock_free.as_secs_f64()
    }
}

/// Results of one queue-bench run.
#[derive(Debug)]
pub struct QueueBenchResult {
    /// Cores the scheduler grants this process; the CI gate only fires
    /// when this is >= 4.
    pub cores: usize,
    /// Symmetric contended cells (1×1, 2×2, 4×4, 8×8).
    pub contended: Vec<QueueCell>,
    /// The recycle-queue shape: many producers discarding, one consumer.
    pub recycle: QueueCell,
}

impl QueueBenchResult {
    /// Whether the host can run the gated 4×4 cell's producers and
    /// consumers in genuine parallel — the precondition for holding the
    /// speedup to a hard bar.  Two or three cores technically overlap,
    /// but with 8 threads time-slicing them the lock-free margin gets
    /// noisy enough to flake a CI gate.
    pub fn gate_eligible(&self) -> bool {
        self.cores >= 4
    }

    /// The gated cell: lock-free speedup at 4 producers × 4 consumers.
    pub fn gated_speedup(&self) -> Option<f64> {
        self.contended
            .iter()
            .find(|c| c.producers == 4 && c.consumers == 4)
            .map(QueueCell::speedup)
    }
}

/// Move `items` buffers across `q` with the given thread counts; returns
/// the wall time of the whole transfer.
fn run_cell(q: BenchQueue, producers: usize, consumers: usize, items: usize) -> Duration {
    let start = Instant::now();
    let got = Arc::new(AtomicUsize::new(0));
    let producer_h: Vec<_> = (0..producers)
        .map(|i| {
            let q = q.clone();
            let share = items / producers + usize::from(i < items % producers);
            thread::spawn(move || {
                for _ in 0..share {
                    q.push(BenchQueue::buffer(BUF_BYTES));
                }
            })
        })
        .collect();
    let consumer_h: Vec<_> = (0..consumers)
        .map(|_| {
            let q = q.clone();
            let got = Arc::clone(&got);
            thread::spawn(move || {
                while let Some(b) = q.pop() {
                    std::hint::black_box(b.capacity());
                    got.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for p in producer_h {
        p.join().unwrap();
    }
    q.close();
    for c in consumer_h {
        c.join().unwrap();
    }
    assert_eq!(got.load(Ordering::Relaxed), items, "queue lost items");
    start.elapsed()
}

/// Best-of-N: on shared CI hosts the minimum is the least-contended
/// observation of the same deterministic work, so it gates with far less
/// jitter than a mean.
fn best_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..reps).map(|_| f()).min().unwrap_or(Duration::MAX)
}

fn cell(producers: usize, consumers: usize, items: usize, reps: usize) -> QueueCell {
    QueueCell {
        producers,
        consumers,
        items,
        mutex: best_of(reps, || {
            run_cell(BenchQueue::mpmc(CAP), producers, consumers, items)
        }),
        lock_free: best_of(reps, || {
            run_cell(BenchQueue::mpmc_lock_free(CAP), producers, consumers, items)
        }),
    }
}

/// Run the queue smoke benchmark.  `quick` shrinks the transfer so the
/// subcommand stays in CI-smoke territory.
pub fn run_queue_bench(quick: bool) -> QueueBenchResult {
    let (items, reps) = if quick { (20_000, 3) } else { (100_000, 5) };
    QueueBenchResult {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        contended: [1usize, 2, 4, 8]
            .iter()
            .map(|&n| cell(n, n, items, reps))
            .collect(),
        recycle: cell(8, 1, items, reps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_reports_every_cell() {
        let _serial = crate::workload_test_lock();
        let res = run_queue_bench(true);
        assert_eq!(res.contended.len(), 4);
        assert!(res.gated_speedup().is_some());
        assert_eq!(res.recycle.producers, 8);
        assert_eq!(res.recycle.consumers, 1);
        for c in res.contended.iter().chain([&res.recycle]) {
            assert!(c.mutex > Duration::ZERO && c.lock_free > Duration::ZERO);
            assert!(c.speedup().is_finite());
        }
    }
}
