//! Benchmark-only access to the internal bounded queue.
//!
//! [`Queue`](crate::queue) is deliberately crate-private: programs interact
//! with queues only through [`StageCtx`](crate::StageCtx).  The
//! `queue_throughput` benchmark in `crates/bench`, however, needs to drive
//! the MPMC and SPSC flavors directly to measure the fast path in
//! isolation.  This module exposes the minimum surface for that; it is
//! hidden from docs and carries no stability promise.

use std::sync::Arc;

use crate::buffer::{Buffer, PipelineId};
use crate::queue::{Item, Queue};

/// A handle on one internal queue, cloneable across producer/consumer
/// threads.
#[derive(Clone)]
pub struct BenchQueue {
    q: Arc<Queue>,
}

/// Reusable scratch for [`BenchQueue::pop_many`], so the benchmark's batched
/// consumer allocates once, like `StageCtx::accept_many` does.
#[derive(Default)]
pub struct Batch(Vec<Item>);

impl Batch {
    /// Number of items received by the last `pop_many`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the last `pop_many` returned nothing.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Drain the batch, handing each buffer to `f`.
    pub fn drain_buffers(&mut self, mut f: impl FnMut(Buffer)) {
        for item in self.0.drain(..) {
            if let Item::Buf(b) = item {
                f(b);
            }
        }
    }
}

impl BenchQueue {
    /// A queue using the general mutex-guarded MPMC flavor.
    pub fn mpmc(capacity: usize) -> Self {
        BenchQueue {
            q: Queue::new("bench/mpmc", capacity),
        }
    }

    /// A queue using the lock-free MPMC ring flavor (the planner's default
    /// for pools and farm inputs).
    pub fn mpmc_lock_free(capacity: usize) -> Self {
        BenchQueue {
            q: Queue::lock_free("bench/lockfree", capacity),
        }
    }

    /// A queue using the single-producer single-consumer ring flavor.  The
    /// caller promises at most one pushing and one popping thread.
    pub fn spsc(capacity: usize) -> Self {
        BenchQueue {
            q: Queue::spsc_with_gauge("bench/spsc", capacity, None),
        }
    }

    /// Allocate a buffer to circulate through the queue.
    pub fn buffer(bytes: usize) -> Buffer {
        Buffer::new(bytes, PipelineId(0))
    }

    /// Blocking push; false once the queue is closed.
    pub fn push(&self, buf: Buffer) -> bool {
        self.q.push(Item::Buf(buf)).is_ok()
    }

    /// Blocking pop; `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<Buffer> {
        match self.q.pop() {
            Ok(Item::Buf(b)) => Some(b),
            _ => None,
        }
    }

    /// Blocking batched pop of up to `max` items into `batch`; false once
    /// the queue is closed and drained.
    pub fn pop_many(&self, max: usize, batch: &mut Batch) -> bool {
        batch.0.clear();
        self.q.pop_many(max, &mut batch.0).is_ok()
    }

    /// Non-blocking push; false when the queue is full or closed (the
    /// buffer is dropped then — bench/property harnesses track counts, not
    /// identities, on the failure path).
    pub fn try_push(&self, buf: Buffer) -> bool {
        self.q.try_push(Item::Buf(buf)).is_ok()
    }

    /// Implementation label: `"mutex"`, `"lockfree"`, or `"spsc"`.
    pub fn flavor(&self) -> &'static str {
        self.q.flavor_label()
    }

    /// Failed position CASes so far (lock-free flavor; zero elsewhere).
    pub fn cas_retries(&self) -> u64 {
        self.q.cas_retries()
    }

    /// Close the queue, waking blocked producers and consumers.
    pub fn close(&self) {
        self.q.close();
    }
}
