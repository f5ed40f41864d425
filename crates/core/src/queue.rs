//! Bounded blocking queues of buffers.
//!
//! FG places a queue between every pair of consecutive pipeline stages.  A
//! stage *conveys* a buffer by pushing into its downstream queue and
//! *accepts* by popping from its upstream queue; an empty upstream queue
//! blocks the accepting stage's thread, which is exactly how FG yields the
//! CPU to other stages while a high-latency operation is pending elsewhere.
//!
//! Queues are multi-producer multi-consumer because *virtual* stages share a
//! single queue among many pipelines, and every stage of a pipeline may
//! discard buffers into its pool (the first stage's input queue).  Three
//! flavors share one API: a mutex-guarded deque (the conservative baseline
//! and property-test oracle), a bounded lock-free MPMC ring with per-slot
//! sequence numbers (Vyukov-style; the planner's default for pools, farm
//! inputs, and virtual shared inputs), and — when the planner can prove a
//! queue has exactly one producer and one consumer thread (a plain
//! stage-to-stage link with no replication on either side) — a lock-free
//! SPSC ring.
//!
//! Waiting is *spin-then-park*: a blocked thread first spins a few hundred
//! iterations (the common case when the peer stage is about to act) and only
//! then takes the slow path of parking on a condvar.
//!
//! A queue can be *closed*; closing wakes every blocked thread — parked or
//! spinning.  Pushes to a closed queue fail immediately, pops drain whatever
//! is left and then fail.  The runtime closes all queues of a program when a
//! stage fails, which unblocks every thread for shutdown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::buffer::{Buffer, PipelineId};
use crate::metrics::{Counter, Gauge};

/// Iterations a blocked push/pop spins before parking on a condvar.  Zero
/// on a single-core host: there the peer stage cannot make progress while
/// we spin, so the spin phase only burns the time slice the peer needs.
///
/// The `FG_SPIN` environment variable overrides the heuristic (bench runs
/// sweep spin budgets without recompiling); it is read once and cached.
fn spin_limit() -> usize {
    static LIMIT: AtomicUsize = AtomicUsize::new(usize::MAX);
    let cached = LIMIT.load(Ordering::Relaxed);
    if cached != usize::MAX {
        return cached;
    }
    let limit = match std::env::var("FG_SPIN").ok().and_then(|v| v.parse().ok()) {
        // usize::MAX is the "not yet computed" sentinel; clamp under it.
        Some(n) => std::cmp::min(n, usize::MAX - 1),
        None => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            if cores > 1 {
                256
            } else {
                0
            }
        }
    };
    LIMIT.store(limit, Ordering::Relaxed);
    limit
}

/// What travels through a queue: a buffer, or the end-of-stream marker for
/// one pipeline (FG's *caboose*).
#[derive(Debug)]
pub(crate) enum Item {
    /// A data buffer.
    Buf(Buffer),
    /// End of pipeline `PipelineId`'s stream.  Exactly one caboose per
    /// pipeline flows through each queue on that pipeline's path.
    Caboose(PipelineId),
}

/// Error returned by queue operations once the queue is closed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Closed;

struct Inner {
    items: VecDeque<Item>,
    closed: bool,
}

/// Single-producer single-consumer ring: one `Option<Item>` slot per
/// capacity entry, with monotonically increasing head/tail indices.  The
/// per-slot mutexes are never contended (producer and consumer touch
/// disjoint slots) — they exist only to move `Item`s in and out without
/// `unsafe`.
struct Ring {
    slots: Vec<Mutex<Option<Item>>>,
    /// Next slot the consumer will take.  Only the consumer stores.
    head: AtomicU64,
    /// Next slot the producer will fill.  Only the producer stores.
    tail: AtomicU64,
}

/// One slot of the lock-free MPMC ring: a sequence number plus the item.
///
/// The sequence number carries the Vyukov protocol: it equals the slot's
/// position when the slot is free for the producer claiming that position,
/// position + 1 once the item is published, and position + capacity once
/// the consumer has released the slot for the next lap.  As in the SPSC
/// ring, the per-slot mutex is uncontended by construction — the position
/// CAS grants exclusive access — and exists only to move `Item`s without
/// `unsafe`.
struct LfSlot {
    seq: AtomicU64,
    val: Mutex<Option<Item>>,
}

/// Bounded lock-free MPMC ring (Vyukov-style): producers claim positions
/// by CAS on `tail`, consumers by CAS on `head`; the per-slot sequence
/// numbers publish item visibility, so no operation ever holds a lock
/// across the queue.
struct LfRing {
    slots: Vec<LfSlot>,
    /// Next position a consumer will claim.
    head: AtomicU64,
    /// Next position a producer will claim.
    tail: AtomicU64,
}

enum Flavor {
    /// General case: a mutex-protected deque, usable from any number of
    /// producer and consumer threads.
    Mpmc(Mutex<Inner>),
    /// Lock-free fast path for the same MPMC contract: a bounded ring with
    /// per-slot sequence numbers, usable from any number of producer and
    /// consumer threads.
    LockFree(LfRing),
    /// Fast path: a lock-free ring, valid only with exactly one producer
    /// thread and one consumer thread.
    Spsc(Ring),
}

/// Which queue implementation to build; the planner picks per queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlavorKind {
    /// Mutex-guarded deque (the conservative MPMC baseline and the oracle
    /// the lock-free flavor is property-tested against).
    Mutex,
    /// Lock-free MPMC ring.
    LockFree,
    /// SPSC ring; caller promises one producer and one consumer thread.
    Spsc,
}

/// Registry-backed contention counters for one queue, present only when
/// the program runs with a metrics registry attached.  The queue also
/// keeps always-on local atomics (see [`Queue::cas_retries`]) so tests and
/// post-mortems can read contention without a registry.
pub(crate) struct QueueMetrics {
    /// `core/queue_cas_retries/<queue>`: failed position CASes (lock-free
    /// flavor only; a proxy for producer/consumer collision rate).
    pub(crate) cas_retries: Arc<Counter>,
    /// `core/queue_push_parks/<queue>`: producer condvar waits.
    pub(crate) push_parks: Arc<Counter>,
    /// `core/queue_pop_parks/<queue>`: consumer condvar waits.
    pub(crate) pop_parks: Arc<Counter>,
    /// `core/queue_wakes/<queue>`: slow-path notifications issued because a
    /// peer had advertised itself parked (non-mutex flavors).
    pub(crate) wakes: Arc<Counter>,
    /// `core/queue_items/<queue>`: successful pushes — the denominator
    /// that turns raw CAS-retry counts into a per-item collision rate.
    pub(crate) items: Arc<Counter>,
}

/// Always-on local contention counters (relaxed atomics; negligible cost).
#[derive(Default)]
struct ContentionStats {
    cas_retries: AtomicU64,
    push_parks: AtomicU64,
    pop_parks: AtomicU64,
    wakes: AtomicU64,
    items: AtomicU64,
}

/// A bounded blocking queue of [`Item`]s.
pub(crate) struct Queue {
    flavor: Flavor,
    /// Authoritative closed flag for the SPSC flavor; a racy hint for the
    /// MPMC spin phase (MPMC keeps the authoritative flag under its lock).
    closed: AtomicBool,
    /// Approximate current depth, maintained so blocked threads can spin on
    /// it without taking the lock.
    depth_hint: AtomicUsize,
    /// High-water mark of the queue's depth over its lifetime.
    max_depth: AtomicUsize,
    /// Parking lot for the SPSC flavor's slow path.  (The MPMC flavor parks
    /// on its own inner mutex instead.)
    park: Mutex<()>,
    /// Number of consumers parked (or about to park) on `not_empty`; the
    /// producer only takes `park` to notify when this is non-zero.
    pop_sleepers: AtomicUsize,
    /// Number of producers parked (or about to park) on `not_full`.
    push_sleepers: AtomicUsize,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    name: String,
    /// Depth gauge sampled once per push/pop/batch, present only when the
    /// program runs with a metrics registry attached.
    gauge: Option<Arc<Gauge>>,
    /// Always-on local contention counters.
    contention: ContentionStats,
    /// Registry mirrors of the contention counters (when attached).
    metrics: Option<QueueMetrics>,
}

impl Queue {
    /// Create an MPMC queue holding at most `capacity` items.
    pub(crate) fn new(name: impl Into<String>, capacity: usize) -> Arc<Self> {
        Self::with_gauge(name, capacity, None)
    }

    /// Create an MPMC queue that additionally samples its depth into `gauge`.
    pub(crate) fn with_gauge(
        name: impl Into<String>,
        capacity: usize,
        gauge: Option<Arc<Gauge>>,
    ) -> Arc<Self> {
        Self::flavored(name, capacity, FlavorKind::Mutex, gauge, None)
    }

    /// Create a lock-free MPMC queue (bench/test convenience).
    #[allow(dead_code)] // exercised via qbench and unit tests
    pub(crate) fn lock_free(name: impl Into<String>, capacity: usize) -> Arc<Self> {
        Self::flavored(name, capacity, FlavorKind::LockFree, None, None)
    }

    /// Create an SPSC queue.  The caller promises that at most one thread
    /// ever pushes and at most one thread ever pops (`close` may still be
    /// called from anywhere).
    pub(crate) fn spsc_with_gauge(
        name: impl Into<String>,
        capacity: usize,
        gauge: Option<Arc<Gauge>>,
    ) -> Arc<Self> {
        Self::flavored(name, capacity, FlavorKind::Spsc, gauge, None)
    }

    /// Create a queue of the given flavor with optional depth gauge and
    /// contention counters.  The planner's one construction point.
    pub(crate) fn flavored(
        name: impl Into<String>,
        capacity: usize,
        kind: FlavorKind,
        gauge: Option<Arc<Gauge>>,
        metrics: Option<QueueMetrics>,
    ) -> Arc<Self> {
        assert!(capacity > 0, "queue capacity must be positive");
        // Vyukov's bounded MPMC algorithm requires capacity >= 2: at
        // `cap == 1` the publish value of lap n (`pos + 1`) collides with
        // the free value of lap n+1, and no head-based pre-check can
        // close the race against a consumer that has claimed the slot
        // (head CAS won) but not yet released it (seq store pending).
        // Degenerate capacity-1 requests fall back to the mutex flavor,
        // which carries no precondition.
        let kind = if kind == FlavorKind::LockFree && capacity < 2 {
            FlavorKind::Mutex
        } else {
            kind
        };
        let flavor = match kind {
            FlavorKind::Mutex => Flavor::Mpmc(Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            })),
            FlavorKind::LockFree => Flavor::LockFree(LfRing {
                slots: (0..capacity)
                    .map(|i| LfSlot {
                        seq: AtomicU64::new(i as u64),
                        val: Mutex::new(None),
                    })
                    .collect(),
                head: AtomicU64::new(0),
                tail: AtomicU64::new(0),
            }),
            FlavorKind::Spsc => Flavor::Spsc(Ring {
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
                head: AtomicU64::new(0),
                tail: AtomicU64::new(0),
            }),
        };
        Arc::new(Queue {
            flavor,
            closed: AtomicBool::new(false),
            depth_hint: AtomicUsize::new(0),
            max_depth: AtomicUsize::new(0),
            park: Mutex::new(()),
            pop_sleepers: AtomicUsize::new(0),
            push_sleepers: AtomicUsize::new(0),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            name: name.into(),
            gauge,
            contention: ContentionStats::default(),
            metrics,
        })
    }

    /// Debug name of this queue.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Maximum number of items this queue can hold.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether this queue uses the single-producer single-consumer ring.
    pub(crate) fn is_spsc(&self) -> bool {
        matches!(self.flavor, Flavor::Spsc(_))
    }

    /// Stable label of this queue's flavor (reports, dashboards, JSON).
    pub(crate) fn flavor_label(&self) -> &'static str {
        match self.flavor {
            Flavor::Mpmc(_) => "mutex",
            Flavor::LockFree(_) => "lockfree",
            Flavor::Spsc(_) => "spsc",
        }
    }

    /// Failed position CASes over the queue's lifetime (lock-free flavor;
    /// always zero for the others).
    pub(crate) fn cas_retries(&self) -> u64 {
        self.contention.cas_retries.load(Ordering::Relaxed)
    }

    /// Producer and consumer condvar waits over the queue's lifetime.
    #[cfg(test)]
    pub(crate) fn parks(&self) -> (u64, u64) {
        (
            self.contention.push_parks.load(Ordering::Relaxed),
            self.contention.pop_parks.load(Ordering::Relaxed),
        )
    }

    fn note_cas_retries(&self, n: u64) {
        self.contention.cas_retries.fetch_add(n, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.cas_retries.add(n);
        }
    }

    fn note_push_park(&self) {
        self.contention.push_parks.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.push_parks.inc();
        }
    }

    fn note_pop_park(&self) {
        self.contention.pop_parks.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.pop_parks.inc();
        }
    }

    fn note_wake(&self) {
        self.contention.wakes.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.wakes.inc();
        }
    }

    fn note_item(&self) {
        self.contention.items.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.items.inc();
        }
    }

    /// High-water mark of the queue's depth over its lifetime.
    pub(crate) fn max_depth(&self) -> usize {
        self.max_depth.load(Ordering::Relaxed)
    }

    /// Approximate current depth, readable from any thread without taking
    /// the queue lock (watchdog post-mortems).
    pub(crate) fn depth(&self) -> usize {
        self.depth_hint.load(Ordering::Relaxed)
    }

    fn record_depth(&self, depth: usize) {
        self.depth_hint.store(depth, Ordering::Relaxed);
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    fn sample_depth(&self, depth: usize) {
        if let Some(g) = &self.gauge {
            g.set(depth as u64);
        }
    }

    /// Blocking push.  Fails (returning the item) once the queue is closed.
    pub(crate) fn push(&self, item: Item) -> Result<(), (Item, Closed)> {
        match &self.flavor {
            Flavor::Mpmc(lock) => {
                // Spin while the queue looks full: the consumer usually
                // frees a slot within a few hundred iterations.
                if self.depth_hint.load(Ordering::Relaxed) >= self.capacity {
                    for _ in 0..spin_limit() {
                        if self.depth_hint.load(Ordering::Relaxed) < self.capacity
                            || self.closed.load(Ordering::Relaxed)
                        {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
                let mut inner = lock.lock();
                while inner.items.len() >= self.capacity && !inner.closed {
                    self.note_push_park();
                    self.not_full.wait(&mut inner);
                }
                if inner.closed {
                    return Err((item, Closed));
                }
                inner.items.push_back(item);
                let depth = inner.items.len();
                self.record_depth(depth);
                drop(inner);
                self.sample_depth(depth);
                self.note_item();
                self.not_empty.notify_one();
                Ok(())
            }
            Flavor::LockFree(ring) => self.lf_push(ring, item),
            Flavor::Spsc(ring) => self.spsc_push(ring, item),
        }
    }

    /// Non-blocking push used by shutdown paths; drops nothing silently —
    /// the item comes back on failure.
    pub(crate) fn try_push(&self, item: Item) -> Result<(), (Item, Closed)> {
        match &self.flavor {
            Flavor::Mpmc(lock) => {
                let mut inner = lock.lock();
                if inner.closed || inner.items.len() >= self.capacity {
                    return Err((item, Closed));
                }
                inner.items.push_back(item);
                let depth = inner.items.len();
                self.record_depth(depth);
                drop(inner);
                self.sample_depth(depth);
                self.note_item();
                self.not_empty.notify_one();
                Ok(())
            }
            Flavor::LockFree(ring) => {
                if self.closed.load(Ordering::SeqCst) {
                    return Err((item, Closed));
                }
                match self.lf_try_push(ring, item) {
                    Ok(()) => {
                        self.note_item();
                        self.after_lf_push(ring);
                        Ok(())
                    }
                    Err(item) => Err((item, Closed)),
                }
            }
            Flavor::Spsc(ring) => {
                if self.closed.load(Ordering::SeqCst) {
                    return Err((item, Closed));
                }
                match self.spsc_try_push(ring, item) {
                    Ok(()) => {
                        self.note_item();
                        self.after_spsc_push(ring);
                        Ok(())
                    }
                    Err(item) => Err((item, Closed)),
                }
            }
        }
    }

    /// Blocking pop.  After close, drains remaining items, then fails.
    pub(crate) fn pop(&self) -> Result<Item, Closed> {
        match &self.flavor {
            Flavor::Mpmc(lock) => {
                self.mpmc_spin_until_nonempty();
                let mut inner = lock.lock();
                loop {
                    if let Some(item) = inner.items.pop_front() {
                        let depth = inner.items.len();
                        self.depth_hint.store(depth, Ordering::Relaxed);
                        drop(inner);
                        self.sample_depth(depth);
                        self.not_full.notify_one();
                        return Ok(item);
                    }
                    if inner.closed {
                        return Err(Closed);
                    }
                    self.note_pop_park();
                    self.not_empty.wait(&mut inner);
                }
            }
            Flavor::LockFree(ring) => self.lf_pop(ring),
            Flavor::Spsc(ring) => self.spsc_pop(ring),
        }
    }

    /// Blocking batched pop: wait for at least one item, then drain up to
    /// `max` items into `out` under a single lock acquisition, sampling the
    /// depth gauge once for the whole batch.  A caboose terminates the
    /// batch (it is included) so callers never see items from beyond an
    /// end-of-stream marker.  Returns the number of items appended.
    pub(crate) fn pop_many(&self, max: usize, out: &mut Vec<Item>) -> Result<usize, Closed> {
        assert!(max > 0, "pop_many needs a positive batch size");
        match &self.flavor {
            Flavor::Mpmc(lock) => {
                self.mpmc_spin_until_nonempty();
                let mut inner = lock.lock();
                loop {
                    if !inner.items.is_empty() {
                        let mut n = 0;
                        while n < max {
                            match inner.items.pop_front() {
                                Some(item) => {
                                    let stop = matches!(item, Item::Caboose(_));
                                    out.push(item);
                                    n += 1;
                                    if stop {
                                        break;
                                    }
                                }
                                None => break,
                            }
                        }
                        let depth = inner.items.len();
                        self.depth_hint.store(depth, Ordering::Relaxed);
                        drop(inner);
                        self.sample_depth(depth);
                        if n > 1 {
                            self.not_full.notify_all();
                        } else {
                            self.not_full.notify_one();
                        }
                        return Ok(n);
                    }
                    if inner.closed {
                        return Err(Closed);
                    }
                    self.note_pop_park();
                    self.not_empty.wait(&mut inner);
                }
            }
            Flavor::LockFree(ring) => {
                let first = self.lf_pop_raw(ring)?;
                let mut stop = matches!(first, Item::Caboose(_));
                out.push(first);
                let mut n = 1;
                while n < max && !stop {
                    match self.lf_try_pop(ring) {
                        Some(item) => {
                            stop = matches!(item, Item::Caboose(_));
                            out.push(item);
                            n += 1;
                        }
                        None => break,
                    }
                }
                self.after_lf_pop(ring);
                Ok(n)
            }
            Flavor::Spsc(ring) => {
                let first = self.spsc_pop_raw(ring)?;
                let mut stop = matches!(first, Item::Caboose(_));
                out.push(first);
                let mut n = 1;
                while n < max && !stop {
                    match self.spsc_try_pop(ring) {
                        Some(item) => {
                            stop = matches!(item, Item::Caboose(_));
                            out.push(item);
                            n += 1;
                        }
                        None => break,
                    }
                }
                self.after_spsc_pop(ring);
                Ok(n)
            }
        }
    }

    /// Close the queue and wake all waiters.  Idempotent.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        if let Flavor::Mpmc(lock) = &self.flavor {
            let mut inner = lock.lock();
            inner.closed = true;
            drop(inner);
            self.not_empty.notify_all();
            self.not_full.notify_all();
        } else {
            // Take the parking lock so a consumer/producer that re-checked
            // just before waiting cannot miss this wakeup.
            let _guard = self.park.lock();
            self.not_empty.notify_all();
            self.not_full.notify_all();
        }
    }

    /// Number of items currently queued (for tests/diagnostics).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        match &self.flavor {
            Flavor::Mpmc(lock) => lock.lock().items.len(),
            Flavor::LockFree(ring) => {
                ring.tail
                    .load(Ordering::SeqCst)
                    .saturating_sub(ring.head.load(Ordering::SeqCst)) as usize
            }
            Flavor::Spsc(ring) => {
                (ring.tail.load(Ordering::SeqCst) - ring.head.load(Ordering::SeqCst)) as usize
            }
        }
    }

    /// Bounded spin while the MPMC queue looks empty, so a consumer that is
    /// about to be fed avoids the lock + park round trip.
    fn mpmc_spin_until_nonempty(&self) {
        if self.depth_hint.load(Ordering::Relaxed) == 0 {
            for _ in 0..spin_limit() {
                if self.depth_hint.load(Ordering::Relaxed) != 0
                    || self.closed.load(Ordering::Relaxed)
                {
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }

    // --- Lock-free MPMC flavor internals ---------------------------------
    //
    // Vyukov's bounded MPMC algorithm: a producer claims position `p` by
    // CAS on `tail` when slot `p % cap` carries sequence `p` (free this
    // lap), writes the item, then publishes by storing sequence `p + 1`.
    // A consumer claims position `p` by CAS on `head` when the slot
    // carries `p + 1` (published), takes the item, then releases the slot
    // for the next lap by storing `p + cap`.  The algorithm requires
    // `cap >= 2` — enforced in [`Queue::flavored`], which builds the
    // mutex flavor instead for capacity-1 requests — so the sequence
    // values of consecutive laps never collide.  Every access uses `SeqCst`:
    // the park slow path reuses the SPSC flavor's Dekker-style sleeper
    // handshake, which needs a single total order between the ring
    // indices, the sleeper counters, and the closed flag.

    /// Attempt the lock-free push; returns the item back when the ring is
    /// full.  Failed position CASes are counted as contention.
    fn lf_try_push(&self, ring: &LfRing, item: Item) -> Result<(), Item> {
        let cap = self.capacity as u64;
        let mut retries = 0u64;
        let mut pos = ring.tail.load(Ordering::SeqCst);
        let result = loop {
            let slot = &ring.slots[(pos % cap) as usize];
            let seq = slot.seq.load(Ordering::SeqCst);
            if seq == pos {
                match ring.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        let prev = slot.val.lock().replace(item);
                        debug_assert!(prev.is_none(), "lock-free slot overwritten");
                        slot.seq.store(pos + 1, Ordering::SeqCst);
                        break Ok(pos);
                    }
                    Err(cur) => {
                        retries += 1;
                        pos = cur;
                    }
                }
            } else if seq < pos {
                // The consumer lap hasn't released this slot yet: full.
                break Err(item);
            } else {
                // Another producer claimed `pos` first; chase the tail.
                pos = ring.tail.load(Ordering::SeqCst);
            }
        };
        if retries > 0 {
            self.note_cas_retries(retries);
        }
        match result {
            Ok(pos) => {
                let head = ring.head.load(Ordering::SeqCst);
                self.record_depth((pos + 1).saturating_sub(head) as usize);
                Ok(())
            }
            Err(item) => Err(item),
        }
    }

    /// Attempt the lock-free pop; `None` when the ring is empty (or every
    /// published item is being claimed by another consumer).
    fn lf_try_pop(&self, ring: &LfRing) -> Option<Item> {
        let cap = self.capacity as u64;
        let mut retries = 0u64;
        let mut pos = ring.head.load(Ordering::SeqCst);
        let result = loop {
            let slot = &ring.slots[(pos % cap) as usize];
            let seq = slot.seq.load(Ordering::SeqCst);
            if seq == pos + 1 {
                match ring.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        let item = slot
                            .val
                            .lock()
                            .take()
                            .expect("lock-free slot unexpectedly empty");
                        slot.seq.store(pos + cap, Ordering::SeqCst);
                        break Some((item, pos));
                    }
                    Err(cur) => {
                        retries += 1;
                        pos = cur;
                    }
                }
            } else if seq <= pos {
                // Nothing published at this position yet: empty.
                break None;
            } else {
                // Another consumer claimed `pos` first; chase the head.
                pos = ring.head.load(Ordering::SeqCst);
            }
        };
        if retries > 0 {
            self.note_cas_retries(retries);
        }
        result.map(|(item, pos)| {
            let tail = ring.tail.load(Ordering::SeqCst);
            self.depth_hint
                .store(tail.saturating_sub(pos + 1) as usize, Ordering::Relaxed);
            item
        })
    }

    fn lf_full(&self, ring: &LfRing) -> bool {
        let tail = ring.tail.load(Ordering::SeqCst);
        let head = ring.head.load(Ordering::SeqCst);
        tail.saturating_sub(head) as usize >= self.capacity
    }

    fn lf_empty(&self, ring: &LfRing) -> bool {
        ring.tail.load(Ordering::SeqCst) <= ring.head.load(Ordering::SeqCst)
    }

    /// Post-push bookkeeping: sample the gauge and wake parked consumers.
    fn after_lf_push(&self, ring: &LfRing) {
        let depth = ring
            .tail
            .load(Ordering::SeqCst)
            .saturating_sub(ring.head.load(Ordering::SeqCst));
        self.sample_depth(depth as usize);
        if self.pop_sleepers.load(Ordering::SeqCst) > 0 {
            self.note_wake();
            let _guard = self.park.lock();
            self.not_empty.notify_all();
        }
    }

    /// Post-pop bookkeeping: sample the gauge and wake parked producers.
    fn after_lf_pop(&self, ring: &LfRing) {
        let depth = ring
            .tail
            .load(Ordering::SeqCst)
            .saturating_sub(ring.head.load(Ordering::SeqCst));
        self.sample_depth(depth as usize);
        if self.push_sleepers.load(Ordering::SeqCst) > 0 {
            self.note_wake();
            let _guard = self.park.lock();
            self.not_full.notify_all();
        }
    }

    fn lf_push(&self, ring: &LfRing, mut item: Item) -> Result<(), (Item, Closed)> {
        // As in `spsc_push`: the attempt lives in the spin loop, so even
        // with a zero spin limit each pass tries (then parks) at least once.
        let attempts = spin_limit().max(1);
        loop {
            for _ in 0..attempts {
                if self.closed.load(Ordering::SeqCst) {
                    return Err((item, Closed));
                }
                match self.lf_try_push(ring, item) {
                    Ok(()) => {
                        self.note_item();
                        self.after_lf_push(ring);
                        return Ok(());
                    }
                    Err(back) => item = back,
                }
                std::hint::spin_loop();
            }
            // Park until a consumer frees a slot or the queue closes.  The
            // predicate uses the ring indices, so a pop that is mid-claim
            // (head advanced, slot not yet released) reads as "not full"
            // and sends us back to the attempt loop rather than to sleep.
            self.push_sleepers.fetch_add(1, Ordering::SeqCst);
            {
                let mut guard = self.park.lock();
                while self.lf_full(ring) && !self.closed.load(Ordering::SeqCst) {
                    self.note_push_park();
                    self.not_full.wait(&mut guard);
                }
            }
            self.push_sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Blocking single pop on the lock-free ring, without the gauge/wake
    /// epilogue (batched pops amortize those via [`Queue::after_lf_pop`]).
    fn lf_pop_raw(&self, ring: &LfRing) -> Result<Item, Closed> {
        let attempts = spin_limit().max(1);
        loop {
            for _ in 0..attempts {
                if let Some(item) = self.lf_try_pop(ring) {
                    return Ok(item);
                }
                if self.closed.load(Ordering::SeqCst) {
                    // Drain after close: anything in the ring must still
                    // come out.  `tail > head` with nothing poppable means
                    // a producer won its tail CAS just before the close
                    // and is mid-publish (seq store pending) — wait it
                    // out rather than strand the item behind a `Closed`.
                    loop {
                        if let Some(item) = self.lf_try_pop(ring) {
                            return Ok(item);
                        }
                        if self.lf_empty(ring) {
                            return Err(Closed);
                        }
                        std::thread::yield_now();
                    }
                }
                std::hint::spin_loop();
            }
            // Park until a producer publishes or the queue closes.
            self.pop_sleepers.fetch_add(1, Ordering::SeqCst);
            {
                let mut guard = self.park.lock();
                while self.lf_empty(ring) && !self.closed.load(Ordering::SeqCst) {
                    self.note_pop_park();
                    self.not_empty.wait(&mut guard);
                }
            }
            self.pop_sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn lf_pop(&self, ring: &LfRing) -> Result<Item, Closed> {
        let item = self.lf_pop_raw(ring)?;
        self.after_lf_pop(ring);
        Ok(item)
    }

    // --- SPSC flavor internals -------------------------------------------
    //
    // Producer and consumer coordinate through `head`/`tail` alone; the
    // parking slow path uses the sleeper counters with sequentially
    // consistent ordering (a Dekker-style handshake): a waiter publishes
    // its intent (sleeper count), then re-checks the condition under the
    // park lock; the peer makes the condition true, then checks the
    // sleeper count and notifies under the same lock.  At least one side
    // always observes the other, so no wakeup is lost.

    /// Attempt the ring push; returns the item back when the ring is full.
    fn spsc_try_push(&self, ring: &Ring, item: Item) -> Result<(), Item> {
        let tail = ring.tail.load(Ordering::SeqCst);
        let head = ring.head.load(Ordering::SeqCst);
        if (tail - head) as usize >= self.capacity {
            return Err(item);
        }
        let slot = &ring.slots[(tail % self.capacity as u64) as usize];
        let prev = slot.lock().replace(item);
        debug_assert!(prev.is_none(), "spsc slot overwritten");
        ring.tail.store(tail + 1, Ordering::SeqCst);
        let depth = (tail + 1 - head) as usize;
        self.record_depth(depth);
        Ok(())
    }

    /// Post-push bookkeeping: sample the gauge and wake a parked consumer.
    fn after_spsc_push(&self, ring: &Ring) {
        let depth = ring.tail.load(Ordering::SeqCst) - ring.head.load(Ordering::SeqCst);
        self.sample_depth(depth as usize);
        if self.pop_sleepers.load(Ordering::SeqCst) > 0 {
            self.note_wake();
            let _guard = self.park.lock();
            self.not_empty.notify_all();
        }
    }

    fn spsc_push(&self, ring: &Ring, mut item: Item) -> Result<(), (Item, Closed)> {
        // The push attempt itself lives in the spin loop, so even with a
        // zero spin limit each pass must try (then park) at least once.
        let attempts = spin_limit().max(1);
        loop {
            for _ in 0..attempts {
                if self.closed.load(Ordering::SeqCst) {
                    return Err((item, Closed));
                }
                match self.spsc_try_push(ring, item) {
                    Ok(()) => {
                        self.note_item();
                        self.after_spsc_push(ring);
                        return Ok(());
                    }
                    Err(back) => item = back,
                }
                std::hint::spin_loop();
            }
            // Park until the consumer frees a slot or the queue closes.
            self.push_sleepers.fetch_add(1, Ordering::SeqCst);
            {
                let mut guard = self.park.lock();
                while self.spsc_full(ring) && !self.closed.load(Ordering::SeqCst) {
                    self.note_push_park();
                    self.not_full.wait(&mut guard);
                }
            }
            self.push_sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn spsc_full(&self, ring: &Ring) -> bool {
        let tail = ring.tail.load(Ordering::SeqCst);
        let head = ring.head.load(Ordering::SeqCst);
        (tail - head) as usize >= self.capacity
    }

    /// Attempt the ring pop; pure ring operation with no gauge or wakeups
    /// (batched pops amortize those via [`Queue::after_spsc_pop`]).
    fn spsc_try_pop(&self, ring: &Ring) -> Option<Item> {
        let head = ring.head.load(Ordering::SeqCst);
        let tail = ring.tail.load(Ordering::SeqCst);
        if head == tail {
            return None;
        }
        let slot = &ring.slots[(head % self.capacity as u64) as usize];
        let item = slot.lock().take().expect("spsc slot unexpectedly empty");
        ring.head.store(head + 1, Ordering::SeqCst);
        self.depth_hint
            .store((tail - head - 1) as usize, Ordering::Relaxed);
        Some(item)
    }

    /// Post-pop bookkeeping: sample the gauge and wake a parked producer.
    fn after_spsc_pop(&self, ring: &Ring) {
        let depth = ring.tail.load(Ordering::SeqCst) - ring.head.load(Ordering::SeqCst);
        self.sample_depth(depth as usize);
        if self.push_sleepers.load(Ordering::SeqCst) > 0 {
            self.note_wake();
            let _guard = self.park.lock();
            self.not_full.notify_all();
        }
    }

    /// Blocking single pop on the ring, without the gauge/wake epilogue.
    fn spsc_pop_raw(&self, ring: &Ring) -> Result<Item, Closed> {
        // As in `spsc_push`: at least one pop attempt per pass.
        let attempts = spin_limit().max(1);
        loop {
            for _ in 0..attempts {
                if let Some(item) = self.spsc_try_pop(ring) {
                    return Ok(item);
                }
                if self.closed.load(Ordering::SeqCst) {
                    // Drain any item pushed before the close landed.
                    return self.spsc_try_pop(ring).ok_or(Closed);
                }
                std::hint::spin_loop();
            }
            // Park until the producer pushes or the queue closes.
            self.pop_sleepers.fetch_add(1, Ordering::SeqCst);
            {
                let mut guard = self.park.lock();
                while self.spsc_empty(ring) && !self.closed.load(Ordering::SeqCst) {
                    self.note_pop_park();
                    self.not_empty.wait(&mut guard);
                }
            }
            self.pop_sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn spsc_empty(&self, ring: &Ring) -> bool {
        ring.head.load(Ordering::SeqCst) == ring.tail.load(Ordering::SeqCst)
    }

    fn spsc_pop(&self, ring: &Ring) -> Result<Item, Closed> {
        let item = self.spsc_pop_raw(ring)?;
        self.after_spsc_pop(ring);
        Ok(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn buf_item(pipeline: u32, tag: u64) -> Item {
        let mut b = Buffer::new(8, PipelineId(pipeline));
        b.meta = tag;
        Item::Buf(b)
    }

    fn tag_of(item: &Item) -> u64 {
        match item {
            Item::Buf(b) => b.meta,
            Item::Caboose(_) => u64::MAX,
        }
    }

    /// Run a closure against all three queue flavors.
    fn for_both(f: impl Fn(Arc<Queue>)) {
        f(Queue::new("mpmc", 4));
        f(Queue::lock_free("lf", 4));
        f(Queue::spsc_with_gauge("spsc", 4, None));
    }

    fn both_cap1(f: impl Fn(Arc<Queue>)) {
        f(Queue::new("mpmc", 1));
        // A cap-1 lock-free request builds the mutex fallback (the ring
        // needs two slots); included so the fallback honors the same
        // blocking contract.  Ring-flavor blocking is covered at cap >= 2
        // below and in tests/queue_flavors.rs.
        f(Queue::lock_free("lf", 1));
        f(Queue::spsc_with_gauge("spsc", 1, None));
    }

    #[test]
    fn fifo_order() {
        for_both(|q| {
            for i in 0..4 {
                q.push(buf_item(0, i)).unwrap();
            }
            for i in 0..4 {
                assert_eq!(tag_of(&q.pop().unwrap()), i);
            }
        });
    }

    #[test]
    fn push_blocks_until_pop() {
        both_cap1(|q| {
            q.push(buf_item(0, 0)).unwrap();
            let q2 = Arc::clone(&q);
            let h = thread::spawn(move || q2.push(buf_item(0, 1)).is_ok());
            thread::sleep(Duration::from_millis(20));
            assert_eq!(q.len(), 1, "second push must still be blocked");
            assert_eq!(tag_of(&q.pop().unwrap()), 0);
            assert!(h.join().unwrap());
            assert_eq!(tag_of(&q.pop().unwrap()), 1);
        });
    }

    #[test]
    fn pop_blocks_until_push() {
        both_cap1(|q| {
            let q2 = Arc::clone(&q);
            let h = thread::spawn(move || tag_of(&q2.pop().unwrap()));
            thread::sleep(Duration::from_millis(20));
            q.push(buf_item(0, 9)).unwrap();
            assert_eq!(h.join().unwrap(), 9);
        });
    }

    #[test]
    fn close_wakes_poppers() {
        both_cap1(|q| {
            let q2 = Arc::clone(&q);
            let h = thread::spawn(move || q2.pop().is_err());
            thread::sleep(Duration::from_millis(20));
            q.close();
            assert!(h.join().unwrap());
        });
    }

    #[test]
    fn close_wakes_pushers() {
        both_cap1(|q| {
            q.push(buf_item(0, 0)).unwrap();
            let q2 = Arc::clone(&q);
            let h = thread::spawn(move || q2.push(buf_item(0, 1)).is_err());
            thread::sleep(Duration::from_millis(20));
            q.close();
            assert!(h.join().unwrap());
        });
    }

    #[test]
    fn close_drains_then_fails() {
        for_both(|q| {
            q.push(buf_item(0, 1)).unwrap();
            q.push(buf_item(0, 2)).unwrap();
            q.close();
            assert_eq!(tag_of(&q.pop().unwrap()), 1);
            assert_eq!(tag_of(&q.pop().unwrap()), 2);
            assert!(q.pop().is_err());
            assert!(q.push(buf_item(0, 3)).is_err());
        });
    }

    #[test]
    fn try_push_respects_capacity_and_close() {
        both_cap1(|q| {
            assert!(q.try_push(buf_item(0, 0)).is_ok());
            assert!(q.try_push(buf_item(0, 1)).is_err());
        });
        both_cap1(|q| {
            q.close();
            assert!(q.try_push(buf_item(0, 0)).is_err());
        });
    }

    #[test]
    fn max_depth_tracks_high_water_mark() {
        for_both(|q| {
            assert_eq!(q.max_depth(), 0);
            q.push(buf_item(0, 0)).unwrap();
            q.push(buf_item(0, 1)).unwrap();
            q.pop().unwrap();
            q.push(buf_item(0, 2)).unwrap();
            // Depth peaked at 2 even though it dipped to 1 in between.
            assert_eq!(q.max_depth(), 2);
            assert_eq!(q.capacity(), 4);
        });
    }

    #[test]
    fn gauge_samples_depth_on_push_and_pop() {
        let g = Arc::new(crate::metrics::Gauge::new());
        let q = Queue::with_gauge("t", 4, Some(Arc::clone(&g)));
        q.push(buf_item(0, 0)).unwrap();
        q.push(buf_item(0, 1)).unwrap();
        assert_eq!(g.get(), 2);
        q.pop().unwrap();
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 2);
    }

    #[test]
    fn gauge_samples_once_per_batched_pop() {
        let g = Arc::new(crate::metrics::Gauge::new());
        let q = Queue::spsc_with_gauge("t", 8, Some(Arc::clone(&g)));
        for i in 0..6 {
            q.push(buf_item(0, i)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_many(4, &mut out).unwrap(), 4);
        // One sample for the whole batch: the gauge holds the post-batch
        // depth, never the intermediate 5/4/3.
        assert_eq!(g.get(), 2);
        assert_eq!(out.len(), 4);
        assert_eq!(q.max_depth(), 6);
    }

    #[test]
    fn pop_many_drains_fifo_and_stops_at_caboose() {
        for_both(|q| {
            q.push(buf_item(1, 10)).unwrap();
            q.push(buf_item(1, 11)).unwrap();
            q.push(Item::Caboose(PipelineId(1))).unwrap();
            let mut out = Vec::new();
            let n = q.pop_many(8, &mut out).unwrap();
            // The caboose ends the batch even though `max` wasn't reached.
            assert_eq!(n, 3);
            assert_eq!(tag_of(&out[0]), 10);
            assert_eq!(tag_of(&out[1]), 11);
            assert!(matches!(out[2], Item::Caboose(PipelineId(1))));
        });
    }

    #[test]
    fn pop_many_respects_max() {
        for_both(|q| {
            for i in 0..4 {
                q.push(buf_item(0, i)).unwrap();
            }
            let mut out = Vec::new();
            assert_eq!(q.pop_many(3, &mut out).unwrap(), 3);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_many(3, &mut out).unwrap(), 1);
            assert_eq!(out.len(), 4);
        });
    }

    #[test]
    fn pop_many_blocks_then_returns_batch() {
        for_both(|q| {
            let q2 = Arc::clone(&q);
            let h = thread::spawn(move || {
                let mut out = Vec::new();
                let n = q2.pop_many(8, &mut out).unwrap();
                (n, out.iter().map(tag_of).collect::<Vec<_>>())
            });
            thread::sleep(Duration::from_millis(20));
            q.push(buf_item(0, 7)).unwrap();
            let (n, tags) = h.join().unwrap();
            assert!(n >= 1);
            assert_eq!(tags[0], 7);
        });
    }

    #[test]
    fn pop_many_wakes_blocked_pushers() {
        both_cap1(|q| {
            q.push(buf_item(0, 0)).unwrap();
            let q2 = Arc::clone(&q);
            let h = thread::spawn(move || q2.push(buf_item(0, 1)).is_ok());
            thread::sleep(Duration::from_millis(20));
            let mut out = Vec::new();
            assert_eq!(q.pop_many(4, &mut out).unwrap(), 1);
            assert!(h.join().unwrap());
        });
    }

    #[test]
    fn pop_many_fails_after_close_and_drain() {
        for_both(|q| {
            q.push(buf_item(0, 1)).unwrap();
            q.close();
            let mut out = Vec::new();
            assert_eq!(q.pop_many(4, &mut out).unwrap(), 1);
            assert!(q.pop_many(4, &mut out).is_err());
        });
    }

    #[test]
    fn caboose_travels_like_data() {
        for_both(|q| {
            q.push(buf_item(3, 5)).unwrap();
            q.push(Item::Caboose(PipelineId(3))).unwrap();
            assert!(matches!(q.pop().unwrap(), Item::Buf(_)));
            match q.pop().unwrap() {
                Item::Caboose(p) => assert_eq!(p, PipelineId(3)),
                other => panic!("expected caboose, got {other:?}"),
            }
        });
    }

    #[test]
    fn spsc_flavor_is_reported() {
        assert!(!Queue::new("m", 2).is_spsc());
        assert!(!Queue::lock_free("l", 2).is_spsc());
        assert!(Queue::spsc_with_gauge("s", 2, None).is_spsc());
    }

    #[test]
    fn flavor_labels_are_stable() {
        assert_eq!(Queue::new("m", 2).flavor_label(), "mutex");
        assert_eq!(Queue::lock_free("l", 2).flavor_label(), "lockfree");
        assert_eq!(Queue::spsc_with_gauge("s", 2, None).flavor_label(), "spsc");
    }

    #[test]
    fn lock_free_order_survives_many_wraparounds() {
        // A cap-2 ring forced through thousands of laps exercises the
        // sequence-number lap arithmetic (`pos + 1` publish, `pos + cap`
        // release) far past the first wrap.
        let q = Queue::lock_free("l", 2);
        for i in 0..5_000u64 {
            q.push(buf_item(0, 2 * i)).unwrap();
            q.push(buf_item(0, 2 * i + 1)).unwrap();
            assert_eq!(tag_of(&q.pop().unwrap()), 2 * i);
            assert_eq!(tag_of(&q.pop().unwrap()), 2 * i + 1);
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn lock_free_stress_preserves_item_count() {
        let q = Queue::lock_free("l", 8);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100 {
                        q.push(buf_item(0, (p * 100 + i) as u64)).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..100 {
                        got.push(tag_of(&q.pop().unwrap()));
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..400).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn lock_free_preserves_per_producer_fifo() {
        // Tags carry (producer, seq); a single consumer must see each
        // producer's items in increasing seq order even though the
        // interleaving across producers is arbitrary.
        let q = Queue::lock_free("l", 4);
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..500u64 {
                        q.push(buf_item(0, (p << 32) | i)).unwrap();
                    }
                })
            })
            .collect();
        let mut next = [0u64; 3];
        for _ in 0..1500 {
            let tag = tag_of(&q.pop().unwrap());
            let (p, i) = ((tag >> 32) as usize, tag & 0xffff_ffff);
            assert_eq!(i, next[p], "producer {p} items reordered");
            next[p] += 1;
        }
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn close_wakes_every_parked_popper() {
        for_both(|q| {
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || q.pop().is_err())
                })
                .collect();
            thread::sleep(Duration::from_millis(30));
            q.close();
            for w in waiters {
                assert!(w.join().unwrap());
            }
        });
    }

    #[test]
    fn park_counters_record_blocked_waits() {
        // On a host where the spin budget never expires this would be
        // flaky, so only assert the counters move when a wait certainly
        // parked: a full queue with the peer delayed past any spin phase.
        // (Cap 2, the ring's minimum — a cap-1 request would build the
        // mutex fallback and bypass the lock-free park path under test.)
        let q = Queue::lock_free("l", 2);
        q.push(buf_item(0, 0)).unwrap();
        q.push(buf_item(0, 1)).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.push(buf_item(0, 2)).is_ok());
        // Wait until the producer has actually parked: the queue stays
        // full until we pop, so the park counter must eventually move.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while q.parks().0 == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "producer never parked"
            );
            thread::sleep(Duration::from_millis(1));
        }
        q.pop().unwrap();
        assert!(h.join().unwrap());
        let (push_parks, _) = q.parks();
        assert!(push_parks > 0, "blocked push should count a park");
        assert_eq!(
            q.cas_retries(),
            0,
            "uncontended run must not count CAS retries"
        );
    }

    #[test]
    fn spsc_stress_preserves_order_across_wraparound() {
        let q = Queue::spsc_with_gauge("s", 3, None);
        let q2 = Arc::clone(&q);
        const N: u64 = 10_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                q2.push(buf_item(0, i)).unwrap();
            }
        });
        for i in 0..N {
            assert_eq!(tag_of(&q.pop().unwrap()), i);
        }
        producer.join().unwrap();
    }

    #[test]
    fn spsc_batched_consumer_sees_every_item_in_order() {
        let q = Queue::spsc_with_gauge("s", 4, None);
        let q2 = Arc::clone(&q);
        const N: u64 = 10_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                q2.push(buf_item(0, i)).unwrap();
            }
            q2.close();
        });
        let mut seen = Vec::new();
        let mut out = Vec::new();
        while let Ok(n) = q.pop_many(8, &mut out) {
            assert!(n > 0);
            seen.extend(out.drain(..).map(|i| tag_of(&i)));
        }
        producer.join().unwrap();
        let expect: Vec<u64> = (0..N).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn mpmc_stress_preserves_item_count() {
        let q = Queue::new("t", 8);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100 {
                        q.push(buf_item(0, (p * 100 + i) as u64)).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..100 {
                        got.push(tag_of(&q.pop().unwrap()));
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..400).collect();
        assert_eq!(all, expect);
    }
}
