//! A persistent shard-worker runtime: long-lived worker threads owning
//! their per-shard state, fed over lock-free SPSC ring lanes.
//!
//! [`par_map_mut`](crate::par_map_mut) forks one thread per item per call —
//! the right shape for a handful of coarse, independent dispatches, but on
//! multi-core hardware the spawn/join cost is paid again at every
//! synchronization point. When the same shards are dispatched thousands of
//! times (the `coach-serve` sharded controller processes one segment per
//! barrier request), the fork-join overhead eats the parallelism.
//!
//! [`with_shard_workers`] replaces that with the persistent-worker shape
//! from the fine-grain ordered-parallelism literature: each shard's state
//! moves into a long-lived worker thread once per *session*, commands
//! stream to it over an SPSC lane (preserving per-shard order), and
//! replies stream back over a second SPSC lane in the same order. The
//! caller sequences barriers itself by sending a token to every worker —
//! lane FIFO guarantees each worker applies the token between exactly
//! the commands the caller ordered around it, so no global stop-the-world
//! join is needed and workers never go idle between segments.
//!
//! # Lane implementations
//!
//! The default command lane ([`LaneKind::Ring`]) is a dependency-free
//! *bounded lock-free SPSC ring buffer*: a power-of-two slot array indexed
//! by cache-line-padded monotonic head/tail counters with Acquire/Release
//! publication, so steady-state send/recv is a couple of atomic ops and no
//! lock. A `Mutex` + `Condvar` pair exists purely as the **sleep/wake slow
//! path**: the consumer spins briefly, then publishes a parked flag and
//! waits; the producer only takes the lock to notify when it actually
//! observes a parked peer — an empty→non-empty transition costs one wakeup,
//! and a full segment delivered through [`LaneSender::send_batch`] /
//! [`LaneReceiver::recv_batch`] amortizes that single wakeup across the
//! whole burst. A full ring applies *backpressure* (the producer parks
//! until the consumer frees slots) instead of growing without bound.
//!
//! The original `Mutex<VecDeque>` channel is retained as
//! [`LaneKind::MutexRef`] — the slow reference implementation the ring is
//! differentially tested against (same role as the scheduler's
//! `NaiveReference` scan), selectable end-to-end for A/B benchmarks.

use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Spins on the fast path before a blocked lane endpoint parks on the
/// condvar. Small on purpose: on a loaded single-core host spinning only
/// delays the peer.
const SPIN: usize = 64;

/// How many commands a shard worker drains per wakeup (see
/// [`with_shard_workers_configured`]).
const WORKER_BURST: usize = 32;

/// Default ring capacity (slots) for worker command lanes. Must be a
/// power of two; deep enough that a dispatcher streaming coarse segment
/// batches rarely stalls, small enough to bound buffered memory.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Cumulative lane telemetry, snapshot from counter-instrumented lane
/// endpoints. All lanes count; `coach-serve` surfaces the pool-wide sums
/// in its `StatsReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Items enqueued (each item of a batch counts once).
    pub sends: u64,
    /// `send_batch` calls — `sends / batched_sends` is the mean handoff
    /// size, and `wakeups / batched_sends` the wakeups-per-segment rate.
    pub batched_sends: u64,
    /// Condvar notifies actually issued (either direction): how often a
    /// handoff found its peer asleep instead of running.
    pub wakeups: u64,
    /// Times a producer found the ring full and had to stall for the
    /// consumer (backpressure events; always 0 for the unbounded
    /// [`LaneKind::MutexRef`] lane).
    pub full_stalls: u64,
}

impl LaneStats {
    /// Accumulate another snapshot into this one.
    pub fn merge(&mut self, other: &LaneStats) {
        self.sends += other.sends;
        self.batched_sends += other.batched_sends;
        self.wakeups += other.wakeups;
        self.full_stalls += other.full_stalls;
    }
}

/// Shared atomic counters behind one lane (see [`LaneStats`] for field
/// meanings). Updated with relaxed ordering: telemetry, not
/// synchronization.
#[derive(Debug, Default)]
struct LaneCounters {
    sends: AtomicU64,
    batched_sends: AtomicU64,
    wakeups: AtomicU64,
    full_stalls: AtomicU64,
}

impl LaneCounters {
    fn snapshot(&self) -> LaneStats {
        LaneStats {
            sends: self.sends.load(Ordering::Relaxed),
            batched_sends: self.batched_sends.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            full_stalls: self.full_stalls.load(Ordering::Relaxed),
        }
    }
}

/// Lock the park mutex, surviving poisoning (it guards no data — only
/// the sleep/wake handshake — so a panicked peer must not wedge drops).
fn lock_park(park: &Mutex<()>) -> MutexGuard<'_, ()> {
    park.lock().unwrap_or_else(|poison| poison.into_inner())
}

// ---------------------------------------------------------------------------
// Mutex reference lane
// ---------------------------------------------------------------------------

/// Shared state behind one mutex-lane SPSC channel.
struct Shared<T> {
    queue: Mutex<ChannelState<T>>,
    ready: Condvar,
    counters: LaneCounters,
}

struct ChannelState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumer is (about to be) blocked in `ready.wait` — maintained
    /// under the queue mutex, so a producer that reads `false` is
    /// guaranteed the consumer will re-check the queue before sleeping.
    waiting: bool,
}

/// The sending half of a mutex-lane SPSC channel (see [`spsc_channel`]).
/// Dropping it closes the channel: the receiver drains what was sent,
/// then sees `None`.
pub struct SpscSender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a mutex-lane SPSC channel (see [`spsc_channel`]).
pub struct SpscReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// An unbounded single-producer single-consumer channel over
/// `Mutex<VecDeque>` — the reference lane ([`LaneKind::MutexRef`]) the
/// lock-free ring is differentially tested against.
///
/// Sends never block; [`SpscReceiver::recv`] blocks until an item arrives
/// or the sender is dropped. Items arrive in send order — the property the
/// shard runtime's ordering correctness rests on.
pub fn spsc_channel<T>() -> (SpscSender<T>, SpscReceiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(ChannelState {
            items: VecDeque::new(),
            closed: false,
            waiting: false,
        }),
        ready: Condvar::new(),
        counters: LaneCounters::default(),
    });
    (
        SpscSender {
            shared: Arc::clone(&shared),
        },
        SpscReceiver { shared },
    )
}

impl<T> SpscSender<T> {
    /// Enqueue an item (never blocks). Sending after the receiver is gone
    /// is harmless: the item is queued and freed with the channel.
    pub fn send(&self, item: T) {
        self.shared.counters.sends.fetch_add(1, Ordering::Relaxed);
        let mut state = self.shared.queue.lock().expect("channel lock");
        state.items.push_back(item);
        let wake = state.waiting;
        drop(state);
        if wake {
            self.shared.counters.wakeups.fetch_add(1, Ordering::Relaxed);
            self.shared.ready.notify_one();
        }
    }

    /// Enqueue a whole batch under one lock acquisition and at most one
    /// consumer wakeup.
    pub fn send_batch(&self, items: Vec<T>) {
        if items.is_empty() {
            return;
        }
        let counters = &self.shared.counters;
        counters
            .sends
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        counters.batched_sends.fetch_add(1, Ordering::Relaxed);
        let mut state = self.shared.queue.lock().expect("channel lock");
        state.items.extend(items);
        let wake = state.waiting;
        drop(state);
        if wake {
            counters.wakeups.fetch_add(1, Ordering::Relaxed);
            self.shared.ready.notify_one();
        }
    }

    /// Snapshot this lane's telemetry counters.
    pub fn stats(&self) -> LaneStats {
        self.shared.counters.snapshot()
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        let mut state = match self.shared.queue.lock() {
            Ok(state) => state,
            Err(poison) => poison.into_inner(),
        };
        state.closed = true;
        drop(state);
        self.shared.ready.notify_all();
    }
}

impl<T> SpscReceiver<T> {
    /// Block until the next item, or `None` once the channel is closed and
    /// drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.queue.lock().expect("channel lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.waiting = true;
            state = self.shared.ready.wait(state).expect("channel lock");
            state.waiting = false;
        }
    }

    /// Block until at least one item is available, then move up to `max`
    /// items into `out` (preserving order). Returns the number moved —
    /// `0` only once the channel is closed and drained (or `max == 0`).
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut state = self.shared.queue.lock().expect("channel lock");
        loop {
            if !state.items.is_empty() {
                let n = state.items.len().min(max);
                out.extend(state.items.drain(..n));
                return n;
            }
            if state.closed {
                return 0;
            }
            state.waiting = true;
            state = self.shared.ready.wait(state).expect("channel lock");
            state.waiting = false;
        }
    }

    /// Non-blocking receive: `Some(item)` if one is queued, else `None`
    /// (whether the channel is open or closed).
    pub fn try_recv(&self) -> Option<T> {
        self.shared
            .queue
            .lock()
            .expect("channel lock")
            .items
            .pop_front()
    }

    /// Snapshot this lane's telemetry counters.
    pub fn stats(&self) -> LaneStats {
        self.shared.counters.snapshot()
    }
}

// ---------------------------------------------------------------------------
// Lock-free ring lane
// ---------------------------------------------------------------------------

/// Pads (and aligns) a hot atomic to its own cache line so the producer's
/// tail and the consumer's head never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// One ring slot. `UnsafeCell` because ownership of the payload moves
/// between the producer and consumer threads outside any lock; the
/// head/tail protocol guarantees exclusive access.
struct Slot<T>(std::cell::UnsafeCell<MaybeUninit<T>>);

/// State shared by the two halves of a ring lane.
///
/// `head`/`tail` are *monotonic* operation counters (wrapping at
/// `usize::MAX`, which the arithmetic below handles via `wrapping_sub`);
/// `index & mask` locates a counter's slot. Invariant:
/// `tail - head <= capacity`, slots in `[head, tail)` are initialized and
/// owned by the consumer, the rest are free for the producer.
struct RingShared<T> {
    mask: usize,
    buf: Box<[Slot<T>]>,
    /// Next slot the consumer will read. Written only by the consumer
    /// (Release), read by the producer (Acquire).
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Written only by the producer
    /// (Release), read by the consumer (Acquire).
    tail: CachePadded<AtomicUsize>,
    /// Sender dropped: consumer drains, then sees end-of-stream.
    closed: AtomicBool,
    /// Receiver dropped: sends become drops (never block).
    rx_gone: AtomicBool,
    /// Sleep/wake handshake flags (Dekker-style with SeqCst fences): a
    /// peer parks only after publishing its flag and re-checking the
    /// indices, and the other side only takes the lock to notify when it
    /// reads the flag as set.
    consumer_parked: AtomicBool,
    producer_parked: AtomicBool,
    /// Guards nothing but the condvars — the slow sleep/wake path.
    park: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
    counters: LaneCounters,
}

// SAFETY: the SPSC protocol partitions `buf` between exactly one producer
// and one consumer thread — a slot is written only while in the free
// region `[tail, head + capacity)` (owned by the producer) and read only
// while in `[head, tail)` (owned by the consumer), with ownership
// transferred by the Release/Acquire pairs on `tail` and `head`. All other
// fields are atomics or sync primitives.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> RingShared<T> {
    /// Write `item` into the slot for monotonic index `index`.
    ///
    /// # Safety
    ///
    /// Caller must be the producer and `index` must lie in the free
    /// region (`index - head < capacity` and `index >= tail`), unpublished
    /// to the consumer.
    #[allow(unsafe_code)]
    unsafe fn write_slot(&self, index: usize, item: T) {
        (*self.buf[index & self.mask].0.get()).write(item);
    }

    /// Move the value out of the slot for monotonic index `index`.
    ///
    /// # Safety
    ///
    /// Caller must be the consumer and `index` must lie in `[head, tail)`
    /// with the slot not yet released back to the producer.
    #[allow(unsafe_code)]
    unsafe fn read_slot(&self, index: usize) -> T {
        (*self.buf[index & self.mask].0.get()).assume_init_read()
    }
}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Last reference: drop any items still in flight.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut index = head;
        while index != tail {
            // SAFETY: `&mut self` means both endpoints are gone; slots in
            // `[head, tail)` are initialized and unconsumed.
            #[allow(unsafe_code)]
            unsafe {
                (*self.buf[index & self.mask].0.get()).assume_init_drop();
            }
            index = index.wrapping_add(1);
        }
    }
}

/// The producing half of a lock-free ring lane (see [`ring_channel`]).
pub struct RingSender<T> {
    shared: Arc<RingShared<T>>,
    /// Producer-private cache of `head`, refreshed only when the ring
    /// looks full — most sends never touch the consumer's cache line.
    cached_head: Cell<usize>,
}

/// The consuming half of a lock-free ring lane (see [`ring_channel`]).
pub struct RingReceiver<T> {
    shared: Arc<RingShared<T>>,
    /// Consumer-private cache of `tail`, refreshed only when the ring
    /// looks empty.
    cached_tail: Cell<usize>,
}

/// A bounded lock-free SPSC ring lane.
///
/// `capacity` is rounded up to the next power of two (minimum 2). The
/// fast path is wait-free publication over padded atomics; a
/// mutex/condvar pair is used **only** to sleep and wake blocked
/// endpoints (empty ring: consumer parks; full ring: producer parks —
/// backpressure instead of unbounded growth). Dropping the sender closes
/// the lane ([`RingReceiver::recv`] drains then returns `None`); dropping
/// the receiver turns sends into silent drops so a producer can never
/// wedge on a dead consumer.
pub fn ring_channel<T>(capacity: usize) -> (RingSender<T>, RingReceiver<T>) {
    let capacity = capacity.max(2).next_power_of_two();
    let buf: Box<[Slot<T>]> = (0..capacity)
        .map(|_| Slot(std::cell::UnsafeCell::new(MaybeUninit::uninit())))
        .collect();
    let shared = Arc::new(RingShared {
        mask: capacity - 1,
        buf,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        rx_gone: AtomicBool::new(false),
        consumer_parked: AtomicBool::new(false),
        producer_parked: AtomicBool::new(false),
        park: Mutex::new(()),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        counters: LaneCounters::default(),
    });
    (
        RingSender {
            shared: Arc::clone(&shared),
            cached_head: Cell::new(0),
        },
        RingReceiver {
            shared,
            cached_tail: Cell::new(0),
        },
    )
}

impl<T> RingSender<T> {
    fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Free slots given the cached head; refreshes the cache from the
    /// shared index when the cached view looks full.
    fn free_slots(&self, tail: usize) -> usize {
        let cap = self.capacity();
        let used = tail.wrapping_sub(self.cached_head.get());
        if used < cap {
            return cap - used;
        }
        self.cached_head
            .set(self.shared.head.0.load(Ordering::Acquire));
        cap - tail.wrapping_sub(self.cached_head.get())
    }

    /// Block until at least one slot is free; returns the free count, or
    /// 0 if the receiver is gone (items should be dropped).
    fn wait_free(&self, tail: usize) -> usize {
        let free = self.free_slots(tail);
        if free > 0 {
            return free;
        }
        if self.shared.rx_gone.load(Ordering::Acquire) {
            return 0;
        }
        self.shared
            .counters
            .full_stalls
            .fetch_add(1, Ordering::Relaxed);
        loop {
            for _ in 0..SPIN {
                std::hint::spin_loop();
                let free = self.free_slots(tail);
                if free > 0 {
                    return free;
                }
            }
            if self.shared.rx_gone.load(Ordering::Acquire) {
                return 0;
            }
            // Park: publish intent, re-check under a fence (so the
            // consumer's release of a slot cannot race past us), then
            // sleep under the lock.
            self.shared.producer_parked.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let mut free = self.free_slots(tail);
            if free == 0 && !self.shared.rx_gone.load(Ordering::Relaxed) {
                let mut guard = lock_park(&self.shared.park);
                loop {
                    free = self.free_slots(tail);
                    if free > 0 || self.shared.rx_gone.load(Ordering::Acquire) {
                        break;
                    }
                    guard = self
                        .shared
                        .not_full
                        .wait(guard)
                        .unwrap_or_else(|poison| poison.into_inner());
                }
            }
            self.shared.producer_parked.store(false, Ordering::Relaxed);
            if free > 0 {
                return free;
            }
            if self.shared.rx_gone.load(Ordering::Acquire) {
                return 0;
            }
        }
    }

    /// Notify the consumer if (and only if) it is parked. The SeqCst
    /// fence pairs with the consumer's park sequence: either we see its
    /// parked flag, or it sees our tail publication — never neither.
    fn wake_consumer(&self) {
        fence(Ordering::SeqCst);
        if self.shared.consumer_parked.load(Ordering::Relaxed) {
            self.shared.counters.wakeups.fetch_add(1, Ordering::Relaxed);
            let _guard = lock_park(&self.shared.park);
            self.shared.not_empty.notify_one();
        }
    }

    /// Send one item. Blocks while the ring is full (backpressure); if
    /// the receiver has been dropped the item is silently dropped.
    pub fn send(&self, item: T) {
        self.shared.counters.sends.fetch_add(1, Ordering::Relaxed);
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        if self.wait_free(tail) == 0 {
            return; // receiver gone
        }
        // SAFETY: `wait_free` proved `tail` is in the free region, and as
        // the unique producer nothing else can claim it.
        #[allow(unsafe_code)]
        unsafe {
            self.shared.write_slot(tail, item);
        }
        self.shared
            .tail
            .0
            .store(tail.wrapping_add(1), Ordering::Release);
        self.wake_consumer();
    }

    /// Send a whole batch, publishing as many items per step as the ring
    /// has free slots and issuing **at most one wakeup per published
    /// chunk** — for a consumer draining via [`RingReceiver::recv_batch`],
    /// one wakeup per segment instead of one per item.
    ///
    /// Blocks while the ring is full; if the receiver has been dropped
    /// the remaining items are silently dropped.
    pub fn send_batch(&self, items: Vec<T>) {
        if items.is_empty() {
            return;
        }
        let counters = &self.shared.counters;
        counters
            .sends
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        counters.batched_sends.fetch_add(1, Ordering::Relaxed);
        let mut items = items.into_iter();
        loop {
            let tail = self.shared.tail.0.load(Ordering::Relaxed);
            let free = self.wait_free(tail);
            if free == 0 {
                return; // receiver gone: drop the rest
            }
            let mut wrote = 0;
            while wrote < free {
                match items.next() {
                    // SAFETY: `tail + wrote` stays within the free region
                    // proven by `wait_free` (`wrote < free`).
                    #[allow(unsafe_code)]
                    Some(item) => unsafe {
                        self.shared.write_slot(tail.wrapping_add(wrote), item);
                        wrote += 1;
                    },
                    None => break,
                }
            }
            self.shared
                .tail
                .0
                .store(tail.wrapping_add(wrote), Ordering::Release);
            self.wake_consumer();
            if items.len() == 0 {
                return;
            }
        }
    }

    /// Snapshot this lane's telemetry counters.
    pub fn stats(&self) -> LaneStats {
        self.shared.counters.snapshot()
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        fence(Ordering::SeqCst);
        // Take the lock unconditionally: the consumer may be between its
        // parked-flag store and its condvar wait.
        let _guard = lock_park(&self.shared.park);
        self.shared.not_empty.notify_all();
    }
}

impl<T> RingReceiver<T> {
    /// Items available given the cached tail; refreshes the cache from
    /// the shared index when the cached view looks empty.
    fn available(&self, head: usize) -> usize {
        let avail = self.cached_tail.get().wrapping_sub(head);
        if avail > 0 {
            return avail;
        }
        self.cached_tail
            .set(self.shared.tail.0.load(Ordering::Acquire));
        self.cached_tail.get().wrapping_sub(head)
    }

    /// Block until items are available; returns the count, or 0 once the
    /// lane is closed and fully drained.
    fn wait_available(&self, head: usize) -> usize {
        let avail = self.available(head);
        if avail > 0 {
            return avail;
        }
        loop {
            if self.shared.closed.load(Ordering::Acquire) {
                // The sender publishes items before `closed`; one more
                // refresh observes everything it sent.
                return self.available(head);
            }
            for _ in 0..SPIN {
                std::hint::spin_loop();
                let avail = self.available(head);
                if avail > 0 {
                    return avail;
                }
            }
            // Park: publish intent, re-check under a fence (pairs with
            // the producer's `wake_consumer`), then sleep under the lock.
            self.shared.consumer_parked.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let mut avail = self.available(head);
            if avail == 0 && !self.shared.closed.load(Ordering::Relaxed) {
                let mut guard = lock_park(&self.shared.park);
                loop {
                    avail = self.available(head);
                    if avail > 0 || self.shared.closed.load(Ordering::Acquire) {
                        break;
                    }
                    guard = self
                        .shared
                        .not_empty
                        .wait(guard)
                        .unwrap_or_else(|poison| poison.into_inner());
                }
            }
            self.shared.consumer_parked.store(false, Ordering::Relaxed);
            if avail > 0 {
                return avail;
            }
        }
    }

    /// Notify the producer if (and only if) it is parked on a full ring.
    fn wake_producer(&self) {
        fence(Ordering::SeqCst);
        if self.shared.producer_parked.load(Ordering::Relaxed) {
            self.shared.counters.wakeups.fetch_add(1, Ordering::Relaxed);
            let _guard = lock_park(&self.shared.park);
            self.shared.not_full.notify_one();
        }
    }

    /// Block until the next item, or `None` once the lane is closed and
    /// drained.
    pub fn recv(&self) -> Option<T> {
        let head = self.shared.head.0.load(Ordering::Relaxed);
        if self.wait_available(head) == 0 {
            return None;
        }
        // SAFETY: `wait_available` proved `head < tail`, and as the unique
        // consumer nothing else can release this slot.
        #[allow(unsafe_code)]
        let item = unsafe { self.shared.read_slot(head) };
        self.shared
            .head
            .0
            .store(head.wrapping_add(1), Ordering::Release);
        self.wake_producer();
        Some(item)
    }

    /// Block until at least one item is available, then move up to `max`
    /// items into `out` (preserving order), releasing their slots with a
    /// single head publication and at most one producer wakeup. Returns
    /// the number moved — `0` only once the lane is closed and drained
    /// (or `max == 0`).
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let head = self.shared.head.0.load(Ordering::Relaxed);
        let avail = self.wait_available(head);
        if avail == 0 {
            return 0;
        }
        let n = avail.min(max);
        out.reserve(n);
        for i in 0..n {
            // SAFETY: indices `head..head + n` lie in `[head, tail)` per
            // `wait_available`.
            #[allow(unsafe_code)]
            out.push(unsafe { self.shared.read_slot(head.wrapping_add(i)) });
        }
        self.shared
            .head
            .0
            .store(head.wrapping_add(n), Ordering::Release);
        self.wake_producer();
        n
    }

    /// Non-blocking receive: `Some(item)` if one is ready, else `None`
    /// (whether the lane is open or closed).
    pub fn try_recv(&self) -> Option<T> {
        let head = self.shared.head.0.load(Ordering::Relaxed);
        if self.available(head) == 0 {
            return None;
        }
        // SAFETY: `available` proved `head < tail`.
        #[allow(unsafe_code)]
        let item = unsafe { self.shared.read_slot(head) };
        self.shared
            .head
            .0
            .store(head.wrapping_add(1), Ordering::Release);
        self.wake_producer();
        Some(item)
    }

    /// Snapshot this lane's telemetry counters.
    pub fn stats(&self) -> LaneStats {
        self.shared.counters.snapshot()
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        self.shared.rx_gone.store(true, Ordering::Release);
        fence(Ordering::SeqCst);
        let _guard = lock_park(&self.shared.park);
        self.shared.not_full.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Lane selection
// ---------------------------------------------------------------------------

/// Which SPSC lane implementation a worker pool (or benchmark) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneKind {
    /// The bounded lock-free ring buffer (default, fast path).
    #[default]
    Ring,
    /// The `Mutex<VecDeque>` + `Condvar` reference lane — unbounded,
    /// trivially correct, kept for differential testing and A/B
    /// benchmarks (`bench_serve --lanes mutex`).
    MutexRef,
}

impl LaneKind {
    /// Parse a CLI spelling (`"ring"` / `"mutex"`).
    pub fn parse(s: &str) -> Option<LaneKind> {
        match s {
            "ring" => Some(LaneKind::Ring),
            "mutex" | "mutex-ref" | "mutexref" => Some(LaneKind::MutexRef),
            _ => None,
        }
    }

    /// Stable lowercase label (inverse of [`LaneKind::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            LaneKind::Ring => "ring",
            LaneKind::MutexRef => "mutex",
        }
    }
}

/// The sending half of a [`lane_channel`], dispatching to the selected
/// implementation.
pub enum LaneSender<T> {
    /// Lock-free ring lane.
    Ring(RingSender<T>),
    /// Mutex reference lane.
    MutexRef(SpscSender<T>),
}

/// The receiving half of a [`lane_channel`].
pub enum LaneReceiver<T> {
    /// Lock-free ring lane.
    Ring(RingReceiver<T>),
    /// Mutex reference lane.
    MutexRef(SpscReceiver<T>),
}

/// An SPSC lane of the requested kind. `capacity` bounds the ring lane
/// (rounded up to a power of two); the mutex lane is unbounded and
/// ignores it.
pub fn lane_channel<T>(kind: LaneKind, capacity: usize) -> (LaneSender<T>, LaneReceiver<T>) {
    match kind {
        LaneKind::Ring => {
            let (tx, rx) = ring_channel(capacity);
            (LaneSender::Ring(tx), LaneReceiver::Ring(rx))
        }
        LaneKind::MutexRef => {
            let (tx, rx) = spsc_channel();
            (LaneSender::MutexRef(tx), LaneReceiver::MutexRef(rx))
        }
    }
}

impl<T> LaneSender<T> {
    /// Send one item (see [`RingSender::send`] / [`SpscSender::send`]).
    pub fn send(&self, item: T) {
        match self {
            LaneSender::Ring(tx) => tx.send(item),
            LaneSender::MutexRef(tx) => tx.send(item),
        }
    }

    /// Send a batch with at most one wakeup per published chunk.
    pub fn send_batch(&self, items: Vec<T>) {
        match self {
            LaneSender::Ring(tx) => tx.send_batch(items),
            LaneSender::MutexRef(tx) => tx.send_batch(items),
        }
    }

    /// Snapshot this lane's telemetry counters.
    pub fn stats(&self) -> LaneStats {
        match self {
            LaneSender::Ring(tx) => tx.stats(),
            LaneSender::MutexRef(tx) => tx.stats(),
        }
    }
}

impl<T> LaneReceiver<T> {
    /// Block until the next item, or `None` once closed and drained.
    pub fn recv(&self) -> Option<T> {
        match self {
            LaneReceiver::Ring(rx) => rx.recv(),
            LaneReceiver::MutexRef(rx) => rx.recv(),
        }
    }

    /// Move up to `max` items into `out`; `0` means closed and drained.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        match self {
            LaneReceiver::Ring(rx) => rx.recv_batch(out, max),
            LaneReceiver::MutexRef(rx) => rx.recv_batch(out, max),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        match self {
            LaneReceiver::Ring(rx) => rx.try_recv(),
            LaneReceiver::MutexRef(rx) => rx.try_recv(),
        }
    }

    /// Snapshot this lane's telemetry counters.
    pub fn stats(&self) -> LaneStats {
        match self {
            LaneReceiver::Ring(rx) => rx.stats(),
            LaneReceiver::MutexRef(rx) => rx.stats(),
        }
    }
}

// ---------------------------------------------------------------------------
// Shard worker pool
// ---------------------------------------------------------------------------

/// Where shard workers execute: threads in this process, or child
/// processes speaking length-prefixed `coach-wire` frames over pipes.
///
/// The generic [`with_shard_workers_configured`] pool always runs
/// threads — its `Cmd`/`Res` types are arbitrary and cannot cross a
/// process boundary. `Process` is honoured by dispatchers whose command
/// vocabulary has a wire encoding (the `coach-serve` sharded controller):
/// they keep the same session/barrier protocol but route each shard's
/// frames through a [`ProcessPool`] child instead of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerBackend {
    /// In-process worker threads (default).
    #[default]
    Thread,
    /// Child processes supervised by a [`ProcessPool`]: spawned via
    /// `std::process`, restarted from the last checkpoint on death.
    Process,
}

impl WorkerBackend {
    /// Parse a CLI spelling (`"thread"` / `"process"`).
    pub fn parse(s: &str) -> Option<WorkerBackend> {
        match s {
            "thread" | "threads" => Some(WorkerBackend::Thread),
            "process" | "proc" => Some(WorkerBackend::Process),
            _ => None,
        }
    }

    /// Stable lowercase label (inverse of [`WorkerBackend::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            WorkerBackend::Thread => "thread",
            WorkerBackend::Process => "process",
        }
    }
}

/// Handles to a running pool of shard workers (inside
/// [`with_shard_workers`]): one FIFO command lane and one FIFO reply lane
/// per worker.
///
/// With two or more shards each command lane is a bounded lock-free ring
/// (or the mutex reference lane, per [`with_shard_workers_configured`])
/// to a worker thread, and each reply lane an unbounded mutex lane back;
/// with zero or one shard the pool degenerates to an inline executor
/// (commands run on the caller's thread at [`send`](Self::send) time),
/// preserving identical FIFO semantics without lane hops.
pub struct ShardWorkers<'pool, Cmd, Res> {
    inner: Pool<'pool, Cmd, Res>,
}

enum Pool<'pool, Cmd, Res> {
    Threads {
        senders: Vec<LaneSender<Cmd>>,
        receivers: Vec<LaneReceiver<Res>>,
    },
    Inline {
        /// Runs the handler against the single shard's state.
        exec: Box<dyn FnMut(Cmd) -> Res + 'pool>,
        replies: VecDeque<Res>,
        shards: usize,
    },
}

impl<Cmd, Res> ShardWorkers<'_, Cmd, Res> {
    /// Number of workers.
    pub fn len(&self) -> usize {
        match &self.inner {
            Pool::Threads { senders, .. } => senders.len(),
            Pool::Inline { shards, .. } => *shards,
        }
    }

    /// Whether the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Send a command to worker `shard` (blocks only on command-ring
    /// backpressure in the threaded pool; runs the handler inline in the
    /// ≤ 1-shard pool).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn send(&mut self, shard: usize, cmd: Cmd) {
        match &mut self.inner {
            Pool::Threads { senders, .. } => senders[shard].send(cmd),
            Pool::Inline {
                exec,
                replies,
                shards,
            } => {
                assert!(shard < *shards, "shard {shard} out of range");
                replies.push_back(exec(cmd));
            }
        }
    }

    /// Send a burst of commands to worker `shard` with at most one
    /// wakeup per published chunk (equivalent to sending each in order).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn send_batch(&mut self, shard: usize, cmds: Vec<Cmd>) {
        match &mut self.inner {
            Pool::Threads { senders, .. } => senders[shard].send_batch(cmds),
            Pool::Inline {
                exec,
                replies,
                shards,
            } => {
                assert!(shard < *shards, "shard {shard} out of range");
                for cmd in cmds {
                    replies.push_back(exec(cmd));
                }
            }
        }
    }

    /// Block for worker `shard`'s next reply. Replies arrive in command
    /// order — one per command, produced by the worker's handler.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range, there is no outstanding command,
    /// or the worker terminated without replying (it panicked — the
    /// original panic is re-raised when the pool joins).
    pub fn recv(&mut self, shard: usize) -> Res {
        match &mut self.inner {
            Pool::Threads { receivers, .. } => receivers[shard]
                .recv()
                .expect("shard worker terminated before replying"),
            Pool::Inline {
                replies, shards, ..
            } => {
                assert!(shard < *shards, "shard {shard} out of range");
                replies.pop_front().expect("no outstanding command")
            }
        }
    }

    /// Aggregate lane telemetry across every command and reply lane in
    /// the pool (all zero for the inline pool, which has no lanes).
    pub fn lane_stats(&self) -> LaneStats {
        match &self.inner {
            Pool::Threads {
                senders, receivers, ..
            } => {
                let mut total = LaneStats::default();
                for tx in senders {
                    total.merge(&tx.stats());
                }
                for rx in receivers {
                    total.merge(&rx.stats());
                }
                total
            }
            Pool::Inline { .. } => LaneStats::default(),
        }
    }
}

/// Run `body` against a pool of persistent shard workers with default
/// lanes (lock-free rings of [`DEFAULT_RING_CAPACITY`]). See
/// [`with_shard_workers_configured`].
pub fn with_shard_workers<T, Cmd, Res, R>(
    states: Vec<T>,
    handler: impl Fn(usize, &mut T, Cmd) -> Res + Sync,
    body: impl FnOnce(&mut ShardWorkers<'_, Cmd, Res>) -> R,
) -> (Vec<T>, R)
where
    T: Send,
    Cmd: Send,
    Res: Send,
{
    with_shard_workers_configured(LaneKind::default(), states, handler, body)
}

/// Run `body` against a pool of persistent shard workers, one long-lived
/// thread per entry of `states`, whose command lanes are of kind `lanes`
/// (each holding up to [`DEFAULT_RING_CAPACITY`] commands when it is a
/// ring).
///
/// Each worker owns its state for the whole session: it drains command
/// bursts from its lane (up to `WORKER_BURST` per wakeup), applies
/// `handler(shard, &mut state, cmd)` to each, and sends the results back
/// on its reply lane — so per-shard command order is execution order, and
/// consecutive commands to the same shard never pay a thread spawn (or,
/// with batched sends, more than one wakeup). When `body` returns, the command lanes close, the workers drain and
/// exit, and the (mutated) states are returned alongside `body`'s result.
///
/// A panic in `body` or any worker propagates to the caller (workers are
/// joined either way).
pub fn with_shard_workers_configured<T, Cmd, Res, R>(
    lanes: LaneKind,
    states: Vec<T>,
    handler: impl Fn(usize, &mut T, Cmd) -> Res + Sync,
    body: impl FnOnce(&mut ShardWorkers<'_, Cmd, Res>) -> R,
) -> (Vec<T>, R)
where
    T: Send,
    Cmd: Send,
    Res: Send,
{
    if states.len() <= 1 {
        let mut states = states;
        let out = {
            let handler = &handler;
            let shards = states.len();
            let inner = match states.first_mut() {
                Some(state) => Pool::Inline {
                    exec: Box::new(move |cmd| handler(0, state, cmd)),
                    replies: VecDeque::new(),
                    shards,
                },
                None => Pool::Threads {
                    senders: Vec::new(),
                    receivers: Vec::new(),
                },
            };
            body(&mut ShardWorkers { inner })
        };
        return (states, out);
    }
    std::thread::scope(|scope| {
        let handler = &handler;
        let mut senders = Vec::with_capacity(states.len());
        let mut receivers = Vec::with_capacity(states.len());
        let joins: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(shard, mut state)| {
                let (cmd_tx, cmd_rx) = lane_channel::<Cmd>(lanes, DEFAULT_RING_CAPACITY);
                // Replies ride the unbounded mutex lane: callers may
                // defer draining replies until a barrier, and a bounded
                // reply lane would let a slow drainer deadlock a worker
                // against its own backpressure.
                let (res_tx, res_rx) =
                    lane_channel::<Res>(LaneKind::MutexRef, DEFAULT_RING_CAPACITY);
                senders.push(cmd_tx);
                receivers.push(res_rx);
                scope.spawn(move || {
                    let mut burst = Vec::with_capacity(WORKER_BURST);
                    while cmd_rx.recv_batch(&mut burst, WORKER_BURST) > 0 {
                        for cmd in burst.drain(..) {
                            res_tx.send(handler(shard, &mut state, cmd));
                        }
                    }
                    state
                })
            })
            .collect();
        let mut workers = ShardWorkers {
            inner: Pool::Threads { senders, receivers },
        };
        let out = body(&mut workers);
        // Close the command lanes so the workers drain and exit.
        drop(workers);
        let states = joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        (states, out)
    })
}

// ---------------------------------------------------------------------------
// Process worker backend
// ---------------------------------------------------------------------------

/// How many times [`ProcessPool`] respawns a dead child before giving up
/// and propagating the failure as a panic. A deterministic child crash
/// (a bug, a poison frame) fails every replay identically, so a small
/// bound converts "restart loop" into "loud failure" quickly.
const MAX_RESPAWNS: usize = 3;

/// One supervised child process: the write half of its stdin pipe, the
/// reader-thread queue draining its stdout frames, and the recovery
/// journal that lets the supervisor rebuild it after a crash.
struct ChildWorker {
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
    /// Frames the child wrote, pumped off its stdout by a dedicated
    /// parent-side thread so a frame-writing child can never deadlock
    /// against a parent that is itself blocked writing commands. The
    /// sender drops when the child's stdout reaches EOF, so `recv() ==
    /// None` is the death signal.
    replies: SpscReceiver<Vec<u8>>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// The checkpoint frame (a full-state `Init`): replayed first after a
    /// respawn. `None` until the caller installs one — recovery is
    /// impossible before that.
    checkpoint: Option<Vec<u8>>,
    /// Command frames sent since the checkpoint, in order.
    journal: Vec<Vec<u8>>,
    /// Replies already delivered to the caller since the checkpoint —
    /// after a replay, this many regenerated replies are discarded so the
    /// caller never sees a duplicate.
    delivered: u64,
}

impl ChildWorker {
    /// Reap the dead (or dying) child: close stdin, join the reader, and
    /// return the exit status if one could be collected.
    fn reap(&mut self) -> Option<std::process::ExitStatus> {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let status = self.child.wait().ok();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        status
    }
}

impl Drop for ChildWorker {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A supervisor for one child process per shard, speaking length-prefixed
/// byte frames ([`coach_wire::write_frame`] layout) over stdin/stdout.
///
/// The pool is deliberately *byte-level*: message meaning lives with the
/// dispatcher that owns the vocabulary (`coach-serve`), and the contract
/// the supervisor relies on is only that **every command frame produces
/// exactly one reply frame** and that the child is **deterministic** —
/// replaying the same frames reproduces the same replies. Under that
/// contract the pool offers exactly-once delivery across crashes:
///
/// 1. The caller installs a *checkpoint* frame (a full-state `Init`)
///    per child; the pool remembers it, plus every command frame sent
///    since (`journal`) and how many replies the caller has consumed
///    (`delivered`).
/// 2. On child death — reply queue EOF or a failed pipe write — the pool
///    respawns the child, replays checkpoint + journal, silently discards
///    the `delivered` regenerated replies, and resumes where the caller
///    left off. [`ProcessPool::restarts`] counts these recoveries.
/// 3. A child that keeps dying (`MAX_RESPAWNS` attempts) or dies before
///    any checkpoint exists escalates as a panic carrying the exit
///    status — crashes propagate, they are never swallowed.
///
/// Children are expected to exit cleanly when their stdin closes;
/// [`ProcessPool::shutdown`] drains them that way and propagates nonzero
/// exits. Dropping the pool kills any remaining children (the unwind-safe
/// path).
pub struct ProcessPool {
    children: Vec<ChildWorker>,
    factory: Box<dyn Fn(usize) -> std::process::Command + Send>,
    restarts: u64,
    /// Wall-clock nanoseconds spent inside checkpoint + journal replay
    /// during unexpected-death recoveries (cumulative across shards).
    replay_ns: u64,
}

impl std::fmt::Debug for ProcessPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessPool")
            .field("children", &self.children.len())
            .field("restarts", &self.restarts)
            .finish()
    }
}

/// Spawn one child from the factory and wire up its pipes and reader.
fn spawn_child(
    factory: &(dyn Fn(usize) -> std::process::Command + Send),
    shard: usize,
) -> std::io::Result<ChildWorker> {
    let mut command = factory(shard);
    command
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    let mut child = command.spawn()?;
    let stdin = child.stdin.take().expect("piped child stdin");
    let stdout = child.stdout.take().expect("piped child stdout");
    let (tx, rx) = spsc_channel::<Vec<u8>>();
    let reader = std::thread::spawn(move || {
        let mut stdout = std::io::BufReader::new(stdout);
        // Any read error or EOF ends the pump; dropping `tx` is the
        // death/drain signal the supervisor observes.
        while let Ok(Some(frame)) = coach_wire::read_frame(&mut stdout) {
            tx.send(frame);
        }
    });
    Ok(ChildWorker {
        child,
        stdin: Some(stdin),
        replies: rx,
        reader: Some(reader),
        checkpoint: None,
        journal: Vec::new(),
        delivered: 0,
    })
}

impl ProcessPool {
    /// Spawn `shards` children, one per shard, from `factory(shard)`.
    /// The factory's `Command` is re-invoked on every respawn; stdio is
    /// overridden to piped stdin/stdout (stderr is inherited so child
    /// panic messages reach the parent's terminal).
    pub fn spawn(
        shards: usize,
        factory: impl Fn(usize) -> std::process::Command + Send + 'static,
    ) -> std::io::Result<ProcessPool> {
        let factory: Box<dyn Fn(usize) -> std::process::Command + Send> = Box::new(factory);
        let mut children = Vec::with_capacity(shards);
        for shard in 0..shards {
            children.push(spawn_child(factory.as_ref(), shard)?);
        }
        Ok(ProcessPool {
            children,
            factory,
            restarts: 0,
            replay_ns: 0,
        })
    }

    /// Number of supervised children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the pool supervises no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// OS process id of shard `shard`'s current child (changes after a
    /// recovery respawn).
    pub fn pid(&self, shard: usize) -> u32 {
        self.children[shard].child.id()
    }

    /// Unexpected-death recoveries performed so far, across all shards.
    /// Deliberate replacements via [`ProcessPool::install_checkpoint`] are
    /// not counted.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Cumulative wall-clock nanoseconds spent replaying checkpoint +
    /// journal frames during those recoveries — the observable cost of
    /// exactly-once recovery, surfaced by `coach-serve` telemetry as
    /// `coach_serve_recovery_replay_ns_total`.
    pub fn replay_ns(&self) -> u64 {
        self.replay_ns
    }

    /// Install `frame` as shard `shard`'s checkpoint and apply it to the
    /// live child now (consuming the child's single ack reply). Resets the
    /// journal: recovery replays from this frame.
    pub fn install_checkpoint(&mut self, shard: usize, frame: Vec<u8>) {
        {
            let c = &mut self.children[shard];
            c.checkpoint = Some(frame);
            c.journal.clear();
            c.delivered = 0;
        }
        // Apply to the running child; on failure full recovery converges
        // to the same state (checkpoint applied, ack consumed, journal
        // empty).
        if self.apply_checkpoint(shard).is_err() {
            self.recover(shard);
        }
    }

    /// Record `frame` as shard `shard`'s checkpoint *without* touching the
    /// live child — for the session-close case where the child's state
    /// already equals the exported snapshot the frame carries.
    pub fn refresh_checkpoint(&mut self, shard: usize, frame: Vec<u8>) {
        let c = &mut self.children[shard];
        c.checkpoint = Some(frame);
        c.journal.clear();
        c.delivered = 0;
    }

    /// Send one command frame to shard `shard` (journaled for recovery).
    pub fn send(&mut self, shard: usize, frame: Vec<u8>) {
        self.children[shard].journal.push(frame);
        if self.write_last_journalled(shard).is_err() {
            self.recover(shard);
        }
    }

    /// Block for shard `shard`'s next reply frame, recovering the child
    /// if it died with replies outstanding.
    pub fn recv(&mut self, shard: usize) -> Vec<u8> {
        loop {
            match self.children[shard].replies.recv() {
                Some(frame) => {
                    self.children[shard].delivered += 1;
                    return frame;
                }
                None => self.recover(shard),
            }
        }
    }

    /// Drain every child cleanly: close stdin (the child's exit signal),
    /// join its reader, and propagate a nonzero exit as a panic.
    pub fn shutdown(&mut self) {
        for (shard, mut child) in self.children.drain(..).enumerate() {
            drop(child.stdin.take());
            if let Some(reader) = child.reader.take() {
                let _ = reader.join();
            }
            let status = child.child.wait().expect("wait on shard child");
            assert!(
                status.success(),
                "shard {shard} process worker exited with {status}"
            );
        }
    }

    /// Write the newest journal entry to the child. `Err` means the pipe
    /// is broken (the child died) and recovery should run.
    fn write_last_journalled(&mut self, shard: usize) -> Result<(), ()> {
        let c = &mut self.children[shard];
        let frame = c.journal.last().expect("journal entry just pushed");
        let stdin = c.stdin.as_mut().ok_or(())?;
        coach_wire::write_frame(stdin, frame).map_err(|_| ())?;
        std::io::Write::flush(stdin).map_err(|_| ())
    }

    /// Send the checkpoint frame and consume the child's single ack.
    fn apply_checkpoint(&mut self, shard: usize) -> Result<(), ()> {
        let c = &mut self.children[shard];
        let frame = c.checkpoint.clone().expect("checkpoint installed");
        let stdin = c.stdin.as_mut().ok_or(())?;
        coach_wire::write_frame(stdin, &frame).map_err(|_| ())?;
        std::io::Write::flush(stdin).map_err(|_| ())?;
        c.replies.recv().ok_or(())?;
        Ok(())
    }

    /// Rebuild shard `shard` after its child died: respawn, replay
    /// checkpoint + journal, discard already-delivered replies. Panics —
    /// with the child's exit status — once [`MAX_RESPAWNS`] attempts fail
    /// or when no checkpoint was ever installed.
    fn recover(&mut self, shard: usize) {
        let mut last_status = self.children[shard].reap();
        assert!(
            self.children[shard].checkpoint.is_some(),
            "shard {shard} process worker died before a checkpoint was installed \
             (exit status: {last_status:?})"
        );
        for _ in 0..MAX_RESPAWNS {
            self.restarts += 1;
            let fresh = match spawn_child(self.factory.as_ref(), shard) {
                Ok(fresh) => fresh,
                Err(err) => panic!("respawning shard {shard} worker failed: {err}"),
            };
            let old = std::mem::replace(&mut self.children[shard], fresh);
            let c = &mut self.children[shard];
            c.checkpoint = old.checkpoint.clone();
            c.journal = old.journal.clone();
            c.delivered = old.delivered;
            drop(old);
            let t0 = std::time::Instant::now();
            let replayed = self.replay(shard).is_ok();
            self.replay_ns = self
                .replay_ns
                .saturating_add(t0.elapsed().as_nanos() as u64);
            if replayed {
                return;
            }
            last_status = self.children[shard].reap();
        }
        panic!(
            "shard {shard} process worker died {MAX_RESPAWNS} times during recovery; \
             last exit status: {last_status:?}"
        );
    }

    /// Replay checkpoint + journal into a fresh child and discard the
    /// replies the caller already consumed.
    fn replay(&mut self, shard: usize) -> Result<(), ()> {
        self.apply_checkpoint(shard)?;
        let c = &mut self.children[shard];
        let journal = c.journal.clone();
        let stdin = c.stdin.as_mut().ok_or(())?;
        for frame in &journal {
            coach_wire::write_frame(stdin, frame).map_err(|_| ())?;
        }
        std::io::Write::flush(stdin).map_err(|_| ())?;
        for _ in 0..c.delivered {
            c.replies.recv().ok_or(())?;
        }
        Ok(())
    }
}

/// Run a shard-worker child's side of the pipe protocol: read
/// length-prefixed command frames from stdin, answer each with exactly
/// one reply frame on stdout (flushed immediately — the supervisor's
/// journal recovery depends on the 1:1 framing), and return cleanly when
/// stdin closes.
///
/// Call this from a worker-capable binary's `main` after detecting the
/// worker role (e.g. via an environment variable); `handler` owns all
/// frame semantics.
pub fn serve_child_frames(mut handler: impl FnMut(Vec<u8>) -> Vec<u8>) {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = std::io::BufWriter::new(stdout.lock());
    while let Some(frame) = coach_wire::read_frame(&mut input).expect("shard worker stdin") {
        let reply = handler(frame);
        coach_wire::write_frame(&mut output, &reply).expect("shard worker stdout");
        std::io::Write::flush(&mut output).expect("shard worker stdout flush");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spsc_fifo_and_close() {
        let (tx, rx) = spsc_channel::<u32>();
        tx.send(1);
        tx.send(2);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.try_recv(), None);
        drop(tx);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn spsc_crosses_threads() {
        let (tx, rx) = spsc_channel::<u64>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..1000 {
                    tx.send(i);
                }
            });
            for i in 0..1000 {
                assert_eq!(rx.recv(), Some(i));
            }
            assert_eq!(rx.recv(), None);
        });
    }

    #[test]
    fn ring_fifo_and_close() {
        let (tx, rx) = ring_channel::<u32>(8);
        tx.send(1);
        tx.send(2);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.try_recv(), None);
        drop(tx);
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn ring_crosses_threads_with_wraparound() {
        // Capacity far below the item count: the indices wrap many times
        // and the producer hits backpressure.
        let (tx, rx) = ring_channel::<u64>(4);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..10_000 {
                    tx.send(i);
                }
            });
            for i in 0..10_000 {
                assert_eq!(rx.recv(), Some(i));
            }
            assert_eq!(rx.recv(), None);
        });
    }

    #[test]
    fn ring_batches_cross_threads() {
        let (tx, rx) = ring_channel::<u32>(16);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // Batches larger than capacity must publish in chunks.
                tx.send_batch((0..100).collect());
                tx.send_batch((100..103).collect());
                tx.send_batch(Vec::new());
                tx.send(103);
            });
            let mut got = Vec::new();
            let mut buf = Vec::new();
            loop {
                buf.clear();
                let n = rx.recv_batch(&mut buf, 7);
                if n == 0 {
                    break;
                }
                got.append(&mut buf);
            }
            assert_eq!(got, (0..104).collect::<Vec<u32>>());
            let stats = rx.stats();
            assert_eq!(stats.sends, 104);
            assert_eq!(stats.batched_sends, 2);
        });
    }

    #[test]
    fn ring_drops_sends_after_receiver_gone() {
        let (tx, rx) = ring_channel::<String>(2);
        tx.send("kept-then-freed".to_string());
        drop(rx);
        // Must not block (ring is size 2 and nobody drains) or leak.
        for i in 0..10 {
            tx.send(format!("dropped {i}"));
        }
        tx.send_batch(vec!["batch".to_string(); 10]);
    }

    #[test]
    fn ring_sender_drop_wakes_blocked_receiver() {
        let (tx, rx) = ring_channel::<u8>(4);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // Let the receiver reach its parked state first.
                std::thread::sleep(std::time::Duration::from_millis(20));
                drop(tx);
            });
            assert_eq!(rx.recv(), None);
        });
    }

    #[test]
    fn ring_receiver_drop_unblocks_full_producer() {
        let (tx, rx) = ring_channel::<u64>(2);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // 2 fit, the rest must stall on the full ring until the
                // receiver drop flips rx_gone.
                for i in 0..100 {
                    tx.send(i);
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(rx);
        });
    }

    #[test]
    fn ring_counts_full_stalls() {
        let (tx, rx) = ring_channel::<u32>(2);
        tx.send(1);
        tx.send(2);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                tx.send(3); // must stall: ring full until a recv
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(rx.recv(), Some(1));
            assert_eq!(rx.recv(), Some(2));
            assert_eq!(rx.recv(), Some(3));
        });
        assert!(rx.stats().full_stalls >= 1);
        assert_eq!(rx.stats().sends, 3);
    }

    #[test]
    fn lane_kinds_parse_and_label() {
        assert_eq!(LaneKind::parse("ring"), Some(LaneKind::Ring));
        assert_eq!(LaneKind::parse("mutex"), Some(LaneKind::MutexRef));
        assert_eq!(LaneKind::parse("bogus"), None);
        for kind in [LaneKind::Ring, LaneKind::MutexRef] {
            assert_eq!(LaneKind::parse(kind.label()), Some(kind));
        }
    }

    #[test]
    fn lane_channel_both_kinds_fifo() {
        for kind in [LaneKind::Ring, LaneKind::MutexRef] {
            let (tx, rx) = lane_channel::<u32>(kind, 8);
            tx.send_batch(vec![1, 2, 3]);
            tx.send(4);
            let mut buf = Vec::new();
            assert_eq!(rx.recv_batch(&mut buf, 2), 2);
            assert_eq!(rx.recv(), Some(3));
            assert_eq!(rx.try_recv(), Some(4));
            assert_eq!(rx.try_recv(), None);
            assert_eq!(buf, vec![1, 2]);
            let stats = tx.stats();
            assert_eq!(stats.sends, 4, "{kind:?}");
            assert_eq!(stats.batched_sends, 1, "{kind:?}");
            drop(tx);
            assert_eq!(rx.recv(), None);
        }
    }

    #[test]
    fn workers_preserve_per_shard_order() {
        let states: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let (states, got) = with_shard_workers(
            states,
            |shard, log, cmd: u32| {
                log.push(cmd);
                cmd + shard as u32
            },
            |workers| {
                let mut expect = 0u32;
                for round in 0..50u32 {
                    for shard in 0..workers.len() {
                        workers.send(shard, round);
                        expect += round + shard as u32;
                    }
                }
                let mut got = 0u32;
                for _round in 0..50 {
                    for shard in 0..workers.len() {
                        got += workers.recv(shard);
                    }
                }
                assert_eq!(got, expect);
                got
            },
        );
        assert!(got > 0);
        for log in &states {
            assert_eq!(*log, (0..50).collect::<Vec<u32>>(), "per-shard FIFO");
        }
    }

    #[test]
    fn workers_on_mutex_reference_lanes_match() {
        let (states, ()) = with_shard_workers_configured(
            LaneKind::MutexRef,
            vec![Vec::new(); 3],
            |_, log: &mut Vec<u32>, cmd: u32| log.push(cmd),
            |workers| {
                for round in 0..20 {
                    for shard in 0..workers.len() {
                        workers.send(shard, round);
                    }
                }
                for _round in 0..20 {
                    for shard in 0..workers.len() {
                        workers.recv(shard);
                    }
                }
            },
        );
        for log in &states {
            assert_eq!(*log, (0..20).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn worker_send_batch_and_lane_stats() {
        let (states, stats) = with_shard_workers(
            vec![0u64; 2],
            |_, total, cmd: u64| {
                *total += cmd;
                cmd
            },
            |workers| {
                workers.send_batch(0, (1..=100).collect());
                workers.send_batch(1, (1..=50).collect());
                for _ in 0..100 {
                    workers.recv(0);
                }
                for _ in 0..50 {
                    workers.recv(1);
                }
                workers.lane_stats()
            },
        );
        assert_eq!(states, vec![5050, 1275]);
        // 150 commands + 150 replies crossed lanes; exactly two command
        // batches were issued.
        assert_eq!(stats.sends, 300);
        assert_eq!(stats.batched_sends, 2);
    }

    #[test]
    fn states_come_back_mutated() {
        let (states, ()) = with_shard_workers(
            vec![0u64; 3],
            |_, count, delta: u64| {
                *count += delta;
            },
            |workers| {
                for shard in 0..workers.len() {
                    workers.send(shard, 10);
                    workers.send(shard, 32);
                }
                for shard in 0..workers.len() {
                    workers.recv(shard);
                    workers.recv(shard);
                }
            },
        );
        assert_eq!(states, vec![42, 42, 42]);
    }

    #[test]
    fn single_shard_runs_inline() {
        let (states, answers) = with_shard_workers(
            vec![String::new()],
            |_, s, cmd: &str| {
                s.push_str(cmd);
                s.len()
            },
            |workers| {
                assert_eq!(workers.len(), 1);
                workers.send(0, "ab");
                workers.send(0, "c");
                assert_eq!(workers.lane_stats(), LaneStats::default());
                vec![workers.recv(0), workers.recv(0)]
            },
        );
        assert_eq!(states, vec!["abc".to_string()]);
        assert_eq!(answers, vec![2, 3]);
    }

    #[test]
    fn empty_pool_is_fine() {
        let (states, out) =
            with_shard_workers(Vec::<u8>::new(), |_, _, _: u8| 0u8, |workers| workers.len());
        assert!(states.is_empty());
        assert_eq!(out, 0);
    }

    #[test]
    fn interleaved_send_recv_pipelines() {
        // Send a batch, receive some, send more: the lanes stay aligned.
        let (_, ()) = with_shard_workers(
            vec![0u32; 2],
            |_, total, cmd: u32| {
                *total += cmd;
                *total
            },
            |workers| {
                workers.send(0, 5);
                workers.send(1, 7);
                assert_eq!(workers.recv(0), 5);
                workers.send(0, 5);
                assert_eq!(workers.recv(0), 10);
                assert_eq!(workers.recv(1), 7);
            },
        );
    }

    #[test]
    #[should_panic(expected = "terminated before replying")]
    fn worker_panic_propagates() {
        let _ = with_shard_workers(
            vec![0u8, 0u8],
            |shard, _, _: u8| {
                if shard == 1 {
                    panic!("worker boom");
                }
                0u8
            },
            |workers| {
                workers.send(0, 1);
                workers.send(1, 1);
                let a = workers.recv(0);
                // Worker 1 dies before replying: its reply lane closes, so
                // recv panics instead of blocking forever, and the scope
                // still joins the dead worker on the way out.
                let b = workers.recv(1);
                a + b
            },
        );
    }

    #[test]
    fn worker_backends_parse_and_label() {
        assert_eq!(WorkerBackend::parse("thread"), Some(WorkerBackend::Thread));
        assert_eq!(
            WorkerBackend::parse("process"),
            Some(WorkerBackend::Process)
        );
        assert_eq!(WorkerBackend::parse("bogus"), None);
        for backend in [WorkerBackend::Thread, WorkerBackend::Process] {
            assert_eq!(WorkerBackend::parse(backend.label()), Some(backend));
        }
        assert_eq!(WorkerBackend::default(), WorkerBackend::Thread);
    }

    /// `cat` is a perfectly deterministic 1:1 frame echo: the length
    /// prefix and payload pass through byte-for-byte, so it stands in for
    /// a shard worker in supervisor tests.
    #[cfg(unix)]
    fn cat_pool(shards: usize) -> ProcessPool {
        ProcessPool::spawn(shards, |_| std::process::Command::new("cat")).expect("spawn cat pool")
    }

    #[cfg(unix)]
    #[test]
    fn process_pool_round_trips_frames() {
        let mut pool = cat_pool(2);
        pool.install_checkpoint(0, b"INIT0".to_vec());
        pool.install_checkpoint(1, b"INIT1".to_vec());
        pool.send(0, b"alpha".to_vec());
        pool.send(1, b"beta".to_vec());
        pool.send(0, b"gamma".to_vec());
        assert_eq!(pool.recv(0), b"alpha");
        assert_eq!(pool.recv(1), b"beta");
        assert_eq!(pool.recv(0), b"gamma");
        assert_eq!(pool.restarts(), 0);
        pool.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn process_pool_recovers_from_sigkill() {
        let mut pool = cat_pool(1);
        pool.install_checkpoint(0, b"CHECKPOINT".to_vec());
        pool.send(0, b"one".to_vec());
        assert_eq!(pool.recv(0), b"one");

        // SIGKILL the child, then keep streaming: the supervisor must
        // respawn it, replay checkpoint + journal, discard the one
        // already-delivered reply, and hand back exactly the new ones.
        let pid = pool.pid(0);
        let killed = std::process::Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .expect("run kill");
        assert!(killed.success());
        std::thread::sleep(std::time::Duration::from_millis(50));

        pool.send(0, b"two".to_vec());
        // The replayed duplicate of "one" is discarded by the supervisor;
        // the caller sees exactly the reply it had not yet consumed.
        assert_eq!(pool.recv(0), b"two");
        assert!(pool.restarts() >= 1);
        assert_ne!(pool.pid(0), pid, "a fresh process took over");
        pool.shutdown();
    }

    #[cfg(unix)]
    #[test]
    #[should_panic(expected = "died before a checkpoint")]
    fn process_pool_without_checkpoint_escalates() {
        let mut pool = cat_pool(1);
        let pid = pool.pid(0);
        std::process::Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .expect("run kill");
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.send(0, b"doomed".to_vec());
        let _ = pool.recv(0);
    }

    #[cfg(unix)]
    #[test]
    #[should_panic(expected = "exited with")]
    fn process_pool_shutdown_propagates_nonzero_exit() {
        let mut pool = ProcessPool::spawn(1, |_| {
            let mut cmd = std::process::Command::new("sh");
            cmd.args(["-c", "cat; exit 3"]);
            cmd
        })
        .expect("spawn sh pool");
        pool.install_checkpoint(0, b"INIT".to_vec());
        pool.shutdown();
    }
}
