//! Bounded single-producer/single-consumer rings.
//!
//! The sharded execution layer runs one executive per simulated CPU and
//! turns every cross-CPU interaction — shootdown rounds, writeback
//! shipments, signal fan-out, idle steal, fabric packets — into an
//! explicit message between executives. Each ordered pair of shards gets
//! one of these rings, so no send ever contends with another sender and
//! the free-running threaded mode needs no locks on its hot path.
//!
//! The implementation is the classic Lamport queue: a fixed slot array
//! with monotonically increasing `head` (consumer) and `tail` (producer)
//! indices. The producer owns `tail`, the consumer owns `head`; each
//! side only ever *reads* the other's index — and rarely: the indices
//! sit on separate cache lines, and each side keeps a shadow of the
//! other's, refreshed only when the ring looks full (producer) or empty
//! (consumer), so a burst touches the peer's line once. `push` on a
//! full ring returns the value to the caller — the sharded machine
//! counts the deferral (`rings_full`) and retries next quantum instead
//! of blocking or panicking.
//!
//! Beside the SPSC pair lives [`mpsc`], a bounded multi-producer /
//! single-consumer ring (per-slot sequence numbers, CAS-claimed tail)
//! for the fan-out case: one busy message page with many registered
//! waiters, or cross-shard signal shipment, where N producers publish
//! into one receiving shard's ring and the shard drains them in a
//! single sweep instead of servicing N point-to-point rings. Same
//! backpressure contract: a full ring hands the value back, never
//! drops or blocks.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One side's cache line (the two sides never share one): the index it
/// owns, and its shadow of the other side's index — written by the
/// owner only, possibly stale, always conservative.
#[derive(Default)]
#[repr(align(64))]
struct Side {
    own: AtomicUsize,
    peer_seen: AtomicUsize,
}

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `own` = head: next slot the consumer will read (monotonic; slot
    /// = head % cap). `peer_seen` ≤ tail.
    consumer: Side,
    /// `own` = tail: next slot the producer will write (monotonic; slot
    /// = tail % cap). `peer_seen` ≤ head.
    producer: Side,
}

// SAFETY: the producer half writes a slot strictly before publishing it
// with the release store on `tail`; the consumer half reads it strictly
// after the acquire load observes that store (and vice versa for slot
// reuse through `head`). Each index has exactly one writer, and each
// `peer_seen` shadow is read and written by its side's one thread only,
// so the only data that crosses threads is the slot payload, which is
// `Send`.
unsafe impl<T: Send> Sync for Shared<T> {}
unsafe impl<T: Send> Send for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Sole owner at this point; drop whatever is still queued.
        let head = self.consumer.own.load(Ordering::Relaxed);
        let tail = self.producer.own.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.buf[i % self.buf.len()];
            // SAFETY: slots in [head, tail) were written and never read.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// The producer half of a bounded SPSC ring.
pub struct RingTx<T> {
    shared: Arc<Shared<T>>,
}

/// The consumer half of a bounded SPSC ring.
pub struct RingRx<T> {
    shared: Arc<Shared<T>>,
}

/// Build a bounded SPSC ring with room for `capacity` messages.
pub fn spsc<T: Send>(capacity: usize) -> (RingTx<T>, RingRx<T>) {
    assert!(capacity > 0, "ring capacity must be at least 1");
    let buf = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(Shared {
        buf,
        consumer: Side::default(),
        producer: Side::default(),
    });
    (
        RingTx {
            shared: Arc::clone(&shared),
        },
        RingRx { shared },
    )
}

impl<T: Send> RingTx<T> {
    /// Enqueue `v`. On a full ring the value comes straight back as
    /// `Err` so the caller can count the deferral and retry later —
    /// nothing is ever dropped or blocked on inside the ring itself.
    pub fn push(&self, v: T) -> Result<(), T> {
        let s = &*self.shared;
        let me = &s.producer;
        let tail = me.own.load(Ordering::Relaxed); // sole writer
        if tail - me.peer_seen.load(Ordering::Relaxed) == s.buf.len() {
            // Looks full: the shadow may be stale, look at the real head.
            let head = s.consumer.own.load(Ordering::Acquire);
            me.peer_seen.store(head, Ordering::Relaxed);
            if tail - head == s.buf.len() {
                return Err(v);
            }
        }
        // SAFETY: slot `tail % cap` is outside [head, tail) so the
        // consumer does not touch it until the release store below.
        unsafe { (*s.buf[tail % s.buf.len()].get()).write(v) };
        me.own.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Messages currently queued (exact: reads the real indices).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        let tail = s.producer.own.load(Ordering::Relaxed);
        tail.saturating_sub(s.consumer.own.load(Ordering::Acquire))
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }
}

impl<T: Send> RingRx<T> {
    /// Dequeue the oldest message, if any.
    pub fn pop(&self) -> Option<T> {
        let s = &*self.shared;
        let me = &s.consumer;
        let head = me.own.load(Ordering::Relaxed); // sole writer
        if head == me.peer_seen.load(Ordering::Relaxed) {
            // Looks empty: the shadow may be stale, look at the real tail.
            let tail = s.producer.own.load(Ordering::Acquire);
            me.peer_seen.store(tail, Ordering::Relaxed);
            if head == tail {
                return None;
            }
        }
        // SAFETY: slot `head % cap` is inside [head, tail): written by
        // the producer and published by the acquire load that last
        // refreshed the shadow.
        let v = unsafe { (*s.buf[head % s.buf.len()].get()).assume_init_read() };
        me.own.store(head + 1, Ordering::Release);
        Some(v)
    }

    /// Messages currently queued (exact: reads the real indices).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        let tail = s.producer.own.load(Ordering::Acquire);
        tail.saturating_sub(s.consumer.own.load(Ordering::Relaxed))
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }
}

// ---------------------------------------------------------------------
// Multi-producer / single-consumer ring
// ---------------------------------------------------------------------

struct MpscSlot<T> {
    /// Slot state stamp. `seq == pos`: free for the producer claiming
    /// `pos`; `seq == pos + 1`: written and readable by the consumer;
    /// after consumption the consumer stamps `pos + capacity`, handing
    /// the slot to the producer of the next lap.
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

struct MpscShared<T> {
    buf: Box<[MpscSlot<T>]>,
    /// Next slot a producer will claim (CAS-incremented; slot = pos % cap).
    tail: AtomicUsize,
    /// Next slot the consumer will read (sole writer; slot = pos % cap).
    head: AtomicUsize,
}

// SAFETY: a producer touches a slot's payload only between winning the
// CAS on `tail` (exclusive claim of that position) and the release
// store of `seq = pos + 1`; the consumer reads it only after the
// acquire load observes that stamp, and frees it with a release store
// of `pos + cap` that the next lap's producer acquires. The payload is
// the only data crossing threads, and it is `Send`.
unsafe impl<T: Send> Sync for MpscShared<T> {}
unsafe impl<T: Send> Send for MpscShared<T> {}

impl<T> Drop for MpscShared<T> {
    fn drop(&mut self) {
        // Sole owner: every winning producer has finished its publish
        // (push never returns between claim and publish), so exactly
        // the slots stamped `pos + 1` still hold values.
        let cap = self.buf.len();
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for pos in head..tail {
            let slot = &self.buf[pos % cap];
            debug_assert_eq!(slot.seq.load(Ordering::Relaxed), pos + 1);
            // SAFETY: slots in [head, tail) were published, never read.
            unsafe { (*slot.val.get()).assume_init_drop() };
        }
    }
}

/// A producer handle for a bounded MPSC ring. Cloning hands another
/// producer a handle to the same ring; sends from one handle arrive in
/// the order they were pushed.
pub struct MpscTx<T> {
    shared: Arc<MpscShared<T>>,
}

impl<T> Clone for MpscTx<T> {
    fn clone(&self) -> Self {
        MpscTx {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// The single-consumer half of a bounded MPSC ring.
pub struct MpscRx<T> {
    shared: Arc<MpscShared<T>>,
}

/// Build a bounded multi-producer/single-consumer ring with room for
/// `capacity` messages.
pub fn mpsc<T: Send>(capacity: usize) -> (MpscTx<T>, MpscRx<T>) {
    assert!(capacity > 0, "ring capacity must be at least 1");
    let buf = (0..capacity)
        .map(|i| MpscSlot {
            seq: AtomicUsize::new(i),
            val: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(MpscShared {
        buf,
        tail: AtomicUsize::new(0),
        head: AtomicUsize::new(0),
    });
    (
        MpscTx {
            shared: Arc::clone(&shared),
        },
        MpscRx { shared },
    )
}

impl<T: Send> MpscTx<T> {
    /// Enqueue `v`. A full ring hands the value straight back as `Err`
    /// — count the deferral and retry later, exactly like the SPSC
    /// ring. Producers that race for the same position retry on the
    /// next one; a push never spins on a *full* ring.
    pub fn push(&self, v: T) -> Result<(), T> {
        let s = &*self.shared;
        let cap = s.buf.len();
        let mut pos = s.tail.load(Ordering::Relaxed);
        loop {
            let slot = &s.buf[pos % cap];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Free for this lap: claim it.
                match s.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this producer exclusive
                        // ownership of position `pos`; the consumer
                        // waits for the stamp below.
                        unsafe { (*slot.val.get()).write(v) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now, // lost the race, try the next
                }
            } else if seq < pos {
                // The consumer has not freed this slot from the
                // previous lap: the ring is full.
                return Err(v);
            } else {
                // Another producer claimed `pos` concurrently; reload.
                pos = s.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Messages currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .load(Ordering::Relaxed)
            .saturating_sub(s.head.load(Ordering::Acquire))
    }

    /// Whether the ring is empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }
}

impl<T: Send> MpscRx<T> {
    /// Dequeue the oldest published message, if any. A slot claimed but
    /// not yet published stalls the queue momentarily (`None`) rather
    /// than reordering past it — total order is the claim order.
    pub fn pop(&self) -> Option<T> {
        let s = &*self.shared;
        let cap = s.buf.len();
        let pos = s.head.load(Ordering::Relaxed); // sole writer
        let slot = &s.buf[pos % cap];
        if slot.seq.load(Ordering::Acquire) != pos + 1 {
            return None;
        }
        // SAFETY: the stamp `pos + 1` means the producer's write is
        // published; the release store below frees the slot for the
        // next lap.
        let v = unsafe { (*slot.val.get()).assume_init_read() };
        slot.seq.store(pos + cap, Ordering::Release);
        s.head.store(pos + 1, Ordering::Relaxed);
        Some(v)
    }

    /// Messages currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .load(Ordering::Acquire)
            .saturating_sub(s.head.load(Ordering::Relaxed))
    }

    /// Whether the ring is empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_full_semantics() {
        let (tx, rx) = spsc::<u32>(2);
        assert!(rx.is_empty());
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(3), "full ring hands the value back");
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.pop(), Some(1));
        tx.push(3).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), None);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn queued_messages_drop_with_the_ring() {
        // A type with a drop effect so leaks would be visible under Miri
        // and the drop-count check below.
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (tx, rx) = spsc::<D>(4);
        assert!(tx.push(D).is_ok());
        assert!(tx.push(D).is_ok());
        drop(rx.pop()); // one consumed
        drop((tx, rx)); // one still queued
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
    }

    /// Push `0..n` from one thread and pop them on another, retrying on
    /// a full or empty ring.
    fn transfer_across_threads(capacity: usize, n: u64) {
        let (tx, rx) = spsc::<u64>(capacity);
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                let mut v = i;
                while let Err(back) = tx.push(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut expect = 0u64;
        while expect < n {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expect, "messages arrive in order, exactly once");
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty());
    }

    #[test]
    fn cross_thread_transfer_is_lossless_and_ordered() {
        transfer_across_threads(64, 200_000);
    }

    /// At capacity 2 nearly every push finds the ring looking full and
    /// nearly every pop finds it looking empty: both index shadows are
    /// refreshed, and trusted while stale, a million times over.
    #[test]
    fn cross_thread_transfer_at_capacity_two() {
        transfer_across_threads(2, 1_000_000);
    }

    /// Each side's shadow of the other's index is only refreshed when
    /// the ring looks full or empty, so at capacity 1 and 2 every wrap
    /// leaves both shadows stale in both directions. FIFO order, the
    /// full/empty verdicts and the exact `len()` from either end must
    /// not notice.
    #[test]
    fn stale_index_shadows_stay_conservative_across_wraps() {
        for cap in [1usize, 2] {
            let (tx, rx) = spsc::<u32>(cap);
            let (mut next_in, mut next_out) = (0u32, 0u32);
            let check_len = |queued: u32| {
                assert_eq!(tx.len(), queued as usize);
                assert_eq!(rx.len(), queued as usize);
                assert_eq!(tx.is_empty(), queued == 0);
                assert_eq!(rx.is_empty(), queued == 0);
            };
            // ≥ 3 wraps of every fill level: push `fill`, pop `fill`.
            for round in 0..4 * cap {
                let fill = 1 + round % cap;
                for _ in 0..fill {
                    tx.push(next_in).unwrap();
                    next_in += 1;
                    check_len(next_in - next_out);
                }
                if fill == cap {
                    assert_eq!(tx.push(99), Err(99), "full at capacity {cap}");
                }
                for _ in 0..fill {
                    assert_eq!(rx.pop(), Some(next_out));
                    next_out += 1;
                    check_len(next_in - next_out);
                }
                assert_eq!(rx.pop(), None, "empty at capacity {cap}");
            }
            // Strictly interleaved at a part-full ring: the producer's
            // shadow says full and the consumer's says empty on every
            // single operation.
            tx.push(next_in).unwrap();
            next_in += 1;
            for _ in 0..3 * cap {
                if cap > 1 {
                    tx.push(next_in).unwrap();
                    next_in += 1;
                }
                assert_eq!(tx.push(99), Err(99));
                assert_eq!(rx.pop(), Some(next_out));
                next_out += 1;
                if cap == 1 {
                    assert_eq!(rx.pop(), None);
                    tx.push(next_in).unwrap();
                    next_in += 1;
                }
                check_len(next_in - next_out);
            }
        }
    }

    #[test]
    fn mpsc_fifo_and_full_semantics() {
        let (tx, rx) = mpsc::<u32>(2);
        assert!(rx.is_empty());
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(3), "full ring hands the value back");
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.pop(), Some(1));
        tx.push(3).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), None);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn mpsc_queued_messages_drop_with_the_ring() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (tx, rx) = mpsc::<D>(4);
        let tx2 = tx.clone();
        assert!(tx.push(D).is_ok());
        assert!(tx2.push(D).is_ok());
        assert!(tx.push(D).is_ok());
        drop(rx.pop()); // one consumed
        drop((tx, tx2, rx)); // two still queued
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn mpsc_backpressure_never_loses_under_contention() {
        // Several producers hammer a tiny ring; every deferred push is
        // retried with the value the ring handed back. The consumer
        // must see every message exactly once and, per producer, in
        // the order that producer pushed.
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 50_000;
        let (tx, rx) = mpsc::<(u64, u64)>(8);
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = (p, i);
                        while let Err(back) = tx.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u64; PRODUCERS as usize];
        let mut seen = 0u64;
        while seen < PRODUCERS * PER_PRODUCER {
            if let Some((p, i)) = rx.pop() {
                assert_eq!(
                    i, next[p as usize],
                    "producer {p} messages arrive in push order, exactly once"
                );
                next[p as usize] += 1;
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(rx.is_empty());
        assert_eq!(next, [PER_PRODUCER; PRODUCERS as usize]);
    }
}
