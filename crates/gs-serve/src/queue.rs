//! A bounded multi-producer multi-consumer job queue built on `std` only.
//!
//! Producers block in [`BoundedQueue::push`] when the queue is full (the
//! backpressure that keeps a closed-loop load generator honest) and consumers
//! block in [`BoundedQueue::pop`] when it is empty. [`BoundedQueue::close`]
//! wakes everyone: subsequent pushes fail and pops drain the remaining items
//! before returning `None`.
//!
//! Workers form same-scene batches with [`BoundedQueue::drain_where`], which
//! removes up to `max` queued items matching a predicate in FIFO order.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking MPMC queue.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks until there is room, then enqueues `item`.
    ///
    /// Returns `Err(item)` if the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().unwrap();
        while state.items.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).unwrap();
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and dequeues it.
    ///
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap();
        }
    }

    /// Removes and returns up to `max` queued items for which `pred` is true,
    /// preserving FIFO order. Does not block.
    pub fn drain_where(&self, max: usize, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        if max == 0 {
            return Vec::new();
        }
        let mut state = self.state.lock().unwrap();
        let mut taken = Vec::new();
        let mut kept = VecDeque::with_capacity(state.items.len());
        while let Some(item) = state.items.pop_front() {
            if taken.len() < max && pred(&item) {
                taken.push(item);
            } else {
                kept.push_back(item);
            }
        }
        state.items = kept;
        drop(state);
        for _ in 0..taken.len() {
            self.not_full.notify_one();
        }
        taken
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pending and future pushes fail, and pops return
    /// `None` once the remaining items are drained.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_is_preserved() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.close();
        assert!(q.push(2).is_err());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_blocks_until_capacity_frees() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer should be blocked");
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn pop_blocks_until_item_arrives() {
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn close_while_producer_is_blocked_in_push_returns_the_item() {
        // A producer parked in `push` on a full queue must be woken by
        // `close()` and get its item back instead of deadlocking.
        let q = Arc::new(BoundedQueue::new(1));
        q.push(10).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(11));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer should be blocked, not enqueued");
        q.close();
        assert_eq!(
            producer.join().unwrap(),
            Err(11),
            "a blocked push must fail with its item on close"
        );
        // The item enqueued before the close still drains.
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drain_where_on_a_closed_nonempty_queue_still_drains_fifo() {
        let q = BoundedQueue::new(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        q.close();
        let evens = q.drain_where(2, |&i| i % 2 == 0);
        assert_eq!(evens, vec![0, 2], "closed queues still drain FIFO");
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, vec![1, 3, 4, 5]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drain_where_takes_matching_in_order() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let evens = q.drain_where(3, |&i| i % 2 == 0);
        assert_eq!(evens, vec![0, 2, 4]);
        // Non-matching and beyond-max items keep their order.
        let rest: Vec<i32> =
            std::iter::from_fn(|| if q.is_empty() { None } else { q.pop() }).collect();
        assert_eq!(rest, vec![1, 3, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn drain_where_sweeps_matching_jobs_fifo() {
        // The worker's dead-job sweep: an unbounded `drain_where` takes every
        // matching job queue-wide, in FIFO order, and leaves the rest queued.
        let q = BoundedQueue::new(8);
        for seq in 0..6 {
            q.push((if seq % 2 == 0 { "x" } else { "y" }, seq)).unwrap();
        }
        let drained = q.drain_where(usize::MAX, |&(scene, _)| scene == "y");
        assert_eq!(
            drained.iter().map(|&(_, seq)| seq).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn push_blocks_at_capacity_and_close_fails_pending_pushes() {
        // The serving worker's view of backpressure: a submit parked on a
        // full queue fails on shutdown, while the job queued before it still
        // comes out of the pop-then-drain batching step, then nothing does.
        let q = Arc::new(BoundedQueue::new(1));
        q.push(("a", 0)).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(("a", 1)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer should be blocked");
        q.close();
        assert!(producer.join().unwrap().is_err());
        let head = q.pop().unwrap();
        let mut batch = vec![head];
        batch.extend(q.drain_where(3, |&(scene, _)| scene == head.0));
        assert_eq!(batch, vec![("a", 0)]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn many_producers_and_consumers_deliver_everything() {
        let q = Arc::new(BoundedQueue::new(4));
        let mut producers = Vec::new();
        for p in 0..4 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..50 {
                    q.push(p * 1000 + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<i32> = (0..4)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn pop_then_drain_where_batches_deliver_every_item_once_in_order() {
        // The serving worker's batching step: pop the head, then drain the
        // rest of its key queue-wide. Every item comes out exactly once,
        // batches never mix keys, and each key keeps its FIFO order.
        let q = BoundedQueue::new(256);
        let mut rng = gs_core::rng::Rng64::seed_from_u64(99);
        let total = 200usize;
        for seq in 0..total {
            q.push((rng.gen_range(0u32..3), seq)).unwrap();
        }
        q.close();
        let mut seen = vec![false; total];
        let mut last_per_key = [None::<usize>; 3];
        while let Some(head) = q.pop() {
            let key = head.0;
            let mut batch = vec![head];
            batch.extend(q.drain_where(3, |&(k, _)| k == key));
            assert!(batch.len() <= 4);
            for (k, seq) in batch {
                assert_eq!(k, key, "batches must not mix keys");
                assert!(!seen[seq], "item {seq} delivered twice");
                seen[seq] = true;
                let last = &mut last_per_key[k as usize];
                assert!(last.is_none_or(|prev| prev < seq), "per-key FIFO violated");
                *last = Some(seq);
            }
        }
        assert!(seen.iter().all(|&s| s), "every item must be delivered");
    }
}
