//! A deterministic discrete-event queue.
//!
//! Events are ordered first by time, then by insertion sequence number, so
//! simultaneous events pop in the order they were scheduled. This makes the
//! whole simulation reproducible regardless of queue-internal tie breaking.
//!
//! The queue is a [`BinaryHeap`] of entries ordered min-first by
//! `(time, seq)`. Sequence numbers are unique, so that order is total: the
//! pop order, and every sequence number handed out, depend only on the
//! calls made, never on the heap's internal layout.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One pending event with its firing time and tie-breaking sequence number.
#[derive(Debug, Clone)]
struct QueueEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> QueueEntry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for QueueEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for QueueEntry<E> {}

impl<E> PartialOrd for QueueEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for QueueEntry<E> {
    /// Reversed, so the max-heap's top is the earliest `(time, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A time-ordered queue of simulation events.
///
/// ```
/// use bl_simcore::event::EventQueue;
/// use bl_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), 'b');
/// q.schedule(SimTime::from_millis(1), 'a');
/// q.schedule(SimTime::from_millis(1), 'c'); // same time: FIFO within ties
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'a')));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'c')));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), 'b')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<QueueEntry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueueEntry { time, seq, event });
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The earliest pending entry's (time, seq, event), if any.
    pub fn peek(&self) -> Option<(SimTime, u64, &E)> {
        self.heap.peek().map(|e| (e.time, e.seq, &e.event))
    }

    /// Removes and returns the earliest event with its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The next sequence number the queue will hand out. Part of the
    /// queue's deterministic identity: two queues with equal pending
    /// entries *and* equal sequence state behave identically forever —
    /// which is what snapshot fingerprints verify.
    pub fn seq_state(&self) -> u64 {
        self.next_seq
    }

    /// Every pending entry as `(time, seq, &event)`, in no particular
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.heap.iter().map(|e| (e.time, e.seq, &e.event))
    }

    /// Every pending entry as `(time, seq, &event)` in firing order — the
    /// serialization view of the queue, independent of the heap's layout.
    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<(SimTime, u64, &E)> = self.iter().collect();
        out.sort_by_key(|&(t, seq, _)| (t, seq));
        out
    }

    /// Rebuilds a queue from pending entries and the sequence counter, the
    /// inverse of [`EventQueue::sorted_entries`]. The restored queue pops
    /// in the identical order and hands out the identical future sequence
    /// numbers as the queue the entries came from, because ordering is
    /// carried entirely by each entry's `(time, seq)` pair.
    pub fn from_parts(entries: Vec<(SimTime, u64, E)>, next_seq: u64) -> Self {
        EventQueue {
            heap: entries
                .into_iter()
                .map(|(time, seq, event)| QueueEntry { time, seq, event })
                .collect(),
            next_seq,
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_millis(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.peek(), Some((SimTime::from_millis(1), 0, &"x")));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clone_is_independent_and_identical() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule(SimTime::from_millis(i * 3 % 17), i);
        }
        q.pop();
        let mut fork = q.clone();
        assert_eq!(fork.len(), q.len());
        assert_eq!(fork.seq_state(), q.seq_state());
        // Identical pop order...
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| fork.pop()).collect();
        assert_eq!(a, b);
        // ...and identical sequence state afterwards.
        assert_eq!(fork.seq_state(), q.seq_state());
    }

    #[test]
    fn from_parts_round_trips_pop_order_and_seq_state() {
        let mut q = EventQueue::new();
        for i in 0..60u64 {
            q.schedule(SimTime::from_nanos(i * 7919 % 50_000_000), i);
        }
        q.pop();
        q.pop();
        let entries: Vec<(SimTime, u64, u64)> = q
            .sorted_entries()
            .into_iter()
            .map(|(t, s, e)| (t, s, *e))
            .collect();
        // The view is sorted by (time, seq).
        for w in entries.windows(2) {
            assert!((w[0].0, w[0].1) <= (w[1].0, w[1].1));
        }
        let mut rebuilt = EventQueue::from_parts(entries, q.seq_state());
        assert_eq!(rebuilt.len(), q.len());
        assert_eq!(rebuilt.seq_state(), q.seq_state());
        // Identical pop order and identical future scheduling behavior.
        loop {
            let a = q.peek().map(|(t, s, e)| (t, s, *e));
            assert_eq!(a, rebuilt.peek().map(|(t, s, e)| (t, s, *e)));
            if a.is_none() {
                break;
            }
            assert_eq!(q.pop(), rebuilt.pop());
        }
        q.schedule(SimTime::from_millis(1), 999);
        rebuilt.schedule(SimTime::from_millis(1), 999);
        assert_eq!(
            q.peek().map(|(t, s, _)| (t, s)),
            rebuilt.peek().map(|(t, s, _)| (t, s))
        );
    }

    /// Reference model: a stably sorted vector, the ordering contract in
    /// its simplest possible form.
    #[derive(Default)]
    struct Model {
        entries: Vec<(SimTime, u64, usize)>,
        next_seq: u64,
    }

    impl Model {
        fn schedule(&mut self, t: SimTime, v: usize) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push((t, seq, v));
        }
        fn pop(&mut self) -> Option<(SimTime, usize)> {
            let i = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, _)| i)?;
            let (t, _, v) = self.entries.remove(i);
            Some((t, v))
        }
    }

    /// One step of the model-checked op sequence.
    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u64),
        Pop,
        /// Rebuild the queue from its serialization view.
        Rebuild,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..14, 0u64..200_000_000, 0u64..36_000_000_000_000).prop_map(|(kind, near, far)| {
            match kind {
                // Ties on a 4 ms tick grid, near-horizon traffic (a few
                // hundred ms) and far-future events hours out.
                0..=2 => Op::Schedule(near % 8 * 4_000_000),
                3..=6 => Op::Schedule(near),
                7 => Op::Schedule(far),
                8..=12 => Op::Pop,
                _ => Op::Rebuild,
            }
        })
    }

    proptest! {
        #[test]
        fn pops_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        #[test]
        fn equal_times_preserve_insertion_order(n in 1usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_millis(7), i);
            }
            let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
        }

        // Interleaved schedule/pop/rebuild matches the sorted-vector model
        // exactly, including FIFO tie-breaking and sequence numbering, over
        // times from 0 ns to hours and runs of a few thousand ops.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec(op(), 1..4000)) {
            let mut q = EventQueue::new();
            let mut m = Model::default();
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Schedule(t) => {
                        q.schedule(SimTime::from_nanos(t), i);
                        m.schedule(SimTime::from_nanos(t), i);
                    }
                    Op::Pop => {
                        let head = m.entries.iter().map(|e| (e.0, e.1)).min();
                        prop_assert_eq!(q.peek().map(|(t, s, _)| (t, s)), head);
                        prop_assert_eq!(q.peek_time(), head.map(|h| h.0));
                        prop_assert_eq!(q.pop(), m.pop());
                    }
                    Op::Rebuild => {
                        let parts = q
                            .sorted_entries()
                            .into_iter()
                            .map(|(t, s, e)| (t, s, *e))
                            .collect::<Vec<_>>();
                        let mut expect = m.entries.clone();
                        expect.sort_by_key(|e| (e.0, e.1));
                        prop_assert_eq!(&parts, &expect);
                        q = EventQueue::from_parts(parts, q.seq_state());
                    }
                }
                prop_assert_eq!(q.len(), m.entries.len());
                prop_assert_eq!(q.seq_state(), m.next_seq);
            }
            while let Some(expect) = m.pop() {
                prop_assert_eq!(q.pop(), Some(expect));
            }
            prop_assert!(q.is_empty());
        }
    }
}
