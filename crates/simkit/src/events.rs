//! A monotonic event queue with stable FIFO tie-breaking.
//!
//! DiskSim's core loop pops the earliest pending event, advances the clock,
//! and dispatches. Rust's `BinaryHeap` is a max-heap and is *not* stable for
//! equal keys, so [`EventQueue`] wraps it with (a) reversed ordering and (b)
//! a monotonically increasing sequence number: two events scheduled for the
//! same instant are delivered in the order they were pushed. Stability
//! matters for reproducibility — FlashSim's priority list is FIFO among
//! ready requests, and an unstable heap would reorder equal-time arrivals
//! from run to run depending on heap shape.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of payload type `E` scheduled at a specific instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Push-order sequence number (unique per queue).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event on
        // top; ties broken by push order (earlier seq first).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The simulation event queue.
///
/// Guarantees:
/// * events pop in non-decreasing time order;
/// * events with equal timestamps pop in push order;
/// * popping never returns an event earlier than the last popped one
///   (checked with a debug assertion — scheduling into the past is a bug).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Create an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `event` to fire at `at`.
    ///
    /// `at` may be in the "past" relative to already-pushed events but must
    /// not precede the last *popped* event (time cannot rewind).
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.last_popped,
            "scheduled an event at {at} before current time {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.last_popped, "event queue went backwards");
        self.last_popped = ev.at;
        Some(ev)
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|ev| ev.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event (the current clock).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Drop all pending events without touching the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// The canonical replay order of a batch of timestamped items: by
/// `(time, index)` — the order an [`EventQueue`] loaded with the items in
/// index order would pop them in (its tie-break is push order).
///
/// Replay drivers walk this with a cursor instead of loading every arrival
/// into the heap. A batch that is already in time order — what every trace
/// generator and parser emits — costs one comparison pass and no memory;
/// only an out-of-order batch pays for a (stable) sort and an index vector.
#[derive(Debug, Clone)]
pub struct ArrivalOrder {
    /// `None` when the items were already in order.
    perm: Option<Vec<usize>>,
    len: usize,
}

impl ArrivalOrder {
    /// The order of `items` by the time `at` extracts from each.
    pub fn new<T>(items: &[T], at: impl Fn(&T) -> SimTime) -> Self {
        let sorted = items.windows(2).all(|w| at(&w[0]) <= at(&w[1]));
        let perm = (!sorted).then(|| {
            let mut perm: Vec<usize> = (0..items.len()).collect();
            perm.sort_by_key(|&i| at(&items[i]));
            perm
        });
        ArrivalOrder {
            perm,
            len: items.len(),
        }
    }

    /// Index (into the batch) of the `k`-th item in replay order.
    pub fn get(&self, k: usize) -> Option<usize> {
        (k < self.len).then(|| self.perm.as_ref().map_or(k, |p| p[k]))
    }

    /// Indices into the batch, in replay order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter_map(|k| self.get(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_order_is_the_heap_pop_order() {
        let us = SimTime::from_micros;
        for times in [vec![], vec![3, 3, 5, 9], vec![9, 3, 5, 3, 9, 0]] {
            let order = ArrivalOrder::new(&times, |&t| us(t));
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(us(t), i);
            }
            let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
            assert_eq!(order.iter().collect::<Vec<_>>(), popped);
            assert_eq!(order.get(times.len()), None);
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), "c");
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().event, 0);
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_micros(42), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(42));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn clear_preserves_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 1u8);
        q.pop();
        q.push(SimTime::from_micros(20), 2u8);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_micros(10));
    }
}
