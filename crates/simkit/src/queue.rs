//! The pending-operation priority list.
//!
//! Section IV.B of the paper: *"we added a priority list to keep requests in
//! order on how they can be processed by free channels … If the targeting
//! channel and plane of the request are available, it will be immediately
//! handed to the hardware module to be executed. Otherwise, [the FTL]
//! processes other requests until the channel and the plane turn to be
//! free."*
//!
//! [`PendingQueue`] is that list in its plainest form: items are appended
//! in arrival order — the priority — and a scheduler removes whichever one
//! it selects by position, skipping (but never reordering) the ones still
//! blocked.
//!
//! The device's queueing scheduler no longer keeps its pending ops here:
//! it holds them in a slab indexed by sequence number and indexes only
//! its reorder window (`DESIGN.md` §3d). The type stays for the
//! benchmark harness's isolated driver, which times enqueue, locate and
//! remove against it as `queue.ns_per_op`.

use std::collections::VecDeque;

/// FIFO queue with indexed, order-preserving removal.
#[derive(Debug, Clone)]
pub struct PendingQueue<T> {
    items: VecDeque<T>,
}

impl<T> Default for PendingQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PendingQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        PendingQueue {
            items: VecDeque::new(),
        }
    }

    /// An empty queue pre-sized for `cap` items.
    pub fn with_capacity(cap: usize) -> Self {
        PendingQueue {
            items: VecDeque::with_capacity(cap),
        }
    }

    /// Append an item at the back (lowest priority).
    pub fn push_back(&mut self, item: T) {
        self.items.push_back(item);
    }

    /// Iterate items in priority order without removing them.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// The item at position `idx` in priority order (0 = highest priority).
    /// Bounded-window schedulers (NCQ-style reordering) use this to read
    /// the tail of their lookahead window without draining the queue.
    pub fn get(&self, idx: usize) -> Option<&T> {
        self.items.get(idx)
    }

    /// Remove and return the item at position `idx` in priority order,
    /// preserving the relative order of everything else.
    pub fn remove_at(&mut self, idx: usize) -> Option<T> {
        self.items.remove(idx)
    }

    /// Binary-search for the item whose key `f` extracts equals `key`.
    /// The queue's items must be sorted by that key in priority order
    /// (true for any queue only ever `push_back`ed with increasing keys,
    /// such as a sequence-numbered pending list). Returns the position in
    /// the same `Ok`/`Err` convention as [`slice::binary_search_by_key`].
    pub fn binary_search_by_key<K: Ord, F: FnMut(&T) -> K>(
        &self,
        key: &K,
        f: F,
    ) -> Result<usize, usize> {
        self.items.binary_search_by_key(key, f)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_access_and_removal_keep_order() {
        let mut q = PendingQueue::new();
        for i in 10..15 {
            q.push_back(i);
        }
        assert_eq!(q.get(0), Some(&10));
        assert_eq!(q.get(4), Some(&14));
        assert_eq!(q.get(5), None);
        // Sequence-keyed binary search over the sorted queue.
        assert_eq!(q.binary_search_by_key(&12, |&x| x), Ok(2));
        assert_eq!(q.binary_search_by_key(&99, |&x| x), Err(5));
        assert_eq!(q.remove_at(2), Some(12));
        let rest: Vec<_> = q.iter().copied().collect();
        assert_eq!(rest, vec![10, 11, 13, 14]);
        assert_eq!(q.remove_at(9), None);
    }
}
