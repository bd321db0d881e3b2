//! The record-table kit of the FTL's cached mapping table and the host
//! page cache, which keep their records in a flat `Vec` indexed by `u32`:
//! [`SlotIndex`] finds the record holding key *k*, reading keys back
//! through a caller closure (`|idx| nodes[idx].lpn`), and a [`List`]
//! orders records through a [`Link`] in each, reached through a caller
//! accessor (`|n| &mut n.lru`). Neither stores keys or allocates per
//! entry, and a record with two links sits on two lists at once.
//!
//! The index:
//!
//! * **Hash** — a key's home slot is the top bits of `key × 2⁶⁴/φ`
//!   (multiplicative hashing spreads the sequential and strided keys that
//!   storage traces are made of).
//! * **Probe** — a collision probes linearly. The table is never more
//!   than half full, so every probe run ends at an empty slot.
//! * **Delete** — backward shift: each later entry of the probe run moves
//!   back into the hole unless that would put it before its home slot.
//!   There are no tombstones, so probe lengths do not degrade under
//!   eviction churn.
//! * **Grow** — an insert that would pass half full first doubles the
//!   table and re-places every entry. A table sized for its final
//!   population up front ([`SlotIndex::with_capacity`]) never grows.
//!
//! Nothing here is iterated in hash order by its users, so the hash
//! cannot leak into any simulated result.

/// The empty-slot marker and the end-of-list link; no record index may
/// equal it.
const NIL: u32 = u32::MAX;

/// Most entries an index holds: record indices are 32-bit and the table
/// stays at most half full.
pub const MAX_ENTRIES: usize = (NIL / 2) as usize;

/// 2⁶⁴ / φ, the multiplicative-hashing constant.
const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The index: record indices in a power-of-two slot array, `u32::MAX` for an
/// empty slot.
///
/// ```
/// use dloop_simkit::slots::SlotIndex;
///
/// let keys = [10u64, 20, 30];
/// let key_of = |idx: u32| keys[idx as usize];
/// let mut index = SlotIndex::with_capacity(1);
/// for idx in 0..3 {
///     index.insert(keys[idx as usize], idx, key_of); // grows past 1 entry
/// }
/// assert_eq!(index.find(20, key_of), Some(1));
/// assert_eq!(index.remove(20, key_of), Some(1));
/// assert_eq!(index.find(20, key_of), None);
/// assert_eq!(index.find(30, key_of), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct SlotIndex {
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
    len: usize,
}

impl SlotIndex {
    /// An empty index that holds `entries` without growing: a power of
    /// two ≥ 2 × `entries` slots (at least two).
    pub fn with_capacity(entries: usize) -> Self {
        assert!(entries <= MAX_ENTRIES, "slot index entries are 32-bit");
        let slots = (2 * entries).next_power_of_two().max(2);
        SlotIndex {
            slots: vec![NIL; slots],
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot `key`'s probe run starts at.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MULTIPLIER) >> self.shift) as usize
    }

    /// Walk `key`'s probe run: the slot that holds it and its record
    /// index, or the empty slot that ends the run and [`NIL`].
    fn probe(&self, key: u64, key_of: impl Fn(u32) -> u64) -> (usize, u32) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            let idx = self.slots[slot];
            if idx == NIL || key_of(idx) == key {
                return (slot, idx);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The record holding `key`, if any.
    pub fn find(&self, key: u64, key_of: impl Fn(u32) -> u64) -> Option<u32> {
        let (_, idx) = self.probe(key, key_of);
        (idx != NIL).then_some(idx)
    }

    /// Index record `idx` under `key`, which must not be present (checked
    /// in debug builds). Doubles the table first if this entry would pass
    /// half full.
    pub fn insert(&mut self, key: u64, idx: u32, key_of: impl Fn(u32) -> u64) {
        debug_assert_ne!(idx, NIL, "NIL is the empty-slot marker");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(&key_of);
        }
        let (slot, found) = self.probe(key, &key_of);
        debug_assert_eq!(found, NIL, "key {key} indexed twice");
        self.slots[slot] = idx;
        self.len += 1;
    }

    /// Unindex `key`: its record index, or `None` if it was absent.
    pub fn remove(&mut self, key: u64, key_of: impl Fn(u32) -> u64) -> Option<u32> {
        let (slot, idx) = self.probe(key, &key_of);
        if idx == NIL {
            return None;
        }
        self.vacate(slot, key_of);
        self.len -= 1;
        Some(idx)
    }

    /// Empty `hole` and close the gap: each later entry of the probe run
    /// moves back into the hole unless that would put it before its home
    /// slot, which would make it unreachable.
    fn vacate(&mut self, mut hole: usize, key_of: impl Fn(u32) -> u64) {
        let mask = self.slots.len() - 1;
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let idx = self.slots[slot];
            if idx == NIL {
                break;
            }
            let home = self.home(key_of(idx));
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.slots[hole] = idx;
                hole = slot;
            }
        }
        self.slots[hole] = NIL;
    }

    /// Double the table and re-place every entry from its new home.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, key_of: impl Fn(u32) -> u64) {
        assert!(self.len < MAX_ENTRIES, "slot index entries are 32-bit");
        let doubled = vec![NIL; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for idx in old.into_iter().filter(|&idx| idx != NIL) {
            let mut slot = self.home(key_of(idx));
            while self.slots[slot] != NIL {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = idx;
        }
    }

    /// Audit: the occupied slots number [`len`](Self::len), and a probe
    /// for each entry's key reaches that entry.
    pub fn check(&self, key_of: impl Fn(u32) -> u64) -> Result<(), String> {
        let mut occupied = 0usize;
        for &idx in self.slots.iter().filter(|&&idx| idx != NIL) {
            occupied += 1;
            let key = key_of(idx);
            if self.find(key, &key_of) != Some(idx) {
                return Err(format!("key {key} (record {idx}) is unreachable"));
            }
        }
        if occupied != self.len {
            return Err(format!(
                "{occupied} occupied slots for {} entries",
                self.len
            ));
        }
        Ok(())
    }
}

/// A record's place on one [`List`]: its neighbours towards the front
/// (`prev`) and the back (`next`), `u32::MAX` past either end. A record
/// carries one `Link` per list it can sit on; the link means something
/// only while the record is on that list, so any value (`default()`)
/// does for a record that is not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Link {
    prev: u32,
    next: u32,
}

/// An intrusive doubly linked list over a caller's record array: its ends
/// and length, with the links in the records. Every method takes the
/// records and an accessor for this list's [`Link`] in a record, and all
/// but the walk and the audit are O(1).
///
/// ```
/// use dloop_simkit::slots::{Link, List};
///
/// let mut nodes = [Link::default(); 3];
/// let mut list = List::default();
/// for idx in 0..3 {
///     list.push_front(&mut nodes, idx, |n| n); // front: 2, 1, 0
/// }
/// list.unlink(&mut nodes, 1, |n| n);
/// assert_eq!(list.iter_back(&nodes, |n| n).collect::<Vec<_>>(), [0, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct List {
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for List {
    /// The empty list.
    fn default() -> Self {
        List {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

impl List {
    /// Records on the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The record at the back (the LRU end), if any.
    pub fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Link record `idx`, which must not be on this list, in at the front.
    pub fn push_front<N>(&mut self, nodes: &mut [N], idx: u32, link: impl Fn(&mut N) -> &mut Link) {
        debug_assert_ne!(idx, NIL, "NIL is the end-of-list link");
        *link(&mut nodes[idx as usize]) = Link {
            prev: NIL,
            next: self.head,
        };
        match self.head {
            NIL => self.tail = idx,
            head => link(&mut nodes[head as usize]).prev = idx,
        }
        self.head = idx;
        self.len += 1;
    }

    /// Take record `idx`, which must be on this list, off it. Its own
    /// link is left stale until it is pushed again.
    pub fn unlink<N>(&mut self, nodes: &mut [N], idx: u32, link: impl Fn(&mut N) -> &mut Link) {
        let Link { prev, next } = *link(&mut nodes[idx as usize]);
        match prev {
            NIL => self.head = next,
            prev => link(&mut nodes[prev as usize]).next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => link(&mut nodes[next as usize]).prev = prev,
        }
        self.len -= 1;
    }

    /// The records from the back to the front.
    pub fn iter_back<'a, N>(
        &self,
        nodes: &'a [N],
        link: impl 'a + Fn(&N) -> &Link,
    ) -> impl Iterator<Item = u32> + 'a {
        let prev = move |&idx: &u32| Some(link(&nodes[idx as usize]).prev).filter(|&p| p != NIL);
        std::iter::successors(self.back(), prev)
    }

    /// Audit, front to back: every record's `prev` names the record
    /// before it, and the walk ends at the tail after
    /// [`len`](Self::len) records. A cycle fails the `prev` test at the
    /// first record reached twice (its `prev` names where it was first
    /// reached from), so the walk visits at most `nodes.len()` records.
    pub fn check<N>(&self, nodes: &[N], link: impl Fn(&N) -> &Link) -> Result<(), String> {
        let (mut idx, mut prev, mut seen) = (self.head, NIL, 0usize);
        while idx != NIL {
            let Some(node) = nodes.get(idx as usize) else {
                return Err(format!("link to record {idx} of {}", nodes.len()));
            };
            let l = link(node);
            if l.prev != prev {
                return Err(format!("record {idx} links back to {} not {prev}", l.prev));
            }
            (prev, idx) = (idx, l.next);
            seen += 1;
        }
        if self.tail != prev {
            return Err(format!("tail is {} but the walk ends at {prev}", self.tail));
        }
        if seen != self.len {
            return Err(format!("{seen} records linked, length says {}", self.len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys whose home slot is `slot` in a table of `index`'s size.
    fn homed_at(index: &SlotIndex, slot: usize, n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|&k| index.home(k) == slot)
            .take(n)
            .collect()
    }

    #[test]
    fn backward_shift_keeps_a_shared_probe_run_findable() {
        // 8 entries in 16 slots: five keys homed on one slot and three on
        // the next, so the run is one 8-slot cluster with every entry but
        // the first displaced.
        let probe = SlotIndex::with_capacity(8);
        let slots = probe.slots.len();
        assert_eq!(slots, 16);
        let mut keys = homed_at(&probe, slots - 2, 5); // the run wraps around the table
        keys.extend(homed_at(&probe, slots - 1, 3));
        let key_of = |idx: u32| keys[idx as usize];
        for rotate in 0..keys.len() {
            for reverse in [false, true] {
                let mut index = SlotIndex::with_capacity(8);
                for idx in 0..keys.len() as u32 {
                    index.insert(key_of(idx), idx, key_of);
                }
                assert_eq!(index.slots.len(), slots, "sized up front: no growth");
                let mut order: Vec<u32> = (0..keys.len() as u32).collect();
                order.rotate_left(rotate);
                if reverse {
                    order.reverse();
                }
                for (gone, &idx) in order.iter().enumerate() {
                    assert_eq!(index.remove(key_of(idx), key_of), Some(idx));
                    assert_eq!(index.find(key_of(idx), key_of), None);
                    assert_eq!(index.remove(key_of(idx), key_of), None);
                    for &s in &order[gone + 1..] {
                        assert_eq!(
                            index.find(key_of(s), key_of),
                            Some(s),
                            "lost key {}",
                            keys[s as usize]
                        );
                    }
                    index.check(key_of).unwrap();
                }
                assert!(index.is_empty());
                assert!(index.slots.iter().all(|&s| s == NIL));
            }
        }
    }

    #[test]
    fn doubling_keeps_every_key_findable() {
        // Start at two slots and insert clusters (keys sharing a home in
        // the small table), sequential and strided keys, and keys near the
        // top of the range: every doubling re-places them all.
        let small = SlotIndex::with_capacity(0);
        assert_eq!(small.slots.len(), 2);
        let mut keys = homed_at(&small, 1, 6);
        keys.extend(0..200u64);
        keys.extend((1..100u64).map(|i| i << 33));
        keys.extend((0..50u64).map(|i| u64::MAX - 7 * i));
        keys.sort_unstable();
        keys.dedup();
        let key_of = |idx: u32| keys[idx as usize];
        let mut index = SlotIndex::with_capacity(0);
        for idx in 0..keys.len() as u32 {
            let before = index.slots.len();
            index.insert(key_of(idx), idx, key_of);
            assert!(2 * index.len() <= index.slots.len(), "more than half full");
            if index.slots.len() != before {
                assert_eq!(index.slots.len(), 2 * before, "grows by doubling");
                for s in 0..=idx {
                    assert_eq!(
                        index.find(key_of(s), key_of),
                        Some(s),
                        "lost key {} growing to {}",
                        keys[s as usize],
                        index.slots.len()
                    );
                }
                index.check(key_of).unwrap();
            }
        }
        assert_eq!(index.len(), keys.len());
        assert_eq!(index.slots.len(), (2 * keys.len()).next_power_of_two());
        // Removal after growth still closes its gaps.
        for idx in (0..keys.len() as u32).step_by(2) {
            assert_eq!(index.remove(key_of(idx), key_of), Some(idx));
        }
        for idx in 0..keys.len() as u32 {
            let want = (idx % 2 == 1).then_some(idx);
            assert_eq!(index.find(key_of(idx), key_of), want);
        }
        index.check(key_of).unwrap();
    }

    /// A list of `n` records pushed in index order: front to back
    /// `n − 1, …, 0`.
    fn pushed(n: u32) -> (Vec<Link>, List) {
        let mut nodes = vec![Link::default(); n as usize];
        let mut list = List::default();
        for idx in 0..n {
            list.push_front(&mut nodes, idx, |l| l);
        }
        (nodes, list)
    }

    fn back_to_front(list: &List, nodes: &[Link]) -> Vec<u32> {
        list.iter_back(nodes, |l| l).collect()
    }

    #[test]
    fn unlink_at_head_middle_tail_and_only_record() {
        // Of 2, 1, 0 (front to back) record 2 is the head, 1 the middle
        // and 0 the tail; the one-record list loses its only record.
        for (n, gone) in [(3, 2), (3, 1), (3, 0), (1, 0)] {
            let (mut nodes, mut list) = pushed(n);
            list.unlink(&mut nodes, gone, |l| l);
            list.check(&nodes, |l| l).unwrap();
            let want: Vec<u32> = (0..n).filter(|&i| i != gone).collect();
            assert_eq!(back_to_front(&list, &nodes), want, "unlink {gone} of {n}");
            assert_eq!(list.back(), want.first().copied());
            assert_eq!(list.len(), n as usize - 1);
            // The record goes back on, at the front.
            list.push_front(&mut nodes, gone, |l| l);
            list.check(&nodes, |l| l).unwrap();
            assert_eq!(back_to_front(&list, &nodes).last(), Some(&gone));
        }
    }

    #[test]
    fn two_lists_thread_one_record_array() {
        // Every record is on `recency`, the even ones on `dirty` too, as
        // in the CMT; unlinking from one list leaves the other intact.
        #[derive(Debug, Clone, Copy, Default)]
        struct Rec {
            recency: Link,
            dirty: Link,
        }
        let mut nodes = [Rec::default(); 6];
        let (mut recency, mut dirty) = (List::default(), List::default());
        for idx in 0..6 {
            recency.push_front(&mut nodes, idx, |r| &mut r.recency);
            if idx % 2 == 0 {
                dirty.push_front(&mut nodes, idx, |r| &mut r.dirty);
            }
        }
        dirty.unlink(&mut nodes, 2, |r| &mut r.dirty);
        recency.unlink(&mut nodes, 4, |r| &mut r.recency);
        recency.check(&nodes, |r| &r.recency).unwrap();
        dirty.check(&nodes, |r| &r.dirty).unwrap();
        let by_recency: Vec<u32> = recency.iter_back(&nodes, |r| &r.recency).collect();
        let by_dirty: Vec<u32> = dirty.iter_back(&nodes, |r| &r.dirty).collect();
        assert_eq!(by_recency, [0, 1, 2, 3, 5]);
        assert_eq!(by_dirty, [0, 4]);
    }

    #[test]
    fn back_to_front_order_matches_a_deque() {
        // A present record is unlinked, an absent one pushed; the deque's
        // front is the list's front.
        const RECORDS: u32 = 16;
        let mut nodes = vec![Link::default(); RECORDS as usize];
        let mut list = List::default();
        let mut model = std::collections::VecDeque::new();
        let mut x = 0x9E37_79B9u32;
        for step in 0..2000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let idx = x % RECORDS;
            match model.iter().position(|&i| i == idx) {
                Some(at) => {
                    model.remove(at);
                    list.unlink(&mut nodes, idx, |l| l);
                }
                None => {
                    model.push_front(idx);
                    list.push_front(&mut nodes, idx, |l| l);
                }
            }
            list.check(&nodes, |l| l).unwrap();
            let want: Vec<u32> = model.iter().rev().copied().collect();
            assert_eq!(back_to_front(&list, &nodes), want, "step {step}");
            assert_eq!(list.back(), model.back().copied());
        }
    }

    #[test]
    fn check_rejects_a_broken_prev_a_wrong_len_and_a_cycle() {
        // Front to back: 3, 2, 1, 0.
        let (mut nodes, list) = pushed(4);
        nodes[1].prev = 3;
        let err = list.check(&nodes, |l| l).unwrap_err();
        assert!(err.contains("links back"), "{err}");

        let (nodes, mut list) = pushed(4);
        list.len = 5;
        let err = list.check(&nodes, |l| l).unwrap_err();
        assert!(err.contains("length says 5"), "{err}");

        // The back record points into the middle: the walk would go
        // 3, 2, 1, 0, 2, 1, 0, … for ever.
        let (mut nodes, list) = pushed(4);
        nodes[0].next = 2;
        assert!(list.check(&nodes, |l| l).is_err());
    }
}
