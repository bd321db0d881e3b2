//! An open-addressed `u64 → u32` index that stores no keys.
//!
//! The tables that use it (the FTL's cached mapping table, the host page
//! cache) keep their records in a flat `Vec` and need only "which record
//! holds key *k*". A slot holds a record index; the key is read back
//! through a caller closure (`|idx| nodes[idx].lpn`), i.e. from the
//! record the caller is about to touch anyway.
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

/// The empty-slot marker; no record index may equal it.
pub const NIL: u32 = u32::MAX;

/// Most entries an index holds: record indices are 32-bit and the table
/// stays at most half full.
pub const MAX_ENTRIES: usize = (NIL / 2) as usize;

/// 2⁶⁴ / φ, the multiplicative-hashing constant.
const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The index: record indices in a power-of-two slot array, [`NIL`] for an
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
}
