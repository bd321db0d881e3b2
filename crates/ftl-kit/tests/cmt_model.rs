//! Model-based property test: the segmented-LRU Cached Mapping Table must
//! behave like a naive reference segmented LRU — same hit/miss
//! classification, same contents, same eviction victims, same eviction
//! order — under arbitrary operation sequences, while never exceeding
//! capacity and always passing its structural audit. Directed cases below
//! aim at the open-addressed index and the intrusive dirty lists.
//!
//! Runs on `dloop_simkit::check` (the in-tree property harness); failures
//! print a `SIMKIT_CHECK_REPLAY` seed for deterministic replay.

use dloop_ftl_kit::cmt::CachedMappingTable;
use dloop_simkit::check::{self, Checker, Generator};
use dloop_simkit::{check_assert, check_assert_eq};
use std::collections::VecDeque;

const MAPPINGS_PER_TPAGE: u64 = 32;

/// The reference: two recency queues (front = MRU), O(n) everything.
struct ReferenceSlru {
    probation: VecDeque<(u64, u64, bool)>,
    protected: VecDeque<(u64, u64, bool)>,
    capacity: usize,
}

impl ReferenceSlru {
    fn new(capacity: usize) -> Self {
        ReferenceSlru {
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    fn entry(&mut self, lpn: u64) -> Option<&mut (u64, u64, bool)> {
        self.probation
            .iter_mut()
            .chain(self.protected.iter_mut())
            .find(|e| e.0 == lpn)
    }

    fn get(&mut self, lpn: u64) -> Option<(u64, bool)> {
        self.entry(lpn).map(|e| (e.1, e.2))
    }

    fn take(&mut self, lpn: u64) -> Option<(u64, u64, bool)> {
        for list in [&mut self.probation, &mut self.protected] {
            if let Some(at) = list.iter().position(|e| e.0 == lpn) {
                return list.remove(at);
            }
        }
        None
    }

    /// A hit: to the protected MRU; protected overflow demotes its LRU to
    /// the probation MRU.
    fn promote(&mut self, lpn: u64) {
        let e = self.take(lpn).expect("promote of absent entry");
        self.protected.push_front(e);
        if self.protected.len() > self.capacity / 2 {
            let demoted = self.protected.pop_back().unwrap();
            self.probation.push_front(demoted);
        }
    }

    /// Insert as the probation MRU, first evicting the probation LRU (the
    /// protected LRU when probation is empty) if the cache is full.
    fn insert(&mut self, lpn: u64, ppn: u64, dirty: bool) -> Option<(u64, u64, bool)> {
        let evicted = (self.len() >= self.capacity).then(|| {
            self.probation
                .pop_back()
                .or_else(|| self.protected.pop_back())
                .unwrap()
        });
        self.probation.push_front((lpn, ppn, dirty));
        evicted
    }

    /// Clean the dirty entries of `tvpn`; their pairs in ascending LPN.
    fn flush(&mut self, tvpn: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for e in self.probation.iter_mut().chain(self.protected.iter_mut()) {
            if e.2 && e.0 / MAPPINGS_PER_TPAGE == tvpn {
                e.2 = false;
                out.push((e.0, e.1));
            }
        }
        out.sort_unstable();
        out
    }

    /// Probation LRU → MRU, then protected LRU → MRU.
    fn eviction_order(&self) -> Vec<(u64, u64, bool)> {
        self.probation
            .iter()
            .rev()
            .chain(self.protected.iter().rev())
            .copied()
            .collect()
    }
}

#[derive(Debug, Clone)]
enum CmtOp {
    Lookup(u64),
    Insert(u64, u64, bool),
    Update(u64, u64),
    UpdateInPlace(u64, u64),
    Flush(u64),
}

fn op() -> check::BoxedGenerator<CmtOp> {
    check::weighted(vec![
        (3, check::u64s(0..128).map(CmtOp::Lookup).boxed()),
        (
            3,
            (check::u64s(0..128), check::u64s(0..10_000), check::bools())
                .map(|(l, p, d)| CmtOp::Insert(l, p, d))
                .boxed(),
        ),
        (
            2,
            (check::u64s(0..128), check::u64s(0..10_000))
                .map(|(l, p)| CmtOp::Update(l, p))
                .boxed(),
        ),
        (
            1,
            (check::u64s(0..128), check::u64s(0..10_000))
                .map(|(l, p)| CmtOp::UpdateInPlace(l, p))
                .boxed(),
        ),
        (1, check::u64s(0..4).map(CmtOp::Flush).boxed()),
    ])
    .boxed()
}

#[test]
fn cmt_matches_reference_model() {
    let gen = (check::usizes(2..24), check::vec_of(op(), 1..250));
    Checker::new().cases(128).run(&gen, |(cap, ops)| {
        let cap = *cap;
        let mut cmt = CachedMappingTable::new(cap, MAPPINGS_PER_TPAGE);
        let mut model = ReferenceSlru::new(cap);

        for o in ops {
            match *o {
                CmtOp::Lookup(l) => {
                    let got = cmt.lookup(l);
                    let want = model.get(l).map(|(p, _)| p);
                    check_assert_eq!(got, want, "lookup({}) diverged", l);
                    if want.is_some() {
                        model.promote(l);
                    }
                }
                CmtOp::Insert(l, p, d) => {
                    if model.get(l).is_some() {
                        continue;
                    }
                    let got = cmt.insert(l, p, d).map(|e| (e.lpn, e.ppn, e.dirty));
                    check_assert_eq!(got, model.insert(l, p, d), "insert({}) evicted", l);
                }
                CmtOp::Update(l, p) => {
                    let Some(e) = model.entry(l) else {
                        continue;
                    };
                    *e = (l, p, true);
                    model.promote(l);
                    cmt.update(l, p);
                }
                CmtOp::UpdateInPlace(l, p) => {
                    let did = cmt.update_in_place(l, p);
                    let entry = model.entry(l);
                    check_assert_eq!(did, entry.is_some());
                    if let Some(e) = entry {
                        *e = (l, p, true);
                    }
                }
                CmtOp::Flush(tvpn) => {
                    check_assert_eq!(cmt.flush_translation_page(tvpn), model.flush(tvpn));
                }
            }
            check_assert!(cmt.len() <= cap);
            check_assert_eq!(cmt.len(), model.len());
            cmt.check()?;
            // Same sequence as the reference, hence as any other table fed
            // the same operations.
            check_assert_eq!(
                cmt.iter_entries().collect::<Vec<_>>(),
                model.eviction_order()
            );
        }

        // Final coherence sweep.
        for (l, p, d) in model.eviction_order() {
            check_assert_eq!(cmt.peek(l), Some((p, d)));
        }
        Ok(())
    });
}

#[test]
fn capacity_two_cycles_through_every_transition() {
    let mut cmt = CachedMappingTable::new(2, MAPPINGS_PER_TPAGE);
    let mut model = ReferenceSlru::new(2);
    for i in 0..200u64 {
        let l = (i * 5) % 7;
        if model.get(l).is_some() {
            assert!(cmt.lookup(l).is_some());
            model.promote(l);
        } else {
            assert_eq!(cmt.lookup(l), None);
            let got = cmt
                .insert(l, i, i % 3 == 0)
                .map(|e| (e.lpn, e.ppn, e.dirty));
            assert_eq!(got, model.insert(l, i, i % 3 == 0));
        }
        assert_eq!(
            cmt.iter_entries().collect::<Vec<_>>(),
            model.eviction_order()
        );
        cmt.check().unwrap();
    }
}

#[test]
fn huge_lpns_hash_probe_and_flush() {
    // Large translation pages keep the tvpns (and the dirty-head vector)
    // small while the LPNs sit at the top of the range.
    let top = u64::MAX >> 2;
    let mut cmt = CachedMappingTable::new(8, 1 << 58);
    let lpns: Vec<u64> = (0..8).map(|i| top - i * 3).collect();
    for &l in &lpns {
        cmt.insert(l, !l, true);
    }
    cmt.check().unwrap();
    for &l in &lpns {
        assert_eq!(cmt.lookup(l), Some(!l));
    }
    let tvpn = cmt.tvpn_of(top);
    assert_eq!(cmt.dirty_tvpns(), vec![tvpn]);
    let mut want: Vec<(u64, u64)> = lpns.iter().map(|&l| (l, !l)).collect();
    want.sort_unstable();
    assert_eq!(cmt.flush_translation_page(tvpn), want);
    let evicted = cmt.insert(top - 1, 0, false).unwrap();
    assert!(lpns.contains(&evicted.lpn));
    assert_eq!(cmt.peek(evicted.lpn), None);
    cmt.check().unwrap();
}

/// Three dirty siblings form one dirty list (head = last dirtied). Unlink
/// the head, the middle and the tail by eviction; the two survivors must
/// stay listed.
#[test]
fn dirty_list_survives_unlinking_at_every_position() {
    let siblings = [10u64, 11, 12];
    for target in siblings {
        let mut cmt = CachedMappingTable::new(3, MAPPINGS_PER_TPAGE);
        for l in siblings {
            cmt.insert(l, l * 10, true);
        }
        // Referencing the other two leaves the target as the
        // probation LRU.
        for l in siblings.into_iter().filter(|&l| l != target) {
            cmt.lookup(l);
        }
        let e = cmt.insert(1000, 1, false).unwrap();
        assert_eq!((e.lpn, e.dirty), (target, true));
        cmt.check().unwrap();
        assert_eq!(cmt.dirty_tvpns(), vec![0], "evict of {target}");
        let want: Vec<(u64, u64)> = siblings
            .into_iter()
            .filter(|&l| l != target)
            .map(|l| (l, l * 10))
            .collect();
        assert_eq!(cmt.flush_translation_page(0), want, "evict of {target}");
        assert!(cmt.dirty_tvpns().is_empty());
        cmt.check().unwrap();
    }
}
