//! Lockstep model test: the page cache must behave exactly like the
//! reference below — the `HashMap` index plus `BTreeMap` recency order it
//! replaced, kept verbatim — on arbitrary streams of reads, writes and
//! dirty-ratio flushes ending in a drain. After every operation both must
//! agree on the return value, the whole write-back sequence so far, the
//! statistics, the resident count and the dirty count.
//!
//! A small capacity over a small LPN space makes hits, rewrites under a new
//! tenant, and clean and dirty evictions all frequent; `u64::MAX` is the
//! never-evicting case. Runs on `dloop_simkit::check`; failures print a
//! `SIMKIT_CHECK_REPLAY` seed for deterministic replay.

use dloop_ftl_kit::request::TenantId;
use dloop_host::{CacheStats, PageCache, Writeback};
use dloop_simkit::check::{self, Checker, Generator};
use dloop_simkit::check_assert_eq;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy)]
struct Entry {
    seq: u64,
    dirty: bool,
    tenant: TenantId,
}

/// The reference: the former `PageCache`, renamed and without its unused
/// `is_empty`.
#[derive(Debug)]
struct ReferenceCache {
    capacity: u64,
    dirty_ratio: f64,
    entries: HashMap<u64, Entry>,
    lru: BTreeMap<u64, u64>,
    seq: u64,
    dirty: u64,
    /// Run counters, readable at any time.
    pub stats: CacheStats,
}

impl ReferenceCache {
    /// A cache of `capacity` pages flushing once the dirty fraction
    /// exceeds `dirty_ratio`.
    pub fn new(capacity: u64, dirty_ratio: f64) -> Self {
        ReferenceCache {
            capacity,
            dirty_ratio: dirty_ratio.clamp(0.0, 1.0),
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            seq: 0,
            dirty: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether the cache retains anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Resident pages.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Resident dirty pages.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty
    }

    fn touch(&mut self, lpn: u64) {
        if let Some(e) = self.entries.get_mut(&lpn) {
            self.lru.remove(&e.seq);
            self.seq += 1;
            e.seq = self.seq;
            self.lru.insert(self.seq, lpn);
        }
    }

    fn insert(&mut self, lpn: u64, dirty: bool, tenant: TenantId, out: &mut Vec<Writeback>) {
        self.seq += 1;
        if let Some(old) = self.entries.insert(
            lpn,
            Entry {
                seq: self.seq,
                dirty,
                tenant,
            },
        ) {
            self.lru.remove(&old.seq);
            if old.dirty {
                self.dirty -= 1;
            }
        }
        self.lru.insert(self.seq, lpn);
        if dirty {
            self.dirty += 1;
        }
        // LRU eviction down to capacity; dirty victims are written back.
        while self.entries.len() as u64 > self.capacity {
            let (&seq, &victim) = self.lru.iter().next().expect("non-empty over capacity");
            self.lru.remove(&seq);
            let e = self.entries.remove(&victim).expect("lru entry resident");
            if e.dirty {
                self.dirty -= 1;
                self.stats.evicted_dirty += 1;
                out.push(Writeback {
                    lpn: victim,
                    tenant: e.tenant,
                });
            } else {
                self.stats.evicted_clean += 1;
            }
        }
    }

    /// Absorb one written page (write-back: the device sees nothing until
    /// a flush, eviction or drain pushes the page out). Any write-backs
    /// the insertion forces are appended to `out`.
    pub fn write(&mut self, lpn: u64, tenant: TenantId, out: &mut Vec<Writeback>) {
        if !self.enabled() {
            return;
        }
        self.stats.writes_absorbed += 1;
        self.insert(lpn, true, tenant, out);
    }

    /// Look up one read page: `true` is a hit (recency refreshed),
    /// `false` a miss — the page is installed clean (read-allocate) and
    /// the caller forwards the read to the device. Evictions forced by
    /// the fill are appended to `out`.
    pub fn read(&mut self, lpn: u64, tenant: TenantId, out: &mut Vec<Writeback>) -> bool {
        if !self.enabled() {
            return false;
        }
        if self.entries.contains_key(&lpn) {
            self.stats.read_hits += 1;
            self.touch(lpn);
            true
        } else {
            self.stats.read_misses += 1;
            self.insert(lpn, false, tenant, out);
            false
        }
    }

    /// Write back *all* dirty pages (oldest first) if the dirty fraction
    /// exceeded the configured ratio. The pages stay resident, now clean.
    pub fn maybe_flush(&mut self, out: &mut Vec<Writeback>) {
        if !self.enabled() || (self.dirty as f64) <= self.dirty_ratio * self.capacity as f64 {
            return;
        }
        self.flush_dirty(out, false);
    }

    /// Write back every dirty page unconditionally (end-of-trace drain).
    pub fn drain(&mut self, out: &mut Vec<Writeback>) {
        self.flush_dirty(out, true);
    }

    fn flush_dirty(&mut self, out: &mut Vec<Writeback>, draining: bool) {
        // BTreeMap order = touch order: the write-back stream is
        // deterministic and oldest-dirty-first.
        let victims: Vec<(u64, u64, TenantId)> = self
            .lru
            .iter()
            .filter_map(|(&seq, &lpn)| {
                let e = self.entries[&lpn];
                e.dirty.then_some((seq, lpn, e.tenant))
            })
            .collect();
        for (seq, lpn, tenant) in victims {
            let _ = seq;
            let e = self.entries.get_mut(&lpn).expect("dirty page resident");
            e.dirty = false;
            self.dirty -= 1;
            if draining {
                self.stats.drained += 1;
            } else {
                self.stats.flushed += 1;
            }
            out.push(Writeback { lpn, tenant });
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum CacheOp {
    Read(u64, TenantId),
    Write(u64, TenantId),
    MaybeFlush,
}

fn op() -> check::BoxedGenerator<CacheOp> {
    let page = || (check::u64s(0..12), check::u32s(0..3).map(|t| t as TenantId));
    check::weighted(vec![
        (4, page().map(|(l, t)| CacheOp::Read(l, t)).boxed()),
        (4, page().map(|(l, t)| CacheOp::Write(l, t)).boxed()),
        (1, check::elements(vec![CacheOp::MaybeFlush]).boxed()),
    ])
    .boxed()
}

/// Both caches agree on everything observable after `step`.
fn agree(
    cache: &PageCache,
    model: &ReferenceCache,
    got: &[Writeback],
    want: &[Writeback],
    step: &str,
) -> Result<(), String> {
    check_assert_eq!(got, want, "write-backs after {}", step);
    check_assert_eq!(cache.stats, model.stats, "stats after {}", step);
    check_assert_eq!(cache.len(), model.len(), "len after {}", step);
    check_assert_eq!(
        cache.dirty_pages(),
        model.dirty_pages(),
        "dirty pages after {}",
        step
    );
    Ok(())
}

#[test]
fn page_cache_matches_the_reference() {
    let capacities = check::elements(vec![1, 2, 3, 4, 5, 6, 7, 8, u64::MAX]);
    let ratios = check::elements(vec![0.0, 0.25, 0.5, 1.0]);
    let gen = (capacities, ratios, check::vec_of(op(), 1..200));
    // Over all cases: the model's counters and rewrites under a new tenant,
    // to show every transition was exercised.
    let seen = Cell::new(CacheStats::default());
    let retagged = Cell::new(0u64);
    Checker::new()
        .cases(512)
        .run(&gen, |&(capacity, ratio, ref ops)| {
            let mut cache = PageCache::new(capacity, ratio);
            let mut model = ReferenceCache::new(capacity, ratio);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (i, o) in ops.iter().enumerate() {
                match *o {
                    CacheOp::Read(l, t) => {
                        let hit = cache.read(l, t, &mut got);
                        check_assert_eq!(hit, model.read(l, t, &mut want), "op {} {:?}", i, o);
                    }
                    CacheOp::Write(l, t) => {
                        let owner = model.entries.get(&l).map(|e| e.tenant);
                        retagged.set(retagged.get() + owner.is_some_and(|o| o != t) as u64);
                        cache.write(l, t, &mut got);
                        model.write(l, t, &mut want);
                    }
                    CacheOp::MaybeFlush => {
                        cache.maybe_flush(&mut got);
                        model.maybe_flush(&mut want);
                    }
                }
                agree(&cache, &model, &got, &want, &format!("op {i} {o:?}"))?;
                cache.check()?;
            }
            cache.drain(&mut got);
            model.drain(&mut want);
            agree(&cache, &model, &got, &want, "the drain")?;
            cache.check()?;
            check_assert_eq!(cache.dirty_pages(), 0);
            let (mut sum, m) = (seen.get(), model.stats);
            sum.read_hits += m.read_hits;
            sum.evicted_dirty += m.evicted_dirty;
            sum.evicted_clean += m.evicted_clean;
            sum.flushed += m.flushed;
            sum.drained += m.drained;
            seen.set(sum);
            Ok(())
        });
    let sum = seen.get();
    assert!(
        sum.read_hits > 0
            && sum.evicted_dirty > 0
            && sum.evicted_clean > 0
            && sum.flushed > 0
            && sum.drained > 0
            && retagged.get() > 0,
        "a transition was never exercised: {sum:?}, {} rewrites under a new tenant",
        retagged.get()
    );
}
