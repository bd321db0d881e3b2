//! Zero-allocation witness for the per-op hot paths: a DLOOP page write
//! (translation, placement, copy-back collection), a DFTL page write (its
//! device-wide collection over the external bus), a CMT miss with a dirty
//! eviction, a whole command through a pre-reserved `CommandSession`
//! (translation, the shared chain player, the latency fold, both logs), and
//! the host page cache's hits, evictions and dirty-ratio flushes. A
//! counting global allocator tallies heap allocations per thread; once the
//! working buffers have grown during a warm-up, a further stretch of
//! operations must not allocate at all. A whole NCQ replay, whose queueing
//! scheduler grows its buffers inside the run, must allocate about as
//! often for a long steady stream as for a short one.

use dloop_repro::baselines::DftlFtl;
use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::ftl_kit::cmt::CachedMappingTable;
use dloop_repro::ftl_kit::config::SsdConfig;
use dloop_repro::ftl_kit::device::{RunConfig, SsdDevice};
use dloop_repro::ftl_kit::dir::PageDirectory;
use dloop_repro::ftl_kit::ftl::{FlashStep, Ftl, FtlContext, FtlCounters, OpChain, Phase};
use dloop_repro::ftl_kit::request::{HostOp, HostRequest};
use dloop_repro::host::{PageCache, Writeback};
use dloop_repro::nand::FlashState;
use dloop_repro::simkit::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and growing reallocations made by this thread (the
    /// harness runs the tests on separate threads).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // A thread that is being torn down no longer counts.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(|n| n.get())
}

/// A chain whose buffer already holds `steps` steps' worth of capacity.
fn roomy_chain(steps: usize) -> OpChain {
    let mut chain = OpChain::new();
    for _ in 0..steps {
        chain.push(FlashStep::Read { plane: 0 });
    }
    chain.clear();
    chain
}

// Parent commit (`BTreeSet` dirty index, per-pass and per-op vectors):
// 7 037 allocations inside `Ftl::write` over the same measured window.
#[test]
fn dloop_writes_with_copyback_collections_do_not_allocate() {
    writes_do_not_allocate(DloopFtl::new, |warm, measured, cmt_capacity| {
        assert!(warm.gc_invocations > 0 && warm.copyback_moves > 0);
        // Every branch of the shared relocation loop: parity-matched
        // copy-backs, deliberate parity waste, and the external copy once
        // the waste budget is spent.
        assert!(
            measured.copyback_moves > 0 && measured.parity_skips > 0 && measured.external_moves > 0,
            "the measured window must cover the whole relocation loop \
             (CMT of {cmt_capacity} entries): {measured:?}"
        );
    });
}

// Parent commit (an exclusion `Vec` per GC move and per host write, two
// partition `Vec`s per collection): 7 429 allocations inside `Ftl::write`
// over the measured window with the configured CMT.
#[test]
fn dftl_writes_with_external_collections_do_not_allocate() {
    writes_do_not_allocate(DftlFtl::new, |warm, measured, cmt_capacity| {
        assert!(warm.gc_invocations > 0, "the warm-up must collect");
        assert!(
            measured.gc_invocations > 0 && measured.external_moves > 0,
            "the measured window must move live pages (CMT of {cmt_capacity} entries): \
             {measured:?}"
        );
    });
}

/// Run `allocations_inside_writes` on a fresh FTL from `new_ftl` twice: with
/// the configured 64-entry segmented LRU, and with a CMT that holds every
/// LPN (the resident map). `covers` checks the warm-up's and the measured
/// window's counters (and is told the CMT capacity); the measured window
/// must not allocate.
fn writes_do_not_allocate<F: Ftl>(
    new_ftl: impl Fn(&SsdConfig) -> F,
    covers: impl Fn(&FtlCounters, &FtlCounters, usize),
) {
    let config = SsdConfig::micro_gc_test();
    let resident = config.geometry().user_pages() as usize;
    for cmt_capacity in [config.cmt_capacity, resident] {
        let config = SsdConfig {
            cmt_capacity,
            ..config.clone()
        };
        let (warm, measured, allocated) = allocations_inside_writes(&mut new_ftl(&config), &config);
        covers(&warm, &measured, cmt_capacity);
        assert_eq!(
            allocated, 0,
            "heap allocations inside Ftl::write (CMT of {cmt_capacity} entries)"
        );
    }
}

/// Age a fresh device with `ftl` by random overwrites, then count the heap
/// allocations inside `Ftl::write` over a further stretch of them; returns
/// the warm-up's counters, that stretch's counters and the count.
fn allocations_inside_writes(
    ftl: &mut dyn Ftl,
    config: &SsdConfig,
) -> (FtlCounters, FtlCounters, u64) {
    let geometry = config.geometry();
    let mut flash = FlashState::new(geometry.clone());
    let mut dir = PageDirectory::new(&geometry);
    let mut chains = [roomy_chain(4096), roomy_chain(4096), roomy_chain(4096)];

    // Overwrite two thirds of the LPN space in random order, so the victims
    // GC picks still hold live pages it has to move.
    let span = geometry.user_pages() * 2 / 3;
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut write_some = |ftl: &mut dyn Ftl, writes: u64| -> u64 {
        let mut inside_write = 0;
        for _ in 0..writes {
            // xorshift64
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let lpn = rng % span;
            let [host, gc, scan] = &mut chains;
            host.clear();
            gc.clear();
            scan.clear();
            let mut ctx = FtlContext {
                flash: &mut flash,
                dir: &mut dir,
                host_chain: host,
                gc_chain: gc,
                scan_chain: scan,
                phase: Phase::Host,
            };
            let before = allocations();
            ftl.write(lpn, &mut ctx);
            inside_write += allocations() - before;
        }
        inside_write
    };

    write_some(ftl, 6 * span);
    let warm = ftl.counters();
    let allocated = write_some(ftl, 2 * span);
    (warm, ftl.counters().since(&warm), allocated)
}

// Parent commit, with `flush_translation_page` standing in for the new
// `clean_translation_page`: 6 912 allocations over the same measured window
// (a `Vec` per flush, `BTreeSet` nodes on clean→dirty transitions).
#[test]
fn cmt_miss_with_dirty_eviction_does_not_allocate() {
    const CAPACITY: usize = 256;
    const LPNS: u64 = 4096;
    let mut cmt = CachedMappingTable::new(CAPACITY, 64);
    let mut evictions = 0u64;
    let mut write_back = 0u64;
    let mut touch = |cmt: &mut CachedMappingTable, i: u64| {
        let lpn = (i * 2654435761) % LPNS;
        if cmt.lookup(lpn).is_none() {
            if let Some(victim) = cmt.insert(lpn, i, false) {
                evictions += 1;
                if victim.dirty {
                    write_back += 1;
                    cmt.clean_translation_page(cmt.tvpn_of(victim.lpn));
                }
            }
        }
        cmt.update(lpn, i + 1);
    };

    for i in 0..4 * LPNS {
        touch(&mut cmt, i);
    }
    let before = allocations();
    for i in 4 * LPNS..8 * LPNS {
        touch(&mut cmt, i);
    }
    let allocated = allocations() - before;
    assert!(evictions > 4 * LPNS && write_back > 1000);
    assert_eq!(cmt.len(), CAPACITY);
    cmt.check().unwrap();
    assert_eq!(allocated, 0, "heap allocations on the CMT miss path");
}

// Parent commit (`HashMap` index, `BTreeMap` recency order, a victims
// `Vec` per flush): 1 367 allocations over the same measured window.
#[test]
fn page_cache_hits_misses_evictions_and_flushes_do_not_allocate() {
    const CAPACITY: u64 = 256;
    const LPNS: u64 = 4 * CAPACITY;
    let mut cache = PageCache::new(CAPACITY, 0.1);
    let mut out: Vec<Writeback> = Vec::with_capacity(CAPACITY as usize);
    let mut step = |cache: &mut PageCache, i: u64| {
        // Even steps touch a hot eighth of the LPNs and odd steps scatter
        // over all of them, so reads both hit and miss, and a miss or a
        // write of an absent page evicts.
        let lpn = if i.is_multiple_of(2) {
            i % (LPNS / 8)
        } else {
            (i * 2_654_435_761) % LPNS
        };
        out.clear();
        if i.is_multiple_of(3) {
            cache.write(lpn, (i % 4) as u16, &mut out);
            // Checked only now and then, so dirty pages also age out.
            if i.is_multiple_of(1536) {
                cache.maybe_flush(&mut out);
            }
        } else {
            cache.read(lpn, (i % 4) as u16, &mut out);
        }
    };

    let mut i = 0;
    while cache.len() < CAPACITY {
        step(&mut cache, i);
        i += 1;
    }
    let warm = cache.stats;
    let before = allocations();
    for i in i..i + 8 * LPNS {
        step(&mut cache, i);
    }
    let allocated = allocations() - before;
    let s = cache.stats;
    assert!(
        s.read_hits > warm.read_hits
            && s.evicted_clean > warm.evicted_clean
            && s.evicted_dirty > warm.evicted_dirty
            && s.flushed > warm.flushed,
        "the measured window must cover hits, clean and dirty evictions and \
         flushes: {warm:?} → {s:?}"
    );
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(allocated, 0, "heap allocations inside the page cache");
}

// `CommandSession::submit` is the body of open replay and of the host
// stack's interleaved driver (every closed loop included): once the
// session is reserved, the chain free list has filled and the collector's
// scratch has grown, a command — two page ops, collections included — is
// served without touching the allocator.
#[test]
fn submitted_commands_on_a_reserved_session_do_not_allocate() {
    const WARM: u64 = 6_000;
    const MEASURED: u64 = 3_000;
    let config = SsdConfig::micro_gc_test();
    let span = config.geometry().user_pages() * 2 / 3;
    let mut device = SsdDevice::new(config.clone(), Box::new(DloopFtl::new(&config)));
    let mut session = device.begin_commands();
    session.reserve((WARM + MEASURED) as usize);
    let submit = |session: &mut dloop_repro::ftl_kit::device::CommandSession<'_>, i: u64| {
        let at = SimTime::from_micros(40 * i);
        let req = HostRequest {
            arrival: at,
            lpn: (i * 2_654_435_761) % (span - 1),
            pages: 2,
            op: if i % 4 == 3 {
                HostOp::Read
            } else {
                HostOp::Write
            },
            ..HostRequest::default()
        };
        session.submit(&req, i, at);
    };
    for i in 0..WARM {
        submit(&mut session, i);
    }
    let before = allocations();
    for i in WARM..WARM + MEASURED {
        submit(&mut session, i);
    }
    let allocated = allocations() - before;
    let report = session.finish();
    assert_eq!(report.requests_completed, WARM + MEASURED);
    assert!(
        report.ftl.gc_invocations > 0 && report.ftl.copyback_moves > 0,
        "the run must include copy-back collections: {:?}",
        report.ftl
    );
    assert_eq!(
        allocated, 0,
        "heap allocations inside CommandSession::submit"
    );
}

/// Heap allocations made by one `run_with(ncq(32))` replay of a steady
/// `requests`-long stream of single-page ops (three writes to a read, one
/// every 400 µs: the device keeps up, collections included) on an aged
/// `micro_gc_test` DLOOP device.
fn ncq_replay_allocations(requests: u64) -> u64 {
    let config = SsdConfig::micro_gc_test();
    let span = config.geometry().user_pages() * 2 / 3;
    let reqs: Vec<HostRequest> = (0..requests)
        .map(|i| HostRequest {
            arrival: SimTime::from_micros(400 * i),
            lpn: (i * 2_654_435_761) % span,
            pages: 1,
            op: if i % 4 == 3 {
                HostOp::Read
            } else {
                HostOp::Write
            },
            ..HostRequest::default()
        })
        .collect();
    let mut device = SsdDevice::new(config.clone(), Box::new(DloopFtl::new(&config)));
    // Age the device first, so the measured stream collects from its start.
    let fill: Vec<HostRequest> = (0..2 * span)
        .map(|i| HostRequest {
            arrival: SimTime::from_micros(300 * i),
            lpn: i % span,
            pages: 1,
            op: HostOp::Write,
            ..HostRequest::default()
        })
        .collect();
    device.warm_up(&fill);
    let before = allocations();
    let report = device.run_with(&reqs, RunConfig::ncq(32));
    let allocated = allocations() - before;
    assert_eq!(report.requests_completed, requests);
    assert!(report.ftl.gc_invocations > 0, "the stream must collect");
    let last = reqs.last().expect("a non-empty stream").arrival;
    assert!(
        report.sim_end.saturating_since(last) < SimDuration::from_millis(20),
        "the stream must be steady: its backlog drains by {}, the last arrival is at {last}",
        report.sim_end
    );
    allocated
}

// The queueing scheduler keeps its pending ops in buffers that grow to the
// run's peak backlog and are reused from then on: the op slab, the readiness
// lanes, the chain-less list, the wake heap, and the chain free list with
// each recycled chain's step buffer. A longer steady stream meets somewhat
// deeper bursts and longer collection chains, so a few of those grow once
// more — 97 allocations for 2 000 requests and 111 for 8 000 when this test
// was written, the 14 extra all chain, slab, lane and wake-heap growth. The
// allowance below is about twice that. One allocation per request or per
// page op would add thousands.
const PEAK_GROWTH_ALLOWANCE: u64 = 32;

#[test]
fn ncq_replay_allocations_do_not_grow_with_trace_length() {
    let short = ncq_replay_allocations(2_000);
    let long = ncq_replay_allocations(8_000);
    assert!(
        long <= short + PEAK_GROWTH_ALLOWANCE,
        "an NCQ replay of 8 000 requests allocated {long} times, one of 2 000 \
         {short} times: something allocates per request"
    );
}
