//! Host-side measurement primitives: process CPU time, peak RSS, and the
//! order statistics the estimator rule is built on.

/// Process CPU seconds (user + system, every thread that ever ran,
/// including ones that already exited).
///
/// `/proc/self/stat` reports the same quantity but in 10 ms clock ticks —
/// too coarse for a ~1 s timed call judged against a single-digit-percent
/// bound — and the per-thread `schedstat` files forget exited shard
/// workers. The POSIX process clock has neither problem, and `std`
/// already links the C library that provides it.
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target, the only ones this harness supports),
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size so far (`VmHWM`), in MiB; 0 when `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when there was nothing to divide by (a layer the
/// workload never used).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pin glibc's mmap threshold at its initial 128 KiB, for the whole
/// process.
///
/// Left alone, the threshold is dynamic: freeing the first large block
/// raises it, after which a device's arrays come from the heap instead of
/// fresh mappings — or not, depending on the address-space layout the
/// process happened to get. Unmanaged, that showed as two modes between
/// otherwise identical runs: `setup_s` of 20 vs 29 ms and `peak_rss_mb` of
/// 73 vs 89 MiB on `qos_ncq`. Setting the threshold explicitly switches the
/// adjustment off, so every rep of every run gets its large arrays the way
/// the first allocation of a fresh process does — freshly mapped, zeroed,
/// and returned to the system on drop. A no-op off glibc.
///
/// `mallopt` is not safe against concurrent allocation, so this is for
/// `main` to call before it does anything else — which is also why
/// in-process callers of `run_workload` (the self-test) run unpinned.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes two integers and only changes allocator
        // tunables; the caller runs it while the process has one thread.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
    }
}

/// The three quartile cut points of `values`, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so a
/// number printed here and a spread computed by an outside checker mean
/// the same thing. One value is its own quartiles; none gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => return [0.0; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// Order statistics of one timed quantity over the reps of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Lower quartile — the estimator of the timed call's wall and CPU.
    pub q1: f64,
    /// Median — the estimator of set-up time.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `values`.
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median,
            q3,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// The summary as a JSON object.
    pub fn to_json(&self) -> String {
        use crate::json::number;
        format!(
            "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
            self.n,
            number(self.min),
            number(self.q1),
            number(self.median),
            number(self.q3),
            number(self.max)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..7], n=4) == [2.0, 4.0, 6.0]
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), [2.0, 4.0, 6.0]);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn process_clock_advances_with_work() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_seconds() > before, "spun {x} without CPU time");
        assert!(peak_rss_mb() > 0.0);
    }
}
