//! A minimal, deterministic property-testing harness.
//!
//! This is the workspace's in-tree replacement for `proptest`: the build is
//! hermetic (no registry dependencies, see `tests/hermetic.rs` at the
//! workspace root), so the correctness suites generate their random inputs
//! from [`SimRng`] — the same PCG generator the simulator itself uses —
//! instead of an external crate.
//!
//! ## Model
//!
//! * A [`Generator`] produces arbitrary values of some type from a
//!   [`SimRng`], and can propose *smaller* variants of a value via
//!   [`Generator::shrink`].
//! * A [`Checker`] runs a property (a `Fn(&T) -> Result<(), String>`
//!   closure) against many generated inputs. Each case is derived from a
//!   per-case seed, so any failure is replayable in isolation.
//! * On failure the checker greedily shrinks the failing input, then panics
//!   with the per-case seed, the original and shrunk inputs, and the
//!   failure message. Re-running the test with
//!   `SIMKIT_CHECK_REPLAY=<seed>` replays exactly that case.
//!
//! Inside a property, use the [`check_assert!`](crate::check_assert) and
//! [`check_assert_eq!`](crate::check_assert_eq) macros (which return an
//! `Err` so shrinking stays quiet) rather than `assert!`; plain panics are
//! still caught and treated as failures, they are just noisier.
//!
//! ## Example
//!
//! ```
//! use dloop_simkit::check::{self, Checker, Generator};
//! use dloop_simkit::check_assert_eq;
//!
//! // Property: reversing a vector twice is the identity.
//! let gen = check::vec_of(check::u64s(0..100), 0..20);
//! Checker::new().cases(64).run(&gen, |xs| {
//!     let mut twice = xs.clone();
//!     twice.reverse();
//!     twice.reverse();
//!     check_assert_eq!(twice, *xs);
//!     Ok(())
//! });
//! ```
//!
//! ## Environment knobs
//!
//! * `SIMKIT_CHECK_CASES` — overrides the case count of every checker
//!   (for quick smoke runs or overnight soak runs).
//! * `SIMKIT_CHECK_SEED` — overrides the base seed of every checker.
//! * `SIMKIT_CHECK_REPLAY` — a per-case seed reported by a failure; runs
//!   only that case.

use crate::rng::SimRng;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Produces arbitrary values of `Self::Value` and proposes shrunk variants.
///
/// Implementations must be deterministic: the same `SimRng` state must
/// yield the same value, or seed-based replay breaks.
pub trait Generator {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Draw one arbitrary value.
    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    /// Propose *strictly simpler* candidate values derived from `value`.
    ///
    /// Candidates are tried in order during failure minimisation; the
    /// first one that still fails the property becomes the new current
    /// value. Returning an empty vector (the default) disables shrinking
    /// for this generator.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }

    /// Transform generated values with `f`.
    ///
    /// The mapping is one-way, so mapped generators do not shrink; when a
    /// mapped generator is an element of [`vec_of`], the vector itself
    /// still shrinks by dropping elements, which is where most of the
    /// minimisation power lives.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Box this generator for use in heterogeneous collections such as
    /// the arms of [`weighted`].
    fn boxed(self) -> BoxedGenerator<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased generator (see [`Generator::boxed`]).
pub type BoxedGenerator<T> = Box<dyn Generator<Value = T>>;

impl<T: Clone + Debug> Generator for BoxedGenerator<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        (**self).generate(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

macro_rules! int_generator {
    ($(#[$doc:meta])* $fn_name:ident, $struct_name:ident, $ty:ty) => {
        $(#[$doc])*
        ///
        /// Values shrink toward the lower bound of the range.
        pub fn $fn_name(range: Range<$ty>) -> $struct_name {
            assert!(
                range.start < range.end,
                concat!(stringify!($fn_name), ": empty range")
            );
            $struct_name { range }
        }

        /// Uniform-integer generator returned by the eponymous function.
        #[derive(Debug, Clone)]
        pub struct $struct_name {
            range: Range<$ty>,
        }

        impl Generator for $struct_name {
            type Value = $ty;

            fn generate(&self, rng: &mut SimRng) -> $ty {
                let span = (self.range.end - self.range.start) as u64;
                self.range.start + rng.below(span) as $ty
            }

            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                let v = *value;
                let lo = self.range.start;
                if v <= lo {
                    return Vec::new();
                }
                // Geometric ladder from the lower bound up toward `v`
                // (lo, then ever-closer midpoints, ending at v-1), so the
                // greedy descent in the checker binary-searches for the
                // boundary instead of stepping by one.
                let mut out = Vec::new();
                let mut distance = v - lo;
                while distance > 0 {
                    out.push(v - distance);
                    distance /= 2;
                }
                out.dedup();
                out
            }
        }
    };
}

int_generator!(
    /// Uniform `u8` values in `[range.start, range.end)`.
    u8s, U8s, u8
);
int_generator!(
    /// Uniform `u32` values in `[range.start, range.end)`.
    u32s, U32s, u32
);
int_generator!(
    /// Uniform `u64` values in `[range.start, range.end)`.
    u64s, U64s, u64
);
int_generator!(
    /// Uniform `usize` values in `[range.start, range.end)`.
    usizes, Usizes, usize
);

/// Fair coin flips. `true` shrinks to `false`.
pub fn bools() -> Bools {
    Bools
}

/// Boolean generator returned by [`bools`].
#[derive(Debug, Clone)]
pub struct Bools;

impl Generator for Bools {
    type Value = bool;

    fn generate(&self, rng: &mut SimRng) -> bool {
        rng.chance(0.5)
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Uniform `f64` values in `[range.start, range.end)`, shrinking toward
/// the lower bound.
pub fn f64s(range: Range<f64>) -> F64s {
    assert!(range.start < range.end, "f64s: empty range");
    assert!(
        range.start.is_finite() && range.end.is_finite(),
        "f64s: bounds must be finite"
    );
    F64s { range }
}

/// Uniform-float generator returned by [`f64s`].
#[derive(Debug, Clone)]
pub struct F64s {
    range: Range<f64>,
}

impl Generator for F64s {
    type Value = f64;

    fn generate(&self, rng: &mut SimRng) -> f64 {
        self.range.start + rng.f64() * (self.range.end - self.range.start)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        let lo = self.range.start;
        if !(v > lo) {
            return Vec::new();
        }
        let mut out = vec![lo, lo + (v - lo) / 2.0];
        out.retain(|c| c.is_finite() && *c != v);
        out.dedup_by(|a, b| a.to_bits() == b.to_bits());
        out
    }
}

/// Uniformly picks one of the given options. Shrinks toward earlier
/// options in the list, so put the "simplest" option first.
pub fn elements<T: Clone + Debug + PartialEq>(options: Vec<T>) -> Elements<T> {
    assert!(!options.is_empty(), "elements: no options");
    Elements { options }
}

/// Fixed-choice generator returned by [`elements`].
#[derive(Debug, Clone)]
pub struct Elements<T> {
    options: Vec<T>,
}

impl<T: Clone + Debug + PartialEq> Generator for Elements<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        self.options[rng.below(self.options.len() as u64) as usize].clone()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        match self.options.iter().position(|o| o == value) {
            Some(i) => self.options[..i].to_vec(),
            None => Vec::new(),
        }
    }
}

/// Mapped generator returned by [`Generator::map`].
#[derive(Debug, Clone)]
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G, U, F> Generator for Map<G, F>
where
    G: Generator,
    U: Clone + Debug,
    F: Fn(G::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut SimRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! tuple_generator {
    ($(($g:ident, $v:ident, $idx:tt)),+) => {
        impl<$($g: Generator),+> Generator for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut SimRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = candidate;
                        out.push(next);
                    }
                )+
                out
            }
        }
    };
}

tuple_generator!((A, a, 0), (B, b, 1));
tuple_generator!((A, a, 0), (B, b, 1), (C, c, 2));
tuple_generator!((A, a, 0), (B, b, 1), (C, c, 2), (D, d, 3));

/// Vectors of values from `element`, with a length drawn uniformly from
/// `len` (`[len.start, len.end)`).
///
/// Shrinking first drops the front or back half, then single elements,
/// then shrinks individual elements in place — so minimal failing inputs
/// are usually short.
pub fn vec_of<G: Generator>(element: G, len: Range<usize>) -> VecOf<G> {
    assert!(len.start < len.end, "vec_of: empty length range");
    VecOf { element, len }
}

/// Vector generator returned by [`vec_of`].
#[derive(Debug, Clone)]
pub struct VecOf<G> {
    element: G,
    len: Range<usize>,
}

impl<G: Generator> Generator for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut SimRng) -> Vec<G::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let n = self.len.start + rng.below(span) as usize;
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let min = self.len.start;
        let n = value.len();
        let mut out: Vec<Vec<G::Value>> = Vec::new();
        // Halves first: the biggest steps give the fastest descent.
        if n / 2 >= min && n / 2 < n {
            out.push(value[..n / 2].to_vec());
            out.push(value[n - n / 2..].to_vec());
        }
        // Then single-element removals (capped so huge vectors stay cheap).
        if n > min {
            for i in (0..n).take(24) {
                let mut shorter = value.clone();
                shorter.remove(i);
                out.push(shorter);
            }
        }
        // Finally, element-wise shrinks at a few positions.
        for i in (0..n).take(8) {
            for candidate in self.element.shrink(&value[i]) {
                let mut next = value.clone();
                next[i] = candidate;
                out.push(next);
            }
        }
        out
    }
}

/// Picks among `arms` with the given relative weights, like `prop_oneof!`.
///
/// ```
/// use dloop_simkit::check::{self, Checker, Generator};
///
/// #[derive(Debug, Clone)]
/// enum Op { Get(u64), Put(u64, bool) }
///
/// let op = check::weighted(vec![
///     (3, check::u64s(0..10).map(Op::Get).boxed()),
///     (1, (check::u64s(0..10), check::bools())
///         .map(|(k, v)| Op::Put(k, v)).boxed()),
/// ]);
/// Checker::new().cases(32).run(&op, |_op| Ok(()));
/// ```
pub fn weighted<T: Clone + Debug>(arms: Vec<(u32, BoxedGenerator<T>)>) -> Weighted<T> {
    assert!(!arms.is_empty(), "weighted: no arms");
    let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
    assert!(total > 0, "weighted: all weights are zero");
    Weighted { arms, total }
}

/// Weighted-choice generator returned by [`weighted`].
pub struct Weighted<T> {
    arms: Vec<(u32, BoxedGenerator<T>)>,
    total: u64,
}

impl<T: Clone + Debug> Generator for Weighted<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        let mut roll = rng.below(self.total);
        for (weight, arm) in &self.arms {
            if roll < *weight as u64 {
                return arm.generate(rng);
            }
            roll -= *weight as u64;
        }
        unreachable!("roll below total weight always lands in an arm")
    }
}

/// Assert a condition inside a property; on failure returns an `Err`
/// carrying the stringified condition (plus an optional formatted
/// message), which the [`Checker`] shrinks and reports with its seed.
#[macro_export]
macro_rules! check_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($arg)+)
            ));
        }
    };
}

/// Assert two expressions are equal inside a property; the `Err` message
/// includes both values. See [`check_assert!`](crate::check_assert).
#[macro_export]
macro_rules! check_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}: {}\n  left: {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($arg)+),
                l,
                r
            ));
        }
    }};
}

/// Default number of generated cases per property.
const DEFAULT_CASES: u32 = 256;

/// Default base seed; every case seed is mixed from this and the case
/// index, so the whole suite is reproducible run-to-run.
pub const DEFAULT_SEED: u64 = 0x5EED_D100_75EE_D001;

/// Most candidate inputs evaluated while shrinking one failure.
const MAX_SHRINK_TESTS: u32 = 1_000;

/// Runs a property against many generated inputs and minimises failures.
///
/// See the [module docs](self) for the full model and an example.
#[derive(Debug, Clone)]
pub struct Checker {
    cases: u32,
    seed: u64,
    env_cases: Option<u32>,
    env_seed: Option<u64>,
    replay: Option<u64>,
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| {
        let parsed = v.trim().parse();
        if parsed.is_err() {
            eprintln!("warning: ignoring unparsable {name}={v:?}");
        }
        parsed.ok()
    })
}

/// SplitMix64 finaliser: derives an independent per-case seed from the
/// base seed and case index.
fn mix_seed(seed: u64, index: u32) -> u64 {
    let mut z = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_one<T, F>(prop: &F, value: &T) -> Result<(), String>
where
    F: Fn(&T) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked (non-string payload)".into());
            Err(format!("property panicked: {msg}"))
        }
    }
}

impl Checker {
    /// A checker with the default case count and seed, overridable via
    /// the `SIMKIT_CHECK_CASES` / `SIMKIT_CHECK_SEED` / `SIMKIT_CHECK_REPLAY`
    /// environment variables (the environment wins over builder calls, so
    /// one shell export rescales or replays a whole suite).
    pub fn new() -> Self {
        Checker {
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            env_cases: env_u64("SIMKIT_CHECK_CASES").map(|v| v.min(u32::MAX as u64) as u32),
            env_seed: env_u64("SIMKIT_CHECK_SEED"),
            replay: env_u64("SIMKIT_CHECK_REPLAY"),
        }
    }

    /// Set the number of generated cases (default 256).
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Set the base seed (default [`DEFAULT_SEED`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run `prop` against generated inputs; panics on the first failure
    /// with a replayable per-case seed and a shrunk counterexample.
    pub fn run<G, F>(&self, gen: &G, prop: F)
    where
        G: Generator,
        F: Fn(&G::Value) -> Result<(), String>,
    {
        if let Some(case_seed) = self.replay {
            self.run_case(gen, &prop, case_seed, 0, 1);
            return;
        }
        let cases = self.env_cases.unwrap_or(self.cases).max(1);
        let base = self.env_seed.unwrap_or(self.seed);
        for i in 0..cases {
            self.run_case(gen, &prop, mix_seed(base, i), i, cases);
        }
    }

    fn run_case<G, F>(&self, gen: &G, prop: &F, case_seed: u64, index: u32, cases: u32)
    where
        G: Generator,
        F: Fn(&G::Value) -> Result<(), String>,
    {
        let mut rng = SimRng::new(case_seed);
        let value = gen.generate(&mut rng);
        if let Err(message) = run_one(prop, &value) {
            let (shrunk, steps) = self.shrink_failure(gen, value.clone(), prop);
            panic!(
                "property failed (case {index} of {cases})\n\
                 replay: SIMKIT_CHECK_REPLAY={case_seed} cargo test ...\n\
                 original input: {value:?}\n\
                 shrunk input ({steps} shrink steps): {shrunk:?}\n\
                 failure: {message}"
            );
        }
    }

    /// Greedy descent: repeatedly adopt the first shrink candidate that
    /// still fails, until none do or the test budget runs out.
    fn shrink_failure<G, F>(&self, gen: &G, mut current: G::Value, prop: &F) -> (G::Value, u32)
    where
        G: Generator,
        F: Fn(&G::Value) -> Result<(), String>,
    {
        let mut steps = 0u32;
        let mut budget = MAX_SHRINK_TESTS;
        'descend: while budget > 0 {
            for candidate in gen.shrink(&current) {
                if budget == 0 {
                    break 'descend;
                }
                budget -= 1;
                if run_one(prop, &candidate).is_err() {
                    current = candidate;
                    steps += 1;
                    continue 'descend;
                }
            }
            break;
        }
        (current, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_checker() -> Checker {
        // Ignore ambient env overrides so these tests are self-contained.
        let mut c = Checker::new();
        c.env_cases = None;
        c.env_seed = None;
        c.replay = None;
        c
    }

    #[test]
    fn generators_respect_ranges() {
        let mut rng = SimRng::new(1);
        let g = u64s(10..20);
        let v = vec_of(elements(vec!["a", "b"]), 2..5);
        for _ in 0..500 {
            assert!((10..20).contains(&g.generate(&mut rng)));
            let xs = v.generate(&mut rng);
            assert!((2..5).contains(&xs.len()));
        }
        let f = f64s(-1.0..1.0);
        for _ in 0..500 {
            let x = f.generate(&mut rng);
            assert!((-1.0..1.0).contains(&x));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = vec_of((u64s(0..1000), bools()), 1..50);
        let a = g.generate(&mut SimRng::new(99));
        let b = g.generate(&mut SimRng::new(99));
        assert_eq!(a, b);
    }

    #[test]
    fn int_shrink_moves_toward_lower_bound() {
        let g = u64s(5..100);
        let candidates = g.shrink(&80);
        assert!(candidates.contains(&5));
        assert!(candidates.iter().all(|&c| c < 80 && c >= 5));
        assert!(g.shrink(&5).is_empty());
    }

    #[test]
    fn vec_shrink_never_violates_min_len() {
        let g = vec_of(u64s(0..10), 3..10);
        let value = g.generate(&mut SimRng::new(4));
        for candidate in g.shrink(&value) {
            assert!(candidate.len() >= 3, "shrunk below min len: {candidate:?}");
        }
    }

    #[test]
    fn passing_property_completes() {
        fresh_checker().cases(50).run(&u64s(0..100), |&v| {
            check_assert!(v < 100);
            Ok(())
        });
    }

    #[test]
    fn failing_property_panics_with_replay_seed_and_shrinks() {
        let outcome = std::panic::catch_unwind(|| {
            fresh_checker()
                .cases(200)
                .run(&vec_of(u64s(0..1000), 0..40), |xs| {
                    // Fails whenever any element is >= 500.
                    check_assert!(xs.iter().all(|&x| x < 500), "big element in {xs:?}");
                    Ok(())
                });
        });
        let msg = match outcome {
            Ok(()) => panic!("property should have failed"),
            Err(p) => *p.downcast::<String>().expect("string panic payload"),
        };
        assert!(
            msg.contains("SIMKIT_CHECK_REPLAY="),
            "no replay seed: {msg}"
        );
        assert!(msg.contains("shrunk input"), "no shrunk input: {msg}");
        // The minimal counterexample is a single element equal to 500.
        assert!(msg.contains("[500]"), "not fully shrunk: {msg}");
    }

    #[test]
    fn plain_panics_are_caught_and_reported() {
        let outcome = std::panic::catch_unwind(|| {
            fresh_checker().cases(20).run(&u64s(0..10), |&v| {
                if v >= 1 {
                    panic!("boom at {v}");
                }
                Ok(())
            });
        });
        let msg = match outcome {
            Ok(()) => panic!("property should have failed"),
            Err(p) => *p.downcast::<String>().expect("string panic payload"),
        };
        assert!(msg.contains("property panicked: boom"), "{msg}");
        // Shrinking still runs on panicking properties: minimal value is 1.
        assert!(msg.contains("shrunk input"), "{msg}");
    }

    #[test]
    fn weighted_arms_all_fire_and_respect_weights() {
        #[derive(Debug, Clone, PartialEq)]
        enum Kind {
            Heavy,
            Light,
        }
        let g = weighted(vec![
            (9, elements(vec![Kind::Heavy]).boxed()),
            (1, elements(vec![Kind::Light]).boxed()),
        ]);
        let mut rng = SimRng::new(8);
        let n = 10_000;
        let heavy = (0..n)
            .filter(|_| g.generate(&mut rng) == Kind::Heavy)
            .count();
        let frac = heavy as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "heavy fraction {frac}");
    }

    #[test]
    fn elements_shrinks_to_earlier_options() {
        let g = elements(vec![1u8, 2, 3]);
        assert_eq!(g.shrink(&3), vec![1, 2]);
        assert!(g.shrink(&1).is_empty());
    }

    #[test]
    fn replay_runs_exactly_the_reported_case() {
        // Find a failing case seed, then confirm replay reproduces the
        // same generated input.
        let gen = u64s(0..1_000_000);
        let outcome = std::panic::catch_unwind(|| {
            fresh_checker().cases(50).run(&gen, |&v| {
                check_assert!(v < 10, "v = {v}");
                Ok(())
            });
        });
        let msg = *outcome
            .expect_err("should fail")
            .downcast::<String>()
            .unwrap();
        let seed: u64 = msg
            .split("SIMKIT_CHECK_REPLAY=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let mut replayer = fresh_checker();
        replayer.replay = Some(seed);
        let replay_outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            replayer.run(&gen, |&v| {
                check_assert!(v < 10, "v = {v}");
                Ok(())
            });
        }));
        let replay_msg = *replay_outcome
            .expect_err("replay should fail too")
            .downcast::<String>()
            .unwrap();
        assert!(replay_msg.contains(&format!("SIMKIT_CHECK_REPLAY={seed}")));
    }
}
