//! Deterministic, seedable pseudo-random number generation.
//!
//! The workspace must build and test with **zero network access**, so this
//! module vendors the small slice of a `rand`-style API the repo actually
//! uses: a [`SplitMix64`] seeder, a [`Xoshiro256StarStar`] main generator
//! (exported as [`SmallRng`] so call sites read like the `rand` idiom), and
//! an [`Rng`] trait providing `gen_range`/`gen_bool`/`choose`.
//!
//! Both generators are the public-domain reference algorithms of Blackman &
//! Vigna. They are *not* cryptographic — they are fast, tiny, and exactly
//! reproducible across platforms, which is what test infrastructure needs.

use std::ops::Range;

/// Steele, Lea & Flood's SplitMix64: a one-word generator used to seed the
/// main PRNG and to derive independent per-case seeds in the property
/// harness.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The `thread_index`-th per-thread seed derived from a master seed: the
/// `(thread_index + 1)`-th output of a [`SplitMix64`] stream over
/// `master_seed`.
///
/// Worker *i* of a run (a thread or a process, such as perfbench's
/// measuring children) gets the seed `per_thread_seed(seed, i)`, so every
/// worker draws from its own deterministic stream — no shared generator,
/// no scheduling-dependent interleaving of draws: worker *i* regenerates
/// the very same inputs however the workers are scheduled.
pub fn per_thread_seed(master_seed: u64, thread_index: usize) -> u64 {
    let mut mix = SplitMix64::new(master_seed);
    let mut seed = mix.next_u64();
    for _ in 0..thread_index {
        seed = mix.next_u64();
    }
    seed
}

/// xoshiro256**: the workhorse generator. 256 bits of state, period
/// 2²⁵⁶ − 1, equidistributed in four dimensions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The repo-wide alias, named after `rand::rngs::SmallRng` so ported call
/// sites keep their shape (`SmallRng::seed_from_u64(seed)`).
pub type SmallRng = Xoshiro256StarStar;

impl Xoshiro256StarStar {
    /// Seeds the full 256-bit state from a single word via [`SplitMix64`],
    /// the seeding procedure recommended by the algorithm's authors.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256StarStar {
        let mut mix = SplitMix64::new(seed);
        let mut s = [
            mix.next_u64(),
            mix.next_u64(),
            mix.next_u64(),
            mix.next_u64(),
        ];
        if s == [0; 4] {
            // The all-zero state is the one fixed point; nudge off it.
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The `rand`-style sampling interface used throughout the workspace.
///
/// Only the methods the repo actually calls are provided; everything is a
/// default method over [`Rng::next_u64`], so a generator implements one
/// function.
pub trait Rng {
    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// The next raw 32-bit output (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform sample from a half-open range. Panics if the range is
    /// empty, matching `rand`'s behavior.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_uniform(range.start, range.end, self)
    }

    /// A Bernoulli draw: `true` with probability `p`.
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of [0, 1]");
        // 53 uniform mantissa bits, the standard float-in-[0,1) recipe.
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// Panics on an empty slice.
    fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T
    where
        Self: Sized,
    {
        assert!(!xs.is_empty(), "choose: empty slice");
        &xs[self.gen_range(0..xs.len())]
    }
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        Xoshiro256StarStar::next_u64(self)
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

impl<R: Rng> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from a half-open range.
pub trait SampleUniform: Copy + PartialOrd {
    /// A uniform draw from `[start, end)`. Panics if `start >= end`.
    fn sample_uniform<R: Rng>(start: Self, end: Self, rng: &mut R) -> Self;
}

/// A bias-free-enough bounded draw: multiply-shift maps a 64-bit draw onto
/// `[0, span)`. The bias is at most `span / 2⁶⁴` — irrelevant for test-case
/// generation and much faster than rejection sampling.
fn bounded_u64<R: Rng>(span: u64, rng: &mut R) -> u64 {
    debug_assert!(span > 0);
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: Rng>(start: Self, end: Self, rng: &mut R) -> Self {
                assert!(start < end, "gen_range: empty range {start}..{end}");
                let span = (end - start) as u64;
                start + bounded_u64(span, rng) as $t
            }
        }
    )*};
}

macro_rules! impl_sample_signed {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: Rng>(start: Self, end: Self, rng: &mut R) -> Self {
                assert!(start < end, "gen_range: empty range {start}..{end}");
                let span = (end as $u).wrapping_sub(start as $u) as u64;
                start.wrapping_add(bounded_u64(span, rng) as $t)
            }
        }
    )*};
}

impl_sample_unsigned!(u8, u16, u32, u64, usize);
impl_sample_signed!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c (Vigna). Pins the implementation forever.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
        assert_eq!(g.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_everything() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let k = rng.gen_range(0usize..10);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..1000 {
            let v = rng.gen_range(-9i32..10);
            assert!((-9..10).contains(&v));
        }
        for _ in 0..100 {
            let v = rng.gen_range(5u64..6);
            assert_eq!(v, 5);
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 10_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "observed {frac}");
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = rng.gen_range(3u32..3);
    }

    #[test]
    fn per_thread_seeds_are_the_splitmix_stream() {
        // Thread i's seed is the (i+1)-th SplitMix64 output of the master
        // seed — a pure function of (master, i), independent of call
        // order or scheduling.
        let mut mix = SplitMix64::new(0xD00D);
        for i in 0..8 {
            let expected = mix.next_u64();
            assert_eq!(per_thread_seed(0xD00D, i), expected);
        }
        // Distinct threads get distinct streams.
        let seeds: Vec<u64> = (0..16).map(|i| per_thread_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn rng_usable_through_mut_reference() {
        fn takes_impl(rng: &mut impl Rng) -> u64 {
            rng.gen_range(0u64..100)
        }
        let mut rng = SmallRng::seed_from_u64(5);
        let v = takes_impl(&mut rng);
        assert!(v < 100);
    }
}
