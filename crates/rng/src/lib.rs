//! Self-contained deterministic pseudo-random number generation.
//!
//! The workspace must build with no network access, so it cannot depend on
//! the `rand` crate. This crate provides the small surface the simulator
//! and generators actually use — a seedable small-state generator with
//! `gen`, `gen_bool` and `gen_range` — behind the same call shapes, so a
//! call site only swaps its `use rand::...` imports for `use
//! atmem_rng::SmallRng`.
//!
//! The generator is xoshiro256++ seeded through splitmix64: fast,
//! well-distributed, and deterministic for a fixed seed (the property every
//! test and experiment relies on). The streams differ from `rand`'s
//! `SmallRng`, which is fine: nothing in the workspace depends on specific
//! draws, only on determinism, range bounds, and rough distribution shape.
//! [`SmallRng::advance`] jumps a stream exactly `n` draws ahead, so parallel
//! workers can each draw their own slice of one serial stream.

use std::ops::{Range, RangeInclusive};

/// A small, fast, seedable generator (xoshiro256++). Two generators are
/// equal when their whole state is, i.e. when their future streams are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed via splitmix64 expansion.
    /// Deterministic: equal seeds produce equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SmallRng { s }
    }

    /// Creates a generator from raw xoshiro256++ state. For tests that need
    /// one chosen draw (the next output is `(s[0] + s[3]).rotate_left(23) +
    /// s[0]`); everything else seeds through
    /// [`seed_from_u64`](SmallRng::seed_from_u64).
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state, the generator's one fixed point.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "xoshiro state must not be all zero");
        SmallRng { s }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Jumps the generator exactly `n` draws ahead: afterwards it is equal
    /// to a copy that called [`next_u64`](SmallRng::next_u64) `n` times. Costs
    /// O(log n) polynomial products and 256 steps, whatever `n` is, so a
    /// worker can start at its own offset of one serial stream.
    ///
    /// The state transition is linear over GF(2), so `T^n = (x^n mod P)(T)`
    /// for its characteristic polynomial `P` (Cayley–Hamilton): the jumped
    /// state is the XOR of those of the next 256 states whose power of `x`
    /// appears in `x^n mod P`.
    pub fn advance(&mut self, n: u128) {
        self.jump(x_pow_mod(n));
    }

    /// Applies `poly(T)` to the state: `T^n` when `poly` is `x^n mod P`.
    fn jump(&mut self, poly: Poly) {
        let mut acc = [0u64; 4];
        for k in 0..256 {
            if poly[k / 64] >> (k % 64) & 1 == 1 {
                for (a, s) in acc.iter_mut().zip(&self.s) {
                    *a ^= s;
                }
            }
            self.next_u64();
        }
        self.s = acc;
    }

    /// The next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Draws a value of a [`Standard`]-sampleable type. Floats are uniform
    /// in `[0, 1)`.
    #[inline]
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen::<f64>() < p
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// A polynomial over GF(2) of degree below 256, reduced modulo
/// [`CHAR_POLY`]: bit `k % 64` of word `k / 64` is the coefficient of `x^k`.
type Poly = [u64; 4];

/// The characteristic polynomial of the xoshiro256 state transition
/// (shared by its `++`, `**` and `+` scramblers), without its `x^256` term:
/// `x^256 = CHAR_POLY` modulo itself. Derived by Berlekamp–Massey from the
/// transition, which `tests::characteristic_polynomial_is_rederived` repeats.
const CHAR_POLY: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// `p * x mod P`.
fn times_x(p: Poly) -> Poly {
    let carry = p[3] >> 63;
    let mut out = [
        p[0] << 1,
        p[1] << 1 | p[0] >> 63,
        p[2] << 1 | p[1] >> 63,
        p[3] << 1 | p[2] >> 63,
    ];
    if carry == 1 {
        for (o, c) in out.iter_mut().zip(CHAR_POLY) {
            *o ^= c;
        }
    }
    out
}

/// `a * b mod P`, by Horner's rule over the coefficients of `b`.
fn mul_mod(a: Poly, b: Poly) -> Poly {
    let mut out = [0; 4];
    for k in (0..256).rev() {
        out = times_x(out);
        if b[k / 64] >> (k % 64) & 1 == 1 {
            for (o, a) in out.iter_mut().zip(a) {
                *o ^= a;
            }
        }
    }
    out
}

/// `x^n mod P`, by square-and-multiply from the top bit of `n`.
fn x_pow_mod(n: u128) -> Poly {
    let mut out = [1, 0, 0, 0];
    for bit in (0..u128::BITS - n.leading_zeros()).rev() {
        out = mul_mod(out, out);
        if n >> bit & 1 == 1 {
            out = times_x(out);
        }
    }
    out
}

/// Types drawable by [`SmallRng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample(rng: &mut SmallRng) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        // 24 high bits → uniform in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u32 {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64() as usize
    }
}

/// Ranges drawable by [`SmallRng::gen_range`].
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

/// Uniform draw from `[0, span)` without modulo bias (Lemire's method).
#[inline]
fn uniform_below(rng: &mut SmallRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let m = (rng.next_u64() as u128).wrapping_mul(span as u128);
        if m as u64 >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u64) - (start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

int_range_impls!(u32, u64, usize);

macro_rules! float_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u: $t = rng.gen();
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}

float_range_impls!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_and_divergence() {
        let stream = |seed| {
            let mut r = SmallRng::seed_from_u64(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let a = r.gen_range(3u32..17);
            assert!((3..17).contains(&a));
            let b = r.gen_range(0usize..1);
            assert_eq!(b, 0);
            let c = r.gen_range(5u64..=9);
            assert!((5..=9).contains(&c));
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = r.gen_range(1.0f32..4.0);
            assert!((1.0..4.0).contains(&x));
            let y: f64 = r.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn ranges_are_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut r = SmallRng::seed_from_u64(0);
        let _ = r.gen_range(5u32..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn advance_equals_stepping() {
        let mut lengths = vec![0, 1, 2, 63, 64, 255, 256, 257, 1000];
        let mut r = SmallRng::seed_from_u64(5);
        lengths.extend((0..8).map(|_| r.gen_range(0u64..1_000_000)));
        for (i, n) in lengths.into_iter().enumerate() {
            let start = SmallRng::seed_from_u64(0xADA + i as u64);
            let mut stepped = start.clone();
            for _ in 0..n {
                stepped.next_u64();
            }
            let mut jumped = start;
            jumped.advance(u128::from(n));
            assert_eq!(jumped, stepped, "advance({n})");
        }
    }

    /// `x^(2^128) mod P` is the polynomial the xoshiro256 authors publish as
    /// `jump()`, worked out independently of [`CHAR_POLY`]: matching it checks
    /// the stored constant bit for bit.
    #[test]
    fn advance_by_2_pow_128_is_the_published_jump() {
        const JUMP: Poly = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let half = x_pow_mod(1 << 127);
        assert_eq!(mul_mod(half, half), JUMP);

        // `2^128` is one past `u128::MAX`: reach it in two halves, and as
        // `u128::MAX` draws plus one.
        let start = SmallRng::seed_from_u64(0x1234);
        let mut reference = start.clone();
        reference.jump(JUMP);
        let mut halves = start.clone();
        halves.advance(1 << 127);
        halves.advance(1 << 127);
        assert_eq!(halves, reference);
        let mut all_but_one = start;
        all_but_one.advance(u128::MAX);
        all_but_one.next_u64();
        assert_eq!(all_but_one, reference);
    }

    /// Berlekamp–Massey over 512 bits of one state bit finds the shortest
    /// linear recurrence they obey. The generator has full period
    /// `2^256 - 1`, so its characteristic polynomial is primitive and that
    /// recurrence is the polynomial itself.
    #[test]
    fn characteristic_polynomial_is_rederived() {
        const N: usize = 512;
        let mut r = SmallRng::seed_from_u64(0xB3);
        let bits: Vec<u8> = (0..N)
            .map(|_| {
                let b = (r.s[0] & 1) as u8;
                r.next_u64();
                b
            })
            .collect();
        // `c` is the connection polynomial 1 + c_1 x + … + c_len x^len.
        let (mut c, mut prev) = (vec![0u8; N + 1], vec![0u8; N + 1]);
        c[0] = 1;
        prev[0] = 1;
        let (mut len, mut gap) = (0, 1);
        for i in 0..N {
            let discrepancy = (1..=len).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
            if discrepancy == 0 {
                gap += 1;
                continue;
            }
            let before = c.clone();
            for j in 0..=N - gap {
                c[j + gap] ^= prev[j];
            }
            if 2 * len <= i {
                len = i + 1 - len;
                prev = before;
                gap = 1;
            } else {
                gap += 1;
            }
        }
        assert_eq!(len, 256);
        // The characteristic polynomial is the connection polynomial
        // reversed: the coefficient of x^k is c_(256 - k), and c_0 = 1 is
        // the x^256 term.
        let mut p: Poly = [0; 4];
        for k in 0..256 {
            p[k / 64] |= u64::from(c[256 - k]) << (k % 64);
        }
        assert_eq!(p, CHAR_POLY);
    }
}
