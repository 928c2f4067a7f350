//! The library's one seeded random generator.
//!
//! Every seeded draw in the library comes from [`SplitMix64`]: the
//! synthetic graph families and deltas of [`crate::generators`], the
//! mesh points and refinement jitter of `igp-mesh`, and the RSB start
//! vectors of `igp-spectral`. Its stream is therefore part of every
//! golden table, paper figure and benchmark workload, and it lives here,
//! as plain code, rather than behind a swappable crate: changing a single
//! output or mapping moves every mesh. The tests below pin the raw
//! outputs and each mapping; `tests/rng_streams.rs` pins the call sites.
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) keeps one `u64` of
//! state and passes BigCrush on its 64-bit output.

/// A SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`. One burn-in step decorrelates
    /// small consecutive seeds.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64 {
            state: seed ^ 0x5DEE_CE66_D613_1A87,
        };
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`: 53 random mantissa bits.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A draw from `0..bound` by multiply-shift. The bias is below 2⁻³²
    /// for the small bounds the library uses. Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below: empty range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_in_bounds() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = 3 + rng.below(14);
            assert!((3..17).contains(&v));
            let f = -2.0 + rng.unit_f64() * 4.0;
            assert!((-2.0..2.0).contains(&f));
            let i = -5 + rng.below(11) as i64;
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn unit_float_in_range() {
        let mut rng = SplitMix64::new(2);
        let mut seen_high = false;
        for _ in 0..1000 {
            let f = rng.unit_f64();
            assert!((0.0..1.0).contains(&f));
            seen_high |= f > 0.5;
        }
        assert!(seen_high);
    }

    #[test]
    fn clone_forks_identical_stream() {
        let mut a = SplitMix64::new(3);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }

    /// The first eight outputs of four seeds, captured from the stand-in
    /// `rand` crate this generator replaced.
    #[rustfmt::skip]
    const FIRST_OUTPUTS: [(u64, [u64; 8]); 4] = [
        (0, [0x75971ee9b3f34095, 0xf7cc9572925103d3, 0x808ee81871309d84, 0x7c5de8bc98d99702,
             0x3665b7bd70fc7e6d, 0xb2f9e5aee90449f0, 0xe8b809e3983fb3c6, 0xf305fd8d43bafbaa]),
        (1, [0x727cab5755adf6f7, 0xce2ea42eeed2ca1d, 0xb9716b3d792f6d3c, 0xcd67bde737ef58c5,
             0x0c9a372db0da0a20, 0x83ad9d085ec3de06, 0x7f20807295c6296c, 0x49a9d1bb4fa174ee]),
        (42, [0xad369a93f866b1bb, 0x459890a896d93fe7, 0xe6a994a31c8a58af, 0x951d027bf3b40f2f,
              0xcc99c76654775214, 0xda62d200f2f63eea, 0x8ce734c6ac045e76, 0x2cfdbecdc3cc787c]),
        (u64::MAX, [0xcdef4988597ff36d, 0xe418de8f630a3342, 0xe2e82548084dfa9d, 0x562c59415dcbd1ab,
                    0xfeeb70a4710b21e5, 0x15506c65370106a7, 0x82597e3a82d24455, 0xa975be1f4144d1b8]),
    ];

    #[test]
    fn first_outputs_pinned() {
        for (seed, want) in FIRST_OUTPUTS {
            let mut rng = SplitMix64::new(seed);
            let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    /// Each mapping the library and the proptest harness use, on seed 7:
    /// the stand-in's `gen::<f64>()`, `gen_range(0..3)`,
    /// `gen_range(0..1000)`, and its signed ranges `-8i32..9` and
    /// `-50i64..50` (offset plus `below` of the span).
    #[test]
    fn mappings_pinned() {
        let mut rng = SplitMix64::new(7);
        let unit: Vec<f64> = (0..4).map(|_| rng.unit_f64()).collect();
        assert_eq!(
            unit,
            [
                0.03027986796390414,
                0.6527576287874548,
                0.3921309137176866,
                0.6216347683815133
            ]
        );
        let mut rng = SplitMix64::new(7);
        let three: Vec<usize> = (0..16).map(|_| rng.below(3)).collect();
        assert_eq!(three, [0, 1, 1, 1, 0, 1, 0, 1, 2, 0, 2, 0, 2, 1, 2, 1]);
        let mut rng = SplitMix64::new(7);
        let thousand: Vec<usize> = (0..8).map(|_| rng.below(1000)).collect();
        assert_eq!(thousand, [30, 652, 392, 621, 244, 537, 1, 457]);
        let mut rng = SplitMix64::new(7);
        let exp: Vec<i32> = (0..16).map(|_| -8 + rng.below(17) as i32).collect();
        assert_eq!(exp, [-8, 3, -2, 2, -4, 1, -8, -1, 5, -8, 5, -4, 3, 2, 5, 1]);
        let mut rng = SplitMix64::new(7);
        let signed: Vec<i64> = (0..8).map(|_| -50 + rng.below(100) as i64).collect();
        assert_eq!(signed, [-47, 15, -11, 12, -26, 3, -50, -5]);
    }
}
