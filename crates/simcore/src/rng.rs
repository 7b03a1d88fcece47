//! Deterministic random number generation for workload models.
//!
//! [`SimRng`] wraps a self-contained ChaCha8 stream cipher RNG, which is
//! seedable, portable and stable across library versions — the algorithm
//! lives in this file, so no external crate release can ever change the
//! stream. All stochastic draws in the simulator flow through this type so
//! a single `u64` seed reproduces an entire experiment.
//!
//! The distribution helpers here (uniform, exponential, log-normal, normal,
//! Bernoulli, Pareto) are implemented directly from inverse-CDF /
//! Box–Muller formulas to avoid an extra dependency on `rand_distr`.

use crate::time::SimDuration;

/// Self-contained ChaCha8 keystream generator.
///
/// The 64-bit seed is expanded into the 256-bit key with splitmix64; the
/// block counter occupies state words 12–13 and the nonce words 14–15 are
/// zero, giving a 2^70-byte period per seed — far beyond any simulation.
#[derive(Debug, Clone)]
struct ChaCha8Core {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    idx: usize,
}

#[inline]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the per-scenario seed used by sweep batches: the
/// `(index + 1)`-th splitmix64 output of the stream starting at
/// `base_seed`. Pure and order-free, so scenario *k* gets the same seed
/// whether the batch runs serially or across any number of workers, and
/// distinct indices land in uncorrelated regions of seed space.
pub fn derive_seed(base_seed: u64, index: u64) -> u64 {
    let mut state = base_seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

impl ChaCha8Core {
    fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_exact_mut(2) {
            let w = splitmix64(&mut sm);
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        ChaCha8Core {
            key,
            counter: 0,
            buf: [0; 16],
            idx: 16,
        }
    }

    fn refill(&mut self) {
        // "expand 32-byte k" constants per the ChaCha specification.
        let mut s: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let init = s;
        for _ in 0..4 {
            // One double round: a column round then a diagonal round.
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (out, start) in s.iter_mut().zip(init) {
            *out = out.wrapping_add(start);
        }
        self.buf = s;
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    fn next_u64(&mut self) -> u64 {
        // u64s are always served from an even word index, so a full pair is
        // available whenever idx < 16.
        if self.idx >= 16 {
            self.refill();
        }
        let lo = self.buf[self.idx] as u64;
        let hi = self.buf[self.idx + 1] as u64;
        self.idx += 2;
        lo | (hi << 32)
    }
}

/// Serializable image of a [`SimRng`]'s complete internal state: the
/// expanded key, block counter, buffered keystream words and read
/// position. Restoring it resumes the stream exactly where it left off.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RngState {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    idx: u64,
}

/// Deterministic simulation RNG with the distribution helpers used by the
/// workload models.
///
/// ```
/// use bl_simcore::rng::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Core,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Core::new(seed),
        }
    }

    /// Derives an independent child RNG; used to give each task its own
    /// stream so adding a task does not perturb the draws of others.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(s)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        // 53 random mantissa bits -> uniform double in [0,1).
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform: lo > hi");
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi, "uniform_usize: empty range");
        let span = (hi - lo) as u128;
        // Widening-multiply range reduction (Lemire): unbiased enough for
        // simulation purposes and branch-free.
        lo + ((self.inner.next_u64() as u128 * span) >> 64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform01() < p.clamp(0.0, 1.0)
    }

    /// Exponential draw with the given mean (inverse-CDF method).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "exponential: non-positive mean");
        let u = 1.0 - self.uniform01(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Standard normal draw (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform01();
        let u2 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with mean `mu` and standard deviation `sigma`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        debug_assert!(sigma >= 0.0, "normal: negative sigma");
        mu + sigma * self.standard_normal()
    }

    /// Log-normal draw parameterized by the *median* and the shape `sigma`
    /// (the standard deviation of the underlying normal).
    ///
    /// Interactive CPU bursts are heavy-tailed; log-normal is the standard
    /// choice for modeling them.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0, "lognormal: non-positive median");
        (median.ln() + sigma * self.standard_normal()).exp()
    }

    /// Pareto draw with minimum `xm` and shape `alpha` (inverse-CDF method).
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0, "pareto: invalid parameters");
        let u = 1.0 - self.uniform01();
        xm / u.powf(1.0 / alpha)
    }

    /// Exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }

    /// Uniform duration in `[lo, hi)`.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.uniform(lo.as_secs_f64(), hi.as_secs_f64()))
    }

    /// Captures the generator's full internal state for persistence. The
    /// counterpart [`SimRng::state_restore`] rebuilds a generator that
    /// produces the identical stream from the identical position.
    pub fn state_save(&self) -> RngState {
        RngState {
            key: self.inner.key,
            counter: self.inner.counter,
            buf: self.inner.buf,
            idx: self.inner.idx as u64,
        }
    }

    /// Rebuilds a generator from a saved state. The restored stream is
    /// bit-identical to the original from its saved position onward.
    pub fn state_restore(state: &RngState) -> SimRng {
        SimRng {
            inner: ChaCha8Core {
                key: state.key,
                counter: state.counter,
                buf: state.buf,
                // Clamp so a corrupted index can never read out of bounds;
                // 16 simply forces a refill on the next draw.
                idx: (state.idx as usize).min(16),
            },
        }
    }

    /// A 64-bit digest of the generator's full internal state (key, block
    /// counter, buffered words and read position). Two generators with
    /// equal digests produce identical streams forever, so snapshot
    /// fingerprints can include the RNG without exposing its internals.
    pub fn state_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        let mut mix = |w: u64| {
            for byte in w.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        for pair in self.inner.key.chunks_exact(2) {
            mix(pair[0] as u64 | ((pair[1] as u64) << 32));
        }
        mix(self.inner.counter);
        for pair in self.inner.buf.chunks_exact(2) {
            mix(pair[0] as u64 | ((pair[1] as u64) << 32));
        }
        mix(self.inner.idx as u64);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn chacha_keystream_matches_reference_structure() {
        // The first block must differ from the second (counter advances),
        // and word pairs must pack little-end-first into u64s.
        let mut r = SimRng::seed_from(0);
        let first: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        let second: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_ne!(first, second);
        let mut again = SimRng::seed_from(0);
        assert_eq!(first[0], again.next_u64());
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.next_u64(), fb.next_u64());
        // Forking with a different salt gives a different stream.
        let mut c = SimRng::seed_from(9);
        let mut fc = c.fork(2);
        assert_ne!(fa.next_u64(), fc.next_u64());
    }

    #[test]
    fn uniform01_in_range() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.uniform01();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform01_mean_near_half() {
        let mut r = SimRng::seed_from(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform01()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn uniform_usize_covers_range() {
        let mut r = SimRng::seed_from(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            let x = r.uniform_usize(2, 10);
            assert!((2..10).contains(&x));
            seen[x - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values should appear");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::seed_from(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::seed_from(6);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = SimRng::seed_from(7);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.lognormal(5.0, 0.8)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[n / 2];
        assert!((median - 5.0).abs() < 0.2, "median = {median}");
    }

    #[test]
    fn pareto_minimum_respected() {
        let mut r = SimRng::seed_from(8);
        for _ in 0..10_000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(9);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn state_digest_tracks_stream_position() {
        let mut a = SimRng::seed_from(12);
        let b = a.clone();
        assert_eq!(a.state_digest(), b.state_digest());
        a.next_u64();
        assert_ne!(a.state_digest(), b.state_digest());
        // Replaying the same draw from the clone converges the digests.
        let mut b = b;
        b.next_u64();
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn state_save_restore_resumes_stream() {
        let mut a = SimRng::seed_from(13);
        for _ in 0..5 {
            a.next_u64();
        }
        let saved = a.state_save();
        let mut b = SimRng::state_restore(&saved);
        assert_eq!(a.state_digest(), b.state_digest());
        for _ in 0..40 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // And through the serde layer: the state survives a JSON round trip.
        let json = serde_json::to_string(&saved).unwrap();
        let back: RngState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, saved);
    }

    #[test]
    fn duration_helpers() {
        let mut r = SimRng::seed_from(10);
        let d = r.uniform_duration(SimDuration::from_millis(1), SimDuration::from_millis(2));
        assert!(d >= SimDuration::from_millis(1) && d < SimDuration::from_millis(2));
        let e = r.exp_duration(SimDuration::from_millis(5));
        assert!(e >= SimDuration::ZERO);
    }
}
