//! Deterministic, splittable random number generation.
//!
//! Every stochastic element of the simulation (shot noise, Wi-Fi loss,
//! ambient-light jitter, virtual user-study subjects, payload contents)
//! draws from a [`DetRng`]. A `DetRng` can be *forked* into independent
//! child streams by label, so adding a new consumer never perturbs the
//! draws seen by existing ones — a property plain sequential sharing of one
//! RNG does not have, and which keeps regression baselines stable.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, the standard
//! construction recommended by its authors. Implemented here directly (8
//! lines of core math) so the kernel stays dependency-free.

/// `√(2 (k+1) ln 2) · (1 + 1e-9)` for `k` in `0..64`: the table behind
/// [`DetRng::gaussian_bound`], built at compile time.
const GAUSSIAN_RADII: [f64; 64] = {
    let mut radii = [0.0; 64];
    let mut k = 0;
    while k < 64 {
        let x = (k + 1) as f64 * 2.0 * core::f64::consts::LN_2;
        // Newton's iteration for √x, from x itself (x > 1 lies above √x);
        // it settles within an ulp, far inside the margin.
        let mut y = x;
        let mut i = 0;
        while i < 64 {
            y = 0.5 * (y + x / y);
            i += 1;
        }
        radii[k] = y * (1.0 + 1e-9);
        k += 1;
    }
    radii
};

/// A deterministic pseudo-random stream (xoshiro256++).
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a stream from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro forbids the all-zero state; splitmix output of any seed
        // cannot be all zeros, but guard anyway.
        let mut rng = DetRng { s };
        if rng.s == [0; 4] {
            rng.s = [0x9E3779B97F4A7C15, 1, 2, 3];
        }
        rng
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// Forking hashes the parent state together with the label, so
    /// `fork("wifi")` and `fork("noise")` are decorrelated, and calling
    /// `fork` does not advance the parent stream.
    pub fn fork(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf29ce484222325; // FNV-1a offset basis
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        for &w in &self.s {
            h ^= w;
            h = h.wrapping_mul(0x100000001b3);
        }
        DetRng::seed_from_u64(h)
    }

    /// Derive an independent child stream identified by an index
    /// (e.g. per-subject streams in the virtual user study).
    pub fn fork_idx(&self, index: u64) -> DetRng {
        self.fork(&format!("#{index}"))
    }

    /// Next raw 64-bit value (xoshiro256++ step).
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

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's rejection method
    /// (unbiased). Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fill a byte slice with uniform random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Standard normal draw (Box–Muller; one value per call, the pair's
    /// second half is discarded for simplicity).
    pub fn next_gaussian(&mut self) -> f64 {
        let (u, v) = self.gaussian_uniforms();
        DetRng::box_muller(u, v)
    }

    /// The two uniforms one [`DetRng::next_gaussian`] draw consumes, in
    /// draw order: `u` in `[f64::MIN_POSITIVE, 1)` (nudged away from zero
    /// so `ln u` stays finite) and `v` in `[0, 1)`.
    #[inline]
    pub fn gaussian_uniforms(&mut self) -> (f64, f64) {
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        let v = self.next_f64();
        (u, v)
    }

    /// The Box–Muller transform of [`DetRng::gaussian_uniforms`]: a
    /// standard normal value.
    #[inline]
    pub fn box_muller(u: f64, v: f64) -> f64 {
        (-2.0 * u.ln()).sqrt() * (core::f64::consts::TAU * v).cos()
    }

    /// An upper bound on `|DetRng::box_muller(u, v)|` over every `v`,
    /// computed from the binary exponent of `u` alone, without `ln`.
    ///
    /// With `u` in `[2^-(k+1), 2^-k)`, `√(−2 ln u) ≤ √(2 (k+1) ln 2)` and
    /// `|cos| ≤ 1`. The bound is that radius for `k < 64`, raised by a
    /// relative margin of 1e-9, far above the few-ulp error of libm's
    /// `ln` and `sqrt`. Returns `None` for `u < 2^-64` (probability
    /// 2^-64 per draw) and for any `u` outside `(0, 1)`.
    #[inline]
    pub fn gaussian_bound(u: f64) -> Option<f64> {
        // u = 1.m × 2^(e − 1023) lies in [2^-(k+1), 2^-k) for k = 1022 − e.
        let k = 1022u64.checked_sub(u.to_bits() >> 52)?;
        GAUSSIAN_RADII.get(k as usize).copied()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn next_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.next_gaussian()
    }

    /// Poisson draw with mean `lambda`.
    ///
    /// Uses Knuth's product method for small `lambda` and a normal
    /// approximation above 64 (adequate for photon-counting with the
    /// photon fluxes the channel model produces).
    pub fn next_poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        if lambda == 0.0 {
            0
        } else if lambda < 64.0 {
            let limit = (-lambda).exp();
            let mut product = self.next_f64();
            let mut count = 0u64;
            while product > limit {
                count += 1;
                product *= self.next_f64();
            }
            count
        } else {
            let x = self.next_normal(lambda, lambda.sqrt()).round();
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let root = DetRng::seed_from_u64(42);
        let mut w1 = root.fork("wifi");
        let mut w2 = root.fork("wifi");
        let mut n = root.fork("noise");
        assert_eq!(w1.next_u64(), w2.next_u64(), "same label, same stream");
        assert_ne!(w1.next_u64(), n.next_u64(), "labels decorrelate");
        // Forking does not consume parent state.
        let mut r1 = DetRng::seed_from_u64(42);
        let mut r2 = DetRng::seed_from_u64(42);
        let _ = r2.fork("anything");
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = DetRng::seed_from_u64(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = DetRng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = DetRng::seed_from_u64(6);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn gaussian_moments() {
        let mut r = DetRng::seed_from_u64(8);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn gaussian_is_box_muller_of_its_uniforms() {
        let mut a = DetRng::seed_from_u64(8);
        let mut b = DetRng::seed_from_u64(8);
        for _ in 0..1000 {
            let (u, v) = b.gaussian_uniforms();
            assert_eq!(
                a.next_gaussian().to_bits(),
                DetRng::box_muller(u, v).to_bits()
            );
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gaussian_bound_covers_every_angle() {
        // The worst case of each exponent band is its lower edge
        // u = 2^-(k+1) at v = 0 (cos = 1); the bound must still hold.
        for k in 0..64 {
            let edge = f64::powi(2.0, -(k + 1));
            let r = DetRng::gaussian_bound(edge).expect("k < 64 is bounded");
            assert!(DetRng::box_muller(edge, 0.0).abs() <= r, "k={k}");
            assert!(DetRng::box_muller(edge, 0.5).abs() <= r, "k={k}");
        }
        let mut rng = DetRng::seed_from_u64(11);
        for _ in 0..100_000 {
            let (u, v) = rng.gaussian_uniforms();
            let r = DetRng::gaussian_bound(u).expect("non-zero 53-bit uniforms are at least 2^-53");
            assert!(DetRng::box_muller(u, v).abs() <= r, "u={u} v={v}");
        }
        // Below 2^-64, and outside (0, 1), there is no bound.
        assert_eq!(DetRng::gaussian_bound(f64::powi(2.0, -65)), None);
        assert_eq!(DetRng::gaussian_bound(f64::MIN_POSITIVE), None);
        assert_eq!(DetRng::gaussian_bound(0.0), None);
        assert_eq!(DetRng::gaussian_bound(1.0), None);
        assert_eq!(DetRng::gaussian_bound(-0.5), None);
        assert_eq!(DetRng::gaussian_bound(f64::NAN), None);
    }

    #[test]
    fn poisson_moments_small_lambda() {
        let mut r = DetRng::seed_from_u64(9);
        let lambda = 3.5;
        let n = 100_000;
        let xs: Vec<u64> = (0..n).map(|_| r.next_poisson(lambda)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean={mean}");
        assert!((var - lambda).abs() < 0.15, "var={var}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_approx() {
        let mut r = DetRng::seed_from_u64(10);
        let lambda = 10_000.0;
        let n = 10_000;
        let mean = (0..n).map(|_| r.next_poisson(lambda)).sum::<u64>() as f64 / n as f64;
        assert!((mean - lambda).abs() < 10.0, "mean={mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = DetRng::seed_from_u64(11);
        assert_eq!(r.next_poisson(0.0), 0);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = DetRng::seed_from_u64(12);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        // Deterministic.
        let mut r2 = DetRng::seed_from_u64(12);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }
}
