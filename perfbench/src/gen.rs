//! Seeded input generation shared by the workloads. The benchmark owns
//! its generator (SplitMix64) so a later change to the library's
//! workload helpers cannot silently change what the benchmark offers.

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// `n` uniforms in [0, 1), one from each stratum `[k/n, (k+1)/n)`,
    /// in seeded random order: every value is a fair uniform draw, but
    /// their sum barely moves from seed to seed, so totals a workload is
    /// sized by (bytes, work) stay steady across seeds.
    pub fn strata(&mut self, n: usize) -> Vec<f64> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i as u64 + 1) as usize);
        }
        order
            .into_iter()
            .map(|k| (k as f64 + self.unit()) / n as f64)
            .collect()
    }

    /// `n` arrival instants spread uniformly at random over
    /// `[0, horizon_us)`, sorted: a Poisson process conditioned on its
    /// count, so the offered rate is exact and the horizon fixed.
    pub fn arrivals(&mut self, n: usize, horizon_us: f64) -> Vec<u64> {
        let mut t: Vec<u64> = (0..n).map(|_| (self.unit() * horizon_us) as u64).collect();
        t.sort_unstable();
        t
    }
}

/// A heavy-tailed length in `[min, max]` from uniform `u` (fourth power:
/// mostly near `min`, a long tail toward `max`), rounded down to a whole
/// number of `align`-byte tokens, at least one.
pub fn heavy_tailed(u: f64, min: usize, max: usize, align: usize) -> usize {
    let raw = min + ((max - min) as f64 * u.powi(4)) as usize;
    (raw / align).max(1) * align
}

/// FNV-1a, folded over byte slices: the determinism fingerprint.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, x: u64) -> Fnv {
        self.bytes(&x.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
