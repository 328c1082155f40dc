//! Random distributions used by the corpus generator.
//!
//! Only the two distributions the generator actually needs are implemented —
//! a [`Zipf`] law over term ranks (term popularity in natural-language text)
//! and a [`LogNormal`] for document lengths — keeping the dependency set to
//! the plain `rand` crate.

use rand::Rng;

/// A Zipf distribution over ranks `1..=n`: `P(r) ∝ 1 / r^s`.
///
/// Sampling uses a precomputed cumulative table and binary search, which is
/// exact, `O(log n)` per sample and fast to build even for the ~182k-term
/// vocabularies used by the default corpus configuration.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point round-off leaving the last entry
        // fractionally below 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n` (0-based: rank 0 is the most popular item).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A log-normal distribution with ln-scale parameters `mu` and `sigma`.
///
/// Samples are generated with the Box–Muller transform over the crate-provided
/// uniform generator.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite(),
            "parameters must be finite"
        );
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { mu, sigma }
    }

    /// Samples one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// The distribution's median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The distribution's mean, `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// One standard-normal variate via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples one exponential variate with the given rate (events per unit time).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The probability mass `z`'s sampler gives 0-based rank `r`.
    fn pmf(z: &Zipf, r: usize) -> f64 {
        match r {
            _ if r >= z.cdf.len() => 0.0,
            0 => z.cdf[0],
            _ => z.cdf[r] - z.cdf[r - 1],
        }
    }

    #[test]
    fn zipf_rank_zero_is_most_probable() {
        let z = Zipf::new(1000, 1.0);
        assert!(pmf(&z, 0) > pmf(&z, 1));
        assert!(pmf(&z, 1) > pmf(&z, 100));
        assert!(pmf(&z, 2000) == 0.0);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(500, 1.2);
        let total: f64 = (0..z.len()).map(|r| pmf(&z, r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_follow_the_skew() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate rank 10 which must dominate rank 90.
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Top rank should hold roughly 1/H(100) ≈ 19% of the mass.
        let share = counts[0] as f64 / 20_000.0;
        assert!(share > 0.12 && share < 0.30, "share = {share}");
    }

    #[test]
    fn zipf_with_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((pmf(&z, r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let z = Zipf::new(10, 2.0);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    #[should_panic(expected = "support must be non-empty")]
    fn zipf_rejects_empty_support() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn lognormal_moments_are_close_to_theory() {
        let d = LogNormal::new(5.5, 0.75);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        let theory = d.mean();
        assert!(
            (mean - theory).abs() / theory < 0.05,
            "empirical mean {mean} vs theoretical {theory}"
        );
        assert!((d.median() - 5.5f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn lognormal_samples_are_positive() {
        let d = LogNormal::new(0.0, 1.0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SmallRng::seed_from_u64(11);
        let rate = 200.0;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() / (1.0 / rate) < 0.05,
            "mean inter-arrival {mean}"
        );
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = exponential(&mut rng, 0.0);
    }
}
