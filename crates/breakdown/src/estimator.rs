//! The Monte-Carlo average-breakdown-utilization estimator.

use core::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ringrt_core::SchedulabilityTest;
use ringrt_exec::Pool;
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

use crate::{SampleStats, SaturationSearch};

/// Estimates a protocol's average breakdown utilization over a message-set
/// population (paper §6.1).
///
/// Each sample draws a random set, scales it to its saturation boundary,
/// and records the boundary utilization; the estimate is the sample mean
/// with a 95 % confidence interval.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use ringrt_breakdown::BreakdownEstimator;
/// use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
/// use ringrt_model::{FrameFormat, RingConfig};
/// use ringrt_units::Bandwidth;
/// use ringrt_workload::MessageSetGenerator;
///
/// let ring = RingConfig::ieee_802_5(10, Bandwidth::from_mbps(4.0));
/// let analyzer = PdpAnalyzer::new(ring, FrameFormat::paper_default(), PdpVariant::Modified);
/// let est = BreakdownEstimator::new(MessageSetGenerator::paper_population(10), 15)
///     .estimate(&analyzer, ring.bandwidth(), &mut rand::rngs::StdRng::seed_from_u64(1));
/// assert!(est.mean > 0.0 && est.mean < 1.0);
/// assert_eq!(est.stats.count(), 15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownEstimator {
    generator: MessageSetGenerator,
    samples: usize,
    search: SaturationSearch,
}

impl BreakdownEstimator {
    /// Creates an estimator taking `samples` Monte-Carlo samples from
    /// `generator` with the default saturation-search tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    #[must_use]
    pub fn new(generator: MessageSetGenerator, samples: usize) -> Self {
        assert!(samples > 0, "need at least one Monte-Carlo sample");
        BreakdownEstimator {
            generator,
            samples,
            search: SaturationSearch::default(),
        }
    }

    /// Returns a copy with a custom saturation search.
    #[must_use]
    pub fn with_search(mut self, search: SaturationSearch) -> Self {
        self.search = search;
        self
    }

    /// The number of Monte-Carlo samples per estimate.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The underlying population generator.
    #[must_use]
    pub fn generator(&self) -> &MessageSetGenerator {
        &self.generator
    }

    /// The canonical per-sample seed stream: one word drawn from the
    /// master RNG per sample, decorrelated through the SplitMix64
    /// finalizer. Both the serial and the parallel estimation paths
    /// consume **exactly** this stream, which is what makes them
    /// bit-identical.
    fn sample_seeds<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u64> {
        (0..self.samples)
            .map(|_| ringrt_exec::splitmix64(rng.next_u64()))
            .collect()
    }

    /// Draws and saturates sample `k`: its own RNG stream from `seed`,
    /// returning `(breakdown utilization, infeasible?)`.
    fn run_sample<T>(&self, test: &T, bandwidth: Bandwidth, seed: u64) -> (f64, bool)
    where
        T: SchedulabilityTest + ?Sized,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let set = self.generator.generate(&mut rng);
        match self.search.saturate(test, &set, bandwidth) {
            Some(sat) => (sat.utilization, false),
            None => (0.0, true),
        }
    }

    /// Folds per-sample results (in sample order) into the estimate.
    fn merge<T>(&self, test: &T, samples: &[(f64, bool)]) -> BreakdownEstimate
    where
        T: SchedulabilityTest + ?Sized,
    {
        let mut stats = SampleStats::new();
        let mut infeasible = 0usize;
        for &(u, inf) in samples {
            stats.push(u);
            if inf {
                infeasible += 1;
            }
        }
        BreakdownEstimate {
            protocol: test.protocol_name(),
            mean: stats.mean(),
            ci95: stats.ci95_half_width(),
            infeasible_sets: infeasible,
            stats,
        }
    }

    /// Runs the estimation for one protocol configuration.
    ///
    /// `bandwidth` is used to express sampled boundary utilizations (it
    /// should match the analyzer's ring bandwidth). Sets for which no
    /// positive load is schedulable contribute a **zero** utilization
    /// sample — the protocol genuinely cannot guarantee that population
    /// member — and are additionally counted in
    /// [`BreakdownEstimate::infeasible_sets`].
    ///
    /// Sample `k` runs on its own RNG stream seeded from the `k`-th word
    /// of `rng` (SplitMix64-mixed), so
    /// `estimate(&mut StdRng::seed_from_u64(s))` is **bit-identical** to
    /// [`BreakdownEstimator::estimate_parallel`] with master seed `s` at
    /// any thread count.
    pub fn estimate<T, R>(&self, test: &T, bandwidth: Bandwidth, rng: &mut R) -> BreakdownEstimate
    where
        T: SchedulabilityTest + ?Sized,
        R: Rng + ?Sized,
    {
        let seeds = self.sample_seeds(rng);
        let samples: Vec<(f64, bool)> = seeds
            .iter()
            .map(|&s| self.run_sample(test, bandwidth, s))
            .collect();
        self.merge(test, &samples)
    }

    /// Like [`BreakdownEstimator::estimate`], but scatters the samples
    /// across `pool`'s worker threads.
    ///
    /// **Bit-identical to the serial path at any thread count**: the
    /// per-sample seeds are the same SplitMix64-mixed stream a serial
    /// `estimate(&mut StdRng::seed_from_u64(seed))` consumes, and the
    /// pool returns sample results in index order, so the mean, CI, and
    /// full sample statistics match byte for byte no matter how the
    /// samples interleave across workers.
    pub fn estimate_parallel<T: SchedulabilityTest + ?Sized>(
        &self,
        test: &T,
        bandwidth: Bandwidth,
        seed: u64,
        pool: &Pool,
    ) -> BreakdownEstimate {
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds = self.sample_seeds(&mut rng);
        let samples = pool.map(self.samples, |k| self.run_sample(test, bandwidth, seeds[k]));
        self.merge(test, &samples)
    }
}

/// The result of one average-breakdown-utilization estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownEstimate {
    /// Name of the protocol configuration that was estimated.
    pub protocol: &'static str,
    /// Estimated average breakdown utilization.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval.
    pub ci95: f64,
    /// Number of sampled sets for which no positive load was schedulable
    /// (each contributed a zero sample).
    pub infeasible_sets: usize,
    /// Full sample statistics (count, variance, extremes).
    pub stats: SampleStats,
}

impl fmt::Display for BreakdownEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: ABU = {:.4} ± {:.4} ({} samples",
            self.protocol,
            self.mean,
            self.ci95,
            self.stats.count()
        )?;
        if self.infeasible_sets > 0 {
            write!(f, ", {} infeasible", self.infeasible_sets)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
    use ringrt_core::ttp::{TtpAnalyzer, TtrtPolicy};
    use ringrt_model::{FrameFormat, RingConfig};
    use ringrt_units::Seconds;

    fn quick_estimator(n: usize) -> BreakdownEstimator {
        BreakdownEstimator::new(MessageSetGenerator::paper_population(n), 8)
            .with_search(SaturationSearch::with_tolerance(1e-3))
    }

    #[test]
    fn ttp_estimate_in_sane_band_at_100mbps() {
        let ring = RingConfig::fddi(20, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let est = quick_estimator(20).estimate(&a, ring.bandwidth(), &mut StdRng::seed_from_u64(2));
        assert!(est.mean > 0.4 && est.mean < 1.0, "ABU {est}");
        assert_eq!(est.infeasible_sets, 0);
        assert_eq!(est.protocol, "FDDI");
    }

    #[test]
    fn pdp_estimate_in_sane_band_at_4mbps() {
        let ring = RingConfig::ieee_802_5(20, Bandwidth::from_mbps(4.0));
        let a = PdpAnalyzer::new(ring, FrameFormat::paper_default(), PdpVariant::Modified);
        let est = quick_estimator(20).estimate(&a, ring.bandwidth(), &mut StdRng::seed_from_u64(3));
        assert!(est.mean > 0.2 && est.mean < 1.0, "ABU {est}");
    }

    #[test]
    fn reproducible_with_same_seed() {
        let ring = RingConfig::fddi(10, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let e = quick_estimator(10);
        let x = e.estimate(&a, ring.bandwidth(), &mut StdRng::seed_from_u64(7));
        let y = e.estimate(&a, ring.bandwidth(), &mut StdRng::seed_from_u64(7));
        assert_eq!(x, y);
    }

    #[test]
    fn infeasible_population_scores_zero() {
        // A TTRT fixed way above P_min/2 makes every set infeasible.
        let ring = RingConfig::fddi(10, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring)
            .with_ttrt_policy(TtrtPolicy::Fixed(Seconds::from_millis(500.0)));
        let est = quick_estimator(10).estimate(&a, ring.bandwidth(), &mut StdRng::seed_from_u64(9));
        assert_eq!(est.infeasible_sets, 8);
        assert_eq!(est.mean, 0.0);
        assert!(est.to_string().contains("infeasible"));
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        let ring = RingConfig::fddi(10, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let e = BreakdownEstimator::new(MessageSetGenerator::paper_population(10), 9)
            .with_search(SaturationSearch::with_tolerance(1e-3));
        let one = e.estimate_parallel(&a, ring.bandwidth(), 42, &Pool::serial());
        let four = e.estimate_parallel(&a, ring.bandwidth(), 42, &Pool::new(4));
        let many = e.estimate_parallel(&a, ring.bandwidth(), 42, &Pool::new(16));
        assert_eq!(one.stats.count(), 9);
        assert_eq!(one, four);
        assert_eq!(one, many);
        // A different seed gives a different (but valid) estimate.
        let other = e.estimate_parallel(&a, ring.bandwidth(), 43, &Pool::new(4));
        assert_ne!(one.mean, other.mean);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_estimate() {
        let ring = RingConfig::fddi(10, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let e = BreakdownEstimator::new(MessageSetGenerator::paper_population(10), 16)
            .with_search(SaturationSearch::with_tolerance(1e-3));
        let seq = e.estimate(&a, ring.bandwidth(), &mut StdRng::seed_from_u64(7));
        let par = e.estimate_parallel(&a, ring.bandwidth(), 7, &Pool::new(4));
        // Same canonical seed stream, merged in sample order: byte-equal.
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_samples_rejected() {
        let _ = BreakdownEstimator::new(MessageSetGenerator::paper_population(5), 0);
    }

    #[test]
    fn accessors() {
        let e = quick_estimator(5);
        assert_eq!(e.samples(), 8);
        assert_eq!(e.generator().stations(), 5);
    }
}
