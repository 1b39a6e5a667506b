//! Scaling a message set to the schedulability boundary.

use ringrt_core::SchedulabilityTest;
use ringrt_exec::Pool;
use ringrt_model::MessageSet;
use ringrt_units::Bandwidth;

/// Cap on concurrent probes per multisection round: beyond this the
/// bracket shrinks slower per evaluation than it costs to fan out.
const MAX_SECTIONS: usize = 8;

/// Binary search for the saturation boundary of a message set under a
/// schedulability test.
///
/// Schedulability is monotone in the common length factor `α` (every
/// criterion's demand side grows with message lengths), so the largest
/// schedulable `α*` is well defined; `α*·M` belongs to the paper's
/// *saturated schedulable class* up to the search tolerance.
///
/// # Examples
///
/// ```
/// use ringrt_core::ttp::TtpAnalyzer;
/// use ringrt_model::{MessageSet, RingConfig, SyncStream};
/// use ringrt_breakdown::SaturationSearch;
/// use ringrt_units::{Bandwidth, Bits, Seconds};
///
/// let ring = RingConfig::fddi(2, Bandwidth::from_mbps(100.0));
/// let analyzer = TtpAnalyzer::with_defaults(ring);
/// let set = MessageSet::new(vec![
///     SyncStream::new(Seconds::from_millis(20.0), Bits::new(10_000)),
///     SyncStream::new(Seconds::from_millis(50.0), Bits::new(10_000)),
/// ])?;
/// let sat = SaturationSearch::default()
///     .saturate(&analyzer, &set, ring.bandwidth())
///     .expect("some positive load is schedulable");
/// assert!(sat.utilization > 0.0 && sat.utilization <= 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationSearch {
    /// Relative width of the final `α` bracket; the reported utilization is
    /// accurate to roughly this relative error.
    pub tolerance: f64,
    /// Cap on bracket-expansion and bisection steps.
    pub max_iterations: u32,
}

impl Default for SaturationSearch {
    fn default() -> Self {
        SaturationSearch {
            tolerance: 1e-4,
            max_iterations: 200,
        }
    }
}

impl SaturationSearch {
    /// Creates a search with a custom relative tolerance.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tolerance < 1`.
    #[must_use]
    pub fn with_tolerance(tolerance: f64) -> Self {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance must be in (0, 1), got {tolerance}"
        );
        SaturationSearch {
            tolerance,
            ..SaturationSearch::default()
        }
    }

    /// Scales `set` to the schedulability boundary of `test`.
    ///
    /// Returns `None` when no positive scaling is schedulable (for example
    /// a timed-token configuration where some stream has `q_i < 2` at the
    /// negotiated TTRT, or a priority-driven configuration whose blocking
    /// term alone exceeds a period): such sets contribute no saturated
    /// sample and the estimator counts them separately.
    #[must_use]
    pub fn saturate<T: SchedulabilityTest + ?Sized>(
        &self,
        test: &T,
        set: &MessageSet,
        bandwidth: Bandwidth,
    ) -> Option<SaturatedSet> {
        // Establish a bracket [lo, hi] with schedulable(lo) ∧ ¬schedulable(hi).
        let schedulable_at = test.scaling_probe(set);

        let mut lo;
        let mut hi;
        if schedulable_at(1.0) {
            lo = 1.0;
            hi = 2.0;
            let mut steps = 0;
            while schedulable_at(hi) {
                lo = hi;
                hi *= 2.0;
                steps += 1;
                if steps > self.max_iterations {
                    // Pathological: the test accepts unbounded load.
                    return None;
                }
            }
        } else {
            hi = 1.0;
            lo = 0.5;
            let mut steps = 0;
            while !schedulable_at(lo) {
                hi = lo;
                lo /= 2.0;
                steps += 1;
                if steps > self.max_iterations || lo < 1e-12 {
                    return None;
                }
            }
        }

        // Bisect to the requested relative tolerance.
        let mut steps = 0;
        while (hi - lo) / lo > self.tolerance && steps < self.max_iterations {
            let mid = 0.5 * (lo + hi);
            if schedulable_at(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
            steps += 1;
        }

        let saturated = set.with_scaled_lengths(lo);
        let utilization = saturated.utilization(bandwidth);
        Some(SaturatedSet {
            set: saturated,
            scale: lo,
            utilization,
        })
    }

    /// Like [`SaturationSearch::saturate`], but fans the boundary probes
    /// across `pool`'s workers: each bracket-expansion and refinement
    /// round evaluates up to `min(pool.threads(), 8)` candidate scales
    /// concurrently (a multisection search — `p` probes shrink the
    /// bracket by `p + 1` per round instead of bisection's 2).
    ///
    /// The result honors the same contract as the serial search (returned
    /// scale schedulable, bracket within tolerance) and is deterministic
    /// for a fixed probe count; with a single-threaded pool it is
    /// **identical** to [`SaturationSearch::saturate`]. Probe counts
    /// differ in their final `α*` only within the search tolerance.
    #[must_use]
    pub fn saturate_with<T: SchedulabilityTest + ?Sized>(
        &self,
        test: &T,
        set: &MessageSet,
        bandwidth: Bandwidth,
        pool: &Pool,
    ) -> Option<SaturatedSet> {
        let probes = pool.threads().min(MAX_SECTIONS);
        if probes <= 1 {
            return self.saturate(test, set, bandwidth);
        }
        let schedulable_at = test.scaling_probe(set);
        let batch = |alphas: &[f64]| pool.map_slice(alphas, |&a| schedulable_at(a));

        // Establish a bracket [lo, hi] with schedulable(lo) ∧ ¬schedulable(hi),
        // probing a whole geometric ladder per round.
        let mut lo;
        let mut hi;
        if schedulable_at(1.0) {
            lo = 1.0;
            let mut rounds = 0;
            loop {
                let ladder: Vec<f64> = (1..=probes).map(|j| lo * 2f64.powi(j as i32)).collect();
                let verdicts = batch(&ladder);
                if let Some(j) = verdicts.iter().position(|ok| !ok) {
                    if j > 0 {
                        lo = ladder[j - 1];
                    }
                    hi = ladder[j];
                    break;
                }
                lo = *ladder.last().expect("probes >= 2");
                rounds += 1;
                if rounds > self.max_iterations {
                    // Pathological: the test accepts unbounded load.
                    return None;
                }
            }
        } else {
            hi = 1.0;
            let mut rounds = 0;
            loop {
                let ladder: Vec<f64> = (1..=probes).map(|j| hi * 0.5f64.powi(j as i32)).collect();
                let verdicts = batch(&ladder);
                if let Some(j) = verdicts.iter().position(|ok| *ok) {
                    lo = ladder[j];
                    if j > 0 {
                        hi = ladder[j - 1];
                    }
                    break;
                }
                hi = *ladder.last().expect("probes >= 2");
                rounds += 1;
                if rounds > self.max_iterations || hi < 1e-12 {
                    return None;
                }
            }
        }

        // Multisection refinement: p equispaced interior probes per round.
        let mut rounds = 0;
        while (hi - lo) / lo > self.tolerance && rounds < self.max_iterations {
            let step = (hi - lo) / (probes + 1) as f64;
            let xs: Vec<f64> = (1..=probes).map(|j| lo + step * j as f64).collect();
            let verdicts = batch(&xs);
            // Monotone in α: the largest schedulable probe raises lo, the
            // first unschedulable one lowers hi.
            match verdicts.iter().position(|ok| !ok) {
                Some(0) => hi = xs[0],
                Some(j) => {
                    lo = xs[j - 1];
                    hi = xs[j];
                }
                None => lo = *xs.last().expect("probes >= 2"),
            }
            rounds += 1;
        }

        let saturated = set.with_scaled_lengths(lo);
        let utilization = saturated.utilization(bandwidth);
        Some(SaturatedSet {
            set: saturated,
            scale: lo,
            utilization,
        })
    }
}

/// A message set scaled to the schedulability boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturatedSet {
    /// The scaled (saturated) message set.
    pub set: MessageSet,
    /// The boundary scale factor `α*` applied to the original lengths.
    pub scale: f64,
    /// The saturated set's utilization — one breakdown-utilization sample.
    pub utilization: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
    use ringrt_core::ttp::TtpAnalyzer;
    use ringrt_model::{FrameFormat, RingConfig, SyncStream};
    use ringrt_units::{Bits, Seconds};

    fn base_set() -> MessageSet {
        MessageSet::new(vec![
            SyncStream::new(Seconds::from_millis(20.0), Bits::new(10_000)),
            SyncStream::new(Seconds::from_millis(60.0), Bits::new(30_000)),
            SyncStream::new(Seconds::from_millis(150.0), Bits::new(60_000)),
        ])
        .unwrap()
    }

    #[test]
    fn saturated_set_is_on_the_boundary_ttp() {
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let sat = SaturationSearch::default()
            .saturate(&a, &base_set(), ring.bandwidth())
            .unwrap();
        use ringrt_core::SchedulabilityTest;
        assert!(a.is_schedulable(&sat.set));
        // Slightly above the boundary must fail.
        let above = sat.set.with_scaled_lengths(1.0 + 10.0 * 1e-4);
        assert!(!a.is_schedulable(&above));
        assert!(sat.utilization > 0.0 && sat.utilization <= 1.0);
    }

    #[test]
    fn saturated_set_is_on_the_boundary_pdp() {
        let ring = RingConfig::ieee_802_5(3, Bandwidth::from_mbps(4.0));
        let a = PdpAnalyzer::new(ring, FrameFormat::paper_default(), PdpVariant::Modified);
        let sat = SaturationSearch::default()
            .saturate(&a, &base_set(), ring.bandwidth())
            .unwrap();
        use ringrt_core::SchedulabilityTest;
        assert!(a.is_schedulable(&sat.set));
        let above = sat.set.with_scaled_lengths(1.0 + 10.0 * 1e-4);
        assert!(!a.is_schedulable(&above));
    }

    #[test]
    fn starts_from_unschedulable_sets_too() {
        // Grossly overloaded initial set: the search must scale down.
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let heavy = base_set().with_scaled_lengths(1_000.0);
        let sat = SaturationSearch::default()
            .saturate(&a, &heavy, ring.bandwidth())
            .unwrap();
        assert!(sat.scale < 1.0);
        assert!(sat.utilization > 0.0 && sat.utilization <= 1.0);
    }

    #[test]
    fn impossible_configuration_returns_none() {
        // Force q < 2 with a fixed, over-long TTRT: no scaling helps.
        use ringrt_core::ttp::TtrtPolicy;
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring)
            .with_ttrt_policy(TtrtPolicy::Fixed(Seconds::from_millis(500.0)));
        assert!(SaturationSearch::default()
            .saturate(&a, &base_set(), ring.bandwidth())
            .is_none());
    }

    #[test]
    fn tolerance_shrinks_bracket() {
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let coarse = SaturationSearch::with_tolerance(0.05)
            .saturate(&a, &base_set(), ring.bandwidth())
            .unwrap();
        let fine = SaturationSearch::with_tolerance(1e-6)
            .saturate(&a, &base_set(), ring.bandwidth())
            .unwrap();
        // Both land near the same boundary; the fine one from below.
        assert!((coarse.scale - fine.scale).abs() / fine.scale < 0.06);
        assert!(fine.scale <= coarse.scale * (1.0 + 0.05));
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn bad_tolerance_rejected() {
        let _ = SaturationSearch::with_tolerance(0.0);
    }

    #[test]
    fn pooled_search_agrees_with_serial_within_tolerance() {
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let search = SaturationSearch::default();
        let serial = search.saturate(&a, &base_set(), ring.bandwidth()).unwrap();
        for threads in [2, 4, 8] {
            let pool = Pool::new(threads);
            let par = search
                .saturate_with(&a, &base_set(), ring.bandwidth(), &pool)
                .unwrap();
            use ringrt_core::SchedulabilityTest;
            assert!(a.is_schedulable(&par.set));
            let above = par.set.with_scaled_lengths(1.0 + 10.0 * search.tolerance);
            assert!(!a.is_schedulable(&above));
            let rel = (par.scale - serial.scale).abs() / serial.scale;
            assert!(
                rel <= 2.0 * search.tolerance,
                "threads={threads}: scale {par} vs serial {serial} (rel {rel})",
                par = par.scale,
                serial = serial.scale,
            );
        }
    }

    #[test]
    fn pooled_search_scales_down_overloaded_sets() {
        let ring = RingConfig::ieee_802_5(3, Bandwidth::from_mbps(4.0));
        let a = PdpAnalyzer::new(ring, FrameFormat::paper_default(), PdpVariant::Modified);
        let heavy = base_set().with_scaled_lengths(1_000.0);
        let pool = Pool::new(4);
        let serial = SaturationSearch::default()
            .saturate(&a, &heavy, ring.bandwidth())
            .unwrap();
        let par = SaturationSearch::default()
            .saturate_with(&a, &heavy, ring.bandwidth(), &pool)
            .unwrap();
        assert!(par.scale < 1.0);
        let rel = (par.scale - serial.scale).abs() / serial.scale;
        assert!(rel <= 2.0 * SaturationSearch::default().tolerance);
    }

    #[test]
    fn serial_pool_delegates_exactly() {
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring);
        let search = SaturationSearch::default();
        let serial = search.saturate(&a, &base_set(), ring.bandwidth()).unwrap();
        let pooled = search
            .saturate_with(&a, &base_set(), ring.bandwidth(), &Pool::serial())
            .unwrap();
        assert_eq!(serial, pooled);
    }

    #[test]
    fn pooled_search_returns_none_for_impossible_configuration() {
        use ringrt_core::ttp::TtrtPolicy;
        let ring = RingConfig::fddi(3, Bandwidth::from_mbps(100.0));
        let a = TtpAnalyzer::with_defaults(ring)
            .with_ttrt_policy(TtrtPolicy::Fixed(Seconds::from_millis(500.0)));
        let pool = Pool::new(4);
        assert!(SaturationSearch::default()
            .saturate_with(&a, &base_set(), ring.bandwidth(), &pool)
            .is_none());
    }
}
