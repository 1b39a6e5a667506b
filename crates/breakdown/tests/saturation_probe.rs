//! The prepared Theorem 4.1 probe leaves every saturation search result
//! unchanged.
//!
//! Both searches probe a set through `SchedulabilityTest::scaling_probe`.
//! `PdpAnalyzer` overrides it with a prepared probe whose failing-level
//! hint is shared by the pool workers of a multisection round. Wrapping
//! the analyzer in a test that keeps only `is_schedulable` restores the
//! unprepared definition; the saturated sets, and the whole breakdown
//! estimate, must match it exactly at pool widths 1, 2 and 4.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ringrt_breakdown::{BreakdownEstimator, SaturationSearch};
use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
use ringrt_core::SchedulabilityTest;
use ringrt_exec::Pool;
use ringrt_model::{FrameFormat, MessageSet, RingConfig};
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

/// The analyzer with the trait's default `scaling_probe`.
struct Unprepared<'a>(&'a PdpAnalyzer);

impl SchedulabilityTest for Unprepared<'_> {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        self.0.is_schedulable(set)
    }

    fn protocol_name(&self) -> &'static str {
        self.0.protocol_name()
    }
}

fn analyzer(stations: usize, mbps: f64, modified: bool) -> PdpAnalyzer {
    PdpAnalyzer::new(
        RingConfig::ieee_802_5(stations, Bandwidth::from_mbps(mbps)),
        FrameFormat::paper_default(),
        if modified {
            PdpVariant::Modified
        } else {
            PdpVariant::Standard
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn saturate_with_is_unchanged_at_every_width(
        seed in any::<u64>(),
        stations in 2usize..60,
        mbps_ix in 0usize..4,
        modified in any::<bool>(),
        overload in any::<bool>(),
    ) {
        let mbps = [1.0, 10.0, 100.0, 1000.0][mbps_ix];
        let a = analyzer(stations, mbps, modified);
        let mut set = MessageSetGenerator::paper_population(stations)
            .generate(&mut StdRng::seed_from_u64(seed));
        if overload {
            // Start far above the boundary so the search scales down.
            set = set.with_scaled_lengths(50.0);
        }
        let bw = Bandwidth::from_mbps(mbps);
        let search = SaturationSearch::default();
        prop_assert_eq!(
            search.saturate(&a, &set, bw),
            search.saturate(&Unprepared(&a), &set, bw)
        );
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            prop_assert_eq!(
                search.saturate_with(&a, &set, bw, &pool),
                search.saturate_with(&Unprepared(&a), &set, bw, &pool),
                "threads {}", threads
            );
        }
    }
}

#[test]
fn abu_estimate_is_unchanged_at_every_width() {
    let stations = 30;
    let estimator = BreakdownEstimator::new(MessageSetGenerator::paper_population(stations), 6);
    for mbps in [1.0, 100.0] {
        let a = analyzer(stations, mbps, true);
        let bw = Bandwidth::from_mbps(mbps);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            assert_eq!(
                estimator.estimate_parallel(&a, bw, 5, &pool),
                estimator.estimate_parallel(&Unprepared(&a), bw, 5, &pool),
                "{mbps} Mbps, threads {threads}"
            );
        }
    }
}
