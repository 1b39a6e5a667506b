//! Identity of the prepared Theorem 4.1 saturation probe.
//!
//! `PdpAnalyzer::scaling_probe` builds the deadline-monotonic order once
//! per set, tests the level that failed the latest probe first, starts
//! each fixed point from the response times of the largest passing scale
//! below, and runs the demand loop without libm. None of that may change
//! a verdict: for every `α`, `probe(α)` must equal
//! `is_schedulable(&set.with_scaled_lengths(α))`. These properties check
//! it on paper-population sets at 1/10/100/1000 Mbps, both PDP variants,
//! quantized and unquantized, on a grid of scales around each set's
//! boundary, visited in random order after a probe at a different scale
//! has left its failing level behind, and along the descending-then-
//! ascending schedule of a search whose first probe fails. Threads race
//! passing probes at different scales to update the shared warm state,
//! and a state from a larger scale is never used. (The libm-free rounding
//! helper and the near-integer snap are pinned by `rm`'s unit tests; the
//! warm-start kernel by `warm_start.rs`.)
//!
//! CI runs this file in release mode too, where the probe's and the
//! kernel's `debug_assert` cross-checks are compiled out.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
use ringrt_core::SchedulabilityTest;
use ringrt_model::{FrameFormat, MessageSet, RingConfig};
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

fn analyzer(stations: usize, mbps: f64, modified: bool, quantized: bool) -> PdpAnalyzer {
    let variant = if modified {
        PdpVariant::Modified
    } else {
        PdpVariant::Standard
    };
    let a = PdpAnalyzer::new(
        RingConfig::ieee_802_5(stations, Bandwidth::from_mbps(mbps)),
        FrameFormat::paper_default(),
        variant,
    );
    if quantized {
        a.with_priority_levels(8)
    } else {
        a
    }
}

/// The definition the probe must reproduce.
fn plain(a: &PdpAnalyzer, set: &MessageSet, alpha: f64) -> bool {
    a.is_schedulable(&set.with_scaled_lengths(alpha))
}

/// A scale near the schedulability boundary, by log-space bisection of
/// the plain test over `[1e-6, 1e3]`.
fn boundary(a: &PdpAnalyzer, set: &MessageSet) -> f64 {
    let (mut lo, mut hi) = (1e-6f64, 1e3f64);
    if !plain(a, set, lo) {
        return lo;
    }
    if plain(a, set, hi) {
        return hi;
    }
    for _ in 0..40 {
        let mid = (lo * hi).sqrt();
        if plain(a, set, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Scales on both sides of `b` at three resolutions, plus far-off ones,
/// in an order drawn from `order_seed`.
fn grid(b: f64, order_seed: u64) -> Vec<f64> {
    let mut alphas = vec![b, b / 8.0, b * 8.0];
    for step in [1e-2, 1e-4, 1e-6] {
        for k in -3i32..=3 {
            alphas.push(b * (1.0 + step * f64::from(k)));
        }
    }
    // Fisher–Yates with SplitMix64 steps.
    let mut state = order_seed;
    for i in (1..alphas.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        alphas.swap(i, (z % (i as u64 + 1)) as usize);
    }
    alphas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prepared_probe_matches_is_schedulable(
        seed in any::<u64>(),
        stations_ix in 0usize..4,
        mbps_ix in 0usize..4,
        modified in any::<bool>(),
        quantized in any::<bool>(),
        order_seed in any::<u64>(),
    ) {
        let stations = [3usize, 10, 50, 100][stations_ix];
        let mbps = [1.0, 10.0, 100.0, 1000.0][mbps_ix];
        let set = MessageSetGenerator::paper_population(stations)
            .generate(&mut StdRng::seed_from_u64(seed));
        let a = analyzer(stations, mbps, modified, quantized);
        let b = boundary(&a, &set);
        let probe = a.scaling_probe(&set);
        // Leave a failing level behind from a scale well past the boundary.
        prop_assert_eq!(probe(b * 4.0), plain(&a, &set, b * 4.0));
        for alpha in grid(b, order_seed) {
            prop_assert_eq!(
                probe(alpha),
                plain(&a, &set, alpha),
                "alpha {} (boundary {}), {} stations at {} Mbps",
                alpha, b, stations, mbps
            );
        }
    }
}

/// The scales a search visits when its first probe, `b·2^m`, fails: halve
/// until a scale passes, then bisect upward for `steps` rounds.
fn descend_then_bisect(probe: impl Fn(f64) -> bool, b: f64, m: i32, steps: usize) -> Vec<f64> {
    let mut visited = Vec::new();
    let mut at = |alpha: f64| {
        visited.push(alpha);
        probe(alpha)
    };
    let mut hi = b * 2f64.powi(m);
    let mut lo = hi;
    while !at(lo) && lo > 1e-9 {
        hi = lo;
        lo /= 2.0;
    }
    for _ in 0..steps {
        let mid = 0.5 * (lo + hi);
        if at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    visited
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn descending_then_ascending_schedules_match_is_schedulable(
        seed in any::<u64>(),
        stations_ix in 0usize..4,
        mbps_ix in 0usize..4,
        modified in any::<bool>(),
        m in 1i32..5,
    ) {
        let stations = [3usize, 10, 50, 100][stations_ix];
        let mbps = [1.0, 10.0, 100.0, 1000.0][mbps_ix];
        let set = MessageSetGenerator::paper_population(stations)
            .generate(&mut StdRng::seed_from_u64(seed));
        let a = analyzer(stations, mbps, modified, false);
        let b = boundary(&a, &set);
        let probe = a.scaling_probe(&set);
        let visited = descend_then_bisect(|alpha| {
            let got = probe(alpha);
            assert_eq!(got, plain(&a, &set, alpha), "alpha {alpha} (boundary {b})");
            got
        }, b, m, 30);
        prop_assert!(visited.len() > 30);
    }
}

/// A passing probe at `b` leaves a warm state; a probe just below `b`
/// must not use it (the costs there may be smaller), so it does exactly
/// the work of a fresh probe.
#[test]
fn a_state_from_a_larger_scale_is_not_used() {
    for (stations, mbps, seed) in [(50, 100.0, 3), (50, 10.0, 4), (100, 1000.0, 5)] {
        let set = MessageSetGenerator::paper_population(stations)
            .generate(&mut StdRng::seed_from_u64(seed));
        let a = analyzer(stations, mbps, true, false);
        let b = boundary(&a, &set);
        let below = b * (1.0 - 1e-12);
        let used = a.counted_probe(&set);
        assert!(used(b).schedulable);
        let fresh = a.counted_probe(&set);
        assert_eq!(
            used(below),
            fresh(below),
            "{stations} stations at {mbps} Mbps"
        );
    }
}

#[test]
fn one_probe_serves_concurrent_threads() {
    let stations = 50;
    let set =
        MessageSetGenerator::paper_population(stations).generate(&mut StdRng::seed_from_u64(7));
    let a = analyzer(stations, 100.0, true, false);
    let b = boundary(&a, &set);
    let alphas = grid(b, 11);
    let want: Vec<bool> = alphas.iter().map(|&x| plain(&a, &set, x)).collect();
    let probe = a.scaling_probe(&set);
    std::thread::scope(|scope| {
        for offset in 0..4 {
            let (probe, alphas, want) = (&probe, &alphas, &want);
            scope.spawn(move || {
                for k in 0..alphas.len() {
                    let i = (k + offset * 5) % alphas.len();
                    assert_eq!(probe(alphas[i]), want[i], "alpha {}", alphas[i]);
                }
            });
        }
    });
}

/// Four threads race passing probes at different scales below the
/// boundary, each storing its state if it is the largest so far. Verdicts
/// stay the definition's, and the state left behind is the largest
/// scale's: a probe there starts every level at its own fixed point, one
/// evaluation per level.
#[test]
fn passing_probes_race_to_update_the_shared_state() {
    let stations = 50;
    let set =
        MessageSetGenerator::paper_population(stations).generate(&mut StdRng::seed_from_u64(9));
    let a = analyzer(stations, 10.0, true, false);
    let b = boundary(&a, &set);
    let alphas: Vec<f64> = (0..40).map(|k| b * (1.0 - 1e-3 * f64::from(k))).collect();
    let probe = a.counted_probe(&set);
    std::thread::scope(|scope| {
        for offset in 0..4 {
            let (probe, alphas, a, set) = (&probe, &alphas, &a, &set);
            scope.spawn(move || {
                for k in 0..alphas.len() {
                    let alpha = alphas[(alphas.len() - 1 - k + offset * 7) % alphas.len()];
                    let check = probe(alpha);
                    assert!(check.schedulable, "alpha {alpha}");
                    assert_eq!(check.schedulable, plain(a, set, alpha));
                }
            });
        }
    });
    let top = probe(b);
    assert!(top.schedulable);
    assert_eq!(top.evaluations, stations as u64);
}
