//! Identity of the warm-started Theorem 4.1 kernel.
//!
//! `rm::check_levels` may start a level's fixed point from the response
//! time an earlier check reported for a copy of the tasks with costs no
//! larger. Its doc comment proves that the result is the cold loop's, bit
//! for bit; these tests check it. For a set and a copy with costs at
//! least the original's, a warm start from the original's response times
//! must give the cold kernel's verdict, first failing level and per-level
//! response times, over the random, harmonic, boundary and tiny-ratio
//! generators of `certificate.rs`. A state from the costlier copy applied
//! to the original must be refused, and so must a start for any level
//! below a higher-priority cost smaller than the tolerance. A constructed
//! family puts the copy's first warm iterate within the tolerance of its
//! start but across a period multiple, where only the exact stop finds
//! the fixed point.
//!
//! The work tests pin what the warm start saves: at most two evaluations
//! on a level whose ceilings did not move, and the total of a serial
//! saturation bisection through `PdpAnalyzer::counted_probe`.
//!
//! CI runs this file in release mode too, where the kernel's own
//! `debug_assert` cross-checks are compiled out.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use common::{boundary_set, harmonic_set, random_set, tasks_for, tiny_ratio_set, Rng};
use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
use ringrt_core::rm::{self, CountedCheck, RmTask, WarmStart};
use ringrt_model::{FrameFormat, MessageSet, RingConfig};
use ringrt_units::{Bandwidth, Seconds};
use ringrt_workload::MessageSetGenerator;

/// Every level's response time, as the kernel reports it for that level
/// alone (`None` where the certificate decided or the level misses).
fn responses(tasks: &[RmTask], blocking: Seconds) -> Vec<Option<Seconds>> {
    let mut out = vec![None; tasks.len()];
    for i in 0..tasks.len() {
        let _ = rm::check_levels(tasks, blocking, i..i + 1, None, &mut out);
    }
    out
}

fn bits(response: &[Option<Seconds>]) -> Vec<Option<u64>> {
    response
        .iter()
        .map(|r| r.map(|r| r.as_secs_f64().to_bits()))
        .collect()
}

/// The kernel over `levels`, cold and from `warm`, with what each wrote.
fn both(
    tasks: &[RmTask],
    blocking: Seconds,
    levels: std::ops::Range<usize>,
    warm: WarmStart<'_>,
) -> [(CountedCheck, Vec<Option<u64>>); 2] {
    [None, Some(warm)].map(|warm| {
        let mut out = vec![None; tasks.len()];
        let check = rm::check_levels(tasks, blocking, levels.clone(), warm, &mut out);
        (check, bits(&out))
    })
}

/// A warm start from `warm` changes nothing on `tasks`, over the whole set
/// and level by level, and never costs more evaluations.
fn assert_warm_is_cold(tasks: &[RmTask], blocking: Seconds, warm: WarmStart<'_>) {
    let n = tasks.len();
    for levels in std::iter::once(0..n).chain((0..n).map(|i| i..i + 1)) {
        let [(cold, cold_out), (hot, hot_out)] = both(tasks, blocking, levels.clone(), warm);
        assert_eq!(
            (hot.schedulable, hot.failed_level, &hot_out),
            (cold.schedulable, cold.failed_level, &cold_out),
            "levels {levels:?}, blocking {blocking}, tasks {tasks:?}, warm {warm:?}"
        );
        assert!(hot.evaluations <= cold.evaluations, "levels {levels:?}");
    }
}

/// A copy of `tasks` with every cost, and the blocking term, raised by a
/// relative step from 0 to 0.3 on a log scale, or left equal.
fn costlier(rng: &mut Rng, tasks: &[RmTask], blocking: Seconds) -> (Vec<RmTask>, Seconds) {
    let mut raise = |x: Seconds| {
        if rng.chance(0.3) {
            x
        } else {
            x * (1.0 + 0.3 * rng.log_uniform(1e-15, 1.0))
        }
    };
    let copy = tasks
        .iter()
        .map(|t| RmTask {
            cost: raise(t.cost),
            ..*t
        })
        .collect();
    (copy, raise(blocking))
}

/// Both directions for one generated set: the costlier copy from the
/// original's response times, and the original from the copy's.
fn check_both_ways(rng: &mut Rng, (tasks, blocking): (Vec<RmTask>, Seconds)) {
    let (copy, copy_blocking) = costlier(rng, &tasks, blocking);
    let original = responses(&tasks, blocking);
    let raised = responses(&copy, copy_blocking);
    let from_original = WarmStart {
        tasks: &tasks,
        blocking,
        response: &original,
    };
    let from_copy = WarmStart {
        tasks: &copy,
        blocking: copy_blocking,
        response: &raised,
    };
    assert_warm_is_cold(&copy, copy_blocking, from_original);
    assert_warm_is_cold(&tasks, blocking, from_copy);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_sets_warm_start_exactly(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let set = random_set(&mut rng);
        check_both_ways(&mut rng, set);
    }

    #[test]
    fn harmonic_sets_warm_start_exactly(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let set = harmonic_set(&mut rng);
        check_both_ways(&mut rng, set);
    }

    #[test]
    fn boundary_sets_warm_start_exactly(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let set = boundary_set(&mut rng);
        check_both_ways(&mut rng, set);
    }

    #[test]
    fn tiny_period_ratios_warm_start_exactly(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let set = tiny_ratio_set(&mut rng);
        check_both_ways(&mut rng, set);
    }

    /// A top-priority stream whose cost is far below every level's
    /// tolerance: the cold loop may then stop short of the least fixed
    /// point, so every level below it runs cold, at the same cost.
    #[test]
    fn a_cost_below_the_tolerance_forces_the_cold_path(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (mut tasks, blocking) = random_set(&mut rng);
        let deadline = tasks[0].deadline * 0.5;
        tasks.insert(0, RmTask::with_deadline(deadline * 1e-13, deadline, deadline));
        let (copy, copy_blocking) = costlier(&mut rng, &tasks, blocking);
        let original = responses(&tasks, blocking);
        let warm = WarmStart { tasks: &tasks, blocking, response: &original };
        assert_warm_is_cold(&copy, copy_blocking, warm);
        for levels in std::iter::once(0..copy.len()).chain((0..copy.len()).map(|i| i..i + 1)) {
            let [(cold, _), (hot, _)] = both(&copy, copy_blocking, levels.clone(), warm);
            prop_assert_eq!(hot.evaluations, cold.evaluations, "levels {:?}", levels);
        }
    }

    /// One higher-priority task `(C_0, P_0)` and a level whose fixed point
    /// `L = C_1 + B + k·C_0` sits just inside the snap zone of `k·P_0`.
    /// Raising `C_1` by less than the level's tolerance carries the first
    /// warm iterate across it, so the true fixed point is a whole `C_0`
    /// higher: a loop that stopped within the tolerance of its start would
    /// return the iterate instead. Started the other way, from the raised
    /// copy's fixed point, the original must refuse the state.
    #[test]
    fn a_warm_iterate_across_a_period_multiple_is_not_a_fixed_point(
        k in 2u32..40,
        p0 in 1e-4f64..10.0,
        c0_share in 0.01f64..0.9,
        inside in 1e-3f64..0.9,
        b_share in 0.0f64..1.0,
    ) {
        let k = f64::from(k);
        let p1 = 100.0 * k * p0;
        let target = k * p0 * (1.0 + 1e-9 * (1.0 - inside));
        let c0 = c0_share * p0;
        let base = target - k * c0;
        let blocking = Seconds::new(base * b_share);
        let task = |c: f64, p: f64| RmTask::new(Seconds::new(c), Seconds::new(p));
        let tasks = vec![task(c0, p0), task(base - blocking.as_secs_f64(), p1)];
        let mut copy = tasks.clone();
        copy[1].cost += Seconds::new(2.0 * inside * 1e-9 * k * p0);
        let original = responses(&tasks, blocking);
        let raised = responses(&copy, blocking);
        let (l, l_raised) = (original[1].unwrap(), raised[1].unwrap());
        // The raised fixed point is past the next period multiple.
        prop_assert!(l_raised - l > Seconds::new(c0) * 0.5, "{} -> {}", l, l_raised);
        let from_original = WarmStart { tasks: &tasks, blocking, response: &original };
        let from_copy = WarmStart { tasks: &copy, blocking, response: &raised };
        assert_warm_is_cold(&copy, blocking, from_original);
        assert_warm_is_cold(&tasks, blocking, from_copy);
    }
}

/// `⌈t/p⌉` with the kernel's near-integer snap (`rm`'s unit tests pin the
/// crate helper to this expression).
fn snapped_ceil(t: Seconds, p: Seconds) -> f64 {
    let q = t / p;
    let n = q.round();
    let c = if (q - n).abs() <= 1e-9 * n.abs().max(1.0) {
        n
    } else {
        q.ceil()
    };
    if t > Seconds::ZERO {
        c.max(1.0)
    } else {
        c
    }
}

/// Periods within one decade and costs well above the tolerance, so the
/// kernel accepts a warm start at every level: a level whose
/// higher-priority ceilings are the same at the original's fixed point and
/// at the raised copy's costs at most two evaluations from the warm
/// start (one to absorb the raised costs, one to confirm).
#[test]
fn an_unmoved_ceiling_vector_costs_at_most_two_evaluations() {
    let mut checked = 0;
    for seed in 0..300 {
        let mut rng = Rng(seed);
        let n = 2 + rng.below(20);
        let p0 = rng.log_uniform(1e-3, 1.0);
        let periods: Vec<f64> = (0..n).map(|_| p0 * rng.uniform(1.0, 10.0)).collect();
        let u = rng.uniform(0.3, 0.95);
        let tasks = tasks_for(&mut rng, &periods, u, 0.0);
        let blocking = Seconds::new(rng.uniform(0.0, 0.1) * p0);
        let step = 1.0 + rng.log_uniform(1e-12, 1e-6);
        let copy: Vec<RmTask> = tasks
            .iter()
            .map(|t| RmTask {
                cost: t.cost * step,
                ..*t
            })
            .collect();
        let original = responses(&tasks, blocking);
        let raised = responses(&copy, blocking);
        let warm = WarmStart {
            tasks: &tasks,
            blocking,
            response: &original,
        };
        for i in 0..n {
            let (Some(v), Some(l)) = (original[i], raised[i]) else {
                continue;
            };
            let unmoved = tasks[..i]
                .iter()
                .all(|hp| snapped_ceil(v, hp.period) == snapped_ceil(l, hp.period));
            if !unmoved {
                continue;
            }
            let mut out = vec![None; n];
            let hot = rm::check_levels(&copy, blocking, i..i + 1, Some(warm), &mut out);
            assert!(hot.schedulable);
            assert!(
                hot.evaluations <= 2,
                "seed {seed}, level {i}: {} evaluations",
                hot.evaluations
            );
            checked += 1;
        }
    }
    assert!(checked > 500, "only {checked} levels exercised");
}

/// A serial bisection to the saturation boundary, the way
/// `SaturationSearch::saturate` probes (bracket by doubling or halving
/// from `α = 1`, then bisect to a relative width of 1e-4): every scale it
/// visits, in order.
fn bisection(probe: impl Fn(f64) -> bool) -> Vec<f64> {
    let mut visited = Vec::new();
    let mut at = |alpha: f64| {
        visited.push(alpha);
        probe(alpha)
    };
    let (mut lo, mut hi);
    if at(1.0) {
        lo = 1.0;
        hi = 2.0;
        while at(hi) {
            lo = hi;
            hi *= 2.0;
        }
    } else {
        hi = 1.0;
        lo = 0.5;
        while !at(lo) {
            hi = lo;
            lo /= 2.0;
        }
    }
    while (hi - lo) / lo > 1e-4 {
        let mid = 0.5 * (lo + hi);
        if at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    visited
}

/// The prepared probe's total work over one serial saturation bisection
/// of a seeded 50-station paper set at 10 Mbps, against cold full checks
/// of the same scaled sets. Both counts are pinned: a change to the warm
/// start, the failing-level hint or the certificate moves them.
#[test]
fn a_serial_bisection_costs_fewer_evaluations_warm() {
    let stations = 50;
    let set: MessageSet =
        MessageSetGenerator::paper_population(stations).generate(&mut StdRng::seed_from_u64(5));
    let a = PdpAnalyzer::new(
        RingConfig::ieee_802_5(stations, Bandwidth::from_mbps(10.0)),
        FrameFormat::paper_default(),
        PdpVariant::Modified,
    );
    let probe = a.counted_probe(&set);
    let warm = std::cell::Cell::new(0);
    let visited = bisection(|alpha| {
        let check = probe(alpha);
        warm.set(warm.get() + check.evaluations);
        check.schedulable
    });
    let cold: u64 = visited
        .iter()
        .map(|&alpha| {
            a.check_from_rank(&set.with_scaled_lengths(alpha), 0)
                .evaluations
        })
        .sum();
    let warm = warm.get();
    assert_eq!(visited.len(), 19, "probes");
    assert_eq!((warm, cold), (1_138, 2_074));
    assert!(warm < cold);
}
