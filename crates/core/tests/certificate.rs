//! Verdict identity of the certified Theorem 4.1 kernel.
//!
//! `rm::check_levels_from` decides most priority levels with an O(1)
//! certificate and runs the response-time fixed point only for the rest.
//! These properties compare it against the plain algorithm it replaces —
//! the utilization pre-check followed by `rm::response_time_counted` on
//! every level — on both the verdict and the first failing level, over
//! random sets, harmonic sets, sets tuned to within 1e-12 of a level's
//! deadline, streams whose period dwarfs every window (tiny `t/p`), and
//! constrained deadlines.
//!
//! CI runs this file in release mode too, where the kernel's own
//! `debug_assert` cross-check is compiled out.

use proptest::prelude::*;

use ringrt_core::rm::{self, RmTask};
use ringrt_units::Seconds;

/// The pre-certificate algorithm: `(schedulable, first failing level)`.
fn reference(tasks: &[RmTask], blocking: Seconds, from: usize) -> (bool, Option<usize>) {
    let u: f64 = tasks.iter().map(RmTask::utilization).sum();
    if u > 1.0 + 1e-9 {
        return (false, None);
    }
    for i in from..tasks.len() {
        if rm::response_time_counted(tasks, i, blocking).0.is_none() {
            return (false, Some(i));
        }
    }
    (true, None)
}

fn assert_identical(tasks: &[RmTask], blocking: Seconds, from: usize) {
    let got = rm::check_levels_from(tasks, blocking, from);
    let want = reference(tasks, blocking, from);
    assert_eq!(
        (got.schedulable, got.failed_level),
        want,
        "from {from}, blocking {blocking}, tasks {tasks:?}"
    );
    if from == 0 {
        assert_eq!(rm::is_schedulable_rta(tasks, blocking), want.0);
    }
}

/// SplitMix64: the case seed drives every draw, so a failure replays from
/// the seed alone.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `[lo, hi)`.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.uniform(lo.ln(), hi.ln()).exp()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.uniform(0.0, 1.0) < p
    }
}

/// Sorts into deadline-monotonic order, ties by period.
fn dm_sorted(mut tasks: Vec<RmTask>) -> Vec<RmTask> {
    tasks.sort_by(|a, b| {
        a.deadline
            .total_cmp(&b.deadline)
            .then(a.period.total_cmp(&b.period))
    });
    tasks
}

/// `n` tasks with the given periods, total utilization `u` split at random,
/// and (with probability `constrained`) deadlines drawn in `[C, P]`.
fn tasks_for(rng: &mut Rng, periods: &[f64], u: f64, constrained: f64) -> Vec<RmTask> {
    let weights: Vec<f64> = periods.iter().map(|_| rng.uniform(0.05, 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let tasks = periods
        .iter()
        .zip(&weights)
        .map(|(&p, &w)| {
            let cost = p * u * w / total;
            let deadline = if rng.chance(constrained) {
                rng.uniform(cost, p).max(cost).min(p)
            } else {
                p
            };
            RmTask::with_deadline(Seconds::new(cost), Seconds::new(p), Seconds::new(deadline))
        })
        .collect();
    dm_sorted(tasks)
}

/// Random periods over four decades, utilization across the boundary.
fn random_set(rng: &mut Rng) -> (Vec<RmTask>, Seconds) {
    let n = 1 + rng.below(40);
    let periods: Vec<f64> = (0..n).map(|_| rng.log_uniform(1e-3, 10.0)).collect();
    let u = rng.uniform(0.02, 1.05);
    let tasks = tasks_for(rng, &periods, u, 0.3);
    let blocking = rng.uniform(0.0, 0.2) * tasks[0].deadline.as_secs_f64();
    (tasks, Seconds::new(blocking))
}

/// Harmonic periods `p0·2^k`, where RM reaches `U = 1` exactly.
fn harmonic_set(rng: &mut Rng) -> (Vec<RmTask>, Seconds) {
    let n = 1 + rng.below(30);
    let p0 = rng.log_uniform(1e-3, 1e-2);
    let periods: Vec<f64> = (0..n).map(|_| p0 * f64::from(1 << rng.below(7))).collect();
    let u = if rng.chance(0.5) {
        1.0
    } else {
        rng.uniform(0.3, 1.0)
    };
    let tasks = tasks_for(rng, &periods, u, 0.0);
    let blocking = if rng.chance(0.5) {
        0.0
    } else {
        rng.uniform(0.0, 0.05) * p0
    };
    (tasks, Seconds::new(blocking))
}

/// Constrained deadlines below every period, so every ceiling at a
/// level's deadline is 1, and the blocking term chosen so one level's
/// all-ones demand lands within 1e-12, 1e-14 or 1e-16 (relative) of its
/// deadline or of its deadline plus tolerance: just outside and inside the
/// certificate's guard band.
fn boundary_set(rng: &mut Rng) -> (Vec<RmTask>, Seconds) {
    let n = 1 + rng.below(40);
    let t = rng.log_uniform(1e-3, 1.0);
    let periods: Vec<f64> = (0..n).map(|_| t * rng.uniform(1.0, 10.0)).collect();
    let u = rng.uniform(0.01, 0.2);
    let tasks: Vec<RmTask> = tasks_for(rng, &periods, u, 0.0)
        .into_iter()
        .map(|task| {
            let deadline = t * rng.uniform(0.3, 0.95);
            RmTask::with_deadline(
                task.cost,
                task.period,
                Seconds::new(deadline.max(task.cost.as_secs_f64())),
            )
        })
        .collect();
    let tasks = dm_sorted(tasks);
    let level = rng.below(n);
    let demand: f64 = tasks[..=level].iter().map(|t| t.cost.as_secs_f64()).sum();
    let deadline = tasks[level].deadline.as_secs_f64();
    let edge = if rng.chance(0.5) {
        deadline
    } else {
        deadline * (1.0 + 1e-9)
    };
    let spread = [1e-12, 1e-14, 1e-16][rng.below(3)];
    let target = edge * (1.0 + rng.uniform(-spread, spread));
    (tasks, Seconds::new((target - demand).max(0.0)))
}

/// A few streams with periods of 10^3–10^9 s but short deadlines: they rank
/// first, and every lower level sees `t/p` down to ~1e-12.
fn tiny_ratio_set(rng: &mut Rng) -> (Vec<RmTask>, Seconds) {
    let (mut tasks, blocking) = random_set(rng);
    for _ in 0..1 + rng.below(3) {
        let deadline = rng.log_uniform(1e-4, 1e-3);
        tasks.push(RmTask::with_deadline(
            Seconds::new(deadline * rng.uniform(0.01, 0.3)),
            Seconds::new(rng.log_uniform(1e3, 1e9)),
            Seconds::new(deadline),
        ));
    }
    (dm_sorted(tasks), blocking)
}

fn check_all_starts(tasks: &[RmTask], blocking: Seconds) {
    for from in 0..=tasks.len() {
        assert_identical(tasks, blocking, from);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_sets_match_the_fixed_point(seed in any::<u64>()) {
        let (tasks, blocking) = random_set(&mut Rng(seed));
        check_all_starts(&tasks, blocking);
    }

    #[test]
    fn harmonic_sets_match_the_fixed_point(seed in any::<u64>()) {
        let (tasks, blocking) = harmonic_set(&mut Rng(seed));
        check_all_starts(&tasks, blocking);
    }

    #[test]
    fn boundary_sets_match_the_fixed_point(seed in any::<u64>()) {
        let (tasks, blocking) = boundary_set(&mut Rng(seed));
        check_all_starts(&tasks, blocking);
    }

    #[test]
    fn tiny_period_ratios_match_the_fixed_point(seed in any::<u64>()) {
        let (tasks, blocking) = tiny_ratio_set(&mut Rng(seed));
        check_all_starts(&tasks, blocking);
    }
}

/// The certificate decides a light set's levels without iterating: one
/// evaluation per level, where the fixed point needs two per level below
/// the first.
#[test]
fn light_levels_cost_one_evaluation_each() {
    let n = 300;
    let tasks: Vec<RmTask> = (0..n)
        .map(|i| {
            RmTask::new(
                Seconds::from_micros(10.0),
                Seconds::from_millis(100.0 + i as f64),
            )
        })
        .collect();
    let blocking = Seconds::from_micros(50.0);
    let check = rm::check_levels_from(&tasks, blocking, 0);
    assert!(check.schedulable);
    assert_eq!(check.evaluations, n as u64);
    let exact: u64 = (0..n)
        .map(|i| rm::response_time_counted(&tasks, i, blocking).1)
        .sum();
    assert_eq!(exact, 2 * n as u64 - 1);
    let partial = rm::check_levels_from(&tasks, blocking, n - 2);
    assert_eq!(partial.evaluations, 2);
}

/// A level whose all-ones demand already exceeds its deadline is rejected
/// by the certificate, at the same level the fixed point names.
#[test]
fn overloaded_level_is_rejected_where_the_fixed_point_rejects() {
    let ms = Seconds::from_millis;
    let tasks = [
        RmTask::with_deadline(ms(3.0), ms(100.0), ms(4.0)),
        RmTask::with_deadline(ms(2.0), ms(100.0), ms(4.5)),
    ];
    let check = rm::check_levels_from(&tasks, Seconds::ZERO, 0);
    assert_eq!(check.failed_level, Some(1));
    assert_eq!(check.evaluations, 2);
    assert_eq!(reference(&tasks, Seconds::ZERO, 0), (false, Some(1)));
}
