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

mod common;

use proptest::prelude::*;

use common::{boundary_set, harmonic_set, random_set, tiny_ratio_set, Rng};
use ringrt_core::rm::{self, RmTask};
use ringrt_units::Seconds;

/// The pre-certificate algorithm: `(schedulable, first failing level)`.
fn reference(tasks: &[RmTask], blocking: Seconds, from: usize) -> (bool, Option<usize>) {
    let u: f64 = tasks.iter().map(RmTask::utilization).sum();
    if u > 1.0 + 1e-9 {
        return (false, None);
    }
    for i in from..tasks.len() {
        if rm::response_time_counted(tasks, i, blocking, None)
            .0
            .is_none()
        {
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
        .map(|i| rm::response_time_counted(&tasks, i, blocking, None).1)
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
