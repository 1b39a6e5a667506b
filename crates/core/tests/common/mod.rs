//! Task-set generators shared by the Theorem 4.1 kernel tests
//! (`certificate.rs`, `warm_start.rs`). Every draw comes from one seed, so
//! a failing case replays from the seed alone.

#![allow(dead_code)]

use ringrt_core::rm::RmTask;
use ringrt_units::Seconds;

/// SplitMix64: the case seed drives every draw, so a failure replays from
/// the seed alone.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.uniform(lo.ln(), hi.ln()).exp()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform(0.0, 1.0) < p
    }
}

/// Sorts into deadline-monotonic order, ties by period.
pub fn dm_sorted(mut tasks: Vec<RmTask>) -> Vec<RmTask> {
    tasks.sort_by(|a, b| {
        a.deadline
            .total_cmp(&b.deadline)
            .then(a.period.total_cmp(&b.period))
    });
    tasks
}

/// `n` tasks with the given periods, total utilization `u` split at random,
/// and (with probability `constrained`) deadlines drawn in `[C, P]`.
pub fn tasks_for(rng: &mut Rng, periods: &[f64], u: f64, constrained: f64) -> Vec<RmTask> {
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
pub fn random_set(rng: &mut Rng) -> (Vec<RmTask>, Seconds) {
    let n = 1 + rng.below(40);
    let periods: Vec<f64> = (0..n).map(|_| rng.log_uniform(1e-3, 10.0)).collect();
    let u = rng.uniform(0.02, 1.05);
    let tasks = tasks_for(rng, &periods, u, 0.3);
    let blocking = rng.uniform(0.0, 0.2) * tasks[0].deadline.as_secs_f64();
    (tasks, Seconds::new(blocking))
}

/// Harmonic periods `p0·2^k`, where RM reaches `U = 1` exactly.
pub fn harmonic_set(rng: &mut Rng) -> (Vec<RmTask>, Seconds) {
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
pub fn boundary_set(rng: &mut Rng) -> (Vec<RmTask>, Seconds) {
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
pub fn tiny_ratio_set(rng: &mut Rng) -> (Vec<RmTask>, Seconds) {
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
