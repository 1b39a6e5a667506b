//! Rate-monotonic schedulability machinery.
//!
//! The priority-driven protocol approximates preemptive rate-monotonic
//! scheduling; its Theorem 4.1 criterion is the Lehoczky–Sha–Ding exact
//! characterization applied to overhead-augmented message costs plus a
//! blocking term. This module implements that machinery generically over
//! `(cost, period)` pairs so it can be unit-tested against the classic CPU
//! scheduling results (e.g. the Liu–Layland bound and the ≈88 % average
//! breakdown utilization of ideal RM) independently of any ring overheads.
//!
//! Two equivalent exact tests are provided:
//!
//! * [`is_schedulable_points`] — the literal scheduling-point form of the
//!   paper's eq. (4): task `i` is schedulable iff there exists a scheduling
//!   point `t = l·P_k` (`k ≤ i`, `1 ≤ l ≤ ⌊P_i/P_k⌋`) with
//!   `Σ_{j≤i} C_j·⌈t/P_j⌉ + B ≤ t`;
//! * [`response_time`] — the response-time fixed-point iteration
//!   `R ← C_i + B + Σ_{j<i} C_j·⌈R/P_j⌉`, which converges to the same
//!   verdict for deadline = period and is much faster in practice.
//!
//! Whole-set verdicts go through one kernel, [`check_levels`]: it decides
//! most levels in O(1) from a running sum of higher-priority costs and
//! falls back to [`response_time_counted`] for the rest, optionally
//! starting it from an earlier check's response times. Its verdicts, and
//! the response times it reports, are those of the cold fixed point run
//! on every level.
//!
//! All of them assume tasks are indexed in priority order: ascending
//! relative deadline (deadline-monotonic), which is ascending period for
//! the paper's implicit-deadline sets.

use core::ops::Range;

use ringrt_units::Seconds;

/// Relative tolerance used when taking ceilings/floors of period ratios, so
/// that exact harmonic relationships survive floating-point noise.
const RATIO_EPS: f64 = 1e-9;

/// The fixed-point loop's iteration cap.
const MAX_ITERATIONS: usize = 10_000;

/// `2^52`: below it every `f64` with a fractional part still has a bit
/// for it, and truncation through `i64` is exact.
const EXACT_INT_LIMIT: f64 = 4_503_599_627_370_496.0;

/// `(q.round(), q.floor(), q.ceil())`, bit for bit, without calling libm.
///
/// Baseline x86-64 has no rounding instruction, so `f64::round`/`ceil`/
/// `floor` are library calls; the Theorem 4.1 demand loop takes one per
/// term. On `0 < q < 2^52` this computes them branch-free from the exact
/// truncation `f = (q as i64) as f64` and the exact fraction `q − f`
/// (Sterbenz: `f ≤ q < 2f` once `f ≥ 1`); `round` goes half away from
/// zero, so `q − f ≥ 0.5` rounds up. Every other input (zero, negatives,
/// huge values, infinities, NaN) takes the library path.
#[must_use]
#[inline]
pub(crate) fn round_floor_ceil(q: f64) -> (f64, f64, f64) {
    if q > 0.0 && q < EXACT_INT_LIMIT {
        let floor = (q as i64) as f64;
        let frac = q - floor;
        let nearest = floor + f64::from(u8::from(frac >= 0.5));
        let ceil = floor + f64::from(u8::from(frac > 0.0));
        (nearest, floor, ceil)
    } else {
        (q.round(), q.floor(), q.ceil())
    }
}

/// `(⌊q⌋, ⌈q⌉)` with tolerance for near-integer `q`: both are the nearest
/// integer when `q` lies within `RATIO_EPS` (relative) of it, so exact
/// harmonic ratios such as `0.3 / 0.1 = 2.9999999999999996` count as 3.
///
/// The one copy of the near-integer snap: the ceilings of the demand
/// functions, the floors of the scheduling-point test and the timed-token
/// visit count `⌊P_i / TTRT⌋` all go through it.
#[must_use]
#[inline]
pub(crate) fn snapped_floor_ceil(q: f64) -> (f64, f64) {
    let (nearest, floor, ceil) = round_floor_ceil(q);
    if (q - nearest).abs() <= RATIO_EPS * nearest.abs().max(1.0) {
        (nearest, nearest)
    } else {
        (floor, ceil)
    }
}

/// `⌈t / p⌉` with tolerance for near-integer ratios.
///
/// Any `t > 0` yields at least 1: a window of positive length always holds
/// one release of every task, however long its period. Snapping a tiny
/// ratio to 0 would drop that task's interference, an optimistic answer.
#[must_use]
pub(crate) fn ceil_ratio(t: Seconds, p: Seconds) -> f64 {
    let ceil = snapped_floor_ceil(t / p).1;
    if t > Seconds::ZERO {
        ceil.max(1.0)
    } else {
        ceil
    }
}

/// `⌊t / p⌋` with tolerance for near-integer ratios.
#[must_use]
fn floor_ratio(t: Seconds, p: Seconds) -> f64 {
    snapped_floor_ceil(t / p).0
}

/// One task (or message stream) as seen by the fixed-priority tests:
/// an effective cost, a period, and a relative deadline (= the period in
/// the paper's model; possibly earlier in the constrained-deadline
/// extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmTask {
    /// Worst-case effective execution/transmission cost, `C'_i`.
    pub cost: Seconds,
    /// Period, `P_i`.
    pub period: Seconds,
    /// Relative deadline, `D_i ≤ P_i`.
    pub deadline: Seconds,
}

impl RmTask {
    /// Convenience constructor for the paper's implicit-deadline model
    /// (`D = P`).
    #[must_use]
    pub fn new(cost: Seconds, period: Seconds) -> Self {
        RmTask {
            cost,
            period,
            deadline: period,
        }
    }

    /// Constructor with an explicit constrained deadline.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < deadline ≤ period`.
    #[must_use]
    pub fn with_deadline(cost: Seconds, period: Seconds, deadline: Seconds) -> Self {
        assert!(
            deadline > Seconds::ZERO && deadline <= period,
            "constrained deadlines require 0 < D ≤ P"
        );
        RmTask {
            cost,
            period,
            deadline,
        }
    }

    /// The task's utilization `C/P`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.cost / self.period
    }
}

/// Asserts (in debug builds) that tasks are sorted by ascending deadline
/// (deadline-monotonic order, which is ascending-period order for
/// implicit-deadline sets).
fn debug_assert_priority_order(tasks: &[RmTask]) {
    debug_assert!(
        tasks.windows(2).all(|w| w[0].deadline <= w[1].deadline),
        "tasks must be in deadline-monotonic (ascending deadline) order"
    );
}

/// Absolute slack the fixed point allows on `task`'s deadline (and on its
/// convergence test): `RATIO_EPS` relative to the deadline.
pub(crate) fn tolerance(task: &RmTask) -> Seconds {
    Seconds::new(RATIO_EPS * task.deadline.as_secs_f64().max(1e-30))
}

/// The Liu–Layland utilization bound `n(2^{1/n} − 1)`.
///
/// Any task set with total utilization below this bound is schedulable by
/// RM; above it, schedulability must be decided by an exact test.
///
/// # Examples
///
/// ```
/// use ringrt_core::rm::liu_layland_bound;
/// assert_eq!(liu_layland_bound(1), 1.0);
/// assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-4);
/// assert!((liu_layland_bound(1000) - core::f64::consts::LN_2).abs() < 1e-3);
/// ```
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    assert!(n > 0, "the bound is defined for at least one task");
    let nf = n as f64;
    nf * (2f64.powf(1.0 / nf) - 1.0)
}

/// Worst-case response time of task `index` (0-based, priority order) under
/// preemptive RM with a blocking term, or `None` if the fixed point exceeds
/// the deadline (task unschedulable).
///
/// Solves `R = C_i + B + Σ_{j<i} C_j·⌈R/P_j⌉` by fixed-point iteration
/// starting from `C_i + B`.
///
/// # Panics
///
/// Panics if `index` is out of range, and in debug builds if the tasks are
/// not sorted by ascending deadline.
#[must_use]
pub fn response_time(tasks: &[RmTask], index: usize, blocking: Seconds) -> Option<Seconds> {
    response_time_counted(tasks, index, blocking, None).0
}

/// Like [`response_time`], but also reports how many demand evaluations
/// (fixed-point iterations over the scheduling-point demand function) the
/// test performed, and can start the iteration higher.
///
/// The count is the work metric behind the registry's incremental
/// admission engine: re-testing only the priority levels a change touches
/// must evaluate measurably fewer points than a full recomputation, and
/// this counter is what makes that claim observable.
///
/// `start = None` is the cold loop: it iterates from `C_i + B` and stops
/// once an iterate grows by at most the tolerance. `Some(w)` iterates from
/// `max(C_i + B, w)` and stops only at an exact float fixed point (a stop
/// slack of zero). It returns the cold loop's answer, bit for bit, when
/// `w` is a start that [`check_levels`] accepts for this level; see the
/// proof there.
///
/// # Panics
///
/// Panics if `index` is out of range, and in debug builds if the tasks are
/// not sorted by ascending deadline.
#[must_use]
pub fn response_time_counted(
    tasks: &[RmTask],
    index: usize,
    blocking: Seconds,
    start: Option<Seconds>,
) -> (Option<Seconds>, u64) {
    debug_assert_priority_order(tasks);
    let task = &tasks[index];
    let tol = tolerance(task);
    let limit = task.deadline + tol;
    let base = task.cost + blocking;
    let (mut r, slack) = match start {
        None => (base, tol),
        Some(w) => (base.max(w), Seconds::ZERO),
    };
    let mut evaluations = 0u64;
    // Each iteration increases R until the fixed point; bail out as soon as
    // the deadline is exceeded. A generous iteration cap guards against
    // pathological float non-convergence.
    for _ in 0..MAX_ITERATIONS {
        if r > limit {
            return (None, evaluations);
        }
        let mut next = base;
        for hp in &tasks[..index] {
            next += hp.cost * ceil_ratio(r, hp.period);
        }
        evaluations += 1;
        if next <= r + slack {
            let verdict = if next <= limit { Some(next) } else { None };
            return (verdict, evaluations);
        }
        r = next;
    }
    // Did not converge within the cap — treat as unschedulable.
    (None, evaluations)
}

/// Verdict of the exact scheduling-point test (paper eq. 4) for task
/// `index`: is there a scheduling point `t ≤ P_i` where the cumulative
/// demand `Σ_{j≤i} C_j⌈t/P_j⌉ + B` fits within `t`?
///
/// # Panics
///
/// Panics if `index` is out of range, and in debug builds if the tasks are
/// not sorted by ascending deadline.
#[must_use]
pub fn schedulable_at_points(tasks: &[RmTask], index: usize, blocking: Seconds) -> bool {
    debug_assert_priority_order(tasks);
    let d_i = tasks[index].deadline;
    let demand_fits = |t: Seconds| {
        let mut demand = blocking;
        for task in &tasks[..=index] {
            demand += task.cost * ceil_ratio(t, task.period);
        }
        demand <= t + Seconds::new(RATIO_EPS * t.as_secs_f64().max(1e-30))
    };
    // R_i = {(k, l) : 1 ≤ k ≤ i, 1 ≤ l ≤ ⌊D_i/P_k⌋}; points t = l·P_k,
    // plus the deadline itself (needed when D_i < P_i and no period
    // multiple lands on it).
    if demand_fits(d_i) {
        return true;
    }
    for task in &tasks[..=index] {
        let p_k = task.period;
        let l_max = floor_ratio(d_i, p_k) as u64;
        for l in 1..=l_max {
            let t = (p_k * l as f64).min(d_i);
            if demand_fits(t) {
                return true;
            }
        }
    }
    false
}

/// Exact RM schedulability of the whole set via the scheduling-point test.
///
/// `tasks` must be sorted by ascending deadline (deadline-monotonic
/// priority order); `blocking` is added to every task's demand, as in the
/// paper's Theorem 4.1 where `B = 2·max(F, Θ)` bounds priority inversion.
#[must_use]
pub fn is_schedulable_points(tasks: &[RmTask], blocking: Seconds) -> bool {
    (0..tasks.len()).all(|i| schedulable_at_points(tasks, i, blocking))
}

/// Exact RM schedulability of the whole set via response-time analysis.
///
/// Equivalent verdict to [`is_schedulable_points`] (both are exact for
/// deadline = period), typically an order of magnitude faster. This is the
/// workhorse used by the Monte-Carlo breakdown search: a full
/// [`check_levels_from`] from level 0.
#[must_use]
pub fn is_schedulable_rta(tasks: &[RmTask], blocking: Seconds) -> bool {
    check_levels_from(tasks, blocking, 0).schedulable
}

/// Outcome of a counted (possibly partial) response-time check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountedCheck {
    /// Whether every tested level meets its deadline.
    pub schedulable: bool,
    /// The first tested level (priority rank) that misses its deadline.
    /// `None` when the set is schedulable, and also when the utilization
    /// pre-check rejected it before any level was tested.
    pub failed_level: Option<usize>,
    /// Demand evaluations performed: one per level decided by the O(1)
    /// certificate, the fixed-point iteration count for every other level.
    pub evaluations: u64,
}

/// Response-time verdict for priority levels `from..n` of `tasks`,
/// stopping at the first level that misses its deadline: [`check_levels`]
/// over those levels, with no warm start.
///
/// # Panics
///
/// Panics if `from > tasks.len()`, and in debug builds if the tasks are
/// not sorted by ascending deadline.
#[must_use]
pub fn check_levels_from(tasks: &[RmTask], blocking: Seconds, from: usize) -> CountedCheck {
    check_levels(tasks, blocking, from..tasks.len(), None, &mut [])
}

/// Fixed-point starts for [`check_levels`]: an earlier check of a copy of
/// the same tasks, and the response times that check reported.
///
/// `response` must be what [`check_levels`] wrote for `tasks` and
/// `blocking` (levels it did not write hold `None`). The kernel checks the
/// rest of the warm-start conditions itself, level by level.
#[derive(Debug, Clone, Copy)]
pub struct WarmStart<'a> {
    /// The copy's tasks, in priority order.
    pub tasks: &'a [RmTask],
    /// The copy's blocking term.
    pub blocking: Seconds,
    /// The copy's response time at each level, where one was reported.
    pub response: &'a [Option<Seconds>],
}

/// Response-time verdict for the priority levels in `levels`, stopping at
/// the first one that misses its deadline.
///
/// This is the one Theorem 4.1 kernel behind [`is_schedulable_rta`],
/// [`check_levels_from`] and the PDP analyzer's counted checks and
/// saturation probe. Its verdict, and the first failing level, are those
/// of a utilization pre-check (`U > 1 + ε` rejects) followed by the cold
/// [`response_time_counted`] on every level in turn; most levels are
/// decided without iterating, and the rest may iterate from a warm start.
///
/// Unless `response` is empty, each tested level's slot receives the
/// fixed point the loop returned: `Some(R)` when the loop ran and the
/// level meets its deadline, `None` when the certificate decided the level
/// or it misses. Those are the values a later [`WarmStart`] may reuse.
///
/// # The certificate
///
/// Levels are walked in order while keeping two running values over the
/// higher-priority tasks `j < i`: `Σ C_j` and `min P_j`. From them,
/// `L_i = (C_i + B) + Σ_{j<i} C_j` is the demand with every ceiling
/// `⌈R/P_j⌉` equal to 1, formed in O(1). Write `L*` for the float the
/// fixed-point loop would compute for the same quantity: its first step
/// sums `C_i + B` and then each `C_j·1` in index order. `limit` is the
/// loop's own `D_i + tol`, computed by the same expression.
///
/// * `L_i` and `L*` sum the same `i + 2` non-negative terms in two orders.
///   Recursive summation of `n` terms errs by at most `γ_{n−1}·Σ`, with
///   `γ_k = k·u/(1 − k·u)` and `u = ε/2`, so `L* ∈ L_i·[1 − g, 1 + g]` for
///   `g = 2(i+2)·ε`, and rounding the product `L_i·(1 ± g)` stays inside
///   that slack.
/// * **Accept.** Suppose `L_i·(1+g) ≤ limit` and `L_i·(1+g) ≤ min P_j`.
///   Then `0 < C_i + B ≤ L* ≤ P_j` for every `j < i`. Since
///   [`ceil_ratio`] of a ratio in `(0, 1]` is exactly 1 and `C_j·1 = C_j`
///   exactly, both loop iterations compute `L*` bit for bit, the second
///   converges, and the loop returns `Some(L*)` because `L* ≤ limit`.
/// * **Reject.** Suppose `L_i·(1−g) > limit`, so `L* > limit`. Every
///   ceiling at a positive `R` is at least 1, so each iterate is at least
///   `L*` (float addition and multiplication are monotone). The loop
///   either stops at `C_i + B > limit`, or its first iterate exceeds
///   `limit`: as a fixed point it fails the deadline test, otherwise the
///   next pass stops on it. Either way it returns `None`.
/// * **Otherwise** (inside the guard band, or a higher-priority period is
///   below `L_i`, or `C_i + B = 0`) the level runs the loop. So does
///   every level of a set with a negative cost or blocking term, where the
///   summation bound above does not hold.
///
/// A certified level counts as one evaluation. Debug builds re-run the
/// exact loop on every certified level and assert the same verdict.
///
/// # The warm start
///
/// A level the certificate leaves open iterates from `max(C_i + B, v)`,
/// stopping only at an exact fixed point, where `v` is the warm copy's
/// response at that level, when all of the following hold; otherwise it
/// runs cold. Two more running values, `min C_j` and whether every
/// `j < i` so far passed (a), keep each check O(1).
///
/// * (a) The copy's `P_j` equal these, and its `C_j` are non-negative and
///   at most these, for every `j ≤ i`; its `B` is non-negative and at most
///   this one. Every term is non-negative.
/// * (b) `min_{j<i} C_j > tol + 8g·limit`, with `g` as above.
/// * (c) `limit < 4000·min C_j`, or `i·(limit / min P_j + 2) < 9000`.
///
/// Write `f(R)` for the loop's float demand at `R`, `s = C_i + B` for its
/// first term, and `r_0 = s`, `r_{k+1} = f(r_k)` for the cold iterates.
///
/// * **Monotone.** Float `+` and `×` are monotone, and so is the snapped
///   ceiling [`ceil_ratio`] (it is `⌈q⌉` after snapping to a nearby
///   integer, and the snap zones only ever round down). With non-negative
///   terms `f` is a monotone step function of `R`, `f(R) ≥ s`, and `f`
///   depends on `R` only through the ceiling vector `c(R)`. So the cold
///   iterates never decrease and stay below every fixed point `X ≥ s`: if
///   `r_k ≤ X` then `r_{k+1} = f(r_k) ≤ f(X) = X`. Their float values in
///   `[s, X]` are finitely many, so they reach the least fixed point
///   `L ≥ s` whenever one exists.
/// * **The cold loop stops only at `L`** (by (a) and (b)). While the loop
///   runs, `r_k ≤ limit`. If `c(r_k) = c(r_{k−1})` then `r_{k+1} = r_k`
///   bit for bit. Otherwise some ceiling grew by at least 1, so the exact
///   sum grew by at least `min C_j`. Both floats lie within `γ_{i+1} ≤ g`
///   (relative) of their exact sums, so `r_{k+1} ≥ r_k(1−2g) +
///   min C_j·(1−g)`, and `fl(r_k + tol) ≤ (r_k + tol)(1+u)`; (b) makes the
///   first exceed the second. The first step is the same with `c(r_{−1})`
///   read as all zeros. So `next ≤ r + tol` fires only when
///   `r_{k+1} = r_k`, a fixed point below `L`, which is `L`. The loop thus
///   returns `Some(L)` if `L ≤ limit` and `None` otherwise.
/// * **The cap is unreachable** (by (b) and (c)). The same bound gives
///   `r_{k+1} − r_k ≥ min C_j / 2` on every step that does not stop, so at
///   most `2·limit / min C_j + 2` iterations run. Each such step after the
///   first also raises some ceiling, and a ceiling at `R ≤ limit` is at
///   most `limit/P_j + 2`, so at most `i·(limit / min P_j + 2) + 3` run.
///   Either count is below [`MAX_ITERATIONS`].
/// * **The warm start is exact** (by (a)). With equal periods and larger
///   costs, `f ≥ f_s` pointwise, where `f_s` is the copy's demand: same
///   ceilings, larger products and sums. `v` was returned by the copy's
///   loop, cold or warm, so it is one of the copy's cold iterates, and
///   `f_s(v) ≥ v`. Every fixed point `X ≥ s` of `f` has `f_s(X) ≤ X` and
///   `X ≥ s_s`, so the copy's iterates, `v` among them, stay below `X`.
///   Hence the start `w = max(s, v)` lies below every fixed point of `f`
///   (at least `s`), and `f(w) ≥ max(s, f_s(v)) ≥ w`. From `w` the
///   iterates rise and stay below `L`; a stop with `next ≤ r` is an exact
///   fixed point, so it is `L`. They also dominate the cold iterates step
///   for step, so they stop (at `L`, or above `limit` where `L` is too)
///   no later than the cold loop. The warm loop returns the cold loop's
///   `Option<Seconds>` bit for bit, in at most as many evaluations.
///
/// A warm level that was already at its fixed point costs one evaluation;
/// one whose ceiling vector is unchanged since the copy costs at most two.
/// Debug builds re-run the cold loop on every warm level and assert the
/// same result.
///
/// # Panics
///
/// Panics if `levels` is out of range for `tasks`, and in debug builds if
/// the tasks are not sorted by ascending deadline.
#[must_use]
pub fn check_levels(
    tasks: &[RmTask],
    blocking: Seconds,
    levels: Range<usize>,
    warm: Option<WarmStart<'_>>,
    response: &mut [Option<Seconds>],
) -> CountedCheck {
    debug_assert_priority_order(tasks);
    assert!(levels.end <= tasks.len(), "levels out of range");
    // Quick necessary condition: utilization (ignoring blocking) must not
    // exceed 1, otherwise RTA may take many iterations to diverge.
    let u: f64 = tasks.iter().map(RmTask::utilization).sum();
    if u > 1.0 + RATIO_EPS {
        return CountedCheck {
            schedulable: false,
            failed_level: None,
            evaluations: 0,
        };
    }
    // Both proofs need non-negative terms.
    let non_negative = blocking >= Seconds::ZERO && tasks.iter().all(|t| t.cost >= Seconds::ZERO);
    let warm = warm.filter(|w| {
        non_negative
            && Seconds::ZERO <= w.blocking
            && w.blocking <= blocking
            && w.tasks.len() == tasks.len()
            && w.response.len() == tasks.len()
    });
    let mut hp = Interference::new(warm.is_some());
    for (j, task) in tasks[..levels.start].iter().enumerate() {
        hp.push(task, warm.map(|w| &w.tasks[j]));
    }
    let mut evaluations = 0u64;
    for i in levels {
        let task = &tasks[i];
        let certified = if non_negative {
            certify_level(task, i, blocking, hp.cost, hp.min_period)
        } else {
            None
        };
        let meets = match certified {
            Some(meets) => {
                debug_assert_eq!(
                    meets,
                    response_time(tasks, i, blocking).is_some(),
                    "O(1) certificate disagrees with the fixed point at level {i}"
                );
                evaluations += 1;
                if let Some(slot) = response.get_mut(i) {
                    *slot = None;
                }
                meets
            }
            None => {
                let start = warm.and_then(|w| {
                    let usable = hp.dominates
                        && dominates(task, &w.tasks[i])
                        && hp.cold_loop_is_exact(task, i);
                    w.response[i].filter(|_| usable)
                });
                let (r, evals) = response_time_counted(tasks, i, blocking, start);
                debug_assert!(
                    start.is_none() || r == response_time(tasks, i, blocking),
                    "warm start disagrees with the cold fixed point at level {i}"
                );
                evaluations += evals;
                if let Some(slot) = response.get_mut(i) {
                    *slot = r;
                }
                r.is_some()
            }
        };
        if !meets {
            return CountedCheck {
                schedulable: false,
                failed_level: Some(i),
                evaluations,
            };
        }
        hp.push(task, warm.map(|w| &w.tasks[i]));
    }
    CountedCheck {
        schedulable: true,
        failed_level: None,
        evaluations,
    }
}

/// Whether `task` may take a warm start from its copy `copy` (condition (a)
/// of [`check_levels`] for one task): same period, non-negative cost no
/// larger than `task`'s.
fn dominates(task: &RmTask, copy: &RmTask) -> bool {
    task.period == copy.period && Seconds::ZERO <= copy.cost && copy.cost <= task.cost
}

/// Running values over the higher-priority tasks `j < i` of a level walk.
struct Interference {
    /// `Σ C_j`.
    cost: Seconds,
    /// `min C_j`.
    min_cost: Seconds,
    /// `min P_j`.
    min_period: Seconds,
    /// Every task so far [`dominates`] its warm copy.
    dominates: bool,
}

impl Interference {
    fn new(warm: bool) -> Self {
        Interference {
            cost: Seconds::ZERO,
            min_cost: Seconds::new(f64::INFINITY),
            min_period: Seconds::new(f64::INFINITY),
            dominates: warm,
        }
    }

    fn push(&mut self, task: &RmTask, copy: Option<&RmTask>) {
        self.cost += task.cost;
        self.min_cost = self.min_cost.min(task.cost);
        self.min_period = self.min_period.min(task.period);
        self.dominates &= copy.is_some_and(|copy| dominates(task, copy));
    }

    /// Conditions (b) and (c) of [`check_levels`] for `task` at priority
    /// `level`: the cold loop stops only at the least fixed point, within
    /// the iteration cap.
    fn cold_loop_is_exact(&self, task: &RmTask, level: usize) -> bool {
        let tol = tolerance(task);
        let limit = task.deadline + tol;
        let g = 2.0 * (level + 2) as f64 * f64::EPSILON;
        let gap = self.min_cost > tol + limit * (8.0 * g);
        let capped = limit < self.min_cost * 4_000.0
            || level as f64 * (limit / self.min_period + 2.0) < 9_000.0;
        gap && capped
    }
}

/// The O(1) verdict of [`check_levels`]'s certificate for `task` at
/// priority `level`, given the running sum of higher-priority costs and
/// their smallest period: `Some(meets_deadline)`, or `None` when only the
/// fixed-point loop can decide.
fn certify_level(
    task: &RmTask,
    level: usize,
    blocking: Seconds,
    hp_cost: Seconds,
    hp_min_period: Seconds,
) -> Option<bool> {
    let start = task.cost + blocking;
    if start <= Seconds::ZERO {
        return None;
    }
    let demand = start + hp_cost;
    let limit = task.deadline + tolerance(task);
    let guard = 2.0 * (level + 2) as f64 * f64::EPSILON;
    let upper = demand * (1.0 + guard);
    if upper <= limit && upper <= hp_min_period {
        Some(true)
    } else if demand * (1.0 - guard) > limit {
        Some(false)
    } else {
        None
    }
}

/// Per-task response times (`None` marks an unschedulable task), for
/// diagnostic reports.
#[must_use]
pub fn response_times(tasks: &[RmTask], blocking: Seconds) -> Vec<Option<Seconds>> {
    (0..tasks.len())
        .map(|i| response_time(tasks, i, blocking))
        .collect()
}

/// Idealized rate-monotonic "protocol": no frame overheads, no blocking, no
/// token — messages behave like preemptive CPU tasks with cost
/// `C_i = C_i^b / BW`.
///
/// This is the Lehoczky–Sha–Ding baseline the paper cites (§2): its average
/// breakdown utilization is ≈ 88 % for uniformly drawn task sets. It exists
/// to anchor the Monte-Carlo pipeline against a published number.
///
/// # Examples
///
/// ```
/// use ringrt_core::rm::IdealRmAnalyzer;
/// use ringrt_core::SchedulabilityTest;
/// use ringrt_model::{MessageSet, SyncStream};
/// use ringrt_units::{Bandwidth, Bits, Seconds};
///
/// let ideal = IdealRmAnalyzer::new(Bandwidth::from_mbps(100.0));
/// let set = MessageSet::new(vec![
///     SyncStream::new(Seconds::from_millis(10.0), Bits::new(500_000)),
///     SyncStream::new(Seconds::from_millis(20.0), Bits::new(1_000_000)),
/// ])?;
/// // Harmonic set at exactly U = 1.0 is schedulable in the ideal model.
/// assert!(ideal.is_schedulable(&set));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealRmAnalyzer {
    bandwidth: ringrt_units::Bandwidth,
}

impl IdealRmAnalyzer {
    /// Creates the ideal analyzer; `bandwidth` converts message bits into
    /// transmission times.
    #[must_use]
    pub fn new(bandwidth: ringrt_units::Bandwidth) -> Self {
        IdealRmAnalyzer { bandwidth }
    }

    /// The bandwidth used for bit→time conversion.
    #[must_use]
    pub fn bandwidth(&self) -> ringrt_units::Bandwidth {
        self.bandwidth
    }
}

impl crate::SchedulabilityTest for IdealRmAnalyzer {
    fn is_schedulable(&self, set: &ringrt_model::MessageSet) -> bool {
        let order = set.rm_order();
        let tasks: Vec<RmTask> = order
            .iter()
            .map(|&i| {
                let s = set.stream(ringrt_model::StreamId(i));
                RmTask::new(s.transmission_time(self.bandwidth), s.period())
            })
            .collect();
        is_schedulable_rta(&tasks, Seconds::ZERO)
    }

    fn protocol_name(&self) -> &'static str {
        "ideal RM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(cost_ms: f64, period_ms: f64) -> RmTask {
        RmTask::new(
            Seconds::from_millis(cost_ms),
            Seconds::from_millis(period_ms),
        )
    }

    const NO_BLOCKING: Seconds = Seconds::ZERO;

    #[test]
    fn liu_layland_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.828_427).abs() < 1e-6);
        assert!((liu_layland_bound(3) - 0.779_763).abs() < 1e-6);
        // Monotone decreasing towards ln 2.
        for n in 1..50 {
            assert!(liu_layland_bound(n) > liu_layland_bound(n + 1));
            assert!(liu_layland_bound(n + 1) > core::f64::consts::LN_2);
        }
    }

    #[test]
    fn classic_liu_layland_example_schedulable() {
        // C = (20, 40, 100), P = (100, 150, 350): U ≈ 0.753, schedulable.
        let tasks = [t(20.0, 100.0), t(40.0, 150.0), t(100.0, 350.0)];
        assert!(is_schedulable_points(&tasks, NO_BLOCKING));
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
        // Known response times: R1 = 20, R2 = 60, and for task 3 the fixed
        // point of 100 + 20⌈R/100⌉ + 40⌈R/150⌉ is R3 = 240.
        let r = response_times(&tasks, NO_BLOCKING);
        assert!((r[0].unwrap().as_millis() - 20.0).abs() < 1e-6);
        assert!((r[1].unwrap().as_millis() - 60.0).abs() < 1e-6);
        assert!((r[2].unwrap().as_millis() - 240.0).abs() < 1e-6);
    }

    #[test]
    fn full_utilization_harmonic_set_schedulable() {
        // Harmonic periods reach U = 1.0 under RM.
        let tasks = [t(10.0, 20.0), t(10.0, 40.0), t(20.0, 80.0)];
        let u: f64 = tasks.iter().map(RmTask::utilization).sum();
        assert!((u - 1.0).abs() < 1e-12);
        assert!(is_schedulable_points(&tasks, NO_BLOCKING));
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
    }

    #[test]
    fn over_utilization_unschedulable() {
        let tasks = [t(15.0, 20.0), t(20.0, 40.0)];
        assert!(!is_schedulable_points(&tasks, NO_BLOCKING));
        assert!(!is_schedulable_rta(&tasks, NO_BLOCKING));
    }

    #[test]
    fn boundary_two_task_breakdown() {
        // For P = (1, 2^(1/1)) the two-task LL boundary: C1/P1 = C2/P2 =
        // 2(√2 − 1) ≈ 0.4142 is exactly schedulable.
        let u = 2.0 * (2f64.sqrt() - 1.0) / 2.0;
        let p1 = 1.0;
        let p2 = 2f64.sqrt();
        let tasks = [
            RmTask::new(Seconds::new(u * p1), Seconds::new(p1)),
            RmTask::new(Seconds::new(u * p2), Seconds::new(p2)),
        ];
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
        // The tiniest inflation breaks it.
        let inflated = [
            RmTask::new(tasks[0].cost * 1.001, tasks[0].period),
            RmTask::new(tasks[1].cost * 1.001, tasks[1].period),
        ];
        assert!(!is_schedulable_rta(&inflated, NO_BLOCKING));
        assert!(!is_schedulable_points(&inflated, NO_BLOCKING));
    }

    #[test]
    fn blocking_reduces_schedulability() {
        let tasks = [t(8.0, 20.0), t(12.0, 40.0)];
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
        // Blocking of 12 ms pushes the first task past its deadline
        // (8 + 12 = 20 = D is fine, but interference on task 2 breaks it).
        assert!(is_schedulable_rta(&tasks, Seconds::from_millis(12.0)));
        assert!(!is_schedulable_rta(&tasks, Seconds::from_millis(12.1)));
        // The point test agrees on both sides of the edge.
        assert!(is_schedulable_points(&tasks, Seconds::from_millis(12.0)));
        assert!(!is_schedulable_points(&tasks, Seconds::from_millis(12.1)));
    }

    #[test]
    fn rta_matches_point_test_on_grid() {
        // Sweep a small deterministic family and insist the two exact tests
        // always agree.
        let mut disagreements = 0;
        for c1 in 1..=10 {
            for c2 in 1..=10 {
                for c3 in 1..=10 {
                    let tasks = [
                        t(c1 as f64, 14.0),
                        t(c2 as f64 * 2.0, 33.0),
                        t(c3 as f64 * 3.0, 101.0),
                    ];
                    let a = is_schedulable_points(&tasks, Seconds::from_millis(1.5));
                    let b = is_schedulable_rta(&tasks, Seconds::from_millis(1.5));
                    if a != b {
                        disagreements += 1;
                    }
                }
            }
        }
        assert_eq!(disagreements, 0);
    }

    #[test]
    fn single_task_edge() {
        let task = [t(10.0, 10.0)];
        assert!(is_schedulable_rta(&task, NO_BLOCKING));
        assert!(is_schedulable_points(&task, NO_BLOCKING));
        assert!(!is_schedulable_rta(&task, Seconds::from_millis(0.1)));
    }

    #[test]
    fn response_time_includes_blocking() {
        let tasks = [t(5.0, 100.0)];
        let r = response_time(&tasks, 0, Seconds::from_millis(7.0)).unwrap();
        assert!((r.as_millis() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn ceil_ratio_handles_exact_multiples() {
        // 0.3 / 0.1 is 2.9999999999999996 in f64; must ceil to 3, not 4... and
        // the tolerance must not round 3.4 down.
        assert_eq!(ceil_ratio(Seconds::new(0.3), Seconds::new(0.1)), 3.0);
        assert_eq!(ceil_ratio(Seconds::new(0.34), Seconds::new(0.1)), 4.0);
        assert_eq!(floor_ratio(Seconds::new(0.3), Seconds::new(0.1)), 3.0);
        assert_eq!(floor_ratio(Seconds::new(0.29), Seconds::new(0.1)), 2.0);
    }

    #[test]
    fn ceil_ratio_never_drops_a_release() {
        // t/p = 1e-10 used to snap to 0, erasing the stream's interference.
        assert_eq!(
            ceil_ratio(Seconds::from_nanos(1.0), Seconds::new(10.0)),
            1.0
        );
        assert_eq!(ceil_ratio(Seconds::ZERO, Seconds::new(10.0)), 0.0);
        // A 1 ms message with a 10⁷ s period and a 2 ms deadline ranks
        // first and still delays the next stream once.
        let tasks = [
            RmTask::with_deadline(
                Seconds::from_millis(1.0),
                Seconds::new(1e7),
                Seconds::from_millis(2.0),
            ),
            t(1.0e-3, 10.0),
        ];
        let r = response_time(&tasks, 1, NO_BLOCKING).unwrap();
        assert!((r.as_millis() - 1.001).abs() < 1e-9, "{r}");
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn liu_layland_zero_panics() {
        let _ = liu_layland_bound(0);
    }

    #[test]
    fn constrained_deadline_tightens_the_test() {
        // C = 5, P = 20: trivially fine with D = P, infeasible with D = 4.
        let relaxed = [t(5.0, 20.0)];
        assert!(is_schedulable_rta(&relaxed, NO_BLOCKING));
        let tight = [RmTask::with_deadline(
            Seconds::from_millis(5.0),
            Seconds::from_millis(20.0),
            Seconds::from_millis(4.0),
        )];
        assert!(!is_schedulable_rta(&tight, NO_BLOCKING));
        assert!(!is_schedulable_points(&tight, NO_BLOCKING));
        // Exactly D = C passes.
        let exact = [RmTask::with_deadline(
            Seconds::from_millis(5.0),
            Seconds::from_millis(20.0),
            Seconds::from_millis(5.0),
        )];
        assert!(is_schedulable_rta(&exact, NO_BLOCKING));
        assert!(is_schedulable_points(&exact, NO_BLOCKING));
    }

    #[test]
    fn deadline_monotonic_two_task_example() {
        // Task A: C=2, P=10, D=4 (higher priority under DM).
        // Task B: C=3, P=6 (D=6).
        let a = RmTask::with_deadline(
            Seconds::from_millis(2.0),
            Seconds::from_millis(10.0),
            Seconds::from_millis(4.0),
        );
        let b = t(3.0, 6.0);
        let tasks = [a, b]; // DM order: D=4 before D=6
        assert!(is_schedulable_points(&tasks, NO_BLOCKING));
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
        // R_A = 2 ≤ 4; R_B = 3 + 2 = 5 ≤ 6.
        let r = response_times(&tasks, NO_BLOCKING);
        assert!((r[0].unwrap().as_millis() - 2.0).abs() < 1e-9);
        assert!((r[1].unwrap().as_millis() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "0 < D ≤ P")]
    fn deadline_above_period_rejected() {
        let _ = RmTask::with_deadline(
            Seconds::from_millis(1.0),
            Seconds::from_millis(10.0),
            Seconds::from_millis(11.0),
        );
    }

    // The libm-free rounding helper against `f64::round`/`floor`/`ceil` bit
    // for bit, and the near-integer snap against the expression it replaced.

    mod snap {
        use proptest::prelude::*;

        use super::super::{round_floor_ceil, snapped_floor_ceil};

        /// `(round, floor, ceil)` from the standard library, as bit patterns.
        fn libm_bits(q: f64) -> (u64, u64, u64) {
            (q.round().to_bits(), q.floor().to_bits(), q.ceil().to_bits())
        }

        fn helper_bits(q: f64) -> (u64, u64, u64) {
            let (r, f, c) = round_floor_ceil(q);
            (r.to_bits(), f.to_bits(), c.to_bits())
        }

        /// The near-integer snap exactly as the analyses spelled it before it
        /// was shared.
        fn reference_snap(q: f64) -> (f64, f64) {
            let nearest = q.round();
            if (q - nearest).abs() <= 1e-9 * nearest.abs().max(1.0) {
                (nearest, nearest)
            } else {
                (q.floor(), q.ceil())
            }
        }

        fn assert_snap_identical(q: f64) {
            let (f, c) = snapped_floor_ceil(q);
            let (rf, rc) = reference_snap(q);
            assert_eq!(
                (f.to_bits(), c.to_bits()),
                (rf.to_bits(), rc.to_bits()),
                "snap of {q:e} ({:#018x})",
                q.to_bits()
            );
        }

        fn edge_values() -> Vec<f64> {
            let two52 = 4_503_599_627_370_496.0f64;
            let mut v = vec![
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                f64::MIN_POSITIVE / 2.0,
                f64::from_bits(1),
                -f64::from_bits(1),
                0.499_999_999_999_999_94,
                0.5,
                1.5,
                2.5,
                -0.5,
                -1.5,
                -2.5,
                two52,
                f64::from_bits(two52.to_bits() - 1),
                f64::from_bits(two52.to_bits() + 1),
                two52 - 1.5,
                two52 * 2.0,
                f64::MAX,
                f64::MIN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ];
            for k in [1.0f64, 2.0, 3.0, 17.0, 1000.0, 1e6, 1e9] {
                v.push(k + 0.5);
                for rel in [0.5e-9, 0.9e-9, 1e-9, 1.1e-9, 2e-9] {
                    let d = rel * k;
                    v.extend([k - d, k + d, -(k - d), -(k + d)]);
                }
                v.push(f64::from_bits(k.to_bits() - 1));
                v.push(f64::from_bits(k.to_bits() + 1));
            }
            v.push(0.3 / 0.1);
            v
        }

        #[test]
        fn round_floor_ceil_is_libm_bit_for_bit_at_the_edges() {
            for q in edge_values() {
                assert_eq!(
                    helper_bits(q),
                    libm_bits(q),
                    "{q:e} ({:#018x})",
                    q.to_bits()
                );
            }
        }

        #[test]
        fn snap_is_the_expression_it_replaced_at_the_edges() {
            for q in edge_values() {
                assert_snap_identical(q);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn round_floor_ceil_is_libm_bit_for_bit(bits in any::<u64>()) {
                let q = f64::from_bits(bits);
                prop_assert_eq!(helper_bits(q), libm_bits(q));
                assert_snap_identical(q);
            }

            #[test]
            fn round_floor_ceil_on_ratio_scales(q in 0.0f64..2e4, k in 0u64..20_000, nudge in -4i64..=4) {
                prop_assert_eq!(helper_bits(q), libm_bits(q));
                assert_snap_identical(q);
                // Integers and their immediate float neighbours.
                let near = f64::from_bits((k as f64).to_bits().wrapping_add_signed(nudge));
                prop_assert_eq!(helper_bits(near), libm_bits(near));
                assert_snap_identical(near);
            }
        }
    }
}
