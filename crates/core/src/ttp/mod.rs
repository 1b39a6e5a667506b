//! Schedulability of the timed token protocol (paper §5).
//!
//! The timed token protocol (TTP) is the FDDI-style MAC: a priority-less
//! token circulates from station to station; at ring initialization the
//! stations agree on a **Target Token Rotation Time** (TTRT), and each
//! station `i` receives a **synchronous bandwidth** `h_i` — the maximum time
//! it may spend transmitting synchronous frames per token visit. Stations
//! may send asynchronous traffic only when the token arrives early, for at
//! most the earliness (with up to one frame of *asynchronous overrun*).
//!
//! Two constraints govern deadline guarantees (paper §5.3):
//!
//! * the **protocol constraint** `Σ h_i ≤ TTRT − Θ'`, with
//!   `Θ' = Θ + F_async` covering the token walk and one asynchronous
//!   overrun per rotation;
//! * the **deadline constraint** `X_i ≥ C'_i`, where
//!   `X_i = (⌊P_i/TTRT⌋ − 1)·h_i` is the minimum transmission time
//!   available to station `i` within one period (Sevcik–Johnson bound:
//!   consecutive token visits are at most `2·TTRT` apart).
//!
//! With the **local allocation scheme** `h_i = C_i/(q_i−1) + F_ovhd`
//! (`q_i = ⌊P_i/TTRT⌋`) the deadline constraint holds with equality and the
//! two constraints collapse into the paper's Theorem 5.1:
//!
//! ```text
//! Σ C_i/(⌊P_i/TTRT⌋ − 1)  +  n·F_ovhd  ≤  TTRT − Θ'
//! ```
//!
//! This module also implements the paper's TTRT selection heuristic
//! (`TTRT = √(Θ'·P_min)`, clamped to `P_min/2`) and a family of alternative
//! allocation schemes for the comparison experiments.

mod alloc;
mod test;
mod ttrt;

pub use alloc::SbaScheme;
pub use test::{TtpAnalyzer, TtpReport, TtpStreamReport};
pub use ttrt::TtrtPolicy;

use ringrt_units::Seconds;

/// `q_i = ⌊P_i / TTRT⌋`, the guaranteed token-visit count parameter, with
/// tolerance for near-integer ratios.
///
/// # Examples
///
/// ```
/// use ringrt_core::ttp::visit_count;
/// use ringrt_units::Seconds;
///
/// let q = visit_count(Seconds::from_millis(100.0), Seconds::from_millis(8.0));
/// assert_eq!(q, 12);
/// ```
#[must_use]
pub fn visit_count(period: Seconds, ttrt: Seconds) -> u64 {
    let v = crate::rm::snapped_floor_ceil(period / ttrt).0;
    if v < 0.0 {
        0
    } else {
        v as u64
    }
}

/// Minimum transmission time available to a station within one period:
/// `X_i = (q_i − 1)·h_i` (Sevcik–Johnson worst case).
#[must_use]
pub fn worst_case_available_time(q: u64, h: Seconds) -> Seconds {
    h * (q.saturating_sub(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_count_basic() {
        let p = Seconds::from_millis(100.0);
        assert_eq!(visit_count(p, Seconds::from_millis(30.0)), 3);
        assert_eq!(visit_count(p, Seconds::from_millis(50.0)), 2);
        assert_eq!(visit_count(p, Seconds::from_millis(200.0)), 0);
    }

    #[test]
    fn visit_count_near_integer_tolerance() {
        // 0.3 / 0.1 = 2.9999999999999996 must count as 3 visits.
        assert_eq!(visit_count(Seconds::new(0.3), Seconds::new(0.1)), 3);
    }

    #[test]
    fn available_time_guard_on_q_zero() {
        let h = Seconds::from_millis(1.0);
        assert_eq!(worst_case_available_time(0, h), Seconds::ZERO);
        assert_eq!(worst_case_available_time(1, h), Seconds::ZERO);
        assert_eq!(worst_case_available_time(5, h), Seconds::from_millis(4.0));
    }
}
