//! Exact order statistics over raw per-request samples.
//!
//! Every latency the benchmark reports is a nearest-rank quantile of the
//! raw samples, printed with its sample count — no bucketing, so a 10%
//! change is a 10% change in the number.

/// A quantile as an exact fraction `num / den` (p99 = 99/100), so the
/// rank is computed in integers and never lands one off through float
/// rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantile {
    num: usize,
    den: usize,
}

/// The median.
pub const P50: Quantile = Quantile { num: 1, den: 2 };
/// The 99th percentile.
pub const P99: Quantile = Quantile { num: 99, den: 100 };

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it (rank `⌈q·n⌉`, 1-based).
/// `None` for an empty slice.
pub fn nearest_rank(sorted: &[u64], q: Quantile) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q.num * n).div_ceil(q.den).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Raw samples of one measured quantity, in nanoseconds or a plain count.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&mut self) -> &[u64] {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        &self.values
    }

    /// Nearest-rank quantile, or 0 when there are no samples.
    pub fn quantile(&mut self, q: Quantile) -> u64 {
        nearest_rank(self.sorted(), q).unwrap_or(0)
    }

    /// Arithmetic mean, or 0 when there are no samples.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().map(|&v| v as f64).sum::<f64>() / self.values.len() as f64
    }
}

/// Median of a few floats (used for repeated set-up times).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_hand_computed() {
        let ten: Vec<u64> = (1..=10).collect();
        // ⌈0.5·10⌉ = 5, ⌈0.99·10⌉ = 10.
        assert_eq!(nearest_rank(&ten, P50), Some(5));
        assert_eq!(nearest_rank(&ten, P99), Some(10));
        let hundred: Vec<u64> = (1..=100).collect();
        // ⌈0.99·100⌉ = 99 exactly: no float rounding up to 100.
        assert_eq!(nearest_rank(&hundred, P99), Some(99));
        assert_eq!(nearest_rank(&hundred, P50), Some(50));
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&thousand, P99), Some(990));
        // ⌈0.5·7⌉ = 4 → the middle of an odd count.
        assert_eq!(nearest_rank(&[3, 9, 10, 20, 21, 40, 90], P50), Some(20));
        // ⌈0.99·201⌉ = ⌈198.99⌉ = 199.
        let two_o_one: Vec<u64> = (1..=201).collect();
        assert_eq!(nearest_rank(&two_o_one, P99), Some(199));
        assert_eq!(nearest_rank(&[42], P99), Some(42));
        assert_eq!(nearest_rank(&[], P50), None);
    }

    #[test]
    fn samples_sort_lazily_and_summarize() {
        let mut s = Samples::new();
        for v in [50, 10, 40, 20, 30] {
            s.push(v);
        }
        assert_eq!(s.quantile(P50), 30);
        assert_eq!(s.quantile(P99), 50);
        assert_eq!(s.len(), 5);
        assert!((s.mean() - 30.0).abs() < 1e-12);
        s.push(1);
        assert_eq!(s.quantile(P50), 20);
        assert_eq!(Samples::new().quantile(P50), 0);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
