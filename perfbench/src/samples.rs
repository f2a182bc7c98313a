//! Exact statistics over raw samples: nearest-rank percentiles, medians, and
//! the tail percentile a sample count can support.

/// Percentiles the report may name as a distribution's tail, lowest first.
const TAILS: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples needed beyond a percentile before the report names it.
const TAIL_SUPPORT: usize = 10;

/// 1-based nearest rank of percentile `p` (`0 < p <= 100`) among `n`
/// samples. The small epsilon keeps decimal percentiles such as 99.9 from
/// rounding one rank up through binary floating point.
fn rank(p: f64, n: usize) -> usize {
    debug_assert!(p > 0.0 && p <= 100.0);
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(p, sorted.len()) - 1])
}

/// The highest of the report's tail percentiles that still has at least ten
/// samples beyond it, as `(p, value)`; `None` when there are too few samples
/// for even the median.
pub fn supported_tail(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    TAILS
        .iter()
        .rev()
        .find(|&&p| n > 0 && n - rank(p, n) >= TAIL_SUPPORT)
        .map(|&p| (p, sorted[rank(p, n) - 1]))
}

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// The per-round values of one metric, each with the share of the host's
/// CPU time the hypervisor stole while that round ran.
#[derive(Clone, Debug, Default)]
pub struct Rounds {
    rounds: Vec<(f64, f64)>,
}

impl Rounds {
    pub fn push(&mut self, value: f64, steal: f64) {
        self.rounds.push((value, steal));
    }

    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Median over the rounds whose steal share is at most the median steal
    /// share. Two threads that wait on each other slow down by more than the
    /// time taken from them, so the rounds the host interfered with most are
    /// dropped rather than averaged in. `None` when there are no rounds.
    pub fn value(&self) -> Option<f64> {
        let steal: Vec<f64> = self.rounds.iter().map(|r| r.1).collect();
        let limit = median(&steal)?;
        let kept: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.1 <= limit)
            .map(|r| r.0)
            .collect();
        median(&kept)
    }
}

/// Sort a sample vector in place and hand it back, for the percentile calls.
pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_known_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 90.0), Some(90));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 0.5), Some(1));

        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 99.9), Some(999));
        assert_eq!(percentile(&s, 99.0), Some(990));

        // Nearest rank never interpolates: with two samples the median is
        // the lower one, and any percentile above 50 is the upper one.
        assert_eq!(percentile(&[10, 20], 50.0), Some(10));
        assert_eq!(percentile(&[10, 20], 50.1), Some(20));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order_once_sorted() {
        let s = sorted(vec![5, 1, 4, 2, 3]);
        assert_eq!(percentile(&s, 50.0), Some(3));
        assert_eq!(percentile(&s, 80.0), Some(4));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let s: Vec<u64> = (1..=100).collect();
        // p90 leaves 10 samples beyond it; p99 leaves 1.
        assert_eq!(supported_tail(&s), Some((90.0, 90)));
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_tail(&s), Some((99.0, 990)));
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(supported_tail(&s), Some((99.9, 9990)));
        let s: Vec<u64> = (1..=19).collect();
        assert_eq!(supported_tail(&s), None);
        let s: Vec<u64> = (1..=20).collect();
        assert_eq!(supported_tail(&s), Some((50.0, 10)));
    }

    #[test]
    fn rounds_drop_the_most_stolen_half() {
        let mut r = Rounds::default();
        for (v, steal) in [
            (10.0, 0.0),
            (11.0, 0.01),
            (12.0, 0.0),
            (2.0, 0.2),
            (3.0, 0.3),
        ] {
            r.push(v, steal);
        }
        // Kept: steal <= 0.01 (the median), values 10, 11, 12.
        assert_eq!(r.value(), Some(11.0));
        // Without steal figures every round is kept.
        let mut r = Rounds::default();
        for v in [1.0, 5.0, 3.0] {
            r.push(v, 0.0);
        }
        assert_eq!(r.value(), Some(3.0));
        assert_eq!(Rounds::default().value(), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN, 1.0]), Some(1.0));
    }
}
