//! Order statistics over latency samples.

/// Percentiles the tail rule may pick from, highest last.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).max(1) - 1]
}

/// Nearest-rank percentile of unsorted samples.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Median (nearest-rank p50) of unsorted samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Ascending copy of `values`.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples, in exact
/// integer arithmetic on `p` rounded to 1/100 of a percent (so that
/// `99.9 % of 10 000` is 9 990, not 9 991).
fn rank(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).min(n)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer (under 20 samples).
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
}

/// Length of one throughput interval, seconds.
pub const RATE_INTERVAL_S: f64 = 1.0;

/// Ops an interval holds at least, so that its p90 has ten samples
/// beyond it.
pub const MIN_INTERVAL_OPS: usize = 100;

/// Op times of a run in bounded memory. Ops are grouped, in order, into
/// intervals of at least [`RATE_INTERVAL_S`] of op time and
/// [`MIN_INTERVAL_OPS`] ops; each closed interval keeps only its p50,
/// p90 and rate (ops over their summed seconds), and the run reports the
/// median of each over its intervals. The medians keep a burst of
/// interference from the machine's other tenants in a few intervals
/// from setting the figures, and memory does not grow with the op
/// count, so a faster program does not read as a bigger one. A trailing
/// partial interval is dropped unless it is the only one.
#[derive(Debug, Default)]
pub struct Intervals {
    open: Vec<f64>,
    open_s: f64,
    p50: Vec<f64>,
    p90: Vec<f64>,
    rate: Vec<f64>,
    ops: usize,
}

/// What [`Intervals`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSummary {
    /// Ops timed.
    pub ops: usize,
    /// Each interval's median op seconds, in run order (their count is
    /// the number of intervals the medians are over).
    pub interval_p50: Vec<f64>,
    /// Median of the intervals' median op seconds.
    pub p50: f64,
    /// Median of the intervals' p90 op seconds.
    pub p90: f64,
    /// Median of the intervals' ops per second.
    pub rate: f64,
}

impl Intervals {
    /// Add one op's seconds.
    pub fn push(&mut self, op_s: f64) {
        self.open.push(op_s);
        self.open_s += op_s;
        self.ops += 1;
        if self.open_s >= RATE_INTERVAL_S && self.open.len() >= MIN_INTERVAL_OPS {
            self.close();
        }
    }

    fn close(&mut self) {
        let s = sorted(&self.open);
        self.p50.push(percentile_sorted(&s, 50.0));
        self.p90.push(percentile_sorted(&s, 90.0));
        #[allow(clippy::cast_precision_loss)]
        self.rate.push(s.len() as f64 / self.open_s);
        self.open.clear();
        self.open_s = 0.0;
    }

    /// The medians over the closed intervals.
    ///
    /// # Panics
    /// Panics when no op was pushed.
    #[must_use]
    pub fn summary(mut self) -> IntervalSummary {
        if self.p50.is_empty() {
            self.close();
        }
        IntervalSummary {
            ops: self.ops,
            p50: median(&self.p50),
            p90: median(&self.p90),
            rate: median(&self.rate),
            interval_p50: self.p50,
        }
    }
}

/// Throughput of a window: the median over its whole
/// [`RATE_INTERVAL_S`] intervals of the completions in each, per
/// second. `done_s` holds each completion's offset from the window's
/// start; a window shorter than one interval reports its mean rate.
///
/// # Panics
/// Panics when `window_s` is not positive.
#[must_use]
pub fn median_completion_rate(done_s: &[f64], window_s: f64) -> f64 {
    assert!(window_s > 0.0, "rate over an empty window");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let whole = (window_s / RATE_INTERVAL_S).floor() as usize;
    #[allow(clippy::cast_precision_loss)]
    if whole == 0 {
        return done_s.len() as f64 / window_s;
    }
    let mut counts = vec![0.0; whole];
    for &t in done_s {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let k = (t / RATE_INTERVAL_S).floor() as usize;
        if k < whole {
            counts[k] += 1.0;
        }
    }
    median(&counts) / RATE_INTERVAL_S
}

/// Median, p90 and the tail-rule percentile of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The tail rule's percentile, if the set is large enough.
    pub tail_p: Option<f64>,
    /// The value at `tail_p`.
    pub tail: Option<f64>,
}

impl Summary {
    /// Summarize `values` (which must be non-empty).
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        let tail_p = tail_percentile(s.len());
        Self {
            n: s.len(),
            p50: percentile_sorted(&s, 50.0),
            p90: percentile_sorted(&s, 90.0),
            tail_p,
            tail: tail_p.map(|p| percentile_sorted(&s, p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
            // The next rung up, if any, has fewer than ten beyond it.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(n - rank(n, next) < MIN_BEYOND, "n={n} next={next}");
            }
        }
    }

    #[test]
    fn interval_medians() {
        // Intervals of 100 ops at 1/64 s, one at 1/32 s (a burst of
        // interference) among them, then a partial interval.
        let (fast, slow) = (1.0 / 64.0, 1.0 / 32.0);
        let mut iv = Intervals::default();
        for (count, op) in [(300, fast), (100, slow), (300, fast), (50, 0.5)] {
            for _ in 0..count {
                iv.push(op);
            }
        }
        let s = iv.summary();
        assert_eq!((s.ops, s.interval_p50.len()), (750, 7));
        assert_eq!(s.interval_p50[3], slow);
        assert_eq!((s.p50, s.p90, s.rate), (fast, fast, 64.0));
        // 100 ops are not enough time for an interval: the partial one
        // is reported alone.
        let mut short = Intervals::default();
        for _ in 0..10 {
            short.push(0.001);
        }
        let s = short.summary();
        assert_eq!((s.ops, s.interval_p50.len()), (10, 1));
        assert!((s.rate - 1000.0).abs() < 1e-9);
        let done = [0.1, 0.2, 0.9, 1.5, 2.2, 2.3, 2.4, 3.5];
        // Whole seconds [0,1): 3, [1,2): 1, [2,3): 3; 3.5 is in the
        // partial interval and is not counted.
        assert_eq!(median_completion_rate(&done, 3.9), 3.0);
        assert_eq!(median_completion_rate(&done[..2], 0.5), 4.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.tail_p, s.tail), (100, Some(90.0), Some(90.0)));
    }
}
