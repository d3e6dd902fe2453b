//! Fixed-bucket histograms: lock-free distribution counters for the
//! serve path's request latencies and queue depths.
//!
//! Bucket bounds are fixed at construction, so recording is a linear
//! scan over a handful of bounds plus two relaxed atomic adds — no
//! allocation, no lock, safe to call from every connection thread
//! concurrently. Snapshots render cumulative (`le`) buckets in the
//! Prometheus style, plus count/sum and estimated quantiles.
//!
//! # Quantile rule (no interpolation)
//!
//! [`Histogram::quantile`] resolves `q ∈ [0, 1]` to the **smallest
//! bucket upper bound** whose cumulative count reaches the rank
//! `max(1, ceil(q · n))` over `n` recorded observations. There is no
//! intra-bucket interpolation: every returned value is one of the
//! configured bounds, never a value between them, so the estimate for
//! a true sample quantile `x` is the bucket ceiling `min{b : b ≥ x}`
//! — an upper bound on the exact order statistic as long as the
//! observation lies within the bounded range. Observations beyond the
//! last bound land in the implicit `+Inf` bucket and are reported as
//! the last finite bound (the histogram cannot resolve further), which
//! is the one case where the estimate may under-report. An empty
//! histogram has no quantiles (`None`). The exact contract — bucket
//! ceiling of the sorted-sample order statistic at rank
//! `max(1, ceil(q·n))` — is property-tested against a sorted-sample
//! oracle in `crates/llp/tests/hist_oracle.rs`.

use crate::obs::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Add `x` to the `f64` whose bits `cell` holds. Std has no atomic
/// `f64`, so this is a compare-and-swap on the bit pattern, retried
/// only if another writer got in between.
pub fn add_f64(cell: &AtomicU64, x: f64) {
    let add = |bits| Some((f64::from_bits(bits) + x).to_bits());
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds, strictly increasing; an implicit +∞ bucket follows.
    bounds: Vec<f64>,
    /// One counter per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given strictly-increasing upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Buckets suited to request latencies in milliseconds: 0.5 ms to
    /// 10 s in roughly 1-2-5 steps.
    #[must_use]
    pub fn latency_ms() -> Self {
        Self::new(&[
            0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
            10_000.0,
        ])
    }

    /// Buckets suited to small queue depths (0 to 64, powers of two).
    #[must_use]
    pub fn queue_depth() -> Self {
        Self::new(&[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    }

    /// Record one observation. NaN observations land in the overflow
    /// bucket rather than poisoning the sums.
    pub fn record(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            add_f64(&self.sum_bits, value);
        }
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all finite observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate quantile `q` in `[0, 1]`: the smallest bucket upper
    /// bound whose cumulative count reaches `q * count`. Observations
    /// beyond the last bound report that last bound (the histogram
    /// cannot resolve further). `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, counter) in self.counts.iter().enumerate() {
            cumulative += counter.load(Ordering::Relaxed);
            if cumulative >= target {
                return Some(self.bounds[i.min(self.bounds.len() - 1)]);
            }
        }
        Some(self.bounds[self.bounds.len() - 1])
    }

    /// Upper bounds this histogram was built with (exclusive of the
    /// implicit `+Inf` bucket).
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative bucket snapshot for text exposition: one
    /// `(upper_bound, cumulative_count)` pair per configured bound,
    /// then `(f64::INFINITY, total)`. Counts are monotone
    /// non-decreasing by construction, matching the Prometheus
    /// `_bucket{le=...}` contract.
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cumulative = 0u64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, counter)| {
                cumulative += counter.load(Ordering::Relaxed);
                let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                (bound, cumulative)
            })
            .collect()
    }

    /// Cumulative snapshot: `{"buckets": [{"le", "count"}...], "count",
    /// "sum", "p50", "p99"}`. The final bucket's `le` is the string
    /// `"+Inf"` (JSON numbers cannot carry infinity).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(self.counts.len());
        for (i, counter) in self.counts.iter().enumerate() {
            cumulative += counter.load(Ordering::Relaxed);
            let le = match self.bounds.get(i) {
                Some(&b) => Json::Num(b),
                None => Json::str("+Inf"),
            };
            buckets.push(Json::object(vec![
                ("le", le),
                ("count", Json::from_u64(cumulative)),
            ]));
        }
        Json::object(vec![
            ("buckets", Json::Array(buckets)),
            ("count", Json::from_u64(self.count())),
            ("sum", Json::Num(self.sum())),
            ("p50", self.quantile(0.5).map_or(Json::Null, Json::Num)),
            ("p99", self.quantile(0.99).map_or(Json::Null, Json::Num)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_the_right_buckets() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.record(0.5); // <= 1
        h.record(1.0); // <= 1 (inclusive)
        h.record(5.0); // <= 10
        h.record(50.0); // <= 100
        h.record(500.0); // overflow
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 556.5).abs() < 1e-9);
        let j = h.to_json();
        let buckets = j.get("buckets").and_then(Json::as_array).unwrap();
        let counts: Vec<u64> = buckets
            .iter()
            .map(|b| b.get("count").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(counts, vec![2, 3, 4, 5]); // cumulative
        assert_eq!(
            buckets.last().unwrap().get("le").and_then(Json::as_str),
            Some("+Inf")
        );
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 0.5, 1.5, 3.0, 7.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(2.0));
        // The overflow observation resolves to the last bound.
        assert_eq!(h.quantile(1.0), Some(8.0));
        assert_eq!(Histogram::latency_ms().quantile(0.5), None);
    }

    #[test]
    fn concurrent_records_are_exact() {
        let h = Histogram::queue_depth();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        #[allow(clippy::cast_precision_loss)]
                        h.record((i % 40) as f64);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn nan_lands_in_overflow_without_poisoning_sum() {
        let h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(0.5);
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn empty_bounds_panic() {
        let _ = Histogram::new(&[]);
    }
}
