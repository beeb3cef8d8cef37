//! Benchmark-local statistics: a fixed-size latency histogram and the
//! percentile rule every reported timing follows.
//!
//! Reporting rule: a timing is given as its median and as the highest
//! percentile of a fixed ladder that still has at least
//! [`MIN_BEYOND`] samples beyond it, together with the sample count. The
//! histogram never grows with the number of samples, so recording a
//! long run costs the same memory as a short one.

/// A tail percentile is only reported when this many samples lie beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// Sub-buckets per power of two: values are kept to 1/256 relative
/// precision (0.4 %).
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
/// Powers of two covered above the linear range: up to 2^48 ns (~3 days).
const OCTAVES: usize = 48 - SUB_BITS as usize;
const BUCKETS: usize = SUB + OCTAVES * SUB;

/// Log-linear histogram of non-negative integer samples (nanoseconds).
/// Values below 256 are exact; above, each bucket spans 1/256 of its
/// power of two.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], total: 0, max: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
    (SUB + octave * SUB + sub).min(BUCKETS - 1)
}

/// `[low, high)` value range of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    if b < SUB {
        return (b as u64, b as u64 + 1);
    }
    let octave = (b - SUB) / SUB;
    let sub = ((b - SUB) % SUB) as u64;
    let shift = octave as u32;
    let low = (SUB as u64 + sub) << shift;
    (low, low + (1u64 << shift))
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Samples strictly beyond the nearest-rank position of `q`.
    fn beyond(&self, q: f64) -> u64 {
        self.total - rank(q, self.total)
    }

    /// The nearest-rank `q`-quantile, `q ∈ [0, 1]`, as the midpoint of
    /// the bucket holding it (exact below 256). Panics on any other `q`:
    /// a percentage such as `50.0` passed where a fraction is expected
    /// would otherwise silently return the maximum.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "percentile takes q in [0, 1], got {q}");
        assert!(self.total > 0, "percentile of an empty histogram");
        let r = rank(q, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= r {
                let (low, high) = bucket_range(b);
                let high = high.min(self.max + 1);
                return (low as f64 + (high - 1) as f64) / 2.0;
            }
        }
        self.max as f64
    }

    /// The highest ladder percentile not above `q_cap` that has at least
    /// [`MIN_BEYOND`] samples beyond it: `(q, value)`. `None` when even
    /// the median has too few samples behind it.
    pub fn tail(&self, q_cap: f64) -> Option<(f64, f64)> {
        assert!((0.0..=1.0).contains(&q_cap), "tail cap takes q in [0, 1], got {q_cap}");
        TAIL_LADDER
            .iter()
            .rev()
            .filter(|&&q| q <= q_cap)
            .find(|&&q| self.total > 0 && self.beyond(q) >= MIN_BEYOND)
            .map(|&q| (q, self.percentile(q)))
    }

    /// `(median, p99)`, or `None` when fewer than [`MIN_BEYOND`] samples
    /// lie beyond the p99 (fewer than 1000 samples).
    pub fn p50_p99(&self) -> Option<(f64, f64)> {
        match self.tail(0.99)? {
            (0.99, p99) => Some((self.percentile(0.5), p99)),
            _ => None,
        }
    }
}

/// 1-based nearest rank of `q` among `n` samples (at least 1).
fn rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// Median of a non-empty list of measurements (mean of the middle two
/// for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> Histogram {
        let mut h = Histogram::default();
        for v in 1..=n {
            h.record(v);
        }
        h
    }

    #[test]
    #[should_panic(expected = "q in [0, 1]")]
    fn percentage_instead_of_fraction_panics() {
        filled(100).percentile(50.0);
    }

    #[test]
    fn thousand_samples_yield_p99() {
        let (q, v) = filled(1000).tail(0.99).unwrap();
        assert_eq!(q, 0.99);
        // Rank 990 of 1..=1000 lies in a bucket around 990.
        assert!((v - 990.0).abs() / 990.0 < 0.005, "{v}");
    }

    #[test]
    fn five_hundred_samples_do_not_yield_p99() {
        let (q, _) = filled(500).tail(0.99).unwrap();
        assert_eq!(q, 0.95, "500 samples leave only 5 beyond p99");
    }

    #[test]
    fn p50_p99_needs_a_real_p99() {
        assert!(filled(999).p50_p99().is_none());
        assert_eq!(filled(1000).p50_p99().unwrap().0, 500.0);
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert!(filled(15).tail(0.99).is_none());
        assert_eq!(filled(20).tail(0.99).unwrap().0, 0.5);
    }

    #[test]
    fn median_is_exact_below_bucket_range() {
        assert_eq!(filled(101).percentile(0.5), 51.0);
    }

    #[test]
    fn large_values_keep_relative_precision() {
        let mut h = Histogram::default();
        for v in [1_000_000u64, 8_040_000, 111_040_000] {
            h.record(v);
            let p = h.percentile(1.0);
            assert!((p - v as f64).abs() / (v as f64) < 1.0 / 256.0, "{v} -> {p}");
            h = Histogram::default();
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = filled(10);
        a.merge(&filled(10));
        assert_eq!(a.count(), 20);
        assert_eq!(a.max(), 10);
    }

    #[test]
    fn median_of_even_list_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
