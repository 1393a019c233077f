//! A deterministic, fixed-bucket, log-scale latency histogram.
//!
//! Buckets split every power of two of nanoseconds into
//! [`SUB_BUCKETS`] equal parts, so a bucket is at most 1/16 (6.25 %)
//! wide relative to its lower edge; the layout is fixed, so two
//! histograms of the same samples are identical whatever order the
//! samples came in. Each bucket also keeps the smallest and largest
//! sample it saw, and a quantile is read by interpolating by rank
//! between them: exact when the bucket holds one or two samples, and
//! never outside the bucket's observed range.

/// Sub-buckets per power of two.
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Values below this many nanoseconds share one linear bucket each.
const LINEAR: u64 = SUB_BUCKETS as u64;
const BUCKETS: usize = 64 * SUB_BUCKETS;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    count: u64,
    min: u64,
    max: u64,
}

/// Latency histogram over nanosecond samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<Bucket>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![
                Bucket {
                    count: 0,
                    min: u64::MAX,
                    max: 0,
                };
                BUCKETS
            ],
            count: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < LINEAR {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    (exp - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

impl Histogram {
    /// Records one sample of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let bucket = &mut self.buckets[bucket_of(ns)];
        bucket.count += 1;
        bucket.min = bucket.min.min(ns);
        bucket.max = bucket.max.max(ns);
        self.count += 1;
    }

    /// Records a duration.
    pub fn record_duration(&mut self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (0 < q <= 1) in nanoseconds: the sample of rank
    /// `ceil(q * count)`, read from its bucket by interpolation. Zero
    /// when the histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut before = 0u64;
        for bucket in &self.buckets {
            if before + bucket.count >= rank {
                if bucket.count == 1 {
                    return bucket.min as f64;
                }
                let position = (rank - before - 1) as f64 / (bucket.count - 1) as f64;
                return bucket.min as f64 + position * (bucket.max - bucket.min) as f64;
            }
            before += bucket.count;
        }
        unreachable!("rank {rank} is within the {} recorded samples", self.count)
    }

    /// The `q`-quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    /// The highest of p50, p90, p99, p99.9 and p99.99 that has at
    /// least ten samples beyond it, or `None` with fewer than twenty
    /// samples. A percentile above this one rests on fewer than ten
    /// samples and says little about the tail.
    pub fn supported_percentile(&self) -> Option<&'static str> {
        [
            (99.99, "p99.99"),
            (99.9, "p99.9"),
            (99.0, "p99"),
            (90.0, "p90"),
            (50.0, "p50"),
        ]
        .into_iter()
        .find(|&(p, _)| self.count as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|(_, name)| name)
    }

    /// One line naming the sample count, p50, p99 and the highest
    /// percentile the count supports.
    pub fn describe(&self) -> String {
        format!(
            "n={} p50={:.3}us p99={:.3}us tail-supported={}",
            self.count,
            self.quantile_us(0.50),
            self.quantile_us(0.99),
            self.supported_percentile()
                .unwrap_or("none (fewer than 20 samples)")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_bounded() {
        let mut last = 0;
        for ns in (0..100_000u64).chain([u64::MAX / 2, u64::MAX]) {
            let b = bucket_of(ns);
            assert!(b >= last && b < BUCKETS, "{ns} -> {b}");
            last = b;
        }
    }

    #[test]
    fn quantiles_are_exact_for_sparse_buckets() {
        let mut h = Histogram::default();
        for ns in [1_000, 2_000, 3_000, 4_000] {
            h.record(ns);
        }
        assert_eq!(h.quantile_ns(0.5), 2_000.0);
        assert_eq!(h.quantile_ns(0.99), 4_000.0);
        assert_eq!(h.quantile_ns(0.01), 1_000.0);
    }

    #[test]
    fn quantile_stays_within_relative_bucket_width() {
        let mut h = Histogram::default();
        let samples: Vec<u64> = (1..=10_000u64).map(|i| i * 997).collect();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = samples[(q * samples.len() as f64).ceil() as usize - 1] as f64;
            let read = h.quantile_ns(q);
            assert!(
                (read - exact).abs() / exact < 1.0 / 16.0,
                "{q}: {read} vs {exact}"
            );
        }
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        let mut h = Histogram::default();
        for ns in 0..19 {
            h.record(ns);
        }
        assert_eq!(h.supported_percentile(), None);
        h.record(19);
        assert_eq!(h.supported_percentile(), Some("p50"));
        for ns in 0..980 {
            h.record(ns);
        }
        assert_eq!(h.supported_percentile(), Some("p99"));
    }
}
