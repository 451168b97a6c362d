//! Order statistics for repeated measurements.

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn iqr_ratio(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here and
/// by whoever re-checks the benchmark agree. A single value is its own
/// quartiles; an empty sample is all zeros.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return Summary {
            q1: x,
            median: x,
            q3: x,
            n,
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Median of whole-number samples that tie heavily, such as span
/// durations in ns a few clock ticks long: the samples equal to the plain
/// median are taken to be spread evenly over `median ± 0.5` and the
/// middle of the sample is read off inside that interval (Python's
/// `statistics.median_grouped`). The plain median of such data moves in
/// whole steps; this one moves when the distribution does.
pub fn median_grouped(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let x = v[n / 2];
    let below = v.partition_point(|y| *y < x);
    let ties = v.partition_point(|y| *y <= x) - below;
    x - 0.5 + (n as f64 / 2.0 - below as f64) / ties as f64
}

/// Nearest-rank percentile (`p` in 0..=1) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Share of `total` arrivals that completed within the latency limit,
/// read off a log2 histogram: bucket `b` holds latencies in
/// `[2^(b-1), 2^b)`, so buckets `0..=limit_log2` are exactly the
/// completions faster than `2^limit_log2` cycles. Anything that never
/// completed is in no bucket and so misses the limit.
pub fn share_within(hist: &[u64], limit_log2: usize, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let within: u64 = hist.iter().take(limit_log2 + 1).sum();
    within as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(summarize(&[]).median, 0.0);
        let one = summarize(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(one.iqr_ratio(), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn grouped_median_resolves_ties() {
        // statistics.median_grouped([1, 2, 2, 3, 4, 4, 4, 4, 4, 5]) == 3.7
        let v = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0, 5.0];
        assert!((median_grouped(&v) - 3.7).abs() < 1e-12);
        // statistics.median_grouped([1, 3, 3, 5, 7]) == 3.25
        assert!((median_grouped(&[3.0, 1.0, 7.0, 5.0, 3.0]) - 3.25).abs() < 1e-12);
        assert_eq!(median_grouped(&[]), 0.0);
        // More of the sample at 30 than at 29 pulls it above 29.5.
        let mut ticks = vec![29.0; 40];
        ticks.extend(vec![30.0; 60]);
        let m = median_grouped(&ticks);
        assert!(m > 29.5 && m < 30.0, "{m}");
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn slo_share_from_hand_built_histogram() {
        // 40 log2 buckets like the web front kernel's: 70 completions
        // under 2^14, 20 in [2^17, 2^18), 6 in [2^18, 2^19) and 4 arrivals
        // that never completed (dropped or still in flight).
        let mut hist = [0u64; 40];
        hist[10] = 70;
        hist[18] = 20;
        hist[19] = 6;
        let arrivals = 100;
        assert_eq!(share_within(&hist, 18, arrivals), 0.90);
        assert_eq!(share_within(&hist, 14, arrivals), 0.70);
        assert_eq!(share_within(&hist, 39, arrivals), 0.96);
        assert_eq!(share_within(&hist, 18, 0), 0.0);
    }
}
