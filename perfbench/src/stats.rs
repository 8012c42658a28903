//! Sample summaries: exact sample lists for the few-per-run timings, and a
//! fixed-size log-linear histogram for the per-answer and per-probe
//! latencies, so that recording millions of samples costs no memory that
//! would show up in `peak_rss_mb`.

/// Values below this are counted exactly, one bucket per unit.
const EXACT: u64 = 64;
/// Sub-buckets per power of two above [`EXACT`] (relative width 1/32).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = EXACT as usize + (64 - 6) * SUB as usize;

/// A log-linear histogram over `u64` values: exact below 64, then 32
/// buckets per power of two. Quantiles interpolate linearly inside the
/// bucket that holds the requested rank.
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            n: 0,
            max: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as u64; // e ≥ 6
    let sub = (v >> (e - SUB_BITS as u64)) & (SUB - 1);
    (EXACT + (e - 6) * SUB + sub) as usize
}

fn bucket_bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < EXACT {
        return (i as f64, (i + 1) as f64);
    }
    let e = (i - EXACT) / SUB + 6;
    let sub = (i - EXACT) % SUB;
    let width = 1u64 << (e - SUB_BITS as u64);
    let lo = (SUB + sub) * width;
    (lo as f64, (lo + width) as f64)
}

impl Hist {
    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.n as f64).max(0.5);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, hi) = bucket_bounds(i);
                let frac = (rank - below as f64) / c as f64;
                return Some((lo + frac * (hi - lo)).min(self.max as f64 + 1.0));
            }
            below += c;
        }
        Some(self.max as f64)
    }
}

/// The median of `values` (mean of the middle two for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut last = 0usize;
        for v in [0u64, 1, 63, 64, 65, 100, 127, 128, 1000, 1 << 20, u64::MAX] {
            let b = bucket(v);
            assert!(b >= last, "bucket order at {v}");
            let (lo, hi) = bucket_bounds(b);
            assert!(
                lo <= v as f64 && (v as f64) < hi || v == u64::MAX,
                "{v} in [{lo},{hi})"
            );
            last = b;
        }
        assert!(bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_track_the_data() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 500.0).abs() < 500.0 / 32.0 + 1.0, "{p50}");
        assert!((p99 - 990.0).abs() < 990.0 / 32.0 + 1.0, "{p99}");
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
