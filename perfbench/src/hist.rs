//! A log-linear latency histogram: exact below 64 ns, then 64 buckets per
//! power of two (at most 1.6% relative error), mergeable across threads.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let mantissa = (v >> shift) & (SUB - 1);
    (SUB * (shift as u64 + 1) + mantissa) as usize
}

/// Midpoint of bucket `ix`.
fn value(ix: usize) -> f64 {
    let ix = ix as u64;
    if ix < SUB {
        return ix as f64;
    }
    let shift = ix / SUB - 1;
    let lower = (SUB + ix % SUB) << shift;
    lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.buckets[index(ns)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value at quantile `q` in `[0, 1]` (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (ix, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return value(ix);
            }
        }
        unreachable!("rank is at most count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..1_000_000u64).step_by(7) {
            let ix = index(v);
            assert!(ix >= last);
            last = ix;
            let mid = value(ix);
            assert!(
                (mid - v as f64).abs() <= v as f64 * 0.016 + 0.5,
                "{v} -> {mid}"
            );
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_of_a_uniform_sample() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.02, "{p50}");
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.02, "{p99}");
        assert_eq!(h.count(), 10_000);
    }
}
