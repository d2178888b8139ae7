//! Order statistics and hashing shared by every workload.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the samples at or below it. `q` in `(0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice (a workload that timed nothing is a bug).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n >= 1` samples. The
/// epsilon keeps a product such as `0.95 * 200`, which is not exact in
/// binary, from rounding up past the intended rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Sorts a sample pool ascending (timings are finite by construction).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    samples
}

/// Median with the two middle values averaged for an even count — the
/// reduction over per-rep values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    assert!(!v.is_empty(), "median of no values");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tails a report may print, lowest first.
const TAILS: [(&str, f64); 5] = [
    ("p75", 0.75),
    ("p90", 0.90),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p99.9", 0.999),
];

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest tail with at least ten samples beyond it, or `None` when
/// even p75 is not supported (fewer than 40 samples).
pub fn supported_tail(n: usize) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .rev()
        .find(|&&(_, q)| samples_beyond(n, q) >= 10)
        .copied()
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so a spread computed here equals
/// the one the acceptance procedure computes.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median; 0 for fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// FNV-1a over bytes: the hash behind tape identity and the report-stream
/// determinism check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one `u64` (little endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a slice of `f32` samples by bit pattern.
    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// `n / d`, or 0 when nothing was counted.
pub fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 200 samples: p95 is the 190th, ten lie beyond it; p99 has two.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(supported_tail(200), Some(("p95", 0.95)));
        assert_eq!(supported_tail(199), Some(("p90", 0.90)));
        assert_eq!(supported_tail(1000), Some(("p99", 0.99)));
        assert_eq!(supported_tail(999), Some(("p95", 0.95)));
        assert_eq!(supported_tail(10_000), Some(("p99.9", 0.999)));
        assert_eq!(supported_tail(40), Some(("p75", 0.75)));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut c = Fnv::default();
        c.bytes(b"a");
        assert_eq!(c.0, 0xaf63_dc4c_8601_ec8c);
    }
}
