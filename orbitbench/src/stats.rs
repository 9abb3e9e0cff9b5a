//! Order statistics and the seeded generator every workload draws from.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice, so a metric with no samples is reported
/// as not measured rather than as 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile that `n` samples support: the one with at least
/// [`TAIL_BEYOND`] samples beyond it. Returns the 0-based rank into the
/// ascending order and the percentile it stands for, or `None` when fewer
/// than `TAIL_BEYOND + 1` samples exist.
pub fn tail_rank(n: usize) -> Option<(usize, f64)> {
    let rank = n.checked_sub(TAIL_BEYOND + 1)?;
    Some((rank, 100.0 * (rank + 1) as f64 / n as f64))
}

/// Whether `n` samples support reporting percentile `p` (0–100): at least
/// [`TAIL_BEYOND`] samples must lie beyond it.
#[cfg(test)]
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= TAIL_BEYOND as f64 - 1e-9
}

/// The tail value, its percentile and the sample count, per [`tail_rank`].
pub fn tail(values: &[f64]) -> Option<Tail> {
    let (rank, percentile) = tail_rank(values.len())?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[rank],
        percentile,
        samples: values.len(),
    })
}

/// A tail latency with the percentile it stands for and its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at the tail rank.
    pub value: f64,
    /// The percentile that rank stands for.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.uniform() * n as f64) as usize).min(n.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(10), None);
        let (rank, p) = tail_rank(11).unwrap();
        assert_eq!(rank, 0);
        assert!((p - 100.0 / 11.0).abs() < 1e-9);
        let (rank, p) = tail_rank(400).unwrap();
        assert_eq!(rank, 389);
        assert_eq!(400 - rank - 1, TAIL_BEYOND);
        assert!((p - 97.5).abs() < 1e-9);
        let (rank, p) = tail_rank(1000).unwrap();
        assert_eq!(1000 - rank - 1, TAIL_BEYOND);
        assert!((p - 99.0).abs() < 1e-9);
    }

    #[test]
    fn max_of_six_is_not_a_p99() {
        // Six samples support no tail at all, let alone a p99: the maximum
        // of six has no sample beyond it.
        let six = [3.0, 9.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(tail(&six), None);
        assert!(!supports_percentile(6, 99.0));
        // A p99 needs a thousand samples.
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(1000, 99.0));
        // With 1000 samples the tail is not the maximum.
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&many).unwrap();
        assert_eq!(t.value, 989.0);
        assert!(t.value < 999.0);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
