//! Order statistics, with the sample-size rule every reported
//! percentile obeys: at least ten samples must lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile asked of a sample too small to support it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for, as a fraction.
    pub q: f64,
    /// Samples available.
    pub samples: usize,
    /// Samples beyond the percentile's rank.
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples has {} beyond it (need {MIN_BEYOND})",
            self.q * 100.0,
            self.samples,
            self.beyond
        )
    }
}

/// Nearest-rank percentile `q` (a fraction in `(0, 1)`) of `samples`.
///
/// # Errors
///
/// [`TooFewSamples`] unless at least [`MIN_BEYOND`] samples rank above
/// the percentile.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    let n = samples.len();
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            q,
            samples: n,
            beyond,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median (mean of the middle pair for an even count); 0 when
/// empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `part / whole`, or 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
        let err = percentile(&ramp(999), 0.99).unwrap_err();
        assert_eq!(err.beyond, 9);
        assert!(percentile(&ramp(1000), 0.995).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn p50_of_twenty_is_the_tenth() {
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
