//! Order statistics over small samples (repeats of a run, passes of a probe).

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN: every caller passes measured numbers.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Smallest value: the pass of a fixed-work probe least disturbed by the host.
pub fn min(values: &[f64]) -> f64 {
    sorted(values)[0]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measured values are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn min_ignores_order() {
        assert_eq!(min(&[3.0, 0.5, 2.0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_a_bug() {
        median(&[]);
    }
}
