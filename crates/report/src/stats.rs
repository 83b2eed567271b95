//! Summary statistics for experiment series.

/// Geometric mean (the standard aggregate for energy *ratios*; NaN for
/// an empty slice, requires positive inputs).
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Maximum (NaN for an empty slice).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let xs = [1.0, 2.0, 4.0];
        assert!((geo_mean(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(max(&xs), 4.0);
    }

    #[test]
    fn empty_series() {
        assert!(geo_mean(&[]).is_nan());
        assert!(max(&[]).is_nan());
    }
}
