//! Forecast-error metrics: RMSE (used for the forecasting comparison in
//! Section VIII-B2 and the change-point distance in Table VI), MAE.

/// Root mean squared error between matched slices.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn rmse(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        actual.len(),
        predicted.len(),
        "rmse needs equal-length slices"
    );
    assert!(!actual.is_empty(), "rmse needs at least one point");
    let sse: f64 = actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p) * (a - p))
        .sum();
    (sse / actual.len() as f64).sqrt()
}

/// Mean absolute error.
pub fn mae(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        actual.len(),
        predicted.len(),
        "mae needs equal-length slices"
    );
    assert!(!actual.is_empty(), "mae needs at least one point");
    actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p).abs())
        .sum::<f64>()
        / actual.len() as f64
}

/// Min–max normalise a series to `[0, 1]`; constant series map to all-zeros.
/// The paper evaluates forecasting on normalised disease series.
pub fn min_max_normalize(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = max - min;
    if range == 0.0 {
        vec![0.0; xs.len()]
    } else {
        xs.iter().map(|x| (x - min) / range).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_known() {
        assert_eq!(rmse(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
        // Errors 3,4 → sqrt((9+16)/2) = sqrt(12.5).
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - 12.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mae_known() {
        assert_eq!(mae(&[1.0, -1.0], &[2.0, 1.0]), 1.5);
    }

    #[test]
    fn normalize_range() {
        let n = min_max_normalize(&[2.0, 4.0, 6.0]);
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
        assert_eq!(min_max_normalize(&[3.0, 3.0]), vec![0.0, 0.0]);
        assert!(min_max_normalize(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn rmse_length_mismatch_panics() {
        rmse(&[1.0], &[1.0, 2.0]);
    }
}
