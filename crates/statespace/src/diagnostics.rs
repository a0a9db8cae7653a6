//! Residual diagnostics for fitted structural models.
//!
//! The paper leans on the irregular component for robustness: outbreak
//! spikes (the winter-2015 influenza surge of Fig. 6a) are "absorbed into
//! the irregularity term". This module makes that observable: standardised
//! irregulars, a Ljung–Box whiteness check (did the model capture all the
//! structure?), and outlier flags that double as an **outbreak detector**.

use crate::structural::Components;
use mic_stats::tsa::ljung_box;
use mic_stats::{mean, sample_sd};

/// Diagnostics over a fitted series' residuals.
#[derive(Clone, Debug)]
pub struct ResidualDiagnostics {
    /// Standardised irregulars `(ε_t − ε̄)/sd(ε)`.
    pub standardized: Vec<f64>,
    /// Ljung–Box statistic over `lags` residual autocorrelations.
    pub ljung_box_q: f64,
    /// Ljung–Box p-value; small ⇒ residuals still carry structure.
    pub ljung_box_p: f64,
    /// Months whose |standardised irregular| exceeded the threshold —
    /// outbreak/outlier candidates.
    pub outlier_months: Vec<usize>,
    /// Threshold used for the outlier flags.
    pub threshold: f64,
}

/// Analyse a decomposition's irregular component. `threshold` is in
/// standard deviations (3.0 is the usual outlier cut); `lags` bounds the
/// Ljung–Box horizon (clamped to the series length). `None` for a series
/// of fewer than 8 observations.
pub fn diagnose_residuals(
    components: &Components,
    threshold: f64,
    lags: usize,
) -> Option<ResidualDiagnostics> {
    let eps = &components.irregular;
    let n = eps.len();
    if n < 8 {
        return None;
    }
    let m = mean(eps);
    let sd = sample_sd(eps).max(1e-12);
    let standardized: Vec<f64> = eps.iter().map(|e| (e - m) / sd).collect();
    let outlier_months: Vec<usize> = standardized
        .iter()
        .enumerate()
        .filter(|&(_, z)| z.abs() > threshold)
        .map(|(t, _)| t)
        .collect();
    let lags = lags.clamp(1, n.saturating_sub(2));
    let (ljung_box_q, ljung_box_p) = ljung_box(eps, lags);
    Some(ResidualDiagnostics {
        standardized,
        ljung_box_q,
        ljung_box_p,
        outlier_months,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{fit_structural, FitOptions};
    use crate::structural::StructuralSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn seasonal_with_spike(n: usize, spike_at: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let base = 50.0
                    + 15.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                    + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.5);
                if t == spike_at {
                    base + 40.0
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn short_series_has_no_diagnostics() {
        let ys = [3.0, 5.0, 4.0, 6.0, 5.0, 7.0];
        let c = Components {
            level: ys.to_vec(),
            seasonal: vec![0.0; 6],
            intervention: vec![0.0; 6],
            fitted: ys.to_vec(),
            irregular: vec![0.5, -0.5, 0.25, -0.25, 1.0, -1.0],
            lambda: 0.0,
        };
        assert!(diagnose_residuals(&c, 3.0, 10).is_none());
    }

    #[test]
    fn planted_outbreak_is_flagged() {
        let spike = 30;
        let ys = seasonal_with_spike(48, spike, 1);
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let c = fit.decompose(&ys);
        let d = diagnose_residuals(&c, 3.0, 10).unwrap();
        assert!(
            d.outlier_months.contains(&spike),
            "spike at {spike} not flagged: {:?}",
            d.outlier_months
        );
        assert!(
            d.outlier_months.len() <= 3,
            "too many false outliers: {:?}",
            d.outlier_months
        );
    }

    #[test]
    fn well_fitted_series_has_white_residuals() {
        // Seasonal model on seasonal data: residuals ≈ the injected noise.
        let mut rng = SmallRng::seed_from_u64(2);
        let ys: Vec<f64> = (0..60)
            .map(|t| {
                40.0 + 10.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).cos()
                    + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
            })
            .collect();
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let d = diagnose_residuals(&fit.decompose(&ys), 3.0, 10).unwrap();
        assert!(d.ljung_box_p > 0.05, "p = {}", d.ljung_box_p);
        assert!(d.outlier_months.is_empty(), "{:?}", d.outlier_months);
    }

    #[test]
    fn misspecified_model_leaves_structure() {
        // Local level on strongly seasonal data: the *smoothed* irregulars
        // retain the periodic pattern the model cannot express, and the
        // seasonal peaks look like repeated outliers.
        let ys: Vec<f64> = (0..72)
            .map(|t| 40.0 + 12.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin())
            .collect();
        let fit = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        let d = diagnose_residuals(&fit.decompose(&ys), 3.0, 14).unwrap();
        assert!(
            d.ljung_box_p <= 0.05 || d.standardized.iter().any(|z| z.abs() > 1.5),
            "seasonality should leak into the residuals: p = {}",
            d.ljung_box_p
        );
    }

    #[test]
    fn standardization_properties() {
        let ys = seasonal_with_spike(48, 20, 3);
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let d = diagnose_residuals(&fit.decompose(&ys), 3.0, 10).unwrap();
        let m = mean(&d.standardized);
        let sd = sample_sd(&d.standardized);
        assert!(m.abs() < 1e-9);
        assert!((sd - 1.0).abs() < 1e-9);
        assert_eq!(d.threshold, 3.0);
    }
}
