//! Out-of-sample forecasting harness (paper Section VIII-B2).
//!
//! The paper trains on the first 31 months and forecasts the remaining 12,
//! comparing the structural model (with its change point detected on the
//! training window) against AIC-selected ARIMA on min–max-normalised
//! series, reporting RMSE medians and the qualitative finding that ARIMA
//! destabilises on seasonal or freshly-broken series.

use crate::arima::{select_arima, ArimaFitOptions};
use crate::changepoint::{search, SearchPlan};
use crate::estimate::FitOptions;
use mic_stats::metrics::{min_max_normalize, rmse};

/// One series' forecast comparison.
#[derive(Clone, Debug)]
pub struct ForecastComparison {
    /// Months used for training.
    pub train_len: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Structural-model forecasts.
    pub structural: Vec<f64>,
    /// ARIMA forecasts.
    pub arima: Vec<f64>,
    /// Actual held-out values.
    pub actual: Vec<f64>,
    /// RMSE of the structural forecasts.
    pub structural_rmse: f64,
    /// RMSE of the ARIMA forecasts.
    pub arima_rmse: f64,
}

/// Forecast options.
#[derive(Clone, Copy, Debug)]
pub struct ForecastOptions {
    /// Fit the structural model with (detected) intervention and, when true,
    /// a seasonal component.
    pub seasonal: bool,
    /// Normalise the series to [0, 1] before fitting (the paper's protocol
    /// for disease series).
    pub normalize: bool,
    pub fit: FitOptions,
    pub arima: ArimaFitOptions,
    /// ARIMA order-grid bound.
    pub max_pq: usize,
    pub max_d: usize,
}

impl Default for ForecastOptions {
    fn default() -> Self {
        ForecastOptions {
            seasonal: true,
            normalize: true,
            fit: FitOptions::default(),
            arima: ArimaFitOptions::default(),
            max_pq: 3,
            max_d: 1,
        }
    }
}

/// Train on `ys[..train_len]`, forecast the rest with both model families.
///
/// # Panics
/// Panics when `train_len` leaves no test data or is too short for any
/// ARIMA order to fit (fewer than 4 months).
pub fn compare_forecasts(
    ys: &[f64],
    train_len: usize,
    opts: &ForecastOptions,
) -> ForecastComparison {
    assert!(train_len < ys.len(), "no held-out months to forecast");
    let horizon = ys.len() - train_len;
    let series: Vec<f64> = if opts.normalize {
        min_max_normalize(ys)
    } else {
        ys.to_vec()
    };
    let train = &series[..train_len];
    let actual = series[train_len..].to_vec();

    // Structural: detect the change point on the training window, then
    // forecast with the winning model.
    let found = search(train, opts.seasonal, &opts.fit, &SearchPlan::default());
    let structural = found.fit.forecast(train, horizon);

    // ARIMA with AIC-selected orders.
    let arima_fit =
        select_arima(train, opts.max_pq, opts.max_d, &opts.arima).unwrap_or_else(|| {
            panic!("training window of {train_len} months is too short for any ARIMA order")
        });
    let arima = arima_fit.forecast(train, horizon);

    let structural_rmse = rmse(&actual, &structural);
    let arima_rmse = rmse(&actual, &arima);
    ForecastComparison {
        train_len,
        horizon,
        structural,
        arima,
        actual,
        structural_rmse,
        arima_rmse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn seasonal_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                100.0
                    + 40.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).cos()
                    + mic_stats::dist::sample_normal(&mut rng, 0.0, 4.0)
            })
            .collect()
    }

    fn broken_series(n: usize, cp: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let w = if t >= cp { (t - cp + 1) as f64 } else { 0.0 };
                20.0 + 3.0 * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
            })
            .collect()
    }

    #[test]
    fn structural_forecasts_seasonal_series_well() {
        let ys = seasonal_series(43, 31);
        let c = compare_forecasts(&ys, 31, &ForecastOptions::default());
        assert_eq!(c.horizon, 12);
        assert_eq!(c.structural.len(), 12);
        // Normalised scale: seasonal forecasts should be decent.
        assert!(
            c.structural_rmse < 0.25,
            "structural RMSE = {}",
            c.structural_rmse
        );
    }

    #[test]
    fn structural_handles_break_near_train_end() {
        // Break at month 28, train ends at 31 — the paper's hard case for
        // ARIMA.
        let ys = broken_series(43, 28, 32);
        let opts = ForecastOptions {
            seasonal: false,
            ..Default::default()
        };
        let c = compare_forecasts(&ys, 31, &opts);
        assert!(
            c.structural_rmse < 0.6,
            "structural should extrapolate the new slope: RMSE = {}",
            c.structural_rmse
        );
    }

    #[test]
    fn normalization_flag_respected() {
        let ys = seasonal_series(43, 33);
        let raw = compare_forecasts(
            &ys,
            31,
            &ForecastOptions {
                normalize: false,
                ..Default::default()
            },
        );
        // Unnormalised actuals live on the original scale.
        assert!(raw.actual.iter().any(|&v| v > 10.0));
        let norm = compare_forecasts(&ys, 31, &ForecastOptions::default());
        assert!(norm.actual.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "training window of 3 months is too short")]
    fn short_train_panics() {
        let ys = seasonal_series(43, 35);
        compare_forecasts(&ys, 3, &ForecastOptions::default());
    }

    #[test]
    #[should_panic(expected = "no held-out")]
    fn full_train_panics() {
        let ys = seasonal_series(43, 34);
        compare_forecasts(&ys, 43, &ForecastOptions::default());
    }
}
