//! Property-based tests for the state-space machinery.

use mic_statespace::arima::{difference, fit_arima, ArimaFitOptions, ArimaOrder};
use mic_statespace::estimate::{fit_structural, FitOptions};
use mic_statespace::kalman::{kalman_filter, kalman_loglik, FilterWorkspace};
use mic_statespace::model::slope_shift_w;
use mic_statespace::structural::{StructuralParams, StructuralSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fast_fit() -> FitOptions {
    FitOptions {
        max_evals: 120,
        n_starts: 1,
    }
}

fn gen_series(seed: u64, n: usize, slope_cp: Option<usize>) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|t| {
            let w = slope_cp.map_or(0.0, |cp| if t >= cp { (t - cp + 1) as f64 } else { 0.0 });
            15.0 + 0.8 * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn filter_loglik_is_finite_for_positive_variances(
        seed in 0u64..200,
        var_eps in 0.01..10.0f64,
        var_level in 0.0001..5.0f64,
    ) {
        let ys = gen_series(seed, 30, None);
        let spec = StructuralSpec::local_level();
        let params = StructuralParams { var_eps, var_level, var_seasonal: 0.0 };
        let ssm = spec.build(&params);
        let f = kalman_filter(&ssm, &ys);
        prop_assert!(f.loglik.is_finite());
        prop_assert_eq!(f.innovations.len(), ys.len());
        for v in &f.innovation_vars {
            prop_assert!(*v > 0.0);
        }
    }

    #[test]
    fn fast_loglik_matches_filter_loglik(
        seed in 0u64..200,
        var_eps in 0.01..10.0f64,
        var_level in 0.0001..5.0f64,
        var_seasonal in 0.0..1.0f64,
        spec_kind in 0usize..4,
        n in 16usize..60,
    ) {
        // The allocation-free likelihood path must agree with the full
        // filter on every spec shape (ISSUE acceptance: parity to 1e-12;
        // the implementation mirrors the summation order, so in practice
        // they are bit-identical).
        let ys = gen_series(seed, n, None);
        let spec = match spec_kind {
            0 => StructuralSpec::local_level(),
            1 => StructuralSpec::with_seasonal(),
            2 => StructuralSpec::with_intervention(n / 2),
            _ => StructuralSpec::full(n / 3),
        };
        let params = StructuralParams { var_eps, var_level, var_seasonal };
        let mut ssm = spec.build(&params);
        ssm.n_diffuse = spec.state_dim();
        let full = kalman_filter(&ssm, &ys).loglik;
        let mut ws = FilterWorkspace::new(spec.state_dim());
        let fast = kalman_loglik(&ssm, &ys, &mut ws);
        prop_assert!((full - fast).abs() <= 1e-12 * full.abs().max(1.0),
            "full {full} vs fast {fast}");
        // A dirty, previously-used workspace must not change the answer.
        let again = kalman_loglik(&ssm, &ys, &mut ws);
        prop_assert_eq!(fast.to_bits(), again.to_bits());
    }

    #[test]
    fn fitted_aic_beats_or_matches_unfitted(seed in 0u64..60) {
        // The MLE must achieve at least the likelihood of an arbitrary
        // parameter guess.
        let ys = gen_series(seed, 35, None);
        let spec = StructuralSpec::local_level();
        let fit = fit_structural(&ys, spec, &fast_fit());
        let guess = StructuralParams { var_eps: 1.0, var_level: 1.0, var_seasonal: 0.0 };
        let ssm = spec.build(&guess);
        let guess_ll = kalman_filter(&ssm, &ys).loglik;
        prop_assert!(fit.loglik >= guess_ll - 1e-6,
            "MLE loglik {} below guess {}", fit.loglik, guess_ll);
    }

    #[test]
    fn decomposition_always_reconstructs(seed in 0u64..60, cp in 5usize..30) {
        let ys = gen_series(seed, 36, Some(cp));
        let spec = StructuralSpec::with_intervention(cp);
        let fit = fit_structural(&ys, spec, &fast_fit());
        let c = fit.decompose(&ys);
        for (t, &y) in ys.iter().enumerate() {
            let sum = c.level[t] + c.seasonal[t] + c.intervention[t] + c.irregular[t];
            prop_assert!((sum - y).abs() < 1e-6);
        }
    }

    #[test]
    fn forecasts_are_finite(seed in 0u64..60, h in 1usize..15) {
        let ys = gen_series(seed, 36, None);
        let fit = fit_structural(&ys, StructuralSpec::local_level(), &fast_fit());
        let fc = fit.forecast(&ys, h);
        prop_assert_eq!(fc.len(), h);
        for v in &fc {
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn difference_then_cumsum_round_trip(
        xs in prop::collection::vec(-100.0..100.0f64, 2..40),
    ) {
        let d1 = difference(&xs, 1);
        // Reconstruct from first value + cumulative sum.
        let mut acc = xs[0];
        let mut rebuilt = vec![acc];
        for v in &d1 {
            acc += v;
            rebuilt.push(acc);
        }
        prop_assert_eq!(rebuilt.len(), xs.len());
        for (a, b) in rebuilt.iter().zip(&xs) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn arima_fit_is_deterministic(seed in 0u64..30) {
        let ys = gen_series(seed, 60, None);
        let opts = ArimaFitOptions { max_evals: 150 };
        let a = fit_arima(&ys, ArimaOrder { p: 1, d: 0, q: 0 }, &opts);
        let b = fit_arima(&ys, ArimaOrder { p: 1, d: 0, q: 0 }, &opts);
        match (a, b) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.phi, b.phi);
                prop_assert_eq!(a.loglik, b.loglik);
            }
            (None, None) => {}
            _ => prop_assert!(false, "nondeterministic fit success"),
        }
    }

    #[test]
    fn arima_coefficients_always_stationary(seed in 0u64..30, p in 1usize..4, q in 0usize..3) {
        let ys = gen_series(seed, 80, None);
        let opts = ArimaFitOptions { max_evals: 150 };
        if let Some(fit) = fit_arima(&ys, ArimaOrder { p, d: 0, q }, &opts) {
            // Check the AR polynomial's companion-matrix spectral radius via
            // power iteration on the Harvey transition (stationarity ⇒ the
            // stationary covariance solve succeeded during fitting, so here
            // we just sanity-check coefficient magnitudes).
            let sum_abs: f64 = fit.phi.iter().map(|c| c.abs()).sum();
            prop_assert!(sum_abs < (p as f64) + 1.0);
            prop_assert!(fit.sigma2 > 0.0);
            prop_assert!(fit.loglik.is_finite());
        }
    }

    #[test]
    fn intervention_w_dummy_monotone(cp in 0usize..40) {
        let mut prev = -1.0;
        for t in 0..45 {
            let w = slope_shift_w(cp, t);
            prop_assert!(w >= prev);
            prev = w;
            if t < cp {
                prop_assert_eq!(w, 0.0);
            }
        }
    }
}
