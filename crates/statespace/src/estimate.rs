//! Maximum-likelihood estimation of structural models and the AIC.
//!
//! Disturbance variances are optimised on the log scale with Nelder–Mead
//! (the likelihood is evaluated exactly by the Kalman filter); the
//! intervention coefficient `λ`, being a diffuse noise-free state, is
//! estimated by the filter itself. Following Commandeur & Koopman (the text
//! the paper cites), `AIC = −2·logL + 2·(q + w)` where `q` is the number of
//! diffuse initial state values and `w` the number of estimated disturbance
//! variances — so adding the intervention costs exactly one penalty unit,
//! which is what makes the AIC change-point comparison meaningful.

use crate::kalman::{forecast_moments, kalman_filter, kalman_loglik, FilterWorkspace};
use crate::model::Ssm;
use crate::smoother::smooth;
use crate::structural::{lead, Components, StructuralParams, StructuralSpec};
use mic_stats::optimize::{nelder_mead, NelderMeadOptions};
use mic_stats::sample_variance;

/// Fitting options.
#[derive(Clone, Copy, Debug)]
pub struct FitOptions {
    /// Maximum likelihood evaluations per optimisation start.
    pub max_evals: usize,
    /// Extra restarts from perturbed initial points (best result wins).
    pub n_starts: usize,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            max_evals: 400,
            n_starts: 2,
        }
    }
}

/// A structural model fitted to one series.
#[derive(Clone, Debug)]
pub struct FittedStructural {
    pub spec: StructuralSpec,
    pub params: StructuralParams,
    /// Maximised log-likelihood (the first `skip` innovations excluded).
    pub loglik: f64,
    /// `−2·logL + 2·(q + w)`.
    pub aic: f64,
    /// Bayesian Information Criterion: `−2·logL + (q + w)·ln(n_scored)`.
    /// The paper selects by AIC but notes its method works with other
    /// criteria; BIC penalises the intervention harder on long series.
    pub bic: f64,
    /// Series length the model was fitted on.
    pub n: usize,
    /// Innovations excluded from the likelihood. Defaults to the state
    /// dimension; change-point searches raise it so that every compared
    /// model scores the *same* observations (AICs with different scored
    /// sets are not comparable — on small-variance series the model that
    /// skips more gets a spurious penalty).
    pub skip: usize,
    /// Number of likelihood evaluations spent.
    pub evals: usize,
}

impl FittedStructural {
    /// Build the numeric SSM at the fitted variances.
    pub fn ssm(&self) -> Ssm {
        self.spec.build(&self.params)
    }

    /// Smoothed component decomposition (Figs. 6–7 middle panels).
    pub fn decompose(&self, ys: &[f64]) -> Components {
        let ssm = self.ssm();
        let f = kalman_filter(&ssm, ys);
        let s = smooth(&ssm, &f);
        Components::from_smoothed(&self.spec, &s.means, ys)
    }

    /// The intervention scale `λ` (0 without an intervention) that
    /// [`FittedStructural::decompose`] reports, read from one likelihood
    /// pass: λ's smoothed value is its last filtered state.
    pub fn lambda(&self, ys: &[f64]) -> f64 {
        self.spec.lambda_index().map_or(0.0, |i| {
            let mut ws = FilterWorkspace::default();
            kalman_loglik(&self.ssm(), ys, &mut ws);
            ws.filtered_state()[i]
        })
    }

    /// Mean forecasts for `h` steps past the end of `ys`.
    pub fn forecast(&self, ys: &[f64], h: usize) -> Vec<f64> {
        self.forecast_with_variance(ys, h)
            .into_iter()
            .map(|(m, _)| m)
            .collect()
    }

    /// Mean forecasts with forecast variances `Var(y_{n+j})` — state
    /// uncertainty propagated through the transition plus observation
    /// noise. Useful for prediction intervals
    /// (`mean ± z·sqrt(var)`).
    pub fn forecast_with_variance(&self, ys: &[f64], h: usize) -> Vec<(f64, f64)> {
        forecast_moments(&self.ssm(), ys, h)
    }
}

/// Fit a structural spec to a series by maximum likelihood, excluding the
/// model's own diffuse burn-in from the likelihood. An intervention model
/// instead skips as the change-point search's exclusion rule says, so its
/// AIC can be compared against the search's baseline.
///
/// # Panics
/// Panics if the series is shorter than the model's state dimension + 2
/// (not enough observations past the diffuse burn-in to score).
pub fn fit_structural(ys: &[f64], spec: StructuralSpec, opts: &FitOptions) -> FittedStructural {
    let mut extra = Vec::new();
    let skip = if spec.change_point.is_some() {
        comparable_skip(&spec, &mut extra)
    } else {
        spec.state_dim()
    };
    let mut ws = FilterWorkspace::new(spec.state_dim());
    fit_structural_ws(ys, spec, opts, skip, &extra, None, &mut ws)
}

/// The likelihood exclusions that make AICs comparable across a
/// change-point search: `skip` (returned) and `extra` (written into the
/// caller's buffer, so a loop over candidate specs allocates nothing) for
/// [`fit_structural_ws`]. This is the one exclusion rule,
/// `comparable_skip_k`, for the spec's own change point (if any) under a
/// budget of one: skip the lead (the base model's state dimension) plus the
/// change point's own innovation, or — for a change point inside the lead
/// and for the no-change baseline — the innovation right after the lead.
pub(crate) fn comparable_skip(spec: &StructuralSpec, extra: &mut Vec<usize>) -> usize {
    comparable_skip_k(spec.seasonal, spec.change_point.as_slice(), 1, extra)
}

/// The one likelihood-exclusion rule, for models with the distinct
/// `change_points` of a search that allows up to `budget` of them:
///
/// - skip the lead — the base (no-intervention) model's state dimension;
/// - skip `budget` identifying innovations: each change point's own when it
///   lies past the lead (its λ first loads there, so that innovation's
///   variance is ≈ κ under the diffuse prior), otherwise the first free
///   months after the lead;
/// - identifying months that continue the lead are folded into `skip`.
///
/// Writes the remaining identifying months, ascending, into `extra` (which
/// it clears first) and returns `skip`.
///
/// Every model the search compares — each candidate set and the no-change
/// baseline — thus scores the same *number* of observations. Without this,
/// the model that skips fewer (or cheaper) points gets a spurious
/// likelihood bump: true change points get suppressed, or the search
/// collapses to `t = 1`, with a bias that depends on the series' scale.
pub(crate) fn comparable_skip_k(
    seasonal: bool,
    change_points: &[usize],
    budget: usize,
    extra: &mut Vec<usize>,
) -> usize {
    debug_assert!(change_points.len() <= budget);
    let mut skip = lead(seasonal);
    extra.clear();
    extra.extend(change_points.iter().copied().filter(|&cp| cp >= skip));
    let mut free = skip;
    while extra.len() < budget {
        while extra.contains(&free) {
            free += 1;
        }
        extra.push(free);
    }
    extra.sort_unstable();
    while extra.first() == Some(&skip) {
        extra.remove(0);
        skip += 1;
    }
    skip
}

/// Fit by maximum likelihood with explicit likelihood exclusions — the first
/// `skip` innovations plus those at `extra_skips` — threading a caller-owned
/// [`FilterWorkspace`] through every likelihood evaluation, so a search
/// fitting dozens of candidate models reuses one set of filter buffers. The
/// SSM is built once per fit and only its disturbance variances are
/// overwritten per evaluation, so the optimisation loop performs no heap
/// allocation.
///
/// With `warm` set, Nelder–Mead runs a single start seeded at `warm`'s
/// log-variances with a tightened initial step instead of the default
/// multi-start simplex. Intended for resumable fits — refitting a series
/// that grew by one observation, where the previous optimum is an excellent
/// initial guess. The optimum found may differ slightly from a cold fit
/// (different simplex trajectory), so callers that need bit-reproducibility
/// against the batch path must compare *decisions*, not likelihoods. Warm
/// fits emit a `kf.warm_fits` counter alongside the usual `kf.fits`.
pub(crate) fn fit_structural_ws(
    ys: &[f64],
    spec: StructuralSpec,
    opts: &FitOptions,
    skip: usize,
    extra_skips: &[usize],
    warm: Option<&StructuralParams>,
    ws: &mut FilterWorkspace,
) -> FittedStructural {
    let n = ys.len();
    assert!(
        n >= skip + extra_skips.len() + 2,
        "series of length {n} too short for likelihood skip {skip}+{} (need ≥ {})",
        extra_skips.len(),
        skip + extra_skips.len() + 2
    );
    let mut ssm = spec.build(&StructuralParams::ZERO);
    ssm.n_diffuse = skip;
    ssm.extra_skips = extra_skips.to_vec();
    let (params, loglik, evals) = maximize_loglik(ys, &mut ssm, spec.seasonal, opts, warm, ws);
    let k = n_params(spec.state_dim(), spec.seasonal);
    let n_scored = (n - skip - extra_skips.len()) as f64;
    FittedStructural {
        spec,
        params,
        loglik,
        aic: aic(loglik, spec.state_dim(), spec.seasonal),
        bic: -2.0 * loglik + k as f64 * n_scored.max(1.0).ln(),
        n,
        skip,
        evals,
    }
}

/// The criteria's parameter count `k = q + w` (see the module docs) of a
/// structural model with `state_dim` states.
fn n_params(state_dim: usize, seasonal: bool) -> usize {
    state_dim + 2 + usize::from(seasonal)
}

/// `AIC = −2·logL + 2k`, with `k` as [`n_params`] counts it.
pub(crate) fn aic(loglik: f64, state_dim: usize, seasonal: bool) -> f64 {
    -2.0 * loglik + 2.0 * n_params(state_dim, seasonal) as f64
}

/// The one maximum-likelihood loop: Nelder–Mead over the log-variances
/// `[ln σ²_ε, ln σ²_ξ, (ln σ²_ω)]` of a built structural `ssm`, each
/// evaluation rewriting only the variances (see [`fit_structural_ws`] for
/// the starts). Returns the optimum's parameters, log-likelihood and the
/// evaluations spent, and leaves the optimum's variances in `ssm`.
pub(crate) fn maximize_loglik(
    ys: &[f64],
    ssm: &mut Ssm,
    seasonal: bool,
    opts: &FitOptions,
    warm: Option<&StructuralParams>,
    ws: &mut FilterWorkspace,
) -> (StructuralParams, f64, usize) {
    let _fit_span = mic_obs::span("kf.fit");
    mic_obs::counter("kf.fits", 1);
    let var_y = sample_variance(ys).max(1e-6);
    let n_var = 2 + usize::from(seasonal);

    let mut objective = |x: &[f64]| -> f64 {
        params_from_log(x, var_y).write_into(seasonal, ssm);
        // The mean of the `kf.loglik` timer is the measured C_KF (Table V).
        mic_obs::counter("kf.loglik_evals", 1);
        let eval_span = mic_obs::span("kf.loglik");
        let loglik = kalman_loglik(ssm, ys, ws);
        eval_span.end();
        if loglik.is_finite() {
            -loglik
        } else {
            f64::INFINITY
        }
    };

    // Starts: the warm path resumes from the caller's cached optimum with a
    // tightened simplex; the cold path uses the classic variance-split
    // heuristics around var(ys).
    let base = var_y.ln();
    let (starts, n_starts, initial_step): (Vec<Vec<f64>>, usize, f64) = match warm {
        Some(p) => {
            mic_obs::counter("kf.warm_fits", 1);
            let lo = (var_y * 1e-10).ln();
            let hi = (var_y * 1e4).ln().max(lo + 1.0);
            let logv = |v: f64| if v > 0.0 { v.ln().clamp(lo, hi) } else { lo };
            (
                vec![vec![
                    logv(p.var_eps),
                    logv(p.var_level),
                    logv(p.var_seasonal),
                ]],
                1,
                0.25,
            )
        }
        None => (
            vec![
                vec![base - 0.5, base - 2.0, base - 4.0],
                vec![base, base - 4.0, base - 6.0],
                vec![base - 2.0, base - 0.5, base - 3.0],
            ],
            opts.n_starts.max(1),
            1.0,
        ),
    };

    // The warm path starts next to an optimum, so it runs with a relaxed
    // stopping rule and a hard evaluation cap at a third of the cold budget:
    // a 1e-2 spread in log-variance space is far below the scale at which
    // AIC comparisons are decided, and the cap bounds the refit cost even
    // when the simplex keeps finding marginal improvements instead of
    // triggering the tolerance test. The cold path keeps the strict
    // tolerances and the full budget.
    let (f_tol, x_tol, max_evals) = if warm.is_some() {
        (1e-5, 1e-2, (opts.max_evals / 3).max(30))
    } else {
        (1e-8, 1e-6, opts.max_evals)
    };
    let nm_opts = NelderMeadOptions {
        max_evals,
        f_tol,
        x_tol,
        initial_step,
    };
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut total_evals = 0usize;
    for start in starts.iter().take(n_starts) {
        let x0: Vec<f64> = start.iter().take(n_var).copied().collect();
        let r = nelder_mead(&mut objective, &x0, &nm_opts);
        mic_obs::counter("kf.nm_evals", r.evals as u64);
        if !r.converged {
            mic_obs::counter("kf.fits_capped", 1);
        }
        total_evals += r.evals;
        match &best {
            Some((_, fx)) if *fx <= r.fx => {}
            _ => best = Some((r.x, r.fx)),
        }
    }
    let (x, neg_ll) = best.expect("at least one start");
    let params = params_from_log(&x, var_y);
    params.write_into(seasonal, ssm);
    (params, -neg_ll, total_evals)
}

/// Map unconstrained log-variances to positive variances, clamped to keep
/// the filter well-conditioned relative to the data scale.
fn params_from_log(x: &[f64], var_y: f64) -> StructuralParams {
    let lo = (var_y * 1e-10).ln();
    let hi = (var_y * 1e4).ln().max(lo + 1.0);
    let v = |i: usize| -> f64 {
        if i < x.len() {
            x[i].clamp(lo, hi).exp()
        } else {
            0.0
        }
    };
    StructuralParams {
        var_eps: v(0),
        var_level: v(1),
        var_seasonal: v(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn noisy_level(n: usize, level: f64, noise: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| level + mic_stats::dist::sample_normal(&mut rng, 0.0, noise))
            .collect()
    }

    fn seasonal_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                20.0 + 8.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                    + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.8)
            })
            .collect()
    }

    fn slope_break_series(n: usize, cp: usize, slope: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let w = if t >= cp { (t - cp + 1) as f64 } else { 0.0 };
                10.0 + slope * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.5)
            })
            .collect()
    }

    /// [`comparable_skip`] as a `(skip, extra)` pair.
    fn skips(spec: &StructuralSpec) -> (usize, Vec<usize>) {
        let mut extra = vec![99];
        let skip = comparable_skip(spec, &mut extra);
        (skip, extra)
    }

    /// Months `0..n` a fit with these exclusions scores.
    fn scored(n: usize, (skip, extra): (usize, Vec<usize>)) -> Vec<usize> {
        (skip..n).filter(|t| !extra.contains(t)).collect()
    }

    #[test]
    fn comparable_skip_scores_what_the_single_search_always_scored() {
        let n = 43;
        for seasonal in [false, true] {
            let lead = lead(seasonal);
            let base = StructuralSpec {
                seasonal,
                change_point: None,
            };
            let after_lead: Vec<usize> = (lead + 1..n).collect();
            assert_eq!(scored(n, skips(&base)), after_lead);
            for cp in crate::changepoint::candidates(n) {
                let spec = StructuralSpec {
                    change_point: Some(cp),
                    ..base
                };
                let expected: Vec<usize> = if cp < lead {
                    after_lead.clone()
                } else {
                    (lead..n).filter(|&t| t != cp).collect()
                };
                assert_eq!(
                    scored(n, skips(&spec)),
                    expected,
                    "seasonal {seasonal}, cp {cp}"
                );
            }
        }
    }

    /// [`comparable_skip_k`] as a `(skip, extra)` pair.
    fn skip_k(seasonal: bool, change_points: &[usize], budget: usize) -> (usize, Vec<usize>) {
        let mut extra = vec![99];
        let skip = comparable_skip_k(seasonal, change_points, budget, &mut extra);
        (skip, extra)
    }

    #[test]
    fn comparable_skip_k_resolves_change_points_inside_the_lead() {
        // A change point inside the lead takes the first free month after
        // it; one that lands on a month already taken pushes the next
        // neutral slot on. Either way each model skips lead + budget months:
        // here all of `0..first_scored`.
        for (change_points, budget, first_scored) in [
            (vec![3, 12], 2, 14),
            (vec![3, 4, 12], 3, 15),
            (vec![], 3, 15),
            (vec![12], 3, 15),
        ] {
            let skips = skip_k(true, &change_points, budget);
            let expected: Vec<usize> = (first_scored..40).collect();
            assert_eq!(scored(40, skips), expected, "{change_points:?}");
        }
        // Change points past the lead skip their own month.
        assert_eq!(skip_k(true, &[3, 20], 2), (13, vec![20]));
        assert_eq!(skip_k(false, &[10, 30], 3), (2, vec![10, 30]));
    }

    #[test]
    fn local_level_recovers_noise_variance_scale() {
        let ys = noisy_level(120, 50.0, 2.0, 1);
        let fit = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        // σ²_ε should approximate 4 and dominate σ²_ξ.
        assert!(
            fit.params.var_eps > 1.5 && fit.params.var_eps < 8.0,
            "var_eps = {}",
            fit.params.var_eps
        );
        assert!(
            fit.params.var_level < fit.params.var_eps,
            "level var should be tiny"
        );
    }

    #[test]
    fn seasonal_model_beats_local_level_on_seasonal_data() {
        let ys = seasonal_series(48, 2);
        let ll = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        let lls = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        assert!(
            lls.aic < ll.aic,
            "seasonal AIC {} !< LL AIC {}",
            lls.aic,
            ll.aic
        );
    }

    #[test]
    fn intervention_model_wins_on_broken_series() {
        let ys = slope_break_series(43, 25, 1.5, 3);
        let ll = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        let lli = fit_structural(
            &ys,
            StructuralSpec::with_intervention(25),
            &FitOptions::default(),
        );
        assert!(
            lli.aic < ll.aic,
            "intervention AIC {} !< LL AIC {}",
            lli.aic,
            ll.aic
        );
    }

    #[test]
    fn criteria_count_states_and_variances() {
        // k = q + w: every state, plus σ²_ε and σ²_ξ, plus σ²_ω when seasonal.
        for (spec, k) in [
            (StructuralSpec::local_level(), 1 + 2),
            (StructuralSpec::with_seasonal(), 12 + 3),
            (StructuralSpec::with_intervention(0), 2 + 2),
            (StructuralSpec::full(0), 13 + 3),
        ] {
            assert_eq!(n_params(spec.state_dim(), spec.seasonal), k, "{spec:?}");
            let want = -2.0 * -10.5 + 2.0 * k as f64;
            assert_eq!(aic(-10.5, spec.state_dim(), spec.seasonal), want);
        }
    }

    #[test]
    fn decomposed_lambda_is_the_last_filtered_state() {
        let opts = FitOptions {
            max_evals: 150,
            n_starts: 1,
        };
        for (ys, spec) in [
            (
                slope_break_series(43, 20, 2.0, 4),
                StructuralSpec::with_intervention(20),
            ),
            (seasonal_series(43, 5), StructuralSpec::full(30)),
        ] {
            let fit = fit_structural(&ys, spec, &opts);
            let filtered = kalman_filter(&fit.ssm(), &ys);
            let li = spec.lambda_index().expect("intervention model");
            let last = filtered.filtered_means[ys.len() - 1][li].to_bits();
            assert_eq!(fit.decompose(&ys).lambda.to_bits(), last, "{spec:?}");
            assert_eq!(fit.lambda(&ys).to_bits(), last, "{spec:?}");
        }
    }

    #[test]
    fn decomposition_recovers_lambda() {
        let ys = slope_break_series(43, 20, 2.0, 4);
        let fit = fit_structural(
            &ys,
            StructuralSpec::with_intervention(20),
            &FitOptions::default(),
        );
        let c = fit.decompose(&ys);
        assert!(
            (c.lambda - 2.0).abs() < 0.4,
            "λ should be ≈ 2, got {}",
            c.lambda
        );
        // Intervention component is zero before the break.
        for t in 0..20 {
            assert_eq!(c.intervention[t], 0.0, "t = {t}");
        }
        assert!(c.intervention[42] > 30.0);
    }

    #[test]
    fn decomposition_components_sum_to_fitted() {
        let ys = seasonal_series(40, 5);
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let c = fit.decompose(&ys);
        for (t, &y) in ys.iter().enumerate() {
            let sum = c.level[t] + c.seasonal[t] + c.intervention[t];
            assert!((c.fitted[t] - sum).abs() < 1e-9);
            assert!((c.irregular[t] - (y - sum)).abs() < 1e-9);
        }
    }

    #[test]
    fn seasonal_component_has_near_zero_annual_mean() {
        let ys = seasonal_series(48, 6);
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let c = fit.decompose(&ys);
        let year_mean: f64 = c.seasonal[12..24].iter().sum::<f64>() / 12.0;
        let amplitude = c.seasonal.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        assert!(amplitude > 3.0, "seasonal amplitude {amplitude} too small");
        assert!(
            year_mean.abs() < 0.35 * amplitude,
            "annual mean {year_mean} vs amp {amplitude}"
        );
    }

    #[test]
    fn aic_penalises_unneeded_intervention() {
        // On a pure level series, adding the intervention must not improve
        // AIC (the likelihood gain is < the 1-unit penalty, generically).
        let ys = noisy_level(43, 30.0, 1.0, 7);
        let ll = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        let lli = fit_structural(
            &ys,
            StructuralSpec::with_intervention(21),
            &FitOptions::default(),
        );
        assert!(
            lli.aic > ll.aic - 2.0,
            "intervention should not materially improve a flat series: {} vs {}",
            lli.aic,
            ll.aic
        );
    }

    #[test]
    fn forecast_continues_seasonal_pattern() {
        let ys = seasonal_series(48, 8);
        let train = &ys[..36];
        let fit = fit_structural(
            train,
            StructuralSpec::with_seasonal(),
            &FitOptions::default(),
        );
        let fc = fit.forecast(train, 12);
        assert_eq!(fc.len(), 12);
        let rmse = mic_stats::rmse(&ys[36..48], &fc);
        assert!(rmse < 3.0, "seasonal forecast RMSE = {rmse}");
        // A local-level forecast must be worse on strongly seasonal data.
        let ll_fit = fit_structural(train, StructuralSpec::local_level(), &FitOptions::default());
        let ll_fc = ll_fit.forecast(train, 12);
        let ll_rmse = mic_stats::rmse(&ys[36..48], &ll_fc);
        assert!(rmse < ll_rmse, "{rmse} !< {ll_rmse}");
    }

    #[test]
    fn forecast_continues_slope_after_break() {
        let ys = slope_break_series(43, 20, 1.0, 9);
        let train = &ys[..36];
        let fit = fit_structural(
            train,
            StructuralSpec::with_intervention(20),
            &FitOptions::default(),
        );
        let fc = fit.forecast(train, 7);
        let rmse = mic_stats::rmse(&ys[36..43], &fc);
        assert!(rmse < 2.5, "post-break forecast RMSE = {rmse}");
        // Forecasts keep climbing.
        assert!(fc[6] > fc[0]);
    }

    #[test]
    fn forecast_variance_grows_with_horizon() {
        let ys = noisy_level(40, 25.0, 1.5, 10);
        let fit = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
        let fc = fit.forecast_with_variance(&ys, 10);
        assert_eq!(fc.len(), 10);
        for w in fc.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "variance must not shrink: {:?}",
                fc
            );
        }
        // Variance at step 1 is at least the observation variance.
        assert!(fc[0].1 >= fit.params.var_eps);
        // ~95% of actual draws should fall inside mean ± 2 sd at h=1; just
        // sanity-check the interval has sensible width (a few noise sds).
        let width = 2.0 * fc[0].1.sqrt();
        assert!(width > 1.0 && width < 15.0, "interval half-width {width}");
    }

    #[test]
    fn forecast_mean_matches_plain_forecast() {
        let ys = seasonal_series(48, 11);
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let plain = fit.forecast(&ys, 6);
        let with_var = fit.forecast_with_variance(&ys, 6);
        for (a, (b, _)) in plain.iter().zip(&with_var) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn seasonal_forecast_is_pinned_bit_for_bit() {
        // Means and variances are pinned to the bit: the sparse predict
        // step must match the dense `T P Tᵀ` products exactly.
        let mut rng = SmallRng::seed_from_u64(9);
        let ys: Vec<f64> = (0..36)
            .map(|t| {
                60.0 + 15.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                    + mic_stats::dist::sample_normal(&mut rng, 0.0, 2.0)
            })
            .collect();
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let got: Vec<(u64, u64)> = fit
            .forecast_with_variance(&ys, 12)
            .iter()
            .map(|&(m, v)| (m.to_bits(), v.to_bits()))
            .collect();
        let expected: [(u64, u64); 12] = [
            (4633860934408765000, 4618039072831443195),
            (4634499737250063096, 4618059770678817134),
            (4634871466544664273, 4618059746859537108),
            (4634831771469576099, 4618059746733379992),
            (4634827428022517364, 4618059746732637336),
            (4634360879833946946, 4618059746732808866),
            (4633693156888020354, 4618059746732689370),
            (4632416838895264137, 4618059746732708621),
            (4631934779884983345, 4618059746733297550),
            (4631603037603009376, 4618059746874297858),
            (4631405425162552835, 4618059778236479658),
            (4632759032000710540, 4618067596646468336),
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn warm_fit_matches_cold_fit_quality() {
        // Refit a series that grew by one point, warm-started from the
        // previous optimum: the warm fit must reach (essentially) the same
        // likelihood as a cold multi-start fit, in a fraction of the evals.
        let ys = noisy_level(60, 40.0, 1.5, 21);
        let spec = StructuralSpec::local_level();
        let opts = FitOptions::default();
        let prev = fit_structural(&ys[..59], spec, &opts);
        let cold = fit_structural(&ys, spec, &opts);
        let mut ws = crate::kalman::FilterWorkspace::new(spec.state_dim());
        let warm = fit_structural_ws(
            &ys,
            spec,
            &opts,
            spec.state_dim(),
            &[],
            Some(&prev.params),
            &mut ws,
        );
        assert!(
            warm.loglik >= cold.loglik - 0.05,
            "warm loglik {} far below cold {}",
            warm.loglik,
            cold.loglik
        );
        assert!(
            warm.evals <= cold.evals / 2,
            "warm evals {} should undercut cold {}",
            warm.evals,
            cold.evals
        );
        assert_eq!(warm.skip, cold.skip);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_series_panics() {
        fit_structural(
            &[1.0, 2.0, 3.0],
            StructuralSpec::with_seasonal(),
            &FitOptions::default(),
        );
    }
}
