//! Instrumentation contract of the change-point searches: the `kf.*`
//! counters must agree with the per-search `fits_performed` bookkeeping and
//! exhibit the Table V complexity split — exact search O(T) fits, binary
//! search O(log T). The steady-state counters must show the fast path
//! covering most of a long local-level series.
//!
//! This lives in its own integration-test binary (own process) so no other
//! test's recording can leak into the global recorder.

use mic_statespace::{
    kalman_loglik, search, FilterWorkspace, FitOptions, SearchPlan, SteadyStateOpts,
    StructuralParams, StructuralSpec,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// 43 months (the paper's horizon) with a clear level shift at month 25
/// plus a small deterministic wiggle so fits are non-degenerate.
fn series() -> Vec<f64> {
    (0..43)
        .map(|t| {
            let base = if t < 25 { 5.0 } else { 12.0 };
            base + ((t * 7) % 5) as f64 * 0.1
        })
        .collect()
}

#[test]
fn search_counters_match_fits_and_complexity() {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::enable();
    let opts = FitOptions {
        max_evals: 60,
        n_starts: 1,
        ..FitOptions::default()
    };
    let ys = series();
    let exact = search(&ys, false, &opts, &SearchPlan::default());
    let approx = search(&ys, false, &opts, &SearchPlan::approximate());
    let snap = mic_obs::snapshot();
    mic_obs::disable();

    // One search of each flavour ran.
    assert_eq!(snap.counter("kf.searches_exact"), 1);
    assert_eq!(snap.counter("kf.searches_approx"), 1);

    // The global counters agree with the searches' own bookkeeping, and
    // nothing else fitted in between.
    assert_eq!(snap.counter("kf.fits_exact"), exact.fits_performed as u64);
    assert_eq!(snap.counter("kf.fits_approx"), approx.fits_performed as u64);
    assert_eq!(
        snap.counter("kf.fits"),
        (exact.fits_performed + approx.fits_performed) as u64
    );
    assert_eq!(
        snap.counter("kf.candidates_exact"),
        exact.aic_by_candidate.len() as u64
    );
    assert_eq!(
        snap.counter("kf.candidates_approx"),
        approx.aic_by_candidate.len() as u64
    );

    // Complexity split for T = 43: the exhaustive search fits every interior
    // candidate (T − 3 = 40) plus the no-change baseline; the binary search
    // stays within ~2·log₂(T) probes plus a few hill-descent refinements.
    assert_eq!(snap.counter("kf.fits_exact"), 41);
    assert!(
        snap.counter("kf.fits_approx") <= 20,
        "approx fits = {}",
        snap.counter("kf.fits_approx")
    );
    assert!(snap.counter("kf.fits_approx") * 2 < snap.counter("kf.fits_exact"));

    // Every fit drives the optimiser through Kalman likelihood evaluations,
    // and the C_KF timer saw exactly as many samples as the counter says.
    let evals = snap.counter("kf.loglik_evals");
    assert!(evals > 0);
    assert_eq!(snap.timer("kf.loglik").unwrap().count, evals);
    assert!(snap.counter("kf.nm_evals") > 0);

    // The per-search wall-time timers saw one exact and one approx search.
    assert_eq!(snap.timer("kf.search.exact").unwrap().count, 1);
    assert_eq!(snap.timer("kf.search.approx").unwrap().count, 1);
}

#[test]
fn steady_state_covers_most_of_a_long_local_level_series() {
    // T = 120 monthly points: level 30, a ±5 yearly wave, N(0, 1) noise.
    let mut rng = SmallRng::seed_from_u64(1);
    let ys: Vec<f64> = (0..120)
        .map(|t| {
            30.0 + 5.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
        })
        .collect();
    let params = StructuralParams {
        var_eps: 1.0,
        var_level: 0.1,
        var_seasonal: 0.0,
    };
    let spec = StructuralSpec::local_level();
    let ssm = spec.build(&params, ys.len());
    let mut ws = FilterWorkspace::new(spec.state_dim());

    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::enable();
    kalman_loglik(&ssm, &ys, &mut ws, &SteadyStateOpts::default());
    let snap = mic_obs::snapshot();
    mic_obs::disable();

    // The local-level covariance settles within a few dozen steps, so the
    // frozen-gain phase must cover at least half the series: the least a
    // 2× saving needs even if steady steps cost nothing.
    assert_eq!(snap.counter("kf.steady_entered"), 1);
    let steady = snap.counter("kf.steady_steps");
    assert!(steady >= 60, "steady steps = {steady} of 120");
}
