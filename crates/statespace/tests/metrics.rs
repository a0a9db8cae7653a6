//! Instrumentation contract of the change-point searches: the `kf.*`
//! counters must agree with the per-search `fits_performed` bookkeeping and
//! exhibit the Table V complexity split — exact search O(T) fits, binary
//! search O(log T), the screened search about three fits plus one screen
//! pass per candidate — and `kf.fits_capped` must count exactly the
//! optimiser starts that ran out of evaluations.
//!
//! This lives in its own integration-test binary (own process) so no other
//! test's recording can leak into the global recorder.

use mic_statespace::{fit_structural, search, Algorithm, FitOptions, SearchPlan, StructuralSpec};

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
fn screened_search_counts_its_fits_and_screen_passes() {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::enable();
    let opts = FitOptions {
        max_evals: 60,
        n_starts: 1,
    };
    let ys = series();
    let plan = SearchPlan {
        algorithm: Algorithm::Screened,
        ..SearchPlan::default()
    };
    let found = search(&ys, false, &opts, &plan);
    let snap = mic_obs::snapshot();
    mic_obs::disable();

    assert_eq!(snap.counter("kf.searches_screened"), 1);
    assert_eq!(snap.counter("kf.searches_approx"), 0);
    assert_eq!(
        snap.counter("kf.fits_screened"),
        found.fits_performed as u64
    );
    assert_eq!(snap.counter("kf.fits"), found.fits_performed as u64);
    // The baseline and the two best-screened candidates, plus any descent.
    assert!((3..=6).contains(&found.fits_performed));
    // One screen pass per candidate month (T − 3 = 40), each a C_KF
    // evaluation on the same counter and timer as the optimiser's.
    assert_eq!(snap.counter("kf.screen_evals"), 40);
    let evals = snap.counter("kf.loglik_evals");
    assert_eq!(evals, snap.counter("kf.nm_evals") + 40);
    assert_eq!(snap.timer("kf.loglik").unwrap().count, evals);
    // The pipeline's approximate mode keeps Algorithm 2's span.
    assert_eq!(snap.timer("kf.search.approx").unwrap().count, 1);
}

/// `kf.fits_capped` after one single-start local-level fit of `series()`.
fn capped_count(max_evals: usize) -> u64 {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::enable();
    let opts = FitOptions {
        max_evals,
        n_starts: 1,
    };
    let fit = fit_structural(&series(), StructuralSpec::local_level(), &opts);
    let snap = mic_obs::snapshot();
    mic_obs::disable();
    assert_eq!(snap.counter("kf.fits"), 1);
    assert_eq!(fit.evals as u64, snap.counter("kf.nm_evals"));
    snap.counter("kf.fits_capped")
}

#[test]
fn fits_capped_counts_a_start_that_runs_out_of_evaluations() {
    assert_eq!(capped_count(5), 1);
}

#[test]
fn fits_capped_stays_zero_for_a_converged_fit() {
    assert_eq!(capped_count(20_000), 0);
}
