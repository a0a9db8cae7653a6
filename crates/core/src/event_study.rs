//! Event-study analysis of known market events.
//!
//! The change-point search *discovers* when a series broke; an event study
//! answers the complementary question for an event whose date is **known**
//! (a price revision, a reimbursement change, an announced indication
//! expansion): how large is the effect, and is it distinguishable from
//! noise? The slope-shift intervention is fitted *at* the event month, λ is
//! read off with its smoothed confidence interval, and the AIC is compared
//! against the no-intervention model.

use mic_statespace::{
    comparable_skip, fit_structural_ws, FilterWorkspace, FitOptions, InterventionSpec,
    StructuralSpec,
};

/// Result of an event study on one series.
#[derive(Clone, Debug)]
pub struct EventStudy {
    /// The (known) event month the intervention was anchored at.
    pub event_month: usize,
    /// Estimated slope shift per month from the event on.
    pub lambda: f64,
    /// 95% confidence interval for λ from the smoothed state covariance.
    pub lambda_ci: (f64, f64),
    /// AIC of the intervention model.
    pub aic: f64,
    /// AIC of the no-intervention counterfactual.
    pub aic_baseline: f64,
    /// Cumulative effect at the end of the window: `λ · w_T` (how many
    /// monthly units the series has gained/lost since the event).
    pub cumulative_effect: f64,
}

impl EventStudy {
    /// The effect is significant when the 95% CI excludes zero *and* the
    /// intervention model beats the baseline AIC.
    pub fn significant(&self) -> bool {
        let (lo, hi) = self.lambda_ci;
        (lo > 0.0 || hi < 0.0) && self.aic < self.aic_baseline
    }
}

/// Run an event study: fit the intervention model anchored at `event_month`
/// and the no-intervention baseline, with the same likelihood convention as
/// the change-point search so the AICs are comparable.
///
/// # Panics
/// Panics if `event_month` is outside `1..ys.len()−2` (the identified
/// range) or the series is too short.
pub fn event_study(
    ys: &[f64],
    event_month: usize,
    seasonal: bool,
    opts: &FitOptions,
) -> EventStudy {
    let n = ys.len();
    assert!(
        (1..n.saturating_sub(2)).contains(&event_month),
        "event month {event_month} outside the identified range 1..{}",
        n.saturating_sub(2)
    );
    let spec = if seasonal {
        StructuralSpec::full(event_month)
    } else {
        StructuralSpec::with_intervention(event_month)
    };
    let base_spec = if seasonal {
        StructuralSpec::with_seasonal()
    } else {
        StructuralSpec::local_level()
    };
    // Same-data comparison: both fits skip exactly what the change-point
    // search skips, so the AICs are comparable.
    let fit_comparable = |spec: StructuralSpec| {
        let (skip, extra) = comparable_skip(&spec);
        let mut ws = FilterWorkspace::new(spec.state_dim());
        fit_structural_ws(ys, spec, opts, skip, extra.as_slice(), None, &mut ws)
    };
    let fit = fit_comparable(spec);
    let baseline = fit_comparable(base_spec);
    let lambda_ci = fit
        .lambda_confidence(ys, 1.96)
        .expect("intervention model has λ");
    let components = fit.decompose(ys);
    let w_last = InterventionSpec::SlopeShift {
        change_point: event_month,
    }
    .w(n - 1);
    EventStudy {
        event_month,
        lambda: components.lambda,
        lambda_ci,
        aic: fit.aic,
        aic_baseline: baseline.aic,
        cumulative_effect: components.lambda * w_last,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn series_with_event(n: usize, event: usize, slope: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let w = if t >= event {
                    (t - event + 1) as f64
                } else {
                    0.0
                };
                40.0 + slope * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
            })
            .collect()
    }

    fn opts() -> FitOptions {
        FitOptions {
            max_evals: 250,
            n_starts: 1,
        }
    }

    #[test]
    fn real_event_is_significant_with_correct_sign() {
        // A price discount at month 18 boosts prescriptions by ~1.2/month.
        let ys = series_with_event(43, 18, 1.2, 1);
        let study = event_study(&ys, 18, false, &opts());
        assert!(study.significant(), "study: {study:?}");
        assert!((study.lambda - 1.2).abs() < 0.35, "λ = {}", study.lambda);
        let (lo, hi) = study.lambda_ci;
        assert!(lo > 0.0, "CI [{lo:.2}, {hi:.2}] must exclude zero");
        // Cumulative effect ≈ λ · 25 remaining months.
        assert!((study.cumulative_effect - study.lambda * 25.0).abs() < 1e-9);
    }

    #[test]
    fn null_event_is_not_significant() {
        let ys = series_with_event(43, 18, 0.0, 2);
        let study = event_study(&ys, 18, false, &opts());
        assert!(!study.significant(), "null event flagged: {study:?}");
        assert!(study.lambda.abs() < 0.4, "λ = {}", study.lambda);
    }

    #[test]
    fn negative_event_detected() {
        // A price increase suppressing use.
        let ys = series_with_event(43, 20, -1.5, 3);
        let study = event_study(&ys, 20, false, &opts());
        assert!(study.significant());
        assert!(study.lambda < -1.0);
        assert!(study.lambda_ci.1 < 0.0);
        assert!(study.cumulative_effect < -20.0);
    }

    #[test]
    fn aics_match_the_exact_search_bitwise() {
        // The study and the search share one skip rule, so the study's two
        // AICs are exactly the search's candidate and baseline scores. The
        // seasonal case puts one event inside the 12-month lead, which takes
        // the rule's other branch.
        use mic_statespace::{search, SearchPlan};
        let cases = [
            (series_with_event(43, 18, 1.2, 1), false, [18, 30]),
            (series_with_event(30, 20, 1.0, 5), true, [5, 20]),
        ];
        for (ys, seasonal, events) in cases {
            let exact = search(&ys, seasonal, &opts(), &SearchPlan::default());
            for event in events {
                let study = event_study(&ys, event, seasonal, &opts());
                let what = format!("seasonal={seasonal} event={event}");
                assert_eq!(
                    study.aic.to_bits(),
                    exact.aic_by_candidate[&event].to_bits(),
                    "{what}: aic"
                );
                assert_eq!(
                    study.aic_baseline.to_bits(),
                    exact.aic_no_change.to_bits(),
                    "{what}: aic_baseline"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the identified range")]
    fn boundary_event_panics() {
        let ys = series_with_event(43, 20, 1.0, 4);
        event_study(&ys, 42, false, &opts());
    }
}
