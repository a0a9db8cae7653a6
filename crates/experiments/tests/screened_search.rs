//! Agreement of the screened change-point search — the pipeline's
//! approximate mode — with Algorithm 1 (exhaustive search).
//!
//! Both searches fit the baseline and every candidate they keep with the
//! same deterministic cold fit, so two properties hold by construction and
//! are asserted here: a screened positive is also an exact positive (the
//! screened winner is one of Algorithm 1's candidates, and Algorithm 1's
//! best is at least as good), and the exact AIC is never above the screened
//! AIC. Decisions may still differ where the screen misses Algorithm 1's
//! best month; every such disagreement is printed with both AICs (run with
//! `--nocapture` to see them).
//!
//! The test lives in `mic-experiments` because this crate already depends
//! on `mic-statespace` and owns the scenario worlds.

use mic_experiments::comparison::build_evaluation_panel;
use mic_statespace::{search, Algorithm, ChangePointSearch, FitOptions, SearchPlan};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The pipeline's fit budget (`mictrend analyze`).
fn fit() -> FitOptions {
    FitOptions {
        max_evals: 150,
        n_starts: 1,
    }
}

fn exact(ys: &[f64], seasonal: bool) -> ChangePointSearch {
    let plan = SearchPlan {
        algorithm: Algorithm::Exact { threads: 2 },
        ..SearchPlan::default()
    };
    search(ys, seasonal, &fit(), &plan)
}

fn screened(ys: &[f64], seasonal: bool) -> ChangePointSearch {
    let plan = SearchPlan {
        algorithm: Algorithm::Screened,
        ..SearchPlan::default()
    };
    search(ys, seasonal, &fit(), &plan)
}

/// Check the two structural properties on one series and print a decision
/// disagreement with both AICs. Returns whether the decisions agree.
fn compare(what: &str, ys: &[f64], seasonal: bool) -> Result<bool, String> {
    let e = exact(ys, seasonal);
    let s = screened(ys, seasonal);
    if s.change_point.is_some() && !e.change_point.is_some() {
        return Err(format!(
            "{what}: screened {} (AIC {:.3}) but exact ∞ (AIC {:.3})",
            s.change_point, s.aic, e.aic
        ));
    }
    if e.aic > s.aic {
        return Err(format!(
            "{what}: exact AIC {:.6} above screened AIC {:.6}",
            e.aic, s.aic
        ));
    }
    if s.change_point != e.change_point {
        println!(
            "{what}: screened {} AIC {:.3}, exact {} AIC {:.3} (baseline {:.3})",
            s.change_point, s.aic, e.change_point, e.aic, e.aic_no_change
        );
        return Ok(false);
    }
    // The same decision comes from the same deterministic fit.
    if s.aic.to_bits() != e.aic.to_bits() {
        return Err(format!(
            "{what}: same decision {} but AIC {} vs {}",
            s.change_point, s.aic, e.aic
        ));
    }
    Ok(true)
}

#[test]
fn screened_agrees_with_exact_on_the_evaluation_panel() {
    // Every disease and medicine series of the Tables IV–VI evaluation
    // world (43 months, seasonal) and an even sample of its prescription
    // pairs.
    let eval = build_evaluation_panel(10);
    let keys: Vec<_> = eval
        .diseases
        .iter()
        .chain(&eval.medicines)
        .chain(&eval.prescriptions)
        .copied()
        .collect();
    let mut agree = 0;
    for &key in &keys {
        match compare(&key.to_string(), eval.series(key), true) {
            Ok(a) => agree += usize::from(a),
            Err(e) => panic!("{e}"),
        }
    }
    println!(
        "evaluation panel: {agree} of {} decisions agree",
        keys.len()
    );
}

/// A level-10 series with a slope shift of `slope` from month `cp` on,
/// plus Gaussian noise of sd `noise` (and a yearly cycle when `seasonal`).
fn planted(n: usize, cp: usize, slope: f64, noise: f64, seasonal: bool, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|t| {
            let w = if t >= cp { (t - cp + 1) as f64 } else { 0.0 };
            let s = if seasonal {
                3.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
            } else {
                0.0
            };
            10.0 + s + slope * w + mic_stats::dist::sample_normal(&mut rng, 0.0, noise)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn screened_agrees_with_exact_on_planted_slope_breaks(
        seed in 0u64..10_000,
        n in 30usize..70,
        cp_frac in 0.2..0.9f64,
        slope in -1.5..1.5f64,
        noise in 0.2..2.0f64,
        seasonal in any::<bool>(),
    ) {
        let cp = ((n as f64 * cp_frac) as usize).clamp(1, n - 3);
        let ys = planted(n, cp, slope, noise, seasonal, seed);
        let what = format!("n={n} cp={cp} slope={slope:.2} noise={noise:.2} seasonal={seasonal}");
        if let Err(e) = compare(&what, &ys, seasonal) {
            return Err(TestCaseError::fail(e));
        }
    }
}
