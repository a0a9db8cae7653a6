//! Multiple change points — the paper's stated extension ("state space
//! models can accept more than one intervention variable", Section IX).
//!
//! The model generalises the single slope shift to `K` intervention states
//! `Σ_k λ_k · w_t^{(k)}`, each with its own change point. Detection is a
//! greedy forward search: find the best single change point (Algorithm 1 or
//! 2), then — holding accepted points fixed — search for the next one, and
//! stop as soon as adding a point no longer lowers the AIC. The models are
//! built by the single-intervention code's builder, and every model of the
//! search scores the same observations under its exclusion rule
//! (`estimate::comparable_skip_k` with the search's intervention budget).

use crate::changepoint::candidates;
use crate::estimate::{aic, comparable_skip_k, maximize_loglik, FitOptions};
use crate::kalman::{kalman_loglik, FilterWorkspace};
use crate::structural::{build_ssm, lead, StructuralParams};

/// A fitted multi-intervention model.
struct FittedMulti {
    /// Change points (ascending) with their λs.
    points: Vec<(usize, f64)>,
    aic: f64,
}

/// Fit the structural model with a slope shift at each of the ascending
/// `change_points`, excluding from the likelihood what
/// [`comparable_skip_k`] says for the round's intervention `budget`, and
/// read out the λs.
fn fit_multi(
    ys: &[f64],
    seasonal: bool,
    change_points: &[usize],
    opts: &FitOptions,
    budget: usize,
    ws: &mut FilterWorkspace,
) -> FittedMulti {
    let n = ys.len();
    let mut ssm = build_ssm(seasonal, change_points, &StructuralParams::ZERO);
    ssm.n_diffuse = comparable_skip_k(seasonal, change_points, budget, &mut ssm.extra_skips);
    assert!(
        n > ssm.n_diffuse + ssm.extra_skips.len() + 2,
        "series of length {n} too short for {budget} interventions"
    );
    let single_start = FitOptions {
        n_starts: 1,
        ..*opts
    };
    let (_, loglik, _) = maximize_loglik(ys, &mut ssm, seasonal, &single_start, None, ws);
    // The λs are noise-free states, so their estimate from the whole series
    // is the filtered state at the last month (one more likelihood pass,
    // only for the winning parameters, which the MLE left in `ssm`).
    kalman_loglik(&ssm, ys, ws);
    let lambdas = &ws.filtered_state()[lead(seasonal)..];
    FittedMulti {
        points: change_points
            .iter()
            .copied()
            .zip(lambdas.iter().copied())
            .collect(),
        aic: aic(loglik, ssm.state_dim(), seasonal),
    }
}

/// Result of the greedy multi-change-point search.
#[derive(Clone, Debug)]
pub struct MultiChangePoints {
    /// Accepted change points in ascending order with their λs.
    pub points: Vec<(usize, f64)>,
    /// AIC of the final model.
    pub aic: f64,
    /// AIC trace: entry `k` is the best AIC with `k` change points
    /// (`points.len() + 1` entries; a provisional point confirmed by its
    /// pair keeps its own, higher, entry).
    pub aic_trace: Vec<f64>,
}

/// Greedy forward detection of up to `max_points` slope shifts with
/// one-step lookahead: at each round, try every remaining candidate
/// alongside the accepted points and keep the best. If no single addition
/// improves the AIC, the best candidate is accepted *provisionally* and one
/// more round is tried — a pair of opposing slope shifts (up then down) can
/// improve the fit even though neither alone does; the provisional chain is
/// kept only if it ends below the incumbent AIC.
///
/// Returns `None` when the series is too short to score even the
/// no-change model (`ys.len() ≤ lead + 2`, where the lead is the base
/// model's state dimension: 12 seasonal, 1 otherwise).
pub fn detect_multiple(
    ys: &[f64],
    seasonal: bool,
    max_points: usize,
    opts: &FitOptions,
) -> Option<MultiChangePoints> {
    let n = ys.len();
    let lead = lead(seasonal);
    if n <= lead + 2 {
        return None;
    }
    // Budget the skip count by the max interventions so all rounds compare
    // the same scored set.
    let budget = max_points.min((n.saturating_sub(lead + 3)) / 2);
    let mut accepted: Vec<usize> = Vec::new();
    // One filter workspace serves every fit of the greedy search.
    let mut ws = FilterWorkspace::new(lead + 1);
    let mut best_fit = fit_multi(ys, seasonal, &[], opts, budget, &mut ws);
    let mut aic_trace = vec![best_fit.aic];
    // The AIC of the one provisional (not-yet-improving) step in flight.
    let mut provisional = None;

    for _round in 0..budget {
        let mut round_best: Option<(usize, FittedMulti)> = None;
        for cp in candidates(n) {
            if accepted.contains(&cp) {
                continue;
            }
            // Require ≥ 4 months between change points: adjacent slope
            // shifts are barely distinguishable.
            if accepted.iter().any(|&a| (a as i64 - cp as i64).abs() < 4) {
                continue;
            }
            let mut pts = accepted.clone();
            pts.push(cp);
            pts.sort_unstable();
            let fit = fit_multi(ys, seasonal, &pts, opts, budget, &mut ws);
            if round_best.as_ref().is_none_or(|(_, b)| fit.aic < b.aic) {
                round_best = Some((cp, fit));
            }
        }
        let Some((cp, fit)) = round_best else { break };
        if fit.aic < best_fit.aic {
            accepted.push(cp);
            aic_trace.extend(provisional.take());
            aic_trace.push(fit.aic);
            best_fit = fit;
        } else if accepted.is_empty() {
            // Lookahead: tentatively accept and give the pair a chance.
            accepted.push(cp);
            provisional = Some(fit.aic);
        } else {
            break;
        }
    }

    Some(MultiChangePoints {
        points: best_fit.points,
        aic: best_fit.aic,
        aic_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn double_break(n: usize, cp1: usize, s1: f64, cp2: usize, s2: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let w1 = if t >= cp1 { (t - cp1 + 1) as f64 } else { 0.0 };
                let w2 = if t >= cp2 { (t - cp2 + 1) as f64 } else { 0.0 };
                20.0 + s1 * w1 + s2 * w2 + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.6)
            })
            .collect()
    }

    fn opts() -> FitOptions {
        FitOptions {
            max_evals: 200,
            n_starts: 1,
        }
    }

    #[test]
    fn build_ssm_dimensions() {
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        for (seasonal, change_points, dim) in [
            (false, vec![], 1),
            (true, vec![], 12),
            (false, vec![7], 2),
            (true, vec![7], 13),
            (false, vec![5, 20], 3),
            (true, vec![5, 20], 14),
        ] {
            let ssm = build_ssm(seasonal, &change_points, &params);
            assert_eq!(ssm.state_dim(), dim, "{seasonal} {change_points:?}");
            assert!(ssm.validate().is_ok(), "{seasonal} {change_points:?}");
            let base = lead(seasonal);
            let mut z = vec![f64::NAN; dim];
            // Months of a 40-month series, and one far past any series.
            for t in [0, 4, 5, 6, 19, 20, 39, 10_000] {
                ssm.load_z(t, &mut z);
                assert_eq!(z[0], 1.0);
                if seasonal {
                    assert_eq!(z[1], 1.0);
                    assert!(z[2..base].iter().all(|&v| v == 0.0));
                }
                // One λ loading column per change point, in order.
                for (k, &cp) in change_points.iter().enumerate() {
                    let w = if t >= cp { (t - cp + 1) as f64 } else { 0.0 };
                    assert_eq!(z[base + k], w, "t = {t}, cp = {cp}");
                }
            }
        }
    }

    #[test]
    fn detects_two_planted_breaks() {
        // Up-shift at 12, additional up-shift at 30.
        let ys = double_break(48, 12, 1.0, 30, 1.5, 5);
        let r = detect_multiple(&ys, false, 3, &opts()).expect("long enough");
        assert!(r.points.len() >= 2, "found only {:?}", r.points);
        assert_eq!(r.aic_trace.len(), r.points.len() + 1);
        let mut months: Vec<usize> = r.points.iter().map(|&(t, _)| t).collect();
        months.sort_unstable();
        assert!(
            (months[0] as i64 - 12).abs() <= 3,
            "first break {months:?} should be near 12"
        );
        assert!(
            months.iter().any(|&m| (m as i64 - 30).abs() <= 3),
            "second break {months:?} should include ≈ 30"
        );
        // AIC trace decreases.
        for w in r.aic_trace.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn single_break_stays_single() {
        let ys = double_break(43, 20, 1.5, 43, 0.0, 6); // second break never fires
        let r = detect_multiple(&ys, false, 3, &opts()).expect("long enough");
        assert_eq!(r.points.len(), 1, "found {:?}", r.points);
        assert_eq!(r.aic_trace.len(), 2);
        assert!((r.points[0].0 as i64 - 20).abs() <= 2);
        assert!(r.points[0].1 > 0.5, "lambda = {}", r.points[0].1);
    }

    #[test]
    fn flat_series_finds_nothing() {
        let mut rng = SmallRng::seed_from_u64(7);
        let ys: Vec<f64> = (0..43)
            .map(|_| 10.0 + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0))
            .collect();
        let r = detect_multiple(&ys, false, 3, &opts()).expect("long enough");
        assert!(r.points.is_empty(), "found {:?}", r.points);
        assert_eq!(r.aic_trace.len(), 1);
    }

    #[test]
    fn detect_multiple_outputs_are_pinned_bit_for_bit() {
        // Points, λs and the AIC trace are pinned to the bit, so any change
        // to the arithmetic order of the MLE loop or the Kalman steps shows
        // here. First the `multi_breaks` example's series (+2 slope at 10,
        // −3 slope at 30), then a seasonal series with one slope shift.
        let mut rng = SmallRng::seed_from_u64(3);
        let planted: Vec<f64> = (0..48)
            .map(|t| {
                let w1 = if t >= 10 { (t - 10 + 1) as f64 } else { 0.0 };
                let w2 = if t >= 30 { (t - 30 + 1) as f64 } else { 0.0 };
                30.0 + 2.0 * w1 - 3.0 * w2 + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(17);
        let seasonal: Vec<f64> = (0..40)
            .map(|t| {
                let w = if t >= 24 { (t - 24 + 1) as f64 } else { 0.0 };
                20.0 + 1.5 * w
                    + 6.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                    + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.8)
            })
            .collect();
        let bits = |ys: &[f64], seasonal: bool, max_points: usize| {
            let r = detect_multiple(ys, seasonal, max_points, &opts()).expect("long enough");
            let points: Vec<(usize, u64)> =
                r.points.iter().map(|&(t, l)| (t, l.to_bits())).collect();
            assert_eq!(r.aic_trace.len(), r.points.len() + 1);
            let trace: Vec<u64> = r.aic_trace.iter().map(|a| a.to_bits()).collect();
            (points, trace)
        };
        assert_eq!(
            bits(&planted, false, 3),
            (
                vec![
                    (10, 4611758712943774640),
                    (27, 13829543555561801682),
                    (31, 13835416436932314784),
                ],
                vec![
                    4641143167941969626,
                    4641189730647677591,
                    4639959339722001283,
                    4639844321787917432,
                ],
            )
        );
        assert_eq!(
            bits(&seasonal, true, 2),
            (
                vec![(25, 4609700276200032546)],
                vec![4639042189125690078, 4637418076124413755],
            )
        );
    }

    #[test]
    fn too_short_series_finds_none() {
        // At and below `lead + 2` observations not even the no-change model
        // has a point left to score; one more and the search runs.
        for (seasonal, lead) in [(false, 1), (true, 12)] {
            for n in 1..=lead + 2 {
                let ys: Vec<f64> = (0..n).map(|t| t as f64).collect();
                assert!(
                    detect_multiple(&ys, seasonal, 3, &opts()).is_none(),
                    "n = {n}"
                );
            }
            let ys: Vec<f64> = (0..lead + 3).map(|t| (t % 5) as f64).collect();
            let r = detect_multiple(&ys, seasonal, 3, &opts()).expect("long enough");
            assert!(r.points.is_empty());
            assert_eq!(r.aic_trace.len(), 1);
        }
    }

    #[test]
    fn up_then_down_recovered_with_signs() {
        // Slope up at 10, slope *reversal* at 28 (net decline).
        let ys = double_break(48, 10, 1.2, 28, -2.0, 8);
        let r = detect_multiple(&ys, false, 3, &opts()).expect("long enough");
        assert!(r.points.len() >= 2, "found {:?}", r.points);
        assert_eq!(r.aic_trace.len(), r.points.len() + 1);
        let up = r.points.iter().find(|&&(t, _)| (t as i64 - 10).abs() <= 3);
        let down = r.points.iter().find(|&&(t, _)| (t as i64 - 28).abs() <= 3);
        assert!(up.is_some() && down.is_some(), "points {:?}", r.points);
        assert!(up.unwrap().1 > 0.0);
        assert!(down.unwrap().1 < 0.0);
    }
}
