//! Durbin–Koopman fixed-interval state smoother (Durbin & Koopman 2012,
//! §4.4), with no inversion.
//!
//! The component plots of Figs. 6–7 show *smoothed* components — each month's
//! level/seasonal/intervention estimated using the whole series — so the
//! decomposition runs the filter forward and this smoother backward over the
//! filter's stored output.

use crate::kalman::{innovation_floor, FilterResult};
use crate::model::Ssm;

/// Smoothed state estimates.
#[derive(Clone, Debug)]
pub struct SmoothResult {
    /// Smoothed state means `â_{t|n}`.
    pub means: Vec<Vec<f64>>,
}

/// State smoother over a completed filter pass: state means only.
///
/// The backward recursion (Durbin & Koopman 2012, §4.4.2; Koopman & Shephard
/// 1992) starts from `r = 0`. For `t = n−1` down to `0`, with the filter's
/// innovation `v_t`, its floored variance `F_t`, the predicted mean `a_t`
/// and covariance `P_t`, and the gain `K_t = P_t z_tᵀ / F_t`:
///
/// ```text
/// u = Tᵀ r,   r ← z_tᵀ (v_t / F_t − K_t·u) + u,   â_t = a_t + P_t r
/// ```
///
/// A step whose `F_t` sits on the filter's floor took no information from
/// its observation, so there `r ← Tᵀr`, as for a missing observation.
/// Each step costs O(m²) and solves nothing, so a singular predicted
/// covariance needs no special case. The last point is the filtered mean
/// `a_{n−1|n−1}`, which the recursion equals in exact arithmetic; taking
/// it from the filter keeps λ, read there, bit-identical to the filter's.
pub fn smooth(ssm: &Ssm, filter: &FilterResult) -> SmoothResult {
    let n = filter.len();
    assert!(n > 0, "cannot smooth an empty filter result");
    let m = ssm.state_dim();
    let transition = ssm.transition.as_slice();
    let mut means = vec![Vec::new(); n];
    means[n - 1] = filter.filtered_means[n - 1].clone();
    let (mut r, mut u, mut k) = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
    let mut z = ssm.loading.clone();
    for t in (0..n).rev() {
        ssm.load_shifts(t, &mut z);
        let p = filter.predicted_covs[t].as_slice();
        let f = filter.innovation_vars[t];
        u.fill(0.0);
        for (t_row, &ri) in transition.chunks_exact(m).zip(&r) {
            for (uj, &tij) in u.iter_mut().zip(t_row) {
                *uj += tij * ri;
            }
        }
        if f <= innovation_floor(ssm.obs_var) {
            // The filter took nothing from this observation: r ← Tᵀr.
            r.copy_from_slice(&u);
        } else {
            for (ki, p_row) in k.iter_mut().zip(p.chunks_exact(m)) {
                *ki = dot(p_row, &z) / f;
            }
            let c = filter.innovations[t] / f - dot(&k, &u);
            for ((ri, &zi), &ui) in r.iter_mut().zip(&z).zip(&u) {
                *ri = zi * c + ui;
            }
        }
        if t < n - 1 {
            let a = &filter.predicted_means[t];
            means[t] = (p.chunks_exact(m).zip(a))
                .map(|(p_row, &ai)| ai + dot(p_row, &r))
                .collect();
        }
    }
    SmoothResult { means }
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kalman::kalman_filter;
    use crate::model::DIFFUSE_KAPPA;
    use mic_stats::Mat;

    fn local_level(var_eps: f64, var_level: f64) -> Ssm {
        Ssm {
            transition: Mat::identity(1),
            state_cov: Mat::diag(&[var_level]),
            obs_var: var_eps,
            loading: vec![1.0],
            slope_shifts: Vec::new(),
            a0: vec![0.0],
            p0: Mat::diag(&[DIFFUSE_KAPPA]),
            n_diffuse: 1,
            extra_skips: Vec::new(),
        }
    }

    #[test]
    fn degenerate_variances_smooth_without_panicking() {
        // An MLE run can drive every disturbance variance to ~0 on a short
        // seasonal series; the near-diffuse predicted covariance then
        // collapses to numerically singular. The smoother inverts nothing,
        // so it must run through, not panic.
        use crate::structural::{StructuralParams, StructuralSpec};
        let spec = StructuralSpec::with_seasonal();
        let params = StructuralParams {
            var_eps: 0.0,
            var_level: 0.0,
            var_seasonal: 0.0,
        };
        let ys: Vec<f64> = (0..24).map(|t| 10.0 + ((t % 12) as f64)).collect();
        let ssm = spec.build(&params);
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        assert_eq!(s.means.len(), ys.len());
        for (t, mean) in s.means.iter().enumerate() {
            assert!(mean.iter().all(|x| x.is_finite()), "t = {t}: {mean:?}");
        }
    }

    #[test]
    fn short_sparse_series_decomposes_without_panicking() {
        // Captured from a 24-month simulated pipeline run: the approximate
        // change-point search selects a full (level+seasonal+intervention)
        // model whose MLE leaves the predicted covariance numerically
        // singular; an earlier smoother that inverted it panicked the whole
        // `analyze` run. The decomposition must complete instead.
        use crate::changepoint::{search, SearchPlan};
        use crate::estimate::FitOptions;
        let ys = [
            4.1566590253032825,
            0.0,
            0.14626913080666348,
            0.0,
            0.0,
            0.0,
            0.002377923020991996,
            1.9769916969532235,
            0.18970369872154108,
            1.7320654368658321,
            3.7490343033431803,
            0.001769935695203741,
            3.337288214371594,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.9999091711814458,
            2.1710154268971253,
            0.6566207402766422,
            0.000623398104804423,
            8.38478124461008,
            3.854943299773911,
        ];
        let opts = FitOptions {
            max_evals: 150,
            n_starts: 1,
        };
        let found = search(&ys, true, &opts, &SearchPlan::approximate());
        let c = found.fit.decompose(&ys);
        assert!(c.lambda.is_finite(), "lambda = {}", c.lambda);
        for (name, series) in [
            ("level", &c.level),
            ("seasonal", &c.seasonal),
            ("intervention", &c.intervention),
            ("fitted", &c.fitted),
            ("irregular", &c.irregular),
        ] {
            assert_eq!(series.len(), ys.len(), "{name}");
            assert!(series.iter().all(|x| x.is_finite()), "{name}: {series:?}");
        }
    }

    /// `E[α_t | y]` for every `t` from the joint Gaussian of the states and
    /// the observations: `E α_t + Cov(α_t, y) Var(y)⁻¹ (y − E y)`, with
    /// `Var(y)` solved by `Mat::solve`. Exact only with a proper prior.
    fn conditional_means(ssm: &Ssm, ys: &[f64]) -> Vec<Vec<f64>> {
        let n = ys.len();
        let tr = &ssm.transition;
        let z = |t: usize| {
            let mut z = vec![0.0; ssm.state_dim()];
            ssm.load_z(t, &mut z);
            z
        };
        // Means `E α_t` and cross covariances `c[t][s] = Cov(α_t, α_s)` for
        // `s ≤ t`: `Var(α_{t+1}) = T Var(α_t) Tᵀ + Q` and, for `t > s`,
        // `Cov(α_t, α_s) = T Cov(α_{t−1}, α_s)`.
        let mut mean = vec![ssm.a0.clone()];
        let mut c = vec![vec![ssm.p0.clone()]];
        for t in 1..n {
            mean.push(tr.mul_vec(&mean[t - 1]));
            let prev = &c[t - 1];
            let mut row: Vec<Mat> = prev.iter().map(|cov| tr * cov).collect();
            row.push(&(&row[t - 1] * &tr.transpose()) + &ssm.state_cov);
            c.push(row);
        }
        let cov = |t: usize, s: usize| {
            if s <= t {
                c[t][s].clone()
            } else {
                c[s][t].transpose()
            }
        };
        let mut var_y = Mat::zeros(n, n);
        for s in 0..n {
            for t in 0..n {
                var_y[(s, t)] = dot(&z(s), &cov(s, t).mul_vec(&z(t)));
            }
            var_y[(s, s)] += ssm.obs_var;
        }
        let resid: Vec<f64> = (0..n).map(|s| ys[s] - dot(&z(s), &mean[s])).collect();
        let x = var_y.solve(&resid).expect("Var(y) is positive definite");
        (0..n)
            .map(|t| {
                let mut out = mean[t].clone();
                for (s, &xs) in x.iter().enumerate() {
                    for (o, cz) in out.iter_mut().zip(cov(t, s).mul_vec(&z(s))) {
                        *o += cz * xs;
                    }
                }
                out
            })
            .collect()
    }

    #[test]
    fn smoothed_means_equal_the_gaussian_conditional_mean() {
        use crate::structural::{StructuralParams, StructuralSpec};
        let params = StructuralParams {
            var_eps: 0.8,
            var_level: 0.3,
            var_seasonal: 0.05,
        };
        let n = 20_usize;
        let ys: Vec<f64> = (0..n)
            .map(|t| {
                let season = 2.0 * (t as f64 * std::f64::consts::PI / 6.0).sin();
                let slope = 0.9 * t.saturating_sub(7) as f64;
                10.0 + season + slope + (t as f64 * 1.7).cos()
            })
            .collect();
        for spec in [
            StructuralSpec::local_level(),
            StructuralSpec::with_intervention(8),
            StructuralSpec::with_seasonal(),
            StructuralSpec::full(8),
        ] {
            // A proper prior, and the models' own near-diffuse one. With
            // κ = 1e7 the oracle's `Var(y)` carries κ in every entry, and
            // its solve alone loses about κ·ε ≈ 2e-9 relative, so the
            // bound there is looser than the smoother's own accuracy.
            for (p0, tol) in [(Some(10.0), 1e-11), (None, 1e-7)] {
                let mut ssm = spec.build(&params);
                if let Some(p0) = p0 {
                    ssm.p0 = Mat::diag(&vec![p0; ssm.state_dim()]);
                }
                let want = conditional_means(&ssm, &ys);
                let got = smooth(&ssm, &kalman_filter(&ssm, &ys)).means;
                let scale = want.iter().flatten().fold(0.0_f64, |a, b| a.max(b.abs()));
                let err = (got.iter().flatten().zip(want.iter().flatten()))
                    .fold(0.0_f64, |a, (g, w)| a.max((g - w).abs()));
                assert!(
                    err <= tol * scale,
                    "{spec:?}, p0 {p0:?}: error {:e}",
                    err / scale
                );
            }
        }
    }

    #[test]
    fn smoother_matches_filter_at_last_point() {
        let ssm = local_level(1.0, 0.3);
        let ys: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        assert_eq!(s.means.len(), 25);
        let last = 24;
        assert!((s.means[last][0] - f.filtered_means[last][0]).abs() < 1e-12);
    }

    #[test]
    fn smoothed_level_tracks_constant_series() {
        let ssm = local_level(0.5, 0.05);
        let ys = vec![7.0; 20];
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        for t in 0..20 {
            assert!(
                (s.means[t][0] - 7.0).abs() < 1e-4,
                "t = {t}: {}",
                s.means[t][0]
            );
        }
    }

    #[test]
    fn smoothed_level_is_smoother_than_data() {
        // Noisy constant: total variation of smoothed level must be far
        // below that of the data.
        let ys: Vec<f64> = (0..40)
            .map(|i| 5.0 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let ssm = local_level(1.0, 0.01);
        let f = kalman_filter(&ssm, &ys);
        let s = smooth(&ssm, &f);
        let tv_data: f64 = ys.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
        let tv_smooth: f64 = (1..40)
            .map(|t| (s.means[t][0] - s.means[t - 1][0]).abs())
            .sum();
        assert!(
            tv_smooth < 0.2 * tv_data,
            "smoothed TV {tv_smooth} vs data TV {tv_data}"
        );
    }
}
