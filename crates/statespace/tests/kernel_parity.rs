//! The Kalman kernel against a textbook dense recursion, bit for bit.
//!
//! `kalman_loglik` and `kalman_filter` share one sparsity-aware step, so
//! comparing them with each other cannot pin its arithmetic. The oracle
//! here is the plain dense recursion built from `Mat` products: the full
//! `P Zᵀ`, `P − K (P Zᵀ)ᵀ` on a copy and symmetrized, then `T P Tᵀ + Q`
//! and symmetrized. The kernel must reproduce it exactly: the likelihood
//! compared with `==` (which treats `±0` as equal), and every predicted
//! covariance element by element (each is built from the previous step's
//! filtered covariance, so this covers the update too).

use mic_statespace::kalman::{kalman_filter, kalman_loglik, FilterWorkspace};
use mic_statespace::model::Ssm;
use mic_statespace::structural::{StructuralParams, StructuralSpec};
use mic_stats::Mat;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `ln 2π`, the same constant the kernel uses.
const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// What the dense recursion produces for one series.
struct Dense {
    loglik: f64,
    predicted_covs: Vec<Mat>,
}

/// The textbook dense Kalman recursion, with the kernel's `F` floor: a step
/// on the floor updates nothing.
fn dense_filter(ssm: &Ssm, ys: &[f64]) -> Dense {
    let m = ssm.state_dim();
    let tt = ssm.transition.transpose();
    let mut a = ssm.a0.clone();
    let mut p = ssm.p0.clone();
    let mut out = Dense {
        loglik: 0.0,
        predicted_covs: Vec::new(),
    };
    let mut z = vec![0.0; m];
    for (t, &y) in ys.iter().enumerate() {
        out.predicted_covs.push(p.clone());
        ssm.load_z(t, &mut z);
        let pz = p.mul_vec(&z);
        let mut f = ssm.obs_var;
        for i in 0..m {
            f += z[i] * pz[i];
        }
        let floor = ssm.obs_var.max(1e-12);
        let gain = if f <= floor { 0.0 } else { 1.0 };
        let f = f.max(floor);
        let mut zy = 0.0;
        for i in 0..m {
            zy += z[i] * a[i];
        }
        let v = y - zy;
        let k: Vec<f64> = pz.iter().map(|x| gain * x / f).collect();
        let a_filt: Vec<f64> = a.iter().zip(&k).map(|(ai, ki)| ai + ki * v).collect();
        let mut p_filt = p.clone();
        for i in 0..m {
            for j in 0..m {
                p_filt[(i, j)] -= k[i] * pz[j];
            }
        }
        p_filt.symmetrize();
        if t >= ssm.n_diffuse && !ssm.extra_skips.contains(&t) {
            out.loglik += -0.5 * (LN_2PI + f.ln() + v * v / f);
        }
        a = ssm.transition.mul_vec(&a_filt);
        p = &(&(&ssm.transition * &p_filt) * &tt) + &ssm.state_cov;
        p.symmetrize();
    }
    out
}

/// Assert that the kernel matches the oracle on `ssm`: the likelihood
/// from a dirty, reused workspace, and every predicted covariance of the full filter.
fn assert_matches_oracle(ssm: &Ssm, ys: &[f64], ws: &mut FilterWorkspace) {
    let oracle = dense_filter(ssm, ys);
    let fast = kalman_loglik(ssm, ys, ws);
    assert!(
        fast == oracle.loglik,
        "kalman_loglik {fast:e} vs dense {:e}",
        oracle.loglik
    );
    let full = kalman_filter(ssm, ys);
    assert!(full.loglik == oracle.loglik);
    for t in 0..ys.len() {
        assert!(
            full.predicted_covs[t] == oracle.predicted_covs[t],
            "predicted covariance differs at t = {t}"
        );
    }
}

fn series(seed: u64, n: usize, cp: Option<usize>, seasonal: bool) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|t| {
            let w = cp.map_or(0.0, |cp| t.saturating_sub(cp) as f64);
            let s = if seasonal {
                4.0 * (t as f64 * std::f64::consts::PI / 6.0).sin()
            } else {
                0.0
            };
            20.0 + s + 0.7 * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
        })
        .collect()
}

/// The Harvey companion form of a zero-mean ARMA(p, q) with unit
/// innovation variance — the shape `arima` builds: state dimension
/// `r = max(p, q + 1)`, `φ` down the first column of `T` and a unit
/// superdiagonal (so every row with a nonzero `φ` is general), and a dense
/// `Q = R Rᵀ` with `R = [1, θ₁, …, θ_{r−1}]`.
fn arma(phi: &[f64], theta: &[f64], p0: Mat) -> Ssm {
    let r = phi.len().max(theta.len() + 1);
    let mut transition = Mat::zeros(r, r);
    for (i, &phi_i) in phi.iter().enumerate() {
        transition[(i, 0)] = phi_i;
    }
    for i in 0..r - 1 {
        transition[(i, i + 1)] = 1.0;
    }
    let mut big_r = vec![0.0; r];
    big_r[0] = 1.0;
    big_r[1..=theta.len()].copy_from_slice(theta);
    let mut q = Mat::zeros(r, r);
    for i in 0..r {
        for j in 0..r {
            q[(i, j)] = big_r[i] * big_r[j];
        }
    }
    let mut loading = vec![0.0; r];
    loading[0] = 1.0;
    Ssm {
        transition,
        state_cov: q,
        obs_var: 0.0,
        loading,
        slope_shifts: Vec::new(),
        a0: vec![0.0; r],
        p0,
        n_diffuse: 0,
        extra_skips: Vec::new(),
    }
}

/// An `r × r` prior covariance: `diag` on the diagonal, `off` on every
/// off-diagonal entry (positive definite for `off` small enough).
fn prior(diag: &[f64], off: f64) -> Mat {
    let r = diag.len();
    let mut p0 = Mat::zeros(r, r);
    for i in 0..r {
        for j in 0..r {
            p0[(i, j)] = if i == j { diag[i] } else { off };
        }
    }
    p0
}

/// The seasonal structural model with two slope shifts, at `cp1` and
/// `cp2`: the 13-state single-intervention model plus a second noise-free,
/// diffuse λ state (14 states) — the shape `multi` fits in its second
/// round, and a state dimension the kernel runs at run time.
fn two_lambda_seasonal(params: &StructuralParams, cp1: usize, cp2: usize) -> Ssm {
    let one = StructuralSpec::full(cp1).build(params);
    let m = one.state_dim() + 1;
    let widen = |a: &Mat| {
        let mut out = Mat::zeros(m, m);
        for i in 0..m - 1 {
            for j in 0..m - 1 {
                out[(i, j)] = a[(i, j)];
            }
        }
        out
    };
    let mut transition = widen(&one.transition);
    transition[(m - 1, m - 1)] = 1.0;
    let mut p0 = widen(&one.p0);
    p0[(m - 1, m - 1)] = one.p0[(m - 2, m - 2)];
    let mut loading = one.loading.clone();
    loading.push(0.0);
    let mut slope_shifts = one.slope_shifts.clone();
    slope_shifts.push((m - 1, cp2));
    let mut a0 = one.a0.clone();
    a0.push(0.0);
    Ssm {
        transition,
        state_cov: widen(&one.state_cov),
        obs_var: one.obs_var,
        loading,
        slope_shifts,
        a0,
        p0,
        n_diffuse: m,
        extra_skips: Vec::new(),
    }
}

#[test]
fn arma21_companion_matches_dense_oracle() {
    let ys = series(5, 60, None, false);
    let ys: Vec<f64> = ys.iter().map(|y| y - 20.0).collect();
    let mut ws = FilterWorkspace::default();
    // θ = 0 leaves Q diagonal, so only the two general rows of T make the
    // prediction asymmetric (and they do only with measurement noise: with
    // H = 0 the update zeroes the first row and column of P). φ₁ = 0 turns
    // the first row into a unit row.
    for (phi, theta, obs_var) in [
        ([0.5, -0.3], 0.4, 0.0),
        ([1.2, -0.5], -0.7, 0.0),
        ([0.5, -0.3], 0.0, 0.5),
        ([0.0, 0.2], 0.0, 0.5),
    ] {
        let p0 = Mat::from_rows(&[vec![2.5, 0.7], vec![0.7, 1.3]]);
        let mut ssm = arma(&phi, &[theta], p0);
        ssm.obs_var = obs_var;
        assert_matches_oracle(&ssm, &ys, &mut ws);
    }
    // An asymmetric prior: the first update reads both triangles.
    let p0 = Mat::from_rows(&[vec![2.5, 0.7], vec![0.6, 1.3]]);
    assert_matches_oracle(&arma(&[0.5, -0.3], &[0.4], p0), &ys, &mut ws);
}

#[test]
fn asymmetric_state_cov_is_symmetrized_like_dense() {
    // A local linear trend: one general row `[1, 1]`, one unit row, and a
    // Q whose off-diagonal pair differs. Only the Q entries can make the
    // predicted covariance asymmetric here.
    let ssm = Ssm {
        transition: Mat::from_rows(&[vec![1.0, 1.0], vec![0.0, 1.0]]),
        state_cov: Mat::from_rows(&[vec![0.4, 0.05], vec![0.02, 0.1]]),
        obs_var: 1.0,
        loading: vec![1.0, 0.0],
        slope_shifts: Vec::new(),
        a0: vec![0.0; 2],
        p0: Mat::diag(&[1e7, 1e7]),
        n_diffuse: 2,
        extra_skips: Vec::new(),
    };
    let ys = series(9, 50, Some(20), false);
    assert_matches_oracle(&ssm, &ys, &mut FilterWorkspace::default());
}

#[test]
fn floored_steps_update_nothing_like_dense() {
    // With every variance 0, the seasonal model's state is pinned after 12
    // months; from then on `Z P Z'` is rounding noise and most steps sit on
    // the 1e-12 floor, where the kernel must skip the update as the oracle
    // does, and stay finite.
    let params = StructuralParams {
        var_eps: 0.0,
        var_level: 0.0,
        var_seasonal: 0.0,
    };
    let ys: Vec<f64> = (0..24).map(|t| 10.0 + (t % 12) as f64).collect();
    let ssm = StructuralSpec::with_seasonal().build(&params);
    assert_matches_oracle(&ssm, &ys, &mut FilterWorkspace::default());
    let full = kalman_filter(&ssm, &ys);
    assert!(full.innovation_vars.contains(&1e-12));
    assert!(full.loglik.is_finite());
    assert!(full.filtered_means.iter().flatten().all(|x| x.is_finite()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn structural_kernel_matches_dense_oracle(
        seed in 0u64..1_000,
        n in 16usize..140,
        seasonal in any::<bool>(),
        with_cp in any::<bool>(),
        cp_frac in 0.05..0.95f64,
        // Log-variances relative to var(y), log-uniform from 1e-8 to 10.
        log_rel in (-18.5..2.3f64, -18.5..2.3f64, -18.5..2.3f64),
        n_diffuse_extra in 0usize..4,
        skips in proptest::collection::vec(0usize..140, 0..3),
    ) {
        let cp = with_cp.then(|| ((n as f64 * cp_frac) as usize).max(1));
        let ys = series(seed, n, cp, seasonal);
        let mean = ys.iter().sum::<f64>() / n as f64;
        let var_y = ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let params = StructuralParams {
            var_eps: var_y * log_rel.0.exp(),
            var_level: var_y * log_rel.1.exp(),
            var_seasonal: var_y * log_rel.2.exp(),
        };
        let spec = match cp {
            None if seasonal => StructuralSpec::with_seasonal(),
            None => StructuralSpec::local_level(),
            Some(cp) if seasonal => StructuralSpec::full(cp),
            Some(cp) => StructuralSpec::with_intervention(cp),
        };
        let mut ssm = spec.build(&params);
        ssm.n_diffuse = spec.state_dim() + n_diffuse_extra;
        ssm.extra_skips = skips.into_iter().filter(|&t| t < n).collect();
        let mut ws = FilterWorkspace::default();
        assert_matches_oracle(&ssm, &ys, &mut ws);
    }

    #[test]
    fn arma21_kernel_matches_dense_oracle(
        seed in 0u64..1_000,
        n in 16usize..140,
        phi1 in -0.9..0.9f64,
        phi2 in -0.6..0.3f64,
        theta in -0.9..0.9f64,
    ) {
        let ys = series(seed, n, None, false);
        let ys: Vec<f64> = ys.iter().map(|y| y - 20.0).collect();
        let p0 = Mat::from_rows(&[vec![3.0, 0.4], vec![0.4, 1.5]]);
        let mut ws = FilterWorkspace::new(2);
        assert_matches_oracle(&arma(&[phi1, phi2], &[theta], p0), &ys, &mut ws);
    }

    // Dimensions outside the structural builder's four run the step at a
    // run-time dimension: ARMA companions with `r = 3, 4, 5` states, and
    // the 14-state seasonal model with two λs. One workspace serves both
    // models, in both directions of a resize.
    #[test]
    fn runtime_dimension_kernel_matches_dense_oracle(
        seed in 0u64..1_000,
        n in 30usize..140,
        phi in proptest::collection::vec(-0.24..0.24f64, 1..5),
        theta in proptest::collection::vec(-0.9..0.9f64, 2..5),
        noisy in any::<bool>(),
        noise in 0.01..2.0f64,
        cp_fracs in (0.15..0.5f64, 0.55..0.95f64),
        log_rel in (-18.5..2.3f64, -18.5..2.3f64, -18.5..2.3f64),
    ) {
        let mut ws = FilterWorkspace::default();

        let ys = series(seed, n, None, false);
        let ys: Vec<f64> = ys.iter().map(|y| y - 20.0).collect();
        let r = phi.len().max(theta.len() + 1);
        let diag: Vec<f64> = (0..r).map(|i| 3.0 - 0.4 * i as f64).collect();
        let mut ssm = arma(&phi, &theta, prior(&diag, 0.3));
        ssm.obs_var = if noisy { noise } else { 0.0 };
        prop_assert!((3..=5).contains(&ssm.state_dim()));
        assert_matches_oracle(&ssm, &ys, &mut ws);

        let cp1 = (n as f64 * cp_fracs.0) as usize;
        let cp2 = (n as f64 * cp_fracs.1) as usize;
        let ys = series(seed, n, Some(cp1), true);
        let params = StructuralParams {
            var_eps: log_rel.0.exp(),
            var_level: log_rel.1.exp(),
            var_seasonal: log_rel.2.exp(),
        };
        let ssm = two_lambda_seasonal(&params, cp1, cp2);
        prop_assert_eq!(ssm.state_dim(), 14);
        assert_matches_oracle(&ssm, &ys, &mut ws);
    }
}
