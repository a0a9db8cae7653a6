//! Kalman filter for univariate observations.
//!
//! Standard prediction/update recursion with scalar innovations, storing
//! everything the smoother and forecaster need. The log-likelihood follows
//! Commandeur & Koopman: the first `n_diffuse` innovations (dominated by the
//! near-diffuse prior) are excluded, so models with different numbers of
//! diffuse states get comparable AICs via the `2·(q + w)` penalty.

use crate::model::{ObsLoading, Ssm};
use mic_stats::Mat;

const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// Steady-state detection options for [`kalman_loglik`].
///
/// A time-invariant model's predicted covariance `P_{t|t−1}` converges to a
/// Riccati fixed point (Durbin–Koopman §4.3), after which the gain `K`, the
/// innovation variance `F`, and `ln F` are constants and each filter step
/// needs only the `O(m)` mean recursion instead of the `O(nnz·m)` covariance
/// products. Detection is per element: `P` must move by no more than
/// `rel_tol · (1 + |P_ij|)` between consecutive steps, `hold` steps in a
/// row. The `1 +` keeps the criterion meaningful across the κ = 1e7 diffuse
/// entries (which sit exactly still for never-observed λ states) and the
/// O(1) post-burn-in entries alike.
///
/// Before freezing, the candidate fixed point is *polished*: the data-free
/// covariance recursion is iterated until `K` and `F` are stationary to
/// ~1e-12 relative, so the frozen values are the Riccati limit rather than a
/// snapshot of a still-drifting transient. This bounds the log-likelihood
/// drift by the (geometrically decaying) distance between the exact filter's
/// `F_t` and `F_∞` past the entry step, independent of how many steady steps
/// follow. If polishing fails to settle (near-singular models whose
/// covariance decays algebraically — the near-zero-variance trap), the
/// filter stays on the exact path for the rest of the call.
///
/// With a time-varying loading the frozen gain is only valid while `Z_t`
/// stays put, so an intervention model freezes before its change point and
/// falls back to the exact recursion the moment the slope weight starts
/// ramping.
///
/// `rel_tol = 0` (or `hold = 0`) disables detection: `kalman_loglik` then
/// runs the exact recursion at every step, bit-identical to
/// `kalman_filter(..).loglik`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SteadyStateOpts {
    /// Per-element relative tolerance on `|ΔP|`; `0` disables the fast path.
    pub rel_tol: f64,
    /// Consecutive sub-tolerance steps required before freezing.
    pub hold: usize,
}

impl SteadyStateOpts {
    /// Never enter the steady-state phase (exact recursion at every step).
    pub const DISABLED: SteadyStateOpts = SteadyStateOpts {
        rel_tol: 0.0,
        hold: 0,
    };

    /// Whether detection is active at all.
    pub fn enabled(&self) -> bool {
        self.rel_tol > 0.0 && self.hold > 0
    }
}

impl Default for SteadyStateOpts {
    /// Enabled, tuned so that the measured log-likelihood drift stays below
    /// 1e-9 relative (the parity suite's bound) while still entering early
    /// enough to pay off on series of a few dozen points.
    fn default() -> Self {
        SteadyStateOpts {
            rel_tol: 1e-8,
            hold: 2,
        }
    }
}

/// Full filtering output for one series.
#[derive(Clone, Debug)]
pub struct FilterResult {
    /// Log-likelihood (first `n_diffuse` innovations excluded).
    pub loglik: f64,
    /// One-step-ahead innovations `v_t = y_t − Z_t a_{t|t−1}`.
    pub innovations: Vec<f64>,
    /// Innovation variances `F_t`.
    pub innovation_vars: Vec<f64>,
    /// Predicted state means `a_{t|t−1}`.
    pub predicted_means: Vec<Vec<f64>>,
    /// Predicted state covariances `P_{t|t−1}`.
    pub predicted_covs: Vec<Mat>,
    /// Filtered state means `a_{t|t}`.
    pub filtered_means: Vec<Vec<f64>>,
    /// Filtered state covariances `P_{t|t}`.
    pub filtered_covs: Vec<Mat>,
}

impl FilterResult {
    /// Number of observations processed.
    pub fn len(&self) -> usize {
        self.innovations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.innovations.is_empty()
    }
}

/// Row-compressed view of the transition matrix `T`.
///
/// Structural-model transitions are mostly zeros — the 13-state
/// level + seasonal + λ model has 23 nonzeros out of 169 — so the per-step
/// `T·P_filt·Tᵀ` products, the filter's dominant cost, are computed from the
/// nonzeros only: `O(nnz·m)` instead of `O(m³)`. Every output element still
/// accumulates its surviving terms in ascending-`k` order, and a skipped
/// term contributes exactly `0.0·x` to a sum, so results are bit-identical
/// to the dense products (up to the sign of exact zeros).
#[derive(Clone, Debug, Default)]
struct SparseTransition {
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
}

impl SparseTransition {
    /// Rebuild from `t`, reusing existing capacity.
    fn load(&mut self, t: &Mat) {
        let (rows, cols) = (t.rows(), t.cols());
        let data = t.as_slice();
        self.row_ptr.clear();
        self.col.clear();
        self.val.clear();
        self.row_ptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = data[r * cols + c];
                if v != 0.0 {
                    self.col.push(c);
                    self.val.push(v);
                }
            }
            self.row_ptr.push(self.col.len());
        }
    }

    #[inline]
    fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col[lo..hi], &self.val[lo..hi])
    }

    /// `T v`, mirroring `Mat::mul_vec_into` minus the zero terms.
    fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len() + 1, self.row_ptr.len());
        for (r, o) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (&c, &x) in cols.iter().zip(vals) {
                acc += x * v[c];
            }
            *o = acc;
        }
    }

    /// `T · rhs` into `out`, rows accumulated axpy-style; each element's
    /// terms still arrive in ascending-`k` order like `Mat::mul_into`.
    fn mul_into(&self, rhs: &Mat, out: &mut Mat) {
        let m = rhs.cols();
        debug_assert_eq!(out.rows() + 1, self.row_ptr.len());
        debug_assert_eq!(out.cols(), m);
        let rdat = rhs.as_slice();
        let odat = out.as_mut_slice();
        for r in 0..self.row_ptr.len() - 1 {
            let orow = &mut odat[r * m..(r + 1) * m];
            orow.fill(0.0);
            let (cols, vals) = self.row(r);
            for (&k, &x) in cols.iter().zip(vals) {
                let rrow = &rdat[k * m..(k + 1) * m];
                for (o, rv) in orow.iter_mut().zip(rrow) {
                    *o += x * rv;
                }
            }
        }
    }

    /// `lhs · Tᵀ` into `out`: `out[i][j] = Σ_k lhs[i][k]·T[j][k]`, ascending
    /// `k` per element exactly like the dense `lhs.mul_into(&tt, out)`.
    fn mul_transpose_into(&self, lhs: &Mat, out: &mut Mat) {
        let m = lhs.cols();
        let n_rows = self.row_ptr.len() - 1;
        debug_assert_eq!(out.rows(), lhs.rows());
        debug_assert_eq!(out.cols(), n_rows);
        let ldat = lhs.as_slice();
        let odat = out.as_mut_slice();
        for i in 0..lhs.rows() {
            let lrow = &ldat[i * m..(i + 1) * m];
            for j in 0..n_rows {
                let (cols, vals) = self.row(j);
                let mut acc = 0.0;
                for (&k, &x) in cols.iter().zip(vals) {
                    acc += lrow[k] * x;
                }
                odat[i * n_rows + j] = acc;
            }
        }
    }
}

/// Log-likelihood contribution `ln N(v; 0, F)` of one scored innovation.
#[inline]
fn loglik_term(v: f64, f: f64) -> f64 {
    -0.5 * (LN_2PI + f.ln() + v * v / f)
}

/// Run the Kalman filter on `ys`.
///
/// # Panics
/// Panics if `ys` is empty, and in debug builds if the model fails
/// validation.
pub fn kalman_filter(ssm: &Ssm, ys: &[f64]) -> FilterResult {
    let n = ys.len();
    let mut ws = FilterWorkspace::default();
    ws.start(ssm, ys);
    let mut out = FilterResult {
        loglik: 0.0,
        innovations: Vec::with_capacity(n),
        innovation_vars: Vec::with_capacity(n),
        predicted_means: Vec::with_capacity(n),
        predicted_covs: Vec::with_capacity(n),
        filtered_means: Vec::with_capacity(n),
        filtered_covs: Vec::with_capacity(n),
    };
    for (t, &y) in ys.iter().enumerate() {
        out.predicted_means.push(ws.a_pred.clone());
        out.predicted_covs.push(ws.p_pred.clone());
        let (v, f) = ws.update(ssm.loading.at(t), ssm.obs_var, y);
        if ssm.scores(t) {
            out.loglik += loglik_term(v, f);
        }
        out.innovations.push(v);
        out.innovation_vars.push(f);
        out.filtered_means.push(ws.a_filt.clone());
        out.filtered_covs.push(ws.p_filt.clone());
        ws.predict(&ssm.state_cov);
    }
    out
}

/// Mean and variance forecasts of `y_{n+1}, …, y_{n+h}` past the end of
/// `ys` (`n = ys.len()`): the filter runs over `ys`, then the predict step
/// alone carries the state `h − 1` steps further. `ssm` must span at least
/// `n + h` steps.
///
/// # Panics
/// Panics if `ys` is empty, and in debug builds if the model fails
/// validation.
pub(crate) fn forecast_moments(ssm: &Ssm, ys: &[f64], h: usize) -> Vec<(f64, f64)> {
    let mut ws = FilterWorkspace::default();
    ws.start(ssm, ys);
    for (t, &y) in ys.iter().enumerate() {
        ws.update(ssm.loading.at(t), ssm.obs_var, y);
        ws.predict(&ssm.state_cov);
    }
    let n = ys.len();
    (0..h)
        .map(|j| {
            if j > 0 {
                std::mem::swap(&mut ws.a_pred, &mut ws.a_filt);
                std::mem::swap(&mut ws.p_pred, &mut ws.p_filt);
                ws.predict(&ssm.state_cov);
            }
            let z = ssm.loading.at(n + j);
            let mean: f64 = z.iter().zip(&ws.a_pred).map(|(zi, ai)| zi * ai).sum();
            (mean, ws.p_pred.quad_form(z) + ssm.obs_var)
        })
        .collect()
}

/// Pre-allocated buffers for the Kalman recursion, reusable across filter
/// runs.
///
/// Maximum-likelihood fitting evaluates the likelihood hundreds of times per
/// series (Nelder–Mead restarts × evaluations), and a change-point search
/// performs dozens of such fits — every evaluation needing only the scalar
/// log-likelihood, not the full [`FilterResult`]. One workspace, created
/// once per search and threaded through every [`kalman_loglik`] call,
/// removes all per-run and per-timestep heap allocation from that path.
///
/// Buffers are sized lazily for whatever state dimension the next run needs,
/// so one workspace can serve models of different dimensions. Resizing
/// reuses the underlying allocations: a change-point search that alternates
/// between the 12-state baseline and 13-state candidate models pays for the
/// largest dimension once and never touches the allocator again, in either
/// direction of the shrink/grow cycle.
#[derive(Clone, Debug, Default)]
pub struct FilterWorkspace {
    state_dim: usize,
    a_pred: Vec<f64>,
    a_filt: Vec<f64>,
    pz: Vec<f64>,
    k: Vec<f64>,
    k_prev: Vec<f64>,
    p_pred: Mat,
    p_filt: Mat,
    p_prev: Mat,
    tp: Mat,
    st: SparseTransition,
}

impl FilterWorkspace {
    /// Workspace sized for state dimension `m`.
    pub fn new(m: usize) -> FilterWorkspace {
        let mut ws = FilterWorkspace::default();
        ws.ensure_dim(m);
        ws
    }

    /// (Re)size the buffers for state dimension `m`; no-op when the
    /// dimension is unchanged, and allocation-free whenever the buffers'
    /// capacity already covers `m` (i.e. whenever the workspace has seen a
    /// dimension ≥ `m` before).
    fn ensure_dim(&mut self, m: usize) {
        if self.state_dim == m {
            return;
        }
        self.state_dim = m;
        for v in [
            &mut self.a_pred,
            &mut self.a_filt,
            &mut self.pz,
            &mut self.k,
            &mut self.k_prev,
        ] {
            v.clear();
            v.resize(m, 0.0);
        }
        self.p_pred.resize(m, m);
        self.p_filt.resize(m, m);
        self.p_prev.resize(m, m);
        self.tp.resize(m, m);
    }

    /// Start a run of `ssm` over `ys` from the prior `(a0, P0)`.
    fn start(&mut self, ssm: &Ssm, ys: &[f64]) {
        debug_assert!(ssm.validate().is_ok(), "invalid SSM: {:?}", ssm.validate());
        assert!(
            !ys.is_empty(),
            "the Kalman filter requires at least one observation"
        );
        self.ensure_dim(ssm.state_dim());
        self.a_pred.copy_from_slice(&ssm.a0);
        self.p_pred.copy_from(&ssm.p0);
        // O(m²) scan reusing the workspace's capacity — no allocation once the
        // workspace has seen a transition of this density.
        self.st.load(&ssm.transition);
    }

    /// Measurement update of `(a_pred, p_pred)` by observation `y` under
    /// loading `z` into `(a_filt, p_filt)`. Returns the innovation
    /// `v = y − z·a_pred` and its variance `F`.
    fn update(&mut self, z: &[f64], obs_var: f64, y: f64) -> (f64, f64) {
        let mut zy = 0.0;
        for (zi, ai) in z.iter().zip(&self.a_pred) {
            zy += zi * ai;
        }
        let v = y - zy;
        let f = self.update_cov(z, obs_var);
        for ((af, ap), ki) in self.a_filt.iter_mut().zip(&self.a_pred).zip(&self.k) {
            *af = ap + ki * v;
        }
        (v, f)
    }

    /// The covariance half of [`FilterWorkspace::update`], which needs no
    /// data: `pz = P zᵀ`, `F = z P zᵀ + H`, the gain `k = pz / F` and
    /// `p_filt = P − k pzᵀ` (symmetrized), all from `p_pred`. Returns `F`.
    fn update_cov(&mut self, z: &[f64], obs_var: f64) -> f64 {
        let FilterWorkspace {
            pz,
            k,
            p_pred,
            p_filt,
            ..
        } = self;
        let m = z.len();
        for i in 0..m {
            let mut acc = 0.0;
            for j in 0..m {
                acc += p_pred[(i, j)] * z[j];
            }
            pz[i] = acc;
        }
        let mut f = obs_var;
        for i in 0..m {
            f += z[i] * pz[i];
        }
        // Guard: F = Z P Z' + H is bounded below by the observation
        // variance H for any PSD P, but degenerate parameter vectors can
        // drive the subtract-and-symmetrize recursion indefinite and push
        // Z P Z' below −H. Clamp to the documented floor (H, or 1e-12 for
        // all-zero-variance models) so the likelihood stays finite and an
        // optimiser sees an ordinary bad objective value instead of
        // NaN/−inf.
        let f = f.max(obs_var.max(1e-12));
        for i in 0..m {
            k[i] = pz[i] / f;
        }
        p_filt.copy_from(p_pred);
        for i in 0..m {
            for j in 0..m {
                p_filt[(i, j)] -= k[i] * pz[j];
            }
        }
        p_filt.symmetrize();
        f
    }

    /// Predict step: `a_pred = T a_filt`, then
    /// [`FilterWorkspace::predict_cov`].
    fn predict(&mut self, state_cov: &Mat) {
        self.st.mul_vec_into(&self.a_filt, &mut self.a_pred);
        self.predict_cov(state_cov);
    }

    /// The covariance half of [`FilterWorkspace::predict`]:
    /// `p_pred = T p_filt Tᵀ + Q`, symmetrized.
    fn predict_cov(&mut self, state_cov: &Mat) {
        self.st.mul_into(&self.p_filt, &mut self.tp);
        self.st.mul_transpose_into(&self.tp, &mut self.p_pred);
        let m = state_cov.rows();
        for i in 0..m {
            for j in 0..m {
                self.p_pred[(i, j)] += state_cov[(i, j)];
            }
        }
        self.p_pred.symmetrize();
    }

    /// Polish a near-converged `p_pred` to the Riccati fixed point by
    /// iterating the data-free covariance recursion
    /// `P ← T (P − P z z' P / F) T' + Q`. On success, returns the
    /// fixed-point innovation variance `F_∞` with the matching gain `K_∞`
    /// left in `k` and the fixed-point covariance in `p_pred`; returns
    /// `None` with `p_pred` unchanged (caller stays on the exact path) if
    /// `K`/`F` fail to become stationary within the iteration cap — the
    /// signature of algebraic, rather than geometric, covariance decay.
    fn refine_fixed_point(&mut self, z: &[f64], obs_var: f64, state_cov: &Mat) -> Option<f64> {
        const REFINE_TOL: f64 = 1e-13;
        const MAX_ITERS: usize = 64;
        self.p_prev.copy_from(&self.p_pred);
        let mut f_prev = f64::NAN;
        self.k_prev.fill(f64::NAN);
        for _ in 0..MAX_ITERS {
            let f = self.update_cov(z, obs_var);
            let settled = (f - f_prev).abs() <= REFINE_TOL * f
                && self
                    .k
                    .iter()
                    .zip(&self.k_prev)
                    .all(|(&a, &b)| (a - b).abs() <= REFINE_TOL * (1.0 + a.abs()));
            if settled {
                return Some(f);
            }
            f_prev = f;
            self.k_prev.copy_from_slice(&self.k);
            self.predict_cov(state_cov);
        }
        std::mem::swap(&mut self.p_pred, &mut self.p_prev);
        None
    }
}

/// Log-likelihood of `ys` under `ssm` — the same recursion and arithmetic
/// order as [`kalman_filter`], computing only the scalar likelihood with
/// zero heap allocation per timestep (all state lives in `ws`), plus an
/// optional steady-state phase (see [`SteadyStateOpts`]): once the
/// predicted covariance settles, `K`, `F`, and `ln F` freeze and each
/// remaining step is one dot product, one axpy, and one sparse mat-vec.
///
/// With `steady` disabled ([`SteadyStateOpts::DISABLED`]) this returns
/// exactly `kalman_filter(ssm, ys).loglik` (bit-identical: every sum is
/// accumulated in the same order). With detection enabled, the prefix up to
/// the entry step is still bit-identical and the tail drifts by at most the
/// tolerance-tier difference between `F_t` and the frozen `F_∞`
/// (`kalman_filter(..).loglik` is the oracle; the parity suite bounds the
/// drift at 1e-9 relative). Use this in optimisation loops; use
/// [`kalman_filter`] when the smoother or forecaster needs the full state
/// trajectory.
///
/// Emits `kf.steady_entered` / `kf.steady_steps` / `kf.steady_entry_step`
/// through `mic-obs` whenever the steady phase is entered.
///
/// # Panics
/// Panics if `ys` is empty, and in debug builds if the model fails
/// validation.
pub fn kalman_loglik(
    ssm: &Ssm,
    ys: &[f64],
    ws: &mut FilterWorkspace,
    steady: &SteadyStateOpts,
) -> f64 {
    ws.start(ssm, ys);
    let m = ssm.state_dim();

    let mut detect = steady.enabled();
    let mut consec = 0usize; // consecutive sub-tolerance steps
    let mut frozen = false;
    let mut frozen_t = 0usize; // step whose loading the freeze is valid for
    let mut f_star = 0.0;
    let mut c_star = 0.0; // hoisted −0.5·(ln 2π + ln F_∞)
    let mut entry_step = 0usize;
    let mut steady_steps: u64 = 0;

    let n = ys.len();
    let mut loglik = 0.0;
    let mut t = 0usize;
    while t < n {
        if frozen {
            // How far does the frozen loading stay valid? Constant loadings
            // run to the end; an intervention ramp invalidates the gain at
            // the first step whose loading differs from the freeze step's.
            let stop = match &ssm.loading {
                ObsLoading::Constant(_) => n,
                ObsLoading::TimeVarying(zs) => {
                    let z_frozen = &zs[frozen_t];
                    let mut s = t;
                    while s < n && zs[s] == *z_frozen {
                        s += 1;
                    }
                    s
                }
            };
            if stop > t {
                // Steady phase: mean recursion only, constant ln F hoisted,
                // loading and skip checks lifted out of the loop.
                let FilterWorkspace {
                    a_pred,
                    a_filt,
                    k,
                    st,
                    ..
                } = &mut *ws;
                let z = ssm.loading.at(frozen_t);
                steady_steps += (stop - t) as u64;
                if t >= ssm.n_diffuse && ssm.extra_skips.is_empty() {
                    for &y in &ys[t..stop] {
                        let mut zy = 0.0;
                        for i in 0..m {
                            zy += z[i] * a_pred[i];
                        }
                        let v = y - zy;
                        loglik += c_star - 0.5 * v * v / f_star;
                        for i in 0..m {
                            a_filt[i] = a_pred[i] + k[i] * v;
                        }
                        st.mul_vec_into(a_filt, a_pred);
                    }
                } else {
                    for (tt, &y) in ys.iter().enumerate().take(stop).skip(t) {
                        let mut zy = 0.0;
                        for i in 0..m {
                            zy += z[i] * a_pred[i];
                        }
                        let v = y - zy;
                        if ssm.scores(tt) {
                            loglik += c_star - 0.5 * v * v / f_star;
                        }
                        for i in 0..m {
                            a_filt[i] = a_pred[i] + k[i] * v;
                        }
                        st.mul_vec_into(a_filt, a_pred);
                    }
                }
                t = stop;
                continue;
            }
            // The loading moved (an intervention weight started ramping):
            // the frozen gain is no longer valid, so fall back to the exact
            // recursion, resuming from the fixed-point covariance.
            frozen = false;
            consec = 0;
        }

        let z = ssm.loading.at(t);
        let (v, f) = ws.update(z, ssm.obs_var, ys[t]);
        if ssm.scores(t) {
            loglik += loglik_term(v, f);
        }
        if !detect {
            ws.predict(&ssm.state_cov);
            t += 1;
            continue;
        }
        // Keep the current predicted covariance in `p_prev`, predict the
        // next one into `p_pred`, and compare.
        std::mem::swap(&mut ws.p_pred, &mut ws.p_prev);
        ws.predict(&ssm.state_cov);
        let settled = ws
            .p_pred
            .as_slice()
            .iter()
            .zip(ws.p_prev.as_slice())
            .all(|(&next, &cur)| (next - cur).abs() <= steady.rel_tol * (1.0 + next.abs()));
        consec = if settled { consec + 1 } else { 0 };
        // A frozen gain is only usable while the loading stays put, so
        // never freeze right at a loading transition (post-break
        // intervention weights move every step and simply keep the exact
        // path).
        let z_stable = || match &ssm.loading {
            ObsLoading::Constant(_) => true,
            ObsLoading::TimeVarying(zs) => t + 1 < zs.len() && zs[t + 1] == zs[t],
        };
        if consec >= steady.hold && z_stable() {
            mic_obs::counter("kf.steady_trigger", 1);
            match ws.refine_fixed_point(z, ssm.obs_var, &ssm.state_cov) {
                // The polished fixed point, not the snapshot, is also the
                // resume-from point for a later loading change.
                Some(f_inf) => {
                    frozen = true;
                    frozen_t = t;
                    f_star = f_inf;
                    c_star = -0.5 * (LN_2PI + f_star.ln());
                    if entry_step == 0 {
                        entry_step = t + 1;
                    }
                }
                // No geometric fixed point in reach — stop paying the
                // detection overhead for this call.
                None => {
                    mic_obs::counter("kf.steady_polish_fail", 1);
                    detect = false;
                }
            }
        }
        t += 1;
    }
    if entry_step > 0 {
        mic_obs::counter("kf.steady_entered", 1);
        mic_obs::counter("kf.steady_steps", steady_steps);
        mic_obs::value("kf.steady_entry_step", entry_step as f64);
    }
    loglik
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ObsLoading, DIFFUSE_KAPPA};

    fn local_level(var_eps: f64, var_level: f64) -> Ssm {
        Ssm {
            transition: Mat::identity(1),
            state_cov: Mat::diag(&[var_level]),
            obs_var: var_eps,
            loading: ObsLoading::Constant(vec![1.0]),
            a0: vec![0.0],
            p0: Mat::diag(&[DIFFUSE_KAPPA]),
            n_diffuse: 1,
            extra_skips: Vec::new(),
        }
    }

    #[test]
    fn constant_series_filters_to_constant() {
        let ssm = local_level(1.0, 0.0001);
        let ys = vec![5.0; 30];
        let r = kalman_filter(&ssm, &ys);
        // Filtered level should converge to 5.
        let last = r.filtered_means.last().unwrap()[0];
        assert!((last - 5.0).abs() < 1e-6, "level = {last}");
        // Innovations after burn-in are ~0.
        assert!(r.innovations[29].abs() < 1e-6);
    }

    #[test]
    fn diffuse_initialisation_jumps_to_first_observation() {
        let ssm = local_level(1.0, 0.1);
        let ys = vec![42.0, 42.5, 41.5];
        let r = kalman_filter(&ssm, &ys);
        // With κ = 1e7 the first update absorbs y_1 almost exactly.
        assert!((r.filtered_means[0][0] - 42.0).abs() < 1e-4);
    }

    #[test]
    fn loglik_excludes_diffuse_innovations() {
        // The first innovation has variance ~κ; if it were included the
        // log-likelihood would be dominated by −0.5·ln κ per unit.
        let ssm = local_level(1.0, 0.1);
        let ys = vec![100.0, 100.1, 99.9, 100.2];
        let r = kalman_filter(&ssm, &ys);
        // Reasonable magnitude for 3 scored points of N(·, ~1.1) innovations.
        assert!(r.loglik > -10.0 && r.loglik < 0.0, "loglik = {}", r.loglik);
    }

    #[test]
    fn loglik_matches_closed_form_for_known_model() {
        // With a known initial state (P0 = 0, n_diffuse = 0) and zero state
        // noise, the model reduces to iid N(a0, var_eps) observations whose
        // log-likelihood has a closed form.
        let ssm = Ssm {
            transition: Mat::identity(1),
            state_cov: Mat::diag(&[0.0]),
            obs_var: 2.0,
            loading: ObsLoading::Constant(vec![1.0]),
            a0: vec![1.0],
            p0: Mat::diag(&[0.0]),
            n_diffuse: 0,
            extra_skips: Vec::new(),
        };
        let ys = [1.5, 0.5, 2.0];
        let r = kalman_filter(&ssm, &ys);
        let expected: f64 = ys
            .iter()
            .map(|&y| mic_stats::dist::normal_ln_pdf(y, 1.0, 2.0_f64.sqrt()))
            .sum();
        assert!(
            (r.loglik - expected).abs() < 1e-9,
            "{} vs {expected}",
            r.loglik
        );
    }

    #[test]
    fn innovation_variances_decrease_with_information() {
        let ssm = local_level(1.0, 0.01);
        let ys: Vec<f64> = (0..40).map(|i| 10.0 + 0.001 * i as f64).collect();
        let r = kalman_filter(&ssm, &ys);
        // F_t decreases from the diffuse start toward steady state.
        assert!(r.innovation_vars[1] > r.innovation_vars[10]);
        assert!(r.innovation_vars[10] >= r.innovation_vars[30] - 1e-9);
        // Steady-state F is bounded below by the observation variance.
        assert!(r.innovation_vars[30] >= 1.0);
    }

    #[test]
    fn higher_noise_lowers_likelihood_of_smooth_data() {
        let smooth_ys: Vec<f64> = (0..30).map(|i| (i as f64) * 0.01).collect();
        let good = kalman_filter(&local_level(0.1, 0.01), &smooth_ys);
        let bad = kalman_filter(&local_level(100.0, 0.01), &smooth_ys);
        assert!(good.loglik > bad.loglik);
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn empty_series_panics() {
        kalman_filter(&local_level(1.0, 1.0), &[]);
    }

    #[test]
    fn loglik_fast_path_is_bit_identical() {
        let ys: Vec<f64> = (0..40)
            .map(|i| 10.0 + (i as f64 * 0.7).sin() * 2.0)
            .collect();
        let mut ws = FilterWorkspace::new(1);
        for ssm in [
            local_level(1.0, 0.1),
            local_level(0.3, 2.0),
            local_level(100.0, 0.001),
        ] {
            let full = kalman_filter(&ssm, &ys).loglik;
            let fast = kalman_loglik(&ssm, &ys, &mut ws, &SteadyStateOpts::DISABLED);
            assert_eq!(full.to_bits(), fast.to_bits(), "{full} vs {fast}");
        }
    }

    #[test]
    fn workspace_resizes_across_dimensions() {
        // One workspace serves a 1-state and a 13-state model back to back.
        use crate::structural::{StructuralParams, StructuralSpec};
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        let ys: Vec<f64> = (0..30).map(|i| 5.0 + 0.1 * i as f64).collect();
        let mut ws = FilterWorkspace::new(1);
        for spec in [StructuralSpec::local_level(), StructuralSpec::full(10)] {
            let ssm = spec.build(&params, ys.len());
            let full = kalman_filter(&ssm, &ys).loglik;
            let fast = kalman_loglik(&ssm, &ys, &mut ws, &SteadyStateOpts::DISABLED);
            assert_eq!(full.to_bits(), fast.to_bits());
        }
    }

    #[test]
    fn workspace_shrink_then_grow_keeps_capacity_and_results() {
        // A search alternates 12-state baseline and 13-state candidate
        // models through ONE workspace; (re)sizing must neither corrupt
        // state nor reallocate once the high-water mark is reached.
        use crate::structural::{StructuralParams, StructuralSpec};
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        let ys: Vec<f64> = (0..36)
            .map(|i| 20.0 + (i as f64 * std::f64::consts::PI / 6.0).sin())
            .collect();
        let big = StructuralSpec::full(18).build(&params, ys.len()); // 13-state
        let small = StructuralSpec::with_seasonal().build(&params, ys.len()); // 12-state

        let mut ws = FilterWorkspace::new(big.state_dim());
        let _warm = kalman_loglik(&big, &ys, &mut ws, &SteadyStateOpts::DISABLED);
        let cap_probe = (
            ws.a_pred.capacity(),
            ws.p_pred.as_slice().as_ptr(),
            ws.p_prev.as_slice().as_ptr(),
        );

        // Shrink to 12 states, then grow back to 13: results must stay
        // bit-identical to a fresh filter and no buffer may move.
        for ssm in [&small, &big, &small, &big] {
            let full = kalman_filter(ssm, &ys).loglik;
            let fast = kalman_loglik(ssm, &ys, &mut ws, &SteadyStateOpts::DISABLED);
            assert_eq!(full.to_bits(), fast.to_bits());
        }
        assert_eq!(ws.a_pred.capacity(), cap_probe.0);
        assert_eq!(ws.p_pred.as_slice().as_ptr(), cap_probe.1);
        assert_eq!(ws.p_prev.as_slice().as_ptr(), cap_probe.2);
    }

    #[test]
    fn indefinite_p0_hits_observation_variance_floor() {
        // validate() does not check that p0 is PSD, so a degenerate
        // parameter vector can drive z'Pz negative mid-filter and push
        // F below zero. The clamp to the observation-variance floor must
        // keep the likelihood finite so Nelder–Mead can reject the point
        // instead of propagating NaN through the simplex.
        let mut ssm = local_level(1.0, 0.1);
        ssm.p0 = Mat::diag(&[-5.0]);
        ssm.n_diffuse = 0;
        let ys = vec![1.0, -2.0, 0.5, 3.0, -1.0];
        let mut ws = FilterWorkspace::new(1);
        for steady in [SteadyStateOpts::DISABLED, SteadyStateOpts::default()] {
            let ll = kalman_loglik(&ssm, &ys, &mut ws, &steady);
            assert!(ll.is_finite(), "loglik must stay finite, got {ll}");
        }
        let full = kalman_filter(&ssm, &ys);
        assert!(full.loglik.is_finite());
        // The clamp floors F at H = 1.0.
        assert!(full.innovation_vars.iter().all(|&f| f >= 1.0));
    }

    #[test]
    fn steady_state_matches_reference_within_tolerance() {
        use crate::structural::{StructuralParams, StructuralSpec};
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        let ys: Vec<f64> = (0..120)
            .map(|i| 30.0 + 5.0 * (i as f64 * std::f64::consts::PI / 6.0).sin())
            .collect();
        let mut ws = FilterWorkspace::new(12);
        for spec in [
            StructuralSpec::local_level(),
            StructuralSpec::with_seasonal(),
        ] {
            let ssm = spec.build(&params, ys.len());
            let reference = kalman_filter(&ssm, &ys).loglik;
            let steady = kalman_loglik(&ssm, &ys, &mut ws, &SteadyStateOpts::default());
            let rel = ((steady - reference) / reference).abs();
            assert!(
                rel <= 1e-9,
                "steady drift {rel:.3e} ({steady} vs {reference})"
            );
        }
    }

    #[test]
    fn steady_state_exits_and_reenters_across_loading_change() {
        // Intervention model: the loading is constant pre-break and ramps
        // post-break. The steady phase must freeze in the pre-break
        // stretch, exit exactly at the break, and resume the exact
        // recursion from the refined covariance without corrupting the
        // likelihood.
        use crate::structural::{StructuralParams, StructuralSpec};
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        let t = 120;
        let cp = 90;
        let ys: Vec<f64> = (0..t)
            .map(|i| {
                let ramp = if i >= cp {
                    (i - cp + 1) as f64 * 0.3
                } else {
                    0.0
                };
                25.0 + ramp + 2.0 * (i as f64 * std::f64::consts::PI / 6.0).sin()
            })
            .collect();
        let ssm = StructuralSpec::full(cp).build(&params, t);
        assert!(matches!(ssm.loading, ObsLoading::TimeVarying(_)));
        let mut ws = FilterWorkspace::new(ssm.state_dim());
        let reference = kalman_filter(&ssm, &ys).loglik;
        let steady = kalman_loglik(&ssm, &ys, &mut ws, &SteadyStateOpts::default());
        let rel = ((steady - reference) / reference).abs();
        assert!(
            rel <= 1e-9,
            "steady drift {rel:.3e} ({steady} vs {reference})"
        );
    }

    #[test]
    fn steady_state_disabled_by_zero_tolerance() {
        let opts = SteadyStateOpts {
            rel_tol: 0.0,
            hold: 3,
        };
        assert!(!opts.enabled());
        let ys = vec![5.0; 50];
        let ssm = local_level(1.0, 0.1);
        let mut ws = FilterWorkspace::new(1);
        let a = kalman_loglik(&ssm, &ys, &mut ws, &opts);
        let b = kalman_filter(&ssm, &ys).loglik;
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn loglik_fast_path_respects_skips() {
        let mut ssm = local_level(1.0, 0.1);
        ssm.n_diffuse = 2;
        ssm.extra_skips = vec![5, 7];
        let ys: Vec<f64> = (0..20).map(|i| (i as f64).sqrt()).collect();
        let mut ws = FilterWorkspace::new(1);
        let full = kalman_filter(&ssm, &ys).loglik;
        let fast = kalman_loglik(&ssm, &ys, &mut ws, &SteadyStateOpts::DISABLED);
        assert_eq!(full.to_bits(), fast.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn empty_series_panics_fast_path() {
        kalman_loglik(
            &local_level(1.0, 1.0),
            &[],
            &mut FilterWorkspace::new(1),
            &SteadyStateOpts::DISABLED,
        );
    }
}
