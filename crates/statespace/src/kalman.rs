//! Kalman filter for univariate observations.
//!
//! Standard prediction/update recursion with scalar innovations. The full
//! run stores what the Durbin–Koopman fixed-interval smoother (§4.4) reads —
//! innovations, their variances, predicted means and covariances — so the
//! smoother needs no inversion. The log-likelihood follows
//! Commandeur & Koopman: the first `n_diffuse` innovations (dominated by the
//! near-diffuse prior) are excluded, so models with different numbers of
//! diffuse states get comparable AICs via the `2·(q + w)` penalty.
//!
//! Every run — [`kalman_filter`], [`kalman_loglik`], the ARIMA likelihood's
//! `concentrated_sums` and the forecaster — goes through one pass of
//! [`FilterWorkspace`], whose update and predict steps do only the
//! arithmetic the model's nonzeros need (see `Pattern`). Each sum keeps the
//! terms and the order of the textbook dense recursion, so the results are
//! bit-identical to it (up to the sign of exact zeros) for every model
//! whose recursion stays finite.
//!
//! The pass picks the step's state dimension once, from `ssm.state_dim()`:
//! the four dimensions the structural builder produces — `lead(seasonal)`
//! plus at most one λ, i.e. 1, 2, 12 and 13 — run a step compiled for that
//! dimension (`Const<M>`), so every `0..m` loop has a constant bound the
//! compiler can unroll and check once; every other model (ARIMA companion
//! forms, the multi-change-point models with two or more λs) runs the same
//! step body at a run-time dimension (`Dyn`).

use crate::model::Ssm;
use mic_stats::Mat;

const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// A state dimension, fixed at compile time ([`Const`]) or at run time
/// ([`Dyn`]). The step body is generic over it; the arithmetic is the same
/// either way, only what the compiler knows about `m` differs.
trait Dim: Copy {
    fn m(self) -> usize;
}

/// A state dimension known at compile time.
#[derive(Clone, Copy)]
struct Const<const M: usize>;

impl<const M: usize> Dim for Const<M> {
    fn m(self) -> usize {
        M
    }
}

/// A state dimension known at run time only.
#[derive(Clone, Copy)]
struct Dyn(usize);

impl Dim for Dyn {
    fn m(self) -> usize {
        self.0
    }
}

/// Full filtering output for one series: the inputs of the Durbin–Koopman
/// fixed-interval smoother (§4.4), no inversion, plus the filtered means
/// whose last entry is the smoothed state at `n − 1`.
#[derive(Clone, Debug)]
pub struct FilterResult {
    /// Log-likelihood (first `n_diffuse` innovations excluded).
    pub loglik: f64,
    /// One-step-ahead innovations `v_t = y_t − Z_t a_{t|t−1}`.
    pub innovations: Vec<f64>,
    /// Innovation variances `F_t`, floored at `max(H, 1e-12)`; a step on
    /// the floor updated nothing.
    pub innovation_vars: Vec<f64>,
    /// Predicted state means `a_{t|t−1}`.
    pub predicted_means: Vec<Vec<f64>>,
    /// Predicted state covariances `P_{t|t−1}`.
    pub predicted_covs: Vec<Mat>,
    /// Filtered state means `a_{t|t}`.
    pub filtered_means: Vec<Vec<f64>>,
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

/// Where a model's nonzeros sit, derived once per run by
/// [`FilterWorkspace::run`].
///
/// The structural models are almost empty: the 13-state level + seasonal +
/// λ model loads 3 states, has 2 nonzero disturbance variances, and 12 of
/// its 13 transition rows are a single `1.0` (only the dummy-seasonal row
/// `−1 … −1` does arithmetic). Skipping a zero term changes no sum — it
/// would add exactly `±0.0` while the entries stay finite — and every
/// surviving term arrives in the dense order, so the sparse step reproduces
/// the dense one bit for bit (up to the sign of exact zeros).
#[derive(Clone, Debug, Default)]
struct Pattern {
    /// Columns where `Z_t` can be nonzero: `loading`'s nonzeros and the
    /// slope-shift states, ascending.
    z_cols: Vec<usize>,
    /// Flat row-major indices of `Q`'s nonzero entries.
    q_nz: Vec<usize>,
    /// Per row of `T`: the source column of a unit row (a single `1.0`,
    /// so `(T x)_r = x_src`); a general row names itself.
    t_src: Vec<usize>,
    /// The general rows of `T` as `(row, lo, hi)`: their nonzeros are
    /// `t_entries[lo..hi]`.
    t_general: Vec<(usize, usize, usize)>,
    /// `(column, value)` nonzeros of the general rows, ascending column.
    t_entries: Vec<(usize, f64)>,
}

impl Pattern {
    /// Rebuild from `ssm`, reusing existing capacity.
    fn load(&mut self, ssm: &Ssm) {
        let m = ssm.state_dim();
        self.z_cols.clear();
        self.z_cols.extend(
            (0..m).filter(|&j| {
                ssm.loading[j] != 0.0 || ssm.slope_shifts.iter().any(|&(s, _)| s == j)
            }),
        );
        self.q_nz.clear();
        let q = ssm.state_cov.as_slice();
        self.q_nz.extend((0..m * m).filter(|&i| q[i] != 0.0));
        self.t_src.clear();
        self.t_general.clear();
        self.t_entries.clear();
        for (r, row) in ssm.transition.as_slice().chunks_exact(m).enumerate() {
            let lo = self.t_entries.len();
            let nonzeros = row.iter().enumerate().filter(|&(_, &v)| v != 0.0);
            self.t_entries.extend(nonzeros.map(|(c, &v)| (c, v)));
            match self.t_entries[lo..] {
                [(src, 1.0)] => {
                    self.t_entries.truncate(lo);
                    self.t_src.push(src);
                }
                _ => {
                    self.t_src.push(r);
                    self.t_general.push((r, lo, self.t_entries.len()));
                }
            }
        }
    }

    /// `Σ_c T[r][c]·x[c]` over the nonzeros `t_entries[lo..hi]` of a
    /// general row, ascending `c`.
    #[inline]
    fn dot(&self, lo: usize, hi: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &(c, t) in &self.t_entries[lo..hi] {
            acc += x[c] * t;
        }
        acc
    }
}

/// The floor under the innovation variance `F_t` (see
/// `FilterWorkspace::update`); a step whose `F_t` sits on it takes no
/// information from its observation, in the filter and the smoother alike.
pub(crate) fn innovation_floor(obs_var: f64) -> f64 {
    obs_var.max(1e-12)
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
    let mut out = FilterResult {
        loglik: 0.0,
        innovations: Vec::with_capacity(n),
        innovation_vars: Vec::with_capacity(n),
        predicted_means: Vec::with_capacity(n),
        predicted_covs: Vec::with_capacity(n),
        filtered_means: Vec::with_capacity(n),
    };
    // The update leaves `(a_pred, p_pred)` as it found them.
    FilterWorkspace::default().run(ssm, ys, |t, v, f, ws| {
        out.predicted_means.push(ws.a_pred.clone());
        out.predicted_covs.push(ws.p_pred.clone());
        if ssm.scores(t) {
            out.loglik += loglik_term(v, f);
        }
        out.innovations.push(v);
        out.innovation_vars.push(f);
        out.filtered_means.push(ws.a_filt.clone());
    });
    out
}

/// Mean and variance forecasts of `y_{n+1}, …, y_{n+h}` past the end of
/// `ys` (`n = ys.len()`): the filter runs over `ys`, then the predict step
/// alone carries the state `h` steps further, with `Z_{n+j}` computed like
/// the filter's.
///
/// # Panics
/// Panics if `ys` is empty, and in debug builds if the model fails
/// validation.
pub(crate) fn forecast_moments(ssm: &Ssm, ys: &[f64], h: usize) -> Vec<(f64, f64)> {
    let mut ws = FilterWorkspace::default();
    ws.run(ssm, ys, |_, _, _, _| {});
    // A handful of steps per forecast: the run-time dimension serves them.
    let d = Dyn(ws.state_dim);
    let n = ys.len();
    (0..h)
        .map(|j| {
            if j > 0 {
                std::mem::swap(&mut ws.a_pred, &mut ws.a_filt);
                std::mem::swap(&mut ws.p_pred, &mut ws.p_filt);
            }
            ws.predict(d, &ssm.state_cov);
            ssm.load_shifts(n + j, &mut ws.z);
            let mean: f64 = ws.z.iter().zip(&ws.a_pred).map(|(zi, ai)| zi * ai).sum();
            (mean, ws.p_pred.quad_form(&ws.z) + ssm.obs_var)
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
/// A run copies the model's constant `loading` into its `z` buffer once and
/// writes the slope-shift entries `w_t` into it before each update. Per
/// step, the update computes `P zᵀ` and `F` over the columns where `Z_t`
/// can be nonzero and writes `P − k pzᵀ` straight from `P`, symmetrizing
/// each off-diagonal pair as it writes it; the predict step writes a unit
/// row of `T P Tᵀ` straight from `P` (`P[src_i][src_j]`) and forms `T·P`
/// only for the general rows of `T`. A run uses the step compiled for its state
/// dimension when the structural builder can produce that dimension, and
/// the run-time-dimension step otherwise (see the module docs; DESIGN §5
/// gives the measured step times).
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
    /// `Z_t` of the current step.
    z: Vec<f64>,
    a_pred: Vec<f64>,
    a_filt: Vec<f64>,
    pz: Vec<f64>,
    k: Vec<f64>,
    p_pred: Mat,
    p_filt: Mat,
    /// `T·P` for the general rows of `T`: row `g` belongs to
    /// `pat.t_general[g]` (only the first `g · m` entries are used).
    tp: Mat,
    pat: Pattern,
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
            &mut self.z,
            &mut self.a_pred,
            &mut self.a_filt,
            &mut self.pz,
            &mut self.k,
        ] {
            v.clear();
            v.resize(m, 0.0);
        }
        self.p_pred.resize(m, m);
        self.p_filt.resize(m, m);
        self.tp.resize(m, m);
    }

    /// The filtered state `a_{t|t}` after the run's last update.
    pub(crate) fn filtered_state(&self) -> &[f64] {
        &self.a_filt
    }

    /// One filter pass of `ssm` over `ys` from the prior `(a0, P0)`: an
    /// update per observation, each but the first preceded by a predict
    /// step, and `visit(t, v_t, F_t, self)` after each update. No predict
    /// follows the last update, so the workspace ends in `a_{n|n}`,
    /// `P_{n|n}`. The step runs at a compile-time state dimension where
    /// there is one (see the module docs).
    fn run(&mut self, ssm: &Ssm, ys: &[f64], visit: impl FnMut(usize, f64, f64, &Self)) {
        debug_assert!(ssm.validate().is_ok(), "invalid SSM: {:?}", ssm.validate());
        assert!(
            !ys.is_empty(),
            "the Kalman filter requires at least one observation"
        );
        let m = ssm.state_dim();
        self.ensure_dim(m);
        self.z.copy_from_slice(&ssm.loading);
        self.a_pred.copy_from_slice(&ssm.a0);
        self.p_pred.copy_from(&ssm.p0);
        self.pat.load(ssm);
        match m {
            1 => self.steps(Const::<1>, ssm, ys, visit),
            2 => self.steps(Const::<2>, ssm, ys, visit),
            12 => self.steps(Const::<12>, ssm, ys, visit),
            13 => self.steps(Const::<13>, ssm, ys, visit),
            _ => self.steps(Dyn(m), ssm, ys, visit),
        }
    }

    /// The loop of [`FilterWorkspace::run`] at dimension `d`.
    fn steps<D: Dim>(
        &mut self,
        d: D,
        ssm: &Ssm,
        ys: &[f64],
        mut visit: impl FnMut(usize, f64, f64, &Self),
    ) {
        for (t, &y) in ys.iter().enumerate() {
            if t > 0 {
                self.predict(d, &ssm.state_cov);
            }
            ssm.load_shifts(t, &mut self.z);
            let (v, f) = self.update(d, ssm.obs_var, y);
            visit(t, v, f, self);
        }
    }

    /// Measurement update of `(a_pred, p_pred)` by observation `y` under
    /// the loading `z` into `(a_filt, p_filt)`: `pz = P zᵀ` and
    /// `F = z P zᵀ + H`, both summed over `Pattern::z_cols`; the
    /// gain `k = pz / F`; `p_filt = P − k pzᵀ`, symmetrized; and
    /// `a_filt = a_pred + k v`. Returns the innovation `v = y − z·a_pred`
    /// and its variance `F`.
    fn update<D: Dim>(&mut self, d: D, obs_var: f64, y: f64) -> (f64, f64) {
        let m = d.m();
        let FilterWorkspace {
            z,
            a_pred,
            a_filt,
            pz,
            k,
            p_pred,
            p_filt,
            pat,
            ..
        } = self;
        let (z, a_pred, a_filt) = (&z[..m], &a_pred[..m], &mut a_filt[..m]);
        let (pz, k) = (&mut pz[..m], &mut k[..m]);
        let p = &p_pred.as_slice()[..m * m];
        let out = &mut p_filt.as_mut_slice()[..m * m];

        let mut zy = 0.0;
        for &j in &pat.z_cols {
            zy += z[j] * a_pred[j];
        }
        let v = y - zy;
        for (pzi, row) in pz.iter_mut().zip(p.chunks_exact(m)) {
            let mut acc = 0.0;
            for &j in &pat.z_cols {
                acc += row[j] * z[j];
            }
            *pzi = acc;
        }
        let mut f = obs_var;
        for &j in &pat.z_cols {
            f += z[j] * pz[j];
        }
        // Guard: F = Z P Z' + H is bounded below by the observation
        // variance H for any PSD P, but degenerate parameter vectors can
        // drive the subtract-and-symmetrize recursion indefinite and push
        // Z P Z' below −H. Clamp to the documented floor (H, or 1e-12 for
        // all-zero-variance models) so the likelihood stays finite and an
        // optimiser sees an ordinary bad objective value instead of
        // NaN/−inf. A step at the floor updates nothing, as if `y` were
        // missing: its `Z P Z'` is rounding noise, and a gain over it
        // (`P zᵀ / 1e-12` when H = 0) makes `P` ever more indefinite until
        // the state overflows.
        let floor = innovation_floor(obs_var);
        let f = if f <= floor {
            k.fill(0.0);
            out.copy_from_slice(p);
            floor
        } else {
            for (ki, pzi) in k.iter_mut().zip(pz.iter()) {
                *ki = pzi / f;
            }
            // p_filt = P − k pzᵀ, written straight from P, each pair
            // (r, c), (c, r) once as their mean: the sums `Mat::symmetrize`
            // would form after a full write, without the second pass.
            for r in 0..m {
                let (kr, pzr) = (k[r], pz[r]);
                out[r * m + r] = p[r * m + r] - kr * pzr;
                for c in r + 1..m {
                    let upper = p[r * m + c] - kr * pz[c];
                    let lower = p[c * m + r] - k[c] * pzr;
                    let s = 0.5 * (upper + lower);
                    out[r * m + c] = s;
                    out[c * m + r] = s;
                }
            }
            f
        };
        for ((af, ap), ki) in a_filt.iter_mut().zip(a_pred).zip(k.iter()) {
            *af = ap + ki * v;
        }
        (v, f)
    }

    /// Predict step: `a_pred = T a_filt`, then `p_pred = T p_filt Tᵀ + Q`,
    /// symmetrized. A unit row of `T` is a copy in `T·a` and a gather
    /// straight from `p_filt` in `T P Tᵀ` (`P[src_i][src_j]`); only the
    /// general rows do arithmetic and have a `T·P` row, and `Q` is added on
    /// its nonzero entries only.
    fn predict<D: Dim>(&mut self, d: D, state_cov: &Mat) {
        let m = d.m();
        let FilterWorkspace {
            a_pred,
            a_filt,
            p_pred,
            p_filt,
            tp,
            pat,
            ..
        } = self;
        let (a_pred, a_filt) = (&mut a_pred[..m], &a_filt[..m]);
        let t_src = &pat.t_src[..m];
        for (a, &src) in a_pred.iter_mut().zip(t_src) {
            *a = a_filt[src];
        }
        for &(r, lo, hi) in &pat.t_general {
            a_pred[r] = pat.dot(lo, hi, a_filt);
        }

        let pf = &p_filt.as_slice()[..m * m];
        let tpd = &mut tp.as_mut_slice()[..pat.t_general.len() * m];
        for (out, &(_, lo, hi)) in tpd.chunks_exact_mut(m).zip(&pat.t_general) {
            out.fill(0.0);
            for &(c, t) in &pat.t_entries[lo..hi] {
                for (o, p) in out.iter_mut().zip(&pf[c * m..(c + 1) * m]) {
                    *o += t * p;
                }
            }
        }

        // (T·P)·Tᵀ. A unit column is a gather from each row of T·P, and a
        // unit row of T·P is a row of `p_filt`; a general row's gather
        // overwrites the one its own `t_src` entry made. A general column
        // mirrors its row — with `p_filt` symmetric, entry (i, c) of a unit
        // row i sums the same products in the same order as entry (c, i) —
        // so only pairs of general rows need their own sum.
        let pp = &mut p_pred.as_mut_slice()[..m * m];
        let tpd = &tp.as_slice()[..pat.t_general.len() * m];
        let gather = |out: &mut [f64], row: &[f64]| {
            for (o, &src) in out.iter_mut().zip(t_src) {
                *o = row[src];
            }
        };
        for (out, &src) in pp.chunks_exact_mut(m).zip(t_src) {
            gather(out, &pf[src * m..(src + 1) * m]);
        }
        for (tp_row, &(r, ..)) in tpd.chunks_exact(m).zip(&pat.t_general) {
            gather(&mut pp[r * m..(r + 1) * m], tp_row);
        }
        for &(c, lo, hi) in &pat.t_general {
            for i in 0..m {
                pp[i * m + c] = pp[c * m + i];
            }
            for (tp_row, &(r, ..)) in tpd.chunks_exact(m).zip(&pat.t_general) {
                pp[r * m + c] = pat.dot(lo, hi, tp_row);
            }
        }
        let q = state_cov.as_slice();
        for &i in &pat.q_nz {
            pp[i] += q[i];
        }

        // With `p_filt` symmetric, an entry whose row or column belongs to
        // a unit row of `T` already equals its mirror image bit for bit, so
        // only pairs of general rows and off-diagonal `Q` entries can need
        // the symmetrization (which leaves an equal pair unchanged).
        let mut sym = |r: usize, c: usize| {
            let s = 0.5 * (pp[r * m + c] + pp[c * m + r]);
            pp[r * m + c] = s;
            pp[c * m + r] = s;
        };
        for (i, &(r, ..)) in pat.t_general.iter().enumerate() {
            for &(c, ..) in &pat.t_general[i + 1..] {
                sym(r, c);
            }
        }
        for &i in &pat.q_nz {
            let (r, c) = (i / m, i % m);
            if r != c {
                sym(r, c);
            }
        }
    }
}

/// One filter pass over `ys` for a likelihood with the scale concentrated
/// out: `(Σ ln F_t, Σ v_t²/F_t)` over every step, or `None` when some
/// `F_t` is not a positive finite number. Either way the pass runs to the
/// end and leaves its last filtered state in `ws`
/// ([`FilterWorkspace::filtered_state`]). The same recursion and arithmetic
/// as [`kalman_filter`], with no per-step copies.
///
/// # Panics
/// Panics if `ys` is empty, and in debug builds if the model fails
/// validation.
pub(crate) fn concentrated_sums(
    ssm: &Ssm,
    ys: &[f64],
    ws: &mut FilterWorkspace,
) -> Option<(f64, f64)> {
    let (mut sum_ln_f, mut sum_v2f, mut valid) = (0.0, 0.0, true);
    ws.run(ssm, ys, |_, v, f, _| {
        valid &= f.is_finite() && f > 0.0;
        sum_ln_f += f.ln();
        sum_v2f += v * v / f;
    });
    valid.then_some((sum_ln_f, sum_v2f))
}

/// Log-likelihood of `ys` under `ssm` — the same recursion and arithmetic
/// as [`kalman_filter`], so it returns exactly `kalman_filter(ssm,
/// ys).loglik`, but computing only the scalar likelihood with zero heap
/// allocation per timestep (all state lives in `ws`). The run leaves its
/// last filtered state `a_{n|n}` in `ws`. Use this in optimisation loops;
/// use [`kalman_filter`] when the smoother needs the full state trajectory.
///
/// # Panics
/// Panics if `ys` is empty, and in debug builds if the model fails
/// validation.
pub fn kalman_loglik(ssm: &Ssm, ys: &[f64], ws: &mut FilterWorkspace) -> f64 {
    let mut loglik = 0.0;
    ws.run(ssm, ys, |t, v, f, _| {
        if ssm.scores(t) {
            loglik += loglik_term(v, f);
        }
    });
    loglik
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DIFFUSE_KAPPA;

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

    /// The ARIMA likelihood's pass sums exactly what the full filter's
    /// innovations give and ends in its last filtered state.
    #[test]
    fn concentrated_sums_match_the_full_filter() {
        // ARMA(2, 1) in Harvey form: a general transition row and a full Q.
        let ssm = Ssm {
            transition: Mat::from_rows(&[vec![0.5, 1.0], vec![-0.3, 0.0]]),
            state_cov: Mat::from_rows(&[vec![1.0, 0.4], vec![0.4, 0.16]]),
            obs_var: 0.0,
            loading: vec![1.0, 0.0],
            slope_shifts: Vec::new(),
            a0: vec![0.0, 0.0],
            p0: Mat::from_rows(&[vec![2.0, 0.3], vec![0.3, 0.5]]),
            n_diffuse: 0,
            extra_skips: Vec::new(),
        };
        let ys = [0.4, -1.2, 0.9, 2.1, -0.3, 0.0, 1.7];
        let full = kalman_filter(&ssm, &ys);
        let mut ws = FilterWorkspace::default();
        let (sum_ln_f, sum_v2f) = concentrated_sums(&ssm, &ys, &mut ws).unwrap();
        let (mut ln_f, mut v2f) = (0.0, 0.0);
        for (v, f) in full.innovations.iter().zip(&full.innovation_vars) {
            ln_f += f.ln();
            v2f += v * v / f;
        }
        assert_eq!((sum_ln_f, sum_v2f), (ln_f, v2f));
        assert_eq!(ws.filtered_state(), &full.filtered_means[ys.len() - 1][..]);
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
            loading: vec![1.0],
            slope_shifts: Vec::new(),
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
            let fast = kalman_loglik(&ssm, &ys, &mut ws);
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
            let ssm = spec.build(&params);
            let full = kalman_filter(&ssm, &ys).loglik;
            let fast = kalman_loglik(&ssm, &ys, &mut ws);
            assert_eq!(full.to_bits(), fast.to_bits());
        }
    }

    #[test]
    fn workspace_shrink_then_grow_keeps_capacity_and_results() {
        // A search alternates 12-state baseline and 13-state candidate
        // models through ONE workspace, and `multi` adds 14-state models
        // with two λs; (re)sizing must neither corrupt state nor reallocate
        // once the high-water mark is reached — across the step compiled
        // for 12 and 13 states and the run-time-dimension step alike.
        use crate::structural::{build_ssm, StructuralParams, StructuralSpec};
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        let ys: Vec<f64> = (0..36)
            .map(|i| 20.0 + (i as f64 * std::f64::consts::PI / 6.0).sin())
            .collect();
        let two = build_ssm(true, &[10, 24], &params); // 14-state
        let big = StructuralSpec::full(18).build(&params); // 13-state
        let small = StructuralSpec::with_seasonal().build(&params); // 12-state

        let mut ws = FilterWorkspace::new(two.state_dim());
        let _warm = kalman_loglik(&two, &ys, &mut ws);
        let probe = |ws: &FilterWorkspace| {
            (
                ws.a_pred.capacity(),
                ws.p_pred.as_slice().as_ptr(),
                ws.p_filt.as_slice().as_ptr(),
                ws.tp.as_slice().as_ptr(),
                ws.pat.z_cols.as_ptr(),
                ws.z.as_ptr(),
                ws.pat.q_nz.as_ptr(),
                ws.pat.t_src.as_ptr(),
                ws.pat.t_general.as_ptr(),
                ws.pat.t_entries.as_ptr(),
            )
        };
        let before = probe(&ws);

        // Specialised, run-time and specialised dimensions in turn, shrinking
        // and growing: results must stay bit-identical to a fresh filter and
        // no buffer may move.
        for ssm in [&big, &two, &small, &big, &small, &two, &big] {
            let full = kalman_filter(ssm, &ys);
            let fast = kalman_loglik(ssm, &ys, &mut ws);
            assert_eq!(full.loglik.to_bits(), fast.to_bits());
            assert_eq!(ws.filtered_state(), &full.filtered_means[ys.len() - 1][..]);
        }
        assert_eq!(probe(&ws), before);
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
        let ll = kalman_loglik(&ssm, &ys, &mut ws);
        assert!(ll.is_finite(), "loglik must stay finite, got {ll}");
        let full = kalman_filter(&ssm, &ys);
        assert!(full.loglik.is_finite());
        // The clamp floors F at H = 1.0.
        assert!(full.innovation_vars.iter().all(|&f| f >= 1.0));
    }

    #[test]
    fn loglik_fast_path_respects_skips() {
        let mut ssm = local_level(1.0, 0.1);
        ssm.n_diffuse = 2;
        ssm.extra_skips = vec![5, 7];
        let ys: Vec<f64> = (0..20).map(|i| (i as f64).sqrt()).collect();
        let mut ws = FilterWorkspace::new(1);
        let full = kalman_filter(&ssm, &ys).loglik;
        let fast = kalman_loglik(&ssm, &ys, &mut ws);
        assert_eq!(full.to_bits(), fast.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn empty_series_panics_fast_path() {
        kalman_loglik(&local_level(1.0, 1.0), &[], &mut FilterWorkspace::new(1));
    }
}
