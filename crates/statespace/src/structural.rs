//! The paper's structural time-series model family (Section V-A).
//!
//! Variants used in the Table IV ablation:
//!
//! | name            | components                                   |
//! |-----------------|----------------------------------------------|
//! | `LL`            | local level + irregular                      |
//! | `LL + S`        | + 11-state dummy seasonal                    |
//! | `LL + I`        | + slope-shift intervention `λ·w_t`           |
//! | `LL + S + I`    | full model (the paper's proposal)            |
//!
//! The intervention coefficient `λ` is carried as a noise-free diffuse state
//! whose loading is the slope-shift regressor `w_t = max(0, t − t_CP + 1)`
//! ([`Ssm::slope_shifts`]), so its MLE falls out of the Kalman filter and
//! only the disturbance variances need numeric optimisation. A built model
//! holds no per-month table: the filter, the smoother and the forecaster
//! compute `w_t` at each step, for a series of any length.

use crate::model::{slope_shift_w, Ssm, DIFFUSE_KAPPA};
use mic_stats::Mat;

/// Seasonal period of the monthly data.
const PERIOD: usize = 12;

/// State dimension of the base (no-intervention) model: the level plus the
/// `PERIOD − 1` dummy-seasonal states. It is also the likelihood lead every
/// fit of a change-point search skips (see
/// [`comparable_skip`](crate::estimate::comparable_skip)), and the index of
/// the first λ state.
pub(crate) fn lead(seasonal: bool) -> usize {
    1 + if seasonal { PERIOD - 1 } else { 0 }
}

/// Build the numeric SSM of the structural model with one noise-free,
/// diffuse λ state per change point (in the given order, from state
/// [`lead`] on), each loading its change point's slope shift.
pub(crate) fn build_ssm(seasonal: bool, change_points: &[usize], params: &StructuralParams) -> Ssm {
    let base = lead(seasonal);
    let m = base + change_points.len();
    let mut transition = Mat::zeros(m, m);
    let mut q = vec![0.0; m];
    // Level.
    transition[(0, 0)] = 1.0;
    q[0] = params.var_level;
    // Seasonal block: γ_{t+1,1} = −Σ γ_ts + ω; γ_{t+1,s} = γ_{t,s−1}.
    if seasonal {
        for j in 1..base {
            transition[(1, j)] = -1.0;
        }
        for j in 2..base {
            transition[(j, j - 1)] = 1.0;
        }
        q[1] = params.var_seasonal;
    }
    // λs: constant states, no noise.
    for k in base..m {
        transition[(k, k)] = 1.0;
    }

    let mut loading = vec![0.0; m];
    loading[0] = 1.0;
    if seasonal {
        loading[1] = 1.0;
    }

    Ssm {
        transition,
        state_cov: Mat::diag(&q),
        obs_var: params.var_eps,
        loading,
        slope_shifts: (base..).zip(change_points.iter().copied()).collect(),
        a0: vec![0.0; m],
        p0: Mat::diag(&vec![DIFFUSE_KAPPA; m]),
        n_diffuse: m,
        extra_skips: Vec::new(),
    }
}

/// Which components the model carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StructuralSpec {
    pub seasonal: bool,
    /// The slope shift's 0-based change point `t_CP`, or `None` for no
    /// intervention (`t_CP = ∞`).
    pub change_point: Option<usize>,
}

impl StructuralSpec {
    /// Local level only.
    pub fn local_level() -> StructuralSpec {
        StructuralSpec {
            seasonal: false,
            change_point: None,
        }
    }

    /// Local level + seasonal.
    pub fn with_seasonal() -> StructuralSpec {
        StructuralSpec {
            seasonal: true,
            change_point: None,
        }
    }

    /// Local level + intervention.
    pub fn with_intervention(change_point: usize) -> StructuralSpec {
        StructuralSpec {
            seasonal: false,
            change_point: Some(change_point),
        }
    }

    /// The paper's full model.
    pub fn full(change_point: usize) -> StructuralSpec {
        StructuralSpec {
            seasonal: true,
            change_point: Some(change_point),
        }
    }

    /// State dimension: level + 11 seasonal states (if seasonal) + λ (if
    /// intervention).
    pub fn state_dim(&self) -> usize {
        lead(self.seasonal) + usize::from(self.change_point.is_some())
    }

    /// Index of the seasonal block's first state (if seasonal).
    fn seasonal_index(&self) -> Option<usize> {
        self.seasonal.then_some(1)
    }

    /// Index of the λ state (if intervention).
    pub fn lambda_index(&self) -> Option<usize> {
        self.change_point.map(|_| lead(self.seasonal))
    }

    /// Build the numeric SSM.
    pub fn build(&self, params: &StructuralParams) -> Ssm {
        build_ssm(self.seasonal, self.change_point.as_slice(), params)
    }
}

/// Disturbance variances of the structural model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StructuralParams {
    /// Observation (irregular) variance `σ²_ε`.
    pub var_eps: f64,
    /// Level disturbance variance `σ²_ξ`.
    pub var_level: f64,
    /// Seasonal disturbance variance `σ²_ω` (ignored without seasonality).
    pub var_seasonal: f64,
}

impl StructuralParams {
    /// All variances zero: a placeholder until an MLE loop writes its own.
    pub(crate) const ZERO: StructuralParams = StructuralParams {
        var_eps: 0.0,
        var_level: 0.0,
        var_seasonal: 0.0,
    };

    /// Write the variances into a built structural SSM: level at state 0,
    /// the seasonal block (if any) from state 1, noise-free λ states after.
    pub(crate) fn write_into(&self, seasonal: bool, ssm: &mut Ssm) {
        ssm.obs_var = self.var_eps;
        ssm.state_cov[(0, 0)] = self.var_level;
        if seasonal {
            ssm.state_cov[(1, 1)] = self.var_seasonal;
        }
    }
}

/// Smoothed component decomposition of a fitted series — what the paper
/// plots in the middle panels of Figs. 6–7.
#[derive(Clone, Debug)]
pub struct Components {
    /// `μ_t` (smoothed level).
    pub level: Vec<f64>,
    /// `γ_t1` (smoothed seasonal; zeros without seasonality).
    pub seasonal: Vec<f64>,
    /// `λ·w_t` (intervention contribution; zeros without intervention).
    pub intervention: Vec<f64>,
    /// Fitted values `x_t − ε_t = μ + γ + λw`.
    pub fitted: Vec<f64>,
    /// Residual irregular `ε_t = x_t − fitted`.
    pub irregular: Vec<f64>,
    /// Estimated intervention scale `λ` (0 without intervention).
    pub lambda: f64,
}

impl Components {
    /// Build from smoothed states.
    pub fn from_smoothed(
        spec: &StructuralSpec,
        smoothed_means: &[Vec<f64>],
        ys: &[f64],
    ) -> Components {
        assert_eq!(smoothed_means.len(), ys.len());
        let n = ys.len();
        let mut level = Vec::with_capacity(n);
        let mut seasonal = Vec::with_capacity(n);
        let mut intervention = Vec::with_capacity(n);
        let mut fitted = Vec::with_capacity(n);
        let mut irregular = Vec::with_capacity(n);
        let lambda = spec
            .lambda_index()
            .map(|li| smoothed_means[n - 1][li])
            .unwrap_or(0.0);
        for (t, (alpha, &y)) in smoothed_means.iter().zip(ys).enumerate() {
            let mu = alpha[0];
            let gamma = spec.seasonal_index().map(|s0| alpha[s0]).unwrap_or(0.0);
            let interv = spec
                .change_point
                .map_or(0.0, |cp| alpha[lead(spec.seasonal)] * slope_shift_w(cp, t));
            let f = mu + gamma + interv;
            level.push(mu);
            seasonal.push(gamma);
            intervention.push(interv);
            fitted.push(f);
            irregular.push(y - f);
        }
        Components {
            level,
            seasonal,
            intervention,
            fitted,
            irregular,
            lambda,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w_dummy_matches_paper_definition() {
        assert_eq!(slope_shift_w(5, 4), 0.0);
        assert_eq!(slope_shift_w(5, 5), 1.0);
        assert_eq!(slope_shift_w(5, 6), 2.0);
        assert_eq!(slope_shift_w(5, 10), 6.0);
    }

    #[test]
    fn state_dims() {
        assert_eq!(StructuralSpec::local_level().state_dim(), 1);
        assert_eq!(StructuralSpec::with_seasonal().state_dim(), 12);
        assert_eq!(StructuralSpec::with_intervention(3).state_dim(), 2);
        assert_eq!(StructuralSpec::full(3).state_dim(), 13);
    }

    #[test]
    fn built_models_validate() {
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        for spec in [
            StructuralSpec::local_level(),
            StructuralSpec::with_seasonal(),
            StructuralSpec::with_intervention(4),
            StructuralSpec::full(4),
        ] {
            let ssm = spec.build(&params);
            ssm.validate().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(ssm.state_dim(), spec.state_dim());
            assert_eq!(ssm.n_diffuse, spec.state_dim());
        }
    }

    #[test]
    fn seasonal_transition_sums_to_zero_over_cycle() {
        // Seasonal states propagated 12 steps with no noise must return to
        // their starting pattern (the dummy-seasonal identity).
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.0,
            var_seasonal: 0.0,
        };
        let spec = StructuralSpec::with_seasonal();
        let ssm = spec.build(&params);
        // Start from an arbitrary zero-sum seasonal pattern.
        let mut alpha = vec![0.0; 12];
        let pattern = [3.0, -1.0, 2.0, -4.0, 1.0, 0.5, -0.5, 2.5, -2.0, 0.0, -1.0];
        let total: f64 = pattern.iter().sum();
        alpha[1..12].copy_from_slice(&pattern);
        // Force zero-sum by adjusting the level slot? The 11 states encode
        // γ_t..γ_{t−10}; after 12 transitions the pattern must repeat.
        let _ = total;
        let start = alpha.clone();
        for _ in 0..12 {
            alpha = ssm.transition.mul_vec(&alpha);
        }
        for i in 1..12 {
            assert!(
                (alpha[i] - start[i]).abs() < 1e-9,
                "seasonal state {i} did not return: {} vs {}",
                alpha[i],
                start[i]
            );
        }
    }

    #[test]
    fn intervention_loading_carries_w() {
        let params = StructuralParams {
            var_eps: 1.0,
            var_level: 0.1,
            var_seasonal: 0.01,
        };
        let spec = StructuralSpec::full(3);
        let ssm = spec.build(&params);
        let mut z = vec![f64::NAN; 13];
        for (t, w) in [(0, 0.0), (2, 0.0), (3, 1.0), (7, 5.0)] {
            ssm.load_z(t, &mut z);
            assert_eq!(z[12], w, "t = {t}");
            // Level and first seasonal slots load with 1.
            assert_eq!(z[..2], [1.0, 1.0]);
        }
    }

    #[test]
    fn seasonal_adjustment_removes_periodicity() {
        use crate::estimate::{fit_structural, FitOptions};
        let ys: Vec<f64> = (0..48)
            .map(|t| 30.0 + 9.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin())
            .collect();
        let fit = fit_structural(&ys, StructuralSpec::with_seasonal(), &FitOptions::default());
        let c = fit.decompose(&ys);
        // Seasonally adjusted: the observations minus the smoothed seasonal.
        let adjusted: Vec<f64> = ys.iter().zip(&c.seasonal).map(|(y, g)| y - g).collect();
        // The adjusted series must be far flatter than the raw one.
        let amp = |xs: &[f64]| {
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            max - min
        };
        assert!(
            amp(&adjusted[12..]) < 0.3 * amp(&ys[12..]),
            "adjusted amplitude {} vs raw {}",
            amp(&adjusted[12..]),
            amp(&ys[12..])
        );
        // Detrended keeps the swing but loses the level.
        let detrended: Vec<f64> = (0..ys.len())
            .map(|t| ys[t] - c.level[t] - c.intervention[t])
            .collect();
        assert!(detrended.iter().sum::<f64>().abs() / 48.0 < 2.0);
    }

    #[test]
    fn components_reconstruct_fitted() {
        let spec = StructuralSpec::full(2);
        let n = 5;
        // Hand-made smoothed states: level 10, seasonal alternating, λ = 2.
        let mut means = Vec::new();
        for t in 0..n {
            let mut alpha = vec![0.0; 13];
            alpha[0] = 10.0;
            alpha[1] = if t % 2 == 0 { 1.0 } else { -1.0 };
            alpha[12] = 2.0;
            means.push(alpha);
        }
        let ys = vec![12.0; n];
        let c = Components::from_smoothed(&spec, &means, &ys);
        assert_eq!(c.lambda, 2.0);
        assert_eq!(c.intervention, vec![0.0, 0.0, 2.0, 4.0, 6.0]);
        for (t, &y) in ys.iter().enumerate() {
            let expect = c.level[t] + c.seasonal[t] + c.intervention[t];
            assert!((c.fitted[t] - expect).abs() < 1e-12);
            assert!((c.irregular[t] - (y - expect)).abs() < 1e-12);
        }
    }
}
