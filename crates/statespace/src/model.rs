//! General univariate-observation linear Gaussian state space model:
//!
//! ```text
//! y_t     = Z_t α_t + ε_t,      ε_t ~ N(0, H)
//! α_{t+1} = T α_t + η_t,        η_t ~ N(0, Q)        (Q given in state space)
//! α_1     ~ N(a0, P0)
//! ```
//!
//! `Z_t` is a constant loading except at the slope-shift states, which load
//! the intervention regressor `w_t = max(0, t − t_CP + 1)` of their change
//! point ([`slope_shift_w`]); [`Ssm::load_z`] writes `Z_t` for any `t`, so
//! a model serves a series of any length and its forecasts alike.
//! Everything else is time-invariant, which covers every model in the paper.

use mic_stats::Mat;

/// The slope-shift regressor `w_t` of a change point at 0-based month
/// `change_point`: `t − change_point + 1` from the change point on, else 0.
pub fn slope_shift_w(change_point: usize, t: usize) -> f64 {
    if t >= change_point {
        (t - change_point + 1) as f64
    } else {
        0.0
    }
}

/// A fully-specified model instance (structure + numeric parameters).
#[derive(Clone, Debug)]
pub struct Ssm {
    /// Transition matrix `T` (m × m).
    pub transition: Mat,
    /// State disturbance covariance `Q` in state space (m × m; zero rows for
    /// noise-free states such as the intervention coefficient).
    pub state_cov: Mat,
    /// Observation noise variance `H ≥ 0`.
    pub obs_var: f64,
    /// The constant part of `Z_t` (m entries); a slope-shift state's entry
    /// is replaced by its `w_t`.
    pub loading: Vec<f64>,
    /// `(state, change_point)` per slope shift: `Z_t[state]` is
    /// [`slope_shift_w`]`(change_point, t)`.
    pub slope_shifts: Vec<(usize, usize)>,
    /// Initial state mean `a0`.
    pub a0: Vec<f64>,
    /// Initial state covariance `P0`.
    pub p0: Mat,
    /// Number of leading innovations excluded from the log-likelihood
    /// (Commandeur & Koopman). Defaults to the number of diffuse state
    /// elements; may be raised above the state dimension when several
    /// models must score exactly the same observations (AIC comparability
    /// in the change-point search).
    pub n_diffuse: usize,
    /// Additional innovation indices excluded from the log-likelihood.
    ///
    /// A diffuse state that first loads on the observation at time `t*`
    /// (the intervention coefficient `λ`, whose regressor `w_t` is zero
    /// before the change point) produces an innovation variance of order
    /// `κ` at `t*`; the Commandeur–Koopman convention of skipping *leading*
    /// innovations misses it, which would charge the model ≈ `ln κ`
    /// log-likelihood for learning `λ` — a penalty that depends on *where*
    /// the change point is. Skipping the identifying innovation itself
    /// (the cheap equivalent of exact diffuse initialisation) removes the
    /// bias.
    pub extra_skips: Vec<usize>,
}

impl Ssm {
    /// State dimension `m`.
    pub fn state_dim(&self) -> usize {
        self.transition.rows()
    }

    /// Write `Z_t` into `z` (length `m`).
    pub fn load_z(&self, t: usize, z: &mut [f64]) {
        z.copy_from_slice(&self.loading);
        self.load_shifts(t, z);
    }

    /// Write the slope-shift entries of `Z_t` into `z`, whose other entries
    /// already hold `loading`'s.
    pub(crate) fn load_shifts(&self, t: usize, z: &mut [f64]) {
        for &(state, change_point) in &self.slope_shifts {
            z[state] = slope_shift_w(change_point, t);
        }
    }

    /// Whether innovation `t` enters the log-likelihood: it is past the
    /// first `n_diffuse` and not one of the `extra_skips`.
    pub(crate) fn scores(&self, t: usize) -> bool {
        t >= self.n_diffuse && !self.extra_skips.contains(&t)
    }

    /// Structural sanity checks; call from tests and builders.
    pub fn validate(&self) -> Result<(), String> {
        let m = self.state_dim();
        if self.transition.cols() != m {
            return Err("transition not square".into());
        }
        if self.state_cov.rows() != m || self.state_cov.cols() != m {
            return Err("state_cov shape mismatch".into());
        }
        if self.loading.len() != m {
            return Err(format!(
                "loading dim {} != state dim {m}",
                self.loading.len()
            ));
        }
        if let Some(&(state, _)) = self.slope_shifts.iter().find(|&&(s, _)| s >= m) {
            return Err(format!("slope shift on state {state} of {m}"));
        }
        if self.a0.len() != m {
            return Err("a0 length mismatch".into());
        }
        if self.p0.rows() != m || self.p0.cols() != m {
            return Err("p0 shape mismatch".into());
        }
        if self.obs_var.is_nan() || self.obs_var < 0.0 {
            return Err(format!("obs_var must be ≥ 0, got {}", self.obs_var));
        }
        for i in 0..m {
            if self.state_cov[(i, i)] < 0.0 {
                return Err("negative state variance".into());
            }
        }
        Ok(())
    }
}

/// Near-diffuse prior variance used for nonstationary/diffuse states.
pub const DIFFUSE_KAPPA: f64 = 1e7;

#[cfg(test)]
mod tests {
    use super::*;

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
    fn local_level_validates() {
        assert!(local_level(1.0, 0.5).validate().is_ok());
    }

    #[test]
    fn validation_catches_shape_errors() {
        let mut ssm = local_level(1.0, 0.5);
        ssm.a0 = vec![0.0, 0.0];
        assert!(ssm.validate().is_err());

        let mut ssm = local_level(1.0, 0.5);
        ssm.loading = vec![1.0, 0.0];
        assert!(ssm.validate().unwrap_err().contains("loading"));

        let mut ssm = local_level(1.0, 0.5);
        ssm.obs_var = f64::NAN;
        assert!(ssm.validate().is_err());

        // A likelihood skip above the state dimension is allowed (used for
        // same-data AIC comparisons).
        let mut ssm = local_level(1.0, 0.5);
        ssm.n_diffuse = 2;
        assert!(ssm.validate().is_ok());
    }

    #[test]
    fn validation_rejects_a_slope_shift_outside_the_model() {
        let mut ssm = local_level(1.0, 0.5);
        ssm.slope_shifts = vec![(1, 5)];
        assert!(ssm.validate().unwrap_err().contains("slope shift"));
    }
}
