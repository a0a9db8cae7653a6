//! General univariate-observation linear Gaussian state space model:
//!
//! ```text
//! y_t     = Z_t α_t + ε_t,      ε_t ~ N(0, H)
//! α_{t+1} = T α_t + η_t,        η_t ~ N(0, Q)        (Q given in state space)
//! α_1     ~ N(a0, P0)
//! ```
//!
//! `Z_t` may vary over time (the intervention regressor `w_t` does);
//! everything else is time-invariant, which covers every model in the paper.

use mic_stats::Mat;

/// Observation loading vector, constant or per-time.
#[derive(Clone, Debug)]
pub enum ObsLoading {
    /// One `Z` for all `t`.
    Constant(Vec<f64>),
    /// `Z_t` per time step; outer length must cover the series (and any
    /// forecast horizon requested).
    TimeVarying(Vec<Vec<f64>>),
}

impl ObsLoading {
    /// `Z_t` for time `t` (0-based).
    pub fn at(&self, t: usize) -> &[f64] {
        match self {
            ObsLoading::Constant(z) => z,
            ObsLoading::TimeVarying(zs) => zs
                .get(t)
                .unwrap_or_else(|| panic!("Z_t missing for t = {t}")),
        }
    }

    pub fn dim(&self) -> usize {
        match self {
            ObsLoading::Constant(z) => z.len(),
            ObsLoading::TimeVarying(zs) => zs.first().map_or(0, |z| z.len()),
        }
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
    /// Observation loading(s).
    pub loading: ObsLoading,
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
        if self.loading.dim() != m {
            return Err(format!(
                "loading dim {} != state dim {m}",
                self.loading.dim()
            ));
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
            loading: ObsLoading::Constant(vec![1.0]),
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
        ssm.loading = ObsLoading::Constant(vec![1.0, 0.0]);
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
    fn time_varying_loading_lookup() {
        let loading = ObsLoading::TimeVarying(vec![vec![1.0, 0.0], vec![1.0, 2.0]]);
        assert_eq!(loading.at(0), &[1.0, 0.0]);
        assert_eq!(loading.at(1), &[1.0, 2.0]);
        assert_eq!(loading.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "Z_t missing")]
    fn time_varying_out_of_range_panics() {
        let loading = ObsLoading::TimeVarying(vec![vec![1.0]]);
        loading.at(5);
    }
}
