//! # mic-statespace
//!
//! State space models with intervention variables (paper Section V).
//!
//! The paper decomposes each monthly prescription/disease/medicine series
//! into level + seasonality + intervention + irregular:
//!
//! ```text
//! x_t     = μ_t + γ_t1 + λ·w_t + ε_t
//! μ_{t+1} = μ_t + ξ_t
//! γ_{t+1,1} = −Σ_{s=1..11} γ_ts + ω_t   (11 dummy-seasonal states)
//! ```
//!
//! with the slope-shift intervention `w_t = max(0, t − t_CP + 1)` and a
//! single AIC-selected change point found exhaustively (Algorithm 1), by
//! binary search (Algorithm 2), or by the screened search the pipeline
//! runs (every candidate scored at the baseline's variances, the best two
//! fitted).
//!
//! Modules:
//!
//! - [`model`] — general linear Gaussian state space model, whose loading
//!   is constant but for the slope-shift regressors it computes per month;
//! - [`kalman`] — Kalman filter with near-diffuse initialisation and the
//!   Commandeur–Koopman likelihood (first *d* innovations excluded);
//! - [`smoother`] — Durbin–Koopman fixed-interval smoother (§4.4), no inversion;
//! - [`structural`] — the paper's structural model variants
//!   (LL / LL+S / LL+I / LL+S+I), their one SSM builder and decomposition;
//! - [`estimate`] — maximum-likelihood fitting (Nelder–Mead over
//!   log-variances), AIC and the likelihood-exclusion rule that keeps
//!   the AICs of nested models comparable;
//! - [`changepoint`] — Algorithms 1 (exact) and 2 (approximate) and the
//!   screened search, all behind the single [`search`] entry point;
//! - [`arima`] — the ARIMA(p,d,q) baseline with AIC order selection;
//! - [`forecast`] — out-of-sample forecasting for both model families;
//! - [`multi`] — greedy multi-change-point detection (the paper's §IX
//!   extension) on the same builder and exclusion rule;
//! - [`diagnostics`] — Ljung–Box residual checks and outlier flags.
//!
//! # Example: detect a slope shift
//!
//! ```
//! use mic_statespace::{search, FitOptions, SearchPlan};
//!
//! // A monthly series that starts climbing at t = 20.
//! let ys: Vec<f64> = (0..43)
//!     .map(|t| if t >= 20 { 10.0 + 1.5 * (t - 19) as f64 } else { 10.0 })
//!     .collect();
//! let opts = FitOptions { max_evals: 150, n_starts: 1 };
//! let found = search(&ys, false, &opts, &SearchPlan::default());
//! assert_eq!(found.change_point.month(), Some(20));
//! assert!(found.aic < found.aic_no_change);
//! ```

pub mod arima;
pub mod changepoint;
pub mod diagnostics;
pub mod estimate;
pub mod forecast;
pub mod kalman;
pub mod model;
pub mod multi;
pub mod smoother;
pub mod structural;

pub use arima::{fit_arima, select_arima, ArimaFit, ArimaOrder};
pub use changepoint::{
    search, Algorithm, ChangePoint, ChangePointSearch, SearchPlan, SelectionCriterion, WarmStart,
};
pub use diagnostics::{diagnose_residuals, ResidualDiagnostics};
pub use estimate::{fit_structural, FitOptions, FittedStructural};
pub use kalman::{kalman_filter, kalman_loglik, FilterResult, FilterWorkspace};
pub use model::Ssm;
pub use multi::{detect_multiple, MultiChangePoints};
pub use smoother::{smooth, SmoothResult};
pub use structural::{Components, StructuralParams, StructuralSpec};
