//! # mic-stats
//!
//! Statistical and numerical substrate for the prescription-trend analysis
//! workspace. The offline crate ecosystem has no statistical computing stack,
//! so everything the paper's evaluation needs is implemented here from
//! scratch and tested against closed forms:
//!
//! - [`special`] — log-gamma, regularised incomplete beta, error function;
//! - [`dist`] — normal / Student-t / gamma / Dirichlet / Poisson / categorical
//!   distributions with seeded sampling;
//! - [`descriptive`] — means, variances, quantiles, summaries;
//! - [`ttest`] — paired and one-sample t-tests with exact p-values;
//! - [`effect`] — Cohen's d and Cohen's kappa effect/agreement sizes;
//! - [`metrics`] — RMSE / MAE / MAPE forecast-error metrics;
//! - [`ranking`] — AP@K and NDCG@K ranking-quality metrics;
//! - [`tsa`] — autocorrelation, Ljung–Box and the KPSS stationarity test;
//! - [`optimize`] — Nelder–Mead simplex and golden-section search;
//! - [`linalg`] — small dense matrices with an LU solve, sized for
//!   Kalman-filter state dimensions (≈ 4–16).

pub mod descriptive;
pub mod dist;
pub mod effect;
pub mod linalg;
pub mod metrics;
pub mod optimize;
pub mod ranking;
pub mod special;
pub mod tsa;
pub mod ttest;

pub use descriptive::{mean, quantile, sample_sd, sample_variance, Summary};
pub use effect::{cohen_d_paired, cohen_kappa};
pub use linalg::Mat;
pub use metrics::{mae, rmse};
pub use optimize::{golden_section, nelder_mead, NelderMeadOptions, OptimizeResult};
pub use ranking::{average_precision_at_k, ndcg_at_k};
pub use ttest::{paired_t_test, TTestResult};
