//! AIC-driven change point detection: the paper's Algorithm 1 (exhaustive),
//! Algorithm 2 (binary search), and the screened search the pipeline runs.
//!
//! Algorithms 1 and 2 fit the structural model once per candidate change
//! point they visit and compare AICs; the winner is then compared against
//! the no-intervention model to decide whether a change point exists at
//! all. Ties favour "no change" (Algorithm 1 scans `t ∈ {1..T, ∞}` with `≤`,
//! so `∞` — evaluated last — wins ties; Algorithm 2's final `argmin` is
//! given the same preference), which yields the structural guarantee
//! exploited in Table VI: **the approximate search produces no false
//! positives**, because its winning candidate is a member of the exhaustive
//! candidate set, fitted exactly as Algorithm 1 fits it.
//!
//! The screened search ([`Algorithm::Screened`]) keeps that guarantee at
//! about a third of Algorithm 2's fits. It fits the baseline first, scores
//! every candidate of Algorithm 1 by one Kalman likelihood pass at the
//! baseline's variances (λ is a filter state, so each pass still estimates
//! its own λ), and fully fits only the two best-screened candidates, then
//! steps one month at a time from the better of them while a neighbour's
//! fit improves on it: one baseline fit, two candidate fits (plus the odd
//! step) and `T − 3` filter passes per series.

use crate::estimate::{aic, comparable_skip, fit_structural_ws, FitOptions, FittedStructural};
use crate::kalman::{kalman_loglik, FilterWorkspace};
use crate::structural::{lead, StructuralParams, StructuralSpec};
use std::collections::BTreeMap;

/// Candidates the screened search fits in full: the best two by screen
/// score.
const SCREEN_KEEP: usize = 2;

/// Fewest observations the baseline's likelihood scores for which the
/// screened search screens; a shorter series runs Algorithm 2 instead. The
/// screen ranks candidates at the baseline's variances, which a short
/// series estimates poorly: on two 24-month seasonal panels (11 scored
/// months) the screened search moved 6 of 119 and 2 of 34 decisions away
/// from both Algorithm 1 and Algorithm 2, and on panels with 30 or more
/// scored months it moved none.
const SCREEN_MIN_SCORED: usize = 24;

/// Model-selection criterion for the change-point search. The paper uses
/// AIC but notes the algorithms "can work with other criteria"; BIC's
/// `ln(n)` penalty is stricter, so BIC-selected change points are a subset
/// of AIC-selected ones for `n_scored ≥ 8`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionCriterion {
    #[default]
    Aic,
    Bic,
}

impl SelectionCriterion {
    fn score(&self, fit: &FittedStructural) -> f64 {
        match self {
            SelectionCriterion::Aic => fit.aic,
            SelectionCriterion::Bic => fit.bic,
        }
    }
}

/// A detected change point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangePoint {
    /// No structural change (the paper's `t_CP = ∞`).
    None,
    /// Slope shift starting at 0-based month `t`.
    At(usize),
}

impl ChangePoint {
    pub fn is_some(&self) -> bool {
        matches!(self, ChangePoint::At(_))
    }

    /// The month index, if any.
    pub fn month(&self) -> Option<usize> {
        match self {
            ChangePoint::None => None,
            ChangePoint::At(t) => Some(*t),
        }
    }
}

impl std::fmt::Display for ChangePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChangePoint::None => write!(f, "∞"),
            ChangePoint::At(t) => write!(f, "t={t}"),
        }
    }
}

/// Warm-start seeds for a resumable change-point search, taken from a
/// previous search over a slightly shorter version of the same series.
/// The baseline (no-intervention) and candidate (intervention) models live
/// in different parts of the variance landscape — a trending series makes
/// the baseline absorb the trend into its level variance while the
/// intervention models push it into `λ` — so each model class is seeded
/// from its own previous optimum. Seeding both from a single winner
/// systematically degrades whichever class lost last time and flips
/// change decisions.
#[derive(Clone, Copy, Debug)]
pub struct WarmStart {
    /// Seed for the no-intervention baseline fit (the previous search's
    /// baseline optimum).
    pub baseline: StructuralParams,
    /// Seed for every candidate intervention fit (the previous search's
    /// winning fit).
    pub candidate: StructuralParams,
}

impl WarmStart {
    /// Seeds from a finished search: its baseline fit and its winner.
    pub fn from_search(search: &ChangePointSearch) -> WarmStart {
        WarmStart {
            baseline: search.no_change_params,
            candidate: search.fit.params,
        }
    }
}

/// Result of a change-point search.
#[derive(Clone, Debug)]
pub struct ChangePointSearch {
    /// The selected change point.
    pub change_point: ChangePoint,
    /// AIC of the selected model.
    pub aic: f64,
    /// The fitted model at the selected change point (or the
    /// no-intervention model when `change_point` is `None`).
    pub fit: FittedStructural,
    /// AIC of the no-intervention model (the comparison baseline).
    pub aic_no_change: f64,
    /// Fitted parameters of the no-intervention baseline (zeroes for the
    /// degenerate short-series result). Kept so resumable searches can seed
    /// the next baseline fit from here — see [`WarmStart`].
    pub no_change_params: StructuralParams,
    /// Number of model fits actually performed (Table V's cost unit; the
    /// screened search's filter passes are not fits).
    pub fits_performed: usize,
    /// AIC per fitted candidate (candidate month → AIC); the exhaustive
    /// search fills every month, the binary search only the probes and the
    /// screened search the candidates it kept. Useful for the Fig. 5
    /// sensitivity plot.
    pub aic_by_candidate: BTreeMap<usize, f64>,
}

/// Which algorithm a [`search`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1: fit every candidate. The `O(T)` candidate fits are
    /// independent, so they fan out over `threads` workers (one
    /// [`FilterWorkspace`] each; `threads <= 1` runs inline). Each fit is
    /// deterministic and the winner is chosen by a serial scan in candidate
    /// order, so the result is bit-identical at any thread count.
    Exact { threads: usize },
    /// Algorithm 2: AIC-guided binary search. Exploits the empirical
    /// unimodality of AIC around the true change point (Fig. 5) to probe
    /// only `O(log T)` candidates.
    Approximate,
    /// The screened search the pipeline runs: fit the no-change baseline,
    /// score every candidate of Algorithm 1 by one likelihood pass at the
    /// baseline's variances, fit only the best two (ties toward the later
    /// month), and descend from the better one month at a time while a
    /// neighbour's fit improves on it. About three fits and `T − 3` filter
    /// passes per series; the winner is fitted as Algorithm 1 fits it, so a
    /// screened positive is an exact positive and a matching decision has
    /// the same AIC. A series with fewer than 24 scored observations runs
    /// Algorithm 2, because the screen ranks short series poorly.
    Screened,
}

/// How to run a change-point [`search`]. The default is the serial
/// exhaustive search under AIC, started cold.
#[derive(Clone, Copy, Debug)]
pub struct SearchPlan {
    pub algorithm: Algorithm,
    pub criterion: SelectionCriterion,
    /// When set, every fit seeds Nelder–Mead from the matching
    /// [`WarmStart`] field instead of the default multi-start simplex
    /// (see `estimate::fit_structural_ws`). `None` is the cold search.
    pub warm: Option<WarmStart>,
}

impl Default for SearchPlan {
    fn default() -> Self {
        SearchPlan {
            algorithm: Algorithm::Exact { threads: 1 },
            criterion: SelectionCriterion::Aic,
            warm: None,
        }
    }
}

impl SearchPlan {
    /// Algorithm 2 under AIC, started cold.
    pub fn approximate() -> SearchPlan {
        SearchPlan {
            algorithm: Algorithm::Approximate,
            ..SearchPlan::default()
        }
    }
}

/// The fixed inputs of one search: the series, the model family and how
/// each fit starts. Shared read-only by every candidate-fit worker.
struct Problem<'a> {
    ys: &'a [f64],
    seasonal: bool,
    opts: &'a FitOptions,
    warm: Option<WarmStart>,
}

impl Problem<'_> {
    /// The model with a slope shift at `cp`, or the no-change baseline.
    fn spec(&self, cp: Option<usize>) -> StructuralSpec {
        StructuralSpec {
            seasonal: self.seasonal,
            change_point: cp,
        }
    }

    /// One candidate (or baseline) fit, cold or warm-started from the seed
    /// of its model class.
    fn fit(&self, cp: Option<usize>, ws: &mut FilterWorkspace) -> FittedStructural {
        let spec = self.spec(cp);
        let mut extra = Vec::new();
        let skip = comparable_skip(&spec, &mut extra);
        let seed = self.warm.map(|w| match cp {
            Some(_) => w.candidate,
            None => w.baseline,
        });
        fit_structural_ws(self.ys, spec, self.opts, skip, &extra, seed.as_ref(), ws)
    }
}

/// Shared fitting context that memoises per-candidate fits. One
/// [`FilterWorkspace`] serves every fit the context makes itself, so the
/// entire MLE path — dozens of fits, each hundreds of likelihood
/// evaluations — runs without per-evaluation heap allocation.
struct SearchContext<'a> {
    problem: Problem<'a>,
    criterion: SelectionCriterion,
    cache: BTreeMap<usize, FittedStructural>,
    fits: usize,
    ws: FilterWorkspace,
}

impl SearchContext<'_> {
    /// Criterion score (AIC or BIC) of the model with change point `cp`
    /// (memoised).
    fn aic_at(&mut self, cp: usize) -> f64 {
        if let Some(fit) = self.cache.get(&cp) {
            return self.criterion.score(fit);
        }
        let fit = self.problem.fit(Some(cp), &mut self.ws);
        self.fits += 1;
        let score = self.criterion.score(&fit);
        self.cache.insert(cp, fit);
        score
    }

    /// `true` when `ys` is too short for any search: the likelihood skips
    /// leave fewer than two scored observations, or there is no interior
    /// candidate month at all.
    fn too_short(&self) -> bool {
        let n = self.problem.ys.len();
        n < lead(self.problem.seasonal) + 3 || candidates(n).is_empty()
    }

    /// Degenerate "no change" result for series the search cannot handle.
    /// Such series carry no evidence either way, so report
    /// [`ChangePoint::None`] with an infinite criterion score (never ranked
    /// above a real fit, and NaN-free) instead of panicking.
    fn short_series_finish(self) -> ChangePointSearch {
        let fit = FittedStructural {
            spec: self.problem.spec(None),
            params: StructuralParams {
                var_eps: 0.0,
                var_level: 0.0,
                var_seasonal: 0.0,
            },
            loglik: f64::NEG_INFINITY,
            aic: f64::INFINITY,
            bic: f64::INFINITY,
            n: self.problem.ys.len(),
            skip: lead(self.problem.seasonal) + 1,
            evals: 0,
        };
        ChangePointSearch {
            change_point: ChangePoint::None,
            aic: f64::INFINITY,
            no_change_params: fit.params,
            fit,
            aic_no_change: f64::INFINITY,
            fits_performed: 0,
            aic_by_candidate: BTreeMap::new(),
        }
    }

    /// Best candidate probed so far (by the selection criterion); the scan
    /// runs in month order with Algorithm 1's `≤`, so ties break toward the
    /// later month.
    fn best_cached(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (&cp, fit) in &self.cache {
            let score = self.criterion.score(fit);
            if best.is_none_or(|(_, b)| score <= b) {
                best = Some((cp, score));
            }
        }
        best
    }

    /// The no-change baseline fit.
    fn fit_baseline(&mut self) -> FittedStructural {
        self.fits += 1;
        self.problem.fit(None, &mut self.ws)
    }

    /// Decide between the best candidate and the baseline `no_change`.
    fn finish(
        mut self,
        best_cp: usize,
        best_aic: f64,
        no_change: FittedStructural,
    ) -> ChangePointSearch {
        let aic_no_change = self.criterion.score(&no_change);
        let criterion = self.criterion;
        let aic_by_candidate: BTreeMap<usize, f64> = self
            .cache
            .iter()
            .map(|(&cp, fit)| (cp, criterion.score(fit)))
            .collect();
        let no_change_params = no_change.params;
        // Ties favour no change.
        let (change_point, aic, fit) = if best_aic < aic_no_change {
            let fit = self.cache.remove(&best_cp).expect("fit must be cached");
            (ChangePoint::At(best_cp), best_aic, fit)
        } else {
            (ChangePoint::None, aic_no_change, no_change)
        };
        ChangePointSearch {
            change_point,
            aic,
            fit,
            aic_no_change,
            no_change_params,
            fits_performed: self.fits,
            aic_by_candidate,
        }
    }

    /// Algorithm 1 (see [`Algorithm::Exact`]).
    fn exact(mut self, threads: usize) -> ChangePointSearch {
        let _span = mic_obs::span("kf.search.exact");
        mic_obs::counter("kf.searches_exact", 1);
        if self.too_short() {
            return self.short_series_finish();
        }
        let cands: Vec<usize> = candidates(self.problem.ys.len()).collect();
        let problem = &self.problem;
        let state_dim = problem.spec(Some(1)).state_dim();
        let fits = mic_par::parallel_map_with(
            &cands,
            threads,
            || FilterWorkspace::new(state_dim),
            |ws, &cp| problem.fit(Some(cp), ws),
        );
        // Serial selection in candidate order with Algorithm 1's `≤` (later
        // candidates win ties) — deterministic regardless of fit completion
        // order above.
        let mut best_cp = cands[0];
        let mut best_aic = f64::INFINITY;
        for (&cp, fit) in cands.iter().zip(&fits) {
            let score = self.criterion.score(fit);
            if score <= best_aic {
                best_aic = score;
                best_cp = cp;
            }
        }
        self.fits = fits.len();
        self.cache.extend(cands.into_iter().zip(fits));
        let no_change = self.fit_baseline();
        let r = self.finish(best_cp, best_aic, no_change);
        mic_obs::counter("kf.candidates_exact", r.aic_by_candidate.len() as u64);
        mic_obs::counter("kf.fits_exact", r.fits_performed as u64);
        r
    }

    /// Algorithm 2 (see [`Algorithm::Approximate`]).
    fn approximate(mut self) -> ChangePointSearch {
        let _span = mic_obs::span("kf.search.approx");
        mic_obs::counter("kf.searches_approx", 1);
        if self.too_short() {
            return self.short_series_finish();
        }
        let mut left = 1usize;
        let right_end = candidates(self.problem.ys.len()).end;
        let mut right = right_end - 1;
        while right - left > 1 {
            let middle = (left + right) / 2;
            if self.aic_at(left) < self.aic_at(right) {
                right = middle;
            } else {
                left = middle;
            }
        }
        self.aic_at(left);
        self.aic_at(right);
        // Two cheap refinements over the plain Algorithm 2 (both preserve the
        // no-false-positive property, since every candidate considered is a
        // member of the exhaustive candidate set):
        // 1. take the best of *all* probed candidates, not just the final
        //    {left, right} pair — earlier probe levels often already touched a
        //    point deeper in the AIC valley (free: results are memoised);
        // 2. hill-descend ±1/±2 around that point (a handful of extra fits),
        //    which recovers near-misses on gradual ramps whose AIC valley is
        //    shallow and slightly off the probe grid.
        let best = self
            .best_cached()
            .expect("search probed at least two candidates");
        let (best_cp, best_aic) = self.descend(best, &[-2, -1, 1, 2]);
        let no_change = self.fit_baseline();
        let r = self.finish(best_cp, best_aic, no_change);
        mic_obs::counter("kf.candidates_approx", r.aic_by_candidate.len() as u64);
        mic_obs::counter("kf.fits_approx", r.fits_performed as u64);
        r
    }

    /// Move `best` to a neighbouring candidate `best + δ` (`δ ∈ deltas`,
    /// in order) while that neighbour's fit has a strictly lower score.
    fn descend(&mut self, best: (usize, f64), deltas: &[i64]) -> (usize, f64) {
        let (mut best_cp, mut best_aic) = best;
        let end = candidates(self.problem.ys.len()).end;
        loop {
            let mut improved = false;
            for &delta in deltas {
                let cand = best_cp as i64 + delta;
                if cand < 1 || cand as usize >= end {
                    continue;
                }
                let score = self.aic_at(cand as usize);
                if score < best_aic {
                    best_aic = score;
                    best_cp = cand as usize;
                    improved = true;
                }
            }
            if !improved {
                return (best_cp, best_aic);
            }
        }
    }

    /// The screened search (see [`Algorithm::Screened`]). It records under
    /// Algorithm 2's `kf.search.approx` span, the pipeline's approximate
    /// mode, and hands a series with fewer than [`SCREEN_MIN_SCORED`]
    /// scored observations to Algorithm 2.
    fn screened(mut self) -> ChangePointSearch {
        let lead = lead(self.problem.seasonal);
        if self.problem.ys.len() < lead + 1 + SCREEN_MIN_SCORED {
            return self.approximate();
        }
        let _span = mic_obs::span("kf.search.approx");
        mic_obs::counter("kf.searches_screened", 1);
        let no_change = self.fit_baseline();
        let mut screened = self.screen(&no_change.params);
        // Best first; ties toward the later month, as Algorithm 1's `≤`.
        screened.sort_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        // A change point inside the lead puts a trend on the whole scored
        // span, whichever month it is, so those candidates are near-copies
        // of one model: fit only the best of them, and do not start a
        // descent from it.
        let best_in_lead = screened.iter().map(|&(cp, _)| cp).find(|&cp| cp < lead);
        let kept: Vec<usize> = screened
            .iter()
            .map(|&(cp, _)| cp)
            .filter(|&cp| cp >= lead || Some(cp) == best_in_lead)
            .take(SCREEN_KEEP)
            .collect();
        for cp in kept {
            self.aic_at(cp);
        }
        let best = self
            .best_cached()
            .expect("the search fitted SCREEN_KEEP candidates");
        let (best_cp, best_aic) = if best.0 >= lead {
            self.descend(best, &[-1, 1])
        } else {
            best
        };
        let r = self.finish(best_cp, best_aic, no_change);
        mic_obs::counter("kf.fits_screened", r.fits_performed as u64);
        r
    }

    /// `(candidate, AIC)` of every candidate month with the variances fixed
    /// at `params`: one [`kalman_loglik`] pass each, in the search's
    /// workspace and on one SSM whose slope shift and exclusions are
    /// rewritten per candidate, so the loop allocates nothing. Every
    /// candidate has the same parameter count and scores the same number of
    /// observations, so AIC and BIC rank them alike. A non-finite
    /// likelihood scores `+∞`.
    fn screen(&mut self, params: &StructuralParams) -> Vec<(usize, f64)> {
        let (ys, seasonal) = (self.problem.ys, self.problem.seasonal);
        let cands = candidates(ys.len());
        let mut spec = self.problem.spec(Some(cands.start));
        let mut ssm = spec.build(params);
        let state_dim = spec.state_dim();
        // Screen passes are C_KF evaluations like an optimiser's.
        mic_obs::counter("kf.loglik_evals", cands.len() as u64);
        mic_obs::counter("kf.screen_evals", cands.len() as u64);
        cands
            .map(|change_point| {
                spec.change_point = Some(change_point);
                ssm.slope_shifts[0].1 = change_point;
                ssm.n_diffuse = comparable_skip(&spec, &mut ssm.extra_skips);
                let eval_span = mic_obs::span("kf.loglik");
                let loglik = kalman_loglik(&ssm, ys, &mut self.ws);
                eval_span.end();
                let score = if loglik.is_finite() {
                    aic(loglik, state_dim, seasonal)
                } else {
                    f64::INFINITY
                };
                (change_point, score)
            })
            .collect()
    }
}

/// Candidate change points: months 1 ..= T−3. Month 0 is excluded because a
/// slope shift active from the first observation is indistinguishable from
/// the (diffuse) level; the last two months are excluded because a shift
/// supported by one or two observations is unidentified and produces
/// spurious boundary detections.
pub(crate) fn candidates(n: usize) -> std::ops::Range<usize> {
    1..n.saturating_sub(2)
}

/// Search `ys` for a change point as `plan` says: Algorithm 1, Algorithm 2
/// or the screened search, under its criterion, cold or warm-started.
pub fn search(
    ys: &[f64],
    seasonal: bool,
    opts: &FitOptions,
    plan: &SearchPlan,
) -> ChangePointSearch {
    let problem = Problem {
        ys,
        seasonal,
        opts,
        warm: plan.warm,
    };
    // Candidate fits dominate the search; size for their state dim.
    let ws = FilterWorkspace::new(problem.spec(Some(1)).state_dim());
    let ctx = SearchContext {
        problem,
        criterion: plan.criterion,
        cache: BTreeMap::new(),
        fits: 0,
        ws,
    };
    match plan.algorithm {
        Algorithm::Exact { threads } => ctx.exact(threads),
        Algorithm::Approximate => ctx.approximate(),
        Algorithm::Screened => ctx.screened(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn slope_break_series(n: usize, cp: usize, slope: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|t| {
                let w = if t >= cp { (t - cp + 1) as f64 } else { 0.0 };
                10.0 + slope * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.5)
            })
            .collect()
    }

    fn flat_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| 20.0 + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0))
            .collect()
    }

    fn fast_opts() -> FitOptions {
        FitOptions {
            max_evals: 200,
            n_starts: 1,
        }
    }

    /// Algorithm 1 on `threads` workers under `criterion`, started cold.
    fn exact_plan(threads: usize, criterion: SelectionCriterion) -> SearchPlan {
        SearchPlan {
            algorithm: Algorithm::Exact { threads },
            criterion,
            warm: None,
        }
    }

    fn exact(ys: &[f64], seasonal: bool) -> ChangePointSearch {
        search(ys, seasonal, &fast_opts(), &SearchPlan::default())
    }

    fn approx(ys: &[f64], seasonal: bool) -> ChangePointSearch {
        search(ys, seasonal, &fast_opts(), &SearchPlan::approximate())
    }

    fn screened(ys: &[f64], seasonal: bool) -> ChangePointSearch {
        let plan = SearchPlan {
            algorithm: Algorithm::Screened,
            ..SearchPlan::default()
        };
        search(ys, seasonal, &fast_opts(), &plan)
    }

    fn exact_bic(ys: &[f64]) -> ChangePointSearch {
        search(
            ys,
            false,
            &fast_opts(),
            &exact_plan(1, SelectionCriterion::Bic),
        )
    }

    #[test]
    fn exact_finds_planted_change_point() {
        let ys = slope_break_series(43, 25, 1.5, 11);
        let r = exact(&ys, false);
        let cp = r.change_point.month().expect("should detect a change");
        assert!(
            (cp as i64 - 25).unsigned_abs() <= 2,
            "detected {cp}, expected ≈ 25"
        );
        assert!(r.aic < r.aic_no_change);
    }

    #[test]
    fn exact_rejects_flat_series() {
        let ys = flat_series(43, 12);
        let r = exact(&ys, false);
        assert_eq!(
            r.change_point,
            ChangePoint::None,
            "flat series has no change point"
        );
        assert_eq!(r.aic, r.aic_no_change);
    }

    #[test]
    fn approx_agrees_with_exact_on_clear_break() {
        let ys = slope_break_series(43, 20, 2.0, 13);
        let exact = exact(&ys, false);
        let approx = approx(&ys, false);
        assert!(exact.change_point.is_some());
        assert!(approx.change_point.is_some());
        let e = exact.change_point.month().unwrap() as i64;
        let a = approx.change_point.month().unwrap() as i64;
        assert!((e - a).abs() <= 5, "exact {e} vs approx {a}");
    }

    #[test]
    fn approx_never_false_positive() {
        // Structural property: approx positive ⇒ exact positive.
        for seed in 0..8 {
            let ys = if seed % 2 == 0 {
                flat_series(40, seed)
            } else {
                slope_break_series(40, 22, 0.15, seed) // weak break
            };
            let exact = exact(&ys, false);
            let approx = approx(&ys, false);
            if approx.change_point.is_some() {
                assert!(
                    exact.change_point.is_some(),
                    "seed {seed}: approx found a change the exact search rejected"
                );
            }
        }
    }

    #[test]
    fn approx_uses_far_fewer_fits() {
        let ys = slope_break_series(43, 25, 1.5, 14);
        let exact = exact(&ys, false);
        let approx = approx(&ys, false);
        // Exhaustive: T−3 candidates + 1 base = 41; binary: ~2·log₂(T) for
        // the probes plus a handful of hill-descent refinement fits.
        assert_eq!(
            exact.fits_performed, 41,
            "exact fits = {}",
            exact.fits_performed
        );
        assert!(
            approx.fits_performed <= 2 * 6 + 8,
            "approx fits = {}",
            approx.fits_performed
        );
        assert!(
            approx.fits_performed < exact.fits_performed / 2,
            "approx ({}) must stay well below exact ({})",
            approx.fits_performed,
            exact.fits_performed
        );
    }

    #[test]
    fn screen_scores_each_candidate_as_a_freshly_built_model() {
        // Rewriting one SSM's slope shift and exclusions per candidate gives
        // the same likelihood, bit for bit, as building each candidate's
        // model afresh at the same variances.
        let params = StructuralParams {
            var_eps: 0.3,
            var_level: 0.05,
            var_seasonal: 0.01,
        };
        for (ys, seasonal) in [
            (slope_break_series(43, 25, 1.5, 11), false),
            (slope_break_series(43, 30, 0.8, 12), true),
        ] {
            let problem = Problem {
                ys: &ys,
                seasonal,
                opts: &fast_opts(),
                warm: None,
            };
            let mut ctx = SearchContext {
                problem,
                criterion: SelectionCriterion::Aic,
                cache: BTreeMap::new(),
                fits: 0,
                ws: FilterWorkspace::default(),
            };
            let cands: Vec<usize> = candidates(ys.len()).collect();
            let screened = ctx.screen(&params);
            assert_eq!(screened.len(), cands.len());
            for (&cp, &(screened_cp, screened_aic)) in cands.iter().zip(&screened) {
                assert_eq!(cp, screened_cp);
                let spec = ctx.problem.spec(Some(cp));
                let mut ssm = spec.build(&params);
                ssm.n_diffuse = comparable_skip(&spec, &mut ssm.extra_skips);
                let loglik = crate::kalman::kalman_filter(&ssm, &ys).loglik;
                let expected = aic(loglik, spec.state_dim(), seasonal);
                assert_eq!(
                    screened_aic.to_bits(),
                    expected.to_bits(),
                    "seasonal {seasonal}, cp {cp}"
                );
            }
        }
    }

    #[test]
    fn screened_fits_three_models_and_matches_exact() {
        for (ys, seasonal, what) in [
            (slope_break_series(43, 25, 1.5, 11), false, "break"),
            (flat_series(43, 12), false, "flat"),
            (slope_break_series(60, 40, 0.6, 17), true, "seasonal break"),
        ] {
            let exact = exact(&ys, seasonal);
            let s = screened(&ys, seasonal);
            assert_eq!(s.change_point, exact.change_point, "{what}");
            assert_eq!(s.aic.to_bits(), exact.aic.to_bits(), "{what}");
            // The baseline, the two best-screened candidates, and at most a
            // short descent next to them.
            assert!(
                (3..=6).contains(&s.fits_performed),
                "{what}: {} fits",
                s.fits_performed
            );
            assert_eq!(s.aic_by_candidate.len(), s.fits_performed - 1, "{what}");
        }
    }

    #[test]
    fn screened_fits_one_candidate_inside_the_seasonal_lead() {
        // A trend from the first month screens best at every change point
        // inside the 12-month lead; the search fits one of them and spends
        // its second fit past the lead.
        let mut rng = SmallRng::seed_from_u64(21);
        let ys: Vec<f64> = (0..43)
            .map(|t| {
                let s = 4.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin();
                20.0 + s + 0.4 * t as f64 + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.5)
            })
            .collect();
        let s = screened(&ys, true);
        let in_lead = s
            .aic_by_candidate
            .keys()
            .filter(|&&cp| cp < lead(true))
            .count();
        assert_eq!(in_lead, 1, "fitted {:?}", s.aic_by_candidate.keys());
        assert!(s.aic_by_candidate.len() >= 2);
    }

    #[test]
    fn screened_never_false_positive_and_never_beats_exact() {
        for seed in 0..8 {
            let ys = if seed % 2 == 0 {
                flat_series(40, seed)
            } else {
                slope_break_series(40, 22, 0.15, seed) // weak break
            };
            let exact = exact(&ys, false);
            let s = screened(&ys, false);
            if s.change_point.is_some() {
                assert!(exact.change_point.is_some(), "seed {seed}");
            }
            assert!(exact.aic <= s.aic, "seed {seed}: {} > {}", exact.aic, s.aic);
            assert_eq!(s.aic_no_change.to_bits(), exact.aic_no_change.to_bits());
        }
    }

    #[test]
    fn screened_fits_every_candidate_of_a_short_series() {
        // Below the screen's minimum length the search fits its way through
        // Algorithm 2, which on one or two candidates fits all of them: the
        // result is Algorithm 1's, bit for bit.
        for n in [4usize, 5] {
            let ys: Vec<f64> = (0..n).map(|t| (t * t) as f64 * 0.5 + 1.0).collect();
            let s = screened(&ys, false);
            let e = exact(&ys, false);
            assert_eq!(s.fits_performed, candidates(n).len() + 1, "n = {n}");
            assert_eq!(s.change_point, e.change_point, "n = {n}");
            assert_eq!(s.aic.to_bits(), e.aic.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn aic_by_candidate_has_valley_at_change_point() {
        // The Fig. 5 shape: AIC lower near the true change point.
        let ys = slope_break_series(43, 30, 1.5, 15);
        let r = exact(&ys, false);
        let near = r.aic_by_candidate[&30];
        let far = r.aic_by_candidate[&5];
        assert!(near < far, "AIC near break {near} !< far {far}");
        assert_eq!(r.aic_by_candidate.len(), 40);
    }

    #[test]
    fn seasonal_variant_detects_break_under_seasonality() {
        let mut rng = SmallRng::seed_from_u64(16);
        let ys: Vec<f64> = (0..48)
            .map(|t| {
                let seasonal = 5.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin();
                let w = if t >= 30 { (t - 30 + 1) as f64 } else { 0.0 };
                30.0 + seasonal + 1.2 * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.7)
            })
            .collect();
        let r = exact(&ys, true);
        let cp = r.change_point.month().expect("break under seasonality");
        assert!((cp as i64 - 30).unsigned_abs() <= 3, "detected {cp}");
    }

    #[test]
    fn bic_detects_strong_break() {
        let ys = slope_break_series(43, 25, 1.5, 11);
        let r = exact_bic(&ys);
        let cp = r.change_point.month().expect("strong break survives BIC");
        assert!((cp as i64 - 25).unsigned_abs() <= 2, "BIC detected {cp}");
    }

    #[test]
    fn bic_positive_implies_aic_positive() {
        // BIC's penalty exceeds AIC's for n_scored ≥ 8, and both criteria
        // score the same fitted models, so BIC detections are a subset of
        // AIC detections.
        for seed in 0..6 {
            let ys = if seed % 2 == 0 {
                flat_series(40, seed + 50)
            } else {
                slope_break_series(40, 20, 0.4, seed + 50)
            };
            let aic = exact(&ys, false);
            let bic = exact_bic(&ys);
            if bic.change_point.is_some() {
                assert!(
                    aic.change_point.is_some(),
                    "seed {seed}: BIC positive but AIC negative"
                );
            }
        }
    }

    #[test]
    fn bic_rejects_flat_series() {
        let ys = flat_series(43, 77);
        let r = exact_bic(&ys);
        assert_eq!(r.change_point, ChangePoint::None);
    }

    #[test]
    fn short_series_returns_none_instead_of_panicking() {
        // Below any searchable length — including the empty series — both
        // algorithms must degrade to a clean "no change" answer.
        for n in 0..=4usize {
            let ys: Vec<f64> = (0..n).map(|t| t as f64).collect();
            for seasonal in [false, true] {
                let a = approx(&ys, seasonal);
                let e = exact(&ys, seasonal);
                let s = screened(&ys, seasonal);
                if seasonal || n < 4 {
                    assert_eq!(a.change_point, ChangePoint::None, "approx n={n}");
                    assert_eq!(e.change_point, ChangePoint::None, "exact n={n}");
                    assert_eq!(s.change_point, ChangePoint::None, "screened n={n}");
                    assert_eq!(a.fits_performed, 0);
                    assert_eq!(s.fits_performed, 0);
                    assert!(a.aic.is_infinite() && !a.aic.is_nan());
                    assert!(s.aic.is_infinite() && !s.aic.is_nan());
                }
            }
        }
    }

    #[test]
    fn seasonal_search_below_burn_in_returns_none() {
        // Seasonal lead skip is 12; lengths 5..15 have interior candidates
        // but too few scored observations — previously an assert/panic path.
        for n in [5usize, 10, 14] {
            let ys: Vec<f64> = (0..n).map(|t| 1.0 + (t as f64) * 0.3).collect();
            let r = approx(&ys, true);
            assert_eq!(r.change_point, ChangePoint::None, "n = {n}");
            assert!(r.aic_by_candidate.is_empty());
        }
    }

    #[test]
    fn minimal_searchable_length_still_works() {
        // n = 4 non-seasonal is the shortest series with a real search: one
        // candidate month and exactly two scored observations.
        let ys = [1.0, 2.0, 3.0, 4.0];
        let r = exact(&ys, false);
        assert!(r.fits_performed > 0);
        assert!(r.aic.is_finite());
    }

    /// Every observable field of the search result must be *bit*-identical
    /// between the inline (`threads = 1`) and candidate-parallel runs of the
    /// exact search — the worker count only reorders who fits which
    /// candidate, never what is fitted or how the winner is selected.
    fn assert_searches_identical(a: &ChangePointSearch, b: &ChangePointSearch, what: &str) {
        assert_eq!(a.change_point, b.change_point, "{what}: change point");
        assert_eq!(a.aic.to_bits(), b.aic.to_bits(), "{what}: aic");
        assert_eq!(
            a.aic_no_change.to_bits(),
            b.aic_no_change.to_bits(),
            "{what}: aic_no_change"
        );
        assert_eq!(a.fits_performed, b.fits_performed, "{what}: fits");
        assert_eq!(
            a.aic_by_candidate.len(),
            b.aic_by_candidate.len(),
            "{what}: candidate map size"
        );
        for (cp, aic) in &a.aic_by_candidate {
            let other = b.aic_by_candidate[cp];
            assert_eq!(aic.to_bits(), other.to_bits(), "{what}: candidate {cp}");
        }
        assert_eq!(
            a.fit.loglik.to_bits(),
            b.fit.loglik.to_bits(),
            "{what}: fit loglik"
        );
        assert_eq!(a.fit.aic.to_bits(), b.fit.aic.to_bits(), "{what}: fit aic");
        assert_eq!(a.fit.bic.to_bits(), b.fit.bic.to_bits(), "{what}: fit bic");
        assert_eq!(a.fit.skip, b.fit.skip, "{what}: fit skip");
        for (pa, pb) in [
            (a.fit.params.var_eps, b.fit.params.var_eps),
            (a.fit.params.var_level, b.fit.params.var_level),
            (a.fit.params.var_seasonal, b.fit.params.var_seasonal),
        ] {
            assert_eq!(pa.to_bits(), pb.to_bits(), "{what}: fit params");
        }
    }

    /// Run `plan` at one thread and at each of `threads`, and require every
    /// parallel result to be bit-identical to the inline one.
    fn assert_thread_invariant(
        ys: &[f64],
        seasonal: bool,
        plan: SearchPlan,
        threads: &[usize],
        what: &str,
    ) -> ChangePointSearch {
        let at = |threads: usize| {
            let plan = SearchPlan {
                algorithm: Algorithm::Exact { threads },
                ..plan
            };
            search(ys, seasonal, &fast_opts(), &plan)
        };
        let inline = at(1);
        for &t in threads {
            assert_searches_identical(&at(t), &inline, &format!("{what}, {t} threads"));
        }
        inline
    }

    #[test]
    fn candidate_parallel_matches_serial_on_planted_break() {
        let ys = slope_break_series(43, 25, 1.5, 11);
        let plan = SearchPlan::default();
        let serial = assert_thread_invariant(&ys, false, plan, &[2, 4, 8], "break");
        assert!(serial.change_point.is_some());
    }

    #[test]
    fn candidate_parallel_matches_serial_on_flat_and_seasonal_series() {
        // The flat series exercises the "no change wins" branch (and its AIC
        // tie-breaking), the seasonal one the lead-skip ≥ 12 candidate split.
        let flat = flat_series(43, 12);
        let mut rng = SmallRng::seed_from_u64(16);
        let seasonal: Vec<f64> = (0..48)
            .map(|t| {
                let s = 5.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin();
                let w = if t >= 30 { (t - 30 + 1) as f64 } else { 0.0 };
                30.0 + s + 1.2 * w + mic_stats::dist::sample_normal(&mut rng, 0.0, 0.7)
            })
            .collect();
        for (ys, is_seasonal, what) in [(&flat, false, "flat"), (&seasonal, true, "seasonal")] {
            assert_thread_invariant(ys, is_seasonal, SearchPlan::default(), &[2, 4, 8], what);
        }
    }

    #[test]
    fn candidate_parallel_matches_serial_under_bic() {
        let ys = slope_break_series(43, 25, 1.5, 11);
        let plan = exact_plan(1, SelectionCriterion::Bic);
        assert_thread_invariant(&ys, false, plan, &[2, 3, 4, 8], "bic");
    }

    #[test]
    fn candidate_parallel_degrades_cleanly_on_short_series() {
        for n in 0..=4usize {
            let ys: Vec<f64> = (0..n).map(|t| t as f64).collect();
            for seasonal in [false, true] {
                let what = format!("n={n} seasonal={seasonal}");
                assert_thread_invariant(&ys, seasonal, SearchPlan::default(), &[2, 4, 8], &what);
            }
        }
    }

    #[test]
    fn warm_search_matches_cold_decisions() {
        // A warm-started search (seeded from the no-change optimum of the
        // series minus its last point — the incremental session's situation)
        // must reach the same change-point decision as the cold search, and
        // the warm exact search must stay thread-count invariant.
        for (ys, what) in [
            (slope_break_series(43, 25, 1.5, 11), "break"),
            (flat_series(43, 12), "flat"),
        ] {
            let prev = exact(&ys[..ys.len() - 1], false);
            let warm = Some(WarmStart::from_search(&prev));
            let cold = exact(&ys, false);
            let plan = SearchPlan {
                warm,
                ..SearchPlan::default()
            };
            let warm_exact = assert_thread_invariant(&ys, false, plan, &[2, 4, 8], what);
            assert_eq!(cold.change_point, warm_exact.change_point, "{what}");
            let plan = SearchPlan {
                warm,
                ..SearchPlan::approximate()
            };
            let warm_approx = search(&ys, false, &fast_opts(), &plan);
            assert_eq!(cold.change_point, warm_approx.change_point, "{what} approx");
            let plan = SearchPlan {
                algorithm: Algorithm::Screened,
                ..plan
            };
            let warm_screened = search(&ys, false, &fast_opts(), &plan);
            assert_eq!(
                cold.change_point, warm_screened.change_point,
                "{what} screened"
            );
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(ChangePoint::None.to_string(), "∞");
        assert_eq!(ChangePoint::At(7).to_string(), "t=7");
        assert_eq!(ChangePoint::At(7).month(), Some(7));
        assert_eq!(ChangePoint::None.month(), None);
    }
}
