//! Long-lived incremental analysis sessions — the pipeline's only driver.
//!
//! The paper's pipeline (Fig. 1) consumes *monthly* MIC datasets. An
//! [`AnalysisSession`] owns all cross-call state — the per-month fitted `Φ`
//! models, the accumulated [`PrescriptionPanel`], and a per-series cache of
//! Stage-2 results — so absorbing month `T+1` costs one EM fit (refined
//! from month `T`'s `Φ` when `continuity > 0`, the paper's Section IV-C
//! temporal prior) plus change-point searches only for series whose data
//! actually changed, each seeded from its cached optimum. A batch analysis
//! is a fresh session fed every month:
//! `AnalysisSession::from_dataset(&config, &ds)?.analyze()`.
//!
//! - Stage 1 ([`AnalysisSession::append_months`]) — frequency filter +
//!   monthly EM fit + panel extension (Eqs. 5–8);
//! - Stage 2 ([`AnalysisSession::analyze`], or [`Stage2Detect`] for one
//!   series) — AIC change-point search and λ decomposition per series
//!   (Algorithm 1, or the screened search).
//!
//! **Equivalence by construction**: each appended month depends only on
//! that month's records, the previous month's final `Φ`, and the
//! configuration. Feeding months one-by-one therefore reproduces the batch
//! panel bit-for-bit; Stage-2 results can differ only where a warm-started
//! refit converges to a marginally different optimum, which is why the
//! equivalence tests pin change-point *decisions*.
//!
//! **Cache invalidation** is content-based: each cache entry stores a hash
//! of the series' exact values (length + every `f64` bit pattern). A lookup
//! hits only when the hash matches; any change — including a grown
//! horizon, since even a trailing zero changes the change-point candidate
//! set — invalidates the entry, and the refit is warm-started from the
//! stale entry's fitted variances instead of the default simplex.

use crate::classify::{classify_change, ChangeCause, MATCH_WINDOW};
use crate::pipeline::{PipelineConfig, SeriesReport, TrendReport};
use mic_claims::{ClaimsDataset, ClaimsError, MonthlyDataset, YearMonth};
use mic_linkmodel::{EmWorkspace, MedicationModel, PrescriptionPanel, SeriesKey};
use mic_par::{default_threads, parallel_map, parallel_map_with};
use mic_statespace::{search, Algorithm, ChangePoint, SearchPlan, WarmStart};
use std::collections::HashMap;

/// Worker count for a `threads` setting, where 0 means auto.
fn worker_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Stage 2 for one series outside a session: the AIC change-point search
/// (Algorithm 1 exact, or the screened search) and λ decomposition under a
/// [`PipelineConfig`]'s search settings, always cold.
#[derive(Clone, Debug)]
pub struct Stage2Detect {
    config: PipelineConfig,
}

impl Stage2Detect {
    pub fn from_config(config: &PipelineConfig) -> Stage2Detect {
        Stage2Detect {
            config: config.clone(),
        }
    }

    /// Change-point analysis of one series (cold start).
    pub fn analyze_series(&self, key: SeriesKey, ys: &[f64]) -> SeriesReport {
        analyze_series_warm(&self.config, key, ys, None).0
    }
}

/// [`Stage2Detect::analyze_series`] with an optional warm start; also
/// returns the search's fitted optima so a session can seed the next refit
/// of the same series.
fn analyze_series_warm(
    config: &PipelineConfig,
    key: SeriesKey,
    ys: &[f64],
    warm: Option<WarmStart>,
) -> (SeriesReport, WarmStart) {
    let algorithm = if config.approximate_search {
        Algorithm::Screened
    } else {
        Algorithm::Exact {
            threads: config.search_threads,
        }
    };
    let plan = SearchPlan {
        algorithm,
        warm,
        ..SearchPlan::default()
    };
    let found = search(ys, config.seasonal, &config.fit, &plan);
    let report = SeriesReport {
        key,
        change_point: found.change_point,
        aic: found.aic,
        aic_no_change: found.aic_no_change,
        lambda: found.fit.lambda(ys),
        fits_performed: found.fits_performed,
    };
    (report, WarmStart::from_search(&found))
}

/// One memoised Stage-2 result.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// Content hash of the exact series the report was computed from.
    hash: u64,
    report: SeriesReport,
    /// The search's fitted optima — the warm seeds for the next refit of
    /// this series after its data changes.
    seeds: WarmStart,
}

/// FNV-1a over the series length and every value's exact bit pattern. Any
/// change to any observation — or to the horizon — changes the hash.
fn series_hash(ys: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (ys.len() as u64).to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    for y in ys {
        for b in y.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    }
    h
}
/// Change-cause categorisation over a finished series fleet (Fig. 1b): for
/// every broken prescription pair, compare its change point against the
/// disease and medicine marginals and count sibling pairs of the same
/// medicine breaking in the same window.
pub(crate) fn classify_all(series: &[SeriesReport]) -> Vec<(SeriesKey, ChangeCause)> {
    let classify_span = mic_obs::span("pipeline.classify");
    let mut by_key: HashMap<SeriesKey, &SeriesReport> = HashMap::new();
    let mut broken_pairs_by_medicine: HashMap<u32, Vec<(u32, usize)>> = HashMap::new();
    for r in series {
        by_key.insert(r.key, r);
        if let (SeriesKey::Prescription(d, m), ChangePoint::At(t)) = (r.key, r.change_point) {
            broken_pairs_by_medicine
                .entry(m.0)
                .or_default()
                .push((d.0, t));
        }
    }
    let mut causes = Vec::new();
    for r in series {
        if let (SeriesKey::Prescription(d, m), ChangePoint::At(t)) = (r.key, r.change_point) {
            let disease_cp = by_key
                .get(&SeriesKey::Disease(d))
                .and_then(|r| r.change_point.month());
            let medicine_cp = by_key
                .get(&SeriesKey::Medicine(m))
                .and_then(|r| r.change_point.month());
            let siblings = broken_pairs_by_medicine
                .get(&m.0)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter(|&&(dd, tt)| {
                            dd != d.0 && (tt as i64 - t as i64).abs() <= MATCH_WINDOW
                        })
                        .count()
                })
                .unwrap_or(0);
            causes.push((r.key, classify_change(t, disease_cp, medicine_cp, siblings)));
        }
    }
    classify_span.end();
    causes
}

/// A long-lived incremental analysis over a growing monthly claims window.
///
/// Owns the fitted per-month `Φ` models, the accumulated panel, and the
/// Stage-2 fit cache. Feed months with [`AnalysisSession::append_month`]
/// (or in bulk with [`AnalysisSession::append_months`]) and pull reports
/// with [`AnalysisSession::analyze`] whenever needed; repeated analyses of
/// an unchanged window are served from the cache.
#[derive(Clone)]
pub struct AnalysisSession {
    config: PipelineConfig,
    start: YearMonth,
    n_diseases: usize,
    n_medicines: usize,
    models: Vec<MedicationModel>,
    panel: PrescriptionPanel,
    cache: HashMap<SeriesKey, CacheEntry>,
}

impl AnalysisSession {
    /// An empty session for a claims world of the given catalogue sizes,
    /// anchored at `start`.
    pub fn new(
        config: &PipelineConfig,
        start: YearMonth,
        n_diseases: usize,
        n_medicines: usize,
    ) -> AnalysisSession {
        AnalysisSession {
            config: config.clone(),
            start,
            n_diseases,
            n_medicines,
            models: Vec::new(),
            panel: PrescriptionPanel::empty(n_diseases, n_medicines, 0),
            cache: HashMap::new(),
        }
    }

    /// A session pre-loaded with every month of `ds` (batch Stage 1).
    pub fn from_dataset(
        config: &PipelineConfig,
        ds: &ClaimsDataset,
    ) -> Result<AnalysisSession, ClaimsError> {
        let mut session = AnalysisSession::new(config, ds.start, ds.n_diseases, ds.n_medicines);
        session.append_months(&ds.months)?;
        Ok(session)
    }

    /// Months absorbed so far.
    pub fn horizon(&self) -> usize {
        self.models.len()
    }

    /// Calendar anchor of month 0.
    pub fn start(&self) -> YearMonth {
        self.start
    }

    /// The accumulated reproduced panel.
    pub fn panel(&self) -> &PrescriptionPanel {
        &self.panel
    }

    /// The fitted medication model of each absorbed month.
    pub fn models(&self) -> &[MedicationModel] {
        &self.models
    }

    /// Number of series with a memoised Stage-2 result.
    pub fn cached_series(&self) -> usize {
        self.cache.len()
    }

    /// Drop every memoised Stage-2 result and warm seed: the next
    /// [`analyze`](Self::analyze) refits everything cold, which makes its
    /// report bitwise identical to a fresh session's over the same months
    /// (see the module docs on equivalence by construction).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Absorb one new month: filter, fit its EM model (refined from the
    /// previous month's `Φ` when `continuity > 0`), and extend every
    /// affected series by one point. The month must carry the next
    /// sequential label. Stage-2 refits are deferred to the next
    /// [`AnalysisSession::analyze`], which touches only changed series.
    pub fn append_month(&mut self, month: &MonthlyDataset) -> Result<(), ClaimsError> {
        self.append_months(std::slice::from_ref(month))
    }

    /// Absorb a batch of months — Stage 1, the only Stage-1 driver: the
    /// frequency filter, the independent EM fits and their reproduced
    /// columns fan out over Stage 1's worker threads (one [`EmWorkspace`]
    /// each), then the sequential continuity refinement (which recomputes a
    /// refined month's column) and panel extension chain through the months
    /// serially. The result does not depend on the thread count or on how
    /// the months are split into calls. A batch with any out-of-sequence
    /// label is rejected whole, before anything is fitted.
    pub fn append_months(&mut self, months: &[MonthlyDataset]) -> Result<(), ClaimsError> {
        let _span = mic_obs::span("pipeline.stage1");
        for (i, month) in months.iter().enumerate() {
            let index = self.models.len() + i;
            if month.month.index() != index {
                return Err(ClaimsError::MonthLabel {
                    index,
                    label: month.month,
                });
            }
        }
        let (config, n_diseases, n_medicines) = (&self.config, self.n_diseases, self.n_medicines);
        let threads = worker_threads(config.stage1_threads);
        let fitted = parallel_map_with(months, threads, EmWorkspace::new, |ws, month| {
            let (filtered, vocab) =
                config
                    .frequency_filter
                    .filter_month(month, n_diseases, n_medicines);
            // The frequency filter's silent drops, made visible: entities
            // below the per-month threshold and the records they emptied.
            for (name, dropped) in [
                (
                    "pipeline.diseases_dropped",
                    n_diseases - vocab.n_kept_diseases(),
                ),
                (
                    "pipeline.medicines_dropped",
                    n_medicines - vocab.n_kept_medicines(),
                ),
                (
                    "pipeline.records_dropped",
                    month.records.len() - filtered.records.len(),
                ),
            ] {
                mic_obs::counter(name, dropped as u64);
            }
            let model =
                MedicationModel::fit_with(&filtered, n_diseases, n_medicines, &config.em, ws);
            let column = ws.column(config.em.smoothing);
            mic_obs::counter("pipeline.stage1_fits", 1);
            // Publish this worker's collector so periodic `--progress`
            // snapshots see Stage-1 work as it completes.
            mic_obs::flush();
            // The continuity refinement is the filtered month's only later
            // reader; without it the copy is dropped here.
            (
                model,
                column,
                (config.continuity != 0.0).then_some(filtered),
            )
        });
        let mut ws = EmWorkspace::new();
        for (mut model, mut column, filtered) in fitted {
            if let (Some(prev), Some(filtered)) = (self.models.last(), &filtered) {
                model.refine_next(filtered, prev, config.continuity, &config.em, &mut ws);
                column = ws.column(config.em.smoothing);
            }
            self.panel.extend_with(column);
            self.models.push(model);
            mic_obs::counter("session.appends", 1);
        }
        Ok(())
    }

    /// Stage 2 over the current window, served from the fit cache where the
    /// data is unchanged: one pass decides, for each admitted series, between
    /// a cache hit (the memoised entry), a warm refit (seeded from the stale
    /// entry) and a cold one; one fan-out then replays or refits every
    /// series and the cache is updated. Reports come back in sorted key
    /// order, exactly as a fresh session produces them.
    fn detect_series(&mut self) -> Vec<SeriesReport> {
        let _span = mic_obs::span("pipeline.stage2");
        let config = &self.config;
        let keys = self.panel.filtered_keys(config.series_min_total);
        mic_obs::counter("pipeline.series_admitted", keys.len() as u64);
        mic_obs::counter(
            "pipeline.series_dropped",
            (self.panel.n_series() - keys.len()) as u64,
        );
        // `Ok` replays a cache hit; `Err` refits from the stale entry's
        // seeds (`None` = cold).
        let mut jobs = Vec::with_capacity(keys.len());
        for key in keys {
            let Some(ys) = self.panel.series(key) else {
                // A filtered key without a backing series is a panel
                // inconsistency; skip and count it rather than abort the
                // whole run.
                mic_obs::counter("pipeline.key_mismatch", 1);
                continue;
            };
            let hash = series_hash(ys);
            let decision = match self.cache.get(&key) {
                Some(entry) if entry.hash == hash => {
                    mic_obs::counter("session.cache_hits", 1);
                    Ok(entry.clone())
                }
                entry => {
                    mic_obs::counter("session.cache_misses", 1);
                    let warm = entry.map(|e| e.seeds);
                    mic_obs::counter(
                        if warm.is_some() {
                            "session.warm_fits"
                        } else {
                            "session.cold_fits"
                        },
                        1,
                    );
                    Err(warm)
                }
            };
            jobs.push((key, ys, hash, decision));
        }
        let entries = parallel_map(
            &jobs,
            worker_threads(config.threads),
            |(key, ys, hash, decision)| match decision {
                Ok(hit) => hit.clone(),
                Err(warm) => {
                    let (report, seeds) = analyze_series_warm(config, *key, ys, *warm);
                    mic_obs::counter("pipeline.fits", report.fits_performed as u64);
                    mic_obs::value("pipeline.fits_per_series", report.fits_performed as f64);
                    // Publish this worker's collector so periodic
                    // `--progress` snapshots see work as it completes, not
                    // only at join.
                    mic_obs::flush();
                    CacheEntry {
                        hash: *hash,
                        report,
                        seeds,
                    }
                }
            },
        );
        jobs.iter()
            .zip(entries)
            .map(|(&(key, ..), entry)| {
                let report = entry.report.clone();
                self.cache.insert(key, entry);
                report
            })
            .collect()
    }

    /// Full report over the current window: detect (cache-aware), then
    /// categorise causes. A fresh session fed all months at once and
    /// analysed once is the batch pipeline.
    pub fn analyze(&mut self) -> TrendReport {
        let series = self.detect_series();
        let causes = classify_all(&series);
        let series_total = self.panel.n_series();
        let series_dropped = series_total - series.len();
        TrendReport {
            panel: self.panel.clone(),
            series,
            causes,
            series_total,
            series_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_claims::{DiseaseId, HospitalId, MedicineId, MicRecord, Month, PatientId};
    use mic_statespace::FitOptions;

    fn record(diseases: Vec<(u32, u32)>, meds: Vec<u32>) -> MicRecord {
        let truth = vec![DiseaseId(diseases[0].0); meds.len()];
        MicRecord {
            patient: PatientId(0),
            hospital: HospitalId(0),
            diseases: diseases
                .into_iter()
                .map(|(d, n)| (DiseaseId(d), n))
                .collect(),
            medicines: meds.into_iter().map(MedicineId).collect(),
            truth_links: truth,
        }
    }

    fn synthetic_months(n: usize) -> Vec<MonthlyDataset> {
        (0..n)
            .map(|t| {
                let mut records = Vec::new();
                // A stable base plus a volume ramp on disease 1 after month
                // n/2 so Stage 2 has something to find.
                let reps = if t >= n / 2 { 8 } else { 2 };
                for i in 0..6 {
                    records.push(record(vec![(0, 1 + (i % 2) as u32)], vec![0, 1]));
                }
                for _ in 0..reps {
                    records.push(record(vec![(1, 1)], vec![2]));
                }
                MonthlyDataset {
                    month: Month(t as u32),
                    records,
                }
            })
            .collect()
    }

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            seasonal: false,
            fit: FitOptions {
                max_evals: 100,
                n_starts: 1,
            },
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn series_hash_is_content_sensitive() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(series_hash(&a), series_hash(&[1.0, 2.0, 3.0]));
        assert_ne!(series_hash(&a), series_hash(&[1.0, 2.0, 3.0, 0.0]));
        assert_ne!(series_hash(&a), series_hash(&[1.0, 2.0, 4.0]));
        assert_ne!(series_hash(&[0.0]), series_hash(&[-0.0]));
        assert_ne!(series_hash(&[]), series_hash(&[0.0]));
    }

    #[test]
    fn append_month_rejects_out_of_order_labels() {
        let months = synthetic_months(3);
        let mut session = AnalysisSession::new(&fast_config(), YearMonth::paper_start(), 3, 4);
        session.append_month(&months[0]).unwrap();
        let err = session.append_month(&months[2]).unwrap_err();
        assert!(matches!(err, ClaimsError::MonthLabel { index: 1, .. }));
        assert_eq!(session.horizon(), 1);
    }

    #[test]
    fn append_months_is_all_or_nothing() {
        // A batch with one out-of-sequence month is rejected whole: nothing
        // of its valid first month is absorbed, and the session still takes
        // a valid append afterwards.
        let months = synthetic_months(3);
        let mut session = AnalysisSession::new(&fast_config(), YearMonth::paper_start(), 3, 4);
        let err = session
            .append_months(&[months[0].clone(), months[2].clone()])
            .unwrap_err();
        assert!(matches!(err, ClaimsError::MonthLabel { index: 1, .. }));
        assert_eq!(session.horizon(), 0);
        assert!(session.models().is_empty());
        assert_eq!(session.panel().horizon(), 0);
        session.append_months(&months[..2]).unwrap();
        assert_eq!(session.horizon(), 2);
        assert_eq!(session.panel().horizon(), 2);
    }

    #[test]
    fn repeated_analyze_is_served_from_cache() {
        let months = synthetic_months(16);
        let mut session = AnalysisSession::new(&fast_config(), YearMonth::paper_start(), 3, 4);
        session.append_months(&months).unwrap();
        let first = session.analyze();
        assert!(!first.series.is_empty());
        assert_eq!(session.cached_series(), first.series.len());
        let second = session.analyze();
        assert_eq!(first.series.len(), second.series.len());
        for (a, b) in first.series.iter().zip(&second.series) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.change_point, b.change_point);
            assert_eq!(
                a.aic.to_bits(),
                b.aic.to_bits(),
                "{}: cache must replay",
                a.key
            );
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
        }
    }

    #[test]
    fn appending_a_month_invalidates_and_warm_refits() {
        let months = synthetic_months(17);
        let mut session = AnalysisSession::new(&fast_config(), YearMonth::paper_start(), 3, 4);
        session.append_months(&months[..16]).unwrap();
        let before = session.analyze();
        session.append_month(&months[16]).unwrap();
        let after = session.analyze();
        assert_eq!(session.horizon(), 17);
        assert_eq!(after.panel.horizon(), 17);
        // Every analysed series changed content (grew by one point), so the
        // cache was refreshed for all of them.
        assert!(session.cached_series() >= before.series.len());
        for r in &after.series {
            assert!(r.aic.is_finite() || r.change_point == ChangePoint::None);
        }
    }

    #[test]
    fn batch_and_incremental_stage1_agree_bitwise() {
        let months = synthetic_months(10);
        let config = fast_config();
        let mut batch = AnalysisSession::new(&config, YearMonth::paper_start(), 3, 4);
        batch.append_months(&months).unwrap();
        let mut incremental = AnalysisSession::new(&config, YearMonth::paper_start(), 3, 4);
        for month in &months {
            incremental.append_month(month).unwrap();
        }
        assert_eq!(batch.panel().horizon(), incremental.panel().horizon());
        for key in batch.panel().filtered_keys(0.0) {
            let a = batch.panel().series(key).unwrap();
            let b = incremental.panel().series(key).unwrap();
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{key}");
            }
        }
    }

    #[test]
    fn continuity_chains_identically_batch_vs_incremental() {
        let months = synthetic_months(8);
        let config = PipelineConfig {
            continuity: 0.4,
            ..fast_config()
        };
        let mut batch = AnalysisSession::new(&config, YearMonth::paper_start(), 3, 4);
        batch.append_months(&months).unwrap();
        let mut incremental = AnalysisSession::new(&config, YearMonth::paper_start(), 3, 4);
        for month in &months {
            incremental.append_month(month).unwrap();
        }
        for (a, b) in batch.models().iter().zip(incremental.models()) {
            assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits());
            assert_eq!(a.iterations, b.iterations);
        }
        for key in batch.panel().filtered_keys(0.0) {
            let a = batch.panel().series(key).unwrap();
            let b = incremental.panel().series(key).unwrap();
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{key}");
            }
        }
    }
}
