//! Configuration and output of the end-to-end trend analysis pipeline
//! (Fig. 1), which [`AnalysisSession`](crate::AnalysisSession) drives.
//!
//! Stage 1 fits the medication model to each (frequency-filtered) monthly
//! dataset and reproduces the prescription panel (Eqs. 7–8). Stage 2 fits
//! the state space model with AIC change-point search to every series that
//! survives the total-frequency filter, in parallel, and categorises the
//! detected changes.

use crate::classify::ChangeCause;
use mic_claims::FrequencyFilter;
use mic_linkmodel::{EmOptions, PrescriptionPanel, SeriesKey};
use mic_statespace::{ChangePoint, FitOptions};

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Per-month entity frequency filter (paper: ≥ 5 appearances).
    pub frequency_filter: FrequencyFilter,
    /// Minimum total series mass over the window (paper: 10).
    pub series_min_total: f64,
    /// EM options for the medication model.
    pub em: EmOptions,
    /// State-space fitting budget.
    pub fit: FitOptions,
    /// Use the screened change-point search instead of the exhaustive
    /// search (Algorithm 1): fit the no-change baseline, score every
    /// candidate once at the baseline's variances, and fit only the best
    /// two (`mic_statespace::Algorithm::Screened`; series with fewer than
    /// 24 scored months run Algorithm 2). A cold screened positive is also
    /// an Algorithm 1 positive. Algorithm 2 (binary search) stays available
    /// through `mic_statespace::search` for the Table V/VI reproductions.
    pub approximate_search: bool,
    /// Include the seasonal component (the paper always does for its full
    /// model; disable for small-T tests).
    pub seasonal: bool,
    /// Worker threads for the state-space fleet (0 = auto).
    pub threads: usize,
    /// Worker threads for Stage 1's monthly EM fits (0 = auto). Months are
    /// independent fits, so the panel is identical at any thread count.
    pub stage1_threads: usize,
    /// Candidate-parallel workers *inside* each exhaustive change-point
    /// search (0 or 1 = inline). The decisions are the same at any value.
    /// Only useful when the series fleet itself is small (few, very long
    /// series); combining a large `threads` with `search_threads > 1`
    /// oversubscribes the machine.
    pub search_threads: usize,
    /// Temporal-prior weight chaining consecutive months' medication
    /// models (Section IV-C): each month's EM fit is refined with the
    /// previous month's `Φ` as a prior of this strength. 0 (the default)
    /// keeps months independent — the batch pipeline's historical
    /// behaviour; incremental sessions typically use 0.1–0.5.
    pub continuity: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            frequency_filter: FrequencyFilter::default(),
            series_min_total: 10.0,
            em: EmOptions::default(),
            fit: FitOptions::default(),
            approximate_search: true,
            seasonal: true,
            threads: 0,
            stage1_threads: 0,
            search_threads: 0,
            continuity: 0.0,
        }
    }
}

/// Per-series change detection result.
#[derive(Clone, Debug)]
pub struct SeriesReport {
    pub key: SeriesKey,
    pub change_point: ChangePoint,
    /// AIC of the selected model.
    pub aic: f64,
    /// AIC of the no-intervention model.
    pub aic_no_change: f64,
    /// Estimated intervention scale λ (0 when no change detected).
    pub lambda: f64,
    /// Model fits spent on this series.
    pub fits_performed: usize,
}

impl SeriesReport {
    /// AIC improvement of the intervention model over the plain model
    /// (positive = change point helps).
    pub fn aic_gain(&self) -> f64 {
        self.aic_no_change - self.aic
    }
}

/// Full pipeline output.
#[derive(Debug)]
pub struct TrendReport {
    /// The reproduced panel (kept for decomposition / plotting).
    pub panel: PrescriptionPanel,
    /// One report per analysed series.
    pub series: Vec<SeriesReport>,
    /// Cause categorisation for prescription series with a detected change.
    pub causes: Vec<(SeriesKey, ChangeCause)>,
    /// Series the panel held before the Section VI total-frequency filter.
    pub series_total: usize,
    /// Series dropped by `series_min_total` — so reports can state coverage,
    /// not just detections.
    pub series_dropped: usize,
}

impl TrendReport {
    /// Fraction of the panel's series that passed the total-frequency filter
    /// and were analysed (1.0 for an empty panel).
    pub fn coverage(&self) -> f64 {
        if self.series_total == 0 {
            1.0
        } else {
            self.series.len() as f64 / self.series_total as f64
        }
    }
    /// Reports with a detected change point, most-significant first.
    pub fn detected(&self) -> Vec<&SeriesReport> {
        let mut v: Vec<&SeriesReport> = self
            .series
            .iter()
            .filter(|r| r.change_point.is_some())
            .collect();
        // total_cmp: a NaN gain (e.g. a degenerate ±∞ AIC pair from an
        // unsearchable series) must sort last, not panic the report.
        v.sort_by(|a, b| b.aic_gain().total_cmp(&a.aic_gain()));
        v
    }

    /// Fraction of disease / medicine / prescription series with a change.
    pub fn detection_rates(&self) -> (f64, f64, f64) {
        let mut counts = [(0usize, 0usize); 3];
        for r in &self.series {
            let slot = match r.key {
                SeriesKey::Disease(_) => 0,
                SeriesKey::Medicine(_) => 1,
                SeriesKey::Prescription(..) => 2,
            };
            counts[slot].1 += 1;
            if r.change_point.is_some() {
                counts[slot].0 += 1;
            }
        }
        let rate = |(hits, total): (usize, usize)| {
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };
        (rate(counts[0]), rate(counts[1]), rate(counts[2]))
    }

    /// Look up the report for a key.
    pub fn report_for(&self, key: SeriesKey) -> Option<&SeriesReport> {
        self.series.iter().find(|r| r.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisSession;
    use mic_claims::{ClaimsDataset, Simulator, WorldSpec};

    fn small_ds() -> (mic_claims::World, ClaimsDataset) {
        let spec = WorldSpec {
            n_diseases: 10,
            n_medicines: 14,
            n_patients: 150,
            n_hospitals: 4,
            n_cities: 2,
            months: 20,
            n_new_medicines: 1,
            n_generic_entries: 0,
            n_indication_expansions: 0,
            n_price_revisions: 0,
            n_outbreaks: 0,
            n_prevalence_shifts: 0,
            ..WorldSpec::default()
        };
        let world = spec.generate();
        let ds = Simulator::new(&world, 42).run();
        (world, ds)
    }

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            seasonal: false, // T = 20 is too short for a 13-state model
            fit: FitOptions {
                max_evals: 150,
                n_starts: 1,
            },
            threads: 2,
            ..Default::default()
        }
    }

    /// The batch pipeline: a fresh session fed every month, analysed once.
    fn run(config: PipelineConfig, ds: &ClaimsDataset) -> TrendReport {
        AnalysisSession::from_dataset(&config, ds)
            .expect("simulated months are sequential")
            .analyze()
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let (_world, ds) = small_ds();
        let report = run(fast_config(), &ds);
        assert!(
            !report.series.is_empty(),
            "some series must survive filtering"
        );
        // Coverage bookkeeping: analysed + dropped partition the panel.
        assert_eq!(
            report.series.len() + report.series_dropped,
            report.series_total
        );
        assert!((0.0..=1.0).contains(&report.coverage()));
        // Detection rates are valid fractions.
        let (rd, rm, rp) = report.detection_rates();
        for r in [rd, rm, rp] {
            assert!((0.0..=1.0).contains(&r));
        }
        // Detected list is sorted by AIC gain.
        let det = report.detected();
        for w in det.windows(2) {
            assert!(w[0].aic_gain() >= w[1].aic_gain());
        }
    }

    #[test]
    fn panel_mass_equals_prescriptions() {
        let (_world, ds) = small_ds();
        let config = fast_config();
        let session = AnalysisSession::from_dataset(&config, &ds).unwrap();
        let panel = session.panel();
        // Sum of all prescription series ≈ number of prescriptions that
        // survive frequency filtering.
        let mut filtered_rx = 0usize;
        for month in &ds.months {
            let (f, _) = config
                .frequency_filter
                .filter_month(month, ds.n_diseases, ds.n_medicines);
            filtered_rx += f.records.iter().map(|r| r.medicines.len()).sum::<usize>();
        }
        let mass: f64 = panel
            .iter_prescriptions()
            .map(|(_, _, s)| s.iter().sum::<f64>())
            .sum();
        assert!(
            (mass - filtered_rx as f64).abs() < 1e-6 * filtered_rx as f64 + 1e-6,
            "panel mass {mass} vs filtered prescriptions {filtered_rx}"
        );
    }

    #[test]
    fn exact_and_approx_configs_agree_on_negatives() {
        let (_world, ds) = small_ds();
        let exact_cfg = PipelineConfig {
            approximate_search: false,
            ..fast_config()
        };
        let approx_cfg = PipelineConfig {
            approximate_search: true,
            ..fast_config()
        };
        let exact = run(exact_cfg, &ds);
        let approx = run(approx_cfg, &ds);
        assert_eq!(exact.series.len(), approx.series.len());
        for (e, a) in exact.series.iter().zip(&approx.series) {
            assert_eq!(e.key, a.key);
            // No false positives: approx positive ⇒ exact positive.
            if a.change_point.is_some() {
                assert!(
                    e.change_point.is_some(),
                    "{}: approx found a change the exact search rejected",
                    a.key
                );
            }
        }
    }

    #[test]
    fn detected_survives_nan_aic_gain() {
        // A series whose search degenerated (infinite AICs on both sides)
        // has a NaN gain; `detected()` must rank it last instead of
        // panicking mid-sort.
        use mic_claims::DiseaseId;
        let mk = |d: u32, aic: f64, aic_no_change: f64| SeriesReport {
            key: SeriesKey::Disease(DiseaseId(d)),
            change_point: ChangePoint::At(5),
            aic,
            aic_no_change,
            lambda: 1.0,
            fits_performed: 1,
        };
        let report = TrendReport {
            panel: PrescriptionPanel::empty(1, 1, 6),
            series: vec![
                mk(0, 100.0, 110.0),                 // gain 10
                mk(1, f64::INFINITY, f64::INFINITY), // gain NaN
                mk(2, 100.0, 140.0),                 // gain 40
            ],
            causes: Vec::new(),
            series_total: 3,
            series_dropped: 0,
        };
        let det = report.detected();
        assert_eq!(det.len(), 3);
        assert_eq!(det[0].key, SeriesKey::Disease(DiseaseId(2)));
        assert_eq!(det[1].key, SeriesKey::Disease(DiseaseId(0)));
        assert!(det[2].aic_gain().is_nan(), "NaN gain must sort last");
    }

    fn assert_reports_identical(a: &TrendReport, b: &TrendReport) {
        assert_eq!(a.series.len(), b.series.len());
        for (x, y) in a.series.iter().zip(&b.series) {
            assert_eq!(x.key, y.key, "series order must be preserved");
            assert_eq!(x.change_point, y.change_point);
            assert_eq!(x.aic.to_bits(), y.aic.to_bits(), "{}", x.key);
            assert_eq!(x.lambda.to_bits(), y.lambda.to_bits());
        }
        assert_eq!(a.panel.horizon(), b.panel.horizon());
        for ((da, ma, sa), (db, mb, sb)) in a
            .panel
            .iter_prescriptions()
            .zip(b.panel.iter_prescriptions())
        {
            assert_eq!((da, ma), (db, mb));
            for (va, vb) in sa.iter().zip(sb) {
                assert_eq!(va.to_bits(), vb.to_bits(), "panel cell {da}/{ma}");
            }
        }
    }

    #[test]
    fn parallel_pipeline_is_deterministic() {
        // The scoped-thread work queue must not change results or order:
        // thread counts 1, 2, and 8 produce identical reports.
        let (_world, ds) = small_ds();
        let base = run(
            PipelineConfig {
                threads: 1,
                ..fast_config()
            },
            &ds,
        );
        for threads in [2usize, 8] {
            let cfg = PipelineConfig {
                threads,
                ..fast_config()
            };
            let report = run(cfg, &ds);
            assert_reports_identical(&report, &base);
        }
    }

    #[test]
    fn stage1_thread_count_does_not_change_the_panel() {
        // Stage 1's per-worker EmWorkspace fan-out must be invisible in the
        // output: any worker count builds the same panel and report as the
        // serial pass, bit for bit — also when the serial continuity refine
        // chains the parallel independent fits.
        let (_world, ds) = small_ds();
        for continuity in [0.0, 0.5] {
            let base = run(
                PipelineConfig {
                    stage1_threads: 1,
                    continuity,
                    ..fast_config()
                },
                &ds,
            );
            for stage1_threads in [2usize, 4, 8] {
                let report = run(
                    PipelineConfig {
                        stage1_threads,
                        continuity,
                        ..fast_config()
                    },
                    &ds,
                );
                assert_reports_identical(&report, &base);
            }
        }
    }

    #[test]
    fn candidate_parallel_search_does_not_change_the_report() {
        // Routing the exhaustive per-series search through the
        // candidate-parallel mode must leave every detection untouched.
        let (_world, ds) = small_ds();
        let serial = run(
            PipelineConfig {
                search_threads: 1,
                approximate_search: false,
                ..fast_config()
            },
            &ds,
        );
        let par = run(
            PipelineConfig {
                search_threads: 4,
                approximate_search: false,
                ..fast_config()
            },
            &ds,
        );
        assert_reports_identical(&par, &serial);
    }

    #[test]
    fn report_lookup() {
        let (_world, ds) = small_ds();
        let report = run(fast_config(), &ds);
        let first_key = report.series[0].key;
        assert!(report.report_for(first_key).is_some());
    }
}
