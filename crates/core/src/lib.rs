//! # mic-trend
//!
//! The paper's end-to-end prescription trend analysis pipeline and its three
//! applications (Section VII):
//!
//! - [`pipeline`] — the [`PipelineConfig`] and the report types;
//! - [`classify`] — categorisation of detected changes into disease-,
//!   medicine-, and prescription-derived causes (Fig. 1b);
//! - [`geo`] — geographical prescription spread analysis (Fig. 8): per-city
//!   models quantifying generic uptake;
//! - [`hospital`] — inter-hospital prescription gap analysis (Table II):
//!   per-hospital-class models ranking the diseases a medicine is
//!   prescribed for (both split the records through one helper that fits a
//!   panel per group);
//! - [`outbreak`] — outbreak surveillance from the irregular component of
//!   each disease series (Fig. 6a turned into a detector);
//! - [`session`] — the [`AnalysisSession`], the pipeline's only driver:
//!   monthly medication-model fits → reproduced prescription panel →
//!   parallel state-space fleet → per-series change reports, in batch
//!   (`AnalysisSession::from_dataset(&config, &ds)?.analyze()`) or month by
//!   month with warm-started EM and a content-hashed cache of Stage-2 fits;
//!   [`Stage2Detect`] runs Stage 2 on one series;
//! - [`report`] — fixed-width table and CSV rendering of results.

pub mod classify;
pub mod geo;
pub mod hospital;
pub mod outbreak;
pub mod pipeline;
pub mod report;
pub mod session;

pub use classify::{classify_change, ChangeCause};
pub use outbreak::{detect_outbreaks, OutbreakAlert, OutbreakConfig};
pub use pipeline::{PipelineConfig, SeriesReport, TrendReport};
pub use session::{AnalysisSession, Stage2Detect};

use mic_claims::{ClaimsDataset, MicRecord, Month, MonthlyDataset};
use mic_linkmodel::{reproduce_panel, EmOptions, PrescriptionPanel};
use std::collections::HashMap;
use std::hash::Hash;

/// Reproduced panels per group of records, each month fitted on the
/// group's records alone: `groups` names every group (an empty one still
/// gets a panel) and `group_of` assigns each record to one of them.
pub(crate) fn group_panels<K: Copy + Eq + Hash>(
    ds: &ClaimsDataset,
    groups: impl IntoIterator<Item = K>,
    group_of: impl Fn(&MicRecord) -> K,
    em: &EmOptions,
) -> HashMap<K, PrescriptionPanel> {
    let empty: Vec<MonthlyDataset> = (0..ds.horizon())
        .map(|t| MonthlyDataset {
            month: Month(t as u32),
            records: vec![],
        })
        .collect();
    let mut split: HashMap<K, Vec<MonthlyDataset>> =
        groups.into_iter().map(|k| (k, empty.clone())).collect();
    for (t, month) in ds.months.iter().enumerate() {
        for r in &month.records {
            split.get_mut(&group_of(r)).expect("group exists")[t]
                .records
                .push(r.clone());
        }
    }
    split
        .into_iter()
        .map(|(k, months)| {
            let panel = reproduce_panel(&months, ds.n_diseases, ds.n_medicines, em);
            (k, panel)
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mic_claims::MedicineId;

    /// Every group's panel holds exactly its own records' prescriptions:
    /// each prescription's responsibilities sum to 1, so a medicine's
    /// monthly mass in a group's panel is the number of times the group's
    /// records (those with a diagnosis) prescribe it that month.
    pub(crate) fn assert_panels_partition<K: Copy + Eq + Hash + std::fmt::Debug>(
        ds: &ClaimsDataset,
        panels: &HashMap<K, PrescriptionPanel>,
        group_of: impl Fn(&MicRecord) -> K,
    ) {
        for (&k, panel) in panels {
            assert_eq!(panel.horizon(), ds.horizon());
            for (t, month) in ds.months.iter().enumerate() {
                let mut expected = vec![0.0; ds.n_medicines];
                for r in month.records.iter().filter(|r| group_of(r) == k) {
                    if r.total_diagnoses() > 0 {
                        for m in &r.medicines {
                            expected[m.index()] += 1.0;
                        }
                    }
                }
                for (m, &want) in expected.iter().enumerate() {
                    let got = panel.medicine_series(MedicineId(m as u32))[t];
                    assert!(
                        (got - want).abs() < 1e-9 * want.max(1.0),
                        "group {k:?}, month {t}, medicine {m}: {got} vs {want}"
                    );
                }
            }
        }
    }
}
