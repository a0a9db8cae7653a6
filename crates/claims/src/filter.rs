//! Frequency filtering (paper Section VI).
//!
//! Before fitting the medication model the paper omits diseases and
//! medicines appearing fewer than 5 times in a monthly dataset; before
//! fitting state space models it omits series with total frequency below 10.
//! This module implements the first, per-month entity filter; the series
//! filter lives with the panel type in `mic-linkmodel`.
//!
//! When a rare disease is dropped, prescriptions it caused remain in the
//! record (in real MIC data nobody knows they were caused by the dropped
//! disease); their hidden truth links are replaced by
//! [`UNKNOWN_DISEASE`] so evaluation can skip them without consulting the
//! data the models see.

use crate::ids::{DiseaseId, MedicineId};
use crate::record::{MicRecord, MonthlyDataset};

/// Sentinel truth-link value for prescriptions whose generating disease was
/// removed by filtering.
pub const UNKNOWN_DISEASE: DiseaseId = DiseaseId(u32::MAX);

/// The paper's Section VI thresholds.
#[derive(Clone, Copy, Debug)]
pub struct FrequencyFilter {
    /// Minimum monthly appearances for a disease or medicine to be kept
    /// (paper: 5).
    pub min_monthly_count: u64,
}

impl Default for FrequencyFilter {
    fn default() -> Self {
        FrequencyFilter {
            min_monthly_count: 5,
        }
    }
}

/// Which entities survived filtering in one month.
#[derive(Clone, Debug)]
pub struct FilteredVocabulary {
    pub kept_diseases: Vec<bool>,
    pub kept_medicines: Vec<bool>,
}

impl FilteredVocabulary {
    pub fn n_kept_diseases(&self) -> usize {
        self.kept_diseases.iter().filter(|&&k| k).count()
    }

    pub fn n_kept_medicines(&self) -> usize {
        self.kept_medicines.iter().filter(|&&k| k).count()
    }

    pub fn keeps_disease(&self, d: DiseaseId) -> bool {
        self.kept_diseases.get(d.index()).copied().unwrap_or(false)
    }

    pub fn keeps_medicine(&self, m: MedicineId) -> bool {
        self.kept_medicines.get(m.index()).copied().unwrap_or(false)
    }
}

impl FrequencyFilter {
    /// Decide which diseases/medicines survive in `month`.
    pub fn vocabulary(
        &self,
        month: &MonthlyDataset,
        n_diseases: usize,
        n_medicines: usize,
    ) -> FilteredVocabulary {
        let df = month.disease_frequencies(n_diseases);
        let mf = month.medicine_frequencies(n_medicines);
        FilteredVocabulary {
            kept_diseases: df.iter().map(|&f| f >= self.min_monthly_count).collect(),
            kept_medicines: mf.iter().map(|&f| f >= self.min_monthly_count).collect(),
        }
    }

    /// Apply the filter to a month: drop rare diseases from bags and rare
    /// medicines (with their truth links) from prescription lists; orphaned
    /// truth links become [`UNKNOWN_DISEASE`]; records left with an empty
    /// disease bag are dropped entirely.
    pub fn filter_month(
        &self,
        month: &MonthlyDataset,
        n_diseases: usize,
        n_medicines: usize,
    ) -> (MonthlyDataset, FilteredVocabulary) {
        let vocab = self.vocabulary(month, n_diseases, n_medicines);
        let mut records = Vec::with_capacity(month.records.len());
        for r in &month.records {
            let diseases: Vec<(DiseaseId, u32)> = r
                .diseases
                .iter()
                .copied()
                .filter(|&(d, _)| vocab.keeps_disease(d))
                .collect();
            if diseases.is_empty() {
                continue;
            }
            let mut medicines = Vec::with_capacity(r.medicines.len());
            let mut truth_links = Vec::with_capacity(r.medicines.len());
            for (l, &m) in r.medicines.iter().enumerate() {
                if !vocab.keeps_medicine(m) {
                    continue;
                }
                medicines.push(m);
                let link = r.truth_links[l];
                truth_links.push(
                    if vocab.keeps_disease(link) && diseases.iter().any(|&(d, _)| d == link) {
                        link
                    } else {
                        UNKNOWN_DISEASE
                    },
                );
            }
            records.push(MicRecord {
                patient: r.patient,
                hospital: r.hospital,
                diseases,
                medicines,
                truth_links,
            });
        }
        (
            MonthlyDataset {
                month: month.month,
                records,
            },
            vocab,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HospitalId, Month, PatientId};

    fn record(diseases: Vec<(u32, u32)>, meds: Vec<u32>, truth: Vec<u32>) -> MicRecord {
        MicRecord {
            patient: PatientId(0),
            hospital: HospitalId(0),
            diseases: diseases
                .into_iter()
                .map(|(d, n)| (DiseaseId(d), n))
                .collect(),
            medicines: meds.into_iter().map(MedicineId).collect(),
            truth_links: truth.into_iter().map(DiseaseId).collect(),
        }
    }

    fn month_of(records: Vec<MicRecord>) -> MonthlyDataset {
        MonthlyDataset {
            month: Month(0),
            records,
        }
    }

    #[test]
    fn rare_entities_are_dropped() {
        // Disease 0 appears 6 times (kept), disease 1 twice (dropped);
        // medicine 0 appears 5 times (kept), medicine 1 once (dropped).
        let mut records = Vec::new();
        for _ in 0..5 {
            records.push(record(vec![(0, 1)], vec![0], vec![0]));
        }
        records.push(record(vec![(0, 1), (1, 2)], vec![1], vec![1]));
        let month = month_of(records);
        let filter = FrequencyFilter {
            min_monthly_count: 5,
        };
        let (filtered, vocab) = filter.filter_month(&month, 2, 2);
        assert!(vocab.keeps_disease(DiseaseId(0)));
        assert!(!vocab.keeps_disease(DiseaseId(1)));
        assert!(vocab.keeps_medicine(MedicineId(0)));
        assert!(!vocab.keeps_medicine(MedicineId(1)));
        assert_eq!(vocab.n_kept_diseases(), 1);
        assert_eq!(vocab.n_kept_medicines(), 1);
        // The last record keeps disease 0, loses disease 1 and medicine 1.
        let last = &filtered.records[5];
        assert_eq!(last.diseases, vec![(DiseaseId(0), 1)]);
        assert!(last.medicines.is_empty());
    }

    #[test]
    fn orphaned_truth_links_become_unknown() {
        // Disease 1 is rare (dropped) but its medicine 0 is common (kept).
        let mut records = Vec::new();
        for _ in 0..6 {
            records.push(record(vec![(0, 1)], vec![0], vec![0]));
        }
        records.push(record(vec![(0, 3), (1, 1)], vec![0], vec![1]));
        let month = month_of(records);
        let (filtered, _) = FrequencyFilter::default().filter_month(&month, 2, 1);
        let last = filtered.records.last().unwrap();
        assert_eq!(last.medicines, vec![MedicineId(0)]);
        assert_eq!(last.truth_links, vec![UNKNOWN_DISEASE]);
    }

    #[test]
    fn empty_records_are_removed() {
        let mut records = Vec::new();
        for _ in 0..6 {
            records.push(record(vec![(0, 1)], vec![], vec![]));
        }
        records.push(record(vec![(1, 1)], vec![], vec![]));
        let month = month_of(records);
        let (filtered, _) = FrequencyFilter::default().filter_month(&month, 2, 1);
        assert_eq!(
            filtered.records.len(),
            6,
            "record with only rare disease dropped"
        );
    }

    #[test]
    fn counts_use_diagnosis_multiplicity() {
        // One record with N_rd = 5 passes the threshold even though the
        // disease appears in a single record.
        let month = month_of(vec![record(vec![(0, 5)], vec![], vec![])]);
        let vocab = FrequencyFilter::default().vocabulary(&month, 1, 1);
        assert!(vocab.keeps_disease(DiseaseId(0)));
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let month = month_of(vec![record(vec![(0, 1)], vec![0], vec![0])]);
        let filter = FrequencyFilter {
            min_monthly_count: 0,
        };
        let (filtered, vocab) = filter.filter_month(&month, 1, 1);
        assert_eq!(filtered.records.len(), 1);
        assert!(vocab.keeps_disease(DiseaseId(0)));
        assert!(vocab.keeps_medicine(MedicineId(0)));
    }
}
