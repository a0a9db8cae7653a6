//! MIC records and monthly datasets.
//!
//! A MIC record aggregates one patient's treatments at one institution over
//! one month (paper Section III-A): a *bag of diseases* (with repeat counts —
//! a disease can be diagnosed at several visits within the month) and a *bag
//! of medicines*. Crucially there is **no field linking a medicine to the
//! disease it was prescribed for** — that is the missing-link problem the
//! latent model solves. The simulator records the generating disease of each
//! medicine in [`MicRecord::truth_links`], which evaluation code may consult
//! but model-fitting code must not.

use crate::error::ClaimsError;
use crate::ids::{DiseaseId, HospitalId, MedicineId, Month, PatientId, YearMonth};

/// One medical insurance claim record: one patient × one institution × one
/// month.
#[derive(Clone, Debug, PartialEq)]
pub struct MicRecord {
    pub patient: PatientId,
    pub hospital: HospitalId,
    /// Bag of diseases: `(disease, diagnosis count within the month)`, with
    /// each disease appearing at most once in the vec. Counts are the
    /// `N_rd` of the paper's Eq. (2).
    pub diseases: Vec<(DiseaseId, u32)>,
    /// Bag of medicines prescribed, with repeats (one entry per prescription
    /// event, the paper's `m_r`).
    pub medicines: Vec<MedicineId>,
    /// Hidden ground truth: `truth_links[l]` is the disease that caused
    /// `medicines[l]` to be prescribed. Same length as `medicines`.
    /// Only evaluation code may read this.
    pub truth_links: Vec<DiseaseId>,
}

impl MicRecord {
    /// Total disease diagnoses `N_r = Σ_d N_rd`.
    pub fn total_diagnoses(&self) -> u32 {
        self.diseases.iter().map(|&(_, n)| n).sum()
    }

    /// Number of prescriptions `L_r`.
    pub fn prescription_count(&self) -> usize {
        self.medicines.len()
    }

    /// Diagnosis count of a specific disease (`N_rd`), 0 if absent.
    pub fn disease_count(&self, d: DiseaseId) -> u32 {
        self.diseases
            .iter()
            .find(|&&(id, _)| id == d)
            .map_or(0, |&(_, n)| n)
    }

    /// True when the record is structurally consistent: non-empty disease
    /// bag whenever medicines exist, positive counts, aligned truth links
    /// that reference diseases present in the bag.
    pub fn validate(&self) -> Result<(), ClaimsError> {
        if self.truth_links.len() != self.medicines.len() {
            return Err(ClaimsError::TruthLinkLength {
                links: self.truth_links.len(),
                medicines: self.medicines.len(),
            });
        }
        if !self.medicines.is_empty() && self.diseases.is_empty() {
            return Err(ClaimsError::MedicinesWithoutDiseases);
        }
        for &(d, n) in &self.diseases {
            if n == 0 {
                return Err(ClaimsError::ZeroDiseaseCount { disease: d });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for &(d, _) in &self.diseases {
            if !seen.insert(d) {
                return Err(ClaimsError::DuplicateDisease { disease: d });
            }
        }
        for &link in &self.truth_links {
            if self.disease_count(link) == 0 {
                return Err(ClaimsError::ForeignTruthLink { disease: link });
            }
        }
        Ok(())
    }
}

/// All MIC records of one dataset month (the paper's `R^(t)`).
#[derive(Clone, Debug, Default)]
pub struct MonthlyDataset {
    pub month: Month,
    pub records: Vec<MicRecord>,
}

impl MonthlyDataset {
    /// Number of records `R^(t)`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of appearances of each disease across the month (diagnosis
    /// events, i.e. summing `N_rd`). Returns a dense vector indexed by
    /// disease id over `n_diseases`.
    pub fn disease_frequencies(&self, n_diseases: usize) -> Vec<u64> {
        let mut freq = vec![0u64; n_diseases];
        for r in &self.records {
            for &(d, n) in &r.diseases {
                freq[d.index()] += n as u64;
            }
        }
        freq
    }

    /// Count of prescriptions of each medicine across the month.
    pub fn medicine_frequencies(&self, n_medicines: usize) -> Vec<u64> {
        let mut freq = vec![0u64; n_medicines];
        for r in &self.records {
            for &m in &r.medicines {
                freq[m.index()] += 1;
            }
        }
        freq
    }
}

/// A full observation window of monthly MIC datasets plus its calendar
/// anchor and the catalogue sizes needed for dense indexing.
#[derive(Clone, Debug)]
pub struct ClaimsDataset {
    /// Calendar month of `months[0]`.
    pub start: YearMonth,
    pub months: Vec<MonthlyDataset>,
    pub n_diseases: usize,
    pub n_medicines: usize,
}

impl ClaimsDataset {
    /// Number of months `T`.
    pub fn horizon(&self) -> usize {
        self.months.len()
    }

    /// Calendar label of dataset month `t`.
    pub fn calendar(&self, t: Month) -> YearMonth {
        self.start.plus(t.0)
    }

    /// Zero-based calendar month-of-year of dataset month `t` (for
    /// seasonality).
    pub fn month_of_year0(&self, t: Month) -> u32 {
        self.calendar(t).month_of_year0()
    }

    /// Validate every record; returns the first error found.
    pub fn validate(&self) -> Result<(), ClaimsError> {
        for (i, month) in self.months.iter().enumerate() {
            if month.month.index() != i {
                return Err(ClaimsError::MonthLabel {
                    index: i,
                    label: month.month,
                });
            }
            Self::validate_month(month, i, self.n_diseases, self.n_medicines)?;
        }
        Ok(())
    }

    /// Append one month to the observation window.
    ///
    /// The month must carry the next sequential label (`months.len()`), its
    /// records must validate, and every disease/medicine id must fit the
    /// dataset's catalogue sizes — the incremental analysis path addresses
    /// dense arrays by id, so a foreign id would corrupt the panel rather
    /// than panic. On error the dataset is left unchanged.
    pub fn append_month(&mut self, month: MonthlyDataset) -> Result<(), ClaimsError> {
        let index = self.months.len();
        if month.month.index() != index {
            return Err(ClaimsError::MonthLabel {
                index,
                label: month.month,
            });
        }
        Self::validate_month(&month, index, self.n_diseases, self.n_medicines)?;
        self.months.push(month);
        Ok(())
    }

    fn validate_month(
        month: &MonthlyDataset,
        index: usize,
        n_diseases: usize,
        n_medicines: usize,
    ) -> Result<(), ClaimsError> {
        for (j, r) in month.records.iter().enumerate() {
            let locate = |e: ClaimsError| ClaimsError::Record {
                month: index,
                record: j,
                source: Box::new(e),
            };
            r.validate().map_err(locate)?;
            for &(d, _) in &r.diseases {
                if d.index() >= n_diseases {
                    return Err(locate(ClaimsError::IdOutOfRange {
                        what: "disease",
                        id: d.0,
                        limit: n_diseases,
                    }));
                }
            }
            for &m in &r.medicines {
                if m.index() >= n_medicines {
                    return Err(locate(ClaimsError::IdOutOfRange {
                        what: "medicine",
                        id: m.0,
                        limit: n_medicines,
                    }));
                }
            }
        }
        Ok(())
    }

    /// Total records across all months.
    pub fn total_records(&self) -> usize {
        self.months.iter().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> MicRecord {
        MicRecord {
            patient: PatientId(1),
            hospital: HospitalId(2),
            diseases: vec![(DiseaseId(0), 2), (DiseaseId(3), 1)],
            medicines: vec![MedicineId(5), MedicineId(5), MedicineId(9)],
            truth_links: vec![DiseaseId(0), DiseaseId(0), DiseaseId(3)],
        }
    }

    #[test]
    fn record_counts() {
        let r = sample_record();
        assert_eq!(r.total_diagnoses(), 3);
        assert_eq!(r.prescription_count(), 3);
        assert_eq!(r.disease_count(DiseaseId(0)), 2);
        assert_eq!(r.disease_count(DiseaseId(7)), 0);
    }

    #[test]
    fn record_validates() {
        assert!(sample_record().validate().is_ok());
    }

    #[test]
    fn validation_catches_misaligned_truth() {
        let mut r = sample_record();
        r.truth_links.pop();
        let err = r.validate().unwrap_err();
        assert!(matches!(err, ClaimsError::TruthLinkLength { .. }));
        assert!(err.to_string().contains("length"));
    }

    #[test]
    fn validation_catches_foreign_truth_link() {
        let mut r = sample_record();
        r.truth_links[0] = DiseaseId(99);
        let err = r.validate().unwrap_err();
        assert!(matches!(err, ClaimsError::ForeignTruthLink { .. }));
        assert!(err.to_string().contains("not in disease bag"));
    }

    #[test]
    fn validation_catches_duplicate_disease() {
        let mut r = sample_record();
        r.diseases.push((DiseaseId(0), 1));
        let err = r.validate().unwrap_err();
        assert!(matches!(err, ClaimsError::DuplicateDisease { .. }));
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn validation_catches_zero_count() {
        let mut r = sample_record();
        r.diseases[0].1 = 0;
        let err = r.validate().unwrap_err();
        assert!(matches!(err, ClaimsError::ZeroDiseaseCount { .. }));
        assert!(err.to_string().contains("zero count"));
    }

    #[test]
    fn monthly_frequencies() {
        let month = MonthlyDataset {
            month: Month(0),
            records: vec![sample_record(), sample_record()],
        };
        let df = month.disease_frequencies(5);
        assert_eq!(df[0], 4);
        assert_eq!(df[3], 2);
        assert_eq!(df[1], 0);
        let mf = month.medicine_frequencies(10);
        assert_eq!(mf[5], 4);
        assert_eq!(mf[9], 2);
    }

    #[test]
    fn dataset_calendar_mapping() {
        let ds = ClaimsDataset {
            start: YearMonth::paper_start(),
            months: vec![
                MonthlyDataset {
                    month: Month(0),
                    records: vec![],
                },
                MonthlyDataset {
                    month: Month(1),
                    records: vec![],
                },
            ],
            n_diseases: 5,
            n_medicines: 10,
        };
        assert_eq!(ds.horizon(), 2);
        assert_eq!(ds.calendar(Month(1)).to_string(), "2013-04");
        assert_eq!(ds.month_of_year0(Month(0)), 2);
        assert!(ds.validate().is_ok());
        assert_eq!(ds.total_records(), 0);
    }

    #[test]
    fn dataset_validation_checks_month_labels() {
        let ds = ClaimsDataset {
            start: YearMonth::paper_start(),
            months: vec![MonthlyDataset {
                month: Month(3),
                records: vec![],
            }],
            n_diseases: 1,
            n_medicines: 1,
        };
        assert!(matches!(
            ds.validate().unwrap_err(),
            ClaimsError::MonthLabel { index: 0, .. }
        ));
    }

    fn empty_dataset() -> ClaimsDataset {
        ClaimsDataset {
            start: YearMonth::paper_start(),
            months: vec![],
            n_diseases: 5,
            n_medicines: 10,
        }
    }

    #[test]
    fn append_month_grows_window_in_order() {
        let mut ds = empty_dataset();
        for t in 0..3 {
            ds.append_month(MonthlyDataset {
                month: Month(t),
                records: vec![sample_record()],
            })
            .unwrap();
        }
        assert_eq!(ds.horizon(), 3);
        assert!(ds.validate().is_ok());
    }

    #[test]
    fn append_month_rejects_wrong_label() {
        let mut ds = empty_dataset();
        let err = ds
            .append_month(MonthlyDataset {
                month: Month(2),
                records: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, ClaimsError::MonthLabel { index: 0, .. }));
        assert_eq!(
            ds.horizon(),
            0,
            "failed append must leave the window unchanged"
        );
    }

    #[test]
    fn append_month_rejects_out_of_range_ids() {
        let mut ds = empty_dataset();
        let mut bad = sample_record();
        bad.medicines.push(MedicineId(10));
        bad.truth_links.push(DiseaseId(0));
        let err = ds
            .append_month(MonthlyDataset {
                month: Month(0),
                records: vec![bad],
            })
            .unwrap_err();
        assert!(err.to_string().contains("medicine id 10 out of range"));
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(ds.horizon(), 0);
    }

    #[test]
    fn append_month_rejects_invalid_record() {
        let mut ds = empty_dataset();
        let mut bad = sample_record();
        bad.truth_links.pop();
        let err = ds
            .append_month(MonthlyDataset {
                month: Month(0),
                records: vec![bad],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ClaimsError::Record {
                month: 0,
                record: 0,
                ..
            }
        ));
    }
}
