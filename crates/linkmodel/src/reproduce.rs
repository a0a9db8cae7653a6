//! Time-series reproduction (paper Section IV-D).
//!
//! Applying the fitted medication model to each monthly dataset yields the
//! prescription tensor `X_P ∈ R^{D×M×T}` via the responsibilities (Eq. 7):
//! `x_dmt = Σ_r Σ_l q_rld · 1(m_rl = m)`, from which disease series
//! `x_dt = Σ_m x_dmt` and medicine series `x_mt = Σ_d x_dmt` follow (Eq. 8).
//!
//! Eq. 7's count is the expected count Eq. 5's M step sums, so the
//! [`EmWorkspace`] that fitted a month emits it once per (θ-signature,
//! medicine) cell under the final `Φ` ([`EmWorkspace::column`]) and the
//! panel merges that [`MonthColumn`]. `X_P` is extremely sparse (the paper
//! has ~207k non-trivial pairs out of 9,173 × 9,346 possible), so the panel
//! stores prescription series in an ordered map keyed by the pair and the
//! marginals densely.

use crate::model::{EmOptions, MedicationModel};
use crate::workspace::EmWorkspace;
use mic_claims::{DiseaseId, MedicineId, Month, MonthlyDataset};
use std::collections::{BTreeMap, HashMap};

/// Identifies one reproduced time series.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SeriesKey {
    Disease(DiseaseId),
    Medicine(MedicineId),
    Prescription(DiseaseId, MedicineId),
}

impl std::fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesKey::Disease(d) => write!(f, "disease/{d}"),
            SeriesKey::Medicine(m) => write!(f, "medicine/{m}"),
            SeriesKey::Prescription(d, m) => write!(f, "prescription/{d}/{m}"),
        }
    }
}

/// One month's reproduced prescription counts (Eq. 7): `x_dmt` for every
/// `(disease, medicine)` pair with positive mass, in ascending pair order.
#[derive(Clone, Debug)]
pub struct MonthColumn {
    pub month: Month,
    pub counts: Vec<(DiseaseId, MedicineId, f64)>,
}

/// The panel of a run of months labelled `0, 1, …`: each month fitted
/// independently through one workspace, whose column is merged in order.
pub fn reproduce_panel(
    months: &[MonthlyDataset],
    n_diseases: usize,
    n_medicines: usize,
    opts: &EmOptions,
) -> PrescriptionPanel {
    let mut ws = EmWorkspace::new();
    let mut panel = PrescriptionPanel::empty(n_diseases, n_medicines, 0);
    for month in months {
        MedicationModel::fit_with(month, n_diseases, n_medicines, opts, &mut ws);
        panel.extend_with(ws.column(opts.smoothing));
    }
    panel
}

/// Reproduced monthly time series for prescriptions, diseases, and
/// medicines.
#[derive(Clone, Debug)]
pub struct PrescriptionPanel {
    horizon: usize,
    prescriptions: BTreeMap<(u32, u32), Vec<f64>>,
    diseases: Vec<Vec<f64>>,
    medicines: Vec<Vec<f64>>,
}

impl PrescriptionPanel {
    /// An all-zero panel — handy for constructing reports in tests or for
    /// representing a window with no claims at all.
    pub fn empty(n_diseases: usize, n_medicines: usize, horizon: usize) -> PrescriptionPanel {
        PrescriptionPanel {
            horizon,
            prescriptions: BTreeMap::new(),
            diseases: vec![vec![0.0; horizon]; n_diseases],
            medicines: vec![vec![0.0; horizon]; n_medicines],
        }
    }

    /// Number of months `T`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Total number of series the panel holds (disease marginals, medicine
    /// marginals, and prescription pairs), i.e. the candidate population the
    /// Section VI series filter selects from.
    pub fn n_series(&self) -> usize {
        self.diseases.len() + self.medicines.len() + self.prescriptions.len()
    }

    /// The reproduced prescription series for `(d, m)`, if any mass was ever
    /// assigned to the pair.
    pub fn prescription_series(&self, d: DiseaseId, m: MedicineId) -> Option<&[f64]> {
        self.prescriptions.get(&(d.0, m.0)).map(|v| v.as_slice())
    }

    /// Disease marginal series `x_d·` (Eq. 8).
    pub fn disease_series(&self, d: DiseaseId) -> &[f64] {
        &self.diseases[d.index()]
    }

    /// Medicine marginal series `x_m·` (Eq. 8).
    pub fn medicine_series(&self, m: MedicineId) -> &[f64] {
        &self.medicines[m.index()]
    }

    /// Fetch any series by key (`None` only for absent prescription pairs).
    pub fn series(&self, key: SeriesKey) -> Option<&[f64]> {
        match key {
            SeriesKey::Disease(d) => Some(self.disease_series(d)),
            SeriesKey::Medicine(m) => Some(self.medicine_series(m)),
            SeriesKey::Prescription(d, m) => self.prescription_series(d, m),
        }
    }

    /// Iterate all prescription series, in ascending pair order.
    pub fn iter_prescriptions(&self) -> impl Iterator<Item = (DiseaseId, MedicineId, &[f64])> {
        self.prescriptions
            .iter()
            .map(|(&(d, m), v)| (DiseaseId(d), MedicineId(m), v.as_slice()))
    }

    /// Total prescription count per pair over the whole window
    /// (`x_dm = Σ_t x_dmt`, the ranking statistic of Section VIII-A2).
    pub fn pair_totals(&self) -> HashMap<(u32, u32), f64> {
        self.prescriptions
            .iter()
            .map(|(&k, v)| (k, v.iter().sum()))
            .collect()
    }

    /// Keys of every series whose total mass over the window is at least
    /// `min_total` — the paper's Section VI series filter (threshold 10).
    /// Sorted: diseases, then medicines, then pairs, each ascending.
    pub fn filtered_keys(&self, min_total: f64) -> Vec<SeriesKey> {
        let mut keys = Vec::new();
        for (d, series) in self.diseases.iter().enumerate() {
            if series.iter().sum::<f64>() >= min_total {
                keys.push(SeriesKey::Disease(DiseaseId(d as u32)));
            }
        }
        for (m, series) in self.medicines.iter().enumerate() {
            if series.iter().sum::<f64>() >= min_total {
                keys.push(SeriesKey::Medicine(MedicineId(m as u32)));
            }
        }
        for (&(d, m), series) in &self.prescriptions {
            if series.iter().sum::<f64>() >= min_total {
                keys.push(SeriesKey::Prescription(DiseaseId(d), MedicineId(m)));
            }
        }
        keys
    }

    /// Extend the panel by one month: grow every series by one point and
    /// merge the month's reproduced counts into the new column. The column
    /// must be the next month after the current horizon.
    ///
    /// This is the one way a panel grows: a batch run extends an empty
    /// panel month by month, exactly as an incremental session does. Only
    /// month `t`'s records ever touch column `t`.
    pub fn extend_with(&mut self, column: MonthColumn) {
        let t = column.month.index();
        assert_eq!(
            t, self.horizon,
            "month {t} is not the next month (horizon {})",
            self.horizon
        );
        self.horizon += 1;
        for series in self.diseases.iter_mut().chain(self.medicines.iter_mut()) {
            series.push(0.0);
        }
        for series in self.prescriptions.values_mut() {
            series.push(0.0);
        }
        for (d, m, x) in column.counts {
            self.prescriptions
                .entry((d.0, m.0))
                .or_insert_with(|| vec![0.0; t + 1])[t] += x;
            self.diseases[d.index()][t] += x;
            self.medicines[m.index()][t] += x;
        }
    }

    /// Top `n` diseases by total mass, descending — the "100 most frequent
    /// diseases" of the relevance evaluation.
    pub fn top_diseases(&self, n: usize) -> Vec<DiseaseId> {
        let mut totals: Vec<(usize, f64)> = self
            .diseases
            .iter()
            .enumerate()
            .map(|(d, s)| (d, s.iter().sum::<f64>()))
            .collect();
        totals.sort_by(|a, b| b.1.total_cmp(&a.1));
        totals
            .into_iter()
            .take(n)
            .map(|(d, _)| DiseaseId(d as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_claims::{HospitalId, MicRecord, Month, PatientId};

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

    fn month(t: u32, records: Vec<MicRecord>) -> MonthlyDataset {
        MonthlyDataset {
            month: Month(t),
            records,
        }
    }

    #[test]
    fn responsibilities_conserve_prescription_mass() {
        // Total panel mass per month must equal the number of prescriptions.
        let months = vec![
            month(
                0,
                vec![
                    record(vec![(0, 1), (1, 2)], vec![0, 1]),
                    record(vec![(1, 1)], vec![1]),
                ],
            ),
            month(1, vec![record(vec![(0, 2)], vec![0, 0, 1])]),
        ];
        let panel = reproduce_panel(&months, 2, 2, &EmOptions::default());
        let t0: f64 = (0..2).map(|d| panel.disease_series(DiseaseId(d))[0]).sum();
        assert!((t0 - 3.0).abs() < 1e-9, "month 0 mass = {t0}");
        let t1: f64 = (0..2).map(|d| panel.disease_series(DiseaseId(d))[1]).sum();
        assert!((t1 - 3.0).abs() < 1e-9, "month 1 mass = {t1}");
        // Medicine marginals conserve the same mass.
        let m0: f64 = (0..2)
            .map(|m| panel.medicine_series(MedicineId(m))[0])
            .sum();
        assert!((m0 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn marginals_match_pair_sums() {
        let months = vec![month(
            0,
            vec![
                record(vec![(0, 1), (1, 1)], vec![0, 1, 1]),
                record(vec![(0, 2)], vec![0]),
            ],
        )];
        let panel = reproduce_panel(&months, 2, 2, &EmOptions::default());
        for d in 0..2u32 {
            let marginal = panel.disease_series(DiseaseId(d))[0];
            let from_pairs: f64 = (0..2u32)
                .filter_map(|m| panel.prescription_series(DiseaseId(d), MedicineId(m)))
                .map(|s| s[0])
                .sum();
            assert!(
                (marginal - from_pairs).abs() < 1e-9,
                "d{d}: {marginal} vs {from_pairs}"
            );
        }
    }

    #[test]
    fn single_disease_records_attribute_fully() {
        let months = vec![month(0, vec![record(vec![(0, 1)], vec![0, 0])])];
        let panel = reproduce_panel(&months, 1, 1, &EmOptions::default());
        let series = panel
            .prescription_series(DiseaseId(0), MedicineId(0))
            .unwrap();
        assert!((series[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn filtered_keys_respect_threshold() {
        let months = vec![
            month(0, vec![record(vec![(0, 1)], vec![0; 12])]),
            month(1, vec![record(vec![(1, 1)], vec![1])]),
        ];
        let panel = reproduce_panel(&months, 2, 2, &EmOptions::default());
        let keys = panel.filtered_keys(10.0);
        assert!(keys.contains(&SeriesKey::Disease(DiseaseId(0))));
        assert!(keys.contains(&SeriesKey::Medicine(MedicineId(0))));
        assert!(keys.contains(&SeriesKey::Prescription(DiseaseId(0), MedicineId(0))));
        assert!(!keys.contains(&SeriesKey::Disease(DiseaseId(1))));
        assert!(!keys.contains(&SeriesKey::Prescription(DiseaseId(1), MedicineId(1))));
    }

    #[test]
    fn top_diseases_ordering() {
        let months = vec![month(
            0,
            vec![
                record(vec![(0, 1)], vec![0]),
                record(vec![(1, 1)], vec![0, 0, 0]),
            ],
        )];
        let panel = reproduce_panel(&months, 3, 1, &EmOptions::default());
        let top = panel.top_diseases(2);
        assert_eq!(top[0], DiseaseId(1));
        assert_eq!(top[1], DiseaseId(0));
    }

    #[test]
    #[should_panic(expected = "is not the next month")]
    fn extend_with_rejects_out_of_order_month() {
        reproduce_panel(&[month(1, vec![])], 1, 1, &EmOptions::default());
    }

    #[test]
    fn series_key_display() {
        assert_eq!(SeriesKey::Disease(DiseaseId(1)).to_string(), "disease/D1");
        assert_eq!(
            SeriesKey::Prescription(DiseaseId(1), MedicineId(2)).to_string(),
            "prescription/D1/M2"
        );
    }
}
