//! # mic-linkmodel
//!
//! Prescription link prediction (paper Section IV).
//!
//! MIC records carry a bag of diseases and a bag of medicines but no link
//! saying which medicine treats which disease. This crate implements:
//!
//! - [`model`] — the paper's latent-variable medication model: physicians
//!   diagnose diseases (`η`), select medication targets proportionally to
//!   within-record diagnosis counts (`θ_r`, Eq. 2), and prescribe from
//!   disease-conditional medicine distributions (`φ_d`), estimated by EM
//!   (Eqs. 5–6) under a SQUAREM driver;
//! - [`baseline`] — the Unigram and Cooccurrence (Eq. 10) baselines of the
//!   Table III evaluation;
//! - [`predict`] — held-out splitting and the perplexity measure (Eq. 11);
//! - [`reproduce`] — monthly prescription/disease/medicine time-series
//!   reproduction (Eqs. 7–8) into a sparse [`PrescriptionPanel`] ([`reproduce_panel`]);
//! - [`eval`] — AP@10 / NDCG@10 prescription-relevance evaluation against
//!   the world's ground-truth indications;
//! - [`workspace`] — the allocation-free EM engine behind
//!   [`MedicationModel::fit`], one E step per distinct (θ-signature,
//!   medicine) cell, which also emits each month's Eq. 7 counts from those
//!   cells; `tests/workspace_parity.rs` holds the EM map and the counts to
//!   per-event reference implementations at 1e-12, and the SQUAREM fit to
//!   uncapped plain EM's log-likelihood at 1e-6.
//!
//! # Example: attribute prescriptions to diseases
//!
//! ```
//! use mic_claims::{DiseaseId, HospitalId, MedicineId, MicRecord, Month,
//!                  MonthlyDataset, PatientId};
//! use mic_linkmodel::{EmOptions, MedicationModel};
//!
//! // Two diseases that never co-occur pin their medicines down exactly.
//! let rec = |d: u32, meds: Vec<u32>| MicRecord {
//!     patient: PatientId(0),
//!     hospital: HospitalId(0),
//!     diseases: vec![(DiseaseId(d), 1)],
//!     medicines: meds.iter().map(|&m| MedicineId(m)).collect(),
//!     truth_links: meds.iter().map(|_| DiseaseId(d)).collect(),
//! };
//! let mut records = Vec::new();
//! for _ in 0..20 {
//!     records.push(rec(0, vec![0]));
//!     records.push(rec(1, vec![1]));
//! }
//! let month = MonthlyDataset { month: Month(0), records };
//! let model = MedicationModel::fit(&month, 2, 2, &EmOptions::default());
//! assert!(model.phi_prob(DiseaseId(0), MedicineId(0)) > 0.95);
//! ```

pub mod baseline;
pub mod eval;
pub mod model;
pub mod predict;
pub mod reproduce;
pub mod workspace;

pub use baseline::{CooccurrenceModel, UnigramModel};
pub use model::{EmOptions, MedicationModel};
pub use predict::{perplexity, split_records, MedicinePredictor, SplitOptions};
pub use reproduce::{reproduce_panel, MonthColumn, PrescriptionPanel, SeriesKey};
pub use workspace::EmWorkspace;
