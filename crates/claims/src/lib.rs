//! # mic-claims
//!
//! Medical Insurance Claim (MIC) data model and synthetic claims-world
//! simulator.
//!
//! The paper analyses 43 months of real claims for every 75+ resident of Mie
//! Prefecture — data we cannot obtain. This crate substitutes a configurable
//! **claims world**: catalogues of diseases (with seasonal profiles and
//! outbreak events), medicines (with release dates, generic lineages,
//! price revisions), ground-truth indication links (including indication
//! expansions), hospitals (with bed-count classes and cities), and a patient
//! panel with chronic conditions. A month-by-month [`simulate::Simulator`]
//! emits [`record::MicRecord`]s that — exactly like real MIC data — contain a
//! *bag of diseases* and a *bag of medicines* with **no prescription links**,
//! while the generating link is retained separately as hidden ground truth
//! for evaluation.
//!
//! Everything the paper's evaluation relies on is a generator feature:
//!
//! - seasonality & multi-peak profiles (Fig. 3a, Fig. 6a–b);
//! - outbreak outliers (influenza 2015 spike, Fig. 6a);
//! - new-medicine launches (Fig. 3b, Fig. 6c);
//! - generic entries with per-city adoption lags (Fig. 6d, Fig. 8);
//! - indication expansions (Fig. 3c, Fig. 7a);
//! - hospital-class prescribing bias (Table II);
//! - frequency filtering identical to the paper's Section VI.
//!
//! # Example: simulate claims
//!
//! ```
//! use mic_claims::{DatasetStats, Simulator, WorldSpec};
//!
//! let spec = WorldSpec { months: 14, n_patients: 100, n_diseases: 8,
//!                        n_medicines: 10, ..WorldSpec::default() };
//! let world = spec.generate();
//! let dataset = Simulator::new(&world, 7).run();
//! assert_eq!(dataset.horizon(), 14);
//! dataset.validate().unwrap();
//! let stats = DatasetStats::compute(&dataset);
//! assert!(stats.avg_diseases_per_record >= 1.0);
//! ```

pub mod catalog;
pub mod error;
pub mod filter;
pub mod ids;
pub mod record;
pub mod seasonality;
pub mod simulate;
pub mod stats;
pub mod store;
pub mod world;

pub use catalog::{
    City, Disease, DiseaseKind, Hospital, HospitalClass, Indication, MarketEvent, Medicine,
    MedicineClass,
};
pub use error::ClaimsError;
pub use filter::{FilteredVocabulary, FrequencyFilter};
pub use ids::{CityId, DiseaseId, HospitalId, MedicineId, Month, PatientId, YearMonth};
pub use record::{ClaimsDataset, MicRecord, MonthlyDataset};
pub use seasonality::{OutbreakEvent, SeasonalProfile};
pub use simulate::Simulator;
pub use stats::DatasetStats;
pub use world::{Patient, PrescribeContext, PrevalenceShift, World, WorldBuilder, WorldSpec};
