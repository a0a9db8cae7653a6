//! Catalogue entities of a claims world: diseases, medicines, ground-truth
//! indications, market events, hospitals, and cities.

use crate::ids::{CityId, DiseaseId, HospitalId, MedicineId, Month};
use crate::seasonality::SeasonalProfile;

/// Broad disease kind, used to drive realistic prescribing biases. The
/// `Viral` kind powers the Table II antibiotic-stewardship analysis: viral
/// infections gain antibiotic prescriptions only through hospital-class
/// misprescription bias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiseaseKind {
    /// Long-running conditions (hypertension, diabetes): flat seasonality,
    /// high persistence across months for affected patients.
    Chronic,
    /// Short, self-limiting acute illness of bacterial origin.
    Bacterial,
    /// Short viral illness (colds, influenza) — antibiotics are *not*
    /// indicated.
    Viral,
    /// Allergic / environmental (hay fever, heatstroke).
    Environmental,
    /// Everything else.
    Other,
}

/// A disease in the world's catalogue.
#[derive(Clone, Debug)]
pub struct Disease {
    pub id: DiseaseId,
    pub name: String,
    pub kind: DiseaseKind,
    /// Baseline probability-weight of being diagnosed in a visit; the
    /// simulator normalises across the catalogue.
    pub base_prevalence: f64,
    pub seasonality: SeasonalProfile,
}

/// Therapeutic class of a medicine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MedicineClass {
    Antibiotic,
    Antiviral,
    Antihypertensive,
    Analgesic,
    Bronchodilator,
    Antiplatelet,
    Osteoporosis,
    Antidementia,
    Gastrointestinal,
    Other,
}

/// A medicine in the world's catalogue.
#[derive(Clone, Debug)]
pub struct Medicine {
    pub id: MedicineId,
    pub name: String,
    pub class: MedicineClass,
    /// Month the medicine became available; `None` = available from before
    /// the observation window (the common case).
    pub release_month: Option<Month>,
    /// Months over which prescribing of a newly released medicine ramps
    /// from zero to full propensity (market adoption; 0 = instant). Real
    /// launches spread gradually (the paper's Fig. 3b), which is also what
    /// makes them detectable as *slope* shifts.
    pub adoption_ramp_months: u32,
    /// If this is a generic, the original (brand) medicine it substitutes.
    pub generic_of: Option<MedicineId>,
    /// Authorized generics are identical to the original down to inactive
    /// ingredients (paper footnote 6) and are adopted faster.
    pub authorized_generic: bool,
    /// Unit price; price revisions scale prescribing propensity mildly.
    pub price: f64,
}

impl Medicine {
    /// Whether the medicine can be prescribed at dataset month `t`.
    pub fn available_at(&self, t: Month) -> bool {
        match self.release_month {
            None => true,
            Some(rel) => t >= rel,
        }
    }

    /// Market-adoption multiplier at month `t`: 0 before release, ramping
    /// linearly to 1 over `adoption_ramp_months` after it.
    pub fn adoption_at(&self, t: Month) -> f64 {
        match self.release_month {
            None => 1.0,
            Some(rel) => {
                if t < rel {
                    0.0
                } else if self.adoption_ramp_months == 0 {
                    1.0
                } else {
                    ((t.distance(rel) as f64 + 1.0) / self.adoption_ramp_months as f64).min(1.0)
                }
            }
        }
    }
}

/// Ground-truth prescription link: medicine `medicine` treats disease
/// `disease`. This is exactly what the paper's relevance judges reconstructed
/// from package inserts; our generator knows it natively.
#[derive(Clone, Debug)]
pub struct Indication {
    pub disease: DiseaseId,
    pub medicine: MedicineId,
    /// Relative prescribing propensity among the medicines indicated for the
    /// disease (higher = prescribed more often).
    pub strength: f64,
    /// When the indication became valid. `None` = from before the window;
    /// `Some(t)` models an indication-expansion announcement at `t`
    /// (Fig. 3c / Fig. 7a): prescriptions ramp up gradually from `t`.
    pub since: Option<Month>,
    /// Months over which an expanded indication ramps from 0 to full
    /// strength (the paper observes gradual increases, not steps).
    pub ramp_months: u32,
}

impl Indication {
    /// Effective prescribing strength at month `t` (0 before `since`,
    /// linearly ramping to `strength` over `ramp_months`).
    pub fn strength_at(&self, t: Month) -> f64 {
        match self.since {
            None => self.strength,
            Some(s) => {
                if t < s {
                    0.0
                } else if self.ramp_months == 0 {
                    self.strength
                } else {
                    let progress = (t.distance(s) as f64 + 1.0) / self.ramp_months as f64;
                    self.strength * progress.min(1.0)
                }
            }
        }
    }

    /// True if the link is ever valid (used as the relevance ground truth for
    /// the Table III ranking evaluation).
    pub fn ever_valid(&self) -> bool {
        self.strength > 0.0
    }
}

/// Market events that perturb prescribing over time. These are what the
/// state space model's intervention component is designed to find.
#[derive(Clone, Debug)]
pub enum MarketEvent {
    /// A brand-new medicine enters the market (Fig. 3b, Fig. 6c). The
    /// medicine's `release_month` encodes the date; this event additionally
    /// lets incumbent medicines for the same diseases lose share.
    NewMedicine {
        medicine: MedicineId,
        displaces: Vec<MedicineId>,
        share_shift: f64,
    },
    /// Generic copies of `original` enter; prescriptions shift from the
    /// original to the generics over an adoption ramp (Fig. 6d, Fig. 8).
    GenericEntry {
        original: MedicineId,
        generics: Vec<MedicineId>,
        month: Month,
    },
    /// A price revision at `month` scales the medicine's propensity by
    /// `factor` from then on (a discount, factor > 1, increases use).
    PriceRevision {
        medicine: MedicineId,
        month: Month,
        factor: f64,
    },
}

/// Hospital size class, by bed count (paper Section VII-C):
/// small = clinics `[0, 20)`, medium `[20, 400)`, large `[400, ∞)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HospitalClass {
    Small,
    Medium,
    Large,
}

impl HospitalClass {
    /// Classify from a bed count.
    pub fn from_beds(beds: u32) -> HospitalClass {
        match beds {
            0..=19 => HospitalClass::Small,
            20..=399 => HospitalClass::Medium,
            _ => HospitalClass::Large,
        }
    }

    /// All classes, in ascending size order.
    pub fn all() -> [HospitalClass; 3] {
        [
            HospitalClass::Small,
            HospitalClass::Medium,
            HospitalClass::Large,
        ]
    }
}

impl std::fmt::Display for HospitalClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HospitalClass::Small => write!(f, "small"),
            HospitalClass::Medium => write!(f, "medium"),
            HospitalClass::Large => write!(f, "large"),
        }
    }
}

/// A medical institution.
#[derive(Clone, Debug)]
pub struct Hospital {
    pub id: HospitalId,
    pub name: String,
    pub city: CityId,
    pub beds: u32,
}

impl Hospital {
    pub fn class(&self) -> HospitalClass {
        HospitalClass::from_beds(self.beds)
    }
}

/// A geographic unit (city) for the Fig. 8 spread analysis.
#[derive(Clone, Debug)]
pub struct City {
    pub id: CityId,
    pub name: String,
    /// Months after a generic entry before this city's hospitals start
    /// adopting it (0 = immediate). Drives the geographic spread pattern.
    pub generic_adoption_lag: u32,
    /// Long-run fraction of prescriptions that switch to generics in this
    /// city (some cities keep using the original — the paper's
    /// "northernmost area" finding).
    pub generic_acceptance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hospital_classes_match_paper_cutoffs() {
        assert_eq!(HospitalClass::from_beds(0), HospitalClass::Small);
        assert_eq!(HospitalClass::from_beds(19), HospitalClass::Small);
        assert_eq!(HospitalClass::from_beds(20), HospitalClass::Medium);
        assert_eq!(HospitalClass::from_beds(399), HospitalClass::Medium);
        assert_eq!(HospitalClass::from_beds(400), HospitalClass::Large);
        assert_eq!(HospitalClass::from_beds(2000), HospitalClass::Large);
    }

    #[test]
    fn medicine_availability() {
        let m = Medicine {
            id: MedicineId(0),
            name: "new-bronchodilator".into(),
            class: MedicineClass::Bronchodilator,
            release_month: Some(Month(8)),
            adoption_ramp_months: 0,
            generic_of: None,
            authorized_generic: false,
            price: 100.0,
        };
        assert!(!m.available_at(Month(7)));
        assert!(m.available_at(Month(8)));
        assert!(m.available_at(Month(42)));
        assert!(m.generic_of.is_none());
    }

    #[test]
    fn always_available_without_release() {
        let m = Medicine {
            id: MedicineId(1),
            name: "old".into(),
            class: MedicineClass::Other,
            release_month: None,
            adoption_ramp_months: 0,
            generic_of: Some(MedicineId(0)),
            authorized_generic: true,
            price: 50.0,
        };
        assert!(m.available_at(Month(0)));
        assert!(m.generic_of.is_some());
    }

    #[test]
    fn indication_ramp() {
        let ind = Indication {
            disease: DiseaseId(0),
            medicine: MedicineId(0),
            strength: 10.0,
            since: Some(Month(20)),
            ramp_months: 5,
        };
        assert_eq!(ind.strength_at(Month(19)), 0.0);
        assert_eq!(ind.strength_at(Month(20)), 2.0);
        assert_eq!(ind.strength_at(Month(22)), 6.0);
        assert_eq!(ind.strength_at(Month(24)), 10.0);
        assert_eq!(ind.strength_at(Month(40)), 10.0);
    }

    #[test]
    fn indication_step_when_no_ramp() {
        let ind = Indication {
            disease: DiseaseId(0),
            medicine: MedicineId(0),
            strength: 4.0,
            since: Some(Month(10)),
            ramp_months: 0,
        };
        assert_eq!(ind.strength_at(Month(9)), 0.0);
        assert_eq!(ind.strength_at(Month(10)), 4.0);
    }

    #[test]
    fn indication_always_on() {
        let ind = Indication {
            disease: DiseaseId(0),
            medicine: MedicineId(0),
            strength: 2.0,
            since: None,
            ramp_months: 0,
        };
        assert_eq!(ind.strength_at(Month(0)), 2.0);
        assert!(ind.ever_valid());
    }

    #[test]
    fn class_display() {
        assert_eq!(HospitalClass::Small.to_string(), "small");
        assert_eq!(HospitalClass::all().len(), 3);
    }
}
