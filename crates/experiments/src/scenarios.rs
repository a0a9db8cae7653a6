//! Scenario worlds for the figures and the evaluation world for the tables.
//!
//! Figure scenarios are *hand-built* worlds that plant exactly the
//! phenomenon the figure illustrates (named after the paper's examples);
//! the evaluation world is a randomly-generated world at a scale a single
//! core handles in minutes.

use mic_claims::{
    ClaimsDataset, DiseaseId, DiseaseKind, MarketEvent, MedicineClass, MedicineId, Month,
    SeasonalProfile, Simulator, World, WorldBuilder, WorldSpec, YearMonth,
};
use mic_linkmodel::{reproduce_panel, EmOptions, PrescriptionPanel};

/// The paper's 43-month window starting March 2013.
pub const PAPER_MONTHS: u32 = 43;

fn add_population(b: &mut WorldBuilder, n_patients: usize, chronic: &[DiseaseId]) {
    let city = b.city("tsu", 0, 0.6);
    let clinic = b.hospital("clinic-a", city, 10);
    let general = b.hospital("general-b", city, 180);
    for i in 0..n_patients {
        let h = if i % 3 == 0 { general } else { clinic };
        // A third of patients carry each chronic condition (overlapping).
        let mut my_chronic = Vec::new();
        for (j, &c) in chronic.iter().enumerate() {
            if (i + j) % 3 != 0 {
                my_chronic.push(c);
            }
        }
        b.patient(city, vec![(h, 1.0)], my_chronic, 0.8);
    }
}

/// Fig. 2 world: hypertension (chronic, common) treated by a depressor;
/// comorbid arthritis treated by a very frequent anti-inflammatory
/// analgesic. The analgesic co-occurs with hypertension constantly, so the
/// cooccurrence baseline mis-attributes it; records with only one condition
/// let EM disentangle the links.
pub struct HypertensionScenario {
    pub world: World,
    pub hypertension: DiseaseId,
    pub arthritis: DiseaseId,
    pub depressor: MedicineId,
    pub analgesic: MedicineId,
}

pub fn hypertension_world(n_patients: usize) -> HypertensionScenario {
    let mut b = WorldBuilder::new(YearMonth::paper_start(), PAPER_MONTHS);
    let hypertension = b.disease(
        "hypertension",
        DiseaseKind::Chronic,
        1.0,
        SeasonalProfile::Flat,
    );
    // Arthritis is both a chronic condition and a recurring acute complaint
    // (flare-ups), so it racks up several diagnoses per record and its
    // analgesic is prescribed far more often than the depressor — the
    // frequency asymmetry that fools the cooccurrence baseline in Fig. 2a.
    let arthritis = b.disease("arthritis", DiseaseKind::Other, 3.0, SeasonalProfile::Flat);
    let depressor = b.medicine("depressor", MedicineClass::Antihypertensive);
    let analgesic = b.medicine("anti-inflammatory analgesic", MedicineClass::Analgesic);
    b.indication(hypertension, depressor, 1.0);
    b.indication(arthritis, analgesic, 3.0);
    b.rates(1.2, 2.0);
    add_population(&mut b, n_patients, &[hypertension, arthritis]);
    let world = b.build();
    HypertensionScenario {
        world,
        hypertension,
        arthritis,
        depressor,
        analgesic,
    }
}

/// Fig. 3a / Fig. 6a-b world: seasonal diseases (hay fever in spring,
/// heatstroke in summer, influenza in winter with a 2015 outbreak spike)
/// plus multi-peak diarrhea, each with its own medicine.
pub struct SeasonalScenario {
    pub world: World,
    pub hay_fever: DiseaseId,
    pub heatstroke: DiseaseId,
    pub influenza: DiseaseId,
    pub diarrhea: DiseaseId,
    pub antihistamine: MedicineId,
    pub rehydrator: MedicineId,
    pub antiviral: MedicineId,
    pub antidiarrheal: MedicineId,
    /// Month of the influenza outbreak spike (winter 2015).
    pub outbreak_month: Month,
}

pub fn seasonal_world(n_patients: usize) -> SeasonalScenario {
    let mut b = WorldBuilder::new(YearMonth::paper_start(), PAPER_MONTHS);
    let hay_fever = b.disease(
        "hay fever",
        DiseaseKind::Environmental,
        1.2,
        SeasonalProfile::Annual {
            peak_month0: 2,
            amplitude: 6.0,
            sharpness: 4.0,
        },
    );
    let heatstroke = b.disease(
        "heatstroke",
        DiseaseKind::Environmental,
        0.6,
        SeasonalProfile::Annual {
            peak_month0: 6,
            amplitude: 8.0,
            sharpness: 5.0,
        },
    );
    let influenza = b.disease(
        "influenza",
        DiseaseKind::Viral,
        0.8,
        SeasonalProfile::Annual {
            peak_month0: 0,
            amplitude: 9.0,
            sharpness: 4.5,
        },
    );
    let diarrhea = b.disease(
        "diarrhea",
        DiseaseKind::Other,
        0.8,
        SeasonalProfile::BiAnnual {
            peaks0: [3, 9],
            amplitude: 2.5,
            sharpness: 3.0,
        },
    );
    let antihistamine = b.medicine("antihistamine", MedicineClass::Other);
    let rehydrator = b.medicine("rehydration salts", MedicineClass::Other);
    let antiviral = b.medicine("anti-influenza", MedicineClass::Antiviral);
    let antidiarrheal = b.medicine("antidiarrheal", MedicineClass::Gastrointestinal);
    b.indication(hay_fever, antihistamine, 2.0);
    b.indication(heatstroke, rehydrator, 2.0);
    b.indication(influenza, antiviral, 2.0);
    b.indication(diarrhea, antidiarrheal, 2.0);
    // Winter 2015 influenza outbreak: January 2015 is month 22.
    let outbreak_month = Month(22);
    b.outbreak(influenza, outbreak_month, 2.5);
    b.rates(1.0, 1.5);
    add_population(&mut b, n_patients, &[]);
    let world = b.build();
    SeasonalScenario {
        world,
        hay_fever,
        heatstroke,
        influenza,
        diarrhea,
        antihistamine,
        rehydrator,
        antiviral,
        antidiarrheal,
        outbreak_month,
    }
}

/// Fig. 3b / Fig. 6c world: a new medicine (bronchodilator / osteoporosis
/// medicine) launches mid-window, is indicated for several diseases, and
/// displaces the incumbents.
pub struct NewMedicineScenario {
    pub world: World,
    pub targets: Vec<DiseaseId>,
    pub new_medicine: MedicineId,
    pub incumbents: Vec<MedicineId>,
    pub release: Month,
}

pub fn new_medicine_world(n_patients: usize) -> NewMedicineScenario {
    let mut b = WorldBuilder::new(YearMonth::paper_start(), PAPER_MONTHS);
    let osteoporosis = b.disease(
        "osteoporosis",
        DiseaseKind::Chronic,
        1.0,
        SeasonalProfile::Flat,
    );
    let fracture = b.disease(
        "vertebral fracture",
        DiseaseKind::Other,
        0.5,
        SeasonalProfile::Flat,
    );
    let back_pain = b.disease("back pain", DiseaseKind::Other, 0.7, SeasonalProfile::Flat);
    let incumbent_a = b.medicine("bisphosphonate-a", MedicineClass::Osteoporosis);
    let incumbent_b = b.medicine("bisphosphonate-b", MedicineClass::Osteoporosis);
    let painkiller = b.medicine("analgesic", MedicineClass::Analgesic);
    // Release in August 2013 = month 5 (the paper's Fig. 6c example). The
    // adoption ramp spans the remaining window: the paper's new-medicine
    // series keep growing to the window end, which is what makes a launch a
    // *slope* shift rather than a step.
    let release = Month(5);
    let new_med = b.new_medicine(
        "monthly-osteoporosis-drug",
        MedicineClass::Osteoporosis,
        release,
    );
    b.medicines_mut()[new_med.index()].adoption_ramp_months = PAPER_MONTHS - 5;
    b.indication(osteoporosis, incumbent_a, 2.0);
    b.indication(osteoporosis, incumbent_b, 1.5);
    b.indication(fracture, incumbent_a, 1.0);
    b.indication(fracture, painkiller, 1.5);
    b.indication(back_pain, painkiller, 2.0);
    b.indication(osteoporosis, new_med, 2.5);
    b.indication(fracture, new_med, 1.5);
    b.indication(back_pain, new_med, 1.0);
    b.event(MarketEvent::NewMedicine {
        medicine: new_med,
        displaces: vec![incumbent_a, incumbent_b],
        share_shift: 0.45,
    });
    b.rates(1.0, 0.8);
    add_population(&mut b, n_patients, &[osteoporosis]);
    let world = b.build();
    NewMedicineScenario {
        world,
        targets: vec![osteoporosis, fracture, back_pain],
        new_medicine: new_med,
        incumbents: vec![incumbent_a, incumbent_b],
        release,
    }
}

/// Fig. 3c / Fig. 7a world: an existing bronchodilator indicated for COPD
/// gains bronchial asthma as a new indication near the end of 2014
/// (month 21), ramping gradually.
pub struct IndicationScenario {
    pub world: World,
    pub copd: DiseaseId,
    pub asthma: DiseaseId,
    pub bronchodilator: MedicineId,
    pub expansion: Month,
}

pub fn indication_world(n_patients: usize) -> IndicationScenario {
    let mut b = WorldBuilder::new(YearMonth::paper_start(), PAPER_MONTHS);
    let copd = b.disease("COPD", DiseaseKind::Chronic, 1.0, SeasonalProfile::Flat);
    let asthma = b.disease(
        "bronchial asthma",
        DiseaseKind::Chronic,
        1.0,
        SeasonalProfile::Flat,
    );
    let bronchodilator = b.medicine("bronchodilator-lama", MedicineClass::Bronchodilator);
    let asthma_inhaler = b.medicine("asthma-ics", MedicineClass::Bronchodilator);
    b.indication(copd, bronchodilator, 2.0);
    b.indication(asthma, asthma_inhaler, 2.0);
    // New indication announced end of 2014: December 2014 = month 21.
    let expansion = Month(21);
    b.expanded_indication(asthma, bronchodilator, 1.8, expansion, 8);
    b.rates(1.0, 0.5);
    add_population(&mut b, n_patients, &[copd, asthma]);
    let world = b.build();
    IndicationScenario {
        world,
        copd,
        asthma,
        bronchodilator,
        expansion,
    }
}

/// Fig. 6d / Fig. 8 world: an anti-platelet original whose three generics
/// (one authorized) enter mid-window, across six cities with different
/// adoption lags and acceptance levels (the "northernmost" city barely
/// adopts).
pub struct GenericScenario {
    pub world: World,
    pub target: DiseaseId,
    pub original: MedicineId,
    pub generics: Vec<MedicineId>,
    pub authorized: MedicineId,
    pub entry: Month,
}

pub fn generic_world(n_patients: usize) -> GenericScenario {
    let mut b = WorldBuilder::new(YearMonth::paper_start(), PAPER_MONTHS);
    let thrombosis = b.disease(
        "cerebral infarction prophylaxis",
        DiseaseKind::Chronic,
        1.0,
        SeasonalProfile::Flat,
    );
    let original = b.medicine("anti-platelet original", MedicineClass::Antiplatelet);
    b.indication(thrombosis, original, 2.0);
    let entry = Month(18);
    let g1 = b.generic("generic-1", original, false);
    let g2 = b.generic("generic-2", original, false);
    let g3 = b.generic("generic-3 (authorized)", original, true);
    for &g in &[g1, g2, g3] {
        b.world_mut_release(g, entry);
        b.indication(thrombosis, g, 2.0);
    }
    b.event(MarketEvent::GenericEntry {
        original,
        generics: vec![g1, g2, g3],
        month: entry,
    });
    b.rates(1.1, 0.3);
    // Six cities with a spread of adoption behaviour; the last one is the
    // hold-out "northernmost" city.
    let lags = [0u32, 1, 2, 4, 6, 10];
    let acceptance = [0.85, 0.75, 0.7, 0.5, 0.4, 0.05];
    let mut hospitals = Vec::new();
    for i in 0..6 {
        let city = b.city(&format!("city-{i}"), lags[i], acceptance[i]);
        hospitals.push((city, b.hospital(&format!("hospital-{i}"), city, 60)));
    }
    for i in 0..n_patients {
        let (city, h) = hospitals[i % 6];
        b.patient(city, vec![(h, 1.0)], vec![thrombosis], 0.85);
    }
    let world = b.build();
    GenericScenario {
        world,
        target: thrombosis,
        original,
        generics: vec![g1, g2, g3],
        authorized: g3,
        entry,
    }
}

/// Table II world: respiratory diseases (bacterial and viral) with an
/// antibiotic that small clinics misprescribe for the viral ones, across
/// three hospital classes.
pub struct StewardshipScenario {
    pub world: World,
    pub antibiotic: MedicineId,
    pub viral: Vec<DiseaseId>,
    pub bacterial: Vec<DiseaseId>,
}

pub fn stewardship_world(n_patients: usize) -> StewardshipScenario {
    let mut b = WorldBuilder::new(YearMonth::paper_start(), 24);
    let names_bacterial = [
        "acute bronchitis",
        "bronchitis",
        "chronic sinusitis",
        "nontuberculous mycobacterial infection",
        "bronchiectasis",
        "pneumonia",
        "pharyngitis",
        "Helicobacter pylori infection",
    ];
    let names_viral = [
        "acute upper respiratory inflammation",
        "influenza",
        "common cold",
    ];
    let mut bacterial = Vec::new();
    for (i, name) in names_bacterial.iter().enumerate() {
        let prevalence = 1.2 / (i as f64 + 1.0).powf(0.5);
        bacterial.push(b.disease(
            name,
            DiseaseKind::Bacterial,
            prevalence,
            SeasonalProfile::Flat,
        ));
    }
    let mut viral = Vec::new();
    for name in names_viral {
        viral.push(b.disease(
            name,
            DiseaseKind::Viral,
            1.5,
            SeasonalProfile::Annual {
                peak_month0: 0,
                amplitude: 2.0,
                sharpness: 2.0,
            },
        ));
    }
    let antibiotic = b.medicine("macrolide antibiotic", MedicineClass::Antibiotic);
    let antiviral = b.medicine("antiviral", MedicineClass::Antiviral);
    let symptomatic = b.medicine("antipyretic", MedicineClass::Analgesic);
    for (i, &d) in bacterial.iter().enumerate() {
        b.indication(d, antibiotic, 2.0 / (i as f64 + 1.0).powf(0.3));
    }
    for &d in &viral {
        b.indication(d, antiviral, 1.0);
        b.indication(d, symptomatic, 1.5);
        // The stewardship problem: small clinics reach for the antibiotic.
        b.misprescription(d, antibiotic, [1.6, 0.25, 0.03]);
    }
    b.rates(1.0, 1.2);
    let city = b.city("mie", 0, 0.5);
    let small = b.hospital("clinic", city, 8);
    let medium = b.hospital("district general", city, 180);
    let large = b.hospital("university hospital", city, 800);
    for i in 0..n_patients {
        let h = [small, medium, large][i % 3];
        b.patient(city, vec![(h, 1.0)], vec![], 0.8);
    }
    let world = b.build();
    StewardshipScenario {
        world,
        antibiotic,
        viral,
        bacterial,
    }
}

/// The evaluation world for Tables III–VI: a randomly generated world with
/// every event type planted, sized for a single core.
pub fn evaluation_spec() -> WorldSpec {
    WorldSpec {
        seed: 20190419, // ICDE 2019 week
        months: PAPER_MONTHS,
        n_diseases: 60,
        n_medicines: 90,
        n_patients: 900,
        n_hospitals: 18,
        n_cities: 5,
        n_new_medicines: 8,
        n_generic_entries: 4,
        n_indication_expansions: 5,
        n_price_revisions: 5,
        n_outbreaks: 2,
        n_prevalence_shifts: 6,
        ..WorldSpec::default()
    }
}

/// Simulate a scenario world with a fixed seed.
pub fn simulate(world: &World, seed: u64) -> ClaimsDataset {
    Simulator::new(world, seed).run()
}

/// The reproduced panel of `ds`: independent default-option EM fits.
pub fn reproduce(ds: &ClaimsDataset) -> PrescriptionPanel {
    reproduce_panel(
        &ds.months,
        ds.n_diseases,
        ds.n_medicines,
        &EmOptions::default(),
    )
}

// Small extension trait impl: the generic scenario needs to set a release
// month on an already-created generic. Kept here to avoid widening the
// builder API for one call site.
trait BuilderExt {
    fn world_mut_release(&mut self, m: MedicineId, release: Month);
}

impl BuilderExt for WorldBuilder {
    fn world_mut_release(&mut self, m: MedicineId, release: Month) {
        self.medicines_mut()[m.index()].release_month = Some(release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_worlds_build_and_simulate() {
        let s = hypertension_world(120);
        assert!(s.world.relevant(s.hypertension, s.depressor));
        assert!(!s.world.relevant(s.hypertension, s.analgesic));
        let ds = simulate(&s.world, 1);
        assert!(ds.validate().is_ok());

        let s = seasonal_world(120);
        assert!(s.world.relevant(s.influenza, s.antiviral));
        assert!(simulate(&s.world, 1).validate().is_ok());

        let s = new_medicine_world(120);
        assert_eq!(
            s.world.medicines[s.new_medicine.index()].release_month,
            Some(s.release)
        );
        assert!(simulate(&s.world, 1).validate().is_ok());

        let s = indication_world(120);
        assert!(s.world.relevant(s.asthma, s.bronchodilator));
        assert!(simulate(&s.world, 1).validate().is_ok());

        let s = generic_world(120);
        assert_eq!(s.generics.len(), 3);
        assert!(s.world.medicines[s.authorized.index()].authorized_generic);
        assert!(simulate(&s.world, 1).validate().is_ok());

        let s = stewardship_world(120);
        assert!(!s.world.relevant(s.viral[0], s.antibiotic));
        assert!(s.world.relevant(s.bacterial[0], s.antibiotic));
        assert!(simulate(&s.world, 1).validate().is_ok());
    }

    #[test]
    fn evaluation_spec_generates() {
        let world = evaluation_spec().generate();
        assert_eq!(world.horizon, PAPER_MONTHS);
        assert!(world.medicines.len() >= 90);
    }
}
