//! Inter-hospital prescription gap analysis (paper Section VII-C,
//! Table II).
//!
//! Hospitals are grouped into small/medium/large classes by bed count; a
//! medication model is learned per class, and for a chosen medicine the
//! diseases it is prescribed for are ranked by share. The paper's headline
//! finding — small clinics prescribing antibiotics for viral cold syndrome
//! and influenza — falls out of the class-dependent misprescription channel
//! in the simulated world.

use mic_claims::{ClaimsDataset, DiseaseId, HospitalClass, MedicineId, World};
use mic_linkmodel::{EmOptions, PrescriptionPanel};
use std::collections::HashMap;

/// Reproduced panels per hospital class: each record goes to the class of
/// the hospital that created it.
pub fn class_panels(
    ds: &ClaimsDataset,
    world: &World,
    em: &EmOptions,
) -> HashMap<HospitalClass, PrescriptionPanel> {
    crate::group_panels(
        ds,
        HospitalClass::all(),
        |r| world.hospitals[r.hospital.index()].class(),
        em,
    )
}

/// One row of the Table II ranking: a disease and its share of the
/// medicine's prescriptions in a class.
#[derive(Clone, Debug)]
pub struct DiseaseShare {
    pub disease: DiseaseId,
    /// Percentage of the medicine's prescriptions attributed to the disease.
    pub ratio_pct: f64,
}

/// Top-`k` diseases for which `medicine` is prescribed in a class panel
/// (Table II's per-class columns), with shares in percent.
pub fn top_diseases_for_medicine(
    panel: &PrescriptionPanel,
    medicine: MedicineId,
    k: usize,
) -> Vec<DiseaseShare> {
    let mut rows: Vec<(DiseaseId, f64)> = panel
        .iter_prescriptions()
        .filter(|&(_, m, _)| m == medicine)
        .map(|(d, _, series)| (d, series.iter().sum::<f64>()))
        .collect();
    let total: f64 = rows.iter().map(|&(_, v)| v).sum();
    rows.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("NaN")
            .then_with(|| a.0.cmp(&b.0))
    });
    rows.into_iter()
        .take(k)
        .map(|(disease, v)| DiseaseShare {
            disease,
            ratio_pct: if total > 0.0 { 100.0 * v / total } else { 0.0 },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_claims::{
        DiseaseKind, MedicineClass, SeasonalProfile, Simulator, WorldBuilder, YearMonth,
    };

    /// Build a world with an explicit misprescription channel so the
    /// Table II effect is guaranteed, then check the per-class rankings.
    fn stewardship_world() -> (mic_claims::World, ClaimsDataset) {
        let mut b = WorldBuilder::new(YearMonth::paper_start(), 15);
        let cold = b.disease(
            "cold-syndrome",
            DiseaseKind::Viral,
            2.0,
            SeasonalProfile::Flat,
        );
        let bronchitis = b.disease(
            "acute-bronchitis",
            DiseaseKind::Bacterial,
            1.5,
            SeasonalProfile::Flat,
        );
        let sinusitis = b.disease(
            "chronic-sinusitis",
            DiseaseKind::Bacterial,
            1.0,
            SeasonalProfile::Flat,
        );
        let abx = b.medicine("antibiotic-x", MedicineClass::Antibiotic);
        let av = b.medicine("antiviral-y", MedicineClass::Antiviral);
        b.indication(bronchitis, abx, 2.0);
        b.indication(sinusitis, abx, 1.0);
        b.indication(cold, av, 1.5);
        b.misprescription(cold, abx, [2.0, 0.3, 0.02]);
        let city = b.city("c", 0, 0.5);
        let clinic = b.hospital("clinic", city, 8);
        let medium = b.hospital("general", city, 150);
        let large = b.hospital("university", city, 700);
        for i in 0..900 {
            let h = [clinic, medium, large][i % 3];
            b.patient(city, vec![(h, 1.0)], vec![], 0.8);
        }
        let world = b.build();
        let ds = Simulator::new(&world, 5).run();
        (world, ds)
    }

    #[test]
    fn class_panels_partition_records() {
        let (world, ds) = stewardship_world();
        let panels = class_panels(&ds, &world, &EmOptions::default());
        assert_eq!(panels.len(), 3);
        crate::tests::assert_panels_partition(&ds, &panels, |r| {
            world.hospitals[r.hospital.index()].class()
        });
    }

    #[test]
    fn small_clinics_show_viral_misprescription_in_ranking() {
        let (world, ds) = stewardship_world();
        let panels = class_panels(&ds, &world, &EmOptions::default());
        let abx = MedicineId(0);
        let cold = DiseaseId(0);
        let ranking_for =
            |class: HospitalClass| top_diseases_for_medicine(&panels[&class], abx, 10);
        let small = ranking_for(HospitalClass::Small);
        let large = ranking_for(HospitalClass::Large);
        let share = |rows: &[DiseaseShare], d: DiseaseId| {
            rows.iter()
                .find(|r| r.disease == d)
                .map_or(0.0, |r| r.ratio_pct)
        };
        let small_cold = share(&small, cold);
        let large_cold = share(&large, cold);
        assert!(
            small_cold > 20.0,
            "small clinics should prescribe the antibiotic for the cold a lot: {small_cold}%"
        );
        assert!(
            large_cold < small_cold / 3.0,
            "large hospitals should not: {large_cold}% vs {small_cold}%"
        );
        // Ratios are percentages of the medicine's total.
        let sum: f64 = small.iter().map(|r| r.ratio_pct).sum();
        assert!(sum <= 100.0 + 1e-9);
    }

    #[test]
    fn top_diseases_sorted_descending() {
        let (world, ds) = stewardship_world();
        let panels = class_panels(&ds, &world, &EmOptions::default());
        let rows = top_diseases_for_medicine(&panels[&HospitalClass::Small], MedicineId(0), 10);
        for w in rows.windows(2) {
            assert!(w[0].ratio_pct >= w[1].ratio_pct);
        }
    }
}
