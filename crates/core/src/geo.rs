//! Geographical prescription spread analysis (paper Section VII-B, Fig. 8).
//!
//! The dataset is split by the city of the hospital that created each
//! record; a medication model is learned per city, and the per-city
//! prescription counts of a medicine family (an original and its generics)
//! are compared at snapshot months around the generics' release.

use mic_claims::{CityId, ClaimsDataset, MedicineId, World};
use mic_linkmodel::{EmOptions, PrescriptionPanel};
use std::collections::HashMap;

/// Per-city reproduced panels: each record goes to the city of the
/// hospital that created it.
pub fn city_panels(
    ds: &ClaimsDataset,
    world: &World,
    em: &EmOptions,
) -> HashMap<CityId, PrescriptionPanel> {
    crate::group_panels(
        ds,
        world.cities.iter().map(|c| c.id),
        |r| world.hospitals[r.hospital.index()].city,
        em,
    )
}

/// One city's share snapshot for a medicine family at one month.
#[derive(Clone, Debug)]
pub struct CityShare {
    pub city: CityId,
    /// Monthly medicine-series value for the original.
    pub original: f64,
    /// Monthly values for each generic, in the order given.
    pub generics: Vec<f64>,
}

impl CityShare {
    /// Fraction of the family's prescriptions that are generic.
    pub fn generic_share(&self) -> f64 {
        let g: f64 = self.generics.iter().sum();
        let total = g + self.original;
        if total == 0.0 {
            0.0
        } else {
            g / total
        }
    }
}

/// Snapshot the original-vs-generics prescription counts per city at month
/// `t` — one row of Fig. 8.
pub fn spread_snapshot(
    panels: &HashMap<CityId, PrescriptionPanel>,
    original: MedicineId,
    generics: &[MedicineId],
    t: usize,
) -> Vec<CityShare> {
    let mut rows: Vec<CityShare> = panels
        .iter()
        .map(|(&city, panel)| CityShare {
            city,
            original: panel.medicine_series(original)[t],
            generics: generics
                .iter()
                .map(|&g| panel.medicine_series(g)[t])
                .collect(),
        })
        .collect();
    rows.sort_by_key(|r| r.city);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_claims::{Simulator, WorldSpec};

    fn world_with_generics() -> (mic_claims::World, ClaimsDataset) {
        let spec = WorldSpec {
            // Seed chosen so the planted generic entry lands mid-horizon:
            // late entries leave too few months for adoption to ramp, making
            // the share-growth assertion depend on the draw rather than the
            // mechanism under test.
            seed: 3,
            n_diseases: 10,
            n_medicines: 12,
            n_patients: 400,
            n_hospitals: 6,
            n_cities: 3,
            months: 24,
            n_new_medicines: 0,
            n_generic_entries: 1,
            n_indication_expansions: 0,
            n_price_revisions: 0,
            n_outbreaks: 0,
            n_prevalence_shifts: 0,
            ..WorldSpec::default()
        };
        let world = spec.generate();
        let ds = Simulator::new(&world, 77).run();
        (world, ds)
    }

    #[test]
    fn city_panels_partition_records() {
        let (world, ds) = world_with_generics();
        let panels = city_panels(&ds, &world, &EmOptions::default());
        assert_eq!(panels.len(), 3);
        // Every record landed in its hospital's city.
        crate::tests::assert_panels_partition(&ds, &panels, |r| {
            world.hospitals[r.hospital.index()].city
        });
    }

    #[test]
    fn generic_share_grows_after_entry() {
        let (world, ds) = world_with_generics();
        let (original, generics, entry) = world
            .events
            .iter()
            .find_map(|e| match e {
                mic_claims::MarketEvent::GenericEntry {
                    original,
                    generics,
                    month,
                } => Some((*original, generics.clone(), *month)),
                _ => None,
            })
            .expect("world has a generic entry");
        let panels = city_panels(&ds, &world, &EmOptions::default());
        let before = spread_snapshot(
            &panels,
            original,
            &generics,
            entry.index().saturating_sub(1),
        );
        let late_t = ds.horizon() - 1;
        let after = spread_snapshot(&panels, original, &generics, late_t);
        let share_before: f64 =
            before.iter().map(|r| r.generic_share()).sum::<f64>() / before.len() as f64;
        let share_after: f64 =
            after.iter().map(|r| r.generic_share()).sum::<f64>() / after.len() as f64;
        assert!(
            share_before < 0.05,
            "no generics before entry: {share_before}"
        );
        assert!(
            share_after > share_before + 0.1,
            "generic share should grow: {share_before} → {share_after}"
        );
    }

    #[test]
    fn city_share_math() {
        let s = CityShare {
            city: CityId(0),
            original: 6.0,
            generics: vec![2.0, 2.0],
        };
        assert!((s.generic_share() - 0.4).abs() < 1e-12);
        let zero = CityShare {
            city: CityId(1),
            original: 0.0,
            generics: vec![0.0],
        };
        assert_eq!(zero.generic_share(), 0.0);
    }
}
