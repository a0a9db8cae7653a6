//! Golden-parity tests: the allocation-free [`EmWorkspace`] EM engine must
//! reproduce the seed's per-iteration `HashMap` implementation (kept as
//! `fit_reference` / `fit_tracked_reference`) to within 1e-12 on `Φ`, the
//! log-likelihood, and the iteration count — including the tracked fit's
//! `continuity > 0` temporal-prior path, whose prior mass on entities
//! absent from the current month must carry over identically.

use mic_claims::{DiseaseId, MedicineId, Simulator, WorldSpec};
use mic_linkmodel::{EmOptions, EmWorkspace, MedicationModel};

const TOL: f64 = 1e-12;

fn spec(months: u32) -> WorldSpec {
    WorldSpec {
        n_diseases: 25,
        n_medicines: 35,
        n_patients: 300,
        n_hospitals: 6,
        n_cities: 2,
        months,
        n_new_medicines: 1,
        n_generic_entries: 1,
        n_indication_expansions: 1,
        n_price_revisions: 0,
        n_outbreaks: 1,
        ..WorldSpec::default()
    }
}

/// Compare two fitted models cell-by-cell: every smoothed `φ_dm`, `η_d`,
/// the training log-likelihood, and the iterations run.
fn assert_models_match(a: &MedicationModel, b: &MedicationModel, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iteration count");
    // Exact equality first: covers the max_iters=0 case where both sides are
    // −∞ and the difference would be NaN.
    assert!(
        a.log_likelihood == b.log_likelihood
            || (a.log_likelihood - b.log_likelihood).abs() <= TOL * a.log_likelihood.abs().max(1.0),
        "{what}: loglik {} vs {}",
        a.log_likelihood,
        b.log_likelihood
    );
    assert_eq!(a.n_diseases(), b.n_diseases());
    assert_eq!(a.n_medicines(), b.n_medicines());
    for d in 0..a.n_diseases() as u32 {
        let (da, db) = (DiseaseId(d), DiseaseId(d));
        assert!((a.eta(da) - b.eta(db)).abs() <= TOL, "{what}: eta[{d}]");
        // phi_row returns only non-smoothing entries; compare the smoothed
        // probabilities over the full vocabulary so an entry present on one
        // side but not the other is caught too.
        for m in 0..a.n_medicines() as u32 {
            let pa = a.phi_prob(da, MedicineId(m));
            let pb = b.phi_prob(db, MedicineId(m));
            assert!(
                (pa - pb).abs() <= TOL,
                "{what}: phi[{d},{m}] = {pa} vs {pb}"
            );
        }
        let mut ra = a.phi_row(da);
        let mut rb = b.phi_row(db);
        ra.sort_by_key(|&(m, _)| m.0);
        rb.sort_by_key(|&(m, _)| m.0);
        assert_eq!(ra.len(), rb.len(), "{what}: sparse row {d} support differs");
    }
}

#[test]
fn workspace_fit_matches_reference_on_simulated_months() {
    let world = spec(14).generate();
    let ds = Simulator::new(&world, 31).run();
    let opts = EmOptions::default();
    let mut ws = EmWorkspace::new();
    for (t, month) in ds.months.iter().enumerate() {
        let golden = MedicationModel::fit_reference(month, ds.n_diseases, ds.n_medicines, &opts);
        // Deliberately reuse one workspace across months: stale layout or
        // buffers from month t−1 must not leak into month t.
        let fitted =
            MedicationModel::fit_with(month, ds.n_diseases, ds.n_medicines, &opts, &mut ws);
        assert_models_match(&fitted, &golden, &format!("month {t}"));
    }
}

#[test]
fn workspace_fit_matches_reference_under_loose_and_tight_tolerances() {
    let world = spec(13).generate();
    let ds = Simulator::new(&world, 7).run();
    for (max_iters, tol) in [(1usize, 0.0), (5, 0.0), (100, 1e-9), (0, 0.0)] {
        let opts = EmOptions {
            max_iters,
            tol,
            ..EmOptions::default()
        };
        let golden =
            MedicationModel::fit_reference(&ds.months[1], ds.n_diseases, ds.n_medicines, &opts);
        let fitted = MedicationModel::fit(&ds.months[1], ds.n_diseases, ds.n_medicines, &opts);
        assert_models_match(
            &fitted,
            &golden,
            &format!("max_iters={max_iters} tol={tol}"),
        );
    }
}

#[test]
fn tracked_fit_matches_reference_with_temporal_prior() {
    // The prior path must agree including months where diseases/medicines
    // appear or disappear between consecutive months (simulated launches
    // and outbreaks churn both vocabularies).
    let world = spec(13).generate();
    let ds = Simulator::new(&world, 13).run();
    let opts = EmOptions::default();
    for continuity in [0.0, 0.3, 0.8] {
        let golden = MedicationModel::fit_tracked_reference(
            &ds.months,
            ds.n_diseases,
            ds.n_medicines,
            &opts,
            continuity,
        );
        // The production chain: independent fits refined month by month.
        let mut ws = EmWorkspace::new();
        let mut fitted: Vec<MedicationModel> = Vec::new();
        for month in &ds.months {
            let mut next =
                MedicationModel::fit_with(month, ds.n_diseases, ds.n_medicines, &opts, &mut ws);
            if let Some(prev) = fitted.last() {
                next.refine_next(month, prev, continuity, &opts, &mut ws);
            }
            fitted.push(next);
        }
        assert_eq!(golden.len(), fitted.len());
        for (t, (f, g)) in fitted.iter().zip(&golden).enumerate() {
            assert_models_match(f, g, &format!("continuity={continuity} month {t}"));
        }
    }
}

#[test]
fn workspace_handles_degenerate_months() {
    // Months with no usable records (empty, diagnosis-free, or
    // prescription-free) must fit cleanly and match the reference.
    use mic_claims::{HospitalId, MicRecord, Month, MonthlyDataset, PatientId};
    let months = [
        MonthlyDataset {
            month: Month(0),
            records: vec![],
        },
        MonthlyDataset {
            month: Month(1),
            records: vec![MicRecord {
                patient: PatientId(0),
                hospital: HospitalId(0),
                diseases: vec![(DiseaseId(2), 3)],
                medicines: vec![],
                truth_links: vec![],
            }],
        },
    ];
    let opts = EmOptions::default();
    for month in &months {
        let golden = MedicationModel::fit_reference(month, 4, 4, &opts);
        let fitted = MedicationModel::fit(month, 4, 4, &opts);
        assert_models_match(
            &fitted,
            &golden,
            &format!("degenerate month {}", month.month),
        );
    }
}
