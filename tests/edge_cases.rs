//! Edge-case and failure-injection tests across the pipeline: degenerate
//! inputs must produce sane results or clean errors, never panics or NaNs.

use prescription_trends::claims::{
    DiseaseId, HospitalId, MedicineId, MicRecord, Month, MonthlyDataset, PatientId,
};
use prescription_trends::linkmodel::{reproduce_panel, EmOptions, MedicationModel};
use prescription_trends::statespace::{
    fit_structural, search, FitOptions, SearchPlan, StructuralSpec,
};

fn record(diseases: Vec<(u32, u32)>, meds: Vec<u32>) -> MicRecord {
    let truth = if diseases.is_empty() {
        vec![]
    } else {
        vec![DiseaseId(diseases[0].0); meds.len()]
    };
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

#[test]
fn em_on_empty_month() {
    let month = MonthlyDataset {
        month: Month(0),
        records: vec![],
    };
    let model = MedicationModel::fit(&month, 3, 4, &EmOptions::default());
    // Uniform η, smoothed-uniform φ: everything finite and normalised.
    let eta_sum: f64 = (0..3).map(|d| model.eta(DiseaseId(d))).sum();
    assert!((eta_sum - 1.0).abs() < 1e-9);
    for d in 0..3 {
        let row: f64 = (0..4)
            .map(|m| model.phi_prob(DiseaseId(d), MedicineId(m)))
            .sum();
        assert!((row - 1.0).abs() < 1e-9);
    }
}

#[test]
fn em_on_month_without_prescriptions() {
    // Diagnoses but no medicines at all.
    let month = MonthlyDataset {
        month: Month(0),
        records: vec![
            record(vec![(0, 2), (1, 1)], vec![]),
            record(vec![(2, 1)], vec![]),
        ],
    };
    let model = MedicationModel::fit(&month, 3, 2, &EmOptions::default());
    assert!(model.log_likelihood == 0.0 || model.log_likelihood.is_finite());
    // η reflects the diagnoses.
    assert!(model.eta(DiseaseId(0)) > model.eta(DiseaseId(2)));
}

#[test]
fn em_with_identical_records_is_stable() {
    let month = MonthlyDataset {
        month: Month(0),
        records: vec![record(vec![(0, 1), (1, 1)], vec![0]); 50],
    };
    let model = MedicationModel::fit(&month, 2, 1, &EmOptions::default());
    // Perfectly symmetric data: responsibilities stay at the θ split.
    let q = model.responsibilities(&[(DiseaseId(0), 1), (DiseaseId(1), 1)], MedicineId(0));
    assert!((q[0].1 - 0.5).abs() < 1e-6, "q = {:?}", q);
}

#[test]
fn panel_with_months_that_are_empty() {
    // Months 0 and 2 have data; month 1 is empty (e.g. reporting gap).
    let months = vec![
        MonthlyDataset {
            month: Month(0),
            records: vec![record(vec![(0, 1)], vec![0])],
        },
        MonthlyDataset {
            month: Month(1),
            records: vec![],
        },
        MonthlyDataset {
            month: Month(2),
            records: vec![record(vec![(0, 1)], vec![0, 0])],
        },
    ];
    let panel = reproduce_panel(&months, 1, 1, &EmOptions::default());
    let series = panel
        .prescription_series(DiseaseId(0), MedicineId(0))
        .unwrap();
    assert_eq!(series, &[1.0, 0.0, 2.0]);
}

#[test]
fn structural_fit_on_constant_series() {
    let ys = vec![7.0; 30];
    let fit = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
    assert!(fit.aic.is_finite());
    let c = fit.decompose(&ys);
    for t in 0..30 {
        assert!(
            (c.level[t] - 7.0).abs() < 1e-3,
            "level[{t}] = {}",
            c.level[t]
        );
        assert!(c.irregular[t].abs() < 1e-3);
    }
    // Forecast continues the constant.
    let fc = fit.forecast(&ys, 5);
    for v in fc {
        assert!((v - 7.0).abs() < 1e-3);
    }
}

#[test]
fn structural_fit_on_all_zero_series() {
    // Sparse prescription pairs are zero for long stretches; an all-zero
    // window must not produce NaNs or spurious change points.
    let ys = vec![0.0; 43];
    let found = search(
        &ys,
        false,
        &FitOptions {
            max_evals: 120,
            n_starts: 1,
        },
        &SearchPlan::default(),
    );
    assert!(found.aic.is_finite());
    assert!(
        found.change_point.month().is_none(),
        "all-zero series has no change point: {:?}",
        found.change_point
    );
}

#[test]
fn structural_fit_survives_extreme_outlier() {
    let mut ys = vec![10.0; 40];
    ys[20] = 1e5;
    let fit = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
    assert!(fit.aic.is_finite());
    let c = fit.decompose(&ys);
    assert!(c.level.iter().all(|v| v.is_finite()));
}

#[test]
fn structural_fit_on_huge_scale_series() {
    // Scale invariance: counts in the millions must not overflow the
    // optimizer or the filter.
    let ys: Vec<f64> = (0..36).map(|t| 5e6 + 1e4 * (t as f64)).collect();
    let fit = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
    assert!(fit.aic.is_finite());
    assert!(fit.params.var_eps.is_finite());
}

#[test]
fn structural_fit_on_tiny_scale_series() {
    let ys: Vec<f64> = (0..36).map(|t| 1e-6 * (1.0 + (t % 12) as f64)).collect();
    let fit = fit_structural(&ys, StructuralSpec::local_level(), &FitOptions::default());
    assert!(fit.aic.is_finite());
}

#[test]
fn change_point_search_on_minimum_length_series() {
    // Shortest series the seasonal-free search accepts: skip 2 + 2 → n ≥ 5
    // plus candidate room.
    let ys = vec![1.0, 2.0, 1.5, 2.5, 1.0, 2.0, 3.0, 2.0];
    let found = search(
        &ys,
        false,
        &FitOptions {
            max_evals: 80,
            n_starts: 1,
        },
        &SearchPlan::default(),
    );
    assert!(found.aic.is_finite());
}
