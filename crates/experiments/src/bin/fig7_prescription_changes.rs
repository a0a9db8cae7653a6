//! Figure 7 — prescription-derived structural changes:
//! (a) a new indication (the paper's Lewy body dementia example): the pair
//!     series breaks while the medicine's *other* pairs stay stable, so the
//!     change is categorised as prescription-derived;
//! (b) a diagnostic shift: two diseases with the same symptom swap
//!     prevalence, producing opposite trends in their prescription series
//!     for the shared medicine.

use mic_claims::{DiseaseKind, MedicineClass, Month, SeasonalProfile, WorldBuilder, YearMonth};
use mic_experiments::output::{print_series, section};
use mic_experiments::{indication_world, reproduce, simulate, PAPER_MONTHS};
use mic_linkmodel::SeriesKey;
use mic_statespace::FitOptions;
use mic_trend::{classify_change, ChangeCause, PipelineConfig, Stage2Detect};

fn main() {
    let fit = FitOptions {
        max_evals: 200,
        n_starts: 1,
    };

    // (a) New indication.
    let s = indication_world(700);
    let ds = simulate(&s.world, 9);
    section("Fig. 7a — new indication (asthma for an existing bronchodilator, t=21)");
    let stage2 = Stage2Detect::from_config(&PipelineConfig {
        seasonal: false,
        approximate_search: false,
        fit,
        ..Default::default()
    });
    let panel = reproduce(&ds);
    let key = SeriesKey::Prescription(s.asthma, s.bronchodilator);
    let pair_series = panel.series(key).expect("pair series exists").to_vec();
    let copd_series = panel
        .series(SeriesKey::Prescription(s.copd, s.bronchodilator))
        .unwrap()
        .to_vec();
    print_series("asthma/bronchodilator", &pair_series);
    print_series("COPD/bronchodilator (sibling)", &copd_series);
    let report = stage2.analyze_series(key, &pair_series);
    println!(
        "pair change point: {} (true expansion at t={})",
        report.change_point,
        s.expansion.index()
    );
    let detection_ok = report
        .change_point
        .month()
        .is_some_and(|t| (t as i64 - s.expansion.index() as i64).abs() <= 4);
    println!(
        "detection check: {}",
        if detection_ok { "HOLDS" } else { "VIOLATED" }
    );

    // Cause categorisation with sibling support.
    let d_report =
        stage2.analyze_series(SeriesKey::Disease(s.asthma), panel.disease_series(s.asthma));
    let m_report = stage2.analyze_series(
        SeriesKey::Medicine(s.bronchodilator),
        panel.medicine_series(s.bronchodilator),
    );
    let sibling_report = stage2.analyze_series(
        SeriesKey::Prescription(s.copd, s.bronchodilator),
        &copd_series,
    );
    if let Some(t) = report.change_point.month() {
        let siblings =
            usize::from(sibling_report.change_point.month().is_some_and(|tt| {
                (tt as i64 - t as i64).abs() <= mic_trend::classify::MATCH_WINDOW
            }));
        let cause = classify_change(
            t,
            d_report.change_point.month(),
            m_report.change_point.month(),
            siblings,
        );
        println!("categorised cause: {cause}");
        println!(
            "cause check (prescription-derived): {}",
            if cause == ChangeCause::PrescriptionDerived {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        );
    }

    // (b) Diagnostic shift: oral feeding difficulty rises while dehydration
    // falls, both treated with the same infusion.
    section("Fig. 7b — diagnostic shift (opposite trends for similar symptoms)");
    let mut b = WorldBuilder::new(YearMonth::paper_start(), PAPER_MONTHS);
    let feeding = b.disease(
        "oral feeding difficulty",
        DiseaseKind::Other,
        0.4,
        SeasonalProfile::Flat,
    );
    let dehydration = b.disease(
        "dehydration",
        DiseaseKind::Other,
        1.2,
        SeasonalProfile::Flat,
    );
    let infusion = b.medicine("nutritional infusion", MedicineClass::Gastrointestinal);
    b.indication(feeding, infusion, 1.5);
    b.indication(dehydration, infusion, 1.5);
    // Diagnostic fashion changes at t=20: the same presentation is coded
    // as oral feeding difficulty more and as dehydration less.
    let shift = Month(20);
    b.prevalence_shift(feeding, shift, 4.0, 10);
    b.prevalence_shift(dehydration, shift, 0.35, 10);
    let city = b.city("c", 0, 0.5);
    let h = b.hospital("h", city, 120);
    for _ in 0..700 {
        b.patient(city, vec![(h, 1.0)], vec![], 0.8);
    }
    b.rates(1.0, 1.2);
    let world = b.build();
    let ds = simulate(&world, 10);
    let panel = reproduce(&ds);
    let zero = vec![0.0; ds.horizon()];
    let rising = panel
        .prescription_series(feeding, infusion)
        .unwrap_or(&zero)
        .to_vec();
    let falling = panel
        .prescription_series(dehydration, infusion)
        .unwrap_or(&zero)
        .to_vec();
    print_series("oral feeding difficulty", &rising);
    print_series("dehydration (related1)", &falling);

    let rise_report = stage2.analyze_series(SeriesKey::Prescription(feeding, infusion), &rising);
    println!(
        "rising pair change point: {} (lambda = {:+.2}, true shift at t={})",
        rise_report.change_point,
        rise_report.lambda,
        shift.index()
    );
    let mean =
        |xs: &[f64], r: std::ops::Range<usize>| xs[r.clone()].iter().sum::<f64>() / r.len() as f64;
    let r_delta = mean(&rising, 25..43) - mean(&rising, 0..18);
    let f_delta = mean(&falling, 25..43) - mean(&falling, 0..18);
    println!(
        "level change after the shift: feeding {r_delta:+.1}, dehydration {f_delta:+.1} → opposite trends: {}",
        if r_delta > 0.0 && f_delta < 0.0 { "HOLDS" } else { "VIOLATED" }
    );
}
