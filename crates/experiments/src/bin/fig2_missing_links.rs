//! Figure 2 — the adverse effect of missing prescription links.
//!
//! Reproduces the paper's motivating example: for hypertension, the
//! cooccurrence approach predicts more prescriptions of a frequent but
//! inefficacious anti-inflammatory analgesic than of the actual depressor,
//! while the proposed latent model sends the analgesic's series to ≈ 0.

use mic_experiments::output::{emit_table, print_series, section};
use mic_experiments::{hypertension_world, reproduce, simulate};
use mic_linkmodel::CooccurrenceModel;
use mic_trend::report::TextTable;

fn main() {
    let scenario = hypertension_world(700);
    let ds = simulate(&scenario.world, 2);
    let t = ds.horizon();

    // Cooccurrence-based series (Fig. 2a).
    let cooc = |m| -> Vec<f64> {
        ds.months
            .iter()
            .map(|month| CooccurrenceModel::cooccurrence_count(month, scenario.hypertension, m))
            .collect()
    };
    let cooc_depressor = cooc(scenario.depressor);
    let cooc_analgesic = cooc(scenario.analgesic);
    // Proposed-model series (Fig. 2b).
    let panel = reproduce(&ds);
    let zero = vec![0.0; t];
    let ours_depressor = panel
        .prescription_series(scenario.hypertension, scenario.depressor)
        .unwrap_or(&zero);
    let ours_analgesic = panel
        .prescription_series(scenario.hypertension, scenario.analgesic)
        .unwrap_or(&zero);

    section("Fig. 2a — cooccurrence-based prediction for hypertension");
    print_series("depressor (efficacious)", &cooc_depressor);
    print_series("analgesic (inefficacious)", &cooc_analgesic);

    section("Fig. 2b — proposed-model prediction for hypertension");
    print_series("depressor (efficacious)", ours_depressor);
    print_series("analgesic (inefficacious)", ours_analgesic);

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let mut table = TextTable::new(vec!["method", "medicine", "mean monthly count"]);
    table
        .row(vec![
            "cooccurrence".into(),
            "depressor".into(),
            format!("{:.1}", mean(&cooc_depressor)),
        ])
        .row(vec![
            "cooccurrence".into(),
            "analgesic".into(),
            format!("{:.1}", mean(&cooc_analgesic)),
        ])
        .row(vec![
            "proposed".into(),
            "depressor".into(),
            format!("{:.1}", mean(ours_depressor)),
        ])
        .row(vec![
            "proposed".into(),
            "analgesic".into(),
            format!("{:.1}", mean(ours_analgesic)),
        ]);
    emit_table("fig2_missing_links", &table);

    // The paper's shape: cooccurrence ranks the analgesic above the
    // depressor; the proposed model reverses this and sends the analgesic
    // to (near) zero.
    let shape_holds = mean(&cooc_analgesic) > mean(&cooc_depressor)
        && mean(ours_analgesic) < 0.25 * mean(ours_depressor);
    println!(
        "shape check (cooccurrence fooled, proposed model not): {}",
        if shape_holds { "HOLDS" } else { "VIOLATED" }
    );
}
