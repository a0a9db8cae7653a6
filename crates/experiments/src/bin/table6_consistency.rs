//! Table VI — change-point consistency between the exact and approximate
//! algorithms: confusion matrices, false-negative rates, Cohen's κ, and the
//! RMSE between matched change points; plus the approximate algorithm's
//! fitting quality (the paper's closing check of Section VIII-C2).
//!
//! Expected shape: zero false positives (structural property of
//! Algorithm 2), single-digit-percent false negatives, κ ≈ 0.9+, and mean
//! AIC under the approximate search within ≈ 1 of the exact search's.

use mic_experiments::comparison::{build_evaluation_panel, compare_searches, SearchComparison};
use mic_experiments::output::{emit_table, section};
use mic_statespace::FitOptions;
use mic_stats::effect::Confusion2;
use mic_stats::Summary;
use mic_trend::report::TextTable;

fn confusion_and_rmse(results: &[SearchComparison]) -> (Confusion2, f64, f64, f64) {
    let mut c = Confusion2::default();
    let mut sq = Vec::new();
    let mut exact_aics = Vec::new();
    let mut approx_aics = Vec::new();
    for r in results {
        c.record(
            r.exact.change_point.is_some(),
            r.approx.change_point.is_some(),
        );
        if let (Some(e), Some(a)) = (r.exact.change_point.month(), r.approx.change_point.month()) {
            sq.push((e as f64 - a as f64) * (e as f64 - a as f64));
        }
        exact_aics.push(r.exact.aic);
        approx_aics.push(r.approx.aic);
    }
    let rmse = if sq.is_empty() {
        0.0
    } else {
        (sq.iter().sum::<f64>() / sq.len() as f64).sqrt()
    };
    (
        c,
        rmse,
        Summary::of(&exact_aics).mean,
        Summary::of(&approx_aics).mean,
    )
}

fn main() {
    println!("building evaluation panel (EM over 43 months)...");
    let eval = build_evaluation_panel(60);
    let fit = FitOptions {
        max_evals: 150,
        n_starts: 1,
    };

    let groups: Vec<(&str, Vec<mic_linkmodel::SeriesKey>)> = vec![
        ("disease", eval.diseases.clone()),
        ("medicine", eval.medicines.clone()),
        ("prescription", eval.prescriptions.clone()),
    ];

    let mut no_false_positives = true;
    let mut kappas = Vec::new();
    let mut pooled = Confusion2::default();
    for (name, keys) in &groups {
        println!(
            "searching {} {} series (exact + approximate)...",
            keys.len(),
            name
        );
        let results = compare_searches(&eval, keys, true, &fit);
        let (c, rmse, exact_aic, approx_aic) = confusion_and_rmse(&results);
        section(&format!("Table VI({name}) — change point consistency"));
        let mut table = TextTable::new(vec!["", "approx pos.", "approx neg."]);
        table
            .row(vec![
                "exact pos.".to_string(),
                c.tp.to_string(),
                c.fn_.to_string(),
            ])
            .row(vec![
                "exact neg.".to_string(),
                c.fp.to_string(),
                c.tn.to_string(),
            ]);
        emit_table(&format!("table6_{name}"), &table);
        println!(
            "false-negative rate: {:.3}%",
            100.0 * c.false_negative_rate()
        );
        println!(
            "false-positive rate: {:.3}%",
            100.0 * c.false_positive_rate()
        );
        println!("Cohen's kappa: {:.3}", c.kappa());
        println!("RMSE of matched change points: {rmse:.3} months");
        println!("mean AIC: exact {exact_aic:.3}, approximate {approx_aic:.3}");
        no_false_positives &= c.fp == 0;
        if !c.kappa().is_nan() {
            kappas.push(c.kappa());
        }
        pooled.tp += c.tp;
        pooled.fn_ += c.fn_;
        pooled.fp += c.fp;
        pooled.tn += c.tn;
    }

    println!();
    println!(
        "pooled over all {} series: κ = {:.3}, FN rate {:.1}%, FP rate {:.1}%",
        pooled.total(),
        pooled.kappa(),
        100.0 * pooled.false_negative_rate(),
        100.0 * pooled.false_positive_rate()
    );
    println!(
        "shape check (no false positives, structural property): {}",
        if no_false_positives {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    // Per-group κ is unstable with only a handful of positive series (the
    // paper pooled hundreds to tens of thousands); judge agreement on the
    // pooled table.
    println!(
        "shape check (strong agreement, pooled κ > 0.7): {}",
        if pooled.kappa() > 0.7 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
