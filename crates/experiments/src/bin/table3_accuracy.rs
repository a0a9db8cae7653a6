//! Table III — predictive performance (medicine perplexity) and
//! prescription relevance (AP@10, NDCG@10) of Unigram, Cooccurrence, and
//! the proposed medication model, with paired t-tests and Cohen's d.
//!
//! Expected shape: Unigram ≫ Cooccurrence > Proposed in perplexity, with
//! the proposed model winning every month; Proposed ≫ Cooccurrence in both
//! ranking measures.

use mic_experiments::output::{emit_table, section};
use mic_experiments::{evaluation_spec, reproduce, simulate};
use mic_linkmodel::eval::evaluate_prescription_relevance;
use mic_linkmodel::{
    perplexity, split_records, CooccurrenceModel, EmOptions, MedicationModel, SplitOptions,
    UnigramModel,
};
use mic_stats::{cohen_d_paired, paired_t_test, Summary};
use mic_trend::report::TextTable;
use std::collections::HashMap;

fn main() {
    let world = evaluation_spec().generate();
    let ds = simulate(&world, 13);
    let em = EmOptions::default();
    let smoothing = em.smoothing;

    // ---- Predictive performance: monthly 90/10 held-out perplexity ----
    section("Table III — perplexity per model (43 monthly datasets)");
    let mut ppl_unigram = Vec::new();
    let mut ppl_cooc = Vec::new();
    let mut ppl_proposed = Vec::new();
    let mut cooc_totals: HashMap<(u32, u32), f64> = HashMap::new();

    for month in &ds.months {
        let (train, held) = split_records(month, &SplitOptions::default());
        if !held.is_empty() {
            let unigram = UnigramModel::fit(&train, ds.n_medicines, smoothing);
            let cooc = CooccurrenceModel::fit(&train, ds.n_diseases, ds.n_medicines, smoothing);
            let proposed = MedicationModel::fit(&train, ds.n_diseases, ds.n_medicines, &em);
            ppl_unigram.push(perplexity(&unigram, month, &held));
            ppl_cooc.push(perplexity(&cooc, month, &held));
            ppl_proposed.push(perplexity(&proposed, month, &held));
        }
        for r in &month.records {
            let mut counts: HashMap<u32, f64> = HashMap::new();
            for &m in &r.medicines {
                *counts.entry(m.0).or_insert(0.0) += 1.0;
            }
            for &(d, n_rd) in &r.diseases {
                for (&m, &c) in &counts {
                    *cooc_totals.entry((d.0, m)).or_insert(0.0) += n_rd as f64 * c;
                }
            }
        }
    }

    // ---- Prescription relevance over the 100 most frequent diseases ----
    // The panel is trained on the full months, as in the paper.
    let panel = reproduce(&ds);
    let top = panel.top_diseases(100.min(ds.n_diseases));
    let relevant = |d, m| world.relevant(d, m);
    let ours =
        evaluate_prescription_relevance(&panel.pair_totals(), &top, ds.n_medicines, 10, relevant);
    let cooc_eval =
        evaluate_prescription_relevance(&cooc_totals, &top, ds.n_medicines, 10, relevant);

    // ---- Render the table ----
    let mut table = TextTable::new(vec!["model", "Perplexity", "AP@10", "NDCG@10"]);
    table
        .row(vec![
            "Unigram".to_string(),
            Summary::of(&ppl_unigram).to_string(),
            "-".into(),
            "-".into(),
        ])
        .row(vec![
            "Cooccurrence".to_string(),
            Summary::of(&ppl_cooc).to_string(),
            cooc_eval.ap_summary().to_string(),
            cooc_eval.ndcg_summary().to_string(),
        ])
        .row(vec![
            "Proposed".to_string(),
            Summary::of(&ppl_proposed).to_string(),
            ours.ap_summary().to_string(),
            ours.ndcg_summary().to_string(),
        ]);
    emit_table("table3_accuracy", &table);

    // ---- Significance tests ----
    section("Table III — significance");
    let t_ppl = paired_t_test(&ppl_proposed, &ppl_cooc);
    let d_ppl = cohen_d_paired(&ppl_proposed, &ppl_cooc);
    println!("perplexity, Proposed vs Cooccurrence: {t_ppl}, Cohen's d = {d_ppl:.3}");
    let t_ap = paired_t_test(&ours.ap_scores(), &cooc_eval.ap_scores());
    let d_ap = cohen_d_paired(&ours.ap_scores(), &cooc_eval.ap_scores());
    println!("AP@10, Proposed vs Cooccurrence: {t_ap}, Cohen's d = {d_ap:.3}");
    let t_ndcg = paired_t_test(&ours.ndcg_scores(), &cooc_eval.ndcg_scores());
    let d_ndcg = cohen_d_paired(&ours.ndcg_scores(), &cooc_eval.ndcg_scores());
    println!("NDCG@10, Proposed vs Cooccurrence: {t_ndcg}, Cohen's d = {d_ndcg:.3}");

    // Win counts (the paper: proposed beat cooccurrence every month).
    let wins = ppl_proposed
        .iter()
        .zip(&ppl_cooc)
        .filter(|(a, b)| a < b)
        .count();
    println!(
        "monthly perplexity wins (proposed < cooccurrence): {wins}/{}",
        ppl_proposed.len()
    );

    let shape = Summary::of(&ppl_unigram).mean > Summary::of(&ppl_cooc).mean
        && Summary::of(&ppl_cooc).mean > Summary::of(&ppl_proposed).mean
        && ours.ap_summary().mean > cooc_eval.ap_summary().mean
        && ours.ndcg_summary().mean > cooc_eval.ndcg_summary().mean
        && t_ppl.significant(0.05)
        && t_ap.significant(0.05);
    println!(
        "shape check (Unigram >> Cooccurrence > Proposed; Proposed wins rankings; significant): {}",
        if shape { "HOLDS" } else { "VIOLATED" }
    );
}
