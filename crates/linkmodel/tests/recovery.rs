//! Integration tests: the latent model must recover the planted ground
//! truth from simulated claims better than the baselines — the substance of
//! the paper's Q1 (accuracy) evaluation.

use mic_claims::{Simulator, WorldSpec};
use mic_linkmodel::eval::evaluate_prescription_relevance;
use mic_linkmodel::{
    perplexity, reproduce_panel, split_records, CooccurrenceModel, EmOptions, MedicationModel,
    SplitOptions, UnigramModel,
};

fn spec() -> WorldSpec {
    WorldSpec {
        n_diseases: 30,
        n_medicines: 40,
        n_patients: 500,
        n_hospitals: 8,
        n_cities: 3,
        months: 14,
        n_new_medicines: 1,
        n_generic_entries: 0,
        n_indication_expansions: 1,
        n_price_revisions: 1,
        n_outbreaks: 1,
        ..WorldSpec::default()
    }
}

#[test]
fn proposed_model_beats_baselines_on_perplexity() {
    let world = spec().generate();
    let ds = Simulator::new(&world, 21).run();
    let mut wins_vs_cooc = 0;
    let mut wins_vs_unigram = 0;
    let mut months = 0;
    for month in &ds.months {
        let (train, held) = split_records(month, &SplitOptions::default());
        if held.is_empty() {
            continue;
        }
        months += 1;
        let model =
            MedicationModel::fit(&train, ds.n_diseases, ds.n_medicines, &EmOptions::default());
        let cooc = CooccurrenceModel::fit(&train, ds.n_diseases, ds.n_medicines, 1e-3);
        let unigram = UnigramModel::fit(&train, ds.n_medicines, 1e-3);
        let p_model = perplexity(&model, month, &held);
        let p_cooc = perplexity(&cooc, month, &held);
        let p_unigram = perplexity(&unigram, month, &held);
        if p_model < p_cooc {
            wins_vs_cooc += 1;
        }
        if p_model < p_unigram {
            wins_vs_unigram += 1;
        }
    }
    assert!(months >= 10);
    // The paper reports the proposed model winning every month; allow one
    // upset on this small simulation.
    assert!(
        wins_vs_cooc >= months - 1,
        "beat cooccurrence only {wins_vs_cooc}/{months}"
    );
    assert!(
        wins_vs_unigram >= months - 1,
        "beat unigram only {wins_vs_unigram}/{months}"
    );
}

#[test]
fn proposed_model_ranking_beats_cooccurrence() {
    let world = spec().generate();
    let ds = Simulator::new(&world, 22).run();

    // Reproduce the panel with the proposed model.
    let panel = reproduce_panel(
        &ds.months,
        ds.n_diseases,
        ds.n_medicines,
        &EmOptions::default(),
    );
    // Cooccurrence "panel": total cooccurrence counts per pair.
    let mut cooc_totals: std::collections::HashMap<(u32, u32), f64> = Default::default();
    for month in &ds.months {
        for r in &month.records {
            let mut med_counts: std::collections::HashMap<u32, f64> = Default::default();
            for &m in &r.medicines {
                *med_counts.entry(m.0).or_insert(0.0) += 1.0;
            }
            for &(d, _) in &r.diseases {
                for (&m, &c) in &med_counts {
                    *cooc_totals.entry((d.0, m)).or_insert(0.0) += c;
                }
            }
        }
    }
    let top = panel.top_diseases(15);
    let relevant = |d: mic_claims::DiseaseId, m: mic_claims::MedicineId| world.relevant(d, m);

    let ours =
        evaluate_prescription_relevance(&panel.pair_totals(), &top, ds.n_medicines, 10, relevant);
    let cooc = evaluate_prescription_relevance(&cooc_totals, &top, ds.n_medicines, 10, relevant);
    let ours_ap = ours.ap_summary().mean;
    let cooc_ap = cooc.ap_summary().mean;
    let ours_ndcg = ours.ndcg_summary().mean;
    let cooc_ndcg = cooc.ndcg_summary().mean;
    assert!(
        ours_ap > cooc_ap,
        "AP@10: proposed {ours_ap:.3} should beat cooccurrence {cooc_ap:.3}"
    );
    assert!(
        ours_ndcg > cooc_ndcg,
        "NDCG@10: proposed {ours_ndcg:.3} should beat cooccurrence {cooc_ndcg:.3}"
    );
}

#[test]
fn reproduced_series_track_true_links() {
    // Correlate each reproduced prescription series against the truth-link
    // counts: the model's attribution should be strongly informative.
    let world = spec().generate();
    let ds = Simulator::new(&world, 23).run();
    let panel = reproduce_panel(
        &ds.months,
        ds.n_diseases,
        ds.n_medicines,
        &EmOptions::default(),
    );
    let mut truth: std::collections::HashMap<(u32, u32), Vec<f64>> = Default::default();
    for month in &ds.months {
        for r in &month.records {
            for (l, &m) in r.medicines.iter().enumerate() {
                let d = r.truth_links[l];
                truth
                    .entry((d.0, m.0))
                    .or_insert_with(|| vec![0.0; ds.horizon()])[month.month.index()] += 1.0;
            }
        }
    }

    // Overall attribution error: sum |x_dmt − truth| / total prescriptions.
    let mut err = 0.0;
    let mut total = 0.0;
    let mut seen: std::collections::HashSet<(u32, u32)> = Default::default();
    for (d, m, series) in panel.iter_prescriptions() {
        seen.insert((d.0, m.0));
        let zero = vec![0.0; ds.horizon()];
        let t = truth.get(&(d.0, m.0)).unwrap_or(&zero);
        for i in 0..ds.horizon() {
            err += (series[i] - t[i]).abs();
        }
    }
    for (&key, t) in &truth {
        total += t.iter().sum::<f64>();
        if !seen.contains(&key) {
            err += t.iter().sum::<f64>();
        }
    }
    let rel_err = err / total;
    assert!(
        rel_err < 0.8,
        "mean absolute attribution error {rel_err:.3} too high (0 = perfect, 2 = disjoint)"
    );
}
