//! Golden-parity tests for the allocation-free [`EmWorkspace`] EM engine.
//!
//! - **The map.** `EmWorkspace::em_step`, stepped by hand from the same
//!   start, must reproduce the per-iteration `HashMap` implementation it
//!   replaced (kept here as [`RefModel`]) to within 1e-12 on every `Φ`
//!   entry and every step's log-likelihood, untracked and with the tracked
//!   fit's temporal prior.
//! - **Whole fits** match the reference, iteration counts included, while
//!   the SQUAREM driver is still plain EM (up to two map evaluations),
//!   including the prior mass the tracked fit carries for entities absent
//!   from the month.
//! - **Convergence.** The SQUAREM fit's final log-likelihood must come
//!   within 1e-6 relative of plain EM run to the same stop without a cap.
//! - **Eq. 7.** The workspace's per-cell column must match the per-event
//!   panel pass it replaced (kept here as [`ref_column`]).

use mic_claims::{
    DiseaseId, FrequencyFilter, MedicineId, Month, MonthlyDataset, Simulator, WorldSpec,
};
use mic_linkmodel::{EmOptions, EmWorkspace, MedicationModel, PrescriptionPanel};
use std::collections::{HashMap, HashSet};

const TOL: f64 = 1e-12;

/// One sparse `Φ` row of the reference: medicine → expected count, plus
/// the row total.
#[derive(Clone, Default)]
struct RefRow {
    counts: HashMap<u32, f64>,
    total: f64,
}

/// The reference EM: a fresh `HashMap` per `Φ` row on every iteration.
struct RefModel {
    n_medicines: usize,
    smoothing: f64,
    eta: Vec<f64>,
    phi: Vec<RefRow>,
    log_likelihood: f64,
    iterations: usize,
}

/// The reference's own copy of the EM convergence loop: run `step` (one
/// E+M iteration returning the pre-step log-likelihood) until the relative
/// improvement drops below `opts.tol` or `opts.max_iters` is reached.
fn converge(opts: &EmOptions, mut step: impl FnMut() -> f64) -> (f64, usize) {
    let mut ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut prev_ll = f64::NEG_INFINITY;
    for iter in 0..opts.max_iters {
        ll = step();
        iterations = iter + 1;
        if prev_ll.is_finite() && (ll - prev_ll).abs() / (prev_ll.abs() + 1e-12) < opts.tol {
            break;
        }
        prev_ll = ll;
    }
    (ll, iterations)
}

impl RefModel {
    /// Independent fit of one month.
    fn fit(
        month: &MonthlyDataset,
        n_diseases: usize,
        n_medicines: usize,
        opts: &EmOptions,
    ) -> RefModel {
        let mut model = RefModel::start(month, n_diseases, n_medicines, opts);
        let (ll, iterations) = converge(opts, || {
            let (new_phi, ll) = model.em_step(month, None);
            model.phi = new_phi;
            ll
        });
        if iterations > 0 {
            model.log_likelihood = ll;
            model.iterations = iterations;
        }
        model
    }

    /// The month's EM start: `η` and the cooccurrence `Φ`, no step taken.
    fn start(
        month: &MonthlyDataset,
        n_diseases: usize,
        n_medicines: usize,
        opts: &EmOptions,
    ) -> RefModel {
        // η from Eq. 4: normalised diagnosis counts.
        let df = month.disease_frequencies(n_diseases);
        let total_diag: u64 = df.iter().sum();
        let eta = if total_diag == 0 {
            vec![1.0 / n_diseases as f64; n_diseases]
        } else {
            df.iter().map(|&f| f as f64 / total_diag as f64).collect()
        };
        // Initialise Φ from within-record cooccurrence (Eq. 10 shape).
        let mut phi = vec![RefRow::default(); n_diseases];
        for r in &month.records {
            let n_r = r.total_diagnoses() as f64;
            if n_r == 0.0 {
                continue;
            }
            for &(d, n_rd) in &r.diseases {
                let w = n_rd as f64 / n_r;
                let row = &mut phi[d.index()];
                for &m in &r.medicines {
                    *row.counts.entry(m.0).or_insert(0.0) += w;
                    row.total += w;
                }
            }
        }
        RefModel {
            n_medicines,
            smoothing: opts.smoothing,
            eta,
            phi,
            log_likelihood: f64::NEG_INFINITY,
            iterations: 0,
        }
    }

    /// Tracked sequence: each month's independent fit, refined under the
    /// previous month's `Φ` as a prior of weight `continuity`.
    fn fit_tracked(
        months: &[MonthlyDataset],
        n_diseases: usize,
        n_medicines: usize,
        opts: &EmOptions,
        continuity: f64,
    ) -> Vec<RefModel> {
        let mut out: Vec<RefModel> = Vec::with_capacity(months.len());
        for month in months {
            let mut model = RefModel::fit(month, n_diseases, n_medicines, opts);
            if continuity > 0.0 {
                if let Some(prev) = out.last() {
                    let (ll, iterations) = converge(opts, || {
                        let (new_phi, ll) = model.em_step(month, Some((&prev.phi, continuity)));
                        model.phi = new_phi;
                        ll
                    });
                    if iterations > 0 {
                        model.log_likelihood = ll;
                        model.iterations = iterations;
                    }
                }
            }
            out.push(model);
        }
        out
    }

    /// One combined E+M step; returns the new `Φ` and the log-likelihood of
    /// the data under the current `Φ`. An optional `(previous Φ, weight)`
    /// prior contributes the previous month's expected counts as
    /// pseudo-counts to the M step.
    fn em_step(
        &self,
        month: &MonthlyDataset,
        prior: Option<(&[RefRow], f64)>,
    ) -> (Vec<RefRow>, f64) {
        let mut new_phi: Vec<RefRow> = match prior {
            Some((prev, weight)) => prev
                .iter()
                .map(|row| RefRow {
                    counts: row.counts.iter().map(|(&m, &c)| (m, c * weight)).collect(),
                    total: row.total * weight,
                })
                .collect(),
            None => vec![RefRow::default(); self.phi.len()],
        };
        let mut ll = 0.0;
        let mut q_buf: Vec<f64> = Vec::new();
        for r in &month.records {
            let n_r = r.total_diagnoses() as f64;
            if n_r == 0.0 {
                continue;
            }
            for &m in &r.medicines {
                // q_rld ∝ θ_rd · φ_dm over the diseases present in r (Eq. 6).
                q_buf.clear();
                let mut denom = 0.0;
                for &(d, n_rd) in &r.diseases {
                    let theta = n_rd as f64 / n_r;
                    let p = theta * self.phi_prob(d, m);
                    q_buf.push(p);
                    denom += p;
                }
                if denom <= 0.0 {
                    continue;
                }
                ll += denom.ln();
                for (&(d, _), &num) in r.diseases.iter().zip(q_buf.iter()) {
                    let q = num / denom;
                    if q > 0.0 {
                        let row = &mut new_phi[d.index()];
                        *row.counts.entry(m.0).or_insert(0.0) += q;
                        row.total += q;
                    }
                }
            }
        }
        (new_phi, ll)
    }

    /// Smoothed `φ_dm = (raw + s) / (total + s·M)`.
    fn phi_prob(&self, d: DiseaseId, m: MedicineId) -> f64 {
        let row = &self.phi[d.index()];
        let raw = row.counts.get(&m.0).copied().unwrap_or(0.0);
        (raw + self.smoothing) / (row.total + self.smoothing * self.n_medicines as f64)
    }

    fn eta(&self, d: DiseaseId) -> f64 {
        self.eta[d.index()]
    }

    /// Number of medicines with non-smoothing mass in row `d`.
    fn support(&self, d: DiseaseId) -> usize {
        self.phi[d.index()].counts.len()
    }
}

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

/// Compare a fitted model with the reference cell-by-cell: every smoothed
/// `φ_dm`, `η_d`, the training log-likelihood, and the iterations run.
fn assert_models_match(a: &MedicationModel, b: &RefModel, what: &str) {
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
    assert_eq!(a.n_diseases(), b.eta.len());
    assert_eq!(a.n_medicines(), b.n_medicines);
    for d in 0..a.n_diseases() as u32 {
        let d_id = DiseaseId(d);
        assert!((a.eta(d_id) - b.eta(d_id)).abs() <= TOL, "{what}: eta[{d}]");
        // phi_row returns only non-smoothing entries; compare the smoothed
        // probabilities over the full vocabulary so an entry present on one
        // side but not the other is caught too.
        for m in 0..a.n_medicines() as u32 {
            let pa = a.phi_prob(d_id, MedicineId(m));
            let pb = b.phi_prob(d_id, MedicineId(m));
            assert!(
                (pa - pb).abs() <= TOL,
                "{what}: phi[{d},{m}] = {pa} vs {pb}"
            );
        }
        assert_eq!(
            a.phi_row(d_id).len(),
            b.support(d_id),
            "{what}: sparse row {d} support differs"
        );
    }
}

/// Options under which the SQUAREM driver is still plain EM: two map
/// evaluations, no tolerance.
fn two_steps() -> EmOptions {
    EmOptions {
        max_iters: 2,
        tol: 0.0,
        ..EmOptions::default()
    }
}

/// Map steps compared per start.
const MAP_STEPS: usize = 40;

/// Diseases × medicines of `month`'s usable records: the pairs whose
/// counts `em_step` iterates.
fn vocabulary_pairs(month: &MonthlyDataset) -> usize {
    let usable = || {
        month
            .records
            .iter()
            .filter(|r| r.total_diagnoses() > 0 && !r.medicines.is_empty())
    };
    let diseases: HashSet<u32> = usable().flat_map(|r| &r.diseases).map(|d| d.0 .0).collect();
    let medicines: HashSet<u32> = usable().flat_map(|r| &r.medicines).map(|m| m.0).collect();
    diseases.len() * medicines.len()
}

/// Step the workspace's compiled map and the reference's side by side from
/// the same start, `MAP_STEPS` times, holding every step's log-likelihood
/// and every iterated `Φ` entry to `TOL`.
fn assert_map_matches(
    ws: &mut EmWorkspace,
    reference: &mut RefModel,
    month: &MonthlyDataset,
    prior: Option<(&[RefRow], f64)>,
    what: &str,
) {
    let smoothing = reference.smoothing;
    let (n_d, n_m) = (reference.phi.len() as u32, reference.n_medicines as u32);
    for step in 0..MAP_STEPS {
        let what = format!("{what}, step {step}");
        let ll = ws.em_step(smoothing);
        let (phi, want) = reference.em_step(month, prior);
        reference.phi = phi;
        assert!(
            (ll - want).abs() <= TOL * want.abs().max(1.0),
            "{what}: loglik {ll} vs {want}"
        );
        let mut pairs = 0;
        for d in (0..n_d).map(DiseaseId) {
            for m in (0..n_m).map(MedicineId) {
                if let Some(p) = ws.phi_prob(d, m, smoothing) {
                    let want = reference.phi_prob(d, m);
                    assert!(
                        (p - want).abs() <= TOL,
                        "{what}: phi[{d},{m}] = {p} vs {want}"
                    );
                    pairs += 1;
                }
            }
        }
        assert_eq!(pairs, vocabulary_pairs(month), "{what}: iterated pairs");
    }
}

/// The map, untracked, from each month's cooccurrence start; the tracked
/// map from two plain steps into each month, under the previous month's
/// two-step `Φ` as the prior.
fn assert_maps_match(months: &[MonthlyDataset], n_d: usize, n_m: usize, what: &str) {
    let opts = EmOptions::default();
    let mut ws = EmWorkspace::new();
    for (t, month) in months.iter().enumerate() {
        // One workspace across months: stale layout or buffers from month
        // t−1 must not leak into month t.
        ws.compile(month, n_d, n_m);
        let mut reference = RefModel::start(month, n_d, n_m, &opts);
        assert_map_matches(
            &mut ws,
            &mut reference,
            month,
            None,
            &format!("{what} month {t}"),
        );
    }
    let no_step = EmOptions {
        max_iters: 0,
        ..EmOptions::default()
    };
    for continuity in [0.3, 0.8] {
        for t in 1..months.len() {
            let what = format!("{what}, continuity={continuity} month {t}");
            let prev = MedicationModel::fit(&months[t - 1], n_d, n_m, &two_steps());
            let ref_prev = RefModel::fit(&months[t - 1], n_d, n_m, &two_steps());
            let mut model = MedicationModel::fit(&months[t], n_d, n_m, &two_steps());
            let mut reference = RefModel::fit(&months[t], n_d, n_m, &two_steps());
            // With no evaluation allowed, the refine pass only loads the
            // model's Φ and the prior into the workspace.
            model.refine_next(&months[t], &prev, continuity, &no_step, &mut ws);
            let prior = Some((&ref_prev.phi[..], continuity));
            assert_map_matches(&mut ws, &mut reference, &months[t], prior, &what);
        }
    }
}

#[test]
fn map_matches_reference_on_simulated_months() {
    let ds = Simulator::new(&spec(14).generate(), 31).run();
    assert_maps_match(&ds.months, ds.n_diseases, ds.n_medicines, "simulated");
}

#[test]
fn map_matches_reference_with_churning_vocabularies() {
    // Simulated launches and outbreaks make diseases and medicines appear
    // and disappear between consecutive months, so the prior carries mass
    // for entities absent from the month.
    let ds = Simulator::new(&spec(13).generate(), 13).run();
    assert_maps_match(&ds.months, ds.n_diseases, ds.n_medicines, "churning");
}

#[test]
fn map_matches_reference_on_duplicated_months() {
    assert_maps_match(&duplicated_months(), 6, 7, "duplicated");
}

/// The production chain, independent fits refined month by month, against
/// the reference chain.
fn assert_chains_match(months: &[MonthlyDataset], n_d: usize, n_m: usize, opts: &EmOptions) {
    for continuity in [0.0, 0.3, 0.8] {
        let golden = RefModel::fit_tracked(months, n_d, n_m, opts, continuity);
        let mut ws = EmWorkspace::new();
        let mut fitted: Vec<MedicationModel> = Vec::new();
        for month in months {
            let mut next = MedicationModel::fit_with(month, n_d, n_m, opts, &mut ws);
            if let Some(prev) = fitted.last() {
                next.refine_next(month, prev, continuity, opts, &mut ws);
            }
            fitted.push(next);
        }
        assert_eq!(golden.len(), fitted.len());
        for (t, (f, g)) in fitted.iter().zip(&golden).enumerate() {
            let what = format!(
                "max_iters={} continuity={continuity} month {t}",
                opts.max_iters
            );
            assert_models_match(f, g, &what);
        }
    }
}

#[test]
fn short_fits_match_reference_while_the_driver_is_plain_em() {
    let ds = Simulator::new(&spec(13).generate(), 13).run();
    for max_iters in [0, 1, 2] {
        let opts = EmOptions {
            max_iters,
            tol: 0.0,
            ..EmOptions::default()
        };
        assert_chains_match(&ds.months, ds.n_diseases, ds.n_medicines, &opts);
        assert_chains_match(&duplicated_months(), 6, 7, &opts);
    }
}

/// Relative log-likelihood shortfall allowed against uncapped plain EM.
const CONVERGED_REL: f64 = 1e-6;

/// Plain EM from the workspace's current state to the given tolerance,
/// with no cap: the log-likelihood it stops at.
fn plain_em(ws: &mut EmWorkspace, opts: &EmOptions) -> f64 {
    let uncapped = EmOptions {
        max_iters: usize::MAX,
        ..*opts
    };
    converge(&uncapped, || ws.em_step(opts.smoothing)).0
}

/// Every month's SQUAREM fit, independent and refined under a prior of
/// continuity 0.5, against plain EM from the same start to the same stop;
/// returns the worst relative shortfall.
fn worst_shortfall(months: &[MonthlyDataset], n_d: usize, n_m: usize) -> f64 {
    let opts = EmOptions::default();
    let no_step = EmOptions {
        max_iters: 0,
        ..opts
    };
    let mut ws = EmWorkspace::new();
    let mut worst = f64::NEG_INFINITY;
    let mut check = |fitted: &MedicationModel, plain: f64, what: String| {
        let shortfall = (plain - fitted.log_likelihood) / plain.abs().max(1.0);
        assert!(
            shortfall <= CONVERGED_REL,
            "{what}: SQUAREM stops at {} vs plain EM {plain} ({shortfall:.2e} relative)",
            fitted.log_likelihood
        );
        worst = worst.max(shortfall);
    };
    let mut chain: Vec<MedicationModel> = Vec::new();
    for (t, month) in months.iter().enumerate() {
        let mut model = MedicationModel::fit_with(month, n_d, n_m, &opts, &mut ws);
        ws.compile(month, n_d, n_m);
        check(&model, plain_em(&mut ws, &opts), format!("month {t}"));
        if let Some(prev) = chain.last() {
            let mut start = model.clone();
            start.refine_next(month, prev, 0.5, &no_step, &mut ws);
            let plain = plain_em(&mut ws, &opts);
            model.refine_next(month, prev, 0.5, &opts, &mut ws);
            check(&model, plain, format!("tracked month {t}"));
        }
        chain.push(model);
    }
    worst
}

#[test]
fn squarem_fit_reaches_uncapped_plain_em() {
    let ds = Simulator::new(&spec(14).generate(), 31).run();
    let worst = worst_shortfall(&ds.months, ds.n_diseases, ds.n_medicines);
    eprintln!("worst relative shortfall, simulated: {worst:.2e}");
    let worst = worst_shortfall(&duplicated_months(), 6, 7);
    eprintln!("worst relative shortfall, duplicated: {worst:.2e}");
}

#[test]
fn workspace_handles_degenerate_months() {
    // Months with no usable records (empty, diagnosis-free, or
    // prescription-free) must fit cleanly and match the reference.
    use mic_claims::{HospitalId, MicRecord, Month, PatientId};
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
        let golden = RefModel::fit(month, 4, 4, &opts);
        let fitted = MedicationModel::fit(month, 4, 4, &opts);
        assert_models_match(
            &fitted,
            &golden,
            &format!("degenerate month {}", month.month),
        );
    }
}

/// Months whose events collapse into few distinct `(θ-signature, medicine)`
/// cells: many identical records, equal `θ` from different diagnosis
/// counts, a medicine repeated within a record, and records without
/// diagnoses or without medicines.
fn duplicated_months() -> Vec<MonthlyDataset> {
    use mic_claims::{HospitalId, MicRecord, Month, PatientId};
    let record = |diseases: &[(u32, u32)], meds: &[u32]| MicRecord {
        patient: PatientId(0),
        hospital: HospitalId(0),
        diseases: diseases.iter().map(|&(d, n)| (DiseaseId(d), n)).collect(),
        medicines: meds.iter().map(|&m| MedicineId(m)).collect(),
        truth_links: meds
            .iter()
            .map(|_| DiseaseId(diseases.first().map_or(0, |&(d, _)| d)))
            .collect(),
    };
    (0..3u32)
        .map(|t| {
            let mut records = Vec::new();
            for i in 0..40 {
                records.push(record(&[(0, 1)], &[0, 0, 1]));
                records.push(record(&[(1, 1), (2, 1)], &[1, 2]));
                records.push(record(&[(1, 2), (2, 2)], &[2, (i + t) % 4]));
                records.push(record(&[(2, 2), (4, 2)], &[3, 3, 3, 1]));
                if i % 5 == 0 {
                    records.push(record(&[(3, 1), (0, 3)], &[4]));
                    records.push(record(&[], &[1, 2]));
                    records.push(record(&[(4, 1)], &[]));
                }
            }
            if t == 1 {
                // Medicine 5 and disease 5 appear in one month only.
                records.push(record(&[(5, 1), (1, 1)], &[5, 1]));
            }
            MonthlyDataset {
                month: Month(t),
                records,
            }
        })
        .collect()
}

/// One month of the reference panel: pair counts and both marginals.
struct RefColumn {
    pairs: HashMap<(u32, u32), f64>,
    diseases: Vec<f64>,
    medicines: Vec<f64>,
}

/// The Eq. 7 oracle: the per-event pass the panel used to run, one
/// `responsibilities` call per prescription event in record order.
fn ref_column(month: &MonthlyDataset, model: &MedicationModel) -> RefColumn {
    let mut out = RefColumn {
        pairs: HashMap::new(),
        diseases: vec![0.0; model.n_diseases()],
        medicines: vec![0.0; model.n_medicines()],
    };
    for r in &month.records {
        for &m in &r.medicines {
            for (d, q) in model.responsibilities(&r.diseases, m) {
                if q <= 0.0 {
                    continue;
                }
                *out.pairs.entry((d.0, m.0)).or_insert(0.0) += q;
                out.diseases[d.index()] += q;
                out.medicines[m.index()] += q;
            }
        }
    }
    out
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= TOL * a.abs().max(b.abs()),
        "{what}: {a} vs {b}"
    );
}

/// Reproduce `months` the way the session does — independent fit and
/// column per month, then the tracked refine and a recomputed column —
/// and hold every month's column to the per-event oracle.
fn assert_columns_match_oracle(months: &[MonthlyDataset], n_d: usize, n_m: usize, what: &str) {
    let opts = EmOptions::default();
    for continuity in [0.0, 0.5] {
        let mut ws = EmWorkspace::new();
        let mut panel = PrescriptionPanel::empty(n_d, n_m, 0);
        let mut models: Vec<MedicationModel> = Vec::new();
        for month in months {
            let mut model = MedicationModel::fit_with(month, n_d, n_m, &opts, &mut ws);
            let mut column = ws.column(opts.smoothing);
            if let Some(prev) = models.last() {
                model.refine_next(month, prev, continuity, &opts, &mut ws);
                if continuity > 0.0 {
                    column = ws.column(opts.smoothing);
                }
            }
            panel.extend_with(column);
            models.push(model);
        }
        for (t, (month, model)) in months.iter().zip(&models).enumerate() {
            let what = format!("{what}, continuity={continuity}, month {t}");
            let oracle = ref_column(month, model);
            let mut pairs = 0;
            for (d, m, series) in panel.iter_prescriptions() {
                let want = oracle.pairs.get(&(d.0, m.0)).copied().unwrap_or(0.0);
                assert_close(series[t], want, &format!("{what}: x[{d},{m}]"));
                pairs += usize::from(series[t] > 0.0);
            }
            assert_eq!(pairs, oracle.pairs.len(), "{what}: pairs with mass");
            for (d, &want) in oracle.diseases.iter().enumerate() {
                let got = panel.disease_series(DiseaseId(d as u32))[t];
                assert_close(got, want, &format!("{what}: x[{d},·]"));
            }
            for (m, &want) in oracle.medicines.iter().enumerate() {
                let got = panel.medicine_series(MedicineId(m as u32))[t];
                assert_close(got, want, &format!("{what}: x[·,{m}]"));
            }
        }
    }
}

#[test]
fn column_matches_per_event_oracle_on_simulated_months() {
    let world = spec(14).generate();
    let ds = Simulator::new(&world, 31).run();
    assert_columns_match_oracle(&ds.months, ds.n_diseases, ds.n_medicines, "simulated");
    let ds = Simulator::new(&spec(13).generate(), 13).run();
    assert_columns_match_oracle(&ds.months, ds.n_diseases, ds.n_medicines, "churning");
}

#[test]
fn column_matches_per_event_oracle_on_filtered_months() {
    let world = spec(13).generate();
    let ds = Simulator::new(&world, 17).run();
    let filter = FrequencyFilter {
        min_monthly_count: 8,
    };
    let filtered: Vec<MonthlyDataset> = ds
        .months
        .iter()
        .map(|m| filter.filter_month(m, ds.n_diseases, ds.n_medicines).0)
        .collect();
    let events = |months: &[MonthlyDataset]| -> usize {
        months
            .iter()
            .flat_map(|m| &m.records)
            .map(|r| r.medicines.len())
            .sum()
    };
    assert!(
        events(&filtered) < events(&ds.months),
        "the filter must drop prescriptions"
    );
    assert_columns_match_oracle(&filtered, ds.n_diseases, ds.n_medicines, "filtered");
}

#[test]
fn column_matches_per_event_oracle_on_degenerate_months() {
    // Duplicated months hold records without diagnoses and without
    // medicines; an empty month sits between two populated ones.
    let mut months = duplicated_months();
    months.insert(
        1,
        MonthlyDataset {
            month: Month(1),
            records: vec![],
        },
    );
    for (t, month) in months.iter_mut().enumerate() {
        month.month = Month(t as u32);
    }
    assert_columns_match_oracle(&months, 6, 7, "degenerate");
}
