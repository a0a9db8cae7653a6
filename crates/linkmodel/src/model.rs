//! The latent-variable medication model (paper Section IV).
//!
//! Generative story per MIC record `r`:
//!
//! 1. diseases `d_rn ~ Multinomial(η)` (diagnosis);
//! 2. latent medication targets `z_rl ~ Multinomial(θ_r)` with
//!    `θ_rd = N_rd / N_r` (Eq. 2 — selection proportional to within-record
//!    diagnosis counts, and zero for diseases absent from the record);
//! 3. medicines `m_rl ~ Multinomial(φ_{z_rl})`.
//!
//! `η` has the closed form of Eq. 4. `Φ` is estimated by EM: the E step
//! computes responsibilities `q_rld ∝ θ_rd · φ_{d,m_rl}` (Eq. 6), the M step
//! re-estimates `φ_dm` from expected counts (Eq. 5); a SQUAREM driver
//! extrapolates along that fixed-point map to cut its evaluations. A small
//! additive (Dirichlet-MAP) smoothing keeps held-out probabilities finite,
//! applied identically to the baselines so the Table III comparison stays
//! fair.

use crate::workspace::EmWorkspace;
use mic_claims::{DiseaseId, MedicineId, MonthlyDataset};

/// EM hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct EmOptions {
    /// Maximum map evaluations (`em_step` calls) of one fit.
    pub max_iters: usize,
    /// Relative log-likelihood change between consecutive map evaluations
    /// below which EM stops.
    pub tol: f64,
    /// Additive smoothing pseudo-count per (disease, medicine) cell.
    pub smoothing: f64,
}

impl Default for EmOptions {
    fn default() -> Self {
        EmOptions {
            max_iters: 100,
            tol: 1e-7,
            smoothing: 1e-3,
        }
    }
}

/// `Φ` as sorted sparse rows over the global ids: row `d` is
/// `entries[off[d]..off[d + 1]]`, its `(medicine, expected count)` pairs in
/// ascending medicine order, with total `totals[d]`. The [`EmWorkspace`]
/// writes the rows once from its dense buffer and reads them back for the
/// tracked fit's refine pass.
#[derive(Clone, Debug)]
pub(crate) struct SparsePhi {
    pub(crate) off: Vec<usize>,
    pub(crate) entries: Vec<(u32, f64)>,
    pub(crate) totals: Vec<f64>,
}

impl SparsePhi {
    pub(crate) fn new() -> SparsePhi {
        SparsePhi {
            off: vec![0],
            entries: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Close the row being built in `entries` with its total.
    pub(crate) fn end_row(&mut self, total: f64) {
        self.off.push(self.entries.len());
        self.totals.push(total);
    }

    pub(crate) fn row(&self, d: usize) -> &[(u32, f64)] {
        &self.entries[self.off[d]..self.off[d + 1]]
    }
}

/// The fitted medication model for one monthly dataset.
#[derive(Clone, Debug)]
pub struct MedicationModel {
    n_diseases: usize,
    n_medicines: usize,
    smoothing: f64,
    /// Disease diagnosis distribution `η` (Eq. 4), dense.
    eta: Vec<f64>,
    /// `Φ`, one sorted sparse row per disease.
    phi: SparsePhi,
    /// Final training log-likelihood.
    pub log_likelihood: f64,
    /// EM map evaluations run, rejected SQUAREM extrapolations included.
    pub iterations: usize,
}

/// The single EM driver: SQUAREM (Varadhan & Roland 2008, scheme S3) over
/// the unchanged map `F` = [`EmWorkspace::em_step`]. A cycle anchors `θ₀`,
/// takes the two map steps `θ₁ = F(θ₀)` and `θ₂ = F(θ₁)`, extrapolates
/// (see [`EmWorkspace::extrapolate`]) and takes one stabilising step from
/// the extrapolated `θ′`. That step returns `L(θ′)`: when `L(θ′)` is below
/// `L(θ₁)` or not finite, the cycle falls back to `θ₂` (counted in
/// `em.squarem_fallbacks`) and the step counts as spent.
///
/// Stopping is plain EM's: stop when the relative change between the
/// log-likelihoods of two consecutive map evaluations on the accepted path
/// drops below `opts.tol`, or after `opts.max_iters` map evaluations, a run
/// counted in `em.capped`. Up to two evaluations this is plain EM. Returns
/// the log-likelihood of the last accepted map input and the evaluations
/// run. Both the independent fit and the tracked refine pass go through it.
pub(crate) fn drive_em(opts: &EmOptions, ws: &mut EmWorkspace) -> (f64, usize) {
    let mut run = Run {
        opts,
        evals: 0,
        ll: f64::NEG_INFINITY,
    };
    let converged = loop {
        ws.anchor();
        if let Some(converged) = run.step(ws).or_else(|| run.step(ws)) {
            break converged;
        }
        if run.spent() {
            break false;
        }
        if !ws.extrapolate() {
            // α = −1: `θ′` is `θ₂`, and the next cycle's first step is the
            // stabilising one.
            continue;
        }
        let ll = run.eval(ws);
        if ll.is_finite() && ll >= run.ll {
            if run.accept(ll) {
                break true;
            }
        } else {
            mic_obs::counter("em.squarem_fallbacks", 1);
            ws.restore_squared();
        }
    };
    if !converged {
        mic_obs::counter("em.capped", 1);
    }
    (run.ll, run.evals)
}

/// The stopping rule's state along a driver run.
struct Run<'a> {
    opts: &'a EmOptions,
    /// Map evaluations so far, rejected ones included.
    evals: usize,
    /// Log-likelihood of the last accepted map input.
    ll: f64,
}

impl Run<'_> {
    fn spent(&self) -> bool {
        self.evals >= self.opts.max_iters
    }

    /// One map evaluation; returns the log-likelihood of its input.
    fn eval(&mut self, ws: &mut EmWorkspace) -> f64 {
        self.evals += 1;
        ws.em_step(self.opts.smoothing)
    }

    /// One plain map step on the accepted path: `Some(true)` once EM has
    /// converged, `Some(false)` when no evaluation is left, `None` to go on.
    fn step(&mut self, ws: &mut EmWorkspace) -> Option<bool> {
        if self.spent() {
            return Some(false);
        }
        let ll = self.eval(ws);
        self.accept(ll).then_some(true)
    }

    /// Accept a map input of log-likelihood `ll`; true when its relative
    /// change from the previous accepted one is below `tol`.
    fn accept(&mut self, ll: f64) -> bool {
        let prev = std::mem::replace(&mut self.ll, ll);
        if !prev.is_finite() {
            return false;
        }
        mic_obs::value("em.loglik_delta", ll - prev);
        (ll - prev).abs() / (prev.abs() + 1e-12) < self.opts.tol
    }
}

impl MedicationModel {
    /// `η` from Eq. 4: normalised diagnosis counts.
    fn compute_eta(month: &MonthlyDataset, n_diseases: usize) -> Vec<f64> {
        let df = month.disease_frequencies(n_diseases);
        let total_diag: u64 = df.iter().sum();
        if total_diag == 0 {
            vec![1.0 / n_diseases as f64; n_diseases]
        } else {
            df.iter().map(|&f| f as f64 / total_diag as f64).collect()
        }
    }

    /// Fit the model to one monthly dataset with EM.
    ///
    /// Allocates a fresh [`EmWorkspace`]; callers fitting many months (the
    /// pipeline's Stage 1, the tracked sequence) should hold one workspace
    /// per worker and use [`MedicationModel::fit_with`] instead.
    pub fn fit(
        month: &MonthlyDataset,
        n_diseases: usize,
        n_medicines: usize,
        opts: &EmOptions,
    ) -> MedicationModel {
        MedicationModel::fit_with(
            month,
            n_diseases,
            n_medicines,
            opts,
            &mut EmWorkspace::new(),
        )
    }

    /// [`MedicationModel::fit`] through a caller-owned [`EmWorkspace`]: the
    /// month is compiled once into the workspace's distinct (θ-signature,
    /// medicine) cells and every EM iteration is allocation-free
    /// dense-array arithmetic over them. Reusing the
    /// workspace across months amortises even the compile-time buffers.
    pub fn fit_with(
        month: &MonthlyDataset,
        n_diseases: usize,
        n_medicines: usize,
        opts: &EmOptions,
        ws: &mut EmWorkspace,
    ) -> MedicationModel {
        assert!(n_diseases > 0 && n_medicines > 0, "empty vocabulary");
        let _fit_span = mic_obs::span("em.fit");
        mic_obs::counter("em.fits", 1);
        let eta = Self::compute_eta(month, n_diseases);
        ws.compile(month, n_diseases, n_medicines);
        let (ll, iterations) = drive_em(opts, ws);
        MedicationModel {
            n_diseases,
            n_medicines,
            smoothing: opts.smoothing,
            eta,
            phi: ws.export_phi(None),
            log_likelihood: ll,
            iterations,
        }
    }

    /// Temporal-prior refinement of an independently fitted model — the
    /// *tracked* fit, the Topic-Tracking-Model-style evolution the paper's
    /// discussion proposes as an extension: resume EM from this model's `Φ`
    /// with `prev`'s `Φ` as a pseudo-count prior of weight `continuity`. A
    /// no-op when `continuity` is zero. Chaining `fit_with` + `refine_next`
    /// month by month yields the tracked sequence; the independent fits can
    /// run in parallel, the refinement must see month `t−1`'s refined `Φ`.
    pub fn refine_next(
        &mut self,
        month: &MonthlyDataset,
        prev: &MedicationModel,
        continuity: f64,
        opts: &EmOptions,
        ws: &mut EmWorkspace,
    ) {
        assert!(
            (0.0..1.0).contains(&continuity),
            "continuity must be in [0, 1)"
        );
        if continuity == 0.0 {
            return;
        }
        ws.compile(month, self.n_diseases, self.n_medicines);
        ws.import_phi(&self.phi);
        ws.set_prior(&prev.phi, continuity);
        let (ll, iterations) = drive_em(opts, ws);
        if iterations > 0 {
            self.phi = ws.export_phi(Some((&prev.phi, continuity)));
            self.log_likelihood = ll;
            self.iterations = iterations;
        }
    }

    /// `φ_dm` of expected count `count` in row `d`:
    /// `(count + s) / (total + s·M)`.
    fn smoothed(&self, d: usize, count: f64) -> f64 {
        (count + self.smoothing) / (self.phi.totals[d] + self.smoothing * self.n_medicines as f64)
    }

    /// Smoothed `φ_dm`.
    #[inline]
    pub fn phi_prob(&self, d: DiseaseId, m: MedicineId) -> f64 {
        let row = self.phi.row(d.index());
        let count = row
            .binary_search_by_key(&m.0, |e| e.0)
            .map_or(0.0, |i| row[i].1);
        self.smoothed(d.index(), count)
    }

    /// `η_d` (Eq. 4).
    #[inline]
    pub fn eta(&self, d: DiseaseId) -> f64 {
        self.eta[d.index()]
    }

    /// Mixture probability of medicine `m` being prescribed in a record with
    /// the given disease bag: `P(m | r) = Σ_d θ_rd · φ_dm`. This is the
    /// quantity the perplexity evaluation scores.
    pub fn record_medicine_prob(&self, diseases: &[(DiseaseId, u32)], m: MedicineId) -> f64 {
        let n_r: u32 = diseases.iter().map(|&(_, n)| n).sum();
        if n_r == 0 {
            return 0.0;
        }
        let n_r = n_r as f64;
        diseases
            .iter()
            .map(|&(d, n_rd)| (n_rd as f64 / n_r) * self.phi_prob(d, m))
            .sum()
    }

    /// Responsibilities `q_rld` for one prescription: the probability that
    /// each disease in the bag caused medicine `m` (Eq. 6). Returns
    /// `(disease, q)` pairs summing to 1 (or an empty vec for an empty bag).
    pub fn responsibilities(
        &self,
        diseases: &[(DiseaseId, u32)],
        m: MedicineId,
    ) -> Vec<(DiseaseId, f64)> {
        let n_r: u32 = diseases.iter().map(|&(_, n)| n).sum();
        if n_r == 0 {
            return Vec::new();
        }
        let n_r = n_r as f64;
        let mut out: Vec<(DiseaseId, f64)> = diseases
            .iter()
            .map(|&(d, n_rd)| (d, (n_rd as f64 / n_r) * self.phi_prob(d, m)))
            .collect();
        let denom: f64 = out.iter().map(|&(_, p)| p).sum();
        if denom > 0.0 {
            for (_, p) in &mut out {
                *p /= denom;
            }
        } else {
            let uniform = 1.0 / out.len() as f64;
            for (_, p) in &mut out {
                *p = uniform;
            }
        }
        out
    }

    /// Medicines with non-smoothing mass for disease `d`, as
    /// `(medicine, φ_dm)` pairs in ascending medicine order.
    pub fn phi_row(&self, d: DiseaseId) -> Vec<(MedicineId, f64)> {
        let row = self.phi.row(d.index());
        row.iter()
            .map(|&(m, c)| (MedicineId(m), self.smoothed(d.index(), c)))
            .collect()
    }

    pub fn n_diseases(&self) -> usize {
        self.n_diseases
    }

    pub fn n_medicines(&self) -> usize {
        self.n_medicines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_claims::{HospitalId, MicRecord, Month, PatientId};

    fn record(diseases: Vec<(u32, u32)>, meds: Vec<u32>) -> MicRecord {
        let truth = vec![DiseaseId(diseases[0].0); meds.len()];
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

    /// The tracked sequence: independent fits chained by `refine_next`.
    fn tracked_chain(
        months: &[MonthlyDataset],
        n_diseases: usize,
        n_medicines: usize,
        opts: &EmOptions,
        continuity: f64,
    ) -> Vec<MedicationModel> {
        let mut ws = EmWorkspace::new();
        let mut out: Vec<MedicationModel> = Vec::new();
        for month in months {
            let mut next = MedicationModel::fit_with(month, n_diseases, n_medicines, opts, &mut ws);
            if let Some(prev) = out.last() {
                next.refine_next(month, prev, continuity, opts, &mut ws);
            }
            out.push(next);
        }
        out
    }

    /// Two diseases that never co-occur: the model must learn disjoint φ.
    #[test]
    fn separable_diseases_learn_disjoint_phi() {
        let mut records = Vec::new();
        for _ in 0..20 {
            records.push(record(vec![(0, 1)], vec![0, 0]));
            records.push(record(vec![(1, 1)], vec![1]));
        }
        let month = MonthlyDataset {
            month: Month(0),
            records,
        };
        let model = MedicationModel::fit(&month, 2, 2, &EmOptions::default());
        assert!(model.phi_prob(DiseaseId(0), MedicineId(0)) > 0.95);
        assert!(model.phi_prob(DiseaseId(0), MedicineId(1)) < 0.05);
        assert!(model.phi_prob(DiseaseId(1), MedicineId(1)) > 0.95);
    }

    /// The paper's Fig. 2 situation: disease A (hypertension) co-occurs with
    /// disease B (arthritis) whose medicine 1 (analgesic) is very frequent.
    /// Records containing only B reveal that medicine 1 belongs to B, so EM
    /// must push φ_{A,1} toward zero even though A and medicine 1 co-occur a
    /// lot; the cooccurrence baseline cannot do this.
    #[test]
    fn em_disambiguates_confounded_medicines() {
        let mut records = Vec::new();
        // A+B records: medicine 0 (for A) and lots of medicine 1 (for B).
        for _ in 0..30 {
            records.push(record(vec![(0, 1), (1, 1)], vec![0, 1, 1, 1]));
        }
        // B-only records anchor medicine 1 to B.
        for _ in 0..30 {
            records.push(record(vec![(1, 1)], vec![1, 1, 1]));
        }
        // A-only records anchor medicine 0 to A.
        for _ in 0..10 {
            records.push(record(vec![(0, 1)], vec![0]));
        }
        let month = MonthlyDataset {
            month: Month(0),
            records,
        };
        let model = MedicationModel::fit(&month, 2, 2, &EmOptions::default());
        let phi_a0 = model.phi_prob(DiseaseId(0), MedicineId(0));
        let phi_a1 = model.phi_prob(DiseaseId(0), MedicineId(1));
        assert!(
            phi_a0 > phi_a1,
            "medicine 0 should dominate for disease A: {phi_a0} vs {phi_a1}"
        );
        assert!(phi_a0 > 0.6, "phi_a0 = {phi_a0}");
    }

    #[test]
    fn eta_matches_eq4() {
        let records = vec![
            record(vec![(0, 2), (1, 1)], vec![0]),
            record(vec![(1, 3)], vec![0]),
        ];
        let month = MonthlyDataset {
            month: Month(0),
            records,
        };
        let model = MedicationModel::fit(&month, 2, 1, &EmOptions::default());
        // Counts: d0 = 2, d1 = 4 → η = (1/3, 2/3).
        assert!((model.eta(DiseaseId(0)) - 1.0 / 3.0).abs() < 1e-12);
        assert!((model.eta(DiseaseId(1)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn phi_rows_are_distributions() {
        let records = vec![
            record(vec![(0, 1), (1, 2)], vec![0, 1, 2]),
            record(vec![(0, 2)], vec![0, 0]),
            record(vec![(1, 1)], vec![2]),
        ];
        let month = MonthlyDataset {
            month: Month(0),
            records,
        };
        let model = MedicationModel::fit(&month, 2, 3, &EmOptions::default());
        for d in 0..2 {
            let total: f64 = (0..3)
                .map(|m| model.phi_prob(DiseaseId(d), MedicineId(m)))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "row {d} sums to {total}");
        }
    }

    #[test]
    fn responsibilities_sum_to_one_and_respect_theta() {
        let records = vec![record(vec![(0, 3), (1, 1)], vec![0])];
        let month = MonthlyDataset {
            month: Month(0),
            records: records.clone(),
        };
        let model = MedicationModel::fit(&month, 2, 1, &EmOptions::default());
        let q = model.responsibilities(&records[0].diseases, MedicineId(0));
        assert_eq!(q.len(), 2);
        let total: f64 = q.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // With a single medicine, φ rows are identical, so q follows θ: 3:1.
        assert!((q[0].1 - 0.75).abs() < 1e-6, "q0 = {}", q[0].1);
    }

    #[test]
    fn likelihood_is_monotone_under_em() {
        // Fit with increasing iteration caps; log-likelihood must not drop.
        let mut records = Vec::new();
        for i in 0..40 {
            records.push(record(
                vec![(i % 3, 1), ((i + 1) % 3, 2)],
                vec![i % 4, (i * 2) % 4],
            ));
        }
        let month = MonthlyDataset {
            month: Month(0),
            records,
        };
        let mut prev = f64::NEG_INFINITY;
        for iters in [1, 2, 4, 8, 16] {
            let opts = EmOptions {
                max_iters: iters,
                tol: 0.0,
                ..Default::default()
            };
            let model = MedicationModel::fit(&month, 3, 4, &opts);
            assert!(
                model.log_likelihood >= prev - 1e-9,
                "LL dropped: {prev} -> {} at {iters} iters",
                model.log_likelihood
            );
            prev = model.log_likelihood;
        }
    }

    #[test]
    fn converges_before_cap_on_easy_data() {
        let mut records = Vec::new();
        for _ in 0..50 {
            records.push(record(vec![(0, 1)], vec![0]));
            records.push(record(vec![(1, 1)], vec![1]));
        }
        let month = MonthlyDataset {
            month: Month(0),
            records,
        };
        let model = MedicationModel::fit(&month, 2, 2, &EmOptions::default());
        assert!(
            model.iterations < 100,
            "took {} iterations",
            model.iterations
        );
    }

    #[test]
    fn record_medicine_prob_is_mixture() {
        let records = vec![record(vec![(0, 1)], vec![0]), record(vec![(1, 1)], vec![1])];
        let month = MonthlyDataset {
            month: Month(0),
            records,
        };
        let model = MedicationModel::fit(&month, 2, 2, &EmOptions::default());
        let bag = vec![(DiseaseId(0), 1), (DiseaseId(1), 1)];
        let p0 = model.record_medicine_prob(&bag, MedicineId(0));
        let expected = 0.5 * model.phi_prob(DiseaseId(0), MedicineId(0))
            + 0.5 * model.phi_prob(DiseaseId(1), MedicineId(0));
        assert!((p0 - expected).abs() < 1e-12);
    }

    #[test]
    fn tracked_fit_smooths_sparse_months() {
        // Month 0 is rich; month 1 is very sparse. Tracked fitting should
        // carry month-0 knowledge into month 1's φ.
        let mut rich = Vec::new();
        for _ in 0..40 {
            rich.push(record(vec![(0, 1)], vec![0, 0]));
            rich.push(record(vec![(1, 1)], vec![1]));
        }
        // Sparse month: a single ambiguous comorbid record.
        let sparse = vec![record(vec![(0, 1), (1, 1)], vec![0])];
        let months = vec![
            MonthlyDataset {
                month: Month(0),
                records: rich,
            },
            MonthlyDataset {
                month: Month(1),
                records: sparse,
            },
        ];
        let opts = EmOptions::default();
        let independent = MedicationModel::fit(&months[1], 2, 2, &opts);
        let tracked = tracked_chain(&months, 2, 2, &opts, 0.5);
        // Which disease caused the sparse month's prescription? The
        // independent fit cannot tell (responsibility ≈ 0.5 each); the
        // tracked fit carries month-0 knowledge that medicine 0 belongs to
        // disease 0.
        let bag = vec![(DiseaseId(0), 1), (DiseaseId(1), 1)];
        let q_ind = independent.responsibilities(&bag, MedicineId(0))[0].1;
        let q_trk = tracked[1].responsibilities(&bag, MedicineId(0))[0].1;
        assert!((q_ind - 0.5).abs() < 0.05, "independent q = {q_ind:.3}");
        assert!(
            q_trk > q_ind + 0.2,
            "tracked q ({q_trk:.3}) should exceed independent ({q_ind:.3})"
        );
        // Zero continuity reproduces independent fits.
        let zero = tracked_chain(&months, 2, 2, &opts, 0.0);
        let q_zero = zero[1].responsibilities(&bag, MedicineId(0))[0].1;
        assert!((q_zero - q_ind).abs() < 1e-9);
    }

    #[test]
    fn tracked_rows_remain_distributions() {
        let months = vec![
            MonthlyDataset {
                month: Month(0),
                records: vec![record(vec![(0, 1)], vec![0, 1])],
            },
            MonthlyDataset {
                month: Month(1),
                records: vec![record(vec![(1, 2)], vec![1])],
            },
        ];
        let tracked = tracked_chain(&months, 2, 2, &EmOptions::default(), 0.8);
        for model in &tracked {
            for d in 0..2 {
                let total: f64 = (0..2)
                    .map(|m| model.phi_prob(DiseaseId(d), MedicineId(m)))
                    .sum();
                assert!((total - 1.0).abs() < 1e-9);
            }
        }
    }

    /// Rows come back in ascending medicine order, also after a tracked
    /// refine merges in prior mass on medicines absent from the month; an
    /// absent pair reads as pure smoothing, `s / (total + s·M)`.
    #[test]
    fn phi_rows_are_sorted_and_absent_pairs_smoothed() {
        let months = vec![
            MonthlyDataset {
                month: Month(0),
                records: vec![record(vec![(0, 1)], vec![5, 1, 5])],
            },
            MonthlyDataset {
                month: Month(1),
                records: vec![
                    record(vec![(0, 1)], vec![3, 0, 2]),
                    record(vec![(1, 1), (0, 1)], vec![4, 2]),
                ],
            },
        ];
        let opts = EmOptions::default();
        let tracked = tracked_chain(&months, 3, 7, &opts, 0.5);
        let medicines = |model: &MedicationModel, d: u32| -> Vec<u32> {
            let row = model.phi_row(DiseaseId(d));
            row.iter().map(|&(m, _)| m.0).collect()
        };
        assert_eq!(medicines(&tracked[0], 0), [1, 5]);
        assert_eq!(medicines(&tracked[1], 0), [0, 1, 2, 3, 4, 5]);
        assert_eq!(medicines(&tracked[1], 1), [2, 4]);
        for model in &tracked {
            for d in 0..3u32 {
                let row = model.phi_row(DiseaseId(d));
                for (m, p) in row {
                    assert_eq!(p, model.phi_prob(DiseaseId(d), m));
                }
                let total = model.phi.totals[d as usize];
                let absent = opts.smoothing / (total + opts.smoothing * 7.0);
                assert_eq!(model.phi_prob(DiseaseId(d), MedicineId(6)), absent);
            }
        }
    }

    #[test]
    fn empty_bag_edge_cases() {
        let month = MonthlyDataset {
            month: Month(0),
            records: vec![record(vec![(0, 1)], vec![0])],
        };
        let model = MedicationModel::fit(&month, 1, 1, &EmOptions::default());
        assert_eq!(model.record_medicine_prob(&[], MedicineId(0)), 0.0);
        assert!(model.responsibilities(&[], MedicineId(0)).is_empty());
    }
}
