//! Allocation-free EM engine: a reusable [`EmWorkspace`] that pre-compiles
//! one [`MonthlyDataset`] into flat arrays of distinct cells and runs the
//! E+M step (Eqs. 5–6) as pure dense-array arithmetic.
//!
//! The E-step values of a prescription event depend only on its record's
//! `(disease, θ_rd)` sequence — the record's *θ-signature* — and the
//! medicine. Events that agree on both are the same computation, so the
//! workspace does it once per **cell**, a distinct `(θ-signature,
//! medicine)` pair, and weights it by the cell's multiplicity `w`:
//!
//! - **compile once**: a month-local vocabulary remap for diseases and
//!   medicines and each record's disease/`θ` slice (Eq. 2) are laid out in
//!   flat arrays, with the cooccurrence start accumulated in the same
//!   record-order walk (so it is bitwise the reference's). Record indices
//!   are then sorted by their exact `(disease, θ bits)` slice — equal
//!   slices, never merely equal hashes, form one signature — and each
//!   signature's events are counted into cells;
//! - **iterate flat**: `Φ` expected counts live in two dense row-major
//!   buffers (current / next) over the month-local vocabulary, double-
//!   buffered so one pass reads `Φ^{(k)}` while accumulating `Φ^{(k+1)}`.
//!   A cell adds `w·ln(denom)` to the log-likelihood and scatters `w·q_d`;
//!   this is the per-event fixed-point map with only the floating-point
//!   summation order changed. `C_EM` therefore scales with the month's
//!   distinct cells (`em.cells`), not its prescription events
//!   (`em.events`). An EM iteration performs **zero hash operations and
//!   zero heap allocations**; the responsibility scratch is sized to the
//!   widest record at compile time.
//!
//! The sparse `PhiRow` representation survives only as the fitted model's
//! query-time structure: [`EmWorkspace::export_phi`] converts the dense
//! counts back after convergence. A temporal prior (the tracked fit's
//! previous-month `Φ`, weighted by `continuity`) is folded in as constant
//! per-iteration base counts, including the carried-over mass of medicines
//! and diseases absent from the current month, so the workspace path agrees
//! with the reference implementation (the oracle in
//! `tests/workspace_parity.rs`) to rounding.
//!
//! Every buffer is reused across months (and across fits, via
//! `parallel_map_with`'s per-worker state), so Stage 1's per-fit heap
//! traffic is one-time workspace growth that amortises to zero.

use crate::model::PhiRow;
use mic_claims::{MicRecord, MonthlyDataset};
use std::ops::Range;

const ABSENT: u32 = u32::MAX;

/// One θ-signature of the compiled month.
#[derive(Clone, Copy, Debug)]
struct Signature {
    /// Entry range in `d_local` / `theta` (that of its first record).
    entries: (u32, u32),
    /// End of its cells in `cells`; they start where the previous
    /// signature's end.
    cells_end: u32,
}

/// Records without diagnoses or without prescriptions contribute nothing
/// to the `Φ` estimate or the likelihood.
fn usable(r: &MicRecord) -> bool {
    r.total_diagnoses() > 0 && !r.medicines.is_empty()
}

/// The month-local index of global id `g`, assigned on first sight.
fn local_index(global_to_local: &mut [u32], local_to_global: &mut Vec<u32>, g: u32) {
    let slot = &mut global_to_local[g as usize];
    if *slot == ABSENT {
        *slot = local_to_global.len() as u32;
        local_to_global.push(g);
    }
}

/// Reusable EM fitting state: compiled month cells, double-buffered dense
/// `Φ` counts, vocabulary remaps, and the responsibility scratch.
///
/// Create one per worker thread and pass it to
/// [`crate::MedicationModel::fit_with`]; buffers grow to the largest month
/// seen and are reused thereafter.
#[derive(Clone, Debug, Default)]
pub struct EmWorkspace {
    // --- compiled month ---
    /// Per record of the month: offset into `d_local` / `theta`; length
    /// `n_records + 1`. Unusable records have an empty range.
    rec_off: Vec<u32>,
    /// Month-local disease index per (record, disease) entry.
    d_local: Vec<u32>,
    /// `θ_rd = N_rd / N_r` per (record, disease) entry.
    theta: Vec<f64>,
    /// Usable records' indices, sorted by θ-signature.
    order: Vec<u32>,
    sigs: Vec<Signature>,
    /// `(month-local medicine, multiplicity)` per cell, grouped by
    /// signature.
    cells: Vec<(u32, u32)>,
    /// Compile scratch: per local medicine, its latest cell.
    cell_of_med: Vec<u32>,
    // --- month-local vocabulary remaps ---
    d_local_to_global: Vec<u32>,
    m_local_to_global: Vec<u32>,
    /// Scratch remaps sized to the global vocabularies (`ABSENT` = not in
    /// this month).
    d_global_to_local: Vec<u32>,
    m_global_to_local: Vec<u32>,
    // --- double-buffered dense Φ over the local vocabulary ---
    /// Row-major `[d_local * n_m_local + m_local]` expected counts.
    counts: [Vec<f64>; 2],
    /// Per-local-disease row totals.
    totals: [Vec<f64>; 2],
    /// Which of the two buffers holds the current `Φ`.
    cur: usize,
    // --- temporal prior (constant across refine iterations) ---
    /// In-vocabulary prior base counts (`prev Φ · weight`), dense; empty
    /// when no prior is set.
    prior_counts: Vec<f64>,
    /// Prior row totals per local disease (includes out-of-vocabulary mass).
    prior_totals: Vec<f64>,
    /// Prior entries for medicines absent from this month:
    /// `(global medicine, scaled count)` grouped per local disease row.
    oov: Vec<(u32, f64)>,
    /// Row offsets into `oov`; length `n_d_local + 1`.
    oov_off: Vec<u32>,
    has_prior: bool,
    // --- responsibility scratch, sized to the widest record ---
    q: Vec<f64>,
    n_medicines_global: usize,
}

impl EmWorkspace {
    pub fn new() -> EmWorkspace {
        EmWorkspace::default()
    }

    fn n_d_local(&self) -> usize {
        self.d_local_to_global.len()
    }

    fn n_m_local(&self) -> usize {
        self.m_local_to_global.len()
    }

    /// Compile `month` into signatures and cells and initialise the dense
    /// `Φ` from within-record cooccurrence (the same deterministic Eq.
    /// 10-shaped start as the reference path). Clears any previously set
    /// prior.
    pub fn compile(&mut self, month: &MonthlyDataset, n_diseases: usize, n_medicines: usize) {
        mic_obs::counter("em.workspace_compiles", 1);
        self.n_medicines_global = n_medicines;
        self.has_prior = false;
        self.d_local_to_global.clear();
        self.m_local_to_global.clear();
        // Reset the global→local remaps without reallocating.
        self.d_global_to_local.clear();
        self.d_global_to_local.resize(n_diseases, ABSENT);
        self.m_global_to_local.clear();
        self.m_global_to_local.resize(n_medicines, ABSENT);

        // Vocabulary pass: the local medicine count is the dense Φ's row
        // stride, needed before the cooccurrence start accumulates into it.
        let mut max_record_diseases = 0usize;
        let mut events = 0usize;
        for r in month.records.iter().filter(|r| usable(r)) {
            for &(d, _) in &r.diseases {
                local_index(
                    &mut self.d_global_to_local,
                    &mut self.d_local_to_global,
                    d.0,
                );
            }
            for &m in &r.medicines {
                local_index(
                    &mut self.m_global_to_local,
                    &mut self.m_local_to_global,
                    m.0,
                );
            }
            max_record_diseases = max_record_diseases.max(r.diseases.len());
            events += r.medicines.len();
        }
        self.q.clear();
        self.q.resize(max_record_diseases, 0.0);
        let (n_d, nm) = (self.n_d_local(), self.n_m_local());
        for buf in &mut self.counts {
            buf.clear();
            buf.resize(n_d * nm, 0.0);
        }
        for buf in &mut self.totals {
            buf.clear();
            buf.resize(n_d, 0.0);
        }
        self.cur = 0;

        // Record pass: θ slices and the cooccurrence start, in the exact
        // record/entry order of the reference implementation
        // (bitwise-identical accumulation).
        self.rec_off.clear();
        self.rec_off.push(0);
        self.d_local.clear();
        self.theta.clear();
        self.order.clear();
        for (i, r) in month.records.iter().enumerate() {
            if usable(r) {
                let n_r = r.total_diagnoses() as f64;
                for &(d, n_rd) in &r.diseases {
                    let d = self.d_global_to_local[d.index()] as usize;
                    let w = n_rd as f64 / n_r;
                    self.d_local.push(d as u32);
                    self.theta.push(w);
                    for &m in &r.medicines {
                        let m = self.m_global_to_local[m.index()] as usize;
                        self.counts[0][d * nm + m] += w;
                        self.totals[0][d] += w;
                    }
                }
                self.order.push(i as u32);
            }
            self.rec_off.push(self.d_local.len() as u32);
        }

        // Group records by their exact θ-signature (the index breaks ties,
        // so the order is fully determined), then count each signature's
        // events into its cells.
        let (rec_off, d_local, theta) = (&self.rec_off, &self.d_local, &self.theta);
        let range = |i: u32| rec_off[i as usize] as usize..rec_off[i as usize + 1] as usize;
        let bits = |r: Range<usize>| theta[r].iter().map(|t| t.to_bits());
        let signature_cmp = |a: Range<usize>, b: Range<usize>| {
            d_local[a.clone()]
                .cmp(&d_local[b.clone()])
                .then_with(|| bits(a).cmp(bits(b)))
        };
        self.order
            .sort_unstable_by(|&a, &b| signature_cmp(range(a), range(b)).then(a.cmp(&b)));
        self.sigs.clear();
        self.cells.clear();
        self.cell_of_med.clear();
        self.cell_of_med.resize(nm, ABSENT);
        let mut k = 0;
        while k < self.order.len() {
            let head = range(self.order[k]);
            let cells_start = self.cells.len() as u32;
            while k < self.order.len() && signature_cmp(range(self.order[k]), head.clone()).is_eq()
            {
                for &m in &month.records[self.order[k] as usize].medicines {
                    let m = self.m_global_to_local[m.index()];
                    // A cell index below `cells_start` is another signature's.
                    match self.cell_of_med[m as usize] {
                        c if c != ABSENT && c >= cells_start => self.cells[c as usize].1 += 1,
                        _ => {
                            self.cell_of_med[m as usize] = self.cells.len() as u32;
                            self.cells.push((m, 1));
                        }
                    }
                }
                k += 1;
            }
            self.sigs.push(Signature {
                entries: (head.start as u32, head.end as u32),
                cells_end: self.cells.len() as u32,
            });
        }
        mic_obs::counter("em.events", events as u64);
        mic_obs::counter("em.cells", self.cells.len() as u64);
    }

    /// Load an existing fitted `Φ` (global sparse rows) into the current
    /// dense buffer — the tracked fit's refine pass resumes EM from the
    /// independent fit's estimate. Rows for diseases outside this month's
    /// vocabulary must be empty (an independent fit of this month never
    /// produces them).
    pub(crate) fn import_phi(&mut self, phi: &[PhiRow]) {
        let nm = self.n_m_local();
        let counts = &mut self.counts[self.cur];
        let totals = &mut self.totals[self.cur];
        counts.iter_mut().for_each(|c| *c = 0.0);
        totals.iter_mut().for_each(|t| *t = 0.0);
        for (g, row) in phi.iter().enumerate() {
            let d = self.d_global_to_local[g];
            if d == ABSENT {
                debug_assert!(row.counts.is_empty(), "mass for out-of-month disease {g}");
                continue;
            }
            let d = d as usize;
            totals[d] = row.total;
            for (&m, &c) in &row.counts {
                let ml = self.m_global_to_local[m as usize];
                debug_assert_ne!(ml, ABSENT, "mass for out-of-month medicine {m}");
                counts[d * nm + ml as usize] = c;
            }
        }
    }

    /// Install the tracked fit's temporal prior: the previous month's `Φ`
    /// scaled by `weight` becomes the constant M-step base counts. Mass on
    /// medicines absent from this month is carried separately (it affects
    /// row totals and the exported `Φ`, but no dense cell).
    pub(crate) fn set_prior(&mut self, prev: &[PhiRow], weight: f64) {
        let nm = self.n_m_local();
        self.prior_counts.clear();
        self.prior_counts.resize(self.n_d_local() * nm, 0.0);
        self.prior_totals.clear();
        self.prior_totals.resize(self.n_d_local(), 0.0);
        self.oov.clear();
        self.oov_off.clear();
        self.oov_off.push(0);
        for d in 0..self.n_d_local() {
            let row = &prev[self.d_local_to_global[d] as usize];
            self.prior_totals[d] = row.total * weight;
            // Deterministic order for the out-of-vocabulary tail (HashMap
            // iteration order is arbitrary; the exported values are
            // per-entry products, so only the listing order needs pinning).
            let mut entries: Vec<(&u32, &f64)> = row.counts.iter().collect();
            entries.sort_unstable_by_key(|(&m, _)| m);
            for (&m, &c) in entries {
                match self.m_global_to_local[m as usize] {
                    ABSENT => self.oov.push((m, c * weight)),
                    ml => self.prior_counts[d * nm + ml as usize] = c * weight,
                }
            }
            self.oov_off.push(self.oov.len() as u32);
        }
        self.has_prior = true;
    }

    /// One combined E+M step over the compiled month: reads the current
    /// dense `Φ`, accumulates the next one, flips the buffers, and returns
    /// the log-likelihood of the data under the *pre-step* `Φ` (Eqs. 5–6).
    ///
    /// The E step runs once per cell and the cell's multiplicity weights
    /// its log-likelihood term and its scattered responsibilities. The loop
    /// body indexes pre-sized flat arrays only — no hashing, no allocation.
    pub fn em_step(&mut self, smoothing: f64) -> f64 {
        // The mean of the `em.step` timer is the measured C_EM (Table V).
        let _step = mic_obs::span("em.step");
        mic_obs::counter("em.iterations", 1);
        let nm = self.n_m_local();
        let nxt = 1 - self.cur;
        let smooth_denom = smoothing * self.n_medicines_global as f64;
        // Split the double buffer into disjoint (read, write) halves.
        let (a, b) = self.counts.split_at_mut(1);
        let (counts_cur, counts_nxt) = if self.cur == 0 {
            (&a[0], &mut b[0])
        } else {
            (&b[0], &mut a[0])
        };
        let (a, b) = self.totals.split_at_mut(1);
        let (totals_cur, totals_nxt) = if self.cur == 0 {
            (&a[0], &mut b[0])
        } else {
            (&b[0], &mut a[0])
        };
        if self.has_prior {
            counts_nxt.copy_from_slice(&self.prior_counts);
            totals_nxt.copy_from_slice(&self.prior_totals);
        } else {
            counts_nxt.iter_mut().for_each(|c| *c = 0.0);
            totals_nxt.iter_mut().for_each(|t| *t = 0.0);
        }
        let mut ll = 0.0;
        let mut cells_start = 0;
        for sig in &self.sigs {
            let (d0, d1) = (sig.entries.0 as usize, sig.entries.1 as usize);
            let cells_end = sig.cells_end as usize;
            for &(m, w) in &self.cells[cells_start..cells_end] {
                let (m, w) = (m as usize, f64::from(w));
                // E step: q_rld ∝ θ_rd · φ_dm over the signature's diseases
                // (Eq. 6), smoothed read of the current Φ.
                let mut denom = 0.0;
                for k in d0..d1 {
                    let d = self.d_local[k] as usize;
                    let p = self.theta[k] * (counts_cur[d * nm + m] + smoothing)
                        / (totals_cur[d] + smooth_denom);
                    self.q[k - d0] = p;
                    denom += p;
                }
                if denom <= 0.0 {
                    // Unreachable with smoothing > 0, but stay total.
                    continue;
                }
                ll += w * denom.ln();
                // M step: scatter the normalised responsibilities of all the
                // cell's events (Eq. 5).
                for k in d0..d1 {
                    let q = self.q[k - d0] / denom;
                    if q > 0.0 {
                        let d = self.d_local[k] as usize;
                        counts_nxt[d * nm + m] += w * q;
                        totals_nxt[d] += w * q;
                    }
                }
            }
            cells_start = cells_end;
        }
        self.cur = nxt;
        ll
    }

    /// Convert the current dense `Φ` back into the model's sparse global
    /// [`PhiRow`] representation; with a prior set, rows for diseases absent
    /// from this month carry the scaled previous-month mass (exactly as the
    /// reference M-step's prior initialisation leaves them).
    pub(crate) fn export_phi(
        &self,
        n_diseases: usize,
        prior: Option<(&[PhiRow], f64)>,
    ) -> Vec<PhiRow> {
        let nm = self.n_m_local();
        let counts = &self.counts[self.cur];
        let totals = &self.totals[self.cur];
        let mut phi: Vec<PhiRow> = (0..n_diseases).map(|_| PhiRow::empty()).collect();
        for d in 0..self.n_d_local() {
            let row = &mut phi[self.d_local_to_global[d] as usize];
            row.total = totals[d];
            for m in 0..nm {
                let c = counts[d * nm + m];
                if c > 0.0 {
                    row.counts.insert(self.m_local_to_global[m], c);
                }
            }
            if self.has_prior {
                for &(m, c) in &self.oov[self.oov_off[d] as usize..self.oov_off[d + 1] as usize] {
                    if c > 0.0 {
                        row.counts.insert(m, c);
                    }
                }
            }
        }
        if let Some((prev, weight)) = prior {
            // Diseases with prior mass but no appearance this month keep the
            // scaled previous-month row.
            for (g, row) in prev.iter().enumerate() {
                if self.d_global_to_local[g] == ABSENT && !row.counts.is_empty() {
                    let out = &mut phi[g];
                    out.total = row.total * weight;
                    for (&m, &c) in &row.counts {
                        out.counts.insert(m, c * weight);
                    }
                }
            }
        }
        phi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_claims::{DiseaseId, HospitalId, MedicineId, MicRecord, Month, PatientId};

    fn record(diseases: &[(u32, u32)], meds: &[u32]) -> MicRecord {
        MicRecord {
            patient: PatientId(0),
            hospital: HospitalId(0),
            diseases: diseases.iter().map(|&(d, n)| (DiseaseId(d), n)).collect(),
            medicines: meds.iter().map(|&m| MedicineId(m)).collect(),
            truth_links: meds.iter().map(|_| DiseaseId(diseases[0].0)).collect(),
        }
    }

    /// `(pointer, capacity)` of every heap buffer the workspace owns.
    fn buffers(ws: &EmWorkspace) -> Vec<(usize, usize)> {
        macro_rules! at {
            ($($v:expr),* $(,)?) => { vec![$(($v.as_ptr() as usize, $v.capacity())),*] };
        }
        at![
            ws.rec_off,
            ws.d_local,
            ws.theta,
            ws.order,
            ws.sigs,
            ws.cells,
            ws.cell_of_med,
            ws.d_local_to_global,
            ws.m_local_to_global,
            ws.d_global_to_local,
            ws.m_global_to_local,
            ws.counts[0],
            ws.counts[1],
            ws.totals[0],
            ws.totals[1],
            ws.prior_counts,
            ws.prior_totals,
            ws.oov,
            ws.oov_off,
            ws.q,
        ]
    }

    /// After the first step no buffer is reallocated, grown or moved, with
    /// and without a temporal prior — nor by recompiling a month no larger
    /// than the first.
    #[test]
    fn em_steps_never_reallocate() {
        let month = MonthlyDataset {
            month: Month(0),
            records: vec![
                record(&[(0, 1), (1, 2)], &[0, 2]),
                record(&[(1, 1)], &[1]),
                record(&[(2, 1), (0, 1), (1, 1)], &[2, 2, 0]),
                record(&[(0, 3)], &[0]),
                record(&[(0, 2), (1, 4)], &[2, 0]),
            ],
        };
        let part = MonthlyDataset {
            month: Month(1),
            records: month.records[..2].to_vec(),
        };
        let prev: Vec<PhiRow> = (0..4)
            .map(|d| PhiRow {
                counts: [(d, 2.0), (3, 1.0)].into_iter().collect(),
                total: 3.0,
            })
            .collect();
        let mut ws = EmWorkspace::new();
        for prior in [false, true] {
            ws.compile(&month, 4, 4);
            if prior {
                ws.set_prior(&prev, 0.5);
            }
            ws.em_step(1e-9);
            let before = buffers(&ws);
            for _ in 0..20 {
                ws.em_step(1e-9);
            }
            assert_eq!(buffers(&ws), before, "prior = {prior}");
            for again in [&month, &part] {
                ws.compile(again, 4, 4);
                if prior {
                    ws.set_prior(&prev, 0.5);
                }
                ws.em_step(1e-9);
                assert_eq!(buffers(&ws), before, "prior = {prior}, recompiled");
            }
        }
    }

    /// Records that agree on their exact `(disease, θ)` sequence share one
    /// signature, and events that also agree on the medicine one cell.
    #[test]
    fn compile_groups_events_into_exact_cells() {
        let month = MonthlyDataset {
            month: Month(0),
            records: vec![
                record(&[(1, 1), (2, 1)], &[0, 0, 1]),
                record(&[(1, 2), (2, 2)], &[0]),
                record(&[(2, 1), (1, 1)], &[0]),
                record(&[(1, 1), (2, 2)], &[1]),
                record(&[(3, 1)], &[]),
            ],
        };
        let mut ws = EmWorkspace::new();
        ws.compile(&month, 4, 2);
        // θ-signatures, in sorted order: {1: ⅓, 2: ⅔} (record 3), {1: ½,
        // 2: ½} (records 0 and 1), {2: ½, 1: ½} (entry order differs;
        // record 2); record 4 has no medicine.
        let entries: Vec<(u32, u32)> = ws.sigs.iter().map(|s| s.entries).collect();
        assert_eq!(entries, [(6, 8), (0, 2), (4, 6)]);
        let ends: Vec<u32> = ws.sigs.iter().map(|s| s.cells_end).collect();
        assert_eq!(ends, [1, 3, 4]);
        assert_eq!(ws.cells, [(1, 1), (0, 3), (1, 1), (0, 1)]);
    }
}
