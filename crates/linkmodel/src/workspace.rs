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
//! The workspace is the one place Eq. 6 runs. After convergence
//! `EmWorkspace::export_phi` writes the dense counts once as the model's
//! sorted sparse rows, and [`EmWorkspace::column`] makes one more pass over
//! the cells to emit the month's reproduced counts (Eq. 7). A temporal prior
//! (the tracked fit's previous-month `Φ`, weighted by `continuity`) is
//! folded in as constant per-iteration base counts, with the carried-over
//! mass of medicines and diseases absent from the month added at export, so
//! the workspace agrees with the reference implementations (the oracles in
//! `tests/workspace_parity.rs`) to rounding.
//!
//! Every buffer is reused across months (and across fits, via
//! `parallel_map_with`'s per-worker state), so Stage 1's per-fit heap
//! traffic is one-time workspace growth that amortises to zero.

use crate::model::SparsePhi;
use crate::reproduce::MonthColumn;
use mic_claims::{DiseaseId, MedicineId, MicRecord, Month, MonthlyDataset};
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

/// The `(read, write)` halves of a double buffer whose current half is
/// `cur`.
fn read_write(bufs: &mut [Vec<f64>; 2], cur: usize) -> (&[f64], &mut [f64]) {
    let [a, b] = bufs;
    if cur == 0 {
        (a, b)
    } else {
        (b, a)
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
    month: Month,
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
    /// Diseases in order of first appearance.
    d_local_to_global: Vec<u32>,
    /// Medicines in ascending global order.
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
    /// SQUAREM's one count snapshot: `θ₀` of the running cycle, then `θ₂`
    /// once the extrapolated point is written (the double buffer holds
    /// `θ₁` and `θ₂` after the cycle's two map steps).
    anchor: Vec<f64>,
    // --- temporal prior (constant across refine iterations) ---
    /// In-vocabulary prior base counts (`prev Φ · weight`), dense; empty
    /// when no prior is set.
    prior_counts: Vec<f64>,
    /// Prior row totals per local disease (includes the mass on medicines
    /// absent from this month).
    prior_totals: Vec<f64>,
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
        self.month = month.month;
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
                let slot = &mut self.d_global_to_local[d.index()];
                if *slot == ABSENT {
                    *slot = self.d_local_to_global.len() as u32;
                    self.d_local_to_global.push(d.0);
                }
            }
            for &m in &r.medicines {
                self.m_global_to_local[m.index()] = 0;
            }
            max_record_diseases = max_record_diseases.max(r.diseases.len());
            events += r.medicines.len();
        }
        // Medicines are numbered in ascending global order, so a dense Φ row
        // reads out as a sorted sparse row.
        for (g, slot) in self.m_global_to_local.iter_mut().enumerate() {
            if *slot != ABSENT {
                *slot = self.m_local_to_global.len() as u32;
                self.m_local_to_global.push(g as u32);
            }
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
        self.anchor.clear();
        self.anchor.resize(n_d * nm, 0.0);

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

    /// Load an existing fitted `Φ` into the current dense buffer — the
    /// tracked fit's refine pass resumes EM from the independent fit's
    /// estimate. Rows for diseases outside this month's vocabulary must be
    /// empty (an independent fit of this month never produces them).
    pub(crate) fn import_phi(&mut self, phi: &SparsePhi) {
        let nm = self.n_m_local();
        let counts = &mut self.counts[self.cur];
        let totals = &mut self.totals[self.cur];
        counts.fill(0.0);
        totals.fill(0.0);
        for (g, &d) in self.d_global_to_local.iter().enumerate() {
            if d == ABSENT {
                debug_assert!(phi.row(g).is_empty(), "mass for out-of-month disease {g}");
                continue;
            }
            let d = d as usize;
            totals[d] = phi.totals[g];
            for &(m, c) in phi.row(g) {
                let ml = self.m_global_to_local[m as usize];
                debug_assert_ne!(ml, ABSENT, "mass for out-of-month medicine {m}");
                counts[d * nm + ml as usize] = c;
            }
        }
    }

    /// Install the tracked fit's temporal prior: the previous month's `Φ`
    /// scaled by `weight` becomes the constant M-step base counts. Mass on
    /// medicines absent from this month enters the row totals only;
    /// [`EmWorkspace::export_phi`] reads those entries from `prev` itself.
    pub(crate) fn set_prior(&mut self, prev: &SparsePhi, weight: f64) {
        let nm = self.n_m_local();
        self.prior_counts.clear();
        self.prior_counts.resize(self.n_d_local() * nm, 0.0);
        self.prior_totals.clear();
        for (d, &g) in self.d_local_to_global.iter().enumerate() {
            self.prior_totals.push(prev.totals[g as usize] * weight);
            for &(m, c) in prev.row(g as usize) {
                let ml = self.m_global_to_local[m as usize];
                if ml != ABSENT {
                    self.prior_counts[d * nm + ml as usize] = c * weight;
                }
            }
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
        let smooth_denom = smoothing * self.n_medicines_global as f64;
        let (counts_cur, counts_nxt) = read_write(&mut self.counts, self.cur);
        let (totals_cur, totals_nxt) = read_write(&mut self.totals, self.cur);
        if self.has_prior {
            counts_nxt.copy_from_slice(&self.prior_counts);
            totals_nxt.copy_from_slice(&self.prior_totals);
        } else {
            counts_nxt.fill(0.0);
            totals_nxt.fill(0.0);
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
        self.cur = 1 - self.cur;
        ll
    }

    /// Start a SQUAREM cycle at the current `Φ`: keep its counts as `θ₀`.
    pub(crate) fn anchor(&mut self) {
        self.anchor.copy_from_slice(&self.counts[self.cur]);
    }

    /// SQUAREM's extrapolation, two map steps after [`EmWorkspace::anchor`],
    /// when the current buffer holds `θ₂` and the other one `θ₁`. With
    /// `r = θ₁ − θ₀` and `v = θ₂ − 2θ₁ + θ₀`, the step length is
    /// `α = −‖r‖/‖v‖`, at most −1, back-tracked toward −1 by
    /// `α ← (α − 1)/2` until every count of `θ′ = θ₀ − 2αr + α²v` is
    /// non-negative. At `α = −1`, `θ′` is `θ₂`: the state stays and this
    /// returns false. Otherwise `θ′` becomes the current `Φ`, its row
    /// totals are recomputed from its counts, `θ₂` is kept for
    /// [`EmWorkspace::restore_squared`], and this returns true.
    pub(crate) fn extrapolate(&mut self) -> bool {
        let (theta2, theta1) = read_write(&mut self.counts, self.cur);
        let theta0 = &mut self.anchor;
        let (mut rr, mut vv) = (0.0, 0.0);
        for ((&a, &b), &c) in theta0.iter().zip(theta1.iter()).zip(theta2) {
            let (r, v) = (b - a, c - 2.0 * b + a);
            rr += r * r;
            vv += v * v;
        }
        let at = |alpha: f64, a: f64, b: f64, c: f64| {
            a - 2.0 * alpha * (b - a) + alpha * alpha * (c - 2.0 * b + a)
        };
        // With `‖v‖` zero or so small that the ratio overflows, there is no
        // curvature to extrapolate along: take `θ₂`.
        let ratio = (rr / vv).sqrt();
        let mut alpha = if ratio.is_finite() {
            (-ratio).min(-1.0)
        } else {
            -1.0
        };
        while alpha < -1.0
            && theta0
                .iter()
                .zip(theta1.iter())
                .zip(theta2)
                .any(|((&a, &b), &c)| at(alpha, a, b, c) < 0.0)
        {
            alpha = (alpha - 1.0) / 2.0;
        }
        if alpha == -1.0 {
            return false;
        }
        for ((a, b), &c) in theta0.iter_mut().zip(theta1.iter_mut()).zip(theta2) {
            *b = at(alpha, *a, *b, c);
            *a = c;
        }
        self.cur = 1 - self.cur;
        self.retotal();
        true
    }

    /// SQUAREM's fallback: make the `θ₂` that [`EmWorkspace::extrapolate`]
    /// kept the current `Φ` again.
    pub(crate) fn restore_squared(&mut self) {
        self.counts[self.cur].copy_from_slice(&self.anchor);
        self.retotal();
    }

    /// Recompute the current row totals from the current counts: a row's
    /// total is its sum plus, under a prior, the prior's mass on medicines
    /// absent from the month (its total less its in-vocabulary counts),
    /// which is what [`EmWorkspace::em_step`]'s totals carry.
    fn retotal(&mut self) {
        let nm = self.n_m_local();
        let counts = &self.counts[self.cur];
        for (d, total) in self.totals[self.cur].iter_mut().enumerate() {
            let row = d * nm..(d + 1) * nm;
            *total = counts[row.clone()].iter().sum::<f64>();
            if self.has_prior {
                *total += self.prior_totals[d] - self.prior_counts[row].iter().sum::<f64>();
            }
        }
    }

    /// Smoothed `φ_dm` of the current dense `Φ`, for a pair inside the
    /// compiled month's vocabulary; `None` outside it, where no count
    /// iterates. It reads the state reached by calling
    /// [`EmWorkspace::em_step`] directly.
    pub fn phi_prob(&self, d: DiseaseId, m: MedicineId, smoothing: f64) -> Option<f64> {
        let dl = *self.d_global_to_local.get(d.index())?;
        let ml = *self.m_global_to_local.get(m.index())?;
        if dl == ABSENT || ml == ABSENT {
            return None;
        }
        let (dl, nm) = (dl as usize, self.n_m_local());
        let count = self.counts[self.cur][dl * nm + ml as usize];
        let total = self.totals[self.cur][dl];
        Some((count + smoothing) / (total + smoothing * self.n_medicines_global as f64))
    }

    /// The reproduced counts of the compiled month under the current `Φ`
    /// (Eq. 7): per cell, the responsibilities `q_d = θ_d·φ_dm / Σ θ·φ`
    /// (Eq. 6, a uniform split when the sum is not positive) times the
    /// cell's multiplicity, summed per `(disease, medicine)`. Call it right
    /// after the fit or refine pass whose `Φ` it should apply; the spare
    /// `Φ` buffer serves as the accumulator.
    pub fn column(&mut self, smoothing: f64) -> MonthColumn {
        let nm = self.n_m_local();
        let smooth_denom = smoothing * self.n_medicines_global as f64;
        let (counts, x) = read_write(&mut self.counts, self.cur);
        let totals = &self.totals[self.cur];
        x.fill(0.0);
        let mut cells_start = 0;
        for sig in &self.sigs {
            let (d0, d1) = (sig.entries.0 as usize, sig.entries.1 as usize);
            let cells_end = sig.cells_end as usize;
            for &(m, w) in &self.cells[cells_start..cells_end] {
                let (m, w) = (m as usize, f64::from(w));
                let mut denom = 0.0;
                for k in d0..d1 {
                    let d = self.d_local[k] as usize;
                    let phi = (counts[d * nm + m] + smoothing) / (totals[d] + smooth_denom);
                    self.q[k - d0] = self.theta[k] * phi;
                    denom += self.q[k - d0];
                }
                if denom <= 0.0 {
                    // No mass anywhere in the bag: an even split.
                    self.q[..d1 - d0].fill(1.0);
                    denom = (d1 - d0) as f64;
                }
                for k in d0..d1 {
                    let q = self.q[k - d0] / denom;
                    if q > 0.0 {
                        x[self.d_local[k] as usize * nm + m] += w * q;
                    }
                }
            }
            cells_start = cells_end;
        }
        let mut column = MonthColumn {
            month: self.month,
            counts: Vec::with_capacity(x.iter().filter(|&&v| v > 0.0).count()),
        };
        for (g, &d) in self.d_global_to_local.iter().enumerate() {
            if d == ABSENT {
                continue;
            }
            let row = &x[d as usize * nm..(d as usize + 1) * nm];
            for (&m, &v) in self.m_local_to_global.iter().zip(row) {
                if v > 0.0 {
                    column.counts.push((DiseaseId(g as u32), MedicineId(m), v));
                }
            }
        }
        column
    }

    /// Write the current dense `Φ` as the model's sorted sparse rows over
    /// the global ids. With a prior set, each row also carries the scaled
    /// previous-month mass of medicines absent from this month, and rows for
    /// diseases absent from this month carry the scaled previous-month row
    /// (exactly as the reference M-step's prior initialisation leaves them).
    pub(crate) fn export_phi(&self, prior: Option<(&SparsePhi, f64)>) -> SparsePhi {
        let nm = self.n_m_local();
        let mut phi = SparsePhi::new();
        for (g, &d) in self.d_global_to_local.iter().enumerate() {
            let scaled = prior
                .into_iter()
                .flat_map(|(prev, weight)| prev.row(g).iter().map(move |&(m, c)| (m, c * weight)));
            if d == ABSENT {
                phi.entries.extend(scaled);
                phi.end_row(match prior {
                    Some((prev, weight)) if !prev.row(g).is_empty() => prev.totals[g] * weight,
                    _ => 0.0,
                });
                continue;
            }
            // Merge the month's medicines with the prior's absent ones; both
            // run in ascending global order.
            let d = d as usize;
            let mut absent = scaled
                .filter(|&(m, c)| self.m_global_to_local[m as usize] == ABSENT && c > 0.0)
                .peekable();
            let row = &self.counts[self.cur][d * nm..(d + 1) * nm];
            for (&m, &c) in self.m_local_to_global.iter().zip(row) {
                while let Some(e) = absent.next_if(|e| e.0 < m) {
                    phi.entries.push(e);
                }
                if c > 0.0 {
                    phi.entries.push((m, c));
                }
            }
            phi.entries.extend(absent);
            phi.end_row(self.totals[self.cur][d]);
        }
        phi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::drive_em;
    use crate::EmOptions;
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
            ws.anchor,
            ws.prior_counts,
            ws.prior_totals,
            ws.q,
        ]
    }

    /// After the first step no buffer is reallocated, grown or moved by the
    /// SQUAREM driver's steps, extrapolations and fallbacks, with and
    /// without a temporal prior — nor by recompiling a month no larger than
    /// the first.
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
        let mut prev = SparsePhi::new();
        for row in [
            &[(0, 2.0), (3, 1.0)][..],
            &[(1, 2.0), (3, 1.0)],
            &[(2, 2.0), (3, 1.0)],
            &[(3, 1.0)],
        ] {
            prev.entries.extend_from_slice(row);
            prev.end_row(3.0);
        }
        let mut ws = EmWorkspace::new();
        for prior in [false, true] {
            ws.compile(&month, 4, 4);
            if prior {
                ws.set_prior(&prev, 0.5);
            }
            ws.em_step(1e-9);
            let before = buffers(&ws);
            let opts = EmOptions {
                max_iters: 20,
                tol: 0.0,
                smoothing: 1e-9,
            };
            assert_eq!(drive_em(&opts, &mut ws).1, 20);
            // One cycle by hand, so the extrapolation and the fallback
            // certainly run.
            ws.anchor();
            ws.em_step(1e-9);
            ws.em_step(1e-9);
            assert!(ws.extrapolate(), "prior = {prior}: α = −1");
            ws.em_step(1e-9);
            ws.restore_squared();
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
