//! Effect sizes and agreement statistics: Cohen's d (paired) for the model
//! comparisons in Tables III/IV, and Cohen's kappa for the exact-vs-
//! approximate change-point agreement in Table VI.

use crate::descriptive::{mean, sample_sd};

/// Cohen's d for paired samples: mean of the differences divided by the
/// standard deviation of the differences (the convention the paper uses,
/// e.g. `Cohen's d = −15.810` for the perplexity comparison).
///
/// Returns `0.0` when both the mean difference and its SD are zero, and
/// `±inf` when only the SD is zero.
pub fn cohen_d_paired(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "cohen_d_paired needs equal-length samples"
    );
    assert!(a.len() >= 2, "cohen_d_paired needs at least 2 pairs");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let m = mean(&diffs);
    let sd = sample_sd(&diffs);
    if sd == 0.0 {
        if m == 0.0 {
            0.0
        } else {
            f64::INFINITY * m.signum()
        }
    } else {
        m / sd
    }
}

/// 2×2 confusion matrix between a reference ("exact") and a candidate
/// ("approximate") binary decision, in the layout of the paper's Table VI.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Confusion2 {
    /// exact positive, approx positive.
    pub tp: u64,
    /// exact positive, approx negative (false negative of the approximation).
    pub fn_: u64,
    /// exact negative, approx positive (false positive of the approximation).
    pub fp: u64,
    /// exact negative, approx negative.
    pub tn: u64,
}

impl Confusion2 {
    /// Record one (exact, approx) decision pair.
    pub fn record(&mut self, exact_positive: bool, approx_positive: bool) {
        match (exact_positive, approx_positive) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Total decisions recorded.
    pub fn total(&self) -> u64 {
        self.tp + self.fn_ + self.fp + self.tn
    }

    /// False-negative rate among exact positives (the paper reports
    /// 8.639% / 7.340% / 9.814%). Returns 0 when there are no positives.
    pub fn false_negative_rate(&self) -> f64 {
        let pos = self.tp + self.fn_;
        if pos == 0 {
            0.0
        } else {
            self.fn_ as f64 / pos as f64
        }
    }

    /// False-positive rate among exact negatives.
    pub fn false_positive_rate(&self) -> f64 {
        let neg = self.fp + self.tn;
        if neg == 0 {
            0.0
        } else {
            self.fp as f64 / neg as f64
        }
    }

    /// Cohen's kappa for this 2×2 table.
    pub fn kappa(&self) -> f64 {
        cohen_kappa(&[[self.tp, self.fn_], [self.fp, self.tn]])
    }
}

/// Cohen's kappa for a K×K confusion matrix `m[i][j]` = count of items rated
/// category `i` by rater 1 and `j` by rater 2.
///
/// Returns `NaN` for an empty table and `1.0` when chance agreement is 1
/// (both raters constant and equal).
pub fn cohen_kappa<const K: usize>(m: &[[u64; K]; K]) -> f64 {
    let total: u64 = m.iter().flatten().sum();
    if total == 0 {
        return f64::NAN;
    }
    let n = total as f64;
    let mut po = 0.0;
    let mut pe = 0.0;
    for (i, row) in m.iter().enumerate() {
        po += row[i] as f64 / n;
        let row_total: u64 = row.iter().sum();
        let col_total: u64 = (0..K).map(|j| m[j][i]).sum();
        pe += (row_total as f64 / n) * (col_total as f64 / n);
    }
    if (1.0 - pe).abs() < 1e-15 {
        // Degenerate: chance agreement is total; kappa defined as 1 when the
        // observed agreement is also total, else 0.
        return if (po - 1.0).abs() < 1e-15 { 1.0 } else { 0.0 };
    }
    (po - pe) / (1.0 - pe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohen_d_sign_and_magnitude() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 2.5, 4.5, 5.0];
        // diffs: -1, -0.5, -1.5, -1 → mean -1, sd 0.408.
        let d = cohen_d_paired(&a, &b);
        assert!(d < -2.0, "d = {d}");
    }

    #[test]
    fn cohen_d_zero_for_identical() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(cohen_d_paired(&a, &a), 0.0);
    }

    #[test]
    fn cohen_d_infinite_for_constant_shift() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.0, 1.0, 2.0];
        assert_eq!(cohen_d_paired(&a, &b), f64::INFINITY);
    }

    #[test]
    fn confusion_rates() {
        let mut c = Confusion2::default();
        for _ in 0..423 {
            c.record(true, true);
        }
        for _ in 0..40 {
            c.record(true, false);
        }
        for _ in 0..3515 {
            c.record(false, false);
        }
        // This is the paper's Table VI(a): FN rate 40/463 = 8.639%.
        assert_eq!(c.total(), 3978);
        assert!((c.false_negative_rate() - 0.08639).abs() < 1e-4);
        assert_eq!(c.false_positive_rate(), 0.0);
        // Paper reports kappa = 0.949 for diseases.
        assert!((c.kappa() - 0.949).abs() < 5e-3, "kappa = {}", c.kappa());
    }

    #[test]
    fn kappa_perfect_agreement() {
        let m = [[10u64, 0], [0, 10]];
        assert_eq!(cohen_kappa(&m), 1.0);
    }

    #[test]
    fn kappa_chance_agreement_is_zero() {
        // Independent raters: each cell proportional to product of marginals.
        let m = [[25u64, 25], [25, 25]];
        assert!((cohen_kappa(&m)).abs() < 1e-12);
    }

    #[test]
    fn kappa_degenerate_constant_raters() {
        let m = [[100u64, 0], [0, 0]];
        assert_eq!(cohen_kappa(&m), 1.0);
    }

    #[test]
    fn kappa_empty_is_nan() {
        let m = [[0u64, 0], [0, 0]];
        assert!(cohen_kappa(&m).is_nan());
    }

    #[test]
    fn kappa_three_by_three() {
        // Known example: po = 0.7, pe computed from marginals.
        let m = [[30u64, 5, 5], [5, 20, 5], [5, 5, 20]];
        let k = cohen_kappa(&m);
        assert!(k > 0.5 && k < 0.7, "kappa = {k}");
    }
}
