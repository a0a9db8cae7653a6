//! Probability distributions with seeded sampling.
//!
//! The offline `rand` crate carries only uniform primitives, so the samplers
//! the claims simulator needs (normal, gamma, Poisson, categorical via the
//! alias method) are implemented here, along with the density/CDF functions
//! the state-space likelihoods and t-tests need.

use crate::special::{beta_inc, erf};
use rand::Rng;

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// Log-density of `N(mean, sd²)` at `x`. This is the Kalman filter's
/// innovation likelihood kernel.
pub fn normal_ln_pdf(x: f64, mean: f64, sd: f64) -> f64 {
    assert!(sd > 0.0, "normal_ln_pdf requires sd > 0");
    let z = (x - mean) / sd;
    -LN_SQRT_2PI - sd.ln() - 0.5 * z * z
}

/// CDF of `N(mean, sd²)` at `x`.
pub fn normal_cdf(x: f64, mean: f64, sd: f64) -> f64 {
    assert!(sd > 0.0, "normal_cdf requires sd > 0");
    0.5 * (1.0 + erf((x - mean) / (sd * std::f64::consts::SQRT_2)))
}

/// CDF of the chi-square distribution with `k` degrees of freedom:
/// `P(k/2, x/2)` via the regularised incomplete gamma.
pub fn chi_square_cdf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi_square_cdf requires k > 0");
    if x <= 0.0 {
        return 0.0;
    }
    crate::special::gamma_inc_lower_reg(0.5 * k, 0.5 * x)
}

/// CDF of Student's t distribution with `df` degrees of freedom.
///
/// Uses the incomplete-beta identity
/// `P(T ≤ t) = 1 − ½·I_{df/(df+t²)}(df/2, ½)` for `t ≥ 0`.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "student_t_cdf requires df > 0");
    if t == 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    let tail = 0.5 * beta_inc(0.5 * df, 0.5, x);
    if t > 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Two-sided p-value for a t statistic with `df` degrees of freedom.
pub fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    2.0 * (1.0 - student_t_cdf(t.abs(), df))
}

/// Draw a standard-normal variate (Marsaglia polar method).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draw from `N(mean, sd²)`.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    assert!(sd >= 0.0);
    mean + sd * sample_standard_normal(rng)
}

/// Draw from `Gamma(shape, scale)` using Marsaglia–Tsang, with the
/// `shape < 1` boost.
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(
        shape > 0.0 && scale > 0.0,
        "gamma requires positive shape/scale"
    );
    if shape < 1.0 {
        // Boost: X ~ Gamma(a+1), U^{1/a} * X ~ Gamma(a).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(rng, shape + 1.0, scale) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v * scale;
        }
    }
}

/// Draw from `Poisson(lambda)`. Uses Knuth's product method for small
/// `lambda` and normal approximation with continuity correction (clamped at
/// zero) above 30, which is ample for count simulation.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0);
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen_range(0.0..1.0_f64);
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = sample_normal(rng, lambda, lambda.sqrt());
        x.round().max(0.0) as u64
    }
}

/// Categorical sampler over a fixed probability vector, using Walker's alias
/// method: O(n) preprocessing, O(1) per draw. The claims simulator draws
/// millions of diseases/medicines per run, so constant-time sampling matters.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build from non-negative weights (need not be normalised).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/NaN value, or sums
    /// to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "AliasTable requires at least one weight"
        );
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(
                    w >= 0.0 && w.is_finite(),
                    "weights must be finite and non-negative"
                );
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let n = weights.len();
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut prob = vec![1.0; n];
        let mut alias = vec![0usize; n];
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Remaining entries get probability 1 (numerical leftovers).
        AliasTable { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no categories (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen_range(0.0..1.0_f64) < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Draw a category index from unnormalised weights via linear scan — use for
/// one-off draws where building an [`AliasTable`] is not worth it.
pub fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0,
        "sample_categorical requires positive total weight"
    );
    let mut u = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn normal_pdf_peak() {
        assert!((normal_ln_pdf(0.0, 0.0, 1.0).exp() - 0.398_942_280_401_432_7).abs() < 1e-12);
        assert!((normal_ln_pdf(1.0, 0.0, 1.0) - (-1.418_938_533_204_672_7)).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 1e-12);
        assert!((normal_cdf(1.96, 0.0, 1.0) - 0.975_002_104_851_780_4).abs() < 1e-7);
        for &x in &[-2.0, -0.5, 0.3, 1.7] {
            let a = normal_cdf(x, 0.0, 1.0);
            let b = normal_cdf(-x, 0.0, 1.0);
            assert!((a + b - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn t_cdf_matches_tables() {
        // t(df=10): P(T <= 1.812) ~= 0.95.
        assert!((student_t_cdf(1.812, 10.0) - 0.95).abs() < 1e-3);
        // t(df=1) is Cauchy: P(T <= 1) = 0.75.
        assert!((student_t_cdf(1.0, 1.0) - 0.75).abs() < 1e-10);
        // Symmetry.
        assert!((student_t_cdf(-2.0, 7.0) + student_t_cdf(2.0, 7.0) - 1.0).abs() < 1e-12);
        // Large df approaches normal.
        assert!((student_t_cdf(1.96, 1e6) - 0.975).abs() < 1e-4);
    }

    #[test]
    fn two_sided_p_known() {
        // |t| = 2.228, df = 10 → p ≈ 0.05.
        assert!((student_t_two_sided_p(2.228, 10.0) - 0.05).abs() < 1e-3);
    }

    #[test]
    fn normal_sample_moments() {
        let mut r = rng();
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_normal(&mut r, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn gamma_sample_moments() {
        let mut r = rng();
        let (shape, scale) = (2.5, 1.5);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_gamma(&mut r, shape, scale)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - shape * scale).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn gamma_small_shape_positive() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = sample_gamma(&mut r, 0.3, 1.0);
            assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn poisson_sample_mean() {
        let mut r = rng();
        for &lambda in &[0.5, 4.0, 60.0] {
            let n = 20_000;
            let mean = (0..n)
                .map(|_| sample_poisson(&mut r, lambda) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda.max(1.0) + 0.05,
                "lambda {lambda} mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = rng();
        assert_eq!(sample_poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn alias_table_frequencies() {
        let mut r = rng();
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let n = 100_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[table.sample(&mut r)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / 10.0;
            let got = c as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "idx {i}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn alias_table_degenerate() {
        let mut r = rng();
        let table = AliasTable::new(&[0.0, 5.0, 0.0]);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut r), 1);
        }
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn alias_table_all_zero_panics() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn categorical_linear_scan() {
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_categorical(&mut r, &[1.0, 1.0, 2.0])] += 1;
        }
        assert!((counts[2] as f64 / 30_000.0 - 0.5).abs() < 0.02);
    }
}
