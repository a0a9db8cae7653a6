//! Property-based tests for the numerics substrate.

use mic_stats::dist::{normal_cdf, student_t_cdf, AliasTable};
use mic_stats::linalg::Mat;
use mic_stats::ranking::{average_precision_at_k, ndcg_at_k_binary};
use mic_stats::special::{beta_inc, erf, erfc, ln_gamma};
use mic_stats::{mean, quantile, rmse, sample_sd, Summary};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..max_len)
}

proptest! {
    #[test]
    fn ln_gamma_recurrence(x in 0.1..50.0f64) {
        // Gamma(x+1) = x * Gamma(x)  =>  ln_gamma(x+1) = ln(x) + ln_gamma(x).
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn beta_inc_monotone_in_x(a in 0.2..20.0f64, b in 0.2..20.0f64, x1 in 0.0..1.0f64, x2 in 0.0..1.0f64) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(beta_inc(a, b, lo) <= beta_inc(a, b, hi) + 1e-12);
    }

    #[test]
    fn beta_inc_in_unit_interval(a in 0.2..20.0f64, b in 0.2..20.0f64, x in 0.0..1.0f64) {
        let v = beta_inc(a, b, x);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn erf_odd_and_bounded(x in -6.0..6.0f64) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
        prop_assert!(erf(x).abs() <= 1.0);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn normal_cdf_monotone(mu in -10.0..10.0f64, sd in 0.1..10.0f64, a in -50.0..50.0f64, b in -50.0..50.0f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(normal_cdf(lo, mu, sd) <= normal_cdf(hi, mu, sd) + 1e-12);
    }

    #[test]
    fn t_cdf_bounded_and_symmetric(t in -30.0..30.0f64, df in 1.0..200.0f64) {
        let c = student_t_cdf(t, df);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!((student_t_cdf(t, df) + student_t_cdf(-t, df) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_consistent_with_naive(xs in finite_vec(200)) {
        let s = Summary::of(&xs);
        prop_assert!((s.mean - mean(&xs)).abs() < 1e-6 * (1.0 + s.mean.abs()));
        if xs.len() > 1 {
            prop_assert!((s.sd - sample_sd(&xs)).abs() < 1e-6 * (1.0 + s.sd.abs()));
        }
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
    }

    #[test]
    fn quantile_within_range(xs in finite_vec(100), q in 0.0..1.0f64) {
        let v = quantile(&xs, q);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-12 && v <= max + 1e-12);
    }

    #[test]
    fn rmse_nonnegative_and_zero_iff_equal(xs in finite_vec(100)) {
        prop_assert_eq!(rmse(&xs, &xs), 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + 1.0).collect();
        prop_assert!((rmse(&xs, &shifted) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alias_table_only_emits_positive_weight_indices(
        weights in prop::collection::vec(0.0..10.0f64, 1..50),
        seed in 0u64..1000,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 1e-9);
        let table = AliasTable::new(&weights);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = table.sample(&mut rng);
            prop_assert!(i < weights.len());
            // An index with zero weight must (almost) never be drawn; the alias
            // construction guarantees exactly never.
            prop_assert!(weights[i] > 0.0, "drew zero-weight index {i}");
        }
    }

    #[test]
    fn ap_and_ndcg_bounded(rel in prop::collection::vec(any::<bool>(), 1..50), k in 1usize..20) {
        let total = rel.iter().filter(|&&r| r).count();
        let ap = average_precision_at_k(&rel, k, total);
        let ndcg = ndcg_at_k_binary(&rel, k, total);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ap));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ndcg));
    }

    #[test]
    fn matmul_associative(seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        use rand::Rng;
        let mut rand_mat = |r: usize, c: usize| {
            let mut m = Mat::zeros(r, c);
            for i in 0..r {
                for j in 0..c {
                    m[(i, j)] = rng.gen_range(-1.0..1.0);
                }
            }
            m
        };
        let a = rand_mat(3, 4);
        let b = rand_mat(4, 2);
        let c = rand_mat(2, 5);
        let left = &(&a * &b) * &c;
        let right = &a * &(&b * &c);
        for i in 0..3 {
            for j in 0..5 {
                prop_assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-10);
            }
        }
    }
}
