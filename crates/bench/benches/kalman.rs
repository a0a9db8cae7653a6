//! Kalman-filter and structural-model fitting benchmarks: the `C_KF` unit
//! of the paper's Table V cost model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mic_statespace::kalman::{kalman_filter, kalman_loglik, FilterWorkspace, SteadyStateOpts};
use mic_statespace::structural::{StructuralParams, StructuralSpec};
use mic_statespace::{fit_structural, FitOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|t| {
            30.0 + 5.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                + mic_stats::dist::sample_normal(&mut rng, 0.0, 1.0)
        })
        .collect()
}

fn bench_filter(c: &mut Criterion) {
    let params = StructuralParams {
        var_eps: 1.0,
        var_level: 0.1,
        var_seasonal: 0.01,
    };
    let mut group = c.benchmark_group("kalman_filter");
    for &t in &[43usize, 86, 172] {
        let ys = series(t, 1);
        // The paper's full model: 13 states (level + 11 seasonal + λ).
        let spec = StructuralSpec::full(t / 2);
        let ssm = spec.build(&params, t);
        group.bench_with_input(BenchmarkId::new("full_model", t), &t, |b, _| {
            b.iter(|| black_box(kalman_filter(&ssm, &ys).loglik));
        });
        let ll = StructuralSpec::local_level().build(&params, t);
        group.bench_with_input(BenchmarkId::new("local_level", t), &t, |b, _| {
            b.iter(|| black_box(kalman_filter(&ll, &ys).loglik));
        });
    }
    group.finish();
}

/// The MLE hot loop evaluates only the log-likelihood, thousands of times
/// per search. This group measures one objective evaluation two ways: the
/// full filter (rebuild the SSM from the spec and materialise a
/// `FilterResult`) and the fast path (`apply_params` pokes the variances
/// into a prebuilt SSM, `kalman_loglik` reuses one `FilterWorkspace`).
fn bench_loglik_path(c: &mut Criterion) {
    let params = StructuralParams {
        var_eps: 1.0,
        var_level: 0.1,
        var_seasonal: 0.01,
    };
    let mut group = c.benchmark_group("loglik_path");
    for &t in &[43usize, 86, 172] {
        let ys = series(t, 1);
        let spec = StructuralSpec::full(t / 2);
        group.bench_with_input(BenchmarkId::new("build_filter", t), &t, |b, _| {
            b.iter(|| {
                let ssm = spec.build(black_box(&params), t);
                black_box(kalman_filter(&ssm, &ys).loglik)
            });
        });
        let mut ssm = spec.build(&params, t);
        let mut ws = FilterWorkspace::new(spec.state_dim());
        group.bench_with_input(BenchmarkId::new("apply_loglik_fast", t), &t, |b, _| {
            b.iter(|| {
                spec.apply_params(black_box(&params), &mut ssm);
                black_box(kalman_loglik(
                    &ssm,
                    &ys,
                    &mut ws,
                    &SteadyStateOpts::DISABLED,
                ))
            });
        });
    }
    group.finish();
}

fn bench_mle_fit(c: &mut Criterion) {
    let ys = series(43, 2);
    let opts = FitOptions {
        max_evals: 150,
        n_starts: 1,
        ..FitOptions::default()
    };
    let mut group = c.benchmark_group("structural_mle");
    group.sample_size(10);
    group.bench_function("LL_T43", |b| {
        b.iter(|| black_box(fit_structural(&ys, StructuralSpec::local_level(), &opts).aic));
    });
    group.bench_function("LL+S_T43", |b| {
        b.iter(|| black_box(fit_structural(&ys, StructuralSpec::with_seasonal(), &opts).aic));
    });
    group.bench_function("LL+S+I_T43", |b| {
        b.iter(|| black_box(fit_structural(&ys, StructuralSpec::full(20), &opts).aic));
    });
    group.finish();
}

criterion_group!(benches, bench_filter, bench_loglik_path, bench_mle_fit);
criterion_main!(benches);
