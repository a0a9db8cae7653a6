//! End-to-end pipeline benchmark: simulate → EM panel → change detection,
//! the full Fig. 1 flow at small scale, both stages driven through an
//! `AnalysisSession`: Stage 1 is `AnalysisSession::from_dataset`, Stage 2 a
//! cold re-analysis (`clear_cache` + `analyze`) of a warm session.

use criterion::{criterion_group, criterion_main, Criterion};
use mic_claims::{Simulator, WorldSpec};
use mic_statespace::FitOptions;
use mic_trend::{AnalysisSession, PipelineConfig};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let spec = WorldSpec {
        n_diseases: 10,
        n_medicines: 14,
        n_patients: 120,
        n_hospitals: 4,
        n_cities: 2,
        months: 18,
        ..WorldSpec::default()
    };
    let world = spec.generate();
    let ds = Simulator::new(&world, 42).run();
    let config = PipelineConfig {
        seasonal: false,
        fit: FitOptions {
            max_evals: 120,
            n_starts: 1,
            ..FitOptions::default()
        },
        threads: 1,
        ..Default::default()
    };
    let stage1 = || AnalysisSession::from_dataset(&config, &ds).unwrap();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("stage1_from_dataset", |b| {
        b.iter(|| black_box(stage1().panel().n_prescription_series()));
    });
    let mut session = stage1();
    group.bench_function("stage2_cold_analyze", |b| {
        b.iter(|| {
            session.clear_cache();
            black_box(session.analyze().series.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
