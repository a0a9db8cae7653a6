//! Instrumentation contract of the full pipeline: `pipeline.*` counters
//! must agree with the `TrendReport`'s own coverage bookkeeping and with the
//! per-series fit counts, and the stage spans must all fire. The `kf.*`
//! evaluation counter also bounds what an incremental append costs.
//!
//! Own integration-test binary (own process): the recorder is global and no
//! other test's metrics may leak in.

use mic_claims::{Simulator, WorldSpec};
use mic_statespace::FitOptions;
use mic_trend::{AnalysisSession, PipelineConfig};

fn small_dataset() -> mic_claims::ClaimsDataset {
    let spec = WorldSpec {
        n_diseases: 10,
        n_medicines: 14,
        n_patients: 150,
        n_hospitals: 4,
        n_cities: 2,
        months: 20,
        n_new_medicines: 1,
        n_generic_entries: 0,
        n_indication_expansions: 0,
        n_price_revisions: 0,
        n_outbreaks: 0,
        n_prevalence_shifts: 0,
        ..WorldSpec::default()
    };
    Simulator::new(&spec.generate(), 42).run()
}

#[test]
fn pipeline_metrics_agree_with_report() {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::enable();
    let ds = small_dataset();
    let config = PipelineConfig {
        seasonal: false, // T = 20 is too short for a 13-state model
        fit: FitOptions {
            max_evals: 150,
            n_starts: 1,
        },
        threads: 4,
        ..Default::default()
    };
    let report = AnalysisSession::from_dataset(&config, &ds)
        .expect("simulated months are sequential")
        .analyze();
    let snap = mic_obs::snapshot();
    mic_obs::disable();

    // Worker threads (threads = 4) published their collectors at join; the
    // admission counters must exactly mirror the report's coverage fields.
    assert_eq!(
        snap.counter("pipeline.series_admitted"),
        report.series.len() as u64
    );
    assert_eq!(
        snap.counter("pipeline.series_dropped"),
        report.series_dropped as u64
    );
    assert_eq!(
        snap.counter("pipeline.series_admitted") + snap.counter("pipeline.series_dropped"),
        report.series_total as u64
    );
    assert!(
        report.series_dropped > 0,
        "the small panel has sparse series"
    );

    // Total fits: the global counter is the sum of every series' own count.
    let fits_sum: u64 = report.series.iter().map(|s| s.fits_performed as u64).sum();
    assert_eq!(snap.counter("pipeline.fits"), fits_sum);
    let per_series = snap.value("pipeline.fits_per_series").expect("recorded");
    assert_eq!(per_series.count, report.series.len() as u64);
    assert_eq!(per_series.sum, fits_sum as f64);

    // Both stages and the classification step timed once (the
    // `pipeline.total` envelope belongs to `mictrend analyze`, whose
    // `--metrics` snapshot tests/cli.rs checks).
    for stage in ["pipeline.stage1", "pipeline.stage2", "pipeline.classify"] {
        assert_eq!(snap.timer(stage).map(|t| t.count), Some(1), "{stage}");
    }

    // The pipeline's work shows up in the layer metrics underneath it: EM
    // ran once per month and the Kalman fleet evaluated likelihoods.
    assert_eq!(snap.counter("em.fits"), ds.months.len() as u64);
    assert!(snap.counter("em.iterations") >= snap.counter("em.fits"));
    assert!(snap.counter("kf.loglik_evals") > 0);
    assert!(snap.counter("kf.fits") >= fits_sum);
}

#[test]
fn disabled_pipeline_records_nothing() {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::disable();
    let ds = small_dataset();
    let config = PipelineConfig {
        seasonal: false,
        fit: FitOptions {
            max_evals: 60,
            n_starts: 1,
        },
        threads: 2,
        ..Default::default()
    };
    let report = AnalysisSession::from_dataset(&config, &ds)
        .expect("simulated months are sequential")
        .analyze();
    assert!(!report.series.is_empty());
    assert!(
        mic_obs::snapshot().is_empty(),
        "instrumented pipeline must record nothing while disabled"
    );
}

#[test]
fn append_costs_under_half_of_a_batch_rerun() {
    // Appending month T+1 to a warm session (one EM fit plus warm-started
    // refits) must cost at most half the likelihood evaluations of a cold
    // batch analysis of all T+1 months. Counting evaluations instead of
    // timing keeps the bound deterministic.
    let _guard = mic_obs::exclusive();
    mic_obs::disable();
    let spec = WorldSpec {
        n_diseases: 10,
        n_medicines: 14,
        n_patients: 120,
        n_hospitals: 4,
        n_cities: 2,
        months: 18,
        ..WorldSpec::default()
    };
    let ds = Simulator::new(&spec.generate(), 42).run();
    let config = PipelineConfig {
        seasonal: false,
        fit: FitOptions {
            max_evals: 120,
            n_starts: 1,
        },
        threads: 1,
        ..Default::default()
    };
    let (head, tail) = ds.months.split_at(ds.months.len() - 1);
    let mut warm = AnalysisSession::new(&config, ds.start, ds.n_diseases, ds.n_medicines);
    warm.append_months(head)
        .expect("simulated months are sequential");
    warm.analyze();

    let evals = |run: &mut dyn FnMut()| {
        mic_obs::reset();
        mic_obs::enable();
        run();
        let snap = mic_obs::snapshot();
        mic_obs::disable();
        snap.counter("kf.loglik_evals")
    };
    let append = evals(&mut || {
        warm.append_month(&tail[0])
            .expect("month T+1 is in sequence");
        warm.analyze();
    });
    let batch = evals(&mut || {
        AnalysisSession::from_dataset(&config, &ds)
            .expect("simulated months are sequential")
            .analyze();
    });
    assert!(batch > 0);
    assert!(
        2 * append <= batch,
        "append {append} vs batch {batch} likelihood evaluations"
    );
}
