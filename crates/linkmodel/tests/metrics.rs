//! `em.capped` counts the EM runs that stop at `max_iters` instead of
//! meeting the tolerance.
//!
//! This lives in its own integration-test binary (own process) so no other
//! test's recording can leak into the global recorder.

use mic_claims::{Simulator, WorldSpec};
use mic_linkmodel::{EmOptions, MedicationModel};

/// `em.capped` after fitting the first three months of a small world.
fn capped_count(opts: &EmOptions) -> u64 {
    let world = WorldSpec {
        n_diseases: 12,
        n_medicines: 16,
        n_patients: 120,
        months: 13,
        ..WorldSpec::default()
    }
    .generate();
    let ds = Simulator::new(&world, 3).run();
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::enable();
    for month in &ds.months[..3] {
        MedicationModel::fit(month, ds.n_diseases, ds.n_medicines, opts);
    }
    let snap = mic_obs::snapshot();
    mic_obs::disable();
    assert_eq!(snap.counter("em.fits"), 3);
    snap.counter("em.capped")
}

#[test]
fn em_capped_counts_every_month_that_hits_max_iters() {
    let opts = EmOptions {
        max_iters: 2,
        tol: 0.0,
        ..EmOptions::default()
    };
    assert_eq!(capped_count(&opts), 3);
}

#[test]
fn em_capped_stays_zero_for_converged_months() {
    let opts = EmOptions {
        max_iters: 100_000,
        tol: 1e-6,
        ..EmOptions::default()
    };
    assert_eq!(capped_count(&opts), 0);
}
