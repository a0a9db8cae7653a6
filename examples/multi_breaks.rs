//! Extensions tour: features beyond the paper's core method that its
//! Discussion section proposes —
//!
//! 1. **multiple change points** ("state space models can accept more than
//!    one intervention variable"): greedy AIC-forward detection of several
//!    slope shifts in one series;
//! 2. **temporal tracking of Φ** (the Dynamic-Topic-Model direction):
//!    monthly medication models that share statistical strength across
//!    consecutive months;
//! 3. **forecast intervals**: prediction bands from the Kalman recursion.
//!
//! Run with: `cargo run --release --example multi_breaks`

use prescription_trends::claims::{Simulator, WorldSpec};
use prescription_trends::linkmodel::{EmOptions, EmWorkspace, MedicationModel};
use prescription_trends::statespace::multi::detect_multiple;
use prescription_trends::statespace::{fit_structural, FitOptions, StructuralSpec};
use prescription_trends::trend::report::sparkline;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // ---- 1. Multiple change points -------------------------------------
    // A medicine that launches (up-slope at t=10) and later loses a price
    // subsidy (down-slope at t=30).
    let mut rng = SmallRng::seed_from_u64(3);
    let ys: Vec<f64> = (0..48)
        .map(|t| {
            let w1 = if t >= 10 { (t - 10 + 1) as f64 } else { 0.0 };
            let w2 = if t >= 30 { (t - 30 + 1) as f64 } else { 0.0 };
            30.0 + 2.0 * w1 - 3.0 * w2
                + prescription_trends::stats::dist::sample_normal(&mut rng, 0.0, 1.0)
        })
        .collect();
    println!("--- multiple change points (planted: +slope@10, -slope@30) ---");
    println!("series: {}", sparkline(&ys));
    let opts = FitOptions {
        max_evals: 200,
        n_starts: 1,
    };
    let multi = detect_multiple(&ys, false, 3, &opts).expect("48 months is long enough");
    for (t, lambda) in &multi.points {
        println!("detected change at t={t} with slope shift λ = {lambda:+.2}");
    }
    println!(
        "AIC trace by number of change points: {:?}\n",
        multi
            .aic_trace
            .iter()
            .map(|a| (a * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );

    // ---- 2. Tracked monthly medication models --------------------------
    let spec = WorldSpec {
        months: 16,
        n_diseases: 15,
        n_medicines: 20,
        n_patients: 80, // deliberately sparse months
        ..WorldSpec::default()
    };
    let world = spec.generate();
    let ds = Simulator::new(&world, 5).run();
    let em = EmOptions::default();
    let independent: Vec<MedicationModel> = ds
        .months
        .iter()
        .map(|m| MedicationModel::fit(m, ds.n_diseases, ds.n_medicines, &em))
        .collect();
    // Tracked fits: each month's independent fit refined under the previous
    // month's Φ as a temporal prior.
    let mut ws = EmWorkspace::new();
    let mut tracked: Vec<MedicationModel> = Vec::new();
    for month in &ds.months {
        let mut next =
            MedicationModel::fit_with(month, ds.n_diseases, ds.n_medicines, &em, &mut ws);
        if let Some(prev) = tracked.last() {
            next.refine_next(month, prev, 0.6, &em, &mut ws);
        }
        tracked.push(next);
    }
    // Compare month-to-month stability of φ rows (tracked should drift less).
    let drift = |models: &[MedicationModel]| -> f64 {
        let mut total = 0.0;
        let mut count = 0.0f64;
        for w in models.windows(2) {
            for d in 0..ds.n_diseases {
                let id = prescription_trends::claims::DiseaseId(d as u32);
                for (m, p) in w[1].phi_row(id) {
                    total += (p - w[0].phi_prob(id, m)).abs();
                    count += 1.0;
                }
            }
        }
        total / count.max(1.0)
    };
    println!("--- tracked EM (continuity = 0.6) on sparse months ---");
    println!(
        "mean month-to-month |Δφ|: independent {:.4}, tracked {:.4}",
        drift(&independent),
        drift(&tracked)
    );

    // ---- 3. Forecast intervals -----------------------------------------
    println!("\n--- forecast intervals (seasonal series, 12-month horizon) ---");
    let mut rng = SmallRng::seed_from_u64(9);
    let seasonal: Vec<f64> = (0..48)
        .map(|t| {
            60.0 + 15.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                + prescription_trends::stats::dist::sample_normal(&mut rng, 0.0, 2.0)
        })
        .collect();
    let train = &seasonal[..36];
    let fit = fit_structural(
        train,
        StructuralSpec::with_seasonal(),
        &FitOptions::default(),
    );
    let fc = fit.forecast_with_variance(train, 12);
    let mut inside = 0;
    for (j, (mean, var)) in fc.iter().enumerate() {
        let sd = var.sqrt();
        let actual = seasonal[36 + j];
        let hit = (actual - mean).abs() <= 1.96 * sd;
        if hit {
            inside += 1;
        }
        println!(
            "h={:>2}: forecast {:6.1} ± {:4.1}  actual {:6.1}  {}",
            j + 1,
            mean,
            1.96 * sd,
            actual,
            if hit { "✓" } else { "✗" }
        );
    }
    println!("{inside}/12 actuals inside the 95% band");
}
