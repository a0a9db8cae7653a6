//! Forecasting future prescriptions (the paper's Section VIII-B2 use case):
//! detect a series' change point on a training window, then extrapolate
//! with the fitted structural model — and compare against AIC-selected
//! ARIMA.
//!
//! Run with: `cargo run --release --example forecasting`

use prescription_trends::claims::{Simulator, WorldSpec};
use prescription_trends::linkmodel::{reproduce_panel, EmOptions};
use prescription_trends::statespace::forecast::{compare_forecasts, ForecastOptions};
use prescription_trends::trend::report::sparkline;

fn main() {
    // Simulate a world with planted events, reproduce medicine series.
    let spec = WorldSpec {
        months: 43,
        n_diseases: 20,
        n_medicines: 30,
        n_patients: 450,
        n_new_medicines: 2,
        n_generic_entries: 1,
        n_indication_expansions: 1,
        ..WorldSpec::default()
    };
    let world = spec.generate();
    let dataset = Simulator::new(&world, 55).run();
    let panel = reproduce_panel(
        &dataset.months,
        dataset.n_diseases,
        dataset.n_medicines,
        &EmOptions::default(),
    );

    // Forecast the busiest medicine series: train on 31 months, predict 12.
    let mut candidates: Vec<(usize, f64)> = (0..dataset.n_medicines)
        .map(|m| {
            let s = panel.medicine_series(prescription_trends::claims::MedicineId(m as u32));
            (m, s.iter().sum::<f64>())
        })
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!("train = 31 months, horizon = 12 months, series min–max normalised\n");
    let mut struct_wins = 0;
    let mut shown = 0;
    for &(m, total) in candidates.iter().take(6) {
        if total < 50.0 {
            continue;
        }
        let id = prescription_trends::claims::MedicineId(m as u32);
        let ys = panel.medicine_series(id).to_vec();
        let comparison = compare_forecasts(&ys, 31, &ForecastOptions::default());
        shown += 1;
        if comparison.structural_rmse <= comparison.arima_rmse {
            struct_wins += 1;
        }
        println!("medicine {}: {}", world.medicines[m].name, sparkline(&ys));
        println!(
            "  actual tail: {}  structural: {}  ARIMA: {}",
            sparkline(&comparison.actual),
            sparkline(&comparison.structural),
            sparkline(&comparison.arima)
        );
        println!(
            "  RMSE — structural {:.3} vs ARIMA {:.3} → {}",
            comparison.structural_rmse,
            comparison.arima_rmse,
            if comparison.structural_rmse <= comparison.arima_rmse {
                "structural wins"
            } else {
                "ARIMA wins"
            }
        );
    }
    println!("\nstructural model wins on {struct_wins}/{shown} series");
}
