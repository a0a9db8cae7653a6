//! Figure 3 — factors affecting monthly prescription counts:
//! (a) disease seasonality, (b) a newly released medicine, (c) an existing
//! medicine gaining a new indication.

use mic_experiments::output::{print_series, section};
use mic_experiments::{indication_world, new_medicine_world, reproduce, seasonal_world, simulate};

fn main() {
    // (a) Seasonality.
    let s = seasonal_world(600);
    let ds = simulate(&s.world, 3);
    let panel = reproduce(&ds);
    section("Fig. 3a — prescriptions for seasonal diseases");
    let pair = |d, m| {
        panel
            .prescription_series(d, m)
            .map(<[f64]>::to_vec)
            .unwrap_or_default()
    };
    let hay = pair(s.hay_fever, s.antihistamine);
    let heat = pair(s.heatstroke, s.rehydrator);
    let flu = pair(s.influenza, s.antiviral);
    print_series("hay fever / antihistamine", &hay);
    print_series("heatstroke / rehydration", &heat);
    print_series("influenza / anti-influenza", &flu);
    // Peak-month sanity: arg-max months modulo 12 (window starts in March).
    let argmax = |xs: &[f64]| {
        xs.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    println!(
        "peak months (0 = 2013-03): hay fever t={}, heatstroke t={}, influenza t={}",
        argmax(&hay),
        argmax(&heat),
        argmax(&flu)
    );

    // (b) New medicine release.
    let s = new_medicine_world(600);
    let ds = simulate(&s.world, 4);
    let panel = reproduce(&ds);
    section("Fig. 3b — newly released medicine (release at t=5, 2013-08)");
    for (i, &d) in s.targets.iter().enumerate() {
        let series = panel
            .prescription_series(d, s.new_medicine)
            .map(<[f64]>::to_vec)
            .unwrap_or_else(|| vec![0.0; ds.horizon()]);
        print_series(&format!("target disease {i}"), &series);
        let before: f64 = series[..s.release.index()].iter().sum();
        let after: f64 = series[s.release.index()..].iter().sum();
        println!("  before release: {before:.1}, after: {after:.1}");
        assert!(before < 1e-9, "no prescriptions can precede the release");
        let _ = after;
    }

    // (c) Indication expansion.
    let s = indication_world(600);
    let ds = simulate(&s.world, 5);
    let panel = reproduce(&ds);
    section("Fig. 3c — new indication for an existing medicine (expansion at t=21, 2014-12)");
    let copd = panel
        .prescription_series(s.copd, s.bronchodilator)
        .map(<[f64]>::to_vec)
        .unwrap_or_default();
    let asthma = panel
        .prescription_series(s.asthma, s.bronchodilator)
        .map(<[f64]>::to_vec)
        .unwrap_or_else(|| vec![0.0; ds.horizon()]);
    print_series("COPD (existing indication)", &copd);
    print_series("asthma (new indication)", &asthma);
    let asthma_before: f64 = asthma[..s.expansion.index()].iter().sum();
    let asthma_after: f64 = asthma[s.expansion.index()..].iter().sum();
    println!("asthma prescriptions before/after expansion: {asthma_before:.1} / {asthma_after:.1}");
}
