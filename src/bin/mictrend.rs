//! `mictrend` — command-line driver for the prescription trend analysis
//! pipeline.
//!
//! ```text
//! mictrend simulate --out claims.mic [--seed N] [--months N] [--patients N]
//!                   [--diseases N] [--medicines N]
//! mictrend stats    --data claims.mic
//! mictrend analyze  --data claims.mic [--exact] [--no-seasonal] [--top N]
//!                   [--metrics FILE] [--progress]
//! mictrend append   --data claims.mic [--tail N] [--continuity X]
//!                   [--check-batch] [--metrics FILE]
//! mictrend series   --data claims.mic --kind <disease|medicine> --id N
//! ```
//!
//! Datasets are stored in the plain-text format of `mic_claims::store`, so
//! they can be produced here, inspected with standard tools, and consumed by
//! library users.

use prescription_trends::claims::store::{read_dataset, write_dataset};
use prescription_trends::claims::{DatasetStats, DiseaseId, MedicineId, Simulator, WorldSpec};
use prescription_trends::statespace::FitOptions;
use prescription_trends::trend::report::{detected_changes_table, sparkline};
use prescription_trends::trend::{AnalysisSession, PipelineConfig, Stage2Detect};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  mictrend simulate --out FILE [--seed N] [--months N] [--patients N] [--diseases N] [--medicines N]
  mictrend stats    --data FILE
  mictrend analyze  --data FILE [--exact] [--no-seasonal] [--top N] [--metrics FILE] [--progress]
  mictrend append   --data FILE [--tail N] [--continuity X] [--exact] [--no-seasonal] [--check-batch] [--metrics FILE]
  mictrend series   --data FILE --kind disease|medicine --id N

  --metrics FILE  write an instrumentation snapshot (JSONL: em.*, kf.*,
                  pipeline.*, session.* counters/timers plus derived cost units)
  --progress      print a periodic metrics summary to stderr while analysing
  --tail N        (append) hold out the last N months and absorb them one
                  by one, re-analysing after each append (default 3)
  --continuity X  temporal-prior weight chaining consecutive months' EM
                  fits in [0, 1) (default 0 = independent fits)
  --check-batch   (append) re-run the batch pipeline on the full window,
                  report warm-path decision drift, and fail unless a cold
                  re-analysis of the session matches the batch decisions";

/// A subcommand: its name, its handler, the flags it reads as
/// `--name value` pairs, and its boolean switches.
type Command = (
    &'static str,
    fn(&Flags) -> Result<(), String>,
    &'static [&'static str],
    &'static [&'static str],
);

const COMMANDS: &[Command] = &[
    (
        "simulate",
        simulate,
        &["out", "seed", "months", "patients", "diseases", "medicines"],
        &[],
    ),
    ("stats", stats, &["data"], &[]),
    (
        "analyze",
        analyze,
        &["data", "top", "metrics"],
        &["exact", "no-seasonal", "progress"],
    ),
    (
        "append",
        append,
        &["data", "tail", "continuity", "metrics"],
        &["exact", "no-seasonal", "check-batch"],
    ),
    ("series", series, &["data", "kind", "id"], &[]),
];

/// Minimal flag parser: `--name value` pairs plus boolean switches, each
/// declared by the subcommand.
struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], &(command, _, values, switches): &Command) -> Result<Flags, String> {
        let mut flags = Flags {
            values: HashMap::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if switches.contains(&name) {
                flags.switches.push(name.to_string());
                i += 1;
            } else if values.contains(&name) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                flags.values.insert(name.to_string(), value.clone());
                i += 2;
            } else {
                return Err(format!("unknown flag --{name} for {command}"));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: invalid number {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// The pipeline configuration every analysing command runs with, built from
/// its flags (`--exact`, `--no-seasonal`, `--continuity`); a flag the
/// command does not declare reads as absent. The seasonal model needs at
/// least 16 months.
fn pipeline_config(flags: &Flags, horizon: usize) -> Result<PipelineConfig, String> {
    let continuity = flags.get_num("continuity", 0.0f64)?;
    if !(0.0..1.0).contains(&continuity) {
        return Err(format!("--continuity must be in [0, 1), got {continuity}"));
    }
    Ok(PipelineConfig {
        approximate_search: !flags.has("exact"),
        seasonal: !flags.has("no-seasonal") && horizon >= 16,
        continuity,
        fit: FitOptions {
            max_evals: 150,
            n_starts: 1,
        },
        ..Default::default()
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    let Some(spec) = COMMANDS.iter().find(|c| c.0 == command) else {
        return Err(format!("unknown command {command:?}"));
    };
    spec.1(&Flags::parse(rest, spec)?)
}

fn load(flags: &Flags) -> Result<prescription_trends::claims::ClaimsDataset, String> {
    let path = flags.require("data")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_dataset(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn simulate(flags: &Flags) -> Result<(), String> {
    let out = flags.require("out")?;
    let spec = WorldSpec {
        seed: flags.get_num("seed", 7u64)?,
        months: flags.get_num("months", 43u32)?,
        n_patients: flags.get_num("patients", 800usize)?,
        n_diseases: flags.get_num("diseases", 60usize)?,
        n_medicines: flags.get_num("medicines", 90usize)?,
        ..WorldSpec::default()
    };
    spec.validate()?;
    let world = spec.generate();
    let dataset = Simulator::new(&world, spec.seed ^ 0x51d).run();
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_dataset(&dataset, BufWriter::new(file)).map_err(|e| format!("write failed: {e}"))?;
    println!(
        "wrote {} records over {} months to {out}",
        dataset.total_records(),
        dataset.horizon()
    );
    Ok(())
}

fn stats(flags: &Flags) -> Result<(), String> {
    let dataset = load(flags)?;
    println!("{}", DatasetStats::compute(&dataset));
    Ok(())
}

/// One-line metrics digest for `--progress`.
fn progress_line(s: &mic_obs::Snapshot, elapsed: std::time::Duration) -> String {
    let done = s
        .value("pipeline.fits_per_series")
        .map(|v| v.count)
        .unwrap_or(0);
    format!(
        "[{:>6.1}s] series done {done} | fits {} | em iters {} | kf evals {} | C_EM {} | C_KF {}",
        elapsed.as_secs_f64(),
        s.counter("pipeline.fits"),
        s.counter("em.iterations"),
        s.counter("kf.loglik_evals"),
        mic_obs::format_ns(s.timer("em.step").map_or(f64::NAN, |t| t.mean_ns())),
        mic_obs::format_ns(s.timer("kf.loglik").map_or(f64::NAN, |t| t.mean_ns())),
    )
}

/// Snapshot with the Table V cost units attached: `C_EM` = mean wall time of
/// an EM step, `C_KF` = mean wall time of one Kalman likelihood evaluation.
fn snapshot_with_cost_units() -> mic_obs::Snapshot {
    let mut snap = mic_obs::snapshot();
    let c_em = snap.timer("em.step").map(|t| t.mean_ns());
    let c_kf = snap.timer("kf.loglik").map(|t| t.mean_ns());
    if let Some(v) = c_em {
        snap.add_derived("em.cost_unit_ns", v);
    }
    if let Some(v) = c_kf {
        snap.add_derived("kf.cost_unit_ns", v);
    }
    snap
}

fn analyze(flags: &Flags) -> Result<(), String> {
    let dataset = load(flags)?;
    let top: usize = flags.get_num("top", 15usize)?;
    let metrics_path = flags.get("metrics").map(str::to_string);
    let progress = flags.has("progress");
    if metrics_path.is_some() || progress {
        mic_obs::enable();
    }
    let config = pipeline_config(flags, dataset.horizon())?;
    eprintln!(
        "analysing {} months with {} change-point search...",
        dataset.horizon(),
        if config.approximate_search {
            "screened (every candidate at the baseline's variances, best 2 fitted; \
             Algorithm 2 below 24 scored months)"
        } else {
            "exhaustive (Algorithm 1)"
        }
    );
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = progress.then(|| {
        let stop = Arc::clone(&stop);
        let started = Instant::now();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(1000));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                eprintln!("{}", progress_line(&mic_obs::snapshot(), started.elapsed()));
            }
        })
    });
    let report = {
        let _span = mic_obs::span("pipeline.total");
        AnalysisSession::from_dataset(&config, &dataset).map(|mut session| session.analyze())
    };
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = ticker {
        let _ = handle.join();
    }
    let report = report.map_err(|e| e.to_string())?;
    if let Some(path) = &metrics_path {
        let snap = snapshot_with_cost_units();
        std::fs::write(path, snap.to_jsonl())
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }
    let (rd, rm, rp) = report.detection_rates();
    println!(
        "series analysed: {} of {} ({} dropped by the total-frequency filter; coverage {:.1}%)",
        report.series.len(),
        report.series_total,
        report.series_dropped,
        100.0 * report.coverage()
    );
    println!(
        "change rates: disease {:.1}%, medicine {:.1}%, prescription {:.1}%",
        100.0 * rd,
        100.0 * rm,
        100.0 * rp
    );
    println!();
    println!(
        "{}",
        detected_changes_table(&report.detected(), top).render()
    );
    if !report.causes.is_empty() {
        println!("causes of prescription-level changes:");
        for (key, cause) in report.causes.iter().take(top) {
            println!("  {key}: {cause}");
        }
    }
    Ok(())
}

/// Incremental-session driver: warm up on all but the last `--tail N`
/// months, then absorb the held-out months one by one, re-analysing after
/// each append. Demonstrates (and measures) the session's warm-started EM
/// and cached Stage-2 fits; `--check-batch` reports how far the warm-path
/// decisions drift from a fresh batch run, then pins a cold re-analysis of
/// the session to the batch decisions exactly.
fn append(flags: &Flags) -> Result<(), String> {
    let dataset = load(flags)?;
    let tail: usize = flags.get_num("tail", 3usize)?;
    let metrics_path = flags.get("metrics").map(str::to_string);
    // Session counters (cache hits, warm fits, append spans) are the whole
    // point of this command, so instrumentation is always on.
    mic_obs::enable();
    let config = pipeline_config(flags, dataset.horizon())?;
    let horizon = dataset.horizon();
    if tail == 0 || tail >= horizon {
        return Err(format!(
            "--tail must be in 1..{horizon} (the dataset holds {horizon} months)"
        ));
    }
    let split = horizon - tail;
    let mut session = AnalysisSession::new(
        &config,
        dataset.start,
        dataset.n_diseases,
        dataset.n_medicines,
    );
    let warmup = Instant::now();
    session
        .append_months(&dataset.months[..split])
        .map_err(|e| e.to_string())?;
    let mut report = session.analyze();
    eprintln!(
        "warm-up: {split} months analysed in {:.2}s ({} series, {} cached)",
        warmup.elapsed().as_secs_f64(),
        report.series.len(),
        session.cached_series()
    );
    let mut before = mic_obs::snapshot();
    for month in &dataset.months[split..] {
        let t = Instant::now();
        session.append_month(month).map_err(|e| e.to_string())?;
        report = session.analyze();
        let after = mic_obs::snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        println!(
            "appended month {} in {:.2}s: {} series, {} changed | cache hits {} misses {} (warm {} cold {})",
            session.horizon() - 1,
            t.elapsed().as_secs_f64(),
            report.series.len(),
            report.detected().len(),
            delta("session.cache_hits"),
            delta("session.cache_misses"),
            delta("session.warm_fits"),
            delta("session.cold_fits"),
        );
        before = after;
    }
    // A second analysis of the (now unchanged) window is served entirely
    // from the fit cache — repeated queries against a live session are free.
    let t = Instant::now();
    report = session.analyze();
    let after = mic_obs::snapshot();
    println!(
        "re-analysis of the unchanged window in {:.3}s: {} of {} series from cache",
        t.elapsed().as_secs_f64(),
        after.counter("session.cache_hits") - before.counter("session.cache_hits"),
        report.series.len(),
    );
    let snap = snapshot_with_cost_units();
    println!(
        "session totals: {} appends | cache hits {} misses {} | warm fits {} cold fits {}",
        snap.counter("session.appends"),
        snap.counter("session.cache_hits"),
        snap.counter("session.cache_misses"),
        snap.counter("session.warm_fits"),
        snap.counter("session.cold_fits"),
    );
    if let Some(path) = &metrics_path {
        std::fs::write(path, snap.to_jsonl())
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }
    if flags.has("check-batch") {
        let batch = AnalysisSession::from_dataset(&config, &dataset)
            .map_err(|e| e.to_string())?
            .analyze();
        // Warm refits can land on slightly different likelihood optima than
        // a cold batch fit, so decisions near the AIC boundary may drift.
        // Report that drift, then verify the incremental Stage-1 state the
        // strict way: a cold re-analysis of the session must reproduce the
        // batch report exactly, because both run the identical search over
        // the identical panel.
        let drift = batch
            .series
            .iter()
            .zip(&report.series)
            .filter(|(b, i)| b.key != i.key || b.change_point != i.change_point)
            .count();
        println!(
            "check-batch: warm-path decisions drift from batch on {drift} of {} series",
            report.series.len()
        );
        session.clear_cache();
        let cold = session.analyze();
        if batch.series.len() != cold.series.len() {
            return Err(format!(
                "incremental vs batch: {} series vs {}",
                cold.series.len(),
                batch.series.len()
            ));
        }
        let mut mismatches = 0usize;
        for (b, i) in batch.series.iter().zip(&cold.series) {
            if b.key != i.key || b.change_point != i.change_point {
                eprintln!(
                    "mismatch {}: batch {} vs incremental {}",
                    b.key, b.change_point, i.change_point
                );
                mismatches += 1;
            }
        }
        if mismatches > 0 {
            return Err(format!(
                "incremental (cold) vs batch decisions differ on {mismatches} of {} series",
                cold.series.len()
            ));
        }
        println!(
            "check-batch: cold re-analysis matches the batch run on all {} series",
            cold.series.len()
        );
    }
    Ok(())
}

fn series(flags: &Flags) -> Result<(), String> {
    let kind = flags.require("kind")?;
    let id = flags.require("id")?;
    let id: u32 = id
        .parse()
        .map_err(|_| format!("--id: invalid number {id:?}"))?;
    let dataset = load(flags)?;
    let config = pipeline_config(flags, dataset.horizon())?;
    let session = AnalysisSession::from_dataset(&config, &dataset).map_err(|e| e.to_string())?;
    let panel = session.panel();
    let (key, ys) = match kind {
        "disease" => {
            if id as usize >= dataset.n_diseases {
                return Err(format!("disease id {id} out of range"));
            }
            (
                prescription_trends::linkmodel::SeriesKey::Disease(DiseaseId(id)),
                panel.disease_series(DiseaseId(id)).to_vec(),
            )
        }
        "medicine" => {
            if id as usize >= dataset.n_medicines {
                return Err(format!("medicine id {id} out of range"));
            }
            (
                prescription_trends::linkmodel::SeriesKey::Medicine(MedicineId(id)),
                panel.medicine_series(MedicineId(id)).to_vec(),
            )
        }
        other => return Err(format!("--kind must be disease or medicine, got {other:?}")),
    };
    println!("{key}: {}", sparkline(&ys));
    for (t, v) in ys.iter().enumerate() {
        println!(
            "{} {v:.2}",
            dataset.calendar(prescription_trends::claims::Month(t as u32))
        );
    }
    if ys.iter().sum::<f64>() >= 10.0 {
        let report = Stage2Detect::from_config(&config).analyze_series(key, &ys);
        println!(
            "change point: {} (AIC gain {:.2}, lambda {:+.3})",
            report.change_point,
            report.aic_gain(),
            report.lambda
        );
    } else {
        println!("series too sparse for change-point analysis (total < 10)");
    }
    Ok(())
}
