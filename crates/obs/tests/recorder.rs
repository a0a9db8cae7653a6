//! Integration tests for the global recorder: concurrent publish/merge,
//! the disabled fast path, and the snapshot of a real session.
//!
//! Every test takes [`mic_obs::exclusive`] for its whole body — the recorder
//! is process-wide state and the test harness runs tests in parallel.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const N_THREADS: u64 = 8;
const N_RECORDS: u64 = 200;

/// One full concurrent recording session; returns the merged snapshot.
fn concurrent_session() -> mic_obs::Snapshot {
    mic_obs::reset();
    mic_obs::enable();
    let handles: Vec<_> = (0..N_THREADS)
        .map(|id| {
            std::thread::spawn(move || {
                for _ in 0..N_RECORDS {
                    mic_obs::counter("conc.items", id + 1);
                    // Deterministic durations: thread `id` always records
                    // (id+1) µs, so bucket counts and totals are exact.
                    mic_obs::record_duration("conc.work", Duration::from_micros(id + 1));
                }
                // No explicit flush: the thread-local collector publishes
                // itself to the cumulative snapshot when the thread exits.
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = mic_obs::snapshot();
    mic_obs::disable();
    snap
}

#[test]
fn concurrent_merge_is_exact_and_deterministic() {
    let _guard = mic_obs::exclusive();
    let snap = concurrent_session();

    // Counter total: sum over threads of (id+1) * N_RECORDS.
    let expected: u64 = (1..=N_THREADS).map(|k| k * N_RECORDS).sum();
    assert_eq!(snap.counter("conc.items"), expected);

    let t = snap.timer("conc.work").expect("timer recorded");
    assert_eq!(t.count, N_THREADS * N_RECORDS);
    let expected_ns: u64 = (1..=N_THREADS).map(|k| k * 1_000 * N_RECORDS).sum();
    assert_eq!(t.total_ns, expected_ns);
    assert_eq!(t.min_ns, 1_000);
    assert_eq!(t.max_ns, 8_000);
    assert_eq!(t.buckets.iter().sum::<u64>(), t.count);

    // Same workload again: counters and timers merge with integer
    // arithmetic, so the result is identical regardless of the order in
    // which the 8 collectors happened to be published.
    let again = concurrent_session();
    assert_eq!(again, snap);
}

#[test]
fn worker_threads_merge_without_explicit_flush() {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::enable();
    // Workers record and exit without flushing; the coordinating thread
    // joins each handle, then snapshots. A handle's `join()` waits for the
    // worker's thread-local destructors, which publish its collector. The
    // scope's implicit join does not wait for them, so the handles are
    // joined explicitly.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..N_THREADS)
            .map(|_| s.spawn(|| mic_obs::counter("scoped.done", 1)))
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
    });
    let snap = mic_obs::snapshot();
    mic_obs::disable();
    assert_eq!(snap.counter("scoped.done"), N_THREADS);
}

#[test]
fn disabled_recorder_is_a_no_op_across_threads() {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::disable();
    let calls = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..N_THREADS {
            s.spawn(|| {
                for _ in 0..N_RECORDS {
                    mic_obs::counter("off.items", 1);
                    mic_obs::value("off.value", 1.0);
                    let span = mic_obs::span("off.span");
                    span.end();
                    calls.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(calls.load(Ordering::Relaxed), N_THREADS * N_RECORDS);
    assert!(
        mic_obs::snapshot().is_empty(),
        "disabled recorder must record nothing"
    );
}

#[test]
fn span_created_while_disabled_never_records() {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::disable();
    let span = mic_obs::span("late.span");
    // Enabling after creation must not resurrect the guard: it read no
    // clock, so it has nothing truthful to record.
    mic_obs::enable();
    drop(span);
    let snap = mic_obs::snapshot();
    mic_obs::disable();
    assert!(snap.timer("late.span").is_none());
}

#[test]
fn recorded_session_shows_in_snapshot() {
    let _guard = mic_obs::exclusive();
    mic_obs::reset();
    mic_obs::enable();
    mic_obs::counter("rt.count", 41);
    mic_obs::value("rt.delta", -0.125);
    mic_obs::value("rt.delta", 2.5);
    mic_obs::record_duration("rt.timer", Duration::from_nanos(750));
    mic_obs::record_duration("rt.timer", Duration::from_micros(3));
    {
        let _span = mic_obs::span("rt.span");
    }
    let mut snap = mic_obs::snapshot();
    mic_obs::disable();
    snap.add_derived("rt.cost_unit_ns", snap.timer("rt.timer").unwrap().mean_ns());

    assert_eq!(snap.counter("rt.count"), 41);
    let delta = snap.value("rt.delta").unwrap();
    assert_eq!(delta.count, 2);
    assert_eq!(delta.sum, 2.375);
    assert_eq!(delta.min, -0.125);
    assert_eq!(delta.max, 2.5);
    assert_eq!(delta.last, 2.5);
    let timer = snap.timer("rt.timer").unwrap();
    assert_eq!(timer.count, 2);
    assert_eq!(timer.total_ns, 3_750);
    assert_eq!(timer.min_ns, 750);
    assert_eq!(timer.max_ns, 3_000);
    assert_eq!(snap.timer("rt.span").unwrap().count, 1);
    assert_eq!(snap.derived["rt.cost_unit_ns"], 1_875.0);
}
