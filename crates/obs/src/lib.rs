//! # mic-obs
//!
//! Zero-dependency instrumentation for the prescription-trends workspace:
//! RAII timed [`span`]s, monotonic [`counter`]s, [`value`] statistics, and
//! log-scale latency histograms.
//!
//! ## Design
//!
//! Recording is **thread-local**: every increment lands in the calling
//! thread's private collector, so the parallel Kalman fleet pays no
//! cross-thread contention on the hot path. A collector is published — merged
//! under a mutex into one cumulative [`Snapshot`] — when its thread exits,
//! or explicitly via [`flush`]. An explicit `JoinHandle::join` waits for that
//! exit, but the implicit join at the end of `std::thread::scope` does not,
//! so scoped workers call [`flush`] before returning, as `AnalysisSession`'s
//! do. [`snapshot`] publishes the calling thread's collector and returns a
//! copy of the cumulative snapshot.
//!
//! The recorder is **disabled by default** and every recording entry point
//! starts with a single relaxed atomic load, so instrumented code compiled
//! into a binary that never calls [`enable`] pays one predictable branch per
//! call site — no timestamps, no hashing, no allocation.
//!
//! ## Metric name schema
//!
//! Names are dot-separated, grouped by layer:
//!
//! - `em.*` — medication-model EM (`em.iterations`, the map evaluations;
//!   `em.step` timer whose mean is the measured `C_EM`; `em.loglik_delta`;
//!   `em.squarem_fallbacks`, the rejected SQUAREM extrapolations;
//!   `em.capped`; and `em.events` / `em.cells`: the prescription events
//!   compiled and the distinct cells the E step runs over);
//! - `kf.*` — state-space fitting (`kf.loglik_evals`, `kf.loglik` timer
//!   whose mean is the measured `C_KF`, `kf.fits_exact` / `kf.fits_approx`).
//!   The screened change-point search counts `kf.searches_screened`,
//!   `kf.fits_screened` and `kf.screen_evals` (its fixed-variance passes,
//!   which also count in `kf.loglik_evals` and the `kf.loglik` timer) and
//!   records under the `kf.search.approx` timer, the pipeline's approximate
//!   mode; a series too short to screen runs Algorithm 2 and counts as
//!   `kf.searches_approx`;
//! - `pipeline.*` — per-stage timings and series admission/drop counts.
//!
//! ## Example
//!
//! ```
//! let _guard = mic_obs::exclusive(); // tests share one global recorder
//! mic_obs::reset();
//! mic_obs::enable();
//! {
//!     let _span = mic_obs::span("work.total");
//!     mic_obs::counter("work.items", 3);
//! }
//! let snap = mic_obs::snapshot();
//! assert_eq!(snap.counter("work.items"), 3);
//! assert_eq!(snap.timer("work.total").unwrap().count, 1);
//! mic_obs::disable();
//! ```

mod metrics;
mod snapshot;

pub use metrics::{bucket_index, bucket_upper_ns, TimerStat, ValueStat, N_BUCKETS};
pub use snapshot::Snapshot;

use metrics::LocalCollector;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the global recorder currently recording?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn recording off. In-flight spans created while enabled still record
/// on drop; new entry points become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Thread-local collection.

/// Wrapper whose drop publishes whatever the thread accumulated, so a worker
/// thread's metrics merge once an explicit `join()` on its handle returns.
/// A scope's implicit join can return before this drop runs.
struct LocalCell(LocalCollector);

impl Drop for LocalCell {
    fn drop(&mut self) {
        publish(std::mem::take(&mut self.0));
    }
}

thread_local! {
    static LOCAL: RefCell<LocalCell> = RefCell::new(LocalCell(LocalCollector::default()));
}

#[inline]
fn with_local(f: impl FnOnce(&mut LocalCollector)) {
    // try_with: recording during thread teardown (after the TLS destructor)
    // silently drops the sample instead of aborting.
    let _ = LOCAL.try_with(|cell| f(&mut cell.borrow_mut().0));
}

/// Add `delta` to the monotonic counter `name`.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_local(|c| *c.counters.entry(name).or_insert(0) += delta);
}

/// Record one `f64` observation under `name` (non-finite values ignored).
#[inline]
pub fn value(name: &'static str, v: f64) {
    if !enabled() || !v.is_finite() {
        return;
    }
    with_local(|c| c.values.entry(name).or_default().record(v));
}

/// Record an explicit duration under timer `name`.
#[inline]
pub fn record_duration(name: &'static str, d: Duration) {
    if !enabled() {
        return;
    }
    let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    with_local(|c| c.timers.entry(name).or_default().record_ns(ns));
}

/// RAII timed span: measures wall time from creation to drop and records it
/// under `name`. When the recorder is disabled at creation the guard is
/// inert — no clock is read.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// End the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let d = start.elapsed();
            // Record even if disabled raced in between: the span was paid
            // for, and the collector write is cheap.
            let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            with_local(|c| c.timers.entry(self.name).or_default().record_ns(ns));
        }
    }
}

/// Start a timed span.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

// ---------------------------------------------------------------------------
// Publication: finished collectors merge straight into the cumulative store.

fn publish(data: LocalCollector) {
    if !data.is_empty() {
        merged().merge_local(data);
    }
}

/// Publish the calling thread's collector to the cumulative store. Cheap
/// when nothing was recorded. Long-lived threads (e.g. `main`) should flush
/// before a snapshot is taken from another thread; [`snapshot`] flushes the
/// calling thread itself.
pub fn flush() {
    with_local(|c| publish(std::mem::take(c)));
}

/// The cumulative store every published collector merges into.
fn merged() -> MutexGuard<'static, Snapshot> {
    static MERGED: OnceLock<Mutex<Snapshot>> = OnceLock::new();
    MERGED
        .get_or_init(|| Mutex::new(Snapshot::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Merge the calling thread's collector into the cumulative snapshot and
/// return a copy of it.
pub fn snapshot() -> Snapshot {
    flush();
    merged().clone()
}

/// Clear all recorded metrics: the calling thread's collector and the merged
/// store. Call from the controlling thread between runs (live worker
/// threads' collectors cannot be reached and are not cleared — workers in
/// this workspace are scoped and exit before reset).
pub fn reset() {
    with_local(|c| *c = LocalCollector::default());
    *merged() = Snapshot::default();
}

/// Serialise access to the global recorder across tests. The recorder is
/// process-wide state; any test that calls [`enable`]/[`reset`]/[`snapshot`]
/// should hold this guard for its whole body.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Human-readable duration from nanoseconds (`412ns`, `3.1µs`, `2.4ms`,
/// `1.7s`).
pub fn format_ns(ns: f64) -> String {
    if !ns.is_finite() || ns < 0.0 {
        return "-".to_string();
    }
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = exclusive();
        reset();
        disable();
        counter("t.counter", 5);
        value("t.value", 1.0);
        record_duration("t.timer", Duration::from_millis(1));
        let s = span("t.span");
        drop(s);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn enabled_recorder_round_trip() {
        let _guard = exclusive();
        reset();
        enable();
        counter("t.counter", 2);
        counter("t.counter", 3);
        value("t.value", 1.5);
        value("t.value", f64::NAN); // ignored
        record_duration("t.timer", Duration::from_micros(10));
        {
            let _s = span("t.span");
        }
        let snap = snapshot();
        disable();
        assert_eq!(snap.counter("t.counter"), 5);
        assert_eq!(snap.value("t.value").unwrap().count, 1);
        assert_eq!(snap.timer("t.timer").unwrap().count, 1);
        assert_eq!(snap.timer("t.span").unwrap().count, 1);
        // Snapshots are cumulative until reset.
        counter("t.counter", 1);
        // (recorder disabled again: no effect)
        assert_eq!(snapshot().counter("t.counter"), 5);
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(412.0), "412ns");
        assert_eq!(format_ns(3_100.0), "3.1µs");
        assert_eq!(format_ns(2_400_000.0), "2.4ms");
        assert_eq!(format_ns(1_700_000_000.0), "1.70s");
        assert_eq!(format_ns(f64::NAN), "-");
    }
}
