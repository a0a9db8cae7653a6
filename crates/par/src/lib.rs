//! # mic-par
//!
//! Scoped-thread parallel map over a slice, preserving input order.
//!
//! The paper's pipeline fits independent models at two granularities — one
//! medication model per month (Stage 1) and one state-space search per
//! series (Stage 2), the latter itself fanning out over `O(T)` candidate
//! change points — so a single work-queue primitive serves all three
//! layers. An atomic-counter queue over `std::thread::scope` gives
//! near-linear scaling without any external dependency.
//!
//! Each worker keeps the `(index, result)` pairs it computed and hands them
//! back when it is joined; the caller scatters them into input order. A
//! worker panic is caught, the queue is drained, and the panic is re-raised
//! on the calling thread with the index of the item that failed.
//!
//! [`parallel_map_with`] additionally threads one caller-built state value
//! per worker through every call — the hook the allocation-free fitting
//! workspaces (`EmWorkspace`, `FilterWorkspace`) use to amortise their
//! buffers across a worker's whole share of the queue.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// First worker panic: item index plus the payload to re-raise.
type PanicSlot = Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>>;

/// Apply `f` to every item on `n_threads` threads, preserving input order.
/// With `n_threads <= 1` (or a single item) runs inline.
///
/// `f` must be `Sync` (shared across threads by reference). If a worker
/// panics, the panic is propagated on the calling thread, prefixed with the
/// index of the item whose call failed.
pub fn parallel_map<T, R, F>(items: &[T], n_threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, n_threads, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker state: each worker thread builds one `S`
/// via `init` and passes it (mutably) to every call it performs. Use this to
/// reuse expensive scratch buffers — a fitting workspace, an arena — across
/// a worker's whole share of the queue without interior mutability.
///
/// Order of results matches `items`; `init` runs once per worker (also on
/// the inline single-thread path).
pub fn parallel_map_with<S, T, R, I, F>(items: &[T], n_threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = n_threads.clamp(1, items.len());
    if threads == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let panicked: PanicSlot = Mutex::new(None);
    let done: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut results = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(&mut state, &items[i]))) {
                            Ok(r) => results.push((i, r)),
                            Err(payload) => {
                                let mut guard = panicked.lock().unwrap_or_else(|e| e.into_inner());
                                if guard.is_none() {
                                    *guard = Some((i, payload));
                                }
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    results
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    if let Some((i, payload)) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        match detail {
            Some(msg) => panic!("parallel_map worker panicked on item {i}: {msg}"),
            None => {
                eprintln!("parallel_map worker panicked on item {i}");
                resume_unwind(payload)
            }
        }
    }
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in done.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every item was claimed by exactly one worker"))
        .collect()
}

/// A sensible default thread count: available parallelism minus one (leave a
/// core for the OS), at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_inline() {
        let items = vec![1, 2, 3];
        let out = parallel_map(&items, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        let out: Vec<u32> = parallel_map(&items, 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..500).collect();
        let out = parallel_map(&items, 7, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![10, 20];
        let out = parallel_map(&items, 64, |&x| x / 10);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_reports_item_index() {
        let items: Vec<u32> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&x| {
                if x == 17 {
                    panic!("bad item");
                }
                x
            })
        }))
        .expect_err("worker panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message");
        assert!(
            msg.contains("item 17") && msg.contains("bad item"),
            "message should name the failing item: {msg}"
        );
    }

    #[test]
    fn worker_panic_on_inline_path_propagates() {
        let items = vec![0u32, 1];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 1, |&x| {
                assert!(x == 0, "inline boom");
                x
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn panic_drops_completed_results_without_leaking() {
        // Results carry an Arc; every clone written before the panic must be
        // dropped on the propagation path (strong count returns to 1).
        use std::sync::Arc;
        let token = Arc::new(());
        let items: Vec<usize> = (0..200).collect();
        let res = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&i| {
                if i == 150 {
                    panic!("late failure");
                }
                Arc::clone(&token)
            })
        }));
        assert!(res.is_err());
        assert_eq!(Arc::strong_count(&token), 1, "completed results leaked");
    }

    #[test]
    fn per_worker_state_is_reused_within_a_worker() {
        // Each worker's state counts its own calls; the grand total over all
        // workers must equal the item count, and with one thread the single
        // state sees every item.
        let items: Vec<u32> = (0..100).collect();
        let out = parallel_map_with(
            &items,
            1,
            || 0usize,
            |seen, &x| {
                *seen += 1;
                (*seen, x)
            },
        );
        assert_eq!(out.last().unwrap().0, 100, "one state must see all items");
        let total_calls = AtomicU64::new(0);
        let init_calls = AtomicU64::new(0);
        parallel_map_with(
            &items,
            5,
            || {
                init_calls.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, _| {
                *seen += 1;
                total_calls.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(total_calls.load(Ordering::Relaxed), 100);
        assert_eq!(init_calls.load(Ordering::Relaxed), 5, "one init per worker");
    }

    #[test]
    fn parallel_matches_serial_for_stateful_pure_functions() {
        let items: Vec<f64> = (0..300).map(|i| i as f64 * 0.25).collect();
        let serial = parallel_map_with(&items, 1, || 0u8, |_, &x| (x.sin() * 1e6).to_bits());
        let parallel = parallel_map_with(&items, 6, || 0u8, |_, &x| (x.sin() * 1e6).to_bits());
        assert_eq!(serial, parallel);
    }
}
