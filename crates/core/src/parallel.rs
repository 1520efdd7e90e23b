//! Scoped-thread helpers for the per-routine analysis front-end.
//!
//! The front-end stages (CFG structure, `DEF`/`UBD` initialization, PSG
//! node creation and Figure-6 edge labeling) are embarrassingly parallel
//! across routines: each routine's result depends only on the immutable
//! program and the read-only results of earlier pipeline stages. These
//! helpers fan that work out over [`std::thread::scope`] workers pulling
//! routine indices from a shared atomic counter, then merge the results
//! back **in index order**, so every caller observes exactly the serial
//! result regardless of worker count or scheduling.
//!
//! No external thread-pool dependency is used; workers live only for the
//! duration of one stage.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a user-facing thread-count option: `0` means one worker per
/// available hardware thread, any other value is used as given.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Maps `f` over `0..count` with up to `workers` scoped threads and
/// returns the results in index order.
///
/// With one worker (or at most one item) no threads are spawned and `f`
/// runs inline, in order — the serial fast path.
pub fn par_map<T, F>(count: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(count, workers, || (), |(), i| f(i))
}

/// [`par_map`] with per-worker mutable state: each worker calls `init`
/// once and threads the state through every item it processes. Used to
/// reuse an expensive scratch allocation (e.g. the Figure-6 flow solver's
/// workspace) across the items of one worker.
///
/// The serial fast path creates a single state and reuses it for all
/// items, matching what a hand-written loop would do.
pub fn par_map_with<S, T, I, F>(count: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = workers.clamp(1, count.max(1));
    if workers == 1 {
        let mut state = init();
        return (0..count).map(|i| f(&mut state, i)).collect();
    }

    // Work-stealing by atomic counter: threads grab the next unclaimed
    // index, so an unlucky worker stuck on one huge routine cannot strand
    // a pre-assigned chunk behind it.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        done.push((i, f(&mut state, i)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("analysis worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every index was claimed by exactly one worker")).collect()
}

/// Runs `f` on every item of `items` in place, splitting the slice into
/// one contiguous chunk per worker. Items must be mutually independent.
pub fn par_for_each_mut<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for ch in items.chunks_mut(chunk) {
            scope.spawn(|| {
                for item in ch {
                    f(item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_uses_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn par_map_preserves_index_order() {
        for workers in [1, 2, 3, 8, 64] {
            let got = par_map(100, workers, |i| i * i);
            assert_eq!(got, (0..100).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        assert_eq!(par_map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn par_map_with_reuses_worker_state() {
        // Each worker's scratch counts how many items it processed; the
        // counts must sum to the item count without affecting results.
        let processed = AtomicUsize::new(0);
        let got = par_map_with(
            50,
            4,
            || 0usize,
            |state, i| {
                *state += 1;
                processed.fetch_add(1, Ordering::Relaxed);
                i * 2
            },
        );
        assert_eq!(got, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(processed.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn par_for_each_mut_touches_every_item_once() {
        for workers in [1, 2, 5, 16] {
            let mut v: Vec<usize> = (0..33).collect();
            par_for_each_mut(&mut v, workers, |x| *x += 1000);
            assert_eq!(v, (0..33).map(|i| i + 1000).collect::<Vec<_>>(), "workers={workers}");
        }
        let mut empty: Vec<usize> = Vec::new();
        par_for_each_mut(&mut empty, 4, |_| unreachable!("no items"));
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        // The determinism contract: same closure, any worker count, same
        // output vector (ordering and values).
        let serial = par_map(257, 1, |i| (i, i.wrapping_mul(0x9E3779B9)));
        for workers in [2, 4, 13] {
            assert_eq!(par_map(257, workers, |i| (i, i.wrapping_mul(0x9E3779B9))), serial);
        }
    }
}
