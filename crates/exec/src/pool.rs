//! The scoped-thread fork-join pool.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Process-wide worker count, set once at startup by `repro --threads`.
/// Defaults to 1 so every run is sequential unless parallelism is asked
/// for explicitly.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide thread count used by [`ExecPool::global`].
/// `0` means "use all available parallelism".
pub fn set_global_threads(threads: usize) {
    let t = if threads == 0 {
        thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    GLOBAL_THREADS.store(t, Ordering::Relaxed);
}

/// The process-wide thread count (defaults to 1).
pub fn global_threads() -> usize {
    GLOBAL_THREADS.load(Ordering::Relaxed).max(1)
}

/// A fork-join pool over `std::thread::scope`.
///
/// The pool is a *policy*, not a set of live threads: each
/// [`ExecPool::map_indexed`] call spawns `threads` scoped workers that pull
/// index chunks off a shared atomic counter, and joins them all before
/// returning. Scoped spawning keeps borrowed data usable without `Arc` or
/// `'static` bounds, and the join barrier hands the caller every result
/// in index order.
#[derive(Copy, Clone, Debug)]
pub struct ExecPool {
    threads: usize,
}

impl ExecPool {
    /// A pool with exactly `threads` workers (`0` and `1` both mean
    /// sequential).
    pub fn new(threads: usize) -> Self {
        ExecPool {
            threads: threads.max(1),
        }
    }

    /// The pool configured by [`set_global_threads`] (`repro --threads`).
    pub fn global() -> Self {
        ExecPool::new(global_threads())
    }

    /// A single-threaded pool; `map_indexed` degenerates to a plain loop.
    pub fn sequential() -> Self {
        ExecPool::new(1)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0), f(1), …, f(len - 1)` across the pool and returns
    /// the results **in index order**.
    ///
    /// Work is claimed in chunks off an atomic counter, so the assignment
    /// of indices to threads is racy — but `f` must be a pure function of
    /// its index (it only reads shared data), so the *result vector*
    /// is deterministic regardless of scheduling. A panic in any worker is
    /// propagated to the caller after the scope joins.
    pub fn map_indexed<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || len <= 1 {
            return (0..len).map(f).collect();
        }
        let workers = self.threads.min(len);
        // Chunked claiming amortizes the atomic traffic; ~8 chunks per
        // worker keeps the tail imbalance below ~1/8 of a worker's share.
        let chunk = len.div_ceil(workers * 8).max(1);
        let next = AtomicUsize::new(0);
        let f = &f;

        let mut slots: Vec<Option<T>> = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        #[expect(clippy::disallowed_methods, reason = "prox-exec owns all threading")]
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced: Vec<(usize, T)> = Vec::new();
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= len {
                                break;
                            }
                            for i in start..(start + chunk).min(len) {
                                produced.push((i, f(i)));
                            }
                        }
                        produced
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(produced) => {
                        for (i, v) in produced {
                            slots[i] = Some(v);
                        }
                    }
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
        });
        #[expect(clippy::expect_used, reason = "no prox-core invariant here")]
        let out = slots
            .into_iter()
            .map(|s| s.expect("every index claimed exactly once"))
            .collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ExecPool::new(threads);
            let got = pool.map_indexed(100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = ExecPool::new(4);
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        let pool = ExecPool::new(4);
        let ids = Mutex::new(Vec::new());
        // A 2-party barrier inside `f` can only be released by two distinct
        // workers: a worker blocked in `f(i)` cannot claim the other chunk
        // (chunks are claimed one at a time), so a second worker must.
        let barrier = std::sync::Barrier::new(2);
        pool.map_indexed(2, |i| {
            barrier.wait();
            ids.lock()
                .expect("uncontended in test")
                .push(thread::current().id());
            i
        });
        let ids = ids.into_inner().expect("no poison");
        assert_ne!(ids[0], ids[1], "expected 2 distinct worker threads");
    }

    #[test]
    fn worker_panics_propagate() {
        let pool = ExecPool::new(2);
        let result = panic::catch_unwind(|| {
            pool.map_indexed(64, |i| {
                assert!(i != 40, "boom at {i}");
                i
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
    }

    #[test]
    fn global_threads_defaults_to_one() {
        // Other tests may have set the global; assert the clamp instead of
        // the raw default to stay order-independent.
        assert!(global_threads() >= 1);
        set_global_threads(3);
        assert_eq!(global_threads(), 3);
        assert_eq!(ExecPool::global().threads(), 3);
        set_global_threads(1);
    }
}
