//! The workspace's parallel-for primitive: scoped workers, ordered
//! results, zero `'static` bounds.
//!
//! This module is the dependency-inverted core of the
//! `observatory-runtime` worker pool: it lives here, at the bottom of the
//! crate graph, so crates that do not depend on the runtime (the search
//! crate's sharded ANN build) share one implementation, and
//! `observatory_runtime::pool` wraps it with span instrumentation.
//! Parallelism is table-level only — engine encode batches, store
//! compaction, ANN shards. The encoder kernels never call in here:
//! every supported sequence is small enough that splitting one encode
//! across threads costs more in spawns than it saves.
//!
//! Determinism: [`run_indexed`] evaluates a pure `f(0..n)` on up to
//! `jobs` threads and returns results **in index order**, so callers
//! observe exactly the output of the serial loop regardless of worker
//! count or scheduling. Work distribution is a single shared atomic
//! cursor (dynamic self-scheduling), which load-balances skewed
//! workloads without a per-item cost model.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolve a worker count: explicit request > `OBSERVATORY_JOBS` env
/// var > available parallelism (capped at 8 — encode batches rarely
/// scale past that within the default cache budget). Always at least 1.
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    requested
        .or_else(|| std::env::var("OBSERVATORY_JOBS").ok().and_then(|v| v.parse::<usize>().ok()))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)))
        .max(1)
}

/// Evaluate `f(0..n)` on up to `jobs` threads; results are returned in
/// index order. `jobs <= 1` (or `n <= 1`) runs inline on the caller's
/// thread with zero spawn overhead.
///
/// # Panics
/// Re-raises the first worker panic.
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_scoped(jobs, n, |_| (), |(), i| f(i))
}

/// [`run_indexed`] with a per-worker context: `setup(w)` runs once on
/// each spawned worker thread `w` before it pulls work, and the value it
/// returns is threaded through every `f(&mut ctx, i)` call that worker
/// makes, then dropped when the worker exits. The runtime pool uses
/// this to open an RAII tracing span per worker.
///
/// The inline fast path (`jobs <= 1 || n <= 1`) spawns no workers and
/// calls `setup(0)` exactly once, on the caller's thread, even when
/// `n == 0`. Otherwise `setup` runs once per spawned worker,
/// `jobs.min(n)` times. Results are bit-identical to the serial loop for
/// any `jobs`, because `f` is pure in `i`.
///
/// # Panics
/// Re-raises the first worker panic.
pub fn run_indexed_scoped<T, G, S, F>(jobs: usize, n: usize, setup: S, f: F) -> Vec<T>
where
    T: Send,
    S: Fn(usize) -> G + Sync,
    F: Fn(&mut G, usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        let mut ctx = setup(0);
        return (0..n).map(|i| f(&mut ctx, i)).collect();
    }
    let workers = jobs.min(n);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            let setup = &setup;
            scope.spawn(move || {
                let mut ctx = setup(w);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // A send can only fail if the receiver is gone, which
                    // means the parent scope is unwinding already.
                    if tx.send((i, f(&mut ctx, i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, v) in rx {
            slots[i] = Some(v);
        }
    });
    slots.into_iter().map(|s| s.expect("every index produced")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results_any_job_count() {
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 4, 8, 64] {
            assert_eq!(run_indexed(jobs, 100, |i| i * i), expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn scoped_context_threads_through() {
        // Each worker counts its own items; the sum of all contexts'
        // items equals n (observed via a side channel).
        use std::sync::atomic::AtomicUsize;
        let total = AtomicUsize::new(0);
        struct Tally<'a>(usize, &'a AtomicUsize);
        impl Drop for Tally<'_> {
            fn drop(&mut self) {
                self.1.fetch_add(self.0, Ordering::SeqCst);
            }
        }
        let out = run_indexed_scoped(
            3,
            20,
            |_w| Tally(0, &total),
            |t, i| {
                t.0 += 1;
                i * 2
            },
        );
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(total.load(Ordering::SeqCst), 20, "every item tallied exactly once");
    }

    #[test]
    fn setup_runs_once_inline_and_once_per_spawned_worker() {
        let count = |jobs: usize, n: usize| {
            let calls = AtomicUsize::new(0);
            let out = run_indexed_scoped(
                jobs,
                n,
                |_| {
                    calls.fetch_add(1, Ordering::SeqCst);
                },
                |(), i| i,
            );
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "jobs={jobs} n={n}");
            calls.load(Ordering::SeqCst)
        };
        // Inline path: exactly one setup(0) on the caller's thread.
        for (jobs, n) in [(1, 0), (1, 1), (1, 10), (0, 10), (4, 0), (4, 1)] {
            assert_eq!(count(jobs, n), 1, "inline jobs={jobs} n={n}");
        }
        // Spawned path: one setup per worker, jobs.min(n) workers.
        for (jobs, n) in [(2, 10), (3, 20), (4, 2), (8, 5)] {
            assert_eq!(count(jobs, n), jobs.min(n), "spawned jobs={jobs} n={n}");
        }
    }

    #[test]
    fn resolve_jobs_precedence() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1, "clamped to >= 1");
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn worker_panic_propagates() {
        run_indexed(2, 8, |i| {
            if i == 5 {
                panic!("worker boom");
            }
            i
        });
    }
}
