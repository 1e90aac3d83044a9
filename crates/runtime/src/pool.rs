//! Scoped worker pool with ordered, deterministic results.
//!
//! The scheduling core — dynamic self-scheduling over an atomic cursor,
//! results returned **in index order**, borrowed data flowing into
//! workers via `std::thread::scope` — lives in
//! [`observatory_linalg::parallel`], at the bottom of the crate graph,
//! so crates below the runtime (the search crate's ANN build) share it.
//! This module wraps the primitive with the engine's observability: each
//! spawned worker opens a `pool/worker` span (trace level) parented to
//! the caller's innermost span, and records how many items it processed.
//!
//! Callers observe exactly the output of the serial loop regardless of
//! worker count or scheduling; panics propagate to the caller instead of
//! being lost. This is the only level of encode parallelism: the encoder
//! kernels run serially on whichever worker encodes the table, so a
//! parallel `encode_batch` uses exactly `jobs` threads.

use observatory_linalg::parallel;
use observatory_obs as obs;

pub use observatory_linalg::parallel::resolve_jobs;

/// Per-worker context: an RAII span that records its item count when the
/// worker exits (dropping the tally emits `items` before the span
/// closes).
struct WorkerSpan {
    span: obs::Span,
    items: usize,
}

impl Drop for WorkerSpan {
    fn drop(&mut self) {
        self.span.record("items", self.items);
    }
}

/// Evaluate `f(0..n)` on up to `jobs` threads; results are returned in
/// index order. `jobs <= 1` (or `n <= 1`) runs inline on the caller's
/// thread with zero spawn overhead (and no worker span).
///
/// # Panics
/// Re-raises the first worker panic.
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // The spawning thread's innermost span (e.g. `encode_batch`) becomes
    // the explicit parent of each worker span: workers have their own
    // (empty) span stacks, so the edge cannot come from thread-locals.
    let pool_parent = obs::current_span_id();
    parallel::run_indexed_scoped(
        jobs,
        n,
        |w| WorkerSpan {
            span: obs::span(obs::Level::Trace, "pool", "worker")
                .with_parent(pool_parent)
                .with("worker", w),
            items: 0,
        },
        |ctx, i| {
            ctx.items += 1;
            f(i)
        },
    )
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
    fn skewed_workloads_stay_ordered() {
        // Later indices finish first; ordering must still hold.
        let out = run_indexed(4, 16, |i| {
            std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_without_static() {
        let data = vec![10usize, 20, 30];
        let out = run_indexed(2, data.len(), |i| data[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
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
