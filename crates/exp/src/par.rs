//! Index-ordered parallel map for the experiment grid.
//!
//! The paper's evaluation is an embarrassingly parallel grid — workload ×
//! governor × configuration cells, each owning its own seeded plant — so
//! the harness fans cells across a handful of scoped threads
//! (`std::thread::scope`, no external thread-pool dependency) and collects
//! results **in cell-index order**. Determinism falls out of two rules:
//!
//! 1. every cell computes from its own index-derived seed, never from
//!    shared mutable state, and
//! 2. reduction and emission always walk the results by cell index.
//!
//! Together they make CSVs and digests bit-identical at any job count.

use std::sync::Mutex;

/// Default worker count: the host's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Resolves the worker count for a run: the `--jobs` flag if given,
/// else [`default_jobs`]. Zero is rejected — a grid with no workers
/// cannot run.
///
/// # Errors
///
/// Returns a human-readable message for `--jobs 0`.
pub fn resolve_jobs(flag: Option<usize>) -> Result<usize, String> {
    match flag {
        Some(0) => Err("--jobs must be at least 1 (0 would leave the grid with no workers)".into()),
        Some(n) => Ok(n),
        None => Ok(default_jobs()),
    }
}

/// Applies `f` to every item on up to `jobs` threads and returns the
/// results **in item order**, regardless of which thread finished which
/// cell first.
///
/// The calling thread works alongside `min(jobs, cells, hardware
/// threads) − 1` scoped threads; a bound of one thread is a plain serial
/// map with no spawn at all. Every thread claims the next cell from one
/// shared iterator, so stragglers don't stall idle threads the way static
/// chunking would. Each call owns its threads, so a cell that
/// itself calls `par_map` (or runs a sharded cluster) cannot deadlock.
///
/// # Panics
///
/// A panic inside `f` reaches the caller once every thread has joined.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = jobs.min(items.len()).min(default_jobs());
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // One shared iterator hands out `(index, item)` cells in index
    // order; each thread returns `(index, result)` pairs, sorted back
    // into cell order below.
    let cells = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = cells.lock().expect("cell iterator poisoned").next();
            let Some((i, item)) = next else {
                return done;
            };
            done.push((i, f(i, item)));
        }
    };
    let mut results = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut results = work();
        for h in helpers {
            match h.join() {
                Ok(r) => results.extend(r),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_at_any_job_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 4, 8, 200] {
            let got = par_map(jobs, items.clone(), |i, x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_grids() {
        let none: Vec<i32> = par_map(4, Vec::<i32>::new(), |_, x| x);
        assert!(none.is_empty());
        assert_eq!(par_map(4, vec![7], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn results_come_back_in_order_even_when_late_cells_finish_first() {
        // Earlier cells sleep longer, so with >1 worker the completion
        // order inverts the index order; collection must not.
        let items: Vec<u64> = (0..8).collect();
        let got = par_map(4, items, |_, x| {
            std::thread::sleep(std::time::Duration::from_millis(8 - x));
            x
        });
        assert_eq!(got, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_par_map_cannot_deadlock() {
        // A cell that itself fans out — a spec grid whose cells run
        // fleets, or a harness calling the harness. Each call owns its
        // scoped threads, so this must complete rather than wedge.
        let outer = par_map(4, (0..6).collect::<Vec<usize>>(), |_, x| {
            let inner = par_map(4, (0..5).collect::<Vec<usize>>(), |_, y| x * 10 + y);
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..6).map(|x| (0..5).map(|y| x * 10 + y).sum()).collect();
        assert_eq!(outer, expected);
    }

    #[test]
    fn concurrency_is_capped_at_jobs_and_hardware_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for jobs in [1, 2, 3, 8] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            par_map(jobs, vec![(); 32], |_, ()| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                live.fetch_sub(1, Ordering::SeqCst);
            });
            let cap = jobs.min(default_jobs());
            assert!(peak.load(Ordering::SeqCst) <= cap, "jobs={jobs}");
        }
    }

    #[test]
    fn cell_panic_reaches_the_caller_and_later_maps_still_work() {
        // Index 5 lands on the caller or on a spawned thread depending on
        // timing; either way the panic must surface here.
        for jobs in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                par_map(jobs, (0..8).collect::<Vec<usize>>(), |_, x| {
                    assert_ne!(x, 5, "boom");
                    x
                })
            });
            assert!(result.is_err(), "jobs={jobs}");
        }
        assert_eq!(par_map(4, vec![1, 2, 3], |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn fallible_cells_collect_in_order() {
        let results: Vec<Result<usize, String>> = par_map(3, (0..6).collect(), |_, x| {
            if x == 4 {
                Err(format!("cell {x} failed"))
            } else {
                Ok(x)
            }
        });
        let first_err = results.into_iter().collect::<Result<Vec<_>, _>>();
        assert_eq!(first_err.unwrap_err(), "cell 4 failed");
    }

    #[test]
    fn resolve_jobs_validates_the_flag() {
        // An explicit flag is taken as is and 0 is rejected.
        assert_eq!(resolve_jobs(Some(3)), Ok(3));
        assert!(resolve_jobs(Some(0)).is_err());
        // With no flag, the host default applies.
        assert_eq!(resolve_jobs(None), Ok(default_jobs()));
    }
}
