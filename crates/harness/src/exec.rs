//! Deterministic parallel execution of independent jobs.
//!
//! The executor distributes `n` index-addressed jobs over a pool of scoped
//! threads pulling from a shared atomic counter, then slots every result back
//! into its job's index. The output vector is therefore a pure function of the
//! job closure — identical for `--jobs 1` and `--jobs 32` regardless of thread
//! scheduling — which is what lets sweep output be byte-identical across
//! parallelism levels.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(0..n)` across `jobs` worker threads and returns the results in
/// index order.
///
/// With `jobs <= 1` (or fewer than two items) the jobs run inline on the
/// calling thread, in order; no threads are spawned. The parallel path
/// guarantees the same output ordering.
///
/// # Panics
/// Propagates a panic from any job.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    if jobs == 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, f(i)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("sweep worker thread panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job index produces exactly one result"))
        .collect()
}

/// The worker count when `FELA_JOBS` is unset: the machine's available
/// parallelism, else 1.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reads the count variable `var` through [`positive_count`]; `None` when it
/// is unset.
pub fn env_count(var: &str) -> Result<Option<usize>, String> {
    std::env::var(var)
        .ok()
        .map(|text| positive_count(var, &text))
        .transpose()
}

/// Parses a count variable such as `FELA_JOBS` or `FELA_ITERS`. A value that
/// is set but not a positive integer is an error, never clamped or ignored.
pub fn positive_count(var: &str, text: &str) -> Result<usize, String> {
    match text.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{var} must be a positive integer, got '{text}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |i: usize| i * i + 1;
        let seq = run_indexed(37, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_indexed(37, jobs, f), seq, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn order_is_index_order_not_completion_order() {
        // Make early indices slow so completion order inverts index order.
        let out = run_indexed(8, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 4 * i as u64));
            }
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn counts_must_be_positive_integers() {
        assert_eq!(positive_count("FELA_JOBS", " 4 "), Ok(4));
        for bad in ["0", "-2", "abc", "1e2", ""] {
            let e = positive_count("FELA_ITERS", bad).unwrap_err();
            assert_eq!(
                e,
                format!("FELA_ITERS must be a positive integer, got '{bad}'")
            );
        }
    }

    #[test]
    fn jobs_are_clamped() {
        assert_eq!(run_indexed(3, 100, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(3, 0, |i| i), vec![0, 1, 2]);
    }
}
