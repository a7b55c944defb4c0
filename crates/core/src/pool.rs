//! The one worker pool of the crate: whole flows in
//! [`FlowSession::run_many`](crate::FlowSession::run_many), island
//! placements and placement trials in the implement pass all run on it.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Maps `f` over `0..n` on up to `threads` scoped workers and returns the
/// results in index order. Workers pull indices from one atomic counter,
/// so a slow item never holds up the rest of the queue. With one worker
/// or at most one item, `f` runs inline on the caller's thread. A panic
/// in `f` resumes on the caller.
pub(crate) fn map_indexed<R: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed: the counter only hands out indices; results travel back
    // through `join`.
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| panic::resume_unwind(panic)))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4] {
            for n in [0, 1, 5] {
                let out = map_indexed(threads, n, |i| i * 10);
                let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(out, want, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        for (threads, n) in [(1, 5), (4, 1)] {
            let ids = map_indexed(threads, n, |_| thread::current().id());
            assert!(
                ids.iter().all(|&id| id == caller),
                "threads {threads}, n {n}"
            );
        }
    }

    #[test]
    fn never_more_workers_than_items() {
        for (threads, n) in [(4, 2), (4, 3), (2, 5)] {
            let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            map_indexed(threads, n, |_| {
                seen.lock().unwrap().insert(thread::current().id());
            });
            let workers = seen.into_inner().unwrap().len();
            assert!(
                workers <= threads.min(n),
                "threads {threads}, n {n}: {workers} workers"
            );
        }
    }
}
