//! A scoped worker pool for embarrassingly-parallel simulation sweeps.
//!
//! The pool is built from `std` only (scoped threads + channels): the
//! workspace is offline/vendored, so no external executor crate is
//! available — and none is needed. Work items are pulled from a shared
//! queue by `jobs` worker threads; each item runs under
//! [`std::panic::catch_unwind`] so one panicking item surfaces as an error
//! while its siblings complete.
//!
//! Results are returned **in input order** regardless of `jobs` or of the
//! order workers happened to finish in, which is what makes parallel
//! sweeps bit-identical to serial ones: the mapping from input index to
//! output slot is fixed, and every item computes from its own inputs only.
//!
//! ```
//! use bl_simcore::pool;
//! let out = pool::scoped_map(vec![1u64, 2, 3, 4], 2, |_i, x| x * x);
//! let squares: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

use crate::budget::CancelToken;

/// The error string a cancelled (never-started) item's slot carries after
/// [`scoped_map_cancelable`] returns.
pub const CANCELLED: &str = "cancelled before start";

/// The number of worker threads to use when the caller asks for "all of
/// them" (`jobs == 0` at higher layers): the host's available parallelism,
/// or 1 if it cannot be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a pool of `jobs` scoped worker threads and
/// returns the results in input order.
///
/// `f` receives `(index, item)` so workers can label their work. A
/// panicking call is isolated: its slot carries `Err(message)` (the panic
/// payload rendered as a string) and every other item still completes.
/// `jobs` is clamped to `1..=items.len()`; `jobs <= 1` still runs items
/// through the same catch-unwind path, so serial and parallel execution
/// have identical failure semantics.
pub fn scoped_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    scoped_map_cancelable(items, jobs, &CancelToken::new(), f)
}

/// [`scoped_map`] with cooperative cancellation: once `cancel` trips, no
/// *new* item is started — in-flight items finish (or are interrupted by
/// their own budgets, if `f` polls the same token) and the skipped items'
/// slots carry `Err(`[`CANCELLED`]`)`.
///
/// This is what lets a sweep *worker process* abandon the rest of its
/// leased range the moment its coordinator dies, instead of burning
/// minutes of orphaned simulation nobody will ever merge.
pub fn scoped_map_cancelable<T, R, F>(
    items: Vec<T>,
    jobs: usize,
    cancel: &CancelToken,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || loop {
                // The lock is held only for the pop; `f` runs unlocked, and
                // a panic inside `f` cannot poison the queue.
                let job = queue.lock().expect("pool queue poisoned").pop_front();
                let Some((i, item)) = job else { break };
                if cancel.is_cancelled() {
                    // Deliver the slot so the collector still sees every
                    // index exactly once, then keep draining: sibling
                    // workers observe the same tripped token.
                    if tx.send((i, Err(CANCELLED.to_string()))).is_err() {
                        break;
                    }
                    continue;
                }
                // `p.as_ref()`, not `&p`: `&Box<dyn Any>` would itself
                // coerce to `&dyn Any` and hide the payload from downcasts.
                let r = catch_unwind(AssertUnwindSafe(|| f(i, item)))
                    .map_err(|p| panic_message(p.as_ref()));
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|slot| slot.expect("every index was delivered exactly once"))
            .collect()
    })
}

/// Renders a caught panic payload as a human-readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order_for_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 8, 64] {
            let out = scoped_map(items.clone(), jobs, |_, x| x * 3);
            let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(vals, (0..37).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<Result<u32, String>> = scoped_map(Vec::<u32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_item_does_not_kill_its_siblings() {
        let out = scoped_map(vec![1u32, 2, 3], 2, |_, x| {
            if x == 2 {
                panic!("boom on {x}");
            }
            x * 10
        });
        assert_eq!(out[0], Ok(10));
        assert_eq!(out[1], Err("boom on 2".to_string()));
        assert_eq!(out[2], Ok(30));
    }

    #[test]
    fn serial_path_catches_panics_too() {
        let out = scoped_map(vec![1u32, 2], 1, |_, x| {
            if x == 1 {
                panic!("first");
            }
            x
        });
        assert!(out[0].is_err());
        assert_eq!(out[1], Ok(2));
    }

    #[test]
    fn index_is_passed_through() {
        let out = scoped_map(vec!["a", "b", "c"], 3, |i, s| format!("{i}:{s}"));
        let vals: Vec<String> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn a_tripped_token_skips_unstarted_items() {
        // Serial pool, token tripped by the second item: item 3 must not
        // start, and its slot must say so.
        let token = CancelToken::new();
        let out = scoped_map_cancelable(vec![1u32, 2, 3], 1, &token, |_, x| {
            if x == 2 {
                token.cancel();
            }
            x * 10
        });
        assert_eq!(out[0], Ok(10));
        assert_eq!(out[1], Ok(20), "in-flight items finish");
        assert_eq!(out[2], Err(CANCELLED.to_string()));
    }

    #[test]
    fn an_untripped_token_changes_nothing() {
        let token = CancelToken::new();
        let out = scoped_map_cancelable((0..9u32).collect(), 3, &token, |_, x| x + 1);
        let vals: Vec<u32> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (1..10).collect::<Vec<_>>());
    }
}
